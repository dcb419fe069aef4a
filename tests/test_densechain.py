import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import mvfilters.densechain as dc
from mvfilters.errors import InvalidArgument


def F(s):
    return Fraction(s)


# ---------------------------------------------------------------------------
# frozen values


def test_sqto_golden_instance():
    assert str(dc.cut_sqto(dc.open_cut("4/5"), dc.open_cut("1/2"))) == "[7/10,1]"


def test_sqto_kind_dispatch():
    assert str(dc.cut_sqto(dc.closed_cut("4/5"), dc.open_cut("1/2"))) == "(7/10,1]"
    assert str(dc.cut_sqto(dc.open_cut("4/5"), dc.closed_cut("1/2"))) == "[7/10,1]"
    assert str(dc.cut_sqto(dc.closed_cut("4/5"), dc.closed_cut("1/2"))) == "[7/10,1]"


def test_sqto_collapses_on_reverse_containment():
    assert dc.cut_sqto(dc.open_cut("1/2"), dc.closed_cut("1/2")) == dc.TOP
    assert dc.cut_sqto(dc.open_cut("1/3"), dc.open_cut("1/2")) == dc.TOP
    assert dc.cut_sqto(dc.TOP, dc.TOP) == dc.TOP


def test_plus_swaps_endpoint_and_kind():
    assert str(dc.cut_plus(dc.open_cut("3/10"))) == "[7/10,1]"
    assert str(dc.cut_plus(dc.closed_cut("3/10"))) == "(7/10,1]"
    assert dc.cut_plus(dc.BOTTOM_FILTER) == dc.closed_cut(1)
    assert dc.cut_plus(dc.TOP) == dc.open_cut(0)


def test_plus_is_involutive_where_defined():
    for c in (dc.open_cut("2/7"), dc.closed_cut("2/7"), dc.TOP, dc.BOTTOM_FILTER):
        assert dc.cut_plus(dc.cut_plus(c)) == c


def test_kernel_is_top():
    assert dc.kernel_of_cut(dc.open_cut("9/10")) == dc.TOP
    assert dc.kernel_of_cut(dc.BOTTOM_FILTER) == dc.TOP


def test_improper_and_empty_rejected():
    for bad in (dc.closed_cut(0), dc.open_cut(1)):
        with pytest.raises(InvalidArgument):
            dc.cut_plus(bad)
        with pytest.raises(InvalidArgument):
            dc.cut_sqto(bad, dc.TOP)
    with pytest.raises(InvalidArgument):
        dc.Cut(F(2), dc.Kind.OPEN)


def test_cut_value_semantics():
    for bad in (F("-1/2"), F(-1), F("3/2"), F(2)):
        for kind in dc.Kind:
            with pytest.raises(InvalidArgument):
                dc.Cut(bad, kind)
    c = dc.open_cut("1/2")
    for name, value in (("endpoint", F(0)), ("kind", dc.Kind.CLOSED),
                        ("is_proper", False)):
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, value)
    rng = random.Random(23)
    randoms = [dc.Cut(dc.random_fraction(rng), rng.choice(list(dc.Kind)))
               for _ in range(1_000)]
    sentinels = [dc.closed_cut(0), dc.open_cut(1)]
    boundary = [dc.Cut(p, k) for p in (F(0), F("1/2"), F(1)) for k in dc.Kind]
    for cut in boundary + sentinels + randoms:
        # improper when closed at 0, empty when open at 1
        closed_at_0 = cut.kind is dc.Kind.CLOSED and cut.endpoint == 0
        open_at_1 = cut.kind is dc.Kind.OPEN and cut.endpoint == 1
        assert cut.is_proper == (not (closed_at_0 or open_at_1)), repr(cut)
    assert not any(s.is_proper for s in sentinels)
    # the stored flag takes no part in equality or hashing
    forced = dc.open_cut("1/2")
    object.__setattr__(forced, "is_proper", False)
    assert forced == c and hash(forced) == hash(c)
    assert repr(c) == "Cut(endpoint=Fraction(1, 2), kind=<Kind.OPEN: 'open'>)"
    assert str(c) == "(1/2,1]" and str(dc.TOP) == "[1,1]"
    with pytest.raises(TypeError):
        c < dc.closed_cut("1/2")  # cuts carry no order of their own


def test_cut_str_and_membership():
    c = dc.open_cut("1/2")
    assert str(c) == "(1/2,1]"
    assert F("1/2") not in c and F("2/3") in c
    assert F("1/2") in dc.closed_cut("1/2")


def test_equiv_ignores_kind():
    assert dc.hat_class(dc.open_cut("1/3")) == dc.hat_class(dc.closed_cut("1/3"))
    assert dc.hat_class(dc.open_cut("1/3")) != dc.hat_class(dc.open_cut("1/2"))


# ---------------------------------------------------------------------------
# closed forms against the quantifier-elimination oracle


def boundary_cuts():
    points = [F(0), F("1/4"), F("1/2"), F("3/4"), F(1)]
    cuts = []
    for p in points:
        for kind in (dc.Kind.OPEN, dc.Kind.CLOSED):
            c = dc.Cut(p, kind)
            if c.is_proper:
                cuts.append(c)
    return cuts


def test_closed_forms_on_boundary_templates():
    for f in boundary_cuts():
        assert dc.cut_plus(f) == dc.oracle_plus(f)
        for g in boundary_cuts():
            assert dc.cut_sqto(f, g) == dc.oracle_sqto(f, g), (str(f), str(g))


def test_closed_forms_on_random_pairs():
    rng = random.Random(20260826)
    for _ in range(10_000):
        f = dc.random_proper_cut(rng)
        g = dc.random_proper_cut(rng)
        assert dc.cut_sqto(f, g) == dc.oracle_sqto(f, g)
    for _ in range(2_000):
        f = dc.random_proper_cut(rng)
        assert dc.cut_plus(f) == dc.oracle_plus(f)


def test_oracle_member_agrees_pointwise(monkeypatch):
    monkeypatch.setattr(dc, "MAX_DEN", 60)
    rng = random.Random(7)
    for _ in range(500):
        f = dc.random_proper_cut(rng)
        g = dc.random_proper_cut(rng)
        s = dc.cut_sqto(f, g)
        z = dc.random_fraction(rng)
        assert dc.oracle_member(f, g, z) == (z in s)


# ---------------------------------------------------------------------------
# theorem-level behaviour


def test_equiv_via_sqto_collapse(monkeypatch):
    monkeypatch.setattr(dc, "MAX_DEN", 50)
    rng = random.Random(11)
    for _ in range(1_000):
        f = dc.random_proper_cut(rng)
        g = dc.random_proper_cut(rng)
        both_top = (
            dc.cut_sqto(f, g) == dc.TOP and dc.cut_sqto(g, f) == dc.TOP
        )
        assert both_top == (f.endpoint == g.endpoint)


def test_sqto_triple_reduction(monkeypatch):
    # ((F⊸G)⊸G)⊸G = F⊸G for nested pairs F ⊆ G
    monkeypatch.setattr(dc, "MAX_DEN", 40)
    rng = random.Random(13)
    for _ in range(1_000):
        f = dc.random_proper_cut(rng)
        g = dc.random_proper_cut(rng)
        if not f.issubset(g):
            f, g = g, f
        if not f.issubset(g):
            continue
        once = dc.cut_sqto(f, g)
        thrice = dc.cut_sqto(dc.cut_sqto(once, g), g)
        assert thrice == once, (str(f), str(g))


def test_double_application_contains_f(monkeypatch):
    monkeypatch.setattr(dc, "MAX_DEN", 40)
    rng = random.Random(19)
    for _ in range(1_000):
        f = dc.random_proper_cut(rng)
        g = dc.random_proper_cut(rng)
        if not f.issubset(g):
            f, g = g, f
        if not f.issubset(g):
            continue
        assert f.issubset(dc.cut_sqto(dc.cut_sqto(f, g), g))


# ---------------------------------------------------------------------------
# the derived chain on endpoint classes


def test_hat_class_operations_match_chain_arithmetic():
    x, y = F("2/3"), F("1/4")
    mx, my = dc.canonical_member(x), dc.canonical_member(y)
    assert dc.hat_class(dc.cut_sqto(mx, my)) == F("7/12")
    assert dc.hat_class(dc.cut_plus(mx)) == F("1/3")
    assert dc.hat_class(dc.cut_sqto(dc.cut_plus(mx), my)) == F("11/12")


def test_hat_respects_representatives(monkeypatch):
    monkeypatch.setattr(dc, "MAX_DEN", 30)
    rng = random.Random(17)
    for _ in range(1_000):
        f = dc.random_proper_cut(rng)
        g = dc.random_proper_cut(rng)
        cls = dc.hat_class(dc.cut_sqto(f, g))
        assert cls == dc.chain_imp(dc.hat_class(f), dc.hat_class(g))
        assert dc.hat_class(dc.cut_plus(f)) == 1 - dc.hat_class(f)


def test_canonical_member_round_trip():
    for cls in (F(0), F("1/3"), F(1)):
        c = dc.canonical_member(cls)
        assert c.is_proper
        assert dc.hat_class(c) == cls
