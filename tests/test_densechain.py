import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import mvfilters.densechain as dc
from mvfilters.errors import InvalidArgument


F = Fraction


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

    def endpoint():
        den = rng.randint(1, 1000)
        return F(rng.randint(0, den), den)

    randoms = [dc.Cut(endpoint(), rng.choice(list(dc.Kind))) for _ in range(1_000)]
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


@pytest.mark.parametrize(
    "endpoint, kind",
    [
        (F(0), "closed"),  # a kind that is not a Kind
        (0.5, dc.Kind.OPEN),  # a float endpoint
        (True, dc.Kind.OPEN),  # a bool is an int, but not an endpoint
    ],
    ids=["str-kind", "float-endpoint", "bool-endpoint"],
)
def test_cut_refuses_unchecked_inputs(endpoint, kind):
    with pytest.raises(InvalidArgument):
        dc.Cut(endpoint, kind)


def test_cut_holds_lowest_terms():
    c = dc.Cut(F(6, 8), dc.Kind.CLOSED)
    assert (c.num, c.den) == (3, 4) and c.endpoint == F(3, 4)
    assert dc.Cut(1, dc.Kind.CLOSED) == dc.TOP and dc.TOP.den == 1
    for name in ("num", "den"):
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, 1)


def test_cut_str_and_membership():
    c = dc.open_cut("1/2")
    assert str(c) == "(1/2,1]"
    assert str(dc.closed_cut("1/2")) == "[1/2,1]"


def test_equiv_ignores_kind():
    assert dc.hat_class(dc.open_cut("1/3")) == dc.hat_class(dc.closed_cut("1/3"))
    assert dc.hat_class(dc.open_cut("1/3")) != dc.hat_class(dc.open_cut("1/2"))


# ---------------------------------------------------------------------------
# an oracle that shares no code with densechain
#
# A cut is modelled as (endpoint, "open" | "closed"), and every operation is
# written from its definition on the chain with Fraction arithmetic:
# ]p,1] ⊆ ]q,1] iff p > q, or p = q unless the left cut is closed and the
# right one open; the meet is the cut with the larger endpoint, open on a
# tie if either is; ⁺ is (1 - p, the other kind); and F ⊸ G is {1} when
# G ⊆ F, else it ends at min(1, 1 - q + p), for q the endpoint of F∩G and p
# that of G, closed when G is, open when G is open and F∩G closed, and
# closed when both are open.


def model(c):
    """The cut as (endpoint, kind), after checking that it is in lowest terms."""
    assert c.den > 0 and gcd(c.num, c.den) == 1, (c.num, c.den)
    return (F(c.num, c.den), c.kind.value)


def ref_subset(f, g):
    (p, k), (q, l) = f, g
    return p > q or (p == q and not (k == "closed" and l == "open"))


def ref_meet(f, g):
    (p, k), (q, l) = f, g
    if p != q:
        return f if p > q else g
    return (p, "open" if "open" in (k, l) else "closed")


def ref_plus(f):
    p, k = f
    return (1 - p, "closed" if k == "open" else "open")


def ref_sqto(f, g):
    if ref_subset(g, f):
        return (F(1), "closed")
    (q, meet_kind), (p, g_kind) = ref_meet(f, g), g
    r = min(F(1), 1 - q + p)
    if g_kind == "closed":
        return (r, "closed")
    return (r, "open" if meet_kind == "closed" else "closed")


def assert_matches_reference(f, g):
    mf, mg = model(f), model(g)
    assert f.issubset(g) == ref_subset(mf, mg)
    assert model(dc.intersect(f, g)) == ref_meet(mf, mg)
    expected = ref_sqto(mf, mg)
    assert model(dc.cut_sqto(f, g)) == expected
    assert model(dc.oracle_sqto(f, g)) == expected
    assert model(dc.cut_plus(f)) == ref_plus(mf)
    assert model(dc.oracle_plus(f)) == ref_plus(mf)


def test_every_pair_of_cuts_up_to_denominator_12_matches_the_reference():
    points = sorted({F(k, d) for d in range(1, 13) for k in range(d + 1)})
    cuts = [c for p in points for c in (dc.open_cut(p), dc.closed_cut(p))
            if c.is_proper]
    assert len(cuts) == 2 * 47 - 2  # the Farey sequence of order 12 has 47 terms
    for f in cuts:
        for g in cuts:
            assert_matches_reference(f, g)


BIG = 2**64


@st.composite
def huge_cut_pairs(draw):
    """Two proper cuts whose endpoints are drawn with denominators above 2⁶⁴;
    the second shares the first's endpoint one time in four."""
    def endpoint():
        den = draw(st.integers(BIG + 1, BIG**2))
        return F(draw(st.integers(0, den)), den)

    p = endpoint()
    q = p if draw(st.integers(0, 3)) == 0 else endpoint()
    f = dc.Cut(p, draw(st.sampled_from(dc.Kind)))
    g = dc.Cut(q, draw(st.sampled_from(dc.Kind)))
    return f, g


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(huge_cut_pairs())
def test_huge_endpoints_match_the_reference(pair):
    f, g = pair
    if f.is_proper and g.is_proper:
        assert_matches_reference(f, g)


def test_samplers_draw_the_same_stream(monkeypatch):
    # the values and the rng state after them; the cuts are those the
    # Fraction-based sampler drew before cuts held integers
    rng = random.Random(2026)
    assert [str(dc.random_proper_cut(rng)) for _ in range(10)] == [
        "(20/61,1]", "[38/151,1]", "[586/803,1]", "[60/77,1]", "(0,1]",
        "(6/19,1]", "[5/461,1]", "(107/232,1]", "[128/407,1]", "[365/952,1]",
    ]
    assert rng.random() == 0.9996561240104579
    # a small MAX_DEN, read at call time, draws many improper cuts to skip
    monkeypatch.setattr(dc, "MAX_DEN", 3)
    rng = random.Random(2026)
    assert [str(dc.random_proper_cut(rng)) for _ in range(10)] == [
        "[1,1]", "(0,1]", "[1,1]", "[1,1]", "[1/2,1]",
        "[1,1]", "[1,1]", "(1/2,1]", "[1,1]", "[1,1]",
    ]
    assert rng.random() == 0.39814841685261304


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
