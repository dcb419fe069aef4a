"""The table build of ``MvAlgebra``, its constructors and ``quotient_by``
against the definitions of ``tests/oracles.py``.

``MvAlgebra.__post_init__`` builds each derived table a row or a column at
a time with ``bytes.translate``, ``make_lukasiewicz_chain`` writes its rows
as slices, and ``make_product`` adds two spread lines with one ``map``.
``oracles.derived_tables`` reads the definitions entry by entry from the
tuple ⊕ and ¬ tables alone, ``oracles.join`` and ``meet`` read the
methods' ∨ and ∧ entry by entry from → and ¬, and
``oracles.quotient_tables`` reads L/P at the cosets of ``oracles.cosets``;
they share no code with the build.

They are compared on the 197 census algebras, on relabelled copies (so that
the build cannot assume 0 is the bottom or that labels ascend), and on
tables that are not MV-algebras (so that it cannot assume ⊕ commutes).
"""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from mvfilters import cli, core, filters
from mvfilters.core import MvAlgebra, make_lukasiewicz_chain, make_product
from mvfilters.errors import InvalidArgument

import mutants
import oracles
from conftest import BAD, SPECS, arbitrary_tables, by_labels, census, chain, product, shuffled


def assert_built_by_definition(a):
    want = oracles.derived_tables(a)
    assert {name: getattr(a, name) for name in want} == want, a.name
    for method, oracle in [(a.join, oracles.join), (a.meet, oracles.meet)]:
        assert all(method(x, y) == oracle(a, x, y) for x in range(a.size)
                   for y in range(a.size)), (a.name, oracle.__name__)


def test_the_census_is_built_by_definition():
    algebras = census()
    assert len(algebras) == 197
    for ns in algebras:
        assert_built_by_definition(product(*ns))


@pytest.mark.parametrize("ns", [(8,), (3, 4), (2, 2, 2, 2)], ids=["L8", "L3xL4", "2^4"])
@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_copies_are_built_by_definition(ns, seed):
    b = shuffled(product(*ns), seed)
    # the copy moves the bottom, and ↑x no longer shrinks as x grows
    sizes = [bin(m).count("1") for m in b.up_mask]
    assert b.zero != 0 and sizes != sorted(sizes, reverse=True)
    assert_built_by_definition(b)


# ⊕ does not commute and ¬ is not a permutation
SKEW = MvAlgebra(3, ((0, 1, 2), (0, 0, 0), (2, 1, 1)), (1, 2, 2), 0)


@pytest.mark.parametrize("a", [BAD, SKEW], ids=["bad", "skew"])
def test_non_mv_tables_are_built_by_definition(a):
    assert core.check_mv_axioms(a)
    assert_built_by_definition(a)


def test_the_skew_table_does_not_commute():
    assert SKEW.oplus != tuple(zip(*SKEW.oplus))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=arbitrary_tables())
def test_arbitrary_tables_are_built_by_definition(a):
    assert_built_by_definition(a)


def test_imp_rows_are_the_oplus_rows():
    a = chain(8)
    assert all(a.imp[x] is a.oplus[a.neg[x]] for x in range(a.size))


@pytest.mark.parametrize("field", ["otimes"])
def test_a_changed_table_disagrees_with_the_definitions(field):
    a = chain(5)
    b = mutants.entry_changed(a, field, 1, 2, (getattr(a, field)[1][2] + 1) % 5)
    with pytest.raises(AssertionError):
        assert_built_by_definition(b)


L3_OPLUS = ((0, 1, 2), (1, 2, 2), (2, 2, 2))


@pytest.mark.parametrize("table, oplus, neg", [
    ("oplus", ((0, 1, 2), (1, 2, 3), (2, 2, 2)), (2, 1, 0)),
    ("oplus", ((0, 1, 2), (1, 2, 2), (-1, 2, 2)), (2, 1, 0)),
    ("neg", L3_OPLUS, (2, 3, 0)),
], ids=["oplus-entry-n", "oplus-entry-negative", "neg-entry-n"])
def test_an_entry_outside_the_carrier_is_refused(table, oplus, neg):
    MvAlgebra(3, L3_OPLUS, (2, 1, 0), 0)
    with pytest.raises(InvalidArgument, match=f"^{table} table entries"):
        MvAlgebra(3, oplus, neg, 0)


def test_chain_labels_are_the_fractions():
    for n in range(2, 257):
        assert make_lukasiewicz_chain(n).labels == tuple(
            str(Fraction(x, n - 1)) for x in range(n)
        ), n


def test_chain_oplus_is_truncated_addition():
    for n in (2, 3, 8, 64):
        a = make_lukasiewicz_chain(n)
        assert a.oplus == tuple(
            tuple(min(n - 1, x + y) for y in range(n)) for x in range(n)
        )
        assert a.neg == tuple(n - 1 - x for x in range(n))


@pytest.mark.parametrize("pair", [(2, 3), (4, 4), ((2, 2), 5)], ids=str)
def test_product_tables_are_componentwise(pair):
    a, b = (product(*f) if isinstance(f, tuple) else chain(f) for f in pair)
    p = make_product(a, b)
    nb = b.size

    def enc(x, y):
        return x * nb + y

    assert p.oplus == tuple(
        tuple(
            enc(a.oplus[x // nb][y // nb], b.oplus[x % nb][y % nb])
            for y in range(p.size)
        )
        for x in range(p.size)
    )
    assert p.neg == tuple(enc(a.neg[x // nb], b.neg[x % nb]) for x in range(p.size))
    assert p.zero == enc(a.zero, b.zero)
    assert p.labels == tuple(
        f"({a.labels[x // nb]},{b.labels[x % nb]})" for x in range(p.size)
    )


def test_the_one_element_product():
    one = MvAlgebra(1, ((0,),), (0,), 0)
    p = make_product(one, one)
    assert (p.size, p.oplus, p.neg, p.labels) == (1, ((0,),), (0,), ("(0,0)",))
    assert_built_by_definition(p)


def all_fields(a):
    return {f.name: getattr(a, f.name) for f in dataclasses.fields(a)}


def test_a_k_factor_product_equals_the_pairwise_fold():
    # conftest.product folds two factors at a time
    deep = [ns for ns in census() if len(ns) >= 3]
    assert len(deep) == 54
    for ns in deep:
        folded = make_product(*map(chain, ns))
        assert all_fields(folded) == all_fields(product(*ns)), ns
    assert folded.name == "L2xL2xL2xL2xL2xL2"
    assert folded.labels[1] == "(((((0,0),0),0),0),1)"


@pytest.mark.parametrize("name", ["l3cubed", "b5", "b6"])
def test_a_product_spec_builds_one_algebra(monkeypatch, name):
    spec = json.loads((SPECS / f"{name}.json").read_text())
    factors = [cli.build_algebra(s) for s in spec["factors"]]
    pairwise = factors[0]
    for b in factors[1:]:
        pairwise = make_product(pairwise, b)
    built = []
    real = MvAlgebra.__post_init__

    def counted(self):
        built.append(self.size)
        real(self)

    monkeypatch.setattr(MvAlgebra, "__post_init__", counted)
    a = cli.build_algebra(spec)
    assert all_fields(a) == all_fields(pairwise)
    # the product alone: its chain factors are read as raw tables, and no
    # intermediate fold is built
    assert built == [a.size]


# ---------------------------------------------------------------------------
# quotient_by: the tables of L/P and the well-definedness refusals


@pytest.mark.parametrize("ns", [(8,), (2, 3), (3, 3), (2, 2, 2), (4, 4)], ids=str)
def test_quotients_are_built_by_definition(ns):
    for a in (product(*ns), shuffled(product(*ns), 5)):
        for p in filters.enumerate_implication_filters(a):
            q = core.quotient_by(a, p).quotient
            assert (q.oplus, q.neg, q.zero) == oracles.quotient_tables(a, p)


def changed_copy(a, oplus=None, neg=None):
    """a with the ⊕ entries or ¬ entries in the dicts given replaced."""
    rows = [list(r) for r in a.oplus]
    for (x, y), v in (oplus or {}).items():
        rows[x][y] = v
    negs = list(a.neg)
    for x, v in (neg or {}).items():
        negs[x] = v
    return MvAlgebra(a.size, tuple(map(tuple, rows)), tuple(negs), a.zero,
                     labels=a.labels)


def test_quotient_refuses_a_congruence_that_breaks_addition():
    a = product(2, 2)
    b = changed_copy(a, oplus={(0, 1): 0})  # (0,0)⊕(0,1) := (0,0)
    p = by_labels(b, "(0,1)", "(1,1)")
    core.quotient_by(a, p)
    with pytest.raises(InvalidArgument, match="does not respect addition"):
        core.quotient_by(b, p)


def test_quotient_refuses_a_congruence_that_breaks_negation():
    a = product(2, 3)
    b = changed_copy(a, neg={1: 2})  # ¬(0,1/2) := (0,1)
    p = by_labels(b, "(0,1)", "(1,1)")
    core.quotient_by(a, p)
    with pytest.raises(InvalidArgument, match="does not respect negation"):
        core.quotient_by(b, p)


def test_quotient_refuses_an_irreflexive_relation():
    a = product(2, 2)
    b = changed_copy(a, neg={1: 0})  # ¬(0,1) := (0,0), so (0,1)→(0,1) ∉ P
    p = by_labels(b, "(1,0)", "(1,1)")
    core.quotient_by(a, p)
    with pytest.raises(InvalidArgument, match="not reflexive"):
        core.quotient_by(b, p)
