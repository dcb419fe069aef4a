from collections import Counter

import pytest

import mvfilters as mv
from mvfilters import calculus, core, filters
from mvfilters.errors import InvalidArgument

import oracles
from conftest import (
    ALL_ALGEBRAS, CHAINS, PRODUCTS, assert_check_can_fail, by_labels, cold_j_down,
    cold_j_up, cold_phi, cold_sqto_fast, cold_sqto_full, drop_lowest,
)


def show(a, mask):
    return a.label_set(mask)


# ---------------------------------------------------------------------------
# frozen values on small chains


def test_subordinate_values(l3, l4):
    up_half = by_labels(l3, "1/2", "1")
    assert show(l3, calculus.subordinate(l3, up_half, 0)) == "{1}"
    up_23 = by_labels(l4, "2/3", "1")
    assert show(l4, calculus.subordinate(l4, up_23, l4.labels.index("1/3"))) == "{1}"


def test_kernel_values(l3):
    assert show(l3, mv.kernel(l3, by_labels(l3, "1/2", "1"))) == "{1}"
    assert show(l3, mv.kernel(l3, l3.one_mask)) == "{1}"
    assert show(l3, mv.kernel(l3, l3.full_mask)) == "{0, 1/2, 1}"


def test_set_plus_values(l3):
    assert show(l3, mv.set_plus(l3, l3.one_mask)) == "{1/2, 1}"
    assert show(l3, mv.set_plus(l3, by_labels(l3, "1/2", "1"))) == "{1}"


def test_sqto_values(l3):
    up_half = by_labels(l3, "1/2", "1")
    assert show(l3, mv.sqto(l3, l3.one_mask, up_half)) == "{1/2, 1}"
    assert show(l3, mv.sqto(l3, up_half, l3.one_mask)) == "{1}"
    assert show(l3, mv.sqto(l3, up_half, up_half)) == "{1}"


def test_phi_and_tensor_values(l3):
    up_half = by_labels(l3, "1/2", "1")
    assert show(l3, cold_phi(l3, up_half, l3.one_mask)) == "{1/2, 1}"
    assert show(l3, calculus.tensor_up(l3, up_half, l3.one_mask)) == "{1/2, 1}"
    # products reach 0, so T and Φ blow up to the whole carrier together
    assert calculus.tensor_up(l3, up_half, up_half) == l3.full_mask
    assert cold_phi(l3, up_half, up_half) == l3.full_mask


def test_kernel_rel_conventions(l3):
    up_half = by_labels(l3, "1/2", "1")
    assert calculus.kernel_rel(l3, up_half, 0) == l3.full_mask  # empty intersection
    with pytest.raises(InvalidArgument):
        calculus.kernel_rel(l3, up_half, up_half)  # X must avoid the filter


def test_kernel_rel_refuses_an_x_outside_the_carrier(l3):
    # the column fold drops selector bits at or above n, so such an X would
    # otherwise be read as its part inside the carrier
    one = l3.one_mask
    assert calculus.kernel_rel(l3, one, 1) == calculus.subordinate(l3, one, 0)
    for x_mask in (1 << 3, 1 | 1 << 3, 1 << 64):
        with pytest.raises(InvalidArgument, match="subset of the carrier"):
            calculus.kernel_rel(l3, one, x_mask)


def test_sqto_bottom_propagates(l3):
    assert mv.sqto(l3, 0, l3.one_mask) == 0
    assert mv.sqto(l3, l3.one_mask, 0) == 0


def test_sqto_full_empty_off_nested_pairs(l3):
    up_half = by_labels(l3, "1/2", "1")
    assert cold_sqto_full(l3, up_half, l3.one_mask) == 0
    # on nested pairs it matches sqto
    assert cold_sqto_full(l3, l3.one_mask, up_half) == mv.sqto(
        l3, l3.one_mask, up_half
    )


def test_equiv_on_chains_is_equality(monkeypatch, l5):
    # equiv:discrete: both ⊸ values are {1} exactly when F = G
    assert_check_can_fail(
        monkeypatch, l5, "equiv:discrete", calculus, "sqto", drop_lowest
    )


# ---------------------------------------------------------------------------
# exhaustive laws


def test_definitional_equals_fast_form(algebra):
    primes = filters.enumerate_lattice_filters(algebra, prime_only=True)
    for f in primes:
        for g in primes:
            assert mv.sqto(algebra, f, g) == cold_sqto_fast(algebra, f, g)


def test_sqto_lands_inside_target(algebra):
    primes = filters.enumerate_lattice_filters(algebra, prime_only=True)
    for f in primes:
        for g in primes:
            assert mv.sqto(algebra, f, g) & ~g == 0


def test_reduction_theorem(monkeypatch, algebra):
    # thm:reduction checks that J_u/J_d keep F⊸G and reach a common kernel
    assert_check_can_fail(
        monkeypatch, algebra, "thm:reduction", calculus, "j_down",
        drop_lowest,
    )


def test_kernel_of_sqto(monkeypatch, algebra):
    assert_check_can_fail(
        monkeypatch, algebra, "thm:kernel-sqto", calculus, "sqto",
        drop_lowest,
    )


def test_j_down_bottom_case():
    a = core.make_product(CHAINS[2], CHAINS[2])
    f = core.mask_of(
        i for i, lab in enumerate(a.labels) if lab in ("(0,1)", "(1,1)")
    )
    p = core.mask_of(i for i, lab in enumerate(a.labels) if lab.startswith("(1,"))
    assert cold_j_down(a, f, p) == 0


def test_j_up_j_down_examples(l4):
    up_23 = by_labels(l4, "2/3", "1")
    # P = {1}: both operators are the identity
    assert cold_j_up(l4, up_23, l4.one_mask) == up_23
    assert cold_j_down(l4, up_23, l4.one_mask) == up_23
    # P improper: one coset, so J_u is everything and J_d collapses
    assert cold_j_up(l4, up_23, l4.full_mask) == l4.full_mask
    assert cold_j_down(l4, up_23, l4.full_mask) == 0


def test_boundary_coset(l4):
    up_23 = by_labels(l4, "2/3", "1")
    # K = {1} ⊊ improper P: the single coset straddles
    q = core.quotient_by(l4, l4.full_mask)
    k = calculus.kernel(l4, up_23)
    assert calculus.boundary_coset(l4, up_23, k, q) == l4.full_mask
    with pytest.raises(InvalidArgument):  # needs K(F) ⊊ P
        calculus.boundary_coset(l4, up_23, k, core.quotient_by(l4, l4.one_mask))


def test_boundary_coset_in_product(l2xl3):
    a = l2xl3
    p = core.mask_of(i for i, lab in enumerate(a.labels) if lab.startswith("(1,"))
    # F = {(1,1)} has kernel {(1,1)} ⊊ P; P's own coset is the straddler
    q = core.quotient_by(a, p)
    assert calculus.boundary_coset(a, a.one_mask, a.one_mask, q) == p


PARTITION = core.congruence_cosets


def count_partitions(monkeypatch, a, only=None):
    """congruence_cosets calls per P during run_finite(a, only=only)."""
    calls = Counter()

    def counted(b, p_mask):
        calls[p_mask] += 1
        return PARTITION(b, p_mask)

    monkeypatch.setattr(core, "congruence_cosets", counted)
    assert mv.run_finite(a, only=only).ok
    return calls


BOUNDARY_STATEMENTS = ["def:boundary", "thm:hat-eta", "thm:composite"]


def test_each_quotient_is_partitioned_once(monkeypatch, algebra):
    # boundary cosets read the quotient they are handed; only quotient_by
    # partitions L, once per P in the Ctx quotient cache
    calls = count_partitions(monkeypatch, algebra, BOUNDARY_STATEMENTS)
    assert calls and set(calls.values()) == {1}
    # a full run partitions each implication filter exactly once, in the
    # Ctx quotient cache that J_u, J_d and fact:d read too
    impl = filters.enumerate_implication_filters(algebra)
    assert count_partitions(monkeypatch, algebra) == {p: 1 for p in impl}


@pytest.mark.parametrize("name, total", [("L8", 2), ("L2xL3", 3)])
def test_boundary_statements_partition_each_p_once(monkeypatch, name, total):
    a = ALL_ALGEBRAS[name]
    assert sum(count_partitions(monkeypatch, a, BOUNDARY_STATEMENTS).values()) == total


def test_convexity(l4):
    assert calculus.is_convex(l4, by_labels(l4, "1/3", "2/3"))
    assert not calculus.is_convex(l4, by_labels(l4, "0", "2/3"))
    ids = ["lem:convex-imp", "lem:convex-neg", "lem:convex-otimes"]
    report = mv.run_finite(l4, only=ids)
    assert [(r.id, r.status) for r in report.results] == [(i, "pass") for i in ids]


@pytest.mark.parametrize("a", [CHAINS[6], PRODUCTS["L2xL3"]], ids=["L6", "L2xL3"])
def test_is_convex_matches_pointwise_definition(a):
    verdicts = [calculus.is_convex(a, m) for m in range(1 << a.size)]
    assert verdicts == [oracles.is_convex(a, m) for m in range(1 << a.size)]
    assert True in verdicts and False in verdicts


def test_quotient_commutation(monkeypatch, algebra):
    assert_check_can_fail(
        monkeypatch, algebra, "prop:quot-commute", calculus, "sqto",
        drop_lowest,
    )
