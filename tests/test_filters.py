import pytest

import mvfilters as mv
from mvfilters import calculus, core, filters
from mvfilters.errors import ResourceLimit

import oracles
from conftest import CHAINS, by_labels, census, product, shuffled


def test_lattice_filters_of_l3(l3):
    got = [l3.label_set(m) for m in filters.enumerate_lattice_filters(l3)]
    assert got == ["{1}", "{1/2, 1}", "{0, 1/2, 1}"]


def test_implication_filters_of_l3(l3):
    got = [l3.label_set(m) for m in filters.enumerate_implication_filters(l3)]
    assert got == ["{1}", "{0, 1/2, 1}"]


def test_prime_filters_of_l3(l3):
    primes = filters.enumerate_lattice_filters(l3, prime_only=True)
    assert [l3.label_set(m) for m in primes] == ["{1}", "{1/2, 1}"]


def test_enumeration_matches_power_set_scan(algebra):
    a = algebra
    if a.size > 12:
        pytest.skip("power-set scan too large")
    naive_lattice = [
        m for m in range(1 << a.size) if filters.is_lattice_filter(a, m)
    ]
    assert naive_lattice == filters.enumerate_lattice_filters(a)
    naive_impl = [
        m for m in range(1 << a.size) if filters.is_implication_filter(a, m)
    ]
    assert naive_impl == filters.enumerate_implication_filters(a)


def test_implication_filters_are_otimes_closed_lattice_filters(algebra):
    a = algebra
    for m in range(1, 1 << a.size):
        lhs = filters.is_implication_filter(a, m)
        rhs = (
            filters.is_lattice_filter(a, m)
            and bool((m >> a.one) & 1)
            and all(
                (m >> a.otimes[x][y]) & 1
                for x in oracles.members(m)
                for y in oracles.members(m)
            )
        )
        assert lhs == bool(rhs), a.label_set(m)


def test_prime_implication_iff_linear_quotient(algebra):
    a = algebra
    primes = filters.enumerate_implication_filters(a, prime_only=True)
    assert a.full_mask not in primes
    for m in filters.enumerate_implication_filters(a):
        if m != a.full_mask:
            q = core.quotient_by(a, m)
            assert (m in primes) == core.is_linear(q.quotient)


def test_up_closure_and_is_up_closed(l4):
    m = by_labels(l4, "1/3", "2/3", "1")  # {1/3} closed upward
    assert filters.is_up_closed(l4, m)
    assert not filters.is_up_closed(l4, 1 << 1)


def test_successor_structure_chains():
    for n, a in CHAINS.items():
        c, succ, pred = filters.successor_structure(a)
        assert c == 1  # the least nonzero element
        for x in range(a.size - 1):
            assert succ[x] == x + 1
        for x in range(1, a.size):
            assert pred[x] == x - 1


def test_successor_examples(l4, l5):
    _, succ, _ = filters.successor_structure(l4)
    assert succ[l4.labels.index("1/3")] == l4.labels.index("2/3")
    _, _, pred = filters.successor_structure(l5)
    assert pred[l5.labels.index("1/2")] == l5.labels.index("1/4")


def test_successor_structure_checks_both_covers():
    # a linear table that is no MV-algebra: every x⊕c covers x, but x⊖c
    # sends 0 to 2, and 2 ≤ 1 ≤ 0, so that step skips 1
    a = core.MvAlgebra(3, ((2, 2, 1), (2, 0, 0), (2, 2, 2)), (2, 0, 2), 2)
    assert core.is_linear(a)
    assert filters.successor_structure(a) is None
    assert oracles.successor_structure(a) is None


def test_principality(l4):
    f = by_labels(l4, "2/3", "1")
    assert filters.is_lattice_filter(l4, f)
    assert f in filters.enumerate_lattice_filters(l4, prime_only=True)
    assert mv.principal_generator(l4, f) == l4.labels.index("2/3")
    assert not filters.is_implication_filter(l4, f)
    # not a lattice filter: no generator
    assert mv.principal_generator(l4, by_labels(l4, "1/3", "1")) is None
    assert mv.principal_generator(l4, 0) is None


def test_every_finite_lattice_filter_is_principal(algebra):
    for m in filters.enumerate_lattice_filters(algebra):
        assert mv.principal_generator(algebra, m) is not None


def test_principal_generator_on_every_up_set(algebra):
    # the definition: on a lattice filter M, the one x with ↑x = M; None on
    # every other up-set
    for a in (algebra, shuffled(algebra, algebra.size)):
        for m in filters.enumerate_up_sets(a):
            want = None
            if filters.is_lattice_filter(a, m):
                (want,) = [x for x in range(a.size) if a.up_mask[x] == m]
            assert mv.principal_generator(a, m) == want, a.label_set(m)


def test_implication_filter_generated(l4):
    # 2/3 generates everything: 2/3 ⊗ 2/3 = 1/3, 1/3 ⊗ 1/3 = 0
    g = filters.implication_filter_generated(l4, 1 << l4.labels.index("2/3"))
    assert g == l4.full_mask
    assert filters.implication_filter_generated(l4, 0) == l4.one_mask


def test_carrier_cap_enforced():
    with pytest.raises(ResourceLimit):
        filters.enumerate_lattice_filters(mv.make_lukasiewicz_chain(65))
    assert len(filters.enumerate_lattice_filters(mv.make_lukasiewicz_chain(64))) == 64


@pytest.mark.parametrize(
    "ns", [(16,), (4, 4), (3, 3, 3), (2, 2, 2, 2, 2)], ids=["L16", "L4xL4", "L3^3", "2^5"]
)
def test_theory_enumeration_matches_up_set_search(ns):
    # beyond the reach of the power-set scan: the up-set walk is the oracle
    a = product(*ns)
    up_sets = filters.enumerate_up_sets(a)
    assert filters.enumerate_lattice_filters(a) == [
        m for m in up_sets if filters.is_lattice_filter(a, m)
    ]
    assert filters.enumerate_implication_filters(a) == [
        m for m in up_sets if filters.is_implication_filter(a, m)
    ]


@pytest.mark.parametrize(
    "ns", [(2,), (7,), (2, 3), (3, 5), (4, 4), (2, 3, 4), (3, 3, 3), (2,) * 6]
)
def test_closed_form_filter_counts(ns):
    # L_{n1} x ... x L_{nk}: one principal filter per element, one Boolean
    # element per subset of the factors, one prime implication filter per
    # factor, and one prime lattice filter per proper filter of a factor
    a = product(*ns)
    k = len(ns)
    assert len(filters.enumerate_lattice_filters(a)) == a.size
    assert len(filters.enumerate_implication_filters(a)) == 2 ** k
    assert len(filters.enumerate_implication_filters(a, prime_only=True)) == k
    assert len(filters.enumerate_lattice_filters(a, prime_only=True)) == sum(
        n - 1 for n in ns
    )


def test_ctx_of_boolean_cube_2_6_builds():
    # 2^6 has 7.8 M up-sets; a walk over them would stall here
    from mvfilters.verify import Ctx

    ctx = Ctx(product(*(2,) * 6))
    assert (len(ctx.lattice), len(ctx.primes)) == (64, 6)
    assert (len(ctx.impl), len(ctx.prime_impl)) == (64, 6)


def test_prime_filters_match_the_definition_on_the_census():
    algebras = census()
    assert len(algebras) == 197
    for ns in algebras:
        a = product(*ns)
        assert filters.enumerate_lattice_filters(a, prime_only=True) == [
            m for m in filters.enumerate_lattice_filters(a)
            if oracles.is_prime_lattice_filter(a, m)
        ], ns


def test_kernel_matches_two_independent_values_on_the_census():
    # K(F) is the meet of →-column reads; on a finite algebra it is also the
    # largest implication filter inside F, and, since F is an up-set, the
    # set of z with F⊗z ⊆ F (z→x ∈ F iff f⊗z ≤ x for some f ∈ F)
    filters_checked = 0
    for ns in census():
        a = product(*ns)
        impl = filters.enumerate_implication_filters(a)
        for f in filters.enumerate_lattice_filters(a):
            inside = [p for p in impl if p & ~f == 0]
            largest = max(inside, key=int.bit_count)
            assert all(p & ~largest == 0 for p in inside), (ns, f)
            assert calculus.kernel(a, f) == largest == oracles.sqto_full(a, f, f), (
                ns, a.label_set(f)
            )
            filters_checked += 1
    assert filters_checked == 7498


def test_ctx_builds_its_lists_without_the_lattice_predicate(monkeypatch, algebra):
    from mvfilters.verify import Ctx

    def refused(a, mask):
        raise AssertionError("Ctx decided a lattice filter by the predicate")

    monkeypatch.setattr(filters, "is_lattice_filter", refused)
    ctx = Ctx(algebra)
    assert ctx.primes


def prime_impl_by_linear_quotient(a):
    """Proper implication filters P whose quotient L/P is a chain."""
    return [
        p for p in filters.enumerate_implication_filters(a)
        if p != a.full_mask and core.is_linear(core.quotient_by(a, p).quotient)
    ]


def test_prime_implication_filters_match_the_definition_on_the_census():
    # the theory list (maximal proper ↑b) against two readings of "prime":
    # the definition, and a linearly ordered quotient
    algebras = [product(*ns) for ns in census()]
    algebras += [
        shuffled(product(*ns), seed)
        for seed, ns in enumerate([(64,), (8, 8), (2,) * 6, (4, 4, 4)], start=1)
    ]
    for a in algebras:
        primes = filters.enumerate_implication_filters(a, prime_only=True)
        assert primes == [
            p for p in filters.enumerate_implication_filters(a)
            if oracles.is_prime_implication_filter(a, p)
        ], a.name
        assert primes == prime_impl_by_linear_quotient(a), a.name
