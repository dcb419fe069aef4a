"""The filter cross-checks against the power-set scans they replaced.

``enum:crosscheck`` and ``impl:lattice-otimes`` decide their definitions
only on the masks of ``filters.enumerate_up_sets``: every lattice filter and
every implication filter is an up-set.  ``enum_crosscheck_scan`` and
``impl_vs_lattice_scan`` are the statements' bodies as they were, deciding
every one of the 2ⁿ masks; they share the predicates but not the walk, and
read primality from ``oracles.is_prime_lattice_filter`` and
``oracles.is_prime_implication_filter``.  Each statement must give its
scan's status and witness list, and the walk must list exactly the
up-closed masks of the power set, on:

- every census algebra of at most 12 elements, and a relabelled copy of each;
- the non-MV table ``conftest.BAD``;
- hypothesis-drawn arbitrary tables; on many of them ↑ is not
  antisymmetric, so that an element of ↑x can come after x in the walk.
"""

from itertools import product

import pytest
from hypothesis import given, settings

from mvfilters import filters, run_finite, verify

import oracles
from conftest import BAD, arbitrary_tables, census, product as chain_product, shuffled


def enum_crosscheck_scan(ctx, out):
    a = ctx.a
    naive = [m for m in range(1 << a.size) if filters.is_lattice_filter(a, m)]
    if naive != ctx.lattice:
        out.append(("lattice filter lists differ", len(naive), len(ctx.lattice)))
    naive_primes = [m for m in naive if oracles.is_prime_lattice_filter(a, m)]
    if naive_primes != ctx.primes:
        out.append(("prime filter lists differ", len(naive_primes), len(ctx.primes)))
    naive_impl = [m for m in range(1 << a.size) if filters.is_implication_filter(a, m)]
    if naive_impl != ctx.impl:
        out.append(("implication filter lists differ",))
    naive_prime_impl = [p for p in naive_impl if oracles.is_prime_implication_filter(a, p)]
    if naive_prime_impl != ctx.prime_impl:
        out.append(("prime implication filter lists differ",
                    len(naive_prime_impl), len(ctx.prime_impl)))


def impl_vs_lattice_scan(ctx, out):
    a = ctx.a
    for m in range(1, 1 << a.size):
        lhs = filters.is_implication_filter(a, m)
        rhs = (
            filters.is_lattice_filter(a, m)
            and (m >> a.one) & 1
            and all((m >> a.otimes[x][y]) & 1
                    for x, y in product(oracles.members(m), repeat=2))
        )
        if lhs != bool(rhs):
            out.append((ctx.show(m), lhs, bool(rhs)))


SCANS = {
    "enum:crosscheck": enum_crosscheck_scan,
    "impl:lattice-otimes": impl_vs_lattice_scan,
}


def assert_the_walk_matches_the_scans(a):
    assert filters.enumerate_up_sets(a) == [
        m for m in range(1 << a.size) if filters.is_up_closed(a, m)
    ], a.name
    for stmt, scan in SCANS.items():
        (result,) = run_finite(a, only=[stmt]).results
        want: list = []
        scan(verify.Ctx(a), want)
        assert (result.status, result.witnesses) == (
            "fail" if want else "pass", want
        ), (a.name, stmt)


SMALL_CENSUS = [chain_product(*ns) for ns in census(12)]


@pytest.mark.parametrize("a", SMALL_CENSUS, ids=lambda a: a.name)
def test_census_algebras_match_the_scans(a):
    assert_the_walk_matches_the_scans(a)
    assert_the_walk_matches_the_scans(shuffled(a, a.size))


def test_the_non_mv_table_matches_the_scans():
    assert_the_walk_matches_the_scans(BAD)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=arbitrary_tables())
def test_arbitrary_tables_match_the_scans(a):
    assert_the_walk_matches_the_scans(a)
