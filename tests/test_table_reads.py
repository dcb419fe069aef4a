"""The byte-table reads against the oracles of ``tests/oracles.py``.

``MvAlgebra`` keeps its → rows, ⊗ rows and → columns as reversed ``bytes``,
and ``core.read_lines`` reads the lines picked by a mask into another mask,
each with one ``bytes.translate`` and one ``int(…, 2)``.  It is compared
with ``oracles.read_lines`` on random picks, the empty picks included, and
behind it ``calculus.rows``, ``MvAlgebra.columns`` (at the picks ∅, M and
L∖M), ``calculus.subordinate``, ``calculus.set_plus``, ``calculus.kernel``,
``calculus.kernel_rel`` (at X = ∅, which gives L, at L∖M and at random
X ⊆ L∖M), ``core.congruence_cosets``, ``filters.is_lattice_filter``,
``filters.is_implication_filter`` and the ``order:partial`` statement,
which reads ``up_mask``.  ``core.is_linear``, the immediacy test of
``filters.successor_structure`` and the theory list of prime implication
filters (``filters.enumerate_implication_filters(a, prime_only=True)``)
read ``up_mask`` and ``down_mask`` too; the list is compared with
``oracles.is_prime_implication_filter`` on the MV-algebras among the test
algebras, as it is exact on those only.  The oracles read only the tuple
tables, entry by entry, so they share no code with the byte reads.

Each read is compared with its oracle on the ten test algebras, on Ł64 and
2⁶ (the sizes at which the reads matter), on Ł8 and Ł2×Ł3 relabelled, on
the hand-built non-MV table ``conftest.BAD`` and on hypothesis-drawn
arbitrary tables.  The masks are every lattice filter and every implication
filter, the empty and the full mask, and hypothesis-drawn arbitrary masks.
An algebra with one derived byte changed must disagree with an oracle, so
these comparisons can fail.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvfilters import calculus, core, filters, verify
from mvfilters.core import MvAlgebra
from mvfilters.errors import InvalidArgument

import mutants
import oracles
from conftest import ALL_ALGEBRAS, BAD, arbitrary_tables, chain, product, shuffled


# each byte table, and the tuple table the oracles read it from
LINE_TABLES = {
    "imp_bytes": lambda a: a.imp,
    "otimes_bytes": lambda a: a.otimes,
    "imp_col_bytes": lambda a: tuple(zip(*a.imp)),  # column y: z→y at z
}


def assert_lines_agree(a, picks, mask):
    for name, table in LINE_TABLES.items():
        assert list(core.read_lines(getattr(a, name), picks, mask)) == (
            oracles.read_lines(table(a), picks, mask)
        ), name


def outcome(fn, a):
    """fn(a), or the message of the InvalidArgument it raises."""
    try:
        return fn(a)
    except InvalidArgument as e:
        return str(e)


def assert_order_reads_agree(a):
    assert core.is_linear(a) == oracles.is_linear(a)
    assert outcome(filters.successor_structure, a) == (
        outcome(oracles.successor_structure, a)
    )


def order_read(a):
    out = []
    verify.FINITE_STATEMENTS["order:partial"][1](verify.Ctx(a), out)
    return out


def assert_relative_kernel_agrees(a, mask, picks):
    """K_M(X) at X = picks∖M equals its oracle."""
    xs = picks & ~mask
    assert calculus.kernel_rel(a, mask, xs) == oracles.kernel_rel(a, mask, xs), xs


def assert_mask_agrees(a, mask):
    """Every read into mask, or into L∖mask, equals its oracle."""
    for picks in (0, mask):
        assert_lines_agree(a, picks, mask)
    for name in ("imp", "otimes"):
        assert calculus.rows(a, name, mask) == oracles.rows(getattr(a, name), mask), name
    for elem in range(a.size):
        assert calculus.subordinate(a, mask, elem) == oracles.subordinate(a, mask, elem)
    for picks in (0, mask, a.full_mask & ~mask):
        assert list(a.columns(mask, picks)) == [
            oracles.subordinate(a, mask, x) for x in oracles.members(picks)
        ], picks
    assert calculus.set_plus(a, mask) == oracles.set_plus(a, mask)
    assert calculus.kernel(a, mask) == oracles.kernel(a, mask)
    assert oracles.kernel_rel(a, mask, 0) == a.full_mask
    for xs in (0, a.full_mask & ~mask):
        assert_relative_kernel_agrees(a, mask, xs)
    assert core.congruence_cosets(a, mask) == oracles.cosets(a, mask)
    assert filters.is_lattice_filter(a, mask) == oracles.is_lattice_filter(a, mask)
    assert filters.is_implication_filter(a, mask) == (
        oracles.is_implication_filter(a, mask)
    )
    primes = PRIME_IMPL.get(a)
    if primes is not None:
        assert (mask in primes) == oracles.is_prime_implication_filter(a, mask)


ALGEBRAS = ALL_ALGEBRAS | {
    "L64": chain(64),
    "2^6": product(2, 2, 2, 2, 2, 2),
    "L8 relabelled": shuffled(chain(8), 8),
    "L2xL3 relabelled": shuffled(product(2, 3), 6),
    "bad": BAD,
}
# the theory list is exact on MV-algebras only, so BAD has none
PRIME_IMPL = {
    a: filters.enumerate_implication_filters(a, prime_only=True)
    for a in ALGEBRAS.values() if a is not BAD
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_every_lattice_filter_matches_the_loops(name):
    a = ALGEBRAS[name]
    masks = {0, a.full_mask, *filters.enumerate_lattice_filters(a),
             *filters.enumerate_implication_filters(a)}
    for mask in masks:
        assert_mask_agrees(a, mask)
    assert order_read(a) == oracles.order_failures(a)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_linearity_and_successors_match_the_loops(name):
    assert_order_reads_agree(ALGEBRAS[name])


def test_the_non_mv_table_has_witnesses_to_compare():
    # so the comparison above is not vacuous on it
    assert core.check_mv_axioms(BAD)
    assert oracles.order_failures(BAD)


@settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_random_masks_match_the_loops(data):
    a = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)), label="algebra")]
    mask = data.draw(st.integers(min_value=0, max_value=a.full_mask), label="mask")
    assert_mask_agrees(a, mask)
    picks = data.draw(st.integers(0, a.full_mask), label="picks")
    assert_lines_agree(a, picks, mask)
    assert_relative_kernel_agrees(a, mask, picks)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=arbitrary_tables(), data=st.data())
def test_arbitrary_tables_match_the_loops(a, data):
    assert order_read(a) == oracles.order_failures(a)
    mask = data.draw(st.integers(0, a.full_mask), label="mask")
    assert_mask_agrees(a, mask)
    picks = data.draw(st.integers(0, a.full_mask), label="picks")
    assert_lines_agree(a, picks, mask)
    assert_relative_kernel_agrees(a, mask, picks)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=arbitrary_tables())
def test_arbitrary_tables_match_the_order_loops(a):
    assert_order_reads_agree(a)


@pytest.mark.parametrize("table", ["imp_bytes", "otimes_bytes", "imp_col_bytes"])
def test_a_changed_byte_disagrees_with_the_loops(table):
    # entry 1 of line 3, stored reversed, moved to the next element; the
    # tuple tables that the oracles read are untouched
    a = chain(5)
    old = getattr(a, table)[3][a.size - 2]
    b = mutants.entry_changed(a, table, 3, a.size - 2, (old + 1) % a.size)
    # the mask holding just the old value reads the changed entry differently
    assert_mask_agrees(a, 1 << old)
    with pytest.raises(AssertionError):
        assert_mask_agrees(b, 1 << old)


def test_order_read_can_fail():
    a = chain(4)
    # ↑(1/3) loses 1 but keeps 2/3, and 2/3 ≤ 1
    b = mutants.entry_changed(a, "up_mask", 0, 1, a.up_mask[1] & ~a.one_mask)
    assert order_read(b) != oracles.order_failures(b)


def test_order_partial_fails_on_swapped_masks():
    # ↑ and ↓ swapped describe the dual order, which is still a partial
    # order: only the check of the masks against leq sees the swap
    a = chain(4)
    assert order_read(a) == []
    with mutants.mutated("order-dual", a) as b:
        assert order_read(b) == [
            w for x in range(4) for w in (("up_mask", x), ("down_mask", x))
        ]


def test_carrier_bound_of_the_byte_tables():
    assert chain(256).imp_bytes[0] == bytes([255] * 256)
    n = 257  # the Łukasiewicz chain's tables, built by hand
    oplus = tuple(tuple(min(n - 1, x + y) for y in range(n)) for x in range(n))
    with pytest.raises(InvalidArgument, match="256"):
        MvAlgebra(n, oplus, tuple(range(n))[::-1], 0)
