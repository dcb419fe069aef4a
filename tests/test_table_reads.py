"""The byte-table reads against the per-entry loops they replaced.

``MvAlgebra`` keeps its → rows, ⊗ rows and → columns as reversed ``bytes``,
and ``core.read_lines`` reads the lines picked by a mask into another mask,
each with one ``bytes.translate`` and one ``int(…, 2)``.  It is compared
with its loop on random picks, the empty picks included, and behind it
``calculus.rows``, ``MvAlgebra.columns`` (at the picks ∅, M and L∖M),
``calculus.subordinate``, ``calculus.kernel``,
``filters.is_implication_filter`` and the ``order:partial`` statement, which
reads ``up_mask``; ``core.congruence_cosets`` reads its rows and columns
itself.  ``core.is_linear``, the immediacy test of
``filters.successor_structure`` and the theory list of prime implication
filters (``filters.enumerate_implication_filters(a, prime_only=True)``)
read ``up_mask`` and ``down_mask`` too.  The oracles below are the loop
bodies these functions had before; ``is_prime_implication_filter_loop`` is
the n² loop over element pairs that tests x→y ∈ P or y→x ∈ P, the
reference for the theory list on the MV-algebras among the test algebras
(the list is exact on those only), and ``is_linear_loop`` and
``successor_structure_loop`` ask ``leq`` pair by pair.  They read only the
tuple tables (``imp``, ``otimes``) entry by entry, so they share no code
with the byte reads.

Each read is compared with its oracle on the ten test algebras, on Ł64 and
2⁶ (the sizes at which the reads matter), on Ł8 and Ł2×Ł3 relabelled, on
the hand-built non-MV table of the cli tests and on hypothesis-drawn
arbitrary tables.  The masks are every
lattice filter and every implication filter, the empty and the full mask,
and hypothesis-drawn arbitrary masks.  An algebra with one derived byte
changed must disagree with an oracle, so these comparisons can fail.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvfilters import calculus, core, filters, verify
from mvfilters.core import MvAlgebra
from mvfilters.errors import InvalidArgument

from conftest import ALL_ALGEBRAS, chain, members, product, shuffled
from test_cli import BAD_TABLE


def rows_loop(table, mask):
    out = []
    for row in table:
        m = 0
        for y, v in enumerate(row):
            if (mask >> v) & 1:
                m |= 1 << y
        out.append(m)
    return out


def read_lines_loop(table, picks, mask):
    """Line x of table into mask, for each member x of picks."""
    return [rows_loop([table[x]], mask)[0] for x in members(picks)]


# each byte table, and the tuple table the loops read it from
LINE_TABLES = {
    "imp_bytes": lambda a: a.imp,
    "otimes_bytes": lambda a: a.otimes,
    "imp_col_bytes": lambda a: tuple(zip(*a.imp)),  # column y: z→y at z
}


def assert_lines_agree(a, picks, mask):
    for name, table in LINE_TABLES.items():
        assert list(core.read_lines(getattr(a, name), picks, mask)) == (
            read_lines_loop(table(a), picks, mask)
        ), name


def subordinate_loop(a, f_mask, elem):
    imp = a.imp
    m = 0
    for z in range(a.size):
        if not (f_mask >> imp[z][elem]) & 1:
            m |= 1 << z
    return m


def kernel_loop(a, f_mask):
    if f_mask == 0:
        return 0
    imp = a.imp
    outside = list(members(a.full_mask & ~f_mask))
    m = 0
    for z in range(a.size):
        if all(not (f_mask >> imp[z][x]) & 1 for x in outside):
            m |= 1 << z
    return m


def congruence_cosets_loop(a, p_mask):
    n, imp = a.size, a.imp
    coset_of = [-1] * n
    cosets = []
    reps = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(cosets)
        m = 0
        for y in range(n):
            if (p_mask >> imp[x][y]) & 1 and (p_mask >> imp[y][x]) & 1:
                coset_of[y] = c
                m |= 1 << y
        cosets.append(m)
        reps.append(x)
    return tuple(coset_of), tuple(reps), tuple(cosets)


def is_implication_filter_loop(a, mask):
    if not (mask >> a.one) & 1:
        return False
    for x in members(mask):
        for y in range(a.size):
            if (mask >> a.imp[x][y]) & 1 and not (mask >> y) & 1:
                return False
    return True


def is_prime_implication_filter_loop(a, mask):
    if mask == a.full_mask or not is_implication_filter_loop(a, mask):
        return False
    for x in range(a.size):
        for y in range(a.size):
            if not ((mask >> a.imp[x][y]) & 1 or (mask >> a.imp[y][x]) & 1):
                return False
    return True


def order_loop(a):
    out = []
    for x in range(a.size):
        if not a.leq(x, x):
            out.append(("reflexivity", x))
        for y in range(a.size):
            if a.leq(x, y) and a.leq(y, x) and x != y:
                out.append(("antisymmetry", x, y))
            for z in range(a.size):
                if a.leq(x, y) and a.leq(y, z) and not a.leq(x, z):
                    out.append(("transitivity", x, y, z))
    return out


def is_linear_loop(a):
    return all(
        a.leq(x, y) or a.leq(y, x) for x in range(a.size) for y in range(a.size)
    )


def successor_structure_loop(a):
    if not is_linear_loop(a):
        raise InvalidArgument("successor structure needs a linearly ordered algebra")
    above_zero = [x for x in range(a.size) if x != a.zero]
    if not above_zero:
        raise InvalidArgument("trivial algebra has no successor structure")
    c = above_zero[0]
    for x in above_zero:
        if a.leq(x, c):
            c = x
    succ = {}
    pred = {}
    for x in range(a.size):
        if x != a.one:
            succ[x] = a.oplus[x][c]
        if x != a.zero:
            pred[x] = a.otimes[x][a.neg[c]]
    for x, s in succ.items():
        if x == s or not a.leq(x, s):
            return None
        for z in range(a.size):
            if z != x and z != s and a.leq(x, z) and a.leq(z, s):
                return None
    for x, p in pred.items():
        if x == p or not a.leq(p, x):
            return None
    return c, succ, pred


def outcome(fn, a):
    """fn(a), or the message of the InvalidArgument it raises."""
    try:
        return fn(a)
    except InvalidArgument as e:
        return str(e)


def assert_order_loops_agree(a):
    assert core.is_linear(a) == is_linear_loop(a)
    assert outcome(filters.successor_structure, a) == (
        outcome(successor_structure_loop, a)
    )


def order_read(a):
    out = []
    verify.FINITE_STATEMENTS["order:partial"][1](verify.Ctx(a), out)
    return out


def assert_mask_agrees(a, mask):
    """Every read into mask, or into L∖mask, equals its loop."""
    for picks in (0, mask):
        assert_lines_agree(a, picks, mask)
    for name in ("imp", "otimes"):
        table = getattr(a, name)
        assert calculus.rows(a, name, mask) == (
            rows_loop(table, mask)
        ), name
    for elem in range(a.size):
        assert calculus.subordinate(a, mask, elem) == subordinate_loop(a, mask, elem)
    for picks in (0, mask, a.full_mask & ~mask):
        assert list(a.columns(mask, picks)) == [
            subordinate_loop(a, mask, x) for x in members(picks)
        ], picks
    assert calculus.kernel(a, mask) == kernel_loop(a, mask)
    assert core.congruence_cosets(a, mask) == congruence_cosets_loop(a, mask)
    assert filters.is_implication_filter(a, mask) == (
        is_implication_filter_loop(a, mask)
    )
    primes = PRIME_IMPL.get(a)
    if primes is not None:
        assert (mask in primes) == is_prime_implication_filter_loop(a, mask)


BAD = MvAlgebra(
    BAD_TABLE["size"], tuple(map(tuple, BAD_TABLE["oplus"])),
    tuple(BAD_TABLE["neg"]), BAD_TABLE["zero"], name="bad",
)
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
    assert order_read(a) == order_loop(a)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_linearity_and_successors_match_the_loops(name):
    assert_order_loops_agree(ALGEBRAS[name])


def test_the_non_mv_table_has_witnesses_to_compare():
    # so the comparison above is not vacuous on it
    assert core.check_mv_axioms(BAD)
    assert order_loop(BAD)


@settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_random_masks_match_the_loops(data):
    a = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)), label="algebra")]
    mask = data.draw(st.integers(min_value=0, max_value=a.full_mask), label="mask")
    assert_mask_agrees(a, mask)
    assert_lines_agree(a, data.draw(st.integers(0, a.full_mask), label="picks"), mask)


@st.composite
def arbitrary_tables(draw):
    """A table with element indices as entries and no axiom asked of it."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=0, max_value=n - 1)
    return MvAlgebra(
        n,
        tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)),
        tuple(draw(entry) for _ in range(n)),
        draw(entry),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=arbitrary_tables(), data=st.data())
def test_arbitrary_tables_match_the_loops(a, data):
    assert order_read(a) == order_loop(a)
    mask = data.draw(st.integers(0, a.full_mask), label="mask")
    assert_mask_agrees(a, mask)
    assert_lines_agree(a, data.draw(st.integers(0, a.full_mask), label="picks"), mask)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=arbitrary_tables())
def test_arbitrary_tables_match_the_order_loops(a):
    assert_order_loops_agree(a)


def changed(a, table, line, pos):
    """A copy of a whose byte table ``table`` has entry pos of ``line`` moved
    to the next element, and that entry's old value; the tuple tables that
    the loops read are untouched."""
    b = dataclasses.replace(a)
    lines = list(getattr(b, table))
    raw = bytearray(lines[line])
    old = raw[b.size - 1 - pos]
    raw[b.size - 1 - pos] = (old + 1) % b.size
    lines[line] = bytes(raw)
    object.__setattr__(b, table, tuple(lines))
    return b, old


@pytest.mark.parametrize("table", ["imp_bytes", "otimes_bytes", "imp_col_bytes"])
def test_a_changed_byte_disagrees_with_the_loops(table):
    a = chain(5)
    b, old = changed(a, table, 3, 1)
    # the mask holding just the old value reads the changed entry differently
    assert_mask_agrees(a, 1 << old)
    with pytest.raises(AssertionError):
        assert_mask_agrees(b, 1 << old)


def test_order_read_can_fail():
    a = chain(4)
    up = list(a.up_mask)
    up[1] &= ~(1 << a.one)  # ↑(1/3) loses 1 but keeps 2/3, and 2/3 ≤ 1
    b = dataclasses.replace(a)
    object.__setattr__(b, "up_mask", tuple(up))
    assert order_read(b) != order_loop(b)


def test_order_partial_fails_on_swapped_masks():
    # ↑ and ↓ swapped describe the dual order, which is still a partial
    # order: only the check of the masks against leq sees the swap
    a = chain(4)
    b = dataclasses.replace(a)
    object.__setattr__(b, "up_mask", a.down_mask)
    object.__setattr__(b, "down_mask", a.up_mask)
    assert order_read(a) == []
    assert order_read(b) == [
        w for x in range(4) for w in (("up_mask", x), ("down_mask", x))
    ]


def test_carrier_bound_of_the_byte_tables():
    assert chain(256).imp_bytes[0] == bytes([255] * 256)
    n = 257  # the Łukasiewicz chain's tables, built by hand
    oplus = tuple(tuple(min(n - 1, x + y) for y in range(n)) for x in range(n))
    with pytest.raises(InvalidArgument, match="256"):
        MvAlgebra(n, oplus, tuple(range(n))[::-1], 0)
