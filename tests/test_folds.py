"""The C folds of ``core`` against the shift loop, and the row scan of
``check_mv_axioms`` against the scan over every triple.

``core.iter_mask``, ``core.fold_and`` and ``core.fold_or`` pick a mask's
members with ``itertools.compress`` and the selector ``core.bits``.  Their
reference is ``conftest.members``, the shift loop ``iter_mask`` used to be,
on the edge masks 0, 1, 1 << 63 and 2⁶⁴ − 1, on every full mask of 1 to 64
elements, and on hypothesis-drawn masks.

``check_mv_axioms`` decides associativity one (x, y) at a time and scans z
only where row x⊕y of ⊕ differs from row y read through row x.
``check_mv_axioms_loop`` below is the scan it replaced, over every triple;
both must list the same witnesses in the same order at every cutoff, on the
non-MV table of the cli tests and on seeded mutants of Ł5, Ł8 and Ł2×Ł3
with one to three ⊕ or ¬ entries changed.
"""

import random
import sys
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from mvfilters import core
from mvfilters.core import MvAlgebra

from conftest import chain, members, product
from test_table_reads import BAD

EDGE_MASKS = [0, 1, 1 << 63, (1 << 64) - 1]
FULL_MASKS = [(1 << n) - 1 for n in range(1, 65)]


def fold_loop(lines, mask, start, op):
    m = start
    for x in members(mask):
        m = op(m, lines[x])
    return m


def assert_folds_agree(mask):
    assert list(core.iter_mask(mask)) == list(members(mask))
    width, full = mask.bit_length(), (1 << 70) - 1
    # one distinct bit per line, so a dropped or misplaced member shows
    lines = [full ^ (1 << (x + 1) % 70) for x in range(width)]
    assert core.fold_and(lines, mask, full) == (
        fold_loop(lines, mask, full, int.__and__)
    )
    lines = [1 << (x + 1) % 70 for x in range(width)]
    assert core.fold_or(lines, mask) == fold_loop(lines, mask, 0, int.__or__)


@pytest.mark.parametrize("mask", EDGE_MASKS + FULL_MASKS, ids=hex)
def test_folds_match_the_shift_loop(mask):
    assert_folds_agree(mask)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(mask=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_folds_match_the_shift_loop_on_drawn_masks(mask):
    assert_folds_agree(mask)


def test_bits_is_a_selector_up_to_the_highest_member():
    assert core.bits(0) == b"\0"
    assert core.bits(0b1011) == b"\1\1\0\1"
    assert core.bits(1 << 63) == b"\0" * 63 + b"\1"
    assert core.bits((1 << 64) - 1) == b"\1" * 64


def test_empty_folds_are_their_units():
    assert core.fold_and([], 0, 0b111) == 0b111
    assert core.fold_or([], 0) == 0


def check_mv_axioms_loop(a, max_failures=10):
    """The axiom scan as it was: associativity asked of every triple."""
    n, oplus, neg, zero = a.size, a.oplus, a.neg, a.zero
    one = neg[zero]

    def failures():
        for x in range(n):
            if oplus[x][zero] != x:
                yield "identity: x+0=x", (x,)
            if neg[neg[x]] != x:
                yield "involution: ~~x=x", (x,)
            if oplus[one][x] != one:
                yield "absorption: 1+x=1", (x,)
            for y in range(n):
                if oplus[x][y] != oplus[y][x]:
                    yield "commutativity", (x, y)
                lhs = oplus[neg[oplus[neg[x]][y]]][y]
                rhs = oplus[neg[oplus[neg[y]][x]]][x]
                if lhs != rhs:
                    yield "mv-axiom: ~(~x+y)+y = ~(~y+x)+x", (x, y)
                for z in range(n):
                    if oplus[oplus[x][y]][z] != oplus[x][oplus[y][z]]:
                        yield "associativity", (x, y, z)

    return list(islice(failures(), max_failures))


UNBOUNDED = sys.maxsize
CUTOFFS = [1, 3, 10, UNBOUNDED]


def mutants(a, count, seed):
    """``count`` copies of a, each with one to three ⊕ or ¬ entries set to a
    random element, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    n = a.size
    for _ in range(count):
        oplus = [list(r) for r in a.oplus]
        neg = list(a.neg)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.8:
                oplus[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            else:
                neg[rng.randrange(n)] = rng.randrange(n)
        yield MvAlgebra(n, tuple(map(tuple, oplus)), tuple(neg), a.zero)


MUTATED = {"L5": (chain(5), 1), "L8": (chain(8), 2), "L2xL3": (product(2, 3), 3)}


def test_axiom_scan_matches_the_triple_loop_on_the_non_mv_table():
    # BAD is also the non-MV 3-element table that CI hands to verify
    for cutoff in CUTOFFS:
        assert core.check_mv_axioms(BAD, cutoff) == check_mv_axioms_loop(BAD, cutoff)
    assert core.check_mv_axioms(BAD)


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_axiom_scan_matches_the_triple_loop_on_mutants(name):
    a, seed = MUTATED[name]
    assert core.check_mv_axioms(a, UNBOUNDED) == check_mv_axioms_loop(a, UNBOUNDED) == []
    associative_fails = cut_inside = 0
    for b in mutants(a, 250, seed):
        every = check_mv_axioms_loop(b, UNBOUNDED)
        for cutoff in CUTOFFS:
            assert core.check_mv_axioms(b, cutoff) == every[:cutoff], cutoff
        kinds = [axiom for axiom, _ in every]
        associative_fails += "associativity" in kinds
        cut_inside += kinds[9:11] == ["associativity"] * 2
    # the mutants break associativity, and some have more than ten such
    # witnesses, so the default cutoff falls among them
    assert associative_fails > 100
    assert cut_inside > 10
