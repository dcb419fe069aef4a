"""The modus-ponens closure, T's C-level products and the statements that
read one list per P or each ⊸ value once.

``filters.implication_filter_generated`` closes mask ∪ {1} under modus
ponens, one →-row read per member; its oracle,
``oracles.implication_filter_generated``, closes under ⊗ and up-closure
over all pairs of members.  K(F) ∪ P, the statement's argument, is a union
of two filters, whose closure takes one step and holds 1 already; single
elements and arbitrary masks take several steps and may lack 1.
``calculus.tensor_up`` picks row f of ⊗ at G's members with
``itertools.compress``; its oracle ``oracles.tensor_up`` is the pair loop.

``prop:small`` and ``prop:large`` list each P's lattice filters H with
P ⊆ K(H) once, and ``prop:axiomC`` and ``prop:adjunction`` read the ⊸ matrix
over the primes by position.  Each must give the outcome of its scan in
``tests/scans.py`` under the mutants ``tests/mutants.py`` lists for it;
``j_down-drop`` is among them so that a lost candidate H of ``prop:large``
changes its "not maximal" witnesses.

``tensor_up`` must also return on tables that are not MV-algebras, where ≤
need not be a partial order: every mask pair of the non-MV table and of
hypothesis-drawn arbitrary tables runs under a ``signal.setitimer``
deadline, so a walk that never ends fails instead of hanging the suite.
"""

import signal
from contextlib import contextmanager
from itertools import product as pairs
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvfilters import calculus, filters

import oracles
import scans
from conftest import ALL_ALGEBRAS, BAD, arbitrary_tables, census, chain, product, shuffled


def kernel_joins(a):
    """Every distinct K(F) ∪ P over lattice filters F and implication filters P."""
    kernels = {calculus.kernel(a, f) for f in filters.enumerate_lattice_filters(a)}
    return sorted({k | p for k in kernels
                   for p in filters.enumerate_implication_filters(a)})


# ---------------------------------------------------------------------------
# the generated implication filter


def assert_generated_agrees(a, masks=None):
    """On the given masks, or on every K(F) ∪ P, every single element and
    the empty mask; a single element needs several steps."""
    if masks is None:
        masks = kernel_joins(a) + [0] + [1 << x for x in range(a.size)]
    for m in masks:
        got = filters.implication_filter_generated(a, m)
        assert got == oracles.implication_filter_generated(a, m), (a.name, m)


def test_generated_filter_matches_the_loop_on_the_small_census():
    small = [ns for ns in census() if prod(ns) <= 24]
    assert len(small) == 52
    for ns in small:
        assert_generated_agrees(product(*ns))


@pytest.mark.parametrize(
    "build", [lambda: chain(64), lambda: product(8, 8), lambda: product(*(2,) * 6)],
    ids=["L64", "L8xL8", "2^6"],
)
def test_generated_filter_matches_the_loop_on_large_algebras(build):
    a = build()
    assert_generated_agrees(a, kernel_joins(a))


@pytest.mark.parametrize("name", sorted(ALL_ALGEBRAS))
def test_generated_filter_matches_the_loop_relabelled(name):
    for seed in (1, 2):
        assert_generated_agrees(shuffled(ALL_ALGEBRAS[name], seed))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_random_masks_generate_as_the_loop(data):
    a = ALL_ALGEBRAS[data.draw(st.sampled_from(sorted(ALL_ALGEBRAS)), label="algebra")]
    if data.draw(st.booleans(), label="relabelled"):
        a = shuffled(a, data.draw(st.integers(0, 9), label="seed"))
    assert_generated_agrees(a, [data.draw(st.integers(0, a.full_mask), label="mask")])


# ---------------------------------------------------------------------------
# T


def assert_tensor_agrees(a, masks):
    for f, g in pairs(masks, repeat=2):
        assert calculus.tensor_up(a, f, g) == oracles.tensor_up(a, f, g), (a.name, f, g)


def masks_of(a):
    """Every mask when there are at most 64, else every up-set and every
    single element, the empty and the full mask among them."""
    if a.size <= 6:
        return range(a.full_mask + 1)
    return sorted(set(filters.enumerate_up_sets(a)) | {1 << x for x in range(a.size)})


@pytest.mark.parametrize("name", sorted(ALL_ALGEBRAS))
def test_tensor_matches_the_pair_loop(name):
    for a in (ALL_ALGEBRAS[name], shuffled(ALL_ALGEBRAS[name], 3)):
        assert_tensor_agrees(a, masks_of(a))


@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_random_masks_match_the_pair_loop(data):
    name = data.draw(st.sampled_from(sorted(ALL_ALGEBRAS)), label="algebra")
    a = ALL_ALGEBRAS[name]
    if data.draw(st.booleans(), label="relabelled"):
        a = shuffled(a, data.draw(st.integers(0, 9), label="seed"))
    mask = st.integers(min_value=0, max_value=a.full_mask)
    f, g = data.draw(mask, label="F"), data.draw(mask, label="G")
    assert calculus.tensor_up(a, f, g) == oracles.tensor_up(a, f, g)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after ``seconds`` of wall time, so a
    walk that never ends fails its test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def assert_tensor_returns(a):
    masks = range(a.full_mask + 1)
    with deadline(10):
        for f, g in pairs(masks, repeat=2):
            assert calculus.tensor_up(a, f, g) in masks, (f, g)


def test_tensor_returns_on_the_non_mv_table():
    # ¬ = (2, 2, 0) makes 0 ≤ 1 ≤ 0, so ≤ is not antisymmetric
    assert BAD.up_mask == (7, 7, 4)
    assert_tensor_returns(BAD)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=arbitrary_tables())
def test_tensor_returns_on_arbitrary_tables(a):
    assert_tensor_returns(a)


# ---------------------------------------------------------------------------
# prop:small and prop:large read one list per P


@pytest.mark.parametrize("stmt, mutant", scans.cases("prop:small", "prop:large"))
def test_hoisted_statements_keep_their_witnesses(stmt, mutant):
    scans.assert_scan_agrees(stmt, mutant)


# ---------------------------------------------------------------------------
# prop:axiomC and prop:adjunction read each ⊸ value once


@pytest.mark.parametrize("stmt, mutant", scans.cases("prop:axiomC", "prop:adjunction"))
def test_sqto_statements_keep_their_witnesses(stmt, mutant):
    scans.assert_scan_agrees(stmt, mutant)
