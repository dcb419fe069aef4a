"""The modus-ponens closure, T's C-level products and the per-P lists of
``prop:small`` and ``prop:large``, against the code they replaced.

``filters.implication_filter_generated`` closes mask ∪ {1} under modus
ponens, one →-row read per member; its oracle ``generated_loop`` is the
⊗-and-up-closure loop over all pairs of members.  K(F) ∪ P, the statement's
argument, is a union of two filters, whose closure takes one step and holds
1 already; single elements and arbitrary masks take several steps and may
lack 1.  ``calculus.tensor_up``
picks row f of ⊗ at G's members with ``itertools.compress``; its oracle
``tensor_up_loop`` is the pair loop.  Both oracles read the tuple tables
(``otimes``, ``up_mask``) entry by entry and share no code with the reads
under test.

``small_loop`` and ``large_loop`` are the bodies the two statements had
before each P's lattice filters H with P ⊆ K(H) were listed once: they ask
the kernel cache for every (F, P, H).  Their witness lists must equal the
statements', in order, unmutated and under mutants that make them fail.
``j_down-drop`` is among them so that a lost candidate H of
``prop:large`` changes its "not maximal" witnesses.

``axiom_c_loop`` and ``adjunction_loop`` are the bodies ``prop:axiomC`` and
``prop:adjunction`` had before they read the ⊸ matrix over the primes by
position and each H⊸G once per G: they ask the ⊸ cache for every
(F, H, G).  Their witness lists must equal the statements', in order,
unmutated and under ``calculus.sqto_cols`` mutants.

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

from mvfilters import calculus, filters, verify
from mvfilters.verify import FINITE_STATEMENTS

from conftest import (
    ALL_ALGEBRAS, chain, drop_lowest, product, shuffled, swap_arguments,
    up_closure_loop,
)
from test_filters import census
from test_table_reads import BAD, arbitrary_tables


def generated_loop(a, mask):
    """Close mask ∪ {1} under ⊗ and up-closure to a fixpoint."""
    cur = up_closure_loop(a, mask | a.one_mask)
    while True:
        members = [x for x in range(a.size) if (cur >> x) & 1]
        nxt = cur
        for x in members:
            for y in members:
                nxt |= 1 << a.otimes[x][y]
        nxt = up_closure_loop(a, nxt)
        if nxt == cur:
            return cur
        cur = nxt


def tensor_up_loop(a, f_mask, g_mask):
    """Up-closure of f⊗g over every pair f ∈ F, g ∈ G."""
    m = 0
    for f in range(a.size):
        for g in range(a.size):
            if (f_mask >> f) & 1 and (g_mask >> g) & 1:
                m |= 1 << a.otimes[f][g]
    return up_closure_loop(a, m)


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
        assert filters.implication_filter_generated(a, m) == generated_loop(a, m), (
            a.name, m,
        )


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
        assert calculus.tensor_up(a, f, g) == tensor_up_loop(a, f, g), (a.name, f, g)


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
    assert calculus.tensor_up(a, f, g) == tensor_up_loop(a, f, g)


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


def small_loop(ctx, out):
    for f, p in pairs(ctx.lattice, ctx.impl):
        ju = ctx.j_up(f, p)
        if f & ~ju:
            out.append(("does not contain F", ctx.show(f), ctx.show(p)))
        elif ju not in ctx.lattice:
            out.append(("not a lattice filter", ctx.show(f), ctx.show(p)))
        elif p & ~ctx.kernel(ju):
            out.append(("kernel misses P", ctx.show(f), ctx.show(p)))
        else:
            for h in ctx.lattice:
                if f & ~h == 0 and not (p & ~ctx.kernel(h)) and ju & ~h:
                    out.append(("not minimal", ctx.show(f), ctx.show(p)))


def large_loop(ctx, out):
    for f, p in pairs(ctx.lattice, ctx.impl):
        jd = ctx.j_down(f, p)
        candidates = [
            h for h in ctx.lattice if h & ~f == 0 and not (p & ~ctx.kernel(h))
        ]
        if jd == 0:
            if candidates:
                out.append(("bottom despite candidates", ctx.show(f), ctx.show(p)))
        elif jd & ~f or (p & ~ctx.kernel(jd)):
            out.append(("violates the two conditions", ctx.show(f), ctx.show(p)))
        else:
            for h in candidates:
                if h & ~jd:
                    out.append(("not maximal", ctx.show(f), ctx.show(p)))


REFERENCES = {"prop:small": small_loop, "prop:large": large_loop}
MUTANTS = {
    "none": None,
    "kernel-drop": "kernel_cols",
    "j_up-drop": "j_up",
    "set_plus-drop": "set_plus",
    "j_down-drop": "j_down",
}


def witnesses(a, body):
    out = []
    body(verify.Ctx(a), out)
    return out


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("stmt", sorted(REFERENCES))
def test_hoisted_statements_keep_their_witnesses(monkeypatch, stmt, mutant):
    if MUTANTS[mutant]:
        name = MUTANTS[mutant]
        monkeypatch.setattr(calculus, name, drop_lowest(getattr(calculus, name)))
    fn = FINITE_STATEMENTS[stmt][1]
    found = 0
    for a in ALL_ALGEBRAS.values():
        want = witnesses(a, REFERENCES[stmt])
        assert witnesses(a, fn) == want, (a.name, stmt, mutant)
        found += len(want)
    # every mutant it reads gives witnesses to compare; prop:small reads J_u only
    quiet = mutant == "none" or (
        stmt == "prop:small" and mutant in ("set_plus-drop", "j_down-drop")
    )
    assert (found == 0) == quiet


# ---------------------------------------------------------------------------
# prop:axiomC and prop:adjunction read each ⊸ value once


def pairs_below(ctx):
    """Every (F, H, G) of prime lattice filters with F ⊆ G and H ⊆ G."""
    for g in ctx.primes:
        below = [f for f in ctx.primes if f & ~g == 0]
        for f, h in pairs(below, repeat=2):
            yield f, h, g


def axiom_c_loop(ctx, out):
    for f, h, g in pairs_below(ctx):
        if ctx.sqto(f, ctx.sqto(h, g)) != ctx.sqto(h, ctx.sqto(f, g)):
            out.append((ctx.show(f), ctx.show(h), ctx.show(g)))


def adjunction_loop(ctx, out):
    for f, h, g in pairs_below(ctx):
        if (f & ~ctx.sqto(h, g) == 0) != (h & ~ctx.sqto(f, g) == 0):
            out.append((ctx.show(f), ctx.show(h), ctx.show(g)))


SQTO_REFERENCES = {"prop:axiomC": axiom_c_loop, "prop:adjunction": adjunction_loop}
SQTO_MUTANTS = {
    "none": None,
    "sqto-drop": drop_lowest,
    "sqto-swap": swap_arguments,
    "sqto-swap-drop": lambda real: drop_lowest(swap_arguments(real)),
}


@pytest.mark.parametrize("mutant", sorted(SQTO_MUTANTS))
@pytest.mark.parametrize("stmt", sorted(SQTO_REFERENCES))
def test_sqto_statements_keep_their_witnesses(monkeypatch, stmt, mutant):
    if SQTO_MUTANTS[mutant]:
        monkeypatch.setattr(
            calculus, "sqto_cols", SQTO_MUTANTS[mutant](calculus.sqto_cols)
        )
    fn = FINITE_STATEMENTS[stmt][1]
    found = 0
    for a in ALL_ALGEBRAS.values():
        want = witnesses(a, SQTO_REFERENCES[stmt])
        assert witnesses(a, fn) == want, (a.name, stmt, mutant)
        found += len(want)
    # drop-lowest keeps both statements true.  Under it some nested ⊸
    # values, and under swap-then-drop all of them, leave the prime list, so
    # prop:axiomC's fallback to ctx.sqto runs; its 6 witnesses under
    # swap-then-drop come through that fallback
    quiet = mutant in ("none", "sqto-drop") or (
        stmt == "prop:adjunction" and mutant == "sqto-swap-drop"
    )
    assert (found == 0) == quiet
