"""⊸, K and F_x read from the cached →-column tables, and the statements
that decide on cover pairs or class representatives, against the code they
replaced.

``verify.Ctx`` hands ``calculus.sqto``, ``kernel`` and ``subordinate`` a
view of its algebra whose ``columns`` reads every subordinate of a mask M
from one cached list, the →-columns into L∖M.  On every pair of lattice
filters of the test algebras, Ł64 and 2⁶, and on the empty mask, the
cached values must equal the same functions on the algebra itself, which
reads only the columns it needs.

``monotone_loop`` and ``rev_incl_loop`` are the bodies ``prop:monotone`` and
``prop:revIncl`` had when they scanned every chain F ⊆ G ⊆ H of primes, and
``fact_d_loop`` is ``fact:d``'s scan of every pair x, y ∉ F.  Each
statement must give its scan's status and witness list, in order,
unmutated and under mutants: ⊸ returning (F⊸G)⁺, F_x holding x, and the
lowest member dropped from ⊸, F_x or K.  The first two make the statements
fail, and K without its lowest member is no implication filter, so ``fact:d``
raises when it takes the quotient by it.

``filters.covers``, which those two statements decide on, is compared with
the definition over every triple, on the primes of the test algebras and
on hypothesis-drawn families of distinct masks.  And a run must hand ⊸ and
K only that view, never the algebra, and report the same while it is
watched doing so.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from mvfilters import calculus, filters, verify
from mvfilters.core import MvAlgebra

from conftest import ALL_ALGEBRAS, chain, drop_lowest, product
from test_verify import _plus_after, _with_own_element

EQUIV_ALGEBRAS = ALL_ALGEBRAS | {"L64": chain(64), "2^6": product(2, 2, 2, 2, 2, 2)}


@pytest.mark.parametrize("name", sorted(EQUIV_ALGEBRAS))
def test_column_combinators_equal_the_cold_forms(name):
    # ``Ctx``, whose view reads the cached column tables, against the algebra
    a = EQUIV_ALGEBRAS[name]
    ctx = verify.Ctx(a)
    masks = [0, *ctx.lattice]
    for f in masks:
        assert ctx.kernel(f) == calculus.kernel(a, f), f
        for x in range(a.size):
            assert ctx.subordinate(f, x) == calculus.subordinate(a, f, x), (f, x)
        for g in masks:
            assert ctx.sqto(f, g) == calculus.sqto(a, f, g), (f, g)


def covers_by_definition(masks):
    """F ⊊ G with no mask strictly between, over every triple."""
    def below(f, g):
        return f & ~g == 0 and f != g

    return [
        (f, g) for f in masks for g in masks
        if below(f, g) and not any(below(f, h) and below(h, g) for h in masks)
    ]


@pytest.mark.parametrize("name", sorted(ALL_ALGEBRAS))
def test_prime_covers_are_the_cover_relation(name):
    primes = verify.Ctx(ALL_ALGEBRAS[name]).primes
    assert sorted(filters.covers(primes)) == sorted(covers_by_definition(primes))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(masks=st.lists(st.integers(0, 2**7 - 1), unique=True, max_size=14))
@example(masks=[])
def test_covers_of_any_family_of_distinct_masks(masks):
    # the masks need not be up-sets: ⊆ orders any finite family
    got = filters.covers(masks)
    assert sorted(got) == sorted(covers_by_definition(masks))
    # grouped by F, in list order
    firsts = [masks.index(f) for f, _ in got]
    assert firsts == sorted(firsts)


COLD_ALGEBRAS = ALL_ALGEBRAS | {"L16": chain(16), "L4xL4": product(4, 4)}


@pytest.mark.parametrize("name", sorted(COLD_ALGEBRAS))
def test_a_run_makes_no_cold_call(monkeypatch, name):
    """A run hands ``calculus.sqto`` and ``kernel`` the view of its algebra
    that ``verify.Ctx`` builds, never the ``MvAlgebra``, and ``subordinate``
    the algebra only from ``set_plus`` (the run's ⁺ cache calls it on the
    algebra).  Watched so, the run reports what it reports unwatched.

    Each wrapper counts its calls by whether the first argument is an
    ``MvAlgebra``; ``set_plus`` is wrapped too, to count the ``subordinate``
    calls it makes.
    """
    a = COLD_ALGEBRAS[name]
    want = verify.run_finite(a).to_json()
    calls = Counter()

    def recording(fn, real):
        def wrapped(first, *rest):
            calls[fn, isinstance(first, MvAlgebra)] += 1
            return real(first, *rest)

        return wrapped

    for fn in ("sqto", "kernel", "subordinate", "set_plus"):
        monkeypatch.setattr(calculus, fn, recording(fn, getattr(calculus, fn)))
    assert verify.run_finite(a).to_json() == want
    assert calls["sqto", False] and calls["kernel", False], calls
    assert calls["sqto", True] == calls["kernel", True] == 0, calls
    assert calls["subordinate", True] == calls["set_plus", True], calls


def monotone_loop(ctx, out):
    for f, g1, g2 in verify._prime_chains(ctx):
        if ctx.sqto(f, g1) & ~ctx.sqto(f, g2):
            out.append(verify._shown(ctx, f, g1, g2))


def rev_incl_loop(ctx, out):
    for f1, f2, g in verify._prime_chains(ctx):
        if ctx.sqto(f2, g) & ~ctx.sqto(f1, g):
            out.append(verify._shown(ctx, f1, f2, g))


def fact_d_loop(ctx, out):
    for f in ctx.primes:
        coset_of = ctx.quotient(ctx.kernel(f)).coset_of
        for x, y in verify._pairs(verify._outside(ctx, f)):
            same_coset = coset_of[x] == coset_of[y]
            same_sub = ctx.subordinate(f, x) == ctx.subordinate(f, y)
            if same_coset != same_sub:
                out.append((ctx.show(f), x, y))


REFERENCES = {
    "prop:monotone": monotone_loop,
    "prop:revIncl": rev_incl_loop,
    "fact:d": fact_d_loop,
}

# mutant -> (the name of calculus it corrupts, factory of the corruption given a)
MUTANTS = {
    "none": None,
    "sqto-plus-after": ("sqto", _plus_after),
    "sqto-drop": ("sqto", lambda a: drop_lowest),
    "subordinate-drop": ("subordinate", lambda a: drop_lowest),
    "subordinate-own-element": ("subordinate", lambda a: _with_own_element),
    "kernel-drop": ("kernel", lambda a: drop_lowest),
}

# (statement, mutant) -> (status, witnesses over ALL_ALGEBRAS); every other
# pair passes on every algebra
FAILING = {
    ("prop:monotone", "sqto-plus-after"): ("fail", 129),
    ("prop:revIncl", "sqto-plus-after"): ("fail", 129),
    ("fact:d", "subordinate-own-element"): ("fail", 84),
    ("fact:d", "kernel-drop"): ("error", 0),
}


def _outcome(ctx, body):
    """(status, witnesses) of body on ctx, as ``verify._run`` records them."""
    out = []
    try:
        body(ctx, out)
    except Exception as e:
        return "error", [f"{type(e).__name__}: {e}"]
    return ("fail" if out else "pass"), out


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("stmt", sorted(REFERENCES))
def test_statement_matches_its_scan(monkeypatch, stmt, mutant):
    fn = verify.FINITE_STATEMENTS[stmt][1]
    statuses, found = set(), 0
    for a in ALL_ALGEBRAS.values():
        with monkeypatch.context() as m:
            if MUTANTS[mutant] is not None:
                name, corrupt = MUTANTS[mutant]
                m.setattr(calculus, name, corrupt(a)(getattr(calculus, name)))
            want = _outcome(verify.Ctx(a), REFERENCES[stmt])
            assert _outcome(verify.Ctx(a), fn) == want, (a.name, stmt, mutant)
        statuses.add(want[0])
        if want[0] == "fail":
            found += len(want[1])
    worst = max(statuses, key=("pass", "fail", "error").index)
    assert (worst, found) == FAILING.get((stmt, mutant), ("pass", 0))
