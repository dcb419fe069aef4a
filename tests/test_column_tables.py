"""⊸, K and F_x read from the cached →-column tables, the cover relation,
and the statements that decide on cover pairs or class representatives.

``verify.Ctx`` hands ``calculus.sqto``, ``kernel`` and ``subordinate`` a
view of its algebra whose ``columns`` reads every subordinate of a mask M
from one cached list, the →-columns into L∖M.  On every pair of lattice
filters of the test algebras, Ł64 and 2⁶, and on the empty mask, the
values read through the view must equal the same functions on the algebra
itself, which reads only the columns it needs.  A run must hand ⊸ and K
only that view, never the algebra, and report the same while it is watched
doing so.

``filters.covers``, which ``prop:monotone`` and ``prop:revIncl`` decide on,
is compared with ``oracles.covers`` on the primes of the test algebras and
on hypothesis-drawn families of distinct masks.  Those two statements and
``fact:d`` must give the outcome of their scans in ``tests/scans.py`` under
the mutants ``tests/mutants.py`` lists for them: ⊸ returning (F⊸G)⁺, F_x
holding x, and the lowest member dropped from ⊸, F_x or K.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from mvfilters import calculus, filters, verify
from mvfilters.core import MvAlgebra

import mutants
import oracles
import scans
from conftest import ALL_ALGEBRAS, chain, product

EQUIV_ALGEBRAS = ALL_ALGEBRAS | {"L64": chain(64), "2^6": product(2, 2, 2, 2, 2, 2)}


@pytest.mark.parametrize("name", sorted(EQUIV_ALGEBRAS))
def test_ctx_view_reads_equal_the_algebra_reads(name):
    a = EQUIV_ALGEBRAS[name]
    ctx = verify.Ctx(a)
    masks = [0, *ctx.lattice]
    for f in masks:
        assert ctx.kernel(f) == calculus.kernel(a, f), f
        for x in range(a.size):
            assert ctx.subordinate(f, x) == calculus.subordinate(a, f, x), (f, x)
        for g in masks:
            assert ctx.sqto(f, g) == calculus.sqto(a, f, g), (f, g)


@pytest.mark.parametrize("name", sorted(ALL_ALGEBRAS))
def test_prime_covers_are_the_cover_relation(name):
    primes = verify.Ctx(ALL_ALGEBRAS[name]).primes
    assert sorted(filters.covers(primes)) == sorted(oracles.covers(primes))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(masks=st.lists(st.integers(0, 2**7 - 1), unique=True, max_size=14))
@example(masks=[])
def test_covers_of_any_family_of_distinct_masks(masks):
    # the masks need not be up-sets: ⊆ orders any finite family
    got = filters.covers(masks)
    assert sorted(got) == sorted(oracles.covers(masks))
    # grouped by F, in list order
    firsts = [masks.index(f) for f, _ in got]
    assert firsts == sorted(firsts)


COLD_ALGEBRAS = ALL_ALGEBRAS | {"L16": chain(16), "L4xL4": product(4, 4)}


@pytest.mark.parametrize("name", sorted(COLD_ALGEBRAS))
def test_a_run_makes_no_cold_call(monkeypatch, name):
    """A run hands ``calculus.sqto`` and ``kernel`` the view of its algebra
    that ``verify.Ctx`` builds, never the ``MvAlgebra``, and ``subordinate``
    the algebra only from ``set_plus`` (the run's ⁺ cache calls it on the
    algebra).  ``kernel_rel`` gets the algebra only from ``fact:b``, once
    per prime F and x ∉ F, to check the view's column picks against the
    algebra's own columns.  Watched so, the run reports what it reports
    unwatched.

    Each wrapper counts its calls by whether the first argument is an
    ``MvAlgebra``; ``set_plus`` is wrapped too, to count the ``subordinate``
    calls it makes.  A run of ``fact:b`` alone makes as many cold
    ``kernel_rel`` calls as the whole run, so no other statement makes one.
    """
    a = COLD_ALGEBRAS[name]
    want = verify.run_finite(a).to_json()
    calls = Counter()

    def recording(fn, real):
        def wrapped(first, *rest):
            calls[fn, isinstance(first, MvAlgebra)] += 1
            return real(first, *rest)

        return wrapped

    for fn in ("sqto", "kernel", "kernel_rel", "subordinate", "set_plus"):
        monkeypatch.setattr(calculus, fn, recording(fn, getattr(calculus, fn)))
    assert verify.run_finite(a).to_json() == want
    assert calls["sqto", False] and calls["kernel", False], calls
    assert calls["sqto", True] == calls["kernel", True] == 0, calls
    assert calls["subordinate", True] == calls["set_plus", True], calls
    outside = sum((a.full_mask & ~f).bit_count() for f in verify.Ctx(a).primes)
    assert calls["kernel_rel", True] == outside, calls
    calls.clear()
    verify.run_finite(a, only=["fact:b"])
    assert calls["kernel_rel", True] == outside, calls


@pytest.mark.parametrize("name, count, kills", [("L5", 100, 74), ("L2xL3", 180, 120)])
def test_relative_kernels_see_the_column_faults_fact_b_sees(name, count, kills):
    """``fact:a`` and ``fact:e`` take their states from the →-columns and
    check them against F's ⊗-rows, as ``fact:b`` checks F_x.  Under every
    one-entry change of the →-column table, both fail on exactly the copies
    ``fact:b`` fails on."""
    stmts = ("fact:a", "fact:b", "fact:e")
    killed = {stmt: set() for stmt in stmts}
    copies = mutants.every_entry_changed(ALL_ALGEBRAS[name], "imp_col_bytes")
    for i, b in enumerate(copies):
        for r in verify.run_finite(b, only=stmts).results:
            if r.status != "pass":
                killed[r.id].add(i)
    assert i + 1 == count
    assert len(killed["fact:b"]) == kills
    assert killed["fact:a"] == killed["fact:e"] == killed["fact:b"]


@pytest.mark.parametrize(
    "stmt, mutant", scans.cases("prop:monotone", "prop:revIncl", "fact:d")
)
def test_statement_matches_its_scan(stmt, mutant):
    scans.assert_scan_agrees(stmt, mutant)
