"""The statement scans: each statement body as it was before its quantifier
shortcut, and the mutants under which statement and scan must agree.

``prop:monotone`` and ``prop:revIncl`` decide on cover pairs of the primes,
``fact:d`` on least class members, ``prop:small`` and ``prop:large`` on one
list of lattice filters H with P ⊆ K(H) per P, and ``prop:axiomC`` and
``prop:adjunction`` read the ⊸ matrix over the primes by position.  Their
scans take every chain F ⊆ G ⊆ H, every pair x, y ∉ F, or every (F, P, H)
or (F, H, G).  A scan reads ⊸, K, F_x and J through ``verify.Ctx`` as its
statement does, so it is no oracle (``tests/oracles.py``): it tests the
shortcut alone.  ``SCANS`` records the worst status over
``conftest.ALL_ALGEBRAS`` and the failing witness count of each pair.
"""

from itertools import product as pairs

import pytest

from mvfilters import calculus, verify

from conftest import ALL_ALGEBRAS, drop_lowest, plus_after, swap_arguments, with_own_element


def monotone_scan(ctx, out):
    for f, g1, g2 in verify._prime_chains(ctx):
        if ctx.sqto(f, g1) & ~ctx.sqto(f, g2):
            out.append(verify._shown(ctx, f, g1, g2))


def rev_incl_scan(ctx, out):
    for f1, f2, g in verify._prime_chains(ctx):
        if ctx.sqto(f2, g) & ~ctx.sqto(f1, g):
            out.append(verify._shown(ctx, f1, f2, g))


def fact_d_scan(ctx, out):
    for f in ctx.primes:
        coset_of = ctx.quotient(ctx.kernel(f)).coset_of
        for x, y in verify._pairs(verify._outside(ctx, f)):
            same_coset = coset_of[x] == coset_of[y]
            same_sub = ctx.subordinate(f, x) == ctx.subordinate(f, y)
            if same_coset != same_sub:
                out.append((ctx.show(f), x, y))


def small_scan(ctx, out):
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


def large_scan(ctx, out):
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


def _primes_below(ctx):
    """Every (F, H, G) of prime lattice filters with F ⊆ G and H ⊆ G."""
    for g in ctx.primes:
        below = [f for f in ctx.primes if f & ~g == 0]
        for f, h in pairs(below, repeat=2):
            yield f, h, g


def axiom_c_scan(ctx, out):
    for f, h, g in _primes_below(ctx):
        if ctx.sqto(f, ctx.sqto(h, g)) != ctx.sqto(h, ctx.sqto(f, g)):
            out.append((ctx.show(f), ctx.show(h), ctx.show(g)))


def adjunction_scan(ctx, out):
    for f, h, g in _primes_below(ctx):
        if (f & ~ctx.sqto(h, g) == 0) != (h & ~ctx.sqto(f, g) == 0):
            out.append((ctx.show(f), ctx.show(h), ctx.show(g)))


def _drop(name):
    return name, lambda a: drop_lowest


# mutant -> (the name of calculus it corrupts, factory of the corruption
# given the algebra), or None
MUTANTS = {
    "none": None,
    "sqto-plus-after": ("sqto", plus_after),
    "sqto-drop": _drop("sqto"),
    "sqto-swap": ("sqto", lambda a: swap_arguments),
    "sqto-swap-drop": ("sqto", lambda a: lambda real: drop_lowest(swap_arguments(real))),
    "subordinate-drop": _drop("subordinate"),
    "subordinate-own-element": ("subordinate", lambda a: with_own_element),
    "kernel-drop": _drop("kernel"),
    "j_up-drop": _drop("j_up"),
    "j_down-drop": _drop("j_down"),
    "set_plus-drop": _drop("set_plus"),
}

PASS = ("pass", 0)
# statement -> (its scan, {mutant: (worst status, witnesses over ALL_ALGEBRAS)})
SCANS = {
    "prop:monotone": (monotone_scan, {
        "none": PASS, "sqto-plus-after": ("fail", 129), "sqto-drop": PASS,
        "subordinate-drop": PASS, "subordinate-own-element": PASS, "kernel-drop": PASS,
    }),
    "prop:revIncl": (rev_incl_scan, {
        "none": PASS, "sqto-plus-after": ("fail", 129), "sqto-drop": PASS,
        "subordinate-drop": PASS, "subordinate-own-element": PASS, "kernel-drop": PASS,
    }),
    # K without its lowest member is no implication filter, so fact:d raises
    # when it takes the quotient by it
    "fact:d": (fact_d_scan, {
        "none": PASS, "sqto-plus-after": PASS, "sqto-drop": PASS,
        "subordinate-drop": PASS, "subordinate-own-element": ("fail", 84),
        "kernel-drop": ("error", 0),
    }),
    # prop:small reads J_u only; j_down-drop loses a candidate H of
    # prop:large and so changes its "not maximal" witnesses
    "prop:small": (small_scan, {
        "none": PASS, "kernel-drop": ("fail", 130), "j_up-drop": ("fail", 194),
        "set_plus-drop": PASS, "j_down-drop": PASS,
    }),
    "prop:large": (large_scan, {
        "none": PASS, "kernel-drop": ("fail", 58), "j_up-drop": ("fail", 164),
        "set_plus-drop": ("fail", 80), "j_down-drop": ("fail", 97),
    }),
    # drop-lowest keeps both statements true.  Under it some nested ⊸
    # values, and under swap-then-drop all of them, leave the prime list, so
    # prop:axiomC's fallback to ctx.sqto runs; its 6 witnesses under
    # swap-then-drop come through that fallback
    "prop:axiomC": (axiom_c_scan, {
        "none": PASS, "sqto-drop": PASS, "sqto-swap": ("fail", 258),
        "sqto-swap-drop": ("fail", 6),
    }),
    "prop:adjunction": (adjunction_scan, {
        "none": PASS, "sqto-drop": PASS, "sqto-swap": ("fail", 118),
        "sqto-swap-drop": PASS,
    }),
}


def cases(*stmts):
    """One pytest parameter per (statement, mutant) pair of stmts."""
    return [pytest.param(s, m, id=f"{s}-{m}") for s in stmts for m in SCANS[s][1]]


def _outcome(ctx, body):
    """(status, witnesses) of body on ctx, as ``verify._run`` records them."""
    out = []
    try:
        body(ctx, out)
    except Exception as e:
        return "error", [f"{type(e).__name__}: {e}"]
    return ("fail" if out else "pass"), out


def assert_scan_agrees(monkeypatch, stmt, mutant):
    """stmt gives its scan's outcome on every test algebra under mutant, and
    their worst status and failing witness count are those SCANS records."""
    scan, expected = SCANS[stmt]
    fn = verify.FINITE_STATEMENTS[stmt][1]
    statuses, found = set(), 0
    for a in ALL_ALGEBRAS.values():
        with monkeypatch.context() as m:
            if MUTANTS[mutant] is not None:
                name, corrupt = MUTANTS[mutant]
                m.setattr(calculus, name, corrupt(a)(getattr(calculus, name)))
            want = _outcome(verify.Ctx(a), scan)
            assert _outcome(verify.Ctx(a), fn) == want, (a.name, stmt, mutant)
        statuses.add(want[0])
        if want[0] == "fail":
            found += len(want[1])
    worst = max(statuses, key=("pass", "fail", "error").index)
    assert (worst, found) == expected[mutant]
