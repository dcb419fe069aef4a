"""The statement scans: each statement body as it was before its quantifier
shortcut, and the one harness that sets a statement against its scan.

``prop:monotone`` and ``prop:revIncl`` decide on cover pairs of the primes,
``fact:d`` on least class members, ``prop:small`` and ``prop:large`` on one
list of lattice filters H with P ⊆ K(H) per P, and ``prop:axiomC`` and
``prop:adjunction`` read the ⊸ matrix over the primes by position.  Their
scans take every chain F ⊆ G ⊆ H, every pair x, y ∉ F, or every (F, P, H)
or (F, H, G).  A scan reads ⊸, K, F_x and J through ``verify.Ctx`` as its
statement does, so it is no oracle (``tests/oracles.py``): it tests the
shortcut alone.

Three dense statements decide by thresholds.  ``closed_forms_loop`` is the
body ``dense:closed-forms`` had when it tested each of the 25 half-steps z
of {k/24} for every grid pair and cut; ``trans_loop`` is ``dense:trans``'s
loop over every grid triple; and ``separation_loop`` is
``dense:separation``'s pair scan under every open G.

A statement must give its scan's status and witness list, in order, under
each mutant ``mutants.SCANNED`` names for it: on every algebra of
``conftest.ALL_ALGEBRAS`` for a finite statement, on the dense chain for a
dense one.  ``mutants.KILLS`` records the worst status and the failing
witness count of each pair.
"""

from itertools import product as pairs

import pytest

from mvfilters import densechain as dc, verify

import mutants
from conftest import ALL_ALGEBRAS


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


def closed_forms_loop(_, out):
    least = {c: verify._least(c) for c in verify._GRID_CUTS}
    for f, g in verify._pairs(verify._GRID_CUTS):
        lg = least[g]
        x0 = max(least[f], lg)
        s = verify._least(dc.cut_sqto(f, g))
        if s is None or any((z >= s) != (max(0, x0 + z - verify._UNITS) >= lg)
                            for z in verify._HALF_STEPS):
            out.append((str(f), str(g)))
    for f in verify._GRID_CUTS:
        s = verify._least(dc.cut_plus(f))
        if s is None or any((z >= s) != (verify._UNITS - z < least[f])
                            for z in verify._HALF_STEPS):
            out.append(("plus", str(f)))


def trans_loop(_, out):
    cuts = verify._GRID_CUTS
    top = [[dc.cut_sqto(x, y) == dc.TOP for y in cuts] for x in cuts]
    idx = range(len(cuts))
    eq = [[top[i][j] and top[j][i] for j in idx] for i in idx]
    for i, j, k in pairs(idx, repeat=3):
        if eq[i][j] and eq[j][k] and not eq[i][k]:
            out.append((str(cuts[i]), str(cuts[j]), str(cuts[k])))


def separation_loop(_, out):
    for g in verify._GRID_CUTS:
        if g.kind is not dc.Kind.OPEN:
            continue
        below = [f for f in verify._GRID_CUTS if f.issubset(g)]
        values = [dc.cut_sqto(f, g) for f in below]
        for f2, s2 in zip(below, values):
            for f1, s1 in zip(below, values):
                if f1.num * f2.den > f2.num * f1.den and s1 == s2:
                    out.append((str(f1), str(f2), str(g)))


# statement -> its scan
SCANS = {
    "prop:monotone": monotone_scan,
    "prop:revIncl": rev_incl_scan,
    "fact:d": fact_d_scan,
    "prop:small": small_scan,
    "prop:large": large_scan,
    "prop:axiomC": axiom_c_scan,
    "prop:adjunction": adjunction_scan,
    "dense:closed-forms": closed_forms_loop,
    "dense:trans": trans_loop,
    "dense:separation": separation_loop,
}


def cases(*stmts):
    """One pytest parameter per (statement, mutant) pair of stmts."""
    return [pytest.param(s, m, id=f"{s}-{m}") for s in stmts for m in mutants.SCANNED[s]]


def outcome(body, ctx):
    """(status, witnesses) of body on ctx, as ``verify._run`` records them."""
    out = []
    try:
        body(ctx, out)
    except Exception as e:
        return "error", [f"{type(e).__name__}: {e}"]
    return ("fail" if out else "pass"), out


def assert_scan_agrees(stmt, mutant):
    """stmt gives its scan's outcome under mutant, on each test algebra or on
    the dense chain."""
    dense = stmt in verify.DENSE_STATEMENTS
    fn = (verify.DENSE_STATEMENTS if dense else verify.FINITE_STATEMENTS)[stmt][1]
    for a in [None] if dense else ALL_ALGEBRAS.values():
        with mutants.mutated(mutant, a) as b:
            got, want = (outcome(body, None if dense else verify.Ctx(b))
                         for body in (fn, SCANS[stmt]))
        assert got == want, (stmt, mutant, a and a.name)
