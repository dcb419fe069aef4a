"""Statement registry and batch verification runner.

Every checkable statement of the calculus carries a stable identifier
(e.g. ``prop:inclOne``); the runner evaluates each one exhaustively on a
finite algebra, or with seeded randomised suites on the dense chain, and
collects witnesses for any failure.  A statement that raises is recorded
as ``error``, with the exception as its witness, and the run goes on.
Reports are deterministic given (algebra, scope, seed).
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field

from . import calculus, densechain as dc, filters, spectra
from .core import (
    MvAlgebra,
    QuotientAlgebra,
    check_mv_axioms,
    congruence_cosets,
    is_linear,
    iter_mask,
    quotient_by,
)
from .errors import InvalidArgument, InvariantViolation, MvError


@dataclass
class StatementResult:
    id: str
    status: str  # pass | fail | skip | error
    detail: str = ""
    witnesses: list = field(default_factory=list)
    elapsed: float = 0.0


@dataclass
class Report:
    target: str
    seed: int
    results: list[StatementResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status not in ("fail", "error") for r in self.results)

    def to_text(self) -> str:
        lines = [f"target: {self.target}    seed: {self.seed}"]
        for r in self.results:
            line = f"{r.id:<24} {r.status:<5} ({r.elapsed:.3f}s)"
            if r.detail:
                line += f"  {r.detail}"
            lines.append(line)
            for w in r.witnesses[:5]:
                lines.append(f"    witness: {w}")
        n_fail = sum(1 for r in self.results if r.status in ("fail", "error"))
        lines.append(
            f"{len(self.results)} statements, "
            f"{sum(1 for r in self.results if r.status == 'pass')} passed, "
            f"{n_fail} failed, "
            f"{sum(1 for r in self.results if r.status == 'skip')} skipped"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "target": self.target,
                "seed": self.seed,
                "ok": self.ok,
                "results": [
                    {
                        "id": r.id,
                        "status": r.status,
                        "detail": r.detail,
                        "witnesses": [str(w) for w in r.witnesses],
                    }
                    for r in self.results
                ],
            },
            indent=2,
            sort_keys=True,
        )


class Ctx:
    """Filter lists of one finite algebra, and the memo of one verification run.

    The lists come from the theory enumeration in ``filters``: lattice
    filters are the principal filters ↑x and implication filters are ↑b for
    idempotent b.  That is exact for MV-algebras only (finite products of
    Łukasiewicz chains; Cignoli, D'Ottaviano and Mundici, 2000); a ``table``
    spec is not certified before its filters are listed.

    Statements call the pure primitives they query again and again with the
    same arguments through this object: ⊸, the kernel and subordinates from
    ``calculus``, the lattice-filter and prime lattice-filter tests from
    ``filters``, the spectrum and derived algebra of each prime implication
    filter P from ``spectra``, and the quotient by each implication filter
    from ``core``.  Each result is computed once, by the one definition in
    its module, and kept in ``memo`` (operation name -> argument tuple ->
    result).

    Φ, ``sqto_full``, J_u and J_d are split in ``calculus`` into a table
    builder and a combinator.  This object keeps the tables: every →- and
    ⊗-row into a mask (``rows``), and the P-cosets of each P (``cosets``).
    Each pair then costs the combinator's O(|F|) or O(n) bit operations.  On
    the quotient side it keeps the image of each mask in L/P (``image``) and
    F/P ⊸ G/P per (P, F/P, G/P) (``quotient_sqto``), combined from the
    quotient's ⊗-rows into each G/P.

    The memo lives on this instance, so it lasts exactly one verification
    run; the algebra itself is never written to.  Cross-checks compute their
    second side by calling their module directly.
    """

    def __init__(self, a: MvAlgebra):
        self.a = a
        self.lattice = filters.enumerate_lattice_filters(a)
        self.primes = [m for m in self.lattice if filters.is_prime_lattice_filter(a, m)]
        self.impl = filters.enumerate_implication_filters(a)
        self.prime_impl = [
            m for m in self.impl if filters.is_prime_implication_filter(a, m)
        ]
        self.linear = is_linear(a)
        self.memo: defaultdict[str, dict[tuple, object]] = defaultdict(dict)

    def show(self, mask: int) -> str:
        return self.a.label_set(mask)

    def _cached(self, op: str, fn, *args):
        """fn(self.a, *args), computed once per run and kept under memo[op]."""
        table = self.memo[op]
        try:
            return table[args]
        except KeyError:
            value = table[args] = fn(self.a, *args)
            return value

    def sqto(self, f_mask: int, g_mask: int) -> int:
        return self._cached("sqto", calculus.sqto, f_mask, g_mask)

    def kernel(self, f_mask: int) -> int:
        return self._cached("kernel", calculus.kernel, f_mask)

    def subordinate(self, f_mask: int, elem: int) -> int:
        return self._cached("subordinate", calculus.subordinate, f_mask, elem)

    def is_lattice_filter(self, mask: int) -> bool:
        return self._cached("is_lattice_filter", filters.is_lattice_filter, mask)

    def is_prime_lattice_filter(self, mask: int) -> bool:
        return self._cached(
            "is_prime_lattice_filter", filters.is_prime_lattice_filter, mask
        )

    def rows(self, table: str, mask: int) -> dict[int, int]:
        """Every row of the table ``table`` ("imp" or "otimes") into mask."""
        return self._cached(
            "rows", lambda a, t, m: calculus.rows(getattr(a, t), m, a.full_mask),
            table, mask,
        )

    def phi(self, f_mask: int, g_mask: int) -> int:
        return calculus.phi_rows(self.rows("imp", g_mask), f_mask)

    def sqto_full(self, f_mask: int, g_mask: int) -> int:
        return calculus.sqto_full_rows(
            self.rows("otimes", g_mask), f_mask, self.a.full_mask
        )

    def cosets(self, p_mask: int):
        """``congruence_cosets``: (coset_of, representatives, cosets) of P."""
        return self._cached("cosets", congruence_cosets, p_mask)

    def j_up(self, f_mask: int, p_mask: int) -> int:
        return calculus.j_up_cosets(self.cosets(p_mask)[2], f_mask)

    def j_down(self, f_mask: int, p_mask: int) -> int:
        return calculus.j_down_cosets(self.a, self.cosets(p_mask)[2], f_mask)

    def quotient(self, p_mask: int) -> QuotientAlgebra:
        return self._cached("quotient", quotient_by, p_mask)

    def image(self, p_mask: int, mask: int) -> int:
        """The image of mask in L/P."""
        return self._cached(
            "image", lambda _, p, m: self.quotient(p).image_mask(m), p_mask, mask
        )

    def quotient_sqto(self, p_mask: int, fq: int, gq: int) -> int:
        """F/P ⊸ G/P in L/P, for nonempty up-sets F/P and G/P.

        This is ``calculus.sqto_fast`` on the quotient: the AND of the
        quotient's ⊗-rows into G/P over F/P ∩ G/P.  On up-sets, such as the
        images of filters, it equals the definitional ``calculus.sqto``.  The
        rows are built once per (P, G/P) and serve every F/P.
        """
        def fresh(_, p, fq, gq):
            qa = self.quotient(p).quotient
            otimes_rows = self._cached(
                "quotient_rows",
                lambda _, p, m: calculus.rows(qa.otimes, m, qa.full_mask),
                p, gq,
            )
            return calculus.sqto_full_rows(otimes_rows, fq & gq, qa.full_mask)

        return self._cached("quotient_sqto", fresh, p_mask, fq, gq)

    def spectrum(self, p_mask: int) -> spectra.PrimeSpectrum:
        return self._cached("spectrum", spectra.prime_spectrum, p_mask)

    def hat(self, p_mask: int) -> spectra.HatAlgebra:
        return self._cached(
            "hat", lambda _, p: spectra.build_hat(self.spectrum(p)), p_mask
        )


FINITE_STATEMENTS: dict[str, tuple[str, callable]] = {}
DENSE_STATEMENTS: dict[str, tuple[str, callable]] = {}


def finite(stmt_id: str, blurb: str):
    def deco(fn):
        FINITE_STATEMENTS[stmt_id] = (blurb, fn)
        return fn

    return deco


def dense(stmt_id: str, blurb: str):
    def deco(fn):
        DENSE_STATEMENTS[stmt_id] = (blurb, fn)
        return fn

    return deco


def _nested_prime_pairs(ctx: Ctx):
    for f in ctx.primes:
        for g in ctx.primes:
            if f & ~g == 0:
                yield f, g


# ---------------------------------------------------------------------------
# structural statements


@finite("axioms:mv", "operation tables satisfy every MV axiom")
def _axioms(ctx, out):
    rep = check_mv_axioms(ctx.a)
    if not rep.ok:
        out.extend(rep.failures)


@finite("order:partial", "derived order is a partial order, total on chains")
def _order(ctx, out):
    a = ctx.a
    for x in range(a.size):
        if not a.leq(x, x):
            out.append(("reflexivity", x))
        for y in range(a.size):
            if a.leq(x, y) and a.leq(y, x) and x != y:
                out.append(("antisymmetry", x, y))
            for z in range(a.size):
                if a.leq(x, y) and a.leq(y, z) and not a.leq(x, z):
                    out.append(("transitivity", x, y, z))


@finite("identity:otimes-imp", "negated implication equals truncated product")
def _otimes_imp(ctx, out):
    a = ctx.a
    for x in range(a.size):
        for y in range(a.size):
            if a.neg[a.imp[x][y]] != a.otimes[x][a.neg[y]]:
                out.append(("neg-imp", x, y))
            if a.neg[a.imp[x][a.neg[y]]] != a.otimes[x][y]:
                out.append(("neg-imp-neg", x, y))


@finite("enum:crosscheck", "filter enumeration matches a naive power-set scan")
def _enum_crosscheck(ctx, out):
    a = ctx.a
    if a.size > 12:
        return "skip"
    naive = [
        m for m in range(1 << a.size) if filters.is_lattice_filter(a, m)
    ]
    if naive != ctx.lattice:
        out.append(("lattice filter lists differ", len(naive), len(ctx.lattice)))
    naive_impl = [
        m for m in range(1 << a.size) if filters.is_implication_filter(a, m)
    ]
    if naive_impl != ctx.impl:
        out.append(("implication filter lists differ",))


@finite("impl:lattice-otimes", "implication filters = ⊗-closed lattice filters with 1")
def _impl_vs_lattice(ctx, out):
    a = ctx.a
    if a.size > 12:
        return "skip"
    for m in range(1, 1 << a.size):
        lhs = filters.is_implication_filter(a, m)
        rhs = (
            filters.is_lattice_filter(a, m)
            and (m >> a.one) & 1
            and all(
                (m >> a.otimes[x][y]) & 1
                for x in iter_mask(m)
                for y in iter_mask(m)
            )
        )
        if lhs != bool(rhs):
            out.append((ctx.show(m), lhs, bool(rhs)))


# ---------------------------------------------------------------------------
# subordinates and kernels


def _reach(ctx, f, empty, step):
    """Every state a nonempty X ⊆ L∖F produces, each with one witness mask.

    ``empty`` is the state of X = ∅ and ``step(state, x)`` the state of
    X ∪ {x}; the state of X must depend on X only through that recurrence.
    The search starts at ``empty`` and applies ``step`` with every x ∉ F to
    every state it reaches, in breadth-first order.  It is exact:

    - every X reaches its state, by adding its members one at a time;
    - every state has a witness: a step from a state with witness W to its
      successor along x has witness W ∪ {x}, which produces that successor.

    So a claim that holds at every witness holds at every X, while the search
    visits the distinct states instead of the 2^|L∖F| subsets.  ``empty`` is
    in the result only if some nonempty X produces it.
    """
    comp = list(iter_mask(ctx.a.full_mask & ~f))
    witness: dict = {}
    frontier = [(empty, 0)]
    while frontier:
        nxt = []
        for state, w in frontier:
            for x in comp:
                t = step(state, x)
                if t not in witness:
                    witness[t] = w | 1 << x
                    nxt.append((t, witness[t]))
        frontier = nxt
    return witness


@finite("fact:a", "relative kernels are lattice filters")
def _fact_a(ctx, out):
    """K_F(X) = ∩_{x∈X} F_x is a lattice filter for every nonempty X ⊆ L∖F.

    The state of X is the value V = K_F(X), and adding x maps V to V ∩ F_x.
    So the reachable states are the ∩-closure of the subordinates F_x, which
    is exactly the set of K_F(X) values (see ``_reach``).  At each state the
    witness X must give ``kernel_rel`` = V, and V must be a lattice filter.
    """
    a = ctx.a
    for f in ctx.primes:
        states = _reach(ctx, f, a.full_mask, lambda v, x: v & ctx.subordinate(f, x))
        for v, xm in states.items():
            if calculus.kernel_rel(a, f, xm) != v:
                out.append(("kernel_rel differs", ctx.show(f), ctx.show(xm)))
            elif not ctx.is_lattice_filter(v):
                out.append((ctx.show(f), ctx.show(xm)))


@finite("fact:b", "the singleton relative kernel is the subordinate")
def _fact_b(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        for x in iter_mask(a.full_mask & ~f):
            if calculus.kernel_rel(a, f, 1 << x) != ctx.subordinate(f, x):
                out.append((ctx.show(f), x))


@finite("fact:c", "the kernel is the relative kernel at the whole complement")
def _fact_c(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        if ctx.kernel(f) != calculus.kernel_rel(a, f, a.full_mask & ~f):
            out.append((ctx.show(f),))


@finite("fact:d", "subordinates coincide exactly on kernel cosets")
def _fact_d(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        k = ctx.kernel(f)
        coset_of = ctx.cosets(k)[0]
        outside = list(iter_mask(a.full_mask & ~f))
        for x in outside:
            for y in outside:
                same_coset = coset_of[x] == coset_of[y]
                same_sub = ctx.subordinate(f, x) == ctx.subordinate(f, y)
                if same_coset != same_sub:
                    out.append((ctx.show(f), x, y))


@finite("fact:e", "relative kernels see only the join-ideal closure")
def _fact_e(ctx, out):
    """K_F(X) = K_F(I) for every nonempty X ⊆ L∖F, I its join-ideal closure.

    In a finite lattice I = ↓∨X, so the check on X depends on X only through
    the state (K_F(X), ∨X); adding x maps it to (V ∩ F_x, x ∨ ∨X).  Every
    such state is visited once with one witness X (see ``_reach``), on which
    I = ``down_closure_joins`` must avoid F and have K_F(I) = V.
    """
    a = ctx.a
    for f in ctx.primes:
        states = _reach(
            ctx, f, (a.full_mask, a.zero),
            lambda s, x: (s[0] & ctx.subordinate(f, x), a.join[s[1]][x]),
        )
        kernel_of: dict[int, int] = {}
        for (v, _), xm in states.items():
            closed = filters.down_closure_joins(a, xm)
            if closed & f:
                out.append(
                    ("closure escaped the complement", ctx.show(f), ctx.show(xm))
                )
                continue
            if closed not in kernel_of:
                kernel_of[closed] = calculus.kernel_rel(a, f, closed)
            if kernel_of[closed] != v:
                out.append((ctx.show(f), ctx.show(xm)))


@finite("fact:subord-monotone", "subordinates reverse order; joins pick one side")
def _subord_monotone(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        subs = {x: ctx.subordinate(f, x) for x in range(a.size)}
        for z in range(a.size):
            for x in range(a.size):
                if a.leq(z, x) and subs[x] & ~subs[z]:
                    out.append(("monotone", ctx.show(f), z, x))
        for x in iter_mask(a.full_mask & ~f):
            for y in iter_mask(a.full_mask & ~f):
                j = a.join[x][y]
                if subs[j] not in (subs[x], subs[y]):
                    out.append(("join", ctx.show(f), x, y))


@finite("prop:SubAEq", "a subordinate keeps the kernel of its parent")
def _subaeq(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        k = ctx.kernel(f)
        for x in iter_mask(a.full_mask & ~f):
            if ctx.kernel(ctx.subordinate(f, x)) != k:
                out.append((ctx.show(f), x))


@finite("prop:subord-prime", "subordinates of prime filters are prime")
def _subord_prime(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        for x in iter_mask(a.full_mask & ~f):
            s = ctx.subordinate(f, x)
            if s and not ctx.is_prime_lattice_filter(s):
                out.append((ctx.show(f), x, ctx.show(s)))


@finite("prop:plus-involution", "⁺ is an involution on prime filters")
def _plus_inv(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        if calculus.set_plus(a, calculus.set_plus(a, f)) != f:
            out.append((ctx.show(f),))


@finite("kernel:inside", "the kernel is an implication filter inside its filter")
def _kernel_inside(ctx, out):
    a = ctx.a
    for f in ctx.lattice:
        k = ctx.kernel(f)
        if k & ~f:
            out.append(("containment", ctx.show(f)))
        if not filters.is_implication_filter(a, k):
            out.append(("not an implication filter", ctx.show(f)))


@finite("kernel:prime-iff", "kernels are prime exactly when the filter is")
def _kernel_prime_iff(ctx, out):
    a = ctx.a
    for f in ctx.lattice:
        if f == a.full_mask:
            continue
        k = ctx.kernel(f)
        if filters.is_prime_lattice_filter(a, f) != filters.is_prime_implication_filter(
            a, k
        ):
            out.append((ctx.show(f), ctx.show(k)))


# ---------------------------------------------------------------------------
# basic sqto propositions


@finite("prop:fastform", "definitional and product forms of ⊸ agree")
def _fastform(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        for g in ctx.primes:
            if ctx.sqto(f, g) != calculus.sqto_fast(a, f, g):
                out.append((ctx.show(f), ctx.show(g)))


@finite("prop:incl", "F⊸G lands inside G")
def _incl(ctx, out):
    for f in ctx.primes:
        for g in ctx.primes:
            if ctx.sqto(f, g) & ~g:
                out.append((ctx.show(f), ctx.show(g)))


@finite("prop:inclOne", "a nested pair collapses to the kernel")
def _incl_one(ctx, out):
    for f in ctx.primes:
        for g in ctx.primes:
            if g & ~f == 0:
                if ctx.sqto(f, g) != ctx.kernel(g):
                    out.append((ctx.show(f), ctx.show(g)))


@finite("prop:monotone", "⊸ is monotone in its right argument")
def _monotone(ctx, out):
    for f, g1 in _nested_prime_pairs(ctx):
        for g2 in ctx.primes:
            if g1 & ~g2 == 0:
                lhs = ctx.sqto(f, g1)
                rhs = ctx.sqto(f, g2)
                if lhs & ~rhs:
                    out.append((ctx.show(f), ctx.show(g1), ctx.show(g2)))


@finite("prop:revIncl", "⊸ is antitone in its left argument")
def _rev_incl(ctx, out):
    for f1, f2 in _nested_prime_pairs(ctx):
        for g in ctx.primes:
            if f2 & ~g == 0:
                if ctx.sqto(f2, g) & ~ctx.sqto(f1, g):
                    out.append((ctx.show(f1), ctx.show(f2), ctx.show(g)))


@finite("prop:plus", "⊸ is self-dual under ⁺")
def _prop_plus(ctx, out):
    a = ctx.a
    for f, g in _nested_prime_pairs(ctx):
        lhs = ctx.sqto(f, g)
        rhs = ctx.sqto(calculus.set_plus(a, g), calculus.set_plus(a, f))
        if lhs != rhs:
            out.append((ctx.show(f), ctx.show(g)))


@finite("prop:OneOne", "the kernel is a left unit for ⊸")
def _one_one(ctx, out):
    for f in ctx.primes:
        if ctx.sqto(ctx.kernel(f), f) != f:
            out.append((ctx.show(f),))


@finite("prop:adjunction", "the two containments into ⊸ swap symmetrically")
def _adjunction(ctx, out):
    for g in ctx.primes:
        below = [f for f in ctx.primes if f & ~g == 0]
        for f in below:
            for h in below:
                lhs = f & ~ctx.sqto(h, g) == 0
                rhs = h & ~ctx.sqto(f, g) == 0
                if lhs != rhs:
                    out.append((ctx.show(f), ctx.show(h), ctx.show(g)))


@finite("prop:axiomC", "left arguments of nested ⊸ exchange")
def _axiom_c(ctx, out):
    for g in ctx.primes:
        below = [f for f in ctx.primes if f & ~g == 0]
        for f in below:
            for h in below:
                lhs = ctx.sqto(f, ctx.sqto(h, g))
                rhs = ctx.sqto(h, ctx.sqto(f, g))
                if lhs != rhs:
                    out.append((ctx.show(f), ctx.show(h), ctx.show(g)))


@finite("lem:FFg", "F sits inside the double application")
def _ffg(ctx, out):
    for f, g in _nested_prime_pairs(ctx):
        if f & ~ctx.sqto(ctx.sqto(f, g), g):
            out.append((ctx.show(f), ctx.show(g)))


@finite("cor:sqto-triple", "three applications collapse to one")
def _triple(ctx, out):
    for f, g in _nested_prime_pairs(ctx):
        once = ctx.sqto(f, g)
        thrice = ctx.sqto(ctx.sqto(once, g), g)
        if once != thrice:
            out.append((ctx.show(f), ctx.show(g)))


@finite("prop:phi", "the union form of Φ matches the ⁺/⊸ encoding")
def _phi(ctx, out):
    a = ctx.a
    plus = {g: calculus.set_plus(a, g) for g in ctx.lattice}
    for f in ctx.lattice:
        for g in ctx.lattice:
            lhs = ctx.phi(f, g)
            rhs = calculus.set_plus(a, ctx.sqto_full(f, plus[g]))
            if lhs != rhs:
                out.append((ctx.show(f), ctx.show(g)))


# ---------------------------------------------------------------------------
# J-operators and quotient interaction


@finite("prop:small", "J_u is the least enlargement whose kernel absorbs P")
def _small(ctx, out):
    for f in ctx.lattice:
        for p in ctx.impl:
            ju = ctx.j_up(f, p)
            if f & ~ju:
                out.append(("does not contain F", ctx.show(f), ctx.show(p)))
                continue
            if not ctx.is_lattice_filter(ju):
                out.append(("not a lattice filter", ctx.show(f), ctx.show(p)))
                continue
            if p & ~ctx.kernel(ju):
                out.append(("kernel misses P", ctx.show(f), ctx.show(p)))
                continue
            for h in ctx.lattice:
                if f & ~h == 0 and not (p & ~ctx.kernel(h)):
                    if ju & ~h:
                        out.append(("not minimal", ctx.show(f), ctx.show(p)))


@finite("prop:large", "J_d is the largest shrinking whose kernel absorbs P")
def _large(ctx, out):
    for f in ctx.lattice:
        for p in ctx.impl:
            jd = ctx.j_down(f, p)
            candidates = [
                h
                for h in ctx.lattice
                if h & ~f == 0 and not (p & ~ctx.kernel(h))
            ]
            if jd == 0:
                if candidates:
                    out.append(("bottom despite candidates", ctx.show(f), ctx.show(p)))
                continue
            if jd & ~f or (p & ~ctx.kernel(jd)):
                out.append(("violates the two conditions", ctx.show(f), ctx.show(p)))
                continue
            for h in candidates:
                if h & ~jd:
                    out.append(("not maximal", ctx.show(f), ctx.show(p)))


@finite("prop:Ju-kernel", "the kernel of J_u is the kernel join")
def _ju_kernel(ctx, out):
    a = ctx.a
    for f in ctx.lattice:
        for p in ctx.prime_impl:
            ju = ctx.j_up(f, p)
            if ju == a.full_mask:
                continue
            lhs = ctx.kernel(ju)
            rhs = filters.implication_filter_generated(a, ctx.kernel(f) | p)
            if lhs != rhs:
                out.append((ctx.show(f), ctx.show(p)))


@finite("lem:Jd-lower", "a smaller prime survives J_d at its own kernel")
def _jd_lower(ctx, out):
    a = ctx.a
    for f, g in _nested_prime_pairs(ctx):
        if f & ~calculus.j_down(a, g, ctx.kernel(f)):
            out.append((ctx.show(f), ctx.show(g)))


@finite("thm:reduction", "⊸ only sees the common-kernel reduction")
def _reduction(ctx, out):
    """F' = J_u(F, K(G)) and G' = J_d(G, K(F)) leave F⊸G unchanged, one side
    at a time and together, and K(F') = K(G')."""
    a = ctx.a
    for f, g in _nested_prime_pairs(ctx):
        f2 = calculus.j_up(a, f, ctx.kernel(g))
        g2 = calculus.j_down(a, g, ctx.kernel(f))
        base = ctx.sqto(f, g)
        for side, value in (
            ("J_u", ctx.sqto(f2, g)),
            ("J_d", ctx.sqto(f, g2)),
            ("both", ctx.sqto(f2, g2)),
        ):
            if value != base:
                out.append((side + " changed F⊸G", ctx.show(f), ctx.show(g)))
        if ctx.kernel(f2) != ctx.kernel(g2):
            out.append(("kernels differ", ctx.show(f), ctx.show(g)))


@finite("prop:quot-commute", "⊸ commutes with quotients below the kernel")
def _quot_commute(ctx, out):
    """(F⊸G)/P = F/P ⊸ G/P for F ⊆ G and P ⊆ K(G); if also K(F) = K(G), the
    preimage of F/P ⊸ G/P is F⊸G."""
    for f in ctx.lattice:
        for g in ctx.lattice:
            if f & ~g:
                continue
            kf, kg, s = ctx.kernel(f), ctx.kernel(g), ctx.sqto(f, g)
            for p in ctx.impl:
                if p & ~kg:
                    continue
                quotient_side = ctx.quotient_sqto(
                    p, ctx.image(p, f), ctx.image(p, g)
                )
                if ctx.image(p, s) != quotient_side:
                    out.append(("commute", ctx.show(f), ctx.show(g), ctx.show(p)))
                if kf == kg and ctx.quotient(p).preimage_mask(quotient_side) != s:
                    out.append(("preimage", ctx.show(f), ctx.show(g), ctx.show(p)))


@finite("thm:kernel-sqto", "⊸ keeps the common kernel")
def _kernel_sqto(ctx, out):
    for f, g in _nested_prime_pairs(ctx):
        kf = ctx.kernel(f)
        if kf != ctx.kernel(g):
            continue
        k = ctx.kernel(ctx.sqto(f, g))
        if k != kf:
            out.append((ctx.show(f), ctx.show(g), "K(F⊸G) = " + ctx.show(k)))


@finite("def:boundary", "one coset straddles, and ⁺ negates it")
def _boundary(ctx, out):
    a = ctx.a
    prime_or_improper = set(ctx.prime_impl) | {a.full_mask}
    for f in ctx.primes:
        kf = ctx.kernel(f)
        for p in ctx.impl:
            if not (kf & ~p == 0 and kf != p):
                continue
            if p not in prime_or_improper:
                continue
            try:
                c = calculus.boundary_coset(a, f, p)
            except InvariantViolation as e:
                out.append((ctx.show(f), ctx.show(p), str(e)))
                continue
            cplus = calculus.boundary_coset(a, calculus.set_plus(a, f), p)
            neg_image = 0
            for x in iter_mask(c):
                neg_image |= 1 << a.neg[x]
            if cplus != neg_image:
                out.append(("plus-negation", ctx.show(f), ctx.show(p)))


# ---------------------------------------------------------------------------
# convexity and the discrete case


def _chain_intervals(a: MvAlgebra):
    """Every nonempty interval [x, y] = ↑x ∩ ↓y of the order."""
    for x in range(a.size):
        for y in range(a.size):
            if a.leq(x, y):
                yield a.up_mask[x] & a.down_mask[y]


def _image(c: int, values) -> int:
    """{values[z] | z ∈ C} as a mask."""
    m = 0
    for z in iter_mask(c):
        m |= 1 << values[z]
    return m


def _convex_column_images(ctx, out, table):
    """Each interval C's image under z ↦ table[z][x] is convex, for every x."""
    a = ctx.a
    columns = list(zip(*table))
    for c in _chain_intervals(a):
        for x, col in enumerate(columns):
            if not calculus.is_convex(a, _image(c, col)):
                out.append((ctx.show(c), x))


@finite("lem:convex-imp", "implication images of convex sets are convex")
def _convex_imp(ctx, out):
    if not ctx.linear:
        return "skip"
    _convex_column_images(ctx, out, ctx.a.imp)


@finite("lem:convex-neg", "negation images of convex sets are convex")
def _convex_neg(ctx, out):
    if not ctx.linear:
        return "skip"
    a = ctx.a
    for c in _chain_intervals(a):
        if not calculus.is_convex(a, _image(c, a.neg)):
            out.append((ctx.show(c),))


@finite("lem:convex-otimes", "product images of convex sets are convex")
def _convex_otimes(ctx, out):
    if not ctx.linear:
        return "skip"
    _convex_column_images(ctx, out, ctx.a.otimes)


@finite("thm:discrete-principal", "trivial-kernel filters of a chain are principal")
def _discrete(ctx, out):
    if not ctx.linear:
        return "skip"
    a = ctx.a
    if filters.successor_structure(a) is None:
        out.append(("no successor structure",))
        return
    for f in ctx.lattice:
        if f == a.full_mask:
            continue
        if ctx.kernel(f) == a.one_mask:
            if filters.principal_generator(a, f) is None:
                out.append((ctx.show(f),))


@finite("prop:successor", "⊕c and ⊖c step to immediate neighbours")
def _successor(ctx, out):
    if not ctx.linear:
        return "skip"
    a = ctx.a
    res = filters.successor_structure(a)
    if res is None:
        out.append(("absent",))
        return
    c, succ, pred = res
    for x, s in succ.items():
        if pred.get(s) != x:
            out.append(("succ/pred mismatch", x, s))


@finite("equiv:discrete", "on a finite chain cut equivalence is equality")
def _equiv_discrete(ctx, out):
    if not ctx.linear:
        return "skip"
    one = ctx.a.one_mask
    for f in ctx.primes:
        for g in ctx.primes:
            equivalent = ctx.sqto(f, g) == one and ctx.sqto(g, f) == one
            if equivalent != (f == g):
                out.append((ctx.show(f), ctx.show(g)))


# ---------------------------------------------------------------------------
# spectra


def _hats(ctx):
    """(P, derived algebra) for every prime implication P with a nonempty spectrum."""
    for p in ctx.prime_impl:
        if ctx.spectrum(p).members:
            yield p, ctx.hat(p)


@finite("thm:hat", "each spectrum packages into a linear MV-algebra")
def _hat(ctx, out):
    for p in ctx.prime_impl:
        if not ctx.spectrum(p).members:
            continue
        try:
            ctx.hat(p)
        except MvError as e:
            out.append((ctx.show(p), str(e)))


@finite("prop:T-phi", "the three faces of ⊗ coincide on spectra")
def _t_phi(ctx, out):
    """T, Φ and the encoding agree, and agree with the derived algebra's ⊗.

    T(F,G) = Φ(F,G) = (F⊸G⁺)⁺ for members F and G, and a proper T(F,G) is
    the member whose class is ``hat_otimes`` of the classes of F and G.
    """
    a = ctx.a
    for p, h in _hats(ctx):
        for x, f in enumerate(h.representatives):
            for y, g in enumerate(h.representatives):
                t = calculus.tensor_up(a, f, g)
                ph = calculus.phi(a, f, g)
                enc = calculus.set_plus(
                    a, calculus.sqto_full(a, f, calculus.set_plus(a, g))
                )
                if not (t == ph == enc):
                    out.append((ctx.show(p), ctx.show(f), ctx.show(g)))
                elif t != a.full_mask and (
                    t != h.representatives[spectra.hat_otimes(h, x, y)]
                ):
                    out.append(("class of T", ctx.show(p), ctx.show(f), ctx.show(g)))


@finite("prop:axiomG", "double application is cut-equivalent to the original")
def _axiom_g(ctx, out):
    for p in ctx.prime_impl:
        members = ctx.spectrum(p).members
        for f in members:
            for g in members:
                if f & ~g:
                    continue
                fg = ctx.sqto(ctx.sqto(f, g), g)
                # cut equivalence on the spectrum: both ⊸ collapse to P
                if not ctx.sqto(f, fg) == p == ctx.sqto(fg, f):
                    out.append((ctx.show(p), ctx.show(f), ctx.show(g)))


def _extensions(ctx, p: int) -> list[int]:
    """Every Q properly above P that is prime or improper."""
    return [q for q in ctx.prime_impl + [ctx.a.full_mask] if p & ~q == 0 and p != q]


@finite("thm:iota", "cosets map onto the derived algebra as subordinates")
def _iota(ctx, out):
    """The closure identities of ι, and ι is onto the derived algebra.

        P_a ⊸ P_b = η⁻¹[ [[a→b], 1] ]      (both subordinates nonempty)
        P_a⁺      = η⁻¹[ [[¬a], 1] ]

    The right sides are only cut-equivalent to P_{a→b} and P_{¬a}; the two
    collapse exactly when the quotient is dense, so on a finite algebra ι is
    neither injective nor an operation morphism.
    """
    a = ctx.a
    for p, h in _hats(ctx):
        q = ctx.quotient(p)
        qa = q.quotient
        subs = [ctx.subordinate(p, rep) for rep in q.representatives]
        for c in range(qa.size):
            if calculus.set_plus(a, subs[c]) != q.preimage_mask(qa.up_mask[qa.neg[c]]):
                out.append(("plus closure identity", ctx.show(p), c))
            for d in range(qa.size):
                if subs[c] and subs[d] and (
                    ctx.sqto(subs[c], subs[d])
                    != q.preimage_mask(qa.up_mask[qa.imp[c][d]])
                ):
                    out.append(("sqto closure identity", ctx.show(p), c, d))
        if len(set(spectra.iota(h, q))) != h.as_mv.size:
            out.append(("surjectivity", ctx.show(p)))


@finite("thm:hat-eta", "boundary cosets give a morphism to larger quotients")
def _hat_eta(ctx, out):
    """η̂ is each representative's boundary coset and preserves ⁺ and ⊸."""
    a = ctx.a
    for p, h in _hats(ctx):
        ha = h.as_mv
        m = ha.size
        for q_mask in _extensions(ctx, p):
            q = ctx.quotient(q_mask)
            qa = q.quotient
            eta = spectra.hat_eta(h, q)
            where = (ctx.show(p), ctx.show(q_mask))
            stray = [
                ctx.show(rep)
                for i, rep in enumerate(h.representatives)
                if q.cosets.index(calculus.boundary_coset(a, rep, q_mask)) != eta[i]
            ]
            if stray:
                out.append(("η̂ misses a member's boundary coset", *where, stray))
                continue
            if any(eta[ha.neg[i]] != qa.neg[eta[i]] for i in range(m)):
                out.append(("⁺", *where))
            if any(
                eta[ha.imp[i][j]] != qa.imp[eta[i]][eta[j]]
                for i in range(m)
                for j in range(m)
            ):
                out.append(("⊸", *where))


@finite("thm:composite", "the composite map is the canonical coset map")
def _composite(ctx, out):
    """η̂ ∘ ι sends the P-coset of each a to the Q-coset of a."""
    a = ctx.a
    for p, h in _hats(ctx):
        qp = ctx.quotient(p)
        io = spectra.iota(h, qp)
        for q_mask in _extensions(ctx, p):
            q = ctx.quotient(q_mask)
            eta = spectra.hat_eta(h, q)
            wrong = [
                x for x in range(a.size) if eta[io[qp.coset_of[x]]] != q.coset_of[x]
            ]
            if wrong:
                out.append((ctx.show(p), ctx.show(q_mask), wrong))


# ---------------------------------------------------------------------------
# dense-chain statements


# the largest denominator of a random cut endpoint
_MAX_DEN = 1000


class DenseCtx:
    def __init__(self, seed: int, pairs: int = 10_000, triples: int = 1_000):
        self.seed = seed
        self.pairs = pairs
        self.triples = triples

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")


def _boundary_templates():
    from fractions import Fraction

    ps = [Fraction(0), Fraction(1, 2), Fraction(1)]
    cuts = []
    for p in ps:
        for kind in (dc.Kind.OPEN, dc.Kind.CLOSED):
            c = dc.Cut(p, kind)
            if c.is_proper:
                cuts.append(c)
    pairs = [(f, g) for f in cuts for g in cuts]
    # adjacent kinds at a shared interior endpoint
    q = Fraction(1, 3)
    pairs += [
        (dc.open_cut(q), dc.closed_cut(q)),
        (dc.closed_cut(q), dc.open_cut(q)),
    ]
    return pairs


@dense("dense:closed-forms", "closed forms match the elimination oracle")
def _dense_closed_forms(ctx, out):
    rng = ctx.rng("closed-forms")
    for f, g in _boundary_templates():
        if dc.cut_sqto(f, g) != dc.oracle_sqto(f, g):
            out.append((str(f), str(g)))
    for _ in range(ctx.pairs):
        f = dc.random_proper_cut(rng, _MAX_DEN)
        g = dc.random_proper_cut(rng, _MAX_DEN)
        if dc.cut_sqto(f, g) != dc.oracle_sqto(f, g):
            out.append((str(f), str(g)))
        if dc.cut_plus(f) != dc.oracle_plus(f):
            out.append(("plus", str(f)))


@dense("dense:negate", "⊸ against the least filter is ⁺")
def _dense_negate(ctx, out):
    rng = ctx.rng("negate")
    for _ in range(ctx.triples):
        f = dc.random_proper_cut(rng, _MAX_DEN)
        if dc.cut_sqto(f, dc.BOTTOM_FILTER) != dc.cut_plus(f):
            out.append((str(f),))


@dense("dense:equiv-thm", "collapse to {1} happens exactly on nested or split cuts")
def _dense_equiv(ctx, out):
    rng = ctx.rng("equiv")
    cases = list(_boundary_templates())
    for _ in range(ctx.triples):
        cases.append(
            (dc.random_proper_cut(rng, _MAX_DEN),
             dc.random_proper_cut(rng, _MAX_DEN))
        )
        p = dc.random_fraction(rng, _MAX_DEN)
        for kf in (dc.Kind.OPEN, dc.Kind.CLOSED):
            for kg in (dc.Kind.OPEN, dc.Kind.CLOSED):
                f, g = dc.Cut(p, kf), dc.Cut(p, kg)
                if f.is_proper and g.is_proper:
                    cases.append((f, g))
    for f, g in cases:
        collapsed = dc.cut_sqto(f, g) == dc.TOP
        expected = g.issubset(f) or (
            f.kind is dc.Kind.OPEN
            and g.kind is dc.Kind.CLOSED
            and f.endpoint == g.endpoint
        )
        if collapsed != expected:
            out.append((str(f), str(g)))


@dense("dense:separation", "two strictly separated cuts give different ⊸ values")
def _dense_separation(ctx, out):
    rng = ctx.rng("separation")
    for _ in range(ctx.triples):
        f2 = dc.random_proper_cut(rng, _MAX_DEN)
        # widen to guarantee at least two points strictly between the endpoints
        gap = dc.Fraction(1, rng.randint(2, _MAX_DEN))
        e1 = f2.endpoint + gap
        if e1 >= 1:
            continue
        f1 = dc.Cut(e1, rng.choice((dc.Kind.OPEN, dc.Kind.CLOSED)))
        g_end = dc.Fraction(rng.randint(0, f2.endpoint.numerator), max(
            f2.endpoint.denominator, 1))
        g = dc.Cut(min(g_end, f2.endpoint), dc.Kind.OPEN)
        if not (g.is_proper and f1.is_proper):
            continue
        if not (f1.issubset(f2) and f2.issubset(g)):
            continue
        if dc.cut_sqto(f1, g) == dc.cut_sqto(f2, g):
            out.append((str(f1), str(f2), str(g)))


@dense("dense:trans", "cut equivalence is transitive")
def _dense_trans(ctx, out):
    rng = ctx.rng("trans")
    for _ in range(ctx.triples):
        p = dc.random_fraction(rng, _MAX_DEN)
        cuts = [
            c
            for c in (
                dc.Cut(p, dc.Kind.OPEN),
                dc.Cut(p, dc.Kind.CLOSED),
                dc.random_proper_cut(rng, _MAX_DEN),
            )
            if c.is_proper
        ]
        # one ⊸ per ordered pair; x ≈ y when both directions collapse to {1}
        top = [[dc.cut_sqto(x, y) == dc.TOP for y in cuts] for x in cuts]
        idx = range(len(cuts))
        eq = [[top[i][j] and top[j][i] for j in idx] for i in idx]
        for i in idx:
            for j in idx:
                for k in idx:
                    if eq[i][j] and eq[j][k] and not eq[i][k]:
                        out.append((str(cuts[i]), str(cuts[j]), str(cuts[k])))


@dense("dense:congruence", "collapse on the left propagates through ⊸")
def _dense_congruence(ctx, out):
    rng = ctx.rng("congruence")
    for _ in range(ctx.triples):
        p = dc.random_fraction(rng, _MAX_DEN)
        f, g = dc.Cut(p, dc.Kind.OPEN), dc.Cut(p, dc.Kind.CLOSED)
        if not (f.is_proper and g.is_proper):
            continue
        if dc.cut_sqto(f, g) != dc.TOP:
            out.append(("premise", str(f), str(g)))
            continue
        h = dc.random_proper_cut(rng, _MAX_DEN)
        lhs = dc.cut_sqto(dc.cut_sqto(g, h), dc.cut_sqto(f, h))
        if lhs != dc.TOP:
            out.append((str(f), str(g), str(h)))


@dense("dense:props", "the basic proposition suite holds for cuts")
def _dense_props(ctx, out):
    rng = ctx.rng("props")
    for _ in range(ctx.triples):
        f = dc.random_proper_cut(rng, _MAX_DEN)
        g = dc.random_proper_cut(rng, _MAX_DEN)
        h = dc.random_proper_cut(rng, _MAX_DEN)
        s = dc.cut_sqto(f, g)
        # incl
        if not s.issubset(g):
            out.append(("incl", str(f), str(g)))
        # inclOne
        if g.issubset(f) and s != dc.TOP:
            out.append(("inclOne", str(f), str(g)))
        # OneOne: {1}⊸F = F
        if dc.cut_sqto(dc.TOP, f) != f:
            out.append(("OneOne", str(f)))
        # plus duality for nested pairs
        if f.issubset(g):
            if s != dc.cut_sqto(dc.cut_plus(g), dc.cut_plus(f)):
                out.append(("plus", str(f), str(g)))
            # FFg + triple corollary; ffg is (F⊸G)⊸G, reused by axiomG
            ffg = dc.cut_sqto(s, g)
            if not f.issubset(ffg):
                out.append(("FFg", str(f), str(g)))
            if dc.cut_sqto(ffg, g) != s:
                out.append(("triple", str(f), str(g)))
        # revIncl
        if f.issubset(g) and g.issubset(h):
            big = dc.cut_sqto(f, h)
            small = dc.cut_sqto(g, h)
            if not small.issubset(big):
                out.append(("revIncl", str(f), str(g), str(h)))
        # axiomG: (F⊸G)⊸G is cut-equivalent to F when F ⊆ G
        if f.issubset(g):
            if not (dc.cut_sqto(f, ffg) == dc.TOP
                    and dc.cut_sqto(ffg, f) == dc.TOP):
                out.append(("axiomG", str(f), str(g)))
        # axiomC
        lhs = dc.cut_sqto(f, dc.cut_sqto(h, g))
        rhs = dc.cut_sqto(h, s)
        if lhs != rhs:
            out.append(("axiomC", str(f), str(g), str(h)))


@dense("dense:kernel", "every proper cut filter has trivial kernel")
def _dense_kernel(ctx, out):
    rng = ctx.rng("kernel")
    for _ in range(ctx.triples):
        f = dc.random_proper_cut(rng, _MAX_DEN)
        if dc.cut_sqto(f, f) != dc.TOP:
            out.append((str(f),))


@dense("dense:hat-embed", "finite subchains embed into the class algebra")
def _dense_hat_embed(ctx, out):
    from fractions import Fraction

    for d in range(1, 13):
        pts = [Fraction(k, d) for k in range(d + 1)]
        # the embedding a ↦ class([a,1]) is injective and mirrors ⊸, ⁺ and ⊕
        members = [dc.canonical_member(x) for x in pts]
        if len({dc.hat_class(m) for m in members}) != len(pts):
            out.append(("injectivity", d))
        for x, mx in zip(pts, members):
            plus = dc.cut_plus(mx)
            if dc.hat_class(plus) != 1 - x:
                out.append(("plus", d, str(x)))
            for y, my in zip(pts, members):
                if dc.hat_class(dc.cut_sqto(mx, my)) != dc.chain_imp(x, y):
                    out.append(("morphism", d, str(x), str(y)))
                if dc.hat_class(dc.cut_sqto(plus, my)) != min(1, x + y):
                    out.append(("oplus", d, str(x), str(y)))


# ---------------------------------------------------------------------------
# runners


def _run(statements, ctx, only, target, seed) -> Report:
    if only:
        unknown = [s for s in only if s not in statements]
        if unknown:
            raise InvalidArgument(f"unknown statement ids: {', '.join(unknown)}")
    report = Report(target=target, seed=seed)
    for stmt_id, (blurb, fn) in statements.items():
        if only and stmt_id not in only:
            continue
        out: list = []
        t0 = time.perf_counter()
        try:
            status = "skip" if fn(ctx, out) == "skip" else ("fail" if out else "pass")
        except Exception as e:  # a crash is this statement's verdict, not the run's
            status, out = "error", [f"{type(e).__name__}: {e}"]
        elapsed = time.perf_counter() - t0
        report.results.append(StatementResult(
            stmt_id, status, blurb, [] if status == "skip" else out, elapsed
        ))
    return report


def run_finite(a: MvAlgebra, only=None, seed: int = 0) -> Report:
    ctx = Ctx(a)
    return _run(FINITE_STATEMENTS, ctx, only, a.name or "finite algebra", seed)


def run_dense(seed: int = 0, only=None, pairs: int = 10_000,
              triples: int = 1_000) -> Report:
    ctx = DenseCtx(seed, pairs=pairs, triples=triples)
    return _run(DENSE_STATEMENTS, ctx, only, "dense rational chain", seed)
