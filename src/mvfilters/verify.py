"""Statement registry and batch verification runner.

Every checkable statement of the calculus carries a stable identifier
(e.g. ``prop:inclOne``); the runner evaluates each one exhaustively on a
finite algebra, and on the dense chain on every cut, pair and triple of a
grid that decides it; it collects witnesses for any failure.  A statement
that raises is recorded as ``error``, with the exception as its witness, and
the run goes on.
Reports are deterministic given (algebra, scope).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import product

from . import calculus, densechain as dc, filters, spectra
from .core import (
    MvAlgebra,
    QuotientAlgebra,
    check_mv_axioms,
    is_linear,
    iter_mask,
    mask_of,
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
    results: list[StatementResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status not in ("fail", "error") for r in self.results)

    def to_text(self) -> str:
        lines = [f"target: {self.target}"]
        for r in self.results:
            line = f"{r.id:<24} {r.status:<5} ({r.elapsed:.3f}s)"
            if r.detail:
                line += f"  {r.detail}"
            lines.append(line)
            for w in r.witnesses[:5]:
                lines.append(f"    witness: {w}")
        n = Counter(r.status for r in self.results)
        lines.append(
            f"{len(self.results)} statements, {n['pass']} passed, "
            f"{n['fail'] + n['error']} failed, {n['skip']} skipped"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "target": self.target,
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


def _memo(method):
    """A ``Ctx`` method computed once per run: memo[its name][its arguments]."""
    name = method.__name__

    @wraps(method)
    def cached(self, *args):
        table = self.memo[name]
        try:
            return table[args]
        except KeyError:
            value = table[args] = method(self, *args)
            return value

    return cached


class Ctx:
    """Filter lists of one finite algebra, and the memo of one verification run.

    The lists come from the theory enumeration in ``filters``: lattice
    filters are the principal filters ↑x, the prime ones those whose
    complement is some ↓y, implication filters are ↑b for idempotent b, and
    the prime ones the maximal proper ones.  That is exact for MV-algebras
    only (finite products of Łukasiewicz chains; Cignoli, D'Ottaviano and
    Mundici, 2000).  Every spec the cli builds is certified first, so only a
    hand-built ``MvAlgebra`` is listed uncertified; ``axioms:mv`` reports
    its witnesses.  The four lists answer membership too: a statement asks
    ``m in ctx.impl`` rather than deciding it again by a predicate.
    ``enum:crosscheck`` and ``impl:lattice-otimes`` certify the lists
    against the definitions on every up-set, and ``order:partial`` the
    masks ↑x and ↓x they are read from against ≤.

    A method marked ``@_memo`` computes its value once per argument tuple,
    by the one definition in its module, and keeps it in
    ``memo[method name][args]``, which lasts exactly this run; the algebra
    itself is never written to.  Φ and ``sqto_full`` are one C fold
    (``core.fold_or``, ``core.fold_and``) of the kept rows over F's members,
    and J_u and J_d read the cosets of the kept L/P (P in ``impl``), O(n)
    bit operations per pair.  ⊸ and K are ``calculus``'s relative kernel
    K_F(X), |X| →-column reads ANDed by one ``reduce`` per call.  A
    cross-check's second side shares no table with its first: ``fact:b``,
    ``fact:c`` and ``prop:fastform`` set those →-column reads against
    ⊗-rows, and ``prop:T-phi`` computes T cold.
    """

    def __init__(self, a: MvAlgebra):
        self.a = a
        self.lattice = filters.enumerate_lattice_filters(a)
        self.primes = filters.enumerate_lattice_filters(a, prime_only=True)
        self.impl = filters.enumerate_implication_filters(a)
        self.prime_impl = filters.enumerate_implication_filters(a, prime_only=True)
        self.linear = is_linear(a)
        self.memo: defaultdict[str, dict[tuple, object]] = defaultdict(dict)

    def show(self, mask: int) -> str:
        return self.a.label_set(mask)

    @_memo
    def sqto(self, f_mask: int, g_mask: int) -> int:
        return calculus.sqto(self.a, f_mask, g_mask)

    @_memo
    def kernel(self, f_mask: int) -> int:
        return calculus.kernel(self.a, f_mask)

    @_memo
    def subordinate(self, f_mask: int, elem: int) -> int:
        return calculus.subordinate(self.a, f_mask, elem)

    @_memo
    def rows(self, table: str, mask: int) -> list[int]:
        """Every row of the table ``table`` ("imp" or "otimes") into mask."""
        return calculus.rows(getattr(self.a, f"{table}_bytes"), mask)

    def phi(self, f_mask: int, g_mask: int) -> int:
        return calculus.phi_rows(self.rows("imp", g_mask), f_mask)

    def sqto_full(self, f_mask: int, g_mask: int) -> int:
        return calculus.sqto_full_rows(
            self.rows("otimes", g_mask), f_mask, self.a.full_mask
        )

    def j_up(self, f_mask: int, p_mask: int) -> int:
        return calculus.j_up_cosets(self.quotient(p_mask).cosets, f_mask)

    def j_down(self, f_mask: int, p_mask: int) -> int:
        return calculus.j_down_cosets(self.a, self.quotient(p_mask).cosets, f_mask)

    @_memo
    def quotient(self, p_mask: int) -> QuotientAlgebra:
        return quotient_by(self.a, p_mask)

    @_memo
    def quotient_rows(self, p_mask: int, gq: int) -> list[int]:
        """Every ⊗-row of L/P into G/P."""
        return calculus.rows(self.quotient(p_mask).quotient.otimes_bytes, gq)

    @_memo
    def quotient_sqto(self, p_mask: int, fq: int, gq: int) -> int:
        """F/P ⊸ G/P in L/P, for nonempty up-sets F/P and G/P.

        This is ``calculus.sqto_fast`` on the quotient: the AND of the
        quotient's ⊗-rows into G/P over F/P ∩ G/P.  On up-sets, such as the
        images of filters, it equals the definitional ``calculus.sqto``.
        """
        full = self.quotient(p_mask).quotient.full_mask
        return calculus.sqto_full_rows(self.quotient_rows(p_mask, gq), fq & gq, full)

    @_memo
    def spectrum(self, p_mask: int) -> spectra.PrimeSpectrum:
        """PSpec(P) from the prime list and the kernel memo; P must be in
        ``prime_impl``.  ``spectra.prime_spectrum`` lists it cold."""
        members = tuple(f for f in self.primes if self.kernel(f) == p_mask)
        return spectra.PrimeSpectrum(self.a, p_mask, members)

    @_memo
    def hat(self, p_mask: int) -> spectra.HatAlgebra:
        """The derived algebra on PSpec(P), from the members' ``sqto`` memo."""
        spec = self.spectrum(p_mask)
        table = [[self.sqto(f, g) for g in spec.members] for f in spec.members]
        return spectra.hat_from_sqto(spec, table)


def _registry():
    """A statement table, id -> (blurb, fn), and the decorator that fills it.

    ``@register(id, blurb, when=holds)`` stores fn(ctx, out): it runs the
    body, which appends one witness to ``out`` per failing instance, or
    returns "skip" without running it when ``holds(ctx)`` is false.
    """
    statements: dict[str, tuple[str, callable]] = {}

    def register(stmt_id: str, blurb: str, when=None):
        def deco(body):
            def fn(ctx, out):
                if when is not None and not when(ctx):
                    return "skip"
                body(ctx, out)

            statements[stmt_id] = (blurb, fn)
            return fn

        return deco

    return statements, register


FINITE_STATEMENTS, finite = _registry()
DENSE_STATEMENTS, dense = _registry()


def _chains_only(ctx: Ctx) -> bool:
    return ctx.linear


def _nontrivial_chains_only(ctx: Ctx) -> bool:
    """A chain of at least two elements: its 0 has a successor."""
    return ctx.linear and ctx.a.size >= 2


def _power_set_scannable(ctx: Ctx) -> bool:
    """At most 12 elements: the up-set walk stays within 2^12 on any table."""
    return ctx.a.size <= 12


# quantifier domains; each yields in the order of the nested loops it names


def _pairs(items):
    """Every ordered pair (x, y) of items."""
    return product(items, repeat=2)


def _nested_pairs(masks):
    """Every pair F ⊆ G of masks."""
    return ((f, g) for f, g in _pairs(masks) if f & ~g == 0)


def _prime_chains(ctx: Ctx):
    """Every chain F ⊆ G ⊆ H of prime lattice filters."""
    return ((f, g, h) for f, g in _nested_pairs(ctx.primes)
            for h in ctx.primes if g & ~h == 0)


def _pairs_below(ctx: Ctx):
    """Every (F, H, G) of prime lattice filters with F ⊆ G and H ⊆ G."""
    for g in ctx.primes:
        below = [f for f in ctx.primes if f & ~g == 0]
        for f, h in _pairs(below):
            yield f, h, g


def _outside(ctx: Ctx, f: int):
    """Every element of L∖F."""
    return iter_mask(ctx.a.full_mask & ~f)


def _shown(ctx: Ctx, *masks: int) -> tuple[str, ...]:
    """A witness made of masks, each as its label set."""
    return tuple(map(ctx.show, masks))


# ---------------------------------------------------------------------------
# structural statements


@finite("axioms:mv", "operation tables satisfy every MV axiom")
def _axioms(ctx, out):
    out.extend(check_mv_axioms(ctx.a))


@finite("order:partial", "derived order is a partial order, total on chains")
def _order(ctx, out):
    """Checks ↑x (``up_mask``) and ↓x (``down_mask``) against ``leq``, then
    reads ``up_mask``: for each y ∈ ↑x, antisymmetry asks whether x ∈ ↑y,
    and every z ∈ ↑y∖↑x breaks transitivity."""
    a, up = ctx.a, ctx.a.up_mask
    for x, ux in enumerate(up):
        if ux != mask_of(y for y in range(a.size) if a.leq(x, y)):
            out.append(("up_mask", x))
        if a.down_mask[x] != mask_of(y for y in range(a.size) if a.leq(y, x)):
            out.append(("down_mask", x))
        if not (ux >> x) & 1:
            out.append(("reflexivity", x))
        for y in iter_mask(ux):
            if (up[y] >> x) & 1 and x != y:
                out.append(("antisymmetry", x, y))
            for z in iter_mask(up[y] & ~ux):
                out.append(("transitivity", x, y, z))


@finite("identity:otimes-imp", "negated implication equals truncated product")
def _otimes_imp(ctx, out):
    a = ctx.a
    for x, y in _pairs(range(a.size)):
        if a.neg[a.imp[x][y]] != a.otimes[x][a.neg[y]]:
            out.append(("neg-imp", x, y))
        if a.neg[a.imp[x][a.neg[y]]] != a.otimes[x][y]:
            out.append(("neg-imp-neg", x, y))


@finite("enum:crosscheck", "filter enumeration matches a naive power-set scan",
        when=_power_set_scannable)
def _enum_crosscheck(ctx, out):
    """Every filter is an up-set, so the exact walk ``filters.enumerate_up_sets``
    builds the naive lists of a 2ⁿ scan: a lattice filter is up-closed by
    definition, and so is an implication filter M, as y ∈ ↑x (row x of →
    into {1}) gives x→y = 1 ∈ M, so y ∈ M by modus ponens."""
    a = ctx.a
    up_sets = filters.enumerate_up_sets(a)
    naive = [m for m in up_sets if filters.is_lattice_filter(a, m)]
    if naive != ctx.lattice:
        out.append(("lattice filter lists differ", len(naive), len(ctx.lattice)))
    naive_primes = [
        m for m in naive
        if m != a.full_mask
        and not any((m >> a.join[x][y]) & 1 for x, y in _pairs(_outside(ctx, m)))
    ]
    if naive_primes != ctx.primes:
        out.append(("prime filter lists differ", len(naive_primes), len(ctx.primes)))
    naive_impl = [m for m in up_sets if filters.is_implication_filter(a, m)]
    if naive_impl != ctx.impl:
        out.append(("implication filter lists differ",))
    naive_prime_impl = [
        p for p in naive_impl
        if p != a.full_mask
        and all((p >> a.imp[x][y]) & 1 or (p >> a.imp[y][x]) & 1
                for x, y in _pairs(range(a.size)))
    ]
    if naive_prime_impl != ctx.prime_impl:
        out.append(("prime implication filter lists differ",
                    len(naive_prime_impl), len(ctx.prime_impl)))


@finite("impl:lattice-otimes", "implication filters = ⊗-closed lattice filters with 1",
        when=_power_set_scannable)
def _impl_vs_lattice(ctx, out):
    """Both sides are false off the up-sets: a lattice filter is up-closed,
    and so is an implication filter M, as y ∈ ↑x gives x→y = 1 ∈ M, so
    y ∈ M by modus ponens.  So the exact walk ``filters.enumerate_up_sets``
    yields every mask a 2ⁿ scan reports, in the same ascending order."""
    a = ctx.a
    for m in filters.enumerate_up_sets(a):
        lhs = filters.is_implication_filter(a, m)
        rhs = (
            filters.is_lattice_filter(a, m)
            and (m >> a.one) & 1
            and all(
                (m >> a.otimes[x][y]) & 1 for x, y in _pairs(iter_mask(m))
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
    comp = list(_outside(ctx, f))
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
                out.append(("kernel_rel differs", *_shown(ctx, f, xm)))
            elif v not in ctx.lattice:
                out.append(_shown(ctx, f, xm))


@finite("fact:b", "the singleton relative kernel is the subordinate")
def _fact_b(ctx, out):
    """K_F({x}) and F_x, both →-column reads, against F's ⊗-rows.

    F is an up-set, so z→x ∈ F exactly when f⊗z ≤ x for some f ∈ F
    (residuation).  Hence F_x = {z | f⊗z ∉ ↓x for every f ∈ F}, which is
    ``sqto_full(F, L∖↓x)`` and reads no → column.
    """
    a = ctx.a
    for f in ctx.primes:
        for x in _outside(ctx, f):
            rows_side = ctx.sqto_full(f, a.full_mask & ~a.down_mask[x])
            columns = calculus.kernel_rel(a, f, 1 << x), ctx.subordinate(f, x)
            if columns != (rows_side, rows_side):
                out.append((ctx.show(f), x))


@finite("fact:c", "the kernel is the relative kernel at the whole complement")
def _fact_c(ctx, out):
    """K(F) = K_F(L∖F), against F's ⊗-rows.

    By residuation as in ``fact:b``, z→x ∈ F for some x ∉ F exactly when
    f⊗z ∉ F for some f ∈ F, so K(F) = {z | F⊗z ⊆ F} = ``sqto_full(F, F)``.
    """
    for f in ctx.primes:
        if ctx.kernel(f) != ctx.sqto_full(f, f):
            out.append(_shown(ctx, f))


@finite("fact:d", "subordinates coincide exactly on kernel cosets")
def _fact_d(ctx, out):
    for f in ctx.primes:
        coset_of = ctx.quotient(ctx.kernel(f)).coset_of
        for x, y in _pairs(_outside(ctx, f)):
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
                out.append(("closure escaped the complement", *_shown(ctx, f, xm)))
                continue
            if closed not in kernel_of:
                kernel_of[closed] = calculus.kernel_rel(a, f, closed)
            if kernel_of[closed] != v:
                out.append(_shown(ctx, f, xm))


@finite("fact:subord-monotone", "subordinates reverse order; joins pick one side")
def _subord_monotone(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        subs = {x: ctx.subordinate(f, x) for x in range(a.size)}
        for z in range(a.size):
            for x in iter_mask(a.up_mask[z]):
                if subs[x] & ~subs[z]:
                    out.append(("monotone", ctx.show(f), z, x))
        for x, y in _pairs(_outside(ctx, f)):
            if subs[a.join[x][y]] not in (subs[x], subs[y]):
                out.append(("join", ctx.show(f), x, y))


@finite("prop:SubAEq", "a subordinate keeps the kernel of its parent")
def _subaeq(ctx, out):
    for f in ctx.primes:
        k = ctx.kernel(f)
        for x in _outside(ctx, f):
            if ctx.kernel(ctx.subordinate(f, x)) != k:
                out.append((ctx.show(f), x))


@finite("prop:subord-prime", "subordinates of prime filters are prime")
def _subord_prime(ctx, out):
    for f in ctx.primes:
        for x in _outside(ctx, f):
            s = ctx.subordinate(f, x)
            if s and s not in ctx.primes:
                out.append((ctx.show(f), x, ctx.show(s)))


@finite("prop:plus-involution", "⁺ is an involution on prime filters")
def _plus_inv(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        if calculus.set_plus(a, calculus.set_plus(a, f)) != f:
            out.append(_shown(ctx, f))


@finite("kernel:inside", "the kernel is an implication filter inside its filter")
def _kernel_inside(ctx, out):
    for f in ctx.lattice:
        k = ctx.kernel(f)
        if k & ~f:
            out.append(("containment", ctx.show(f)))
        if k not in ctx.impl:
            out.append(("not an implication filter", ctx.show(f)))


@finite("kernel:prime-iff", "kernels are prime exactly when the filter is")
def _kernel_prime_iff(ctx, out):
    for f in ctx.lattice:
        if f == ctx.a.full_mask:
            continue
        k = ctx.kernel(f)
        if (f in ctx.primes) != (k in ctx.prime_impl):
            out.append(_shown(ctx, f, k))


# ---------------------------------------------------------------------------
# basic sqto propositions


@finite("prop:fastform", "definitional and product forms of ⊸ agree")
def _fastform(ctx, out):
    for f, g in _pairs(ctx.primes):
        if ctx.sqto(f, g) != ctx.sqto_full(f & g, g):
            out.append(_shown(ctx, f, g))


@finite("prop:incl", "F⊸G lands inside G")
def _incl(ctx, out):
    for f, g in _pairs(ctx.primes):
        if ctx.sqto(f, g) & ~g:
            out.append(_shown(ctx, f, g))


@finite("prop:inclOne", "a nested pair collapses to the kernel")
def _incl_one(ctx, out):
    for f, g in _pairs(ctx.primes):
        if g & ~f == 0 and ctx.sqto(f, g) != ctx.kernel(g):
            out.append(_shown(ctx, f, g))


@finite("prop:monotone", "⊸ is monotone in its right argument")
def _monotone(ctx, out):
    for f, g1, g2 in _prime_chains(ctx):
        if ctx.sqto(f, g1) & ~ctx.sqto(f, g2):
            out.append(_shown(ctx, f, g1, g2))


@finite("prop:revIncl", "⊸ is antitone in its left argument")
def _rev_incl(ctx, out):
    for f1, f2, g in _prime_chains(ctx):
        if ctx.sqto(f2, g) & ~ctx.sqto(f1, g):
            out.append(_shown(ctx, f1, f2, g))


@finite("prop:plus", "⊸ is self-dual under ⁺")
def _prop_plus(ctx, out):
    a = ctx.a
    for f, g in _nested_pairs(ctx.primes):
        lhs = ctx.sqto(f, g)
        rhs = ctx.sqto(calculus.set_plus(a, g), calculus.set_plus(a, f))
        if lhs != rhs:
            out.append(_shown(ctx, f, g))


@finite("prop:OneOne", "the kernel is a left unit for ⊸")
def _one_one(ctx, out):
    for f in ctx.primes:
        if ctx.sqto(ctx.kernel(f), f) != f:
            out.append(_shown(ctx, f))


@finite("prop:adjunction", "the two containments into ⊸ swap symmetrically")
def _adjunction(ctx, out):
    for f, h, g in _pairs_below(ctx):
        if (f & ~ctx.sqto(h, g) == 0) != (h & ~ctx.sqto(f, g) == 0):
            out.append(_shown(ctx, f, h, g))


@finite("prop:axiomC", "left arguments of nested ⊸ exchange")
def _axiom_c(ctx, out):
    for f, h, g in _pairs_below(ctx):
        if ctx.sqto(f, ctx.sqto(h, g)) != ctx.sqto(h, ctx.sqto(f, g)):
            out.append(_shown(ctx, f, h, g))


@finite("lem:FFg", "F sits inside the double application")
def _ffg(ctx, out):
    for f, g in _nested_pairs(ctx.primes):
        if f & ~ctx.sqto(ctx.sqto(f, g), g):
            out.append(_shown(ctx, f, g))


@finite("cor:sqto-triple", "three applications collapse to one")
def _triple(ctx, out):
    for f, g in _nested_pairs(ctx.primes):
        once = ctx.sqto(f, g)
        if ctx.sqto(ctx.sqto(once, g), g) != once:
            out.append(_shown(ctx, f, g))


@finite("prop:phi", "the union form of Φ matches the ⁺/⊸ encoding")
def _phi(ctx, out):
    a = ctx.a
    plus = {g: calculus.set_plus(a, g) for g in ctx.lattice}
    for f, g in _pairs(ctx.lattice):
        if ctx.phi(f, g) != calculus.set_plus(a, ctx.sqto_full(f, plus[g])):
            out.append(_shown(ctx, f, g))


# ---------------------------------------------------------------------------
# J-operators and quotient interaction


def _kernel_absorbing(ctx: Ctx) -> dict[int, list[int]]:
    """P -> the lattice filters H with P ⊆ K(H), in ``ctx.lattice`` order,
    for every implication filter P."""
    kernels = [(h, ctx.kernel(h)) for h in ctx.lattice]
    return {p: [h for h, k in kernels if not p & ~k] for p in ctx.impl}


@finite("prop:small", "J_u is the least enlargement whose kernel absorbs P")
def _small(ctx, out):
    absorbing = _kernel_absorbing(ctx)
    for f, p in product(ctx.lattice, ctx.impl):
        ju = ctx.j_up(f, p)
        if f & ~ju:
            out.append(("does not contain F", *_shown(ctx, f, p)))
        elif ju not in ctx.lattice:
            out.append(("not a lattice filter", *_shown(ctx, f, p)))
        elif p & ~ctx.kernel(ju):
            out.append(("kernel misses P", *_shown(ctx, f, p)))
        else:
            for h in absorbing[p]:
                if f & ~h == 0 and ju & ~h:
                    out.append(("not minimal", *_shown(ctx, f, p)))


@finite("prop:large", "J_d is the largest shrinking whose kernel absorbs P")
def _large(ctx, out):
    absorbing = _kernel_absorbing(ctx)
    for f, p in product(ctx.lattice, ctx.impl):
        jd = ctx.j_down(f, p)
        candidates = [h for h in absorbing[p] if h & ~f == 0]
        if jd == 0:
            if candidates:
                out.append(("bottom despite candidates", *_shown(ctx, f, p)))
        elif jd & ~f or (p & ~ctx.kernel(jd)):
            out.append(("violates the two conditions", *_shown(ctx, f, p)))
        else:
            for h in candidates:
                if h & ~jd:
                    out.append(("not maximal", *_shown(ctx, f, p)))


@finite("prop:Ju-kernel", "the kernel of J_u is the kernel join")
def _ju_kernel(ctx, out):
    a = ctx.a
    for f, p in product(ctx.lattice, ctx.prime_impl):
        ju = ctx.j_up(f, p)
        if ju == a.full_mask:
            continue
        lhs = ctx.kernel(ju)
        rhs = filters.implication_filter_generated(a, ctx.kernel(f) | p)
        if lhs != rhs:
            out.append(_shown(ctx, f, p))


@finite("lem:Jd-lower", "a smaller prime survives J_d at its own kernel")
def _jd_lower(ctx, out):
    for f, g in _nested_pairs(ctx.primes):
        if f & ~ctx.j_down(g, ctx.kernel(f)):
            out.append(_shown(ctx, f, g))


@finite("thm:reduction", "⊸ only sees the common-kernel reduction")
def _reduction(ctx, out):
    """F' = J_u(F, K(G)) and G' = J_d(G, K(F)) leave F⊸G unchanged, one side
    at a time and together, and K(F') = K(G')."""
    for f, g in _nested_pairs(ctx.primes):
        f2 = ctx.j_up(f, ctx.kernel(g))
        g2 = ctx.j_down(g, ctx.kernel(f))
        base = ctx.sqto(f, g)
        for side, value in (
            ("J_u", ctx.sqto(f2, g)),
            ("J_d", ctx.sqto(f, g2)),
            ("both", ctx.sqto(f2, g2)),
        ):
            if value != base:
                out.append((side + " changed F⊸G", *_shown(ctx, f, g)))
        if ctx.kernel(f2) != ctx.kernel(g2):
            out.append(("kernels differ", *_shown(ctx, f, g)))


@finite("prop:quot-commute", "⊸ commutes with quotients below the kernel")
def _quot_commute(ctx, out):
    """(F⊸G)/P = F/P ⊸ G/P for F ⊆ G and P ⊆ K(G); if also K(F) = K(G), the
    preimage of F/P ⊸ G/P is F⊸G.  Each P's quotient, and the images in it,
    are read once per run into ``seen``."""
    seen = {}  # P -> (L/P, {mask: its image in L/P})
    for f, g in _nested_pairs(ctx.lattice):
        kf, kg, s = ctx.kernel(f), ctx.kernel(g), ctx.sqto(f, g)
        for p in ctx.impl:
            if p & ~kg:
                continue
            if p not in seen:
                seen[p] = ctx.quotient(p), {}
            q, images = seen[p]
            for m in (f, g, s):
                if m not in images:
                    images[m] = q.image_mask(m)
            quotient_side = ctx.quotient_sqto(p, images[f], images[g])
            if images[s] != quotient_side:
                out.append(("commute", *_shown(ctx, f, g, p)))
            if kf == kg and q.preimage_mask(quotient_side) != s:
                out.append(("preimage", *_shown(ctx, f, g, p)))


@finite("thm:kernel-sqto", "⊸ keeps the common kernel")
def _kernel_sqto(ctx, out):
    """K(F⊸G) = K(F) for nested primes with K(F) = K(G).  On a finite algebra
    nested primes share their kernel (prime implication filters are maximal),
    so the K(F) ≠ K(G) guard never skips a pair."""
    for f, g in _nested_pairs(ctx.primes):
        kf = ctx.kernel(f)
        if kf != ctx.kernel(g):
            continue
        k = ctx.kernel(ctx.sqto(f, g))
        if k != kf:
            out.append((*_shown(ctx, f, g), "K(F⊸G) = " + ctx.show(k)))


@finite("def:boundary", "one coset straddles, and ⁺ negates it")
def _boundary(ctx, out):
    a = ctx.a
    for f in ctx.primes:
        for p in _extensions(ctx, ctx.kernel(f)):
            q = ctx.quotient(p)
            try:
                c = calculus.boundary_coset(a, f, q)
            except InvariantViolation as e:
                out.append((*_shown(ctx, f, p), str(e)))
                continue
            cplus = calculus.boundary_coset(a, calculus.set_plus(a, f), q)
            if cplus != mask_of(a.neg[z] for z in iter_mask(c)):
                out.append(("plus-negation", *_shown(ctx, f, p)))


# ---------------------------------------------------------------------------
# convexity and the discrete case


def _convex_images(ctx, out, columns):
    """Each column z ↦ col[z] maps every interval of the chain onto a convex set.

    Only the images {col[z], col[w]} of the neighbour pairs z ⋖ w are asked
    about, neighbours taken in rank order |↓z|, and that is exact.  An
    interval [x, y] with x < y is the path x = z₀ ⋖ z₁ ⋖ … ⋖ z_k = y, so its
    image is the union of its neighbour pairs' images, and each of those
    meets the next in col[zᵢ₊₁].  On a chain a union of convex sets that each
    meet the next is convex, a one-element image is convex, and each pair
    {z, w} is itself an interval.  So every interval's image is convex
    exactly when every neighbour pair's is.  A witness is the failing pair
    {z, w} and the index of its column.
    """
    a = ctx.a
    ranked = [0] * a.size
    for z, down in enumerate(a.down_mask):
        ranked[down.bit_count() - 1] = z
    pairs = list(zip(ranked, ranked[1:]))
    for i, col in enumerate(columns):
        for z, w in pairs:
            if not calculus.is_convex(a, 1 << col[z] | 1 << col[w]):
                out.append((ctx.show(1 << z | 1 << w), i))


@finite("lem:convex-imp", "implication images of convex sets are convex",
        when=_chains_only)
def _convex_imp(ctx, out):
    _convex_images(ctx, out, zip(*ctx.a.imp))


@finite("lem:convex-neg", "negation images of convex sets are convex",
        when=_chains_only)
def _convex_neg(ctx, out):
    _convex_images(ctx, out, [ctx.a.neg])


@finite("lem:convex-otimes", "product images of convex sets are convex",
        when=_chains_only)
def _convex_otimes(ctx, out):
    _convex_images(ctx, out, zip(*ctx.a.otimes))


@finite("thm:discrete-principal", "trivial-kernel filters of a chain are principal",
        when=_nontrivial_chains_only)
def _discrete(ctx, out):
    """Only the successor-structure branch can fail on a finite chain: ``Ctx``
    lists the lattice filters as the principal filters ↑x, so
    ``principal_generator`` finds an x for every filter the loop tests."""
    a = ctx.a
    if filters.successor_structure(a) is None:
        out.append(("no successor structure",))
        return
    for f in ctx.lattice:
        if (f != a.full_mask and ctx.kernel(f) == a.one_mask
                and filters.principal_generator(a, f) is None):
            out.append(_shown(ctx, f))


@finite("prop:successor", "⊕c and ⊖c step to immediate neighbours",
        when=_nontrivial_chains_only)
def _successor(ctx, out):
    res = filters.successor_structure(ctx.a)
    if res is None:
        out.append(("absent",))
        return
    _, succ, pred = res
    for x, s in succ.items():
        if pred.get(s) != x:
            out.append(("succ/pred mismatch", x, s))


@finite("equiv:discrete", "on a finite chain cut equivalence is equality",
        when=_chains_only)
def _equiv_discrete(ctx, out):
    one = ctx.a.one_mask
    for f, g in _pairs(ctx.primes):
        equivalent = ctx.sqto(f, g) == one and ctx.sqto(g, f) == one
        if equivalent != (f == g):
            out.append(_shown(ctx, f, g))


# ---------------------------------------------------------------------------
# spectra


def _spectral(ctx):
    """Every prime implication P with a nonempty spectrum."""
    return (p for p in ctx.prime_impl if ctx.spectrum(p).members)


def _hats(ctx):
    """(P, derived algebra) for every P of ``_spectral``."""
    return ((p, ctx.hat(p)) for p in _spectral(ctx))


@finite("thm:hat", "each spectrum packages into a linear MV-algebra")
def _hat(ctx, out):
    for p in _spectral(ctx):
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
        plus = {g: calculus.set_plus(a, g) for g in h.representatives}
        for (x, f), (y, g) in _pairs(enumerate(h.representatives)):
            t = calculus.tensor_up(a, f, g)
            ph = ctx.phi(f, g)
            enc = calculus.set_plus(a, ctx.sqto_full(f, plus[g]))
            if not (t == ph == enc):
                out.append(_shown(ctx, p, f, g))
            elif t != a.full_mask and (
                t != h.representatives[spectra.hat_otimes(h, x, y)]
            ):
                out.append(("class of T", *_shown(ctx, p, f, g)))


@finite("prop:axiomG", "double application is cut-equivalent to the original")
def _axiom_g(ctx, out):
    for p in ctx.prime_impl:
        for f, g in _nested_pairs(ctx.spectrum(p).members):
            fg = ctx.sqto(ctx.sqto(f, g), g)
            # cut equivalence on the spectrum: both ⊸ collapse to P
            if not ctx.sqto(f, fg) == p == ctx.sqto(fg, f):
                out.append(_shown(ctx, p, f, g))


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
            where = _shown(ctx, p, q_mask)
            stray = [
                ctx.show(rep)
                for i, rep in enumerate(h.representatives)
                if q.cosets.index(calculus.boundary_coset(a, rep, q)) != eta[i]
            ]
            if stray:
                out.append(("η̂ misses a member's boundary coset", *where, stray))
                continue
            if any(eta[ha.neg[i]] != qa.neg[eta[i]] for i in range(m)):
                out.append(("⁺", *where))
            pairs = _pairs(range(m))
            if any(eta[ha.imp[i][j]] != qa.imp[eta[i]][eta[j]] for i, j in pairs):
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
                out.append((*_shown(ctx, p, q_mask), wrong))


# ---------------------------------------------------------------------------
# dense-chain statements


# The grid: every proper cut with an endpoint in {k/N}.  Each dense claim's
# truth is constant on each face of an arrangement of planes in its
# endpoints, so one point per face decides it.  A claim over two cuts or
# points (hat-embed), or one point and one cut, compares endpoints p and q
# only on the lines p, q, p - q, p + q ∈ ℤ, since ⊸ ends at 1 - max(p, q) + q
# or at 1, and ⁺ at 1 - p.  Their vertices in [0,1]² lie in ½ℤ², edge
# midpoints in ¼ℤ² and triangle centroids in ⅙ℤ², so 12 | N meets every
# face.  A claim over three cuts (revIncl, axiomC, separation, trans)
# compares only on the planes xᵢ, xᵢ - xⱼ and xᵢ + xⱼ - xₖ ∈ ℤ, since ⊸
# nested twice ends at 1, 1 - x + y or 2 - x - y + z.  Their vertices in
# [0,1]³ lie in ½ℤ³, so each face holds a point of (1/24)ℤ³ (an edge
# midpoint, a triangle or tetrahedron centroid), and N = 12 meets the same
# 147 sign vectors as N = 24 (tests/test_verify.py checks both steps).  Every
# cut a claim builds ends on the grid too, where dense:closed-forms checks ⊸
# and ⁺ against their definitions.
_N = 12
_GRID_POINTS = [Fraction(k, _N) for k in range(_N + 1)]
# the open and the closed cut at each point, each only if it is proper
_GRID_CUTS = [c for p in _GRID_POINTS for c in (dc.open_cut(p), dc.closed_cut(p))
              if c.is_proper]
# a point of {k/4N} in units of 1/4N, and the points of {k/2N} in those units
_UNITS = 4 * _N
_HALF_STEPS = range(0, _UNITS + 1, 2)


def _least(c: dc.Cut) -> int | None:
    """The least point of c on {k/4N}, in units of 1/4N, or None when c's
    endpoint is off the grid {k/N}.  A point u of {k/4N} lies in c iff
    u >= _least(c)."""
    if _N % c.den:
        return None
    e = c.num * (_UNITS // c.den)
    return e if c.kind is dc.Kind.CLOSED else e + 1


@dense("dense:closed-forms", "closed forms match the definitions on every grid pair")
def _dense_closed_forms(_, out):
    """cut_sqto and cut_plus against z ∈ F⊸G iff ∀x∈F∩G: x⊗z ∈ G and
    F⁺ = {z | 1-z ∉ F}, on every grid cut and pair, exactly.

    Neither side is read from the closed forms' case split:
    - x⊗z = max(0, x + z - 1) is monotone in x, so the ∀ is decided at the
      least point x₀ of F∩G on {k/4N}: the endpoint of a closed cut, or the
      endpoint plus 1/4N of an open one, whichever of F and G is larger.
    - For z on {k/2N} that agrees with the real quantifier.  Whether x⊗z
      lies in G changes only where x + z - 1 meets 0 or G's endpoint, at
      points of {k/2N}, and no such point lies strictly between F∩G's
      endpoint and x₀.
    - The true F⊸G is {1} or ends at 1 - q + p, and F⁺ ends at 1 - q, all
      in (1/N)ℤ.  A closed form whose endpoint's denominator does not divide
      N is a witness at once.  Two cuts with endpoints in (1/N)ℤ are equal
      iff they agree at every z ∈ {k/2N}: z = e tells the kinds apart at a
      shared endpoint e, and e + 1/2N lies strictly between two endpoints
      e < e'.
    """
    least = {c: _least(c) for c in _GRID_CUTS}
    for f, g in _pairs(_GRID_CUTS):
        lg = least[g]
        x0 = max(least[f], lg)
        s = _least(dc.cut_sqto(f, g))
        if s is None or any((z >= s) != (max(0, x0 + z - _UNITS) >= lg)
                            for z in _HALF_STEPS):
            out.append((str(f), str(g)))
    for f in _GRID_CUTS:
        s = _least(dc.cut_plus(f))
        if s is None or any((z >= s) != (_UNITS - z < least[f])
                            for z in _HALF_STEPS):
            out.append(("plus", str(f)))


@dense("dense:negate", "⊸ against the least filter is ⁺")
def _dense_negate(_, out):
    for f in _GRID_CUTS:
        if dc.cut_sqto(f, dc.BOTTOM_FILTER) != dc.cut_plus(f):
            out.append((str(f),))


@dense("dense:equiv-thm", "collapse to {1} happens exactly on nested or split cuts")
def _dense_equiv(_, out):
    for f, g in _pairs(_GRID_CUTS):
        collapsed = dc.cut_sqto(f, g) == dc.TOP
        expected = g.issubset(f) or (
            f.kind is dc.Kind.OPEN
            and g.kind is dc.Kind.CLOSED
            and (f.num, f.den) == (g.num, g.den)
        )
        if collapsed != expected:
            out.append((str(f), str(g)))


@dense("dense:separation", "two strictly separated cuts give different ⊸ values")
def _dense_separation(_, out):
    """F1⊸G ≠ F2⊸G on every grid triple with F1 ⊆ F2 ⊆ G, G open and F1's
    endpoint strictly above F2's, which already makes F1 ⊆ F2."""
    for g in _GRID_CUTS:
        if g.kind is not dc.Kind.OPEN:
            continue
        below = [f for f in _GRID_CUTS if f.issubset(g)]
        values = [dc.cut_sqto(f, g) for f in below]
        for f2, s2 in zip(below, values):
            for f1, s1 in zip(below, values):
                if f1.num * f2.den > f2.num * f1.den and s1 == s2:
                    out.append((str(f1), str(f2), str(g)))


@dense("dense:trans", "cut equivalence is transitive")
def _dense_trans(_, out):
    """x ≈ y when x⊸y and y⊸x both collapse to {1}: transitivity on every
    grid triple, from one ⊸ per ordered grid pair."""
    cuts = _GRID_CUTS
    top = [[dc.cut_sqto(x, y) == dc.TOP for y in cuts] for x in cuts]
    idx = range(len(cuts))
    eq = [[top[i][j] and top[j][i] for j in idx] for i in idx]
    for i, j, k in product(idx, repeat=3):
        if eq[i][j] and eq[j][k] and not eq[i][k]:
            out.append((str(cuts[i]), str(cuts[j]), str(cuts[k])))


@dense("dense:congruence", "collapse on the left propagates through ⊸")
def _dense_congruence(_, out):
    # both cuts at p are proper only for p strictly inside [0,1]
    for p in _GRID_POINTS[1:-1]:
        f, g = dc.open_cut(p), dc.closed_cut(p)
        if dc.cut_sqto(f, g) != dc.TOP:
            out.append(("premise", str(f), str(g)))
            continue
        for h in _GRID_CUTS:
            lhs = dc.cut_sqto(dc.cut_sqto(g, h), dc.cut_sqto(f, h))
            if lhs != dc.TOP:
                out.append((str(f), str(g), str(h)))


@dense("dense:props", "the basic proposition suite holds for cuts")
def _dense_props(_, out):
    """The suite on every grid cut, pair and triple.  ⊸ is taken once per
    grid pair and ⁺ once per cut, as indices into the grid, and nested ⊸ are
    read from that table.  The true ⊸ and ⁺ never leave the grid; a value
    that does is a witness, and nothing nested in it is read."""
    cuts = _GRID_CUTS
    at = {c: i for i, c in enumerate(cuts)}
    sq = [[at.get(dc.cut_sqto(f, g)) for g in cuts] for f in cuts]
    plus = [at.get(dc.cut_plus(f)) for f in cuts]
    off = [(str(f), str(g)) for f, row in zip(cuts, sq)
           for g, s in zip(cuts, row) if s is None]
    off += [("plus", str(f)) for f, p in zip(cuts, plus) if p is None]
    if off:
        out.extend(("off-grid", *w) for w in off)
        return
    sub = [[f.issubset(g) for g in cuts] for f in cuts]
    # column j of the table: H⊸G for every H, with G the j-th cut
    cols = [list(col) for col in zip(*sq)]
    top = at[dc.TOP]
    for i, f in enumerate(cuts):
        row, sub_f = sq[i], sub[i]
        # OneOne: {1}⊸F = F
        if sq[top][i] != i:
            out.append(("OneOne", str(f)))
        for j, g in enumerate(cuts):
            s = row[j]
            if not sub[s][j]:
                out.append(("incl", str(f), str(g)))
            if sub[j][i] and s != top:
                out.append(("inclOne", str(f), str(g)))
            if sub_f[j]:
                # plus duality for nested pairs
                if s != sq[plus[j]][plus[i]]:
                    out.append(("plus", str(f), str(g)))
                # FFg + triple corollary; ffg is (F⊸G)⊸G, reused by axiomG
                ffg = sq[s][j]
                if not sub_f[ffg]:
                    out.append(("FFg", str(f), str(g)))
                if sq[ffg][j] != s:
                    out.append(("triple", str(f), str(g)))
                # revIncl: G⊸H ⊆ F⊸H for every H ⊇ G
                for k, (gh, fh) in enumerate(zip(sq[j], row)):
                    if sub[j][k] and not sub[gh][fh]:
                        out.append(("revIncl", str(f), str(g), str(cuts[k])))
                # axiomG: (F⊸G)⊸G is cut-equivalent to F when F ⊆ G
                if not (row[ffg] == top and sq[ffg][i] == top):
                    out.append(("axiomG", str(f), str(g)))
            # axiomC: F⊸(H⊸G) = H⊸(F⊸G) for every H
            for k, (hg, hs) in enumerate(zip(cols[j], cols[s])):
                if row[hg] != hs:
                    out.append(("axiomC", str(f), str(g), str(cuts[k])))


@dense("dense:kernel", "every proper cut filter has trivial kernel")
def _dense_kernel(_, out):
    for f in _GRID_CUTS:
        if dc.cut_sqto(f, f) != dc.TOP:
            out.append((str(f),))


@dense("dense:hat-embed", "finite subchains embed into the class algebra")
def _dense_hat_embed(_, out):
    """a ↦ the class of its canonical member (open only at 0) is injective
    and mirrors ⊸, ⁺ and ⊕ on every pair of grid points.  x → y and x ⊕ y
    saturate at x ≤ y and x + y = 1, so the grid decides every rational
    pair, and every subchain {k/d} ≅ Ł_{d+1} embeds."""
    members = [dc.canonical_member(x) for x in _GRID_POINTS]
    if len({dc.hat_class(m) for m in members}) != len(members):
        out.append(("injectivity",))
    for x, mx in zip(_GRID_POINTS, members):
        plus = dc.cut_plus(mx)
        if dc.hat_class(plus) != 1 - x:
            out.append(("plus", str(x)))
        for y, my in zip(_GRID_POINTS, members):
            if dc.hat_class(dc.cut_sqto(mx, my)) != dc.chain_imp(x, y):
                out.append(("morphism", str(x), str(y)))
            if dc.hat_class(dc.cut_sqto(plus, my)) != min(1, x + y):
                out.append(("oplus", str(x), str(y)))


# ---------------------------------------------------------------------------
# runners


def _run(statements, ctx, only, target) -> Report:
    if only is not None:
        if "" in only:
            raise InvalidArgument("a statement id is empty")
        unknown = [s for s in only if s not in statements]
        if unknown:
            raise InvalidArgument(f"unknown statement ids: {', '.join(unknown)}")
        statements = {s: v for s, v in statements.items() if s in only}
    report = Report(target=target)
    for stmt_id, (blurb, fn) in statements.items():
        out: list = []
        t0 = time.perf_counter()
        try:
            status = "skip" if fn(ctx, out) == "skip" else ("fail" if out else "pass")
        except Exception as e:  # a crash is this statement's verdict, not the run's
            status, out = "error", [f"{type(e).__name__}: {e}"]
        elapsed = time.perf_counter() - t0
        report.results.append(StatementResult(stmt_id, status, blurb, out, elapsed))
    return report


def run_finite(a: MvAlgebra, only=None) -> Report:
    return _run(FINITE_STATEMENTS, Ctx(a), only, a.name or "finite algebra")


def run_dense(only=None, *, seed=None) -> Report:
    """``seed`` is ignored; perfbench/run.py's dense pass still passes it."""
    return _run(DENSE_STATEMENTS, None, only, "dense rational chain")
