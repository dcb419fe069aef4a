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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import compress, product
from types import SimpleNamespace

from . import calculus, densechain as dc, filters, spectra
from .core import (
    MvAlgebra,
    bits,
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


class Ctx:
    """Filter lists of one finite algebra, and the caches of one verification run.

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

    ``sqto``, ``kernel``, ``subordinate``, ``plus``, ``rows``, ``quotient``,
    ``quotient_rows``, ``quotient_sqto``, ``spectrum`` and ``hat`` are
    ``functools.cache`` objects built here: each computes its value once per
    argument tuple, by the one definition in its module, looked up at the
    call.  They close over the algebra, the lists and each other, never over
    the ``Ctx``, so a run's values go when its last reference does; the
    algebra itself is never written to.  ⊸, K, F_x, Φ, ``sqto_full``, J_u,
    J_d, the quotient ⊸, the spectra and the derived algebras have no body
    here: each is the one ``calculus`` or ``spectra`` function, handed these
    caches where the cli hands it the algebra or cold builders.
    ``calculus.sqto``, ``kernel`` and ``subordinate`` are handed a view of
    the algebra whose ``columns(M, X)`` picks the subordinates M_x, x ∈ X,
    out of the kept "imp_col" rows into L∖M, so a run reads every →-column
    into L∖M once per distinct mask M.  It sees few distinct masks F∩G, so
    most ⊸ and K cost one C fold.  The view closes over ``rows``, not over
    the ``Ctx``.  ``plus`` hands ``calculus.set_plus`` the algebra itself:
    ⁺ reads one column per distinct mask, where the view would keep a whole
    table for it.  ``calculus.phi`` and ``sqto_full`` are one C fold
    (``core.fold_or``, ``core.fold_and``) of the kept rows over F's members,
    ``quotient_sqto`` is ``calculus.sqto_fast`` on the kept ⊗-rows of L/P,
    and ``calculus.j_up`` and ``j_down`` read the cosets of the kept L/P (P
    in ``impl``), O(n) bit operations per pair.  ``spectra.prime_spectrum``
    reads ``kernel``, and ``spectra.build_hat`` reads ``sqto`` and ``plus``;
    ``spectra.iota`` and ``spectra.hat_eta`` are handed ``subordinate`` and
    ``kernel``, so ι and η̂ read them too.  Every ⁺ of a run, in the
    statements, in J_d and in the derived algebras, is read from ``plus``,
    so ``set_plus`` runs once per distinct mask.  A cross-check's second
    side shares no table with its first: ``fact:b``, ``fact:c`` and
    ``prop:fastform`` set the →-columns against ⊗-rows, ``fact:a``,
    ``fact:b`` and ``fact:e`` the kept column tables against
    ``calculus.kernel_rel`` on the algebra itself, which reads its columns
    afresh, and ``prop:T-phi`` computes T cold, from minimal members.
    """

    def __init__(self, a: MvAlgebra):
        self.a = a
        self.lattice = filters.enumerate_lattice_filters(a)
        self.primes = filters.enumerate_lattice_filters(a, prime_only=True)
        self.impl = filters.enumerate_implication_filters(a)
        self.prime_impl = filters.enumerate_implication_filters(a, prime_only=True)
        self.linear = is_linear(a)

        # every row of the table ``table`` ("imp", "otimes" or "imp_col")
        # into mask; the "imp_col" rows into L∖M are the subordinates M_x
        self.rows = rows = cache(lambda table, mask: calculus.rows(a, table, mask))
        full = a.full_mask
        # a with its subordinates picked out of the kept →-column tables
        view = SimpleNamespace(
            size=a.size, full_mask=full,
            columns=lambda m, x: compress(rows("imp_col", full & ~m), bits(x)),
        )
        self.sqto = sqto = cache(lambda f, g: calculus.sqto(view, f, g))
        self.kernel = kernel = cache(lambda f: calculus.kernel(view, f))
        self.subordinate = cache(lambda f, x: calculus.subordinate(view, f, x))
        self.plus = plus = cache(lambda m: calculus.set_plus(a, m))
        self.quotient = quotient = cache(lambda p: quotient_by(a, p))
        # every ⊗-row of L/P into G/P
        self.quotient_rows = quotient_rows = cache(
            lambda p, gq: calculus.rows(quotient(p).quotient, "otimes", gq)
        )
        # F/P ⊸ G/P in L/P, for the images of filters (nonempty up-sets)
        self.quotient_sqto = cache(lambda p, fq, gq: calculus.sqto_fast(
            quotient_rows(p, gq), fq, gq, quotient(p).quotient.full_mask))
        # PSpec(P), for P in ``prime_impl``, and the derived algebra on it
        self.spectrum = spectrum = cache(
            lambda p: spectra.prime_spectrum(a, p, kernel)
        )
        self.hat = cache(lambda p: spectra.build_hat(spectrum(p), sqto, plus))

    def show(self, mask: int) -> str:
        return self.a.label_set(mask)

    def phi(self, f_mask: int, g_mask: int) -> int:
        return calculus.phi(self.rows("imp", g_mask), f_mask)

    def sqto_full(self, f_mask: int, g_mask: int) -> int:
        return calculus.sqto_full(self.rows("otimes", g_mask), f_mask, self.a.full_mask)

    def j_up(self, f_mask: int, p_mask: int) -> int:
        return calculus.j_up(self.quotient(p_mask).cosets, f_mask)

    def j_down(self, f_mask: int, p_mask: int) -> int:
        return calculus.j_down(self.plus, self.quotient(p_mask).cosets, f_mask)


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
            # empty on any order, and iter_mask costs more than the test
            if rest := up[y] & ~ux:
                for z in iter_mask(rest):
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
    """Two partitions of L∖F, by K(F)-coset and by equal F_x, are equal
    exactly when each x has the same least class member under both.  Read
    in ascending order, the first member of a class met is its least, so one
    pass decides F, and the pairs are scanned for witnesses only on failure."""
    for f in ctx.primes:
        coset_of = ctx.quotient(ctx.kernel(f)).coset_of
        least_coset: dict[int, int] = {}
        least_sub: dict[int, int] = {}
        if all(least_coset.setdefault(coset_of[x], x)
               == least_sub.setdefault(ctx.subordinate(f, x), x)
               for x in _outside(ctx, f)):
            continue
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
    I = ``down_closure_joins`` (↓∨X, read off the join table) must avoid F
    and have K_F(I) = V.
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
    for f in ctx.primes:
        if ctx.plus(ctx.plus(f)) != f:
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
    """Decided on the cover pairs G1 ⋖ G2 above each F: every G1 ⊆ G2 is a
    chain of covers, along which ⊆ is transitive.  The triples are scanned
    for witnesses only when a cover fails."""
    covers = filters.covers(ctx.primes)
    if all(not ctx.sqto(f, g1) & ~ctx.sqto(f, g2)
           for f in ctx.primes for g1, g2 in covers if f & ~g1 == 0):
        return
    for f, g1, g2 in _prime_chains(ctx):
        if ctx.sqto(f, g1) & ~ctx.sqto(f, g2):
            out.append(_shown(ctx, f, g1, g2))


@finite("prop:revIncl", "⊸ is antitone in its left argument")
def _rev_incl(ctx, out):
    """Decided on the cover pairs F1 ⋖ F2 below each G, as ``prop:monotone``
    is; the triples are scanned for witnesses only when a cover fails."""
    covers = filters.covers(ctx.primes)
    if all(not ctx.sqto(f2, g) & ~ctx.sqto(f1, g)
           for g in ctx.primes for f1, f2 in covers if f2 & ~g == 0):
        return
    for f1, f2, g in _prime_chains(ctx):
        if ctx.sqto(f2, g) & ~ctx.sqto(f1, g):
            out.append(_shown(ctx, f1, f2, g))


@finite("prop:plus", "⊸ is self-dual under ⁺")
def _prop_plus(ctx, out):
    for f, g in _nested_pairs(ctx.primes):
        lhs = ctx.sqto(f, g)
        rhs = ctx.sqto(ctx.plus(g), ctx.plus(f))
        if lhs != rhs:
            out.append(_shown(ctx, f, g))


@finite("prop:OneOne", "the kernel is a left unit for ⊸")
def _one_one(ctx, out):
    for f in ctx.primes:
        if ctx.sqto(ctx.kernel(f), f) != f:
            out.append(_shown(ctx, f))


@finite("prop:adjunction", "the two containments into ⊸ swap symmetrically")
def _adjunction(ctx, out):
    """F ⊆ H⊸G iff H ⊆ F⊸G, for primes F, H ⊆ G; each H⊸G is taken once
    per G."""
    for g in ctx.primes:
        below = [(h, ctx.sqto(h, g)) for h in ctx.primes if h & ~g == 0]
        for (f, fg), (h, hg) in _pairs(below):
            if (f & ~hg == 0) != (h & ~fg == 0):
                out.append(_shown(ctx, f, h, g))


@finite("prop:axiomC", "left arguments of nested ⊸ exchange")
def _axiom_c(ctx, out):
    """F⊸(H⊸G) = H⊸(F⊸G) for primes F, H ⊆ G.  The ⊸ matrix over
    ``ctx.primes`` is read by position; a nested value X = H⊸G that is not
    prime has no position and is taken from ``ctx.sqto``."""
    primes = ctx.primes
    at = {f: i for i, f in enumerate(primes)}
    sq = [[ctx.sqto(f, g) for g in primes] for f in primes]
    for k, g in enumerate(primes):
        # (i, F_i⊸G, its position) for each F_i ⊆ G
        below = [
            (i, sq[i][k], at.get(sq[i][k]))
            for i, f in enumerate(primes) if f & ~g == 0
        ]
        for (i, x, xi), (j, y, yj) in _pairs(below):
            lhs = ctx.sqto(primes[i], y) if yj is None else sq[i][yj]
            rhs = ctx.sqto(primes[j], x) if xi is None else sq[j][xi]
            if lhs != rhs:
                out.append(_shown(ctx, primes[i], primes[j], g))


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
    plus = ctx.plus
    for f, g in _pairs(ctx.lattice):
        if ctx.phi(f, g) != plus(ctx.sqto_full(f, plus(g))):
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
    preimage of F/P ⊸ G/P is F⊸G.  Each image in L/P is taken once per run,
    and the P ⊆ K are listed once per distinct kernel K, in ``ctx.impl``
    order."""
    seen = {p: {} for p in ctx.impl}  # P -> {mask: its image in L/P}
    inside = {k: [p for p in ctx.impl if p & ~k == 0]
              for k in set(map(ctx.kernel, ctx.lattice))}
    for f, g in _nested_pairs(ctx.lattice):
        kf, kg, s = ctx.kernel(f), ctx.kernel(g), ctx.sqto(f, g)
        for p in inside[kg]:
            q, images = ctx.quotient(p), seen[p]
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
        kf, fplus = ctx.kernel(f), ctx.plus(f)
        for p in _extensions(ctx, kf):
            q = ctx.quotient(p)
            try:
                c = calculus.boundary_coset(a, f, kf, q)
            except InvariantViolation as e:
                out.append((*_shown(ctx, f, p), str(e)))
                continue
            cplus = calculus.boundary_coset(a, fplus, ctx.kernel(fplus), q)
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
    """A successor structure exists, and every proper filter with kernel {1}
    has a generator.  ``Ctx`` lists the lattice filters as the principal
    filters ↑x, and ``principal_generator`` returns ∧F when ↑∧F = F, so on a
    finite chain only ``successor_structure`` or ``principal_generator`` can
    fail it."""
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
    a, plus = ctx.a, ctx.plus
    for p, h in _hats(ctx):
        for (x, f), (y, g) in _pairs(enumerate(h.representatives)):
            t = calculus.tensor_up(a, f, g)
            ph = ctx.phi(f, g)
            enc = plus(ctx.sqto_full(f, plus(g)))
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
    for p, h in _hats(ctx):
        q = ctx.quotient(p)
        qa = q.quotient
        subs = [ctx.subordinate(p, rep) for rep in q.representatives]
        for c in range(qa.size):
            if ctx.plus(subs[c]) != q.preimage_mask(qa.up_mask[qa.neg[c]]):
                out.append(("plus closure identity", ctx.show(p), c))
            for d in range(qa.size):
                if subs[c] and subs[d] and (
                    ctx.sqto(subs[c], subs[d])
                    != q.preimage_mask(qa.up_mask[qa.imp[c][d]])
                ):
                    out.append(("sqto closure identity", ctx.show(p), c, d))
        if len(set(spectra.iota(h, q, ctx.subordinate))) != h.as_mv.size:
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
            eta = spectra.hat_eta(h, q, ctx.kernel)
            where = _shown(ctx, p, q_mask)
            stray = [
                ctx.show(rep)
                for i, rep in enumerate(h.representatives)
                if q.cosets.index(
                    calculus.boundary_coset(a, rep, ctx.kernel(rep), q)
                ) != eta[i]
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
        io = spectra.iota(h, qp, ctx.subordinate)
        for q_mask in _extensions(ctx, p):
            q = ctx.quotient(q_mask)
            eta = spectra.hat_eta(h, q, ctx.kernel)
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


def _first_half_step(t: int) -> int:
    """The least z of _HALF_STEPS with z >= t, or _UNITS + 2 when none is."""
    return min(max(t + (t & 1), 0), _UNITS + 2)


def _sqto_from(x0: int, lg: int) -> int:
    """The least z of _HALF_STEPS with max(0, x0 + z - 4N) >= lg, in the
    units of _least, or _UNITS + 2 when none is.  For lg <= 0 every z has
    it; otherwise z needs x0 + z - 4N >= lg."""
    return _first_half_step(lg + _UNITS - x0 if lg > 0 else 0)


def _half_step_mask(c: dc.Cut) -> int | None:
    """The half-steps {k/2N} in c as the bits k, or None off the grid {k/N}.
    Two endpoints in (1/N)ℤ have a half-step between them, so on such cuts ⊆
    is mask containment and ∩ is AND."""
    s = _least(c)
    return None if s is None else (2 << 2 * _N) - (1 << _first_half_step(s) // 2)


def _plus_from(lf: int) -> int:
    """The least z of _HALF_STEPS with 4N - z < lf, that is z >= 4N + 1 - lf,
    or _UNITS + 2 when none is."""
    return _first_half_step(_UNITS + 1 - lf)


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

    Each side is decided for all z at once.  In units of 1/4N the half-steps
    are {0, 2, …, 4N}, and for a fixed pair both sides of the per-z test
    are up-sets of them: the closed form's side is z >= s, for s its least
    point, and the definition's side max(0, x₀ + z - 4N) >= l_G is monotone
    in z, as is the ⁺ side 4N - z < l_F.  Two up-sets of a finite chain are
    equal iff they have the same least member (or are both empty), so the
    per-z test passes at every z exactly when ``_first_half_step(s)`` equals
    ``_sqto_from(x₀, l_G)``, or ``_plus_from(l_F)`` for ⁺.
    """
    least = {c: _least(c) for c in _GRID_CUTS}
    for f, g in _pairs(_GRID_CUTS):
        lg = least[g]
        s = _least(dc.cut_sqto(f, g))
        if s is None or _first_half_step(s) != _sqto_from(max(least[f], lg), lg):
            out.append((str(f), str(g)))
    for f in _GRID_CUTS:
        s = _least(dc.cut_plus(f))
        if s is None or _first_half_step(s) != _plus_from(least[f]):
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
    endpoint strictly above F2's, which already makes F1 ⊆ F2.  A witness
    needs two equal values, so the pairs below G are scanned only when two
    of its values are equal."""
    for g in _GRID_CUTS:
        if g.kind is not dc.Kind.OPEN:
            continue
        below = [f for f in _GRID_CUTS if f.issubset(g)]
        values = [dc.cut_sqto(f, g) for f in below]
        if len(set(values)) == len(values):
            continue
        for f2, s2 in zip(below, values):
            for f1, s1 in zip(below, values):
                if f1.num * f2.den > f2.num * f1.den and s1 == s2:
                    out.append((str(f1), str(f2), str(g)))


@dense("dense:trans", "cut equivalence is transitive")
def _dense_trans(_, out):
    """x ≈ y when x⊸y and y⊸x both collapse to {1}: transitivity on every
    grid triple, from one ⊸ per ordered grid pair.  Row i of ≈ is a bit
    mask; for i ≈ j the k with j ≈ k and not i ≈ k are the bits of
    row[j] & ~row[i], so k is scanned only where that is nonzero."""
    cuts = _GRID_CUTS
    top = [[dc.cut_sqto(x, y) == dc.TOP for y in cuts] for x in cuts]
    idx = range(len(cuts))
    row = [sum(1 << j for j in idx if top[i][j] and top[j][i]) for i in idx]
    for i, ri in enumerate(row):
        for j in iter_mask(ri):
            for k in iter_mask(row[j] & ~ri):
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
    """The finite bodies of the nine ⊸ claims, on the grid cuts as their
    ``_half_step_mask``.  ⊸ is taken once per grid pair and ⁺ once per cut;
    nested ⊸ are read from that table.  Every kernel is {1}, the one prime
    implication filter, whose spectrum is the grid.  A ⊸ or ⁺ that is not a
    grid cut is a witness, and no body runs.  Witnesses carry a claim tag."""
    mask = {c: _half_step_mask(c) for c in _GRID_CUTS}
    show = {m: str(c) for c, m in mask.items()}
    rows = {mf: {mg: mask.get(dc.cut_sqto(f, g)) for g, mg in mask.items()}
            for f, mf in mask.items()}
    plus = {m: mask.get(dc.cut_plus(f)) for f, m in mask.items()}
    off = [(show[f], show[g]) for f, row in rows.items()
           for g, s in row.items() if s is None]
    off += [("plus", show[f]) for f, p in plus.items() if p is None]
    if off:
        out.extend(("off-grid", *w) for w in off)
        return
    top = mask[dc.TOP]
    spectrum = SimpleNamespace(members=list(rows))
    grid = SimpleNamespace(
        primes=spectrum.members, prime_impl=[top], kernel=lambda f: top,
        spectrum=lambda p: spectrum, sqto=lambda f, g: rows[f][g],
        plus=plus.__getitem__, show=show.__getitem__,
    )
    for tag, body in [
        ("OneOne", _one_one), ("incl", _incl), ("inclOne", _incl_one),
        ("plus", _prop_plus), ("FFg", _ffg), ("triple", _triple),
        ("revIncl", _rev_incl), ("axiomG", _axiom_g), ("axiomC", _axiom_c),
    ]:
        found: list = []
        body(grid, found)
        out.extend((tag, *w) for w in found)


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
