"""Lattice filters and implication filters of a finite MV-algebra.

All filters are plain bitmasks over a fixed algebra; the empty mask is the
bottom sentinel (it is not a filter, but several calculus operations are
allowed to produce it).

Filters are enumerated by what finite MV-algebra theory says exists, not by
search.  Every finite MV-algebra is a finite product of Łukasiewicz chains
(Cignoli, D'Ottaviano and Mundici, *Algebraic Foundations of Many-valued
Reasoning*, 2000).  Hence every lattice filter is the principal filter ↑x of
some x, and every implication filter is ↑b for an idempotent b (b⊕b = b).
↑x is prime exactly when L∖↑x is some ↓y, and ↑b exactly when it is maximal
among the proper implication filters.  In a finite lattice the ideal
generated by X is ↓∨X and a lattice filter F is ↑∧F (Davey and Priestley,
*Introduction to Lattices and Order*, 2002): ``down_closure_joins`` and
``principal_generator`` fold X with ``MvAlgebra.join`` and ``meet``.
The enumeration is exact for MV-algebras only: on a ``table`` spec that
breaks the axioms it lists principal up-sets, which need not be the filters
of that table.  ``enumerate_up_sets``, exact on any table, walks every
up-set and is the filter cross-checks' oracle; it is exponential in the
width of the order (2⁶ has 7.8 M up-sets).
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .core import MvAlgebra, is_linear, iter_mask, mask_of, read_lines
from .errors import InvalidArgument, ResourceLimit

CARRIER_CAP = 64


def down_closure_joins(a: MvAlgebra, mask: int) -> int:
    """The ideal generated by ``mask``: ↓∨X, and empty for the empty mask.

    Everything below some finite join of members of X lies below ∨X, which
    is one such join.
    """
    if not mask:
        return 0
    return a.down_mask[reduce(a.join, iter_mask(mask))]


def is_up_closed(a: MvAlgebra, mask: int) -> bool:
    return all(a.up_mask[x] & ~mask == 0 for x in iter_mask(mask))


def is_lattice_filter(a: MvAlgebra, mask: int) -> bool:
    """Nonempty, up-closed and closed under meets."""
    if mask == 0:
        return False
    if not is_up_closed(a, mask):
        return False
    for x in iter_mask(mask):
        for y in iter_mask(mask):
            if not (mask >> a.meet(x, y)) & 1:
                return False
    return True


def is_implication_filter(a: MvAlgebra, mask: int) -> bool:
    """Contains 1 and is closed under modus ponens: for each f ∈ M, row f of
    → read into M lies inside M."""
    if not (mask >> a.one) & 1:
        return False
    return all(r & ~mask == 0 for r in read_lines(a.imp_bytes, mask, mask))


def check_cap(size: int):
    """Refuse a carrier of more than CARRIER_CAP elements (ResourceLimit)."""
    if size > CARRIER_CAP:
        raise ResourceLimit(
            f"carrier size {size} exceeds enumeration cap {CARRIER_CAP}"
        )


def enumerate_up_sets(a: MvAlgebra) -> list[int]:
    """All up-closed subsets (including empty and full), ascending by mask.

    Output-sensitive DFS in ascending |↑x|: x may join when the rest of ↑x
    is already in or still to be visited, and the sets not up-closed are
    dropped at the end, so the walk is exact on any table.  On a partial
    order ↑x∖{x} is visited before x, so every leaf is an up-set.
    """
    check_cap(a.size)
    order = sorted(range(a.size), key=lambda x: a.up_mask[x].bit_count())
    # todo[i]: order[i] and every element still to be visited after it
    todo = [mask_of(order[i:]) for i in range(a.size)]
    results: list[int] = []

    def rec(i: int, cur: int):
        if i == len(order):
            results.append(cur)
            return
        x = order[i]
        rec(i + 1, cur)
        if a.up_mask[x] & ~(cur | todo[i]) == 0:
            rec(i + 1, cur | (1 << x))

    rec(0, 0)
    return sorted(m for m in results if is_up_closed(a, m))


def enumerate_lattice_filters(a: MvAlgebra, prime_only: bool = False) -> list[int]:
    """Every lattice filter (the improper one included), ascending by mask.

    These are the principal filters ↑x, each listed once.  In a finite
    lattice ↑x is prime exactly when L∖↑x is a principal ideal ↓y.
    """
    check_cap(a.size)
    out = sorted(set(a.up_mask))
    if prime_only:
        ideals = set(a.down_mask)
        out = [m for m in out if (a.full_mask & ~m) in ideals]
    return out


def enumerate_implication_filters(a: MvAlgebra, prime_only: bool = False) -> list[int]:
    """Every implication filter, ascending by mask: ↑b for idempotent b.

    The prime ones are the maximal proper ones, ↑b for an atom b of the
    idempotents (↑b ⊆ ↑c iff c ≤ b): L/↑b is the product of the factors
    where b is 1, so it is a chain exactly when b is an atom.
    """
    check_cap(a.size)
    idem = [b for b in range(a.size) if a.oplus[b][b] == b]
    if prime_only:
        idem_mask = mask_of(idem)
        idem = [b for b in idem
                if b != a.zero and a.down_mask[b] & idem_mask == 1 << b | 1 << a.zero]
    return sorted({a.up_mask[b] for b in idem})


def successor_structure(a: MvAlgebra):
    """(c, succ, pred) for a linearly ordered algebra whose 0 has a successor.

    succ maps every x < 1 to x⊕c and pred every x > 0 to x⊖c; immediacy of
    both is verified before returning.  Finite chains always qualify.
    """
    if not is_linear(a):
        raise InvalidArgument("successor structure needs a linearly ordered algebra")
    above_zero = [x for x in range(a.size) if x != a.zero]
    if not above_zero:
        raise InvalidArgument("trivial algebra has no successor structure")
    # successor of 0 = the least nonzero element
    c = above_zero[0]
    for x in above_zero:
        if a.leq(x, c):
            c = x
    succ = {}
    pred = {}
    for x in range(a.size):
        if x != a.one:
            succ[x] = a.oplus[x][c]
        if x != a.zero:
            pred[x] = a.otimes[x][a.neg[c]]
    # each step x < x⊕c and x⊖c < x must be a cover: nothing strictly between
    for lo, hi in (*succ.items(), *((p, x) for x, p in pred.items())):
        if lo == hi or not a.leq(lo, hi):
            return None
        if a.up_mask[lo] & a.down_mask[hi] & ~(1 << lo | 1 << hi):
            return None
    return c, succ, pred


def principal_generator(a: MvAlgebra, mask: int) -> int | None:
    """The x with ↑x = mask when mask is a lattice filter, else None.

    A finite lattice filter F holds g = ∧F, and an up-set that holds g and
    lies above it is ↑g, so F = ↑∧F.  Conversely every ↑g is a lattice
    filter, so the answer is ∧mask exactly when ↑∧mask = mask.  The empty
    mask has ∧ = 1 and ↑1 = {1}, so it gets None.
    """
    g = reduce(a.meet, iter_mask(mask), a.one)
    return g if a.up_mask[g] == mask else None


def implication_filter_generated(a: MvAlgebra, mask: int) -> int:
    """The implication filter generated by ``mask``: its modus-ponens closure.

    Start from mask ∪ {1} and add, for each member x, row x of → read into
    the current set M, {z | x→z ∈ M}, until nothing changes.  The fixpoint
    contains 1 and is closed under modus ponens, which is what
    ``is_implication_filter`` checks.  The first step already adds ↑M, since
    x→z = 1 ∈ M for every z ≥ x.  On an MV-algebra this is the closure under
    ⊗ and up-closure: for an up-set M, z lies in ↑{x⊗y | x, y ∈ M} exactly
    when some x ∈ M has x→z ∈ M, by residuation.
    """
    cur = mask | a.one_mask
    while True:
        nxt = reduce(or_, read_lines(a.imp_bytes, cur, cur), cur)
        if nxt == cur:
            return cur
        cur = nxt


def covers(masks) -> list[tuple[int, int]]:
    """Every cover pair F ⋖ G of a list of distinct masks ordered by ⊆:
    F ⊊ G with no mask of the list strictly between.  Pairs come grouped by
    F, in list order.

    For each F the masks above it are taken by size; one is a cover exactly
    when it contains no cover found before it, since any mask strictly
    between F and G contains a minimal one, which is a cover of F.  In a
    finite poset the covers determine the order (Davey and Priestley, 2002).
    """
    out = []
    for f in masks:
        above = sorted((g for g in masks if f & ~g == 0 and f != g),
                       key=int.bit_count)
        found: list[int] = []
        for g in above:
            if all(c & ~g for c in found):
                found.append(g)
        out += ((f, g) for g in found)
    return out
