"""Lattice filters and implication filters of a finite MV-algebra.

All filters are plain bitmasks over a fixed algebra; the empty mask is the
bottom sentinel (it is not a filter, but several calculus operations are
allowed to produce it).

Filters are enumerated by what finite MV-algebra theory says exists, not by
search.  Every finite MV-algebra is a finite product of Łukasiewicz chains
(Cignoli, D'Ottaviano and Mundici, *Algebraic Foundations of Many-valued
Reasoning*, 2000).  Hence every lattice filter is the principal filter ↑x of
some x, and every implication filter is ↑b for an idempotent b (b⊕b = b).
↑x is prime exactly when L∖↑x is some ↓y (Davey and Priestley, 2002).
The enumeration is exact for MV-algebras only: on a ``table`` spec that
breaks the axioms it lists principal up-sets, which need not be the filters
of that table.  ``enumerate_up_sets`` walks every up-set and serves as a
search oracle for the theory lists in the tests; it is exponential in the
width of the order (2⁶ has 7.8 M up-sets).
"""

from __future__ import annotations

from .core import MvAlgebra, is_linear, iter_mask, member_lookup
from .errors import InvalidArgument, ResourceLimit

CARRIER_CAP = 64


def up_closure(a: MvAlgebra, mask: int) -> int:
    """Smallest up-closed superset of ``mask``."""
    m = 0
    for x in iter_mask(mask):
        m |= a.up_mask[x]
    return m


def down_closure_joins(a: MvAlgebra, mask: int) -> int:
    """Everything below some finite join of members of ``mask``.

    Closes under binary joins to a fixpoint, then takes down-sets; the empty
    set stays empty (there are no joins to take).
    """
    cur = mask
    while True:
        nxt = cur
        for x in iter_mask(cur):
            for y in iter_mask(cur):
                nxt |= 1 << a.join[x][y]
        if nxt == cur:
            break
        cur = nxt
    m = 0
    for x in iter_mask(cur):
        m |= a.down_mask[x]
    return m


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
            if not (mask >> a.meet[x][y]) & 1:
                return False
    return True


def is_implication_filter(a: MvAlgebra, mask: int) -> bool:
    """Contains 1 and is closed under modus ponens: for each f ∈ M, row f of
    → read into M lies inside M."""
    if not (mask >> a.one) & 1:
        return False
    look = member_lookup(mask, a.size)
    return all(
        int(a.imp_bytes[f].translate(look), 2) & ~mask == 0 for f in iter_mask(mask)
    )


def is_prime_implication_filter(a: MvAlgebra, mask: int) -> bool:
    """Proper implication filter whose quotient is linearly ordered.

    Characterised by x→y ∈ P or y→x ∈ P for all x, y: for each x, row x of
    → read into P together with column x of → read into P is all of L.
    ``core.congruence_cosets`` intersects the same two reads.  Equivalence
    with linearity of the quotient is cross-checked in the test suite.
    """
    if mask == a.full_mask or not is_implication_filter(a, mask):
        return False
    look = member_lookup(mask, a.size)
    return all(
        int(row.translate(look), 2) | int(col.translate(look), 2) == a.full_mask
        for row, col in zip(a.imp_bytes, a.imp_col_bytes)
    )


def check_cap(size: int):
    """Refuse a carrier of more than CARRIER_CAP elements (ResourceLimit)."""
    if size > CARRIER_CAP:
        raise ResourceLimit(
            f"carrier size {size} exceeds enumeration cap {CARRIER_CAP}"
        )


def enumerate_up_sets(a: MvAlgebra) -> list[int]:
    """All up-closed subsets (including empty and full), ascending by mask.

    Output-sensitive DFS: elements are visited from top to bottom; an element
    may be included only when everything above it is already in.  No
    verification path calls it; the tests use it as a search oracle for the
    theory enumeration below.
    """
    check_cap(a.size)
    order = sorted(range(a.size), key=lambda x: bin(a.up_mask[x]).count("1"))
    results: list[int] = []

    def rec(i: int, cur: int):
        if i == len(order):
            results.append(cur)
            return
        x = order[i]
        rec(i + 1, cur)
        if a.up_mask[x] & ~(cur | (1 << x)) == 0:
            rec(i + 1, cur | (1 << x))

    rec(0, 0)
    return sorted(results)


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
    """Every implication filter, ascending by mask: ↑b for idempotent b."""
    check_cap(a.size)
    out = sorted({a.up_mask[b] for b in range(a.size) if a.oplus[b][b] == b})
    if prime_only:
        out = [m for m in out if is_prime_implication_filter(a, m)]
    return out


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
    for x, s in succ.items():
        if x == s or not a.leq(x, s):
            return None
        if a.up_mask[x] & a.down_mask[s] & ~(1 << x | 1 << s):
            return None
    for x, p in pred.items():
        if x == p or not a.leq(p, x):
            return None
    return c, succ, pred


def principal_generator(a: MvAlgebra, mask: int) -> int | None:
    """The x with ↑x = mask when mask is a lattice filter, else None.

    In a finite algebra every lattice filter is principal.
    """
    if not is_lattice_filter(a, mask):
        return None
    for g in iter_mask(mask):
        if a.up_mask[g] == mask:
            return g
    return None


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
        look = member_lookup(cur, a.size)
        nxt = cur
        for x in iter_mask(cur):
            nxt |= int(a.imp_bytes[x].translate(look), 2)
        if nxt == cur:
            return cur
        cur = nxt
