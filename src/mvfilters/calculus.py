"""The filter calculus: subordinates, kernels, ⊸, Φ, T, J-operators and
boundary cosets, on finite algebras.

Each function returns a value; the theorems about these values are checked
by the statements in ``verify``.  Conventions adopted throughout (documented
once here):

- the empty mask is the bottom sentinel; operations receiving it return it
  unchanged instead of raising, since J_d legitimately produces it;
- an intersection over an empty index family is the whole carrier, so
  F ⊸ L = L for the improper filter L.

Row form.  Φ(F,G) is the union of G's →-rows over f ∈ F and
``sqto_full(F,G)`` the intersection of G's ⊗-rows over f ∈ F; J_u(F,P) is
the union of the P-cosets that meet F.  Each of ``phi``, ``sqto_full``,
``sqto_fast``, ``j_up`` and ``j_down`` is one pure combinator over a table
that its caller passes in: the rows ``rows(a, table, G)``, a list indexed by
element, or the cosets of P.  The row combinators are the C folds
``core.fold_or`` and ``core.fold_and`` over F's members, and ``j_down``
also takes ⁺ as a function of one mask.  ``verify.Ctx`` passes its caches
(each table built once per run, cosets from its quotient L/P, ⁺ its ``plus``),
so a pair costs one C fold over F, or O(n) bit operations for J.  The cli
passes cold builders: ``rows``, the cosets of ``core.congruence_cosets`` and
``partial(set_plus, a)``, so a cold call builds the whole table it reads.

Subordinates.  ⊸, K, K_F(X) and F_x have one body each, and each reads
its subordinates through one method of the algebra it is handed:
``a.columns(M, X)`` lists M_x = {z | z→x ∉ M} for x ∈ X, ascending.
``kernel_rel`` is K_F(X), the AND of ``a.columns(F, X)``; ``kernel`` and
``sqto`` are it at X = L∖F and at K_{F∩G}(L∖G), behind the empty-mask
guard; ``subordinate`` is the one subordinate ``a.columns(F, {x})``.  On an
``MvAlgebra``, ``columns`` is one ``core.read_lines`` of |X| →-columns into
L∖M, so a one-off call, as the cli makes, reads only the columns it needs.
``verify.Ctx`` hands these functions a view of its algebra whose
``columns`` picks X out of the run's cached table of every →-column into
L∖M, so a run reads the columns once per distinct mask M, and a ⊸ or K
after that is one C fold.  ``set_plus`` is ``subordinate`` at 0; it stays
outside ``kernel_rel``, which refuses an X that meets F, because F⁺ takes
any mask, L with 0 ∈ L included.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .core import (
    MvAlgebra, QuotientAlgebra, fold_and, fold_or, iter_mask, read_lines,
)
from .errors import InvalidArgument, InvariantViolation

# ---------------------------------------------------------------------------
# row tables


def rows(a: MvAlgebra, table: str, mask: int) -> list[int]:
    """Every row of the table ``table`` of ``a`` into ``mask``: entry x is
    {y | T[x][y] ∈ mask}.

    ``table`` is "imp", "otimes" or "imp_col" (the columns of →), and its
    reversed byte table is read by ``core.read_lines`` at every row.
    """
    return list(read_lines(getattr(a, f"{table}_bytes"), a.full_mask, mask))


# ---------------------------------------------------------------------------
# subordinates and kernels


def subordinate(a: MvAlgebra, f_mask: int, elem: int) -> int:
    """{z | z→elem ∉ F}.  For prime F with elem ∉ F this is a prime filter."""
    return next(a.columns(f_mask, 1 << elem))


def set_plus(a: MvAlgebra, mask: int) -> int:
    """{z | ¬z ∉ mask}, the subordinate at 0 (z→0 = ¬z)."""
    return subordinate(a, mask, a.zero)


def kernel(a: MvAlgebra, f_mask: int) -> int:
    """K(F) = {z | z→x ∉ F for every x ∉ F}, the meet of the subordinates F_x.

    Only on a finite algebra is it also the largest implication filter in F.
    """
    if f_mask == 0:
        return 0
    return kernel_rel(a, f_mask, a.full_mask & ~f_mask)


def kernel_rel(a: MvAlgebra, f_mask: int, x_mask: int) -> int:
    """K_F(X), the intersection of the subordinates of F at every member of X.

    X must be a subset of the carrier disjoint from F.  The empty X yields
    the whole carrier (empty-intersection convention).  One ``reduce`` ANDs
    the subordinates ``a.columns(F, X)``.
    """
    if x_mask & f_mask:
        raise InvalidArgument("index set X must be disjoint from the filter")
    if x_mask >> a.size:
        raise InvalidArgument("index set X must be a subset of the carrier")
    return reduce(and_, a.columns(f_mask, x_mask), a.full_mask)


# ---------------------------------------------------------------------------
# the sqto operation


def sqto(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """F ⊸ G = K_{F∩G}(L∖G), the AND of the subordinates (F∩G)ₓ over x ∉ G."""
    if f_mask == 0 or g_mask == 0:
        return 0
    return kernel_rel(a, f_mask & g_mask, a.full_mask & ~g_mask)


def sqto_fast(otimes_rows, f_mask: int, g_mask: int, full_mask: int) -> int:
    """F ⊸ G as {z | f⊗z ∈ G for every f ∈ F∩G}; equals sqto on up-sets.

    ``otimes_rows`` are G's ⊗-rows, ``rows(a, "otimes", G)``.  By
    residuation, f⊗z ≤ x exactly when f ≤ z→x; so when F and G are up-sets,
    some f ∈ F∩G has f⊗z ∉ G exactly when some x ∉ G has z→x ∈ F∩G.

    It shares no table with sqto's relative-kernel form: ``verify.Ctx``
    reads ⊸ on each quotient L/P through it, and prop:fastform sets the
    same form, ``sqto_full(F∩G, G)``, against the run's ⊸.
    """
    if f_mask == 0 or g_mask == 0:
        return 0
    return sqto_full(otimes_rows, f_mask & g_mask, full_mask)


def sqto_full(otimes_rows, f_mask: int, full_mask: int) -> int:
    """{z | f⊗z ∈ G for every f ∈ F}, quantifying over all of F, from G's
    ⊗-rows: the AND of otimes_rows[f] over f ∈ F.

    Agrees with sqto when F ⊆ G and is empty whenever F ⊄ G (some f
    outside G forces f⊗z ≤ f outside G).  This is the form under which
    Φ(F,G) = (F ⊸ G⁺)⁺ holds for arbitrary filters.
    """
    return fold_and(otimes_rows, f_mask, full_mask)


# ---------------------------------------------------------------------------
# Φ and T


def phi(imp_rows, f_mask: int) -> int:
    """Φ(F,G), the union over f ∈ F of {y | f→y ∈ G}, from G's →-rows
    ``rows(a, "imp", G)``: the OR of imp_rows[f] over f ∈ F."""
    return fold_or(imp_rows, f_mask)


def tensor_up(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """T(F,G): the up-closure of the pairwise ⊗ products of F and G.

    Only the minimal members of F and G are multiplied: every member lies
    above a minimal one and ⊗ is monotone, so each f⊗g lies above some
    f'⊗g' with f' ∈ min F and g' ∈ min G, and
    ↑{f⊗g : f ∈ F, g ∈ G} = ↑{f⊗g : f ∈ min F, g ∈ min G} for any finite
    masks.  This is still the forward-product definition; it reads the ⊗
    table and the masks ↑x and ↓x, but no → and no mask lookup, so
    ``prop:T-phi`` sets it against Φ and the encoding.
    """
    up, otimes, min_g = a.up_mask, a.otimes, _minimal(a, g_mask)
    products = (otimes[f][g] for f in _minimal(a, f_mask) for g in min_g)
    return reduce(or_, map(up.__getitem__, products), 0)


def _minimal(a: MvAlgebra, mask: int) -> list[int]:
    """The members x of mask with no other member below: ↓x ∩ mask = {x}.

    From the lowest-indexed member above no minimal member found so far,
    walk down through members of mask until none lies strictly below: that
    is a new minimal member, and its ↑ leaves the search.  On a chain a mask
    has one minimal member, so this takes one walk, not a step per member.

    The walk never steps to a member it has visited, and each outer step
    removes the members it visited as well as ↑x, so it ends on any table,
    even where ≤ is not a partial order.  On an MV-algebra
    this changes nothing: the members visited all lie in ↑x.
    """
    down, up = a.down_mask, a.up_mask
    found, rest = [], mask
    while rest:
        x = (rest & -rest).bit_length() - 1
        seen = 1 << x
        below = down[x] & mask & ~seen
        while below:
            x = (below & -below).bit_length() - 1
            seen |= 1 << x
            below = down[x] & mask & ~seen
        found.append(x)
        rest &= ~(up[x] | seen)
    return found


# ---------------------------------------------------------------------------
# J-operators


def j_up(cosets, f_mask: int) -> int:
    """J_u(F,P), the union of the P-cosets meeting F (the preimage of F's
    image in L/P), from the P-cosets: the OR of the cosets that meet F."""
    m = 0
    for cm in cosets:
        if cm & f_mask:
            m |= cm
    return m


def j_down(plus, cosets, f_mask: int) -> int:
    """J_d(F,P) = (preimage of F⁺'s image)⁺, from the P-cosets and ⁺ (a
    function of one mask), by way of ``j_up``; may be the empty bottom
    sentinel."""
    if f_mask == 0:
        return 0
    return plus(j_up(cosets, plus(f_mask)))


# ---------------------------------------------------------------------------
# boundary cosets


def boundary_coset(a: MvAlgebra, f_mask: int, kf: int, q: QuotientAlgebra) -> int:
    """The unique P-coset meeting both F and its complement, for q = L/P.

    ``kf`` is K(F), which must lie properly inside P = ``q.filter_mask``:
    ``verify`` passes the run's cached K, directly and through
    ``spectra.hat_eta``.  The straddling coset is read off ``q.cosets``, so
    L is partitioned once per quotient, not once per call.  Existence and
    uniqueness are invariants, so their failure raises loudly.
    """
    if not (kf & ~q.filter_mask == 0 and kf != q.filter_mask):
        raise InvalidArgument("boundary coset needs K(F) properly inside P")
    straddling = [
        cm for cm in q.cosets if cm & f_mask and cm & ~f_mask & a.full_mask
    ]
    if len(straddling) != 1:
        raise InvariantViolation(
            f"expected exactly one straddling coset, found {len(straddling)}"
        )
    return straddling[0]


# ---------------------------------------------------------------------------
# convexity


def is_convex(a: MvAlgebra, mask: int) -> bool:
    """Order-convex: C = ↑C ∩ ↓C, so x ≤ z ≤ y with x, y in C forces z in.

    One walk over C's members ORs ↑x and ↓x together.  The convex lemmas ask
    only about two-point sets, where this costs about half of two
    ``core.fold_or`` calls, each of which builds its own selector.
    """
    up = down = 0
    for x in iter_mask(mask):
        up |= a.up_mask[x]
        down |= a.down_mask[x]
    return up & down == mask
