"""The filter calculus: subordinates, kernels, ⊸, Φ, T, J-operators and
boundary cosets, on finite algebras.

Each function returns a value; the theorems about these values are checked
by the statements in ``verify``.  Conventions adopted throughout (documented
once here):

- the empty mask is the bottom sentinel; operations receiving it return it
  unchanged instead of raising, since J_d legitimately produces it;
- an intersection over an empty index family is the whole carrier, so
  F ⊸ L = L for the improper filter L.

Table reads.  Most operations here read the → or ⊗ table into a mask: row
x of T into M is {y | T[x][y] ∈ M}, and column x of → into M is
{z | z→x ∈ M}.  ``MvAlgebra`` keeps each row and column as reversed
``bytes``, so one read is one ``bytes.translate`` through
``core.member_lookup(M, n)`` and one ``int(…, 2)``, both in C; the lookup
is built once per call and shared by all the reads of that call.  The
subordinate F_x is column x of → into L∖F, and K(F) is the AND of those
columns over x ∉ F.

Row form.  Φ(F,G) is the union of G's →-rows over f ∈ F and
``sqto_full(F,G)`` the intersection of G's ⊗-rows over f ∈ F; J_u(F,P) is
the union of the P-cosets that meet F.  Each of these is a pure builder
(``rows``, ``core.congruence_cosets``) followed by a pure combinator
(``phi_rows``, ``sqto_full_rows``, ``j_up_cosets``, ``j_down_cosets``).  A
cold call builds only what it reads: |F| rows, or one partition of n row
and n column reads.  ``verify.Ctx`` builds each table once per run, so a
pair then costs O(|F|) or O(n) bit operations.  K_F(X) ANDs |X|
subordinates, one column read each.

Subordinate form.  F ⊸ G is the AND of the subordinates (F∩G)ₓ over x ∉ G.
The combinator ``sqto_from`` takes them from a function: a cold ``sqto``
builds each one, |L∖G| column reads, and ``verify.Ctx`` reads them from its
subordinate memo, so each (F∩G, x) is built once per run.
"""

from __future__ import annotations

from itertools import compress

from .core import (
    MvAlgebra, QuotientAlgebra, congruence_cosets, iter_mask, mask_of,
    member_lookup,
)
from .errors import InvalidArgument, InvariantViolation
from .filters import up_closure

# ---------------------------------------------------------------------------
# row tables


def rows(byte_rows, mask: int, among: int) -> dict[int, int]:
    """Row x of a table into ``mask``, {y | T[x][y] ∈ mask}, for x ∈ among.

    ``byte_rows`` is one of ``MvAlgebra``'s reversed byte tables.
    """
    look = member_lookup(mask, len(byte_rows))
    return {x: int(byte_rows[x].translate(look), 2) for x in iter_mask(among)}


# ---------------------------------------------------------------------------
# subordinates and kernels


def subordinate(a: MvAlgebra, f_mask: int, elem: int) -> int:
    """{z | z→elem ∉ F}.  For prime F with elem ∉ F this is a prime filter.

    Column ``elem`` of → read into L∖F.
    """
    look = member_lookup(a.full_mask & ~f_mask, a.size)
    return int(a.imp_col_bytes[elem].translate(look), 2)


def set_plus(a: MvAlgebra, mask: int) -> int:
    """{z | ¬z ∉ mask}, the subordinate at 0 (z→0 = ¬z)."""
    return subordinate(a, mask, a.zero)


def kernel(a: MvAlgebra, f_mask: int) -> int:
    """K(F) = {z | z→x ∉ F for every x ∉ F}, the meet of the subordinates F_x.

    Only on a finite algebra is it also the largest implication filter in F.
    Each F_x is column x of → read into L∖F, through one lookup.
    """
    if f_mask == 0:
        return 0
    outside = a.full_mask & ~f_mask
    look = member_lookup(outside, a.size)
    cols = a.imp_col_bytes
    m = a.full_mask
    for x in iter_mask(outside):
        m &= int(cols[x].translate(look), 2)
    return m


def kernel_rel(a: MvAlgebra, f_mask: int, x_mask: int) -> int:
    """Intersection of the subordinates of F at every member of X.

    X must be disjoint from F.  The empty X yields the whole carrier
    (empty-intersection convention).
    """
    if x_mask & f_mask:
        raise InvalidArgument("index set X must be disjoint from the filter")
    m = a.full_mask
    for x in iter_mask(x_mask):
        m &= subordinate(a, f_mask, x)
    return m


# ---------------------------------------------------------------------------
# the sqto operation


def sqto(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """F ⊸ G, by the definitional form on F∩G with the nested-pair extension."""
    fp = f_mask & g_mask
    return sqto_from(a, f_mask, g_mask, lambda x: subordinate(a, fp, x))


def sqto_from(a: MvAlgebra, f_mask: int, g_mask: int, sub) -> int:
    """F ⊸ G from sub(x) = (F∩G)ₓ: the AND of sub(x) over x ∉ G."""
    if f_mask == 0 or g_mask == 0:
        return 0
    m = a.full_mask
    for x in iter_mask(a.full_mask & ~g_mask):
        m &= sub(x)
    return m


def sqto_fast(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """F ⊸ G as {z | f⊗z ∈ G for every f ∈ F∩G}; equals sqto on up-sets.

    By residuation, f⊗z ≤ x exactly when f ≤ z→x; so when F and G are
    up-sets, some f ∈ F∩G has f⊗z ∉ G exactly when some x ∉ G has z→x ∈ F∩G.

    It shares no code with sqto's relative-kernel form.  No statement calls
    it: prop:fastform reads the same form, ``sqto_full(F∩G, G)``, from
    ``verify.Ctx``'s ⊗-rows.  It stays as a cold entry point that the
    benchmark's tracer (``perfbench/spans.py``) wraps.
    """
    if f_mask == 0 or g_mask == 0:
        return 0
    return sqto_full(a, f_mask & g_mask, g_mask)


def sqto_full(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """{z | f⊗z ∈ G for every f ∈ F}, quantifying over all of F.

    Agrees with sqto when F ⊆ G and is empty whenever F ⊄ G (some f
    outside G forces f⊗z ≤ f outside G).  This is the form under which
    Φ(F,G) = (F ⊸ G⁺)⁺ holds for arbitrary filters.
    """
    return sqto_full_rows(rows(a.otimes_bytes, g_mask, f_mask), f_mask, a.full_mask)


def sqto_full_rows(otimes_rows, f_mask: int, full_mask: int) -> int:
    """``sqto_full`` from G's ⊗-rows: the AND of otimes_rows[f] over f ∈ F."""
    m = full_mask
    for f in iter_mask(f_mask):
        m &= otimes_rows[f]
    return m


# ---------------------------------------------------------------------------
# Φ and T


def phi(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """Union over f ∈ F of {y | f→y ∈ G}."""
    return phi_rows(rows(a.imp_bytes, g_mask, f_mask), f_mask)


def phi_rows(imp_rows, f_mask: int) -> int:
    """Φ(F,G) from G's →-rows: the OR of imp_rows[f] over f ∈ F."""
    m = 0
    for f in iter_mask(f_mask):
        m |= imp_rows[f]
    return m


# G's selector for compress: the characters "0"/"1" as the bytes 0/1
_BIT = bytes.maketrans(b"01", b"\0\1")


def tensor_up(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """Up-closure of the pairwise ⊗ products of F and G.

    G's 0/1 selector picks row f of ⊗ at G's members, so
    ``itertools.compress`` yields the products f⊗g for g ∈ G in C, one row
    per f ∈ F.  This is the forward-product definition; it reads no → and
    no mask lookup, so ``prop:T-phi`` sets it against Φ and the encoding.
    """
    sel = format(g_mask, f"0{a.size}b")[::-1].encode().translate(_BIT)
    products = set()
    for f in iter_mask(f_mask):
        products.update(compress(a.otimes[f], sel))
    return up_closure(a, mask_of(products))


# ---------------------------------------------------------------------------
# J-operators


def j_up(a: MvAlgebra, f_mask: int, p_mask: int) -> int:
    """Union of the P-cosets meeting F: the preimage of F's image in L/P."""
    return j_up_cosets(congruence_cosets(a, p_mask)[2], f_mask)


def j_up_cosets(cosets, f_mask: int) -> int:
    """J_u(F,P) from the P-cosets: the OR of the cosets that meet F."""
    m = 0
    for cm in cosets:
        if cm & f_mask:
            m |= cm
    return m


def j_down(a: MvAlgebra, f_mask: int, p_mask: int) -> int:
    """(preimage of F⁺'s image)⁺; may be the empty bottom sentinel."""
    return j_down_cosets(a, congruence_cosets(a, p_mask)[2], f_mask)


def j_down_cosets(a: MvAlgebra, cosets, f_mask: int) -> int:
    """J_d(F,P) from the P-cosets, by way of ``j_up_cosets``."""
    if f_mask == 0:
        return 0
    return set_plus(a, j_up_cosets(cosets, set_plus(a, f_mask)))


# ---------------------------------------------------------------------------
# boundary cosets


def boundary_coset(a: MvAlgebra, f_mask: int, q: QuotientAlgebra) -> int:
    """The unique P-coset meeting both F and its complement, for q = L/P.

    Requires K(F) properly contained in P = ``q.filter_mask``, and reads the
    straddling coset off ``q.cosets``, so L is partitioned once per quotient,
    not once per call.  Existence and uniqueness are invariants, so their
    failure raises loudly.
    """
    kf = kernel(a, f_mask)
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
    """Order-convex: C = ↑C ∩ ↓C, so x ≤ z ≤ y with x, y in C forces z in."""
    up = down = 0
    for x in iter_mask(mask):
        up |= a.up_mask[x]
        down |= a.down_mask[x]
    return up & down == mask
