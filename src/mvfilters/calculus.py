"""The filter calculus: subordinates, kernels, ⊸, Φ, T, J-operators, quotient
interaction, boundary cosets and the cut equivalence, on finite algebras.

Conventions adopted throughout (documented once here):

- the empty mask is the bottom sentinel; operations receiving it return it
  unchanged instead of raising, since J_d legitimately produces it;
- an intersection over an empty index family is the whole carrier, so
  F ⊸ L = L for the improper filter L.
"""

from __future__ import annotations

from .core import MvAlgebra, QuotientAlgebra, congruence_cosets, iter_mask
from .errors import InvalidArgument, InvariantViolation
from .filters import implication_filter_generated, up_closure

# ---------------------------------------------------------------------------
# subordinates and kernels


def subordinate(a: MvAlgebra, f_mask: int, elem: int) -> int:
    """{z | z→elem ∉ F}.  For prime F with elem ∉ F this is a prime filter."""
    imp = a.imp
    m = 0
    for z in range(a.size):
        if not (f_mask >> imp[z][elem]) & 1:
            m |= 1 << z
    return m


def set_plus(a: MvAlgebra, mask: int) -> int:
    """{z | ¬z ∉ mask}, the subordinate at 0 (z→0 = ¬z)."""
    return subordinate(a, mask, a.zero)


def kernel(a: MvAlgebra, f_mask: int) -> int:
    """{z | for every a ∉ F, z→a ∉ F}: the largest implication filter inside F."""
    if f_mask == 0:
        return 0
    imp = a.imp
    outside = list(iter_mask(a.full_mask & ~f_mask))
    m = 0
    for z in range(a.size):
        if all(not (f_mask >> imp[z][x]) & 1 for x in outside):
            m |= 1 << z
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
    if f_mask == 0 or g_mask == 0:
        return 0
    fp = f_mask & g_mask
    return kernel_rel(a, fp, a.full_mask & ~g_mask)


def sqto_fast(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """F ⊸ G as {z | f⊗z ∈ G for every f ∈ F∩G}; equals sqto on all inputs.

    It shares no code with sqto's relative-kernel form, so prop:fastform
    compares two independent definitions.
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
    otimes = a.otimes
    fs = list(iter_mask(f_mask))
    m = 0
    for z in range(a.size):
        if all((g_mask >> otimes[f][z]) & 1 for f in fs):
            m |= 1 << z
    return m


def equiv(a: MvAlgebra, f_mask: int, g_mask: int) -> bool:
    """F ≡ G: both sqto values collapse to {1}."""
    return (
        sqto(a, f_mask, g_mask) == a.one_mask
        and sqto(a, g_mask, f_mask) == a.one_mask
    )


# ---------------------------------------------------------------------------
# Φ and T


def phi(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """Union over f ∈ F of {y | f→y ∈ G}."""
    imp = a.imp
    m = 0
    for f in iter_mask(f_mask):
        for y in range(a.size):
            if (g_mask >> imp[f][y]) & 1:
                m |= 1 << y
    return m


def tensor_up(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """Up-closure of the pairwise ⊗ products of F and G."""
    otimes = a.otimes
    m = 0
    for f in iter_mask(f_mask):
        for g in iter_mask(g_mask):
            m |= 1 << otimes[f][g]
    return up_closure(a, m)


# ---------------------------------------------------------------------------
# J-operators


def j_up(a: MvAlgebra, f_mask: int, p_mask: int) -> int:
    """Union of the P-cosets meeting F: the preimage of F's image in L/P."""
    if f_mask == 0:
        return 0
    _, _, cosets = congruence_cosets(a, p_mask)
    m = 0
    for cm in cosets:
        if cm & f_mask:
            m |= cm
    return m


def j_down(a: MvAlgebra, f_mask: int, p_mask: int) -> int:
    """(preimage of F⁺'s image)⁺; may be the empty bottom sentinel."""
    if f_mask == 0:
        return 0
    return set_plus(a, j_up(a, set_plus(a, f_mask), p_mask))


def kernel_join(a: MvAlgebra, k_mask: int, p_mask: int) -> int:
    """Join in the lattice of implication filters: generated by the union."""
    return implication_filter_generated(a, k_mask | p_mask)


def reduce_to_common_kernel(a: MvAlgebra, f_mask: int, g_mask: int):
    """Replace F ⊆ G by J_u(F, K(G)) and J_d(G, K(F)) without changing F⊸G.

    Returns (f2, g2); the caller gets filters with a common kernel.  The
    intermediate single-sided identities and the final equality are asserted.
    """
    if f_mask & ~g_mask:
        raise InvalidArgument("reduction requires F ⊆ G")
    kf = kernel(a, f_mask)
    kg = kernel(a, g_mask)
    f2 = j_up(a, f_mask, kg)
    g2 = j_down(a, g_mask, kf)
    base = sqto(a, f_mask, g_mask)
    if sqto(a, f2, g_mask) != base:
        raise InvariantViolation("J_u reduction changed the sqto value")
    if sqto(a, f_mask, g2) != base:
        raise InvariantViolation("J_d reduction changed the sqto value")
    if sqto(a, f2, g2) != base:
        raise InvariantViolation("two-sided reduction changed the sqto value")
    return f2, g2


# ---------------------------------------------------------------------------
# quotient interaction


def sqto_quotient_commutes(
    a: MvAlgebra, f_mask: int, g_mask: int, q: QuotientAlgebra
) -> dict:
    """Evaluate both quotient-commutation identities, with witnesses.

    (F⊸G)/Q = (F/Q)⊸(G/Q) needs Q ⊆ K(G); the preimage identity
    η⁻¹[F/Q ⊸ G/Q] = F⊸G additionally needs Q ⊆ K(F) = K(G).
    """
    kg = kernel(a, g_mask)
    kf = kernel(a, f_mask)
    if q.filter_mask & ~kg:
        raise InvalidArgument("commutation requires Q ⊆ K(G)")
    s = sqto(a, f_mask, g_mask)
    qa = q.quotient
    fq, gq = q.image_mask(f_mask), q.image_mask(g_mask)
    quotient_side = sqto(qa, fq, gq)
    report = {
        "quotient_commutes": q.image_mask(s) == quotient_side,
        "witness": None,
        "preimage_identity": None,
    }
    if not report["quotient_commutes"]:
        report["witness"] = (q.image_mask(s), quotient_side)
    if kf == kg and not (q.filter_mask & ~kf):
        report["preimage_identity"] = q.preimage_mask(quotient_side) == s
    return report


def kernel_of_sqto(a: MvAlgebra, f_mask: int, g_mask: int) -> int:
    """K(F⊸G) under the common-kernel hypothesis; asserted equal to K(F)."""
    if f_mask & ~g_mask:
        raise InvalidArgument("kernel theorem requires F ⊆ G")
    kf = kernel(a, f_mask)
    if kf != kernel(a, g_mask):
        raise InvalidArgument("kernel theorem requires K(F) = K(G)")
    k = kernel(a, sqto(a, f_mask, g_mask))
    if k != kf:
        raise InvariantViolation(
            f"K(F⊸G) = {a.label_set(k)} differs from K(F) = {a.label_set(kf)}"
        )
    return k


def boundary_coset(a: MvAlgebra, f_mask: int, p_mask: int) -> int:
    """The unique P-coset meeting both F and its complement.

    Requires K(F) properly contained in P; existence and uniqueness are
    invariants, so their failure raises loudly.
    """
    kf = kernel(a, f_mask)
    if not (kf & ~p_mask == 0 and kf != p_mask):
        raise InvalidArgument("boundary coset needs K(F) properly inside P")
    _, _, cosets = congruence_cosets(a, p_mask)
    straddling = [
        cm for cm in cosets if cm & f_mask and cm & ~f_mask & a.full_mask
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
