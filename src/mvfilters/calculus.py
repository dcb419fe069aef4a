"""The filter calculus: subordinates, kernels, ⊸, Φ, T, J-operators and
boundary cosets, on finite algebras.

Each function returns a value; the theorems about these values are checked
by the statements in ``verify``.  Conventions adopted throughout (documented
once here):

- the empty mask is the bottom sentinel; operations receiving it return it
  unchanged instead of raising, since J_d legitimately produces it;
- an intersection over an empty index family is the whole carrier, so
  F ⊸ L = L for the improper filter L.

Row form.  For a table T (→ or ⊗) and a mask M, row x of T into M is
{y | T[x][y] ∈ M} (``rows``).  Φ(F,G) is the union of G's →-rows over
f ∈ F and ``sqto_full(F,G)`` the intersection of G's ⊗-rows over f ∈ F;
J_u(F,P) is the union of the P-cosets that meet F.  Each of these is a pure
builder (``rows``, ``core.congruence_cosets``) followed by a pure combinator
(``phi_rows``, ``sqto_full_rows``, ``j_up_cosets``, ``j_down_cosets``).  A
cold call builds only what it reads: |F| rows, or one partition.
``verify.Ctx`` builds each table once per run, so a pair then costs O(|F|)
or O(n) bit operations.  ⊸ and K_F(X) keep the subordinate loop, which reads
|X|·n table entries; a cold call in the row form would read all n².
"""

from __future__ import annotations

from .core import MvAlgebra, congruence_cosets, iter_mask
from .errors import InvalidArgument, InvariantViolation
from .filters import up_closure

# ---------------------------------------------------------------------------
# row tables


def rows(table, mask: int, among: int) -> dict[int, int]:
    """Row x of ``table`` into ``mask``, {y | table[x][y] ∈ mask}, for x ∈ among."""
    out = {}
    for x in iter_mask(among):
        m = 0
        for y, v in enumerate(table[x]):
            if (mask >> v) & 1:
                m |= 1 << y
        out[x] = m
    return out


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
    return sqto_full_rows(rows(a.otimes, g_mask, f_mask), f_mask, a.full_mask)


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
    return phi_rows(rows(a.imp, g_mask, f_mask), f_mask)


def phi_rows(imp_rows, f_mask: int) -> int:
    """Φ(F,G) from G's →-rows: the OR of imp_rows[f] over f ∈ F."""
    m = 0
    for f in iter_mask(f_mask):
        m |= imp_rows[f]
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
