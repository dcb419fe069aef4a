"""Each operation of the filter calculus by its definition, once.

Every oracle is the paper's definition written with explicit quantifiers
over the tuple tables of an ``MvAlgebra`` (``oplus``, ``neg``, ``imp`` and
``otimes``, with ``zero`` and ``one``), read entry by entry, with masks
walked by the shift loop ``members``.  No oracle reads a byte table,
``up_mask``, ``down_mask``, a C fold, a method of ``MvAlgebra`` or a helper of
``mvfilters.core``, ``filters`` or ``calculus``, so a fault in those cannot
cancel out on both sides of a comparison.  The definitions follow Cignoli,
D'Ottaviano and Mundici, *Algebraic Foundations of Many-valued Reasoning*
(2000).  They are written to be read, not to be fast.

The statement-scan references of ``tests/scans.py`` are not oracles: they
read ⊸, K and J through ``verify.Ctx``, because they test a statement's
quantifier shortcut under mutants of those operations.
"""

from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd
from operator import and_, or_

from mvfilters.errors import InvalidArgument


def members(mask):
    """The element indices set in mask, ascending, by a shift loop."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(elements):
    return reduce(or_, (1 << x for x in elements), 0)


# order


def leq(a, x, y):
    """x ≤ y: x→y = 1."""
    return a.imp[x][y] == a.one


def join(a, x, y):
    """x∨y = (x→y)→y."""
    return a.imp[a.imp[x][y]][y]


def meet(a, x, y):
    """x∧y = ¬(¬x∨¬y)."""
    return a.neg[join(a, a.neg[x], a.neg[y])]


def up_closure(a, mask):
    """The y above some member x of mask (x→y = 1): the smallest up-set
    holding it."""
    rows = [a.imp[x] for x in members(mask)]
    return _mask(y for y in range(a.size) if any(r[y] == a.one for r in rows))


def order_failures(a):
    """Every pair or triple at which ≤ is not reflexive, antisymmetric or
    transitive."""
    out = []
    n = a.size
    for x in range(n):
        if not leq(a, x, x):
            out.append(("reflexivity", x))
        for y in range(n):
            if leq(a, x, y) and leq(a, y, x) and x != y:
                out.append(("antisymmetry", x, y))
            for z in range(n):
                if leq(a, x, y) and leq(a, y, z) and not leq(a, x, z):
                    out.append(("transitivity", x, y, z))
    return out


def is_linear(a):
    """Any two elements are comparable."""
    return all(leq(a, x, y) or leq(a, y, x) for x in range(a.size) for y in range(a.size))


def successor_structure(a):
    """(c, succ, pred) with c the least nonzero element, succ x = x⊕c and
    pred x = x⊗¬c, or None unless every x⊕c covers x and x covers every
    x⊗¬c; InvalidArgument unless a is a nontrivial chain."""
    if not is_linear(a):
        raise InvalidArgument("successor structure needs a linearly ordered algebra")
    above_zero = [x for x in range(a.size) if x != a.zero]
    if not above_zero:
        raise InvalidArgument("trivial algebra has no successor structure")
    c = above_zero[0]
    for x in above_zero:
        if leq(a, x, c):
            c = x
    succ = {x: a.oplus[x][c] for x in range(a.size) if x != a.one}
    pred = {x: a.otimes[x][a.neg[c]] for x in range(a.size) if x != a.zero}
    for x, s in succ.items():
        if x == s or not leq(a, x, s):
            return None
        if any(z not in (x, s) and leq(a, x, z) and leq(a, z, s) for z in range(a.size)):
            return None
    for x, p in pred.items():
        if x == p or not leq(a, p, x):
            return None
        if any(z not in (p, x) and leq(a, p, z) and leq(a, z, x) for z in range(a.size)):
            return None
    return c, succ, pred


# line reads and folds


def rows(table, mask):
    """For each line of table, the positions whose entry lies in mask."""
    return [_mask(y for y, v in enumerate(line) if (mask >> v) & 1) for line in table]


def read_lines(table, picks, mask):
    """Line x of table read into mask, for each member x of picks."""
    return rows([table[x] for x in members(picks)], mask)


def fold(lines, mask, start, op):
    """start combined by op with line x, for each member x of mask in turn."""
    return reduce(op, (lines[x] for x in members(mask)), start)


# tables


def derived_tables(a):
    """Every derived field of ``MvAlgebra``, from ⊕ and ¬ alone: 1 = ¬0,
    x→y = ¬x⊕y, x⊗y = ¬(¬x⊕¬y), ↑x and ↓x as the y with x→y = 1 or
    y→x = 1, and the byte tables as reversed lines."""
    n, oplus, neg = a.size, a.oplus, a.neg
    one = neg[a.zero]
    imp = [[oplus[neg[x]][y] for y in range(n)] for x in range(n)]
    otimes = [[neg[oplus[neg[x]][neg[y]]] for y in range(n)] for x in range(n)]

    def reversed_lines(table):
        return tuple(bytes(reversed(r)) for r in table)

    return {
        "one": one,
        "otimes": tuple(map(tuple, otimes)),
        "imp": tuple(map(tuple, imp)),
        "up_mask": tuple(_mask(y for y in range(n) if imp[x][y] == one) for x in range(n)),
        "down_mask": tuple(_mask(y for y in range(n) if imp[y][x] == one) for x in range(n)),
        "full_mask": (1 << n) - 1,
        "one_mask": 1 << one,
        "imp_bytes": reversed_lines(imp),
        "otimes_bytes": reversed_lines(otimes),
        "imp_col_bytes": reversed_lines(zip(*imp)),
    }


def mv_axiom_failures(a, max_failures=10):
    """The first max_failures MV axioms that fail, in the order x, y, z,
    associativity asked of every triple."""
    n, oplus, neg, zero = a.size, a.oplus, a.neg, a.zero
    one = neg[zero]

    def failures():
        for x in range(n):
            if oplus[x][zero] != x:
                yield "identity: x+0=x", (x,)
            if neg[neg[x]] != x:
                yield "involution: ~~x=x", (x,)
            if oplus[one][x] != one:
                yield "absorption: 1+x=1", (x,)
            for y in range(n):
                if oplus[x][y] != oplus[y][x]:
                    yield "commutativity", (x, y)
                lhs = oplus[neg[oplus[neg[x]][y]]][y]
                rhs = oplus[neg[oplus[neg[y]][x]]][x]
                if lhs != rhs:
                    yield "mv-axiom: ~(~x+y)+y = ~(~y+x)+x", (x, y)
                for z in range(n):
                    if oplus[oplus[x][y]][z] != oplus[x][oplus[y][z]]:
                        yield "associativity", (x, y, z)

    return list(islice(failures(), max_failures))


# filter operations


def subordinate(a, f, x):
    """F_x = {z | z→x ∉ F}."""
    return _mask(z for z in range(a.size) if not (f >> a.imp[z][x]) & 1)


def set_plus(a, f):
    """F⁺ = F_0."""
    return subordinate(a, f, a.zero)


def kernel(a, f):
    """K(F) = {z | z→x ∉ F for every x ∉ F}, and K(∅) = ∅."""
    outside = [x for x in range(a.size) if not (f >> x) & 1]
    return f and _mask(z for z in range(a.size)
                       if all(not (f >> a.imp[z][x]) & 1 for x in outside))


def kernel_rel(a, f, xs):
    """K_F(X) = {z | z→x ∉ F for every x ∈ X}, and all of L when X = ∅."""
    return _mask(z for z in range(a.size)
                 if all(not (f >> a.imp[z][x]) & 1 for x in members(xs)))


def sqto(a, f, g):
    """F⊸G = ∩ (F∩G)_x over x ∉ G (all of L when G = L), and ∅ when F or G
    is empty."""
    outside = (subordinate(a, f & g, x) for x in range(a.size) if not (g >> x) & 1)
    return f and g and reduce(and_, outside, (1 << a.size) - 1)


def sqto_full(a, f, g):
    """{z | f⊗z ∈ G for every f ∈ F}."""
    return _mask(z for z in range(a.size)
                 if all((g >> a.otimes[x][z]) & 1 for x in members(f)))


def phi(a, f, g):
    """Φ(F, G) = {y | f→y ∈ G for some f ∈ F}."""
    return _mask(y for y in range(a.size)
                 if any((g >> a.imp[x][y]) & 1 for x in members(f)))


def tensor_up(a, f, g):
    """T(F, G): the up-closure of {x⊗y | x ∈ F, y ∈ G}."""
    return up_closure(a, _mask(a.otimes[x][y] for x in members(f) for y in members(g)))


def j_up(a, f, p):
    """J_u(F): the union of the cosets of P that meet F."""
    return reduce(or_, (c for c in cosets(a, p)[2] if c & f), 0)


def j_down(a, f, p):
    """J_d(F) = J_u(F⁺)⁺, and ∅ when F is."""
    return f and set_plus(a, j_up(a, set_plus(a, f), p))


# quotients


def _congruent(a, p, x, y):
    """x ≡ y mod P: x→y ∈ P and y→x ∈ P."""
    return (p >> a.imp[x][y]) & 1 and (p >> a.imp[y][x]) & 1


def cosets(a, p):
    """(coset_of, representatives, coset masks) of ≡ mod P, the cosets
    numbered by their least element; coset_of[x] is -1 for an x that is not
    congruent to itself."""
    coset_of = [-1] * a.size
    reps, masks = [], []
    for x in range(a.size):
        if coset_of[x] >= 0:
            continue
        m = _mask(y for y in range(a.size) if _congruent(a, p, x, y))
        for y in members(m):
            coset_of[y] = len(reps)
        reps.append(x)
        masks.append(m)
    return tuple(coset_of), tuple(reps), tuple(masks)


def quotient_tables(a, p):
    """The ⊕ table, ¬ table and 0 of L/P, read from a's at the coset
    representatives."""
    coset_of, reps, _ = cosets(a, p)
    return (
        tuple(tuple(coset_of[a.oplus[r][s]] for s in reps) for r in reps),
        tuple(coset_of[a.neg[r]] for r in reps),
        coset_of[a.zero],
    )


def image(a, p, mask):
    """The cosets of P that meet mask, as a mask of coset indices."""
    coset_of = cosets(a, p)[0]
    return _mask(coset_of[x] for x in members(mask))


# filters


def implication_filter_generated(a, mask):
    """The least set holding mask and 1 that is closed under ⊗ and up-closed."""
    cur = up_closure(a, mask | 1 << a.one)
    while True:
        nxt = up_closure(a, cur | _mask(
            a.otimes[x][y] for x in members(cur) for y in members(cur)
        ))
        if nxt == cur:
            return cur
        cur = nxt


def ideal_generated(a, xs):
    """The union of ↓(∨S) over every nonempty S ⊆ xs, each ∨S taken pairwise."""
    xs = list(xs)
    subsets = ([x for i, x in enumerate(xs) if (bits >> i) & 1]
               for bits in range(1, 1 << len(xs)))
    tops = {reduce(lambda u, v: join(a, u, v), s) for s in subsets}
    return _mask(z for z in range(a.size) if any(leq(a, z, top) for top in tops))


def covers(masks):
    """Every (F, G) with F ⊊ G and no mask of the list strictly between."""
    def below(f, g):
        return f & ~g == 0 and f != g

    return [
        (f, g) for f in masks for g in masks
        if below(f, g) and not any(below(f, h) and below(h, g) for h in masks)
    ]


def is_convex(a, mask):
    """No x ≤ z ≤ y with x, y members and z outside."""
    return not any(
        leq(a, x, z) and leq(a, z, y) and not (mask >> z) & 1
        for x in members(mask)
        for y in members(mask)
        for z in range(a.size)
    )


def is_lattice_filter(a, mask):
    """Nonempty, up-closed and closed under ∧."""
    xs = list(members(mask))
    return bool(xs) and up_closure(a, mask) & ~mask == 0 and all(
        (mask >> meet(a, x, y)) & 1 for x in xs for y in xs)


def is_prime_lattice_filter(a, mask):
    """A proper lattice filter in which no x∨y with x, y ∉ F lands."""
    outside = [x for x in range(a.size) if not (mask >> x) & 1]
    return (
        bool(outside) and is_lattice_filter(a, mask)
        and not any((mask >> join(a, x, y)) & 1 for x in outside for y in outside)
    )


def is_implication_filter(a, mask):
    """Holds 1 and is closed under modus ponens: x ∈ F and x→y ∈ F give y ∈ F."""
    return bool((mask >> a.one) & 1) and all(
        (mask >> y) & 1
        for x in members(mask) for y in range(a.size) if (mask >> a.imp[x][y]) & 1
    )


def is_prime_implication_filter(a, mask):
    """A proper implication filter with x→y ∈ P or y→x ∈ P for all x, y."""
    rng = range(a.size)
    return (
        mask != (1 << a.size) - 1 and is_implication_filter(a, mask)
        and all((mask >> a.imp[x][y]) & 1 or (mask >> a.imp[y][x]) & 1
                for x in rng for y in rng)
    )


# the dense chain
#
# A cut is modelled as (endpoint, "open" | "closed"), and every operation is
# written from its definition on the chain with Fraction arithmetic:
# ]p,1] ⊆ ]q,1] iff p > q, or p = q unless the left cut is closed and the
# right one open; the meet is the cut with the larger endpoint, open on a
# tie if either is; ⁺ is (1 - p, the other kind); and F ⊸ G is {1} when
# G ⊆ F, else it ends at min(1, 1 - q + p), for q the endpoint of F∩G and p
# that of G, closed when G is, open when G is open and F∩G closed, and
# closed when both are open.


def model(c):
    """The cut as (endpoint, kind), after checking that it is in lowest terms."""
    assert c.den > 0 and gcd(c.num, c.den) == 1, (c.num, c.den)
    return (Fraction(c.num, c.den), c.kind.value)


def ref_subset(f, g):
    (p, k), (q, l) = f, g
    return p > q or (p == q and not (k == "closed" and l == "open"))


def ref_meet(f, g):
    (p, k), (q, l) = f, g
    if p != q:
        return f if p > q else g
    return (p, "open" if "open" in (k, l) else "closed")


def ref_plus(f):
    p, k = f
    return (1 - p, "closed" if k == "open" else "open")


def ref_sqto(f, g):
    if ref_subset(g, f):
        return (Fraction(1), "closed")
    (q, meet_kind), (p, g_kind) = ref_meet(f, g), g
    r = min(Fraction(1), 1 - q + p)
    if g_kind == "closed":
        return (r, "closed")
    return (r, "open" if meet_kind == "closed" else "closed")
