"""Finite MV-algebras: construction, derived operations, axiom checking, quotients.

Elements are dense integer indices 0..size-1; human-readable labels are
metadata only.  Subsets of the carrier are integer bitmasks (bit i set means
element i is a member), which keeps filter enumeration and intersection cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .errors import InvalidArgument


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def iter_mask(mask: int):
    """Yield the element indices set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class MvAlgebra:
    """A finite MV-algebra given by its ⊕ table, negation table and zero.

    Derived tables (⊗, →, ∨, ∧, ≤) are computed eagerly at construction;
    the instance is immutable afterwards and safe to share between workers.
    """

    size: int
    oplus: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    zero: int
    name: str = ""
    labels: tuple[str, ...] = ()

    # derived, filled in __post_init__
    one: int = field(init=False, repr=False)
    otimes: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    imp: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    join: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    meet: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    up_mask: tuple[int, ...] = field(init=False, repr=False)
    down_mask: tuple[int, ...] = field(init=False, repr=False)
    full_mask: int = field(init=False, repr=False)
    one_mask: int = field(init=False, repr=False)

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise InvalidArgument("carrier must be nonempty")
        if len(self.oplus) != n or any(len(r) != n for r in self.oplus):
            raise InvalidArgument("oplus table must be a size x size matrix")
        if len(self.neg) != n:
            raise InvalidArgument("neg table must list one value per element")
        if not 0 <= self.zero < n:
            raise InvalidArgument("zero must be an element index")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(n)))
        neg, oplus = self.neg, self.oplus
        one = neg[self.zero]
        otimes = tuple(
            tuple(neg[oplus[neg[x]][neg[y]]] for y in range(n)) for x in range(n)
        )
        imp = tuple(tuple(oplus[neg[x]][y] for y in range(n)) for x in range(n))
        join = tuple(tuple(imp[imp[x][y]][y] for y in range(n)) for x in range(n))
        meet = tuple(
            tuple(neg[join[neg[x]][neg[y]]] for y in range(n)) for x in range(n)
        )
        up = tuple(
            mask_of(y for y in range(n) if imp[x][y] == one) for x in range(n)
        )
        down = tuple(
            mask_of(y for y in range(n) if imp[y][x] == one) for x in range(n)
        )
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "otimes", otimes)
        object.__setattr__(self, "imp", imp)
        object.__setattr__(self, "join", join)
        object.__setattr__(self, "meet", meet)
        object.__setattr__(self, "up_mask", up)
        object.__setattr__(self, "down_mask", down)
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "one_mask", 1 << one)

    def leq(self, x: int, y: int) -> bool:
        return self.imp[x][y] == self.one

    def label_set(self, mask: int) -> str:
        return "{" + ", ".join(self.labels[i] for i in iter_mask(mask)) + "}"

    def __hash__(self):
        return hash((self.size, self.oplus, self.neg, self.zero))


def make_lukasiewicz_chain(n: int) -> MvAlgebra:
    """The n-element chain on {0, 1/(n-1), ..., 1} with truncated addition."""
    if n < 2:
        raise InvalidArgument(f"chain needs at least two elements, got n={n}")
    d = n - 1
    oplus = tuple(tuple(min(d, x + y) for y in range(n)) for x in range(n))
    neg = tuple(d - x for x in range(n))
    labels = tuple(str(Fraction(x, d)) for x in range(n))
    return MvAlgebra(n, oplus, neg, 0, name=f"L{n}", labels=labels)


def make_product(a: MvAlgebra, b: MvAlgebra) -> MvAlgebra:
    """Componentwise product; element (x, y) is encoded as x * b.size + y."""
    na, nb = a.size, b.size
    n = na * nb

    def enc(x, y):
        return x * nb + y

    oplus = tuple(
        tuple(
            enc(a.oplus[x // nb][y // nb], b.oplus[x % nb][y % nb])
            for y in range(n)
        )
        for x in range(n)
    )
    neg = tuple(enc(a.neg[x // nb], b.neg[x % nb]) for x in range(n))
    labels = tuple(
        f"({a.labels[x // nb]},{b.labels[x % nb]})" for x in range(n)
    )
    name = f"{a.name or 'A'}x{b.name or 'B'}"
    return MvAlgebra(n, oplus, neg, enc(a.zero, b.zero), name=name, labels=labels)


def check_mv_axioms(a: MvAlgebra, max_failures: int = 10) -> list[tuple[str, tuple]]:
    """The first max_failures failing axiom instances, as (axiom, witness).

    The scan is exhaustive and stops at the last failure it returns; an
    empty list certifies a as an MV-algebra.
    """
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


def is_linear(a: MvAlgebra) -> bool:
    return all(
        a.leq(x, y) or a.leq(y, x) for x in range(a.size) for y in range(a.size)
    )


@dataclass(frozen=True)
class QuotientAlgebra:
    """Quotient of an algebra by the congruence of an implication filter.

    Cosets are numbered by ascending smallest member; ``coset_of[x]`` maps an
    element of the algebra to its coset index and ``cosets[c]`` is the
    coset's mask.
    """

    filter_mask: int
    coset_of: tuple[int, ...]
    representatives: tuple[int, ...]
    cosets: tuple[int, ...]
    quotient: MvAlgebra

    def image_mask(self, mask: int) -> int:
        """The cosets that meet ``mask``: one AND per coset."""
        return mask_of(c for c, cm in enumerate(self.cosets) if cm & mask)

    def preimage_mask(self, qmask: int) -> int:
        m = 0
        for c in iter_mask(qmask):
            m |= self.cosets[c]
        return m


def congruence_cosets(a: MvAlgebra, p_mask: int):
    """Partition the carrier by mutual implication modulo the filter mask."""
    n, imp = a.size, a.imp
    coset_of = [-1] * n
    cosets: list[int] = []
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(cosets)
        m = 0
        for y in range(n):
            if (p_mask >> imp[x][y]) & 1 and (p_mask >> imp[y][x]) & 1:
                coset_of[y] = c
                m |= 1 << y
        cosets.append(m)
        reps.append(x)
    return tuple(coset_of), tuple(reps), tuple(cosets)


def quotient_by(a: MvAlgebra, p_mask: int) -> QuotientAlgebra:
    """Quotient by an implication filter; verifies the tables are well defined."""
    from . import filters  # local import to avoid a cycle

    if not filters.is_implication_filter(a, p_mask):
        raise InvalidArgument("quotient congruence must be an implication filter")
    coset_of, reps, cosets = congruence_cosets(a, p_mask)
    m = len(reps)
    q_oplus = tuple(
        tuple(coset_of[a.oplus[reps[i]][reps[j]]] for j in range(m))
        for i in range(m)
    )
    q_neg = tuple(coset_of[a.neg[reps[i]]] for i in range(m))
    q_labels = tuple("[" + a.labels[reps[i]] + "]" for i in range(m))
    quotient = MvAlgebra(
        m, q_oplus, q_neg, coset_of[a.zero],
        name=f"{a.name}/{a.label_set(p_mask)}", labels=q_labels,
    )
    # well-definedness == the projection is a homomorphism on every pair
    for x in range(a.size):
        if coset_of[a.neg[x]] != q_neg[coset_of[x]]:
            raise InvalidArgument("congruence does not respect negation")
        for y in range(a.size):
            if coset_of[a.oplus[x][y]] != q_oplus[coset_of[x]][coset_of[y]]:
                raise InvalidArgument("congruence does not respect addition")
    return QuotientAlgebra(p_mask, coset_of, reps, cosets, quotient)
