"""Cut filters of the dense rational chain [0,1] with exact arithmetic.

A proper filter of the dense chain is either ]p,1] (open) or [p,1] (closed)
with a rational endpoint.  [0,1] is the improper filter and ]1,1] the empty
set; both are representable sentinels but rejected by the proper-filter
operations.  Closed forms for ⁺ and ⊸ are paired with a quantifier
elimination oracle that solves the defining condition directly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidArgument

ONE = Fraction(1)
# the largest denominator of a random cut endpoint
MAX_DEN = 1000


class Kind(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True, slots=True)
class Cut:
    """]endpoint,1] when open, [endpoint,1] when closed.

    ``is_proper`` is settled once, when the cut is made; it is neither an
    argument nor part of ``==``, ``hash`` or ``repr``.
    """

    endpoint: Fraction
    kind: Kind
    is_proper: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a Fraction keeps its denominator positive, so 0 <= endpoint <= 1
        # reads off its integers without a Fraction comparison
        num, den = self.endpoint.numerator, self.endpoint.denominator
        if not 0 <= num <= den:
            raise InvalidArgument("cut endpoint must lie in [0,1]")
        # proper unless improper (closed at 0) or empty (open at 1)
        proper = num != 0 if self.kind is Kind.CLOSED else num != den
        object.__setattr__(self, "is_proper", proper)

    def __contains__(self, x: Fraction) -> bool:
        if self.kind is Kind.OPEN:
            return self.endpoint < x <= ONE
        return self.endpoint <= x <= ONE

    def issubset(self, other: "Cut") -> bool:
        if self.endpoint > other.endpoint:
            return True
        if self.endpoint < other.endpoint:
            return False
        return not (self.kind is Kind.CLOSED and other.kind is Kind.OPEN)

    def __str__(self):
        left = "(" if self.kind is Kind.OPEN else "["
        return f"{left}{self.endpoint},1]"


def open_cut(p) -> Cut:
    return Cut(Fraction(p), Kind.OPEN)


def closed_cut(p) -> Cut:
    return Cut(Fraction(p), Kind.CLOSED)


TOP = closed_cut(1)  # {1}
BOTTOM_FILTER = open_cut(0)  # ]0,1], the least proper filter


def chain_imp(x: Fraction, y: Fraction) -> Fraction:
    return min(ONE, ONE - x + y)


def intersect(f: Cut, g: Cut) -> Cut:
    if f.endpoint != g.endpoint:
        return f if f.endpoint > g.endpoint else g
    kind = Kind.OPEN if Kind.OPEN in (f.kind, g.kind) else Kind.CLOSED
    return Cut(f.endpoint, kind)


def _require_proper(*cuts: Cut):
    for c in cuts:
        if not c.is_proper:
            raise InvalidArgument(f"operation needs a proper filter, got {c}")


# ---------------------------------------------------------------------------
# closed forms


def cut_plus(f: Cut) -> Cut:
    """The subordinate at 0: swaps the endpoint with its negation and the kind."""
    _require_proper(f)
    kind = Kind.CLOSED if f.kind is Kind.OPEN else Kind.OPEN
    return Cut(ONE - f.endpoint, kind)


def cut_sqto(f: Cut, g: Cut) -> Cut:
    """F ⊸ G by case dispatch on containment and the two endpoint kinds."""
    _require_proper(f, g)
    if g.issubset(f):
        return TOP  # collapses to the kernel of G, which is {1}
    fp = intersect(f, g)
    q, p = fp.endpoint, g.endpoint
    if g.kind is Kind.CLOSED:
        return Cut(chain_imp(q, p), Kind.CLOSED)
    if fp.kind is Kind.CLOSED:
        return Cut(chain_imp(q, p), Kind.OPEN)
    return Cut(chain_imp(q, p), Kind.CLOSED)


def kernel_of_cut(f: Cut) -> Cut:
    """Every proper cut filter of the dense chain has kernel {1}."""
    _require_proper(f)
    return TOP


# ---------------------------------------------------------------------------
# the quantifier-elimination oracle


def oracle_sqto(f: Cut, g: Cut) -> Cut:
    """Solve ∀x∈F∩G: max(0, x+z-1) ∈ G for the set of z, exactly.

    Eliminates the quantifier by asking when a failure witness x exists:
    x must satisfy the filter's lower bound and x + z - 1 must fall below
    G's endpoint, with strictness tracked per kind.  The surviving z form a
    half-line whose boundary and openness are read off the bound comparison.
    """
    _require_proper(f, g)
    fp = intersect(f, g)
    q, p = fp.endpoint, g.endpoint
    # witness exists iff the open interval below B = p - z + 1 meets F∩G;
    # the comparison x ⋖ B is strict when G is closed (need x⊗z < p) and
    # non-strict when G is open (x⊗z ≤ p already fails membership)
    r = ONE - q + p
    if g.kind is Kind.CLOSED:
        # strict bound: witness iff B > q, i.e. z < r
        return Cut(r, Kind.CLOSED)
    if fp.kind is Kind.CLOSED:
        # non-strict bound against a closed lower end: witness iff B >= q
        return Cut(r, Kind.OPEN)
    # open lower end: witness iff B > q either way
    return Cut(r, Kind.CLOSED)


def oracle_plus(f: Cut) -> Cut:
    """Pointwise {z | 1-z ∉ F} solved for z."""
    _require_proper(f)
    if f.kind is Kind.OPEN:
        # 1-z <= q  iff  z >= 1-q
        return Cut(ONE - f.endpoint, Kind.CLOSED)
    # 1-z < q  iff  z > 1-q
    return Cut(ONE - f.endpoint, Kind.OPEN)


def oracle_member(f: Cut, g: Cut, z: Fraction) -> bool:
    """Direct membership test z ∈ F⊸G by witness elimination, for spot checks."""
    _require_proper(f, g)
    fp = intersect(f, g)
    bound = g.endpoint - z + ONE
    if g.kind is Kind.CLOSED:
        return not bound > fp.endpoint
    if fp.kind is Kind.CLOSED:
        return not bound >= fp.endpoint
    return not bound > fp.endpoint


# ---------------------------------------------------------------------------
# randomised inputs and the derived chain view


def random_fraction(rng: random.Random) -> Fraction:
    den = rng.randint(1, MAX_DEN)
    return Fraction(rng.randint(0, den), den)


def random_proper_cut(rng: random.Random) -> Cut:
    while True:
        c = Cut(random_fraction(rng), rng.choice((Kind.OPEN, Kind.CLOSED)))
        if c.is_proper:
            return c


def hat_class(f: Cut) -> Fraction:
    """A proper cut's equivalence class is determined by its endpoint."""
    _require_proper(f)
    return f.endpoint


def canonical_member(cls: Fraction) -> Cut:
    """The closed cut, except at endpoint 0 where only the open one is proper."""
    return BOTTOM_FILTER if cls == 0 else closed_cut(cls)
