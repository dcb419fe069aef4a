"""Cut filters of the dense rational chain [0,1] with exact arithmetic.

A cut is ]p,1] (open) or [p,1] (closed) with a rational endpoint; the dense
statements cover these.  The rationals above an irrational, such as √2/2,
form a proper filter of neither kind, a gap cut (ROADMAP item 19).  [0,1] is
the improper filter and ]1,1] the empty set; both are representable
sentinels but rejected by the proper-filter operations.  ⁺ and ⊸ are
computed by closed forms, which the statement ``dense:closed-forms`` checks
against their definitions on a grid of cuts.
``oracle_sqto``, ``oracle_plus`` and ``random_proper_cut`` are kept only as
tracer targets (``perfbench/spans.py``); no statement calls them.

A cut stores its endpoint as two integers in lowest terms, ``num`` and
``den > 0``.  The operations compare endpoints by cross-multiplication and
reduce each new endpoint with one ``gcd``, so no ``Fraction`` is made on
their path; ``Cut.endpoint`` builds one when it is read.
"""

from __future__ import annotations

import enum
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

from .errors import InvalidArgument

ONE = Fraction(1)
# the largest denominator of a random cut endpoint
MAX_DEN = 1000


class Kind(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


_OPEN, _CLOSED = Kind.OPEN, Kind.CLOSED
_KINDS = (_OPEN, _CLOSED)


class Cut:
    """]endpoint,1] when open, [endpoint,1] when closed.

    The endpoint is held as ``num/den`` in lowest terms with ``den > 0``;
    ``endpoint`` is the same number as a ``Fraction``, made on each read.
    ``Cut(endpoint, kind)`` takes an ``int`` or a ``Fraction`` in [0,1] and
    a ``Kind``.  A cut is immutable, and ``==`` and ``hash`` read
    ``(num, den, kind)``.  ``is_proper`` is settled once, when the cut is
    made; it is neither an argument nor part of ``==``, ``hash`` or
    ``repr``.
    """

    __slots__ = ("num", "den", "kind", "is_proper")

    def __new__(cls, endpoint: Fraction | int, kind: Kind):
        if not isinstance(kind, Kind):
            raise InvalidArgument(f"cut kind must be a Kind, got {kind!r}")
        if isinstance(endpoint, bool) or not isinstance(endpoint, (int, Fraction)):
            raise InvalidArgument(
                f"cut endpoint must be an int or a Fraction, got {endpoint!r}"
            )
        # a Fraction keeps its denominator positive and its terms lowest
        num, den = endpoint.numerator, endpoint.denominator
        if not 0 <= num <= den:
            raise InvalidArgument("cut endpoint must lie in [0,1]")
        return _cut(num, den, kind)

    @property
    def endpoint(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Cut:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.kind is other.kind)

    def __hash__(self):
        return hash((self.num, self.den, self.kind is _OPEN))

    def __repr__(self):
        return f"Cut(endpoint={self.endpoint!r}, kind={self.kind!r})"

    def issubset(self, other: "Cut") -> bool:
        lhs, rhs = self.num * other.den, other.num * self.den
        if lhs != rhs:
            return lhs > rhs
        return not (self.kind is _CLOSED and other.kind is _OPEN)

    def __str__(self):
        left = "(" if self.kind is _OPEN else "["
        if self.den == 1:
            return f"{left}{self.num},1]"
        return f"{left}{self.num}/{self.den},1]"


_new = object.__new__
_set_num = Cut.num.__set__
_set_den = Cut.den.__set__
_set_kind = Cut.kind.__set__
_set_proper = Cut.is_proper.__set__


def _cut(num: int, den: int, kind: Kind) -> Cut:
    """The cut at num/den, which must already be in lowest terms in [0,1]."""
    c = _new(Cut)
    _set_num(c, num)
    _set_den(c, den)
    _set_kind(c, kind)
    # proper unless improper (closed at 0) or empty (open at 1)
    _set_proper(c, num != 0 if kind is _CLOSED else num != den)
    return c


def open_cut(p) -> Cut:
    return Cut(Fraction(p), Kind.OPEN)


def closed_cut(p) -> Cut:
    return Cut(Fraction(p), Kind.CLOSED)


TOP = closed_cut(1)  # {1}
BOTTOM_FILTER = open_cut(0)  # ]0,1], the least proper filter


def chain_imp(x: Fraction, y: Fraction) -> Fraction:
    return min(ONE, ONE - x + y)


def intersect(f: Cut, g: Cut) -> Cut:
    lhs, rhs = f.num * g.den, g.num * f.den
    if lhs != rhs:
        return f if lhs > rhs else g
    # one endpoint: the meet is open if either cut is
    return g if g.kind is _OPEN else f


def _require_proper(*cuts: Cut):
    for c in cuts:
        if not c.is_proper:
            raise InvalidArgument(f"operation needs a proper filter, got {c}")


# ---------------------------------------------------------------------------
# closed forms


def cut_plus(f: Cut) -> Cut:
    """The subordinate at 0: swaps the endpoint with its negation and the kind."""
    if not f.is_proper:
        _require_proper(f)
    # gcd(den - num, den) = gcd(num, den) = 1, so 1 - num/den is in lowest terms
    return _cut(f.den - f.num, f.den, _CLOSED if f.kind is _OPEN else _OPEN)


def cut_sqto(f: Cut, g: Cut) -> Cut:
    """F ⊸ G: {1} when G ⊆ F, else the cut at 1 - q + p, for q and p the
    endpoints of F and G, closed iff G is closed or F is open."""
    if not (f.is_proper and g.is_proper):
        _require_proper(f, g)
    gf, fg = g.num * f.den, f.num * g.den
    if gf > fg or (gf == fg and (g.kind is _OPEN or f.kind is _CLOSED)):
        return TOP  # G ⊆ F: collapses to the kernel of G, which is {1}
    # the cuts form a chain, so F ⊊ G, F∩G = F and min(1, 1 - q + p) = 1 - q + p
    den = f.den * g.den
    num = den - fg + gf
    k = gcd(num, den)
    kind = _CLOSED if g.kind is _CLOSED or f.kind is _OPEN else _OPEN
    return _cut(num // k, den // k, kind)


def kernel_of_cut(f: Cut) -> Cut:
    """Every proper cut filter of the dense chain has kernel {1}."""
    _require_proper(f)
    return TOP


# ---------------------------------------------------------------------------
# the former oracle, kept only as a benchmark tracer target


def oracle_sqto(f: Cut, g: Cut) -> Cut:
    """Solve ∀x∈F∩G: max(0, x+z-1) ∈ G for the set of z, exactly.

    Kept only because the benchmark tracer wraps it: it reaches
    ``cut_sqto``'s endpoint and kind rule, so it is no cross-check of it.
    It eliminates the quantifier by asking when a failure witness x exists:
    x must satisfy the filter's lower bound and x + z - 1 must fall below
    G's endpoint, with strictness tracked per kind.  The surviving z form a half-line
    whose boundary and openness are read off the bound comparison.
    """
    _require_proper(f, g)
    fp = intersect(f, g)
    # witness exists iff the open interval below B = p - z + 1 meets F∩G;
    # the comparison x ⋖ B is strict when G is closed (need x⊗z < p) and
    # non-strict when G is open (x⊗z ≤ p already fails membership).  Either
    # way the boundary is z = r = 1 - q + p, for q the endpoint of F∩G and p
    # that of G; q >= p, so r lies in [0,1]
    qn, qd, pn, pd = fp.num, fp.den, g.num, g.den
    rn, rd = qd * pd + pn * qd - qn * pd, qd * pd
    k = gcd(rn, rd)
    rn, rd = rn // k, rd // k
    if g.kind is _CLOSED:
        # strict bound: witness iff B > q, i.e. z < r
        return _cut(rn, rd, _CLOSED)
    if fp.kind is _CLOSED:
        # non-strict bound against a closed lower end: witness iff B >= q
        return _cut(rn, rd, _OPEN)
    # open lower end: witness iff B > q either way
    return _cut(rn, rd, _CLOSED)


def oracle_plus(f: Cut) -> Cut:
    """Pointwise {z | 1-z ∉ F} solved for z; kept only because the benchmark
    tracer wraps it."""
    _require_proper(f)
    # 1 - num/den shares num/den's denominator and stays in lowest terms
    if f.kind is _OPEN:
        # 1-z <= q  iff  z >= 1-q
        return _cut(f.den - f.num, f.den, _CLOSED)
    # 1-z < q  iff  z > 1-q
    return _cut(f.den - f.num, f.den, _OPEN)


# ---------------------------------------------------------------------------
# a tracer target and the derived chain view


def random_proper_cut(rng: random.Random) -> Cut:
    """Draws a denominator up to MAX_DEN, a numerator up to it and a kind,
    until the cut is proper; kept only because the benchmark tracer wraps it."""
    while True:
        den = rng.randint(1, MAX_DEN)
        num = rng.randint(0, den)
        kind = rng.choice(_KINDS)
        if (num != 0) if kind is _CLOSED else (num != den):
            k = gcd(num, den)
            return _cut(num // k, den // k, kind)


def hat_class(f: Cut) -> Fraction:
    """A proper cut's equivalence class is determined by its endpoint."""
    _require_proper(f)
    return f.endpoint


def canonical_member(cls: Fraction) -> Cut:
    """The closed cut, except at endpoint 0 where only the open one is proper."""
    return BOTTOM_FILTER if cls == 0 else closed_cut(cls)
