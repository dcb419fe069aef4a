"""Finite MV-algebras: construction, derived operations, axiom checking, quotients.

Elements are dense integer indices 0..size-1; human-readable labels are
metadata only.  Subsets of the carrier are integer bitmasks (bit i set means
element i is a member), which keeps filter enumeration and intersection cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, count, islice, repeat
from math import gcd
from operator import add, and_, mul, or_

from .errors import InvalidArgument


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


_SELECTOR = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> bytes:
    """Byte i is 1 when element i is in ``mask`` and 0 when it is not, up to
    the highest member: a ``compress`` selector, built in C.

    ``compress(lines, bits(mask))`` yields ``lines[i]`` for each member i,
    ascending, and silently skips a member at or beyond ``len(lines)``.
    """
    return bin(mask)[:1:-1].encode().translate(_SELECTOR)


def iter_mask(mask: int):
    """The element indices set in ``mask``, ascending, as a C iterator."""
    return compress(count(), bits(mask))


def fold_and(lines, mask: int, full: int) -> int:
    """The AND of ``lines[i]`` over the members i of ``mask``; ``full`` when
    ``mask`` is empty."""
    return reduce(and_, compress(lines, bits(mask)), full)


def fold_or(lines, mask: int) -> int:
    """The OR of ``lines[i]`` over the members i of ``mask``; 0 when ``mask``
    is empty."""
    return reduce(or_, compress(lines, bits(mask)), 0)


def member_lookup(mask: int, n: int) -> bytes:
    """The ``bytes.translate`` table sending v to ``b"1"`` exactly when v ∈ mask.

    ``mask`` is a subset of an n-element carrier.  With a byte row stored
    reversed, as ``MvAlgebra`` keeps them, ``int(row.translate(look), 2)``
    is the mask of the positions y whose entry lies in ``mask``.
    """
    return format(mask, f"0{n}b")[::-1].encode().ljust(256, b"0")


def read_lines(lines, picks: int, into: int):
    """Line x of a table read into ``into``, for each member x of ``picks``,
    ascending: {y | lines[x][y] ∈ into}, as a C iterator of masks.

    ``lines`` is one of ``MvAlgebra``'s reversed byte tables: row x of → or
    ⊗ into M is {y | T[x][y] ∈ M}, and column x of → into M is
    {z | z→x ∈ M}.  The lines are picked by ``compress`` with the selector
    ``bits(picks)``, and each read is one ``bytes.translate`` through
    ``member_lookup(into, n)`` and one ``int(…, 2)``, both in C; the lookup
    is built once per call and shared by all its reads, so no Python loop
    runs per line.  Callers that read every line pass the full mask.
    """
    look = member_lookup(into, len(lines))
    reads = map(bytes.translate, compress(lines, bits(picks)), repeat(look))
    return map(int, reads, repeat(2))


@dataclass(frozen=True)
class MvAlgebra:
    """A finite MV-algebra given by its ⊕ table, negation table and zero.

    Derived tables (⊗, →, ∨, ∧, ≤) are computed eagerly at construction,
    each a row or a column at a time by ``bytes.translate`` from the
    definitions x⊗y = ¬(¬x⊕¬y), x→y = ¬x⊕y, x∨y = (x→y)→y and
    x∧y = ¬(¬x∨¬y); row x of → is row ¬x of ⊕, the same tuple.  Every ⊕
    and ¬ entry must be an element index.  The instance is immutable
    afterwards and safe to share between workers.

    The → rows, ⊗ rows and → columns are also kept as ``bytes``, each one
    reversed (``imp_bytes[x][n-1-y]`` is x→y, ``imp_col_bytes[y][n-1-z]``
    is z→y).  ``read_lines`` then reads row or column x into a mask M with
    one ``translate`` and one ``int(…, 2)``, which puts element y at bit y;
    ``columns`` is that read for the →-columns, the subordinates.  Byte
    entries bound the carrier at 256 elements.
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
    imp_bytes: tuple[bytes, ...] = field(init=False, repr=False, compare=False)
    otimes_bytes: tuple[bytes, ...] = field(init=False, repr=False, compare=False)
    imp_col_bytes: tuple[bytes, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise InvalidArgument("carrier must be nonempty")
        if n > 256:
            raise InvalidArgument(f"carrier size {n} exceeds the byte-table bound 256")
        if len(self.oplus) != n or any(len(r) != n for r in self.oplus):
            raise InvalidArgument("oplus table must be a size x size matrix")
        if len(self.neg) != n:
            raise InvalidArgument("neg table must list one value per element")
        if not 0 <= self.zero < n:
            raise InvalidArgument("zero must be an element index")
        neg, oplus = self.neg, self.oplus
        oplus_b = _byte_lines("oplus", oplus, n)
        (neg_b,) = _byte_lines("neg", (neg,), n)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(n)))
        one = neg[self.zero]
        # line.translate(t.ljust(256, b"\0")) reads the table t at each entry
        # of line, and lines[k::n] of n stacked lines is their column k, so
        # each line below is one or two C calls.
        neg_t = neg_b.ljust(256, b"\0")
        neg_rev = neg_b[::-1]
        imp = tuple(tuple(oplus[v]) for v in neg)  # x→y = ¬x⊕y: row ¬x of ⊕
        imp_b = [oplus_b[v] for v in neg]
        # x⊗y = ¬(¬x⊕¬y): row x of → read at ¬y, then negated; read along
        # neg_rev, so each ⊗ row comes out reversed, as otimes_bytes keeps it
        otimes_bytes = tuple(
            neg_rev.translate(r.ljust(256, b"\0")).translate(neg_t) for r in imp_b
        )
        stacked = b"".join(imp_b)
        imp_col_b = [stacked[y::n] for y in range(n)]
        # x∨y = (x→y)→y: column y of → read at itself
        join_stacked = b"".join(c.translate(c.ljust(256, b"\0")) for c in imp_col_b)
        join_b = [join_stacked[x::n] for x in range(n)]
        # x∧y = ¬(¬x∨¬y): row ¬x of ∨ read at ¬y, then negated
        meet = tuple(
            tuple(neg_b.translate(join_b[v].ljust(256, b"\0")).translate(neg_t))
            for v in neg
        )
        imp_bytes = tuple(r[::-1] for r in imp_b)
        imp_col_bytes = tuple(c[::-1] for c in imp_col_b)
        # ↑x is row x of → into {1}, ↓x is column x of → into {1}
        full = (1 << n) - 1
        up = tuple(read_lines(imp_bytes, full, 1 << one))
        down = tuple(read_lines(imp_col_bytes, full, 1 << one))
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "otimes", tuple(tuple(r[::-1]) for r in otimes_bytes))
        object.__setattr__(self, "imp", imp)
        object.__setattr__(self, "join", tuple(map(tuple, join_b)))
        object.__setattr__(self, "meet", meet)
        object.__setattr__(self, "up_mask", up)
        object.__setattr__(self, "down_mask", down)
        object.__setattr__(self, "full_mask", full)
        object.__setattr__(self, "one_mask", 1 << one)
        object.__setattr__(self, "imp_bytes", imp_bytes)
        object.__setattr__(self, "otimes_bytes", otimes_bytes)
        object.__setattr__(self, "imp_col_bytes", imp_col_bytes)

    def columns(self, m_mask: int, x_mask: int):
        """The subordinates M_x = {z | z→x ∉ M} for each x ∈ X, ascending:
        column x of → read into L∖M, so only |X| columns are read."""
        return read_lines(self.imp_col_bytes, x_mask, self.full_mask & ~m_mask)

    def leq(self, x: int, y: int) -> bool:
        return self.imp[x][y] == self.one

    def label_set(self, mask: int) -> str:
        return "{" + ", ".join(self.labels[i] for i in iter_mask(mask)) + "}"

    def __hash__(self):
        return hash((self.size, self.oplus, self.neg, self.zero))


def _byte_lines(table: str, rows, n: int) -> list[bytes]:
    """Each row of a table as ``bytes``; InvalidArgument naming the table
    unless every entry is an element index in [0, n)."""
    try:
        lines = [bytes(r) for r in rows]
    except ValueError:  # an entry outside [0, 256)
        lines = None
    if lines is None or b"".join(lines).translate(None, bytes(range(n))):
        raise InvalidArgument(
            f"{table} table entries must be element indices in [0, {n})"
        )
    return lines


def make_lukasiewicz_chain(n: int) -> MvAlgebra:
    """The n-element chain on {0, 1/(n-1), ..., 1} with truncated addition."""
    if n < 2:
        raise InvalidArgument(f"chain needs at least two elements, got n={n}")
    d = n - 1
    oplus = tuple((*range(x, d), *(d,) * (x + 1)) for x in range(n))
    neg = tuple(range(d, -1, -1))
    labels = tuple(map(_ratio, range(n), repeat(d)))
    return MvAlgebra(n, oplus, neg, 0, name=f"L{n}", labels=labels)


def _ratio(x: int, d: int) -> str:
    """x/d in lowest terms, written as ``str(Fraction(x, d))`` writes it."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def make_product(*factors: MvAlgebra) -> MvAlgebra:
    """Componentwise product of two or more algebras, folded left to right.

    Each step pairs the fold so far, a, with the next factor b, and encodes
    element (x, y) as x * b.size + y; labels nest as ``((x,y),z)`` and the
    name is ``AxBxC``.  Only ⊕, ¬, zero, labels and name are folded, so the
    derived tables are built once, for the whole product.
    """
    first, *rest = factors
    na, oplus, neg, zero = first.size, first.oplus, first.neg, first.zero
    name, labels = first.name, first.labels
    for b in rest:
        nb = b.size
        firsts = [_spread(r, nb) for r in oplus]
        seconds = [r * na for r in b.oplus]
        oplus = tuple(tuple(map(add, f, s)) for f in firsts for s in seconds)
        neg = tuple(map(add, _spread(neg, nb), b.neg * na))
        labels = tuple(f"({la},{lb})" for la in labels for lb in b.labels)
        name = f"{name or 'A'}x{b.name or 'B'}"
        zero = zero * nb + b.zero
        na *= nb
    return MvAlgebra(na, oplus, neg, zero, name=name, labels=labels)


def _spread(line, nb: int) -> tuple[int, ...]:
    """A line of the left factor scaled by nb, each entry repeated nb times:
    its part of the encoding x * nb + y along the product's line."""
    scaled = tuple(map(mul, line, repeat(nb)))
    return tuple(chain.from_iterable(zip(*(scaled,) * nb)))


def check_mv_axioms(a: MvAlgebra, max_failures: int = 10) -> list[tuple[str, tuple]]:
    """The first max_failures failing axiom instances, as (axiom, witness).

    The scan is exhaustive and stops at the last failure it returns; an
    empty list certifies a as an MV-algebra.  Associativity is decided one
    (x, y) at a time: (x⊕y)⊕z = x⊕(y⊕z) for every z says that row x⊕y of ⊕
    equals row y read through row x, one ``bytes.translate``.  Only a pair
    whose rows differ is scanned z by z, so the witnesses, and their order,
    are those of the scan over every triple.
    """
    n, oplus, neg, zero = a.size, a.oplus, a.neg, a.zero
    one = neg[zero]
    rows = [bytes(r) for r in oplus]
    tables = [r.ljust(256, b"\0") for r in rows]

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
                xy = oplus[x][y]
                if rows[xy] != rows[y].translate(tables[x]):
                    for z in range(n):
                        if oplus[xy][z] != oplus[x][oplus[y][z]]:
                            yield "associativity", (x, y, z)

    return list(islice(failures(), max_failures))


def is_linear(a: MvAlgebra) -> bool:
    return all(u | d == a.full_mask for u, d in zip(a.up_mask, a.down_mask))


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
        """The union of the cosets in ``qmask``."""
        return fold_or(self.cosets, qmask)


def congruence_cosets(a: MvAlgebra, p_mask: int):
    """Partition the carrier by mutual implication modulo the filter mask.

    The coset of x is {y | x→y ∈ P and y→x ∈ P}: row x of → into P meets
    column x of → into P.
    """
    n, rows, cols = a.size, a.imp_bytes, a.imp_col_bytes
    look = member_lookup(p_mask, n)
    coset_of = [-1] * n
    cosets: list[int] = []
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(cosets)
        m = int(rows[x].translate(look), 2) & int(cols[x].translate(look), 2)
        for y in iter_mask(m):
            coset_of[y] = c
        cosets.append(m)
        reps.append(x)
    return tuple(coset_of), tuple(reps), tuple(cosets)


def quotient_by(a: MvAlgebra, p_mask: int) -> QuotientAlgebra:
    """Quotient by an implication filter; verifies the tables are well defined.

    The quotient's ⊕ row of coset c is row rep(c) of ⊕ read at the
    representatives and sent to cosets.  Well-definedness is checked one
    element x at a time: ¬x, then row x of ⊕, sent to cosets, must equal
    what the quotient's tables give on the coset of x.  Each row is two
    ``bytes.translate`` calls, as in ``MvAlgebra``.
    """
    from . import filters  # local import to avoid a cycle

    if not filters.is_implication_filter(a, p_mask):
        raise InvalidArgument("quotient congruence must be an implication filter")
    coset_of, reps, cosets = congruence_cosets(a, p_mask)
    if -1 in coset_of:  # some x→x ∉ P, which no MV-algebra allows
        raise InvalidArgument("congruence is not reflexive")
    coset_b = bytes(coset_of)
    coset_t = coset_b.ljust(256, b"\0")
    reps_b = bytes(reps)
    q_rows = [reps_b.translate(bytes(a.oplus[r]).ljust(256, b"\0")).translate(coset_t)
              for r in reps]
    q_neg = reps_b.translate(bytes(a.neg).ljust(256, b"\0")).translate(coset_t)
    q_labels = tuple("[" + a.labels[r] + "]" for r in reps)
    quotient = MvAlgebra(
        len(reps), tuple(map(tuple, q_rows)), tuple(q_neg), coset_of[a.zero],
        name=f"{a.name}/{a.label_set(p_mask)}", labels=q_labels,
    )
    # well-definedness == the projection is a homomorphism on every pair
    q_tables = [r.ljust(256, b"\0") for r in q_rows]
    for x, c in enumerate(coset_of):
        if coset_of[a.neg[x]] != q_neg[c]:
            raise InvalidArgument("congruence does not respect negation")
        if bytes(a.oplus[x]).translate(coset_t) != coset_b.translate(q_tables[c]):
            raise InvalidArgument("congruence does not respect addition")
    return QuotientAlgebra(p_mask, coset_of, reps, cosets, quotient)
