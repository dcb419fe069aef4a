"""Prime spectra and the derived linearly ordered algebra on each spectrum.

PSpec(P) collects the prime lattice filters whose kernel is exactly P.  On a
spectrum the unit of the calculus is P itself (F ⊸ F = K(F) = P), so the
cut equivalence and the class order compare against P rather than {1}; for
P = {1} this is the literal definition.

The maps ι (P-cosets to classes) and η̂ (classes to boundary Q-cosets) return
their mappings as tuples indexed by coset or class.  Their theorems are
checked by ``thm:iota``, ``thm:hat-eta`` and ``thm:composite`` in ``verify``;
``build_hat`` certifies the algebra it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    MvAlgebra,
    QuotientAlgebra,
    check_mv_axioms,
    is_linear,
)
from .errors import InvalidArgument, InvariantViolation
from . import calculus, filters


@dataclass(frozen=True)
class PrimeSpectrum:
    algebra: MvAlgebra
    p_mask: int
    members: tuple[int, ...]  # prime lattice filter masks, ascending

    def __len__(self):
        return len(self.members)


def prime_spectrum(a: MvAlgebra, p_mask: int) -> PrimeSpectrum:
    """All prime lattice filters with kernel exactly P.

    P must be a prime implication filter; the improper filter is accepted and
    yields the empty spectrum (no proper filter has improper kernel).
    """
    if p_mask != a.full_mask and not filters.is_prime_implication_filter(a, p_mask):
        raise InvalidArgument("spectrum base must be a prime implication filter")
    members = tuple(
        f
        for f in filters.enumerate_lattice_filters(a, prime_only=True)
        if calculus.kernel(a, f) == p_mask
    )
    return PrimeSpectrum(a, p_mask, members)


def spectrum_equiv(spec: PrimeSpectrum, f_mask: int, g_mask: int) -> bool:
    """Cut equivalence inside the spectrum: both sqto values collapse to P."""
    a = spec.algebra
    return (
        calculus.sqto(a, f_mask, g_mask) == spec.p_mask
        and calculus.sqto(a, g_mask, f_mask) == spec.p_mask
    )


@dataclass(frozen=True)
class HatAlgebra:
    """The spectrum modulo cut equivalence, packaged as a finite MV-algebra.

    Classes are indexed ascending in the class order (so index 0 is the zero
    class).  ``as_mv`` encodes x⊕y := x⁺⊸y with negation ⁺, and is certified
    by the same axiom checker used for raw table algebras.
    """

    spectrum: PrimeSpectrum
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]  # the inclusion-largest member per class
    sqto_table: tuple[tuple[int, ...], ...]
    plus_table: tuple[int, ...]
    as_mv: MvAlgebra
    zero_class: int
    one_class: int

    def class_of(self, f_mask: int) -> int:
        for i, members in enumerate(self.classes):
            if f_mask in members:
                return i
        raise InvalidArgument("filter is not a spectrum member")


def build_hat(spec: PrimeSpectrum) -> HatAlgebra:
    """Construct and certify the derived algebra on PSpec(P)/≡."""
    if not spec.members:
        raise InvalidArgument("cannot build the derived algebra of an empty spectrum")
    a = spec.algebra

    # group members into equivalence classes
    classes: list[list[int]] = []
    for f in spec.members:
        for cls in classes:
            if spectrum_equiv(spec, cls[0], f):
                cls.append(f)
                break
        else:
            classes.append([f])
    # equivalence sanity: the relation induced by class membership is transitive
    for cls in classes:
        for x in cls:
            for y in cls:
                if not spectrum_equiv(spec, x, y):
                    raise InvariantViolation("cut equivalence is not transitive here")

    # representative: inclusion-largest member
    reps = [max(cls, key=lambda m: bin(m).count("1")) for cls in classes]

    # total class order; sort ascending (zero class first)
    def le(i: int, j: int) -> bool:
        return calculus.sqto(a, reps[i], reps[j]) == spec.p_mask

    idx = list(range(len(classes)))
    for i in idx:
        for j in idx:
            if not (le(i, j) or le(j, i)):
                raise InvariantViolation("class order is not total")
    idx.sort(key=lambda i: sum(1 for j in range(len(classes)) if le(i, j)),
             reverse=True)
    classes = [sorted(classes[i]) for i in idx]
    reps = [reps[i] for i in idx]

    def class_of(mask: int) -> int:
        for i, cls in enumerate(classes):
            if mask in cls:
                return i
        # not a member verbatim: match through the equivalence
        for i, cls in enumerate(classes):
            if spectrum_equiv(spec, cls[0], mask):
                return i
        raise InvariantViolation(
            f"operation left the spectrum: {a.label_set(mask)}"
        )

    m = len(classes)
    sqto_table = []
    for i in range(m):
        row = []
        for j in range(m):
            row.append(class_of(calculus.sqto(a, reps[i], reps[j])))
        sqto_table.append(tuple(row))
    plus_table = tuple(class_of(calculus.set_plus(a, r)) for r in reps)

    # congruence: the tables cannot depend on the member chosen
    for i, cls in enumerate(classes):
        for member in cls:
            if class_of(calculus.set_plus(a, member)) != plus_table[i]:
                raise InvariantViolation("⁺ is not constant on a class")
            for j, other in enumerate(classes):
                for member2 in other:
                    if class_of(calculus.sqto(a, member, member2)) != sqto_table[i][j]:
                        raise InvariantViolation("⊸ is not constant on class pairs")

    oplus = tuple(
        tuple(sqto_table[plus_table[i]][j] for j in range(m)) for i in range(m)
    )
    labels = tuple(a.label_set(r) for r in reps)
    as_mv = MvAlgebra(m, oplus, plus_table, 0,
                      name=f"hat({a.name};{a.label_set(spec.p_mask)})",
                      labels=labels)
    report = check_mv_axioms(as_mv)
    if not report.ok:
        raise InvariantViolation(f"derived algebra fails MV axioms: {report.failures}")
    if not is_linear(as_mv):
        raise InvariantViolation("derived algebra is not linearly ordered")

    one_class = len(classes) - 1
    least = min(spec.members, key=lambda m_: bin(m_).count("1"))
    if least not in classes[one_class]:
        # the top class always holds the inclusion-least member (P itself)
        raise InvariantViolation("top class misses the inclusion-least filter")
    return HatAlgebra(
        spec,
        tuple(tuple(cls) for cls in classes),
        tuple(reps),
        tuple(sqto_table),
        plus_table,
        as_mv,
        zero_class=0,
        one_class=one_class,
    )


def hat_otimes(h: HatAlgebra, x: int, y: int) -> int:
    """Class-level ⊗ via (x ⊸ y⁺)⁺; cross-checked against T and Φ.

    The set-level identity T(F,G) = Φ(F,G) = (F ⊸ G⁺)⁺ uses the
    full-left-argument form of ⊸ and can produce the improper filter
    (whenever some pairwise product hits 0); the class comparison is made
    whenever the set value is equivalent to a spectrum class.
    """
    a = h.spectrum.algebra
    rx, ry = h.representatives[x], h.representatives[y]
    via_encoding = h.plus_table[h.sqto_table[x][h.plus_table[y]]]
    t = calculus.tensor_up(a, rx, ry)
    p = calculus.phi(a, rx, ry)
    enc = calculus.set_plus(a, calculus.sqto_full(a, rx, calculus.set_plus(a, ry)))
    if not (t == p == enc):
        raise InvariantViolation("T, Φ and the (F⊸G⁺)⁺ set forms disagree")
    if t != a.full_mask:
        for i, cls in enumerate(h.classes):
            if spectrum_equiv(h.spectrum, cls[0], t):
                if i != via_encoding:
                    raise InvariantViolation(
                        "T's class disagrees with the table-level ⊗"
                    )
                break
    return via_encoding


def iota(h: HatAlgebra, q: QuotientAlgebra) -> tuple[int, ...]:
    """ι: the P-coset of a ↦ the class of the subordinate of P at a.

    ``q`` is the quotient by the spectrum base P.  For the top coset the
    subordinate is empty; its class is the top class (the inclusion-least
    filter P).  ``thm:iota`` checks the closure identities and surjectivity.
    """
    a = h.spectrum.algebra
    p_mask = h.spectrum.p_mask
    if q.filter_mask != p_mask:
        raise InvalidArgument("quotient must be taken at the spectrum base")
    subs = (calculus.subordinate(a, p_mask, rep) for rep in q.representatives)
    return tuple(h.one_class if s == 0 else h.class_of(s) for s in subs)


def hat_eta(h: HatAlgebra, q: QuotientAlgebra) -> tuple[int, ...]:
    """η̂: each class ↦ the Q-coset on the boundary of its representative.

    ``q`` is the quotient by Q, which must properly contain the spectrum base
    P and be prime or improper (the improper Q gives the one-point quotient).
    ``thm:hat-eta`` checks that every member of a class has the same boundary
    coset and that the map preserves ⁺ and ⊸.
    """
    a = h.spectrum.algebra
    p_mask, q_mask = h.spectrum.p_mask, q.filter_mask
    if not (p_mask & ~q_mask == 0 and p_mask != q_mask):
        raise InvalidArgument("needs P properly contained in Q")
    if q_mask != a.full_mask and not filters.is_prime_implication_filter(a, q_mask):
        raise InvalidArgument("Q must be prime (or improper)")
    return tuple(
        q.cosets.index(calculus.boundary_coset(a, rep, q_mask))
        for rep in h.representatives
    )
