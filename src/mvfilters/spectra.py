"""Prime spectra and the derived linearly ordered algebra on each spectrum.

PSpec(P) collects the prime lattice filters whose kernel is exactly P.  On a
spectrum the unit of the calculus is P itself (F ⊸ F = K(F) = P), so the
cut equivalence and the class order compare against P rather than {1}; for
P = {1} this is the literal definition.

On a finite algebra each class of the derived algebra is a single member: a
finite MV-algebra is a product of Łukasiewicz chains, so PSpec(P) is the set
of prime filters of the finite chain L/P, where cut equivalence is equality.
``build_hat`` therefore orders the members themselves, from their ⊸
table.  The dense chain's classes of many cuts live in
``densechain.hat_class``.

``prime_spectrum`` takes K, and ``build_hat`` ⊸ and ⁺, as functions of
masks, as ``iota`` takes F_x and ``hat_eta`` K: ``verify.Ctx`` passes its
caches, and the cli ``functools.partial``s of the cold ``calculus`` forms,
so a run and an export build the spectrum and the algebra by one body.

The derived algebra is its certified ``as_mv``: its →, ¬ and ⊗ are the
class-level ⊸, ⁺ and ⊗.

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


def prime_spectrum(a: MvAlgebra, p_mask: int, kernel) -> PrimeSpectrum:
    """All prime lattice filters with kernel exactly P.

    P must be a prime implication filter; the improper filter is accepted and
    yields the empty spectrum (no proper filter has improper kernel).
    ``kernel`` maps a mask to its K, as ``hat_eta`` takes it: ``verify.Ctx``
    hands it the run's cache, and a cold caller ``partial(calculus.kernel, a)``.
    """
    primes = filters.enumerate_implication_filters(a, prime_only=True)
    if p_mask not in primes + [a.full_mask]:
        raise InvalidArgument("spectrum base must be a prime implication filter")
    members = tuple(
        f
        for f in filters.enumerate_lattice_filters(a, prime_only=True)
        if kernel(f) == p_mask
    )
    return PrimeSpectrum(a, p_mask, members)


@dataclass(frozen=True)
class HatAlgebra:
    """The spectrum modulo cut equivalence, packaged as a finite MV-algebra.

    On a finite algebra every class is a single member.  A finite MV-algebra
    is a product of Łukasiewicz chains (Cignoli, D'Ottaviano and Mundici,
    2000), so L/P is a finite chain and PSpec(P) is that chain's prime
    filters, where cut equivalence is equality (``equiv:discrete``).  The
    dense chain's classes of many cuts live in ``densechain.hat_class``.

    ``representatives`` lists the members ascending in the class order (so
    index 0 is the zero class and the last index the one class).  ``as_mv``
    encodes x⊕y := x⁺⊸y with negation ⁺, and is certified by the same axiom
    checker used for raw table algebras; its →, ¬ and ⊗ are the class-level
    ⊸, ⁺ and ⊗.
    """

    spectrum: PrimeSpectrum
    representatives: tuple[int, ...]  # the one member of each class
    as_mv: MvAlgebra

    def class_of(self, f_mask: int) -> int:
        if f_mask not in self.representatives:
            raise InvalidArgument("filter is not a spectrum member")
        return self.representatives.index(f_mask)


def build_hat(spec: PrimeSpectrum, sqto, plus) -> HatAlgebra:
    """The certified derived algebra on PSpec(P)/≡, from ⊸ and ⁺.

    ``sqto`` maps two masks to F ⊸ G and ``plus`` one mask to its ⁺:
    ``verify.Ctx`` hands it the run's caches, and a cold caller
    ``partial(calculus.sqto, a)`` and ``partial(calculus.set_plus, a)``.
    F⊸G is read once for each ordered pair of members.  [F] ≤ [G] iff
    F⊸G = P, which must be a total order on the members (antisymmetric,
    since cut equivalence is equality here).
    """
    if not spec.members:
        raise InvalidArgument("cannot build the derived algebra of an empty spectrum")
    a, p, members = spec.algebra, spec.p_mask, spec.members
    n = len(members)
    table = [[sqto(f, g) for g in members] for f in members]
    for i in range(n):
        for j in range(n):
            if not (table[i][j] == p or table[j][i] == p):
                raise InvariantViolation("class order is not total")
            if i != j and table[i][j] == table[j][i] == p:
                raise InvariantViolation("distinct members are cut-equivalent")

    # ascending class order: the zero class lies below every member
    order = sorted(range(n), key=lambda i: table[i].count(p), reverse=True)
    reps = tuple(members[i] for i in order)
    position = {f: c for c, f in enumerate(reps)}

    def class_of(mask: int) -> int:
        if mask not in position:
            raise InvariantViolation(
                f"operation left the spectrum: {a.label_set(mask)}"
            )
        return position[mask]

    sqto_table = tuple(tuple(class_of(table[i][j]) for j in order) for i in order)
    plus_table = tuple(class_of(plus(r)) for r in reps)
    oplus = tuple(
        tuple(sqto_table[plus_table[i]][j] for j in range(n)) for i in range(n)
    )
    labels = tuple(a.label_set(r) for r in reps)
    as_mv = MvAlgebra(n, oplus, plus_table, 0,
                      name=f"hat({a.name};{a.label_set(p)})",
                      labels=labels)
    failures = check_mv_axioms(as_mv)
    if failures:
        raise InvariantViolation(f"derived algebra fails MV axioms: {failures}")
    if not is_linear(as_mv):
        raise InvariantViolation("derived algebra is not linearly ordered")
    # the top class holds the inclusion-least member (P itself)
    if reps[-1] != min(members, key=int.bit_count):
        raise InvariantViolation("top class misses the inclusion-least filter")
    return HatAlgebra(spec, reps, as_mv)


def hat_otimes(h: HatAlgebra, x: int, y: int) -> int:
    """Class-level ⊗, read off ``as_mv``; ``prop:T-phi`` checks it against T."""
    return h.as_mv.otimes[x][y]


def iota(h: HatAlgebra, q: QuotientAlgebra, subordinate) -> tuple[int, ...]:
    """ι: the P-coset of a ↦ the class of the subordinate of P at a.

    ``q`` is the quotient by the spectrum base P, and ``subordinate(F, x)``
    gives F_x: ``verify.Ctx`` hands it the run's cache, and a cold caller
    ``partial(calculus.subordinate, a)``.  For the top coset the
    subordinate is empty; its class is the top class (the inclusion-least
    filter P).  ``thm:iota`` checks the closure identities and surjectivity.
    """
    p_mask = h.spectrum.p_mask
    if q.filter_mask != p_mask:
        raise InvalidArgument("quotient must be taken at the spectrum base")
    subs = (subordinate(p_mask, rep) for rep in q.representatives)
    return tuple(h.as_mv.one if s == 0 else h.class_of(s) for s in subs)


def hat_eta(h: HatAlgebra, q: QuotientAlgebra, kernel) -> tuple[int, ...]:
    """η̂: each class ↦ the Q-coset on the boundary of its representative.

    ``q`` is the quotient by Q, which must properly contain the spectrum base
    P and be prime or improper, so ``q.quotient`` is a chain (of one point
    for the improper Q).  ``kernel`` maps a mask to its K, as ``iota`` takes
    F_x: the run's cache or ``partial(calculus.kernel, a)``.  Each boundary
    coset is read off ``q``'s cosets, so L is not partitioned again.
    ``thm:hat-eta`` checks the map against each representative's boundary
    coset and that it preserves ⁺ and ⊸.
    """
    a = h.spectrum.algebra
    p_mask, q_mask = h.spectrum.p_mask, q.filter_mask
    if not (p_mask & ~q_mask == 0 and p_mask != q_mask):
        raise InvalidArgument("needs P properly contained in Q")
    if not is_linear(q.quotient):
        raise InvalidArgument("Q must be prime (or improper)")
    return tuple(
        q.cosets.index(calculus.boundary_coset(a, rep, kernel(rep), q))
        for rep in h.representatives
    )
