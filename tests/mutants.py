"""Every mutant of the suite, defined once, and the table of what kills it.

A function mutant is ``MUTANTS[name] = (owner, attribute, corruption)``:
``corruption(real, a)`` is put in place of ``owner.attribute``, given the
real function and the algebra under test (None on the dense chain).  The
owner may be a class: ``meet-one-one`` replaces the method
``MvAlgebra.meet``, so it reaches every algebra of a run, quotients
included.  A table mutant is ``TABLE_MUTANTS[name]``, which maps an
algebra to a copy with one named table entry changed and every other table
kept.  ∨ and ∧ have no table; ``meet`` reads ¬, so ``neg-entry`` reaches
∧ too.  ``none``
names the unmutated program.  Tests name mutants and never define their
own: ``mutated(name, a)`` hands them the algebra to run with the mutant in
force, ``report(name, algebra_id)`` the run itself.

``KILLS[(statement, mutant)]`` is the worst status and the failing witness
count of statement under mutant: a finite statement over every algebra of
``conftest.ALL_ALGEBRAS`` under each finite mutant, a dense one over
``run_dense`` under each dense mutant.  Every pair not listed passes or
skips.  ``tests/test_report_digests.py::test_kill_table`` computes the
table; when a change of it is intended, run
``PYTHONPATH=src python tests/mutants.py``, which prints the current table
in the form of ``KILLS``, and paste it over the old one.

Every statement has a killer.  Three entries need a word:

- ``identity:otimes-imp`` reads no program function, only the ⊗, → and ¬
  tables that ``MvAlgebra`` builds by definition, so no function mutant
  reaches it.  A table mutant, which changes one table of a copy and keeps
  the others, does: ``otimes-entry`` alone, ``neg-entry`` together with
  ``axioms:mv``.
- ``prop:inclOne``'s two sides, ``Ctx.sqto(F, G)`` for G ⊆ F and
  ``Ctx.kernel(G)``, make the one call ``calculus.kernel_rel(a, G, L∖G)``,
  so a mutant of ``kernel_rel`` or of the →-columns moves both alike and
  passes it.  Only mutants of ``sqto`` or ``kernel`` alone kill it.
- ``phi-swap`` kills nothing: an equivalent mutant.  Φ commutes on every
  pair of lattice filters of the test algebras, and no statement applies
  it elsewhere.

Two mutants are there to reach a witness branch that no other one does:
``down_closure_joins-add-top`` reaches ``fact:e``'s "closure escaped the
complement", and ``j_up-full`` reaches ``prop:small``'s "not minimal", each
on all ten test algebras.

``SCANNED[statement]`` lists the mutants under which a statement and its
scan in ``tests/scans.py`` must agree.
"""

import copy
from contextlib import contextmanager
from fractions import Fraction as F
from functools import cache, reduce
from operator import or_

import pytest

import mvfilters as mv
from mvfilters import calculus, core, densechain as dc, filters, spectra, verify

from conftest import ALL_ALGEBRAS

# ---------------------------------------------------------------------------
# corruptions of one function: corruption(real, a) -> its replacement


def drop_lowest(real, a):
    """real, with the lowest member of each mask it returns dropped."""
    def corrupted(*args):
        m = real(*args)
        return m & (m - 1)

    return corrupted


def swap_arguments(real, a):
    """real(first, f, g, ...) with its two mask arguments exchanged."""
    def corrupted(first, f, g, *rest):
        return real(first, g, f, *rest)

    return corrupted


def plus_after(real, a):
    """⊸ returning (F⊸G)⁺ on a instead of F⊸G."""
    def corrupted(*args):
        return calculus.set_plus(a, real(*args))

    return corrupted


def with_own_element(real, a):
    """subordinate, with x itself added to F_x."""
    def corrupted(first, f, x):
        return real(first, f, x) | 1 << x

    return corrupted


def negate(real, a):
    """The predicate real, negated."""
    def corrupted(*args):
        return not real(*args)

    return corrupted


def without_first_prime(real, a):
    """enumerate_lattice_filters, with the first prime lattice filter left
    out of the prime list."""
    def corrupted(b, prime_only=False):
        out = real(b, prime_only)
        return out[1:] if prime_only else out

    return corrupted


def minimal_for_maximal(real, a):
    """enumerate_implication_filters, listing the minimal proper implication
    filters as the prime ones instead of the maximal proper ones."""
    def corrupted(b, prime_only=False):
        out = real(b)
        if prime_only:
            out = [m for m in out if m != b.full_mask]
            out = [m for m in out if not any(o != m and o & ~m == 0 for o in out)]
        return out

    return corrupted


def absent(real, a):
    """successor_structure, reporting that no successor structure exists."""
    return lambda b: None


def pred_fixes_everything(real, a):
    """successor_structure with ⊖c sending every element to itself."""
    def corrupted(b):
        c, succ, pred = real(b)
        return c, succ, {x: x for x in pred}

    return corrupted


def with_top(real, a):
    """down_closure_joins, with the top element 1 added to every closure."""
    return lambda b, mask: real(b, mask) | b.one_mask


def every_coset(real, a):
    """j_up, returning the union of every coset for a nonempty F."""
    def corrupted(cosets, f):
        return reduce(or_, cosets, 0) if f else real(cosets, f)

    return corrupted


def one_one_to_zero(real, a):
    """MvAlgebra.meet, with 1∧1 = 0."""
    def corrupted(b, x, y):
        return b.zero if x == y == b.one else real(b, x, y)

    return corrupted


def no_top_generator(real, a):
    """principal_generator, returning None on the filter {1} = ↑1."""
    def corrupted(b, mask):
        g = real(b, mask)
        return None if g == b.one else g

    return corrupted


def next_class(real, a):
    """A derived-algebra operation, its class moved to the next one."""
    return lambda h, x, y: (real(h, x, y) + 1) % h.as_mv.size


def shifted_classes(real, a):
    """A map into classes, every class moved up by one."""
    return lambda *args: tuple(v + 1 for v in real(*args))


def constant(real, a):
    """A map into classes, sending everything to class 0."""
    return lambda *args: (0,) * len(real(*args))


def phi_swapped(real, a):
    """The ``Ctx`` class real, with a ``phi`` cache that swaps its arguments."""
    class Swapped(real):
        def __init__(self, b):
            super().__init__(b)
            phi = self.phi
            self.phi = lambda f, g: phi(g, f)

    return Swapped


def quotient_sqto_dropped_at_one(real, a):
    """The ``Ctx`` class real, whose quotient-side ⊸ drops its lowest member
    at P = {1} only."""
    class Corrupted(real):
        def __init__(self, b):
            super().__init__(b)
            quotient_sqto = self.quotient_sqto

            def corrupted(p, fq, gq):
                m = quotient_sqto(p, fq, gq)
                return m & (m - 1) if p == b.one_mask else m

            self.quotient_sqto = corrupted

    return Corrupted


def flip_kind(s):
    """The kind of the cut s flipped, unless that would leave the proper cuts."""
    flipped = dc.Cut(s.endpoint, dc.Kind.OPEN if s.kind is dc.Kind.CLOSED
                     else dc.Kind.CLOSED)
    return flipped if flipped.is_proper else s


# cut_sqto's three kind branches, as conditions on its arguments
KIND_BRANCHES = {
    "closed-target": lambda f, g: g.kind is dc.Kind.CLOSED,
    "closed-meet": lambda f, g: g.kind is dc.Kind.OPEN
    and dc.intersect(f, g).kind is dc.Kind.CLOSED,
    "open-meet": lambda f, g: g.kind is dc.Kind.OPEN
    and dc.intersect(f, g).kind is dc.Kind.OPEN,
}


def branch_flipped(branch):
    """The corruption of cut_sqto that flips the kind of its value on every
    pair that takes branch."""
    hits = KIND_BRANCHES[branch]

    def corrupt(real, a):
        def corrupted(f, g):
            s = real(f, g)
            return flip_kind(s) if not g.issubset(f) and hits(f, g) else s

        return corrupted

    return corrupt


def kind_flipped(real, a):
    """A cut operation with the kind of every value flipped."""
    return lambda *args: flip_kind(real(*args))


def collapse_closed_pairs(real, a):
    """cut_sqto with every closed–closed pair sent to {1}."""
    def corrupted(f, g):
        if f.kind is dc.Kind.CLOSED and g.kind is dc.Kind.CLOSED:
            return dc.TOP
        return real(f, g)

    return corrupted


def shifted_endpoint(step):
    """The corruption that moves the endpoint of each value by step: down
    where it can."""
    def corrupt(real, a):
        def corrupted(*args):
            c = real(*args)
            e = c.endpoint
            return dc.Cut(e - step if e >= step else e + step, c.kind)

        return corrupted

    return corrupt


MUTANTS = {
    f"{name}-drop": (owner, name, drop_lowest)
    for owner, name in [
        (calculus, "sqto"), (calculus, "kernel"), (calculus, "kernel_rel"),
        (calculus, "subordinate"), (calculus, "set_plus"), (calculus, "j_up"),
        (calculus, "j_down"), (calculus, "sqto_full"), (calculus, "phi"),
        (calculus, "tensor_up"), (calculus, "boundary_coset"),
        (filters, "down_closure_joins"), (core.QuotientAlgebra, "preimage_mask"),
    ]
} | {
    "sqto-swap": (calculus, "sqto", swap_arguments),
    "sqto-swap-drop": (
        calculus, "sqto", lambda real, a: drop_lowest(swap_arguments(real, a), a)
    ),
    "sqto-plus-after": (calculus, "sqto", plus_after),
    "subordinate-own-element": (calculus, "subordinate", with_own_element),
    "is_convex-not": (calculus, "is_convex", negate),
    "down_closure_joins-add-top": (filters, "down_closure_joins", with_top),
    "j_up-full": (calculus, "j_up", every_coset),
    "meet-one-one": (core.MvAlgebra, "meet", one_one_to_zero),
    "enumerate_lattice_filters-first-prime-lost": (
        filters, "enumerate_lattice_filters", without_first_prime
    ),
    "enumerate_implication_filters-minimal": (
        filters, "enumerate_implication_filters", minimal_for_maximal
    ),
    "successor_structure-absent": (filters, "successor_structure", absent),
    "successor_structure-pred-fixed": (
        filters, "successor_structure", pred_fixes_everything
    ),
    "principal_generator-no-top": (filters, "principal_generator", no_top_generator),
    "hat_otimes-next-class": (spectra, "hat_otimes", next_class),
    "hat_eta-shift": (spectra, "hat_eta", shifted_classes),
    "iota-constant": (spectra, "iota", constant),
    "phi-swap": (verify, "Ctx", phi_swapped),
    "quotient_sqto-drop-at-one": (verify, "Ctx", quotient_sqto_dropped_at_one),
} | {
    # the dense chain's
    **{b: (dc, "cut_sqto", branch_flipped(b)) for b in KIND_BRANCHES},
    "plus-flipped": (dc, "cut_plus", kind_flipped),
    "sqto-off-grid": (dc, "cut_sqto", shifted_endpoint(F(1, 1000))),
    "sqto-one-step": (dc, "cut_sqto", shifted_endpoint(F(1, 12))),
    "plus-off-grid": (dc, "cut_plus", shifted_endpoint(F(1, 1000))),
    "plus-one-step": (dc, "cut_plus", shifted_endpoint(F(1, 12))),
    "collapse-closed-pairs": (dc, "cut_sqto", collapse_closed_pairs),
    "sqto-swapped": (dc, "cut_sqto", lambda real, a: lambda f, g: real(g, f)),
}

# ---------------------------------------------------------------------------
# table mutants

ONE_LINE = ("neg", "up_mask", "down_mask")


def entry_changed(a, table, line, pos, value):
    """A copy of a whose table ``table`` holds value at entry pos of line
    ``line``, every other table kept.  ``neg``, ``up_mask`` and
    ``down_mask`` are one line, 0; a byte table is indexed as stored, each
    line reversed."""
    b = copy.copy(a)
    lines = (getattr(a, table),) if table in ONE_LINE else getattr(a, table)
    old = lines[line]
    new = type(old)([*old[:pos], value, *old[pos + 1:]])
    lines = (*lines[:line], new, *lines[line + 1:])
    object.__setattr__(b, table, lines[0] if table in ONE_LINE else lines)
    return b


def every_entry_changed(a, table):
    """Every copy of a with one entry of its element table ``table`` changed
    to another element, every other table kept."""
    lines = (getattr(a, table),) if table in ONE_LINE else getattr(a, table)
    for i, line in enumerate(lines):
        for pos, old in enumerate(line):
            for v in range(a.size):
                if v != old:
                    yield entry_changed(a, table, i, pos, v)


def order_dual(a):
    """A copy of a with ↑x and ↓x swapped: the masks of the dual order,
    which is a partial order too."""
    b = copy.copy(a)
    object.__setattr__(b, "up_mask", a.down_mask)
    object.__setattr__(b, "down_mask", a.up_mask)
    return b


TABLE_MUTANTS = {
    # ¬1 = 1 and 1⊗1 = 0
    "neg-entry": lambda a: entry_changed(a, "neg", 0, a.one, a.one),
    "otimes-entry": lambda a: entry_changed(a, "otimes", a.one, a.one, a.zero),
    "order-dual": order_dual,
}

DENSE = sorted(name for name, (owner, _, _) in MUTANTS.items() if owner is dc)
FINITE = sorted(name for name in MUTANTS | TABLE_MUTANTS if name not in DENSE)


@contextmanager
def mutated(name, a=None):
    """The algebra to run with mutant ``name`` in force: a's changed copy
    under a table mutant, else a itself, with the function mutant patched in
    until the block ends."""
    if name in TABLE_MUTANTS:
        yield TABLE_MUTANTS[name](a)
        return
    with pytest.MonkeyPatch.context() as m:
        if name != "none":
            owner, attribute, corruption = MUTANTS[name]
            m.setattr(owner, attribute, corruption(getattr(owner, attribute), a))
        yield a


@cache
def report(name, algebra_id=None):
    """The report under mutant ``name``: ``run_finite`` on
    ``ALL_ALGEBRAS[algebra_id]``, or ``run_dense`` when algebra_id is None.
    Kept for the session, so the kill table, the digests and the tests that
    read one statement share one run; so it must not be called under a patch
    of the caller's own."""
    with mutated(name, ALL_ALGEBRAS.get(algebra_id)) as b:
        return mv.run_dense() if algebra_id is None else mv.run_finite(b)


def result(name, algebra_id, stmt):
    """The result of stmt in ``report(name, algebra_id)``."""
    (r,) = (r for r in report(name, algebra_id).results if r.id == stmt)
    return r


def kills(name, algebra_id, stmt):
    """stmt passes unmutated on the algebra and fails under mutant name."""
    return (result("none", algebra_id, stmt).status,
            result(name, algebra_id, stmt).status) == ("pass", "fail")


def kill_table():
    """(statement, mutant) -> (worst status, failing witnesses), over every
    pair in which some run fails or raises."""
    table = {}
    for stmts, names, runs in [
        (verify.FINITE_STATEMENTS, FINITE, list(ALL_ALGEBRAS)),
        (verify.DENSE_STATEMENTS, DENSE, [None]),
    ]:
        for stmt in stmts:
            for name in names:
                results = [result(name, i, stmt) for i in runs]
                statuses = {r.status for r in results}
                if statuses & {"fail", "error"}:
                    table[stmt, name] = (
                        "error" if "error" in statuses else "fail",
                        sum(len(r.witnesses) for r in results if r.status == "fail"),
                    )
    return table


# The scans compare a statement with the loop it replaced under these
# mutants.  K without its lowest member is no implication filter, so fact:d
# raises when it takes the quotient by it.  j_down-drop loses a candidate H
# of prop:large and so changes its "not maximal" witnesses.  Under
# sqto-drop some nested ⊸ values, and under sqto-swap-drop all of them,
# leave the prime list, so prop:axiomC's fallback to ctx.sqto runs; its
# witnesses under sqto-swap-drop come through that fallback.
_COVER_PAIRS = ("none", "sqto-plus-after", "sqto-drop", "subordinate-drop",
                "subordinate-own-element", "kernel-drop")
_J = ("none", "kernel-drop", "j_up-drop", "set_plus-drop", "j_down-drop")
_SQTO_MATRIX = ("none", "sqto-drop", "sqto-swap", "sqto-swap-drop")
SCANNED = {
    "prop:monotone": _COVER_PAIRS, "prop:revIncl": _COVER_PAIRS, "fact:d": _COVER_PAIRS,
    "prop:small": _J, "prop:large": _J,
    "prop:axiomC": _SQTO_MATRIX, "prop:adjunction": _SQTO_MATRIX,
} | dict.fromkeys(["dense:closed-forms", "dense:trans", "dense:separation"],
                  ("none", *DENSE))


def _pairs(rows):
    return {(stmt, name): kill for stmt, row in rows.items() for name, kill in row.items()}


KILLS = _pairs({
    "axioms:mv": {"neg-entry": ("fail", 81)},
    "order:partial": {"order-dual": ("fail", 116)},
    "identity:otimes-imp": {"neg-entry": ("fail", 428), "otimes-entry": ("fail", 20)},
    "enum:crosscheck": {"enumerate_implication_filters-minimal": ("fail", 3),
        "enumerate_lattice_filters-first-prime-lost": ("fail", 10),
        "meet-one-one": ("fail", 20), "neg-entry": ("fail", 6), "order-dual": ("fail", 16)},
    "impl:lattice-otimes": {"meet-one-one": ("fail", 20), "otimes-entry": ("fail", 20)},
    "fact:a": {"sqto_full-drop": ("fail", 123), "subordinate-drop": ("fail", 123),
        "subordinate-own-element": ("fail", 130)},
    "fact:b": {"kernel_rel-drop": ("fail", 123), "sqto_full-drop": ("fail", 123),
        "subordinate-drop": ("fail", 123), "subordinate-own-element": ("fail", 123)},
    "fact:c": {"kernel-drop": ("fail", 38), "kernel_rel-drop": ("fail", 38),
        "sqto_full-drop": ("fail", 38)},
    "fact:d": {"kernel-drop": ("error", 0), "kernel_rel-drop": ("error", 0),
        "neg-entry": ("error", 0), "subordinate-own-element": ("fail", 84)},
    "fact:e": {"down_closure_joins-add-top": ("fail", 123),
        "down_closure_joins-drop": ("fail", 123), "sqto_full-drop": ("fail", 123),
        "subordinate-drop": ("fail", 123), "subordinate-own-element": ("fail", 130)},
    "fact:subord-monotone": {"subordinate-own-element": ("fail", 380)},
    "prop:SubAEq": {"subordinate-drop": ("fail", 67),
        "subordinate-own-element": ("fail", 33)},
    "prop:subord-prime": {"enumerate_lattice_filters-first-prime-lost": ("fail", 26),
        "order-dual": ("fail", 123), "subordinate-drop": ("fail", 39),
        "subordinate-own-element": ("fail", 102)},
    "prop:plus-involution": {"set_plus-drop": ("fail", 6), "subordinate-drop": ("fail", 6),
        "subordinate-own-element": ("fail", 38)},
    "kernel:inside": {"kernel-drop": ("fail", 52), "kernel_rel-drop": ("fail", 52),
        "order-dual": ("fail", 48)},
    "kernel:prime-iff": {"enumerate_implication_filters-minimal": ("fail", 17),
        "enumerate_lattice_filters-first-prime-lost": ("fail", 10),
        "kernel-drop": ("fail", 38), "kernel_rel-drop": ("fail", 38),
        "order-dual": ("fail", 38)},
    "prop:fastform": {"kernel_rel-drop": ("fail", 174), "sqto-drop": ("fail", 174),
        "sqto-plus-after": ("fail", 152), "sqto-swap": ("fail", 136),
        "sqto-swap-drop": ("fail", 153), "sqto_full-drop": ("fail", 174)},
    "prop:incl": {"order-dual": ("fail", 174), "sqto-plus-after": ("fail", 101),
        "sqto-swap": ("fail", 55), "sqto-swap-drop": ("fail", 36)},
    "prop:inclOne": {"kernel-drop": ("fail", 97), "sqto-drop": ("fail", 97),
        "sqto-plus-after": ("fail", 92), "sqto-swap": ("fail", 59),
        "sqto-swap-drop": ("fail", 76)},
    "prop:monotone": {"sqto-plus-after": ("fail", 129)},
    "prop:revIncl": {"sqto-plus-after": ("fail", 129)},
    "prop:plus": {"set_plus-drop": ("fail", 41), "subordinate-drop": ("fail", 41),
        "subordinate-own-element": ("fail", 28)},
    "prop:OneOne": {"kernel-drop": ("fail", 28), "kernel_rel-drop": ("fail", 38),
        "order-dual": ("fail", 38), "sqto-drop": ("fail", 38),
        "sqto-plus-after": ("fail", 30), "sqto-swap": ("fail", 24),
        "sqto-swap-drop": ("fail", 38)},
    "prop:adjunction": {"sqto-plus-after": ("fail", 166), "sqto-swap": ("fail", 118)},
    "prop:axiomC": {"sqto-plus-after": ("fail", 258), "sqto-swap": ("fail", 258),
        "sqto-swap-drop": ("fail", 6)},
    "lem:FFg": {"kernel_rel-drop": ("fail", 41), "sqto-drop": ("fail", 41),
        "sqto-swap": ("fail", 59), "sqto-swap-drop": ("fail", 97)},
    "cor:sqto-triple": {"sqto-plus-after": ("fail", 35), "sqto-swap-drop": ("fail", 13)},
    "prop:phi": {"phi-drop": ("fail", 384), "set_plus-drop": ("fail", 287),
        "sqto_full-drop": ("fail", 184), "subordinate-drop": ("fail", 287),
        "subordinate-own-element": ("fail", 384)},
    "prop:small": {"j_up-drop": ("fail", 194), "j_up-full": ("fail", 211),
        "kernel-drop": ("fail", 130), "kernel_rel-drop": ("fail", 130),
        "neg-entry": ("error", 0), "order-dual": ("error", 0)},
    "prop:large": {"j_down-drop": ("fail", 97), "j_up-drop": ("fail", 164),
        "j_up-full": ("fail", 67), "kernel-drop": ("fail", 58),
        "kernel_rel-drop": ("fail", 58), "neg-entry": ("error", 0),
        "order-dual": ("error", 0), "set_plus-drop": ("fail", 80),
        "subordinate-drop": ("fail", 80), "subordinate-own-element": ("fail", 261)},
    "prop:Ju-kernel": {"j_up-drop": ("fail", 68), "kernel-drop": ("fail", 59),
        "kernel_rel-drop": ("fail", 59), "neg-entry": ("error", 0)},
    "lem:Jd-lower": {"j_down-drop": ("fail", 38), "j_up-full": ("fail", 97),
        "kernel-drop": ("error", 0), "kernel_rel-drop": ("error", 0),
        "neg-entry": ("error", 0), "order-dual": ("fail", 97),
        "set_plus-drop": ("fail", 10), "subordinate-drop": ("fail", 10),
        "subordinate-own-element": ("fail", 97)},
    "thm:reduction": {"j_down-drop": ("fail", 172), "j_up-drop": ("fail", 304),
        "j_up-full": ("fail", 350), "kernel-drop": ("error", 0),
        "kernel_rel-drop": ("error", 0), "neg-entry": ("error", 0),
        "order-dual": ("fail", 291), "set_plus-drop": ("fail", 39),
        "subordinate-drop": ("fail", 39), "subordinate-own-element": ("fail", 291)},
    "prop:quot-commute": {"kernel_rel-drop": ("fail", 145), "neg-entry": ("error", 168),
        "order-dual": ("error", 0), "preimage_mask-drop": ("fail", 165),
        "quotient_sqto-drop-at-one": ("fail", 323), "sqto-drop": ("fail", 365),
        "sqto-plus-after": ("fail", 482), "sqto-swap": ("fail", 279),
        "sqto-swap-drop": ("fail", 506), "sqto_full-drop": ("fail", 570)},
    "thm:kernel-sqto": {"kernel_rel-drop": ("fail", 13), "sqto-drop": ("fail", 41),
        "sqto-swap-drop": ("fail", 97)},
    "def:boundary": {"boundary_coset-drop": ("fail", 38), "kernel-drop": ("fail", 40),
        "kernel_rel-drop": ("fail", 40), "neg-entry": ("fail", 38),
        "set_plus-drop": ("error", 0), "subordinate-drop": ("error", 0),
        "subordinate-own-element": ("error", 0)},
    "lem:convex-imp": {"is_convex-not": ("fail", 168)},
    "lem:convex-neg": {"is_convex-not": ("fail", 28), "neg-entry": ("fail", 5)},
    "lem:convex-otimes": {"is_convex-not": ("fail", 168), "otimes-entry": ("fail", 5)},
    "thm:discrete-principal": {"meet-one-one": ("fail", 7), "neg-entry": ("fail", 22),
        "principal_generator-no-top": ("fail", 7),
        "successor_structure-absent": ("fail", 7)},
    "prop:successor": {"neg-entry": ("fail", 1), "successor_structure-absent": ("fail", 7),
        "successor_structure-pred-fixed": ("fail", 28)},
    "equiv:discrete": {"kernel_rel-drop": ("fail", 28), "order-dual": ("fail", 28),
        "sqto-drop": ("fail", 28), "sqto-plus-after": ("fail", 27),
        "sqto-swap-drop": ("fail", 28)},
    "thm:hat": {"enumerate_lattice_filters-first-prime-lost": ("fail", 8),
        "set_plus-drop": ("fail", 14), "sqto-drop": ("fail", 14),
        "sqto-plus-after": ("fail", 9), "sqto-swap": ("fail", 9),
        "sqto-swap-drop": ("fail", 14), "subordinate-drop": ("fail", 14),
        "subordinate-own-element": ("fail", 14)},
    "prop:T-phi": {"enumerate_lattice_filters-first-prime-lost": ("error", 0),
        "hat_otimes-next-class": ("fail", 92), "otimes-entry": ("fail", 7),
        "phi-drop": ("fail", 156), "set_plus-drop": ("error", 0), "sqto-drop": ("error", 0),
        "sqto-plus-after": ("error", 0), "sqto-swap": ("error", 0),
        "sqto-swap-drop": ("error", 0), "sqto_full-drop": ("fail", 97),
        "subordinate-drop": ("error", 0), "subordinate-own-element": ("error", 0),
        "tensor_up-drop": ("fail", 156)},
    "prop:axiomG": {"sqto-drop": ("fail", 97), "sqto-plus-after": ("fail", 92),
        "sqto-swap": ("fail", 59), "sqto-swap-drop": ("fail", 97)},
    "thm:iota": {"enumerate_lattice_filters-first-prime-lost": ("error", 0),
        "iota-constant": ("fail", 9), "neg-entry": ("error", 91),
        "preimage_mask-drop": ("fail", 208), "set_plus-drop": ("error", 0),
        "sqto-drop": ("error", 0), "sqto-plus-after": ("error", 0),
        "sqto-swap": ("error", 0), "sqto-swap-drop": ("error", 0),
        "subordinate-drop": ("error", 0), "subordinate-own-element": ("error", 0)},
    "thm:hat-eta": {"boundary_coset-drop": ("error", 0),
        "enumerate_lattice_filters-first-prime-lost": ("error", 0),
        "hat_eta-shift": ("fail", 14), "set_plus-drop": ("error", 0),
        "sqto-drop": ("error", 0), "sqto-plus-after": ("error", 0),
        "sqto-swap": ("error", 0), "sqto-swap-drop": ("error", 0),
        "subordinate-drop": ("error", 0), "subordinate-own-element": ("error", 0)},
    "thm:composite": {"boundary_coset-drop": ("error", 0),
        "enumerate_lattice_filters-first-prime-lost": ("error", 0),
        "hat_eta-shift": ("fail", 14), "neg-entry": ("error", 0),
        "set_plus-drop": ("error", 0), "sqto-drop": ("error", 0),
        "sqto-plus-after": ("error", 0), "sqto-swap": ("error", 0),
        "sqto-swap-drop": ("error", 0), "subordinate-drop": ("error", 0),
        "subordinate-own-element": ("error", 0)},
    "dense:closed-forms": {"closed-meet": ("fail", 77), "closed-target": ("fail", 121),
        "collapse-closed-pairs": ("fail", 66), "open-meet": ("fail", 66),
        "plus-flipped": ("fail", 22), "plus-off-grid": ("fail", 24),
        "plus-one-step": ("fail", 24), "sqto-off-grid": ("fail", 576),
        "sqto-one-step": ("fail", 576), "sqto-swapped": ("fail", 530)},
    "dense:negate": {"closed-meet": ("fail", 11), "open-meet": ("fail", 11),
        "plus-flipped": ("fail", 22), "plus-off-grid": ("fail", 24),
        "plus-one-step": ("fail", 24), "sqto-off-grid": ("fail", 24),
        "sqto-one-step": ("fail", 24), "sqto-swapped": ("fail", 23)},
    "dense:equiv-thm": {"collapse-closed-pairs": ("fail", 66),
        "sqto-off-grid": ("fail", 311), "sqto-one-step": ("fail", 311),
        "sqto-swapped": ("fail", 530)},
    "dense:separation": {"sqto-one-step": ("fail", 1), "sqto-swapped": ("fail", 1156)},
    "dense:trans": {"collapse-closed-pairs": ("fail", 242)},
    "dense:congruence": {"sqto-off-grid": ("fail", 11), "sqto-one-step": ("fail", 11)},
    "dense:props": {"closed-meet": ("fail", 22), "closed-target": ("fail", 1221),
        "collapse-closed-pairs": ("fail", 1188), "open-meet": ("fail", 198),
        "plus-flipped": ("fail", 154), "plus-off-grid": ("fail", 24),
        "plus-one-step": ("fail", 1), "sqto-off-grid": ("fail", 576),
        "sqto-one-step": ("fail", 2), "sqto-swapped": ("fail", 5584)},
    "dense:kernel": {"sqto-off-grid": ("fail", 24), "sqto-one-step": ("fail", 24)},
    "dense:hat-embed": {"collapse-closed-pairs": ("fail", 77),
        "plus-off-grid": ("fail", 92), "plus-one-step": ("fail", 92),
        "sqto-off-grid": ("fail", 338), "sqto-one-step": ("error", 0),
        "sqto-swapped": ("fail", 312)},
})


def source(table, width=92):
    """table in the source form of ``KILLS``: one row per statement, its
    cells wrapped at width."""
    rows = {}
    for (stmt, name), (status, count) in table.items():
        rows.setdefault(stmt, []).append(f'"{name}": ("{status}", {count})')
    out = ["KILLS = _pairs({"]
    for stmt, cells in rows.items():
        line = f'    "{stmt}": {{'
        for i, cell in enumerate(cells):
            cell += "}," if i == len(cells) - 1 else ","
            if i and len(line) + 1 + len(cell) > width:
                out.append(line)
                line = "       "
            line += cell if i == 0 else " " + cell
        out.append(line)
    return "\n".join([*out, "})"])


if __name__ == "__main__":
    print(source(kill_table()))
