import random
from functools import partial

import pytest

from mvfilters import (
    calculus, core, densechain as dc, make_lukasiewicz_chain, run_finite, spectra,
)
from mvfilters.core import MvAlgebra, make_product, mask_of


def chain(n):
    return make_lukasiewicz_chain(n)


def product(*ns):
    algs = [make_lukasiewicz_chain(n) for n in ns]
    out = algs[0]
    for nxt in algs[1:]:
        out = make_product(out, nxt)
    return out


CHAINS = {n: chain(n) for n in range(2, 9)}
PRODUCTS = {
    "L2xL3": product(2, 3),
    "L3xL3": product(3, 3),
    "L2xL2xL2": product(2, 2, 2),
}
ALL_ALGEBRAS = {f"L{n}": a for n, a in CHAINS.items()} | PRODUCTS


def relabelled(a, perm):
    """a with each element x renamed perm[x]: one algebra, indexed out of order."""
    inv = {u: x for x, u in enumerate(perm)}
    n = a.size
    return MvAlgebra(
        n,
        tuple(tuple(perm[a.oplus[inv[u]][inv[v]]] for v in range(n)) for u in range(n)),
        tuple(perm[a.neg[inv[u]]] for u in range(n)),
        perm[a.zero],
        name=f"{a.name} relabelled",
        labels=tuple(a.labels[inv[u]] for u in range(n)),
    )


def shuffled(a, seed):
    """a relabelled by a permutation drawn from random.Random(seed)."""
    perm = list(range(a.size))
    random.Random(seed).shuffle(perm)
    return relabelled(a, perm)


def find_isomorphism(a, b):
    """Order-matching isomorphism check for linearly ordered algebras.

    Returns the element bijection (as a tuple indexed by a's elements) if the
    ascending-order relabelling is an MV-isomorphism, else None.
    """
    if a.size != b.size:
        return None
    order_a = sorted(range(a.size), key=lambda x: bin(a.up_mask[x]).count("1"),
                     reverse=True)
    order_b = sorted(range(b.size), key=lambda x: bin(b.up_mask[x]).count("1"),
                     reverse=True)
    phi = [0] * a.size
    for xa, xb in zip(order_a, order_b):
        phi[xa] = xb
    if phi[a.zero] != b.zero:
        return None
    for x in range(a.size):
        if phi[a.neg[x]] != b.neg[phi[x]]:
            return None
        for y in range(a.size):
            if phi[a.oplus[x][y]] != b.oplus[phi[x]][phi[y]]:
                return None
    return tuple(phi)


def members(mask):
    """The element indices set in mask, ascending, by a shift loop.

    Test oracles read masks through this loop rather than through
    ``core.iter_mask`` and the C folds, so a fault in those cannot cancel
    out on both sides of a comparison.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def up_closure_loop(a, mask):
    """The smallest up-closed superset of mask: the OR of ↑x over its members."""
    m = 0
    for x in members(mask):
        m |= a.up_mask[x]
    return m


def by_labels(a, *labels):
    """The mask of the elements with these labels."""
    return mask_of(a.labels.index(lab) for lab in labels)


# Φ, sqto_full, the ⊗-row ⊸ and J on freshly built tables, as the cli's
# ``compute`` evaluates them; each looks the calculus function up when called,
# so a mutant of it reaches these too.


def cold_phi(a, f, g):
    return calculus.phi(calculus.rows(a, "imp", g), f)


def cold_sqto_full(a, f, g):
    return calculus.sqto_full(calculus.rows(a, "otimes", g), f, a.full_mask)


def cold_sqto_fast(a, f, g):
    return calculus.sqto_fast(calculus.rows(a, "otimes", g), f, g, a.full_mask)


def cold_j_up(a, f, p):
    return calculus.j_up(core.congruence_cosets(a, p)[2], f)


def cold_j_down(a, f, p):
    cosets = core.congruence_cosets(a, p)[2]
    return calculus.j_down(partial(calculus.set_plus, a), cosets, f)


def cold_spectrum(a, p):
    """PSpec(P) with K cold, as the cli's ``export`` builds it."""
    return spectra.prime_spectrum(a, p, partial(calculus.kernel, a))


def cold_hat(spec):
    """The derived algebra on spec with ⊸ and ⁺ cold, as ``export`` builds it."""
    a = spec.algebra
    return spectra.build_hat(
        spec, partial(calculus.sqto, a), partial(calculus.set_plus, a)
    )


def drop_lowest(real):
    """real, with the lowest member of each mask it returns dropped."""
    def corrupted(*args):
        m = real(*args)
        return m & (m - 1)

    return corrupted


def swap_arguments(real):
    """real(a, f, g, ...) with its two mask arguments exchanged."""
    def corrupted(a, f, g, *rest):
        return real(a, g, f, *rest)

    return corrupted


# The calculus functions that one mutant of each operation corrupts together.
# ``verify.Ctx`` reads ⊸, K and F_x through the column combinators, and hands
# its ⊸ to ``spectra.build_hat``, its K to ``spectra.prime_spectrum`` and
# ``hat_eta``, and its F_x to ``iota``; the second sides of fact:a, fact:b and
# fact:e read the cold ``kernel_rel``, and ⁺ reads the cold ``subordinate``
# (``set_plus`` is it at 0).  So ⊸ and K have no cold reader in a run, and
# their mutants are the combinators'.
CODINGS = {
    "sqto": ("sqto_cols",),
    "kernel": ("kernel_cols",),
    "kernel_rel": ("kernel_cols", "sqto_cols", "kernel_rel"),
    "subordinate": ("subordinate_cols", "subordinate"),
}


def corrupt_each(monkeypatch, owner, names, corrupt):
    """owner.name replaced by corrupt(owner.name), for the one name ``names``
    or for each name of a tuple."""
    for name in (names,) if isinstance(names, str) else names:
        monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))


def assert_check_can_fail(monkeypatch, a, stmt, owner, names, corrupt):
    """stmt passes on a, and fails on a fresh run once owner's ``names`` are
    corrupted (see ``corrupt_each``)."""
    assert run_finite(a, only=[stmt]).results[0].status == "pass"
    corrupt_each(monkeypatch, owner, names, corrupt)
    assert run_finite(a, only=[stmt]).results[0].status == "fail"


def flip_kind(s):
    """The kind of s flipped, unless that would leave the proper cuts."""
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
    """cut_sqto, with the kind of its value flipped on every pair that takes branch."""
    real, hits = dc.cut_sqto, KIND_BRANCHES[branch]

    def mutated(f, g):
        s = real(f, g)
        return flip_kind(s) if not g.issubset(f) and hits(f, g) else s

    return mutated


def plus_flipped():
    """cut_plus, with the kind of every value flipped."""
    real = dc.cut_plus

    def corrupted(f):
        return flip_kind(real(f))

    return corrupted


@pytest.fixture(params=sorted(ALL_ALGEBRAS), ids=sorted(ALL_ALGEBRAS))
def algebra(request):
    return ALL_ALGEBRAS[request.param]


@pytest.fixture
def l3():
    return CHAINS[3]


@pytest.fixture
def l4():
    return CHAINS[4]


@pytest.fixture
def l5():
    return CHAINS[5]


@pytest.fixture
def l2xl3():
    return PRODUCTS["L2xL3"]
