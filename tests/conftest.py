import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import strategies as st

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


def census(cap=64):
    """Every multiset n₁ ≥ … ≥ n_k ≥ 2 of chain sizes with product ≤ cap:
    the finite MV-algebras of 2 to cap elements, up to isomorphism."""
    def rec(prefix, size, largest):
        if prefix:
            yield prefix
        for n in range(min(largest, cap // size), 1, -1):
            yield from rec(prefix + (n,), size * n, n)

    return list(rec((), 1, cap))


# a non-involutive negation: not an MV-algebra; also the table CI hands to verify
BAD_TABLE = {"kind": "table", "size": 3, "oplus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
             "neg": [2, 2, 0], "zero": 0}
BAD = MvAlgebra(
    BAD_TABLE["size"], tuple(map(tuple, BAD_TABLE["oplus"])),
    tuple(BAD_TABLE["neg"]), BAD_TABLE["zero"], name="bad",
)

SPECS = Path(__file__).resolve().parent.parent / "perfbench" / "specs"


@st.composite
def arbitrary_tables(draw):
    """A table with element indices as entries and no axiom asked of it."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=0, max_value=n - 1)
    return MvAlgebra(
        n,
        tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)),
        tuple(draw(entry) for _ in range(n)),
        draw(entry),
    )


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


def plus_after(a):
    """The ⊸ mutant on a that returns (F⊸G)⁺ instead of F⊸G."""
    def corrupt(real):
        def corrupted(*args):
            return calculus.set_plus(a, real(*args))

        return corrupted

    return corrupt


def with_own_element(real):
    """subordinate, with x itself added to F_x."""
    def corrupted(first, f, x):
        return real(first, f, x) | 1 << x

    return corrupted


def assert_check_can_fail(monkeypatch, a, stmt, owner, name, corrupt):
    """stmt passes on a, and fails on a fresh run once owner.name is replaced
    by corrupt(owner.name)."""
    assert run_finite(a, only=[stmt]).results[0].status == "pass"
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
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


def collapse_closed_pairs(real):
    """cut_sqto with every closed–closed pair sent to {1}."""
    def mutated(f, g):
        if f.kind is dc.Kind.CLOSED and g.kind is dc.Kind.CLOSED:
            return dc.TOP
        return real(f, g)

    return mutated


def shifted_endpoint(real, step):
    """real, with the endpoint of each value moved by step: down where it can."""
    def corrupted(*args):
        c = real(*args)
        e = c.endpoint
        return dc.Cut(e - step if e >= step else e + step, c.kind)

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
