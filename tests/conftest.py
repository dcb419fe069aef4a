import pytest

from mvfilters import make_lukasiewicz_chain, run_finite
from mvfilters.core import make_product


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


def drop_lowest(real):
    """real, with the lowest member of each mask it returns dropped."""
    def corrupted(*args):
        m = real(*args)
        return m & (m - 1)

    return corrupted


def assert_check_can_fail(monkeypatch, a, stmt, owner, name, corrupt):
    """stmt passes on a, and fails on a fresh run once owner.name is corrupted."""
    assert run_finite(a, only=[stmt]).results[0].status == "pass"
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    assert run_finite(a, only=[stmt]).results[0].status == "fail"


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
