from fractions import Fraction

import pytest

import mvfilters as mv
from mvfilters import InvalidArgument

from conftest import CHAINS, PRODUCTS, find_isomorphism


def test_chain_construction(l4):
    assert l4.size == 4
    assert l4.zero == 0 and l4.one == 3
    assert l4.labels == ("0", "1/3", "2/3", "1")
    # truncated addition and involutive negation
    assert l4.oplus[1][1] == 2  # 1/3 ⊕ 1/3 = 2/3
    assert l4.oplus[2][2] == 3  # 2/3 ⊕ 2/3 = 1
    assert l4.neg[1] == 2


def test_chain_derived_tables(l4):
    assert l4.otimes[2][2] == 1  # 2/3 ⊗ 2/3 = 1/3
    assert l4.imp[2][1] == 2  # 2/3 → 1/3 = 2/3
    assert l4.join[1][2] == 2
    assert l4.meet[1][2] == 1
    assert l4.leq(1, 2) and not l4.leq(2, 1)


def test_too_small_chain_rejected():
    with pytest.raises(InvalidArgument):
        mv.make_lukasiewicz_chain(1)


def test_axioms_hold_everywhere(algebra):
    report = mv.check_mv_axioms(algebra)
    assert report.ok, report.failures


def test_axiom_checker_catches_corruption():
    l2 = CHAINS[2]
    # break commutativity/identity: 1 ⊕ 0 := 0
    bad = mv.MvAlgebra(2, ((0, 1), (0, 1)), (1, 0), 0)
    report = mv.check_mv_axioms(bad)
    assert not report.ok
    assert report.failures
    assert mv.check_mv_axioms(l2).ok


def test_is_linear(algebra):
    expected = any(algebra is c for c in CHAINS.values())
    assert mv.is_linear(algebra) == expected


def test_product_order_is_componentwise(l2xl3):
    a = l2xl3
    # (0,1) and (1,0) are incomparable
    i01 = a.labels.index("(0,1)")
    i10 = a.labels.index("(1,0)")
    assert not a.leq(i01, i10) and not a.leq(i10, i01)
    assert mv.check_mv_axioms(a).ok


def test_quotient_by_one_is_identity(algebra):
    q = mv.quotient_by(algebra, algebra.one_mask)
    assert q.quotient.size == algebra.size
    assert q.quotient.oplus == algebra.oplus
    assert q.quotient.neg == algebra.neg
    assert q.coset_of == tuple(range(algebra.size))


def test_quotient_of_product_is_chain(l2xl3):
    a = l2xl3
    # congruence of the second-coordinate projection: filter {(1,y)}
    p = mv.mask_of(i for i, lab in enumerate(a.labels) if lab.startswith("(1,"))
    q = mv.quotient_by(a, p)
    assert q.quotient.size == 2
    iso = find_isomorphism(q.quotient, CHAINS[2])
    assert iso is not None


def test_quotient_rejects_non_implication_filter(l3):
    with pytest.raises(InvalidArgument):
        mv.quotient_by(l3, l3.up_mask[1])  # {1/2, 1} is not MP-closed


def test_eta_is_homomorphism(algebra):
    for p in mv.enumerate_implication_filters(algebra):
        q = mv.quotient_by(algebra, p)
        qa, eta = q.quotient, q.coset_of
        for x in range(algebra.size):
            assert eta[algebra.neg[x]] == qa.neg[eta[x]]
            for y in range(algebra.size):
                assert eta[algebra.oplus[x][y]] == qa.oplus[eta[x]][eta[y]]


def test_find_isomorphism_positive_negative():
    assert find_isomorphism(CHAINS[4], mv.make_lukasiewicz_chain(4)) is not None
    assert find_isomorphism(CHAINS[4], CHAINS[5]) is None
    # same size, non-isomorphic: Ł_4 vs Ł_2 × Ł_2
    four = mv.make_product(CHAINS[2], CHAINS[2])
    assert find_isomorphism(CHAINS[4], four) is None


def test_labels_are_exact_fractions():
    l5 = CHAINS[5]
    assert [Fraction(lab) for lab in l5.labels] == [
        Fraction(k, 4) for k in range(5)
    ]
