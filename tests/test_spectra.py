from functools import partial

import pytest

import mvfilters as mv
from mvfilters import calculus, core, filters, spectra
from mvfilters.errors import InvalidArgument, InvariantViolation

from conftest import CHAINS, PRODUCTS, chain, cold_hat, cold_spectrum, find_isomorphism


def hat_of_chain(n):
    a = CHAINS[n]
    return cold_hat(cold_spectrum(a, a.one_mask))


def test_spectrum_size_on_chains():
    # every proper filter of a chain is prime with kernel {1}
    for n, a in CHAINS.items():
        spec = cold_spectrum(a, a.one_mask)
        assert len(spec.members) == n - 1
        for f in spec.members:
            assert mv.kernel(a, f) == a.one_mask


def test_spectrum_requires_prime_base(l4):
    with pytest.raises(InvalidArgument):
        cold_spectrum(l4, core.mask_of([1, 2, 3]))  # lattice-only filter


def test_spectrum_refuses_a_proper_non_prime_implication_filter(l2xl3):
    # {1} is an implication filter of L2xL3, but L/{1} is L2xL3 itself,
    # which is not a chain
    a = l2xl3
    assert a.one_mask in filters.enumerate_implication_filters(a)
    assert not core.is_linear(core.quotient_by(a, a.one_mask).quotient)
    with pytest.raises(InvalidArgument, match="prime implication filter"):
        cold_spectrum(a, a.one_mask)


def test_improper_base_gives_empty_spectrum(l4):
    spec = cold_spectrum(l4, l4.full_mask)
    assert len(spec.members) == 0
    with pytest.raises(InvalidArgument):
        cold_hat(spec)


def test_hat_of_chain_is_smaller_chain():
    for n in range(3, 8):
        h = hat_of_chain(n)
        assert h.as_mv.size == n - 1
        assert find_isomorphism(h.as_mv, chain(n - 1)) is not None
        assert h.as_mv.zero == 0 and h.as_mv.one == n - 2


def test_hat_unit_class_holds_base():
    h = hat_of_chain(5)
    a = h.spectrum.algebra
    assert h.representatives[h.as_mv.one] == a.one_mask


def test_class_of_rejects_non_member():
    h = hat_of_chain(4)
    with pytest.raises(InvalidArgument):
        h.class_of(h.spectrum.algebra.full_mask)


def test_hat_otimes_matches_encoded_table():
    for n in (4, 5, 6):
        h = hat_of_chain(n)
        for x in range(h.as_mv.size):
            for y in range(h.as_mv.size):
                # ⊗ is the encoding (x ⊸ y⁺)⁺ in the derived algebra's → and ¬
                ha = h.as_mv
                assert spectra.hat_otimes(h, x, y) == ha.neg[ha.imp[x][ha.neg[y]]]


def test_spectrum_equiv_is_discrete_on_chains():
    h = hat_of_chain(6)
    assert sorted(h.representatives) == sorted(h.spectrum.members)


def test_build_hat_computes_each_sqto_once():
    # build_hat reads the ⊸ it is handed once per ordered pair of members
    for a in (CHAINS[5], PRODUCTS["L2xL3"]):
        for p in filters.enumerate_implication_filters(a, prime_only=True):
            spec = cold_spectrum(a, p)
            if not spec.members:
                continue
            calls = []

            def counted(f, g):
                calls.append((f, g))
                return calculus.sqto(a, f, g)

            spectra.build_hat(spec, counted, partial(calculus.set_plus, a))
            m = len(spec.members)
            assert len(calls) == m ** 2
            assert sorted(calls) == sorted(
                (f, g) for f in spec.members for g in spec.members
            )


def test_build_hat_refuses_cut_equivalent_members(l5):
    # a ⊸ that is P on every pair makes every two members cut-equivalent
    spec = cold_spectrum(l5, l5.one_mask)
    with pytest.raises(InvariantViolation, match="distinct members are cut-equivalent"):
        spectra.build_hat(spec, lambda f, g: spec.p_mask, partial(calculus.set_plus, l5))


def test_build_hat_refuses_a_base_that_is_not_the_least_member(l5):
    # ⊸ and ⁺ relabelled by the swap of {1} with {3/4, 1} still give the
    # chain Ł4, with {3/4, 1} as its unit and top class; a base handed as
    # {3/4, 1} then has the member {1} inside it, which no spectrum of
    # prime_spectrum has (P = K(F) ⊆ F for each member F)
    a = l5
    members = cold_spectrum(a, a.one_mask).members
    swap = dict(zip(members[:2], members[1::-1]))

    def swapped(m):
        return swap.get(m, m)

    spec = spectra.PrimeSpectrum(a, members[1], members)
    with pytest.raises(InvariantViolation, match="top class misses the inclusion-least"):
        spectra.build_hat(
            spec,
            lambda f, g: swapped(calculus.sqto(a, swapped(f), swapped(g))),
            lambda f: swapped(calculus.set_plus(a, swapped(f))),
        )


def test_iota_closure_identities():
    for n in (3, 4, 5, 6):
        a = CHAINS[n]
        h = hat_of_chain(n)
        mapping = spectra.iota(
            h, core.quotient_by(a, a.one_mask), partial(calculus.subordinate, a)
        )
        # n cosets land on all n-1 classes: onto, so never injective
        assert len(mapping) == n and set(mapping) == set(range(n - 1))
        assert mapping[-1] == h.as_mv.one  # the top coset has empty subordinate


def test_iota_rejects_other_base(l5):
    h = hat_of_chain(5)
    with pytest.raises(InvalidArgument):
        spectra.iota(
            h, core.quotient_by(l5, l5.full_mask), partial(calculus.subordinate, l5)
        )


def test_hat_eta_improper_extension():
    h = hat_of_chain(5)
    a = h.spectrum.algebra
    kernel = partial(calculus.kernel, a)
    eta = spectra.hat_eta(h, core.quotient_by(a, a.full_mask), kernel)
    assert eta == (0,) * 4  # one point


def test_hat_eta_needs_proper_containment():
    h = hat_of_chain(4)
    a = h.spectrum.algebra
    with pytest.raises(InvalidArgument):
        # P is not a proper extension
        spectra.hat_eta(h, core.quotient_by(a, a.one_mask), partial(calculus.kernel, a))


def test_no_proper_prime_extensions_on_chains():
    # implication filters of a chain are {1} and the improper one, so the
    # improper Q is the only extension hat_eta can see
    for a in CHAINS.values():
        impl = filters.enumerate_implication_filters(a)
        assert impl == [a.one_mask, a.full_mask]


def test_product_spectrum_and_hat(l2xl3):
    a = l2xl3
    p = core.mask_of(i for i, lab in enumerate(a.labels) if lab.startswith("(1,"))
    assert p in filters.enumerate_implication_filters(a, prime_only=True)
    spec = cold_spectrum(a, p)
    assert p in spec.members
    h = cold_hat(spec)
    assert core.is_linear(h.as_mv)
    assert h.representatives[h.as_mv.one] == min(
        spec.members, key=lambda m: bin(m).count("1")
    )
    kernel = partial(calculus.kernel, a)
    eta = spectra.hat_eta(h, core.quotient_by(a, a.full_mask), kernel)
    assert eta == (0,) * h.as_mv.size
    io = spectra.iota(h, core.quotient_by(a, p), partial(calculus.subordinate, a))
    assert set(io) == set(range(h.as_mv.size))


def test_hat_on_every_prime_base(algebra):
    for p in filters.enumerate_implication_filters(algebra, prime_only=True):
        spec = cold_spectrum(algebra, p)
        if not spec.members:
            continue
        h = cold_hat(spec)
        assert core.is_linear(h.as_mv)
        io = spectra.iota(
            h, core.quotient_by(algebra, p), partial(calculus.subordinate, algebra)
        )
        assert set(io) == set(range(h.as_mv.size))
