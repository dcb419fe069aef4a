"""The row-table forms of Φ, sqto_full, J_u, J_d, the quotient image and the
quotient-side ⊸, and the subordinate form of ⊸, against the loop forms they
replaced.

The oracles below are the bodies these operations had before they were split
into a table builder and a combinator.  Each new form is compared with its
oracle both cold (``calculus``, ``QuotientAlgebra``) and through the tables a
``verify.Ctx`` keeps for one run.  ⊸ is ``sqto_from`` over the subordinates
(F∩G)ₓ, built cold or read from the ``Ctx`` subordinate memo; its oracle is
the relative-kernel form it had before.  The oracles read the tables entry
by entry: their subordinates and cosets are the loops restated in
``test_table_reads``, not the byte reads of ``calculus`` and ``core``.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mvfilters as mv
from mvfilters import calculus, filters, verify
from mvfilters.core import iter_mask, mask_of

from conftest import ALL_ALGEBRAS, CHAINS, PRODUCTS
from test_table_reads import congruence_cosets_loop, subordinate_loop


def phi_loop(a, f_mask, g_mask):
    imp = a.imp
    m = 0
    for f in iter_mask(f_mask):
        for y in range(a.size):
            if (g_mask >> imp[f][y]) & 1:
                m |= 1 << y
    return m


def sqto_full_loop(a, f_mask, g_mask):
    otimes = a.otimes
    fs = list(iter_mask(f_mask))
    m = 0
    for z in range(a.size):
        if all((g_mask >> otimes[f][z]) & 1 for f in fs):
            m |= 1 << z
    return m


def sqto_loop(a, f_mask, g_mask):
    if f_mask == 0 or g_mask == 0:
        return 0
    fp = f_mask & g_mask
    m = a.full_mask
    for x in iter_mask(a.full_mask & ~g_mask):
        m &= subordinate_loop(a, fp, x)
    return m


def set_plus_loop(a, mask):
    return subordinate_loop(a, mask, a.zero)


def j_up_loop(a, f_mask, p_mask):
    if f_mask == 0:
        return 0
    _, _, cosets = congruence_cosets_loop(a, p_mask)
    m = 0
    for cm in cosets:
        if cm & f_mask:
            m |= cm
    return m


def j_down_loop(a, f_mask, p_mask):
    if f_mask == 0:
        return 0
    return set_plus_loop(a, j_up_loop(a, set_plus_loop(a, f_mask), p_mask))


def image_mask_loop(q, mask):
    return mask_of(q.coset_of[x] for x in iter_mask(mask))


def assert_pair_agrees(a, ctx, f, g):
    """Every row-table form at (F, G), with G also read as P for J_u/J_d."""
    assert calculus.phi(a, f, g) == ctx.phi(f, g) == phi_loop(a, f, g)
    assert (
        calculus.sqto_full(a, f, g) == ctx.sqto_full(f, g)
        == sqto_full_loop(a, f, g)
    )
    assert calculus.j_up(a, f, g) == ctx.j_up(f, g) == j_up_loop(a, f, g)
    assert calculus.j_down(a, f, g) == ctx.j_down(f, g) == j_down_loop(a, f, g)


def assert_quotient_agrees(ctx, p, mask, fq, gq):
    """Image and quotient-side ⊸ in L/P, for an implication filter P.

    The quotient side takes ⊸ in its product form, which equals the
    definitional form on nonempty up-sets of L/P; images of filters are such
    up-sets.  So ``sqto_loop`` on the quotient algebra is its oracle there.
    """
    q = ctx.quotient(p)
    assert q.image_mask(mask) == ctx.image(p, mask) == image_mask_loop(q, mask)
    qa = q.quotient
    if fq and gq and filters.is_up_closed(qa, fq) and filters.is_up_closed(qa, gq):
        assert ctx.quotient_sqto(p, fq, gq) == sqto_loop(qa, fq, gq)


@pytest.mark.parametrize("a", [CHAINS[6], PRODUCTS["L2xL3"]], ids=["L6", "L2xL3"])
def test_every_mask_pair_matches_the_loop_forms(a):
    ctx = verify.Ctx(a)
    masks = range(1 << a.size)
    for f in masks:
        for g in masks:
            assert_pair_agrees(a, ctx, f, g)
    for p in ctx.impl:
        qmasks = range(1 << ctx.quotient(p).quotient.size)
        for mask in masks:
            assert_quotient_agrees(ctx, p, mask, 0, 0)
        for fq in qmasks:
            for gq in qmasks:
                assert_quotient_agrees(ctx, p, 0, fq, gq)


@pytest.mark.parametrize("name", sorted(ALL_ALGEBRAS))
def test_both_sqto_paths_match_the_relative_kernel_form(name):
    # every ordered pair of lattice filters, nested or not, and the empty mask
    a = ALL_ALGEBRAS[name]
    ctx = verify.Ctx(a)
    masks = [0, *ctx.lattice]
    for f in masks:
        for g in masks:
            assert calculus.sqto(a, f, g) == ctx.sqto(f, g) == sqto_loop(a, f, g)


CTXS = {name: verify.Ctx(a) for name, a in ALL_ALGEBRAS.items()}


@settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_random_masks_match_the_loop_forms(data):
    ctx = CTXS[data.draw(st.sampled_from(sorted(CTXS)), label="algebra")]
    a = ctx.a
    mask = st.integers(min_value=0, max_value=a.full_mask)
    f, g = data.draw(mask, label="F"), data.draw(mask, label="G")
    assert_pair_agrees(a, ctx, f, g)
    p = data.draw(st.sampled_from(ctx.impl), label="P")
    qa = ctx.quotient(p).quotient
    up_set = st.integers(min_value=1, max_value=qa.full_mask).map(
        lambda m: filters.up_closure(qa, m)
    )
    assert_quotient_agrees(
        ctx, p, f, data.draw(up_set, label="F/P"), data.draw(up_set, label="G/P")
    )


def test_each_table_is_built_once_per_run(monkeypatch):
    built_rows, built_cosets = Counter(), Counter()
    real_rows, real_cosets = calculus.rows, verify.congruence_cosets

    def counted_rows(byte_rows, mask, among):
        assert all(type(row) is bytes for row in byte_rows)
        if among == (1 << len(byte_rows)) - 1:  # a whole table: only Ctx builds these
            built_rows[id(byte_rows), mask] += 1
        return real_rows(byte_rows, mask, among)

    def counted_cosets(a, p_mask):
        built_cosets[p_mask] += 1
        return real_cosets(a, p_mask)

    monkeypatch.setattr(calculus, "rows", counted_rows)
    monkeypatch.setattr(verify, "congruence_cosets", counted_cosets)
    built = []

    class RecordingCtx(verify.Ctx):
        def __init__(self, a):
            super().__init__(a)
            built.append(self)

    monkeypatch.setattr(verify, "Ctx", RecordingCtx)
    assert mv.run_finite(PRODUCTS["L2xL3"]).ok
    (ctx,) = built
    assert set(built_cosets.values()) == {1}
    assert sorted(built_cosets) == sorted(p for (p,) in ctx.memo["cosets"])
    assert set(built_rows.values()) == {1}
    assert len(built_rows) == len(ctx.memo["rows"]) + len(ctx.memo["quotient_rows"])
