"""The row-table forms of Φ, sqto_full, J_u, J_d, the quotient image and the
quotient-side ⊸, and the subordinate form of ⊸, against the oracles of
``tests/oracles.py``.

Each form is compared with its oracle both cold (the ``calculus`` functions
over freshly built tables, as the cli's ``compute`` calls them, and
``QuotientAlgebra``) and through the tables a ``verify.Ctx`` keeps for one
run; the quotient image, which ``Ctx`` does not keep, is compared cold
only.  J_u and J_d go through ``Ctx`` only at an implication filter P,
since ``Ctx`` reads the cosets of L/P; the cold forms take every mask.  ⊸
is ``calculus.sqto``, ``kernel_rel`` on F∩G at L∖G, on the algebra cold and
through the ``Ctx`` sqto cache on the view that reads the →-column table of
F∩G; ``oracles.sqto`` is the AND of the subordinates (F∩G)ₓ over x ∉ G,
one definition per subordinate.  The oracles read the tuple tables entry
by entry, take their cosets from ``oracles.cosets``, not from ``core``, and
walk masks with the shift loop ``oracles.members``, not the C folds.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mvfilters as mv
from mvfilters import calculus, core, filters, verify
from mvfilters.errors import InvalidArgument

import oracles
from conftest import (
    ALL_ALGEBRAS, CHAINS, PRODUCTS, cold_j_down, cold_j_up, cold_phi, cold_sqto_full,
)


def assert_pair_agrees(a, ctx, f, g):
    """Every row-table form at (F, G), with G also read as P for the cold
    J_u/J_d, which partition L by any mask."""
    assert cold_phi(a, f, g) == ctx.phi(f, g) == oracles.phi(a, f, g)
    assert (
        cold_sqto_full(a, f, g) == ctx.sqto_full(f, g)
        == oracles.sqto_full(a, f, g)
    )
    assert cold_j_up(a, f, g) == oracles.j_up(a, f, g)
    assert cold_j_down(a, f, g) == oracles.j_down(a, f, g)


def assert_j_agrees(a, ctx, f, p):
    """J_u/J_d at (F, P) through the cosets of the ``Ctx`` quotient L/P, for
    an implication filter P."""
    assert ctx.j_up(f, p) == cold_j_up(a, f, p) == oracles.j_up(a, f, p)
    assert ctx.j_down(f, p) == cold_j_down(a, f, p) == oracles.j_down(a, f, p)


def assert_quotient_agrees(ctx, p, mask, fq, gq):
    """Image and quotient-side ⊸ in L/P, for an implication filter P.

    The quotient side takes ⊸ in its product form, which equals the
    definitional form on nonempty up-sets of L/P; images of filters are such
    up-sets.  So ``oracles.sqto`` on the quotient algebra is its oracle there.
    """
    q = ctx.quotient(p)
    assert q.image_mask(mask) == oracles.image(ctx.a, p, mask)
    qa = q.quotient
    if fq and gq and filters.is_up_closed(qa, fq) and filters.is_up_closed(qa, gq):
        assert ctx.quotient_sqto(p, fq, gq) == oracles.sqto(qa, fq, gq)


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
            assert_j_agrees(a, ctx, mask, p)
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
            assert calculus.sqto(a, f, g) == ctx.sqto(f, g) == oracles.sqto(a, f, g)


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
    assert_j_agrees(a, ctx, f, p)
    qa = ctx.quotient(p).quotient
    up_set = st.integers(min_value=1, max_value=qa.full_mask).map(
        lambda m: oracles.up_closure(qa, m)
    )
    assert_quotient_agrees(
        ctx, p, f, data.draw(up_set, label="F/P"), data.draw(up_set, label="G/P")
    )


@pytest.mark.parametrize("a", [CHAINS[6], PRODUCTS["L2xL3"]], ids=["L6", "L2xL3"])
def test_ctx_j_refuses_a_p_that_is_not_an_implication_filter(a):
    # J_u and J_d are defined through L/P; the cold forms still take any mask
    ctx = verify.Ctx(a)
    for p in range(1 << a.size):
        if p not in ctx.impl:
            for j in (ctx.j_up, ctx.j_down):
                with pytest.raises(InvalidArgument, match="implication filter"):
                    j(a.one_mask, p)
    # a refused P leaves no quotient behind
    assert ctx.quotient.cache_info().currsize == 0


def test_each_table_is_built_once_per_run(monkeypatch):
    built_rows, built_cosets = Counter(), Counter()
    real_rows, real_cosets = calculus.rows, core.congruence_cosets

    def counted_rows(b, table, mask):
        assert all(type(row) is bytes for row in getattr(b, f"{table}_bytes"))
        built_rows[id(b), table, mask] += 1  # a run builds rows through Ctx only
        return real_rows(b, table, mask)

    def counted_cosets(a, p_mask):
        built_cosets[p_mask] += 1
        return real_cosets(a, p_mask)

    monkeypatch.setattr(calculus, "rows", counted_rows)
    monkeypatch.setattr(core, "congruence_cosets", counted_cosets)
    built = []

    class RecordingCtx(verify.Ctx):
        def __init__(self, a):
            super().__init__(a)
            built.append(self)

    monkeypatch.setattr(verify, "Ctx", RecordingCtx)
    assert mv.run_finite(PRODUCTS["L2xL3"]).ok
    (ctx,) = built
    # one partition per implication filter, in the quotient cache
    assert built_cosets == {p: 1 for p in ctx.impl}
    assert ctx.quotient.cache_info().currsize == len(ctx.impl)
    assert set(built_rows.values()) == {1}
    assert len(built_rows) == (
        ctx.rows.cache_info().currsize + ctx.quotient_rows.cache_info().currsize
    )
