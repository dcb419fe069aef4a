"""The dense statements that decide by thresholds, against the scans they
replaced.

``closed_forms_loop`` is the body ``dense:closed-forms`` had when it tested
each of the 25 half-steps z of {k/24} for every grid pair and cut;
``trans_loop`` is ``dense:trans``'s loop over every grid triple; and
``separation_loop`` is ``dense:separation``'s pair scan under every open G.
Each statement must give its scan's status and witness list, in order,
unmutated and under the densechain mutants that make it fail: each flipped
kind branch of ``cut_sqto``, a flipped ``cut_plus``, endpoints shifted off
the grid or by one grid step, closed pairs collapsed to {1} and ``cut_sqto``
with its arguments swapped.

The least-half-step helpers are checked on their own: on every integer
input in [-3, 4N+3] they decide the ⊸ and the ⁺ test as the per-z scan
does.
"""

from fractions import Fraction as F
from itertools import product

import pytest

import mvfilters as mv
from mvfilters import densechain as dc, verify

from conftest import KIND_BRANCHES, branch_flipped, plus_flipped
from test_verify import _collapse_closed_pairs, shifted_endpoint

U = verify._UNITS
HALF_STEPS = verify._HALF_STEPS


def closed_forms_loop(out):
    least = {c: verify._least(c) for c in verify._GRID_CUTS}
    for f, g in verify._pairs(verify._GRID_CUTS):
        lg = least[g]
        x0 = max(least[f], lg)
        s = verify._least(dc.cut_sqto(f, g))
        if s is None or any((z >= s) != (max(0, x0 + z - U) >= lg)
                            for z in HALF_STEPS):
            out.append((str(f), str(g)))
    for f in verify._GRID_CUTS:
        s = verify._least(dc.cut_plus(f))
        if s is None or any((z >= s) != (U - z < least[f]) for z in HALF_STEPS):
            out.append(("plus", str(f)))


def trans_loop(out):
    cuts = verify._GRID_CUTS
    top = [[dc.cut_sqto(x, y) == dc.TOP for y in cuts] for x in cuts]
    idx = range(len(cuts))
    eq = [[top[i][j] and top[j][i] for j in idx] for i in idx]
    for i, j, k in product(idx, repeat=3):
        if eq[i][j] and eq[j][k] and not eq[i][k]:
            out.append((str(cuts[i]), str(cuts[j]), str(cuts[k])))


def separation_loop(out):
    for g in verify._GRID_CUTS:
        if g.kind is not dc.Kind.OPEN:
            continue
        below = [f for f in verify._GRID_CUTS if f.issubset(g)]
        values = [dc.cut_sqto(f, g) for f in below]
        for f2, s2 in zip(below, values):
            for f1, s1 in zip(below, values):
                if f1.num * f2.den > f2.num * f1.den and s1 == s2:
                    out.append((str(f1), str(f2), str(g)))


REFERENCES = {
    "dense:closed-forms": closed_forms_loop,
    "dense:trans": trans_loop,
    "dense:separation": separation_loop,
}


def _swapped(real):
    return lambda f, g: real(g, f)


# mutant -> (densechain attribute, factory of its corrupted version)
MUTANTS = {
    "none": None,
    **{b: ("cut_sqto", lambda real, b=b: branch_flipped(b)) for b in KIND_BRANCHES},
    "plus-flipped": ("cut_plus", lambda real: plus_flipped()),
    "sqto-off-grid": ("cut_sqto", lambda real: shifted_endpoint(real, F(1, 1000))),
    "sqto-one-step": ("cut_sqto", lambda real: shifted_endpoint(real, F(1, 12))),
    "plus-off-grid": ("cut_plus", lambda real: shifted_endpoint(real, F(1, 1000))),
    "plus-one-step": ("cut_plus", lambda real: shifted_endpoint(real, F(1, 12))),
    "collapse-closed-pairs": ("cut_sqto", _collapse_closed_pairs),
    "sqto-swapped": ("cut_sqto", _swapped),
}

# (statement, mutant) -> witness count; every other pair passes
FAILING = {
    ("dense:closed-forms", "closed-meet"): 77,
    ("dense:closed-forms", "closed-target"): 121,
    ("dense:closed-forms", "open-meet"): 66,
    ("dense:closed-forms", "plus-flipped"): 22,
    ("dense:closed-forms", "sqto-off-grid"): 576,
    ("dense:closed-forms", "sqto-one-step"): 576,
    ("dense:closed-forms", "plus-off-grid"): 24,
    ("dense:closed-forms", "plus-one-step"): 24,
    ("dense:closed-forms", "collapse-closed-pairs"): 66,
    ("dense:closed-forms", "sqto-swapped"): 530,
    ("dense:trans", "collapse-closed-pairs"): 242,
    ("dense:separation", "sqto-one-step"): 1,
    ("dense:separation", "sqto-swapped"): 1_156,
}


def _reference(stmt):
    out = []
    try:
        REFERENCES[stmt](out)
    except Exception as e:
        return "error", [f"{type(e).__name__}: {e}"]
    return ("fail" if out else "pass"), out


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("stmt", sorted(REFERENCES))
def test_statement_matches_its_scan(monkeypatch, stmt, mutant):
    if MUTANTS[mutant] is not None:
        name, corrupt = MUTANTS[mutant]
        monkeypatch.setattr(dc, name, corrupt(getattr(dc, name)))
    (result,) = mv.run_dense(only=[stmt]).results
    status, witnesses = _reference(stmt)
    assert (result.status, result.witnesses) == (status, witnesses)
    assert len(witnesses) == FAILING.get((stmt, mutant), 0)


def _per_z(holds):
    """The per-z decision as a tuple over the half-steps."""
    return tuple(holds(z) for z in HALF_STEPS)


def test_sqto_threshold_is_the_per_z_decision():
    inputs = range(-3, U + 4)
    closed_form = {s: _per_z(lambda z: z >= s) for s in inputs}
    for x0, lg in product(inputs, repeat=2):
        definition = _per_z(lambda z: max(0, x0 + z - U) >= lg)
        least = verify._sqto_from(x0, lg)
        for s in inputs:
            assert (verify._first_half_step(s) == least) == (
                closed_form[s] == definition), (s, x0, lg)


def test_plus_threshold_is_the_per_z_decision():
    inputs = range(-3, U + 4)
    for s, lf in product(inputs, repeat=2):
        agree = _per_z(lambda z: z >= s) == _per_z(lambda z: U - z < lf)
        assert (verify._first_half_step(s) == verify._plus_from(lf)) == agree, (s, lf)
