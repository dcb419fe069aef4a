import json

import pytest

import mvfilters as mv
from mvfilters import InvalidArgument, calculus, densechain as dc, spectra, verify
from mvfilters.verify import DENSE_STATEMENTS, FINITE_STATEMENTS

from conftest import CHAINS, PRODUCTS


def test_finite_campaign_green(algebra):
    report = mv.run_finite(algebra)
    failed = [r.id for r in report.results if r.status == "fail"]
    assert report.ok, failed
    assert len(report.results) == len(FINITE_STATEMENTS)


def test_dense_campaign_green():
    report = mv.run_dense(seed=0)
    assert report.ok, [r.id for r in report.results if r.status == "fail"]
    assert len(report.results) == len(DENSE_STATEMENTS)
    assert all(r.status == "pass" for r in report.results)


def test_convex_lemmas_skip_on_products():
    report = mv.run_finite(PRODUCTS["L2xL3"])
    by_id = {r.id: r for r in report.results}
    for stmt in ("lem:convex-imp", "lem:convex-neg", "lem:convex-otimes"):
        assert by_id[stmt].status == "skip"
    chain_report = mv.run_finite(CHAINS[6], only=["lem:convex-imp"])
    assert chain_report.results[0].status == "pass"


def test_only_filter_and_unknown_id():
    report = mv.run_finite(CHAINS[3], only=["prop:incl", "prop:plus"])
    assert sorted(r.id for r in report.results) == ["prop:incl", "prop:plus"]
    with pytest.raises(InvalidArgument):
        mv.run_finite(CHAINS[3], only=["prop:bogus"])
    with pytest.raises(InvalidArgument):
        mv.run_dense(only=["prop:incl"])  # finite id not valid in dense scope


def test_dense_determinism():
    a = mv.run_dense(seed=42, pairs=500, triples=100).to_json()
    b = mv.run_dense(seed=42, pairs=500, triples=100).to_json()
    assert a == b


def test_report_text_and_json_shape():
    report = mv.run_finite(CHAINS[3], only=["axioms:mv"])
    text = report.to_text()
    assert text.startswith("target: L3")
    assert "axioms:mv" in text and text.rstrip().endswith(
        "1 statements, 1 passed, 0 failed, 0 skipped"
    )
    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert payload["results"][0]["id"] == "axioms:mv"
    assert payload["results"][0]["status"] == "pass"


def test_failure_carries_witnesses():
    # a corrupted negation table breaks the axioms and must surface witnesses
    bad = mv.MvAlgebra(
        3,
        tuple(tuple(min(2, x + y) for y in range(3)) for x in range(3)),
        (2, 2, 0),  # 1 is not an involution fixed pair
        0,
        name="bad3",
    )
    report = mv.run_finite(bad, only=["axioms:mv"])
    assert not report.ok
    assert report.results[0].status == "fail"
    assert report.results[0].witnesses


def _fresh(a, name, args):
    """Recompute a memo entry by its module's definition, bypassing Ctx."""
    if name == "spectrum":
        return spectra.prime_spectrum(a, *args)
    if name == "hat":
        return spectra.build_hat(spectra.prime_spectrum(a, *args))
    if name == "quotient":
        return mv.quotient_by(a, *args)
    return getattr(calculus, name)(a, *args)


def _run_all(ctx):
    for _, fn in FINITE_STATEMENTS.values():
        fn(ctx, [])


def test_memo_entries_equal_fresh_calls(monkeypatch):
    built = []

    class RecordingCtx(verify.Ctx):
        def __init__(self, a):
            super().__init__(a)
            built.append(self)

    monkeypatch.setattr(verify, "Ctx", RecordingCtx)
    a = PRODUCTS["L2xL3"]
    assert mv.run_finite(a).ok
    (ctx,) = built
    assert set(ctx.memo) == {
        "sqto", "kernel", "subordinate", "spectrum", "hat", "quotient",
    }
    for name, table in ctx.memo.items():
        assert table, name
        for args, value in table.items():
            assert value == _fresh(a, name, args), (name, args)


def test_memo_lives_one_run():
    a = PRODUCTS["L2xL3"]
    before = (dict(vars(a)), hash(a))
    _run_all(verify.Ctx(a))
    assert all(not table for table in verify.Ctx(a).memo.values())
    assert (dict(vars(a)), hash(a)) == before


def test_checks_fail_through_a_warm_memo(monkeypatch):
    a = PRODUCTS["L2xL3"]
    ctx = verify.Ctx(a)
    _run_all(ctx)
    fastform = FINITE_STATEMENTS["prop:fastform"][1]
    out = []
    fastform(ctx, out)
    assert not out
    real = calculus.sqto_fast

    def drop_one(a, f, g):
        m = real(a, f, g)
        return m & (m - 1)  # without its lowest member

    monkeypatch.setattr(calculus, "sqto_fast", drop_one)
    fastform(ctx, out)
    assert out


def _flip_kind(s):
    """The kind of s flipped, unless that would leave the proper cuts."""
    flipped = dc.Cut(s.endpoint, dc.Kind.OPEN if s.kind is dc.Kind.CLOSED
                     else dc.Kind.CLOSED)
    return flipped if flipped.is_proper else s


# cut_sqto's three kind branches, as conditions on its arguments
_KIND_BRANCHES = {
    "closed-target": lambda f, g: g.kind is dc.Kind.CLOSED,
    "closed-meet": lambda f, g: g.kind is dc.Kind.OPEN
    and dc.intersect(f, g).kind is dc.Kind.CLOSED,
    "open-meet": lambda f, g: g.kind is dc.Kind.OPEN
    and dc.intersect(f, g).kind is dc.Kind.OPEN,
}


@pytest.mark.parametrize("branch", sorted(_KIND_BRANCHES))
def test_dense_theorems_check_the_closed_form(monkeypatch, branch):
    real, hits = dc.cut_sqto, _KIND_BRANCHES[branch]

    def mutated(f, g):
        s = real(f, g)
        return _flip_kind(s) if not g.issubset(f) and hits(f, g) else s

    monkeypatch.setattr(dc, "cut_sqto", mutated)
    theorems = [s for s in DENSE_STATEMENTS if s != "dense:closed-forms"]
    report = mv.run_dense(seed=0, only=theorems, pairs=200, triples=200)
    assert [r.id for r in report.results if r.status == "fail"]
