"""``verify`` by layer, one section each.  The runner and its report:
``run_finite`` and ``run_dense``, the text and JSON forms of a ``Report``,
the caches ``verify.Ctx`` keeps for one run, and the written argument above
``verify._GRID_CUTS`` that the dense grid decides every claim.  The finite
statements, each against a reference: the state search of ``fact:a`` and
``fact:e`` against the subset loop, the convex lemmas against the interval
loop, and the filter cross-checks under changed table entries.  The dense
statements: the ⊸ and ⁺ calls each makes, the seed they ignore, and
``dense:hat-embed`` against the subchain loop it replaced.  The kills of
both kinds of statement by the registry mutants are in ``mutants.KILLS``
and the digests of ``tests/test_report_digests.py``; the dense scans are in
``tests/test_dense_scans.py``."""

import gc
import json
import weakref
from collections import Counter
from fractions import Fraction as F
from functools import partial, reduce
from itertools import combinations, permutations, product as tuples

import pytest

import mvfilters as mv
from mvfilters import calculus, cli, core, densechain as dc, filters, verify
from mvfilters.errors import InvalidArgument
from mvfilters.verify import DENSE_STATEMENTS, FINITE_STATEMENTS

import mutants
import oracles
from conftest import (
    ALL_ALGEBRAS, CHAINS, PRODUCTS, SPECS, cold_hat, cold_spectrum, product, relabelled,
    shuffled,
)


# ---------------------------------------------------------------------------
# the runner and its report


def test_finite_campaign_green(algebra):
    report = mv.run_finite(algebra)
    failed = [r.id for r in report.results if r.status == "fail"]
    assert report.ok, failed
    assert len(report.results) == len(FINITE_STATEMENTS)


def test_only_filter_and_unknown_id():
    report = mv.run_finite(CHAINS[3], only=["prop:incl", "prop:plus"])
    assert sorted(r.id for r in report.results) == ["prop:incl", "prop:plus"]
    with pytest.raises(InvalidArgument):
        mv.run_finite(CHAINS[3], only=["prop:bogus"])
    with pytest.raises(InvalidArgument):
        mv.run_dense(only=["prop:incl"])  # finite id not valid in dense scope


def test_report_text_and_json_shape():
    report = mv.run_finite(CHAINS[3], only=["axioms:mv"])
    text = report.to_text()
    assert text.splitlines()[0] == "target: L3"
    assert "axioms:mv" in text and text.rstrip().endswith(
        "1 statements, 1 passed, 0 failed, 0 skipped"
    )
    payload = json.loads(report.to_json())
    assert sorted(payload) == ["ok", "results", "target"]
    assert payload["ok"] is True
    assert payload["results"][0]["id"] == "axioms:mv"
    assert payload["results"][0]["status"] == "pass"


def test_text_report_counts_the_witnesses_it_leaves_out():
    # under the ⊸ argument swap prop:adjunction fails on Ł5 with 12 witnesses;
    # the JSON lists them all, as the digests pin
    report = mutants.report("sqto-swap", "L5")
    witnesses = mutants.result("sqto-swap", "L5", "prop:adjunction").witnesses
    lines = report.to_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("prop:adjunction "))
    assert lines[at + 1:at + 7] == [
        *(f"    witness: {w}" for w in witnesses[:5]), "    (7 more witnesses not shown)",
    ]
    assert sum(line.endswith(" not shown)") for line in lines) == sum(
        len(r.witnesses) > 5 for r in report.results
    )


def test_failure_carries_witnesses():
    # a corrupted negation table breaks the axioms and must surface witnesses
    bad = core.MvAlgebra(
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


CACHES = (
    "sqto", "kernel", "subordinate", "relative_kernels", "plus", "phi", "sqto_full",
    "spectrum", "hat", "quotient", "rows", "quotient_rows", "quotient_sqto",
)


def _fresh(a, name, args):
    """Recompute a cache entry by its module's definition, bypassing Ctx."""
    if name == "spectrum":
        return cold_spectrum(a, *args)
    if name == "hat":
        return cold_hat(cold_spectrum(a, *args))
    if name == "quotient":
        return core.quotient_by(a, *args)
    if name == "rows":
        table, mask = args
        return calculus.rows(a, table, mask)
    if name == "quotient_rows":
        p, mask = args
        return calculus.rows(core.quotient_by(a, p).quotient, "otimes", mask)
    if name == "quotient_sqto":
        p, fq, gq = args
        return calculus.sqto(core.quotient_by(a, p).quotient, fq, gq)
    if name == "plus":
        return calculus.set_plus(a, *args)
    if name == "relative_kernels":
        return verify._relative_kernels(a, partial(calculus.subordinate, a), *args)
    if name in ("phi", "sqto_full"):
        return getattr(oracles, name)(a, *args)
    return getattr(calculus, name)(a, *args)


class RecordingCache:
    """``functools.cache`` with its entries exposed, keyed by argument tuple."""

    def __init__(self, fn):
        self.fn, self.entries = fn, {}

    def __call__(self, *args):
        if args not in self.entries:
            self.entries[args] = self.fn(*args)
        return self.entries[args]


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
    monkeypatch.setattr(verify, "cache", RecordingCache)
    a = PRODUCTS["L2xL3"]
    assert mv.run_finite(a).ok
    (ctx,) = built
    caches = {k for k, v in vars(ctx).items() if isinstance(v, RecordingCache)}
    assert caches == set(CACHES)
    for name in CACHES:
        table = getattr(ctx, name).entries
        assert table, name
        for args, value in table.items():
            assert value == _fresh(a, name, args), (name, args)


def test_memo_lives_one_run():
    a = PRODUCTS["L2xL3"]
    before = (dict(vars(a)), hash(a))
    _run_all(verify.Ctx(a))
    fresh = verify.Ctx(a)
    assert all(getattr(fresh, name).cache_info().currsize == 0 for name in CACHES)
    assert (dict(vars(a)), hash(a)) == before


def test_ctx_is_freed_by_reference_counting():
    # the caches close over the algebra and the lists, never over the Ctx,
    # so a finished run leaves no cycle for the collector to find
    ctx = verify.Ctx(PRODUCTS["L2xL3"])
    gc.disable()
    try:
        _run_all(ctx)
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_checks_fail_through_a_warm_memo():
    a = PRODUCTS["L2xL3"]
    ctx = verify.Ctx(a)
    _run_all(ctx)
    small = FINITE_STATEMENTS["prop:small"][1]
    out = []
    small(ctx, out)
    assert not out
    # the quotients stay warm in ctx; J_u, which reads their cosets per
    # call, is corrupted
    with mutants.mutated("j_up-drop", a):
        small(ctx, out)
    assert out


def test_a_run_folds_each_pair_once(monkeypatch):
    # Φ and sqto_full are kept by value, so a run folds the rows of each G
    # over each F once.  Only the algebra's own rows count: sqto_fast folds
    # the ⊗-rows of its quotients through sqto_full too.
    a = CHAINS[8]
    own, calls = set(), {"phi": Counter(), "sqto_full": Counter()}

    def recorded_rows(b, table, mask, real=calculus.rows):
        out = real(b, table, mask)
        if b is a:
            own.add(id(out))
        return out

    monkeypatch.setattr(calculus, "rows", recorded_rows)
    for name, seen in calls.items():
        def counted(rows, f, *rest, real=getattr(calculus, name), seen=seen):
            if id(rows) in own:
                seen[id(rows), f] += 1
            return real(rows, f, *rest)

        monkeypatch.setattr(calculus, name, counted)
    assert mv.run_finite(a).ok
    for name, seen in calls.items():
        assert seen, name
        assert set(seen.values()) == {1}, name


@pytest.mark.parametrize("algebra_id", ["L8", "L2xL3"])
def test_run_reads_the_tables_not_the_cold_forms(monkeypatch, algebra_id):
    handed = set()

    def recording(real):
        def wrapped(first, *rest):
            handed.add(type(first))
            return real(first, *rest)

        return wrapped

    # ⊸ and K are handed the view of the algebra that reads the run's
    # →-column tables, never the algebra itself
    for name in ("sqto", "kernel"):
        monkeypatch.setattr(calculus, name, recording(getattr(calculus, name)))
    built = []

    class RecordingCtx(verify.Ctx):
        def __init__(self, a):
            super().__init__(a)
            built.append(self)

    monkeypatch.setattr(verify, "Ctx", RecordingCtx)
    assert mv.run_finite(ALL_ALGEBRAS[algebra_id]).ok
    assert handed and core.MvAlgebra not in handed
    (ctx,) = built
    assert ctx.hat.cache_info().currsize
    misses = ctx.sqto.cache_info().misses
    for p in verify._spectral(ctx):
        members = ctx.spectrum(p).members
        for f, g in tuples(members, repeat=2):
            ctx.sqto(f, g)
    assert ctx.sqto.cache_info().misses == misses


@pytest.mark.parametrize(
    "build", [lambda: product(8, 8), lambda: product(*(2,) * 6)],
    ids=["L8xL8", "2^6"],
)
def test_set_plus_runs_once_per_distinct_mask(monkeypatch, build):
    # every ⁺ of a run goes through ctx.plus: the statements, J_d and the
    # derived algebras
    calls = []
    real = calculus.set_plus

    def counting(a, mask):
        calls.append(mask)
        return real(a, mask)

    monkeypatch.setattr(calculus, "set_plus", counting)
    built = []

    class RecordingCtx(verify.Ctx):
        def __init__(self, a):
            super().__init__(a)
            built.append(self)

    monkeypatch.setattr(verify, "Ctx", RecordingCtx)
    assert mv.run_finite(build()).ok
    (ctx,) = built
    assert len(calls) == len(set(calls)) == ctx.plus.cache_info().currsize > 0


FINITE_SPECS = {
    f"spec:{p.stem}": spec for p in sorted(SPECS.glob("*.json"))
    if (spec := cli.parse_spec(p.read_text(), allow_dense=True))["kind"] != "dense"
}


@pytest.mark.parametrize("name", [*sorted(ALL_ALGEBRAS), *FINITE_SPECS])
def test_ctx_spectrum_is_the_cold_prime_spectrum(name):
    # the specs include L16, L4xL4 and 2^5; Ctx hands prime_spectrum and
    # build_hat its caches, export the cold partials
    a = ALL_ALGEBRAS.get(name) or cli.build_algebra(FINITE_SPECS[name])
    ctx = verify.Ctx(a)
    assert ctx.prime_impl
    for p in ctx.prime_impl:
        spec = cold_spectrum(a, p)
        assert ctx.spectrum(p) == spec
        h, cold = ctx.hat(p), cold_hat(spec)
        assert h.representatives == cold.representatives
        assert h.as_mv.oplus == cold.as_mv.oplus
        assert h.as_mv.neg == cold.as_mv.neg


def test_a_raising_statement_is_an_error_not_an_abort():
    # without ⁺'s lowest member a hat operation leaves the spectrum and raises
    report = mutants.report("set_plus-drop", "L2xL3")
    assert len(report.results) == len(FINITE_STATEMENTS)
    errors = {r.id: r.witnesses for r in report.results if r.status == "error"}
    assert errors == dict.fromkeys(
        ["prop:T-phi", "thm:iota", "thm:hat-eta", "thm:composite"],
        ["InvariantViolation: operation left the spectrum: {(1,1)}"],
    )
    # 7 failures and the 4 errors
    assert report.to_text().endswith("31 passed, 11 failed, 6 skipped")
    assert not report.ok and json.loads(report.to_json())["ok"] is False


def test_the_grid_meets_every_order_type_of_two_cuts():
    """For each pair of kinds, the grid meets every order type of the
    endpoints p, q of two proper cuts of those kinds: where each lies (at 0,
    inside, at 1), how p compares with q, and how p + q compares with 1, the
    line on which ⁺ reflects one endpoint onto the other."""
    rank = {"0": 0, "inside": 1, "1": 2}
    value = {"0": 0, "1": 1}

    def _cmp(x, y):
        return "<" if x < y else "=" if x == y else ">"

    def position(x):
        return "0" if x == 0 else "1" if x == 1 else "inside"

    def proper(pos, kind):
        return pos != ("0" if kind is dc.Kind.CLOSED else "1")

    def realizable(pp, pq, d, s):
        if pp == pq == "inside":
            return True
        if d != _cmp(rank[pp], rank[pq]):
            return False
        if "inside" not in (pp, pq):
            return s == _cmp(value[pp] + value[pq], 1)
        # one endpoint is inside (0,1), the other at 0 or at 1
        return s == ("<" if "0" in (pp, pq) else ">")

    signs = ("<", "=", ">")
    for kf, kg in verify._pairs(dc.Kind):
        expected = {
            (pp, pq, d, s)
            for pp in rank if proper(pp, kf)
            for pq in rank if proper(pq, kg)
            for d in signs for s in signs if realizable(pp, pq, d, s)
        }
        met = {
            (position(p), position(q), _cmp(p, q), _cmp(p + q, 1))
            for f in verify._GRID_CUTS if f.kind is kf
            for g in verify._GRID_CUTS if g.kind is kg
            for p, q in [(f.endpoint, g.endpoint)]
        }
        assert met == expected, (kf, kg)
    assert len(verify._GRID_CUTS) == 24 and len(verify._GRID_POINTS) == 13


def test_three_cut_claims_are_decided_on_the_grid():
    """The written argument above verify._GRID_CUTS, for three endpoints.

    The planes are xᵢ, xᵢ - xⱼ and xᵢ + xⱼ - xₖ ∈ ℤ.  Every vertex that
    three of them cut out of [0,1]³ lies in ½ℤ³, and the grid {k/12}³ meets
    the same cells of the arrangement as {k/24}³, which meets them all; the
    coarser {k/4}³ misses some.
    """
    normals = []
    for i, j, k in permutations(range(3)):
        for v in ({i: 1}, {i: 1, j: -1}, {i: 1, j: 1, k: -1}):
            n = tuple(v.get(c, 0) for c in range(3))
            # xᵢ - xⱼ and xⱼ - xᵢ give one set of planes
            if n not in normals and tuple(-a for a in n) not in normals:
                normals.append(n)
    assert len(normals) == 9

    def det(rows):
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def offsets(n):
        # the integers the form takes somewhere on [0,1]³
        return range(sum(min(0, a) for a in n), sum(max(0, a) for a in n) + 1)

    vertices = set()
    for rows in combinations(normals, 3):
        d = det(rows)
        if d == 0:
            continue
        for rhs in tuples(*map(offsets, rows)):
            # Cramer's rule: column c of rows replaced by rhs
            x = tuple(
                F(det([[*r[:c], b, *r[c + 1:]] for r, b in zip(rows, rhs)]), d)
                for c in range(3)
            )
            if all(0 <= v <= 1 for v in x):
                vertices.add(x)
    assert vertices and all((2 * v).denominator == 1 for x in vertices for v in x)

    def cells(n):
        # each form's position among the integers: 2m at m, 2m + 1 in (m, m+1)
        return {
            tuple(-(-t // n) + t // n
                  for t in (sum(a * x for a, x in zip(nv, p)) for nv in normals))
            for p in tuples(range(n + 1), repeat=3)
        }

    assert len(cells(12)) == 147 and cells(12) == cells(24)
    assert cells(4) < cells(12)



# ---------------------------------------------------------------------------
# the finite statements


def test_convex_lemmas_skip_on_products():
    report = mv.run_finite(PRODUCTS["L2xL3"])
    by_id = {r.id: r for r in report.results}
    for stmt in ("lem:convex-imp", "lem:convex-neg", "lem:convex-otimes"):
        assert by_id[stmt].status == "skip"
    chain_report = mv.run_finite(CHAINS[6], only=["lem:convex-imp"])
    assert chain_report.results[0].status == "pass"


def _subsets(a, f):
    """Every nonempty X ⊆ L∖F as (mask, members): the subset loop that fact:a
    and fact:e once ran, kept as the reference for their state search."""
    comp = list(oracles.members(a.full_mask & ~f))
    for r in range(1, len(comp) + 1):
        for xs in combinations(comp, r):
            yield sum(1 << x for x in xs), xs


def up_of_join(a, xs):
    """↑∨X, with ∨ and ↑ read by the oracles."""
    return oracles.up_closure(a, 1 << reduce(partial(oracles.join, a), xs))


@pytest.mark.parametrize("algebra_id", sorted(ALL_ALGEBRAS))
def test_state_search_matches_the_subset_loop(algebra_id):
    a = ALL_ALGEBRAS[algebra_id]
    assert a.size <= 12
    ctx = verify.Ctx(a)
    for stmt in ("fact:a", "fact:e"):
        out = []
        FINITE_STATEMENTS[stmt][1](ctx, out)
        assert not out, stmt
    # both statements read one search per prime F
    assert ctx.relative_kernels.cache_info().currsize == len(ctx.primes)
    for f in ctx.primes:
        oracle_values, oracle_pairs = set(), set()
        for xm, xs in _subsets(a, f):
            k = oracles.kernel_rel(a, f, xm)
            oracle_values.add(k)
            oracle_pairs.add((k, up_of_join(a, xs)))
            if len(xs) <= 4:
                assert filters.down_closure_joins(a, xm) == oracles.ideal_generated(a, xs), xs
        states = ctx.relative_kernels(f)
        assert set(states) == oracle_pairs
        # fact:a's values are the first coordinates
        assert {k for k, _ in states} == oracle_values
        # each witness is a nonempty X ⊆ L∖F that produces its state
        for (k, up), xm in states.items():
            assert xm and xm & f == 0 and oracles.kernel_rel(a, f, xm) == k
            xs = tuple(oracles.members(xm))
            assert up_of_join(a, xs) == up
            assert filters.down_closure_joins(a, xm) == oracles.ideal_generated(a, xs), xs


@pytest.mark.parametrize(
    "factors, total",
    [((32,), 496), ((8, 8), 448), ((2,) * 6, 192)],
    ids=["L32", "L8xL8", "2^6"],
)
def test_fact_e_state_totals(factors, total):
    ctx = verify.Ctx(product(*factors))
    assert sum(len(ctx.relative_kernels(f)) for f in ctx.primes) == total


@pytest.mark.parametrize("algebra_id", ["L8", "L2xL3"])
def test_a_run_searches_once_per_prime(monkeypatch, algebra_id):
    a = ALL_ALGEBRAS[algebra_id]
    searched = Counter()

    def counted(b, subordinate, f, real=verify._relative_kernels):
        searched[f] += 1
        return real(b, subordinate, f)

    with monkeypatch.context() as m:
        m.setattr(verify, "_relative_kernels", counted)
        whole = mv.run_finite(a)
    assert whole.ok
    assert searched == Counter(verify.Ctx(a).primes)
    # fact:a alone reads the same search, so it reaches the same verdict: under
    # a corrupted sqto_full it fails on the same witnesses
    with mutants.mutated("sqto_full-drop", a):
        (alone,) = mv.run_finite(a, only=["fact:a"]).results
        (in_whole,) = (r for r in mv.run_finite(a).results if r.id == "fact:a")
    assert in_whole.status == "fail"
    assert (alone.status, alone.witnesses) == (in_whole.status, in_whole.witnesses)


CONVEX_TABLES = {
    "lem:convex-imp": "imp", "lem:convex-neg": "neg", "lem:convex-otimes": "otimes",
}


def _columns(a, name):
    """The maps z ↦ col[z] whose images a convex lemma is about."""
    table = getattr(a, name)
    return [table] if name == "neg" else list(zip(*table))


def _interval_loop(ctx, columns):
    """Every (interval C, column index) whose image of C is not convex.

    The reference for the convex lemmas' neighbour-pair shortcut, as the
    statement scans of ``tests/scans.py`` are for theirs: it reads the order
    from the masks ↑x and ↓y as the lemmas do, visits every interval
    [x, y] = ↑x ∩ ↓y, and decides C = ↑C ∩ ↓C for all columns at once,
    column i at bits i·n to i·n + n − 1, which is what makes Ł64 affordable.
    """
    a = ctx.a
    n, full = a.size, a.full_mask
    image, up, down = (
        [sum(m[col[z]] << i * n for i, col in enumerate(columns)) for z in range(n)]
        for m in ([1 << y for y in range(n)], a.up_mask, a.down_mask)
    )
    out = []
    for x in range(n):
        for y in range(n):
            c = a.up_mask[x] & a.down_mask[y]
            if not c:
                continue
            img = hi = lo = 0
            for z in oracles.members(c):
                img, hi, lo = img | image[z], hi | up[z], lo | down[z]
            bad = hi & lo ^ img
            out.extend(
                (ctx.show(c), i) for i in range(len(columns)) if bad >> i * n & full
            )
    return out


def _lemma_and_loop(a, stmt):
    ctx = verify.Ctx(a)
    lemma = []
    FINITE_STATEMENTS[stmt][1](ctx, lemma)
    return lemma, _interval_loop(ctx, _columns(a, CONVEX_TABLES[stmt]))


def test_convex_lemmas_agree_with_the_interval_loop_on_chains():
    # every chain Ł2–Ł64, and seeded relabelled copies of Ł2–Ł32 and Ł64;
    # one loop reads the columns of all three tables
    for n in range(2, 65):
        a = mv.make_lukasiewicz_chain(n)
        for b in (a, shuffled(a, n)) if n <= 32 or n == 64 else (a,):
            ctx = verify.Ctx(b)
            columns = [c for name in CONVEX_TABLES.values() for c in _columns(b, name)]
            assert _interval_loop(ctx, columns) == [], b.name
            for stmt in CONVEX_TABLES:
                out = []
                FINITE_STATEMENTS[stmt][1](ctx, out)
                assert out == [], (b.name, stmt)


CONVEX_ORACLE_ALGEBRAS = {f"L{n}": CHAINS[n] for n in (5, 6, 7, 8)} | {
    "L7-relabelled": relabelled(CHAINS[7], (3, 6, 0, 5, 1, 4, 2)),
}


@pytest.mark.parametrize("algebra_id", sorted(CONVEX_ORACLE_ALGEBRAS))
@pytest.mark.parametrize("stmt, table", sorted(CONVEX_TABLES.items()))
def test_convex_lemmas_match_interval_loop(algebra_id, stmt, table):
    # under every one-entry change of the lemma's table the lemma fails
    # exactly when some interval's image is not convex, every neighbour
    # pair it names is one of those intervals, and the convexity oracle,
    # reading the order of the unchanged algebra, finds that pair's image
    # not convex
    a = CONVEX_ORACLE_ALGEBRAS[algebra_id]
    killed = 0
    for b in mutants.every_entry_changed(a, table):
        lemma, loop = _lemma_and_loop(b, stmt)
        assert bool(lemma) == bool(loop)
        assert set(lemma) <= set(loop)
        column = _columns(b, table)
        for shown, i in lemma:
            z, w = (x for x in range(a.size) if a.labels[x] in shown[1:-1].split(", "))
            assert not oracles.is_convex(a, 1 << column[i][z] | 1 << column[i][w])
        killed += bool(lemma)
    assert killed


@pytest.mark.parametrize("algebra_id", ["L5", "L2xL3"])
@pytest.mark.parametrize(
    "stmt, table", [("enum:crosscheck", "neg"), ("impl:lattice-otimes", "otimes")]
)
def test_filter_crosschecks_fail_under_a_changed_table_entry(algebra_id, stmt, table):
    # the theory lists read only the order masks, which the copies keep, so a
    # changed ¬ entry moves ∧ = ¬(¬x∨¬y) and with it the naive lattice
    # filters, and a changed ⊗ entry the ⊗-closed ones
    a = ALL_ALGEBRAS[algebra_id]
    assert mv.run_finite(a, only=[stmt]).results[0].status == "pass"
    assert any(
        mv.run_finite(b, only=[stmt]).results[0].status == "fail"
        for b in mutants.every_entry_changed(a, table)
    )


@pytest.mark.parametrize(
    "factors, count", [((4, 4), 15), ((8, 8), 63)], ids=["L4xL4", "L8xL8"]
)
def test_kernel_prime_iff_checks_the_prime_implication_list(factors, count):
    # above 12 elements enum:crosscheck skips; kernel:prime-iff still sees
    # that each of the n-1 proper lattice filters now has a kernel of the
    # wrong primality
    a = product(*factors)
    assert mv.run_finite(a, only=["enum:crosscheck"]).results[0].status == "skip"
    assert mv.run_finite(a, only=["kernel:prime-iff"]).results[0].status == "pass"
    with mutants.mutated("enumerate_implication_filters-minimal", a):
        (result,) = mv.run_finite(a, only=["kernel:prime-iff"]).results
    assert result.status == "fail" and len(result.witnesses) == count



# ---------------------------------------------------------------------------
# the dense statements


def test_closed_forms_checks_the_definitions_not_the_oracles(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense:closed-forms called an oracle")

    monkeypatch.setattr(dc, "oracle_sqto", refuse)
    monkeypatch.setattr(dc, "oracle_plus", refuse)
    assert mv.run_dense(only=["dense:closed-forms"]).ok


@pytest.mark.parametrize("branch", [None, *sorted(mutants.KIND_BRANCHES)])
def test_exact_dense_statements_ignore_the_seed(branch):
    # run_dense keeps a seed keyword that nothing reads, mutated or not
    with mutants.mutated(branch or "none"):
        report = mv.run_dense().to_json()
        for seed in (0, 1, 41):
            assert mv.run_dense(seed=seed).to_json() == report
    results = json.loads(report)["results"]
    assert [r["id"] for r in results] == list(DENSE_STATEMENTS)
    if branch is not None:
        assert any(r["witnesses"] for r in results)


def test_dense_trans_takes_one_sqto_per_ordered_pair(monkeypatch):
    calls = []
    real = dc.cut_sqto

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(dc, "cut_sqto", counting)
    assert mv.run_dense(only=["dense:trans"]).ok
    # one collapse matrix over the grid; every triple is read from it
    grid = verify._GRID_CUTS
    assert Counter(calls) == Counter(verify._pairs(grid))
    assert len(calls) == 576


def test_dense_hat_embed_takes_two_sqto_per_grid_pair(monkeypatch):
    calls = Counter()
    for name in ("cut_sqto", "cut_plus"):
        real = getattr(dc, name)
        monkeypatch.setattr(
            dc, name,
            lambda *args, name=name, real=real: calls.update([name]) or real(*args),
        )
    assert mv.run_dense(only=["dense:hat-embed"]).ok
    # x⊸y and x⁺⊸y for each of the 13² point pairs, x⁺ once per point
    assert calls == {"cut_sqto": 2 * 13**2, "cut_plus": 13}


def _subchain_hat_embed():
    """The d ≤ 12 subchain loop that dense:hat-embed ran before it read the
    grid, kept as a reference: its status, "pass", "fail" or "error"."""
    out = []
    try:
        for d in range(1, 13):
            pts = [F(k, d) for k in range(d + 1)]
            members = [dc.canonical_member(x) for x in pts]
            if len({dc.hat_class(m) for m in members}) != len(pts):
                out.append(("injectivity", d))
            for x, mx in zip(pts, members):
                plus = dc.cut_plus(mx)
                if dc.hat_class(plus) != 1 - x:
                    out.append(("plus", d, str(x)))
                for y, my in zip(pts, members):
                    if dc.hat_class(dc.cut_sqto(mx, my)) != dc.chain_imp(x, y):
                        out.append(("morphism", d, str(x), str(y)))
                    if dc.hat_class(dc.cut_sqto(plus, my)) != min(1, x + y):
                        out.append(("oplus", d, str(x), str(y)))
    except Exception:
        return "error"
    return "fail" if out else "pass"


# the dense mutants that move a class; the kind flips move none
MOVES_A_CLASS = sorted(set(mutants.DENSE) - {*mutants.KIND_BRANCHES, "plus-flipped"})


@pytest.mark.parametrize("mutant", mutants.DENSE)
def test_grid_hat_embed_agrees_with_the_subchain_loop(mutant):
    result = mutants.result(mutant, None, "dense:hat-embed")
    with mutants.mutated(mutant):
        assert result.status == _subchain_hat_embed()
    assert (result.status == "pass") == (mutant not in MOVES_A_CLASS)


def test_dense_props_takes_each_sqto_once_per_grid_pair(monkeypatch):
    calls = []
    real = dc.cut_sqto

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(dc, "cut_sqto", counting)
    assert mv.run_dense(only=["dense:props"]).ok
    # every nested ⊸ is read from the table of the 576 grid pairs
    grid = verify._GRID_CUTS
    assert Counter(calls) == Counter(verify._pairs(grid))
    assert len(calls) == len(grid) ** 2 == 576


def test_equiv_and_separation_read_the_integers_not_endpoint(monkeypatch):
    reads = []
    real = dc.Cut.endpoint

    def counting(cut):
        reads.append(cut)
        return real.fget(cut)

    monkeypatch.setattr(dc.Cut, "endpoint", property(counting))
    assert mv.run_dense(only=["dense:equiv-thm", "dense:separation"]).ok
    assert reads == []
    # the counter sees reads: hat-embed's classes are Fraction intervals
    assert mv.run_dense(only=["dense:hat-embed"]).ok
    assert reads
