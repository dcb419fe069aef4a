import copy
import gc
import json
import weakref
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from itertools import combinations, permutations, product as tuples
from pathlib import Path

import pytest

import mvfilters as mv
from mvfilters import calculus, cli, core, densechain as dc, filters, spectra, verify
from mvfilters.errors import InvalidArgument
from mvfilters.verify import DENSE_STATEMENTS, FINITE_STATEMENTS

from conftest import (
    ALL_ALGEBRAS, CHAINS, KIND_BRANCHES, PRODUCTS, assert_check_can_fail,
    branch_flipped, cold_hat, cold_spectrum, drop_lowest, members, plus_flipped,
    product, relabelled, shuffled, swap_arguments,
)


def test_finite_campaign_green(algebra):
    report = mv.run_finite(algebra)
    failed = [r.id for r in report.results if r.status == "fail"]
    assert report.ok, failed
    assert len(report.results) == len(FINITE_STATEMENTS)


def test_dense_campaign_green():
    report = mv.run_dense()
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
    a = mv.run_dense().to_json()
    b = mv.run_dense().to_json()
    assert a == b


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
    "sqto", "kernel", "subordinate", "plus", "spectrum", "hat", "quotient", "rows",
    "quotient_rows", "quotient_sqto",
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


def test_checks_fail_through_a_warm_memo(monkeypatch):
    a = PRODUCTS["L2xL3"]
    ctx = verify.Ctx(a)
    _run_all(ctx)
    fastform = FINITE_STATEMENTS["prop:fastform"][1]
    out = []
    fastform(ctx, out)
    assert not out
    # the ⊗-rows stay warm in ctx; the combinator that reads them is corrupted
    monkeypatch.setattr(calculus, "sqto_full", drop_lowest(calculus.sqto_full))
    fastform(ctx, out)
    assert out


def _subsets(a, f):
    """Every nonempty X ⊆ L∖F as (mask, members): the subset loop that fact:a
    and fact:e once ran, kept as the oracle for their state search."""
    comp = list(members(a.full_mask & ~f))
    for r in range(1, len(comp) + 1):
        for xs in combinations(comp, r):
            yield sum(1 << x for x in xs), xs


def _searched_states(monkeypatch, ctx, stmt):
    """prime F -> the {state: witness} map stmt's search returned for F."""
    seen = {}
    real = verify._reach

    def recording(ctx, f, empty, step):
        seen[f] = real(ctx, f, empty, step)
        return seen[f]

    out = []
    with monkeypatch.context() as m:
        m.setattr(verify, "_reach", recording)
        FINITE_STATEMENTS[stmt][1](ctx, out)
    assert not out
    return seen


def _ideal_generated(a, xs):
    """The union of ↓(∨S) over every nonempty S ⊆ X, each ∨S taken pairwise
    from the join table: the definition of the ideal that X generates."""
    out = 0
    for r in range(1, len(xs) + 1):
        for s in combinations(xs, r):
            out |= a.down_mask[reduce(lambda u, v: a.join[u][v], s)]
    return out


@pytest.mark.parametrize("algebra_id", sorted(ALL_ALGEBRAS))
def test_state_search_matches_the_subset_loop(monkeypatch, algebra_id):
    a = ALL_ALGEBRAS[algebra_id]
    assert a.size <= 12
    ctx = verify.Ctx(a)
    values = _searched_states(monkeypatch, ctx, "fact:a")
    pairs = _searched_states(monkeypatch, ctx, "fact:e")
    assert sorted(values) == sorted(pairs) == ctx.primes
    for f in ctx.primes:
        oracle_values, oracle_pairs = set(), set()
        for xm, xs in _subsets(a, f):
            k = calculus.kernel_rel(a, f, xm)
            join = reduce(lambda u, v: a.join[u][v], xs)
            oracle_values.add(k)
            oracle_pairs.add((k, join))
            if len(xs) <= 4:
                assert filters.down_closure_joins(a, xm) == _ideal_generated(a, xs), xs
        assert set(values[f]) == oracle_values
        assert set(pairs[f]) == oracle_pairs
        # each witness is a nonempty X ⊆ L∖F that produces its state
        for v, xm in values[f].items():
            assert xm and xm & f == 0 and calculus.kernel_rel(a, f, xm) == v
        for (k, join), xm in pairs[f].items():
            assert xm and xm & f == 0 and calculus.kernel_rel(a, f, xm) == k
            assert reduce(lambda u, v: a.join[u][v], members(xm)) == join
            xs = tuple(members(xm))
            assert filters.down_closure_joins(a, xm) == _ideal_generated(a, xs), xs


@pytest.mark.parametrize(
    "factors, total",
    [((32,), 496), ((8, 8), 448), ((2,) * 6, 192)],
    ids=["L32", "L8xL8", "2^6"],
)
def test_fact_e_state_totals(monkeypatch, factors, total):
    pairs = _searched_states(monkeypatch, verify.Ctx(product(*factors)), "fact:e")
    assert sum(len(states) for states in pairs.values()) == total


@pytest.mark.parametrize("algebra_id", ["L5", "L2xL3"])
@pytest.mark.parametrize(
    "stmt, owner, name",
    [
        ("fact:a", calculus, "subordinate"),
        ("fact:a", calculus, "kernel_rel"),
        ("fact:b", calculus, "subordinate"),
        ("fact:b", calculus, "kernel_rel"),
        ("fact:c", calculus, "kernel"),
        ("fact:c", calculus, "kernel_rel"),
        ("fact:e", calculus, "kernel_rel"),
        ("fact:e", filters, "down_closure_joins"),
    ],
    ids=[
        "a-subordinate", "a-kernel_rel", "b-subordinate", "b-kernel_rel",
        "c-kernel", "c-kernel_rel", "e-kernel_rel", "e-down_closure_joins",
    ],
)
def test_relative_kernel_facts_can_fail(monkeypatch, algebra_id, stmt, owner, name):
    assert_check_can_fail(
        monkeypatch, ALL_ALGEBRAS[algebra_id], stmt, owner, name, drop_lowest
    )


def _drop_lowest_at_p_one(real):
    """A Ctx whose quotient-side ⊸ is corrupted at P = {1} only."""
    class Corrupted(real):
        def __init__(self, a):
            super().__init__(a)
            quotient_sqto = self.quotient_sqto

            def corrupted(p, fq, gq):
                m = quotient_sqto(p, fq, gq)
                return m & (m - 1) if p == a.one_mask else m

            self.quotient_sqto = corrupted

    return Corrupted


@pytest.mark.parametrize("algebra_id", ["L5", "L2xL3"])
@pytest.mark.parametrize(
    "stmt, owner, name, corrupt",
    [
        ("prop:phi", calculus, "phi", drop_lowest),
        ("prop:phi", calculus, "sqto_full", drop_lowest),
        ("prop:quot-commute", calculus, "sqto_full", drop_lowest),
        ("prop:quot-commute", verify, "Ctx", _drop_lowest_at_p_one),
        ("prop:small", calculus, "j_up", drop_lowest),
        ("prop:large", calculus, "j_up", drop_lowest),
        ("prop:Ju-kernel", calculus, "j_up", drop_lowest),
        ("prop:T-phi", calculus, "phi", drop_lowest),
        ("prop:T-phi", calculus, "sqto_full", drop_lowest),
        ("prop:fastform", calculus, "sqto_full", drop_lowest),
        ("lem:Jd-lower", calculus, "j_down", drop_lowest),
        ("thm:reduction", calculus, "j_up", drop_lowest),
    ],
    ids=[
        "phi-combinator", "phi-sqto_full", "quot-commute-quotient-side",
        "quot-commute-at-P-one", "small-j_up", "large-j_up", "Ju-kernel-j_up",
        "T-phi-phi", "T-phi-sqto_full", "fastform-sqto_full",
        "Jd-lower-j_down", "reduction-j_up",
    ],
)
def test_row_table_statements_can_fail(
    monkeypatch, algebra_id, stmt, owner, name, corrupt
):
    assert_check_can_fail(
        monkeypatch, ALL_ALGEBRAS[algebra_id], stmt, owner, name, corrupt
    )


def _no_successor_structure(real):
    """successor_structure, reporting that no successor structure exists."""
    return lambda a: None


def _pred_fixes_everything(real):
    """successor_structure with ⊖c sending every element to itself."""
    def corrupted(a):
        c, succ, pred = real(a)
        return c, succ, {x: x for x in pred}

    return corrupted


def _drops_the_top_generator(real):
    """principal_generator, returning None on the filter {1} = ↑1."""
    def corrupted(a, mask):
        g = real(a, mask)
        return None if g == a.one else g

    return corrupted


@pytest.mark.parametrize(
    "stmt, name, corrupt",
    [
        ("thm:discrete-principal", "successor_structure", _no_successor_structure),
        # {1} is proper with kernel {1}, so the statement asks for its
        # generator; it never asks about the improper filter ↑0
        ("thm:discrete-principal", "principal_generator", _drops_the_top_generator),
        ("prop:successor", "successor_structure", _no_successor_structure),
        ("prop:successor", "successor_structure", _pred_fixes_everything),
    ],
    ids=[
        "discrete-principal-absent", "discrete-principal-generator",
        "successor-absent", "successor-pred",
    ],
)
def test_discrete_statements_can_fail(monkeypatch, l5, stmt, name, corrupt):
    assert_check_can_fail(monkeypatch, l5, stmt, filters, name, corrupt)


def _negated_on_pairs(real):
    """is_convex, with its verdict flipped on every mask of at most two
    elements: the only masks the convex lemmas ask about."""
    def corrupted(a, mask):
        return real(a, mask) != (mask.bit_count() <= 2)

    return corrupted


@pytest.mark.parametrize(
    "stmt", ["lem:convex-imp", "lem:convex-neg", "lem:convex-otimes"]
)
def test_convex_lemmas_can_fail(monkeypatch, l5, stmt):
    assert_check_can_fail(
        monkeypatch, l5, stmt, calculus, "is_convex", _negated_on_pairs
    )


def _plus_after(a):
    """The ⊸ mutant on a that returns (F⊸G)⁺ instead of F⊸G."""
    def corrupt(real):
        def corrupted(*args):
            return calculus.set_plus(a, real(*args))

        return corrupted

    return corrupt


@pytest.mark.parametrize(
    "algebra_id, stmt",
    [
        ("L5", "prop:monotone"), ("L5", "prop:revIncl"), ("L5", "cor:sqto-triple"),
        ("L2xL3", "prop:monotone"), ("L2xL3", "prop:revIncl"),
    ],
)
def test_sqto_order_statements_can_fail(monkeypatch, algebra_id, stmt):
    a = ALL_ALGEBRAS[algebra_id]
    assert_check_can_fail(
        monkeypatch, a, stmt, calculus, "sqto", _plus_after(a)
    )


@pytest.mark.parametrize("algebra_id, witnesses", [("L5", 12), ("L2xL3", 2)])
def test_adjunction_can_fail(monkeypatch, algebra_id, witnesses):
    # the ⊸ argument swap kills prop:adjunction; drop-lowest leaves it passing
    a = ALL_ALGEBRAS[algebra_id]
    assert_check_can_fail(
        monkeypatch, a, "prop:adjunction", calculus, "sqto", swap_arguments
    )
    (result,) = mv.run_finite(a, only=["prop:adjunction"]).results
    assert len(result.witnesses) == witnesses


def _with_own_element(real):
    """subordinate, with x itself added to F_x."""
    def corrupted(first, f, x):
        return real(first, f, x) | 1 << x

    return corrupted


def test_subord_monotone_fails_on_both_branches(monkeypatch, l2xl3):
    stmt = "fact:subord-monotone"
    assert_check_can_fail(
        monkeypatch, l2xl3, stmt, calculus, "subordinate",
        _with_own_element,
    )
    (result,) = mv.run_finite(l2xl3, only=[stmt]).results
    assert Counter(w[0] for w in result.witnesses) == {"monotone": 18, "join": 2}


CONVEX_TABLES = {
    "lem:convex-imp": "imp", "lem:convex-neg": "neg", "lem:convex-otimes": "otimes",
}


def _columns(a, name):
    """The maps z ↦ col[z] whose images a convex lemma is about."""
    table = getattr(a, name)
    return [table] if name == "neg" else list(zip(*table))


def _interval_loop(ctx, columns):
    """Every (interval C, column index) whose image of C is not convex.

    The oracle for the convex lemmas: it reads the order only from the masks
    ↑x and ↓y, visits every interval [x, y] = ↑x ∩ ↓y, and decides C = ↑C ∩ ↓C
    for all columns at once, column i at bits i·n to i·n + n − 1.
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
            for z in members(c):
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


def _one_entry_changed(a, name):
    """Every copy of a with one entry of its table name changed, and its ⊕
    table and order masks kept."""
    columns = _columns(a, name)
    for i, col in enumerate(columns):
        for z in range(a.size):
            for v in set(range(a.size)) - {col[z]}:
                changed = [list(c) for c in columns]
                changed[i][z] = v
                b = copy.copy(a)
                object.__setattr__(
                    b, name, tuple(changed[0]) if name == "neg" else tuple(zip(*changed))
                )
                yield b


CONVEX_ORACLE_ALGEBRAS = {f"L{n}": CHAINS[n] for n in (5, 6, 7, 8)} | {
    "L7-relabelled": relabelled(CHAINS[7], (3, 6, 0, 5, 1, 4, 2)),
}


@pytest.mark.parametrize("algebra_id", sorted(CONVEX_ORACLE_ALGEBRAS))
@pytest.mark.parametrize("stmt, table", sorted(CONVEX_TABLES.items()))
def test_convex_lemmas_match_interval_loop(algebra_id, stmt, table):
    # under every one-entry change of the lemma's table the lemma fails
    # exactly when some interval's image is not convex, and every neighbour
    # pair it names is one of those intervals
    killed = 0
    for b in _one_entry_changed(CONVEX_ORACLE_ALGEBRAS[algebra_id], table):
        lemma, loop = _lemma_and_loop(b, stmt)
        assert bool(lemma) == bool(loop)
        assert set(lemma) <= set(loop)
        killed += bool(lemma)
    assert killed


@pytest.mark.parametrize("algebra_id", ["L5", "L2xL3"])
@pytest.mark.parametrize(
    "stmt, table", [("enum:crosscheck", "meet"), ("impl:lattice-otimes", "otimes")]
)
def test_filter_crosschecks_fail_under_a_changed_table_entry(algebra_id, stmt, table):
    # the theory lists read only the order masks, which the copies keep, so a
    # changed ∧ entry moves the naive lattice filters and a changed ⊗ entry
    # the ⊗-closed ones
    a = ALL_ALGEBRAS[algebra_id]
    assert mv.run_finite(a, only=[stmt]).results[0].status == "pass"
    assert any(
        mv.run_finite(b, only=[stmt]).results[0].status == "fail"
        for b in _one_entry_changed(a, table)
    )


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


SPECS = Path(__file__).resolve().parent.parent / "perfbench" / "specs"
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


def _drop_one_prime(real):
    """real, with the first prime lattice filter left out of the prime list."""
    def corrupted(a, prime_only=False):
        out = real(a, prime_only)
        return out[1:] if prime_only else out

    return corrupted


@pytest.mark.parametrize("algebra_id", ["L5", "L2xL3"])
def test_enum_crosscheck_checks_the_prime_list(monkeypatch, algebra_id):
    a = ALL_ALGEBRAS[algebra_id]
    k = len(filters.enumerate_lattice_filters(a, prime_only=True))
    assert_check_can_fail(
        monkeypatch, a, "enum:crosscheck", filters, "enumerate_lattice_filters",
        _drop_one_prime,
    )
    witnesses = mv.run_finite(a, only=["enum:crosscheck"]).results[0].witnesses
    assert witnesses == [("prime filter lists differ", k, k - 1)]


def _keep_minimal_proper(real):
    """real, listing the minimal proper implication filters as the prime ones
    instead of the maximal proper ones."""
    def corrupted(a, prime_only=False):
        out = real(a)
        if prime_only:
            out = [m for m in out if m != a.full_mask]
            out = [m for m in out if not any(o != m and o & ~m == 0 for o in out)]
        return out

    return corrupted


def test_enum_crosscheck_checks_the_prime_implication_list(monkeypatch):
    # on L2xL3 the minimal proper one is {1}, the maximal ones are two
    a = PRODUCTS["L2xL3"]
    assert_check_can_fail(
        monkeypatch, a, "enum:crosscheck", filters, "enumerate_implication_filters",
        _keep_minimal_proper,
    )
    witnesses = mv.run_finite(a, only=["enum:crosscheck"]).results[0].witnesses
    assert witnesses == [("prime implication filter lists differ", 2, 1)]


@pytest.mark.parametrize(
    "factors, count", [((4, 4), 15), ((8, 8), 63)], ids=["L4xL4", "L8xL8"]
)
def test_kernel_prime_iff_checks_the_prime_implication_list(
    monkeypatch, factors, count
):
    # above 12 elements enum:crosscheck skips; kernel:prime-iff still sees
    # that each of the n-1 proper lattice filters now has a kernel of the
    # wrong primality
    a = product(*factors)
    assert mv.run_finite(a, only=["enum:crosscheck"]).results[0].status == "skip"
    assert_check_can_fail(
        monkeypatch, a, "kernel:prime-iff", filters, "enumerate_implication_filters",
        _keep_minimal_proper,
    )
    report = mv.run_finite(a, only=["kernel:prime-iff"])
    assert len(report.results[0].witnesses) == count


@pytest.mark.parametrize("factors", [(8, 8), (2,) * 6], ids=["L8xL8", "2^6"])
def test_phi_and_quot_commute_pass_on_64_elements(factors):
    report = mv.run_finite(product(*factors), only=["prop:phi", "prop:quot-commute"])
    assert [r.status for r in report.results] == ["pass", "pass"]


def test_a_raising_statement_is_an_error_not_an_abort(monkeypatch):
    # without ⁺'s lowest member a hat operation leaves the spectrum and raises
    monkeypatch.setattr(calculus, "set_plus", drop_lowest(calculus.set_plus))
    report = mv.run_finite(PRODUCTS["L2xL3"])
    assert len(report.results) == len(FINITE_STATEMENTS)
    errors = {r.id: r.witnesses for r in report.results if r.status == "error"}
    assert errors == dict.fromkeys(
        ["prop:T-phi", "thm:iota", "thm:hat-eta", "thm:composite"],
        ["InvariantViolation: operation left the spectrum: {(1,1)}"],
    )
    # 7 failures and the 4 errors
    assert report.to_text().endswith("31 passed, 11 failed, 6 skipped")
    assert not report.ok and json.loads(report.to_json())["ok"] is False


@pytest.mark.parametrize("branch", sorted(KIND_BRANCHES))
def test_dense_theorems_check_the_closed_form(monkeypatch, branch):
    monkeypatch.setattr(dc, "cut_sqto", branch_flipped(branch))
    theorems = [s for s in DENSE_STATEMENTS if s != "dense:closed-forms"]
    report = mv.run_dense(only=theorems)
    assert [r.id for r in report.results if r.status == "fail"]


@pytest.mark.parametrize(
    "branch, witnesses",
    [("closed-target", 121), ("closed-meet", 77), ("open-meet", 66)],
    ids=["closed-target", "closed-meet", "open-meet"],
)
def test_closed_forms_fails_on_each_flipped_sqto_branch(
    monkeypatch, branch, witnesses
):
    monkeypatch.setattr(dc, "cut_sqto", branch_flipped(branch))
    (result,) = mv.run_dense(only=["dense:closed-forms"]).results
    assert result.status == "fail"
    assert len(result.witnesses) == witnesses


def test_closed_forms_fails_on_a_flipped_plus(monkeypatch):
    monkeypatch.setattr(dc, "cut_plus", plus_flipped())
    (result,) = mv.run_dense(only=["dense:closed-forms"]).results
    assert result.status == "fail"
    assert len(result.witnesses) == 22
    assert {w[0] for w in result.witnesses} == {"plus"}


def shifted_endpoint(real, step):
    """real, with the endpoint of each value moved by step: down where it can."""
    def corrupted(*args):
        c = real(*args)
        e = c.endpoint
        return dc.Cut(e - step if e >= step else e + step, c.kind)

    return corrupted


@pytest.mark.parametrize(
    "name, step, witnesses",
    [
        # off the grid: the denominator 1000 does not divide 12
        ("cut_sqto", F(1, 1000), 576),
        # one grid step: the value disagrees at a point of {k/24}
        ("cut_plus", F(1, 12), 24),
    ],
    ids=["sqto-off-grid", "plus-one-step"],
)
def test_closed_forms_fails_on_a_shifted_endpoint(monkeypatch, name, step, witnesses):
    monkeypatch.setattr(dc, name, shifted_endpoint(getattr(dc, name), step))
    (result,) = mv.run_dense(only=["dense:closed-forms"]).results
    assert result.status == "fail"
    assert len(result.witnesses) == witnesses


def test_closed_forms_checks_the_definitions_not_the_oracles(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense:closed-forms called an oracle")

    monkeypatch.setattr(dc, "oracle_sqto", refuse)
    monkeypatch.setattr(dc, "oracle_plus", refuse)
    assert mv.run_dense(only=["dense:closed-forms"]).ok


@pytest.mark.parametrize("branch", [None, *sorted(KIND_BRANCHES)])
def test_exact_dense_statements_ignore_the_seed(monkeypatch, branch):
    # run_dense keeps a seed keyword that nothing reads, mutated or not
    if branch is not None:
        monkeypatch.setattr(dc, "cut_sqto", branch_flipped(branch))
    report = mv.run_dense().to_json()
    for seed in (0, 1, 41):
        assert mv.run_dense(seed=seed).to_json() == report
    results = json.loads(report)["results"]
    assert [r["id"] for r in results] == list(DENSE_STATEMENTS)
    if branch is not None:
        assert any(r["witnesses"] for r in results)


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


def _collapse_closed_pairs(real):
    """cut_sqto with every closed–closed pair sent to {1}."""
    def mutated(f, g):
        if f.kind is dc.Kind.CLOSED and g.kind is dc.Kind.CLOSED:
            return dc.TOP
        return real(f, g)

    return mutated


def test_dense_trans_can_fail(monkeypatch):
    monkeypatch.setattr(dc, "cut_sqto", _collapse_closed_pairs(dc.cut_sqto))
    (result,) = mv.run_dense(only=["dense:trans"]).results
    assert result.status == "fail"
    assert len(result.witnesses) == 242


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


# mutant -> (densechain attribute, factory of its corrupted version,
# dense:hat-embed's witness count under it, or None for an error)
HAT_EMBED_MUTANTS = {
    "collapse-closed-pairs": ("cut_sqto", _collapse_closed_pairs, 77),
    "sqto-swapped": ("cut_sqto", lambda real: lambda f, g: real(g, f), 312),
    "sqto-off-grid": ("cut_sqto", lambda real: shifted_endpoint(real, F(1, 1000)), 338),
    "sqto-one-step": ("cut_sqto", lambda real: shifted_endpoint(real, F(1, 12)), None),
    "plus-one-step": ("cut_plus", lambda real: shifted_endpoint(real, F(1, 12)), 92),
    "plus-off-grid": ("cut_plus", lambda real: shifted_endpoint(real, F(1, 1000)), 92),
}


@pytest.mark.parametrize("mutant", sorted(HAT_EMBED_MUTANTS))
def test_dense_hat_embed_can_fail(monkeypatch, mutant):
    name, corrupt, witnesses = HAT_EMBED_MUTANTS[mutant]
    monkeypatch.setattr(dc, name, corrupt(getattr(dc, name)))
    (result,) = mv.run_dense(only=["dense:hat-embed"]).results
    if witnesses is None:
        # ⊸ at 1/12 shifted down is [0,1], not proper, and hat_class refuses it
        assert result.status == "error"
    else:
        assert result.status == "fail"
        assert len(result.witnesses) == witnesses
        # a witness names its points only: no subchain denominator
        assert all(isinstance(v, str) for w in result.witnesses for v in w)


@pytest.mark.parametrize(
    "mutant",
    [*sorted(HAT_EMBED_MUTANTS), *sorted(KIND_BRANCHES), "plus-flipped"],
)
def test_grid_hat_embed_agrees_with_the_subchain_loop(monkeypatch, mutant):
    if mutant in HAT_EMBED_MUTANTS:
        name, corrupt, _ = HAT_EMBED_MUTANTS[mutant]
        monkeypatch.setattr(dc, name, corrupt(getattr(dc, name)))
    elif mutant in KIND_BRANCHES:
        monkeypatch.setattr(dc, "cut_sqto", branch_flipped(mutant))
    else:
        monkeypatch.setattr(dc, "cut_plus", plus_flipped())
    (result,) = mv.run_dense(only=["dense:hat-embed"]).results
    assert result.status == _subchain_hat_embed()
    # the kind flips do not move a class, so both pass under them
    assert (result.status == "pass") == (mutant not in HAT_EMBED_MUTANTS)


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


def _props_failures(monkeypatch, name, corrupted):
    monkeypatch.setattr(dc, name, corrupted)
    (result,) = mv.run_dense(only=["dense:props"]).results
    assert result.status == "fail"
    return {w[0] for w in result.witnesses}


@pytest.mark.parametrize(
    "branch, failing",
    [
        ("closed-meet", {"OneOne", "incl"}),
        ("open-meet", {"FFg", "plus"}),
        ("closed-target", {"FFg", "OneOne", "axiomC", "plus"}),
    ],
    ids=["closed-meet", "open-meet", "closed-target"],
)
def test_dense_props_fails_on_each_flipped_sqto_branch(monkeypatch, branch, failing):
    assert _props_failures(monkeypatch, "cut_sqto", branch_flipped(branch)) == failing


def test_dense_props_fails_when_closed_pairs_collapse(monkeypatch):
    failing = _props_failures(
        monkeypatch, "cut_sqto", _collapse_closed_pairs(dc.cut_sqto))
    assert failing == {
        "OneOne", "plus", "FFg", "triple", "revIncl", "axiomG", "axiomC",
    }


@pytest.mark.parametrize("name, count", [("cut_sqto", 576), ("cut_plus", 24)])
def test_dense_props_reports_values_off_the_grid(monkeypatch, name, count):
    # a value off the grid is a witness, not an error: the nested ⊸ that
    # would read it is not taken
    monkeypatch.setattr(dc, name, shifted_endpoint(getattr(dc, name), F(1, 1000)))
    (result,) = mv.run_dense(only=["dense:props"]).results
    assert result.status == "fail"
    assert len(result.witnesses) == count
    assert {w[0] for w in result.witnesses} == {"off-grid"}


def test_dense_separation_can_fail(monkeypatch):
    # with its arguments swapped, F⊸G is G⊸F = {1} whenever F ⊆ G
    real = dc.cut_sqto
    monkeypatch.setattr(dc, "cut_sqto", lambda f, g: real(g, f))
    (result,) = mv.run_dense(only=["dense:separation"]).results
    assert result.status == "fail"
    assert len(result.witnesses) == 1_156


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
