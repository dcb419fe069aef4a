"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.  Criterion 6 carries a strict xfail twin for the literal
isomorphism-to-L claim, which is off by one on finite chains (see the
passing corrected variant next to it).
"""

import time

import pytest

import mvfilters as mv
from mvfilters import calculus, cli, core, filters

from conftest import (
    ALL_ALGEBRAS, CHAINS, chain, cold_hat, cold_phi, cold_spectrum, cold_sqto_fast,
    cold_sqto_full, find_isomorphism,
)
from oracles import leq


def verdict(n, label, ok):
    print(f"criterion {n:>2} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n}: {label}"


def test_criterion_01_mv_certification():
    t0 = time.perf_counter()
    ok = not any(core.check_mv_axioms(a) for a in ALL_ALGEBRAS.values())
    elapsed = time.perf_counter() - t0
    verdict(1, "MV certification", ok and elapsed < 5.0)


def test_criterion_02_sqto_equivalence():
    ok = True
    for a in ALL_ALGEBRAS.values():
        primes = filters.enumerate_lattice_filters(a, prime_only=True)
        for f in primes:
            for g in primes:
                if mv.sqto(a, f, g) != cold_sqto_fast(a, f, g):
                    ok = False
    verdict(2, "definitional = fast-form sqto", ok)


PROPOSITION_IDS = [
    "fact:a", "fact:b", "fact:c", "fact:d", "fact:e",
    "prop:SubAEq", "prop:incl", "prop:inclOne", "prop:monotone",
    "prop:revIncl", "prop:plus", "prop:OneOne", "prop:adjunction",
    "prop:axiomC", "lem:FFg", "cor:sqto-triple", "prop:axiomG",
    "prop:small", "prop:large", "prop:Ju-kernel", "lem:Jd-lower",
    "thm:reduction", "prop:quot-commute", "thm:kernel-sqto",
]


def test_criterion_03_proposition_suite():
    t0 = time.perf_counter()
    ok = all(
        mv.run_finite(a, only=PROPOSITION_IDS).ok for a in ALL_ALGEBRAS.values()
    )
    elapsed = time.perf_counter() - t0
    verdict(3, "proposition suite exhaustive", ok and elapsed < 60.0)


def test_criterion_04_convexity():
    ids = ["lem:convex-imp", "lem:convex-neg", "lem:convex-otimes"]
    ok = all(
        r.status == "pass"
        for n in (6, 7)
        for r in mv.run_finite(CHAINS[n], only=ids).results
    )
    verdict(4, "convex image lemmas on L6 and L7", ok)


def test_criterion_05_discrete_case():
    ok = True
    for n, a in CHAINS.items():
        structure = filters.successor_structure(a)
        if structure is None:
            ok = False
            continue
        c, succ, pred = structure
        # succ/pred are immediate neighbours
        for x, s in succ.items():
            if sum(1 for z in range(a.size) if leq(a, x, z) and leq(a, z, s)) != 2:
                ok = False
        for x, p in pred.items():
            if sum(1 for z in range(a.size) if leq(a, p, z) and leq(a, z, x)) != 2:
                ok = False
        # every filter with kernel {1} is principal
        for f in filters.enumerate_lattice_filters(a):
            if mv.kernel(a, f) == a.one_mask:
                if mv.principal_generator(a, f) is None:
                    ok = False
    verdict(5, "successor structure and principality", ok)


def test_criterion_06_hat_construction():
    ok = True
    for a in ALL_ALGEBRAS.values():
        for p in filters.enumerate_implication_filters(a, prime_only=True):
            spec = cold_spectrum(a, p)
            if not spec.members:
                continue
            h = cold_hat(spec)  # raises unless certified + linear
            if core.check_mv_axioms(h.as_mv) or not core.is_linear(h.as_mv):
                ok = False
    verdict(6, "hat builds, certified, linear", ok)


@pytest.mark.xfail(
    strict=True,
    reason="hat(L_n, {1}) has n-1 classes, so it cannot be isomorphic to L_n "
    "itself; the collapse lands one rung lower (see the corrected variant)",
)
def test_criterion_06_hat_iso_to_L_as_stated():
    for n, a in CHAINS.items():
        h = cold_hat(cold_spectrum(a, a.one_mask))
        assert find_isomorphism(h.as_mv, a) is not None


def test_criterion_06_hat_iso_corrected():
    ok = True
    for n, a in CHAINS.items():
        if n < 3:
            continue
        h = cold_hat(cold_spectrum(a, a.one_mask))
        if find_isomorphism(h.as_mv, chain(n - 1)) is None:
            ok = False
    verdict(6, "hat of a chain collapses one rung down", ok)


def test_criterion_07_t_phi_encoding():
    ok = True
    for n in (5, 6):
        a = CHAINS[n]
        for p in filters.enumerate_implication_filters(a, prime_only=True):
            members = cold_spectrum(a, p).members
            for f in members:
                for g in members:
                    t = calculus.tensor_up(a, f, g)
                    u = cold_phi(a, f, g)
                    enc = mv.set_plus(a, cold_sqto_full(a, f, mv.set_plus(a, g)))
                    if not (t == u == enc):
                        ok = False
    verdict(7, "T = Phi = (F sqto G+)+ set equality", ok)


def test_criterion_08_spectrum_morphisms():
    # no test algebra has a nested pair of proper prime implication filters,
    # so the literal quantification is vacuous; assert the vacuity and run
    # the same checks against the improper extension, which does exist
    checked = 0
    ok = True
    for a in ALL_ALGEBRAS.values():
        primes = filters.enumerate_implication_filters(a, prime_only=True)
        nested = [
            (p, q) for p in primes for q in primes if p & ~q == 0 and p != q
        ]
        assert nested == []
        checked += sum(1 for p in primes if cold_spectrum(a, p).members)
        ok = ok and mv.run_finite(a, only=["thm:hat-eta", "thm:composite"]).ok
    verdict(8, "eta-hat morphism and composite (improper extension)", ok and checked)


def test_criterion_09_dense_closed_forms():
    t0 = time.perf_counter()
    report = mv.run_dense(only=["dense:closed-forms", "dense:negate"])
    elapsed = time.perf_counter() - t0
    verdict(9, "dense closed forms vs definitions on the grid", report.ok and elapsed < 10.0)


def test_criterion_10_dense_theorems():
    ids = [
        "dense:equiv-thm", "dense:separation", "dense:trans",
        "dense:congruence", "dense:props", "dense:kernel", "dense:hat-embed",
    ]
    report = mv.run_dense(only=ids)
    verdict(10, "dense theorem suite", report.ok)


def test_criterion_11_cli_golden(tmp_path, capsys):
    import json

    spec_path = tmp_path / "l3.json"
    spec_path.write_text(json.dumps({"kind": "lukasiewicz", "n": 3}))
    dense_path = tmp_path / "dense.json"
    dense_path.write_text(json.dumps({"kind": "dense"}))

    ok = True

    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    code, out, _ = run(
        "compute", str(dense_path), "sqto(cut(4/5,open), cut(1/2,open))"
    )
    ok &= code == 0 and out.strip() == "[7/10,1]"
    code, out, _ = run("compute", str(spec_path), "kernel(up(1/2))")
    ok &= code == 0 and out.strip() == "{1}"
    code, _, err = run("compute", str(spec_path), "up(9/7)")
    ok &= code == 2 and "no element labelled" in err
    code, *_ = run("verify", str(spec_path), "--only", "axioms:mv")
    ok &= code == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run("compute", str(bad), "up(1)")
    ok &= code == 2 and "syntax error" in err
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out_a, out_b):
        code, *_ = run(
            "export", str(spec_path), "hat:0", "--format", "csv", "-o", str(path)
        )
        ok &= code == 0
    ok &= out_a.read_bytes() == out_b.read_bytes()
    with capsys.disabled():
        print()
        verdict(11, "CLI golden behaviours", ok)
