import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvfilters import cli, filters, run_finite
from mvfilters.core import check_mv_axioms
from mvfilters.errors import InvalidArgument

import oracles
import mutants
from conftest import ALL_ALGEBRAS, BAD_TABLE, chain, cold_spectrum, product

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def specfile(tmp_path):
    def _write(obj, name="algebra.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


L3 = {"kind": "lukasiewicz", "n": 3}
L4 = {"kind": "lukasiewicz", "n": 4}
DENSE = {"kind": "dense"}


# ---------------------------------------------------------------------------
# spec parsing


def test_spec_round_trip():
    for spec in (
        L3,
        {"kind": "product", "factors": [L3, {"kind": "lukasiewicz", "n": 2}]},
        {
            "kind": "table",
            "size": 2,
            "oplus": [[0, 1], [1, 1]],
            "neg": [1, 0],
            "zero": 0,
        },
    ):
        assert cli.parse_spec(json.dumps(spec)) == spec
    assert cli.parse_spec(json.dumps(DENSE), allow_dense=True) == DENSE


def test_spec_rejections():
    with pytest.raises(InvalidArgument, match="unknown keys"):
        cli.parse_spec('{"kind": "lukasiewicz", "n": 3, "bogus": 1}')
    with pytest.raises(InvalidArgument, match=r"\.n: must be an integer >= 2"):
        cli.parse_spec('{"kind": "lukasiewicz", "n": 1}')
    with pytest.raises(InvalidArgument, match="kind: must be one of"):
        cli.parse_spec('{"kind": "dense"}')  # dense needs allow_dense
    with pytest.raises(InvalidArgument, match=r"factors\[1\]"):
        cli.parse_spec(
            '{"kind": "product", "factors": '
            '[{"kind": "lukasiewicz", "n": 2}, {"kind": "nope"}]}'
        )
    with pytest.raises(
        InvalidArgument, match="syntax error at line 1, column 6"
    ):
        cli.parse_spec('{"a":')


# ---------------------------------------------------------------------------
# compute


def test_compute_golden_values(run, specfile):
    path = specfile(L3)
    for expr, want in [
        ("up(1/2)", "{1/2, 1}"),
        ("kernel(up(1/2))", "{1}"),
        ("plus(up(1))", "{1/2, 1}"),
        ("plus(plus(up(1/2)))", "{1/2, 1}"),
        ("sqto(up(1), up(1/2))", "{1/2, 1}"),
        ("subord(up(1/2), 0)", "{1}"),
        ("phi(up(1/2), up(1))", "{1/2, 1}"),
        ("T(up(1/2), up(1))", "{1/2, 1}"),
        ("Ju(up(1), P(0))", "{1}"),
        ("Jd(up(1/2), P(0))", "{1/2, 1}"),
    ]:
        code, out, err = run("compute", path, expr)
        assert (code, err) == (0, "")
        assert out.rstrip("\n") == want, expr


def test_compute_dense_golden_values(run, specfile):
    path = specfile(DENSE, "dense.json")
    for expr, want in [
        ("sqto(cut(4/5,open), cut(1/2,open))", "[7/10,1]"),
        ("sqto(cut(4/5,closed), cut(1/2,open))", "(7/10,1]"),
        ("plus(cut(3/10,open))", "[7/10,1]"),
        ("kernel(cut(9/10,closed))", "[1,1]"),
    ]:
        code, out, err = run("compute", path, expr)
        assert (code, err) == (0, "")
        assert out.rstrip("\n") == want, expr


def test_compute_expression_errors(run, specfile):
    path = specfile(L3)
    code, out, err = run("compute", path, "nonsense(up(1))")
    assert code == 2 and "unknown operator 'nonsense'" in err
    code, out, err = run("compute", path, "up(7/9)")
    assert code == 2 and "no element labelled" in err
    code, out, err = run("compute", path, "sqto(up(1), up(1/2)) extra")
    assert code == 2 and "trailing input" in err
    code, out, err = run("compute", path, "cut(1/2,open)")
    assert code == 2 and "needs the dense chain" in err
    dense = specfile(DENSE, "dense.json")
    code, out, err = run("compute", dense, "phi(cut(1/2,open), cut(1/3,open))")
    assert code == 2 and "not available on the dense chain" in err


@pytest.mark.xfail(
    strict=True,
    reason="the cold J_u and J_d partition L by any mask P; refusing a P that "
    "is not an implication filter waits until the six perfbench/corpus.json "
    "queries with such a P are re-recorded",
)
def test_compute_refuses_j_at_a_p_that_is_not_an_implication_filter(run, specfile):
    # ↑(1/4) is not an implication filter of Ł5: 1/4 ⊗ 1/4 = 0 lies outside
    code, out, err = run(
        "compute", specfile({"kind": "lukasiewicz", "n": 5}), "Ju(up(1/2), up(1/4))"
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_error_positions_are_reported():
    with pytest.raises(InvalidArgument, match="position 10"):
        cli._Parser("sqto(up(1))  , x").parse()
    with pytest.raises(InvalidArgument) as ei:
        cli.evaluate(DENSE, "sqto(cut(1/2,maybe), cut(1/3,open))")
    assert "cut kind must be open or closed" in str(ei.value)


# ---------------------------------------------------------------------------
# verify command and exit codes


def test_verify_exit_zero_and_json(run, specfile, tmp_path):
    path = specfile(L3)
    out_json = tmp_path / "report.json"
    code, out, err = run(
        "verify", path, "--only", "axioms:mv,prop:incl", "--json", str(out_json)
    )
    assert code == 0
    assert out.startswith("target: L3")
    assert "2 statements, 2 passed, 0 failed, 0 skipped" in out
    payload = json.loads(out_json.read_text())
    assert payload["ok"] is True and len(payload["results"]) == 2


def test_unwritable_output_exits_two(run, specfile, tmp_path):
    path = specfile(L3)
    target = str(tmp_path / "nonexistent" / "x.json")
    expected = f"error: cannot write {target}: No such file or directory\n"
    code, out, err = run("verify", path, "--only", "axioms:mv", "--json", target)
    assert out.startswith("target: L3")
    assert (code, err) == (2, expected)
    code, out, err = run("export", path, "filters", "--format", "dot", "-o", target)
    assert (code, out, err) == (2, "", expected)


def test_verify_dense_spec(run, specfile):
    path = specfile(DENSE, "dense.json")
    code, out, err = run("verify", path, "--only", "dense:closed-forms")
    assert code == 0 and "dense:closed-forms" in out


def test_verify_exit_one_on_failure(run, specfile, tmp_path):
    # a certified input, and a statement that fails once ⊸ loses its lowest member
    out_json = tmp_path / "report.json"
    with mutants.mutated("sqto-drop"):
        code, out, err = run("verify", specfile({"kind": "lukasiewicz", "n": 5}),
                             "--only", "equiv:discrete", "--json", str(out_json))
    assert (code, err) == (1, "")
    assert "equiv:discrete           fail" in out and "witness" in out
    assert json.loads(out_json.read_text())["ok"] is False


def test_verify_reports_a_raising_statement(run, specfile):
    # without ⁺'s lowest member prop:T-phi raises; the other statements still run
    with mutants.mutated("set_plus-drop"):
        code, out, err = run("verify", specfile(L2xL3), "--only", "prop:incl,prop:T-phi")
    assert code == 1 and err == ""
    assert "prop:T-phi               error" in out
    assert "witness: InvariantViolation: operation left the spectrum" in out
    assert out.rstrip().endswith("2 statements, 1 passed, 1 failed, 0 skipped")


def test_compute_export_and_verify_refuse_a_non_mv_table(run, specfile, tmp_path):
    out_path = tmp_path / "out"
    for spec in (BAD_TABLE, {"kind": "product", "factors": [L3, BAD_TABLE]}):
        bad = specfile(spec, "bad.json")
        for argv in (
            ("verify", bad, "--json", str(out_path)),
            ("compute", bad, "kernel(up(1))"),
            ("export", bad, "filters", "--format", "dot", "-o", str(out_path)),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: spec is not an MV-algebra: ")
            assert " fails at " in err and err.count("\n") == 1
            assert not out_path.exists()
    good = specfile(
        {"kind": "table", "size": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0],
         "zero": 0},
        "good.json",
    )
    code, out, err = run("compute", good, "kernel(up(1))")
    assert (code, out, err) == (0, "{1}\n", "")
    code, out, err = run("verify", good)
    assert (code, err) == (0, "")


def test_a_product_is_certified_one_table_factor_at_a_time(run, specfile, monkeypatch):
    sizes = []

    def recording(a, **kw):
        sizes.append(a.size)
        return check_mv_axioms(a, **kw)

    monkeypatch.setattr(cli, "check_mv_axioms", recording)
    bad = specfile({"kind": "product", "factors": [L3, BAD_TABLE]})
    assert run("compute", bad, "kernel(up(1))")[0] == 2
    assert sizes == [3]
    good = {"kind": "table", "size": 3, "oplus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
            "neg": [2, 1, 0], "zero": 0}
    sizes.clear()
    code, out, err = run("verify", specfile({"kind": "product", "factors": [L3, good]}))
    assert (code, err) == (0, "")
    assert sizes == [3]


def test_verify_passes_the_one_element_algebra(run, specfile):
    # 0 = 1: a chain whose 0 has no successor, so the successor claims skip
    one_point = {"kind": "table", "size": 1, "oplus": [[0]], "neg": [0], "zero": 0}
    report = run_finite(cli.build_algebra(one_point))
    status = {r.id: r.status for r in report.results}
    assert {"fail", "error"}.isdisjoint(status.values())
    assert status["thm:discrete-principal"] == status["prop:successor"] == "skip"
    code, out, err = run("verify", specfile(one_point))
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("46 passed, 0 failed, 2 skipped")


def test_verify_exit_three_on_cap(run, specfile):
    path = specfile({"kind": "lukasiewicz", "n": 65})
    code, out, err = run("verify", path)
    assert code == 3 and "exceeds" in err
    code, out, err = run("compute", path, "P(0)")
    assert code == 3 and "exceeds" in err
    code, out, err = run("export", path, "filters", "--format", "dot", "-o", "/dev/null")
    assert code == 3 and "exceeds" in err
    # the cap fires before MvAlgebra's bound of 256 elements on its byte tables
    n = 257
    oplus = [[min(n - 1, x + y) for y in range(n)] for x in range(n)]
    chain_table = {"kind": "table", "size": n, "oplus": oplus,
                   "neg": list(range(n))[::-1], "zero": 0}
    code, out, err = run("compute", specfile(chain_table), "up(0)")
    assert (code, out) == (3, "") and "exceeds enumeration cap 64" in err
    # an expression that enumerates nothing is refused before any table is built
    l17 = {"kind": "lukasiewicz", "n": 17}
    for spec in ({"kind": "lukasiewicz", "n": 200},
                 {"kind": "product", "factors": [L4, l17]}):
        code, out, err = run("compute", specfile(spec), "kernel(up(1))")
        assert (code, out) == (3, "") and "exceeds" in err


def test_usage_errors_exit_two(run, specfile, tmp_path):
    code, out, err = run("verify", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read spec file" in err
    bad = tmp_path / "syntax.json"
    bad.write_text("{")
    code, out, err = run("compute", str(bad), "up(1)")
    assert code == 2 and "syntax error" in err
    code, out, err = run("no-such-command")
    assert code == 2
    code, out, err = run("verify", specfile(L3), "--seed", "1")
    assert (code, out) == (2, "") and "--seed" in err
    for only in ("", "fact:a,"):
        code, out, err = run("verify", specfile(L3), "--only", only)
        assert (code, out) == (2, "") and "statement id is empty" in err


# ---------------------------------------------------------------------------
# one parser per process, and nothing else kept between calls


def test_the_parser_is_built_once():
    assert cli._build_argparser() is cli._build_argparser()


def test_verify_options_do_not_leak_into_the_next_call(run, specfile, monkeypatch):
    calls = []
    real = cli.verify.run_finite

    def recording(a, only=None):
        calls.append(only)
        return real(a, only)

    monkeypatch.setattr(cli.verify, "run_finite", recording)
    spec = specfile(L3)
    assert run("verify", spec, "--only", "fact:a")[0] == 0
    code, out, err = run("verify", spec)
    assert code == 0
    assert calls == [["fact:a"], None]
    assert out.count("\n") > len(cli.verify.FINITE_STATEMENTS)


def test_a_usage_error_leaves_the_next_call_as_a_fresh_process(run, specfile):
    spec = specfile(L4)
    assert run("compute", spec)[0] == 2
    code, out, err = run("compute", spec, "plus(up(1/3))")
    fresh = subprocess.run(
        [sys.executable, "-m", "mvfilters.cli", "compute", spec, "plus(up(1/3))"],
        capture_output=True, text=True, check=False,
        env=os.environ | {"PYTHONPATH": str(SRC)},
    )
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert (code, out) == (0, "{1}\n")


def test_each_call_reads_its_spec_file_again(run, specfile):
    spec = specfile(L3)
    assert run("compute", spec, "up(1/2)")[1] == "{1/2, 1}\n"
    specfile(L5)  # the same path, rewritten
    code, out, err = run("compute", spec, "up(1/2)")
    assert (code, out) == (0, "{1/2, 3/4, 1}\n")


def _nested_product(depth):
    """A product spec nested depth factors deep, as JSON text: json.dumps
    recurses once per level and cannot write 2,000 of them."""
    leaf = '{"kind": "lukasiewicz", "n": 2}'
    head = '{"kind": "product", "factors": [' * depth
    return (head + leaf + f", {leaf}]}}" * depth).encode()


BOOL_TABLE = {"kind": "table", "size": 2, "oplus": [[False, True], [True, True]],
              "neg": [True, False], "zero": False}
TABLE2 = {"kind": "table", "size": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0],
          "zero": 0}
BIG = "7" * 5000  # past Python's 4300-digit limit on int <-> text conversion

# (spec written to the spec file, the command's other arguments, the error);
# "{out}" stands for an output path, which must stay unwritten
REFUSED_INPUTS = {
    "not-utf8": (b"\xff\xfe{}", ("verify",), "is not UTF-8 text"),
    "spec-nested-2000": (_nested_product(2000), ("verify",), "nests too deeply"),
    "expr-nested-1500": (
        L3, ("compute", "plus(" * 1500 + "up(1)" + ")" * 1500), "nests too deeply"
    ),
    "endpoint-exponent": (
        DENSE, ("compute", "cut(1e-5000, open)"), "not a rational number"
    ),
    "endpoint-below-0": (
        DENSE, ("compute", "cut(-1/2,open)"),
        "expression error at position 0: cut endpoint must lie in [0,1]",
    ),
    "endpoint-above-1": (
        DENSE, ("compute", "cut(3/2,closed)"),
        "expression error at position 0: cut endpoint must lie in [0,1]",
    ),
    "export-index-digits": (
        {"kind": "lukasiewicz", "n": 8},
        ("export", f"hat:{BIG}", "--format", "csv", "-o", "{out}"),
        "expected a prime index",
    ),
    "bool-table-verify": (BOOL_TABLE, ("verify",), "spec.oplus: must be a 2x2"),
    "bool-table-compute": (BOOL_TABLE, ("compute", "up(1)"), "spec.oplus"),
    "bool-table-export": (
        BOOL_TABLE, ("export", "filters", "--format", "dot", "-o", "{out}"),
        "spec.oplus",
    ),
    "bool-neg": (TABLE2 | {"neg": [True, 0]}, ("verify",), "spec.neg: must list"),
    "bool-zero": (TABLE2 | {"zero": False}, ("verify",), "spec.zero: must be"),
    "kind-unhashable": ({"kind": []}, ("verify",), "spec.kind: must be one of"),
    "integer-digits": (
        f'{{"kind": "lukasiewicz", "n": {BIG}}}'.encode(), ("verify",),
        "integer with too many digits",
    ),
    # the rejections below were reachable before, but no test reached them
    "not-an-object": ([1, 2], ("verify",), "spec: must be an object"),
    "factors-not-a-list": (
        {"kind": "product", "factors": L3}, ("verify",),
        "spec.factors: must be a list of at least two specs",
    ),
    "factors-one": (
        {"kind": "product", "factors": [L3]}, ("verify",), "spec.factors: must be"
    ),
    "size": (TABLE2 | {"size": 0}, ("verify",), "spec.size: must be a positive"),
    "oplus": (
        TABLE2 | {"oplus": [[0, 1], [1]]}, ("verify",),
        "spec.oplus: must be a 2x2 matrix of element indices",
    ),
    "neg": (TABLE2 | {"neg": [1, 2]}, ("verify",), "spec.neg: must list one"),
    "zero": (TABLE2 | {"zero": 2}, ("verify",), "spec.zero: must be an element"),
    "operator-name": (L3, ("compute", "(up(1))"), "expected an operator name"),
    "argument": (L3, ("compute", "sqto(up(1), up( ))"), "expected an argument"),
    "P-not-an-index": (
        L3, ("compute", "Ju(up(1), P(x))"), "expected a prime index, got 'x'"
    ),
    # an index or an endpoint is ASCII decimal: int() and Fraction() would
    # read "1_0" as 10, "0_0" and "٠" as 0, and "٣/٤" as 3/4
    "P-underscore": (L3, ("compute", "P(1_0)"), "expected a prime index, got '1_0'"),
    "P-zero-underscore": (
        L3, ("compute", "P(0_0)"), "expected a prime index, got '0_0'"
    ),
    "P-arabic-indic-zero": (
        L3, ("compute", "P(\u0660)"), "expected a prime index, got '\u0660'"
    ),
    "P-signed": (L3, ("compute", "P(+0)"), "expected a prime index, got '+0'"),
    "hat-index-space": (
        L3, ("export", "hat: 0", "--format", "csv", "-o", "{out}"),
        "expected a prime index, got ' 0'",
    ),
    "spectrum-index-arabic-indic": (
        L3, ("export", "spectrum:\u0660", "--format", "dot", "-o", "{out}"),
        "expected a prime index",
    ),
    "endpoint-arabic-indic": (
        DENSE, ("compute", "cut(\u0663/\u0664,open)"), "not a rational number"
    ),
    "P-out-of-range": (
        L3, ("compute", "P(3)"),
        "index 3 out of range; 1 prime implication filters exist",
    ),
    "endpoint-not-a-number": (
        DENSE, ("compute", "cut(half, open)"), "not a rational number"
    ),
    "endpoint-improper": (
        DENSE, ("compute", "plus(cut(1, open))"), "is not a proper cut filter"
    ),
    "filters-as-csv": (
        L3, ("export", "filters", "--format", "csv", "-o", "{out}"),
        "the filter order is exported as dot",
    ),
    "spectrum-as-csv": (
        L3, ("export", "spectrum:0", "--format", "csv", "-o", "{out}"),
        "spectra are exported as dot",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_refused_input_exits_two(run, tmp_path, case):
    spec, args, message = REFUSED_INPUTS[case]
    path = tmp_path / "spec.json"
    path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    out_path = tmp_path / "out"
    command, *rest = args
    argv = [command, str(path), *(a.replace("{out}", str(out_path)) for a in rest)]
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert not out_path.exists()


def test_endpoints_are_integers_fractions_or_decimals(run, specfile):
    path = specfile(DENSE, "dense.json")
    for point in ("1/2", "0.5", ".5", "2/4", "+0.50"):
        code, out, err = run("compute", path, f"cut({point}, open)")
        assert (code, out, err) == (0, "(1/2,1]\n", ""), point
    code, out, err = run("compute", path, "cut(1, closed)")
    assert (code, out, err) == (0, "[1,1]\n", "")
    for point in ("5e-1", "1/2e0", "0x1", "1_0/20", "1/.5", "inf", "nan"):
        code, out, err = run("compute", path, f"cut({point}, open)")
        assert code == 2 and "not a rational number" in err, point


def test_an_endpoint_too_long_to_print_exits_three(run, specfile):
    # each endpoint reads, but 1 - q + p has about 6,000 digits
    q, p = 10**3000 + 1, 10**3000 + 3
    expr = f"sqto(cut(1/{q}, open), cut(1/{p}, closed))"
    code, out, err = run("compute", specfile(DENSE, "dense.json"), expr)
    assert (code, out) == (3, "")
    assert err == "error: the endpoint has too many digits to print\n"


def test_help_exits_zero(run):
    code, out, err = run("--help")
    assert code == 0


# ---------------------------------------------------------------------------
# export: exact content, byte stability


L3_FILTERS_DOT = """\
digraph "filters of L3" {
  rankdir=BT;
  n4 [label="{1}"];
  n6 [label="{1/2, 1}"];
  n7 [label="{0, 1/2, 1}"];
  n4 -> n6;
  n6 -> n7;
}
"""

L3_HAT_CSV = """\
class,"{1/2, 1}","{1}"
neg,1,0
oplus[0],0,1
oplus[1],1,1
sqto[0],1,1
sqto[1],0,1
"""

# hat tables of a longer chain and of a product, whose two prime implication
# filters give a two-class and a one-class derived algebra
L5 = {"kind": "lukasiewicz", "n": 5}
L2xL3 = {"kind": "product", "factors": [{"kind": "lukasiewicz", "n": 2}, L3]}
PINNED_HAT_CSV = {
    ("L5", "hat:0"): """\
class,"{1/4, 1/2, 3/4, 1}","{1/2, 3/4, 1}","{3/4, 1}","{1}"
neg,3,2,1,0
oplus[0],0,1,2,3
oplus[1],1,2,3,3
oplus[2],2,3,3,3
oplus[3],3,3,3,3
sqto[0],3,3,3,3
sqto[1],2,3,3,3
sqto[2],1,2,3,3
sqto[3],0,1,2,3
""",
    ("L2xL3", "hat:0"): """\
class,"{(0,1/2), (0,1), (1,1/2), (1,1)}","{(0,1), (1,1)}"
neg,1,0
oplus[0],0,1
oplus[1],1,1
sqto[0],1,1
sqto[1],0,1
""",
    ("L2xL3", "hat:1"): """\
class,"{(1,0), (1,1/2), (1,1)}"
neg,0
oplus[0],0
sqto[0],0
""",
}


def test_export_filters_dot(run, specfile, tmp_path):
    path = specfile(L3)
    out_path = tmp_path / "filters.dot"
    code, out, err = run(
        "export", path, "filters", "--format", "dot", "-o", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == L3_FILTERS_DOT


def test_export_hat_csv(run, specfile, tmp_path):
    path = specfile(L3)
    out_path = tmp_path / "hat.csv"
    code, out, err = run(
        "export", path, "hat:0", "--format", "csv", "-o", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == L3_HAT_CSV


@pytest.mark.parametrize("key", sorted(PINNED_HAT_CSV), ids="-".join)
def test_export_hat_csv_pinned(run, specfile, tmp_path, key):
    name, what = key
    path = specfile({"L5": L5, "L2xL3": L2xL3}[name])
    out_path = tmp_path / "hat.csv"
    code, out, err = run("export", path, what, "--format", "csv", "-o", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == PINNED_HAT_CSV[key].encode()


def test_export_spectrum_dot(run, specfile, tmp_path):
    path = specfile(L4)
    out_path = tmp_path / "spec.dot"
    code, out, err = run(
        "export", path, "spectrum:0", "--format", "dot", "-o", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith('digraph "spectrum 0 of L4" {')
    assert text.count("->") == 2  # three nested primes, two covering edges


def test_export_byte_stability(run, specfile, tmp_path):
    path = specfile(L4)
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    for out_path in (a, b):
        code, _, _ = run(
            "export", path, "filters", "--format", "dot", "-o", str(out_path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_rejections(run, specfile):
    path = specfile(L3)
    code, out, err = run("export", path, "hat:9", "--format", "csv", "-o", "/dev/null")
    assert code == 2 and "out of range" in err
    code, out, err = run("export", path, "hat:0", "--format", "dot", "-o", "/dev/null")
    assert code == 2 and "csv" in err
    code, out, err = run("export", path, "wat", "--format", "dot", "-o", "/dev/null")
    assert code == 2 and "unknown export target" in err


def dot_of_containment_loop(name, masks, labels):
    """The Hasse diagram by the definition: a node per mask, ascending, and
    an edge low -> high for every cover pair of ``oracles.covers``."""
    order = sorted(masks)
    lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
    lines += [f'  n{m} [label="{labels(m)}"];' for m in order]
    lines += [f"  n{low} -> n{high};" for low, high in oracles.covers(order)]
    lines.append("}")
    return "\n".join(lines) + "\n"


DOT_ALGEBRAS = ALL_ALGEBRAS | {
    "L32": chain(32), "2^5": product(2, 2, 2, 2, 2), "L3^3": product(3, 3, 3),
}


@pytest.mark.parametrize("name", sorted(DOT_ALGEBRAS))
def test_hasse_diagrams_match_the_triple_loop(name):
    a = DOT_ALGEBRAS[name]
    families = {"filters": filters.enumerate_lattice_filters(a)}
    for k, p in enumerate(filters.enumerate_implication_filters(a, prime_only=True)):
        families[f"spectrum:{k}"] = list(cold_spectrum(a, p).members)
    for what, masks in families.items():
        assert cli._dot_of_containment(what, masks, a.label_set) == (
            dot_of_containment_loop(what, masks, a.label_set)
        ), what
