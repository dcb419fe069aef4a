import json

import pytest

from mvfilters import calculus, cli
from mvfilters.errors import InvalidArgument

from conftest import drop_lowest


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
# a non-involutive negation: not an MV-algebra
BAD_TABLE = {
    "kind": "table",
    "size": 3,
    "oplus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
    "neg": [2, 2, 0],
    "zero": 0,
}


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


def test_verify_exit_one_on_failure(run, specfile):
    bad = specfile(BAD_TABLE, "bad.json")
    code, out, err = run("verify", bad, "--only", "axioms:mv")
    assert code == 1
    assert "fail" in out and "witness" in out


def test_verify_reports_a_raising_statement(run, specfile, monkeypatch):
    # without ⁺'s lowest member prop:T-phi raises; the other statements still run
    monkeypatch.setattr(calculus, "set_plus", drop_lowest(calculus.set_plus))
    code, out, err = run("verify", specfile(L2xL3), "--only", "prop:incl,prop:T-phi")
    assert code == 1 and err == ""
    assert "prop:T-phi               error" in out
    assert "witness: InvariantViolation: operation left the spectrum" in out
    assert out.rstrip().endswith("2 statements, 1 passed, 1 failed, 0 skipped")


def test_compute_and_export_refuse_a_non_mv_table(run, specfile, tmp_path):
    out_path = tmp_path / "filters.dot"
    for spec in (BAD_TABLE, {"kind": "product", "factors": [L3, BAD_TABLE]}):
        bad = specfile(spec, "bad.json")
        code, out, err = run("compute", bad, "kernel(up(1))")
        assert (code, out) == (2, "")
        assert "not an MV-algebra" in err and "fails at" in err
        code, out, err = run(
            "export", bad, "filters", "--format", "dot", "-o", str(out_path)
        )
        assert code == 2 and "not an MV-algebra" in err
        assert not out_path.exists()
    good = specfile(
        {"kind": "table", "size": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0],
         "zero": 0},
        "good.json",
    )
    code, out, err = run("compute", good, "kernel(up(1))")
    assert (code, out, err) == (0, "{1}\n", "")


def test_verify_exit_three_on_cap(run, specfile):
    path = specfile({"kind": "lukasiewicz", "n": 65})
    code, out, err = run("verify", path)
    assert code == 3 and "exceeds" in err
    code, out, err = run("compute", path, "P(0)")
    assert code == 3 and "exceeds" in err
    code, out, err = run("export", path, "filters", "--format", "dot", "-o", "/dev/null")
    assert code == 3 and "exceeds" in err
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
