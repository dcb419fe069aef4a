"""Command-line driver: spec parsing, verification campaigns, evaluation, export.

Commands::

    mvfilters verify  <specfile> [--only id,id] [--json out]
    mvfilters compute <specfile> <expression>
    mvfilters export  <specfile> <filters|spectrum:K|hat:K> --format dot|csv
                      -o path

Exit codes: 0 all checks pass, 1 verification failures, 2 usage or parse
errors or a table that is not an MV-algebra, 3 resource limits exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import calculus, densechain as dc, filters, spectra, verify
from .core import (
    MvAlgebra,
    check_mv_axioms,
    congruence_cosets,
    lukasiewicz_tables,
    make_lukasiewicz_chain,
    make_product,
)
from .errors import InvalidArgument, MvError, ResourceLimit


# ---------------------------------------------------------------------------
# algebra spec files


_SPEC_KEYS = {
    "lukasiewicz": {"kind", "n"},
    "product": {"kind", "factors"},
    "table": {"kind", "size", "oplus", "neg", "zero"},
    "dense": {"kind"},
}


def _indices(v, shape: tuple[int, ...], size: int) -> bool:
    """v is nested lists of the given shape with element indices as leaves:
    JSON integers in [0, size), which ``true`` and ``false`` are not."""
    if not shape:
        return type(v) is int and 0 <= v < size
    return isinstance(v, list) and len(v) == shape[0] and all(
        _indices(x, shape[1:], size) for x in v
    )


def _validate_spec(obj, allow_dense: bool, path: str = "spec"):
    if not isinstance(obj, dict):
        raise InvalidArgument(f"{path}: must be an object")
    kind = obj.get("kind")
    allowed = sorted(k for k in _SPEC_KEYS if allow_dense or k != "dense")
    if kind not in allowed:  # a list compares by ==, so kind may be unhashable
        raise InvalidArgument(
            f"{path}.kind: must be one of {', '.join(allowed)} (got {kind!r})"
        )
    unknown = set(obj) - _SPEC_KEYS[kind]
    if unknown:
        raise InvalidArgument(f"{path}: unknown keys {sorted(unknown)}")
    if kind == "lukasiewicz":
        n = obj.get("n")
        if type(n) is not int or n < 2:
            raise InvalidArgument(f"{path}.n: must be an integer >= 2")
    elif kind == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise InvalidArgument(
                f"{path}.factors: must be a list of at least two specs"
            )
        for i, sub in enumerate(factors):
            _validate_spec(sub, allow_dense=False, path=f"{path}.factors[{i}]")
    elif kind == "table":
        size = obj.get("size")
        if type(size) is not int or size < 1:
            raise InvalidArgument(f"{path}.size: must be a positive integer")
        for key, shape, want in (
            ("oplus", (size, size), f"be a {size}x{size} matrix of element indices"),
            ("neg", (size,), "list one element index per element"),
            ("zero", (), "be an element index"),
        ):
            if not _indices(obj.get(key), shape, size):
                raise InvalidArgument(f"{path}.{key}: must {want}")


def parse_spec(text: str, allow_dense: bool = False) -> dict:
    """Parse and validate an algebra spec (JSON text)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidArgument(
            f"spec syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except ValueError:  # an integer past Python's conversion limit
        raise InvalidArgument("spec holds an integer with too many digits") from None
    _validate_spec(obj, allow_dense=allow_dense)
    return obj


def _carrier_size(spec: dict) -> int:
    if spec["kind"] == "product":
        return math.prod(_carrier_size(s) for s in spec["factors"])
    return spec["n"] if spec["kind"] == "lukasiewicz" else spec["size"]


def build_algebra(spec: dict) -> MvAlgebra:
    """The algebra of a finite spec; ResourceLimit before any table is built
    if its carrier exceeds the cap.

    Every command builds through here.  A ``table`` must satisfy the MV
    axioms, or the spec is refused.  Chains are MV-algebras by construction,
    and MV-algebras form a variety, so a product is certified one ``table``
    factor at a time: O(k³) on a k-element factor, not O(n³) on the product.
    A chain factor is handed to ``make_product`` as its raw tables, so no
    table of it is derived.
    """
    kind = spec["kind"]
    if kind not in ("lukasiewicz", "product", "table"):
        raise InvalidArgument(f"cannot build an algebra of kind {kind!r}")
    filters.check_cap(_carrier_size(spec))
    if kind == "lukasiewicz":
        return make_lukasiewicz_chain(spec["n"])
    if kind == "product":
        return make_product(*(
            lukasiewicz_tables(s["n"]) if s["kind"] == "lukasiewicz" else build_algebra(s)
            for s in spec["factors"]
        ))
    a = MvAlgebra(
        spec["size"],
        tuple(tuple(row) for row in spec["oplus"]),
        tuple(spec["neg"]),
        spec["zero"],
        name=f"table[{spec['size']}]",
    )
    failures = check_mv_axioms(a, max_failures=1)
    if failures:
        ((axiom, witness),) = failures
        raise InvalidArgument(f"spec is not an MV-algebra: {axiom} fails at {witness}")
    return a


def _load_spec(path: str, allow_dense: bool) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InvalidArgument(f"cannot read spec file {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidArgument(f"spec file {path} is not UTF-8 text") from None
    return parse_spec(text, allow_dense=allow_dense)


# ---------------------------------------------------------------------------
# the compute expression grammar


class ExprError(InvalidArgument):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"expression error at position {pos}: {msg}")


class _Parser:
    """Recursive descent for  op(arg, ...)  with raw (non-expression) atoms."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def _ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def _expect(self, ch: str):
        self._ws()
        if self.i >= len(self.text) or self.text[self.i] != ch:
            raise ExprError(f"expected {ch!r}", self.i)
        self.i += 1

    def _name(self) -> str:
        self._ws()
        j = self.i
        while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
            j += 1
        if j == self.i:
            raise ExprError("expected an operator name", self.i)
        name, self.i = self.text[self.i : j], j
        return name

    def _raw(self) -> str:
        """Capture a raw argument up to the next top-level ',' or ')'."""
        self._ws()
        depth, j = 0, self.i
        while j < len(self.text):
            c = self.text[j]
            if c in "([":
                depth += 1
            elif c in ")]":
                if depth == 0:
                    break
                depth -= 1
            elif c == "," and depth == 0:
                break
            j += 1
        raw, self.i = self.text[self.i : j].strip(), j
        if not raw:
            raise ExprError("expected an argument", self.i)
        return raw

    def parse(self):
        node = self._node()
        self._ws()
        if self.i != len(self.text):
            raise ExprError("trailing input", self.i)
        return node

    def _node(self):
        pos = self.i
        name = self._name()
        self._expect("(")
        if name not in _OPERATORS:
            raise ExprError(f"unknown operator {name!r}", pos)
        args = []
        for k, shape in enumerate(_OPERATORS[name][0]):
            if k:
                self._expect(",")
            args.append(self._node() if shape == "expr" else self._raw())
        self._expect(")")
        return (name, args, pos)


def _element(a: MvAlgebra, raw: str, pos: int) -> int:
    want = raw.replace(" ", "")
    for i, lab in enumerate(a.labels):
        if lab.replace(" ", "") == want:
            return i
    raise ExprError(f"no element labelled {raw!r}", pos)


def _prime(a: MvAlgebra, raw: str) -> tuple[int, int]:
    """(k, mask) of the k-th prime implication filter, k read from raw."""
    try:
        if not re.fullmatch(r"[0-9]+", raw):  # int() reads "1_0", " 1" and "٣"
            raise ValueError
        k = int(raw)
    except ValueError:
        raise InvalidArgument(f"expected a prime index, got {raw!r}") from None
    primes = filters.enumerate_implication_filters(a, prime_only=True)
    if not 0 <= k < len(primes):
        raise InvalidArgument(
            f"index {k} out of range; {len(primes)} prime implication filters exist"
        )
    return k, primes[k]


def _cut(pos: int, point: str, kind: str) -> dc.Cut:
    try:
        # p, p/q or a plain decimal in ASCII digits: Fraction expands an
        # exponent digit by digit, and reads other scripts' digits
        if not re.fullmatch(r"[+-]?([0-9]+/[0-9]+|[0-9]*\.?[0-9]+)", point):
            raise ValueError
        p = Fraction(point)
    except (ValueError, ZeroDivisionError):
        raise ExprError(f"not a rational number: {point!r}", pos) from None
    kind = kind.lower()
    if kind not in ("open", "closed"):
        raise ExprError("cut kind must be open or closed", pos)
    cut = dc.Cut(p, dc.Kind.OPEN if kind == "open" else dc.Kind.CLOSED)
    if not cut.is_proper:
        raise ExprError(f"{cut} is not a proper cut filter", pos)
    return cut


# name: (argument shapes, finite op(a, pos, *args) or None, dense op(pos, *args)
# or None).  An "expr" argument reaches the op evaluated, a "raw" one as text.
# The ops look their function up on its module when they run.
_OPERATORS = {
    "up": (("raw",), lambda a, pos, x: a.up_mask[_element(a, x, pos)], None),
    "P": (("raw",), lambda a, pos, k: _prime(a, k)[1], None),
    "cut": (("raw", "raw"), None, _cut),
    "plus": (("expr",), lambda a, pos, f: calculus.set_plus(a, f),
             lambda pos, f: dc.cut_plus(f)),
    "kernel": (("expr",), lambda a, pos, f: calculus.kernel(a, f),
               lambda pos, f: dc.kernel_of_cut(f)),
    "sqto": (("expr", "expr"), lambda a, pos, f, g: calculus.sqto(a, f, g),
             lambda pos, f, g: dc.cut_sqto(f, g)),
    "phi": (("expr", "expr"), lambda a, pos, f, g: calculus.phi(
        calculus.rows(a, "imp", g), f), None),
    "T": (("expr", "expr"), lambda a, pos, f, g: calculus.tensor_up(a, f, g), None),
    "Ju": (("expr", "expr"), lambda a, pos, f, p: calculus.j_up(
        congruence_cosets(a, p)[2], f), None),
    "Jd": (("expr", "expr"), lambda a, pos, f, p: calculus.j_down(
        functools.partial(calculus.set_plus, a), congruence_cosets(a, p)[2], f), None),
    "subord": (("expr", "raw"), lambda a, pos, f, x: calculus.subordinate(
        a, f, _element(a, x, pos)), None),
}


def _eval(node, a: MvAlgebra | None):
    """The value of a parsed expression: a mask of a, or a cut if a is None."""
    name, args, pos = node
    shapes, finite, dense = _OPERATORS[name]
    if a is None and dense is None:
        raise ExprError(f"operator {name!r} is not available on the dense chain", pos)
    if a is not None and finite is None:
        raise ExprError(f"{name}(...) needs the dense chain", pos)
    values = [_eval(x, a) if shape == "expr" else x for shape, x in zip(shapes, args)]
    return dense(pos, *values) if a is None else finite(a, pos, *values)


def evaluate(spec: dict, expression: str) -> str:
    node = _Parser(expression).parse()
    if spec["kind"] == "dense":
        cut = _eval(node, None)
        try:
            return str(cut)
        except ValueError:  # past Python's limit on integer-to-text digits
            raise ResourceLimit("the endpoint has too many digits to print") from None
    a = build_algebra(spec)
    return a.label_set(_eval(node, a))


# ---------------------------------------------------------------------------
# export


def _dot_of_containment(name: str, masks: list[int], labels) -> str:
    """Hasse diagram of a family of distinct subsets: its edges are the
    cover pairs of ``filters.covers``, sorted."""
    order = sorted(masks)
    lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
    for m in order:
        lines.append(f'  n{m} [label="{labels(m)}"];')
    for low, high in sorted(filters.covers(order)):
        lines.append(f"  n{low} -> n{high};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _csv_of_hat(h: spectra.HatAlgebra) -> str:
    mv = h.as_mv
    reps = [h.spectrum.algebra.label_set(r) for r in h.representatives]
    rows = ["class," + ",".join(f'"{r}"' for r in reps)]
    rows.append("neg," + ",".join(str(mv.neg[i]) for i in range(mv.size)))
    for op, table in (("oplus", mv.oplus), ("sqto", mv.imp)):
        for i in range(mv.size):
            rows.append(
                f"{op}[{i}]," + ",".join(str(table[i][j]) for j in range(mv.size))
            )
    return "\n".join(rows) + "\n"


def export(spec: dict, what: str, fmt: str) -> str:
    a = build_algebra(spec)
    if what == "filters":
        if fmt != "dot":
            raise InvalidArgument("the filter order is exported as dot")
        masks = filters.enumerate_lattice_filters(a)
        return _dot_of_containment(f"filters of {a.name}", masks, a.label_set)
    kind, _, idx = what.partition(":")
    if kind in ("spectrum", "hat"):
        k, p = _prime(a, idx)
        spec_ = spectra.prime_spectrum(a, p, functools.partial(calculus.kernel, a))
        if kind == "spectrum":
            if fmt != "dot":
                raise InvalidArgument("spectra are exported as dot")
            return _dot_of_containment(
                f"spectrum {k} of {a.name}", list(spec_.members), a.label_set
            )
        if fmt != "csv":
            raise InvalidArgument("hat tables are exported as csv")
        return _csv_of_hat(spectra.build_hat(
            spec_,
            functools.partial(calculus.sqto, a),
            functools.partial(calculus.set_plus, a),
        ))
    raise InvalidArgument(
        f"unknown export target {what!r}; use filters, spectrum:K or hat:K"
    )


# ---------------------------------------------------------------------------
# command dispatch


def _write(path: str, text: str) -> None:
    """Write text to path; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InvalidArgument(f"cannot write {path}: {e.strerror}") from None


def cmd_verify(args) -> int:
    spec = _load_spec(args.specfile, allow_dense=True)
    only = args.only.split(",") if args.only is not None else None
    if spec["kind"] == "dense":
        report = verify.run_dense(only)
    else:
        a = build_algebra(spec)
        report = verify.run_finite(a, only)
    print(report.to_text())
    if args.json:
        _write(args.json, report.to_json() + "\n")
    return 0 if report.ok else 1


def cmd_compute(args) -> int:
    spec = _load_spec(args.specfile, allow_dense=True)
    print(evaluate(spec, args.expression))
    return 0


def cmd_export(args) -> int:
    spec = _load_spec(args.specfile, allow_dense=False)
    _write(args.output, export(spec, args.what, args.format))
    return 0


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared after that.

    ``parse_args`` returns a fresh namespace and writes nothing to the
    parser, so one parser per process is a constant.  Specs and algebras
    are never cached: each call reads its spec file and builds its algebra.
    """
    ap = argparse.ArgumentParser(
        prog="mvfilters",
        description="filter calculus workbench for MV-algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the statement verification suite")
    v.add_argument("specfile")
    v.add_argument("--only", help="comma-separated statement ids")
    v.add_argument("--json", help="also write a JSON report to this path")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("compute", help="evaluate a filter expression")
    c.add_argument("specfile")
    c.add_argument("expression")
    c.set_defaults(fn=cmd_compute)

    e = sub.add_parser("export", help="export filter orders or hat tables")
    e.add_argument("specfile")
    e.add_argument("what", help="filters | spectrum:K | hat:K")
    e.add_argument("--format", choices=("dot", "csv"), required=True)
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except ResourceLimit as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MvError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:  # only a spec or an expression nests this deep
        print("error: the spec or the expression nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
