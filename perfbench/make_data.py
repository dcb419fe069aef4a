#!/usr/bin/env python3
"""Regenerate the benchmark's recorded expectations from the current program.

    python3 perfbench/make_data.py

Writes two files beside this script:

- ``expected_cells.json``: the expected verdict of every finite campaign cell.
  It follows the registry's documented skips, not a run: every statement
  passes, except that ``enum:crosscheck`` and ``impl:lattice-otimes`` skip
  above 12 elements and the chain-only statements skip on non-chains.
- ``corpus.json``: the cli-queries corpus, drawn once by a generator with a
  fixed seed, with the golden exit code, stdout and export-file digest of
  every query.  Compute queries are distinct; exports are every target on
  every spec of at most 32 elements.  Queries that do not exit 0 are not
  kept, so the workload runs no failing operation.

Run it only when the corpus or the algebra lists change on purpose; the
benchmark compares every later commit against these files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import run

CORPUS_SEED = 20090720
FINITE_COMPUTE = {  # spec -> number of compute queries
    "l8": 48, "l16": 45, "l32": 40, "l64": 34,
    "l4xl4": 40, "l3cubed": 36, "b5": 30, "l8xl8": 26,
}
DENSE_COMPUTE = 64
EXPORT_SPECS = ["l8", "l16", "l32", "l4xl4", "l3cubed", "b5"]  # at most 32 elements
MAX_DEPTH = 3
CHAIN_ONLY = {
    "lem:convex-imp", "lem:convex-neg", "lem:convex-otimes",
    "thm:discrete-principal", "prop:successor", "equiv:discrete",
}
SKIP_ABOVE_12 = {"enum:crosscheck", "impl:lattice-otimes"}


def expected_cells() -> dict:
    from mvfilters import cli, core, verify

    table = {}
    for names in run.CAMPAIGNS.values():
        for name in names:
            a = cli.build_algebra(cli.parse_spec(run.read_spec(name)))
            linear = core.is_linear(a)
            table[name] = {
                sid: "skip" if (sid in SKIP_ABOVE_12 and a.size > 12)
                or (sid in CHAIN_ONLY and not linear) else "pass"
                for sid in verify.FINITE_STATEMENTS
            }
    return table


def finite_expr(rng: random.Random, labels, n_primes: int, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        if n_primes and rng.random() < 0.12:
            return f"P({rng.randrange(n_primes)})"
        return f"up({rng.choice(labels)})"
    sub = lambda: finite_expr(rng, labels, n_primes, depth - 1)  # noqa: E731
    op = rng.choice(["plus", "kernel", "sqto", "phi", "T", "Ju", "Jd", "subord"])
    if op in ("plus", "kernel"):
        return f"{op}({sub()})"
    if op == "subord":
        return f"subord({sub()}, {rng.choice(labels)})"
    if op in ("Ju", "Jd"):
        return f"{op}({sub()}, kernel({sub()}))"
    return f"{op}({sub()}, {sub()})"


def dense_expr(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        while True:
            den = rng.randint(1, 12)
            p = Fraction(rng.randint(0, den), den)
            kind = rng.choice(["open", "closed"])
            if not (p == 0 and kind == "closed") and not (p == 1 and kind == "open"):
                return f"cut({p}, {kind})"
    op = rng.choice(["plus", "kernel", "sqto", "sqto"])
    if op == "sqto":
        return f"sqto({dense_expr(rng, depth - 1)}, {dense_expr(rng, depth - 1)})"
    return f"{op}({dense_expr(rng, depth - 1)})"


def draw_queries(rng: random.Random) -> list[list[str]]:
    from mvfilters import cli, filters

    def n_primes(name):
        a = cli.build_algebra(cli.parse_spec(run.read_spec(name)))
        return a, len(filters.enumerate_implication_filters(a, prime_only=True))

    queries = []
    for name, count in FINITE_COMPUTE.items():
        a, k = n_primes(name)
        exprs: dict[str, None] = {}
        while len(exprs) < count:
            exprs[finite_expr(rng, a.labels, k, rng.randint(1, MAX_DEPTH))] = None
        queries += [["compute", f"specs/{name}.json", e] for e in exprs]
    exprs = {}
    while len(exprs) < DENSE_COMPUTE:
        exprs[dense_expr(rng, rng.randint(1, MAX_DEPTH))] = None
    queries += [["compute", "specs/dense.json", e] for e in exprs]
    for name in EXPORT_SPECS:
        _, k = n_primes(name)
        targets = [("filters", "dot")] + [
            (f"{what}:{i}", fmt) for i in range(k)
            for what, fmt in (("spectrum", "dot"), ("hat", "csv"))
        ]
        queries += [["export", f"specs/{name}.json", t, "--format", fmt, "-o", "{out}"]
                    for t, fmt in targets]
    return queries


def main():
    run.load_program()
    run.OUT.mkdir(exist_ok=True)
    (run.BENCH / "expected_cells.json").write_text(
        json.dumps(expected_cells(), indent=1, sort_keys=True) + "\n", encoding="utf-8")

    rng = random.Random(CORPUS_SEED)
    recorded = []
    clock = run.Clock()
    with run.alarm_handler(clock):
        harness = run.Run(clock)
        for argv in draw_queries(rng):
            status, got, _, _ = run.execute(harness, argv)
            if status != "done" or got[0] != 0:
                continue
            code, stdout, digest = got
            recorded.append({"argv": argv, "code": code, "stdout": stdout,
                             "export_sha256": digest})
    corpus = {"generator_seed": CORPUS_SEED, "queries": recorded}
    (run.BENCH / "corpus.json").write_text(
        json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(recorded)} queries kept")


if __name__ == "__main__":
    main()
