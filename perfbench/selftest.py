#!/usr/bin/env python3
"""Self-test of the benchmark harness: deadlines and tracing.

    python3 perfbench/selftest.py

Checks that the deadline timer is disarmed after every kind of cell, that
the Ctx cell of 2^6 (7.8 M up-sets, the known stall) ends within D plus a
small slack and leaves no alarm pending, that the tracer puts back every
function it wrapped, and that two traced passes give identical counts.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import random
import signal
import sys

import run
import spans


def check(ok: bool, what: str):
    if not ok:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def no_alarm() -> bool:
    return signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_deadlines(clock: run.Clock):
    status, value, _, _ = clock.run(lambda: 42, 5.0)
    check(status == "done" and value == 42 and no_alarm(), "a finished cell disarms")
    status, _, _, _ = clock.run(lambda: 1 / 0, 5.0)
    check(status == "error" and no_alarm(), "a raising cell disarms")

    def spin():
        while True:
            pass

    status, _, ref, _ = clock.run(spin, 0.35)
    check(status == "timeout" and no_alarm() and 0.35 <= ref < 0.35 + run.CTX_SLACK_S,
          f"a stalled cell times out at its deadline ({ref:.4f} reference s)")


def test_ctx_stall(clock: run.Clock):
    from mvfilters import cli, verify

    a = cli.build_algebra(cli.parse_spec(run.read_spec("b6")))
    harness = run.Run(clock)
    status, _, ref, wall = harness.cell("ctx", lambda: verify.Ctx(a), run.DEADLINE_S)
    check(status == "timeout" and ref <= run.DEADLINE_S + run.CTX_SLACK_S,
          f"2^6 Ctx ends within D + slack ({ref:.4f} reference s, {wall:.3f} wall s)")
    check(no_alarm() and not harness.harness_errors, "2^6 Ctx leaves no alarm pending")


def test_tracer_restores():
    from mvfilters import calculus, core, spectra, verify

    before = (calculus.kernel, spectra.check_mv_axioms, core.MvAlgebra.__post_init__,
              verify.Ctx.__init__)
    tracer = spans.Tracer()
    tracer.install()
    check(calculus.kernel is not before[0] and spectra.check_mv_axioms is not before[1],
          "install rebinds a function under every name it has")
    tracer.uninstall()
    after = (calculus.kernel, spectra.check_mv_axioms, core.MvAlgebra.__post_init__,
             verify.Ctx.__init__)
    check(all(x is y for x, y in zip(before, after)), "uninstall restores every original")


def test_traced_counts_repeat(clock: run.Clock):
    from mvfilters import cli

    algebras = [(n, cli.build_algebra(cli.parse_spec(run.read_spec(n))))
                for n in ("l8", "l12", "l2xl3")]
    expected = json.loads((run.BENCH / "expected_cells.json").read_text())
    counts = []
    for _ in range(2):
        tracer = spans.Tracer(call_budget=run.TRACE_CALL_BUDGET)
        harness = run.Run(clock, tracer)
        tracer.install()
        try:
            run.campaign_pass(harness, algebras, expected, random.Random(0))
        finally:
            tracer.uninstall()
        layers, up_sets = tracer.totals()
        counts.append(({k: c for k, (c, _) in layers.items()}, up_sets))
    check(counts[0] == counts[1], "two traced passes give identical counts")


def main():
    run.load_program()
    clock = run.Clock()
    with run.alarm_handler(clock):
        test_deadlines(clock)
        test_ctx_stall(clock)
        test_tracer_restores()
        test_traced_counts_repeat(clock)
    check(no_alarm(), "no alarm pending at exit")


if __name__ == "__main__":
    main()
