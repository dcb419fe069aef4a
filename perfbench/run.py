#!/usr/bin/env python3
"""Benchmark of the mvfilters workbench: time to verdict and query latency.

Run from the repository root:

    python3 perfbench/run.py --workload chain-campaign --seed 1 --seconds 20 --trace 0

Workloads (README.md beside this file says why each exists):

    chain-campaign    every finite statement on five Łukasiewicz chains
    product-campaign  every finite statement on six products of chains
    dense-campaign    every dense statement, eight consecutive seeds
    cli-queries       the checked-in compute/export corpus through cli.main

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
public functions of every layer (see spans.py) and reports per-layer calls
and self times instead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The program is imported from ``src/`` of the checkout this file
sits in, never from anywhere else.

Every time reported, and every deadline, is in reference seconds (see
``Clock``): wall seconds scaled to a fixed speed of the host, because the
host's speed drifts by up to 1.75x within minutes.  Wall times are printed
beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "_out"

# The probe's duration, in wall seconds, at the reference speed: about its
# time on an otherwise idle vCPU of a 2.1 GHz Xeon (Sapphire Rapids) host.
PROBE_NOMINAL_S = 230e-6
PROBE_EVERY_S = 0.1  # wall seconds between probes inside a long cell
# Per-cell deadline D of the finite campaigns.  A cell that reaches it is
# undecided and charged D (PAR-1); cells of an algebra whose Ctx timed out
# are never started and charged D each.
DEADLINE_S = 0.5
# The traced run is slower, so it gives each cell TRACE_DEADLINE_S and stops a
# cell after a fixed number of traced calls.  The call budget makes the set of
# decided cells, and so the reported counts, the same on every traced run:
# every cell either stays under both limits by a wide margin or runs far past
# one of them.
TRACE_DEADLINE_S = 2.5
TRACE_CALL_BUDGET = 100_000
# Dense statements and cli queries have no stalls at this commit; a run that
# reaches this deadline is counted as failed, not undecided.
SAFETY_DEADLINE_S = 20.0
CTX_SLACK_S = 0.25  # how late a timed-out Ctx cell may end
SETUP_REPEATS = 15
DENSE_SEEDS = 8
MIN_QUERY_SAMPLES = 1000  # p99 needs ten samples beyond it

CAMPAIGNS = {
    "chain-campaign": ["l8", "l12", "l16", "l24", "l32"],
    "product-campaign": ["l2xl3", "l4xl4", "l3cubed", "b5", "l8xl8", "b6"],
}
WORKLOADS = [*CAMPAIGNS, "dense-campaign", "cli-queries"]
DECIDED = ("pass", "skip", "fail")


class CellTimeout(BaseException):
    """Raised in the main thread by SIGALRM when a cell's deadline passes.

    Derived from BaseException so that no handler inside the package can
    swallow it.
    """


@contextlib.contextmanager
def alarm_handler(clock: "Clock"):
    """Route SIGALRM to ``clock`` while the cells run."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: clock.on_alarm())
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def probe() -> float:
    """Wall time of a fixed piece of pure-Python work (tables, bit masks, a
    dict, JSON) that shares no code with mvfilters: the fastest of three
    back-to-back runs, so that caches the last cell left cold do not count."""
    return min(_probe_once() for _ in range(3))


def _probe_once() -> float:
    t0 = perf_counter()
    n = 16
    table = tuple(tuple((x * y + 1) % n for y in range(n)) for x in range(n))
    mask = 0
    for x in range(n):
        for y in range(n):
            mask |= 1 << table[table[x][y]][y]
    counts: dict = {}
    for i in range(200):
        key = (i % 31, i % 7)
        counts[key] = counts.get(key, 0) + mask % (i + 1)
    json.dumps(sorted(counts.items()))
    return perf_counter() - t0


class Clock:
    """Measures cells in reference seconds and enforces their deadlines.

    Other tenants of the host slow every instruction of this process alike,
    by up to 1.75x, in spells that switch within seconds.  The speed is
    PROBE_NOMINAL_S over the probe's time.  It is probed before each cell and
    every PROBE_EVERY_S inside it, from the SIGALRM handler, and a cell's
    reference time is its wall time integrated over those speeds.  The time
    spent probing is left out of the cell.  The deadline is checked against
    the reference time, so a slow spell does not turn a decided cell into a
    timeout.  Only one cell runs at a time.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self._active = False

    def measure(self) -> float:
        speed = PROBE_NOMINAL_S / probe()
        self.speeds.append(speed)
        return speed

    def _arm(self):
        left = (self._deadline - self._ref) / self._speed
        signal.setitimer(signal.ITIMER_REAL, max(min(PROBE_EVERY_S, left), 1e-6))

    def on_alarm(self):
        if not self._active:
            return
        now = perf_counter()
        self._ref += (now - self._last) * self._speed
        if self._ref >= self._deadline:
            raise CellTimeout
        self._speed = self.measure()
        self._last = perf_counter()
        self._probing += self._last - now
        self._arm()

    def run(self, fn, deadline: float) -> tuple[str, object, float, float]:
        """Run ``fn`` for at most ``deadline`` reference seconds.

        Returns (status, value, reference seconds, wall seconds); status is
        "done", "timeout" (value None) or "error" (value the traceback).  The
        timer is disarmed on every path: either ``finally`` disarms it or it
        has fired and raised, which re-arms nothing.
        """
        self._deadline, self._ref, self._probing = deadline, 0.0, 0.0
        self._speed = self.measure()
        status, value = "done", None
        start = self._last = perf_counter()
        try:
            try:
                self._active = True
                self._arm()
                value = fn()
            finally:
                self._active = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (CellTimeout, spans.BudgetExceeded):
            status = "timeout"
        except Exception:  # a statement or query that raised is a failed cell
            status, value = "error", traceback.format_exc(limit=3)
        end = perf_counter()
        ref = self._ref + (end - self._last) * self._speed
        return status, value, ref, end - start - self._probing


@dataclass
class Cell:
    """One unit of work: a (algebra, statement) pair, a Ctx build, a dense
    statement at one seed, or one cli query.  Times in reference seconds."""

    label: str
    status: str  # pass | skip | fail | timeout | error
    seconds: float
    charged: float  # its share of verdict_s
    ok: bool  # no exception, and the verdict or output is the expected one
    wall: float = 0.0
    started: bool = True
    in_share: bool = True  # counts towards decided_share (Ctx cells do not)
    detail: str = ""

    @property
    def decided(self) -> bool:
        return self.status in DECIDED


class Run:
    """Cells of the passes made so far, and the self-checks of the harness."""

    def __init__(self, clock: Clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.passes: list[list[Cell]] = []
        self.harness_errors: list[str] = []

    def cell(self, span: str, fn, deadline: float):
        """Run one cell under ``deadline`` reference seconds, inside a span
        when traced.  Returns (status, value, reference s, wall s)."""
        body, tracer = fn, self.tracer
        if tracer:
            def body():  # the span opens after the clock's probe
                tracer.begin(span)
                return fn()
        status, value, ref, wall = self.clock.run(body, deadline)
        if tracer:
            tracer.end_cell(decided=status == "done", scale=ref / wall)
        if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
            self.harness_errors.append(f"{span}: alarm still pending")
        if span == "ctx" and status == "timeout" and ref > deadline + CTX_SLACK_S:
            self.harness_errors.append(f"Ctx cell ended {ref:.3f} s after its start")
        return status, value, ref, wall


# ---------------------------------------------------------------------------
# set-up


def load_program():
    """Put the checkout's src/ first on the path; refuse any other mvfilters."""
    if not (SRC / "mvfilters" / "__init__.py").is_file():
        print(f"error: no mvfilters package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def setup(workload: str, clock: Clock) -> tuple[float, object]:
    """Import mvfilters and parse and build every spec the workload uses.

    Repeated SETUP_REPEATS times from a fresh import; returns the median time
    (reference seconds) and the inputs built by the last repetition.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        speed = clock.measure()
        for name in [n for n in sys.modules if n.split(".")[0] == "mvfilters"]:
            del sys.modules[name]
        t0 = perf_counter()
        cli = importlib.import_module("mvfilters.cli")
        if workload in CAMPAIGNS:
            inputs = [
                (name, cli.build_algebra(cli.parse_spec(read_spec(name))))
                for name in CAMPAIGNS[workload]
            ]
        elif workload == "dense-campaign":
            inputs = cli.parse_spec(read_spec("dense"), allow_dense=True)
        else:
            inputs = load_corpus()
            for text in inputs["specs"].values():
                spec = cli.parse_spec(text, allow_dense=True)
                if spec["kind"] != "dense":
                    cli.build_algebra(spec)
        times.append((perf_counter() - t0) * speed)
    module = sys.modules["mvfilters"].__file__
    if not Path(module).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mvfilters from {module}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return statistics.median(times), inputs


def read_spec(name: str) -> str:
    return (BENCH / "specs" / f"{name}.json").read_text(encoding="utf-8")


def load_corpus() -> dict:
    corpus = json.loads((BENCH / "corpus.json").read_text(encoding="utf-8"))
    corpus["specs"] = {p: (BENCH / p).read_text(encoding="utf-8")
                       for p in sorted({q["argv"][1] for q in corpus["queries"]})}
    return corpus


# ---------------------------------------------------------------------------
# workloads: each pass returns its cells


def campaign_pass(run: Run, algebras, expected: dict, rng: random.Random):
    """Every finite statement on every algebra, each cell under a deadline,
    the statements of each algebra in a seeded order."""
    from mvfilters import verify

    deadline = TRACE_DEADLINE_S if run.tracer else DEADLINE_S
    cells = []
    # Algebras run in their listed order, so the memory the previous one left
    # behind when 2^6's Ctx stalls (and sets peak_rss_mb) is the same every run.
    for name, a in algebras:
        ctx = None  # free the previous algebra's Ctx before building the next
        status, ctx, secs, wall = run.cell("ctx", lambda: verify.Ctx(a), deadline)
        cells.append(Cell(f"{name} Ctx", "pass" if status == "done" else status,
                          secs, min(secs, DEADLINE_S), status != "error", wall,
                          in_share=False, detail=ctx if status == "error" else ""))
        ids = list(verify.FINITE_STATEMENTS)
        for sid in rng.sample(ids, len(ids)):
            label = f"{name} {sid}"
            if status != "done":
                cells.append(Cell(label, "timeout", 0.0, DEADLINE_S, True,
                                  started=False, detail="not started: no Ctx"))
                continue
            fn = verify.FINITE_STATEMENTS[sid][1]
            st, verdict, s, w = run.cell(f"verify.{sid}",
                                         lambda: statement_verdict(fn, ctx), deadline)
            if st == "done":
                cells.append(Cell(label, verdict, s, min(s, DEADLINE_S),
                                  verdict == expected[name][sid], w,
                                  detail=f"expected {expected[name][sid]}"))
            else:
                cells.append(Cell(label, st, s, min(s, DEADLINE_S), st == "timeout", w,
                                  detail=verdict if st == "error" else ""))
    return cells


def statement_verdict(fn, ctx) -> str:
    """The verdict verify's own runner gives a finite statement."""
    out: list = []
    return "skip" if fn(ctx, out) == "skip" else ("fail" if out else "pass")


def dense_pass(run: Run, seed: int):
    """verify.run_dense at its defaults, one statement at a time, 8 seeds."""
    from mvfilters import verify

    cells = []
    for s in range(seed, seed + DENSE_SEEDS):
        for sid in verify.DENSE_STATEMENTS:
            st, report, secs, wall = run.cell(
                f"verify.{sid}", lambda: verify.run_dense(seed=s, only=[sid]),
                SAFETY_DEADLINE_S,
            )
            status = report.results[0].status if st == "done" else st
            cells.append(Cell(f"seed {s} {sid}", status, secs, secs,
                              status == "pass", wall,
                              detail=report if st == "error" else ""))
    return cells


def resolve_argv(argv: list[str]) -> list[str]:
    """Corpus argv names specs relative to this directory and the export
    file as {out}."""
    return [str(BENCH / a) if a.startswith("specs/") else
            str(OUT / "export.out") if a == "{out}" else a for a in argv]


def execute(run: Run, argv: list[str]):
    """One cli query in-process, only the cli.main call timed.

    Returns (status, (exit code, stdout, sha256 of the export file),
    reference seconds, wall seconds).
    """
    from mvfilters import cli

    export = OUT / "export.out"
    export.unlink(missing_ok=True)
    real = resolve_argv(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        st, code, secs, wall = run.cell("cli.query", lambda: cli.main(real),
                                        SAFETY_DEADLINE_S)
    if st != "done":
        return st, code, secs, wall
    digest = hashlib.sha256(export.read_bytes()).hexdigest() if export.exists() else ""
    return st, (code, out.getvalue(), digest), secs, wall


def cli_pass(run: Run, corpus: dict, rng: random.Random):
    """One whole-corpus pass in a seeded order; closed loop, one client."""
    queries = corpus["queries"]
    cells = []
    for i in rng.sample(range(len(queries)), len(queries)):
        q = queries[i]
        st, got, secs, wall = execute(run, q["argv"])
        ok = st == "done" and got == (q["code"], q["stdout"], q["export_sha256"])
        status = st if st != "done" else "pass" if ok else "fail"
        cells.append(Cell(f"query {i}", status, secs, secs, ok, wall,
                          detail=got if st == "error" else f"argv {q['argv']}"))
    return cells


# ---------------------------------------------------------------------------
# driving passes and reporting


def run_passes(run: Run, one_pass, seconds: float, min_passes: int):
    """Whole passes while the next one is expected to end within ``seconds``."""
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        run.passes.append(one_pass())
        last = perf_counter() - t0
        if len(run.passes) >= min_passes and perf_counter() - t_start + last > seconds:
            return


def make_pass(workload: str, inputs, run: Run, seed: int):
    rng = random.Random(seed)
    if workload in CAMPAIGNS:
        expected = json.loads((BENCH / "expected_cells.json").read_text())
        return (lambda: campaign_pass(run, inputs, expected, rng)), 1
    if workload == "dense-campaign":
        return (lambda: dense_pass(run, seed)), 1
    need = -(-MIN_QUERY_SAMPLES // len(inputs["queries"]))
    return (lambda: cli_pass(run, inputs, rng)), need


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, setup_s: float) -> dict:
    cells = [c for p in run.passes for c in p]
    samples = [c.seconds for c in cells if c.started]
    shares = [
        sum(c.decided for c in p if c.in_share) / sum(c.in_share for c in p)
        for p in run.passes
    ]
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s": (statistics.median(sum(c.charged for c in p) for p in run.passes), "s"),
        "decided_share": (statistics.median(shares), "ratio"),
        "query_p50_ms": (1000 * percentile(samples, 50), "ms"),
        "query_p99_ms": (1000 * percentile(samples, 99), "ms"),
        "queries_per_s": (sum(c.decided for c in cells) / sum(samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def print_cells(run: Run, workload: str):
    last = run.passes[-1]
    for c in last:
        if workload != "cli-queries" or not c.ok:
            line = f"cell {c.label:<36} {c.status:<8} {c.seconds:.6f} s (wall {c.wall:.6f} s)"
            if not c.ok or c.status in ("timeout", "error"):
                line += f"  {c.detail}".rstrip()
            print(line.replace("\n", " | "))


def per_layer(tracer, untraced_verdict: float, traced_verdict: float,
              undecided: int) -> dict:
    from mvfilters import verify

    layers, up_sets = tracer.totals()
    metrics = {}
    for name in spans.LAYER_NAMES:
        calls, secs = layers.get(name, (0, 0.0))
        metrics[f"{name}_calls"] = (calls, "count")
        metrics[f"{name}_s"] = (secs, "s")
        if name == "filters.enumerate_up_sets":
            metrics[spans.UP_SETS] = (up_sets, "count")
    for sid in [*verify.FINITE_STATEMENTS, *verify.DENSE_STATEMENTS]:
        metrics[f"verify.{sid.replace(':', '.')}_s"] = (
            layers.get(f"verify.{sid}", (0, 0.0))[1], "s")
    metrics["verify.undecided"] = (undecided, "count")
    metrics["trace.verdict_s"] = (traced_verdict, "s")
    metrics["trace.overhead_s"] = (traced_verdict - untraced_verdict, "s")
    return metrics


def write_cells(path: Path, cells):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label\tstatus\tseconds\tcharged_s\twall_s\tok\n")
        for c in cells:
            fh.write(f"{c.label}\t{c.status}\t{c.seconds:.9f}\t{c.charged:.9f}\t"
                     f"{c.wall:.9f}\t{int(c.ok)}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    OUT.mkdir(exist_ok=True)
    clock = Clock()
    setup_s, inputs = setup(args.workload, clock)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with alarm_handler(clock):
        run = Run(clock)
        one_pass, min_passes = make_pass(args.workload, inputs, run, args.seed)
        if not args.trace:
            run_passes(run, one_pass, args.seconds, min_passes)
            runs = [run]
        else:
            # an untraced pass first, as the reference for the overhead
            run.passes.append(one_pass())
            tracer = spans.Tracer(call_budget=TRACE_CALL_BUDGET)
            traced = Run(clock, tracer)
            one_pass, _ = make_pass(args.workload, inputs, traced, args.seed)
            tracer.install()
            try:
                traced.passes.append(one_pass())
            finally:
                tracer.uninstall()
            tracer.dump(OUT / f"spans-{tag}.tsv")
            runs = [run, traced]

    shown = runs[-1]
    print_cells(shown, args.workload)
    write_cells(OUT / f"cells-{tag}.tsv", shown.passes[-1])
    cells = [c for r in runs for p in r.passes for c in p]
    failed = sum(not c.ok for c in cells)
    errors = [e for r in runs for e in r.harness_errors]
    for e in errors:
        print(f"harness check failed: {e}")
    if not args.trace:
        metrics = end_to_end(run, setup_s)
        print(f"metric failed_share {failed / len(cells)} ratio ({failed}/{len(cells)})")
    else:
        traced_cells = traced.passes[0]
        metrics = per_layer(
            tracer,
            sum(c.charged for c in run.passes[0]),
            sum(c.charged for c in traced_cells),
            sum(not c.decided for c in traced_cells if c.in_share),
        )
    samples = sum(c.started for c in cells)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"passes {[len(r.passes) for r in runs]}, cells {len(cells)}, "
          f"latency samples {samples}, wall {sum(c.wall for c in cells):.3f} s, "
          f"median speed {statistics.median(clock.speeds):.3f} "
          f"(reference s per wall s; range {min(clock.speeds):.3f}-{max(clock.speeds):.3f})")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(cells),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
