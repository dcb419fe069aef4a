"""Spans around the public functions of each mvfilters layer.

The traced run wraps every function named in ``TARGETS`` and rebinds the
wrapper under every name that refers to the original in any ``mvfilters``
module (``spectra.check_mv_axioms`` and ``calculus.up_closure`` are the same
objects as their ``core``/``filters`` originals).  Nothing inside the package
is edited; ``Tracer.uninstall`` puts every original back.

Each wrapped call becomes one span: name, start, end and parent span, under
the span the harness opens for the cell (or query) that caused it.  A span's
self time is its duration minus the time covered by its child spans.  A
traced campaign opens millions of spans, so when a cell ends its spans are
folded, still in memory, into calls and self time per span name; the folded
cells are written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

# (span name, module, attribute); a dotted attribute names a method.
TARGETS = [
    ("core.build", "mvfilters.core", "MvAlgebra.__post_init__"),
    ("core.check_mv_axioms", "mvfilters.core", "check_mv_axioms"),
    ("core.quotient_by", "mvfilters.core", "quotient_by"),
    ("filters.ctx", "mvfilters.verify", "Ctx.__init__"),
    ("filters.enumerate_up_sets", "mvfilters.filters", "enumerate_up_sets"),
    ("filters.is_lattice_filter", "mvfilters.filters", "is_lattice_filter"),
    ("filters.down_closure_joins", "mvfilters.filters", "down_closure_joins"),
] + [
    (f"calculus.{fn}", "mvfilters.calculus", fn)
    for fn in (
        "kernel_rel", "subordinate", "kernel", "set_plus", "sqto", "sqto_fast",
        "sqto_full", "j_up", "j_down", "phi", "tensor_up", "is_convex",
    )
] + [
    (f"spectra.{fn}", "mvfilters.spectra", fn)
    for fn in ("prime_spectrum", "build_hat", "iota", "hat_eta", "hat_otimes")
] + [
    (f"densechain.{fn}", "mvfilters.densechain", fn)
    for fn in (
        "oracle_sqto", "cut_sqto", "oracle_plus", "cut_plus", "random_proper_cut",
    )
] + [
    (f"cli.{fn}", "mvfilters.cli", fn) for fn in ("parse_spec", "evaluate", "export")
]

LAYER_NAMES = [name for name, _, _ in TARGETS]
UP_SETS = "filters.up_sets_walked"

_FIELDS = 4  # name id, parent span, start, end


class BudgetExceeded(BaseException):
    """A cell made more traced calls than its budget allows.

    Derived from BaseException so that no handler inside the package can
    swallow it; the harness treats it like a deadline.
    """


@dataclass
class CellTrace:
    label: str
    decided: bool
    layers: dict[str, list]  # span name -> [calls, self seconds]
    up_sets: int  # summed length of enumerate_up_sets results


class Tracer:
    """Records spans for the wrapped functions while installed.

    ``begin(label)`` opens the harness's span for one cell or query and
    ``end_cell(decided)`` closes and folds it.  ``call_budget`` bounds the
    traced calls of one cell, so that a stalled cell stops after the same
    amount of work on every traced run.
    """

    def __init__(self, call_budget: int | None = None):
        self.call_budget = call_budget
        self.cells: list[CellTrace] = []
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        # one record of _FIELDS doubles per span of the current cell; a single
        # extend() appends a record, so a deadline raised between bytecodes
        # never leaves half of one
        self._spans = array("d")
        self._stack: list[int] = []
        self._calls = 0
        self._up_sets = 0
        self._label = ""
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self._names)
            self._names.append(name)
        return i

    def _open(self, nid: int) -> int:
        idx = len(self._spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self._spans.extend((nid, parent, perf_counter(), 0.0))
        self._stack.append(idx)
        return idx

    def begin(self, label: str):
        """Open the span of one cell or query; its wrapped calls nest below."""
        self._spans = array("d")
        self._stack.clear()
        self._calls = 0
        self._up_sets = 0
        self._label = label
        self._open(self._id(label))

    def end_cell(self, decided: bool, scale: float = 1.0):
        """Close the cell's spans and fold them into calls and self time.

        Spans a deadline cut short (opened, never closed) end now.  Self
        times are multiplied by ``scale`` (the harness's reference speed).
        """
        now = perf_counter()
        f = self._spans
        n = len(f) // _FIELDS
        own = array("d", bytes(8 * n))
        layers: dict[str, list] = {}
        for idx in range(n):
            nid, parent, start, end = f[idx * _FIELDS : (idx + 1) * _FIELDS]
            d = (end or now) - start
            own[idx] += d
            if parent >= 0:
                own[int(parent)] -= d
        for idx in range(n):
            t = layers.setdefault(self._names[int(f[idx * _FIELDS])], [0, 0.0])
            t[0] += 1
            t[1] += own[idx] * scale
        self.cells.append(CellTrace(self._label, decided, layers, self._up_sets))
        self._spans = array("d")
        self._stack.clear()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        count_up_sets = name == "filters.enumerate_up_sets"

        def traced(*args, **kwargs):
            self._calls += 1
            if self.call_budget is not None and self._calls > self.call_budget:
                raise BudgetExceeded
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                if self._stack and self._stack[-1] == idx:
                    self._spans[idx * _FIELDS + 3] = perf_counter()
                    self._stack.pop()
            if count_up_sets:
                self._up_sets += len(result)
            return result

        return traced

    def install(self):
        """Wrap every target and rebind it in every mvfilters module."""
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "mvfilters" or n.startswith("mvfilters."))
        ]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(name, original)
            if path:  # a method: rebind it on its class only
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def totals(self) -> tuple[dict[str, list], int]:
        """Calls and self time per span name, and up-sets walked, summed
        over decided cells only: an undecided cell's counts depend on how far
        it got."""
        layers: dict[str, list] = {}
        up_sets = 0
        for cell in self.cells:
            if not cell.decided:
                continue
            up_sets += cell.up_sets
            for name, (calls, secs) in cell.layers.items():
                t = layers.setdefault(name, [0, 0.0])
                t[0] += calls
                t[1] += secs
        return layers, up_sets

    def dump(self, path: str):
        """Write one tab-separated line per (cell, span name)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("cell\tlabel\tdecided\tspan\tcalls\tself_s\n")
            for i, cell in enumerate(self.cells):
                for name, (calls, secs) in sorted(cell.layers.items()):
                    fh.write(
                        f"{i}\t{cell.label}\t{int(cell.decided)}\t{name}\t"
                        f"{calls}\t{secs:.9f}\n"
                    )
