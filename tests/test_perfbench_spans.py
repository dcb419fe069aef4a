"""The traced benchmark wraps package functions by name: each must resolve,
and the names must measure the work of a run.

``perfbench/spans.py`` lists them in ``TARGETS``, and ``Tracer.install``
looks each one up in its owner's ``__dict__``, so a renamed or deleted
function breaks every ``--trace 1`` run.  The module is loaded from source
without writing bytecode next to it.  A run calls Φ, J, the ⊗-row ⊸, the
spectra and the derived algebras through the one function of each that the
tracer wraps, and never the cold ⊸ or K; a tracer installed around
``run_finite`` must count that, and put every original back.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mvfilters import run_finite

from conftest import ALL_ALGEBRAS

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TARGETS
    missing = []
    for name, module_name, attr in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(leaf)):
            missing.append(name)
    assert not missing


SHARED = [
    "calculus.phi", "calculus.j_up", "calculus.j_down", "calculus.sqto_full",
    "calculus.sqto_fast", "spectra.prime_spectrum", "spectra.build_hat",
]
COLD = ["calculus.sqto", "calculus.kernel"]


@pytest.mark.parametrize("name", ["L5", "L2xL3"])
def test_the_traced_names_measure_the_run(monkeypatch, name):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    saved = list(tracer._saved)
    try:
        tracer.begin(f"run {name}")
        assert run_finite(ALL_ALGEBRAS[name]).ok
        tracer.end_cell(True)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, key) is original for owner, key, original in saved)
    layers, _ = tracer.totals()
    calls = {span: layers.get(span, [0])[0] for span in SHARED + COLD}
    assert all(calls[span] > 0 for span in SHARED), calls
    assert all(calls[span] == 0 for span in COLD), calls
