"""The traced benchmark wraps package functions by name: each must resolve.

``perfbench/spans.py`` lists them in ``TARGETS``, and ``Tracer.install``
looks each one up in its owner's ``__dict__``, so a renamed or deleted
function breaks every ``--trace 1`` run.  The module is loaded from source
without writing bytecode next to it, and the tracer is never installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
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
