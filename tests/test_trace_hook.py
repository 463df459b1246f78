"""The benchmark's trace hook (``perfbench/spans.py``) wraps functions and
methods of ``drackn`` by name; every name it lists must still resolve."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr, *_ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    hooks = [(m, c, meth) for m, c, meth, _ in spans.METHODS]
    for modname, clsname, meth in hooks + [("drackn.exact_matrix", "ExactMatrix", "__mul__")]:
        cls = getattr(importlib.import_module(modname), clsname)
        assert meth in vars(cls), (modname, clsname, meth)
