"""The benchmark's traced run names package functions by dotted path; each must resolve.

``perfbench/spans.py`` is read and executed here, never imported from or written to,
so a renamed or deleted function fails tier-1 instead of only a ``--trace 1`` run.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_under_umbra():
    spans = _spans()
    assert spans.FUNCTIONS
    for name in spans.FUNCTIONS:
        importlib.import_module(f"umbra.{name.partition('.')[0]}")
        _, _, original = spans.resolve(name)
        assert callable(original), name
