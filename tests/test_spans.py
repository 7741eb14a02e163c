"""The benchmark traces the library by wrapping functions it names
(`bench/spans.py`, WRAPPED); a renamed or deleted one would silently drop
its layer from the trace, so each name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_wrapped_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"thetalab.{module}"), name, None))
    ]
    assert spans.WRAPPED and not missing
