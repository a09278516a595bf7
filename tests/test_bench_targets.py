"""The benchmark tracer's wrapped names must exist in the package.

perfbench/tracing.py patches glre functions by module and attribute name and
reports a missing one as a missing span rather than failing, so a rename or
deletion in glre would silently zero a per-layer metric. This test fails
instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_is_a_callable_in_glre(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for _, module, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
