"""The benchmark's tracer (`perfbench/tracing.py`) wraps program functions
by the module attribute their callers look up.  A refactor that moves or
renames one of them must fail here, not only when the benchmark runs and
notes that the target is gone."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves_on_the_nullveil_modules():
    targets = runpy.run_path(str(TRACING), run_name="tracing")["WRAP_TARGETS"]
    assert targets
    for module_name, attr, span, _ in targets:
        module = importlib.import_module(f"nullveil.{module_name}")
        assert callable(getattr(module, attr, None)), \
            f"{module_name}.{attr} is gone; the benchmark loses {span}"
