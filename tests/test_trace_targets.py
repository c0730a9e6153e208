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


def test_cautious_answers_calls_each_traced_asp_name_once(monkeypatch):
    """The program route's stages must be called through the `asp`
    globals the tracer wraps, once per question.  A stage called some
    other way keeps its name, so the benchmark's check for a name that is
    gone passes, yet its metrics read 0 and the growth report finds no
    stable-model count."""
    from corpus import two_tuple_example
    from nullveil import asp

    targets = runpy.run_path(str(TRACING), run_name="tracing")["WRAP_TARGETS"]
    names = [attr for module_name, attr, _, _ in targets if module_name == "asp"]
    assert set(names) == {"compile_program", "compile_query_program", "ground",
                          "stable_models"}
    calls = dict.fromkeys(names, 0)

    def counting(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(asp, name, counting(name, getattr(asp, name)))
    case = two_tuple_example()
    asp.cautious_answers(case.instance, case.views, case.queries["view_query"])
    assert calls == dict.fromkeys(names, 1)
