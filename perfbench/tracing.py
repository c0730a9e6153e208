"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces a public function at the module attribute its caller
looks it up through (for example `instances.is_admissible`, which the
secrecy-instance sweep calls by that global name) with a wrapper that
records one span per call.  Nothing under the program's source tree is
edited; the originals are put back after each traced question.

A span holds its name, start, end, parent span and request id.  Spans are
kept in memory while the benchmark runs and written out once at the end.
Spans are only recorded inside a request, so the correctness checks that
run between requests, and call some of the same functions, add none.

Self time is a span's duration minus the time its child spans cover.  The
program runs on one thread and calls nest, so a span's children never
overlap and that covered time is the sum of their durations.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute, span name, count of the result or None); the module
# is the one whose global the caller resolves, not where the function lives.
WRAP_TARGETS = (
    ("answers", "enumerate_secrecy_instances", "instances.enumerate", len),
    ("answers", "eval_n", "semantics.eval_n", None),
    ("instances", "candidate_cells", "instances.candidate_cells", len),
    ("instances", "is_admissible", "views.is_admissible", bool),
    ("instances", "apply_changes", "model.apply_changes", None),
    ("asp", "compile_program", "asp.compile_program", lambda p: len(p.rules)),
    ("asp", "compile_query_program", "asp.compile_query_program", None),
    ("asp", "ground", "solver.ground", len),
    ("asp", "stable_models", "solver.stable_models", len),
)

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Collects spans for the requests run while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: dict[str, str] = {}  # span name -> why it is missing
        self._stack: list[int] = []
        self._request = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self._request]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, name: str):
        """A root span; every span opened inside it shares its request id."""
        self._request += 1
        with self.span(name):
            yield

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span per call made inside a request, and adding
        `count(result)` to the counter of the same name."""
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + int(count(result))
            return result
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every target present in `modules` while the block runs."""
        patched = []
        for module_name, attr, name, count in WRAP_TARGETS:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing[name] = f"{module_name}.{attr} is gone; metrics from {name} dropped"
                continue
            patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))
        try:
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, total duration and self time, in seconds."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] is not None:
                child_time[record[PARENT]] += record[END] - record[START]
        totals: dict[str, dict] = {}
        for record, covered in zip(self.spans, child_time):
            entry = totals.setdefault(record[NAME], {"calls": 0, "total": 0.0, "self": 0.0})
            duration = record[END] - record[START]
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += duration - covered
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")
