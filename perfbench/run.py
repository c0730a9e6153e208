"""Two-route answer benchmark for nullveil.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload conflicts --seed 1 --seconds 60 --trace 0

One process, one thread, one client in a closed loop: the next question is
asked only after the previous one has been answered by both routes.  A
request is one question asked of one route: parse the query text (and the
schema, views and facts texts when they changed since that route's last
request), then call `answers.secret_answers` (route `direct`) or
`asp.cautious_answers` (route `program`).  Each route is timed on its own.
Every answer is checked outside the timed region; a wrong answer or an
exception counts as a failure of that route and the run goes on.

With `--trace 0` the run measures for `--seconds` (and on until each
route has answered MIN_REQUESTS questions, for at most MAX_SECONDS) and
reports the end-to-end metrics.  Their times are scaled to a reference
machine speed: a fixed calibration kernel is timed around every question
and every set-up, and each wall time is multiplied by REFERENCE_KERNEL_S
over the kernel's time around it, so that the machine's own speed swings
cancel out.  The unscaled figures are printed beside them.

With `--trace 1` every question is answered twice, untraced and then
traced (see tracing.py), by two separate sets of clients; the run reports
per-layer self times and counts per request of the traced set, and the
tracing overhead as traced over untraced time.  End-to-end metrics only
ever come from untraced runs.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the
workload's properties and each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS, Question, make_workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ROUTES = ("direct", "program")
SETUP_SAMPLES = 5  # fresh processes that each import, parse and warm up
MIN_REQUESTS = 100  # per route and run, so that p90 has 10 samples above it
MAX_SECONDS = 150  # the loop stops here even short of MIN_REQUESTS
REFERENCE_KERNEL_S = 0.004  # calibration kernel time at the reference speed
PARSE_SPANS = ("lang.parse_schema", "lang.parse_facts", "lang.parse_views",
               "lang.parse_query")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_nullveil() -> dict:
    """Import the program from this checkout's source tree, never from an
    installed copy, and return the modules the benchmark calls into."""
    sys.path.insert(0, str(SRC))
    try:
        import nullveil
        from nullveil import answers, asp, instances, lang, model, semantics
    except ImportError as exc:
        raise BenchmarkError(f"cannot import nullveil from {SRC}: {exc}") from exc
    if SRC not in Path(nullveil.__file__).resolve().parents:
        raise BenchmarkError(f"nullveil was imported from {nullveil.__file__}, not {SRC}")
    return {"answers": answers, "asp": asp, "instances": instances, "lang": lang,
            "model": model, "semantics": semantics}


def _untraced(name, fn, count=None):
    return fn


class RouteClient:
    """One route's side of the loop.  It keeps what it parsed for its last
    request and parses again only the texts that changed since."""

    def __init__(self, route: str, nv: dict, wrap=_untraced):
        lang = nv["lang"]
        self.parse_schema = wrap("lang.parse_schema", lang.parse_schema)
        self.parse_facts = wrap("lang.parse_facts", lang.parse_facts)
        self.parse_views = wrap("lang.parse_views", lang.parse_views)
        self.parse_query = wrap("lang.parse_query", lang.parse_query)
        if route == "direct":
            self.answer = wrap("answers.secret_answers", nv["answers"].secret_answers)
        else:
            self.answer = wrap("asp.cautious_answers", nv["asp"].cautious_answers)
        self.texts = (None, None, None)

    def ask(self, q: Question):
        schema_text, facts_text, views_text = self.texts
        if q.schema_text != schema_text:
            self.schema = self.parse_schema(q.schema_text)
            facts_text = views_text = None
        if q.facts_text != facts_text:
            self.instance = self.parse_facts(q.facts_text, self.schema)
        if q.views_text != views_text:
            self.views = self.parse_views(q.views_text, self.schema)
        self.texts = (q.schema_text, q.facts_text, q.views_text)
        query = self.parse_query(q.query_text, self.schema)
        return self.answer(self.instance, self.views, query)


def closed_form_change_sets(nv: dict, pairs) -> set[frozenset]:
    """The 3^k secrecy instances of k independent violating pairs of
    `Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000`: per pair, null P.B, or null R.B,
    or null both P.A and R.C."""
    Cell = nv["model"].Cell
    options = [(frozenset({Cell("P", p, 2)}), frozenset({Cell("R", r, 1)}),
                frozenset({Cell("P", p, 1), Cell("R", r, 2)})) for p, r in pairs]
    return {frozenset().union(*choice) for choice in product(*options)}


class Reference:
    """What a question's answers must be, computed without either route,
    and the question's size in candidate cells and secrecy instances."""

    def __init__(self, nv: dict, q: Question):
        lang, eval_n = nv["lang"], nv["semantics"].eval_n
        schema = lang.parse_schema(q.schema_text)
        instance = lang.parse_facts(q.facts_text, schema)
        views = lang.parse_views(q.views_text, schema)
        query = lang.parse_query(q.query_text, schema)
        if q.pairs is None:
            self.change_sets = None
            instances = [s.instance for s in
                         nv["instances"].oracle_secrecy_instances(instance, views)]
        else:
            self.change_sets = closed_form_change_sets(nv, q.pairs)
            instances = [nv["model"].apply_changes(instance, c) for c in self.change_sets]
        per_instance = [eval_n(i, query) for i in instances]
        self.answers = frozenset.intersection(*per_instance) if per_instance else frozenset()
        self.secrecy_instances = len(instances)
        self.candidate_cells = len(nv["instances"].candidate_cells(
            instance, views, nv["instances"].EnumerationMode.TARGETED))

    def failure(self, route: str, result) -> str | None:
        """Why `result` is wrong for `route`, or None when it is right."""
        answers = result.answers if route == "direct" else result
        if answers != self.answers:
            return "wrong answers"
        if route == "direct" and self.change_sets is not None:
            got = [frozenset(changes) for changes, _ in result.per_instance]
            if len(got) != len(self.change_sets) or set(got) != self.change_sets:
                return "wrong secrecy instances"
        return None


def kernel_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work shaped like the
    program's own (tuple keys, dict stores, frozenset intersections).  It
    is about REFERENCE_KERNEL_S on a 2-core x86_64 machine with Python 3.11."""
    start = perf_counter()
    table = {}
    for i in range(6000):
        table[(i % 97, i % 13, "x")] = frozenset((i % 7, i % 11))
    base = frozenset(range(50))
    for value in table.values():
        base & value
    return perf_counter() - start


class Run:
    """Latencies, failures and workload properties of one pass."""

    def __init__(self):
        self.latencies = {route: [] for route in ROUTES}
        self.scales = []  # per question: machine speed over reference speed
        self.ok = {route: [] for route in ROUTES}
        self.failures = {route: Counter() for route in ROUTES}
        self.repeats = 0
        self.unchanged_db = 0
        self.cells = Counter()
        self.instances = Counter()

    def timed_seconds(self) -> float:
        return sum(sum(v) for v in self.latencies.values())

    def questions(self) -> int:
        return len(self.latencies[ROUTES[0]])

    def failed(self, route: str | None = None) -> int:
        routes = ROUTES if route is None else (route,)
        return sum(self.ok[r].count(False) for r in routes)


def ask_all(clients: dict, q: Question, ref: Reference, run: Run,
            tracer: Tracer | None = None) -> None:
    for route, client in clients.items():
        start = perf_counter()
        try:
            if tracer is None:
                result = client.ask(q)
            else:
                with tracer.request(f"request.{route}"):
                    result = client.ask(q)
        except Exception as exc:  # a failed request is counted, not fatal
            reason = type(exc).__name__
        else:
            reason = None
        run.latencies[route].append(perf_counter() - start)
        if reason is None:
            reason = ref.failure(route, result)
        if reason is not None:
            run.failures[route][reason] += 1
        run.ok[route].append(reason is None)


def measure(workload, initial: Question, nv: dict, seconds: float, passes,
            min_questions: int = 0) -> None:
    """Ask fresh questions until `seconds` of wall time have passed and
    `min_questions` questions have been asked, or MAX_SECONDS have passed.
    Every pass, a (clients, run, tracer or None) triple, answers each
    question in turn, so the passes see the same questions under the same
    conditions; the first pass's run also records the workload's properties
    and the machine speed around each question."""
    props = passes[0][1]
    seen = set()
    previous = initial
    kernel = kernel_seconds()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= seconds
                                      and props.questions() >= min_questions):
            break
        q = workload.next()
        ref = Reference(nv, q)
        for clients, run, tracer in passes:
            if tracer is None:
                ask_all(clients, q, ref, run)
            else:
                with tracer.installed(nv):
                    ask_all(clients, q, ref, run, tracer)
        key = (q.schema_text, q.views_text, q.facts_text, q.query_text)
        props.repeats += key in seen
        seen.add(key)
        props.unchanged_db += key[:3] == (previous.schema_text, previous.views_text,
                                          previous.facts_text)
        previous = q
        props.cells[ref.candidate_cells] += 1
        props.instances[ref.secrecy_instances] += 1
        after = kernel_seconds()
        props.scales.append(2 * REFERENCE_KERNEL_S / (kernel + after))
        kernel = after


def setup(name: str, seed: int):
    """Import, parse the initial texts and warm both routes up once.
    Returns what the loop needs and a (set-up seconds, scale) sample, the
    scale taken from the calibration kernel timed before and after."""
    workload = make_workload(name, seed)
    initial = workload.initial()
    before = kernel_seconds()
    start = perf_counter()
    nv = import_nullveil()
    clients = {route: RouteClient(route, nv) for route in ROUTES}
    for client in clients.values():
        client.ask(initial)
    seconds = perf_counter() - start
    scale = 2 * REFERENCE_KERNEL_S / (before + kernel_seconds())
    return workload, initial, nv, clients, (seconds, scale)


def setup_seconds(name: str, seed: int, first: tuple) -> float:
    """Median scaled set-up time over this process and fresh processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, check=True)
        samples.append(tuple(map(float, probe.stdout.split()[-2:])))
    print("  set-up samples (seconds, scale): "
          + ", ".join(f"({t:.4f}, {k:.4f})" for t, k in samples))
    return statistics.median(t * k for t, k in samples)


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def timings(run: Run, scales: list[float]) -> dict:
    """Latency percentiles and throughput, each request's time multiplied
    by its question's scale."""
    metrics = {}
    for route in ROUTES:
        # A failed request misses every latency limit.
        lat = [t * scale if ok else math.inf
               for t, scale, ok in zip(run.latencies[route], scales, run.ok[route])]
        metrics[f"{route}.p50_ms"] = (percentile(lat, 0.5) * 1000, "ms")
        metrics[f"{route}.p90_ms"] = (percentile(lat, 0.9) * 1000, "ms")
    attempted = sum(len(v) for v in run.latencies.values())
    busy = sum(t * scale for v in run.latencies.values() for t, scale in zip(v, scales))
    metrics["requests_per_s"] = ((attempted - run.failed()) / busy, "1/s")
    return metrics


def end_to_end(run: Run, setup_s: float) -> dict:
    metrics = timings(run, run.scales)
    for route in ROUTES:
        n = len(run.latencies[route])
        metrics[f"{route}.correct_ratio"] = ((n - run.failed(route)) / n, "ratio")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


# per-layer metric: (name, unit, kind, span names, routes whose requests it is per)
LAYER_METRICS = (
    ("model.apply_changes_calls", "count", "calls", ("model.apply_changes",), "direct"),
    ("model.apply_changes_ms", "ms", "self", ("model.apply_changes",), "direct"),
    ("lang.parse_ms", "ms", "self", PARSE_SPANS, "both"),
    ("semantics.eval_n_calls", "count", "calls", ("semantics.eval_n",), "direct"),
    ("semantics.eval_n_ms", "ms", "self", ("semantics.eval_n",), "direct"),
    ("views.admissibility_checks", "count", "calls", ("views.is_admissible",), "direct"),
    ("views.is_admissible_ms", "ms", "self", ("views.is_admissible",), "direct"),
    ("views.admissible_share", "ratio", "share", ("views.is_admissible",), "direct"),
    ("instances.candidate_cells", "count", "count", ("instances.candidate_cells",), "direct"),
    ("instances.candidate_cells_ms", "ms", "self", ("instances.candidate_cells",), "direct"),
    ("instances.enumerate_self_ms", "ms", "self", ("instances.enumerate",), "direct"),
    ("instances.secrecy_instances", "count", "count", ("instances.enumerate",), "direct"),
    ("answers.self_ms", "ms", "self", ("answers.secret_answers",), "direct"),
    ("asp.compile_ms", "ms", "self",
     ("asp.compile_program", "asp.compile_query_program"), "program"),
    ("asp.program_rules", "count", "count", ("asp.compile_program",), "program"),
    ("asp.self_ms", "ms", "self", ("asp.cautious_answers",), "program"),
    ("solver.ground_ms", "ms", "self", ("solver.ground",), "program"),
    ("solver.ground_rules", "count", "count", ("solver.ground",), "program"),
    ("solver.stable_models_ms", "ms", "self", ("solver.stable_models",), "program"),
    ("solver.stable_models", "count", "count", ("solver.stable_models",), "program"),
    ("direct.request_ms", "ms", "total", ("request.direct",), "direct"),
    ("program.request_ms", "ms", "total", ("request.program",), "program"),
)


def per_layer(tracer: Tracer, run: Run, overhead: float) -> dict:
    totals = tracer.layer_totals()
    requests = {route: len(run.latencies[route]) for route in ROUTES}
    requests["both"] = requests["direct"] + requests["program"]
    metrics = {}
    for name, unit, kind, spans, routes in LAYER_METRICS:
        if tracer.missing.keys() & set(spans):
            continue
        stats = [totals.get(s, {"calls": 0, "total": 0.0, "self": 0.0}) for s in spans]
        if kind == "calls":
            value = sum(s["calls"] for s in stats) / requests[routes]
        elif kind == "count":
            value = sum(tracer.counts.get(s, 0) for s in spans) / requests[routes]
        elif kind == "share":
            calls = sum(s["calls"] for s in stats)
            value = sum(tracer.counts.get(s, 0) for s in spans) / calls if calls else 0.0
        else:
            value = sum(s[kind] for s in stats) * 1000 / requests[routes]
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def print_properties(name: str, run: Run, traced: bool) -> None:
    n = run.questions()
    print(f"workload {name}: {n} questions, {n} requests per route")
    if n < MIN_REQUESTS and not traced:
        print(f"note: fewer than {MIN_REQUESTS} requests per route in {MAX_SECONDS} s; "
              f"p90 rests on too few samples")
    print(f"  machine speed relative to the reference: median "
          f"{statistics.median(run.scales):.4f} (kernel timed {n + 1} times)")
    print(f"  repeated (database, query) share: {run.repeats / n:.4f}")
    print(f"  unchanged-database share: {run.unchanged_db / n:.4f}")
    print(f"  candidate cells: {dict(sorted(run.cells.items()))}")
    print(f"  secrecy instances: {dict(sorted(run.instances.items()))}")
    for route in ROUTES:
        if run.failures[route]:
            print(f"  {route} failures: {dict(run.failures[route])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up; print the set-up seconds and their scale")
    args = parser.parse_args(argv)
    try:
        workload, initial, nv, clients, first_setup = setup(args.workload, args.seed)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(*first_setup)
        return 0

    if args.trace:
        tracer = Tracer()
        traced_clients = {route: RouteClient(route, nv, tracer.wrap) for route in ROUTES}
        for client in traced_clients.values():
            client.ask(initial)
        runs = (Run(), Run())
        measure(workload, initial, nv, args.seconds,
                [(clients, runs[0], None), (traced_clients, runs[1], tracer)])
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
        for note in tracer.missing.values():
            print(f"note: {note}")
        overhead = runs[1].timed_seconds() / runs[0].timed_seconds()
        metrics = per_layer(tracer, runs[1], overhead)
    else:
        runs = (Run(),)
        measure(workload, initial, nv, args.seconds, [(clients, runs[0], None)],
                MIN_REQUESTS)
        metrics = end_to_end(runs[0], setup_seconds(args.workload, args.seed, first_setup))

    print_properties(args.workload, runs[0], bool(args.trace))
    if not args.trace:
        for name, (value, unit) in timings(runs[0], [1.0] * runs[0].questions()).items():
            print(f"  unscaled {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    attempted = sum(len(v) for r in runs for v in r.latencies.values())
    failed = sum(r.failed() for r in runs)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
