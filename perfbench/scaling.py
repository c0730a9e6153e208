"""Growth report: how each route's cost grows with the number k of
independent violating join pairs and with the number n of rows that join
nothing.  It is not gated and not part of the repeated benchmark runs;
record it once per change:

    python3 perfbench/scaling.py --out perfbench/results/scaling.json

Two families over the stream schema and view (see workloads.py):

* k family, no harmless rows: the direct route for k = 1..4, the program
  route for k = 1..3 (k = 4 takes minutes on the program route);
* n family, k = 2: both routes for n = 50, 100, 200, 400 harmless rows.

Every row asserts its 3^k result: the direct route's secrecy instances
equal the closed-form change sets, and the program route has exactly 3^k
stable models (counted by the tracer around `asp.stable_models`).  Each
row is one timed call, so read the figures as a growth curve, not as a
measurement to compare two versions by.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from pathlib import Path
from time import perf_counter

from run import closed_form_change_sets, import_nullveil
from tracing import Tracer
from workloads import STREAM_SCHEMA, STREAM_VIEWS, StreamDatabase

QUERY = "?(X) :- P(X, Y)."
K_FAMILY = {"direct": (1, 2, 3, 4), "program": (1, 2, 3)}
N_FAMILY = (50, 100, 200, 400)
N_FAMILY_K = 2
# stage of the program route: the spans whose self times it sums
PROGRAM_STAGES = {
    "compile": ("asp.compile_program", "asp.compile_query_program"),
    "ground": ("solver.ground",),
    "stable_models": ("solver.stable_models",),
    "rest": ("asp.cautious_answers",),
}


def _inputs(nv: dict, k: int, n: int):
    lang = nv["lang"]
    db = StreamDatabase(random.Random(f"scaling/{k}/{n}"), k, n)
    schema = lang.parse_schema(STREAM_SCHEMA)
    return (db, lang.parse_facts(db.facts_text(), schema),
            lang.parse_views(STREAM_VIEWS, schema), lang.parse_query(QUERY, schema))


def direct_row(nv: dict, k: int, n: int) -> dict:
    db, instance, views, query = _inputs(nv, k, n)
    start = perf_counter()
    report = nv["answers"].secret_answers(instance, views, query)
    seconds = perf_counter() - start
    got = [frozenset(changes) for changes, _ in report.per_instance]
    expected = closed_form_change_sets(nv, db.pairs)
    if len(got) != 3 ** k or set(got) != expected:
        raise AssertionError(f"direct k={k} n={n}: {len(got)} secrecy instances, "
                             f"expected the {3 ** k} closed-form change sets")
    return {"route": "direct", "k": k, "n": n, "rows": instance.total_rows(),
            "seconds": seconds, "secrecy_instances": len(got)}


def program_row(nv: dict, k: int, n: int) -> dict:
    """One traced call of `asp.cautious_answers`; the stage times are the
    self times of the spans the tracer records inside it."""
    _, instance, views, query = _inputs(nv, k, n)
    tracer = Tracer()
    with tracer.installed(nv), tracer.request("asp.cautious_answers"):
        nv["asp"].cautious_answers(instance, views, query)
    totals = tracer.layer_totals()
    stages = {stage: sum(totals.get(s, {"self": 0.0})["self"] for s in spans)
              for stage, spans in PROGRAM_STAGES.items()}
    models = tracer.counts.get("solver.stable_models")
    if "solver.stable_models" not in tracer.missing and models != 3 ** k:
        raise AssertionError(f"program k={k} n={n}: {models} stable models, "
                             f"expected {3 ** k}")
    return {"route": "program", "k": k, "n": n, "rows": instance.total_rows(),
            "seconds": totals["asp.cautious_answers"]["total"], "stages": stages,
            "ground_rules": tracer.counts.get("solver.ground"),
            "stable_models": models, "notes": sorted(tracer.missing.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="also write the rows as JSON here")
    args = parser.parse_args(argv)
    nv = import_nullveil()
    plan = [(direct_row, k, 0) for k in K_FAMILY["direct"]]
    plan += [(program_row, k, 0) for k in K_FAMILY["program"]]
    plan += [(row, N_FAMILY_K, n) for row in (direct_row, program_row) for n in N_FAMILY]
    rows = []
    print(f"{'route':8} {'k':>2} {'n':>4} {'rows':>5} {'seconds':>9}  detail")
    for row_fn, k, n in plan:
        row = row_fn(nv, k, n)
        rows.append(row)
        detail = ", ".join(f"{s} {t:.3f} s" for s, t in row.get("stages", {}).items())
        print(f"{row['route']:8} {k:>2} {n:>4} {row['rows']:>5} {row['seconds']:>9.3f}  "
              f"{detail}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "python": sys.version.split()[0], "machine": platform.machine(),
            "cpus": os.cpu_count(), "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
