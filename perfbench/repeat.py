"""Repeated runs of the benchmark, and the spread and drift between them.

    python3 perfbench/repeat.py run a conflicts bulk
    python3 perfbench/repeat.py run b conflicts bulk
    python3 perfbench/repeat.py summary a b

`run` makes one set of untraced runs, one per seed (101 to 110) and
workload, each of `run_seconds` from BENCHMARK.json, and appends one
record per run to results/runs-<set>-<workload>.jsonl: the seed, the
machine speed, the set-up samples, the unscaled timings and the run's
result line.  `summary` prints, per workload and end-to-end metric, each
set's median and spread (quartile distance over median) and how much
worse the second set's median is than the first's, beside the bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RESULTS = HERE / "results"
SEEDS = range(101, 111)


def record(set_name: str, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    samples = next(line for line in out.splitlines() if "set-up samples" in line)
    return {
        "set": set_name, "workload": workload, "seed": seed,
        "speed": float(re.search(r"reference: median (\S+)", out).group(1)),
        "setup_samples": [[float(t), float(k)] for t, k in
                          re.findall(r"\(([\d.]+), ([\d.]+)\)", samples)],
        "unscaled": {name: float(v) for name, v in re.findall(r"unscaled (\S+) = (\S+)", out)},
        "result": json.loads(out.splitlines()[-1]),
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(sets: list[str]) -> None:
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = {s: [json.loads(line) for line in
                    (RESULTS / f"runs-{s}-{workload}.jsonl").read_text().splitlines()]
                for s in sets}
        print(f"{workload}: " + "; ".join(
            f"set {s} {len(r)} runs, all correct {all(x['result']['correct'] for x in r)}"
            for s, r in runs.items()))
        print(f"  {'metric':22} {'bound':>6}" + "".join(
            f" {'median ' + s:>10} {'spread ' + s:>9}" for s in sets) + "  worse")
        for metric in BENCHMARK["end_to_end"]:
            name, medians = metric["name"], []
            line = f"  {name:22} {metric['bound']:6.3f}"
            for s in sets:
                values = [x["result"]["metrics"][name]["value"] for x in runs[s]]
                medians.append(statistics.median(values))
                line += f" {medians[-1]:10.4f} {spread(values):9.4f}"
            worse = medians[-1] / medians[0] - 1
            print(line + f"  {worse if metric['better'] == 'lower' else -worse:+.4f}")
        for s in sets:
            one = [x["setup_samples"][0][0] * x["setup_samples"][0][1] for x in runs[s]]
            speeds = [x["speed"] for x in runs[s]]
            print(f"  set {s}: setup_s from one sample instead of five: spread "
                  f"{spread(one):.4f}; machine speed {min(speeds):.3f} to {max(speeds):.3f}")
            print(f"  set {s} unscaled:" + "".join(
                f" {name} {statistics.median(x['unscaled'][name] for x in runs[s]):.4g}"
                f" (spread {spread([x['unscaled'][name] for x in runs[s]]):.4f})"
                for name in runs[s][0]["unscaled"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("set")
    run.add_argument("workloads", nargs="+")
    sub.add_parser("summary").add_argument("sets", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "summary":
        summary(args.sets)
        return 0
    RESULTS.mkdir(exist_ok=True)
    for workload in args.workloads:
        for seed in SEEDS:
            with (RESULTS / f"runs-{args.set}-{workload}.jsonl").open("a") as out:
                out.write(json.dumps(record(args.set, workload, seed)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
