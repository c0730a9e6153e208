"""Command-line front end.

One subcommand per operation family:

    nullveil eval      --schema S --facts F --query Q
    nullveil instances --schema S --facts F --views V [--mode targeted|exhaustive]
                       [--max-cells N]
    nullveil answer    --schema S --facts F --views V --query Q [--via direct|asp|both]
                       [--max-cells N] [--max-nodes N]
    nullveil compile   --schema S --facts F --views V [--dialect dlv|clingo] [--dcs]
    nullveil solve     --schema S --facts F --views V [--query Q] [--solver PATH]
                       [--max-nodes N]

`--query` takes literal query text when it contains `:-`, otherwise a
file path.  Output is plain text or, with `--format json`, stable JSON
with rows sorted.  `--max-cells` (default 24) bounds the candidate cells
of the secrecy-instance search.  `--max-nodes` (old name `--max-models`)
bounds the internal engine's stable-model search: its search nodes plus
the models it assembles from independent components count against it.
An external solver gets `SOLVER_TIMEOUT_S` seconds.  Exit codes: 0
success, 2 parse or usage error (a negative bound is one), 3 semantic
error or failed external solver, 4 cross-check failure (no secrecy
instance or stable model counts as one), 5 bound exceeded (running out
of recursion depth or memory, or the external solver's time limit,
counts as one).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from . import asp
from .answers import secret_answers
from .errors import (BoundExceededError, CrossCheckError, NullveilError,
                     ParseError, SemanticError)
from .instances import (DEFAULT_CELL_BOUND, EnumerationMode, candidate_cells,
                        enumerate_secrecy_instances)
from .lang import fact_lines, parse_facts, parse_query, parse_schema, parse_views
from .model import Instance, sorted_cells
from .semantics import eval_classical, eval_n
from .solver import DEFAULT_SEARCH_BOUND, stable_models

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_CROSSCHECK = 4
EXIT_BOUND = 5

SOLVER_TIMEOUT_S = 600  # wall-clock limit on one external solver run


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _query_text(value: str) -> str:
    return value if ":-" in value else _read(value)


def _load(args, need_views: bool = False, need_query: bool = False):
    schema = parse_schema(_read(args.schema))
    instance = parse_facts(_read(args.facts), schema)
    views = None
    if getattr(args, "views", None):
        views = parse_views(_read(args.views), schema)
    elif need_views:
        raise SemanticError("--views is required for this command")
    query = None
    if getattr(args, "query", None):
        query = parse_query(_query_text(args.query), schema)
    elif need_query:
        raise SemanticError("--query is required for this command")
    return schema, instance, views, query


def _rows_json(answers) -> list:
    return sorted([v.token() for v in row] for row in answers)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _changes_json(changes) -> list:
    return [{"relation": c.relation, "tid": c.tid, "pos": c.pos}
            for c in sorted_cells(changes)]


def _changes_text(changes) -> str:
    cells = sorted_cells(changes)
    return "{" + ", ".join(c.token() for c in cells) + "}"


def _instance_json(instance: Instance) -> dict:
    return {
        name: [[v.token() for v in row.values] for row in instance.rows(name)]
        for name in instance.schema.names()
    }


def cmd_eval(args) -> int:
    _, instance, _, query = _load(args, need_query=True)
    n_rows = _rows_json(eval_n(instance, query))
    c_rows = _rows_json(eval_classical(instance, query))
    text = ["N-answers:"] + [f"  ({', '.join(r)})" for r in n_rows]
    text += ["classical answers:"] + [f"  ({', '.join(r)})" for r in c_rows]
    _emit(args, {"n_answers": n_rows, "classical_answers": c_rows},
          "\n".join(text) + "\n")
    return EXIT_OK


def cmd_instances(args) -> int:
    _, instance, views, _ = _load(args, need_views=True)
    mode = EnumerationMode(args.mode)
    solutions = enumerate_secrecy_instances(instance, views, mode,
                                            max_cells=args.max_cells)
    # the targeted edges are the exhaustive ones cut to the targeted pool,
    # so the targeted instances are the exhaustive ones that lie inside it
    pool = None
    if mode is EnumerationMode.EXHAUSTIVE:
        pool = candidate_cells(instance, views, EnumerationMode.TARGETED)
    items = []
    lines = []
    for i, solution in enumerate(solutions, 1):
        extra = pool is not None and not solution.changes <= pool
        degraded = solution.instance
        item = {"changes": _changes_json(solution.changes),
                "facts": _instance_json(degraded)}
        if pool is not None:
            item["exhaustive_only"] = extra
        items.append(item)
        flag = "  [exhaustive-only]" if extra else ""
        lines.append(f"instance {i}: changes {_changes_text(solution.changes)}{flag}")
        lines += ["  " + fact for fact in fact_lines(degraded)]
    _emit(args, {"instances": items}, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_answer(args) -> int:
    _, instance, views, query = _load(args, need_views=True, need_query=True)
    direct = answers_asp = None
    if args.via in ("direct", "both"):
        direct = secret_answers(instance, views, query,
                                max_cells=args.max_cells).answers
    if args.via in ("asp", "both"):
        answers_asp = asp.cautious_answers(instance, views, query,
                                           max_nodes=args.max_nodes)
    if args.via == "both" and direct != answers_asp:
        raise CrossCheckError(
            f"direct and asp answers disagree: {_rows_json(direct)} "
            f"vs {_rows_json(answers_asp)}")
    answers = direct if direct is not None else answers_asp
    rows = _rows_json(answers)
    text = [f"secret answers ({args.via}):"] + [f"  ({', '.join(r)})" for r in rows]
    _emit(args, {"answers": rows, "via": args.via}, "\n".join(text) + "\n")
    return EXIT_OK


def cmd_compile(args) -> int:
    _, instance, views, _ = _load(args, need_views=True)
    program = asp.compile_program(instance, views)
    text = asp.export_program(program.rules, args.dialect, program.facts)
    payload = {"program": text}
    if args.dcs:
        constraints = [dc for view in views
                       for dc in asp.to_denial_constraints(view)]
        payload["denial_constraints"] = constraints
        text += "".join(f"% DC: {dc}\n" for dc in constraints)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        _emit(args, payload, f"wrote {args.output}\n")
    else:
        _emit(args, payload, text)
    return EXIT_OK


def _external_models(solver: str, dialect: str, program_text: str) -> list[frozenset]:
    clingo = dialect == "clingo"
    with tempfile.NamedTemporaryFile("w", suffix=".lp", delete=False) as handle:
        handle.write(program_text)
    try:
        cmd = [solver, "--models=0", handle.name] if clingo else [solver, handle.name]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SOLVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BoundExceededError(
            f"solver {solver} exceeded its time limit of {SOLVER_TIMEOUT_S} s") from None
    finally:
        Path(handle.name).unlink()
    # clingo's status is 10 satisfiable, 20 unsatisfiable, 30 all models found
    if proc.returncode not in ((10, 20, 30) if clingo else (0,)):
        raise NullveilError(
            f"solver {solver} failed with exit status {proc.returncode}: "
            f"{proc.stderr.strip()}")
    return asp.parse_answer_sets(proc.stdout)


def cmd_solve(args) -> int:
    _, instance, views, query = _load(args, need_views=True)
    program = asp.compile_program(instance, views)
    rules = program.rules
    if query is not None:
        rules = rules + (asp.compile_query_program(query),)
    solver_path = args.solver and shutil.which(args.solver)
    if args.solver and not solver_path:
        raise SemanticError(f"solver binary not found: {args.solver}")
    if solver_path:
        dialect = "clingo" if "clingo" in Path(solver_path).name else "dlv"
        models = _external_models(solver_path, dialect,
                                  asp.export_program(rules, dialect, program.facts))
    else:
        models = stable_models(asp.ground(rules, program.facts), max_nodes=args.max_nodes)
    answers = asp.model_answers(models)  # no model at all is a CrossCheckError
    instances = asp.models_to_instances(models, instance)
    items = []
    lines = [f"{len(models)} stable model(s)"]
    for i, inst in enumerate(instances, 1):
        items.append({"facts": _instance_json(inst)})
        lines.append(f"model {i}:")
        lines += ["  " + fact for fact in fact_lines(inst)]
    payload = {"instances": items}
    if query is not None:
        payload["answers"] = _rows_json(answers)
        lines.append("cautious answers:")
        lines += [f"  ({', '.join(r)})" for r in payload["answers"]]
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullveil",
        description="Answer conjunctive queries without revealing secrecy views.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, views=False, query=False):
        p.add_argument("--schema", required=True, help="schema file")
        p.add_argument("--facts", required=True, help="facts file")
        if views:
            p.add_argument("--views", required=True, help="secrecy views file")
        if query:
            p.add_argument("--query", required=True,
                           help="query text (contains ':-') or file path")
        p.add_argument("--format", choices=("text", "json"), default="text")

    def node_bound(p):
        p.add_argument("--max-nodes", "--max-models", dest="max_nodes", type=int,
                       default=DEFAULT_SEARCH_BOUND,
                       help="bound on stable-model search nodes plus assembled "
                            "models (--max-models is the old name)")

    p = sub.add_parser("eval", help="evaluate a query under both semantics")
    common(p, query=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("instances", help="enumerate secrecy instances")
    common(p, views=True)
    p.add_argument("--mode", choices=("targeted", "exhaustive"), default="targeted")
    p.add_argument("--max-cells", type=int, default=DEFAULT_CELL_BOUND)
    p.set_defaults(func=cmd_instances)

    p = sub.add_parser("answer", help="compute secret answers to a query")
    common(p, views=True, query=True)
    p.add_argument("--via", choices=("direct", "asp", "both"), default="direct")
    p.add_argument("--max-cells", type=int, default=DEFAULT_CELL_BOUND)
    node_bound(p)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("compile", help="emit the secrecy logic program")
    common(p, views=True)
    p.add_argument("--dialect", choices=("dlv", "clingo"), default="dlv")
    p.add_argument("--dcs", action="store_true", help="also print denial constraints")
    p.add_argument("--output", "-o", help="write program text to a file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("solve", help="enumerate stable models / secrecy instances")
    common(p, views=True)
    p.add_argument("--query", help="optional query for cautious answers")
    p.add_argument("--solver", help="external ASP solver binary (falls back to "
                                    "the internal engine when absent)")
    node_bound(p)
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name in ("max_cells", "max_nodes"):
            if getattr(args, name, 0) < 0:
                parser.error(f"--{name.replace('_', '-')} must not be negative: "
                             f"{getattr(args, name)}")
    except SystemExit as exc:  # argparse exits with 2 on bad usage
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (NullveilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (RecursionError, MemoryError) as exc:
        what = "recursion depth" if isinstance(exc, RecursionError) else "memory"
        print(f"bound exceeded: {args.command} ran out of {what}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
