import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import nullveil.cli as cli_module
from nullveil import Value
from nullveil.cli import main


SCHEMA_PR = "relation P(A:int, B:int). relation R(B:int, C:int).\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cmd_eval_json(files, capsys):
    schema = files("s.nv", "relation R(A:sym, B:sym). relation S(B:sym, C:sym).")
    facts = files("f.nv", "R(a,b). R(c,d). R(e,null). S(b,f). S(d,g). S(null,j).")
    code, out, _ = run(capsys, "eval", "--schema", schema, "--facts", facts,
                       "--query", "?(X,Z) :- R(X,Y), S(Y,Z).",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_answers"] == [["a", "f"], ["c", "g"]]
    assert payload["classical_answers"] == [["a", "f"], ["c", "g"], ["e", "j"]]


def test_cmd_eval_empty_and_parse_error(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "")
    code, out, _ = run(capsys, "eval", "--schema", schema, "--facts", facts,
                       "--query", "?(X,Y) :- P(X,Y).", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n_answers": [], "classical_answers": []}
    code, _, err = run(capsys, "eval", "--schema", schema, "--facts", facts,
                       "--query", "?(X,Y) :- P(X,Y")
    assert code == 2 and "parse error" in err


def test_cmd_instances_lists_change_sets(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    code, out, _ = run(capsys, "instances", "--schema", schema, "--facts", facts,
                       "--views", views, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    changes = [tuple((c["relation"], c["tid"], c["pos"]) for c in item["changes"])
               for item in payload["instances"]]
    assert changes == [
        (("P", 1, 1), ("R", 1, 2)),
        (("P", 1, 2),),
        (("R", 1, 1),),
    ]


def test_cmd_instances_admissible_input(files, capsys):
    schema = files("s.nv", "relation P(A:sym). relation R(A:sym).")
    facts = files("f.nv", "P(a).")
    views = files("v.nv", "V(X) :- P(X), R(X).")
    code, out, _ = run(capsys, "instances", "--schema", schema, "--facts", facts,
                       "--views", views, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["instances"]) == 1
    assert payload["instances"][0]["changes"] == []


def test_cmd_instances_text_indents_tuples_not_string_lines(files, capsys):
    schema = files("s.nv", "relation P(A:str). relation R(A:str).")
    facts = files("f.nv", 'P("a\nb"). P("c\u2028d").')
    views = files("v.nv", "V(X) :- P(X), R(X).")
    code, out, _ = run(capsys, "instances", "--schema", schema, "--facts", facts,
                       "--views", views)
    assert code == 0
    assert out == 'instance 1: changes {}\n  @1 P("a\nb").\n  @2 P("c\u2028d").\n'


def test_cmd_instances_lists_the_cell_a_body_constant_matches(files, capsys):
    """Nulling the cell that the body constant 2 matches is one secrecy
    instance, and nulling the head cell the other; `--mode` is gone."""
    schema = files("s.nv", "relation P(A:int, B:int).")
    facts = files("f.nv", "P(1,2).")
    views = files("v.nv", "Vs(X) :- P(X,2).")
    code, out, _ = run(capsys, "instances", "--schema", schema, "--facts", facts,
                       "--views", views, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"instances": [
        {"changes": [{"relation": "P", "tid": 1, "pos": 1}], "facts": {"P": [["null", "2"]]}},
        {"changes": [{"relation": "P", "tid": 1, "pos": 2}], "facts": {"P": [["1", "null"]]}},
    ]}
    _, out, _ = run(capsys, "instances", "--schema", schema, "--facts", facts,
                    "--views", views)
    assert out == ("instance 1: changes {P#1[1]}\n  @1 P(null, 2).\n"
                   "instance 2: changes {P#1[2]}\n  @1 P(1, null).\n")
    code, _, err = run(capsys, "instances", "--schema", schema, "--facts", facts,
                       "--views", views, "--mode", "exhaustive")
    assert code == 2 and "unrecognized arguments: --mode" in err


def test_cmd_answer_via_direct_asp_and_both(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). P(3,4). R(2,1). R(3,3).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z).")
    for via in ("direct", "asp", "both"):
        code, out, _ = run(capsys, "answer", "--schema", schema, "--facts", facts,
                           "--views", views, "--query", "?(X,Y) :- P(X,Y).",
                           "--via", via, "--format", "json")
        assert code == 0
        assert json.loads(out)["answers"] == [["3", "4"]]


def test_cmd_answer_routes_agree_on_a_comparison_with_null(files, capsys):
    schema = files("s.nv", "relation P(A:int, B:int).")
    facts = files("f.nv", "P(1, 2). P(3, null).")
    views = files("v.nv", "V(X) :- P(X, Y), P(Y, Z).")
    for via in ("direct", "asp", "both"):
        code, out, _ = run(capsys, "answer", "--schema", schema, "--facts", facts,
                           "--views", views, "--query", "?(X) :- P(X, Y), Y = null.",
                           "--via", via, "--format", "json")
        assert code == 0
        assert json.loads(out)["answers"] == []


def test_cmd_answer_view_query_is_empty(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    code, out, _ = run(capsys, "answer", "--schema", schema, "--facts", facts,
                       "--views", views,
                       "--query", "?(X,Z) :- P(X,Y), R(Y,Z), Y < 3.",
                       "--via", "both", "--format", "json")
    assert code == 0
    assert json.loads(out)["answers"] == []


def test_cmd_compile_program_and_dcs(files, capsys, tmp_path):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    code, out, _ = run(capsys, "compile", "--schema", schema, "--facts", facts,
                       "--views", views, "--dialect", "dlv")
    assert code == 0
    assert "p_s(X1,X2,T) :- p_t(X1,X2,T), not p_u(X1,X2,T)." in out
    # the paper's program: the rows as facts of p and r, copied into p_t
    # and r_t by rule, although cautious answers take them in at `_t`
    assert out.startswith("p(1,2,1).\nr(2,1,1).\n")
    assert "\np_t(X1,X2,T) :- p(X1,X2,T).\n" in out
    for query in ([], ["--query", "?(X) :- P(X,Y)."]):
        code, out, _ = run(capsys, "solve", "--schema", schema, "--facts", facts,
                           "--views", views, *query)
        assert code == 0
        assert out == ("3 stable model(s)\n"
                       "model 1:\n  @1 P(null, 2).\n  @1 R(2, null).\n"
                       "model 2:\n  @1 P(1, null).\n  @1 R(2, 1).\n"
                       "model 3:\n  @1 P(1, 2).\n  @1 R(null, 1).\n"
                       + "cautious answers:\n" * bool(query))
    code, out, _ = run(capsys, "compile", "--schema", schema, "--facts", facts,
                       "--views", views, "--dcs", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["denial_constraints"]) == 2
    code, _, err = run(capsys, "compile", "--schema", schema, "--facts", facts,
                       "--views", views, "--dialect", "smodels")
    assert code == 2 and "argument --dialect" in err


def test_cmd_answer_via_both_exits_4_when_the_routes_disagree(files, capsys, monkeypatch):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). P(3,4). R(2,1). R(3,3).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z).")
    monkeypatch.setattr(cli_module.asp, "cautious_answers",
                        lambda *args, **kwargs: frozenset({(Value.of_int(9), Value.of_int(9))}))
    code, out, err = run(capsys, "answer", "--schema", schema, "--facts", facts,
                         "--views", views, "--query", "?(X,Y) :- P(X,Y).", "--via", "both")
    assert (code, out) == (4, "")
    assert err == ("cross-check failure: direct and asp answers disagree: "
                   "[['3', '4']] vs [['9', '9']]\n")


def test_cmd_compile_output_writes_the_program_to_a_file(files, capsys, tmp_path):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    code, program, _ = run(capsys, "compile", "--schema", schema, "--facts", facts,
                           "--views", views)
    assert code == 0
    output = tmp_path / "program.lp"
    code, out, err = run(capsys, "compile", "--schema", schema, "--facts", facts,
                         "--views", views, "--output", str(output))
    assert (code, out, err) == (0, f"wrote {output}\n", "")
    assert output.read_text(encoding="utf-8") == program


def test_empty_views_argument_exits_3(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    code, out, err = run(capsys, "instances", "--schema", schema, "--facts", facts,
                         "--views", "")
    assert (code, out, err) == (3, "", "error: --views is required for this command\n")


def test_cmd_solve_internal_engine(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    code, out, _ = run(capsys, "solve", "--schema", schema, "--facts", facts,
                       "--views", views, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["instances"]) == 3
    code, out, _ = run(capsys, "solve", "--schema", schema, "--facts", facts,
                       "--views", views, "--query", "?(X,Y) :- P(X,Y).",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["answers"] == []


def test_exit_codes_semantic_and_bound(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    bad_query = files("q.nv", "?(X) :- Q(X,Y).")
    code, _, err = run(capsys, "eval", "--schema", schema, "--facts", facts,
                       "--query", bad_query)
    assert code == 3 and "unknown relation" in err
    code, _, err = run(capsys, "instances", "--schema", schema, "--facts", facts,
                       "--views", views, "--max-nodes", "1")
    assert code == 5 and "bound exceeded: secrecy-instance search exceeded its bound" in err


def test_one_node_bound_flag_on_every_search_command(files, capsys):
    """`--max-nodes` bounds `instances`, `answer` under each `--via` and
    `solve`, and no command takes `--max-cells`."""
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    query = "?(X,Y) :- P(X,Y)."
    for command in (["eval", "--query", query], ["compile", "--views", views]):
        for flag in ("--max-cells", "--max-nodes"):
            code, _, err = run(capsys, *command, "--schema", schema, "--facts", facts,
                               flag, "3")
            assert code == 2 and f"unrecognized arguments: {flag}" in err
    searches = [(["instances"], "secrecy-instance search"),
                (["answer", "--query", query], "secrecy-instance search"),
                (["answer", "--query", query, "--via", "direct"], "secrecy-instance search"),
                (["answer", "--query", query, "--via", "asp"], "stable-model search"),
                (["answer", "--query", query, "--via", "both"], "secrecy-instance search"),
                (["solve"], "stable-model search")]
    for command, stage in searches:
        args = [*command, "--schema", schema, "--facts", facts, "--views", views]
        code, _, err = run(capsys, *args, "--max-cells", "48")
        assert code == 2 and "unrecognized arguments: --max-cells" in err
        code, _, err = run(capsys, *args, "--max-nodes", "0")
        assert code == 5 and f"{stage} exceeded its bound of 0 nodes" in err
        code, _, _ = run(capsys, *args, "--max-nodes", "100")
        assert code == 0


def test_instances_past_the_default_bound_exit_5_before_assembling(files, capsys):
    """k=13 independent violating pairs: 3^13 secrecy instances to
    assemble are more than the default 2^20 nodes."""
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", " ".join(f"P({i}, {100 + i}). R({100 + i}, {200 + i})."
                                   for i in range(1, 14)))
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.")
    code, out, err = run(capsys, "instances", "--schema", schema, "--facts", facts,
                         "--views", views)
    assert code == 5 and not out
    assert err == ("bound exceeded: secrecy-instance search exceeded its bound of 1048576 "
                   "nodes (65 nodes visited, 39 component transversals found, "
                   "1594323 instances to assemble)\n")


def test_unreadable_input_text_exits_2(files, capsys, tmp_path):
    schema = files("s.nv", "relation P(A:int).")
    facts = files("f.nv", "P(²).")
    code, _, err = run(capsys, "eval", "--schema", schema, "--facts", facts,
                       "--query", "?(X) :- P(X).")
    assert code == 2 and "parse error" in err and "unexpected character" in err
    latin1 = tmp_path / "latin1.nv"
    latin1.write_bytes(b"P(1). % caf\xe9\n")
    code, _, err = run(capsys, "eval", "--schema", schema, "--facts", str(latin1),
                       "--query", "?(X) :- P(X).")
    assert code == 2 and f"parse error: {latin1}: not UTF-8 text" in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
def test_an_integer_literal_past_the_int_string_limit_exits_2(files, capsys):
    too_long = "9" * (sys.get_int_max_str_digits() + 1)
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", f"P({too_long}, 1).")
    code, out, err = run(capsys, "eval", "--schema", schema, "--facts", facts,
                         "--query", "?(X) :- P(X, Y).")
    assert code == 2 and not out
    assert err.startswith("parse error: 1:3: integer literal too long")
    assert "Traceback" not in err


def test_search_node_bound_flag_and_its_old_name(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    query = "?(X,Y) :- P(X,Y)."
    for flag in ("--max-nodes", "--max-models"):
        for command in (["answer", "--via", "asp", "--query", query], ["solve"]):
            code, _, err = run(capsys, *command, "--schema", schema, "--facts", facts,
                               "--views", views, flag, "1")
            assert code == 5 and "stable-model search exceeded" in err
            code, _, _ = run(capsys, *command, "--schema", schema, "--facts", facts,
                             "--views", views, flag, "100")
            assert code == 0


def test_negative_bounds_are_usage_errors(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    query = "?(X,Y) :- P(X,Y)."
    for command, flag in ((["answer", "--via", "asp", "--query", query], "--max-nodes"),
                          (["solve"], "--max-models"),
                          (["instances"], "--max-nodes"),
                          (["answer", "--query", query], "--max-nodes")):
        code, out, err = run(capsys, *command, "--schema", schema, "--facts", facts,
                             "--views", views, flag, "-5")
        assert code == 2 and not out and "must not be negative: -5" in err
        # zero is a bound like any other: nothing fits in it
        code, _, err = run(capsys, *command, "--schema", schema, "--facts", facts,
                           "--views", views, flag, "0")
        assert code == 5 and "bound" in err


def test_cmd_solve_with_stub_external_solver(files, capsys, tmp_path, monkeypatch):
    schema = files("s.nv", "relation P(A:sym). relation R(A:sym).")
    facts = files("f.nv", "P(a). R(a).")
    views = files("v.nv", "V(X) :- P(X), R(X).")
    stub = tmp_path / "dlv"
    stub.write_text(
        "#!/bin/sh\n"
        "echo '{p(a,1), r(a,1), p_t(a,1), r_t(a,1), p_a(null,1), "
        "p_t(null,1), p_u(a,1), p_s(null,1), r_s(a,1)}'\n"
        "echo '{p(a,1), r(a,1), p_t(a,1), r_t(a,1), r_a(null,1), "
        "r_t(null,1), r_u(a,1), p_s(a,1), r_s(null,1)}'\n",
        encoding="utf-8")
    stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}:/usr/bin:/bin")
    code, out, _ = run(capsys, "solve", "--schema", schema, "--facts", facts,
                       "--views", views, "--solver", "dlv", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(str(i["facts"]) for i in payload["instances"]) == sorted([
        str({"P": [["null"]], "R": [["a"]]}),
        str({"P": [["a"]], "R": [["null"]]}),
    ])
    code, _, err = run(capsys, "solve", "--schema", schema, "--facts", facts,
                       "--views", views, "--solver", "no-such-solver")
    assert code == 3 and "not found" in err


def _stub_solver(tmp_path, monkeypatch, script: str) -> None:
    stub = tmp_path / "bin" / "dlv"
    stub.parent.mkdir()
    stub.write_text("#!/bin/sh\n" + script, encoding="utf-8")
    stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{stub.parent}:/usr/bin:/bin")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


def test_cmd_solve_external_solver_failure_exits_3_and_cleans_up(
        files, capsys, tmp_path, monkeypatch):
    schema = files("s.nv", "relation P(A:sym). relation R(A:sym).")
    facts = files("f.nv", "P(a). R(a).")
    views = files("v.nv", "V(X) :- P(X), R(X).")
    _stub_solver(tmp_path, monkeypatch, "echo 'solver crashed' >&2\nexit 1\n")
    code, _, err = run(capsys, "solve", "--schema", schema, "--facts", facts,
                       "--views", views, "--solver", "dlv")
    assert code == 3
    assert "exit status 1" in err and "solver crashed" in err
    assert not list(tmp_path.glob("*.lp"))


def test_cmd_solve_external_solver_timeout_exits_5_and_cleans_up(
        files, capsys, tmp_path, monkeypatch):
    schema = files("s.nv", "relation P(A:sym). relation R(A:sym).")
    facts = files("f.nv", "P(a). R(a).")
    views = files("v.nv", "V(X) :- P(X), R(X).")
    _stub_solver(tmp_path, monkeypatch, "exec sleep 5\n")
    monkeypatch.setattr(cli_module, "SOLVER_TIMEOUT_S", 0.2)
    code, _, err = run(capsys, "solve", "--schema", schema, "--facts", facts,
                       "--views", views, "--solver", "dlv")
    assert code == 5
    assert "bound exceeded: solver" in err and "time limit of 0.2 s" in err
    assert not list(tmp_path.glob("*.lp"))


def test_cmd_solve_without_stable_models_exits_4(files, capsys, tmp_path, monkeypatch):
    schema = files("s.nv", "relation P(A:sym). relation R(A:sym).")
    facts = files("f.nv", "P(a). R(a).")
    views = files("v.nv", "V(X) :- P(X), R(X).")
    _stub_solver(tmp_path, monkeypatch, "exit 0\n")
    code, _, err = run(capsys, "solve", "--schema", schema, "--facts", facts,
                       "--views", views, "--solver", "dlv")
    assert code == 4 and "cross-check failure" in err
    assert not list(tmp_path.glob("*.lp"))


@pytest.mark.parametrize("command, layer, error", [
    ("instances", "enumerate_secrecy_instances", RecursionError),
    ("eval", "eval_n", MemoryError),
])
def test_uncaught_recursion_or_memory_error_exits_5(files, capsys, monkeypatch,
                                                     command, layer, error):
    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli_module, layer, exhausted)
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    extra = ("--views", views) if command == "instances" else ("--query", "?(X) :- P(X,Y).")
    code, _, err = run(capsys, command, "--schema", schema, "--facts", facts, *extra)
    assert code == 5
    assert f"bound exceeded: {command} ran out of" in err


def test_cmd_instances_rejects_null_in_a_view_body(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X) :- P(X,null).")
    code, _, err = run(capsys, "instances", "--schema", schema, "--facts", facts,
                       "--views", views)
    assert code == 3 and "null may not appear in view body atom" in err


def test_json_output_is_stable(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(3,4). P(1,2). R(2,1). R(3,3).")
    first = run(capsys, "eval", "--schema", schema, "--facts", facts,
                "--query", "?(X,Y) :- P(X,Y).", "--format", "json")
    second = run(capsys, "eval", "--schema", schema, "--facts", facts,
                 "--query", "?(X,Y) :- P(X,Y).", "--format", "json")
    assert first == second
    assert json.loads(first[1])["n_answers"] == [["1", "2"], ["3", "4"]]


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_block(section: str, lang: str) -> str:
    """The first fenced `lang` block under the README heading `section`."""
    match = re.search(rf"^## {section}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, f"README has no {lang} block under {section!r}"
    return match.group(1)


def test_readme_library_example_prints_what_it_says(capsys):
    code = readme_block("Library example", "python")
    exec(compile(code, "README.md", "exec"), {})
    expected = re.findall(r"^# (\[.*\])  - ", code, re.M)
    assert expected[0] == "[['3', '4']]"
    assert capsys.readouterr().out.splitlines() == expected


def write_readme_inputs(directory: Path) -> None:
    inputs = readme_block("Input files", "text")
    for name, text in re.findall(r"^% (\w+\.nv).*?\n(.*?)(?=^% |\Z)", inputs, re.M | re.S):
        (directory / name).write_text(text, encoding="utf-8")
    assert sorted(p.name for p in directory.iterdir()) == ["facts.nv", "schema.nv", "views.nv"]


def test_readme_commands_run_on_its_input_files(capsys, tmp_path, monkeypatch):
    """Every command of the README's CLI section exits 0 on the README's
    three input files."""
    write_readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    script = readme_block("CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in script.splitlines()
                if line.startswith("nullveil ")]
    assert commands[0][0] == "eval"
    assert any(argv[0] == "answer" and argv[-2:] == ["--via", "both"] for argv in commands)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_json_output_does_not_depend_on_the_hash_seed(tmp_path):
    """`instances` and `answer --via both` print byte-identical JSON on the
    README inputs in two interpreters whose string hashing differs, so no
    output follows the iteration order of a set or dict of strings."""
    write_readme_inputs(tmp_path)
    common = ["--schema", "schema.nv", "--facts", "facts.nv", "--views", "views.nv",
              "--format", "json"]
    commands = [["instances", *common],
                ["answer", "--query", "?(X,Y) :- P(X,Y).", "--via", "both", *common]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs[seed] = [subprocess.run([sys.executable, "-m", "nullveil.cli", *argv],
                                        cwd=tmp_path, env=env, capture_output=True,
                                        check=True, timeout=120).stdout
                         for argv in commands]
    assert outputs["0"] == outputs["1"]
    assert json.loads(outputs["0"][0])["instances"] and json.loads(outputs["0"][1])["via"] == "both"
