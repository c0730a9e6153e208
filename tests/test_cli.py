import json
import tempfile

import pytest

import nullveil.cli as cli_module
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


def test_cmd_instances_exhaustive_flags_extra_solutions(files, capsys, monkeypatch):
    schema = files("s.nv", "relation P(A:int, B:int).")
    facts = files("f.nv", "P(1,2).")
    views = files("v.nv", "Vs(X) :- P(X,2).")
    modes = []
    enumerate_instances = cli_module.enumerate_secrecy_instances

    def counting(instance, views, mode, **kwargs):
        modes.append(mode)
        return enumerate_instances(instance, views, mode, **kwargs)
    monkeypatch.setattr(cli_module, "enumerate_secrecy_instances", counting)
    code, out, _ = run(capsys, "instances", "--schema", schema, "--facts", facts,
                       "--views", views, "--mode", "exhaustive", "--format", "json")
    assert code == 0
    assert [m.value for m in modes] == ["exhaustive"]  # one search, not one per mode
    payload = json.loads(out)
    flags = {tuple((c["relation"], c["tid"], c["pos"]) for c in item["changes"]):
             item["exhaustive_only"] for item in payload["instances"]}
    assert flags == {(("P", 1, 1),): False, (("P", 1, 2),): True}
    _, text_out, _ = run(capsys, "instances", "--schema", schema, "--facts", facts,
                         "--views", views, "--mode", "exhaustive")
    assert "[exhaustive-only]" in text_out


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
    code, out, _ = run(capsys, "compile", "--schema", schema, "--facts", facts,
                       "--views", views, "--dcs", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["denial_constraints"]) == 2
    code, _, err = run(capsys, "compile", "--schema", schema, "--facts", facts,
                       "--views", views, "--dialect", "smodels")
    assert code == 2 and "argument --dialect" in err


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
                       "--views", views, "--max-cells", "1")
    assert code == 5 and "bound" in err


def test_cell_bound_flag_only_on_instance_search_commands(files, capsys):
    schema = files("s.nv", SCHEMA_PR)
    facts = files("f.nv", "P(1,2). R(2,1).")
    views = files("v.nv", "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.")
    query = "?(X,Y) :- P(X,Y)."
    for command in (["eval", "--query", query], ["compile", "--views", views],
                    ["solve", "--views", views]):
        code, _, err = run(capsys, *command, "--schema", schema, "--facts", facts,
                           "--max-cells", "3")
        assert code == 2 and "unrecognized arguments: --max-cells" in err
    for command in (["instances"], ["answer", "--query", query]):
        code, _, err = run(capsys, *command, "--schema", schema, "--facts", facts,
                           "--views", views, "--max-cells", "1")
        assert code == 5 and "candidate cells exceed the bound 1" in err


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
                          (["instances"], "--max-cells"),
                          (["answer", "--query", query], "--max-cells")):
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
