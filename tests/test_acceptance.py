"""Acceptance suite: every criterion at its stated size and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import random
import re
import shutil
import subprocess
import time
from contextlib import contextmanager

import pytest

from nullveil import (Cell, Value, apply_changes, eval_classical, eval_n,
                      rewrite_query)
from nullveil.answers import (check_no_leakage, secrecy_answer_instance,
                              secret_answers)
from nullveil.asp import (cautious_answers, compile_program, export_program,
                          models_to_instances, parse_answer_sets,
                          to_denial_constraints)
from nullveil.instances import enumerate_secrecy_instances, oracle_secrecy_instances
from nullveil.solver import ground, stable_models
from nullveil.views import is_admissible, is_null_view, null_view_sentence_holds

from corpus import (answers, four_tuple_example, join_example, nonmono_example,
                    row, sql_null_example, threshold_example, two_tuple_example)
from randgen import rand_case, rand_instance, rand_query, rand_schema


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"\n[PASS] criterion {number}: {description} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed <= budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_n_semantics_goldens():
    with criterion(1, "N-semantics goldens"):
        join = join_example()
        assert eval_classical(join.instance, join.queries["q1"]) == \
            answers("a f", "c g", "e j")
        assert eval_n(join.instance, join.queries["q1"]) == answers("a f", "c g")

        threshold = threshold_example()
        assert eval_n(threshold.instance, threshold.queries["q2"]) == answers("null")

        sql = sql_null_example()
        expected = {
            "is_null": answers("d null", "v null", "null null"),
            "is_not_null": answers("a b", "a c", "d e", "u u", "v r"),
            "self_eq": answers("u u"),
            "self_neq": answers("a b", "a c", "d e", "v r"),
            "self_join": answers("a b a c", "a c a b"),
            "join_eq": answers("a b b h"),
            "join_neq": answers("a c b h", "d e b h", "u u b h", "v r b h",
                                "a b l m", "a c l m", "d e l m", "u u l m",
                                "v r l m"),
        }
        for name, want in expected.items():
            assert eval_n(sql.instance, sql.queries[name]) == want, name


def test_criterion_2_rewriting_equivalence():
    with criterion(2, "rewriting equivalence on 1,000 randomized pairs",
                   budget=60.0):
        rng = random.Random(2024)
        mismatches = 0
        for _ in range(1000):
            schema = rand_schema(rng, max_relations=2)
            instance = rand_instance(rng, schema, max_tuples=5, n_consts=4)
            query = rand_query(rng, schema, max_atoms=3, n_consts=4)
            if eval_n(instance, query) != \
                    eval_classical(instance, rewrite_query(query)):
                mismatches += 1
        assert mismatches == 0


def test_criterion_3_admissibility():
    with criterion(3, "admissibility goldens and sentence agreement"):
        threshold = threshold_example()
        assert is_admissible(threshold.instance, threshold.views)

        two = two_tuple_example()
        assert not is_admissible(two.instance, two.views)
        variants = [
            {Cell("P", 1, 1), Cell("R", 1, 2)},
            {Cell("P", 1, 2)},
            {Cell("R", 1, 1)},
            {Cell("P", 1, 2), Cell("R", 1, 1)},
        ]
        for changes in variants:
            assert is_admissible(apply_changes(two.instance, changes), two.views)

        rng = random.Random(3033)
        mismatches = 0
        for _ in range(400):
            schema, instance, views = rand_case(rng, max_tuples=4)
            for view in views:
                if is_null_view(instance, view) != \
                        null_view_sentence_holds(instance, view):
                    mismatches += 1
            is_admissible(instance, views)
        assert mismatches == 0


def test_criterion_4_secrecy_instances():
    with criterion(4, "secrecy instances: goldens and oracle agreement on "
                      "500 randomized cases", budget=300.0):
        two = two_tuple_example()
        solutions = enumerate_secrecy_instances(two.instance, two.views)
        assert {s.changes for s in solutions} == {
            frozenset({Cell("P", 1, 1), Cell("R", 1, 2)}),
            frozenset({Cell("P", 1, 2)}),
            frozenset({Cell("R", 1, 1)}),
        }
        non_minimal = frozenset({Cell("P", 1, 2), Cell("R", 1, 1)})
        assert non_minimal not in {s.changes for s in solutions}

        four = four_tuple_example()
        assert {s.changes for s in
                enumerate_secrecy_instances(four.instance, four.views)} == {
            frozenset({Cell("P", 1, 1), Cell("R", 1, 2)}),
            frozenset({Cell("P", 1, 2)}),
            frozenset({Cell("R", 1, 1)}),
        }

        rng = random.Random(4044)
        mismatches = 0
        for _ in range(500):
            schema, instance, views = rand_case(rng, max_tuples=3)
            direct = enumerate_secrecy_instances(instance, views)
            oracle = oracle_secrecy_instances(instance, views)
            if [s.changes for s in direct] != [s.changes for s in oracle]:
                mismatches += 1
        assert mismatches == 0


def test_criterion_5_secret_answers():
    with criterion(5, "secret answers, answer instance, no-leakage"):
        four = four_tuple_example()
        assert secret_answers(four.instance, four.views,
                              four.queries["p"]).answers == answers("3 4")
        assert secret_answers(four.instance, four.views,
                              four.queries["r"]).answers == answers("3 3")

        two = two_tuple_example()
        assert secret_answers(two.instance, two.views,
                              two.queries["view_query"]).answers == frozenset()

        from nullveil import Instance
        answer_instance = secrecy_answer_instance(four.instance, four.views)
        assert answer_instance == Instance.from_values(
            four.schema, {"P": [row("3 4")], "R": [row("3 3")]})

        assert check_no_leakage(four.instance, four.views).ok
        assert check_no_leakage(two.instance, two.views).ok
        rng = random.Random(5055)
        for _ in range(150):
            schema, instance, views = rand_case(rng, max_tuples=3)
            assert check_no_leakage(instance, views).ok


def test_criterion_6_non_monotonicity():
    with criterion(6, "non-monotone secret answering regression"):
        before = nonmono_example(with_r=False)
        assert secret_answers(before.instance, before.views,
                              before.queries["p"]).answers == answers("a")
        after = nonmono_example(with_r=True)
        assert secret_answers(after.instance, after.views,
                              after.queries["p"]).answers == frozenset()


def test_criterion_7_asp_correspondence():
    with criterion(7, "stable models vs enumeration and cautious answers on "
                      "200 randomized cases", budget=600.0):
        two = two_tuple_example()
        program = compile_program(two.instance, two.views)
        models = stable_models(ground(program.rules))
        assert len(models) == 3
        assert set(models_to_instances(models, two.instance)) == \
            {s.instance for s in enumerate_secrecy_instances(two.instance,
                                                             two.views)}

        rng = random.Random(7077)
        mismatches = 0
        for _ in range(200):
            schema, instance, views = rand_case(rng, max_tuples=3, lp_safe=True)
            program = compile_program(instance, views)
            model_instances = models_to_instances(
                stable_models(ground(program.rules)), instance)
            expected = enumerate_secrecy_instances(instance, views)
            if set(model_instances) != {s.instance for s in expected}:
                mismatches += 1
            query = rand_query(rng, schema)
            if cautious_answers(instance, views, query) != \
                    secret_answers(instance, views, query).answers:
                mismatches += 1
        assert mismatches == 0


def _normalize_variables(sentence: str) -> str:
    mapping: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        token = match.group(0)
        if token == "null" or match.end() < len(sentence) and \
                sentence[match.end()] == "(":
            return token
        if token not in mapping:
            mapping[token] = f"v{len(mapping) + 1}"
        return mapping[token]

    return re.sub(r"[A-Za-z][A-Za-z0-9]*", rename, sentence)


def test_criterion_8_denial_constraints():
    with criterion(8, "denial constraints match the printed sentences"):
        two = two_tuple_example()
        constraints = to_denial_constraints(two.views[0])
        expected = [
            "¬∃x y z (P(x, y) ∧ R(y, z) ∧ y < 3 ∧ x ≠ null)",
            "¬∃x y z (P(x, y) ∧ R(y, z) ∧ y < 3 ∧ z ≠ null)",
        ]
        assert len(constraints) == 2
        assert [_normalize_variables(c) for c in constraints] == \
            [_normalize_variables(e) for e in expected]


def _find_solver() -> str | None:
    for name in ("clingo", "dlv"):
        path = shutil.which(name)
        if path:
            return path
    return None


def test_criterion_9_export_validity_with_external_solver(tmp_path):
    solver = _find_solver()
    if solver is None:
        print("\n[SKIP] criterion 9: no external ASP solver on PATH")
        pytest.skip("no external ASP solver available")
    with criterion(9, f"exported program accepted by {solver}"):
        two = two_tuple_example()
        program = compile_program(two.instance, two.views)
        dialect = "clingo" if "clingo" in solver else "dlv"
        text = export_program(program.rules, dialect)
        path = tmp_path / "program.lp"
        path.write_text(text, encoding="utf-8")
        cmd = [solver, "--models=0", path] if dialect == "clingo" else [solver, path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        models = parse_answer_sets(proc.stdout)
        assert len(models) == 3
        projections = {
            frozenset((p, args) for p, args in m if p.endswith("_s"))
            for m in models}
        expected = set()
        for solution in enumerate_secrecy_instances(two.instance, two.views):
            atoms = set()
            for name in solution.instance.schema.names():
                for r in solution.instance.rows(name):
                    atoms.add((name.lower() + "_s",
                               r.values + (Value.of_int(r.tid),)))
            expected.add(frozenset(atoms))
        assert projections == expected
