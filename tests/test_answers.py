import random

import pytest

from nullveil import (Atom, BuiltinAtom, Const, CrossCheckError, Instance, NULL, Query,
                      SemanticError, Var, apply_changes, eval_n, parse_facts, parse_query,
                      parse_schema, parse_view, parse_views)
from nullveil import answers as answers_module
from nullveil import instances as instances_module
from nullveil import model as model_module
from nullveil.asp import cautious_answers
from nullveil.answers import (_delta_answers, check_no_leakage, secrecy_answer_instance,
                              secret_answers)
from nullveil.instances import EnumerationMode, candidate_cells, enumerate_secrecy_instances
from nullveil.model import sorted_cells
from nullveil.views import is_admissible
from corpus import answers, four_tuple_example, nonmono_example, row, two_tuple_example
from randgen import rand_case, rand_query


def test_secret_answers_four_tuple_example():
    case = four_tuple_example()
    assert secret_answers(case.instance, case.views, case.queries["p"]).answers \
        == answers("3 4")
    assert secret_answers(case.instance, case.views, case.queries["r"]).answers \
        == answers("3 3")


def test_secret_answers_view_query_is_empty():
    case = two_tuple_example()
    report = secret_answers(case.instance, case.views, case.queries["view_query"])
    assert report.answers == frozenset()
    per = {frozenset(c.token() for c in cs): ans for cs, ans in report.per_instance}
    assert per[frozenset({"P#1[1]", "R#1[2]"})] == answers("null null")
    assert per[frozenset({"P#1[2]"})] == frozenset()
    assert per[frozenset({"R#1[1]"})] == frozenset()


def test_secret_answers_intersects_per_instance_sets():
    case = four_tuple_example()
    report = secret_answers(case.instance, case.views, case.queries["p"])
    for _, per in report.per_instance:
        assert report.answers <= per


def test_secret_answers_without_secrecy_instances_is_a_cross_check_failure(monkeypatch):
    case = four_tuple_example()
    monkeypatch.setattr(answers_module, "enumerate_secrecy_instances",
                        lambda *args, **kwargs: [])
    with pytest.raises(CrossCheckError):
        secret_answers(case.instance, case.views, case.queries["p"])


def test_secrecy_answer_instance_four_tuple_example():
    case = four_tuple_example()
    result = secrecy_answer_instance(case.instance, case.views)
    expected = Instance.from_values(case.schema, {"P": [row("3 4")],
                                                  "R": [row("3 3")]})
    assert result == expected


def test_secrecy_answer_instance_trivial_cases():
    admissible = nonmono_example(with_r=False)
    result = secrecy_answer_instance(admissible.instance, admissible.views)
    assert result == admissible.instance

    schema = parse_schema("relation P(A:int).")
    empty = parse_facts("", schema)
    from nullveil import parse_view
    view = parse_view("V(X) :- P(X).", schema)
    assert secrecy_answer_instance(empty, [view]).total_rows() == 0


def test_no_leakage_goldens():
    case = four_tuple_example()
    report = check_no_leakage(case.instance, case.views)
    assert report.ok and not report.failures

    admissible = nonmono_example(with_r=False)
    assert check_no_leakage(admissible.instance, admissible.views).ok


def test_non_monotonicity_regression():
    before = nonmono_example(with_r=False)
    assert secret_answers(before.instance, before.views, before.queries["p"]).answers \
        == answers("a")
    after = nonmono_example(with_r=True)
    assert secret_answers(after.instance, after.views, after.queries["p"]).answers \
        == frozenset()


def test_view_query_secret_answers_are_null_or_empty_randomized():
    rng = random.Random(47)
    for _ in range(80):
        schema, instance, views = rand_case(rng, max_tuples=3)
        for view in views:
            report = secret_answers(instance, views, view)
            from nullveil import NULL
            all_null = (NULL,) * len(view.out)
            assert report.answers <= {all_null}, view.token()


def test_no_leakage_randomized():
    rng = random.Random(53)
    for _ in range(80):
        schema, instance, views = rand_case(rng, max_tuples=3)
        report = check_no_leakage(instance, views)
        assert report.ok, report.failures


def test_no_leakage_enumerates_secrecy_instances_once(monkeypatch):
    calls = []
    enumerate_instances = answers_module.enumerate_secrecy_instances

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_instances(*args, **kwargs)

    monkeypatch.setattr(answers_module, "enumerate_secrecy_instances", counting)
    case = four_tuple_example()
    assert check_no_leakage(case.instance, case.views).ok
    assert len(calls) == 1


def test_delta_answers_equal_a_full_evaluation_randomized():
    """For random change sets C inside either pool, admissible or not,
    the answers from one evaluation over the base plus a join seeded with
    C's changed rows equal `eval_n` over the degraded instance, on
    self-joins, body constants, arity 3 and queries with `isnull` and
    `isnotnull`, where nulling a cell can add an answer.  The secret
    answers equal the plain intersection over the secrecy instances."""
    rng = random.Random(61)
    outcomes = {True: 0, False: 0}
    gained = 0
    for _ in range(300):
        schema, instance, views = rand_case(rng, max_tuples=3, max_views=3,
                                            max_arity=3, body_const_prob=0.2,
                                            self_joins=True)
        query = rand_query(rng, schema)
        answers_on = _delta_answers(instance, query)
        base = eval_n(instance, query)
        for mode in EnumerationMode:
            pool = sorted_cells(candidate_cells(instance, views, mode))
            for _ in range(4 if pool else 0):
                changes = frozenset(c for c in pool if rng.random() < 0.3)
                degraded = apply_changes(instance, changes)
                full = eval_n(degraded, query)
                assert answers_on(changes) == full, \
                    (instance, query.token(), sorted_cells(changes))
                outcomes[is_admissible(degraded, views)] += 1
                gained += not full <= base
        solutions = enumerate_secrecy_instances(instance, views)
        report = secret_answers(instance, views, query)
        assert report.per_instance == tuple((s.changes, eval_n(s.instance, query))
                                            for s in solutions)
        assert report.answers == frozenset.intersection(
            *(eval_n(s.instance, query) for s in solutions))
    # 873 admissible degradations, 479 not; 41 gain an answer
    assert outcomes[True] >= 650 and outcomes[False] >= 350 and gained >= 30, \
        (outcomes, gained)


def test_secret_answers_evaluate_the_query_in_full_on_no_secrecy_instance(monkeypatch):
    """Two independent violating joins give 9 secrecy instances; their
    answers come from one evaluation over the base and seeded joins, not
    from 9 calls of `eval_n`."""
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    d = parse_facts("P(1,10). P(2,20). P(3,1500). R(10,5). R(20,6). R(1600,7).",
                    schema)
    view = parse_view("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema)
    calls = []
    monkeypatch.setattr(answers_module, "eval_n",
                        lambda *args: calls.append(args) or eval_n(*args))
    report = secret_answers(d, [view], parse_query("?(X) :- P(X, Y).", schema))
    assert len(report.per_instance) == 9 and report.answers == answers("3")
    assert calls == []


def test_answer_path_builds_no_instance_per_secrecy_instance(monkeypatch):
    """The 9 secrecy instances of two independent violating joins are
    answered from their change sets: no `apply_changes` call and no
    `Instance` built, apart from the one secrecy answer instance."""
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    d = parse_facts("P(1,10). P(2,20). P(3,1500). R(10,5). R(20,6). R(1600,7).",
                    schema)
    views = parse_views("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema)
    builds, instances = [], []
    for module in (model_module, instances_module):
        monkeypatch.setattr(module, "apply_changes",
                            lambda *args: builds.append(args) or apply_changes(*args))
    init = Instance.__init__
    monkeypatch.setattr(Instance, "__init__",
                        lambda self, *args: instances.append(args) or init(self, *args))
    report = secret_answers(d, views, parse_query("?(X) :- P(X, Y).", schema))
    assert len(report.per_instance) == 9 and report.answers == answers("3")
    assert instances == []
    assert [r.values for r in secrecy_answer_instance(d, views).rows("P")] == [row("3 1500")]
    assert len(instances) == 1
    assert check_no_leakage(d, views).ok
    assert builds == [] and len(instances) == 2


def test_a_query_outside_its_preconditions_is_rejected_on_both_routes():
    """A query built in code skips the parser's checks; an order
    comparison of a variable that occurs only at an `any` column is a
    semantic error on the direct route as on the program route, not an
    empty answer on one and a grounding failure on the other."""
    schema = parse_schema("relation p(c1:any).")
    d = parse_facts("@1 p(s1). @2 p(4).", schema)
    views = parse_views("v0(V1) :- p(V1).", schema)
    v1 = Var("V1")
    query = Query((v1,), (Atom("p", (v1,)), Atom("p", (Const(NULL),))),
                  (BuiltinAtom("<", (v1, v1)), BuiltinAtom("isnull", (v1,))))
    for route in (secret_answers, cautious_answers):
        with pytest.raises(SemanticError, match="occurs at no int column"):
            route(d, views, query)
