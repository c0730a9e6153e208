import random

import pytest

from nullveil import CrossCheckError, Instance, parse_facts, parse_schema
from nullveil import answers as answers_module
from nullveil.answers import (check_no_leakage, secrecy_answer_instance,
                              secret_answers)
from corpus import answers, four_tuple_example, nonmono_example, row, two_tuple_example
from randgen import rand_case


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
