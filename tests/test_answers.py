import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from nullveil import (Atom, BoundExceededError, BuiltinAtom, Const, CrossCheckError, Instance,
                      NULL, Query, SemanticError, Var, apply_changes, eval_n, parse_facts,
                      parse_query, parse_schema, parse_view, parse_views)
from nullveil import answers as answers_module
from nullveil import instances as instances_module
from nullveil import model as model_module
from nullveil.asp import cautious_answers
from nullveil.answers import (_Versions, _is_secret, check_no_leakage,
                              secrecy_answer_instance, secret_answers)
from nullveil.instances import (SecrecyInstances, _edges, enumerate_secrecy_instances,
                                is_admissible)
from nullveil.model import sorted_cells
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
    """Random change sets C of non-null cells, admissible or not, in an
    edge or not, taken as the alternatives of one component: the answers
    read off the witnesses of one pass over every row version equal
    `eval_n` over each degraded instance, on self-joins, body constants,
    arity 3 and queries with `isnull` and `isnotnull`, where nulling a
    cell can add an answer, and the secret answers are their
    intersection."""
    rng = random.Random(61)
    outcomes = {True: 0, False: 0}
    gained = 0
    for _ in range(300):
        schema, instance, views = rand_case(rng, max_tuples=3, max_views=3,
                                            max_arity=3, body_const_prob=0.2,
                                            self_joins=True)
        query = rand_query(rng, schema)
        base = eval_n(instance, query)
        cells = sorted_cells(instance.cells())
        if not cells:
            continue
        alternatives = tuple(frozenset(c for c in cells if rng.random() < 0.3)
                             for _ in range(8))
        report = _Versions(SecrecyInstances(instance, (alternatives,))).report(query)
        fulls = []
        for changes, got in report.per_instance:
            degraded = apply_changes(instance, changes)
            fulls.append(eval_n(degraded, query))
            assert got == fulls[-1], (instance, query.token(), sorted_cells(changes))
            outcomes[is_admissible(degraded, views)] += 1
            gained += not fulls[-1] <= base
        assert report.answers == frozenset.intersection(*fulls)
    # 1,553 admissible degradations, 439 not; 38 gain an answer
    assert outcomes[True] >= 1250 and outcomes[False] >= 350 and gained >= 30, \
        (outcomes, gained)


STREAM_SCHEMA = "relation P(A:int, B:int). relation R(B:int, C:int)."


def _stream_case(rng: random.Random):
    """Two or three join pairs over B = 1, 2, 3 under `Y < 3`, so one or
    two violate, each a component of its own, plus up to two random rows,
    with small values and nulls in the A and C columns."""
    schema = parse_schema(STREAM_SCHEMA)

    def value():
        return "null" if rng.random() < 0.2 else str(rng.randint(1, 4))

    facts = [f"P({value()},{b}). R({b},{value()})." for b in (1, 2, 3)[:rng.randint(2, 3)]]
    facts += [f"{rng.choice('PR')}({value()},{value()})." for _ in range(rng.randint(0, 2))]
    return (schema, parse_facts(" ".join(facts), schema),
            parse_views("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.", schema))


def _only_spanning(report) -> bool:
    """Whether some answer holds in some secrecy instance through
    witnesses that all span two components or more."""
    for _, choice in report.instances.choices():
        for conditions in report.witnesses.values():
            held = [c for c in conditions if all(m >> choice[j] & 1 for j, m in c)]
            if held and all(len(c) > 1 for c in held):
                return True
    return False


def test_factored_answers_equal_the_intersection_over_the_product_randomized():
    """On 1,000 `rand_case` cases (self-joins, body constants, arity 3, up
    to three views) and 500 two- or three-pair stream cases, with random
    queries, `isnull` among them: each secrecy instance's answers read
    off the witnesses are `eval_n` over it, in canonical order, and the
    secret answers are their intersection.  The stream
    cases give answers that only witnesses spanning two components carry
    in some secrecy instance, which `rand_case` almost never does."""
    rng = random.Random(83)
    kinds = {"only spanning": 0, "gained": 0, "no violation": 0}
    for number in range(1500):
        if number < 1000:
            schema, instance, views = rand_case(rng, max_tuples=3, max_views=3,
                                                max_arity=3, body_const_prob=0.2,
                                                self_joins=True)
        else:
            schema, instance, views = _stream_case(rng)
        query = rand_query(rng, schema)
        base = eval_n(instance, query)
        instances = enumerate_secrecy_instances(instance, views)
        report = _Versions(instances).report(query)
        expected = tuple((s.changes, eval_n(s.instance, query)) for s in instances)
        assert report.per_instance == expected, (instance, query.token())
        assert report.answers == frozenset.intersection(*(a for _, a in expected))
        assert secret_answers(instance, views, query).answers == report.answers
        kinds["only spanning"] += _only_spanning(report)
        kinds["gained"] += any(not a <= base for _, a in expected)
        kinds["no violation"] += not instances.components
    # 26 with an answer only spanning witnesses carry, 75 that gain an
    # answer and 735 without a violation
    assert kinds["only spanning"] >= 18 and kinds["gained"] >= 55 \
        and kinds["no violation"] >= 550, kinds


def test_the_countermodel_search_agrees_with_the_product_randomized():
    """On random witness conditions over up to four components of one to
    three transversals each, an answer is secret exactly when every
    choice of one transversal per component satisfies some condition;
    in many cases only the conditions that span components decide it."""
    rng = random.Random(89)
    spanning_decides = 0
    for _ in range(3000):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        full = [(1 << n) - 1 for n in sizes]
        conditions = []
        for _ in range(rng.randint(0, 8)):
            touched = sorted(rng.sample(range(len(sizes)), rng.randint(0, len(sizes))))
            condition = tuple((j, rng.randint(1, full[j])) for j in touched)
            if condition or rng.random() < 0.1:
                conditions.append(condition)
        secret = all(any(all(mask >> choice[j] & 1 for j, mask in condition)
                         for condition in conditions)
                     for choice in product(*(range(n) for n in sizes)))
        assert _is_secret(conditions, full) == secret, (sizes, conditions)
        spanning_decides += secret and not _is_secret(
            [c for c in conditions if len(c) < 2], full)
    # 307 secret only through conditions that span components
    assert spanning_decides >= 200, spanning_decides


def test_an_answer_that_only_spanning_witnesses_make_secret():
    """One violating pair per view, each a component over its own two
    relations: the boolean query reads one row of each, and every version
    of each row matches, so each of the nine witnesses spans both
    components, none holds everywhere, and together they cover every
    secrecy instance."""
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int). "
                          "relation S(A:int, B:int). relation T(B:int, C:int).")
    d = parse_facts("P(1,10). R(10,5). S(2,20). T(20,6).", schema)
    views = parse_views("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000. "
                        "Vt(X,Z) :- S(X,Y), T(Y,Z), Y < 1000.", schema)
    query = parse_query("?() :- R(Y, Z), T(U, W).", schema)
    report = secret_answers(d, views, query)
    assert len(report.witnesses[()]) == 9
    assert all(len(condition) == 2 for condition in report.witnesses[()])
    assert report.answers == frozenset({()})
    assert all(got == frozenset({()}) for _, got in report.per_instance)
    # the two components take 10 MMCS nodes, and the countermodel search 3
    assert report.instances.budget.nodes == 13
    with pytest.raises(BoundExceededError, match=(
            r"^countermodel search exceeded its bound of 11 nodes "
            r"\(11 nodes visited, 0 secret answers found so far\)$")):
        secret_answers(d, views, query, max_nodes=11)


def _stream_pairs(*pairs: str):
    schema = parse_schema(STREAM_SCHEMA)
    return (schema, parse_facts(" ".join(pairs), schema),
            parse_views("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema))


def test_an_answer_carried_by_witnesses_that_span_two_components():
    """With two violating pairs, (1, 6) needs P#1's A from one component
    and R#2's C from the other: it holds in the four secrecy instances
    that null neither, through witnesses that each span both."""
    schema, d, views = _stream_pairs("P(1,10). R(10,5).", "P(2,20). R(20,6).")
    query = parse_query("?(X, W) :- P(X, Y), R(Z, W).", schema)
    report = secret_answers(d, views, query)
    assert all(len(c) == 2 for c in report.witnesses[row("1 6")])
    assert sum(row("1 6") in got for _, got in report.per_instance) == 4
    assert report.per_instance == tuple((s.changes, eval_n(s.instance, query))
                                        for s in enumerate_secrecy_instances(d, views))
    assert report.answers == frozenset()


def test_an_answer_that_isnull_gains_is_a_candidate():
    """`isnull(X)` has no match over the base; the one secrecy instance
    nulls P#1's A, so 4 is a secret answer that the base does not give."""
    schema = parse_schema("relation P(A:int, B:int).")
    d = parse_facts("P(1, 4).", schema)
    views = parse_views("V(X) :- P(X, Y).", schema)
    query = parse_query("?(Y) :- P(X, Y), isnull(X).", schema)
    assert eval_n(d, query) == frozenset()
    assert secret_answers(d, views, query).answers == answers("4")


def test_without_a_violation_the_secret_answers_are_the_base_answers():
    schema, d, views = _stream_pairs("P(1,1500). R(1600,5).")
    query = parse_query("?(X, Z) :- P(X, Y), R(B, Z).", schema)
    report = secret_answers(d, views, query)
    assert report.instances.components == ()
    assert report.answers == eval_n(d, query) == answers("1 5")
    assert report.per_instance == ((frozenset(), answers("1 5")),)


GROWTH_SCRIPT = """
import json, sys
import nullveil.answers as answers
import nullveil.instances as instances
from nullveil import parse_facts, parse_query, parse_schema, parse_views

counts = {}
search, sort = instances._minimal_transversals, instances.sorted_cells
matches, countermodel = answers.iter_matches, answers._countermodel
inside = []

def counted_search(edges, budget):
    inside.append(edges)
    found = search(edges, budget)
    inside.pop()
    counts["mmcs nodes"] += len(found)
    return found

def counted_sort(cells):
    counts["mmcs nodes"] += bool(inside)
    return sort(cells)

def counted_matches(*args):
    for match in matches(*args):
        counts["witness matches"] += 1
        yield match

def counted_countermodel(*args):
    counts["search nodes"] += 1
    return countermodel(*args)

def no_product(self):
    raise AssertionError("the product was built")

instances._minimal_transversals, instances.sorted_cells = counted_search, counted_sort
answers.iter_matches, answers._countermodel = counted_matches, counted_countermodel
instances.SecrecyInstances.choices = no_product
schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
views = parse_views("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema)
out = {}
for k in map(int, sys.argv[1:]):
    d = parse_facts(" ".join(f"P({i}, {100 + i}). R({100 + i}, {200 + i})."
                             for i in range(1, k + 1)), schema)
    counts = dict.fromkeys(("mmcs nodes", "witness matches", "search nodes"), 0)
    for text in ("?(X) :- P(X, Y).", "?(Y) :- R(Y, Z)."):
        report = answers.secret_answers(d, views, parse_query(text, schema))
        counts[text] = sorted([v.token() for v in a] for a in report.answers)
    counts["components"] = [[sorted(c.token() for c in changes) for changes in alternatives]
                            for alternatives in report.instances.components]
    out[k] = counts
print(json.dumps(out))
"""


def _growth_counts(seed: str, *ks: int) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", GROWTH_SCRIPT, *map(str, ks)], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}).stdout
    return json.loads(out)


def test_secret_answers_grow_with_the_components_not_the_product():
    """k independent violating pairs: from k=4 to k=8 the product grows
    81x, while the MMCS nodes summed over the components, the matches of
    the witness pass and the countermodel search nodes, for two queries,
    grow at most 2.5x; the product is never built."""
    counts = _growth_counts("0", 4, 8)
    for name in ("mmcs nodes", "witness matches", "search nodes"):
        # 40 MMCS nodes, 24 matches and 10 search nodes at k=4, 80, 48 and 18 at k=8
        assert 0 < counts["8"][name] <= 2.5 * counts["4"][name], (name, counts)


def test_the_factored_route_does_not_depend_on_the_hash_seed():
    """At k=6 the component order, the MMCS nodes, the witness matches and
    the countermodel search are the same under two hash seeds."""
    assert _growth_counts("0", 6) == _growth_counts("3", 6)


def _k_pairs(k: int):
    return _stream_pairs(*(f"P({i}, {100 + i}). R({100 + i}, {200 + i})."
                           for i in range(1, k + 1)))


@pytest.mark.parametrize("k", [7, 10, 12, 20])
def test_secret_answers_at_the_default_bound_past_twenty_four_cells(k):
    """k violating pairs hold 4k candidate cells, past the 24 that a
    bound on cells allowed, and need 5k MMCS nodes: the secret answers
    need no bound raised."""
    schema, d, views = _k_pairs(k)
    report = secret_answers(d, views, parse_query("?(Y) :- R(Y, Z).", schema))
    assert len(frozenset().union(*_edges(d, views))) == 4 * k
    assert report.answers == frozenset()
    assert report.instances.budget.nodes == 5 * k


def test_leakage_check_and_answer_instance_at_the_default_bound():
    """At k=8 (32 candidate cells) both answer without a bound raised."""
    _, d, views = _k_pairs(8)
    assert check_no_leakage(d, views).ok
    assert secrecy_answer_instance(d, views).total_rows() == 0


def test_leakage_check_and_answer_instance_do_not_build_the_product(monkeypatch):
    """At k=6 (729 secrecy instances) neither the no-leakage check nor the
    secrecy answer instance reads a secrecy instance one by one."""
    _, d, views = _k_pairs(6)

    def no_product(self):
        raise AssertionError("the product was built")

    monkeypatch.setattr(SecrecyInstances, "choices", no_product)
    assert check_no_leakage(d, views).ok
    assert secrecy_answer_instance(d, views).total_rows() == 0


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
