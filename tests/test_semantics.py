import random
from collections import Counter

import pytest

from nullveil import (Atom, BuiltinAtom, Const, Query, SemanticError, Value, Var,
                      eval_classical, eval_n,
                      parse_query, parse_schema, parse_facts, relevant_vars,
                      rewrite_query)

from corpus import (answers, join_example, sql_null_example, threshold_example,
                    two_tuple_example)
from nullveil.semantics import iter_matches, iter_matches_through, scan
from randgen import rand_case, rand_instance, rand_query, rand_schema


def test_relevant_vars_join_and_comparison():
    case = threshold_example()
    assert relevant_vars(case.queries["q2"]) == {"Y"}
    assert relevant_vars(case.views[0]) == {"Y"}


def test_relevant_vars_ignores_null_checks():
    schema = parse_schema("relation P(A:int, B:int, C:int). relation Q(B:int).")
    q = parse_query("?(X) :- P(X,Y,Z), Q(Y), isnull(Y).", schema)
    assert relevant_vars(q) == {"Y"}
    only_check = parse_query("?(X) :- P(X,Y,Z), isnull(Y).", schema)
    assert relevant_vars(only_check) == frozenset()
    null_cmp = parse_query("?(X) :- P(X,Y,Z), Y != null.", schema)
    assert relevant_vars(null_cmp) == frozenset()


def test_relevant_vars_single_occurrences():
    schema = parse_schema("relation P(A:int, B:int).")
    q = parse_query("?(X,Y) :- P(X,Y).", schema)
    assert relevant_vars(q) == frozenset()
    twice = parse_query("?(X) :- P(X,X).", schema)
    assert relevant_vars(twice) == {"X"}


def test_eval_join_example_classical_vs_n():
    case = join_example()
    q1 = case.queries["q1"]
    assert eval_classical(case.instance, q1) == answers("a f", "c g", "e j")
    assert eval_n(case.instance, q1) == answers("a f", "c g")


def test_eval_threshold_example():
    case = threshold_example()
    q2 = case.queries["q2"]
    assert eval_n(case.instance, q2) == answers("null")
    assert eval_classical(case.instance, rewrite_query(q2)) == answers("null")


def test_eval_empty_instance():
    schema = parse_schema("relation P(A:int, B:int).")
    empty = parse_facts("", schema)
    q = parse_query("?(X,Y) :- P(X,Y).", schema)
    assert eval_n(empty, q) == frozenset()
    assert eval_classical(empty, q) == frozenset()


def test_sql_null_behaviour_table():
    case = sql_null_example()
    expected = {
        "eq_null": answers(),
        "is_null": answers("d null", "v null", "null null"),
        "neq_null": answers(),
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
        assert eval_n(case.instance, case.queries[name]) == want, name


def test_rewriting_is_exact_on_the_null_table():
    """Also on `Y = null` and `Y != null`, which never hold under the
    SQL-like semantics but would classically."""
    case = sql_null_example()
    for name, query in case.queries.items():
        assert eval_classical(case.instance, rewrite_query(query)) == \
            eval_n(case.instance, query), name


def test_isnull_on_view_query_form():
    schema = parse_schema("relation R(A:sym, B:sym).")
    d = parse_facts("R(d, null).", schema)
    q = parse_query("?(X,Y) :- R(X,Y), isnull(Y).", schema)
    assert eval_n(d, q) == answers("d null")


def test_rewrite_golden():
    case = two_tuple_example()
    rewritten = rewrite_query(case.queries["view_query"])
    assert rewritten.token() == "?(X, Z) :- P(X, Y), R(Y, Z), Y < 3, Y != null."
    schema = parse_schema("relation P(A:int, B:int).")
    untouched = parse_query("?(X,Y) :- P(X,Y).", schema)
    assert rewrite_query(untouched) == untouched


def test_rewrite_lowers_null_checks():
    schema = parse_schema("relation P(A:int, B:int).")
    q = parse_query("?(X) :- P(X,Y), isnull(Y).", schema)
    rewritten = rewrite_query(q)
    assert rewritten.builtins[0].token() == "Y = null"
    q2 = parse_query("?(X) :- P(X,Y), isnotnull(Y).", schema)
    assert rewrite_query(q2).builtins[0].token() == "Y != null"


def test_null_equals_null_is_false_under_n_only():
    schema = parse_schema("relation P(A:int, B:int).")
    d = parse_facts("P(null, null).", schema)
    q = parse_query("?(X,Y) :- P(X,Y), X = Y.", schema)
    assert eval_n(d, q) == frozenset()
    assert eval_classical(d, q) == answers("null null")


def test_order_comparisons_with_null_are_false_in_both():
    schema = parse_schema("relation P(A:int, B:int).")
    d = parse_facts("P(null, 2).", schema)
    q = parse_query("?(X) :- P(X,Y), X < 3.", schema)
    assert eval_n(d, q) == frozenset()
    assert eval_classical(d, q) == frozenset()


def test_order_comparison_on_symbols_is_rejected():
    """The parser rejects an order comparison whose variable occurs at no
    `int` column; the evaluator still raises on a symbol it is handed."""
    schema = parse_schema("relation P(A:any).")
    d = parse_facts("P(a).", schema)
    with pytest.raises(SemanticError, match="occurs at no int column"):
        parse_query("?(X) :- P(X), X > 1.", schema)
    x = Var("X")
    q = Query((x,), (Atom("P", (x,)),), (BuiltinAtom(">", (x, Const(Value.of_int(1)))),))
    with pytest.raises(SemanticError, match="unordered values"):
        eval_classical(d, q)


def test_boolean_queries():
    schema = parse_schema("relation P(A:int).")
    d = parse_facts("P(1).", schema)
    yes = parse_query("?() :- P(X).", schema)
    assert eval_n(d, yes) == {()}
    no = parse_query("?() :- P(X), X > 5.", schema)
    assert eval_n(d, no) == frozenset()


def test_rewriting_equivalence_randomized():
    rng = random.Random(23)
    for _ in range(300):
        schema = rand_schema(rng)
        instance = rand_instance(rng, schema)
        query = rand_query(rng, schema)
        assert eval_n(instance, query) == \
            eval_classical(instance, rewrite_query(query)), query.token()


def _mentions_null(query) -> bool:
    terms = [t for a in query.body for t in a.args]
    terms += [t for b in query.builtins for t in b.args]
    if any(hasattr(t, "value") and t.value.is_null for t in terms):
        return True
    return any(b.op in ("isnull", "isnotnull") for b in query.builtins)


def test_containment_and_null_free_agreement_randomized():
    rng = random.Random(29)
    for _ in range(200):
        schema = rand_schema(rng)
        instance = rand_instance(rng, schema)
        query = rand_query(rng, schema)
        assert eval_n(instance, query) <= eval_classical(instance, query)
        clean = rand_instance(rng, schema, null_prob=0.0)
        null_free = rand_query(rng, schema)
        if _mentions_null(null_free):
            continue
        assert eval_n(clean, null_free) == eval_classical(clean, null_free)


def test_matches_through_changed_rows_are_each_found_once_randomized():
    """The seeded join yields exactly the matches that use a changed row,
    each once, on self-joins and on a body that repeats the very same
    atom object around another, which over two equal rows can match
    either of them at each occurrence."""
    schema = parse_schema("relation P(A:int, B:int). relation Q(B:int).")
    instance = parse_facts("P(1,2). P(1,2). Q(2).", schema)
    p, q = Atom("P", (Var("X"), Var("Y"))), Atom("Q", (Var("Y"),))
    changed = {"P": instance.rows("P")[1:], "Q": instance.rows("Q")}
    assert len(list(iter_matches_through(scan(instance), (p, q, p), changed))) == 4
    rng = random.Random(67)
    through_two = 0
    for _ in range(300):
        schema, instance, views = rand_case(rng, max_tuples=4, max_views=3, max_arity=3,
                                            body_const_prob=0.2, self_joins=True)
        tids = {rel.name: {row.tid for row in instance.rows(rel.name) if rng.random() < 0.4}
                for rel in schema.relations}
        changed = {name: tuple(row for row in instance.rows(name) if row.tid in wanted)
                   for name, wanted in tids.items()}
        for view in views:
            for body in (view.body, view.body[:1] + view.body + view.body[:1]):
                expected = Counter()
                for env, rows in iter_matches(scan(instance), body):
                    used = sum(row.tid in tids[atom.pred] for atom, row in zip(body, rows))
                    if used:
                        expected[frozenset(env.items())] += 1
                        through_two += used > 1
                got = Counter(frozenset(env.items()) for env, _ in
                              iter_matches_through(scan(instance), body, changed))
                assert got == expected, (instance, [a.token() for a in body], tids)
    # 290 matches run through two changed rows or more
    assert through_two >= 200, through_two


def test_monotone_under_tuple_addition_classical():
    from nullveil import Instance

    rng = random.Random(31)
    for _ in range(100):
        schema = rand_schema(rng)
        small = rand_instance(rng, schema, max_tuples=2, null_prob=0.0)
        query = rand_query(rng, schema)
        bigger_rows = {
            name: [r.values for r in small.rows(name)] for name in schema.names()}
        extra = rand_instance(rng, schema, max_tuples=2, null_prob=0.0)
        for name in schema.names():
            for r in extra.rows(name):
                if r.values not in bigger_rows[name]:
                    bigger_rows[name].append(r.values)
        bigger = Instance.from_values(schema, bigger_rows)
        assert eval_classical(small, query) <= eval_classical(bigger, query)
