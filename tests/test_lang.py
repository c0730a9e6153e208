import random

import pytest

from nullveil import (ParseError, QueryClass, SemanticError, classify_query,
                      parse_facts, parse_query, parse_schema, parse_view,
                      parse_views, print_facts, print_schema, rewrite_query)

from corpus import row
from randgen import rand_instance, rand_query, rand_schema, rand_view


def test_parse_schema_basic():
    schema = parse_schema("relation P(A:int, B:int).")
    assert schema.relation("P").arity == 2
    assert schema.relation("P").sort_at(1) == "int"


def test_parse_schema_marks():
    schema = parse_schema(
        "relation Marks(studentID:sym, courseID:sym, mark:int).")
    assert schema.relation("Marks").arity == 3
    assert [s for _, s in schema.relation("Marks").columns] == ["sym", "sym", "int"]


def test_parse_schema_duplicate():
    with pytest.raises(ParseError):
        parse_schema("relation P(A:int). relation P(B:int).")


def test_parse_facts_auto_and_explicit_ids():
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    d = parse_facts("P(1,2). R(2,1).", schema)
    assert d.row("P", 1).values == row("1 2")
    assert d.row("R", 1).values == row("2 1")
    d2 = parse_facts("@5 P(1,2). P(3,4).", schema)
    assert d2.row("P", 5).values == row("1 2")
    assert d2.row("P", 1).values == row("3 4")


def test_parse_facts_null_and_errors():
    schema = parse_schema("relation R(A:sym, B:sym).")
    d = parse_facts("R(e, null).", schema)
    assert d.row("R", 1).values == row("e null")
    with pytest.raises(ParseError):
        parse_facts("R(1, 2, 3).", schema)
    with pytest.raises(ParseError):
        parse_facts("@1 R(a,b). @1 R(c,d).", schema)
    with pytest.raises(ParseError, match="duplicate tuple id R#1"):
        parse_facts("R(a,b). @1 R(c,d).", schema)  # explicit id repeats an assigned one
    with pytest.raises(ParseError):
        parse_facts("R(a, 1).", schema)  # int in a sym column


def test_positions_after_a_multi_line_string():
    schema = parse_schema("relation P(A:str).")
    with pytest.raises(ParseError, match="^3:1: unknown relation Q"):
        parse_facts('P("a\nb").\nQ(1).', schema)
    with pytest.raises(ParseError, match="^2:7: unknown relation Q"):
        parse_facts('P("a\nbc"). Q(1).', schema)


def test_digits_int_cannot_read_are_parse_errors():
    schema = parse_schema("relation P(A:int).")
    with pytest.raises(ParseError, match="unexpected character '²'"):
        parse_facts("P(²).", schema)
    with pytest.raises(ParseError, match="unexpected character '²'"):
        parse_query("?(X) :- P(X), X < ²3.", schema)
    assert parse_facts("P(٣).", schema).row("P", 1).values == row("3")


def test_parse_view_golden():
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    view = parse_view("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.", schema)
    assert [v.name for v in view.head] == ["X", "Z"]
    assert [a.pred for a in view.body] == ["P", "R"]
    assert view.phi[0].op == "<"


def test_parse_view_intro_marks():
    schema = parse_schema(
        "relation Marks(studentID:sym, courseID:sym, mark:int).")
    view = parse_view("Vs(S,C,M) :- Marks(S,C,M), M < 60.", schema)
    assert len(view.head) == 3 and view.phi[0].token() == "M < 60"


def test_parse_view_errors():
    schema = parse_schema("relation P(A:int, B:int).")
    with pytest.raises(SemanticError):
        parse_view("Vs(W) :- P(X,Y).", schema)  # unsafe head variable
    with pytest.raises(SemanticError):
        parse_view("Vs(X) :- Q(X,Y).", schema)  # unknown predicate
    with pytest.raises(SemanticError):
        parse_view("Vs(X) :- P(X,Y), isnull(Y).", schema)  # null check in a view
    with pytest.raises(SemanticError, match="null may not appear in view body atom"):
        parse_view("Vs(X) :- P(X,null).", schema)  # null constant in a view body
    schema_sym = parse_schema("relation P(A:sym, B:sym).")
    with pytest.raises(SemanticError):
        parse_view("Vs(X) :- P(X,Y), Y < 3.", schema_sym)  # order on sym column


def test_parse_query_goldens():
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    q = parse_query("?(X,Z) :- P(X,Y), R(Y,Z), Y < 3.", schema)
    assert {v.name for v in q.out} == {"X", "Z"}
    atomic = parse_query("?(X,Y) :- P(X,Y).", schema)
    assert len(atomic.body) == 1 and not atomic.builtins
    with_isnull = parse_query("?(X) :- R(X,Y), isnull(Y).", schema)
    assert with_isnull.builtins[0].op == "isnull"


def test_parse_query_errors():
    schema = parse_schema("relation P(A:int, B:int).")
    with pytest.raises(ParseError):
        parse_query("?(X) :- P(X,Y)", schema)  # missing final period
    with pytest.raises(SemanticError):
        parse_query("?(Z) :- P(X,Y).", schema)
    with pytest.raises(SemanticError):
        parse_query("?(X) :- P(X,Y), Z < 3.", schema)  # unsafe builtin variable


def test_classify_query():
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    general = parse_query("?(X,Y) :- R(X,Y), Y = null.", schema)
    assert classify_query(general) is QueryClass.CONJ_NULL_GENERAL
    sqlish = parse_query("?(X,Y) :- R(X,Y), isnotnull(Y).", schema)
    assert classify_query(sqlish) is QueryClass.CONJ_NULL_SQL
    plain = parse_query("?(X,Z) :- P(X,Y), R(Y,Z).", schema)
    assert classify_query(plain) is QueryClass.CONJ_SIGMA
    atom_null = parse_query("?(X) :- R(X, null).", schema)
    assert classify_query(atom_null) is QueryClass.CONJ_NULL_SQL


def test_classification_stable_under_rewriting_without_relevant_vars():
    schema = parse_schema("relation P(A:int, B:int).")
    q = parse_query("?(X,Y) :- P(X,Y).", schema)
    assert classify_query(q) is QueryClass.CONJ_SIGMA
    assert classify_query(rewrite_query(q)) is QueryClass.CONJ_SIGMA
    joined = parse_query("?(X) :- P(X,Y), P(Y,X).", schema)
    assert classify_query(rewrite_query(joined)) is QueryClass.CONJ_NULL_GENERAL


def test_parse_views_multiple():
    schema = parse_schema("relation P(A:int, B:int).")
    views = parse_views("V1(X) :- P(X,Y). V2(Y) :- P(X,Y).", schema)
    assert [v.name for v in views] == ["V1", "V2"]
    with pytest.raises(SemanticError):
        parse_views("V1(X) :- P(X,Y). V1(Y) :- P(X,Y).", schema)


def test_comments_and_whitespace():
    schema = parse_schema("% the schema\nrelation P(A:int, B:int). % trailing\n")
    d = parse_facts("% facts\nP(1,2).\n% done", schema)
    assert d.total_rows() == 1


def test_round_trip_fixed_texts():
    schema = parse_schema("relation P(A:int, B:str). relation R(B:sym, C:any).")
    assert parse_schema(print_schema(schema)) == schema
    d = parse_facts('P(1,"a b"). R(sym,null). @7 R(x, 3).', schema)
    assert parse_facts(print_facts(d), schema) == d
    view = parse_view("Vs(X) :- P(X,Y), R(Z,Y), X > 0.", schema)
    assert parse_view(view.token(), schema) == view
    q = parse_query('?(X,X) :- P(X,Y), isnotnull(Y), Y != "q".', schema)
    assert parse_query(q.token(), schema) == q


def test_round_trip_randomized():
    rng = random.Random(11)
    for _ in range(150):
        schema = rand_schema(rng)
        assert parse_schema(print_schema(schema)) == schema
        instance = rand_instance(rng, schema)
        assert parse_facts(print_facts(instance), schema) == instance
        query = rand_query(rng, schema)
        assert parse_query(query.token(), schema) == query
        view = rand_view(rng, schema)
        if view is not None:
            assert parse_view(view.token(), schema) == view
