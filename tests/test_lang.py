import random
import sys

import pytest

from nullveil import (NULL, Instance, ParseError, Query, QueryClass, Relation, Row, Schema,
                      SemanticError, ViewDef, classify_query, eval_n, parse_facts,
                      parse_query, parse_schema, parse_view, parse_views, print_facts,
                      print_schema, rewrite_query)
from nullveil.asp import parse_answer_sets, parse_program_text

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


def test_auto_ids_skip_the_explicit_ones():
    schema = parse_schema("relation P(A:int, B:int).")
    d = parse_facts("@2 P(1,1). P(2,2). P(3,3).", schema)
    assert [(r.tid, r.values) for r in d.rows("P")] == [(2, row("1 1")), (1, row("2 2")),
                                                       (3, row("3 3"))]


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


INPUT_SCHEMA = parse_schema("relation P(A:int, B:int). relation T(S:str).")


@pytest.mark.parametrize("make, error, position, message", [
    (lambda s: parse_facts('T("abc', s), ParseError, "1:3", "unterminated string"),
    (lambda s: parse_schema("relation (A:int)."), ParseError, "1:10",
     "expected relation name, found '('"),
    (lambda s: parse_schema("table P(A:int)."), ParseError, "1:1",
     "expected 'relation', found 'table'"),
    (lambda s: parse_schema("relation P(A:float)."), ParseError, "1:14",
     "unknown sort 'float'"),
    (lambda s: parse_facts("@0 P(1, 2).", s), ParseError, "1:1",
     "expected positive tuple id after '@'"),
    (lambda s: parse_facts("P(X, 2).", s), ParseError, "1:1",
     "facts must be ground, found variable X"),
    (lambda s: parse_query("?(X) :- P(X, ).", s), ParseError, "1:14",
     "expected a term, found ')'"),
    (lambda s: parse_query("?(1) :- P(X, Y).", s), ParseError, "1:3",
     "head terms must be variables, found '1'"),
    (lambda s: parse_views("V(X, 2) :- P(X, Y).", s), ParseError, "1:6",
     "head terms must be variables, found '2'"),
    (lambda s: parse_query("?(X) :- P(X, Y), isnull(X, Y).", s), ParseError, "1:18",
     "isnull takes one argument"),
    (lambda s: parse_query("?(X) :- P(X, Y). extra", s), ParseError, "1:18",
     "unexpected input after query: 'extra'"),
    (lambda s: parse_query("?(X) :- X = 1.", s), SemanticError, None,
     "rule body must contain at least one database atom"),
    (lambda s: parse_query("?(X) :- P(X).", s), SemanticError, None,
     "P expects 2 arguments, got 1"),
    (lambda s: parse_query("?(X) :- P(X, a).", s), SemanticError, None,
     "constant a does not fit P[2]:int"),
    (lambda s: parse_query("?(X) :- P(X, Y), Z < 1.", s), SemanticError, None,
     "variable Z of built-in 'Z < 1' does not occur in any body atom"),
    (lambda s: parse_query("?(X) :- P(X, Y), Y < a.", s), SemanticError, None,
     "order comparison on non-int constant a"),
    (lambda s: parse_view("", s), SemanticError, None,
     "expected exactly one view rule, found 0"),
    (lambda s: parse_views("P(X) :- P(X, Y).", s), SemanticError, None,
     "view name P clashes with a relation"),
    (lambda s: Schema([Relation("P", (("A", "float"),))]), SemanticError, None,
     "unknown column sort 'float' in P"),
    (lambda s: Instance(s, {"P": [Row(1, (NULL,))]}), SemanticError, None,
     "P expects 2 values, got 1"),
    (lambda s: Instance(s, {"P": [Row(0, (NULL, NULL))]}), SemanticError, None,
     "tuple id must be positive, got 0"),
    (lambda s: Instance(s, {"Q": []}), SemanticError, None, "unknown relation Q"),
    (lambda s: Instance(s, {}).rows("Q"), SemanticError, None, "unknown relation Q"),
])
def test_input_errors(make, error, position, message):
    """Each input error is raised with its class, its message and, for a
    parse error, the line and column of the offending token."""
    with pytest.raises(error) as exc:
        make(INPUT_SCHEMA)
    assert type(exc.value) is error
    assert str(exc.value) == (f"{position}: {message}" if position else message)


def test_digits_int_cannot_read_are_parse_errors():
    schema = parse_schema("relation P(A:int).")
    with pytest.raises(ParseError, match="unexpected character '²'"):
        parse_facts("P(²).", schema)
    with pytest.raises(ParseError, match="unexpected character '²'"):
        parse_query("?(X) :- P(X), X < ²3.", schema)
    assert parse_facts("P(٣).", schema).row("P", 1).values == row("3")


# the interpreter's int-string limit; 0 where int() reads any length
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="int() has no digit limit here")
def test_integer_literals_past_the_int_string_limit_are_parse_errors():
    schema = parse_schema("relation P(A:int, B:int).")
    too_long = "9" * (INT_DIGITS + 1)
    message = rf"integer literal too long \({INT_DIGITS + 1} digits\)"
    with pytest.raises(ParseError, match=rf"^1:3: {message}"):
        parse_facts(f"P({too_long}, 1).", schema)
    with pytest.raises(ParseError, match=rf"^1:2: {message}"):
        parse_facts(f"@{too_long} P(1, 1).", schema)
    with pytest.raises(ParseError, match=rf"^1:22: {message}"):
        parse_query(f"?(X) :- P(X, Y), Y < -{too_long}.", schema)
    with pytest.raises(ParseError, match=message):
        parse_view(f"V(X) :- P(X, {too_long}).", schema)
    with pytest.raises(ParseError, match=message):
        parse_program_text(f"p({too_long}).")
    with pytest.raises(ParseError, match=message):
        parse_answer_sets(f"{{p(1), p({too_long})}}")
    longest = parse_facts(f"@{'0' * (INT_DIGITS - 1)}7 P({'9' * INT_DIGITS}, 1).", schema)
    assert longest.row("P", 7).values[0].payload == 10 ** INT_DIGITS - 1


def test_parse_view_golden():
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    view = parse_view("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 3.", schema)
    assert [v.name for v in view.out] == ["X", "Z"]
    assert [a.pred for a in view.body] == ["P", "R"]
    assert view.builtins[0].op == "<"


def test_a_view_is_a_named_query():
    """A view evaluates as the query it extends, but never equals it."""
    schema = parse_schema("relation P(A:int, B:int).")
    view = parse_view("Vs(X) :- P(X,Y), Y < 3.", schema)
    query = parse_query("?(X) :- P(X,Y), Y < 3.", schema)
    assert isinstance(view, Query) and view.name == "Vs"
    assert (view.out, view.body, view.builtins) == (query.out, query.body, query.builtins)
    assert view != query and query != view and len({view, query}) == 2
    assert view == ViewDef(query.out, query.body, query.builtins, "Vs")
    d = parse_facts("P(1,2). P(3,4).", schema)
    assert eval_n(d, view) == eval_n(d, query) == {row("1")}
    assert view.token() == "Vs(X) :- P(X, Y), Y < 3."
    assert query.token() == "?(X) :- P(X, Y), Y < 3."
    with pytest.raises(SemanticError, match="head variable W"):
        parse_view("Vs(W) :- P(X,Y).", schema)
    with pytest.raises(SemanticError, match="head variable W"):
        parse_query("?(W) :- P(X,Y).", schema)


def test_parse_view_intro_marks():
    schema = parse_schema(
        "relation Marks(studentID:sym, courseID:sym, mark:int).")
    view = parse_view("Vs(S,C,M) :- Marks(S,C,M), M < 60.", schema)
    assert len(view.out) == 3 and view.builtins[0].token() == "M < 60"


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
