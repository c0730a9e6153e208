import random

import pytest

from nullveil import (AddressError, Cell, CorrelationError, Instance,
                      InvalidChangeError, NULL, Relation, Row, Schema,
                      SemanticError, Value, apply_changes, diff_changes)

from corpus import row


def schema_pr() -> Schema:
    return Schema([
        Relation("P", (("A", "int"), ("B", "int"))),
        Relation("R", (("B", "int"), ("C", "int"))),
    ])


def inst(schema, **rows) -> Instance:
    return Instance.from_values(schema, {k: [row(r) for r in v]
                                         for k, v in rows.items()})


def test_null_is_a_singleton_value():
    assert NULL != Value.of_int(0)
    assert NULL != Value.of_sym("null")
    assert NULL.is_null and not Value.of_int(1).is_null


def test_value_tokens_round_trip_kinds():
    assert Value.of_int(-3).token() == "-3"
    assert Value.of_sym("abc").token() == "abc"
    assert Value.of_str('a"b').token() == '"a\\"b"'
    assert NULL.token() == "null"


def test_schema_rejects_duplicates_and_zero_arity():
    with pytest.raises(SemanticError):
        Schema([Relation("P", (("A", "int"),)), Relation("P", (("B", "int"),))])
    with pytest.raises(SemanticError):
        Schema([Relation("P", ())])


def test_instance_checks_sorts_and_tids():
    schema = schema_pr()
    with pytest.raises(SemanticError):
        Instance(schema, {"P": [Row(1, row("a 2"))]})
    with pytest.raises(SemanticError):
        Instance(schema, {"P": [Row(1, row("1 2")), Row(1, row("3 4"))]})
    ok = Instance(schema, {"P": [Row(1, row("1 null"))]})
    assert ok.row("P", 1).values[1].is_null


def test_apply_changes_single_cell():
    d = inst(schema_pr(), P=["1 2"], R=["2 1"])
    out = apply_changes(d, {Cell("P", 1, 2)})
    assert out == inst(schema_pr(), P=["1 null"], R=["2 1"])


def test_apply_changes_identity_and_full_nullification():
    d = inst(schema_pr(), P=["1 2"])
    assert apply_changes(d, frozenset()) == d
    out = apply_changes(d, {Cell("P", 1, 1), Cell("P", 1, 2)})
    assert out == inst(schema_pr(), P=["null null"])


def test_apply_changes_errors():
    d = inst(schema_pr(), P=["1 null"])
    with pytest.raises(AddressError):
        apply_changes(d, {Cell("Q", 1, 1)})
    with pytest.raises(AddressError):
        apply_changes(d, {Cell("P", 9, 1)})
    with pytest.raises(AddressError):
        apply_changes(d, {Cell("P", 1, 3)})
    with pytest.raises(InvalidChangeError):
        apply_changes(d, {Cell("P", 1, 2)})


def test_diff_changes_golden():
    base = inst(schema_pr(), P=["1 2"], R=["2 1"])
    other = inst(schema_pr(), P=["null 2"], R=["2 null"])
    assert diff_changes(base, other) == {Cell("P", 1, 1), Cell("R", 1, 2)}
    assert diff_changes(base, base) == frozenset()
    single = inst(schema_pr(), P=["1 null"], R=["2 1"])
    assert diff_changes(base, single) == {Cell("P", 1, 2)}


def test_diff_changes_rejects_non_degradations():
    base = inst(schema_pr(), P=["1 2"])
    with pytest.raises(CorrelationError):
        diff_changes(base, inst(schema_pr(), P=["1 3"]))
    with pytest.raises(CorrelationError):
        diff_changes(inst(schema_pr(), P=["1 null"]), inst(schema_pr(), P=["1 2"]))
    with pytest.raises(CorrelationError):
        diff_changes(base, inst(schema_pr(), P=["1 2", "3 4"]))


def test_apply_diff_round_trip_randomized():
    rng = random.Random(7)
    schema = schema_pr()
    for _ in range(200):
        rows = {name: [tuple(Value.of_int(rng.randint(1, 5)) for _ in range(2))
                       for _ in range(rng.randint(0, 4))]
                for name in ("P", "R")}
        base = Instance.from_values(schema, rows)
        cells = [c for c in base.cells()]
        chosen = frozenset(rng.sample(cells, rng.randint(0, len(cells))))
        updated = apply_changes(base, chosen)
        assert diff_changes(base, updated) == chosen
        assert apply_changes(base, diff_changes(base, updated)) == updated
        assert updated.total_rows() == base.total_rows()
        assert [r.tid for r in updated.rows("P")] == [r.tid for r in base.rows("P")]


def test_row_order_is_irrelevant_to_equality():
    schema = schema_pr()
    a = Instance(schema, {"P": [Row(1, row("1 2")), Row(2, row("3 4"))]})
    b = Instance(schema, {"P": [Row(2, row("3 4")), Row(1, row("1 2"))]})
    assert a == b and hash(a) == hash(b)


def test_equality_includes_the_schema():
    """Equal content under different schemas is not the same instance:
    a column sort differs, or two empty relations differ in arity."""
    typed = Schema([Relation("P", (("A", "int"),))])
    untyped = Schema([Relation("P", (("A", "any"),))])
    a = inst(typed, P=["1"])
    b = inst(untyped, P=["1"])
    assert a != b and len({a, b}) == 2
    assert a == inst(Schema([Relation("P", (("A", "int"),))]), P=["1"])
    unary = Instance(typed, {})
    binary = Instance(Schema([Relation("P", (("A", "int"), ("B", "int")))]), {})
    assert unary != binary and len({unary, binary}) == 2
