import random

import pytest

from nullveil import (AddressError, Cell, CorrelationError, Instance,
                      InvalidChangeError, NULL, Relation, Row, Schema,
                      SemanticError, Value, apply_changes, diff_changes,
                      parse_facts, parse_schema)
from nullveil.model import nulled_rows, sorted_cells

from corpus import row
from randgen import rand_case


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


@pytest.mark.parametrize("bad, error", [
    (Cell("Q", 1, 1), AddressError),         # unknown relation
    (Cell("P", 9, 1), AddressError),         # missing tuple
    (Cell("P", 2, 3), AddressError),         # position out of range
    (Cell("P", 2, 0), AddressError),         # position out of range
    (Cell("P", 2, 2), InvalidChangeError),   # already null
])
def test_apply_changes_rejects_one_bad_cell_among_valid_ones(bad, error):
    d = inst(schema_pr(), P=["1 2", "3 null", "5 6"], R=["2 1", "7 8"])
    valid = {Cell("P", 1, 1), Cell("P", 2, 1), Cell("P", 3, 2), Cell("R", 2, 1)}
    assert apply_changes(d, valid) == \
        inst(schema_pr(), P=["null 2", "null null", "5 null"], R=["2 1", "null 8"])
    with pytest.raises(error, match=bad.relation):
        apply_changes(d, valid | {bad})


def test_row_addresses_one_tuple():
    d = inst(schema_pr(), P=["1 2", "3 4"])
    assert d.row("P", 2).values == row("3 4")
    with pytest.raises(AddressError, match="unknown relation Q"):
        d.row("Q", 1)
    with pytest.raises(AddressError, match="no tuple P#3"):
        d.row("P", 3)


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


def test_diff_changes_rejects_instances_over_other_schemas():
    """Relation names alone do not make two instances comparable: the
    arity or a column sort may differ."""
    two = parse_facts("P(1, 2).", parse_schema("relation P(A:int, B:int)."))
    three = parse_facts("P(1, null, 5).",
                        parse_schema("relation P(A:int, B:int, C:int)."))
    with pytest.raises(CorrelationError):
        diff_changes(two, three)
    untyped = parse_facts("P(1, null).", parse_schema("relation P(A:int, B:any)."))
    with pytest.raises(CorrelationError):
        diff_changes(two, untyped)
    same = parse_facts("P(1, null).", parse_schema("relation P(A:int, B:int)."))
    assert diff_changes(two, same) == {Cell("P", 1, 2)}


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


def test_nulled_rows_are_the_rows_apply_changes_changes_randomized():
    """`nulled_rows(D, C)` holds exactly the rows of `apply_changes(D, C)`
    that differ from D's, per relation and tuple id, on instances whose
    tuple ids are scattered and out of order."""
    rng = random.Random(67)
    touched = 0
    for _ in range(300):
        schema, instance, _ = rand_case(rng, max_tuples=4, max_arity=3)
        instance = Instance(schema, {
            name: [Row(tid, r.values) for tid, r in
                   zip(rng.sample(range(1, 20), len(instance.rows(name))), instance.rows(name))]
            for name in schema.names()})
        changes = frozenset(c for c in sorted_cells(instance.cells()) if rng.random() < 0.3)
        degraded = apply_changes(instance, changes)
        expected = {}
        for name in schema.names():
            for old, new in zip(instance.rows(name), degraded.rows(name)):
                if new != old:
                    expected.setdefault(name, {})[new.tid] = new
        assert nulled_rows(instance, changes) == expected, (instance, sorted_cells(changes))
        touched += sum(map(len, expected.values()))
    # 344 nulled rows
    assert touched >= 250, touched
