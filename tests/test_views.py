import random

from nullveil import (apply_changes, parse_facts, parse_schema,
                      parse_view, relevant_vars)
from nullveil.views import (attr_sets, is_admissible, is_null_view,
                            null_view_sentence_holds, nulled_atom)

from corpus import threshold_example, two_tuple_example
from randgen import rand_case, rand_schema, rand_view


def test_attr_sets_threshold_view():
    case = threshold_example()
    sets = attr_sets(case.views[0])
    assert sets.combination == {("R", 2), ("S", 1)}
    assert sets.secrecy == {("R", 1)}
    assert sets.combination | sets.secrecy == {("R", 1), ("S", 1), ("R", 2)}


def test_attr_sets_two_tuple_view():
    case = two_tuple_example()
    sets = attr_sets(case.views[0])
    assert sets.combination == {("P", 2), ("R", 1)}
    assert sets.secrecy == {("P", 1), ("R", 2)}


def test_attr_sets_no_relevant_vars():
    schema = parse_schema("relation P(A:int, B:int).")
    view = parse_view("Vs(X) :- P(X,Y).", schema)
    sets = attr_sets(view)
    assert sets.combination == frozenset()
    assert sets.secrecy == {("P", 1)}


def _combination_heads(view) -> list:
    """The compiler's combination-side update heads of a view."""
    relevant = relevant_vars(view)
    return [a.token() for a in (nulled_atom(atom, relevant) for atom in view.body) if a]


def test_nulled_atom_three_head_vars():
    schema = parse_schema(
        "relation P(A:int, B:int). relation Q(B:int, C:int, D:int).")
    view = parse_view("Vs(X,Z,W) :- P(X,Y), Q(Y,Z,W).", schema)
    assert _combination_heads(view) == ["P(X, null)", "Q(null, Z, W)"]


def test_nulled_atom_two_tuple_view():
    case = two_tuple_example()
    assert _combination_heads(case.views[0]) == ["P(X, null)", "R(null, Z)"]


def test_nulled_atom_trivial():
    schema = parse_schema("relation P(A:int, B:int).")
    view = parse_view("Vs(X) :- P(X,Y).", schema)
    assert _combination_heads(view) == []
    assert nulled_atom(view.body[0], {"Z"}) is None


def test_attr_sets_positions_come_from_relevant_vars():
    rng = random.Random(5)
    for _ in range(100):
        schema = rand_schema(rng)
        view = rand_view(rng, schema)
        if view is None:
            continue
        relevant = relevant_vars(view)
        sets = attr_sets(view)
        occupied = {
            (a.pred, pos)
            for a in view.body
            for pos, t in enumerate(a.args, 1)
            if hasattr(t, "name") and t.name in relevant}
        assert sets.combination == occupied


def test_is_null_view_goldens():
    case = threshold_example()
    assert is_null_view(case.instance, case.views[0])

    marks_schema = parse_schema(
        "relation Marks(studentID:sym, courseID:sym, mark:int).")
    marks = parse_facts(
        "Marks(s001, c01, 56). Marks(s001, c02, 90). Marks(s002, c02, 70).",
        marks_schema)
    intro_view = parse_view("Vs(S,C,M) :- Marks(S,C,M), M < 60.", marks_schema)
    assert not is_null_view(marks, intro_view)

    empty = parse_facts("", marks_schema)
    assert is_null_view(empty, intro_view)


def test_admissibility_goldens():
    case = threshold_example()
    assert is_admissible(case.instance, case.views)

    two = two_tuple_example()
    assert not is_admissible(two.instance, two.views)
    from nullveil import Cell
    variants = {
        "d1": {Cell("P", 1, 1), Cell("R", 1, 2)},
        "d2": {Cell("P", 1, 2)},
        "d3": {Cell("R", 1, 1)},
        "d4": {Cell("P", 1, 2), Cell("R", 1, 1)},
    }
    for name, changes in variants.items():
        assert is_admissible(apply_changes(two.instance, changes), two.views), name


def test_sentence_route_agrees_on_randomized_corpus():
    rng = random.Random(13)
    for _ in range(400):
        schema, instance, views = rand_case(rng, max_tuples=4)
        for view in views:
            assert is_null_view(instance, view) == \
                null_view_sentence_holds(instance, view), (instance, view.token())
        # is_admissible raises CrossCheckError on disagreement
        is_admissible(instance, views)


def test_saturation_yields_admissible():
    from nullveil.instances import EnumerationMode, candidate_cells

    rng = random.Random(17)
    for _ in range(150):
        schema, instance, views = rand_case(rng, max_tuples=3)
        cells = candidate_cells(instance, views, EnumerationMode.TARGETED)
        saturated = apply_changes(instance, cells)
        assert is_admissible(saturated, views)
