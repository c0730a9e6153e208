import itertools
import random
from types import SimpleNamespace

import pytest

from nullveil import (Atom, BoundExceededError, BuiltinAtom, Const, CrossCheckError, NULL,
                      UnsupportedRuleError, Value, Var, parse_facts, parse_query, parse_schema,
                      parse_view, asp, solver)
from nullveil.asp import (ANS_PRED, cautious_answers, compile_program, compile_query_program,
                          model_answers)
from nullveil.semantics import builtin_classical
from nullveil.solver import GroundProgram, Rule, fact, ground, stable_models

from randgen import rand_case, rand_query


def gatom(pred, *ints):
    return (pred, tuple(Value.of_int(i) for i in ints))


def sym_atom(pred, *names):
    return (pred, tuple(Value.of_sym(n) for n in names))


def a0(name):
    return Atom(name, ())


def numbered(rules) -> GroundProgram:
    """A hand-written ground program of (head, pos, neg) atom triples,
    its atoms numbered in the order they are first met."""
    ids: dict = {}
    triples = [tuple(tuple(ids.setdefault(a, len(ids) + 1) for a in part) for part in rule)
               for rule in rules]
    return GroundProgram(list(ids), triples)


def decoded(program: GroundProgram) -> list:
    """The program's rules as (head, pos, neg) triples of atoms."""
    return [tuple(tuple(program.atoms[n - 1] for n in part) for part in rule)
            for rule in program.rules]


def test_fact_only_program_has_one_model():
    rules = [fact(Atom("p", (Const(Value.of_int(1)),)))]
    models = stable_models(ground(rules))
    assert models == [frozenset({gatom("p", 1)})]


def test_textbook_disjunction():
    rules = [Rule((a0("a"), a0("b")))]
    models = stable_models(ground(rules))
    assert sorted(models, key=sorted) == [frozenset({("a", ())}),
                                          frozenset({("b", ())})]


def test_default_negation_even_loop():
    rules = [
        Rule((a0("a"),), neg=(a0("b"),)),
        Rule((a0("b"),), neg=(a0("a"),)),
    ]
    models = stable_models(ground(rules))
    assert sorted(models, key=sorted) == [frozenset({("a", ())}),
                                          frozenset({("b", ())})]


def test_odd_loop_has_no_model():
    rules = [Rule((a0("a"),), neg=(a0("a"),))]
    assert stable_models(ground(rules)) == []


def test_constraint_prunes_models():
    rules = [
        Rule((a0("a"), a0("b"))),
        Rule((), (a0("a"),)),
    ]
    models = stable_models(ground(rules))
    assert models == [frozenset({("b", ())})]


def test_unsupported_atoms_never_true():
    # c is underivable; the disjunctive choice must not leak into it
    rules = [
        Rule((a0("a"), a0("b"))),
        Rule((a0("c"),), (a0("d"),)),
    ]
    models = stable_models(ground(rules))
    assert all(("c", ()) not in m and ("d", ()) not in m for m in models)


def test_minimality_rejects_supersets():
    # a v b with an extra rule deriving b from a: {a} violates b <- a,
    # and {a, b} is a non-minimal model, so {b} is the one stable model
    rules = [
        Rule((a0("a"), a0("b"))),
        Rule((a0("b"),), (a0("a"),)),
    ]
    models = stable_models(ground(rules))
    assert models == [frozenset({("b", ())})]


def test_grounding_instantiates_over_possible_atoms():
    x = Var("X")
    rules = [
        fact(Atom("p", (Const(Value.of_int(1)),))),
        fact(Atom("p", (Const(Value.of_int(2)),))),
        Rule((Atom("q", (x,)),), (Atom("p", (x,)),),
             builtins=(BuiltinAtom("<", (x, Const(Value.of_int(2)))),)),
    ]
    heads = {h for head, _, _ in decoded(ground(rules)) for h in head}
    assert gatom("q", 1) in heads
    assert gatom("q", 2) not in heads


def test_grounding_builtins_with_null_fail():
    x = Var("X")
    rules = [
        fact(Atom("p", (Const(NULL),))),
        fact(Atom("p", (Const(Value.of_int(3)),))),
        Rule((Atom("big", (x,)),), (Atom("p", (x,)),),
             builtins=(BuiltinAtom(">", (x, Const(Value.of_int(1)))),)),
        Rule((Atom("nn", (x,)),), (Atom("p", (x,)),),
             builtins=(BuiltinAtom("!=", (x, Const(NULL))),)),
    ]
    heads = {h for head, _, _ in decoded(ground(rules)) for h in head}
    assert ("big", (Value.of_int(3),)) in heads
    assert ("big", (NULL,)) not in heads
    assert ("nn", (Value.of_int(3),)) in heads
    assert ("nn", (NULL,)) not in heads


def test_grounding_rejects_unsafe_rules():
    with pytest.raises(UnsupportedRuleError):
        ground([Rule((Atom("q", (Var("X"),)),))])
    with pytest.raises(UnsupportedRuleError):
        ground([Rule((a0("q"),), neg=(Atom("p", (Var("X"),)),))])


def test_ground_program_with_no_facts_only_keeps_groundable_rules():
    x = Var("X")
    rules = [Rule((Atom("q", (x,)),), (Atom("p", (x,)),))]
    assert ground(rules) == GroundProgram([], [])


def test_grounding_numbers_atoms_in_the_order_it_meets_them():
    """Derived atoms are numbered in derivation order; an atom never
    derived (`e`) is numbered where it is first negated, and one negated
    before it is derived (`c`) keeps that earlier number."""
    a, b, c, d, e = (a0(name) for name in "abcde")
    rules = [Rule((c,), (b,)),
             Rule((b,), (a,), (c,)),
             Rule((d,), (a,), (e,)),
             fact(a)]
    assert ground(rules) == GroundProgram(
        [("a", ()), ("b", ()), ("c", ()), ("d", ()), ("e", ())],
        [((1,), (), ()), ((2,), (1,), (3,)), ((4,), (1,), (5,)), ((3,), (2,), ())])


def test_search_bound_is_enforced():
    rules = [Rule((a0(f"x{i}"), a0(f"y{i}"))) for i in range(12)]
    with pytest.raises(BoundExceededError):
        stable_models(ground(rules), max_nodes=10)


def test_search_depth_is_bounded_by_nodes_not_recursion():
    rules = [Rule((a0(f"x{i}"), a0(f"y{i}"))) for i in range(1100)]
    with pytest.raises(BoundExceededError) as exc:
        stable_models(ground(rules), max_nodes=1200)
    # each `x_i v y_i.` is a component that takes 2 nodes for its 2 models
    assert str(exc.value) == ("stable-model search exceeded its bound of 1200 nodes "
                              "(1200 nodes visited, 1200 component models found so far)")


def test_assembled_models_count_against_the_node_bound():
    """The component searches and the models assembled from them share
    one bound, which is checked before the product is built: 20
    independent disjunctions take 40 search nodes but have 2^20 models."""
    rules = [Rule((a0(f"x{i}"), a0(f"y{i}"))) for i in range(20)]
    with pytest.raises(BoundExceededError) as exc:
        stable_models(ground(rules), max_nodes=1200)
    assert str(exc.value) == ("stable-model search exceeded its bound of 1200 nodes "
                              "(40 nodes visited, 40 component models found, "
                              "1048576 models to assemble)")
    assert len(stable_models(ground(rules[:10]), max_nodes=20 + 2 ** 10)) == 2 ** 10
    with pytest.raises(BoundExceededError):
        stable_models(ground(rules[:10]), max_nodes=20 + 2 ** 10 - 1)


def test_repeated_atoms_in_a_ground_rule_still_propagate():
    """`p(X) v p(Y) :- q(X), q(Y).` over `q(1)` grounds to a rule that
    repeats p(1) and q(1); the search reads it as `p(1) :- q(1).`, which
    propagation decides without branching."""
    x, y = Var("X"), Var("Y")
    rules = [fact(Atom("q", (Const(Value.of_int(1)),))),
             Rule((Atom("p", (x,)), Atom("p", (y,))), (Atom("q", (x,)), Atom("q", (y,))))]
    program = ground(rules)
    assert decoded(program)[1] == ((gatom("p", 1),) * 2, (gatom("q", 1),) * 2, ())
    assert stable_models(program, max_nodes=0) == [frozenset({gatom("p", 1), gatom("q", 1)})]


def test_many_independent_choices_enumerate_fully():
    rules = [Rule((a0(f"x{i}"), a0(f"y{i}"))) for i in range(6)]
    models = stable_models(ground(rules))
    assert len(models) == 64


# --------------------------------------------------------------------------
# brute-force oracle on small ground programs

ATOMS = [(name, ()) for name in "abcde"]


def _satisfies(model: set, rules) -> bool:
    return all(set(head) & model for head, pos, neg in rules
               if set(pos) <= model and not set(neg) & model)


def oracle_stable_models(rules) -> list:
    """M is stable iff M satisfies the program and no proper subset of M
    satisfies the reduct P^M."""
    atoms = sorted({a for head, pos, neg in rules for a in head + pos + neg})
    subsets = [set(c) for k in range(len(atoms) + 1)
               for c in itertools.combinations(atoms, k)]
    models = []
    for m in subsets:
        reduct = [(head, pos, ()) for head, pos, neg in rules if not set(neg) & m]
        if _satisfies(m, rules) and not any(s < m and _satisfies(s, reduct)
                                            for s in subsets):
            models.append(frozenset(m))
    return sorted(models, key=sorted)


def _has_head_cycle(rules) -> bool:
    """Two head atoms of one rule reach each other through positive bodies."""
    usable = [(head, pos) for head, pos, _ in rules if not set(head) & set(pos)]
    reach = {(h, p) for head, pos in usable for h in head for p in pos}
    for _ in ATOMS:
        reach |= {(x, z) for x, y in reach for y2, z in reach if y == y2}
    return any((h, g) in reach and (g, h) in reach
               for head, _ in usable for h in head for g in head if h != g)


def _rand_ground_program(rng: random.Random) -> list:
    atoms = ATOMS[:rng.randint(1, len(ATOMS))]

    def some(sizes):
        return tuple(rng.sample(atoms, min(len(atoms), rng.choice(sizes))))
    # empty heads are constraints
    rules = [(some((0, 1, 1, 2, 2, 3)), some((0, 1, 1, 2)), some((0, 0, 1)))
             for _ in range(rng.randint(1, 6))]
    if len(atoms) > 1 and rng.random() < 0.5:
        # a positive loop, so that disjunctions over it form head cycles
        x, y = rng.sample(atoms, 2)
        rules += [((x,), (y,), some((0, 0, 1))), ((y,), (x,), ())]
    return rules


@pytest.mark.parametrize("rules, expected", [
    # non-head-cycle-free: propagation that treated every head atom as a
    # blocker would prune the one stable model
    ([((("a", ()), ("b", ())), (), ()),
      ((("a", ()),), (("b", ()),), ()),
      ((("b", ()),), (("a", ()),), ())],
     [frozenset({("a", ()), ("b", ())})]),
    # a positive loop founds nothing
    ([((("a", ()),), (("b", ()),), ()),
      ((("b", ()),), (("a", ()),), ())],
     [frozenset()]),
])
def test_stable_models_named_cases(rules, expected):
    assert oracle_stable_models(rules) == expected
    assert stable_models(numbered(rules)) == expected


def test_stable_models_match_brute_force_oracle(spied):
    rng = random.Random(61)
    head_cycles = nodes = check_nodes = 0
    settled = dict.fromkeys(SETTLED_KINDS, 0)
    for _ in range(3000):
        rules = _rand_ground_program(rng)
        head_cycles += _has_head_cycle(rules)
        spied.settled.clear()
        spied.searches.clear()
        assert stable_models(numbered(rules)) == oracle_stable_models(rules), rules
        for kind in _settled_kinds(spied):
            settled[kind] += 1
        if spied.searches:  # each counts on, and the reduct checks with them
            checks = sum(search.check_nodes for search in spied.searches)
            nodes += spied.searches[-1].budget.nodes - checks
            check_nodes += checks
    assert head_cycles >= 300  # the minimality-checked leaves are covered
    assert all(settled[kind] >= floor for kind, floor in SETTLED_KINDS.items()), settled
    # the search tree is pinned: a weaker propagation visits more nodes,
    # and one that prunes more than the founded set allows visits fewer
    assert (nodes, check_nodes) == (1988, 219)


def test_disjoint_programs_have_the_product_of_their_models(spied):
    """Two random programs over disjoint atoms, their rules interleaved:
    the stable models of the union are the unions of one stable model of
    each part, so the oracle's models of the parts give the expected list
    without a scan over all ten atoms.  Few of the 3,000 programs above
    split (14), and many of these do (179)."""
    rng = random.Random(71)
    kinds = {"two or more components searched": 0, "output-layer atom evaluated": 0}
    for _ in range(1000):
        left = _rand_ground_program(rng)
        right = [tuple(tuple((name.upper(), ()) for name, _ in part) for part in rule)
                 for rule in _rand_ground_program(rng)]
        expected = sorted((m | n for m in oracle_stable_models(left)
                           for n in oracle_stable_models(right)), key=sorted)
        rules = rng.sample(left + right, len(left) + len(right))
        spied.settled.clear()
        spied.searches.clear()
        assert stable_models(numbered(rules)) == expected, rules
        for kind in _settled_kinds(spied) & kinds.keys():
            kinds[kind] += 1
    assert kinds["two or more components searched"] >= 120, kinds
    assert kinds["output-layer atom evaluated"] >= 20, kinds


# --------------------------------------------------------------------------
# settling certain and impossible atoms before the search

@pytest.fixture
def spied(monkeypatch):
    """What `stable_models` settles and searches: each `_settle` call's
    rules and result, and each component search it builds, which counts
    the leaves its reduct check accepts and rejects and the nodes the
    checks visit."""
    seen = SimpleNamespace(settled=[], searches=[])
    settle = solver._settle

    def recording_settle(natoms, rules):
        result = settle(natoms, rules)
        seen.settled.append((rules, result))
        return result

    class RecordingSearch(solver._StableSearch):
        accepted = rejected = check_nodes = 0

        def __init__(self, *args):
            super().__init__(*args)
            seen.searches.append(self)

        def _accept(self):
            before = self.budget.nodes
            accepted = super()._accept()
            self.check_nodes += self.budget.nodes - before
            self.accepted += accepted
            self.rejected += not accepted
            return accepted

    monkeypatch.setattr(solver, "_settle", recording_settle)
    monkeypatch.setattr(solver, "_StableSearch", RecordingSearch)
    return seen


# the least number of the 3,000 random programs that show each kind
SETTLED_KINDS = {"negated atom dropped": 100, "negated atom kills": 100,
                 "head atom kills": 75, "constraint fails": 300,
                 "residue head cycle": 200, "two or more components searched": 10,
                 "output-layer atom evaluated": 50}


def _settled_kinds(spied) -> set:
    """What the pass decided and how the residue was split in the last
    `stable_models` call."""
    (rules, result), = spied.settled
    if result is None:
        return {"constraint fails"}
    value, live = result
    kinds = set()
    for (head, _, neg), alive in zip(rules, live):
        negated = {value[n] for n in neg}
        if alive and solver._FALSE in negated:
            kinds.add("negated atom dropped")
        if solver._TRUE in negated:
            kinds.add("negated atom kills")
        if {value[h] for h in head} >= {solver._TRUE, solver._FALSE}:
            kinds.add("head atom kills")  # a disjunction satisfied, another head atom gone
    searches = spied.searches
    if not all(search.hcf for search in searches):
        kinds.add("residue head cycle")  # in some component
    if len(searches) >= 2:
        kinds.add("two or more components searched")
    searched = sum(search.natoms for search in searches)
    if value[1:].count(solver._UNDEF) > searched and all(s.accepted for s in searches):
        kinds.add("output-layer atom evaluated")  # undecided, in no component
    return kinds


def _searched_rules(program: GroundProgram, spied) -> list:
    """The rules of the searches of the last call, component by component,
    as (head, pos, neg) triples of atoms."""
    return [tuple(tuple(program.atoms[search.atoms[i - 1] - 1] for i in part)
                  for part in rule)
            for search in spied.searches for rule in search.rules]


a, b, c, d, e = ATOMS


@pytest.mark.parametrize("rules, searched, expected", [
    # `not b` with b in no head: b is impossible and drops out of the body
    ([((a, c), (), (b,))],
     [((a, c), (), ())],
     [{a}, {c}]),
    # `not b` with b certain: the rule's body is false and the rule goes,
    # so a, which only it heads, is impossible
    ([((b,), (), ()), ((a, c), (), (b,)), ((c, d), (), ())],
     [((c, d), (), ())],
     [{b, c}, {b, d}]),
    # a certain head atom satisfies `a v b.`, which goes; then nothing
    # supports b, and c, which needs b, is impossible as well
    ([((a,), (), ()), ((a, b), (), ()), ((c,), (b,), ()), ((d, e), (), ())],
     [((d, e), (), ())],
     [{a, d}, {a, e}]),
    # the tautology `a :- a.` founds nothing, so a is impossible
    ([((a,), (a,), ()), ((b, c), (), (a,))],
     [((b, c), (), ())],
     [{b}, {c}]),
    # `b v b :- a, a.` is `b :- a.` once settled, and no body reads b, so
    # it is an output rule: only `a v c.` is searched, and b is read off
    # each model of it
    ([((a, c), (), ()), ((b, b), (a, a), ())],
     [((a, c), (), ())],
     [{a, b}, {c}]),
    # with a certain, `b v b :- a.` makes b certain as `b :- a.` would
    ([((a,), (), ()), ((b, b), (a,), ()), ((c, d), (), ())],
     [((c, d), (), ())],
     [{a, b, c}, {a, b, d}]),
])
def test_settling_decides_before_the_search(spied, rules, searched, expected):
    program = numbered(rules)
    models = [frozenset(m) for m in expected]
    assert oracle_stable_models(rules) == models
    assert stable_models(program) == models
    assert _searched_rules(program, spied) == searched


def test_constraint_true_on_certain_atoms_leaves_no_model(spied):
    """`:- a, b.` with a and b certain: no model, and no search at all, so
    the cautious answers over the models fail as they do for any program
    without a stable model."""
    rules = [((a,), (), ()), ((b,), (a,), ()), ((), (a, b), ()), ((c, d), (), ())]
    assert oracle_stable_models(rules) == []
    assert stable_models(numbered(rules)) == []
    assert spied.searches == []
    with pytest.raises(CrossCheckError):
        model_answers(stable_models(numbered(rules)))


def test_head_cycle_in_the_residue_is_still_checked(spied):
    """c is certain, so `a v b :- c.` reaches the search as `a v b.`; with
    `b :- a.` and `a :- b, not b.` a and b form a head cycle, and the
    reduct check rejects the leaf {a, b}, of which {b} is a model."""
    rules = [((c,), (), ()), ((a, b), (c,), ()), ((a,), (b,), (b,)), ((b,), (a,), ())]
    program = numbered(rules)
    assert oracle_stable_models(rules) == [frozenset({b, c})]
    assert stable_models(program) == [frozenset({b, c})]
    (search,) = spied.searches
    assert not search.hcf and search.rejected == 1
    assert _searched_rules(program, spied) == [((a, b), (), ()), ((a,), (b,), (b,)),
                                               ((b,), (a,), ())]


@pytest.mark.parametrize("max_nodes, stage", [
    (1000, "reduct-minimality check"),
    (2000, "stable-model search"),
])
def test_reduct_checks_count_against_the_node_bound(monkeypatch, max_nodes, stage):
    """A four-row database whose update program has a head cycle: at the
    default bound the search visits 35,600 nodes and the leaves' reduct
    checks 237,403 more.  The checks count against the call's one bound,
    so the call stops once search and checks have visited `max_nodes`
    together, and a check that runs past it reports the component models
    found, not its own countermodels."""
    schema = parse_schema("relation p(c1:int, c2:int, c3:int).")
    instance = parse_facts("@1 p(4, 3, null). @2 p(1, 4, 2). @3 p(1, 4, 1). "
                           "@4 p(2, 2, 4).", schema)
    views = [parse_view("v0(V5, V2) :- p(V1, V2, V3), p(V4, V5, V1).", schema)]
    visits = dict.fromkeys(("stable-model search", "reduct-minimality check"), 0)

    class CountingBudget(solver.NodeBudget):
        def visit(self, stage, found_what):
            visits[stage] += 1
            super().visit(stage, found_what)

    monkeypatch.setattr(solver, "NodeBudget", CountingBudget)
    with pytest.raises(BoundExceededError) as exc:
        cautious_answers(instance, views, parse_query("?(A) :- p(A, B, C).", schema),
                         max_nodes=max_nodes)
    assert str(exc.value) == (f"{stage} exceeded its bound of {max_nodes} nodes "
                              f"({max_nodes} nodes visited, 2 component models found so far)")
    assert sum(visits.values()) == max_nodes + 1 and all(visits.values()), visits


def test_search_is_sized_by_the_residue_not_the_database(spied):
    """One violating join among 1,600 rows that join nothing: the whole
    ground program has about 6,900 atoms, and the search that
    `cautious_answers` runs sees a few dozen."""
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    facts = ["P(1, 100). R(100, 7)."]
    facts += [f"P({i % 900}, {2000 + i}). R({5000 + i}, {i % 700})." for i in range(800)]
    instance = parse_facts(" ".join(facts), schema)
    views = [parse_view("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema)]
    query = parse_query("?(X) :- P(X,Y).", schema)
    answers = cautious_answers(instance, views, query)
    assert answers == {(Value.of_int(i % 900),) for i in range(800)}
    (search,) = spied.searches
    program = compile_program(instance, views)
    whole = ground(program.rules + (compile_query_program(query),), program.facts)
    assert len(whole.atoms) > 6500 and search.natoms <= 40


def _stream_database(harmless: int) -> str:
    """Two violating P/R pairs and `harmless` rows whose B values join
    nothing, one in ten of them with a null outside the join column."""
    facts = [f"P({i}, {100 + i}). R({100 + i}, {200 + i})." for i in (1, 2)]
    for i in range(harmless // 2):
        a = "null" if i % 10 == 3 else i % 900
        c = "null" if i % 10 == 7 else i % 700
        facts.append(f"P({a}, {2000 + i}). R({5000 + i}, {c}).")
    return " ".join(facts)


@pytest.mark.parametrize("query, gained", [("?(X) :- P(X, Y).", 540),
                                           ("?(X, Z) :- P(X, Y), R(Y, Z).", 0)])
def test_grounding_probes_no_row_that_joins_nothing(monkeypatch, query, gained):
    """A round's seeds are reduced by a semi-join on the store's column
    index before they are matched, so rows that join no other body atom
    are never probed for partners: the probes do not grow with them."""
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    views = [parse_view("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema)]
    probes = []
    rows_of = solver._Store.rows_of

    def counting(store, atom, env):
        probes[-1] += 1
        return rows_of(store, atom, env)

    monkeypatch.setattr(solver._Store, "rows_of", counting)
    answers = []
    for harmless in (400, 1600):
        probes.append(0)
        answers.append(cautious_answers(parse_facts(_stream_database(harmless), schema),
                                        views, parse_query(query, schema)))
    assert probes[0] == probes[1], probes
    assert answers[0] <= answers[1] and len(answers[1] - answers[0]) == gained


def test_each_harmless_pair_grounds_at_most_three_rules_and_three_atoms(monkeypatch):
    """The rows enter at their `_t` atoms, so a harmless P/R pair grounds
    its two `_t` facts and one `ans` rule, whose `not p_u` atom is its
    third atom; its `ans` atom is the one of every other harmless pair.
    No `p` or `r` atom is grounded."""
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    views = [parse_view("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema)]
    query = parse_query("?(X) :- P(X, Y).", schema)
    grounded = []

    def spying(*args, **kwargs):
        grounded.append(ground(*args, **kwargs))
        return grounded[-1]

    monkeypatch.setattr(asp, "ground", spying)
    for pairs in (20, 40):
        facts = "P(1, 101). R(101, 201). " + " ".join(
            f"P(7, {2000 + i}). R({5000 + i}, {i})." for i in range(pairs))
        answers = cautious_answers(parse_facts(facts, schema), views, query)
        assert answers == {(Value.of_int(7),)}
    small, large = grounded
    assert len(large.rules) - len(small.rules) <= 3 * 20
    assert len(large.atoms) - len(small.atoms) <= 3 * 20
    assert not {pred for pred, _ in small.atoms + large.atoms} & {"p", "r"}


def test_search_nodes_grow_linearly_in_independent_violations(spied):
    """k violating pairs give 3^k stable models, but once the query's
    `ans` rules are set aside the residue is one component per pair, so
    the nodes summed over the component searches grow linearly in k."""
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    views = [parse_view("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema)]
    query = compile_query_program(parse_query("?(X) :- P(X, Y).", schema))
    nodes = {}
    for k in range(1, 7):
        facts = " ".join(f"P({i}, {100 + i}). R({100 + i}, {200 + i})."
                         for i in range(1, k + 1))
        program = compile_program(parse_facts(facts, schema), views)
        spied.searches.clear()
        assert len(stable_models(ground(program.rules + (query,), program.facts))) == 3 ** k
        assert len(spied.searches) == k
        nodes[k] = spied.searches[-1].budget.nodes  # each search counts on from the last
        assert nodes[k] <= k * nodes[1], nodes


@pytest.mark.parametrize("m, natoms, nodes", [(4, 49, 36), (6, 67, 132), (8, 85, 516)])
def test_one_large_component_is_searched_as_one(spied, m, natoms, nodes):
    """One P row joins m R rows: every violation shares the P tuple, so
    the residue does not split, and one component is searched.  Its nodes
    grow about 4x per 2 more rows, and each node computes the founded set
    over the whole component.  The program has 2^m + 1 stable models."""
    schema = parse_schema("relation P(A:int, B:int). relation R(B:int, C:int).")
    facts = "P(1, 100). " + " ".join(f"R(100, {200 + i})." for i in range(1, m + 1))
    views = [parse_view("Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.", schema)]
    query = compile_query_program(parse_query("?(X) :- P(X, Y).", schema))
    program = compile_program(parse_facts(facts, schema), views)
    assert len(stable_models(ground(program.rules + (query,), program.facts))) == 2 ** m + 1
    (search,) = spied.searches
    assert (search.natoms, search.budget.nodes) == (natoms, nodes)


def test_stable_models_do_not_depend_on_rule_order():
    """The search branches on the atoms in number order, so under a fixed
    numbering neither the models nor a bound's message depend on the
    order of the rules; the models come out in canonical order, so a
    different numbering gives the same list too."""
    rng = random.Random(67)
    for _ in range(1000):
        rules = _rand_ground_program(rng)
        program = numbered(rules)
        models = stable_models(program)
        shuffled = GroundProgram(program.atoms, rng.sample(program.rules, len(rules)))
        assert stable_models(shuffled) == models, rules
        assert stable_models(numbered(rng.sample(rules, len(rules)))) == models, rules
    program = ground([Rule((a0(f"x{i}"), a0(f"y{i}"))) for i in range(1100)])
    shuffled = GroundProgram(program.atoms, rng.sample(program.rules, len(program)))
    with pytest.raises(BoundExceededError) as exc:
        stable_models(shuffled, max_nodes=1200)
    assert str(exc.value) == ("stable-model search exceeded its bound of 1200 nodes "
                              "(1200 nodes visited, 1200 component models found so far)")


def test_grounding_a_query_rule_is_classical_evaluation_randomized():
    """`ground` and `eval_classical` bind bodies through the same engine:
    grounding `ans(out) :- body, builtins` over the instance's facts must
    give exactly the classical answers."""
    from nullveil import SemanticError, eval_classical

    rng = random.Random(83)
    compared = nonempty = 0
    for _ in range(300):
        schema, instance, _ = rand_case(rng, max_tuples=4)
        query = rand_query(rng, schema)
        try:
            expected = eval_classical(instance, query)
        except SemanticError:
            continue
        facts = [fact(Atom(name, tuple(Const(v) for v in row.values)))
                 for name in schema.names() for row in instance.rows(name)]
        query_rule = Rule((Atom("ans", query.out),), query.body, builtins=query.builtins)
        grounded = decoded(ground(facts + [query_rule]))
        answers = {head[0][1] for head, _, _ in grounded if head[0][0] == "ans"}
        assert answers == expected, (instance, query)
        compared += 1
        nonempty += bool(expected)
    assert compared >= 250 and nonempty >= 60


# --------------------------------------------------------------------------
# facts and readback

def test_facts_ground_as_fact_rules_randomized():
    """Atoms given as `facts` ground exactly as the same atoms given as
    body-free rules ahead of the others: the same atoms, numbered alike,
    and the same ground rules."""
    rng = random.Random(139)
    for i in range(300):
        schema, instance, views = rand_case(rng, max_tuples=4, lp_safe=bool(i % 2),
                                            self_joins=bool(i // 2 % 2), max_arity=3)
        program = compile_program(instance, views)
        rules = program.rules + (compile_query_program(rand_query(rng, schema)),)
        facts = [fact(Atom(pred, tuple(map(Const, values)))) for pred, values in program.facts]
        assert ground(rules, program.facts) == ground(facts + list(rules)), (instance, views)
    # ahead of the body-free rules too
    choice = [Rule((a0("x"), a0("y")))]
    assert ground(choice, [("y", ())]) == ground([fact(a0("y"))] + choice)


def test_readback_gives_the_certain_atoms_once_randomized():
    """On the random ground programs, with a, b and c as `ans` atoms: no
    model's undecided part holds a certain atom, iterating gives the full
    models, and the cautious `ans` rows read off the parts equal those of
    the full models, also when there is no model."""
    renamed = {atom: (ANS_PRED, (Value.of_sym(atom[0]),)) for atom in ATOMS[:3]}
    rng = random.Random(149)
    empty = from_parts = 0
    for _ in range(1000):
        rules = [tuple(tuple(renamed.get(x, x) for x in part) for part in rule)
                 for rule in _rand_ground_program(rng)]
        models = stable_models(numbered(rules))
        full = list(models)
        assert len(models) == len(full), rules
        for part in models.parts:
            assert models.certain.isdisjoint(models.atoms[a - 1] for a in part), rules
        if not full:
            empty += 1
            for answered in (models, full):
                with pytest.raises(CrossCheckError):
                    model_answers(answered)
        else:
            assert model_answers(models) == model_answers(full), rules
            undecided = {models.atoms[a - 1] for part in models.parts for a in part}
            from_parts += any((ANS_PRED, row) in undecided for row in model_answers(models))
    assert empty >= 150 and from_parts >= 50, (empty, from_parts)


# --------------------------------------------------------------------------
# naive-fixpoint oracle for the grounder

def _unify(atom: Atom, gatom, env: dict) -> bool:
    return all(t.value == v if isinstance(t, Const) else env.setdefault(t.name, v) == v
               for t, v in zip(atom.args, gatom[1]))


def _instance(atoms, env: dict) -> tuple:
    return tuple((a.pred, tuple(t.value if isinstance(t, Const) else env[t.name]
                                for t in a.args)) for a in atoms)


def oracle_ground(rules) -> set:
    """Join every rule with every tuple of possible atoms, by plain
    unification, until a pass adds no possible atom."""
    possible, out = set(), set()
    while True:
        for r in rules:
            for atoms in itertools.product(*([g for g in possible if g[0] == a.pred]
                                              for a in r.pos)):
                env: dict = {}
                if (all(_unify(a, g, env) for a, g in zip(r.pos, atoms))
                        and all(builtin_classical(b, env) for b in r.builtins)):
                    out.add((_instance(r.head, env), _instance(r.pos, env),
                             _instance(r.neg, env)))
        heads = {h for head, _, _ in out for h in head}
        if heads <= possible:
            return out
        possible |= heads


def _path_rules(edges, doubling: bool) -> list:
    """Transitive closure; `doubling` adds a rule with two `path` atoms."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    rules = [fact(Atom("edge", (Const(Value.of_int(a)), Const(Value.of_int(b)))))
             for a, b in edges]
    rules += [Rule((Atom("path", (x, y)),), (Atom("edge", (x, y)),)),
              Rule((Atom("path", (x, z)),), (Atom("path", (x, y)), Atom("edge", (y, z))))]
    if doubling:
        rules.append(Rule((Atom("path", (x, z)),), (Atom("path", (x, y)), Atom("path", (y, z)))))
    return rules


CHAIN = [(i, i + 1) for i in range(30)]
CYCLE = [(i, (i + 1) % 5) for i in range(5)]


@pytest.mark.parametrize("rules, paths", [
    (_path_rules(CHAIN, doubling=False), 31 * 30 // 2),
    (_path_rules(CHAIN[:12], doubling=True), 13 * 12 // 2),
    (_path_rules(CYCLE, doubling=True), 25),
])
def test_grounding_recursive_programs_matches_naive_fixpoint(rules, paths):
    grounded = decoded(ground(rules))
    assert len(grounded) == len(set(grounded))
    assert set(grounded) == oracle_ground(rules)
    assert len({h for head, _, _ in grounded for h in head if h[0] == "path"}) == paths


def _ints(pred, *rows):
    return [fact(Atom(pred, tuple(Const(Value.of_int(v)) for v in values))) for values in rows]


def _atom(pred, *args):
    return Atom(pred, tuple(Var(a) if isinstance(a, str) else Const(Value.of_int(a))
                            for a in args))


@pytest.mark.parametrize("rules, derived", [
    # a self-join whose seed joins itself: e(1,1), and e(2,3) with e(3,2),
    # derived in one round, so each seed's partner is in the same delta
    (_ints("f", (1, 1), (2, 3), (3, 2), (4, 5))
     + [Rule((_atom("e", "X", "Y"),), (_atom("f", "X", "Y"),)),
        Rule((_atom("loop", "X"),), (_atom("e", "X", "Y"), _atom("e", "Y", "X")))],
     {("loop", 1), ("loop", 2), ("loop", 3)}),
    # a partner that repeats the shared variable: d(4,5) holds 4 in its
    # first column only, d(7,6) holds 6 in its second column only
    (_ints("p", (1, 2), (3, 4), (5, 6)) + _ints("d", (2, 2), (4, 5), (7, 6))
     + [Rule((_atom("q", "X"),), (_atom("p", "X", "Y"), _atom("d", "Y", "Y")))],
     {("q", 1)}),
    # a partner empty when the first seeds arrive, filled in later rounds
    # of a recursive rule: edge needs open, which needs reach
    (_ints("start", (1,)) + _ints("link", (1, 2), (2, 3), (3, 1), (5, 6))
     + [Rule((_atom("reach", "X"),), (_atom("start", "X"),)),
        Rule((_atom("reach", "Y"),), (_atom("reach", "X"), _atom("edge", "X", "Y"))),
        Rule((_atom("edge", "X", "Y"),), (_atom("link", "X", "Y"), _atom("open", "X"))),
        Rule((_atom("open", "X"),), (_atom("reach", "X"),))],
     {("reach", 1), ("reach", 2), ("reach", 3)}),
    # a partner with a constant, which p reaches only after r is in, so
    # only p's seeds find q; and partners that share no variable
    (_ints("p0", (1, 2), (3, 4), (5, 6)) + _ints("r", (7, 2), (8, 4), (7, 6))
     + _ints("s", (1,)) + _ints("flag", (9,))
     + [Rule((_atom("p", "X", "Y"),), (_atom("p0", "X", "Y"),)),
        Rule((_atom("q", "X"),), (_atom("p", "X", "Y"), _atom("r", 7, "Y"))),
        Rule((_atom("g", "X"),), (_atom("s", "X"), _atom("flag", 9))),
        Rule((_atom("h", "X"),), (_atom("s", "X"), _atom("flag", 8)))],
     {("q", 1), ("q", 5), ("g", 1)}),
], ids=["self-join", "repeated-variable", "late-partner", "constant"])
def test_reduced_seeds_ground_as_the_naive_fixpoint(rules, derived):
    grounded = decoded(ground(rules))
    assert len(grounded) == len(set(grounded))
    assert set(grounded) == oracle_ground(rules)
    heads = {(pred, values[0].payload) for head, _, _ in grounded for pred, values in head
             if pred in {"loop", "q", "reach", "g", "h"}}
    assert heads == derived


def test_grounding_secrecy_programs_matches_naive_fixpoint():
    rng = random.Random(97)
    for i in range(400):
        schema, instance, views = rand_case(rng, max_tuples=3, lp_safe=bool(i % 2),
                                            self_joins=bool(i // 2 % 2))
        program = compile_program(instance, views)
        rules = program.rules + (compile_query_program(rand_query(rng, schema)),)
        facts = [fact(Atom(pred, tuple(map(Const, values)))) for pred, values in program.facts]
        grounded = decoded(ground(rules, program.facts))
        assert len(grounded) == len(set(grounded)), (instance, views)
        assert set(grounded) == oracle_ground(facts + list(rules)), (instance, views)


def test_grounding_bound_names_stage_and_progress():
    with pytest.raises(BoundExceededError) as exc:
        ground(_path_rules(CHAIN, doubling=False), max_rules=100)
    assert str(exc.value) == ("grounding exceeded its bound of 100 ground rules "
                              "(4 rounds, 100 possible atoms so far)")
