"""Compilation of an instance plus secrecy views into an annotated
disjunctive logic program whose stable models are the secrecy instances.

Every relation atom carries the tuple id as its last argument, so a
tuple keeps the identity that `model` gives it through the whole
program.  Tuple lifecycle is tracked through predicate-name suffixes
standing for four annotations: `_a` marks an updated (nulled) version of
a tuple, `_u` a version that has been overwritten, `_t` any version, old
or new, and `_s` what survives into the secrecy instance (a version never
overwritten).  Per view, a disjunctive rule fires on every violating
match - comparisons hold, no combination variable is null, and some head
variable is non-null - and chooses either one whole-atom secrecy-side
update that nulls a non-null head value or one combination-side update.
Each secrecy-side rule guards the head variable it nulls; a view with a
relevant head variable gets combination-side updates only (the same test
the enumeration makes, per variable, so a self-join whose positions
overlap keeps both kinds).
Overwrite rules, one per relation position and keyed on the tuple id,
then mark a version as overwritten once an update of the same tuple has
nulled a value the version still holds.

The database enters the program as facts, ground atoms kept apart from
the rules, and the exported text lists them first; each row reaches the
rest of the program through its relation's copy rule
`p_t(X1,X2,T) :- p(X1,X2,T).`

Queries are answered cautiously: the query is rewritten to its classical
form, retargeted at `_s` atoms under a fresh `ans` head, and the answers
true in every stable model are returned, read from the atoms true in
every model without building each model; they must coincide with the
secret answers of `answers`.  Only what the `ans` rule reads is
grounded, picked by relation: the view rules; the `_t` rule over `_a` of
each relation that a view or the query reads; the `_u` rules of each
relation the query reads; the `ans` rule with each `_s` atom replaced by
the body of its relation's `_s` rule, the `_t` atom and the negated `_u`
atom with the same arguments; and each row p(a, t) of a relation that a
view or the query reads, as the fact p_t(a, t).  The answers stay.  An
`_s` predicate has one rule, which only the `ans` rule reads, and only
positively, so putting that rule's body in place of each `_s` atom keeps
the stable models (GPPE, Brass & Dix 1997, "Characterizations of the
disjunctive stable semantics by partial evaluation").  The copy rule's
instances are p_t(a, t) :- p(a, t). for the rows, each with a true body,
so the `_t` facts stand for them.  What is left out then is normal rules
and facts whose heads no rule kept mentions: the `_s` rules, the rows as
p facts, the `_u` rules of a relation the query does not read, and the
copy and `_t` rules of one that no view reads either.  They form a top
layer that splits off (Lifschitz & Turner 1994, "Splitting a logic
program"), so each stable model of what is kept extends in exactly one
way to one of the whole program, with the same `ans` atoms.  Each
secrecy instance is read off its stable model by projection: every `_s`
atom is one tuple, named by its id; this reads the whole program's
models.

Export produces solver-ready text for the dlv and clingo dialects
(predicates lowercased, disjunction `v` respectively `|`); denial
constraints state, one per head variable, that no body match may leave
that variable non-null.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count

from .errors import CrossCheckError, DialectError, SemanticError, UnsupportedRuleError
from .lang import (Atom, BuiltinAtom, Const, Query, UNARY_BUILTINS, Var, ViewDef, _Parser,
                   _check_rule)
from .model import Instance, NULL, Row, Schema, Value
from .semantics import AnswerSet, relevant_vars, rewrite_query
from .solver import DEFAULT_SEARCH_BOUND, GAtom, Rule, StableModels, ground, stable_models


class Annotation(enum.Enum):
    A = "a"  # is being updated (new atom)
    U = "u"  # has been updated (old atom)
    T = "t"  # is new or old
    S = "s"  # stays in the secrecy instance


ANS_PRED = "ans"


@dataclass(frozen=True, slots=True)
class AnnotatedProgram:
    """The compiled secrecy program: the database as ground atoms, each
    tuple's values with its id last; the view rules, in view order; and
    per relation, by lowercased name in schema order, its version rules:
    the copy rule, the `_t` rule over `_a`, the `_u` rules and the `_s`
    rule."""

    facts: tuple[GAtom, ...]
    view_rules: tuple[Rule, ...]
    version_rules: dict[str, tuple[Rule, ...]]

    @property
    def rules(self) -> tuple[Rule, ...]:
        """The view rules, then each relation's version rules."""
        return self.view_rules + tuple(
            r for rules in self.version_rules.values() for r in rules)


def _ann(pred: str, annotation: Annotation) -> str:
    return f"{pred}_{annotation.value}"


def _annotated(atom: Atom, annotation: Annotation) -> Atom:
    return Atom(_ann(atom.pred, annotation), atom.args)


def _not_null(name: str) -> BuiltinAtom:
    return BuiltinAtom("!=", (Var(name), Const(NULL)))


def _with_tids(atoms: tuple[Atom, ...],
               builtins: tuple[BuiltinAtom, ...]) -> tuple[Atom, ...]:
    """Lowercase each atom and give it its own tuple-id variable, named
    apart from every variable of the rule."""
    used = {t.name for item in atoms + builtins for t in item.args if isinstance(t, Var)}
    fresh = (name for name in (f"T{k}" for k in count(1)) if name not in used)
    # tid last: matching goes left to right, so join columns reject a row first
    return tuple(Atom(a.pred.lower(), a.args + (Var(next(fresh)),)) for a in atoms)


def _check_reserved_names(schema: Schema) -> None:
    """Raise when two sources claim one predicate name of the program: a
    clash means the compilation cannot keep predicates apart."""
    names: dict[str, str] = {ANS_PRED: "query head"}
    for rel in schema.relations:
        low = rel.name.lower()
        for name in (low, *(_ann(low, annotation) for annotation in Annotation)):
            if name in names:
                raise UnsupportedRuleError(
                    f"predicate name clash: {name!r} used by relation {rel.name} "
                    f"and {names[name]}")
            names[name] = f"relation {rel.name}"


def compile_program(instance: Instance, views) -> AnnotatedProgram:
    """Build the secrecy program for `instance` and the view set.  Each
    view must pass the parser's view check, as on the direct route (see
    `instances`); one that does not raises `SemanticError`."""
    _check_reserved_names(instance.schema)
    facts = tuple((name.lower(), row.values + (Value.of_int(row.tid),))
                  for name in instance.schema.names() for row in instance.rows(name))
    view_rules: list[Rule] = []
    for view in views:
        _check_rule(view, instance.schema, allow_null=False)
        view_rules.extend(_view_rules(view))
    return AnnotatedProgram(facts, tuple(view_rules), {
        rel.name.lower(): tuple(_version_rules(rel.name.lower(), rel.arity))
        for rel in instance.schema.relations})


def _version_rules(low: str, arity: int) -> list[Rule]:
    """`_t`, `_u` and `_s` rules of one relation: a version of tuple T is
    overwritten once an update of T has nulled a value it still holds."""
    tid = Var("T")
    xs = tuple(Var(f"X{i}") for i in range(1, arity + 1))
    ys = tuple(Var(f"Y{i}") for i in range(1, arity + 1))
    version = Atom(low, xs + (tid,))
    t_version = _annotated(version, Annotation.T)
    update = _annotated(Atom(low, ys + (tid,)), Annotation.A)
    overwritten = _annotated(version, Annotation.U)
    rules = [Rule((t_version,), (version,)),
             Rule((t_version,), (_annotated(version, Annotation.A),))]
    for x, y in zip(xs, ys):
        rules.append(Rule((overwritten,), (update, t_version),
                          builtins=(BuiltinAtom("=", (y, Const(NULL))), _not_null(x.name))))
    rules.append(Rule((_annotated(version, Annotation.S),), (t_version,), (overwritten,)))
    return rules


def nulled_atom(atom: Atom, names: set) -> Atom | None:
    """`atom` with every occurrence of the named variables replaced by the
    null constant; None when no such occurrence exists."""
    args = tuple(
        Const(NULL) if isinstance(t, Var) and t.name in names else t
        for t in atom.args)
    if args == atom.args:
        return None
    return Atom(atom.pred, args)


def _view_rules(view: ViewDef) -> list[Rule]:
    # each tuple-id variable occurs once, so it is never relevant
    body = _with_tids(view.body, view.builtins)
    relevant = relevant_vars(view)
    head_set = {v.name for v in view.out}
    body_t = tuple(_annotated(a, Annotation.T) for a in body)
    c_guards = tuple(_not_null(v) for v in sorted(relevant))
    cp_a = tuple(_annotated(cp, Annotation.A) for cp in
                 (nulled_atom(atom, relevant) for atom in body) if cp)

    rules: list[Rule] = []
    guards = view.builtins + c_guards
    if head_set & relevant:
        # a relevant head variable: combination-side updates only; its
        # guard in `c_guards` already makes some head value non-null
        rules.append(Rule(tuple(dict.fromkeys(cp_a)), body_t, builtins=guards))
    else:
        # a secrecy-side update must null a value: one rule per head
        # variable of the atom, guarded by that variable being non-null
        for atom in body:
            sp = nulled_atom(atom, head_set)
            if sp is None:
                continue
            head = tuple(dict.fromkeys((_annotated(sp, Annotation.A),) + cp_a))
            for name in sorted({t.name for t in atom.args if isinstance(t, Var)}
                               & head_set):
                rules.append(Rule(head, body_t, builtins=guards + (_not_null(name),)))
    return rules


def compile_query_program(query: Query) -> Rule:
    """Rewrite the query classically and retarget it at surviving atoms."""
    rewritten = rewrite_query(query)
    body = tuple(_annotated(a, Annotation.S)
                 for a in _with_tids(rewritten.body, rewritten.builtins))
    return Rule((Atom(ANS_PRED, tuple(rewritten.out)),), body, builtins=rewritten.builtins)


# --------------------------------------------------------------------------
# model interpretation

def models_to_instances(models, base: Instance) -> list[Instance]:
    """Read one instance off each stable model by projecting to the
    surviving (`_s`) atoms: each is one tuple, its last argument the id.
    Every base tuple must survive exactly once."""
    names = {name.lower() + "_s": name for name in base.schema.names()}
    tids = {name: {Value.of_int(row.tid): row.tid for row in base.rows(name)}
            for name in base.schema.names()}
    instances = []
    for model in models:
        rows: dict[str, dict[int, Row]] = {name: {} for name in tids}
        for pred, args in model:
            name = names.get(pred)
            if name is None:
                continue
            tid = tids[name].get(args[-1]) if args else None
            if tid is None:
                raise SemanticError(f"surviving atom {pred}({','.join(v.token() for v in args)})"
                                    f" names no tuple of {name}")
            if tid in rows[name]:
                raise SemanticError(f"tuple {name}#{tid} survives more than once")
            rows[name][tid] = Row(tid, args[:-1])
        for name, survivors in rows.items():
            for row in base.rows(name):
                if row.tid not in survivors:
                    raise SemanticError(f"tuple {name}#{row.tid} does not survive")
        instances.append(Instance(base.schema, {
            name: [survivors[row.tid] for row in base.rows(name)]
            for name, survivors in rows.items()}))
    return instances


def cautious_answers(instance: Instance, views, query: Query,
                     max_nodes: int = DEFAULT_SEARCH_BOUND) -> AnswerSet:
    """Query answers true in every stable model of the secrecy program,
    grounding only the part that the `ans` rule reads, picked by
    relation (see the module docstring)."""
    _check_rule(query, instance.schema, allow_null=True)
    program = compile_program(instance, views)
    query_rule = compile_query_program(query)
    # p from p_s and p_t: every annotation is one letter
    queried = {a.pred[:-2] for a in query_rule.pos}
    read = queried | {a.pred[:-2] for r in program.view_rules for a in r.pos}
    rules = list(program.view_rules)
    for low, (_, t_rule, *u_rules, _) in program.version_rules.items():
        if low in read:
            rules.append(t_rule)
        if low in queried:
            rules += u_rules
    rules.append(Rule(
        query_rule.head,
        tuple(Atom(_ann(a.pred[:-2], Annotation.T), a.args) for a in query_rule.pos),
        tuple(Atom(_ann(a.pred[:-2], Annotation.U), a.args) for a in query_rule.pos),
        query_rule.builtins))
    facts = [(_ann(pred, Annotation.T), values) for pred, values in program.facts if pred in read]
    return model_answers(stable_models(ground(rules, facts), max_nodes))


def model_answers(models) -> AnswerSet:
    """Cautious answers: the `ans` rows true in every stable model,
    compared syntactically, nulls included.  No stable model at all has
    no certain answers to speak of and raises `CrossCheckError` rather
    than reading as the empty answer.  `models` is what `stable_models`
    returns, which gives its atoms true in every model without building
    each model, or any list of models."""
    if isinstance(models, StableModels):
        models = [models.cautious()] if models else []
    answer_sets = [frozenset(args for pred, args in model if pred == ANS_PRED)
                   for model in models]
    if not answer_sets:
        raise CrossCheckError("no stable model to take answers over")
    return frozenset.intersection(*answer_sets)


# --------------------------------------------------------------------------
# denial constraints and export

def to_denial_constraints(view: ViewDef) -> list[str]:
    """One denial constraint per head variable: no body match satisfying
    the comparisons may leave that variable non-null."""
    var_order = list(dict.fromkeys(
        t.name for a in view.body for t in a.args if isinstance(t, Var)))
    conjuncts = [a.token() for a in view.body]
    conjuncts += [_pretty_builtin(b) for b in view.builtins]
    out = []
    for name in dict.fromkeys(v.name for v in view.out):
        parts = conjuncts + [f"{name} ≠ null"]
        out.append(f"¬∃{' '.join(var_order)} ({' ∧ '.join(parts)})")
    return out


def _pretty_builtin(b: BuiltinAtom) -> str:
    if b.op in UNARY_BUILTINS:
        return b.token()
    op = {"!=": "≠", "<=": "≤", ">=": "≥"}.get(b.op, b.op)
    return f"{b.args[0].token()} {op} {b.args[1].token()}"


DIALECTS = ("dlv", "clingo")


def _export_atom(pred: str, args: tuple) -> str:
    """An atom's text; its arguments are terms, or values when it is ground."""
    if not args:
        return pred
    return f"{pred}({','.join(t.token() for t in args)})"


def export_rule(rule: Rule, dialect: str) -> str:
    sep = " v " if dialect == "dlv" else " | "
    head = sep.join(_export_atom(a.pred, a.args) for a in rule.head)
    body = ", ".join([*(_export_atom(a.pred, a.args) for a in rule.pos),
                      *(f"not {_export_atom(a.pred, a.args)}" for a in rule.neg),
                      *(b.token() for b in rule.builtins)])
    if not body:
        return f"{head}."
    if not rule.head:
        return f":- {body}."
    return f"{head} :- {body}."


def export_program(rules, dialect: str, facts=()) -> str:
    """Solver-ready text of the facts, ground atoms, then the rules;
    dialect is `dlv` or `clingo`."""
    if dialect not in DIALECTS:
        raise DialectError(f"unsupported dialect {dialect!r}")
    lines = [f"{_export_atom(pred, values)}." for pred, values in facts]
    lines += [export_rule(r, dialect) for r in rules]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# program text and answer-set parsing (dialect-neutral subset)

def parse_program_text(text: str) -> list[Rule]:
    """Parse exported program text back into rules; accepts both the dlv
    `v` and the clingo `|` disjunction separators."""
    parser = _Parser(text)
    rules: list[Rule] = []
    while not parser.at_eof():
        head: list[Atom] = []
        if parser.peek().text != ":-":
            head.append(_parse_program_atom(parser))
            while parser.peek().text == "|" or parser.peek().text == "v":
                parser.next()
                head.append(_parse_program_atom(parser))
        pos, neg, builtins = [], [], []
        if parser.peek().text == ":-":
            parser.next()
            while True:
                if parser.peek().text == "not":
                    parser.next()
                    neg.append(_parse_program_atom(parser))
                else:
                    item = parser.parse_body_item()
                    (pos if isinstance(item, Atom) else builtins).append(item)
                if parser.peek().text != ",":
                    break
                parser.next()
        parser.expect(".")
        rules.append(Rule(tuple(head), tuple(pos), tuple(neg), tuple(builtins)))
    return rules


def _parse_program_atom(parser: _Parser) -> Atom:
    name = parser.expect_name("predicate").text
    args = parser.parse_term_list() if parser.peek().text == "(" else ()
    return Atom(name, args)


def parse_answer_sets(text: str) -> list[frozenset]:
    """Parse solver output into sets of ground atoms.

    Accepts brace-wrapped answer sets (`{a(1), b}` - dlv style) and
    clingo's plain output where a line `Answer: N` is followed by a line
    of space-separated atoms.
    """
    answer_sets: list[frozenset] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("{"):
            end = line.rfind("}")
            if end == -1:
                raise SemanticError(f"unterminated answer set line: {line!r}")
            answer_sets.append(_parse_ground_atoms(line[1:end]))
        elif line.startswith("Answer:"):
            i += 1
            if i < len(lines):
                answer_sets.append(_parse_ground_atoms(lines[i].strip()))
        i += 1
    return answer_sets


def _parse_ground_atoms(text: str) -> frozenset:
    parser = _Parser(text)
    atoms: set[GAtom] = set()
    while not parser.at_eof():
        atom = _parse_program_atom(parser)
        values = []
        for term in atom.args:
            if isinstance(term, Var):
                raise SemanticError(f"answer-set atom is not ground: {atom.token()}")
            values.append(term.value)
        atoms.add((atom.pred, tuple(values)))
        if parser.peek().text == ",":
            parser.next()
    return frozenset(atoms)
