"""The two evaluation semantics for conjunctive queries with nulls.

`eval_classical` treats null as an ordinary constant: it joins and
compares syntactically, so `null = null` holds.  `eval_n` reconstructs
the SQL behaviour of NULL: a comparison with a null operand never holds,
`isnull`/`isnotnull` are the only ways to test for null, and *relevant*
variables - those occurring at least twice in the query matrix, not
counting null checks and comparisons against the null constant - never
bind null at all.  Under both, order comparisons with a null operand are
false.

`rewrite_query` turns a query into one whose classical evaluation agrees
with the SQL-like one, by guarding every relevant variable with
`v != null` and lowering the unary null checks to (in)equalities.  The
equivalence holds for SQL-like queries, i.e. those that do not already
compare terms against the null constant with `=` or `!=`.

`iter_matches` is the package's one body-matching engine: both
evaluations, the admissibility sentence, the candidate-cell search and
the grounder in `solver` bind conjunctive bodies through it.  Over
instances every atom scans its relation; the grounder's row source
probes a hash index instead.
`intersect_answers` is the one intersection of answer sets over a family
of worlds, shared by secret and cautious answers.

Everything here is pure over immutable instances; evaluations can run
concurrently.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import CrossCheckError, SemanticError
from .lang import (Atom, BuiltinAtom, Const, Query, Term, UNARY_BUILTINS, Var,
                   ViewDef, view_as_query)
from .model import Instance, NULL, Row, Value

AnswerSet = frozenset  # of tuple[Value, ...]

Assignment = dict  # var name -> Value


def relevant_vars(query: Query | ViewDef) -> frozenset:
    """Variables occurring at least twice in the quantifier-free matrix.

    Occurrences inside `isnull(v)`, `isnotnull(v)` and comparisons with
    an explicit null operand do not count; projection (head) occurrences
    do not count either.
    """
    if isinstance(query, ViewDef):
        query = view_as_query(query)
    counts: dict[str, int] = {}
    for atom in query.body:
        for term in atom.args:
            if isinstance(term, Var):
                counts[term.name] = counts.get(term.name, 0) + 1
    for b in query.builtins:
        if b.op in UNARY_BUILTINS:
            continue
        if any(isinstance(t, Const) and t.value.is_null for t in b.args):
            continue
        for term in b.args:
            if isinstance(term, Var):
                counts[term.name] = counts.get(term.name, 0) + 1
    return frozenset(name for name, n in counts.items() if n >= 2)


def term_value(term: Term, env: Assignment) -> Value:
    return env[term.name] if isinstance(term, Var) else term.value


def _order_holds(op: str, left: Value, right: Value) -> bool:
    """Order comparison; false whenever an operand is null, error on
    unordered kinds (only integers carry an order)."""
    if left.is_null or right.is_null:
        return False
    if left.kind != "int" or right.kind != "int":
        raise SemanticError(
            f"order comparison {op} on unordered values "
            f"{left.token()}, {right.token()}")
    a, b = left.payload, right.payload
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    return a >= b


def builtin_classical(b: BuiltinAtom, env: Assignment) -> bool:
    """Built-in truth with null as an ordinary constant (syntactic =, !=)."""
    if b.op == "isnull":
        return term_value(b.args[0], env).is_null
    if b.op == "isnotnull":
        return not term_value(b.args[0], env).is_null
    left = term_value(b.args[0], env)
    right = term_value(b.args[1], env)
    if b.op == "=":
        return left == right
    if b.op == "!=":
        return left != right
    return _order_holds(b.op, left, right)


def builtin_n(b: BuiltinAtom, env: Assignment) -> bool:
    """Built-in truth under the SQL-like semantics: comparisons require
    both operands non-null; only isnull/isnotnull see the null itself."""
    if b.op in UNARY_BUILTINS:
        return builtin_classical(b, env)
    left = term_value(b.args[0], env)
    right = term_value(b.args[1], env)
    if b.op == "=":
        return left == right and not left.is_null
    if b.op == "!=":
        return left != right and not left.is_null and not right.is_null
    return _order_holds(b.op, left, right)


_NEGATION = {"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<",
             "isnull": "isnotnull", "isnotnull": "isnull"}


def negate_builtin(b: BuiltinAtom) -> BuiltinAtom:
    """Complementary built-in; with order ops false on null in both
    polarities, double negation is *not* the identity on null operands."""
    return BuiltinAtom(_NEGATION[b.op], b.args)


RowSource = Callable[[Atom, Assignment], Iterable[Row]]


def scan(instance: Instance) -> RowSource:
    """Row source over an instance: every row of the atom's relation.
    Evaluation over instances keeps no index, so every atom scans."""
    return lambda atom, env: instance.rows(atom.pred)


def iter_matches(rows_of: RowSource, atoms: tuple[Atom, ...],
                 first: Iterable[Row] | None = None
                 ) -> Iterator[tuple[Assignment, tuple[Row, ...]]]:
    """Enumerate assignments satisfying the atom list syntactically.

    This is the one routine that binds a conjunctive body to rows: query
    and view evaluation scan instances (`scan`), the grounder probes its
    indexed store of possibly derivable atoms.  `rows_of(atom, env)` is
    told the atom being matched and the bindings made so far, and gives
    the rows that atom may match; it may give more rows than match,
    since every row is checked against every term here.  `first`, when
    given, replaces `rows_of` for `atoms[0]`: the grounder seeds a rule's
    new atom with the rows derived in the last round.  Yields
    (assignment, rows) where rows are the rows matched by each atom in
    order.  Null matches only the null constant, exactly like any other
    constant.
    """
    return _extend(rows_of, atoms, 0, {}, (), first)


def _extend(rows_of: RowSource, atoms: tuple[Atom, ...], i: int, env: Assignment,
            matched: tuple, rows: Iterable[Row] | None = None):
    # A module-level generator, not a closure that calls itself: such a
    # closure is a reference cycle that keeps the row source alive until
    # the cyclic garbage collector runs.
    if i == len(atoms):
        yield env, matched
        return
    atom = atoms[i]
    for row in rows_of(atom, env) if rows is None else rows:
        bound = env
        for term, value in zip(atom.args, row.values):
            if isinstance(term, Const):
                if term.value != value:
                    break
            else:
                existing = bound.get(term.name)
                if existing is None:
                    if bound is env:
                        bound = dict(env)
                    bound[term.name] = value
                elif existing != value:
                    break
        else:
            yield from _extend(rows_of, atoms, i + 1, bound, matched + (row,))


def intersect_answers(answer_sets: Iterable[AnswerSet]) -> AnswerSet:
    """Rows common to every answer set of a non-empty family of worlds
    (secrecy instances or stable models), compared syntactically, nulls
    included.  An empty family has no certain answers to speak of and is
    reported as a fault rather than read as the empty answer."""
    sets = list(answer_sets)
    if not sets:
        raise CrossCheckError("no secrecy instance or stable model to take answers over")
    return frozenset.intersection(*sets)


def _project(query: Query, env: Assignment) -> tuple[Value, ...]:
    return tuple(env[v.name] for v in query.out)


def eval_classical(instance: Instance, query: Query) -> AnswerSet:
    """Standard conjunctive-query evaluation, null as ordinary constant."""
    answers = set()
    for env, _ in iter_matches(scan(instance), query.body):
        if all(builtin_classical(b, env) for b in query.builtins):
            answers.add(_project(query, env))
    return frozenset(answers)


def eval_n(instance: Instance, query: Query) -> AnswerSet:
    """SQL-like evaluation: relevant variables (free or quantified) never
    bind null, and built-ins follow the null-rejecting semantics."""
    relevant = relevant_vars(query)
    answers = set()
    for env, _ in iter_matches(scan(instance), query.body):
        if any(env[name].is_null for name in relevant):
            continue
        if all(builtin_n(b, env) for b in query.builtins):
            answers.add(_project(query, env))
    return frozenset(answers)


def rewrite_query(query: Query) -> Query:
    """Classical equivalent of a query under the SQL-like semantics.

    Lowers isnull/isnotnull to (in)equality against null and appends one
    `v != null` guard per relevant variable.
    """
    relevant = relevant_vars(query)
    builtins = []
    for b in query.builtins:
        if b.op == "isnull":
            builtins.append(BuiltinAtom("=", (b.args[0], Const(NULL))))
        elif b.op == "isnotnull":
            builtins.append(BuiltinAtom("!=", (b.args[0], Const(NULL))))
        else:
            builtins.append(b)
    for name in sorted(relevant):
        builtins.append(BuiltinAtom("!=", (Var(name), Const(NULL))))
    return Query(query.out, query.body, tuple(builtins))
