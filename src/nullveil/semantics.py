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
with the SQL-like one, on every query: a comparison with the null
constant by `=` or `!=` becomes one that never holds, as it never holds
under `eval_n`; then the unary null checks are lowered to (in)equalities
and every relevant variable is guarded with `v != null`.  `update_view`
writes a view's body constants as variables, for both routes' updates.

`iter_matches` is the package's one body-matching engine: both
evaluations, the candidate-cell search and the oracle's admissibility
sentence in `instances`, the witness pass of secret answers and the
grounder in `solver` bind conjunctive bodies through it.  Over
instances every atom scans its relation; secret answers scan every
version of each row at once; the grounder probes a hash index.

Everything here is pure over immutable instances; evaluations can run
concurrently.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterable, Iterator

from .errors import SemanticError
from .lang import (Atom, BuiltinAtom, Const, Query, Term, UNARY_BUILTINS, Var, ViewDef,
                   _check_rule)
from .model import Instance, NULL, Row, Schema, Value

AnswerSet = frozenset  # of tuple[Value, ...]

Assignment = dict  # var name -> Value


def relevant_vars(query: Query) -> frozenset:
    """Variables occurring at least twice in the quantifier-free matrix.

    Occurrences inside `isnull(v)`, `isnotnull(v)` and comparisons with
    an explicit null operand do not count; projection (head) occurrences
    do not count either.
    """
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


def update_view(view: ViewDef, schema: Schema) -> ViewDef:
    """The view as both routes search its updates, after the parser's view
    check: each body constant c becomes a fresh variable Y and the
    built-in `Y = c`.  A body constant is a join condition, and nulling
    its cell destroys the match; Y occurs twice, so its cell is a
    combination position on both routes.  The extension stays, as c is
    not null and a relevant Y binds no null."""
    _check_rule(view, schema, allow_null=False)
    used = {t.name for item in view.body + view.builtins for t in item.args
            if isinstance(t, Var)}
    fresh = (name for name in (f"Y{k}" for k in count(1)) if name not in used)
    builtins = list(view.builtins)
    body = []
    for atom in view.body:
        args = []
        for term in atom.args:
            if isinstance(term, Const):
                var = Var(next(fresh))
                builtins.append(BuiltinAtom("=", (var, term)))
                term = var
            args.append(term)
        body.append(Atom(atom.pred, tuple(args)))
    return ViewDef(view.out, tuple(body), tuple(builtins), view.name)


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
    and view evaluation scan instances (`scan`), secret answers scan
    every version of each row, and the grounder probes its indexed store
    of possibly derivable atoms.  `rows_of(atom, env)` is
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


def project(query: Query, env: Assignment) -> tuple[Value, ...]:
    """The answer row a body match gives: its values of the head variables."""
    return tuple(env[v.name] for v in query.out)


def holds_n(query: Query, relevant: frozenset, env: Assignment) -> bool:
    """True iff the body match `env` gives `query` an answer under the
    SQL-like semantics: no relevant variable (the caller passes
    `relevant_vars(query)`) binds null and every built-in holds under
    `builtin_n`."""
    return (not any(env[name].is_null for name in relevant)
            and all(builtin_n(b, env) for b in query.builtins))


def eval_classical(instance: Instance, query: Query) -> AnswerSet:
    """Standard conjunctive-query evaluation, null as ordinary constant."""
    answers = set()
    for env, _ in iter_matches(scan(instance), query.body):
        if all(builtin_classical(b, env) for b in query.builtins):
            answers.add(project(query, env))
    return frozenset(answers)


def eval_n(instance: Instance, query: Query) -> AnswerSet:
    """SQL-like evaluation: relevant variables (free or quantified) never
    bind null, and built-ins follow the null-rejecting semantics."""
    relevant = relevant_vars(query)
    return frozenset(project(query, env) for env, _ in iter_matches(scan(instance), query.body)
                     if holds_n(query, relevant, env))


_NEVER = BuiltinAtom("!=", (Const(NULL), Const(NULL)))  # false classically


def rewrite_query(query: Query) -> Query:
    """Classical equivalent of a query under the SQL-like semantics.

    A user's `=` or `!=` with a null operand never holds under `eval_n`,
    so it becomes `null != null`, which never holds classically either.
    Only then are isnull/isnotnull lowered to (in)equality against null,
    which keeps its classical meaning, and one `v != null` guard is
    appended per relevant variable.
    """
    relevant = relevant_vars(query)
    builtins = []
    for b in query.builtins:
        if b.op in ("=", "!=") and any(isinstance(t, Const) and t.value.is_null
                                       for t in b.args):
            builtins.append(_NEVER)
        elif b.op == "isnull":
            builtins.append(BuiltinAtom("=", (b.args[0], Const(NULL))))
        elif b.op == "isnotnull":
            builtins.append(BuiltinAtom("!=", (b.args[0], Const(NULL))))
        else:
            builtins.append(b)
    for name in sorted(relevant):
        builtins.append(BuiltinAtom("!=", (Var(name), Const(NULL))))
    return Query(query.out, query.body, tuple(builtins))
