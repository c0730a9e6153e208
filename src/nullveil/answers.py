"""Secret answers: certain answers over the class of secrecy instances.

A tuple is a secret answer to a query when it is an answer, under the
SQL-like semantics, in every secrecy instance of the protected database.
Rows are intersected syntactically, nulls included: a row with nulls is
returned exactly when the identical row appears in every per-instance
answer set.  Secret answering is non-monotone - adding a tuple to the
base can retract previously secret answers.

The secrecy answer instance collects the secret answers to all atomic
queries into one instance; the no-leakage check verifies that evaluating
a view over that instance returns exactly the secret answers to the view
query, i.e. that recombining answers reveals nothing further.

A query is evaluated over the base once, keeping the rows of each match
that gives an answer, and each secrecy instance's answers are a delta
off that one evaluation, from its change set C alone.  The secrecy
instance D_C differs from the base D only in the rows C nulls
(`model.nulled_rows`), so a match of D_C either uses no nulled row, and
then it is a match of D with the same answer, or it runs through one.
The answers on D_C are those of the matches of D that avoid C's rows,
plus those of a join seeded with the nulled rows over D's rows with the
nulled ones in their place.  The second part matters even for matches D
already had: nulling a cell can add an answer, through `isnull`, as well
as remove one.  An empty family of secrecy instances raises
`CrossCheckError` instead of answering nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import DEFAULT_CELL_BOUND, SecrecySolution, enumerate_secrecy_instances
from .lang import Atom, Query, Var, _check_rule
from .model import Instance, Schema, nulled_rows
from .semantics import (AnswerSet, eval_n, holds_n, intersect_answers, iter_matches,
                        iter_matches_through, project, relevant_vars, scan)


@dataclass(frozen=True, slots=True)
class SecretAnswerReport:
    """Secret answers plus the per-secrecy-instance answer sets behind them."""

    query: Query
    answers: AnswerSet
    per_instance: tuple  # of (ChangeSet, AnswerSet)


@dataclass(frozen=True, slots=True)
class LeakageReport:
    """Outcome of the no-leakage check; `failures` lists any view whose
    two sides differ, with both sets as witness."""

    ok: bool
    failures: tuple  # of (view name, secret answers, view-on-answer-instance)


def _delta_answers(instance: Instance, query: Query):
    """The SQL-like answers to `query` on the degradations of `instance`,
    from one evaluation over `instance`: the returned function of a
    change set gives the answers of the matches of `instance` that avoid
    the changed rows and of the matches through the nulled rows."""
    relevant = relevant_vars(query)
    preds = tuple(atom.pred for atom in query.body)
    base = [(project(query, env), frozenset(zip(preds, (row.tid for row in rows))))
            for env, rows in iter_matches(scan(instance), query.body)
            if holds_n(query, relevant, env)]

    def answers_on(changes: frozenset) -> AnswerSet:
        touched = {(cell.relation, cell.tid) for cell in changes}
        answers = {answer for answer, used in base if used.isdisjoint(touched)}
        nulled = nulled_rows(instance, changes)
        degraded = {name: [rows.get(row.tid, row) for row in instance.rows(name)]
                    for name, rows in nulled.items()}
        answers.update(project(query, env) for env, _ in iter_matches_through(
            lambda atom, env: degraded.get(atom.pred, instance.rows(atom.pred)),
            query.body, {name: rows.values() for name, rows in nulled.items()})
            if holds_n(query, relevant, env))
        return frozenset(answers)

    return answers_on


def _secret_answers_over(instance: Instance, solutions: list[SecrecySolution],
                         query: Query) -> SecretAnswerReport:
    answers_on = _delta_answers(instance, query)
    per_instance = tuple(
        (solution.changes, answers_on(solution.changes))
        for solution in solutions)
    answers = intersect_answers(ans for _, ans in per_instance)
    return SecretAnswerReport(query, answers, per_instance)


def secret_answers(instance: Instance, views, query: Query,
                   max_cells: int = DEFAULT_CELL_BOUND) -> SecretAnswerReport:
    """Answers certain across every secrecy instance of `instance`."""
    _check_rule(query, instance.schema, allow_null=True)
    solutions = enumerate_secrecy_instances(instance, views, max_cells=max_cells)
    return _secret_answers_over(instance, solutions, query)


def _atomic_query(schema: Schema, relation: str) -> Query:
    rel = schema.relation(relation)
    out = tuple(Var(f"X{i}") for i in range(1, rel.arity + 1))
    return Query(out, (Atom(relation, out),), ())


def _answer_instance_over(instance: Instance,
                          solutions: list[SecrecySolution]) -> Instance:
    rows = {}
    for name in instance.schema.names():
        report = _secret_answers_over(instance, solutions,
                                      _atomic_query(instance.schema, name))
        rows[name] = sorted(report.answers, key=lambda vs: [v.sort_key() for v in vs])
    return Instance.from_values(instance.schema, rows)


def secrecy_answer_instance(instance: Instance, views) -> Instance:
    """Instance assembled from the secret answers to every atomic query,
    with fresh tuple ids assigned in canonical row order."""
    solutions = enumerate_secrecy_instances(instance, views)
    return _answer_instance_over(instance, solutions)


def check_no_leakage(instance: Instance, views) -> LeakageReport:
    """For every view, compare the secret answers to the view query with
    the view's extension on the secrecy answer instance."""
    solutions = enumerate_secrecy_instances(instance, views)
    answer_instance = _answer_instance_over(instance, solutions)
    failures = []
    for view in views:
        lhs = _secret_answers_over(instance, solutions, view).answers
        rhs = eval_n(answer_instance, view)
        if lhs != rhs:
            failures.append((view.name, lhs, rhs))
    return LeakageReport(not failures, tuple(failures))
