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

Per-instance evaluations are independent and may run concurrently; the
intersection happens after all of them finish.  An empty family of
secrecy instances raises `CrossCheckError` instead of answering nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import DEFAULT_CELL_BOUND, SecrecySolution, enumerate_secrecy_instances
from .lang import Atom, Query, Var
from .model import Instance, Schema
from .semantics import AnswerSet, eval_n, intersect_answers


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


def _secret_answers_over(solutions: list[SecrecySolution], query: Query) -> SecretAnswerReport:
    per_instance = tuple(
        (solution.changes, eval_n(solution.instance, query))
        for solution in solutions)
    answers = intersect_answers(ans for _, ans in per_instance)
    return SecretAnswerReport(query, answers, per_instance)


def secret_answers(instance: Instance, views, query: Query,
                   max_cells: int = DEFAULT_CELL_BOUND) -> SecretAnswerReport:
    """Answers certain across every secrecy instance of `instance`."""
    solutions = enumerate_secrecy_instances(instance, views, max_cells=max_cells)
    return _secret_answers_over(solutions, query)


def _atomic_query(schema: Schema, relation: str) -> Query:
    rel = schema.relation(relation)
    out = tuple(Var(f"X{i}") for i in range(1, rel.arity + 1))
    return Query(out, (Atom(relation, out),), ())


def _answer_instance_over(instance: Instance,
                          solutions: list[SecrecySolution]) -> Instance:
    rows = {}
    for name in instance.schema.names():
        report = _secret_answers_over(solutions, _atomic_query(instance.schema, name))
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
        lhs = _secret_answers_over(solutions, view).answers
        rhs = eval_n(answer_instance, view)
        if lhs != rhs:
            failures.append((view.name, lhs, rhs))
    return LeakageReport(not failures, tuple(failures))
