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

The secrecy instances are a product (`instances.SecrecyInstances`): one
minimal transversal per component of the edges, the components over
disjoint rows.  A query reads whole rows, so each row's version in a
secrecy instance depends on the transversal of its own component alone.
So the query is evaluated once, over the rows of every secrecy instance
at once: each row untouched by the transversals as it is, and each row
of a component in each distinct version its transversals give it.  A
match that gives an answer is a *witness* of that answer, with one
condition per component whose rows it uses: the set of the component's
transversals under which every row it used has that version.  This is
the why-provenance of the answer (Green, Karvounarakis & Tannen 2007).
An answer holds in a secrecy instance exactly when one of its witnesses'
conditions all hold there.  The candidates are the answers of the
witnesses, not the answers over the base: nulling a cell can gain an
answer through `isnull`, and then the base has no match for it.

A candidate is secret unless a *countermodel* exists, the way consistent
query answering decides certain answers over repairs (Arenas, Bertossi &
Chomicki 1999): a choice of one transversal per component that falsifies
every witness.  A witness with no condition makes the answer secret at
once; one with a single condition removes transversals from that
component's choices, and a component left with none makes the answer
secret; the search branches only on the components of the witnesses
that span several, one choice at a time, and so never visits more nodes
than there are partial choices.  `per_instance` reads each secrecy
instance's answers off the witnesses, for the checks that compare them;
only it builds the product.  An empty family of secrecy instances raises
`CrossCheckError` instead of answering nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CrossCheckError
from .instances import SecrecyInstances, enumerate_secrecy_instances
from .lang import Atom, Query, Var, _check_rule
from .model import NULL, Instance, Row, Schema
from .semantics import AnswerSet, eval_n, holds_n, iter_matches, project, relevant_vars
from .solver import DEFAULT_SEARCH_BOUND, NodeBudget


@dataclass(frozen=True, slots=True)
class SecretAnswerReport:
    """Secret answers plus the witnesses behind them: per answer, the
    conditions of its witnesses, each a tuple of (component, mask) pairs,
    where bit i of the mask stands for the component's i-th transversal."""

    query: Query
    answers: AnswerSet
    instances: SecrecyInstances = field(repr=False)
    witnesses: dict = field(repr=False)

    @property
    def per_instance(self) -> tuple:
        """(change set, answer set) of each secrecy instance, in canonical
        order, read off the witnesses; this builds the whole product."""
        return tuple((changes, frozenset(
            answer for answer, conditions in self.witnesses.items()
            if any(all(mask >> choice[j] & 1 for j, mask in condition)
                   for condition in conditions)))
            for changes, choice in self.instances.choices())


@dataclass(frozen=True, slots=True)
class LeakageReport:
    """Outcome of the no-leakage check; `failures` lists any view whose
    two sides differ, with both sets as witness."""

    ok: bool
    failures: tuple  # of (view name, secret answers, view-on-answer-instance)


class _Versions:
    """The rows of every secrecy instance of `instances` at once, as a row
    source, and the condition under which each version is the row's."""

    def __init__(self, instances: SecrecyInstances):
        self.instances = instances
        base = instances.base
        self.full = [(1 << len(alternatives)) - 1 for alternatives in instances.components]
        masks: dict = {}  # (relation, tid) -> (component, {nulled positions: mask})
        for j, alternatives in enumerate(instances.components):
            for i, changes in enumerate(alternatives):
                by_row: dict = {}
                for cell in changes:
                    by_row.setdefault((cell.relation, cell.tid), set()).add(cell.pos)
                for key, positions in by_row.items():
                    versions = masks.setdefault(key, (j, {}))[1]
                    nulled = frozenset(positions)
                    versions[nulled] = versions.get(nulled, 0) | 1 << i
        self.rows: dict = {}  # relation -> every version of its rows
        self.condition: dict = {}  # id of a version -> (component, mask)
        for name in base.schema.names():
            rows = self.rows[name] = []
            for row in base.rows(name):
                if (name, row.tid) not in masks:
                    rows.append(row)
                    continue
                j, versions = masks[name, row.tid]
                kept = self.full[j]
                for mask in versions.values():
                    kept &= ~mask
                if kept:
                    versions[frozenset()] = kept
                for nulled, mask in versions.items():
                    version = row if not nulled else Row(row.tid, tuple(
                        NULL if pos in nulled else value
                        for pos, value in enumerate(row.values, 1)))
                    rows.append(version)
                    if mask != self.full[j]:
                        self.condition[id(version)] = (j, mask)

    def witnesses(self, query: Query) -> dict:
        """Per answer, the distinct conditions of its witnesses, from one
        pass of the query over every version.  A match through two
        versions that no one transversal gives together is no witness."""
        relevant = relevant_vars(query)
        table: dict = {}
        for env, rows in iter_matches(lambda atom, env: self.rows[atom.pred], query.body):
            if not holds_n(query, relevant, env):
                continue
            condition: dict = {}
            for row in rows:
                j, mask = self.condition.get(id(row), (None, 0))
                if j is not None:
                    mask &= condition.get(j, mask)
                    if not mask:
                        break
                    condition[j] = mask
            else:
                table.setdefault(project(query, env), {})[tuple(sorted(condition.items()))] = None
        return table

    def report(self, query: Query) -> SecretAnswerReport:
        table, budget = self.witnesses(query), self.instances.budget
        budget.found = 0  # the secret answers found, for a bound's message
        answers = []
        for answer, conditions in table.items():
            if _is_secret(conditions, self.full, budget):
                answers.append(answer)
                budget.found += 1
        return SecretAnswerReport(query, frozenset(answers), self.instances, table)


def _is_secret(conditions, full: list, budget: NodeBudget | None = None) -> bool:
    """Whether every choice of one transversal per component satisfies
    one of the witness conditions `conditions`; `full[j]` is the mask of
    all of component j's transversals."""
    domains: dict = {}  # component -> mask of the choices left
    spanning = []
    for condition in conditions:
        if not condition:
            return True
        if len(condition) > 1:
            spanning.append(dict(condition))
            continue
        (j, mask), = condition
        domains[j] = domains.get(j, full[j]) & ~mask
        if not domains[j]:
            return True
    for condition in spanning:
        for j in condition:
            domains.setdefault(j, full[j])
    return not _countermodel(domains, spanning, budget or NodeBudget())


def _countermodel(domains: dict, witnesses: list, budget: NodeBudget) -> bool:
    """Whether some choice of one transversal per component, each within
    its domain mask, falsifies every witness of `witnesses`, each a dict
    from two or more components to masks.

    The search assigns the lowest component of the first witness left,
    one choice at a time.  A witness the choice falsifies is done; one it
    satisfies loses that component, and once one component is left it
    narrows that component's domain instead.  A domain emptied so is a
    dead end.  Each choice tried is one node of `budget`, a partial
    choice, so the search visits fewer nodes than the product has.
    """
    if not witnesses:
        return True
    component = min(witnesses[0])
    choices = domains[component]
    while choices:
        bit = choices & -choices
        choices ^= bit
        budget.visit("countermodel search", "secret answers")
        narrowed, rest = dict(domains), []
        for witness in witnesses:
            mask = witness.get(component)
            if mask is None:
                rest.append(witness)
            elif mask & bit:
                others = {j: m for j, m in witness.items() if j != component}
                if len(others) > 1:
                    rest.append(others)
                    continue
                (j, m), = others.items()
                narrowed[j] &= ~m
                if not narrowed[j]:
                    break
        else:
            if _countermodel(narrowed, rest, budget):
                return True
    return False


def _versions(instance: Instance, views, max_nodes: int = DEFAULT_SEARCH_BOUND) -> _Versions:
    instances = enumerate_secrecy_instances(instance, views, max_nodes=max_nodes)
    if not instances:
        raise CrossCheckError("no secrecy instance to take answers over")
    return _Versions(instances)


def secret_answers(instance: Instance, views, query: Query,
                   max_nodes: int = DEFAULT_SEARCH_BOUND) -> SecretAnswerReport:
    """Answers certain across every secrecy instance of `instance`."""
    _check_rule(query, instance.schema, allow_null=True)
    return _versions(instance, views, max_nodes).report(query)


def _atomic_query(schema: Schema, relation: str) -> Query:
    rel = schema.relation(relation)
    out = tuple(Var(f"X{i}") for i in range(1, rel.arity + 1))
    return Query(out, (Atom(relation, out),), ())


def _answer_instance(versions: _Versions) -> Instance:
    schema = versions.instances.base.schema
    rows = {}
    for name in schema.names():
        report = versions.report(_atomic_query(schema, name))
        rows[name] = sorted(report.answers, key=lambda vs: [v.sort_key() for v in vs])
    return Instance.from_values(schema, rows)


def secrecy_answer_instance(instance: Instance, views) -> Instance:
    """Instance assembled from the secret answers to every atomic query,
    with fresh tuple ids assigned in canonical row order."""
    return _answer_instance(_versions(instance, views))


def check_no_leakage(instance: Instance, views) -> LeakageReport:
    """For every view, compare the secret answers to the view query with
    the view's extension on the secrecy answer instance."""
    versions = _versions(instance, views)
    answer_instance = _answer_instance(versions)
    failures = []
    for view in views:
        lhs = versions.report(view).answers
        rhs = eval_n(answer_instance, view)
        if lhs != rhs:
            failures.append((view.name, lhs, rhs))
    return LeakageReport(not failures, tuple(failures))
