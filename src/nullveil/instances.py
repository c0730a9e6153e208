"""Information orders, enumeration of secrecy instances, and its oracle.

A secrecy instance of a base instance D is an id-correlated null
degradation of D that is admissible, every view being null on it (its
SQL-like extension empty or the all-null row), and whose set of nulled
cells is inclusion-minimal among such degradations.

Enumeration evaluates each view over D once, as `semantics.update_view`
writes it, so that a body constant's cell is a combination cell, as in
the program of `asp`, for the violating matches (comparisons hold, no
combination variable binds null, some head value is non-null).  Nulling
one of a match's combination cells, or all of its non-null head cells,
resolves it; `_edges` writes that as edges, and the secrecy instances
are their minimal transversals (the monotone dualization setting of
Eiter & Gottlob 1995), which the MMCS search of Murakami & Uno (2014)
finds once each, over the base.

Two edges that hold cells of one row (relation, tid) are in one
component, and the minimal transversals of the edges are the unions of
one minimal transversal of each component, for the components share no
cell.  So MMCS runs once per component, and `enumerate_secrecy_instances`
returns the product lazily (`SecrecyInstances`): its length is the
product of the counts, and only iterating it builds the change sets.
One `solver.NodeBudget` of `max_nodes` bounds a call: the MMCS nodes
of every component, then the instances to assemble from two or more
components, and the countermodel searches of `answers`, which share it.
Since the components share no row either, each row's version in a
secrecy instance depends on its own component's transversal alone,
which is what lets `answers` decide secret answers without the product.

That the transversals are the secrecy instances rests on a precondition
on the views, which `update_view` checks with the parser's own
`lang._check_rule`: view bodies hold no null constants, and view
built-ins neither mention null nor test for it (no `isnull` or
`isnotnull`).  Nulls then live only in the data, and for a set C of
non-null cells, D_C = D with C nulled is admissible exactly when C
meets every edge, that is, resolves every violating match of D:

* a violating match of D_C is one of D: each of its combination cells
  is non-null in D_C, so unchanged, and the same rows match in D with
  the same combination values, so the comparisons hold there too; its
  non-null head cell is unchanged as well.  C holds none of that
  match's combination cells and not all of its non-null head cells, so
  C misses one of its edges;
* a violating match of D whose edges C does not all meet is one of D_C:
  C nulls none of its combination cells, so the same rows still match
  with the same combination values, and some non-null head cell stays.

So admissibility is monotone in C, and the minimal admissible C are the
minimal transversals.  A view with `isnull(B)` breaks the first step:
nulling B creates a violating match that D does not have, and a
non-admissible instance would pass; the precondition rejects such a view
with a `SemanticError` before any search.  The tests check the
equivalence on random change sets and the transversals against
`oracle_secrecy_instances`, a powerset scan of every non-null cell that
assumes no monotonicity and reads the views as given, whose
`is_admissible` cross-checks evaluation with a classical sentence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, product
from math import prod

from .errors import BoundExceededError, CrossCheckError
from .lang import BuiltinAtom, Var, ViewDef
from .model import (NULL, Cell, ChangeSet, Instance, Row, apply_changes, diff_changes,
                    sorted_cells)
from .semantics import (builtin_classical, eval_n, iter_matches, relevant_vars, scan,
                        update_view)
from .solver import DEFAULT_SEARCH_BOUND, NodeBudget

DEFAULT_ORACLE_CELL_BOUND = 16


@dataclass(frozen=True, slots=True)
class SecrecySolution:
    """An inclusion-minimal admissible change set over its base; the
    `instance` property builds the secrecy instance anew on each read."""

    changes: ChangeSet
    base: Instance

    @property
    def instance(self) -> Instance:
        return apply_changes(self.base, self.changes)


def tuple_leq(t1, t2) -> bool:
    """Componentwise information order: each position equal or null on
    the left.  `(a, null)` is below `(a, b)`; the order is reflexive."""
    v1 = t1.values if isinstance(t1, Row) else tuple(t1)
    v2 = t2.values if isinstance(t2, Row) else tuple(t2)
    if len(v1) != len(v2):
        raise ValueError(f"length mismatch: {len(v1)} vs {len(v2)}")
    return all(a == b or a.is_null for a, b in zip(v1, v2))


def instance_leq_D(base: Instance, d1: Instance, d2: Instance) -> bool:
    """Closeness-to-base order on correlated null degradations of `base`:
    d1 is below d2 when d1's change set is contained in d2's."""
    changes1 = diff_changes(base, d1)
    changes2 = diff_changes(base, d2)
    return changes1 <= changes2


@dataclass(frozen=True, slots=True)
class AttrSets:
    """Positions (relation, 1-based index) a view makes update-relevant."""

    combination: frozenset
    secrecy: frozenset


def attr_sets(view: ViewDef) -> AttrSets:
    """The view's combination and secrecy attributes.  They can overlap
    without any head variable being relevant: in `V(X) :- P(X,Y), P(Y,Z).`
    position P.1 holds both X and Y.  Whether a view allows secrecy-side
    updates is therefore decided by the variables (a relevant head
    variable forbids them), never by overlapping positions."""
    relevant = relevant_vars(view)
    head = {v.name for v in view.out}
    combination = set()
    secrecy = set()
    for atom in view.body:
        for pos, term in enumerate(atom.args, 1):
            if not isinstance(term, Var):
                continue
            if term.name in relevant:
                combination.add((atom.pred, pos))
            if term.name in head:
                secrecy.add((atom.pred, pos))
    return AttrSets(frozenset(combination), frozenset(secrecy))


def _edges(instance: Instance, views) -> tuple[frozenset, ...]:
    """The edges of the violating matches, each once, in the order the
    matches give them, from one evaluation of each view as `update_view`
    writes it.  With D a violating match's combination cells, the match
    gives the edge D when a head variable is relevant, and otherwise one
    edge D | {h} per non-null head cell h: "a cell of D, or all the head
    cells" in conjunctive normal form.  A view outside the precondition
    of the module docstring raises `SemanticError`."""
    edges = {}  # in insertion order, not the hash seed's
    for view in views:
        view = update_view(view, instance.schema)
        relevant = relevant_vars(view)
        head = {v.name for v in view.out}
        head_relevant = bool(head & relevant)
        for env, rows in iter_matches(scan(instance), view.body):
            if any(env[name].is_null for name in relevant):
                continue
            if not all(builtin_classical(b, env) for b in view.builtins):
                continue
            destroying, heads = set(), {}
            for atom, row in zip(view.body, rows):
                for pos, (term, value) in enumerate(zip(atom.args, row.values), 1):
                    if term.name in relevant:
                        destroying.add(Cell(atom.pred, row.tid, pos))
                    elif term.name in head and not value.is_null:
                        heads[Cell(atom.pred, row.tid, pos)] = None
            destroying = frozenset(destroying)
            if head_relevant:
                edges[destroying] = None
            else:
                edges.update(dict.fromkeys(destroying | {cell} for cell in heads))
    return tuple(edges)


# perfbench/run.py:146-147 counts a question's candidate cells through
# `candidate_cells(instance, views, EnumerationMode.TARGETED)`, and
# perfbench/tracing.py:31 wraps `candidate_cells`; both stay for them.
class EnumerationMode(enum.Enum):
    TARGETED = "targeted"


def candidate_cells(instance: Instance, views, mode: EnumerationMode) -> frozenset:
    """The cells of the edges, every cell an update may null; `mode` is
    ignored."""
    return frozenset().union(*_edges(instance, views))


def _minimal_transversals(edges, budget: NodeBudget | None = None) -> list[frozenset]:
    """All inclusion-minimal cell sets meeting every edge of the sequence
    `edges`, each found once by the MMCS search of Murakami & Uno (2014).

    A node branches on its unmet edge with the fewest candidate cells, the
    earliest in `edges` among equals, so the search tree is the same in
    every process; the first child loses them all as candidates, and each
    later one gets the earlier ones back, so no set is reached twice.  A
    child is pushed only while each chosen cell keeps a critical edge, one
    that no other chosen cell meets: no cell of a minimal transversal
    lacks one, and a node with every edge met is then minimal.  An empty
    edge leaves no transversal; no edges leave the empty one.
    """
    budget = budget or NodeBudget()
    occurs: dict[Cell, set] = {}  # cell -> the numbers of the edges it meets
    for number, edge in enumerate(edges):
        for cell in edge:
            occurs.setdefault(cell, set()).add(number)
    found = []
    # chosen cells, their critical edges, unmet edges, candidates; a stack
    # rather than recursion, for the depth reaches the pool size
    stack = [((), (), frozenset(range(len(edges))), frozenset(occurs))]
    while stack:
        chosen, critical, unmet, candidates = stack.pop()
        budget.visit("secrecy-instance search", "transversals")
        if not unmet:
            found.append(frozenset(chosen))
            budget.found += 1
            continue
        # min keeps the first of equals: ties go to the lowest number
        branch = min((edges[number] & candidates for number in sorted(unmet)), key=len)
        candidates = candidates - branch
        for cell in sorted_cells(branch):
            met = occurs[cell]
            kept = tuple(crit - met for crit in critical)
            if all(kept):
                stack.append((chosen + (cell,), kept + (unmet & met,),
                              unmet - met, candidates))
            candidates = candidates | {cell}
    return found


def _components(edges) -> list[list[frozenset]]:
    """The edges in connected components, two edges joined when they hold
    cells of one row (relation, tid): each component's edges in their
    order in `edges`, and the components in the order of their first
    edges, so the split does not follow the hash seed.  Empty edges,
    which no row holds, make one component of their own."""
    root: dict = {}  # row -> another row of its component, or itself

    def find(row):
        while root[row] != row:
            row = root[row]
        return row

    for edge in edges:
        rows = [(cell.relation, cell.tid) for cell in edge]
        for row in rows:
            root.setdefault(row, row)
        for row in rows[1:]:
            root[find(row)] = find(rows[0])
    components: dict = {}
    for edge in edges:
        key = find(next((c.relation, c.tid) for c in edge)) if edge else None
        components.setdefault(key, []).append(edge)
    return list(components.values())


class SecrecyInstances:
    """The secrecy instances of `base`, lazily, as the product of its
    components' alternatives.

    `components` holds per component its alternatives: change sets over
    rows that no other component's alternatives touch, here the
    component's minimal transversals in canonical order.  A secrecy
    instance picks one alternative per component and nulls their union.
    The length is the product of the counts, computed without building
    the product; iterating builds and sorts it on each call, and yields
    `SecrecySolution`s in canonical order.  Each instance assembled from
    two or more components is one node of `budget`, checked before the
    first is built.
    """

    def __init__(self, base: Instance, components: tuple[tuple[ChangeSet, ...], ...],
                 budget: NodeBudget | None = None):
        self.base = base
        self.components = components
        self.budget = budget or NodeBudget()

    def __len__(self) -> int:
        return prod(len(alternatives) for alternatives in self.components)

    def choices(self) -> list[tuple[ChangeSet, tuple[int, ...]]]:
        """Every secrecy instance as its change set and the index of the
        alternative it picks in each component, in canonical order."""
        self.budget.assemble("secrecy-instance search", self.components,
                             "component transversals", "instances")
        picked = []
        for choice in product(*(range(len(a)) for a in self.components)):
            changes = frozenset().union(*(a[i] for a, i in zip(self.components, choice)))
            picked.append((changes, choice))
        return sorted(picked, key=lambda item: sorted_cells(item[0]))

    def __iter__(self):
        return (SecrecySolution(changes, self.base) for changes, _ in self.choices())


# --------------------------------------------------------------------------
# the brute-force oracle: admissibility by evaluation, and a powerset sweep

def is_null_view(instance: Instance, view: ViewDef) -> bool:
    """True iff the view's SQL-like extension is empty or all-null."""
    return eval_n(instance, view) <= {(NULL,) * len(view.out)}


# complements; an order comparison and its complement are both false on null
_NEGATION = {"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<",
             "isnull": "isnotnull", "isnotnull": "isnull"}


def null_view_sentence_holds(instance: Instance, view: ViewDef) -> bool:
    """Classical check that the view is null: for every body match, some
    combination variable is null, or all head variables are, or some
    comparison conjunct fails (negated member-wise, null treated as an
    ordinary constant)."""
    relevant = relevant_vars(view)
    head = tuple(v.name for v in view.out)
    negated = [BuiltinAtom(_NEGATION[b.op], b.args) for b in view.builtins]
    for env, _ in iter_matches(scan(instance), view.body):
        if any(env[name].is_null for name in relevant):
            continue
        if all(env[name].is_null for name in head):
            continue
        if any(builtin_classical(b, env) for b in negated):
            continue
        return False
    return True


def is_admissible(instance: Instance, views) -> bool:
    """True iff every view in `views` is null on `instance`.  The
    classical sentence route is evaluated as well and must agree."""
    direct = all(is_null_view(instance, v) for v in views)
    classical = all(null_view_sentence_holds(instance, v) for v in views)
    if direct != classical:
        raise CrossCheckError(
            "admissibility checks disagree: "
            f"direct={direct} sentence={classical} on {instance!r}")
    return direct


def _minimal_sweep(instance: Instance, views, cells: tuple[Cell, ...]) -> list[frozenset]:
    """All inclusion-minimal admissible subsets of `cells`.

    Sweeping sizes upward, a subset containing an already-kept set is not
    minimal regardless of its own admissibility, so it is skipped without
    testing; every kept set is therefore minimal and every minimal set is
    reached.
    """
    kept: list[frozenset] = []
    for size in range(len(cells) + 1):
        for combo in combinations(cells, size):
            changes = frozenset(combo)
            if any(k <= changes for k in kept):
                continue
            if is_admissible(apply_changes(instance, changes), views):
                kept.append(changes)
    return kept


def enumerate_secrecy_instances(instance: Instance, views,
                                max_nodes: int = DEFAULT_SEARCH_BOUND) -> SecrecyInstances:
    """All secrecy instances of `instance` for the view set, as change
    sets in canonical order: the lazy product of the minimal transversals
    of each component of the edges, each component searched alone.  An
    admissible instance yields the single empty-change solution."""
    edges = _edges(instance, views)
    budget = NodeBudget(max_nodes)
    return SecrecyInstances(instance, tuple(
        tuple(sorted(_minimal_transversals(component, budget), key=sorted_cells))
        for component in _components(edges)), budget)


def oracle_secrecy_instances(instance: Instance, views,
                             max_cells: int = DEFAULT_ORACLE_CELL_BOUND) -> list[SecrecySolution]:
    """Ground-truth enumeration: scan the powerset of all non-null cells,
    keep admissible change sets, filter to inclusion-minimal ones.
    Admissibility runs with its built-in cross check.  Supersets of kept
    sets are skipped for the same minimality reason as in the sweep."""
    cells = sorted_cells(instance.cells())
    if len(cells) > max_cells:
        raise BoundExceededError(
            f"secrecy-instance oracle exceeded its bound of {max_cells} "
            f"non-null cells ({len(cells)} cells in the instance)")
    return [SecrecySolution(changes, instance)
            for changes in sorted(_minimal_sweep(instance, views, cells), key=sorted_cells)]
