"""Information orders and enumeration of secrecy instances.

A secrecy instance of a base instance D is an id-correlated null
degradation of D that is admissible for the view set and whose set of
nulled cells is inclusion-minimal among such degradations.

Enumeration evaluates each view over D once, for the candidate pool
and the violating matches (comparisons hold, no combination variable
binds null, some head value is non-null).
Nulling one of a match's combination or body-constant cells, or all of
its non-null head cells, resolves it; `_pool_and_options` writes that as
edges, and the secrecy instances are their minimal transversals (the
monotone dualization setting of Eiter & Gottlob 1995), which the MMCS
search of Murakami & Uno (2014) finds once each, over the base.

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
on the views, which `_pool_and_options` checks with the parser's own
`lang._check_rule`: view bodies hold no null constants, and view
built-ins neither mention null nor test for it (no `isnull` or
`isnotnull`).  Nulls then live only in the data, and for a set C of
non-null pool cells, D_C = D with C nulled is admissible exactly when C
meets every edge, that is, resolves every violating match of D:

* a violating match of D_C is one of D: each of its combination and
  body-constant cells is non-null in D_C, so unchanged, and the same
  rows match in D with the same combination values, so the comparisons
  hold there too; its non-null head cell is unchanged as well.  C holds
  none of that match's combination or body-constant cells and not all
  of its non-null head cells, so C misses one of its edges;
* a violating match of D whose edges C does not all meet is one of D_C:
  C nulls none of its combination or body-constant cells, so the same
  rows still match with the same combination values, and some non-null
  head cell stays.

So admissibility is monotone in C, and the minimal admissible C are the
minimal transversals.  A view with `isnull(B)` breaks the first step:
nulling B creates a violating match that D does not have, and a
non-admissible instance would pass; the precondition rejects such a view
with a `SemanticError` before any search.  The tests check the
equivalence on random change sets and the transversals against
`oracle_secrecy_instances`, a sweep of the pool and a brute-force scan
that assumes no monotonicity.

The search chooses cells from one of two candidate pools: the default
pool of combination and secrecy positions of tuples in potentially
violating body matches (mirroring the shape of the compiled update
program), and an exhaustive pool of every non-null cell.  Nulling a cell
matched by a body constant destroys the match too; the exhaustive pool
holds every such cell, the default pool only those that are targets of
some match, so on views whose bodies hold no constants the two modes
agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, product
from math import prod

from .errors import BoundExceededError
from .lang import Const, _check_rule
from .model import Cell, ChangeSet, Instance, Row, apply_changes, diff_changes, sorted_cells
from .semantics import builtin_classical, iter_matches, relevant_vars, scan
from .solver import DEFAULT_SEARCH_BOUND, NodeBudget
from .views import is_admissible

DEFAULT_ORACLE_CELL_BOUND = 16


class EnumerationMode(enum.Enum):
    TARGETED = "targeted"
    EXHAUSTIVE = "exhaustive"


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


def _pool_and_options(instance: Instance, views, mode: EnumerationMode) -> tuple[frozenset, tuple]:
    """The candidate pool and its edges, each once, in the order the
    matches give them, from one evaluation of each view.

    The default pool holds the combination cells and non-null head cells
    of every match whose comparisons hold and whose combination variables
    are non-null; the exhaustive pool is every non-null cell.  With D a
    violating match's pool cells at combination or body-constant
    positions, the match gives the edge D when a head variable is
    relevant, and otherwise one edge D | {h} per non-null head cell h:
    "a cell of D, or all the head cells" in conjunctive normal form.
    A view outside the precondition of the module docstring raises
    `SemanticError`.
    """
    targets, edges = set(), {}  # edges in insertion order, not the hash seed's
    for view in views:
        _check_rule(view, instance.schema, allow_null=False)
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
                    cell = Cell(atom.pred, row.tid, pos)
                    if isinstance(term, Const):
                        destroying.add(cell)
                    elif term.name in relevant:
                        destroying.add(cell)
                        targets.add(cell)
                    elif term.name in head and not value.is_null:
                        heads[cell] = None
            targets.update(heads)
            destroying = frozenset(destroying)
            if head_relevant:
                edges[destroying] = None
            else:
                edges.update(dict.fromkeys(destroying | {cell} for cell in heads))
    pool = frozenset(instance.cells() if mode is EnumerationMode.EXHAUSTIVE else targets)
    # a body-constant cell is in the default pool only as another match's target
    return pool, tuple(dict.fromkeys(edge & pool for edge in edges))


def candidate_cells(instance: Instance, views, mode: EnumerationMode) -> frozenset:
    """Cells an update may null in `mode`: the pool of `_pool_and_options`."""
    return _pool_and_options(instance, views, mode)[0]


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
                                mode: EnumerationMode = EnumerationMode.TARGETED,
                                max_nodes: int = DEFAULT_SEARCH_BOUND) -> SecrecyInstances:
    """All secrecy instances of `instance` for the view set, as change
    sets in canonical order: the lazy product of the minimal transversals
    of each component of the edges, each component searched alone.  An
    admissible instance yields the single empty-change solution."""
    _, edges = _pool_and_options(instance, views, mode)
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
