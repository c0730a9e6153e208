"""Information orders and enumeration of secrecy instances.

A secrecy instance of a base instance D is an id-correlated null
degradation of D that is admissible for the view set and whose set of
nulled cells is inclusion-minimal among such degradations.

Enumeration evaluates each view over D once.  That one pass gives both
the candidate pool, checked against `max_cells`, and the violating
matches (comparisons hold, no combination variable binds null, some head
value is non-null), each with the pool cells that resolve it: any one of
its combination or body-constant cells, or all of its non-null head
cells.  The secrecy instances are exactly the inclusion-minimal cell
sets resolving every match: the minimal covers of a hypergraph, the
monotone dualization setting of Eiter & Gottlob (1995).  A search that
branches on the first unresolved match reaches every minimal cover, and
the leaves that are not minimal are dropped; minimal covers are pairwise
incomparable by definition.  Each cover is returned over its base.

That the covers are the secrecy instances rests on a precondition on
the views, which `_pool_and_options` checks with the parser's own
`lang._check_rule`: view bodies hold no null constants, and view
built-ins neither mention null nor test for it (no `isnull` or
`isnotnull`).  Nulls then live only in the data, and for a set C of
non-null cells, D_C = D with C nulled is admissible exactly when C
resolves every violating match of D:

* a violating match of D_C is one of D: each of its combination and
  body-constant cells is non-null in D_C, so unchanged, and the same
  rows match in D with the same combination values, so the comparisons
  hold there too; its non-null head cell is unchanged as well.  C holds
  none of that match's combination or body-constant cells and not all
  of its non-null head cells, so C leaves it unresolved;
* a violating match of D that C leaves unresolved is one of D_C: C
  nulls none of its combination or body-constant cells, so the same rows
  still match with the same combination values, and some non-null head
  cell stays.

So admissibility is monotone in C, and the minimal admissible C are the
minimal covers.  A view with `isnull(B)` breaks the first step: nulling
B creates a violating match that D does not have, and the covers would
include a non-admissible instance; the precondition rejects such a view with a
`SemanticError` before any search.  The tests check the equivalence on
random change sets and compare the covers with `oracle_secrecy_instances`
and with a sweep of the pool.

The search chooses cells from one of two candidate pools: the default
pool of combination and secrecy positions of tuples in potentially
violating body matches (mirroring the shape of the compiled update
program), and an exhaustive pool of every non-null cell.  Nulling a cell
matched by a body constant destroys the match too; the exhaustive pool
holds every such cell, the default pool only those that are targets of
some match, so on views whose bodies hold no constants the two modes
agree.

`oracle_secrecy_instances` is the independent reference: it sweeps
subsets of every non-null cell in increasing size with a cross-checked
admissibility test on each, and assumes no monotonicity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from .errors import BoundExceededError
from .lang import Const, _check_rule
from .model import Cell, ChangeSet, Instance, Row, apply_changes, diff_changes, sorted_cells
from .semantics import builtin_classical, iter_matches, relevant_vars, scan
from .views import is_admissible

DEFAULT_ORACLE_CELL_BOUND = 16
DEFAULT_CELL_BOUND = 24


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


def _pool_and_options(instance: Instance, views, mode: EnumerationMode,
                      max_cells: int | None = None) -> tuple[frozenset, list]:
    """The candidate pool and, per violating match, the sets of pool cells
    that each resolve it, from one evaluation of each view.

    The default pool holds the combination cells and non-null head cells
    of every match whose comparisons hold and whose combination variables
    are non-null; the exhaustive pool is every non-null cell.  Each pool
    cell at a combination or body-constant position of a match is one
    option; when no head variable is relevant, so is the set of its
    non-null head cells, and a match without any does not violate its
    view.  With `max_cells`, a larger pool raises `BoundExceededError`,
    the exhaustive pool before any view is evaluated.  A view outside the
    precondition of the module docstring raises `SemanticError`.
    """
    def bounded(pool: frozenset) -> frozenset:
        if max_cells is not None and len(pool) > max_cells:
            raise BoundExceededError(
                f"secrecy-instance enumeration exceeded its bound of {max_cells} "
                f"candidate cells ({len(pool)} cells in the pool)")
        return pool

    pool = None
    if mode is EnumerationMode.EXHAUSTIVE:
        pool = bounded(frozenset(instance.cells()))
    targets, matches = set(), []  # matches: (destroying cells, head option)
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
            destroying, heads = set(), set()
            for atom, row in zip(view.body, rows):
                for pos, (term, value) in enumerate(zip(atom.args, row.values), 1):
                    cell = Cell(atom.pred, row.tid, pos)
                    if isinstance(term, Const):
                        destroying.add(cell)
                    elif term.name in relevant:
                        destroying.add(cell)
                        targets.add(cell)
                    elif term.name in head and not value.is_null:
                        heads.add(cell)
            targets |= heads
            if head_relevant:
                matches.append((destroying, ()))
            elif heads:
                matches.append((destroying, (frozenset(heads),)))
    if pool is None:
        pool = bounded(frozenset(targets))
    return pool, [tuple(frozenset({cell}) for cell in sorted_cells(destroying & pool))
                  + head_option for destroying, head_option in matches]


def candidate_cells(instance: Instance, views, mode: EnumerationMode) -> frozenset:
    """Cells an update may null.  The default pool collects, per
    potentially violating match, the combination- and secrecy-variable
    positions of the matched tuples; the exhaustive pool is every
    non-null cell."""
    if mode is EnumerationMode.EXHAUSTIVE:
        return frozenset(instance.cells())
    return _pool_and_options(instance, views, mode)[0]


def _resolves(chosen: frozenset, options: tuple[frozenset, ...]) -> bool:
    return any(option <= chosen for option in options)


def _minimal_covers(matches: list[tuple[frozenset, ...]]) -> list[frozenset]:
    """All inclusion-minimal cell sets resolving every match.

    The search branches on the first match the chosen cells leave
    unresolved, one child per way to resolve it.  Some way lies inside
    any cover that contains the chosen cells, so every minimal cover is
    a leaf; a leaf is kept when no one-cell-smaller set still covers.
    """
    leaves, seen = [], set()
    stack = [(frozenset(), 0)]  # chosen cells, index before which all are resolved
    while stack:
        chosen, start = stack.pop()
        if chosen in seen:
            continue
        seen.add(chosen)
        for i in range(start, len(matches)):
            if not _resolves(chosen, matches[i]):
                stack.extend((chosen | option, i + 1) for option in matches[i])
                break
        else:
            leaves.append(chosen)
    return [cover for cover in leaves
            if not any(all(_resolves(cover - {cell}, m) for m in matches)
                       for cell in cover)]


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
                                max_cells: int = DEFAULT_CELL_BOUND) -> list[SecrecySolution]:
    """All secrecy instances of `instance` for the view set, as change
    sets in canonical order.  An admissible instance yields the single
    empty-change solution."""
    _, options = _pool_and_options(instance, views, mode, max_cells)
    return [SecrecySolution(changes, instance)
            for changes in sorted(_minimal_covers(options), key=sorted_cells)]


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
