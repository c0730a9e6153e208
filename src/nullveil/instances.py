"""Information orders and enumeration of secrecy instances.

A secrecy instance of a base instance D is an id-correlated null
degradation of D that is admissible for the view set and whose set of
nulled cells is inclusion-minimal among such degradations.

View bodies hold no null constants and view built-ins neither mention
null nor test for it, so nulling a cell can only destroy a body match or
null one of its head values: admissibility is monotone in the set of
nulled cells.  Enumeration therefore evaluates each view once, and that
one pass gives both the candidate pool, checked against `max_cells`, and
the violating matches (comparisons hold, no combination variable binds
null, some head value is non-null), each with the pool cells that
resolve it: any one of its combination cells, or all of its non-null
head cells.  The secrecy instances are exactly the inclusion-minimal
cell sets resolving every match: the minimal covers of a hypergraph, the
monotone dualization setting of Eiter & Gottlob (1995).  A search that
branches on the first unresolved match reaches every minimal cover, and
the leaves that are not minimal are dropped.

Each kept change set C is then applied once, and that instance D_C is
re-verified as a self-check of the search, which reads none of the
search's matches: D_C must be admissible, restoring any one nulled cell
c must bring a violation back, and the kept sets must be pairwise
incomparable.  None of these checks evaluates a view over all of D_C;
each joins only through the rows that differ, by the delta rule of
Gupta, Mumick & Subrahmanian (1993).  For admissibility, each view is
evaluated over D once, in a pass of its own that keeps the rows of each
violating match.  A match of D_C either uses no row that C changes, and
then it is a match of D with the same rows and the same bindings, or it
runs through a changed row.  So D_C is admissible exactly when every
violating match of D uses a changed row and no match through a changed
row, as it stands in D_C, violates; a join seeded with those rows, the
other atoms scanning D_C, finds the latter.  This split holds for any
views, monotone or not: a nulled cell that created a violation would
show up in the seeded join, so the check is exactly as strong as a full
one.  Minimality starts from the admissible D_C: D_{C-c} differs from
it only in the row of c, so every violation restoring c can cause runs
through the restored row, and a join seeded with that row, the other
atoms scanning D_C with the row in place, finds one if there is one.
Pairwise incomparability takes one bitmask of the kept sets per cell:
the intersection of the masks of the cells of a kept set holds exactly
the kept sets that contain it, so one AND per nulled cell of each set
replaces a comparison of every pair.

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

from .errors import BoundExceededError, CrossCheckError
from .lang import Const
from .model import (Cell, ChangeSet, Instance, Row, apply_changes, changed_rows,
                    diff_changes, sorted_cells)
from .semantics import (builtin_classical, iter_matches, iter_matches_through,
                        relevant_vars, scan)
from .views import is_admissible, violates

DEFAULT_ORACLE_CELL_BOUND = 16
DEFAULT_CELL_BOUND = 24


class EnumerationMode(enum.Enum):
    TARGETED = "targeted"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True, slots=True)
class SecrecySolution:
    """An inclusion-minimal admissible change set with its instance."""

    changes: ChangeSet
    instance: Instance

    def sort_key(self) -> tuple:
        return sorted_cells(self.changes)


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
    the exhaustive pool before any view is evaluated.
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


def _minimal_sweep(instance: Instance, views, cells: tuple[Cell, ...],
                   cross_check: bool) -> list[frozenset]:
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
            if is_admissible(apply_changes(instance, changes), views,
                             cross_check=cross_check):
                kept.append(changes)
    return kept


def enumerate_secrecy_instances(instance: Instance, views,
                                mode: EnumerationMode = EnumerationMode.TARGETED,
                                max_cells: int = DEFAULT_CELL_BOUND) -> list[SecrecySolution]:
    """All secrecy instances of `instance` for the view set, in canonical
    change-set order.  An admissible instance yields the single
    empty-change solution."""
    _, options = _pool_and_options(instance, views, mode, max_cells)
    return _verified_solutions(instance, views, _minimal_covers(options))


def _verified_solutions(instance: Instance, views,
                        kept: list[frozenset]) -> list[SecrecySolution]:
    """The kept change sets with their instances, each built once and
    re-verified: admissible, strictly minimal (restoring any one nulled
    cell brings a violation back) and pairwise incomparable; a failure
    here would mean the search itself is broken."""
    checks = [(view, relevant_vars(view)) for view in views]
    admissible = _delta_admissible(instance, checks)
    solutions = []
    for changes in kept:
        degraded = apply_changes(instance, changes)
        if not admissible(degraded, changes):
            raise CrossCheckError(f"kept change set is not admissible: {set(changes)}")
        for cell in changes:
            if not _restoring_violates(instance, degraded, checks, cell):
                raise CrossCheckError(
                    f"kept change set is not minimal: {set(changes)} minus {cell.token()}")
        solutions.append(SecrecySolution(changes, degraded))
    _check_incomparable(kept)
    solutions.sort(key=SecrecySolution.sort_key)
    return solutions


def _delta_admissible(instance: Instance, checks):
    """Admissibility of the degradations of `instance` for the `checks`
    (pairs of a view and its relevant variables), from one evaluation of
    each view over `instance`: the returned test of a degradation and
    its change set passes when every violating match of `instance` uses
    a changed row and no match through a changed row violates."""
    violations = [frozenset(zip((atom.pred for atom in view.body), (row.tid for row in rows)))
                  for view, relevant in checks
                  for env, rows in iter_matches(scan(instance), view.body)
                  if violates(view, relevant, env)]

    def admissible(degraded: Instance, changes: frozenset) -> bool:
        touched = {(cell.relation, cell.tid) for cell in changes}
        if any(used.isdisjoint(touched) for used in violations):
            return False
        changed = changed_rows(degraded, changes)
        return not any(violates(view, relevant, env) for view, relevant in checks
                       for env, _ in iter_matches_through(scan(degraded), view.body, changed))

    return admissible


def _restoring_violates(base: Instance, degraded: Instance, checks, cell: Cell) -> bool:
    """Whether giving `cell` back its value in `base` makes `degraded`,
    an admissible degradation of `base`, violate one of the `checks`
    (pairs of a view and its relevant variables).  Only matches through
    the restored row can be new, so the join is seeded with that row,
    and the other atoms scan `degraded` with the row in place, where
    self-joins see it."""
    value = base.row(cell.relation, cell.tid).values[cell.pos - 1]
    rows = []
    for row in degraded.rows(cell.relation):
        if row.tid == cell.tid:
            row = restored = Row(row.tid, row.values[:cell.pos - 1] + (value,)
                                 + row.values[cell.pos:])
        rows.append(row)

    def rows_of(atom, env):
        return rows if atom.pred == cell.relation else degraded.rows(atom.pred)

    changed = {cell.relation: (restored,)}
    return any(violates(view, relevant, env) for view, relevant in checks
               for env, _ in iter_matches_through(rows_of, view.body, changed))


def _check_incomparable(kept: list[frozenset]) -> None:
    """Raise unless no kept change set is a subset of another.  Each cell
    gets a bitmask of the kept sets holding it; the intersection of the
    masks of the cells of a set a holds exactly the kept sets that
    contain a, and a itself must be the only one."""
    numbers: dict[Cell, int] = {}
    holders: list[int] = []  # per cell number, the kept sets holding the cell
    members = []  # per kept set, the numbers of its cells
    for i, changes in enumerate(kept):
        mine = []
        for cell in changes:
            n = numbers.setdefault(cell, len(holders))
            if n == len(holders):
                holders.append(0)
            holders[n] |= 1 << i
            mine.append(n)
        members.append(mine)
    everything = (1 << len(kept)) - 1
    for i, mine in enumerate(members):
        containing = everything
        for n in mine:
            containing &= holders[n]
        if containing != 1 << i:
            raise CrossCheckError("kept change sets are not pairwise incomparable")


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
    minimal = _minimal_sweep(instance, views, cells, cross_check=True)
    solutions = [SecrecySolution(c, apply_changes(instance, c)) for c in minimal]
    solutions.sort(key=SecrecySolution.sort_key)
    return solutions
