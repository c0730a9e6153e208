"""Information orders and enumeration of secrecy instances.

A secrecy instance of a base instance D is an id-correlated null
degradation of D that is admissible for the view set and whose set of
nulled cells is inclusion-minimal among such degradations.

View bodies hold no null constants and view built-ins neither mention
null nor test for it, so nulling a cell can only destroy a body match or
null one of its head values: admissibility is monotone in the set of
nulled cells.  Enumeration therefore evaluates each view once and keeps
its violating matches (comparisons hold, no combination variable binds
null, some head value is non-null).  A match is resolved by nulling any
one of its combination cells, or all of its non-null head cells, and the
secrecy instances are exactly the inclusion-minimal cell sets resolving
every match: the minimal covers of a hypergraph, the monotone
dualization setting of Eiter & Gottlob (1995).  A search that branches
on the first unresolved match reaches every minimal cover; the leaves
that are not minimal are dropped, and a final pass re-verifies
admissibility, strict minimality and pairwise incomparability of
everything kept with real admissibility checks.

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
from .lang import Const, ViewDef
from .model import Cell, ChangeSet, Instance, Row, apply_changes, diff_changes, sorted_cells
from .semantics import builtin_classical, iter_matches, relevant_vars
from .views import is_admissible

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


def _potential_violations(instance: Instance, view: ViewDef):
    """Matched rows of the body matches that could force an update:
    comparisons hold with null as ordinary constant and no combination
    variable binds null."""
    relevant = relevant_vars(view)
    for env, rows in iter_matches(instance.rows, view.body):
        if any(env[name].is_null for name in relevant):
            continue
        if not all(builtin_classical(b, env) for b in view.phi):
            continue
        yield rows


def _match_cells(instance: Instance, view: ViewDef):
    """Per potentially violating match of `view`: its combination cells,
    the cells matched by body constants, and the non-null cells of the
    remaining head variables.  Nulling a cell of either of the first two
    kinds destroys the match."""
    relevant = relevant_vars(view)
    head = {v.name for v in view.head}
    for rows in _potential_violations(instance, view):
        combination, constant, heads = set(), set(), set()
        for atom, row in zip(view.body, rows):
            for pos, (term, value) in enumerate(zip(atom.args, row.values), 1):
                cell = Cell(atom.pred, row.tid, pos)
                if isinstance(term, Const):
                    constant.add(cell)
                elif term.name in relevant:
                    combination.add(cell)
                elif term.name in head and not value.is_null:
                    heads.add(cell)
        yield combination, constant, heads


def candidate_cells(instance: Instance, views, mode: EnumerationMode) -> frozenset:
    """Cells an update may null.  The default pool collects, per
    potentially violating match, the combination- and secrecy-variable
    positions of the matched tuples; the exhaustive pool is every
    non-null cell."""
    if mode is EnumerationMode.EXHAUSTIVE:
        return frozenset(instance.cells())
    cells = set()
    for view in views:
        for combination, _, heads in _match_cells(instance, view):
            cells |= combination | heads
    return frozenset(cells)


def _violating_matches(instance: Instance, views,
                       pool: frozenset) -> list[tuple[frozenset, ...]]:
    """For each violating match, the sets of `pool` cells that each
    resolve it: every single pool cell whose nulling destroys the match
    and, when no head variable is relevant, all non-null head cells
    together.  A match whose head values are all null does not violate
    its view."""
    matches = []
    for view in views:
        head_relevant = bool({v.name for v in view.head} & relevant_vars(view))
        for combination, constant, heads in _match_cells(instance, view):
            options = [frozenset({cell})
                       for cell in sorted_cells((combination | constant) & pool)]
            if not head_relevant:
                if not heads:
                    continue
                options.append(frozenset(heads))
            matches.append(tuple(options))
    return matches


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
    pool = candidate_cells(instance, views, mode)
    if len(pool) > max_cells:
        raise BoundExceededError(
            f"{len(pool)} candidate cells exceed the bound {max_cells}")
    kept = _minimal_covers(_violating_matches(instance, views, pool))
    _verify_solutions(instance, views, kept)
    solutions = [SecrecySolution(c, apply_changes(instance, c)) for c in kept]
    solutions.sort(key=SecrecySolution.sort_key)
    return solutions


def _verify_solutions(instance: Instance, views, kept: list[frozenset]) -> None:
    """Re-verify admissibility, strict minimality (no one-cell-removed
    subset admissible) and pairwise incomparability of the kept sets;
    a failure here would mean the search itself is broken."""
    for changes in kept:
        if not is_admissible(apply_changes(instance, changes), views, cross_check=False):
            raise CrossCheckError(f"kept change set is not admissible: {set(changes)}")
        for cell in changes:
            smaller = changes - {cell}
            if is_admissible(apply_changes(instance, smaller), views, cross_check=False):
                raise CrossCheckError(
                    f"kept change set is not minimal: {set(changes)} minus {cell.token()}")
    for a in kept:
        for b in kept:
            if a != b and a <= b:
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
            f"{len(cells)} non-null cells exceed the oracle bound {max_cells}")
    minimal = _minimal_sweep(instance, views, cells, cross_check=True)
    solutions = [SecrecySolution(c, apply_changes(instance, c)) for c in minimal]
    solutions.sort(key=SecrecySolution.sort_key)
    return solutions
