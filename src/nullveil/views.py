"""Static analysis of secrecy views and the admissibility checks.

A secrecy view is a named conjunctive query (`lang.ViewDef` is a
`Query`), so its extension is `eval_n` of the view itself.  It is
*null* on an instance when that extension is empty or consists of the
single all-null row; an instance is *admissible* for a view set when
every view is null on it.  Admissibility is decided twice: directly,
by evaluating each view under the SQL-like semantics, and classically,
through a universally quantified sentence saying that every body match
either binds some combination variable to null, binds every head
variable to null, or falsifies the comparison conjunction.
The two routes must agree; a disagreement is an internal fault and is
reported as such rather than silently picking one side.

Attribute sets are the paper's description of where an update may
touch: *combination* attributes are the positions of relevant
(join/comparison) variables, *secrecy* attributes the positions of head
variables.  The compiler and the enumeration decide per variable, not per
position (see `attr_sets`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossCheckError
from .lang import Var, ViewDef
from .model import Instance, NULL
from .semantics import (builtin_classical, eval_n, iter_matches, negate_builtin,
                        relevant_vars, scan)


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


def is_null_view(instance: Instance, view: ViewDef) -> bool:
    """True iff the view's SQL-like extension is empty or all-null."""
    answers = eval_n(instance, view)
    all_null_row = (NULL,) * len(view.out)
    return answers <= {all_null_row}


def null_view_sentence_holds(instance: Instance, view: ViewDef) -> bool:
    """Classical check that the view is null: for every body match, some
    combination variable is null, or all head variables are, or some
    comparison conjunct fails (negated member-wise, null treated as an
    ordinary constant)."""
    relevant = relevant_vars(view)
    head = tuple(v.name for v in view.out)
    negated = [negate_builtin(b) for b in view.builtins]
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
