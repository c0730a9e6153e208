"""Grounder and stable-model enumerator for disjunctive programs.

A rule keeps its four parts apart from the compiler to the search: the
head, a disjunction of atoms; the positive body atoms; the default-
negated body atoms; and the built-in comparisons.  This is the form that
grounders such as gringo work on, and no stage re-splits a mixed body.
Grounding instantiates rules bottom-up over the atoms that can possibly
be derived (facts plus heads of rules whose positive bodies are possibly
derivable), evaluating built-ins away: a false built-in deletes the
instance, a true one is dropped.  A database enters as facts, ground
atoms, the extensional part of the program: each is numbered and kept
as a body-free ground rule, and no rule is built or matched for it.
Positive bodies are matched against the possible atoms by
`semantics.iter_matches`, the same engine that evaluates queries over
instances, so grounding a rule is evaluating its body as a conjunctive
query.  Null is an ordinary constant here, and an order comparison with
a null operand is false, as in `semantics`.  An order comparison over
unordered values (symbols, strings) raises `SemanticError`, as in
`semantics`; no parsed view or query brings one, because `lang` only
accepts an order comparison whose variables occur at `int` columns, so
both routes see the same comparisons.

Grounding is semi-naive (Bancilhon & Ramakrishnan 1986).  It runs in
rounds, and each round reads a snapshot: the possible atoms as they
stood when it began.  The atoms a round derives are added when it ends
and are the next round's delta.  Rules without positive body atoms are
grounded once, in the first round.  Every other rule is matched once per
positive body atom whose predicate gained atoms in the last round: that
atom is matched first, against the delta only, and the others against
the whole snapshot, so every instance found has at least one new atom
and none over the older atoms is found again.  The delta is first
reduced by a semi-join (Bernstein & Chiu 1981, "Using semi-joins to
solve relational queries"): a delta row is dropped when some other
positive atom holds a variable of the seeded atom at a column whose
index in the snapshot lacks the row's value for that variable, and the
match is skipped when some other positive atom's predicate has no atom
yet.  Only rows and matches that could never complete go, so the
instances found, and their order, are those of the unreduced delta.  An
instance with several new atoms is found once per new atom, and the
instances kept so far drop the repeats.  Grounding ends after a round
that derives nothing.  Each ground atom gets the next number, from 1,
the first time grounding meets it, as a head atom or as a negated body
atom; this is the only numbering of ground atoms, and ground rules are
(head, pos, neg) triples of numbers.  A positive body atom is a matched
store row, whose id is its atom's number.  None of this depends on the
hash seed.

The snapshot keeps its atoms per predicate in the order they were
derived, and a hash index from (predicate, position, value) to the
atoms holding that value there.  An atom with a constant or an already
bound variable reads the shortest such index entry instead of scanning
its predicate, so joining on a bound column costs the matching atoms,
not all of them.  A column is indexed the first time a rule probes it
or a semi-join reads it, and kept up to date from then on; columns that
no rule binds cost nothing.

Almost all of a ground secrecy program is decided before any search:
its facts, what they derive, and the atoms nothing can derive.  So one
linear pass settles it first, the standard grounder simplification
(Faber, Leone & Perri 2012, "The intelligent grounder of DLV"; Gebser,
Kaminski, König & Schaub 2011, "Advances in gringo series 3").  An atom
is impossible when no live rule has it in its head, and certain when a
live rule with it as its only head atom has every positive atom certain
and every negated atom impossible.  A rule dies when its body is false
(a positive atom impossible, a negated atom certain) or when a head atom
is certain, which satisfies it; a live constraint whose body is true
leaves no model.  Each of these steps keeps the stable models, also with
disjunction (Brass & Dix 1997, "Characterizations of the disjunctive
stable semantics by partial evaluation").  Search then sees only the
live rules, restricted to the atoms left undecided.  The models come
back as the certain atoms, once, and each model's undecided part as atom
numbers; a caller that needs whole models builds them on reading, and
one that needs only what all models share, as cautious answers do,
intersects the parts.

What is left splits below the query.  The output layer is the live
rules with one head atom that no live rule's body reads and no
disjunction holds: the secrecy program's `ans` rules.  Every other live
rule goes into one connected component of the rest, where two rules are
connected when they share an atom.  The atoms of the other rules form a
splitting set (Lifschitz & Turner 1994, "Splitting a logic program"):
no rule that heads one of them mentions an output atom.  So the stable
models are exactly the unions of a stable model of the rest with the
output atoms whose rules' bodies it makes true, and, as the components
share no atom, the stable models of the rest are exactly the unions of
one stable model of each component.  Without setting the output layer
aside, a secrecy program with k independent violations is one
component, as every violation can derive the same `ans` atom; with it
set aside, it is k components of about 8 search nodes each, and only the
3^k models are assembled, not searched.  Each component is searched on
its own, the components in the order of their least atoms.

Model search branches on a component's atoms in number order, so the
choices (the secrecy program's update atoms) come before the atoms they
decide (its `_t`, `_u` and `_s` atoms), and ground atoms are looked up
only for the returned models, which are then sorted into a canonical
order.  The search is a DPLL enumeration over clauses with an explicit
stack: each ground rule gets a variable equivalent to its body, every
rule is a clause, and every true atom needs some rule with a true body
and the atom in its head.

After unit propagation, every search node runs unfounded-set
propagation.  Let S be the least set of atoms `a` having a rule `r` such
that `a` is in the head of `r`, the body of `r` is not false, every
positive body atom of `r` is in S, and no head atom of `r` outside `a`'s
strongly connected component of the positive dependency graph is true.
Atoms outside S are set false, a true one is a conflict, and the two
propagations alternate until neither assigns anything.  This is sound
for every disjunctive program: if a stable model M extending the
assignment met M - S, take a strongly connected component C that meets
M - S while no component below it does; dropping the atoms of M - S in C from M
leaves a model of the reduct, so M was not minimal.  This is the
unfounded-set fixpoint of Leone, Rullo & Scarcello 1997 ("Disjunctive
stable models: unfounded sets, fixpoint semantics, and computation").
S is computed from scratch at each round, over the component: one pass
over its rules, so each round costs time linear in the component's size.
The split above keeps components small; one that does not split pays
that cost at every round of every node.

When no rule has two head atoms in one strongly connected component,
the program is head-cycle-free and S is exactly the least model of the
shifted reduct (Ben-Eliyahu & Dechter 1994), so every leaf of the search
is a stable model.  Only components whose rules have head cycles check
each leaf for being a minimal model of its reduct, by a satisfiability
search over the model; the certain atoms are in every model of that
reduct, and the other components share no atom with it, so the check
reads the component's rules only.

Grounding and model search are pure; the returned models do not depend
on the order in which the search finds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterable, Iterator

from .errors import BoundExceededError, UnsupportedRuleError
from .lang import Atom, BuiltinAtom, Var
from .model import Row, Value
from .semantics import builtin_classical, iter_matches

DEFAULT_SEARCH_BOUND = 1 << 20


@dataclass(slots=True)
class NodeBudget:
    """The search nodes one call may visit, counted on by its searches in
    turn: `visit` counts one and, past the bound, raises naming the stage,
    the bound and `found`, the progress of the search running now."""

    max_nodes: int = DEFAULT_SEARCH_BOUND
    nodes: int = 0
    found: int = 0

    def visit(self, stage: str, found_what: str) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BoundExceededError(
                f"{stage} exceeded its bound of {self.max_nodes} nodes "
                f"({self.max_nodes} nodes visited, {self.found} {found_what} found so far)")

    def assemble(self, stage: str, parts, found_what: str, what: str) -> None:
        """Before the product of two or more `parts` is built, one node per
        item, raise when it has more items than the nodes left."""
        assembled = prod(map(len, parts))
        if len(parts) > 1 and self.nodes + assembled > self.max_nodes:
            raise BoundExceededError(
                f"{stage} exceeded its bound of {self.max_nodes} nodes "
                f"({self.nodes} nodes visited, {sum(map(len, parts))} {found_what} "
                f"found, {assembled} {what} to assemble)")


GAtom = tuple  # (pred, tuple[Value, ...])


@dataclass(frozen=True, slots=True)
class Rule:
    """A disjunctive rule `head :- pos, not neg, builtins`; an empty head
    is an integrity constraint.

    Safety requires every head, negated and built-in variable to occur in
    some positive body atom.
    """

    head: tuple[Atom, ...]
    pos: tuple[Atom, ...] = ()
    neg: tuple[Atom, ...] = ()
    builtins: tuple[BuiltinAtom, ...] = ()


def fact(atom: Atom) -> Rule:
    return Rule((atom,))


@dataclass(frozen=True, slots=True)
class GroundProgram:
    """Rule instances, built-ins evaluated away, as (head, pos, neg) triples
    of atom numbers; atom n is `atoms[n - 1]`.  `len` counts the rules."""

    atoms: list  # of GAtom
    rules: list  # of (head, pos, neg)

    def __len__(self) -> int:
        return len(self.rules)


def _atom_vars(atom: Atom) -> set:
    return {t.name for t in atom.args if isinstance(t, Var)}


def _check_safety(r: Rule) -> None:
    bound = set().union(*map(_atom_vars, r.pos))
    unsafe = set().union(*map(_atom_vars, r.head + r.neg))
    unsafe |= {t.name for b in r.builtins for t in b.args if isinstance(t, Var)}
    unsafe -= bound
    if unsafe:
        raise UnsupportedRuleError(
            f"unsafe rule: variables {sorted(unsafe)} not bound by a positive atom")


def _ground_atom(atom: Atom, env: dict) -> GAtom:
    return (atom.pred, tuple(
        env[t.name] if isinstance(t, Var) else t.value for t in atom.args))


def _gatom_key(gatom: GAtom) -> tuple:
    return (gatom[0], tuple(v.sort_key() for v in gatom[1]))


class _Store:
    """The numbered ground atoms, the possible ones per predicate in the
    order they were derived, and the index of each column that a rule
    has probed or that a round's seeds were reduced on, one index for
    both.  It is the snapshot a round reads: the atoms a round derives
    are held back until it ends."""

    def __init__(self):
        self.numbers: dict[GAtom, int] = {}  # its keys are the atoms in number order
        self.rows: dict[str, list[Row]] = {}
        # (predicate, position) -> value -> the atoms with it, in order
        self.columns: dict[tuple, dict[Value, list[Row]]] = {}
        self.possible: set[int] = set()
        self.derived: list[tuple] = []  # this round's (number, atom), not yet stored

    def number(self, gatom: GAtom) -> int:
        return self.numbers.setdefault(gatom, len(self.numbers) + 1)

    def derive(self, n: int, gatom: GAtom) -> None:
        if n not in self.possible:
            self.possible.add(n)
            self.derived.append((n, gatom))

    def end_round(self) -> dict[str, list[Row]]:
        """Add this round's atoms; returns them per predicate, the delta."""
        delta: dict[str, list[Row]] = {}
        for n, (pred, values) in self.derived:
            row = Row(n, values)
            self.rows.setdefault(pred, []).append(row)
            delta.setdefault(pred, []).append(row)
            for pos, value in enumerate(values):
                column = self.columns.get((pred, pos))
                if column is not None:
                    column.setdefault(value, []).append(row)
        self.derived = []
        return delta

    def column(self, pred: str, pos: int) -> dict[Value, list[Row]]:
        """The index of column `pos` of `pred`, built the first time it is
        asked for and kept up to date from then on."""
        column = self.columns.get((pred, pos))
        if column is None:
            column = self.columns[pred, pos] = {}
            for row in self.rows.get(pred, []):
                column.setdefault(row.values[pos], []).append(row)
        return column

    def rows_of(self, atom: Atom, env: dict) -> list[Row]:
        """Row source for `iter_matches`: the shortest index entry over
        the atom's constants and bound variables, else every atom of its
        predicate."""
        best = self.rows.get(atom.pred, [])
        for pos, term in enumerate(atom.args):
            value = env.get(term.name) if isinstance(term, Var) else term.value
            if value is None:
                continue
            hits = self.column(atom.pred, pos).get(value, [])
            if len(hits) < len(best):
                best = hits
        return best


def _semi_joins(pos: tuple[Atom, ...], k: int) -> tuple[list, list]:
    """What a row seeding positive atom k of a rule must meet to join the
    rule's other positive atoms: their predicates, each with some atom,
    and a (seed position, predicate, position) triple per place where one
    of them holds a variable of atom k, whose value at its first place in
    atom k must be in that column."""
    first: dict[str, int] = {}
    for i, term in enumerate(pos[k].args):
        if isinstance(term, Var) and term.name not in first:
            first[term.name] = i
    others = pos[:k] + pos[k + 1:]
    keys = [(first[term.name], atom.pred, p) for atom in others
            for p, term in enumerate(atom.args) if isinstance(term, Var) and term.name in first]
    return [atom.pred for atom in others], keys


def ground(rules: Iterable[Rule], facts: Iterable[GAtom] = (),
           max_rules: int = 1_000_000) -> GroundProgram:
    """Instantiate `rules` over the possibly-derivable atoms.

    The `facts`, ground atoms, are numbered first, each as a body-free
    ground rule, so giving an atom here or as a fact rule grounds the
    same.  Saturates: an atom is possibly derivable when it heads a rule
    all of whose positive body atoms are; negation does not gate
    possibility.  A rule's `pos` atoms are matched, its `builtins`
    evaluated and its `head` and `neg` atoms numbered, each read from its
    own field.  Rules are duplicate-free, in derivation order; atoms are
    numbered as met.
    """
    rules = list(rules)
    for r in rules:
        _check_safety(r)
    store = _Store()
    out: dict[tuple, None] = {}  # insertion-ordered, drops repeats
    rounds = 1

    def add(gr: tuple, heads: tuple) -> None:
        """Keep ground rule `gr`, unless kept already, and derive its heads."""
        known = len(out)
        out[gr] = None  # one hash per instance, not two
        if len(out) == known:
            return
        if len(out) > max_rules:
            raise BoundExceededError(
                f"grounding exceeded its bound of {max_rules} ground rules "
                f"({rounds} rounds, {len(store.possible)} possible atoms so far)")
        for n, h in zip(gr[0], heads):
            store.derive(n, h)

    def instantiate(r: Rule, k: int, matches) -> None:
        """Ground rules of the matches of `r.pos` with atom k matched first."""
        for env, matched in matches:
            if not all(builtin_classical(b, env) for b in r.builtins):
                continue
            rows = matched[1:k + 1] + matched[:1] + matched[k + 1:]
            heads = tuple(_ground_atom(a, env) for a in r.head)
            add((tuple(map(store.number, heads)), tuple(row.tid for row in rows),
                 tuple(store.number(_ground_atom(a, env)) for a in r.neg)), heads)

    for gatom in facts:
        add(((store.number(gatom),), (), ()), (gatom,))
    for r in rules:
        if not r.pos:
            instantiate(r, 0, iter_matches(store.rows_of, ()))
    semi_joins = [[_semi_joins(r.pos, k) for k in range(len(r.pos))] for r in rules]
    delta = store.end_round()
    while delta:
        rounds += 1
        for r, reducers in zip(rules, semi_joins):
            for k, (preds, keys) in enumerate(reducers):
                atom = r.pos[k]
                seeds = delta.get(atom.pred)
                if not seeds or not all(pred in store.rows for pred in preds):
                    continue
                for i, pred, pos in keys:
                    column = store.column(pred, pos)
                    seeds = [row for row in seeds if row.values[i] in column]
                    if not seeds:
                        break
                else:
                    order = (atom,) + r.pos[:k] + r.pos[k + 1:]
                    instantiate(r, k, iter_matches(store.rows_of, order, first=seeds))
        delta = store.end_round()
    return GroundProgram(list(store.numbers), list(out))


# --------------------------------------------------------------------------
# stable-model enumeration

_UNDEF, _FALSE, _TRUE = -1, 0, 1


class _Enumerator:
    """DPLL over clauses with per-clause satisfied/unassigned counters and
    a queue of clauses that became unit.

    The search keeps its open branches on an explicit stack, so its depth
    is bounded by `budget` and not by the interpreter's recursion limit.
    Subclasses extend `_propagate` and `_accept`.
    """

    stage = "reduct-minimality check"
    found_what = "models"

    def __init__(self, nvars: int, clauses: list, budget: NodeBudget):
        self.nvars = nvars
        self.unsat = any(not c for c in clauses)
        self.clauses = [c for c in clauses if c]
        self.occ_pos: list[list[int]] = [[] for _ in range(nvars + 1)]
        self.occ_neg: list[list[int]] = [[] for _ in range(nvars + 1)]
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                (self.occ_pos if lit > 0 else self.occ_neg)[abs(lit)].append(idx)
        for occ in (self.occ_pos, self.occ_neg):
            occ[:] = map(tuple, occ)  # read-only from here on; tuples are smaller
        self.sat_count = [0] * len(self.clauses)
        self.unassigned = [len(c) for c in self.clauses]
        self.assign = [_UNDEF] * (nvars + 1)
        self.trail: list[int] = []
        self.pending: list[int] = []
        self.budget = budget

    def _set(self, var: int, value: int) -> bool:
        """Assign, update counters, queue clauses turned unit; False on conflict."""
        self.assign[var] = value
        self.trail.append(var)
        sat_occ = self.occ_pos[var] if value == _TRUE else self.occ_neg[var]
        other_occ = self.occ_neg[var] if value == _TRUE else self.occ_pos[var]
        for idx in sat_occ:
            self.sat_count[idx] += 1
            self.unassigned[idx] -= 1
        ok = True
        for idx in other_occ:
            self.unassigned[idx] -= 1
            if self.sat_count[idx] == 0:
                if self.unassigned[idx] == 0:
                    ok = False
                elif self.unassigned[idx] == 1:
                    self.pending.append(idx)
        return ok

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            var = self.trail.pop()
            value = self.assign[var]
            self.assign[var] = _UNDEF
            sat_occ = self.occ_pos[var] if value == _TRUE else self.occ_neg[var]
            other_occ = self.occ_neg[var] if value == _TRUE else self.occ_pos[var]
            for idx in sat_occ:
                self.sat_count[idx] -= 1
                self.unassigned[idx] += 1
            for idx in other_occ:
                self.unassigned[idx] += 1

    def _drain(self) -> bool:
        """Process queued unit clauses to fixpoint; False on conflict."""
        while self.pending:
            idx = self.pending.pop()
            if self.sat_count[idx] > 0 or self.unassigned[idx] != 1:
                continue  # stale entry
            for lit in self.clauses[idx]:
                var = abs(lit)
                if self.assign[var] == _UNDEF:
                    if not self._set(var, _TRUE if lit > 0 else _FALSE):
                        return False
                    break
        return True

    def _propagate(self) -> bool:
        """Everything implied by the current assignment; False on conflict."""
        return self._drain()

    def _accept(self) -> bool:
        """Whether the complete assignment at a leaf is a solution."""
        return True

    def enumerate(self, branch_vars: list[int]) -> Iterator[list[int]]:
        """Yield complete assignments (live assign arrays) of all accepted
        classical models, branching only on `branch_vars`, false first."""
        if self.unsat:
            return
        self.pending = [idx for idx, clause in enumerate(self.clauses)
                        if len(clause) == 1]
        ok = self._propagate()
        stack: list[tuple[int, int, int]] = []  # (branch index, trail mark, value)
        i = -1
        while True:
            if ok:
                i += 1
                while i < len(branch_vars) and self.assign[branch_vars[i]] != _UNDEF:
                    i += 1
                if i == len(branch_vars):
                    if self._accept():
                        self.budget.found += 1
                        yield self.assign
                else:
                    mark = len(self.trail)
                    stack += ((i, mark, _TRUE), (i, mark, _FALSE))
            if not stack:
                return
            i, mark, value = stack.pop()
            self._undo_to(mark)
            self.budget.visit(self.stage, self.found_what)
            self.pending.clear()
            ok = self._set(branch_vars[i], value) and self._propagate()


def _components(rules: list[tuple], head_occ: list) -> list[int]:
    """Strongly connected component of each atom in the positive
    dependency graph (head atom -> positive body atom of each rule in
    `head_occ[atom]`, the rules it heads); iterative Tarjan."""
    natoms = len(head_occ) - 1

    def successors(v: int) -> Iterator[int]:
        return (p for r in head_occ[v] for p in rules[r][1])

    index = [0] * (natoms + 1)  # DFS number; 0 while unvisited
    low = [0] * (natoms + 1)
    component = [-1] * (natoms + 1)
    stack: list[int] = []
    visited = ncomp = 0
    for root in range(1, natoms + 1):
        if index[root]:
            continue
        visited += 1
        index[root] = low[root] = visited
        stack.append(root)
        work = [(root, successors(root))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not index[w]:
                    visited += 1
                    index[w] = low[w] = visited
                    stack.append(w)
                    work.append((w, successors(w)))
                    break
                if component[w] < 0:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return component


class _StableSearch(_Enumerator):
    """Stable-model search over one component of a settled ground
    program: its undecided atoms `atoms` and its live `rules`, both in
    the program's numbering, as `_split` gives them.

    The search numbers `atoms[i - 1]` as i, so its atoms are 1..natoms
    in program order; rule r of `self.rules` is a (head, pos, neg) triple
    of such numbers with body variable natoms + 1 + r.  The support
    clauses and the strongly connected components read which rules head
    each atom; the founded set, computed afresh at each propagation
    round, reads which rules each atom feeds (`pos_occ`).
    """

    stage = "stable-model search"
    found_what = "component models"

    def __init__(self, atoms: list[int], rules: list[tuple], budget: NodeBudget):
        natoms = len(atoms)
        index = {a: i for i, a in enumerate(atoms, 1)}
        rules = [tuple(tuple(index[a] for a in part) for part in rule) for rule in rules]
        clauses: list[tuple[int, ...]] = []
        head_occ: list[list[int]] = [[] for _ in range(natoms + 1)]  # atom -> rules it heads
        pos_occ: list[list[int]] = [[] for _ in range(natoms + 1)]  # atom -> rules it feeds
        # negative literals, one int object each, shared by all the clauses
        minus = [-v for v in range(natoms + len(rules) + 1)]
        for r, (head, pos, neg) in enumerate(rules):
            body = natoms + 1 + r
            clauses += ((minus[body], p) for p in pos)
            clauses += ((minus[body], minus[n]) for n in neg)
            clauses.append((body, *(minus[p] for p in pos), *neg))
            clauses.append((minus[body], *head))
            for h in head:
                head_occ[h].append(r)
            for p in pos:
                pos_occ[p].append(r)
        # true atoms need support
        clauses += ((minus[a], *(natoms + 1 + r for r in head_occ[a]))
                    for a in range(1, natoms + 1))
        super().__init__(natoms + len(rules), clauses, budget)
        self.atoms = atoms
        self.natoms = natoms
        self.rules = rules
        component = _components(rules, head_occ)
        self.hcf = all(len({component[h] for h in head}) == len(head)
                       for head, _, _ in rules)
        # per rule and head atom: the head atoms outside that atom's component
        self.blockers = [
            tuple(tuple(b for b in head if component[b] != component[a]) for a in head)
            for head, _, _ in rules]
        self.pos_occ = list(map(tuple, pos_occ))  # read-only; tuples are smaller
        self.npos = [len(pos) for _, pos, _ in rules]
        self.unconditional = [r for r, n in enumerate(self.npos) if not n]

    def models(self) -> list[list[int]]:
        """Every stable model, as its true atoms in the program's numbering."""
        branch = list(range(1, self.natoms + 1))
        return [[a for a, i in zip(self.atoms, branch) if assign[i] == _TRUE]
                for assign in self.enumerate(branch)]

    def _propagate(self) -> bool:
        """Unit propagation alternating with unfounded-set propagation
        until neither assigns anything."""
        while self._drain():
            unfounded = self._unfounded()
            if not unfounded:
                return True
            for a in unfounded:
                if self.assign[a] == _TRUE or not self._set(a, _FALSE):
                    return False
        return False

    def _unfounded(self) -> list[int]:
        """The atoms neither founded nor false.  Rule r founds head atom a
        when r's body is not false, every positive body atom of r is
        founded, and no head atom of r outside a's component is true; the
        founded atoms are the least set closed under this."""
        assign, rules, blockers, pos_occ = self.assign, self.rules, self.blockers, self.pos_occ
        body = self.natoms + 1  # the body variable of rule 0
        missing = self.npos[:]  # per rule: its positive atoms not yet founded
        ready = [r for r in self.unconditional if assign[body + r] != _FALSE]
        founded = bytearray(self.natoms + 1)
        value = assign.__getitem__
        while ready:
            r = ready.pop()
            for a, blocked in zip(rules[r][0], blockers[r]):
                if founded[a] or blocked and _TRUE in map(value, blocked):
                    continue
                founded[a] = 1
                for q in pos_occ[a]:
                    missing[q] -= 1
                    if not missing[q] and assign[body + q] != _FALSE:
                        ready.append(q)
        return [a for a in range(1, self.natoms + 1)
                if not founded[a] and assign[a] != _FALSE]

    def _accept(self) -> bool:
        """On a head-cycle-free program every leaf is stable; otherwise
        the model must be a minimal model of its reduct."""
        if self.hcf:
            return True
        assign = self.assign
        model = [a for a in range(1, self.natoms + 1) if assign[a] == _TRUE]
        if not model:
            return True
        clauses = [[-a for a in model]]  # at least one atom off
        for head, pos, neg in self.rules:
            if any(assign[n] == _TRUE for n in neg) or any(assign[p] != _TRUE for p in pos):
                continue  # not in the reduct, or false under every subset
            clauses.append([-p for p in pos] + [h for h in head if assign[h] == _TRUE])
        check = _Enumerator(self.natoms, clauses, NodeBudget(1 << 22))
        return next(check.enumerate(model), None) is None


def _settle(natoms: int, rules: list[tuple]) -> tuple[list[int], list[bool]] | None:
    """The value of each atom (`_TRUE` certain, `_FALSE` impossible,
    `_UNDEF` undecided) and whether each rule lives, after one linear
    fixpoint; None when a live constraint's body is decided true.

    An atom is impossible when no live rule has it in its head; a live
    rule whose head is that one atom, with all its positive atoms certain
    and all its negated atoms impossible, makes it certain.  A rule dies
    when a positive atom is impossible, a negated atom is certain (its
    body is false), or a head atom is certain (it is satisfied).  A
    tautology, a rule with a positive atom in its head, is dead from the
    start.  A rule that repeats an atom counts it once per occurrence.
    Counters only fall and values are set once, so each atom is
    propagated once, through each rule it occurs in."""
    value = [_UNDEF] * (natoms + 1)
    heads = [0] * (natoms + 1)  # live rules that head the atom
    head_occ: list[list[int]] = [[] for _ in range(natoms + 1)]
    pos_occ: list[list[int]] = [[] for _ in range(natoms + 1)]
    neg_occ: list[list[int]] = [[] for _ in range(natoms + 1)]
    left = []  # per rule: positive atoms not certain, negated atoms not impossible
    live = [not any(h in pos for h in head) for head, pos, _ in rules]
    for r, (head, pos, neg) in enumerate(rules):
        left.append(len(pos) + len(neg))
        if not live[r]:
            continue
        for h in head:
            heads[h] += 1
            head_occ[h].append(r)
        for p in pos:
            pos_occ[p].append(r)
        for n in neg:
            neg_occ[n].append(r)
    decided = [a for a in range(1, natoms + 1) if not heads[a]]  # still to propagate
    for a in decided:
        value[a] = _FALSE

    def kill(r: int) -> None:
        live[r] = False
        for h in rules[r][0]:
            heads[h] -= 1
            if not heads[h] and value[h] == _UNDEF:
                value[h] = _FALSE
                decided.append(h)

    def fire(r: int) -> bool:
        """Rule r's body is true: a constraint fails, one head atom is certain."""
        head = rules[r][0]
        if head and head.count(head[0]) == len(head) and value[head[0]] == _UNDEF:
            value[head[0]] = _TRUE
            decided.append(head[0])
        return bool(head)

    if not all(fire(r) for r in range(len(rules)) if live[r] and not left[r]):
        return None
    while decided:
        a = decided.pop()
        body_true, body_false = (pos_occ, neg_occ) if value[a] == _TRUE else (neg_occ, pos_occ)
        for r in body_false[a]:
            if live[r]:
                kill(r)
        if value[a] == _TRUE:
            for r in head_occ[a]:
                if live[r]:
                    kill(r)
        for r in body_true[a]:
            if live[r]:
                left[r] -= 1
                if not left[r] and not fire(r):
                    return None
    return value, live


def _split(value: list[int], residue: list[tuple]) -> tuple[list, list]:
    """The output rules of the residue, and its other rules in connected
    components, as (atoms, rules) pairs in the order of their least atoms.

    An output rule has one head atom, which no rule's body reads and no
    disjunction holds; two rules are connected when they share an atom.
    An undecided atom heads some live rule, so one that is not an output
    atom occurs in a rule of `rest` and its component has rules."""
    read = {a for _, pos, neg in residue for a in pos + neg}
    shared = {h for head, _, _ in residue if len(head) > 1 for h in head}
    output, rest = [], []
    for rule in residue:
        head = rule[0]
        alone = len(head) == 1 and head[0] not in read and head[0] not in shared
        (output if alone else rest).append(rule)
    parent = list(range(len(value)))  # union-find over the atoms of `rest`

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for head, pos, neg in rest:
        first, *others = head + pos + neg
        for a in others:
            parent[root(a)] = root(first)
    output_atoms = {head[0] for head, _, _ in output}
    members: dict[int, list[int]] = {}  # root -> its atoms, by least atom
    for a in range(1, len(value)):
        if value[a] == _UNDEF and a not in output_atoms:
            members.setdefault(root(a), []).append(a)
    rules: dict[int, list[tuple]] = {r: [] for r in members}
    for rule in rest:
        rules[root((rule[0] + rule[1] + rule[2])[0])].append(rule)
    return output, [(members[r], rules[r]) for r in members]


@dataclass(frozen=True, slots=True, eq=False)
class StableModels:
    """The stable models of a ground program, without repeating what they
    share: the `certain` atoms once, and each model's `parts` entry, its
    true undecided atoms as numbers into `atoms`, the program's atoms.
    `len` counts the models; iterating yields each model as the frozenset
    of its ground atoms, and it equals the list of those frozensets."""

    atoms: list  # of GAtom
    certain: frozenset  # of GAtom
    parts: list  # of frozenset[int]

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[frozenset]:
        atoms, certain = self.atoms, self.certain
        return (certain.union([atoms[a - 1] for a in part]) for part in self.parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, StableModels)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def cautious(self) -> frozenset:
        """The atoms true in every model; there must be one."""
        common = frozenset.intersection(*self.parts)
        return self.certain.union([self.atoms[a - 1] for a in common])


def stable_models(program: GroundProgram,
                  max_nodes: int = DEFAULT_SEARCH_BOUND) -> StableModels:
    """All stable models of the ground program: models that are minimal
    models of their own reduct.

    `_settle` first decides the certain and impossible atoms, and `_split`
    sets the output rules aside and splits the other live rules into
    components, restricted to the undecided atoms.  The components are
    searched in the order of their least atoms, each branching in
    atom-number order, so neither the models nor a bound's message depend
    on the order of `program.rules`.  Every model is the certain atoms,
    one model of each component, and the output atoms whose rules' bodies
    that choice makes true; the models are sorted by `_gatom_key` of
    their atoms, and each is returned as its part beyond the certain
    atoms.  The searches share the `max_nodes` bound, and each
    model assembled from two or more components counts as one more node
    against it, checked before the first is built."""
    atoms = program.atoms
    settled = _settle(len(atoms), program.rules)
    if settled is None:
        return StableModels(atoms, frozenset(), [])
    value, live = settled
    certain = frozenset([atoms[a - 1] for a in range(1, len(atoms) + 1) if value[a] == _TRUE])
    # as sets, because a repeated literal would hide a unit clause
    residue = [(tuple(set(head)),
                tuple({p for p in pos if value[p] == _UNDEF}),
                tuple({n for n in neg if value[n] == _UNDEF}))
               for (head, pos, neg), alive in zip(program.rules, live) if alive]
    output, components = _split(value, residue)
    parts = []  # per component: its models
    budget = NodeBudget(max_nodes)
    for component_atoms, rules in components:
        parts.append(_StableSearch(component_atoms, rules, budget).models())
        if not parts[-1]:
            return StableModels(atoms, certain, [])
    budget.assemble(_StableSearch.stage, parts, "component models", "models")
    models = []
    for choice in product(*parts):
        model = set().union(*choice)
        model.update([head[0] for head, pos, neg in output
                      if model.issuperset(pos) and model.isdisjoint(neg)])
        models.append(frozenset(model))
    # Stable models are minimal models, so neither of two holds the other,
    # and of their sorted atom lists the one with the least atom that only
    # one of them holds comes first.  The certain atoms, held by all, do
    # not change that, so only the undecided ones are ranked.
    true = sorted({a for m in models for a in m}, key=lambda a: _gatom_key(atoms[a - 1]))
    rank = {a: i for i, a in enumerate(true)}
    models.sort(key=lambda m: sorted(rank[a] for a in m))
    return StableModels(atoms, certain, models)
