"""Grounder and stable-model enumerator for disjunctive programs.

A rule keeps its four parts apart from the compiler to the search: the
head, a disjunction of atoms; the positive body atoms; the default-
negated body atoms; and the built-in comparisons.  This is the form that
grounders such as gringo work on, and no stage re-splits a mixed body.
Grounding instantiates rules bottom-up over the atoms that can possibly
be derived (facts plus heads of rules whose positive bodies are possibly
derivable), evaluating built-ins away: a false built-in deletes the
instance, a true one is dropped.  Positive bodies are matched against
the possible atoms by `semantics.iter_matches`, the same engine that
evaluates queries over instances, so grounding a rule is evaluating its
body as a conjunctive query.  Null is an ordinary constant here; order
comparisons that involve null or unordered values simply fail.

Grounding is semi-naive (Bancilhon & Ramakrishnan 1986).  It runs in
rounds, and each round reads a snapshot: the possible atoms as they
stood when it began.  The atoms a round derives are added when it ends
and are the next round's delta.  Rules without positive body atoms are
grounded once, in the first round.  Every other rule is matched once per
positive body atom whose predicate gained atoms in the last round: that
atom is matched first, against the delta only, and the others against
the whole snapshot, so every instance found has at least one new atom
and none over the older atoms is found again.  An instance with several
new atoms is found once per new atom, and the instances kept so far
drop the repeats.  Grounding ends after a round that derives nothing.
Each ground atom gets the next number, from 1, the first time grounding
meets it, as a head atom or as a negated body atom; this is the only
numbering of ground atoms, and ground rules are (head, pos, neg) triples
of numbers.  A positive body atom is a matched store row, whose id is
its atom's number.  None of this depends on the hash seed.

The snapshot keeps its atoms per predicate in the order they were
derived, and a hash index from (predicate, position, value) to the
atoms holding that value there.  An atom with a constant or an already
bound variable reads the shortest such index entry instead of scanning
its predicate, so joining on a bound column costs the matching atoms,
not all of them.  A column is indexed the first time a rule probes it,
and kept up to date from then on; columns no rule binds cost nothing.

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
stable semantics by partial evaluation").  The search is then built over
the live rules only, restricted to the atoms left undecided, and every
model it finds gets the certain atoms back.

Model search branches on the undecided atoms in number order, so the
choices (the secrecy program's update atoms) come before the atoms they
decide (its `ans` atoms), and ground atoms are looked up only for the
returned models, which are then sorted into a canonical order.  The
search is a DPLL enumeration over clauses with an explicit stack: each
ground rule gets a variable equivalent to its body, every rule is a
clause, and every true atom needs some rule with a true body and the
atom in its head.

After unit propagation, every search node runs unfounded-set
propagation.  Let S be the least set of atoms `a` having a rule `r` such
that `a` is in the head of `r`, the body of `r` is not false, every
positive body atom of `r` is in S, and no head atom of `r` outside `a`'s
strongly connected component of the positive dependency graph is true.
Atoms outside S are set false, a true one is a conflict, and the two
propagations alternate until neither assigns anything.  This is sound
for every disjunctive program: if a stable model M extending the
assignment met M - S, take a component C that meets M - S while no
component below it does; dropping the atoms of M - S in C from M
leaves a model of the reduct, so M was not minimal.  S is kept
incrementally: each atom that is not false keeps a source rule that
founds it, and a node re-founds only the atoms whose sources its
assignments invalidated.

When no rule has two head atoms in one component, the program is
head-cycle-free and S is exactly the least model of the shifted reduct
(Ben-Eliyahu & Dechter 1994), so every leaf of the search is a stable
model.  Only programs whose live rules still have head cycles check each
leaf for being a minimal model of its reduct, by a satisfiability search
over the model; the certain atoms are in every model of that reduct, so
the check reads the live rules only.

Grounding and model search are pure; the returned models do not depend
on the order in which the search finds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BoundExceededError, SemanticError, UnsupportedRuleError
from .lang import Atom, BuiltinAtom, Var
from .model import Row, Value
from .semantics import builtin_classical, iter_matches

DEFAULT_SEARCH_BOUND = 1 << 20

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


def _builtin_holds(b: BuiltinAtom, env: dict) -> bool:
    try:
        return builtin_classical(b, env)
    except SemanticError:
        return False  # unordered operands never satisfy an order comparison


def _gatom_key(gatom: GAtom) -> tuple:
    return (gatom[0], tuple(v.sort_key() for v in gatom[1]))


class _Store:
    """The numbered ground atoms, the possible ones per predicate in the
    order they were derived, and the index of each column a rule has
    probed.  It is the snapshot a round reads: the atoms a round derives
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

    def rows_of(self, atom: Atom, env: dict) -> list[Row]:
        """Row source for `iter_matches`: the shortest index entry over
        the atom's constants and bound variables, else every atom of its
        predicate.  A column is indexed the first time it is probed."""
        best = self.rows.get(atom.pred, [])
        for pos, term in enumerate(atom.args):
            value = env.get(term.name) if isinstance(term, Var) else term.value
            if value is None:
                continue
            column = self.columns.get((atom.pred, pos))
            if column is None:
                column = self.columns[atom.pred, pos] = {}
                for row in self.rows.get(atom.pred, []):
                    column.setdefault(row.values[pos], []).append(row)
            hits = column.get(value, [])
            if len(hits) < len(best):
                best = hits
        return best


def ground(rules: Iterable[Rule], max_rules: int = 1_000_000) -> GroundProgram:
    """Instantiate `rules` over the possibly-derivable atoms.

    Saturates: an atom is possibly derivable when it heads a rule all of
    whose positive body atoms are; negation does not gate possibility.
    A rule's `pos` atoms are matched, its `builtins` evaluated and its
    `head` and `neg` atoms numbered, each read from its own field.
    Rules are duplicate-free, in derivation order; atoms are numbered as met.
    """
    rules = list(rules)
    for r in rules:
        _check_safety(r)
    store = _Store()
    out: dict[tuple, None] = {}  # insertion-ordered, drops repeats
    rounds = 1

    def instantiate(r: Rule, k: int, matches) -> None:
        """Ground rules of the matches of `r.pos` with atom k matched first."""
        for env, matched in matches:
            if not all(_builtin_holds(b, env) for b in r.builtins):
                continue
            rows = matched[1:k + 1] + matched[:1] + matched[k + 1:]
            heads = tuple(_ground_atom(a, env) for a in r.head)
            gr = (tuple(map(store.number, heads)), tuple(row.tid for row in rows),
                  tuple(store.number(_ground_atom(a, env)) for a in r.neg))
            known = len(out)
            out[gr] = None  # one hash per instance, not two
            if len(out) == known:
                continue
            if len(out) > max_rules:
                raise BoundExceededError(
                    f"grounding exceeded its bound of {max_rules} ground rules "
                    f"({rounds} rounds, {len(store.possible)} possible atoms so far)")
            for n, h in zip(gr[0], heads):
                store.derive(n, h)

    for r in rules:
        if not r.pos:
            instantiate(r, 0, iter_matches(store.rows_of, ()))
    delta = store.end_round()
    while delta:
        rounds += 1
        for r in rules:
            for k, atom in enumerate(r.pos):
                if atom.pred in delta:
                    order = (atom,) + r.pos[:k] + r.pos[k + 1:]
                    instantiate(r, k, iter_matches(store.rows_of, order,
                                                   first=delta[atom.pred]))
        delta = store.end_round()
    return GroundProgram(list(store.numbers), list(out))


# --------------------------------------------------------------------------
# stable-model enumeration

_UNDEF, _FALSE, _TRUE = -1, 0, 1


class _Enumerator:
    """DPLL over clauses with per-clause satisfied/unassigned counters and
    a queue of clauses that became unit.

    The search keeps its open branches on an explicit stack, so its depth
    is bounded by `max_nodes` and not by the interpreter's recursion limit.
    Subclasses extend `_propagate` and `_accept`.
    """

    stage = "reduct-minimality check"

    def __init__(self, nvars: int, clauses: list, max_nodes: int):
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
        self.max_nodes = max_nodes
        self.nodes = 0
        self.found = 0

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
                        self.found += 1
                        yield self.assign
                else:
                    mark = len(self.trail)
                    stack += ((i, mark, _TRUE), (i, mark, _FALSE))
            if not stack:
                return
            i, mark, value = stack.pop()
            self._undo_to(mark)
            self.nodes += 1
            if self.nodes > self.max_nodes:
                raise BoundExceededError(
                    f"{self.stage} exceeded its bound of {self.max_nodes} nodes "
                    f"({self.max_nodes} nodes visited, {self.found} models "
                    f"found so far)")
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
    """Stable-model search over a numbered ground program, which
    `stable_models` gives it already settled: the live rules over the
    undecided atoms.

    Atoms are 1..natoms; rule r is a (head, pos, neg) triple of atom
    tuples with body variable natoms + 1 + r.  One index, `head_occ`,
    lists per atom the rules whose head holds it; the atom's support
    clause, the strongly connected components and re-founding a lost
    atom all read it.  Every atom that is not false keeps a source: a
    rule that founds it, where the sources form an acyclic derivation.
    Assignments only invalidate sources, so sources stay valid when the
    search backtracks and are never restored.
    """

    stage = "stable-model search"

    def __init__(self, natoms: int, rules: list[tuple], max_nodes: int):
        clauses: list[tuple[int, ...]] = []
        head_occ: list[list[int]] = [[] for _ in range(natoms + 1)]  # atom -> rules it heads
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
        # true atoms need support
        clauses += ((minus[a], *(natoms + 1 + r for r in head_occ[a]))
                    for a in range(1, natoms + 1))
        super().__init__(natoms + len(rules), clauses, max_nodes)
        self.natoms = natoms
        self.rules = rules
        component = _components(rules, head_occ)
        self.hcf = all(len({component[h] for h in head}) == len(head)
                       for head, _, _ in rules)
        # per rule and head atom: the head atoms outside that atom's component
        self.blockers = [
            tuple(tuple(b for b in head if component[b] != component[a]) for a in head)
            for head, _, _ in rules]
        self.head_occ = head_occ
        self.pos_occ: list[list[int]] = [[] for _ in range(natoms + 1)]
        self.blocked_by: list[list[tuple]] = [[] for _ in range(natoms + 1)]
        for r, (head, pos, _) in enumerate(rules):
            for a, blockers in zip(head, self.blockers[r]):
                for b in blockers:
                    self.blocked_by[b].append((r, a))
            for p in pos:
                self.pos_occ[p].append(r)
        for occ in (self.head_occ, self.pos_occ, self.blocked_by):
            occ[:] = map(tuple, occ)  # read-only from here on; tuples are smaller
        self.source = [-1] * (natoms + 1)
        self.stale = list(range(1, natoms + 1))  # nothing is founded yet
        self.checked = 0  # trail prefix already reflected in the sources

    def _undo_to(self, mark: int) -> None:
        super()._undo_to(mark)
        self.checked = min(self.checked, mark)

    def _propagate(self) -> bool:
        """Unit propagation alternating with unfounded-set propagation
        until neither assigns anything."""
        while self._drain():
            unfounded = self._refound(self._lost())
            if not unfounded:
                return True
            for a in unfounded:
                if self.assign[a] == _TRUE or not self._set(a, _FALSE):
                    return False
        return False

    def _lost(self) -> set[int]:
        """Atoms not false whose source the assignments since the last
        check invalidated, closed under dependence through sources."""
        assign, source, natoms = self.assign, self.source, self.natoms
        todo, self.stale = self.stale, []
        for var in self.trail[self.checked:]:
            if var > natoms:
                if assign[var] == _FALSE:
                    r = var - natoms - 1
                    todo += (a for a in self.rules[r][0] if source[a] == r)
            elif assign[var] == _TRUE:
                todo += (a for r, a in self.blocked_by[var] if source[a] == r)
        self.checked = len(self.trail)
        lost: set[int] = set()
        while todo:
            a = todo.pop()
            if a in lost or assign[a] == _FALSE:
                continue
            lost.add(a)
            for r in self.pos_occ[a]:
                todo += (h for h in self.rules[r][0] if source[h] == r)
        return lost

    def _refound(self, lost: set[int]) -> set[int]:
        """Give lost atoms new sources where possible and return the rest,
        which are unfounded.  Rule r founds head atom a when r's body is
        not false, every positive body atom of r is founded, and no head
        atom of r outside a's component is true."""
        assign, rules = self.assign, self.rules
        missing: dict[int, int] = {}  # rule -> its positive atoms still lost
        ready: list[int] = []
        for a in lost:
            for r in self.head_occ[a]:
                if r not in missing and assign[self.natoms + 1 + r] != _FALSE:
                    missing[r] = sum(p in lost for p in rules[r][1])
                    if not missing[r]:
                        ready.append(r)
        while ready:
            r = ready.pop()
            for a, blockers in zip(rules[r][0], self.blockers[r]):
                if a in lost and all(assign[b] != _TRUE for b in blockers):
                    lost.discard(a)
                    self.source[a] = r
                    for q in self.pos_occ[a]:
                        if q in missing:
                            missing[q] -= 1
                            if not missing[q]:
                                ready.append(q)
        return lost

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
        check = _Enumerator(self.natoms, clauses, max_nodes=1 << 22)
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


def stable_models(program: GroundProgram,
                  max_nodes: int = DEFAULT_SEARCH_BOUND) -> list[frozenset]:
    """All stable models of the ground program: models that are minimal
    models of their own reduct.

    `_settle` first decides the certain and impossible atoms, and the
    search is built over the live rules only, restricted to the atoms
    left undecided, which keep their relative order.  The search branches
    in atom-number order, so neither the models nor a bound's message
    depend on the order of `program.rules`.  Every model is the certain
    atoms plus its own true undecided ones, and the models are sorted by
    `_gatom_key` of their atoms."""
    atoms = program.atoms
    settled = _settle(len(atoms), program.rules)
    if settled is None:
        return []
    value, live = settled
    undecided = [a for a in range(1, len(atoms) + 1) if value[a] == _UNDEF]
    index = [0] * (len(atoms) + 1)  # atom -> its number in the search
    for i, a in enumerate(undecided, 1):
        index[a] = i
    # as sets, because a repeated literal would hide a unit clause
    residue = [(tuple({index[h] for h in head}),
                tuple({index[p] for p in pos if value[p] == _UNDEF}),
                tuple({index[n] for n in neg if value[n] == _UNDEF}))
               for (head, pos, neg), alive in zip(program.rules, live) if alive]
    search = _StableSearch(len(undecided), residue, max_nodes)
    branch = list(range(1, len(undecided) + 1))
    models = [[a for a, i in zip(undecided, branch) if assign[i] == _TRUE]
              for assign in search.enumerate(branch)]
    # Stable models are minimal models, so neither of two holds the other,
    # and of their sorted atom lists the one with the least atom that only
    # one of them holds comes first.  The certain atoms, held by all, do
    # not change that, so only the undecided ones are ranked.
    true = sorted({a for m in models for a in m}, key=lambda a: _gatom_key(atoms[a - 1]))
    rank = {a: i for i, a in enumerate(true)}
    models.sort(key=lambda m: sorted(rank[a] for a in m))
    base = frozenset(atoms[a - 1] for a in range(1, len(atoms) + 1) if value[a] == _TRUE)
    return [base.union(atoms[a - 1] for a in m) for m in models]
