"""Seeded random generators for instances, queries, and views.

Queries stay inside the SQL-like class (null never compared with = or
!=), matching the domain on which the classical rewriting is exact.
Views use plain comparisons only and, when `lp_safe` is set, carry at
most one update target of each kind per body atom, so that the compiled
program's whole-atom updates coincide with per-cell ones.
"""

from __future__ import annotations

import random

from nullveil import (Atom, BuiltinAtom, Const, Instance, NULL, Query, Relation,
                      Schema, Value, Var, ViewDef)

COMPARISON_OPS = ("=", "!=", "<", ">")


def rand_schema(rng: random.Random, max_relations: int = 2,
                max_arity: int = 2) -> Schema:
    names = ("p", "q", "r")
    count = rng.randint(1, max_relations)
    relations = []
    for i in range(count):
        arity = rng.randint(1, max_arity)
        cols = tuple((f"c{j}", "int") for j in range(1, arity + 1))
        relations.append(Relation(names[i], cols))
    return Schema(relations)


def rand_instance(rng: random.Random, schema: Schema, max_tuples: int = 5,
                  n_consts: int = 4, null_prob: float = 0.2) -> Instance:
    """Random instance; values repeat freely, but no row repeats within
    a relation."""
    rows = {}
    for rel in schema.relations:
        rel_rows = []
        for _ in range(rng.randint(0, max_tuples)):
            values = tuple(
                NULL if rng.random() < null_prob
                else Value.of_int(rng.randint(1, n_consts))
                for _ in range(rel.arity))
            if values in rel_rows:
                continue
            rel_rows.append(values)
        rows[rel.name] = rel_rows
    return Instance.from_values(schema, rows)


def _rand_args(rng: random.Random, arity: int, pool: list,
               n_consts: int, null_const_prob: float) -> tuple:
    args = []
    for _ in range(arity):
        roll = rng.random()
        if pool and roll < 0.55:
            args.append(Var(rng.choice(pool)))
        elif roll < 0.85 or not pool:
            name = f"V{len(pool) + 1}"
            pool.append(name)
            args.append(Var(name))
        elif rng.random() < null_const_prob:
            args.append(Const(NULL))
        else:
            args.append(Const(Value.of_int(rng.randint(1, n_consts))))
    return tuple(args)


def rand_query(rng: random.Random, schema: Schema, max_atoms: int = 3,
               n_consts: int = 4) -> Query:
    pool: list = []
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        rel = rng.choice(schema.relations)
        atoms.append(Atom(rel.name, _rand_args(rng, rel.arity, pool,
                                               n_consts, null_const_prob=0.3)))
    builtins = []
    for _ in range(rng.randint(0, 2)):
        if not pool:
            break
        left = Var(rng.choice(pool))
        if rng.random() < 0.3:
            op = rng.choice(("isnull", "isnotnull"))
            builtins.append(BuiltinAtom(op, (left,)))
        else:
            op = rng.choice(COMPARISON_OPS)
            if rng.random() < 0.5:
                right = Var(rng.choice(pool))
            else:
                right = Const(Value.of_int(rng.randint(1, n_consts)))
            builtins.append(BuiltinAtom(op, (left, right)))
    out_count = rng.randint(0, min(3, len(pool))) if pool else 0
    out = tuple(Var(name) for name in rng.sample(pool, out_count))
    return Query(out, tuple(atoms), tuple(builtins))


def _head_occurrences(atoms, name: str) -> dict:
    per_atom = {}
    for i, atom in enumerate(atoms):
        per_atom[i] = sum(
            1 for t in atom.args if isinstance(t, Var) and t.name == name)
    return per_atom


def _lp_safe_shape(view: ViewDef) -> bool:
    """Whole-atom update granularity coincides with cell granularity only
    when no body atom carries two update targets (at most one relevant
    and one head-variable occurrence per atom)."""
    from nullveil import relevant_vars

    relevant = relevant_vars(view)
    head = {v.name for v in view.head}
    for atom in view.body:
        names = [t.name for t in atom.args if isinstance(t, Var)]
        if sum(1 for n in names if n in relevant) > 1 or \
                sum(1 for n in names if n in head) > 1:
            return False
    return True


def rand_view(rng: random.Random, schema: Schema, lp_safe: bool = False,
              n_consts: int = 4, max_atoms: int = 2,
              body_const_prob: float = 0.0,
              self_joins: bool = False) -> ViewDef | None:
    """A random view whose body holds an integer constant at each position
    with probability `body_const_prob`, and whose body relations are drawn
    with replacement when `self_joins` is set, so one relation can occur
    twice (neither by default, which leaves the draws of the default
    stream unchanged); None when no head choice satisfies the requested
    shape."""
    if self_joins:
        rels = [rng.choice(schema.relations) for _ in range(rng.randint(1, max_atoms))]
    else:
        rels = list(schema.relations)
        rng.shuffle(rels)
        rels = rels[:rng.randint(1, min(max_atoms, len(rels)))]
    pool: list = []
    atoms = []
    for rel in rels:
        args = []
        for _ in range(rel.arity):
            if body_const_prob and rng.random() < body_const_prob:
                args.append(Const(Value.of_int(rng.randint(1, n_consts))))
            elif pool and rng.random() < 0.45:
                args.append(Var(rng.choice(pool)))
            else:
                name = f"V{len(pool) + 1}"
                pool.append(name)
                args.append(Var(name))
        atoms.append(Atom(rel.name, tuple(args)))
    phi = []
    for _ in range(rng.randint(0, 2)):
        if not pool:
            break
        left = Var(rng.choice(pool))
        op = rng.choice(COMPARISON_OPS)
        if rng.random() < 0.5:
            right = Var(rng.choice(pool))
        else:
            right = Const(Value.of_int(rng.randint(1, n_consts)))
        phi.append(BuiltinAtom(op, (left, right)))
    candidates = pool[:]
    rng.shuffle(candidates)
    head: list[str] = []
    load = {i: 0 for i in range(len(atoms))}
    for name in candidates:
        occ = _head_occurrences(atoms, name)
        if lp_safe and any(load[i] + occ[i] > 1 for i in occ):
            continue
        head.append(name)
        for i in occ:
            load[i] += occ[i]
        if len(head) >= rng.randint(1, 2):
            break
    if not head:
        return None
    view = ViewDef(f"v{rng.randint(0, 999)}", tuple(Var(n) for n in head),
                   tuple(atoms), tuple(phi))
    if lp_safe and not _lp_safe_shape(view):
        return None
    return view


def rand_case(rng: random.Random, max_tuples: int = 3, max_views: int = 2,
              lp_safe: bool = False, max_arity: int = 2, n_consts: int = 4,
              body_const_prob: float = 0.0, self_joins: bool = False):
    """A (schema, instance, views) triple; views share the schema.
    `lp_safe` restricts the view shape only, not the data."""
    while True:
        schema = rand_schema(rng, max_arity=max_arity)
        instance = rand_instance(rng, schema, max_tuples=max_tuples,
                                 n_consts=n_consts)
        views = []
        for _ in range(rng.randint(1, max_views)):
            view = rand_view(rng, schema, lp_safe=lp_safe, n_consts=n_consts,
                             body_const_prob=body_const_prob,
                             self_joins=self_joins)
            if view is not None:
                views.append(ViewDef(f"v{len(views)}", view.head,
                                     view.body, view.phi))
        if views:
            return schema, instance, views
