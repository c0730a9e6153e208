"""Seeded input generators for the benchmark workloads.

Everything here produces plain text in the nullveil input language; the
program under test only ever receives that text.  The generators are the
benchmark's own and import nothing from the test suite, so editing the
tests never changes a benchmark input.  The same seed always yields the
same inputs.

Two stream workloads share one schema and one secrecy view:

* `conflicts` - a fixed database with two independent violating join
  pairs and six rows that join nothing (8 candidate cells, 3^2 secrecy
  instances).  The secrecy-instance search dominates.
* `bulk` - one violating pair and 100 or 102 rows that join nothing (4
  candidate cells, 3 secrecy instances).  Every tenth question adds or,
  in turn, removes one harmless pair, so joins and grounding dominate and
  nothing keyed on the database stays valid for long.

`random-cases` draws a fresh schema, instance, view set and query per
question, with the shapes of the randomized correspondence tests, so the
whole input language is covered and nothing is reused between requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STREAM_SCHEMA = "relation P(A:int, B:int).\nrelation R(B:int, C:int).\n"
STREAM_VIEWS = "Vs(X,Z) :- P(X,Y), R(Y,Z), Y < 1000.\n"
JOIN_LIMIT = 1000  # the view's `Y < 1000`: violating join values stay below it

STREAM_SHAPES = {
    # workload: (violating pairs, harmless rows, rows changed every N questions)
    "conflicts": (2, 6, None),
    "bulk": (1, 100, 10),
}
WARM_UP_QUERY = "?(X, Z) :- P(X, Y), R(Y, Z)."


@dataclass(frozen=True)
class Question:
    """One user question: the four input texts plus what the checker needs.

    `pairs` lists the (P tid, R tid) of each violating join on the stream
    workloads and is None on random cases, which are checked against the
    brute-force oracle instead.
    """

    schema_text: str
    views_text: str
    facts_text: str
    query_text: str
    pairs: tuple | None


def _token(value) -> str:
    return "null" if value is None else str(value)


class StreamDatabase:
    """A P/R database with explicit tuple ids, kept as rows so that harmless
    pairs can be added and removed without renumbering the others."""

    def __init__(self, rng: random.Random, violating: int, harmless: int):
        self.rng = rng
        self._used_b: set[int] = set()
        self.p: dict[int, tuple] = {}
        self.r: dict[int, tuple] = {}
        self._next_tid = 1
        self.pairs = tuple(self._add_violating_pair() for _ in range(violating))
        self._harmless: list[tuple[int, int]] = []
        for _ in range(harmless // 2):
            self.add_harmless_pair()

    def _fresh_b(self, high: int) -> int:
        while True:
            b = self.rng.randint(1, high)
            if b not in self._used_b:
                self._used_b.add(b)
                return b

    def _tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _add_violating_pair(self) -> tuple[int, int]:
        b = self._fresh_b(JOIN_LIMIT - 1)
        p_tid, r_tid = self._tid(), self._tid()
        self.p[p_tid] = (self.rng.randint(1, 999), b)
        self.r[r_tid] = (b, self.rng.randint(1, 999))
        return p_tid, r_tid

    def add_harmless_pair(self) -> None:
        """One P row and one R row whose B values match no other row; one
        in ten carries a null outside the join column."""
        p_tid, r_tid = self._tid(), self._tid()
        a = None if self.rng.random() < 0.1 else self.rng.randint(1, 999)
        c = None if self.rng.random() < 0.1 else self.rng.randint(1, 999)
        self.p[p_tid] = (a, self._fresh_b(2 * JOIN_LIMIT))
        self.r[r_tid] = (self._fresh_b(2 * JOIN_LIMIT), c)
        self._harmless.append((p_tid, r_tid))

    def remove_harmless_pair(self) -> None:
        p_tid, r_tid = self._harmless.pop(self.rng.randrange(len(self._harmless)))
        self._used_b.discard(self.p.pop(p_tid)[1])
        self._used_b.discard(self.r.pop(r_tid)[0])

    def harmless_rows(self) -> int:
        return 2 * len(self._harmless)

    def facts_text(self) -> str:
        lines = [f"@{tid} P({_token(a)}, {_token(b)})." for tid, (a, b) in self.p.items()]
        lines += [f"@{tid} R({_token(b)}, {_token(c)})." for tid, (b, c) in self.r.items()]
        return "\n".join(lines) + "\n"


_COMPARISONS = ("=", "!=", "<", ">", "<=", ">=")
_STREAM_ATOMS = (("P", 2), ("R", 2))


def stream_query(rng: random.Random) -> str:
    """A SQL-like conjunctive query over P and R: one or two atoms (two
    atoms always share a variable, so no cross products), at most one
    comparison or null check, and one or two output variables."""
    pool: list[str] = []
    atoms = []
    for i in range(rng.randint(1, 2)):
        pred, arity = rng.choice(_STREAM_ATOMS)
        shared = rng.randrange(arity) if i else None
        first_atom_vars = pool[:]
        args = []
        for pos in range(arity):
            if pos == shared:
                args.append(rng.choice(first_atom_vars))
            elif pool and rng.random() < 0.3:
                args.append(rng.choice(pool))
            else:
                args.append(f"V{len(pool) + 1}")
                pool.append(args[-1])
        atoms.append(f"{pred}({', '.join(args)})")
    builtins = []
    roll = rng.random()
    if roll < 0.2:
        builtins.append(f"{rng.choice(('isnull', 'isnotnull'))}({rng.choice(pool)})")
    elif roll < 0.6:
        right = (rng.choice(pool) if rng.random() < 0.25
                 else str(100 * rng.randint(0, 20)))
        builtins.append(f"{rng.choice(pool)} {rng.choice(_COMPARISONS)} {right}")
    out = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
    return f"?({', '.join(out)}) :- {', '.join(atoms + builtins)}."


class StreamWorkload:
    """Questions over one evolving P/R database."""

    def __init__(self, name: str, seed: int):
        violating, self.harmless, self.change_every = STREAM_SHAPES[name]
        self.db = StreamDatabase(random.Random(f"{name}/db/{seed}"), violating,
                                 self.harmless)
        self.rng = random.Random(f"{name}/queries/{seed}")
        self.asked = 0

    def initial(self) -> Question:
        """The question the set-up warm-up asks: the initial database with
        one fixed query, so that set-up time does not vary with the seed's
        choice of query."""
        return self._question(WARM_UP_QUERY)

    def _question(self, query_text: str) -> Question:
        return Question(STREAM_SCHEMA, STREAM_VIEWS, self.db.facts_text(),
                        query_text, self.db.pairs)

    def next(self) -> Question:
        self.asked += 1
        if self.change_every and self.asked % self.change_every == 0:
            # Alternate, so the database size, which the cost grows with,
            # is the same for every seed.
            if self.db.harmless_rows() > self.harmless:
                self.db.remove_harmless_pair()
            else:
                self.db.add_harmless_pair()
        return self._question(stream_query(self.rng))


# ---------------------------------------------------------------------------
# random cases

RANDOM_MAX_TUPLES = 4
RANDOM_CONSTS = 4


def _random_schema(rng: random.Random) -> list[tuple[str, int]]:
    return [(name, rng.randint(1, 2)) for name in ("p", "q", "r")[:rng.randint(1, 2)]]


def _random_rows(rng: random.Random, arity: int) -> list[tuple]:
    rows: list[tuple] = []
    for _ in range(rng.randint(0, RANDOM_MAX_TUPLES)):
        row = tuple(None if rng.random() < 0.2 else rng.randint(1, RANDOM_CONSTS)
                    for _ in range(arity))
        if row not in rows:
            rows.append(row)
    return rows


def _random_comparison(rng: random.Random, pool: list[str]) -> str:
    right = rng.choice(pool) if rng.random() < 0.5 else str(rng.randint(1, RANDOM_CONSTS))
    return f"{rng.choice(pool)} {rng.choice(('=', '!=', '<', '>'))} {right}"


def _random_view(rng: random.Random, schema: list[tuple[str, int]], name: str) -> str:
    """A view over distinct relations with a constant-free body, plain
    comparisons and one or two head variables (no shape restriction)."""
    rels = schema[:]
    rng.shuffle(rels)
    pool: list[str] = []
    atoms = []
    for pred, arity in rels[:rng.randint(1, min(2, len(rels)))]:
        args = []
        for _ in range(arity):
            if pool and rng.random() < 0.45:
                args.append(rng.choice(pool))
            else:
                args.append(f"V{len(pool) + 1}")
                pool.append(args[-1])
        atoms.append(f"{pred}({', '.join(args)})")
    phi = [_random_comparison(rng, pool) for _ in range(rng.randint(0, 2))]
    head = pool[:]
    rng.shuffle(head)
    head = head[:rng.randint(1, 2)]
    return f"{name}({', '.join(head)}) :- {', '.join(atoms + phi)}."


def _random_query(rng: random.Random, schema: list[tuple[str, int]]) -> str:
    """Up to three atoms with shared variables, integer or null constants,
    up to two comparisons or null checks, zero to three output variables."""
    pool: list[str] = []
    atoms = []
    for _ in range(rng.randint(1, 3)):
        pred, arity = rng.choice(schema)
        args = []
        for _ in range(arity):
            roll = rng.random()
            if pool and roll < 0.55:
                args.append(rng.choice(pool))
            elif roll < 0.85 or not pool:
                args.append(f"V{len(pool) + 1}")
                pool.append(args[-1])
            elif rng.random() < 0.3:
                args.append("null")
            else:
                args.append(str(rng.randint(1, RANDOM_CONSTS)))
        atoms.append(f"{pred}({', '.join(args)})")
    builtins = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.3:
            builtins.append(f"{rng.choice(('isnull', 'isnotnull'))}({rng.choice(pool)})")
        else:
            builtins.append(_random_comparison(rng, pool))
    out = rng.sample(pool, rng.randint(0, min(3, len(pool))))
    return f"?({', '.join(out)}) :- {', '.join(atoms + builtins)}."


def random_question(rng: random.Random) -> Question:
    schema = _random_schema(rng)
    schema_text = "".join(
        f"relation {pred}({', '.join(f'c{i}:int' for i in range(1, arity + 1))}).\n"
        for pred, arity in schema)
    facts = [f"{pred}({', '.join(map(_token, row))})."
             for pred, arity in schema for row in _random_rows(rng, arity)]
    views = [_random_view(rng, schema, f"v{i}") for i in range(rng.randint(1, 2))]
    return Question(schema_text, "\n".join(views) + "\n", "\n".join(facts) + "\n",
                    _random_query(rng, schema), None)


class RandomWorkload:
    """A fresh random case per question."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"random-cases/{seed}")
        self.warm_up_rng = random.Random(f"random-cases/warm-up/{seed}")

    def initial(self) -> Question:
        return random_question(self.warm_up_rng)

    def next(self) -> Question:
        return random_question(self.rng)


WORKLOADS = ("conflicts", "bulk", "random-cases")


def make_workload(name: str, seed: int):
    if name == "random-cases":
        return RandomWorkload(seed)
    return StreamWorkload(name, seed)
