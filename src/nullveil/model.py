"""Core data model: domain values, schemas, id-carrying tuples, instances.

Instances are immutable after construction and all operations here are
pure, so values can be shared freely across threads.  Updates are
expressed as change sets: sets of cell coordinates whose values
`nulled_rows` replaces by the single distinguished null constant.  Tuple
ids are never touched by an update, which keeps any updated instance
correlated with its base (same relations, same ids, same cardinalities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import AddressError, CorrelationError, InvalidChangeError, SemanticError

NULL_KIND = "null"
INT_KIND = "int"
SYM_KIND = "sym"
STR_KIND = "str"

_KIND_RANK = {NULL_KIND: 0, INT_KIND: 1, SYM_KIND: 2, STR_KIND: 3}

COLUMN_SORTS = ("int", "sym", "str", "any")


@dataclass(frozen=True, slots=True)
class Value:
    """A domain constant: the null, an integer, a symbol, or a string.

    Equality is syntactic; null equals only itself.  Only integers carry
    an order, enforced by the evaluators rather than here.
    """

    kind: str
    payload: int | str | None = None

    @staticmethod
    def of_int(n: int) -> "Value":
        return Value(INT_KIND, n)

    @staticmethod
    def of_sym(name: str) -> "Value":
        return Value(SYM_KIND, name)

    @staticmethod
    def of_str(text: str) -> "Value":
        return Value(STR_KIND, text)

    @property
    def is_null(self) -> bool:
        return self.kind == NULL_KIND

    def token(self) -> str:
        """Concrete-syntax spelling of the value."""
        if self.kind == NULL_KIND:
            return "null"
        if self.kind == STR_KIND:
            escaped = str(self.payload).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return str(self.payload)

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.payload if self.payload is not None else 0)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.token()


NULL = Value(NULL_KIND)


def value_fits_sort(value: Value, sort: str) -> bool:
    """Null fits every column; otherwise the kind must match the sort."""
    if value.is_null or sort == "any":
        return True
    return value.kind == sort


@dataclass(frozen=True, slots=True)
class Relation:
    """A declared relation: name plus named, sorted columns."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (column name, sort)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def sort_at(self, pos: int) -> str:
        """Sort of the 1-based position `pos`."""
        return self.columns[pos - 1][1]


class Schema:
    """A fixed set of relations with unique names and positive arities."""

    def __init__(self, relations: Iterable[Relation]):
        rels = tuple(relations)
        by_name: dict[str, Relation] = {}
        for rel in rels:
            if rel.arity < 1:
                raise SemanticError(f"relation {rel.name} must have arity >= 1")
            for _, sort in rel.columns:
                if sort not in COLUMN_SORTS:
                    raise SemanticError(f"unknown column sort {sort!r} in {rel.name}")
            if rel.name in by_name:
                raise SemanticError(f"duplicate relation {rel.name}")
            by_name[rel.name] = rel
        self._relations = rels
        self._by_name = by_name

    @property
    def relations(self) -> tuple[Relation, ...]:
        return self._relations

    def relation(self, name: str) -> Relation:
        try:
            return self._by_name[name]
        except KeyError:
            raise SemanticError(f"unknown relation {name}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self._relations)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._relations == other._relations

    def __hash__(self) -> int:
        return hash(self._relations)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Schema({', '.join(f'{r.name}/{r.arity}' for r in self._relations)})"


@dataclass(frozen=True, slots=True)
class Row:
    """One stored tuple; the id is unique per relation and never updated."""

    tid: int
    values: tuple[Value, ...]


@dataclass(frozen=True, slots=True, order=True)
class Cell:
    """Coordinates of one attribute value: relation, tuple id, 1-based position."""

    relation: str
    tid: int
    pos: int

    def token(self) -> str:
        return f"{self.relation}#{self.tid}[{self.pos}]"


ChangeSet = frozenset  # of Cell


def sorted_cells(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """Canonical (relation, tid, pos) ordering used for reproducible output."""
    return tuple(sorted(cells))


class Instance:
    """A finite set of rows per relation, conforming to a schema.

    Rows keep their file order; all semantics downstream are insensitive
    to row order.  An instance keeps its schema and its validated rows and
    nothing else: it hashes and compares by schema plus per-relation
    {tid: values} content, computed when asked, and `row` scans.
    """

    def __init__(self, schema: Schema, rows: Mapping[str, Sequence[Row]]):
        self.schema = schema
        table: dict[str, tuple[Row, ...]] = {}
        for rel in schema.relations:
            rel_rows = tuple(rows.get(rel.name, ()))
            seen: set[int] = set()
            for row in rel_rows:
                if len(row.values) != rel.arity:
                    raise SemanticError(
                        f"{rel.name} expects {rel.arity} values, got {len(row.values)}"
                    )
                for pos, value in enumerate(row.values, 1):
                    if not value_fits_sort(value, rel.sort_at(pos)):
                        raise SemanticError(
                            f"value {value.token()} does not fit column "
                            f"{rel.name}[{pos}]:{rel.sort_at(pos)}"
                        )
                if row.tid < 1:
                    raise SemanticError(f"tuple id must be positive, got {row.tid}")
                if row.tid in seen:
                    raise SemanticError(f"duplicate tuple id {rel.name}#{row.tid}")
                seen.add(row.tid)
            table[rel.name] = rel_rows
        for name in rows:
            if not schema.has_relation(name):
                raise SemanticError(f"unknown relation {name}")
        self._table = table

    @staticmethod
    def from_values(schema: Schema, rows: Mapping[str, Sequence[Sequence[Value]]]) -> "Instance":
        """Build an instance assigning tuple ids 1.. per relation in order."""
        built = {
            name: [Row(i, tuple(vals)) for i, vals in enumerate(rel_rows, 1)]
            for name, rel_rows in rows.items()
        }
        return Instance(schema, built)

    def rows(self, relation: str) -> tuple[Row, ...]:
        try:
            return self._table[relation]
        except KeyError:
            raise SemanticError(f"unknown relation {relation}") from None

    def row(self, relation: str, tid: int) -> Row:
        if relation not in self._table:
            raise AddressError(f"unknown relation {relation}")
        for row in self._table[relation]:
            if row.tid == tid:
                return row
        raise AddressError(f"no tuple {relation}#{tid}")

    def cells(self):
        """The coordinates of every non-null cell."""
        for name in self.schema.names():
            for row in self._table[name]:
                for pos, value in enumerate(row.values, 1):
                    if not value.is_null:
                        yield Cell(name, row.tid, pos)

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self._table.values())

    def _key(self) -> tuple:
        # tids are unique per relation, so sorting never compares values
        return (self.schema, tuple(
            (name, tuple(sorted((r.tid, r.values) for r in self._table[name])))
            for name in self.schema.names()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover
        parts = []
        for name in self.schema.names():
            for row in self._table[name]:
                args = ",".join(v.token() for v in row.values)
                parts.append(f"{name}#{row.tid}({args})")
        return "{" + ", ".join(parts) + "}"


def nulled_rows(base: Instance, changes: Iterable[Cell]) -> dict[str, dict[int, Row]]:
    """The rows of `base` that hold a cell of `changes`, with those cells
    nulled, per relation and tuple id, from one pass over each touched
    relation.  Every addressed cell must exist and hold a non-null value."""
    by_row: dict[tuple[str, int], set[int]] = {}
    for cell in changes:
        by_row.setdefault((cell.relation, cell.tid), set()).add(cell.pos)
    touched = {name for name, _ in by_row}
    nulled = {name: {} for name in base.schema.names() if name in touched}
    for name, rows in nulled.items():
        for row in base.rows(name):
            positions = by_row.pop((name, row.tid), None)
            if positions is None:
                continue
            for pos in sorted(positions):
                if not 1 <= pos <= len(row.values):
                    raise AddressError(f"position {pos} out of range for {name}")
                if row.values[pos - 1].is_null:
                    raise InvalidChangeError(
                        f"cell {Cell(name, row.tid, pos).token()} is already null")
            rows[row.tid] = Row(row.tid, tuple(
                NULL if pos in positions else v for pos, v in enumerate(row.values, 1)))
    if by_row:  # cells of no row of base
        name, tid = min(by_row)
        if not base.schema.has_relation(name):
            raise AddressError(f"unknown relation {name}")
        raise AddressError(f"no tuple {name}#{tid}")
    return nulled


def apply_changes(base: Instance, changes: Iterable[Cell]) -> Instance:
    """`base` with every cell in `changes` nulled: its `nulled_rows` in
    place of its rows, so its relations, ids and tuple counts are kept."""
    nulled = nulled_rows(base, changes)
    return Instance(base.schema, {
        name: [nulled.get(name, {}).get(row.tid, row) for row in base.rows(name)]
        for name in base.schema.names()})


def diff_changes(base: Instance, other: Instance) -> ChangeSet:
    """Recover the change set turning `base` into `other`.

    `other` must be base-correlated (same relations and ids) and must
    differ from `base` only by non-null values replaced with null.
    """
    if base.schema != other.schema:
        raise CorrelationError("instances are over different schemas")
    cells: set[Cell] = set()
    for name in base.schema.names():
        base_rows = {r.tid: r for r in base.rows(name)}
        other_rows = {r.tid: r for r in other.rows(name)}
        if base_rows.keys() != other_rows.keys():
            raise CorrelationError(f"tuple ids of {name} differ")
        for tid, brow in base_rows.items():
            orow = other_rows[tid]
            for pos, (bval, oval) in enumerate(zip(brow.values, orow.values), 1):
                if bval == oval:
                    continue
                if not oval.is_null or bval.is_null:
                    raise CorrelationError(
                        f"cell {name}#{tid}[{pos}] is not a value-to-null change"
                    )
                cells.add(Cell(name, tid, pos))
    return frozenset(cells)
