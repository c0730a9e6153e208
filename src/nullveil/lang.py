"""Concrete syntax for schemas, facts, secrecy views, and queries.

The surface language is Datalog-flavoured: predicate and view names are
identifiers, uppercase-initial identifiers in argument position are
variables, lowercase identifiers are symbol constants, `null` is the
null constant, integers and double-quoted strings are constants of their
respective sorts.  Comments run from `%` to end of line.

    schema file:  relation NAME(col:sort, ...). ...
    facts file:   [@TID] NAME(term, ...). ...
    views file:   NAME(VARS) :- ATOM, ..., BUILTIN, ... . ...
    query:        ?(VARS) :- ATOM, ..., BUILTIN, ... .

Built-ins are `=`, `!=` (also spelled `<>`), `<`, `>`, `<=`, `>=`,
`isnull(T)`, `isnotnull(T)`.  A secrecy view is a query with a name:
`ViewDef` adds only `name` to `Query`, and both pass one safety check.
The parser is reentrant and keeps no global state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ParseError, SemanticError
from .model import COLUMN_SORTS, Instance, NULL, Relation, Row, Schema, Value, value_fits_sort

COMPARISONS = ("=", "!=", "<", ">", "<=", ">=")
ORDER_OPS = ("<", ">", "<=", ">=")
UNARY_BUILTINS = ("isnull", "isnotnull")


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def token(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    value: Value

    def token(self) -> str:
        return self.value.token()


Term = Var | Const


@dataclass(frozen=True, slots=True)
class Atom:
    """A database atom: predicate applied to terms."""

    pred: str
    args: tuple[Term, ...]

    def token(self) -> str:
        return f"{self.pred}({', '.join(t.token() for t in self.args)})"


@dataclass(frozen=True, slots=True)
class BuiltinAtom:
    """A built-in atom: a binary comparison or a unary null check."""

    op: str
    args: tuple[Term, ...]

    def token(self) -> str:
        if self.op in UNARY_BUILTINS:
            return f"{self.op}({self.args[0].token()})"
        return f"{self.args[0].token()} {self.op} {self.args[1].token()}"


@dataclass(frozen=True, slots=True)
class Query:
    """A conjunctive query; body variables outside the projection list are
    implicitly existential.  The projection list may repeat variables."""

    out: tuple[Var, ...]
    body: tuple[Atom, ...]
    builtins: tuple[BuiltinAtom, ...]

    def token(self) -> str:
        return self._rule_token("?")

    def _rule_token(self, head_name: str) -> str:
        head = f"{head_name}({', '.join(v.name for v in self.out)})"
        items = [a.token() for a in self.body] + [b.token() for b in self.builtins]
        return f"{head} :- {', '.join(items)}."


@dataclass(frozen=True, slots=True)
class ViewDef(Query):
    """A secrecy view: a conjunctive query with a name.  Its extension is
    the query's answer set; it never equals the unnamed query."""

    name: str

    def token(self) -> str:
        return self._rule_token(self.name)


class QueryClass(enum.Enum):
    CONJ_SIGMA = "conj-sigma"
    CONJ_NULL_SQL = "conj-null-sql"
    CONJ_NULL_GENERAL = "conj-null-general"


# --------------------------------------------------------------------------
# tokenizer

_PUNCT = (":-", "<=", ">=", "!=", "<>", "(", ")", ",", ".", "=", "<", ">", "@", "?", ":", "|")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # upper | lower | int | str | punct | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            chunks: list[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    chunks.append(text[j + 1])
                    j += 2
                else:
                    chunks.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            tokens.append(_Token("str", "".join(chunks), line, col))
            literal = text[i:j + 1]
            newlines = literal.count("\n")
            if newlines:
                line += newlines
                col = len(literal) - literal.rindex("\n")
            else:
                col += len(literal)
            i = j + 1
            continue
        # isdecimal, not isdigit: int() rejects digits such as '²'
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "upper" if word[0].isupper() or word[0] == "_" else "lower"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token("punct", punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def expect_name(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind not in ("lower", "upper"):
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"

    # ---- shared pieces -------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "upper":
            return Var(tok.text)
        if tok.kind == "int":
            return Const(Value.of_int(int(tok.text)))
        if tok.kind == "str":
            return Const(Value.of_str(tok.text))
        if tok.kind == "lower":
            if tok.text == "null":
                return Const(NULL)
            return Const(Value.of_sym(tok.text))
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def parse_term_list(self) -> tuple[Term, ...]:
        self.expect("(")
        if self.peek().text == ")":
            self.next()
            return ()
        terms = [self.parse_term()]
        while self.peek().text == ",":
            self.next()
            terms.append(self.parse_term())
        self.expect(")")
        return tuple(terms)

    def parse_var_list(self) -> tuple[Var, ...]:
        terms = self.parse_term_list()
        out: list[Var] = []
        for term in terms:
            if not isinstance(term, Var):
                raise ParseError(f"head terms must be variables, found {term.token()!r}",
                                 self.peek().line, self.peek().col)
            out.append(term)
        return tuple(out)

    def parse_body_item(self) -> Atom | BuiltinAtom:
        """One body item: a unary null check, a database atom or a
        comparison."""
        tok = self.peek()
        if tok.kind == "lower" and tok.text.lower() in UNARY_BUILTINS:
            op = self.next().text.lower()
            args = self.parse_term_list()
            if len(args) != 1:
                raise ParseError(f"{op} takes one argument", tok.line, tok.col)
            return BuiltinAtom(op, args)
        if tok.kind in ("lower", "upper") and self.peek(1).text == "(":
            return Atom(self.next().text, self.parse_term_list())
        left = self.parse_term()
        op_tok = self.next()
        op = "!=" if op_tok.text == "<>" else op_tok.text
        if op not in COMPARISONS:
            raise ParseError(f"expected comparison, found {op_tok.text!r}",
                             op_tok.line, op_tok.col)
        return BuiltinAtom(op, (left, self.parse_term()))

    def parse_body(self) -> tuple[tuple[Atom, ...], tuple[BuiltinAtom, ...]]:
        atoms: list[Atom] = []
        builtins: list[BuiltinAtom] = []
        while True:
            item = self.parse_body_item()
            (atoms if isinstance(item, Atom) else builtins).append(item)
            if self.peek().text != ",":
                break
            self.next()
        return tuple(atoms), tuple(builtins)


# --------------------------------------------------------------------------
# schema and facts

def parse_schema(text: str) -> Schema:
    """Parse `relation NAME(col:sort, ...).` declarations into a Schema."""
    parser = _Parser(text)
    relations: list[Relation] = []
    seen: set[str] = set()
    while not parser.at_eof():
        kw = parser.next()
        if kw.text != "relation":
            raise ParseError(f"expected 'relation', found {kw.text!r}", kw.line, kw.col)
        name_tok = parser.expect_name("relation name")
        parser.expect("(")
        columns: list[tuple[str, str]] = []
        while True:
            col_tok = parser.expect_name("column name")
            parser.expect(":")
            sort_tok = parser.expect_name("column sort")
            if sort_tok.text not in COLUMN_SORTS:
                raise ParseError(f"unknown sort {sort_tok.text!r}", sort_tok.line, sort_tok.col)
            columns.append((col_tok.text, sort_tok.text))
            if parser.peek().text == ",":
                parser.next()
                continue
            break
        parser.expect(")")
        parser.expect(".")
        if name_tok.text in seen:
            raise ParseError(f"duplicate relation {name_tok.text}", name_tok.line, name_tok.col)
        seen.add(name_tok.text)
        relations.append(Relation(name_tok.text, tuple(columns)))
    return Schema(relations)


def print_schema(schema: Schema) -> str:
    lines = []
    for rel in schema.relations:
        cols = ", ".join(f"{name}:{sort}" for name, sort in rel.columns)
        lines.append(f"relation {rel.name}({cols}).")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_facts(text: str, schema: Schema) -> Instance:
    """Parse ground facts into an Instance.

    Tuple ids are taken from an explicit `@TID` prefix when present and
    assigned 1.. per relation in file order otherwise; mixing both styles
    within one relation is rejected when ids collide.
    """
    parser = _Parser(text)
    rows: dict[str, list[Row]] = {name: [] for name in schema.names()}
    auto: dict[str, int] = {name: 0 for name in schema.names()}
    taken: dict[str, set[int]] = {name: set() for name in schema.names()}
    while not parser.at_eof():
        tid = None
        if parser.peek().text == "@":
            at = parser.next()
            tid_tok = parser.next()
            if tid_tok.kind != "int" or int(tid_tok.text) < 1:
                raise ParseError("expected positive tuple id after '@'", at.line, at.col)
            tid = int(tid_tok.text)
        name_tok = parser.expect_name("relation name")
        if not schema.has_relation(name_tok.text):
            raise ParseError(f"unknown relation {name_tok.text}", name_tok.line, name_tok.col)
        rel = schema.relation(name_tok.text)
        terms = parser.parse_term_list()
        parser.expect(".")
        if len(terms) != rel.arity:
            raise ParseError(
                f"{rel.name} expects {rel.arity} values, got {len(terms)}",
                name_tok.line, name_tok.col)
        values = []
        for pos, term in enumerate(terms, 1):
            if not isinstance(term, Const):
                raise ParseError(f"facts must be ground, found variable {term.token()}",
                                 name_tok.line, name_tok.col)
            if not value_fits_sort(term.value, rel.sort_at(pos)):
                raise ParseError(
                    f"value {term.value.token()} does not fit column "
                    f"{rel.name}[{pos}]:{rel.sort_at(pos)}",
                    name_tok.line, name_tok.col)
            values.append(term.value)
        if tid is None:
            auto[rel.name] += 1
            while auto[rel.name] in taken[rel.name]:
                auto[rel.name] += 1
            tid = auto[rel.name]
        elif tid in taken[rel.name]:
            raise ParseError(f"duplicate tuple id {rel.name}#{tid}",
                             name_tok.line, name_tok.col)
        taken[rel.name].add(tid)
        rows[rel.name].append(Row(tid, tuple(values)))
    return Instance(schema, rows)


def fact_lines(instance: Instance):
    """One `@TID NAME(values).` line per tuple; a string value may itself
    hold a newline, so split the rows here, never the printed text."""
    for name in instance.schema.names():
        for row in instance.rows(name):
            yield f"@{row.tid} {name}({', '.join(v.token() for v in row.values)})."


def print_facts(instance: Instance) -> str:
    return "".join(line + "\n" for line in fact_lines(instance))


# --------------------------------------------------------------------------
# views and queries

def _check_rule(rule: Query, schema: Schema, allow_null: bool) -> None:
    """Safety and sorts of a view or query: every head and built-in
    variable occurs in a body atom, constants fit their columns, and an
    order comparison compares only integers or null: each of its
    variables occurs at some `int` column, where a join binds only
    integers and null, and each of its constants is one of those."""
    body, builtins = rule.body, rule.builtins
    if not body:
        raise SemanticError("rule body must contain at least one database atom")
    var_sorts: dict[str, set[str]] = {}
    for atom in body:
        rel = schema.relation(atom.pred)
        if len(atom.args) != rel.arity:
            raise SemanticError(
                f"{atom.pred} expects {rel.arity} arguments, got {len(atom.args)}")
        for pos, term in enumerate(atom.args, 1):
            sort = rel.sort_at(pos)
            if isinstance(term, Const):
                if term.value.is_null and not allow_null:
                    raise SemanticError(
                        f"null may not appear in view body atom {atom.token()}; "
                        "views match non-null constants only")
                if not value_fits_sort(term.value, sort):
                    raise SemanticError(
                        f"constant {term.token()} does not fit {atom.pred}[{pos}]:{sort}")
            else:
                var_sorts.setdefault(term.name, set()).add(sort)
    body_vars = set(var_sorts)
    for var in rule.out:
        if var.name not in body_vars:
            raise SemanticError(
                f"head variable {var.name} does not occur in the body of {rule.token()}")
    for b in builtins:
        for term in b.args:
            if isinstance(term, Var) and term.name not in body_vars:
                raise SemanticError(
                    f"variable {term.name} of built-in {b.token()!r} "
                    "does not occur in any body atom")
            if isinstance(term, Const) and term.value.is_null and not allow_null:
                raise SemanticError(
                    "null may not appear in a view built-in; "
                    "views are defined over plain comparisons")
        if b.op in UNARY_BUILTINS and not allow_null:
            raise SemanticError(
                f"{b.op} may not appear in a view definition")
        if b.op in ORDER_OPS:
            for term in b.args:
                if isinstance(term, Var):
                    if "int" not in var_sorts[term.name]:
                        raise SemanticError(
                            f"order comparison on variable {term.name}, "
                            "which occurs at no int column")
                elif not term.value.is_null and term.value.kind != "int":
                    raise SemanticError(
                        f"order comparison on non-int constant {term.token()}")


def parse_view(text: str, schema: Schema) -> ViewDef:
    """Parse a single secrecy-view rule, checking safety and sorts."""
    views = parse_views(text, schema)
    if len(views) != 1:
        raise SemanticError(f"expected exactly one view rule, found {len(views)}")
    return views[0]


def parse_views(text: str, schema: Schema) -> list[ViewDef]:
    parser = _Parser(text)
    views: list[ViewDef] = []
    names: set[str] = set()
    while not parser.at_eof():
        name_tok = parser.expect_name("view name")
        head = parser.parse_var_list()
        parser.expect(":-")
        body, builtins = parser.parse_body()
        parser.expect(".")
        view = ViewDef(head, body, builtins, name_tok.text)
        _check_rule(view, schema, allow_null=False)
        if schema.has_relation(name_tok.text):
            raise SemanticError(f"view name {name_tok.text} clashes with a relation")
        if name_tok.text in names:
            raise SemanticError(f"duplicate view name {name_tok.text}")
        names.add(name_tok.text)
        views.append(view)
    return views


def parse_query(text: str, schema: Schema) -> Query:
    """Parse `?(VARS) :- body.` into a Query, checking safety and sorts."""
    parser = _Parser(text)
    parser.expect("?")
    out = parser.parse_var_list()
    parser.expect(":-")
    body, builtins = parser.parse_body()
    parser.expect(".")
    if not parser.at_eof():
        tok = parser.peek()
        raise ParseError(f"unexpected input after query: {tok.text!r}", tok.line, tok.col)
    query = Query(out, body, builtins)
    _check_rule(query, schema, allow_null=True)
    return query


def classify_query(query: Query) -> QueryClass:
    """Syntactic class of a query.

    A query mentioning null in an (in)equality is outside the SQL-like
    class; one that never mentions null at all (nor the null checks) is a
    plain conjunctive query.
    """
    mentions_null = any(
        isinstance(t, Const) and t.value.is_null
        for a in query.body for t in a.args)
    has_null_check = False
    for b in query.builtins:
        null_arg = any(isinstance(t, Const) and t.value.is_null for t in b.args)
        if b.op in UNARY_BUILTINS:
            has_null_check = True
        if null_arg:
            if b.op in ("=", "!="):
                return QueryClass.CONJ_NULL_GENERAL
            mentions_null = True
    if mentions_null or has_null_check:
        return QueryClass.CONJ_NULL_SQL
    return QueryClass.CONJ_SIGMA
