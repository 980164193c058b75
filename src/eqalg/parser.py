"""Surface syntax: expression text, database files, and deterministic rendering.

Both grammars are whitespace-insensitive and support ``#`` line comments; see
GRAMMAR.md in the repository root for the full grammar.  Rendering emits one
canonical spelling, so ``parse(render(x)) == x`` for expressions and
databases alike.
"""

from __future__ import annotations

from itertools import chain

from . import ast
from .model import (
    ATOM, ATOM_RE, Candidates, Database, ModelError, NAME_RE, Rel, RelType, SolutionSet, Value,
    subset_tables,
)

# Each operator's keyword and the bracket form of its other fields: an
# index list ``[i,...]``, a test ``[i op j]``, one index ``[i]`` or none.
# Its operands follow in parentheses, in the order of its ``labels``.
OPERATORS = {
    ast.Union: ("union", None),
    ast.Difference: ("minus", None),
    ast.Product: ("times", None),
    ast.Project: ("project", "indices"),
    ast.Select: ("select", "test"),
    ast.Nest: ("nest", "indices"),
    ast.Unnest: ("unnest", "index"),
    ast.Powerset: ("powerset", None),
}
_BY_KEYWORD = {kw: (cls, form) for cls, (kw, form) in OPERATORS.items()}
KEYWORDS = {*_BY_KEYWORD, "solve", "empty", "domain", "D"}


# Deepest nesting of sub-expressions accepted, a name or D counting as one
# level.  Typing, compiling and evaluating an expression each recurse once or
# twice per level, so this keeps every pass inside Python's default
# recursion limit of 1000 frames with room to spare.
MAX_DEPTH = 420

# Deepest nesting of parentheses accepted in a type, ``(0)`` counting as one
# level.  Printing a type reads the text it was built with, but parsing one
# takes a few units of the recursion limit per level, and checking,
# rendering and comparing a value of the type two or three per level of the
# value, on top of the expression passes above: a type error on a binder at
# the deepest level of an expression, the worst case, still fails cleanly up
# to about 140 levels.
MAX_TYPE_DEPTH = 24


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # "word" | "punct" | "eof"
        self.text = text
        self.line = line
        self.col = col


_PUNCT2 = ("!=",)
_PUNCT1 = "()[]{},:|="


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i : i + 2] in _PUNCT2:
            toks.append(_Token("punct", text[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            toks.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("word", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.type_depth = 0
        self.nodes: dict = {}

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> "ParseError":
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "eof" or tok.text != text:
            raise self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}")
        return self.next()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.fail(f"trailing input starting at {tok.text!r}")

    # ---- shared pieces

    def parse_int(self) -> int:
        tok = self.peek()
        if tok.kind != "word" or not tok.text.isdigit():
            raise self.fail(f"expected a column index, found {tok.text!r}")
        self.next()
        value = int(tok.text)
        if value < 1:
            raise ParseError("column indices are 1-based", tok.line, tok.col)
        return value

    def parse_name(self) -> str:
        tok = self.peek()
        if tok.kind != "word" or not NAME_RE.match(tok.text) or tok.text in KEYWORDS:
            raise self.fail(f"expected a relation name, found {tok.text!r}")
        self.next()
        return tok.text

    def parse_type(self) -> RelType:
        tok = self.peek()
        if tok.kind == "word" and tok.text == "0":
            self.next()
            return ATOM
        self.expect("(")
        if self.type_depth == MAX_TYPE_DEPTH:
            raise ParseError(f"type nested deeper than {MAX_TYPE_DEPTH} levels", tok.line, tok.col)
        self.type_depth += 1
        comps = [self.parse_type()]
        while self.peek().text == ",":
            self.next()
            comps.append(self.parse_type())
        self.type_depth -= 1
        self.expect(")")
        return RelType(tuple(comps))

    def parse_fields(self, form: str | None) -> tuple:
        """An operator's fields before its operands, in bracket ``form``."""
        if form is None:
            return ()
        self.expect("[")
        fields = [self.parse_int()]
        if form == "test":
            op_tok = self.next()
            if op_tok.text not in ("=", "!="):
                raise ParseError(f"expected '=' or '!=', found {op_tok.text!r}", op_tok.line, op_tok.col)
            fields += (op_tok.text, self.parse_int())
        while form == "indices" and self.peek().text == ",":
            self.next()
            fields.append(self.parse_int())
        self.expect("]")
        return (tuple(fields),) if form == "indices" else tuple(fields)

    # ---- expressions

    def parse_expr(self) -> ast.Expr:
        self.depth += 1
        try:
            if self.depth > MAX_DEPTH:
                raise self.fail(f"expression nested deeper than {MAX_DEPTH} levels")
            return self._parse_node()
        finally:
            self.depth -= 1

    def _parse_node(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind != "word":
            raise self.fail(f"expected an expression, found {tok.text!r}")
        kw = tok.text
        if kw == "D":
            self.next()
            return self.node(ast.Domain())
        if kw in _BY_KEYWORD:
            self.next()
            cls, form = _BY_KEYWORD[kw]
            fields = self.parse_fields(form)
            self.expect("(")
            operands = [self.parse_expr()]
            for _ in cls.labels[1:]:
                self.expect(",")
                operands.append(self.parse_expr())
            self.expect(")")
            return self.node(cls(*fields, *operands))
        if kw == "solve":
            return self.parse_solve()
        if kw == "empty":
            raise self.fail("'empty' is only allowed as an equation side inside solve{...}")
        if kw in KEYWORDS:
            raise self.fail(f"keyword {kw!r} cannot start an expression here")
        if NAME_RE.match(kw):
            self.next()
            return self.node(ast.Name(kw))
        raise self.fail(f"expected an expression, found {kw!r}")

    def node(self, e: ast.Expr) -> ast.Expr:
        """``e``, or the node this parse already holds with the class, the
        other fields and the very operand objects of ``e``, each operand of
        ``e`` taken that way first.

        So a subexpression repeated in the text is one node object, which
        the evaluator computes once (see ``evaluator._sharing``).  The parse
        holds each node it keeps, and each of those holds its operands, so
        no id in a key is reused while the parse runs.
        """
        values = e._values()
        k = len(values) - len(e.labels)
        key = (type(e), *values[:k], *map(id, values[k:]))
        found = self.nodes.get(key)
        if found is not None:
            return found
        operands = tuple(map(self.node, values[k:]))
        if any(a is not b for a, b in zip(operands, values[k:])):
            return self.node(type(e)(*values[:k], *operands))
        self.nodes[key] = e
        return e

    def parse_solve(self) -> ast.Expr:
        start = self.expect("solve")
        self.expect("{")
        self.expect("(")
        binders = [self.parse_binder()]
        while self.peek().text == ",":
            self.next()
            binders.append(self.parse_binder())
        self.expect(")")
        self.expect("|")
        lhs = self.parse_expr()
        op_tok = self.next()
        if op_tok.text == "=":
            if self.peek().kind == "word" and self.peek().text == "empty":
                self.next()
                rhs = self.node(ast.empty_like(lhs))
            else:
                rhs = self.parse_expr()
        elif op_tok.text == "!=":
            self.expect("empty")
            lhs, rhs = map(self.node, ast.rewrite_diseq_to_eq(lhs))
        else:
            raise ParseError(f"expected '=' or '!=', found {op_tok.text!r}", op_tok.line, op_tok.col)
        self.expect("}")
        try:
            return self.node(ast.Solve(binders, lhs, rhs))
        except ast.AstError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc

    def parse_binder(self) -> tuple[str, RelType]:
        name = self.parse_name()
        self.expect(":")
        return name, self.parse_type()

    # ---- databases

    def parse_database(self) -> Database:
        self.expect("domain")
        self.expect("[")
        atoms: list[str] = []
        if self.peek().text != "]":
            atoms.append(self.parse_atom())
            while self.peek().text == ",":
                self.next()
                atoms.append(self.parse_atom())
        close = self.expect("]")
        if not atoms:
            raise ParseError("domain must be non-empty", close.line, close.col)
        domain = frozenset(atoms)
        relations: dict[str, Rel] = {}
        while self.peek().kind != "eof":
            tok = self.peek()
            name = self.parse_name()
            if name in relations:
                raise ParseError(f"duplicate relation {name!r}", tok.line, tok.col)
            self.expect(":")
            rtype = self.parse_type()
            if rtype.is_atom:
                raise ParseError(f"relation {name} cannot have the atom type", tok.line, tok.col)
            self.expect("=")
            relations[name] = self.parse_rel_value(rtype, domain)
        try:
            return Database(domain, relations)
        except ModelError as exc:
            raise ParseError(str(exc), 1, 1) from exc

    def parse_atom(self) -> str:
        tok = self.peek()
        if tok.kind != "word" or not ATOM_RE.match(tok.text):
            raise self.fail(f"expected an atom, found {tok.text!r}")
        self.next()
        return tok.text

    def parse_rel_value(self, rtype: RelType, domain: frozenset) -> Rel:
        self.expect("[")
        rows = []
        if self.peek().text != "]":
            rows.append(self.parse_row(rtype, domain))
            while self.peek().text == ",":
                self.next()
                rows.append(self.parse_row(rtype, domain))
        self.expect("]")
        return Rel(rtype, frozenset(rows))

    def parse_row(self, rtype: RelType, domain: frozenset) -> tuple:
        open_tok = self.expect("[")
        comps = []
        for pos, comp_type in enumerate(rtype.components):
            if pos > 0:
                self.expect(",")
            if comp_type.is_atom:
                tok = self.peek()
                atom = self.parse_atom()
                if atom not in domain:
                    raise ParseError(f"atom {atom!r} not in domain", tok.line, tok.col)
                comps.append(atom)
            else:
                comps.append(self.parse_rel_value(comp_type, domain))
        tok = self.peek()
        if tok.text == ",":
            raise ParseError(f"row has more than {rtype.arity} components", tok.line, tok.col)
        self.expect("]")
        return tuple(comps)


def parse_expr(text: str) -> ast.Expr:
    p = _Parser(text)
    e = p.parse_expr()
    p.expect_eof()
    return e


def parse_database(text: str) -> tuple[Database, dict[str, RelType]]:
    p = _Parser(text)
    db = p.parse_database()
    p.expect_eof()
    return db, db.schema


def parse_type(text: str) -> RelType:
    p = _Parser(text)
    t = p.parse_type()
    p.expect_eof()
    return t


# ---------------------------------------------------------------------------
# rendering


def render_relation(v: Value) -> str:
    """Deterministic text for a value, rows in canonical order; parses back.

    A solution set is always printed from its counter values
    (``_render_counted``), whether or not its rows were read or sorted, so
    printing decodes none of its solutions.  A flat relation's sorted rows
    are all atoms, so they are joined directly with no call per row or
    atom; relation-valued columns recurse.
    """
    if isinstance(v, str):
        return v
    if type(v) is SolutionSet:
        return _render_counted(*v.in_order())
    rows = v.sorted_rows()
    if not rows:
        return "[]"
    if v.rtype.is_flat:
        return "[[" + "],[".join(map(",".join, rows)) + "]]"
    return "[" + ",".join(map(_render_row, rows)) + "]"


def _render_row(row: tuple) -> str:
    return "[" + ",".join(map(render_relation, row)) + "]"


def _render_counted(space: Candidates, cands: list) -> str:
    """The text of the relation whose rows the counter values ``cands``, in
    canonical order, stand for, with nothing decoded.

    Each row of a binder's universe is rendered once, with a comma after
    it.  Per 8-row chunk of the universe, a table holds the text of each
    subset of the chunk's rows in universe order, indexed by bit pattern as
    ``subset_tables`` is.  The first chunk's entries also open the binder's
    relation, and the last chunk's close it; the first binder's also open
    the solution's row, and the last binder's close it with a comma.  A
    solution's text is then one entry per chunk of each binder, and the
    set's text one join of them.
    The only ``,]`` in it are the commas after each relation's last row and
    after the last solution, since an atom holds no comma or bracket, so
    one replace drops them.
    """
    last = len(space.binders) - 1
    columns = []
    for i, (_, universe, shift, m, _) in enumerate(space.binders):
        texts = [_render_row(row) + "," for row in universe]
        tables = [list(map("".join, table)) for table in subset_tables(texts, ordered=True)]
        opener, closer = "[[" if i == 0 else "[", "]]," if i == last else "],"
        tables[0] = [opener + s for s in tables[0]]
        tables[-1] = [s + closer for s in tables[-1]]
        for j, table in enumerate(tables):
            low, bits = shift + 8 * j, m >> 8 * j & 255
            columns.append([table[c >> low & bits] for c in cands])
    return ("[" + "".join(chain.from_iterable(zip(*columns))) + "]").replace(",]", "]")


def render_database(db: Database) -> str:
    lines = ["domain [" + ",".join(db.atoms) + "]"]
    for name in sorted(db.relations):
        rel = db.relations[name]
        lines.append(f"{name}:{rel.rtype} = {render_relation(rel)}")
    return "\n".join(lines) + "\n"


def render_expr(e: ast.Expr) -> str:
    if isinstance(e, ast.Name):
        return e.name
    if isinstance(e, ast.Domain):
        return "D"
    if isinstance(e, ast.Solve):
        binders = ",".join(f"{nm}:{t}" for nm, t in e.binders)
        return f"solve{{({binders}) | {render_expr(e.lhs)} = {render_expr(e.rhs)}}}"
    entry = OPERATORS.get(type(e))
    if entry is None:
        raise ModelError(f"cannot render {type(e).__name__}")
    kw, form = entry
    values = e._values()
    k = len(values) - len(e.labels)
    if form == "indices":
        kw += f"[{','.join(map(str, values[0]))}]"
    elif form is not None:
        kw += f"[{''.join(map(str, values[:k]))}]"
    return f"{kw}({','.join(map(render_expr, values[k:]))})"
