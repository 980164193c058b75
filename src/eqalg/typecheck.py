"""Type inference for expressions against a schema, and database/schema checks."""

from __future__ import annotations

from typing import Mapping

from . import ast
from .model import ATOM, Database, RelType


class TypecheckError(Exception):
    def __init__(self, message: str, path: str = "") -> None:
        self.path = path
        super().__init__(f"{message} (at {path or 'top'})")


def infer_type(e: ast.Expr, schema: Mapping[str, RelType], types: dict | None = None) -> RelType:
    """The relation type of ``e`` under ``schema``; raises on ill-typed input.

    When ``types`` is given, it receives the type of every subexpression,
    keyed by its node path (``left``, ``right``, ``arg``, ``lhs``, ``rhs``
    joined by dots, ``""`` for the root), the paths the evaluator compiles to.
    """
    return _infer(e, dict(schema), "", {} if types is None else types)


def _infer(e: ast.Expr, schema: dict[str, RelType], path: str, types: dict) -> RelType:
    t = _infer_node(e, schema, path, types)
    types[path] = t
    return t


def _infer_node(e: ast.Expr, schema: dict[str, RelType], path: str, types: dict) -> RelType:
    if isinstance(e, ast.Name):
        t = schema.get(e.name)
        if t is None:
            raise TypecheckError(f"unknown relation name {e.name!r}", path)
        return t
    if isinstance(e, ast.Domain):
        return RelType((ATOM,))
    if isinstance(e, (ast.Union, ast.Difference)):
        t1 = _infer(e.left, schema, ast.child_path(path, "left"), types)
        t2 = _infer(e.right, schema, ast.child_path(path, "right"), types)
        if t1 != t2:
            op = "union" if isinstance(e, ast.Union) else "minus"
            raise TypecheckError(f"{op} of mismatched types {t1} and {t2}", path)
        return t1
    if isinstance(e, ast.Product):
        t1 = _infer(e.left, schema, ast.child_path(path, "left"), types)
        t2 = _infer(e.right, schema, ast.child_path(path, "right"), types)
        return RelType(t1.components + t2.components)
    if isinstance(e, ast.Project):
        t = _infer(e.arg, schema, ast.child_path(path, "arg"), types)
        k = t.arity
        for i in e.indices:
            if i > k:
                raise TypecheckError(f"project index {i} out of range for arity {k}", path)
        return RelType(tuple(t.components[i - 1] for i in e.indices))
    if isinstance(e, ast.Select):
        t = _infer(e.arg, schema, ast.child_path(path, "arg"), types)
        k = t.arity
        if e.i > k or e.j > k:
            raise TypecheckError(f"select indices {e.i},{e.j} out of range for arity {k}", path)
        ti, tj = t.components[e.i - 1], t.components[e.j - 1]
        if ti != tj:
            raise TypecheckError(f"select compares columns of types {ti} and {tj}", path)
        return t
    if isinstance(e, ast.Nest):
        t = _infer(e.arg, schema, ast.child_path(path, "arg"), types)
        k = t.arity
        for i in e.indices:
            if i > k:
                raise TypecheckError(f"nest index {i} out of range for arity {k}", path)
        nested = RelType(tuple(t.components[i - 1] for i in e.indices))
        return RelType(t.components + (nested,))
    if isinstance(e, ast.Unnest):
        t = _infer(e.arg, schema, ast.child_path(path, "arg"), types)
        if e.index > t.arity:
            raise TypecheckError(f"unnest index {e.index} out of range for arity {t.arity}", path)
        inner = t.components[e.index - 1]
        if inner.is_atom:
            raise TypecheckError(f"unnest on atom column {e.index}", path)
        return RelType(t.components + inner.components)
    if isinstance(e, ast.Powerset):
        t = _infer(e.arg, schema, ast.child_path(path, "arg"), types)
        return RelType((t,))
    if isinstance(e, ast.Solve):
        extended = dict(schema)
        for nm, vt in e.binders:
            if nm in extended:
                raise TypecheckError(f"solve variable {nm!r} collides with a visible relation name", path)
            extended[nm] = vt
        t1 = _infer(e.lhs, extended, ast.child_path(path, "lhs"), types)
        t2 = _infer(e.rhs, extended, ast.child_path(path, "rhs"), types)
        if t1 != t2:
            raise TypecheckError(f"equation sides have types {t1} and {t2}", path)
        return RelType(tuple(vt for _, vt in e.binders))
    raise TypecheckError(f"unknown expression node {type(e).__name__}", path)


def typecheck_database(db: Database, schema: Mapping[str, RelType]) -> list[str]:
    """Itemized report of mismatches between a database and a schema; [] means ok."""
    report: list[str] = []
    for name, t in schema.items():
        if t.is_atom:
            report.append(f"schema type of {name} is the atom type")
        if name not in db.relations:
            report.append(f"missing relation {name}")
        elif db.relations[name].rtype != t:
            report.append(
                f"relation {name} has type {db.relations[name].rtype}, schema says {t}"
            )
    for name in db.relations:
        if name not in schema:
            report.append(f"relation {name} not in schema")
    return report
