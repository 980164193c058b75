"""Expression AST for the algebra, free-name analysis, and equation rewrites.

Nodes are frozen dataclasses, so expression trees are immutable and safe to
share.  Column indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import NAME_RE, ModelError, RelType


class AstError(Exception):
    """Structurally invalid expression node."""


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Name(Expr):
    name: str

    def __post_init__(self):
        if not NAME_RE.match(self.name) or self.name == "D":
            raise AstError(f"bad relation name {self.name!r}")


@dataclass(frozen=True)
class Domain(Expr):
    """The unary relation holding every atom of the database domain."""


@dataclass(frozen=True)
class Union(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Difference(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Product(Expr):
    left: Expr
    right: Expr


def _check_indices(indices) -> None:
    if not indices:
        raise AstError("index list must be non-empty")
    for i in indices:
        if not isinstance(i, int) or i < 1:
            raise AstError(f"column index {i!r} must be a positive integer")


@dataclass(frozen=True)
class Project(Expr):
    indices: tuple[int, ...]
    arg: Expr

    def __post_init__(self):
        _check_indices(self.indices)


@dataclass(frozen=True)
class Select(Expr):
    """Keep rows whose columns ``i`` and ``j`` are (un)equal as nested sets."""

    i: int
    op: str  # "=" or "!="
    j: int
    arg: Expr

    def __post_init__(self):
        _check_indices((self.i, self.j))
        if self.op not in ("=", "!="):
            raise AstError(f"selection test must be '=' or '!=', got {self.op!r}")


@dataclass(frozen=True)
class Nest(Expr):
    indices: tuple[int, ...]
    arg: Expr

    def __post_init__(self):
        _check_indices(self.indices)


@dataclass(frozen=True)
class Unnest(Expr):
    index: int
    arg: Expr

    def __post_init__(self):
        _check_indices((self.index,))


@dataclass(frozen=True)
class Powerset(Expr):
    arg: Expr


@dataclass(frozen=True)
class Solve(Expr):
    """All assignments to the bound variables making both sides evaluate equal."""

    binders: tuple[tuple[str, RelType], ...]
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if not self.binders:
            raise AstError("solve needs at least one variable")
        seen = set()
        for nm, t in self.binders:
            if not NAME_RE.match(nm) or nm == "D":
                raise AstError(f"bad variable name {nm!r}")
            if nm in seen:
                raise AstError(f"duplicate variable {nm!r} in one solve")
            seen.add(nm)
            if not isinstance(t, RelType) or t.is_atom:
                raise AstError(f"variable {nm} must have a relation type, not the atom type")

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(nm for nm, _ in self.binders)


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Union, Difference, Product)):
        return (e.left, e.right)
    if isinstance(e, (Project, Select, Nest, Unnest, Powerset)):
        return (e.arg,)
    if isinstance(e, Solve):
        return (e.lhs, e.rhs)
    return ()


def child_labels(e: Expr) -> tuple[str, ...]:
    if isinstance(e, (Union, Difference, Product)):
        return ("left", "right")
    if isinstance(e, (Project, Select, Nest, Unnest, Powerset)):
        return ("arg",)
    if isinstance(e, Solve):
        return ("lhs", "rhs")
    return ()


def child_path(path: str, label: str) -> str:
    """The node path of the child ``label`` of the node at ``path``."""
    return f"{path}.{label}" if path else label


def free_names(e: Expr) -> frozenset[str]:
    """Relation names occurring free (solve variables are bound inside)."""
    if isinstance(e, Name):
        return frozenset((e.name,))
    if isinstance(e, Domain):
        return frozenset()
    if isinstance(e, Solve):
        return (free_names(e.lhs) | free_names(e.rhs)) - set(e.var_names)
    out: frozenset[str] = frozenset()
    for c in children(e):
        out |= free_names(c)
    return out


@dataclass(frozen=True)
class BindingViolation:
    var: str
    path: str
    reason: str

    def __str__(self) -> str:
        return f"{self.var} at {self.path or 'top'}: {self.reason}"


def check_bindings(e: Expr) -> list[BindingViolation]:
    """Well-formedness of variable binding; an empty report means ok.

    Two rules: a name free in the whole expression may not become bound in
    any subexpression, and a solve may not rebind a variable already bound
    by an enclosing solve (shadowing is rejected outright).
    """
    out: list[BindingViolation] = []
    _walk_bindings(e, "", frozenset(), free_names(e), out)
    return out


def _walk_bindings(node: Expr, path: str, enclosing: frozenset[str], top_free, out) -> None:
    """Append the violations of ``node`` and below to ``out``, in pre-order.

    A module-level function, not a closure: a nested function that calls
    itself holds a reference cycle, which would leave garbage on every check.
    """
    if isinstance(node, Solve):
        for nm in node.var_names:
            if nm in top_free:
                out.append(BindingViolation(nm, path, "free name also becomes bound"))
            if nm in enclosing:
                out.append(BindingViolation(nm, path, "rebinds a variable of an enclosing solve"))
        enclosing = enclosing | set(node.var_names)
    for label, c in zip(child_labels(node), children(node)):
        _walk_bindings(c, child_path(path, label), enclosing, top_free, out)


# ---------------------------------------------------------------------------
# equation / disequation rewrites


def symmetric_difference(e1: Expr, e2: Expr) -> Expr:
    return Union(Difference(e1, e2), Difference(e2, e1))


def empty_like(e: Expr) -> Expr:
    """An expression that is always empty, of the same type as ``e``."""
    return Difference(e, e)


def rewrite_eq_to_diseq(e1: Expr, e2: Expr, schema=None) -> Expr:
    """Body whose nonemptiness is equivalent to ``e1 = e2`` on every database.

    Returns ``D - project[1](D x (e1 sym-diff e2))``.  When a schema is given
    the two sides are checked to have one inferred type first.
    """
    if schema is not None:
        from .typecheck import infer_type

        t1 = infer_type(e1, schema)
        t2 = infer_type(e2, schema)
        if t1 != t2:
            raise ModelError(f"equation sides have types {t1} and {t2}")
    return Difference(Domain(), Project((1,), Product(Domain(), symmetric_difference(e1, e2))))


def rewrite_diseq_to_eq(e: Expr) -> tuple[Expr, Expr]:
    """Equation pair holding exactly when ``e`` is non-empty: project[1](D x e) = D."""
    return Project((1,), Product(Domain(), e)), Domain()
