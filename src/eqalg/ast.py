"""Expression AST for the algebra, free-name analysis, and equation rewrites.

Nodes are immutable (see ``Expr``), so expression trees are safe to share.
Column indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import NAME_RE, ModelError, RelType


class AstError(Exception):
    """Structurally invalid expression node."""


# fields are set once, in the constructor, past the Expr.__setattr__ guard
_set = object.__setattr__


class Expr:
    """Base class for all expression nodes.

    A node is immutable: its constructor checks and sets the fields its
    class lists in ``__slots__``.  Nodes are equal when of one class with
    equal fields, hash as the tuple of their fields and print as
    ``Class(field=value, ...)``, as frozen dataclasses would; these methods
    are shared, where a dataclass would generate its own at every import.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an expression node")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an expression node")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Name(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not NAME_RE.match(name) or name == "D":
            raise AstError(f"bad relation name {name!r}")
        _set(self, "name", name)


class Domain(Expr):
    """The unary relation holding every atom of the database domain."""

    __slots__ = ()


def _init_binary(self, left: Expr, right: Expr) -> None:
    _set(self, "left", left)
    _set(self, "right", right)


class Union(Expr):
    __slots__ = ("left", "right")
    __init__ = _init_binary


class Difference(Expr):
    __slots__ = ("left", "right")
    __init__ = _init_binary


class Product(Expr):
    __slots__ = ("left", "right")
    __init__ = _init_binary


def _check_indices(indices) -> None:
    if not indices:
        raise AstError("index list must be non-empty")
    for i in indices:
        if not isinstance(i, int) or i < 1:
            raise AstError(f"column index {i!r} must be a positive integer")


class Project(Expr):
    __slots__ = ("indices", "arg")

    def __init__(self, indices: tuple[int, ...], arg: Expr) -> None:
        _check_indices(indices)
        _set(self, "indices", indices)
        _set(self, "arg", arg)


class Select(Expr):
    """Keep rows whose columns ``i`` and ``j`` are (un)equal as nested sets."""

    __slots__ = ("i", "op", "j", "arg")

    def __init__(self, i: int, op: str, j: int, arg: Expr) -> None:
        _check_indices((i, j))
        if op not in ("=", "!="):
            raise AstError(f"selection test must be '=' or '!=', got {op!r}")
        _set(self, "i", i)
        _set(self, "op", op)
        _set(self, "j", j)
        _set(self, "arg", arg)


class Nest(Expr):
    __slots__ = ("indices", "arg")

    def __init__(self, indices: tuple[int, ...], arg: Expr) -> None:
        _check_indices(indices)
        _set(self, "indices", indices)
        _set(self, "arg", arg)


class Unnest(Expr):
    __slots__ = ("index", "arg")

    def __init__(self, index: int, arg: Expr) -> None:
        _check_indices((index,))
        _set(self, "index", index)
        _set(self, "arg", arg)


class Powerset(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr) -> None:
        _set(self, "arg", arg)


class Solve(Expr):
    """All assignments to the bound variables making both sides evaluate equal."""

    __slots__ = ("binders", "lhs", "rhs")

    def __init__(self, binders: tuple[tuple[str, RelType], ...], lhs: Expr, rhs: Expr) -> None:
        if not binders:
            raise AstError("solve needs at least one variable")
        seen = set()
        for nm, t in binders:
            if not NAME_RE.match(nm) or nm == "D":
                raise AstError(f"bad variable name {nm!r}")
            if nm in seen:
                raise AstError(f"duplicate variable {nm!r} in one solve")
            seen.add(nm)
            if not isinstance(t, RelType) or t.is_atom:
                raise AstError(f"variable {nm} must have a relation type, not the atom type")
        _set(self, "binders", binders)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

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


def join_shape(e: Expr, path: str, types: dict):
    """The parts of ``[project] select ... select[i=j](times(a, b))`` with
    column i in ``a`` and column j in ``b`` (or the reverse), or None for any
    other shape.

    The parts are ``(indices, product, product_path, lk, rk, levels)``:
    the projection's indices or None, the product node and its path, the
    0-based key columns of ``a`` and ``b``, and per select level, innermost
    first, ``(i, equal, j, path)`` with the key level's test as None.
    """
    indices = None
    if isinstance(e, Project):
        indices = e.indices
        e, path = e.arg, child_path(path, "arg")
    filters = []
    while isinstance(e, Select):
        filters.append((e.i - 1, e.op == "=", e.j - 1, path))
        e, path = e.arg, child_path(path, "arg")
    if not filters or not isinstance(e, Product):
        return None
    i0, want_eq, j0, key_path = filters.pop()
    lk, rk = min(i0, j0), max(i0, j0)
    ka = types[child_path(path, "left")].arity
    if not (want_eq and lk < ka <= rk):
        return None
    # innermost level first; its test is the join key, so it filters nothing
    levels = [(None, True, None, key_path)] + filters[::-1]
    return indices, e, path, lk, rk - ka, levels


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
