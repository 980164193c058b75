"""Expression AST for the algebra, free-name analysis, and equation rewrites.

Nodes are immutable (see ``Expr``), so expression trees are safe to share.
Column indices are 1-based throughout.
"""

from __future__ import annotations

from .model import NAME_RE, ModelError, RelType


class AstError(Exception):
    """Structurally invalid expression node."""


# fields are set once, in the constructor, past the Expr.__setattr__ guard
_set = object.__setattr__


class Expr:
    """Base class for all expression nodes.

    A node is immutable: its constructor checks and sets the fields its
    class lists in ``__slots__``, its other fields first and then its
    children, in the constructor's argument order.  ``labels`` names the
    children; a name and the domain have none.  Nodes are equal when of one
    class with equal fields, hash as the tuple of their fields and print as
    ``Class(field=value, ...)``, as frozen dataclasses would; these methods
    are shared, where a dataclass would generate its own at every import.
    """

    __slots__ = ()
    labels: tuple[str, ...] = ()

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
    __slots__ = labels = ("left", "right")
    __init__ = _init_binary


class Difference(Expr):
    __slots__ = labels = ("left", "right")
    __init__ = _init_binary


class Product(Expr):
    __slots__ = labels = ("left", "right")
    __init__ = _init_binary


def _check_indices(indices) -> None:
    if not indices:
        raise AstError("index list must be non-empty")
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or i < 1:
            raise AstError(f"column index {i!r} must be a positive integer")


class Project(Expr):
    __slots__ = ("indices", "arg")
    labels = ("arg",)

    def __init__(self, indices: tuple[int, ...], arg: Expr) -> None:
        indices = tuple(indices)
        _check_indices(indices)
        _set(self, "indices", indices)
        _set(self, "arg", arg)


class Select(Expr):
    """Keep rows whose columns ``i`` and ``j`` are (un)equal as nested sets."""

    __slots__ = ("i", "op", "j", "arg")
    labels = ("arg",)

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
    labels = ("arg",)

    def __init__(self, indices: tuple[int, ...], arg: Expr) -> None:
        indices = tuple(indices)
        _check_indices(indices)
        _set(self, "indices", indices)
        _set(self, "arg", arg)


class Unnest(Expr):
    __slots__ = ("index", "arg")
    labels = ("arg",)

    def __init__(self, index: int, arg: Expr) -> None:
        _check_indices((index,))
        _set(self, "index", index)
        _set(self, "arg", arg)


class Powerset(Expr):
    __slots__ = labels = ("arg",)

    def __init__(self, arg: Expr) -> None:
        _set(self, "arg", arg)


class Solve(Expr):
    """All assignments to the bound variables making both sides evaluate equal."""

    __slots__ = ("binders", "lhs", "rhs")
    labels = ("lhs", "rhs")

    def __init__(self, binders: tuple[tuple[str, RelType], ...], lhs: Expr, rhs: Expr) -> None:
        binders = tuple(map(tuple, binders))
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
    return tuple(getattr(e, label) for label in e.labels)


def child_path(path: str, label: str) -> str:
    """The node path of the child ``label`` of the node at ``path``."""
    return f"{path}.{label}" if path else label


def free_names(e: Expr) -> frozenset[str]:
    """Relation names occurring free (solve variables are bound inside)."""
    if isinstance(e, Name):
        return frozenset((e.name,))
    out = frozenset().union(*map(free_names, children(e)))
    return out.difference(e.var_names) if isinstance(e, Solve) else out


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
