"""Core data model: relation types, nested set values, databases, enumeration.

A relation type is either the atom type or a tuple of component types.  A
value is an atom symbol (plain ``str``) or a :class:`Rel`, a finite set of
equal-typed tuples.  ``Rel`` deduplicates on construction and keeps its rows
in a ``frozenset``; the canonical *order* of rows (the single source of
determinism for rendering and enumeration) is materialized lazily, by one
sort per relation that fills both its row order and its sort key.  A flat
row (all atoms) is its own sort key, so a flat relation sorts its rows with
no key function and its sorted rows are its key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union


class ModelError(Exception):
    """Malformed type, value, or database."""


ATOM_RE = re.compile(r"[A-Za-z0-9_]+\Z")


# ---------------------------------------------------------------------------
# relation types


@dataclass(frozen=True)
class RelType:
    """Shape descriptor: ``components is None`` marks the atom type."""

    components: tuple[RelType, ...] | None = None

    def __post_init__(self) -> None:
        comps = self.components
        if comps is not None and len(comps) == 0:
            raise ModelError("tuple type needs at least one component")
        # per row: the 0-based positions of the relation-valued columns, and
        # the units of the tuple and its atom columns; flat_row_size is the
        # latter when every component is an atom, None otherwise
        flat_size = None
        if comps is not None:
            nested = tuple(i for i, c in enumerate(comps) if c.components is not None)
            object.__setattr__(self, "nested_columns", nested)
            object.__setattr__(self, "row_base_size", 1 + len(comps) - len(nested))
            if not nested:
                flat_size = self.row_base_size
        object.__setattr__(self, "flat_row_size", flat_size)

    def __hash__(self) -> int:
        # types are hashed with every Rel they type, so the hash is cached on
        # first use; most types the typechecker builds are never hashed
        try:
            return self._hash
        except AttributeError:
            h = hash(self.components)
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def is_atom(self) -> bool:
        return self.components is None

    @property
    def arity(self) -> int:
        if self.components is None:
            raise ModelError("atom type has no arity")
        return len(self.components)

    @property
    def is_flat(self) -> bool:
        """True for tuple types whose components are all atoms."""
        return self.flat_row_size is not None

    def __str__(self) -> str:
        if self.components is None:
            return "0"
        return "(" + ",".join(str(c) for c in self.components) + ")"


ATOM = RelType()


def flat_type(arity: int) -> RelType:
    if arity < 1:
        raise ModelError("arity must be >= 1")
    return RelType((ATOM,) * arity)


# ---------------------------------------------------------------------------
# values

Value = Union[str, "Rel"]
Row = "tuple[Value, ...]"


class Rel:
    """A nested relation value: its type plus a frozenset of rows.

    Construction deduplicates (set semantics).  Instances are immutable and
    hashable; hash, size, and the canonical order are computed on demand and
    cached, so they are cheap to use as tuple components of other relations.
    The order is one sort, which fills ``_sorted`` (the rows in order) and
    ``_key`` (their sort keys in order, the relation's own key) together; for
    a flat relation the two are the same tuple.
    """

    __slots__ = ("rtype", "rows", "_hash", "_size", "_key", "_sorted")

    def __init__(self, rtype: RelType, rows: Iterable[tuple]) -> None:
        if rtype.is_atom:
            raise ModelError("relation value cannot have atom type")
        self.rtype = rtype
        self.rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        self._hash = None
        self._size = None
        self._key = None
        self._sorted = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Rel):
            return NotImplemented
        return self.rows == other.rows and self.rtype == other.rtype

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.rtype, self.rows))
        return h

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        from .parser import render_relation  # cycle-free at call time

        return f"Rel({self.rtype}, {render_relation(self)})"

    def sorted_rows(self) -> tuple:
        """Rows in canonical order (atoms lexicographic, relations by sorted row lists)."""
        s = self._sorted
        if s is None:
            s = self._sort()[0]
        return s

    def _sort(self) -> tuple:
        """Fill both order caches with one sort; return ``(rows, key)``."""
        if self.rtype.is_flat:
            s = k = tuple(sorted(self.rows))
        else:
            # sort positions by key: each key is built once and no row is compared
            rows = list(self.rows)
            keys = list(map(row_sort_key, rows))
            order = sorted(range(len(rows)), key=keys.__getitem__)
            s = tuple(map(rows.__getitem__, order))
            k = tuple(map(keys.__getitem__, order))
        self._sorted = s
        self._key = k
        return s, k


def value_sort_key(v: Value):
    """Total-order key; agrees with equality on values of one type."""
    if isinstance(v, str):
        return v
    k = v._key
    if k is None:
        k = v._sort()[1]
    return k


def row_sort_key(row: tuple):
    return tuple(map(value_sort_key, row))


def row_picker(indices: tuple[int, ...]):
    """The projection kernel: a function from a row to the tuple of its
    columns at the 1-based ``indices``, repeats allowed."""
    idx = tuple(i - 1 for i in indices)
    # itemgetter returns a bare value for one index, a tuple for a slice
    return itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))


def value_size(v: Value) -> int:
    """Space units of a value: recursive atom occurrences plus tuple count."""
    if type(v) is str:
        return 1
    s = v._size
    if s is None:
        t = v.rtype
        s = len(v.rows) * t.row_base_size
        cols = t.nested_columns
        if cols:
            for row in v.rows:
                for i in cols:
                    s += value_size(row[i])
        v._size = s
    return s


def check_value(v: Value, expected: RelType) -> set:
    """Deep structural validation of a value against a type.

    Returns the set of atoms occurring in ``v`` at any depth, so a caller
    that must also vet the atoms (a database checks them against its domain)
    needs no second walk.  The rows of a flat relation are validated in
    bulk: one pass checks each row's shape, then each *distinct* atom among
    them is checked once.  Nested columns recurse, so a flat relation at any
    depth takes the bulk path.
    """
    if expected.is_atom:
        _check_atom(v)
        return {v}
    if not isinstance(v, Rel):
        raise ModelError(f"expected a relation of type {expected}, got atom {v!r}")
    if v.rtype != expected:
        raise ModelError(f"value has type {v.rtype}, expected {expected}")
    comps = expected.components
    k = len(comps)
    rows = v.rows
    for row in rows:
        if not isinstance(row, tuple) or len(row) != k:
            raise ModelError(f"row {row!r} does not have arity {k}")
    if expected.is_flat:
        atoms = set().union(*rows)
        for a in atoms:
            _check_atom(a)
        return atoms
    atoms = set()
    for row in rows:
        for c, t in zip(row, comps):
            atoms |= check_value(c, t)
    return atoms


def _check_atom(v) -> None:
    if not isinstance(v, str):
        raise ModelError(f"expected an atom, got a relation of type {getattr(v, 'rtype', '?')}")
    if not ATOM_RE.match(v):
        raise ModelError(f"bad atom symbol {v!r}")


def canonicalize(v: Value) -> Value:
    """Return the canonical representative of ``v`` (validated, deduplicated).

    Deduplication happens at every nesting level on construction, so this
    validates deeply and returns the value itself; it is idempotent.
    """
    if isinstance(v, str):
        _check_atom(v)
        return v
    check_value(v, v.rtype)
    return v


def deep_equal(v1: Value, v2: Value) -> bool:
    """Set equality of two values of the same type; type mismatch is an error."""
    if isinstance(v1, str) and isinstance(v2, str):
        return v1 == v2
    if isinstance(v1, Rel) and isinstance(v2, Rel):
        if v1.rtype != v2.rtype:
            raise ModelError(f"deep_equal across types {v1.rtype} and {v2.rtype}")
        return v1.rows == v2.rows
    raise ModelError("deep_equal between an atom and a relation")


def empty_rel(rtype: RelType) -> Rel:
    return Rel(rtype, frozenset())


# ---------------------------------------------------------------------------
# enumeration of all relations of a type over a domain


def count_relations(t: RelType, n: int) -> int:
    """Number of relations of type ``t`` over a domain of ``n`` atoms (exact)."""
    if t.is_atom:
        raise ModelError("count_relations needs a tuple type")
    if n < 1:
        raise ModelError("domain size must be >= 1")
    tuples = 1
    for c in t.components:
        tuples *= n if c.is_atom else count_relations(c, n)
    return 1 << tuples


def tuple_universe(t: RelType, atoms: tuple[str, ...]) -> list:
    """All possible rows of type ``t`` over ``atoms``, in canonical order."""
    spaces = []
    for c in t.components:
        if c.is_atom:
            spaces.append(list(atoms))
        else:
            spaces.append(sorted(enumerate_relations(c, atoms), key=value_sort_key))
    out = [()]
    for space in spaces:
        out = [row + (v,) for row in out for v in space]
    return out


def enumerate_relations(t: RelType, domain: Iterable[str]) -> Iterator[Rel]:
    """Yield every relation of type ``t`` over ``domain`` exactly once.

    Order: the row universe is sorted canonically and subsets follow a binary
    counter with the lowest row as the lowest bit.  Lazy: one candidate is
    materialized at a time beyond the fixed universe bookkeeping.
    """
    if t.is_atom:
        raise ModelError("cannot enumerate relations of atom type")
    atoms = tuple(sorted(set(domain)))
    if not atoms:
        raise ModelError("domain must be non-empty")
    universe = tuple_universe(t, atoms)
    tables = subset_tables(universe)
    for mask in range(1 << len(universe)):
        yield Rel(t, rows_for_mask(tables, mask))


def subset_tables(universe) -> list:
    """Per 8-row chunk of the universe, all 2^chunk subsets, indexed by bit pattern.

    The rows of a mask over the universe (bit i is row i) are then the union
    of one table entry per mask byte, which is much cheaper than decoding
    bits row by row."""
    tables = []
    for ofs in range(0, len(universe) or 1, 8):  # an empty universe has one subset
        table = [frozenset()]
        for row in universe[ofs : ofs + 8]:
            # the subsets with this row are those without it, plus the row
            single = frozenset((row,))
            table += [s | single for s in table]
        tables.append(table)
    return tables


def rows_for_mask(tables: list, mask: int) -> frozenset:
    rows = tables[0][mask & 255]
    mask >>= 8
    t = 1
    while mask:
        rows |= tables[t][mask & 255]
        mask >>= 8
        t += 1
    return rows


# ---------------------------------------------------------------------------
# databases


NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Database:
    """A non-empty finite atom domain plus named, typed relations.

    Immutable after construction; every atom reachable inside a stored
    relation must belong to the domain, and no relation may be named ``D``
    (the reserved domain symbol).  Each relation is walked once: the walk
    that validates it against its type returns its atoms, and that set is
    checked against the domain.
    """

    __slots__ = ("domain", "relations", "atoms")

    def __init__(self, domain: Iterable[str], relations: Mapping[str, Rel]) -> None:
        self.domain = frozenset(domain)
        self.relations = dict(relations)
        if not self.domain:
            raise ModelError("database domain must be non-empty")
        for a in self.domain:
            if not isinstance(a, str) or not ATOM_RE.match(a):
                raise ModelError(f"bad atom symbol {a!r}")
        for name, rel in self.relations.items():
            if not NAME_RE.match(name) or name == "D":
                raise ModelError(f"bad relation name {name!r}")
            if not isinstance(rel, Rel):
                raise ModelError(f"relation {name} must be a Rel value")
            outside = check_value(rel, rel.rtype) - self.domain
            if outside:
                raise ModelError(
                    f"relation {name} mentions atom {min(outside)!r} outside the domain"
                )
        self.atoms = tuple(sorted(self.domain))

    @property
    def schema(self) -> dict[str, RelType]:
        return {name: rel.rtype for name, rel in self.relations.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.domain == other.domain and self.relations == other.relations

    def __hash__(self):
        return hash((self.domain, tuple(sorted((n, r) for n, r in self.relations.items()))))


def rename_value(v: Value, mapping: Mapping[str, str]) -> Value:
    """Apply an atom renaming throughout a value."""
    if isinstance(v, str):
        return mapping[v]
    return Rel(v.rtype, frozenset(tuple(rename_value(c, mapping) for c in row) for row in v.rows))


def rename_database(db: Database, mapping: Mapping[str, str]) -> Database:
    return Database(
        (mapping[a] for a in db.domain),
        {name: rename_value(rel, mapping) for name, rel in db.relations.items()},
    )
