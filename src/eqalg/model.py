"""Core data model: relation types, nested set values, databases, enumeration.

A relation type is either the atom type or a tuple of component types.  A
value is an atom symbol (plain ``str``) or a :class:`Rel`, a finite set of
equal-typed tuples.  ``Rel`` deduplicates on construction and keeps its rows
in a ``frozenset``; the canonical *order* of rows (the single source of
determinism for rendering and enumeration) is materialized lazily, by one
sort per relation that fills both its row order and its sort key.  A flat
row (all atoms) is its own sort key, so a flat relation sorts its rows with
no key function and its sorted rows are its key.  A solve's solution set
(``SolutionSet``) keeps its solutions as hit masks over runs of counter
values, and lists the counter values and decodes its rows from them only
when they are read.  It is printed from those values, put in
canonical order by their subset-lex ranks: the rank of a mask over a
canonically ordered universe is its position in canonical order.
"""

from __future__ import annotations

import re
from array import array
from itertools import compress, count, repeat
from operator import attrgetter, is_, itemgetter, or_
from typing import Iterable, Iterator, Mapping, Union


class ModelError(Exception):
    """Malformed type, value, or database."""


ATOM_RE = re.compile(r"[A-Za-z0-9_]+\Z")


# ---------------------------------------------------------------------------
# relation types

# the one RelType of each components tuple; its fields are set once, when
# it is built, past the RelType.__setattr__ guard
_TYPES: dict = {}
_set = object.__setattr__


class RelType:
    """Shape descriptor: ``components is None`` marks the atom type.

    Types are interned: ``RelType(components)`` returns the one immutable
    type with those components, so equal types are the same object and
    compare and hash by identity.  A tuple type's row layout is worked out
    when it is first built: ``nested_columns``, the 0-based positions of
    the relation-valued columns; ``row_base_size``, the units of a row and
    its atom columns; and ``flat_row_size``, the latter when every component
    is an atom (``is_flat``), None otherwise.  The atom type has none.  Its
    text, ``0`` for the atom type and ``(c1,...,ck)`` for a tuple type, is
    built then too, from its components' text, so printing a type of any
    depth is one slot read.
    """

    __slots__ = ("components", "is_atom", "is_flat", "nested_columns", "row_base_size", "flat_row_size", "text")

    def __new__(cls, components: tuple[RelType, ...] | None = None) -> RelType:
        try:
            return _TYPES[components]
        except (KeyError, TypeError):  # not built yet, or not hashable
            pass
        if components is None:
            layout = (None, True, False, None, None, None, "0")
        elif type(components) is tuple and components and all(type(c) is RelType for c in components):
            nested = tuple(i for i, c in enumerate(components) if not c.is_atom)
            base = 1 + len(components) - len(nested)
            text = "(" + ",".join([c.text for c in components]) + ")"
            layout = (components, False, not nested, nested, base, None if nested else base, text)
        else:
            raise ModelError(f"a tuple type needs a non-empty tuple of types, not {components!r}")
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, layout):
            _set(self, name, value)
        return _TYPES.setdefault(components, self)  # one winner if threads race

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a type")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a type")

    def __reduce__(self):
        return RelType, (self.components,)

    @property
    def arity(self) -> int:
        if self.components is None:
            raise ModelError("atom type has no arity")
        return len(self.components)

    def __repr__(self) -> str:
        return f"RelType(components={self.components!r})"

    def __str__(self) -> str:
        return self.text


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
        return self.rows == other.rows and self.rtype is other.rtype

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.rtype, self.rows))
        return h

    def __len__(self) -> int:
        return len(self.rows)

    def __reduce__(self):
        # a copy is rebuilt through __init__, so no cache (a hash is per process) is kept
        return Rel, (self.rtype, self.rows)

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
    if v.rtype is not expected:
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
        if v1.rtype is not v2.rtype:
            raise ModelError(f"deep_equal across types {v1.rtype} and {v2.rtype}")
        return v1.rows == v2.rows
    raise ModelError("deep_equal between an atom and a relation")


# ---------------------------------------------------------------------------
# enumeration of all relations of a type over a domain


# row counts are counted up to this; a larger one is not built
SATURATED = 1 << 64

# count_relations refuses a count of more than 2^(this) relations
MAX_COUNT_BITS = 1 << 26


def universe_size(t: RelType, n: int) -> int:
    """Rows of type ``t`` over ``n`` atoms, or ``SATURATED`` if there are at
    least that many, so the count builds no int longer than 129 bits (a
    relation-valued column ranges over 2^(rows of its type) values)."""
    rows = 1
    for c in t.components:
        rows = min(rows * (n if c.is_atom else 1 << min(universe_size(c, n), 64)), SATURATED)
    return rows


def count_relations(t: RelType, n: int) -> int:
    """Number of relations of type ``t`` over a domain of ``n`` atoms (exact).

    It is 2^``universe_size``; a count over 2^``MAX_COUNT_BITS`` (an int of
    8 MiB) is refused rather than built."""
    if t.is_atom:
        raise ModelError("count_relations needs a tuple type")
    if n < 1:
        raise ModelError("domain size must be >= 1")
    rows = universe_size(t, n)
    if rows > MAX_COUNT_BITS:
        bound = f"2^{rows}" if rows < SATURATED else f"at least 2^{rows}"
        raise ModelError(f"too many relations of type {t} over {n} atoms to count: {bound}")
    return 1 << rows


def tuple_universe(t: RelType, atoms: tuple[str, ...]) -> list:
    """All possible rows of type ``t`` over ``atoms``, in canonical order.

    A relation-valued column ranges over every relation of its type, each
    decoded from its mask and placed at the mask's subset-lex rank, so
    nothing is sorted."""
    spaces = []
    for c in t.components:
        if c.is_atom:
            spaces.append(list(atoms))
        else:
            universe = tuple_universe(c, atoms)
            masks = range(1 << len(universe))
            space = [None] * len(masks)
            ranks = subset_ranks(masks, len(universe))
            for (v,), r in zip(Candidates((c,), (universe,)).decode(masks), ranks):
                space[r] = v
            spaces.append(space)
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
    decode = Candidates((t,), (universe,)).decode
    for mask in range(1 << len(universe)):
        yield decode((mask,))[0][0]


def subset_tables(universe, ordered: bool = False) -> list:
    """Per 8-row chunk of the universe, all 2^chunk subsets, indexed by bit pattern.

    The subsets are frozensets, or with ``ordered`` tuples of their rows in
    universe order; both are built by doubling, the subsets with a row being
    those without it plus the row.  The rows of a mask over the universe
    (bit i is row i) are then the union of one table entry per mask byte,
    which is much cheaper than decoding bits row by row; for a canonically
    ordered universe, the ordered entries of the bytes, lowest first, are
    the mask's rows in canonical order."""
    tables = []
    for ofs in range(0, len(universe) or 1, 8):  # an empty universe has one subset
        chunk = universe[ofs : ofs + 8]
        if ordered:
            table = [()]
            for row in chunk:
                table += [s + (row,) for s in table]
        else:
            table = [frozenset()]
            for row in chunk:
                single = frozenset((row,))
                table += [s | single for s in table]
        tables.append(table)
    return tables


# the bits of each byte in reverse order
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def subset_ranks(masks, u: int) -> list:
    """The subset-lex rank of each mask over a universe of ``u`` rows.

    The rank of a subset is its position among all 2^u subsets in the
    canonical order of relations, where rows are compared in universe order
    and a prefix comes first.  With ``rev`` the mask's u bits reversed (the
    first row on top), it is 0 for the empty subset, and otherwise
    ``popcount + 2^u - rev - lowbit(rev)``.  The subsets before a nonempty
    one are the ``2^u - 1 - rev`` whose reversed mask is above its own,
    except the ``lowbit(rev) - 1`` that extend it past its last row, and
    its ``popcount`` proper prefixes, the empty one included.  The lowest
    set bit of ``rev`` is the mask's highest row, ``2^(u - bit_length)``,
    and that form gives 0 for the empty subset too.

    The masks, a sequence (it is read twice) of ints of at most 64 bits,
    are reversed in bulk: reversing the bits of every byte (``_REV8``) and
    then the byte order of each 64-bit word reverses the word, whose top
    ``u`` bits are then ``rev``."""
    top = 1 << u
    drop = 64 - u
    revs = array("Q", array("Q", masks).tobytes().translate(_REV8))
    revs.byteswap()
    return [
        x.bit_count() + top - (r >> drop) - (1 << u - x.bit_length()) for x, r in zip(masks, revs)
    ]


# the offsets of the set bits of each byte, lowest first, as bytes
_BYTE_BITS = tuple(bytes(i for i in range(8) if b >> i & 1) for b in range(256))

# Up to this many set bits, _bits clears them from the top one at a time:
# at 2^16 bits, 64 of them took 26 us that way and 224 us by the bytes
# (timeit, on the machine of the bitslice.BLOCK_BITS figures).
_FEW_BITS = 64


def _bits(x: int, n: int) -> list:
    """The positions of the set bits of ``x < 2^n``, lowest first.

    With few set bits, each is cleared from the top in turn.  Otherwise only
    the nonzero bytes of ``x`` are visited, and each gives its bits from
    ``_BYTE_BITS``.
    """
    if x.bit_count() <= _FEW_BITS:
        out = []
        while x:
            top = x.bit_length() - 1
            out.append(top)
            x ^= 1 << top
        out.reverse()
        return out
    data = x.to_bytes((n + 7) >> 3, "little")
    nonzero = compress(count(0, 8), data)  # the bytes' first bits
    return [j + i for j in nonzero for i in _BYTE_BITS[data[j >> 3]]]


class Candidates:
    """The candidate assignments of relations to a solve's binders.

    Candidates are numbered by a binary counter over the binders' canonically
    ordered row universes, the last binder fastest: binder i's field of the
    counter value is the mask of its rows, bit j for row j.  ``decode`` is
    the one mask decoder and ``encode`` its inverse; ``rank_keys`` orders
    counter values as the relations they stand for, with nothing decoded.
    """

    __slots__ = ("binders",)

    def __init__(self, types, universes) -> None:
        shift = sum(map(len, universes))
        self.binders = []
        for t, u in zip(types, universes):
            shift -= len(u)
            self.binders.append((t, u, shift, (1 << len(u)) - 1, subset_tables(u)))

    def decode(self, cands) -> list:
        """The rows of relations that the counter values ``cands`` stand for.

        Each relation is the union of one ``subset_tables`` entry per byte of
        its mask.  It is built without ``Rel.__init__``, with its hash and,
        when flat, its size; its order caches stay empty until a sort.
        """
        new = object.__new__
        columns = []
        for t, _, shift, m, tables in self.binders:
            first, rest = tables[0], tables[1:]
            w = t.flat_row_size
            column = []
            for c in cands:
                x = c >> shift & m
                rows = first[x & 255]
                for table in rest:
                    x >>= 8
                    if x & 255:
                        rows = rows | table[x & 255]
                v = new(Rel)
                v.rtype = t
                v.rows = rows
                v._hash = hash((t, rows))
                v._size = w and len(rows) * w
                v._key = v._sorted = None
                column.append(v)
            columns.append(column)
        return list(zip(*columns))

    def encode(self, rows) -> list | None:
        """The counter value of each row in ``rows``, the inverse of ``decode``.

        A row is one relation per binder; its value is the OR of ``1 << (j +
        shift)`` over each binder's field, for each row j of the binder's
        universe that its relation holds.  None when some row is no counter
        value's: not a tuple of one value per binder, a component that is not
        a relation of its binder's type, or one holding a row outside the
        binder's universe.
        """
        rows = list(rows)
        if not all(map(isinstance, rows, repeat(tuple))):
            return None
        if set(map(len, rows)) - {len(self.binders)}:
            return None
        out = [0] * len(rows)
        for i, (t, u, shift, _, _) in enumerate(self.binders):
            column = list(map(itemgetter(i), rows))
            if not all(map(isinstance, column, repeat(Rel))):
                return None
            if not all(map(is_, map(attrgetter("rtype"), column), repeat(t))):
                return None
            bit = {r: 1 << j + shift for j, r in enumerate(u)}.__getitem__
            # the bits of a relation's rows are distinct, so their sum is their OR
            fields = map(sum, map(map, repeat(bit), map(attrgetter("rows"), column)))
            try:
                out = list(map(or_, out, fields))
            except KeyError:  # a row outside the universe
                return None
        return out

    def rank_keys(self, cands) -> list:
        """The canonical sort key of each counter value in ``cands``.

        It is the counter value with each binder's field replaced by its
        subset-lex rank (``subset_ranks``), so the relations that the values
        stand for sort as their keys do, by one int each.
        """
        keys = None
        for _, u, shift, m, _ in reversed(self.binders):  # the last field is lowest
            ranks = subset_ranks([c >> shift & m for c in cands], len(u))
            keys = ranks if keys is None else [k | r << shift for k, r in zip(keys, ranks)]
        return keys


_rows = Rel.rows  # Rel's slot for the rows, under SolutionSet's property


class SolutionSet(Rel):
    """A solve's solution set, whose solutions are listed and decoded only
    when read.

    It holds its solutions as ``(base, mask)`` runs, bit h of ``mask`` for
    the candidate with counter value ``base + h``, and the ``Candidates``
    that decodes them.  It is in one of three states: runs only; runs and
    their counter values in candidate order (an ``array('Q')``), listed by
    ``_bits`` on the first ``==``, ``in_order`` or read of ``rows``; and
    decoded into the ``rows`` slot by the first read of ``rows``, which
    decodes each solution once.  Length, truth and size read only the runs,
    and rendering no rows: in any state, ``in_order`` gives the counter
    values in canonical order, from which ``parser.render_relation`` prints
    the set.  Until it is decoded, ``==`` against a plain relation of its
    type compares counter values, the other's rows encoded by
    ``Candidates.encode``.  It sorts as any nested relation does, by
    ``Rel._sort`` on its decoded rows.
    """

    __slots__ = ("_runs", "_cands", "_space")

    def __init__(self, rtype: RelType, runs: list, space: Candidates, size: int) -> None:
        self.rtype = rtype  # no Rel.__init__: the rows slot stays empty
        self._runs = runs
        self._cands = None
        self._space = space
        self._size = size
        self._hash = self._key = self._sorted = None

    def __len__(self) -> int:
        return sum(mask.bit_count() for _, mask in self._runs)

    def counters(self) -> array:
        """The solutions' counter values in candidate order, listed from the
        runs on the first call."""
        cands = self._cands
        if cands is None:
            cands = self._cands = array("Q")
            for base, mask in self._runs:
                hits = _bits(mask, mask.bit_length())
                cands.extend((base + h for h in hits) if base else hits)
        return cands

    def __eq__(self, other: object) -> bool:
        if type(other) is Rel and other.rtype is self.rtype:
            try:
                _rows.__get__(self)
            except AttributeError:  # not decoded: compare counter values
                if len(other.rows) != len(self):
                    return False
                encoded = self._space.encode(other.rows)
                return encoded is not None and set(encoded) == set(self.counters())
        return Rel.__eq__(self, other)

    __hash__ = Rel.__hash__  # a class that defines __eq__ gets no inherited hash

    @property
    def rows(self) -> frozenset:
        try:
            return _rows.__get__(self)
        except AttributeError:  # not read yet
            rows = frozenset(self._space.decode(self.counters()))
            _rows.__set__(self, rows)
            return rows

    def in_order(self) -> tuple:
        """``(Candidates, the solutions' counter values in canonical order)``,
        sorted by ``Candidates.rank_keys`` without decoding."""
        space, cands = self._space, self.counters()
        keys = space.rank_keys(cands)
        return space, list(map(cands.__getitem__, sorted(range(len(cands)), key=keys.__getitem__)))


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
