import copy
import inspect
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqalg.model import (
    ATOM,
    Candidates,
    Database,
    ModelError,
    Rel,
    RelType,
    SolutionSet,
    canonicalize,
    count_relations,
    deep_equal,
    enumerate_relations,
    flat_type,
    rename_database,
    rename_value,
    row_sort_key,
    subset_ranks,
    subset_tables,
    tuple_universe,
    value_size,
    value_sort_key,
)
from eqalg.parser import render_relation

from oracles import from_plain, random_type, random_value, to_plain

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)


def rel(rtype, rows):
    return Rel(rtype, frozenset(rows))


# ---------------------------------------------------------------------------
# types


def test_type_rendering_and_flags():
    assert str(ATOM) == "0"
    assert str(FLAT2) == "(0,0)"
    nested = RelType((RelType((ATOM,)),))
    assert str(nested) == "((0))"
    assert FLAT2.is_flat and not nested.is_flat and not ATOM.is_flat
    assert FLAT2.arity == 2


def test_type_200_levels_deep_prints_without_recursion():
    t = ATOM
    for _ in range(200):
        t = RelType((t, ATOM))
    # a few frames of headroom: printing may not recurse per level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        text = str(t)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "(" * 200 + "0" + ",0)" * 200
    assert str(RelType((t,))) == "(" + text + ")"


def test_equal_types_built_apart_hash_equal():
    def build():
        return RelType((RelType(), RelType((RelType(), RelType((RelType(),))))))

    a, b = build(), build()
    assert a is b and a == b and hash(a) == hash(b)
    assert hash(flat_type(3)) == hash(RelType((ATOM, RelType(), ATOM)))
    assert len({a, b, FLAT2, flat_type(2)}) == 2
    assert Rel(a, []) == Rel(b, []) and hash(Rel(a, [])) == hash(Rel(b, []))


def test_empty_tuple_type_rejected():
    for components in ((), ("0",), (None,), [ATOM]):
        with pytest.raises(ModelError):
            RelType(components)


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_types_copy_and_pickle_to_themselves(copier):
    for t in (ATOM, FLAT2, RelType((FLAT1, ATOM)), RelType((RelType((FLAT2,)),))):
        assert copier(t) is t


# a flat, a nested and a solution-set value, built the same in any process
VALUES_SOURCE = """
from eqalg.evaluator import evaluate
from eqalg.model import ATOM, Rel, RelType
from eqalg.parser import parse_database, parse_expr

def values():
    db, _ = parse_database("domain [a,b]\\nR:(0,0) = [[a,b]]\\n")
    flat = db.relations["R"]
    inner = Rel(RelType((ATOM,)), [("a",)])
    nested = Rel(RelType((RelType((ATOM,)), ATOM)), [(inner, "b"), (Rel(inner.rtype, []), "a")])
    solutions = evaluate(parse_expr("solve{(X:(0,0)) | union(X,R) = R}"), db)[0]
    return [flat, nested, solutions]
"""


def _values() -> list:
    scope: dict = {}
    exec(VALUES_SOURCE, scope)
    return scope["values"]()


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_copy_and_pickle_to_equal_plain_relations(copier, read):
    # a copy is rebuilt through Rel.__init__, so it keeps no cache, and a
    # solution set's copy is a plain relation with its rows
    values = _values()
    assert type(values[-1]) is SolutionSet and len(values[-1]) == 2
    for v in values:
        text = render_relation(v)
        if read:  # fill the hash and order caches
            hash(v)
            v.sorted_rows()
        c = copier(v)
        assert type(c) is Rel and c.rtype is v.rtype
        assert (c._hash, c._size, c._key, c._sorted) == (None, None, None, None)
        assert c == v and v == c and hash(c) == hash(v) and c in {v}
        assert (render_relation(c), value_size(c)) == (text, value_size(v))


def test_pickled_values_hash_afresh_under_another_hash_seed():
    # pickled under one hash seed and loaded under another, each value is
    # equal to, and found in a set of, the same value built fresh there
    import os
    import subprocess

    import eqalg

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(eqalg.__file__)))
    dump = VALUES_SOURCE + (
        "import pickle, sys\n"
        "v = values()\n"
        "[hash(x) for x in v]  # fills each hash cache\n"
        "sys.stdout.buffer.write(pickle.dumps(v))\n"
    )
    load = VALUES_SOURCE + (
        "import pickle, sys\n"
        "v = pickle.loads(sys.stdin.buffer.read())\n"
        "for x, f in zip(v, values(), strict=True):\n"
        "    assert x == f and x in {f} and x in {Rel(f.rtype, f.rows)}, (x, f)\n"
        "print(len(v))\n"
    )
    data = b""
    for seed, source in (("1", dump), ("2", load)):
        proc = subprocess.run(
            [sys.executable, "-B", "-c", source],
            input=data,
            capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        data = proc.stdout
    assert data == b"3\n"


# ---------------------------------------------------------------------------
# canonical form


def test_canonicalize_dedups_and_sorts():
    v = Rel(FLAT1, [("b",), ("a",), ("a",)])
    assert render_relation(canonicalize(v)) == "[[a],[b]]"
    assert len(v.rows) == 2


def test_canonicalize_empty_identity():
    v = rel(FLAT2, [])
    assert canonicalize(v) is v
    assert render_relation(v) == "[]"


def test_canonicalize_nested_sorts_inside():
    inner = Rel(FLAT1, [("b",), ("a",)])
    v = Rel(RelType((FLAT1,)), [(inner,)])
    assert render_relation(canonicalize(v)) == "[[[[a],[b]]]]"


def test_canonicalize_rejects_bad_arity():
    v = Rel(FLAT2, [("a",)])
    with pytest.raises(ModelError):
        canonicalize(v)


def test_canonicalize_rejects_wrong_component():
    v = Rel(RelType((FLAT1,)), [("a",)])
    with pytest.raises(ModelError):
        canonicalize(v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_canonicalize_idempotent_on_random_values(seed):
    rng = random.Random(seed)
    t = random_type(rng, max_depth=3)
    v = random_value(rng, t, ("a", "b", "c", "d"))
    once = canonicalize(v)
    assert canonicalize(once) == once
    assert render_relation(once) == render_relation(v)


# ---------------------------------------------------------------------------
# deep equality and ordering


def test_deep_equal_is_set_equality():
    assert deep_equal(rel(FLAT1, [("a",), ("b",)]), rel(FLAT1, [("b",), ("a",)]))
    a = Rel(RelType((FLAT1,)), [(rel(FLAT1, [("a",)]),)])
    b = Rel(RelType((FLAT1,)), [(rel(FLAT1, [("b",)]),)])
    assert not deep_equal(a, b)
    assert deep_equal(rel(FLAT1, []), rel(FLAT1, []))
    # != is derived from ==, both ways and across types of operand
    assert not rel(FLAT1, [("a",)]) != rel(FLAT1, [("a",)])
    assert a != b and b != a
    assert rel(FLAT1, [("a",)]) != "a" and "a" != rel(FLAT1, [("a",)])
    universe = tuple_universe(FLAT1, ("a", "b"))
    space = Candidates((FLAT1,), (universe,))
    solutions = SolutionSet(RelType((FLAT1,)), [(0, 0b1001)], space, 6)  # counter values 0 and 3
    fresh = Rel(RelType((FLAT1,)), [(rel(FLAT1, []),), (rel(FLAT1, [("a",), ("b",)]),)])
    assert not solutions != fresh and not fresh != solutions
    assert solutions != a and a != solutions


def test_deep_equal_type_mismatch_errors():
    with pytest.raises(ModelError):
        deep_equal(rel(FLAT1, []), rel(FLAT2, []))
    with pytest.raises(ModelError):
        deep_equal("a", rel(FLAT1, []))


def test_deep_equal_matches_rendered_identity():
    rng = random.Random(99)
    for _ in range(40):
        t = random_type(rng, max_depth=2)
        v1 = random_value(rng, t, ("a", "b", "c"))
        v2 = random_value(rng, t, ("a", "b", "c"))
        assert deep_equal(v1, v2) == (render_relation(v1) == render_relation(v2))


def test_value_order_is_strict_and_total():
    rng = random.Random(5)
    t = random_type(rng, max_depth=2)
    values = [random_value(rng, t, ("a", "b", "c")) for _ in range(25)]
    keys = [value_sort_key(v) for v in values]
    for v, k in zip(values, keys):
        for w, l in zip(values, keys):
            if deep_equal(v, w):
                assert k == l
            else:
                assert k != l  # total: unequal values are ordered
    assert sorted(keys) == sorted(keys)  # comparable without TypeError


def test_row_order_agrees_with_components():
    r1 = ("a", "b")
    r2 = ("a", "c")
    assert row_sort_key(r1) < row_sort_key(r2)


# ---------------------------------------------------------------------------
# sizes


def test_value_size_counts_atoms_and_tuples():
    assert value_size("a") == 1
    assert value_size(rel(FLAT2, [("a", "b")])) == 3
    inner = rel(FLAT1, [("a",), ("b",)])
    nested = Rel(RelType((FLAT1,)), [(inner,)])
    # one outer tuple + inner relation (two tuples, two atoms)
    assert value_size(nested) == 1 + 4


# ---------------------------------------------------------------------------
# counting and enumeration


@pytest.mark.parametrize(
    "t,n,expected",
    [
        (FLAT2, 2, 16),
        (RelType((FLAT1,)), 2, 16),
        (FLAT1, 3, 8),
    ],
)
def test_count_relations(t, n, expected):
    assert count_relations(t, n) == expected


def test_count_relations_rejects_atom_type():
    with pytest.raises(ModelError):
        count_relations(ATOM, 2)


def test_count_relations_refuses_counts_it_would_not_build():
    # ((0)) over 26 atoms has 2^26 rows, the most a count may have; over 27
    # atoms, and (((0))) over 5 (2^32 rows) or 6 atoms (2^64), are refused
    nested = RelType((FLAT1,))
    assert count_relations(nested, 26).bit_length() == (1 << 26) + 1
    for t, n, bound in (
        (nested, 27, "2^134217728"),
        (RelType((nested,)), 5, "2^4294967296"),
        (RelType((nested,)), 6, "at least 2^18446744073709551616"),
    ):
        with pytest.raises(ModelError, match=re.escape(f"{t} over {n} atoms to count: {bound}")):
            count_relations(t, n)


def test_enumerate_unary_order():
    got = [render_relation(v) for v in enumerate_relations(FLAT1, ("a", "b"))]
    assert got == ["[]", "[[a]]", "[[b]]", "[[a],[b]]"]


def test_enumerate_nested_single_atom():
    got = [render_relation(v) for v in enumerate_relations(RelType((FLAT1,)), ("a",))]
    assert got == ["[]", "[[[]]]", "[[[[a]]]]", "[[[]],[[[a]]]]"]


def test_enumerate_stream_length_matches_count():
    assert sum(1 for _ in enumerate_relations(FLAT2, ("a", "b"))) == count_relations(FLAT2, 2)


def test_tuple_universe_is_canonically_sorted():
    from eqalg.model import tuple_universe

    for t in (FLAT2, RelType((FLAT1, ATOM)), RelType((RelType((ATOM, ATOM)),))):
        universe = tuple_universe(t, ("a", "b"))
        assert universe == sorted(universe, key=row_sort_key)
        assert len(set(map(row_sort_key, universe))) == len(universe)


def test_enumerate_matches_count_and_is_duplicate_free():
    rng = random.Random(11)
    for _ in range(6):
        t = random_type(rng, max_depth=2, max_arity=2)
        n = rng.randint(1, 3)
        if count_relations(t, n) > 5000:
            continue
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        seen = {render_relation(v) for v in enumerate_relations(t, atoms)}
        assert len(seen) == count_relations(t, n)


def test_subset_rank_is_the_position_in_canonical_order():
    # every mask over universes of up to 10 rows, against a sort of the
    # relations the masks stand for, built with Rel
    atoms = tuple(f"x{i}" for i in range(10))
    for u in range(11):
        universe = tuple_universe(FLAT1, atoms[:u])
        masks = range(1 << u)
        rels = [Rel(FLAT1, [r for i, r in enumerate(universe) if m >> i & 1]) for m in masks]
        order = sorted(masks, key=lambda m: value_sort_key(rels[m]))
        positions = [0] * len(order)
        for p, m in enumerate(order):
            positions[m] = p
        assert subset_ranks(masks, u) == positions, u


def test_ordered_subset_tables_hold_the_sorted_rows_of_each_subset():
    universe = tuple_universe(FLAT2, ("a", "b", "c"))  # 9 rows, two chunks
    sets, ordered = subset_tables(universe), subset_tables(universe, ordered=True)
    assert [len(t) for t in ordered] == [256, 2]
    for table, rows in zip(sets, ordered):
        assert [tuple(sorted(s)) for s in table] == rows


DECODED_TYPES = (FLAT1, FLAT2, RelType((FLAT1, ATOM)), RelType((FLAT1,)))


@pytest.mark.parametrize("t", DECODED_TYPES, ids=str)
def test_decoded_relations_have_the_caches_of_fresh_ones(t):
    atoms = ("a", "b", "c") if t.is_flat else ("a", "b")
    universe = tuple_universe(t, atoms)
    masks = range(1 << len(universe))  # up to 512
    rows = Candidates((t,), (universe,)).decode(masks)
    for (v,), m in zip(rows, masks):
        f = from_plain(to_plain(v), t)  # rebuilt through Rel at every depth
        assert v.rows == {r for i, r in enumerate(universe) if m >> i & 1}
        assert v.rtype == t and v == f
        assert v._hash == hash(f)
        assert v._size == (value_size(f) if t.is_flat else None)
        assert v._sorted is None and v._key is None
        assert v.sorted_rows() == f.sorted_rows() and value_sort_key(v) == value_sort_key(f)
        assert value_size(v) == value_size(f)


def test_candidates_decode_fields_last_binder_fastest():
    atoms = ("a", "b")
    types = (FLAT1, FLAT2, RelType((FLAT1,)))
    universes = [tuple_universe(t, atoms) for t in types]  # 2, 4 and 4 rows
    space = Candidates(types, universes)
    for c in (0, 1, 0b10_0000_0001, 0b11_1010_0110, (1 << 10) - 1):
        (row,) = space.decode((c,))
        masks = (c >> 8, c >> 4 & 15, c & 15)
        for v, t, u, m in zip(row, types, universes, masks):
            assert v == Rel(t, [r for i, r in enumerate(u) if m >> i & 1])


# binder types of the counter-space tests, with the atoms of their domain:
# one to three binders, flat and nested, some universes over one 8-row chunk
ENCODED_BINDERS = (
    ((FLAT1,), ("a", "b", "c")),
    ((FLAT2,), ("a", "b", "c")),
    ((FLAT1, FLAT2), ("a", "b")),
    ((FLAT1, FLAT1, FLAT1), ("a", "b", "c")),
    ((RelType((FLAT1,)),), ("a", "b")),
    ((RelType((FLAT1,)), FLAT1), ("a", "b")),
    ((FLAT1, RelType((FLAT1, ATOM)), FLAT1), ("a",)),
)


def _space(types, atoms):
    return Candidates(types, [tuple_universe(t, atoms) for t in types])


def _fresh(rel_value):
    return from_plain(to_plain(rel_value), rel_value.rtype)


def _outside(t):
    """A row of type ``t`` holding the atom ``z``, outside every domain here."""
    return tuple("z" if c.is_atom else Rel(c, [_outside(c)]) for c in t.components)


def _malformed_rows(row, t_other):
    """Rows of the shape of ``row`` that no counter value stands for: its
    first relation holding a row outside the domain, that relation swapped
    for an empty one of type ``t_other``, or for an atom, one column too
    many, one too few, and a relation in place of the row."""
    first = row[0]
    yield (Rel(first.rtype, first.rows | {_outside(first.rtype)}),) + row[1:]
    yield (Rel(t_other, []),) + row[1:]
    yield ("a",) + row[1:]
    yield row + row[:1]
    yield row[:-1]
    yield first


@pytest.mark.parametrize("types,atoms", ENCODED_BINDERS, ids=lambda x: ",".join(map(str, x)))
def test_candidates_encode_inverts_decode(types, atoms):
    rng = random.Random(f"encode/{types}")
    space = _space(types, atoms)
    width = sum(len(u) for _, u, *_ in space.binders)
    cands = [0, (1 << width) - 1] + [rng.randrange(1 << width) for _ in range(60)]
    rows = space.decode(cands)
    assert space.encode(rows) == cands and space.encode([]) == []
    # relations rebuilt through Rel encode as the decoded ones do
    rtype = RelType(types)
    rebuilt = [_fresh(Rel(rtype, [row])).sorted_rows()[0] for row in rows]
    assert space.encode(rebuilt) == cands
    t_other = FLAT2 if types[0] is FLAT1 else FLAT1
    for row in rows[:8]:
        for bad in _malformed_rows(row, t_other):
            assert space.encode([row, bad]) is None and space.encode([bad]) is None, bad


def _near_misses(rows, spare, t_other):
    """``(tag, rows)``: plain rows that differ from the solution rows ``rows``
    by one row, with ``spare`` a row of a counter value not among them."""
    if rows:
        yield "swapped", rows[1:] + [spare]
        yield "missing", rows[1:]
        for i, bad in enumerate(_malformed_rows(rows[0], t_other)):
            yield f"malformed{i}", rows[1:] + [bad]
    yield "extra", rows + [spare]


def _comparisons():
    """``(tag, make, fresh, other)``: ``make()`` gives a new solution set not
    yet decoded, ``fresh`` the same rows rebuilt through Rel, and ``other`` a
    relation to compare it with."""
    rng = random.Random(2000)
    for types, atoms in ENCODED_BINDERS:
        space = _space(types, atoms)
        width = sum(len(u) for _, u, *_ in space.binders)
        rtype = RelType(types)
        t_other = FLAT2 if types[0] is FLAT1 else FLAT1
        for _ in range(4):
            k = rng.randint(0, min(12, (1 << width) - 1))
            picked = set(rng.sample(range(1 << width), k))
            if picked:  # one solution whose first relation is empty
                picked.add(rng.randrange(1 << space.binders[0][2]))
            cands = sorted(picked)
            spare = rng.choice([c for c in range(1 << width) if c not in picked])
            # rows in counter order: the first has an empty first relation
            rows = [_fresh(Rel(rtype, [row])).sorted_rows()[0] for row in space.decode(cands)]
            fresh = Rel(rtype, rows)
            (spare_row,) = _fresh(Rel(rtype, space.decode([spare]))).rows

            def make(cands=cands, space=space, rtype=rtype, size=value_size(fresh)):
                return SolutionSet(rtype, [(0, sum(1 << c for c in cands))], space, size)

            yield "equal", make, fresh, _fresh(fresh)
            yield "other_type", make, fresh, Rel(RelType((t_other,) + types[1:]), [])
            for tag, other_rows in _near_misses(rows, spare_row, t_other):
                yield tag, make, fresh, Rel(rtype, other_rows)


def test_counter_space_equality_agrees_with_rel_equality(decoded, monkeypatch):
    encoded = []
    encode = Candidates.encode
    monkeypatch.setattr(
        Candidates, "encode", lambda self, rows: encoded.append(len(rows)) or encode(self, rows)
    )
    seen: dict = {}
    for tag, make, fresh, other in _comparisons():
        expected = Rel.__eq__(fresh, other)
        seen.setdefault(tag, set()).add(expected)
        if not fresh:
            seen.setdefault("empty", set()).add(expected)
        decoded.clear()
        encoded.clear()
        assert (make() == other, other == make()) == (expected, expected), tag
        assert (make() != other, other != make()) == (not expected, not expected), tag
        if other.rtype is fresh.rtype:  # compared in counter space
            assert sum(decoded) == 0, tag
            # a set of another length is told apart without encoding a row
            assert encoded == ([len(other)] * 4 if len(other) == len(fresh) else []), tag
        if expected:
            sol = make()
            assert hash(sol) == hash(fresh) and sol in {fresh} and fresh in {make()}
            assert make() in {other: 1} and sol == make() and make() == sol
    assert seen.pop("equal") == {True} and seen.pop("empty") == {True, False}
    assert set(seen) == {"other_type", "swapped", "missing", "extra"} | {
        f"malformed{i}" for i in range(6)
    }
    assert all(answers == {False} for answers in seen.values()), seen


def test_enumeration_is_lazy():
    stream = enumerate_relations(FLAT2, ("a", "b", "c", "d", "e"))
    first = next(stream)
    assert render_relation(first) == "[]"


# ---------------------------------------------------------------------------
# databases


def test_database_validation():
    db = Database(("a", "b"), {"R": rel(FLAT2, [("a", "b")])})
    assert db.schema == {"R": FLAT2}
    with pytest.raises(ModelError):
        Database((), {})
    with pytest.raises(ModelError):
        Database(("a",), {"R": rel(FLAT2, [("a", "c")])})  # c outside domain
    with pytest.raises(ModelError):
        Database(("a",), {"D": rel(FLAT1, [])})  # reserved name


NESTED = RelType((ATOM, FLAT1))
BAD_DATABASES = [
    ("wrong_arity", rel(FLAT2, [("a", "b"), ("a",)]), "row ('a',) does not have arity 2"),
    ("non_tuple_row", rel(FLAT2, ["ab"]), "row 'ab' does not have arity 2"),
    ("int_atom", rel(FLAT2, [("a", 3)]), "expected an atom, got a relation of type ?"),
    (
        "rel_in_flat_column",
        rel(FLAT2, [("a", rel(FLAT1, [("a",)]))]),
        "expected an atom, got a relation of type (0)",
    ),
    ("bad_atom_symbol", rel(FLAT1, [("a-b",)]), "bad atom symbol 'a-b'"),
    (
        "atom_in_relation_column",
        rel(RelType((FLAT1,)), [("a",)]),
        "expected a relation of type (0), got atom 'a'",
    ),
    (
        "inner_value_of_wrong_type",
        rel(NESTED, [("a", rel(FLAT2, []))]),
        "value has type (0,0), expected (0)",
    ),
    (
        "wrong_arity_inside_nested",
        rel(NESTED, [("a", rel(FLAT1, [("b",), ("a", "b")]))]),
        "row ('a', 'b') does not have arity 1",
    ),
    (
        "foreign_atom_top_level",
        rel(FLAT2, [("a", "z")]),
        "relation R mentions atom 'z' outside the domain",
    ),
    (
        "foreign_atom_in_nested_flat",
        rel(NESTED, [("a", rel(FLAT1, [("b",), ("z",)]))]),
        "relation R mentions atom 'z' outside the domain",
    ),
]


@pytest.mark.parametrize(
    "value,message", [c[1:] for c in BAD_DATABASES], ids=[c[0] for c in BAD_DATABASES]
)
def test_bad_database_message(value, message):
    with pytest.raises(ModelError) as err:
        Database(("a", "b"), {"R": value})
    assert str(err.value) == message


def test_rename_roundtrip():
    db = Database(("a", "b"), {"R": rel(FLAT2, [("a", "b"), ("b", "b")])})
    mapping = {"a": "b", "b": "a"}
    back = rename_database(rename_database(db, mapping), mapping)
    assert back == db
    v = rel(FLAT1, [("a",)])
    assert rename_value(v, mapping) == rel(FLAT1, [("b",)])
