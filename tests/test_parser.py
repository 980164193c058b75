import random

import pytest

from eqalg import ast
from eqalg.model import ATOM, Database, Rel, RelType, flat_type, value_sort_key
from eqalg.parser import (
    ParseError,
    parse_database,
    parse_expr,
    parse_type,
    render_database,
    render_expr,
    render_relation,
)

from oracles import (
    from_plain,
    plain_compare,
    plain_render,
    plain_sorted_rows,
    random_type,
    random_value,
    to_plain,
)

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)


def test_parse_solve_with_binder():
    e = parse_expr("solve{(X:(0,0)) | union(X,R) = R}")
    assert isinstance(e, ast.Solve)
    assert e.binders == (("X", FLAT2),)
    assert e.lhs == ast.Union(ast.Name("X"), ast.Name("R"))
    assert e.rhs == ast.Name("R")


def test_parse_projection_chain():
    e = parse_expr("project[2,3](unnest[1](E))")
    assert e == ast.Project((2, 3), ast.Unnest(1, ast.Name("E")))


def test_parse_parenthesised_expression():
    assert parse_expr("((union(R,S)))") == parse_expr("union(R,S)")


def test_parse_diseq_sugar_rewrites():
    e = parse_expr("solve{(T:(0,0)) | ETC != empty}")
    assert isinstance(e, ast.Solve)
    lhs, rhs = ast.rewrite_diseq_to_eq(ast.Name("ETC"))
    assert e.lhs == lhs and e.rhs == rhs


def test_parse_eq_empty_sugar():
    e = parse_expr("solve{(X:(0)) | minus(X,R) = empty}")
    body = ast.Difference(ast.Name("X"), ast.Name("R"))
    assert e.rhs == ast.empty_like(body)


def test_diseq_requires_empty_rhs():
    with pytest.raises(ParseError):
        parse_expr("solve{(X:(0)) | X != R}")


def test_parse_types():
    assert parse_type("0") == ATOM
    assert parse_type("((0),0)") == RelType((FLAT1, ATOM))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expr("union(R,,S)")
    assert err.value.line == 1 and err.value.col > 1
    with pytest.raises(ParseError):
        parse_expr("project[0](R)")
    with pytest.raises(ParseError):
        parse_expr("frobnicate[1](R)")


def test_parse_database_flat():
    db, schema = parse_database("domain [a,b]\nR:(0,0) = [[a,b]]")
    assert schema == {"R": FLAT2}
    assert db.relations["R"] == Rel(FLAT2, frozenset({("a", "b")}))


def test_parse_database_nested():
    db, _ = parse_database("domain [a]\nR:((0)) = [[[[a]]]]")
    inner = Rel(FLAT1, frozenset({("a",)}))
    assert db.relations["R"] == Rel(RelType((FLAT1,)), frozenset({(inner,)}))


def test_parse_database_rejects_empty_domain():
    with pytest.raises(ParseError):
        parse_database("domain []")


def test_parse_database_rejects_foreign_atom():
    with pytest.raises(ParseError, match="not in domain"):
        parse_database("domain [a]\nR:(0) = [[b]]")


def test_parse_database_rejects_duplicates_and_bad_arity():
    with pytest.raises(ParseError, match="duplicate"):
        parse_database("domain [a]\nR:(0) = [[a]]\nR:(0) = [[a]]")
    with pytest.raises(ParseError):
        parse_database("domain [a]\nR:(0,0) = [[a]]")


def test_render_relation_examples():
    assert render_relation(Rel(FLAT1, frozenset({("b",), ("a",)}))) == "[[a],[b]]"
    assert render_relation(Rel(FLAT2, frozenset())) == "[]"


# ---------------------------------------------------------------------------
# canonical order and rendering against the plain-value oracles

# string order differs from length and case order: "10" < "9" < "B" < "_b" < "a" < "a1"
ORDER_ATOMS = ("a1", "9", "_b", "a", "10", "B", "ab")


def _order_corpus():
    """Values of random types up to depth 3, several per type so that values
    of one type can be compared, plus empty and 1- to 3-ary flat relations."""
    rng = random.Random(4242)
    corpus = []
    for arity in (1, 2, 3):
        t = flat_type(arity)
        corpus.append(Rel(t, frozenset()))
        corpus += [random_value(rng, t, ORDER_ATOMS, max_rows=6) for _ in range(4)]
    for _ in range(80):
        t = random_type(rng, max_depth=3)
        corpus += [random_value(rng, t, ORDER_ATOMS) for _ in range(3)]
    return corpus


def _fill(v, first):
    """A fresh copy of ``v`` (no cache filled at any depth), asked for its
    sort key and its sorted rows in the given order, then rendered."""
    w = from_plain(to_plain(v), v.rtype)
    if first == "key":
        key = value_sort_key(w)
        rows = w.sorted_rows()
    else:
        rows = w.sorted_rows()
        key = value_sort_key(w)
    return key, rows, render_relation(w)


@pytest.mark.parametrize("first", ["key", "rows"])
def test_canonical_order_and_rendering_match_oracles(first):
    corpus = _order_corpus()
    seen = set()
    by_type: dict = {}
    for v in corpus:
        plain = to_plain(v)
        key, rows, text = _fill(v, first)
        assert [tuple(map(to_plain, r)) for r in rows] == plain_sorted_rows(plain)
        assert text == plain_render(plain)
        by_type.setdefault(v.rtype, []).append((key, plain))
        if not plain:
            seen.add("empty")
        if v.rtype.is_flat:
            seen.add(("flat", v.rtype.arity))
        else:
            seen.add("relation_column")
    # the key orders the values of one type as the oracle does, and is equal
    # exactly when the values are
    for values in by_type.values():
        for k1, p1 in values:
            for k2, p2 in values:
                assert (k1 > k2) - (k1 < k2) == plain_compare(p1, p2)
    assert {"empty", ("flat", 1), ("flat", 2), ("flat", 3), "relation_column"} <= seen
    assert sum(len(values) > 1 for values in by_type.values()) >= 20


def test_order_corpus_round_trips_through_database_text():
    corpus = _order_corpus()
    for start in range(0, len(corpus), 5):
        rels = {f"R{i}": v for i, v in enumerate(corpus[start : start + 5])}
        db = Database(ORDER_ATOMS, rels)
        text = render_database(db)
        back, _ = parse_database(text)
        assert back == db
        assert render_database(back) == text
        for name, v in rels.items():
            assert f"{name}:{v.rtype} = {plain_render(to_plain(v))}" in text.splitlines()


def test_value_roundtrip_through_database_text():
    rng = random.Random(21)
    for _ in range(60):
        t = random_type(rng, max_depth=2)
        v = random_value(rng, t, ("a", "b", "c"))
        db = Database(("a", "b", "c"), {"R": v})
        back, _ = parse_database(render_database(db))
        assert back == db


def test_rendering_injective_on_canonical_values():
    rng = random.Random(33)
    seen = {}
    for _ in range(200):
        t = random_type(rng, max_depth=2, max_arity=2)
        v = random_value(rng, t, ("a", "b"))
        text = f"{v.rtype}|{render_relation(v)}"
        if text in seen:
            assert seen[text] == v
        seen[text] = v


# ---------------------------------------------------------------------------
# random AST round trips


def random_ast(rng: random.Random, depth: int) -> ast.Expr:
    if depth <= 0:
        return rng.choice([ast.Name(rng.choice(["R", "S", "T0"])), ast.Domain()])
    kind = rng.choice(
        ["union", "minus", "times", "project", "select", "nest", "unnest", "power", "solve"]
    )
    if kind in ("union", "minus", "times"):
        cls = {"union": ast.Union, "minus": ast.Difference, "times": ast.Product}[kind]
        return cls(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind in ("project", "nest"):
        cls = ast.Project if kind == "project" else ast.Nest
        indices = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        return cls(indices, random_ast(rng, depth - 1))
    if kind == "select":
        return ast.Select(rng.randint(1, 4), rng.choice(["=", "!="]), rng.randint(1, 4), random_ast(rng, depth - 1))
    if kind == "unnest":
        return ast.Unnest(rng.randint(1, 4), random_ast(rng, depth - 1))
    if kind == "power":
        return ast.Powerset(random_ast(rng, depth - 1))
    binders = tuple(
        (f"X{i}", rng.choice([FLAT1, FLAT2, RelType((FLAT1,))]))
        for i in range(1, rng.randint(2, 3))
    )
    return ast.Solve(binders, random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def test_expr_roundtrip_500_random_asts():
    rng = random.Random(7)
    for _ in range(500):
        e = random_ast(rng, rng.randint(1, 5))
        assert parse_expr(render_expr(e)) == e


def test_database_roundtrip_random():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        rels = {}
        for r in range(rng.randint(0, 3)):
            t = random_type(rng, max_depth=2)
            rels[f"R{r}"] = random_value(rng, t, atoms)
        db = Database(atoms, rels)
        text = render_database(db)
        back, _ = parse_database(text)
        assert back == db
        assert render_database(back) == text
