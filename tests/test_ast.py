import pytest

from eqalg import ast
from eqalg.ast import (
    AstError,
    Difference,
    Domain,
    Name,
    Nest,
    Product,
    Project,
    Select,
    Solve,
    Union,
    Unnest,
    empty_like,
    free_names,
    rewrite_diseq_to_eq,
    rewrite_eq_to_diseq,
)
from eqalg.evaluator import evaluate, solve
from eqalg.model import Database, ModelError, Rel, RelType, flat_type
from eqalg.typecheck import infer_type

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)


def test_nodes_compare_hash_print_and_stay_as_built():
    e = Select(1, "=", 2, Product(Name("R"), Domain()))
    same = Select(1, "=", 2, Product(Name("R"), Domain()))
    assert e == same and hash(e) == hash(same) and e is not same
    assert hash(e) == hash((1, "=", 2, e.arg))  # the tuple of the fields
    assert Union(Name("R"), Name("R")) != Difference(Name("R"), Name("R"))
    assert Select(1, "=", 2, e.arg) != Select(1, "!=", 2, e.arg)
    assert repr(e) == "Select(i=1, op='=', j=2, arg=Product(left=Name(name='R'), right=Domain()))"
    with pytest.raises(AttributeError):
        e.i = 2
    with pytest.raises(AttributeError):
        del e.arg
    with pytest.raises(TypeError):
        Union(Name("R"))
    with pytest.raises(AstError):
        Project((0,), Name("R"))


def test_free_names_solve_hides_binders():
    e = Solve((("X", FLAT2),), Union(Name("X"), Name("R")), Name("R"))
    assert free_names(e) == {"R"}


def test_free_names_domain_empty_product_unions():
    assert free_names(Domain()) == frozenset()
    assert free_names(Product(Name("R"), Name("S"))) == {"R", "S"}


def test_bindings_allow_plain_and_sibling_solves():
    assert infer_type(Solve((("X", FLAT1),), Name("X"), Name("X")), {}) == RelType((FLAT1,))
    inner = Solve((("X", FLAT1),), Name("X"), Name("X"))
    outer = Solve((("Y", FLAT1),), inner, inner)
    # X bound in two sibling positions, never shadowed
    assert infer_type(outer, {}) == RelType((FLAT1,))


def test_solve_constructor_validation():
    with pytest.raises(AstError):
        Solve((("X", FLAT1), ("X", FLAT1)), Name("X"), Name("X"))
    with pytest.raises(AstError):
        Solve((("X", ast.RelType()),), Name("X"), Name("X"))
    with pytest.raises(AstError):
        Project((0,), Name("R"))
    with pytest.raises(AstError):
        Select(1, "<", 2, Name("R"))
    # a bool is no column index, though it is an int
    for bad in (
        lambda: Project((True,), Name("R")),
        lambda: Nest((1, False), Name("R")),
        lambda: Select(True, "=", 2, Name("R")),
        lambda: Select(1, "=", True, Name("R")),
        lambda: Unnest(True, Name("R")),
    ):
        with pytest.raises(AstError):
            bad()
    # lists are stored as tuples, so the node hashes and equals the tuple-built one
    for cls in (Project, Nest):
        e = cls([2, 1], Name("R"))
        assert e.indices == (2, 1) and e == cls((2, 1), Name("R"))
        assert hash(e) == hash(cls((2, 1), Name("R")))
    s = Solve([["X", FLAT1]], Name("X"), Name("X"))
    assert s.binders == (("X", FLAT1),) and s == Solve((("X", FLAT1),), Name("X"), Name("X"))
    assert hash(s) == hash(Solve((("X", FLAT1),), Name("X"), Name("X")))
    indices = (1, 2)
    assert Project(indices, Name("R")).indices is indices  # a tuple is kept as given


def db_ab(r_rows):
    return Database(("a", "b"), {"R": Rel(FLAT1, frozenset(r_rows))})


def test_eq_to_diseq_preserves_solutions():
    db = db_ab([("a",)])
    binders = (("X", FLAT1),)
    direct, _ = solve(binders, Name("X"), Name("R"), db)
    body = rewrite_eq_to_diseq(Name("X"), Name("R"), schema={"R": FLAT1, "X": FLAT1})
    lhs, rhs = rewrite_diseq_to_eq(body)
    rewritten, _ = solve(binders, lhs, rhs, db)
    assert direct == rewritten
    assert len(direct.rows) == 1  # only X = R itself


def test_eq_to_diseq_identical_sides_gives_full_domain():
    db = db_ab([("a",)])
    body = rewrite_eq_to_diseq(Name("R"), Name("R"))
    value, _ = evaluate(body, db)
    assert value == Rel(FLAT1, frozenset({("a",), ("b",)}))


def test_eq_to_diseq_rejects_type_mismatch():
    with pytest.raises(ModelError):
        rewrite_eq_to_diseq(Name("R"), Domain(), schema={"R": FLAT2})


def test_diseq_to_eq_nonempty_iff_holds():
    db = db_ab([("a",)])
    lhs, rhs = rewrite_diseq_to_eq(Name("R"))
    va, _ = evaluate(lhs, db)
    vb, _ = evaluate(rhs, db)
    assert va == vb
    # and an always-empty expression fails the rewritten equation everywhere
    lhs2, rhs2 = rewrite_diseq_to_eq(Difference(Domain(), Domain()))
    va2, _ = evaluate(lhs2, db)
    vb2, _ = evaluate(rhs2, db)
    assert va2 != vb2


def test_empty_like_matches_type_and_is_empty():
    db = Database(("a", "b"), {"S": Rel(FLAT2, frozenset({("a", "b")}))})
    value, _ = evaluate(empty_like(Name("S")), db)
    assert value.rtype == FLAT2
    assert not value.rows


def _roundtrip_equation(e1, e2):
    body = rewrite_eq_to_diseq(e1, e2)
    return rewrite_diseq_to_eq(body)


def test_parity_equation_roundtrips_to_no_solutions_on_three_atoms():
    from eqalg.constructions import build_parity_eq

    binders, lhs, rhs = build_parity_eq()
    db = Database(("a", "b", "c"), {})
    direct, _ = solve(binders, lhs, rhs, db)
    lhs2, rhs2 = _roundtrip_equation(lhs, rhs)
    rewritten, _ = solve(binders, lhs2, rhs2, db)
    assert direct == rewritten
    assert not direct.rows


def test_singleton_equation_roundtrips_identically_up_to_three_atoms():
    from eqalg.constructions import build_singleton_eq

    binders, lhs, rhs = build_singleton_eq()
    for n in (1, 2, 3):
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        db = Database(atoms, {})
        direct, _ = solve(binders, lhs, rhs, db)
        lhs2, rhs2 = _roundtrip_equation(lhs, rhs)
        rewritten, _ = solve(binders, lhs2, rhs2, db)
        assert direct == rewritten
        assert len(direct.rows) == n


def test_solve_free_names_exclude_own_binders():
    import random

    from oracles import random_expr

    rng = random.Random(64)
    for _ in range(30):
        e = random_expr(rng, {"R": FLAT2}, steps=6)
        for node in _walk(e):
            if isinstance(node, Solve):
                assert not (free_names(node) & set(node.var_names))


def _walk(e):
    yield e
    for c in ast.children(e):
        yield from _walk(c)
