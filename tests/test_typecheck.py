import random

import pytest

from eqalg.ast import (
    Difference,
    Domain,
    Expr,
    Name,
    Nest,
    Powerset,
    Product,
    Project,
    Select,
    Solve,
    Union,
    Unnest,
)
from eqalg.model import ATOM, Database, Rel, RelType, flat_type
from eqalg.typecheck import TypecheckError, infer_type, typecheck_database

from oracles import binding_violations

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)
SCHEMA = {"R": FLAT2, "S": FLAT1}
INNER_X = Solve((("X", FLAT1),), Name("X"), Name("X"))


def test_nest_appends_grouped_column():
    assert infer_type(Nest((2,), Name("R")), SCHEMA) == RelType((ATOM, ATOM, FLAT1))


def test_powerset_of_domain_square():
    assert infer_type(Powerset(Product(Domain(), Domain())), {}) == RelType((FLAT2,))


def test_domain_is_unary():
    assert infer_type(Domain(), {}) == FLAT1


@pytest.mark.parametrize(
    "expr,message",
    [
        (Union(Name("R"), Name("S")), "mismatched"),
        (Name("T"), "unknown"),
        (Select(1, "=", 3, Name("S")), "out of range"),
        (Unnest(1, Name("R")), "atom column"),
        (Solve((("X", FLAT1),), Name("X"), Name("R")), "types"),
        (Solve((("R", FLAT2),), Name("R"), Name("R")), "collides"),
        (Project((1, 3), Name("R")), "out of range"),
        (Nest((3,), Name("R")), "out of range"),
        (Unnest(3, Name("R")), "out of range"),
        (Select(1, "=", 3, Nest((2,), Name("R"))), "compares columns"),
        pytest.param(
            Product(Name("S"), Solve((("S", FLAT1),), Name("S"), Name("S"))),
            r"'S' collides .* \(at right\)$",
            id="free-name-bound-inside",
        ),
        pytest.param(
            Solve((("X", FLAT1),), INNER_X, INNER_X),
            r"'X' collides .* \(at lhs\)$",
            id="solve-shadows-enclosing-variable",
        ),
    ],
)
def test_rejections(expr, message):
    with pytest.raises(TypecheckError, match=message):
        infer_type(expr, SCHEMA)


def test_select_on_equal_nested_columns_allowed():
    nested = RelType((FLAT1, FLAT1))
    t = infer_type(Select(1, "!=", 2, Name("N")), {"N": nested})
    assert t == nested


def test_solve_returns_binder_tuple_type():
    e = Solve((("X", FLAT2), ("Y", FLAT1)), Product(Name("X"), Name("Y")), Product(Name("X"), Name("Y")))
    assert infer_type(e, {}) == RelType((FLAT2, FLAT1))


def test_unnest_appends_inner_components():
    t = infer_type(Unnest(1, Name("N")), {"N": RelType((FLAT2,))})
    assert t == RelType((FLAT2, ATOM, ATOM))


def test_error_paths_are_reported():
    bad = Union(Name("R"), Name("S"))
    try:
        infer_type(Product(bad, Name("R")), SCHEMA)
    except TypecheckError as exc:
        assert exc.path == "left"
    else:
        raise AssertionError("expected a type error")


def test_typecheck_database_reports():
    db = Database(("a", "b"), {"R": Rel(FLAT2, frozenset({("a", "b")}))})
    assert typecheck_database(db, {"R": FLAT2}) == []
    report = typecheck_database(db, {"R": FLAT1})
    assert any("has type" in item for item in report)
    report = typecheck_database(db, {"R": FLAT2, "Q": FLAT1})
    assert any("missing relation Q" in item for item in report)
    report = typecheck_database(db, {})
    assert any("not in schema" in item for item in report)


def test_types_by_node_path():
    e = Solve((("X", FLAT1),), Union(Name("X"), Name("S")), Name("S"))
    types: dict = {}
    infer_type(e, SCHEMA, types)
    assert types == {
        "": RelType((FLAT1,)),
        "lhs": FLAT1,
        "lhs.left": FLAT1,
        "lhs.right": FLAT1,
        "rhs": FLAT1,
    }


def test_reimporting_eqalg_releases_the_previous_modules():
    # A type alias subscripted at import time is cached by typing, and an
    # entry holding RelType would pin every earlier import of eqalg.model.
    import os
    import subprocess
    import sys

    import eqalg

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(eqalg.__file__)))
    script = (
        "import gc, importlib, sys, weakref\n"
        "def fresh():\n"
        "    for n in [n for n in sys.modules if n == 'eqalg' or n.startswith('eqalg.')]:\n"
        "        del sys.modules[n]\n"
        "    importlib.import_module('eqalg')\n"
        "    return sys.modules['eqalg.model']\n"
        "first = weakref.ref(fresh().RelType)\n"
        "for _ in range(3):\n"
        "    fresh()\n"
        "gc.collect()\n"
        "print('alive' if first() is not None else 'released')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "released\n"


BINDING_NAMES = ("A", "B", "X", "Y")


def _random_flat(rng: random.Random):
    return FLAT2 if rng.random() < 0.1 else FLAT1


def _random_binding_expr(rng: random.Random, depth: int, visible: tuple):
    """A random tree of names, unions, minuses and solves over BINDING_NAMES.
    Most names are picked from ``visible`` (the schema's and the enclosing
    solves' names), the rest from all of BINDING_NAMES.  A solve's solutions
    are unnested back to its first variable's type, so solves can nest and
    sit side by side in well-typed expressions too."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return Name(rng.choice(visible if visible and rng.random() < 0.8 else BINDING_NAMES))
    if roll < 0.6:
        op = Union if roll < 0.45 else Difference
        return op(*(_random_binding_expr(rng, depth - 1, visible) for _ in range(2)))
    binders = tuple((nm, _random_flat(rng)) for nm in rng.sample(BINDING_NAMES, rng.randint(1, 2)))
    inside = visible + tuple(nm for nm, _ in binders)
    lhs, rhs = (_random_binding_expr(rng, depth - 1, inside) for _ in range(2))
    k, first = len(binders), binders[0][1]
    return Project(tuple(range(k + 1, k + 1 + first.arity)), Unnest(1, Solve(binders, lhs, rhs)))


def _solve_layout(e) -> tuple[int, bool]:
    """(most solves on one path from the root, whether two solves lie in
    different operands of one node)."""
    subs = [_solve_layout(v) for v in (getattr(e, f) for f in e.__slots__) if isinstance(v, Expr)]
    depth = max((d for d, _ in subs), default=0)
    apart = any(a for _, a in subs) or sum(d > 0 for d, _ in subs) >= 2
    return depth + isinstance(e, Solve), apart


def test_oracle_binding_rules_on_known_cases():
    inner = Solve((("X", FLAT1),), Name("X"), Name("X"))
    assert binding_violations(inner) == []
    assert binding_violations(Union(inner, inner)) == []  # sibling solves
    assert binding_violations(Solve((("Y", FLAT1),), inner, inner)) == []
    assert binding_violations(Union(Name("X"), inner)) == ["X"]  # free and bound
    assert binding_violations(Solve((("X", FLAT1),), inner, Name("X"))) == ["X"]  # shadowing


def test_typecheck_rejects_every_binding_the_oracle_flags():
    # every expression breaking a binding rule is rejected under any schema: a
    # free name must be a relation of the schema, and an enclosing solve's
    # variable is in the schema its body is typed under, so binding either
    # collides with a visible relation name
    rng = random.Random(1701)
    flagged = accepted = nested = apart = nested_ok = apart_ok = 0
    for _ in range(3000):
        schema = {nm: _random_flat(rng) for nm in BINDING_NAMES if rng.random() < 0.5}
        e = _random_binding_expr(rng, rng.randint(1, 4), tuple(schema))
        depth, side_by_side = _solve_layout(e)
        nested += depth >= 2
        apart += side_by_side
        if binding_violations(e):
            flagged += 1
            with pytest.raises(TypecheckError):
                infer_type(e, schema)
            continue
        try:
            infer_type(e, schema)
        except TypecheckError:
            continue
        accepted += 1
        nested_ok += depth >= 2
        apart_ok += side_by_side
    assert flagged >= 1000 and accepted >= 1000, (flagged, accepted)
    assert nested >= 1000 and apart >= 500, (nested, apart)
    assert nested_ok >= 5 and apart_ok >= 5, (nested_ok, apart_ok)
