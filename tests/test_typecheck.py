import pytest

from eqalg.ast import Domain, Name, Nest, Powerset, Product, Project, Select, Solve, Union, Unnest
from eqalg.model import ATOM, Database, Rel, RelType, flat_type
from eqalg.typecheck import TypecheckError, infer_type, typecheck_database

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)
SCHEMA = {"R": FLAT2, "S": FLAT1}


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
