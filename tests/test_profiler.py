import pytest

from eqalg import ast
from eqalg.ast import Domain, Name, Powerset, Product, Project, Union
from eqalg.constructions import build_nest_sparse_expr, build_singleton_eq
from eqalg.evaluator import EvalBudget, solve
from eqalg.model import Database, ModelError, RelType, flat_type
from eqalg.parser import parse_database
from eqalg.profiler import (
    DbGenerator,
    GrowthClass,
    classify_growth,
    meter_expression,
    profile,
)

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)
BUDGET = EvalBudget(max_candidates=10**6, max_space_units=10**8, max_solutions=10**6)


def powerset_eq():
    return ((("X", FLAT1),), Union(Name("X"), Name("R")), Name("R"))


def full_unary_gen(seed=0):
    return DbGenerator(schema={"R": FLAT1}, density=1.0, seed=seed)


def test_singleton_profile_is_linear():
    rep = profile(build_singleton_eq(), DbGenerator(), range(1, 6), BUDGET)
    assert [p.solutions for p in rep.points] == [1, 2, 3, 4, 5]
    assert rep.verdict == "FLAT_VARS_OK"
    assert str(rep.growth) == "POLY_LIKE(1)"


def test_full_powerset_profile_is_exponential():
    rep = profile(powerset_eq(), full_unary_gen(), range(1, 5), BUDGET)
    assert [p.solutions for p in rep.points] == [2, 4, 8, 16]
    assert str(rep.growth) == "EXPONENTIAL_LIKE"


def test_non_flat_variable_flagged():
    eq = ((("X", RelType((FLAT1,))),), Name("X"), Name("X"))
    rep = profile(eq, DbGenerator(), range(1, 4), BUDGET)
    assert rep.verdict == "NON_FLAT"


def test_reports_deterministic_given_seed():
    eq = powerset_eq()
    gen = DbGenerator(schema={"R": FLAT1}, density=0.6, seed=11)
    a = profile(eq, gen, range(1, 5), BUDGET)
    b = profile(eq, gen, range(1, 5), BUDGET)
    assert a.format_table() == b.format_table()
    assert a.format_file() == b.format_file()


def test_classification_stable_under_extension():
    singleton = [1, 2, 3, 4, 5]
    assert classify_growth(range(1, 6), singleton).kind == "POLY_LIKE"
    assert classify_growth(range(1, 7), singleton + [6]).kind == "POLY_LIKE"
    powers = [2, 4, 8, 16]
    assert classify_growth(range(1, 5), powers).kind == "EXPONENTIAL_LIKE"
    assert classify_growth(range(1, 6), powers + [32]).kind == "EXPONENTIAL_LIKE"


def test_too_few_points_inconclusive():
    assert classify_growth([1, 2], [1, 2]) == GrowthClass("INCONCLUSIVE")


def test_profile_counts_match_independent_solve():
    eq = build_singleton_eq()
    gen = DbGenerator(seed=5)
    rep = profile(eq, gen, range(1, 5), BUDGET)
    for p in rep.points:
        res, _ = solve(*eq, gen.generate(p.n), BUDGET)
        assert len(res.rows) == p.solutions


def test_budget_truncation_flagged():
    tiny = EvalBudget(max_candidates=8, max_space_units=10**6, max_solutions=10**6)
    rep = profile(powerset_eq(), full_unary_gen(), range(1, 6), tiny)
    assert rep.truncated
    assert len(rep.points) < 5
    assert "candidate" in rep.note


def test_generator_determinism_and_density():
    gen = DbGenerator(schema={"R": FLAT2}, density=0.5, seed=42)
    assert gen.generate(3) == gen.generate(3)
    full = DbGenerator(schema={"R": FLAT2}, density=1.0, seed=1)
    assert len(full.generate(3).relations["R"].rows) == 9
    with pytest.raises(ModelError):
        DbGenerator(schema={"R": RelType((FLAT1,))})


def test_meter_powerset_of_domain_square_is_exponential():
    rep = meter_expression(Powerset(Product(Domain(), Domain())), DbGenerator(), range(2, 5), BUDGET)
    assert str(rep.growth) == "EXPONENTIAL_LIKE"
    assert rep.growth_source == "peak_space"
    for p in rep.points:
        assert p.peak_space_units >= 2 ** (p.n * p.n)


def test_meter_projection_is_linear():
    rep = meter_expression(Project((1,), Domain()), DbGenerator(), range(2, 7), BUDGET)
    assert rep.growth == GrowthClass("POLY_LIKE", 1)


def test_meter_nest_sparse_is_polynomial():
    # full density: a deterministic family, so four points measure cleanly
    gen = DbGenerator(schema={"R": FLAT2}, density=1.0, seed=2)
    rep = meter_expression(build_nest_sparse_expr(), gen, range(2, 6), BUDGET)
    assert rep.growth.kind == "POLY_LIKE"
    assert rep.growth.degree <= 3


def test_machine_readable_report_parses_as_database():
    rep = profile(build_singleton_eq(), DbGenerator(), range(1, 5), BUDGET)
    db, schema = parse_database(rep.format_file())
    assert set(schema) == {"points", "verdict", "growth", "seed"}
    verdict_rel = db.relations["verdict"]
    assert next(iter(verdict_rel.rows)) == ("FLAT_VARS_OK",)
