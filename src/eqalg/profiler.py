"""Empirical growth profiling of equations and expressions over growing domains.

Whether an equation stays polynomial on *all* databases is undecidable, so
this module samples: it runs the equation over a seeded family of generated
databases of increasing domain size and classifies the observed growth with
a fixed two-model fit.  Reports state this sampling gap in their header.

Classification rule (fixed constants, not options, so reports are comparable
across runs): let y = log(value + 1).  Fit y against log n (polynomial
model; the rounded slope is the degree) and against n (exponential model),
both by least squares.  A fit is acceptable when its R-squared is at least
0.9.  The verdict is EXPONENTIAL_LIKE when the exponential fit is acceptable
and either beats the polynomial fit by at least 0.02 of R-squared or the
polynomial slope exceeds 6 (no plausible polynomial); otherwise POLY_LIKE
with the rounded slope when the polynomial fit is acceptable; otherwise
INCONCLUSIVE.  Fewer than three data points are always INCONCLUSIVE.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from . import ast
from .evaluator import BudgetExceeded, EvalBudget, evaluate
from .model import Database, ModelError, Rel, tuple_universe

R2_FLOOR = 0.9
R2_GAP = 0.02
SLOPE_CAP = 6.0

SAMPLING_NOTE = (
    "growth is sampled over one generated database family; "
    "polynomial growth on all databases is undecidable and not established here"
)


@dataclass(frozen=True)
class GrowthClass:
    kind: str  # "POLY_LIKE" | "EXPONENTIAL_LIKE" | "INCONCLUSIVE"
    degree: int | None = None

    def __str__(self) -> str:
        if self.kind == "POLY_LIKE":
            return f"POLY_LIKE({self.degree})"
        return self.kind


def _least_squares(xs, ys):
    """Slope and R-squared of the least-squares line through (xs, ys)."""
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if syy == 0.0:
        return 0.0, 1.0  # constant series: perfect flat fit
    if sxx == 0.0:
        return 0.0, 0.0
    slope = sxy / sxx
    r2 = (sxy * sxy) / (sxx * syy)
    return slope, r2


def classify_growth(ns, values) -> GrowthClass:
    if len(ns) < 3:
        return GrowthClass("INCONCLUSIVE")
    ys = [math.log(v + 1) for v in values]
    poly_slope, r2_poly = _least_squares([math.log(n) for n in ns], ys)
    _, r2_exp = _least_squares(list(ns), ys)
    if r2_exp >= R2_FLOOR and (r2_exp - r2_poly >= R2_GAP or poly_slope >= SLOPE_CAP):
        return GrowthClass("EXPONENTIAL_LIKE")
    if r2_poly >= R2_FLOOR:
        return GrowthClass("POLY_LIKE", max(0, round(poly_slope)))
    return GrowthClass("INCONCLUSIVE")


# ---------------------------------------------------------------------------
# database generation


@dataclass(frozen=True)
class DbGenerator:
    """Deterministic family of databases with domain x1..xn.

    Each relation of ``schema`` (flat types only; an empty schema gives bare
    domains) includes every possible row independently with the given
    density, seeded per (seed, n, relation name).
    """

    schema: dict = field(default_factory=dict)
    density: float | dict = 0.5
    seed: int = 0

    def __post_init__(self):
        for name, t in self.schema.items():
            if not t.is_flat:
                raise ModelError(f"random-flat generation needs flat types, {name} is {t}")

    def density_for(self, name: str) -> float:
        if isinstance(self.density, dict):
            return self.density[name]
        return self.density

    def generate(self, n: int) -> Database:
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        relations = {}
        for name in sorted(self.schema):
            t = self.schema[name]
            dens = self.density_for(name)
            rng = random.Random(f"{self.seed}/{n}/{name}")
            universe = tuple_universe(t, atoms)
            rows = frozenset(row for row in universe if rng.random() < dens)
            relations[name] = Rel(t, rows)
        return Database(atoms, relations)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ProfilePoint:
    """One domain size's run.  ``wall_ms`` is the time of its ``evaluate``
    call; the first point's includes compiling the expression, which the
    later points reuse (see ``_sample``)."""

    n: int
    candidates: int
    solutions: int
    peak_space_units: int
    wall_ms: float


@dataclass(frozen=True)
class ProfileReport:
    points: tuple
    verdict: str  # "FLAT_VARS_OK" | "NON_FLAT"
    growth: GrowthClass
    growth_source: str  # "solutions" | "peak_space"
    seed: int
    truncated: bool = False
    note: str = ""

    def format_table(self) -> str:
        """Deterministic plain-text table (wall times are excluded on purpose)."""
        lines = [f"# {SAMPLING_NOTE}"]
        lines.append(f"{'n':>4}  {'candidates':>12}  {'solutions':>10}  {'peak_space':>12}")
        for p in self.points:
            lines.append(
                f"{p.n:>4}  {p.candidates:>12}  {p.solutions:>10}  {p.peak_space_units:>12}"
            )
        lines.append(f"verdict {self.verdict}")
        lines.append(f"growth {self.growth} (from {self.growth_source})")
        if self.truncated:
            lines.append(f"truncated: {self.note}")
        return "\n".join(lines)

    def format_file(self) -> str:
        """Machine-readable report: a database document in the standard format."""
        atoms = {"0"}
        rows = []
        for p in self.points:
            row = (str(p.n), str(p.candidates), str(p.solutions), str(p.peak_space_units))
            atoms.update(row)
            rows.append(row)
        degree = "none" if self.growth.degree is None else str(self.growth.degree)
        atoms.update((self.verdict, self.growth.kind, degree, str(self.seed)))
        from .model import flat_type
        from .parser import render_database

        relations = {
            "points": Rel(flat_type(4), frozenset(rows)),
            "verdict": Rel(flat_type(1), frozenset(((self.verdict,),))),
            "growth": Rel(flat_type(2), frozenset(((self.growth.kind, degree),))),
            "seed": Rel(flat_type(1), frozenset(((str(self.seed),),))),
        }
        if self.truncated:
            relations["truncated"] = Rel(flat_type(1), frozenset((("true",),)))
            atoms.add("true")
        db = Database(sorted(atoms), relations)
        return f"# eqalg profile report\n# {SAMPLING_NOTE}\n" + render_database(db)


def _flat_verdict(binders) -> str:
    return "FLAT_VARS_OK" if all(t.is_flat for _, t in binders) else "NON_FLAT"


def profile(eq, gen: DbGenerator, n_range, budget: EvalBudget | None = None) -> ProfileReport:
    """Run an equation per domain size and classify solution-count growth."""
    binders, lhs, rhs = eq
    return _sample(
        ast.Solve(binders, lhs, rhs),
        gen,
        n_range,
        budget,
        solutions=lambda res, metrics: len(res),
        verdict=_flat_verdict(binders),
        growth_source="solutions",
    )


def meter_expression(
    e: ast.Expr, gen: DbGenerator, n_range, budget: EvalBudget | None = None
) -> ProfileReport:
    """Evaluate a full expression per domain size and classify peak-space growth.

    Works for any expression of the algebra, with or without solve nodes, so
    subset-operator pipelines and solve pipelines meter identically.
    """
    solves = [node for node in _walk(e) if isinstance(node, ast.Solve)]
    return _sample(
        e,
        gen,
        n_range,
        budget,
        solutions=lambda res, metrics: sum(s.solutions_found for s in metrics.solves),
        verdict=_flat_verdict(b for node in solves for b in node.binders),
        growth_source="peak_space",
    )


def _sample(e, gen, n_range, budget, solutions, verdict, growth_source) -> ProfileReport:
    """Evaluate ``e`` on the generated database of each domain size until a
    budget refuses, and classify the growth of the ``growth_source`` column;
    ``solutions(result, metrics)`` gives the solutions column.  Every size
    evaluates the one node ``e`` on one schema, so ``e`` is typed and
    compiled at the first size only and its kept program reused after (see
    ``evaluator.evaluate``): only the first point's ``wall_ms`` includes
    compile time."""
    points = []
    note = ""
    for n in n_range:
        db = gen.generate(n)
        t0 = time.monotonic()
        try:
            res, metrics = evaluate(e, db, budget)
        except BudgetExceeded as exc:
            note = f"n={n}: {exc}"
            break
        wall = (time.monotonic() - t0) * 1000.0
        tested = sum(s.candidates_tested for s in metrics.solves)
        points.append(
            ProfilePoint(n, tested, solutions(res, metrics), metrics.peak_space_units, wall)
        )
    ys = [p.solutions if growth_source == "solutions" else p.peak_space_units for p in points]
    return ProfileReport(
        points=tuple(points),
        verdict=verdict,
        growth=classify_growth([p.n for p in points], ys),
        growth_source=growth_source,
        seed=gen.seed,
        truncated=bool(note),
        note=note,
    )


def _walk(e: ast.Expr):
    yield e
    for c in ast.children(e):
        yield from _walk(c)
