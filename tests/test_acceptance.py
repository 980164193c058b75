"""Acceptance suite: every criterion runs exactly, printing one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Budgets
here are explicit (larger than the interactive defaults) because the
minimization pipeline materializes deliberately large intermediates.
"""

import contextlib
import itertools
import random
import time

from eqalg import ast
from eqalg.ast import Domain, Name, Nest, Powerset, Product, Project, Select, Union, Unnest
from eqalg.constructions import (
    build_nest_sparse_expr,
    build_parity_eq,
    build_powerset_eq,
    build_run,
    build_singleton_eq,
    build_tc_powerset_expr,
    check_run_equation,
    tc_sparse_via_harness,
    warshall_tc,
)
from eqalg.evaluator import BudgetExceeded, EvalBudget, evaluate, solve, solve_nonempty
from eqalg.model import (
    Database,
    Rel,
    RelType,
    enumerate_relations,
    flat_type,
    rename_database,
    rename_value,
)
from eqalg.profiler import DbGenerator, meter_expression, profile
from eqalg.typecheck import infer_type

from oracles import (
    o_domain,
    o_nest,
    o_powerset,
    o_product,
    o_project,
    o_select,
    o_unnest,
    oracle_solution_set,
    random_expr,
    random_flat_rel,
    random_type,
    random_value,
    to_plain,
)

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)
BIG = EvalBudget(max_candidates=10**7, max_space_units=4 * 10**9, max_solutions=10**6)
# unnesting a solution set keeps the nested relation in every row, so the
# stage pipeline's logical size is quadratic in |stage relation|; values are
# shared physically, but the meter is logical
STAGE = EvalBudget(max_candidates=10**7, max_space_units=10**12, max_solutions=10**6)


@contextlib.contextmanager
def criterion(num, description, limit_s):
    t0 = time.monotonic()
    try:
        yield
        dt = time.monotonic() - t0
        assert dt < limit_s, f"took {dt:.1f}s, limit {limit_s}s"
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS: {description}  [{dt:.1f}s < {limit_s}s]")


def atoms_of(n):
    return tuple(f"x{i}" for i in range(1, n + 1))


# ---------------------------------------------------------------------------


def test_criterion_1_operator_oracle_suite():
    with criterion(1, "nine operators equal the comprehension oracle on 300 random relations", 10):
        rng = random.Random(1001)
        for trial in range(300):
            t = random_type(rng, max_depth=2)
            n = rng.randint(1, 4)
            atoms = atoms_of(n)
            r = random_value(rng, t, atoms, max_rows=7)
            s = random_value(rng, t, atoms, max_rows=7)
            db = Database(atoms, {"A": r, "B": s})
            rp, sp = to_plain(r), to_plain(s)
            k = t.arity
            idx = tuple(rng.randint(1, k) for _ in range(rng.randint(1, k)))
            checks = [
                (Union(Name("A"), Name("B")), rp | sp),
                (ast.Difference(Name("A"), Name("B")), rp - sp),
                (Product(Name("A"), Name("B")), o_product(rp, sp)),
                (Project(idx, Name("A")), o_project(rp, idx)),
                (Select(1, "=", k, Name("A")) if t.components[0] == t.components[-1] else Select(1, "=", 1, Name("A")),
                 o_select(rp, 1, "=", k) if t.components[0] == t.components[-1] else o_select(rp, 1, "=", 1)),
                (Select(1, "!=", 1, Name("A")), o_select(rp, 1, "!=", 1)),
                (Nest(idx, Name("A")), o_nest(rp, idx, k)),
                (Unnest(k + 1, Nest((1,), Name("A"))), o_unnest(o_nest(rp, (1,), k), k + 1)),
                (Domain(), o_domain(atoms)),
            ]
            if len(r.rows) <= 6:
                checks.append((Powerset(Name("A")), o_powerset(rp)))
            for expr, expected in checks:
                got, _ = evaluate(expr, db, BIG)
                assert to_plain(got) == expected, f"trial {trial}: {expr}"


def test_criterion_2_powerset_equivalence():
    with criterion(2, "subset equation equals the powerset operator (unary n<=3, binary n=2)", 5):
        for n in (1, 2, 3):
            atoms = atoms_of(n)
            for rel in enumerate_relations(FLAT1, atoms):
                db = Database(atoms, {"R": rel})
                via_solve, _ = evaluate(build_powerset_eq(FLAT1), db, BIG)
                via_op, _ = evaluate(Powerset(Name("R")), db, BIG)
                assert via_solve == via_op
        for rel in enumerate_relations(FLAT2, atoms_of(2)):
            db = Database(atoms_of(2), {"R": rel})
            via_solve, _ = evaluate(build_powerset_eq(FLAT2), db, BIG)
            via_op, _ = evaluate(Powerset(Name("R")), db, BIG)
            assert via_solve == via_op


def test_criterion_3_parity_by_full_enumeration():
    with criterion(3, "parity equation solvable exactly on even domains (n = 1..4)", 30):
        binders, lhs, rhs = build_parity_eq()
        for n, expect in [(1, False), (2, True), (3, False), (4, True)]:
            db = Database(atoms_of(n), {})
            assert solve_nonempty(binders, lhs, rhs, db, BIG) is expect
        # the full 2^16-candidate sweep at n = 4 as well, not just early exit
        got, metrics = solve(binders, lhs, rhs, Database(atoms_of(4), {}), BIG)
        assert metrics.solves[0].candidates_tested == 2**16
        assert len(got.rows) == 12  # C(4,2) splits times 2! bijections


def test_criterion_4_singleton_counts():
    with criterion(4, "singleton equation has exactly n solutions (n = 1..6)", 5):
        binders, lhs, rhs = build_singleton_eq()
        for n in range(1, 7):
            got, _ = solve(binders, lhs, rhs, Database(atoms_of(n), {}), BIG)
            assert len(got.rows) == n


def test_criterion_5_tc_by_minimization():
    with criterion(5, "minimization pipeline equals warshall (512 digraphs n=3, 50 random n=4)", 300):
        expr = build_tc_powerset_expr()
        atoms = atoms_of(3)
        pairs = list(itertools.product(atoms, repeat=2))
        for bits in range(512):
            rows = frozenset(pairs[i] for i in range(9) if bits >> i & 1)
            r = Rel(FLAT2, rows)
            got, _ = evaluate(expr, Database(atoms, {"R": r}), BIG)
            assert got.rows == warshall_tc(r).rows, f"digraph {sorted(rows)}"
        rng = random.Random(55)
        atoms4 = atoms_of(4)
        for _ in range(50):
            r = random_flat_rel(rng, 2, atoms4, 0.5)
            got, _ = evaluate(expr, Database(atoms4, {"R": r}), BIG)
            assert got.rows == warshall_tc(r).rows, f"digraph {sorted(r.rows)}"


def _random_digraph_for_stages(rng):
    n = rng.randint(2, 8)
    atoms = atoms_of(n)
    r = random_flat_rel(rng, 2, atoms, min(0.5, 1.3 / n))
    return Database(atoms, {"R": r})


def _mutant(rng, run: Rel, atoms) -> Rel:
    if run.rows and rng.random() < 0.5:
        victim = rng.choice(sorted(run.rows))
        return Rel(run.rtype, run.rows - {victim})
    while True:
        foreign = tuple(rng.choice(atoms) for _ in range(6))
        if foreign not in run.rows:
            return Rel(run.rtype, run.rows | {foreign})


def test_criterion_6_stage_equation_and_sparse_tc():
    with criterion(6, "stage relation solves its equation, mutants fail, pipeline equals warshall (100 digraphs n<=8)", 120):
        rng = random.Random(606)
        for _ in range(100):
            db = _random_digraph_for_stages(rng)
            r = db.relations["R"]
            run = build_run(r)
            assert check_run_equation(db, run, STAGE), f"digraph {sorted(r.rows)}"
            mut = _mutant(rng, run, db.atoms)
            assert not check_run_equation(db, mut, STAGE), f"mutant for {sorted(r.rows)}"
            assert tc_sparse_via_harness(db, STAGE) == warshall_tc(r)


def test_criterion_7_nesting_without_nest():
    with criterion(7, "nest-free construction equals the nest operator (50 random R, n<=5)", 60):
        rng = random.Random(707)
        expr = build_nest_sparse_expr()
        for _ in range(50):
            n = rng.randint(1, 5)
            atoms = atoms_of(n)
            r = random_flat_rel(rng, 2, atoms, 0.4)
            got, _ = evaluate(expr, Database(atoms, {"R": r}), BIG)
            assert to_plain(got) == o_nest(to_plain(r), (2,), 2), f"digraph {sorted(r.rows)}"


def _random_equation(rng):
    var_t = rng.choice([FLAT1, FLAT2])
    schema = {"R": FLAT2, "X": var_t}
    e1 = random_expr(rng, schema, steps=4, allow_solve=False)
    t1 = infer_type(e1, schema)
    for _ in range(20):
        e2 = random_expr(rng, schema, steps=4, allow_solve=False)
        if infer_type(e2, schema) == t1:
            break
    else:
        e2 = ast.empty_like(e1)
    return (("X", var_t),), e1, e2


def test_criterion_8_rewrites_preserve_solutions():
    with criterion(8, "equation/disequation round trips preserve brute-force solution sets (50 random)", 120):
        rng = random.Random(808)
        for _ in range(50):
            binders, e1, e2 = _random_equation(rng)
            n = rng.randint(1, 3)
            atoms = atoms_of(n)
            db = Database(atoms, {"R": random_flat_rel(rng, 2, atoms, 0.4)})
            body = ast.rewrite_eq_to_diseq(e1, e2)
            lhs2, rhs2 = ast.rewrite_diseq_to_eq(body)
            brute_before = oracle_solution_set(binders, e1, e2, db)
            brute_after = oracle_solution_set(binders, lhs2, rhs2, db)
            assert brute_before == brute_after
            got_before, _ = solve(binders, e1, e2, db, BIG)
            got_after, _ = solve(binders, lhs2, rhs2, db, BIG)
            assert got_before == got_after
            as_plain = frozenset(
                tuple(to_plain(c) for c in row) for row in got_before.rows
            )
            assert as_plain == brute_before


def test_criterion_9_profiler_dichotomy():
    with criterion(9, "profiler: singleton POLY_LIKE(1), full-unary subsets EXPONENTIAL_LIKE, non-flat flagged", 30):
        rep = profile(build_singleton_eq(), DbGenerator(seed=9), range(1, 6), BIG)
        assert str(rep.growth) == "POLY_LIKE(1)" and rep.verdict == "FLAT_VARS_OK"
        gen = DbGenerator(schema={"R": FLAT1}, density=1.0, seed=9)
        eq = ((("X", FLAT1),), Union(Name("X"), Name("R")), Name("R"))
        rep = profile(eq, gen, range(1, 5), BIG)
        assert [p.solutions for p in rep.points] == [2, 4, 8, 16]
        assert str(rep.growth) == "EXPONENTIAL_LIKE"
        eqn = ((("X", RelType((FLAT1,))),), Name("X"), Name("X"))
        rep = profile(eqn, DbGenerator(seed=9), range(1, 4), BIG)
        assert rep.verdict == "NON_FLAT"
        again = profile(eq, gen, range(1, 5), BIG)
        assert again.format_table() == profile(eq, gen, range(1, 5), BIG).format_table()


def test_criterion_10_genericity():
    with criterion(10, "evaluation commutes with 20 domain permutations on 20 random (expr, db) pairs", 120):
        rng = random.Random(1010)
        atoms = atoms_of(4)
        perms = list(itertools.permutations(atoms))
        budget = EvalBudget(max_candidates=10**5, max_space_units=10**8, max_solutions=10**5)
        pairs_done = 0
        while pairs_done < 20:
            db = Database(
                atoms,
                {
                    "R": random_flat_rel(rng, 2, atoms, 0.4),
                    "S": random_flat_rel(rng, 1, atoms, 0.5),
                },
            )
            e = random_expr(
                rng, {"R": FLAT2, "S": FLAT1}, steps=6, solve_var_types=(FLAT1,)
            )
            try:
                base, _ = evaluate(e, db, budget)
            except BudgetExceeded:
                continue
            for perm in rng.sample(perms, 20):
                mapping = dict(zip(atoms, perm))
                permuted, _ = evaluate(e, rename_database(db, mapping), budget)
                assert permuted == rename_value(base, mapping)
            pairs_done += 1


def test_criterion_11_space_dichotomy():
    with criterion(11, "sparse constructions meter polynomially (k<=3), subset blowup flagged exponential", 60):
        binders, lhs, rhs = build_singleton_eq()
        rep = meter_expression(ast.Solve(binders, lhs, rhs), DbGenerator(seed=11), range(2, 6), BIG)
        assert rep.growth.kind == "POLY_LIKE" and rep.growth.degree <= 3
        gen = DbGenerator(schema={"R": FLAT2}, density=1.0, seed=11)
        rep = meter_expression(build_nest_sparse_expr(), gen, range(2, 6), BIG)
        assert rep.growth.kind == "POLY_LIKE" and rep.growth.degree <= 3
        rep = meter_expression(Powerset(Product(Domain(), Domain())), DbGenerator(seed=11), range(2, 5), BIG)
        assert str(rep.growth) == "EXPONENTIAL_LIKE"
        for p in rep.points:
            assert p.peak_space_units >= 2 ** (p.n * p.n)
