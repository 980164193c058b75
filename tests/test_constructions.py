import inspect
import itertools
import random

import pytest

from eqalg import ast, bitslice, constructions
from eqalg.ast import Name
from eqalg.evaluator import BudgetExceeded, EvalBudget, evaluate, solve, solve_nonempty
from eqalg.model import Database, ModelError, Rel, RelType, flat_type
from eqalg.constructions import (
    build_nest_sparse_expr,
    build_parity_eq,
    build_powerset_eq,
    build_powerset_of_powerset_eq,
    build_run,
    build_run_equation,
    build_singleton_eq,
    build_tc_powerset_expr,
    build_tc_sparse_expr,
    check_run_equation,
    registry,
    tc_sparse_via_harness,
    warshall_tc,
    _oracle_parity,
)

from oracles import o_nest, random_flat_rel, to_plain
from test_evaluator import _representations

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)
BUDGET = EvalBudget(max_candidates=10**7, max_space_units=2 * 10**9, max_solutions=10**6)


def binrel(*pairs):
    return Rel(FLAT2, frozenset(pairs))


def db_with_r(atoms, r):
    return Database(atoms, {"R": r})


# ---------------------------------------------------------------------------
# the stage relation


def test_run_path_has_expected_rows():
    r = binrel(("a", "b"), ("b", "c"))
    run = build_run(r)
    # one non-empty stage: 2 reached pairs x 3 next pairs x 1 fresh pair
    assert len(run.rows) == 6
    assert run.rtype == flat_type(6)


def test_run_empty_for_closed():
    assert build_run(binrel(("a", "b"), ("b", "c"), ("a", "c"))).rows == frozenset()


def test_run_rejects_non_binary():
    with pytest.raises(ModelError):
        build_run(Rel(FLAT1, frozenset()))


def _chain(k):
    return binrel(*((f"v{i}", f"v{i + 1}") for i in range(k)))


def _cycle(k):
    return binrel(*((f"v{i}", f"v{(i + 1) % k}") for i in range(k)))


def test_stages_stop_at_the_first_distance_that_adds_no_pair():
    # a chain of k edges gains pairs at distances 2..k; a closed or empty
    # relation gains none
    for k in range(1, 8):
        stages = list(constructions._stages(_chain(k)))
        assert len(stages) == k - 1
        for i, (upto, nxt, fresh) in enumerate(stages, 1):
            assert fresh == {(f"v{j}", f"v{j + i + 1}") for j in range(k - i)}
            assert nxt == upto | fresh and not upto & fresh
        if stages:
            assert stages[-1][1] == warshall_tc(_chain(k)).rows
    assert list(constructions._stages(binrel(("a", "b"), ("b", "c"), ("a", "c")))) == []
    assert list(constructions._stages(binrel(("a", "a")))) == []
    assert list(constructions._stages(binrel())) == []


def _independent_run(r: Rel) -> frozenset:
    """Stage relation recomputed with dict-based relation powers."""
    pairs = set(r.rows)
    powers = [None, set(pairs)]
    for _ in range(len(pairs) + 1):
        prev = powers[-1]
        powers.append({(a, d) for (a, b) in prev for (c, d) in pairs if b == c})
    upto = [set()]
    for i in range(1, len(powers)):
        upto.append(upto[-1] | powers[i])
    out = set()
    for i in range(1, len(pairs) + 1):
        fresh = powers[i + 1] - upto[i]
        for u in upto[i]:
            for v in upto[i + 1]:
                for w in fresh:
                    out.add(u + v + w)
    return frozenset(out)


def test_run_matches_independent_reimplementation():
    rng = random.Random(8)
    path4 = binrel(("a", "b"), ("b", "c"), ("c", "d"))
    # a cycle of 6 edges reaches its last new pairs, the loops, at distance
    # 6 = |R|
    for r in (path4, _chain(10), _cycle(6)):
        assert build_run(r).rows == _independent_run(r)
    assert len(list(constructions._stages(_cycle(6)))) == 5
    for _ in range(15):
        n = rng.randint(2, 5)
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        r = random_flat_rel(rng, 2, atoms, 0.3)
        assert build_run(r).rows == _independent_run(r)


def test_run_satisfies_equation_and_mutants_fail():
    rng = random.Random(77)
    r = binrel(("a", "b"), ("b", "c"))
    db = db_with_r(("a", "b", "c"), r)
    run = build_run(r)
    assert check_run_equation(db, run, BUDGET)
    removed = Rel(flat_type(6), run.rows - {sorted(run.rows)[0]})
    assert not check_run_equation(db, removed, BUDGET)
    foreign = Rel(flat_type(6), run.rows | {("a",) * 6})
    assert not check_run_equation(db, foreign, BUDGET)


def test_run_equation_free_names():
    binders, lhs, rhs = build_run_equation()
    node = ast.Solve(binders, lhs, rhs)
    assert ast.free_names(node) == {"R"}


def test_tc_sparse_harness_examples():
    db = db_with_r(("a", "b", "c"), binrel(("a", "b"), ("b", "c")))
    assert tc_sparse_via_harness(db, BUDGET) == binrel(("a", "b"), ("b", "c"), ("a", "c"))
    closed = binrel(("a", "b"), ("b", "c"), ("a", "c"))
    assert tc_sparse_via_harness(db_with_r(("a", "b", "c"), closed), BUDGET) == closed
    cycle = binrel(("a", "b"), ("b", "a"))
    assert tc_sparse_via_harness(db_with_r(("a", "b"), cycle), BUDGET) == binrel(
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")
    )


def test_tc_sparse_expr_is_wellformed():
    e = build_tc_sparse_expr()
    from eqalg.typecheck import infer_type

    assert infer_type(e, {"R": FLAT2}) == FLAT2


# ---------------------------------------------------------------------------
# minimization pipeline


def test_tc_powerset_single_edge():
    got, _ = evaluate(build_tc_powerset_expr(), db_with_r(("a", "b"), binrel(("a", "b"))), BUDGET)
    assert got == binrel(("a", "b"))


def test_tc_powerset_cycle():
    got, _ = evaluate(
        build_tc_powerset_expr(), db_with_r(("a", "b"), binrel(("a", "b"), ("b", "a"))), BUDGET
    )
    assert got == binrel(("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


def _all_digraphs(atoms):
    pairs = list(itertools.product(atoms, repeat=2))
    for mask in range(1 << len(pairs)):
        yield binrel(*(p for i, p in enumerate(pairs) if mask >> i & 1))


@pytest.mark.parametrize("n", [2, 3])
def test_tc_powerset_enumerates_closed_supersets_once(n):
    # both uses of the closed-superset solve are one node: one enumeration
    atoms = ("a", "b", "c")[:n]
    got, metrics = evaluate(build_tc_powerset_expr(), db_with_r(atoms, binrel(("a", "b"))), BUDGET)
    assert got == binrel(("a", "b"))
    assert [s.candidates_tested for s in metrics.solves] == [2 ** (n * n)]


def test_tc_powerset_on_four_atoms_runs_as_one_block(monkeypatch):
    # the 2^16 candidates of the closed-superset solve on four atoms are one
    # bit-sliced block, so a change that splits it or that runs the body on
    # the relation kernels fails here
    scans = []
    scan = bitslice.Blocks.scan

    def counted(self, k, *args):
        scans.append(k)
        return scan(self, k, *args)

    monkeypatch.setattr(bitslice.Blocks, "scan", counted)
    r = binrel(("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"))
    got, metrics = evaluate(build_tc_powerset_expr(), db_with_r(("a", "b", "c", "d"), r), BUDGET)
    assert got == warshall_tc(r)
    assert scans == [0]
    assert [s.candidates_tested for s in metrics.solves] == [1 << 16]


def test_tc_powerset_builds_no_counter_below_the_cap(monkeypatch):
    # every metering point of the body that grows with T, the product and
    # the join's levels, peaks at T = D x D, the block's top candidate; the
    # others, the differences by T and their union, have bounds that cannot
    # reach that peak, so a block reads its peak there and builds no
    # vertical counter.  Under a cap at the peak no candidate is safe from
    # refusal, so the block counts all six points, the binder T, the
    # product by _vmul and the five level values by _vcount, and leaves the
    # same peak; one unit less refuses.
    calls = []

    def recorded(name, kernel):
        def counter(*args):
            calls.append(name)
            return kernel(*args)

        return counter

    for name in ("_vcount", "_vmul", "_vadd"):
        monkeypatch.setattr(bitslice, name, recorded(name, getattr(bitslice, name)))
    r = binrel(("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"))
    db = db_with_r(("a", "b", "c", "d"), r)
    e = build_tc_powerset_expr()
    assert evaluate(e, db, BUDGET)[0] == warshall_tc(r)
    assert calls == []  # one query
    # the closed-superset solve alone, whose peak is its block's
    closed = e.right.arg.left.left
    assert isinstance(closed, ast.Solve)
    got, metrics = evaluate(closed, db, BUDGET)
    closures = [t.rows for (t,) in got.rows]
    tc = warshall_tc(r).rows
    assert len(closures) == 3 and tc in closures and all(tc <= rows for rows in closures)
    assert calls == []
    peak = metrics.peak_space_units
    capped = evaluate(closed, db, EvalBudget(max_space_units=peak))
    assert capped == (got, metrics)
    assert (calls.count("_vcount"), calls.count("_vmul")) == (6, 1) and "_vadd" in calls
    with pytest.raises(BudgetExceeded):
        evaluate(closed, db, EvalBudget(max_space_units=peak - 1))


def test_quota_stops_build_no_counter(monkeypatch):
    # solve_nonempty stops each of these solves at its first solution, in
    # its first block: parity on four atoms, the powerset of 14 atoms, and
    # the closed supersets of the digraph above.  At the default cap no
    # bound can reach the cap, and the points whose bounds could pass the
    # peak hold only values that grow with the binders, so each block is
    # read at the tops of the tiles before its stop and builds no vertical
    # counter; each answer is the relation kernels' answer
    calls = []

    def recorded(name, kernel):
        def counter(*args):
            calls.append(name)
            return kernel(*args)

        return counter

    for name in ("_vcount", "_vmul", "_vadd", "_vprefix"):
        monkeypatch.setattr(bitslice, name, recorded(name, getattr(bitslice, name)))
    four = ("a", "b", "c", "d")
    fourteen = tuple(f"a{i}" for i in range(14))
    r = binrel(("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"))
    cases = [
        (ast.Solve(*build_parity_eq()), Database(four, {})),
        (build_powerset_eq(), db_with_r(fourteen, Rel(FLAT1, [(a,) for a in fourteen]))),
        (build_tc_powerset_expr().right.arg.left.left, db_with_r(four, r)),
    ]
    for node, db in cases:
        assert isinstance(node, ast.Solve)
        answers = [solve_nonempty(copied.binders, copied.lhs, copied.rhs, db)
                   for copied in _representations(monkeypatch, node, db)]  # fmt: skip
        assert answers == [True, True]
    assert calls == []


def test_tc_powerset_peak_space_on_three_atoms():
    # the intersection never pairs closed supersets with each other
    e = build_tc_powerset_expr()
    peak = 0
    for r in _all_digraphs(("a", "b", "c")):
        got, metrics = evaluate(e, db_with_r(("a", "b", "c"), r), BUDGET)
        assert got == warshall_tc(r)
        peak = max(peak, metrics.peak_space_units)
    assert peak < 100_000


def test_inner_solve_collects_closed_supersets():
    r = binrel(("a", "b"))
    db = db_with_r(("a", "b"), r)
    T = Name("T")
    etc = ast.Union(
        ast.Difference(ast.Project((1, 4), ast.Select(2, "=", 3, ast.Product(T, T))), T),
        ast.Difference(Name("R"), T),
    )
    got, _ = solve((("T", FLAT2),), etc, ast.Difference(Name("R"), Name("R")), db, BUDGET)
    expected = set()
    pairs = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    for k in range(5):
        for combo in itertools.combinations(pairs, k):
            t = frozenset(combo)
            closed = all((x, w) in t for (x, y) in t for (z, w) in t if y == z)
            if r.rows <= t and closed:
                expected.add((Rel(FLAT2, t),))
    assert got.rows == frozenset(expected)


# ---------------------------------------------------------------------------
# parity


def test_parity_nonempty_iff_even():
    binders, lhs, rhs = build_parity_eq()
    for n, expect in [(1, False), (2, True), (3, False), (4, True)]:
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        assert solve_nonempty(binders, lhs, rhs, Database(atoms, {}), BUDGET) is expect


def test_parity_two_atoms_solutions():
    binders, lhs, rhs = build_parity_eq()
    got, _ = solve(binders, lhs, rhs, Database(("a", "b"), {}), BUDGET)
    assert got.rows == frozenset({(binrel(("a", "b")),), (binrel(("b", "a")),)})


def test_parity_counts_match_combinatorial_oracle_up_to_four():
    binders, lhs, rhs = build_parity_eq()
    for n in (1, 2, 3, 4):
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        db = Database(atoms, {})
        got, _ = solve(binders, lhs, rhs, db, BUDGET)
        assert got == _oracle_parity(db)


def test_parity_body_empty_on_perfect_matching():
    _, lhs, _ = build_parity_eq()
    db = Database(("a", "b"), {"X": binrel(("a", "b"))})
    v, _ = evaluate(lhs, db, BUDGET)
    assert not v.rows


# ---------------------------------------------------------------------------
# singleton


def test_singleton_solutions_listed():
    binders, lhs, rhs = build_singleton_eq()
    got, _ = solve(binders, lhs, rhs, Database(("a", "b", "c"), {}), BUDGET)
    singles = {(Rel(FLAT1, frozenset({(a,)})),) for a in ("a", "b", "c")}
    assert got.rows == frozenset(singles)


def test_singleton_count_is_linear():
    binders, lhs, rhs = build_singleton_eq()
    for n in range(1, 7):
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        got, _ = solve(binders, lhs, rhs, Database(atoms, {}), BUDGET)
        assert len(got.rows) == n


# ---------------------------------------------------------------------------
# subset collections


def test_powerset_eq_matches_powerset_operator():
    db = Database(("a", "b"), {"R": Rel(FLAT1, frozenset({("a",)}))})
    via_solve, _ = evaluate(build_powerset_eq(), db, BUDGET)
    via_op, _ = evaluate(ast.Powerset(Name("R")), db, BUDGET)
    assert via_solve == via_op


def test_powerset_eq_cardinality():
    for rows in ([], [("a",)], [("a",), ("b",)], [("a",), ("b",), ("c",)]):
        atoms = ("a", "b", "c")
        db = Database(atoms, {"R": Rel(FLAT1, frozenset(rows))})
        got, _ = evaluate(build_powerset_eq(), db, BUDGET)
        assert len(got.rows) == 2 ** len(rows)


def test_powerset_of_powerset_counts():
    db = Database(("a",), {"R": Rel(FLAT1, frozenset({("a",)}))})
    got, _ = evaluate(build_powerset_of_powerset_eq(), db, BUDGET)
    assert len(got.rows) == 4


# ---------------------------------------------------------------------------
# nesting without the nest operator


def test_nest_sparse_example():
    r = binrel(("a", "b"), ("a", "c"))
    got, _ = evaluate(build_nest_sparse_expr(), db_with_r(("a", "b", "c"), r), BUDGET)
    assert to_plain(got) == o_nest(to_plain(r), (2,), 2)


def test_nest_sparse_empty():
    got, _ = evaluate(build_nest_sparse_expr(), db_with_r(("a",), binrel()), BUDGET)
    assert got.rows == frozenset()


def test_nest_sparse_random_matches_nest_oracle():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 5)
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        r = random_flat_rel(rng, 2, atoms, 0.35)
        got, _ = evaluate(build_nest_sparse_expr(), db_with_r(atoms, r), BUDGET)
        assert to_plain(got) == o_nest(to_plain(r), (2,), 2)


def test_nest_sparse_solution_count_is_first_column_plus_one():
    binders = None
    e = build_nest_sparse_expr()
    # dig out the inner solve to count its solutions directly
    solve_node = e
    while not isinstance(solve_node, ast.Solve):
        solve_node = ast.children(solve_node)[0]
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 4)
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        r = random_flat_rel(rng, 2, atoms, 0.4)
        got, _ = solve(solve_node.binders, solve_node.lhs, solve_node.rhs, db_with_r(atoms, r), BUDGET)
        firsts = {a for (a, _) in r.rows}
        assert len(got.rows) == len(firsts) + 1  # plus the all-empty pair


def test_warshall_examples():
    assert warshall_tc(binrel(("a", "b"), ("b", "c"))) == binrel(
        ("a", "b"), ("b", "c"), ("a", "c")
    )
    assert warshall_tc(binrel()) == binrel()
    rng = random.Random(14)
    for _ in range(10):
        r = random_flat_rel(rng, 2, ("a", "b", "c", "d"), 0.3)
        once = warshall_tc(r)
        assert warshall_tc(once) == once


def _bfs_closure(rows):
    out = set()
    succ = {}
    for a, b in rows:
        succ.setdefault(a, set()).add(b)
    for start in {a for a, _ in rows}:
        frontier = set(succ.get(start, ()))
        reached = set()
        while frontier:
            reached |= frontier
            frontier = {c for b in frontier for c in succ.get(b, ())} - reached
        out.update((start, b) for b in reached)
    return frozenset(out)


def test_warshall_agrees_with_bfs_reachability():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 6)
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        r = random_flat_rel(rng, 2, atoms, rng.choice([0.15, 0.3, 0.6]))
        assert warshall_tc(r).rows == _bfs_closure(r.rows)


def test_registry_exposes_all_constructions():
    names = set(registry())
    assert names == {"parity", "singleton", "powerset", "tc-powerset", "tc-sparse", "nest-sparse"}


def test_oracles_use_nothing_from_the_evaluator():
    # an oracle that calls the engine changes along with the result it checks
    todo = [fn for name, fn in vars(constructions).items() if name.startswith("_oracle_")]
    assert len(todo) == 5
    seen = set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for name, value in inspect.getclosurevars(fn).globals.items():
            module = value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None)
            assert module != "eqalg.evaluator", f"{fn.__name__} uses {name} from {module}"
            if inspect.isfunction(value):
                todo.append(value)


def test_powerset_oracle_is_every_combination():
    for n in range(9):
        atoms = tuple(f"a{i}" for i in range(n)) or ("a",)
        r = Rel(FLAT1, frozenset((a,) for a in atoms[:n]))
        subsets = [c for k in range(n + 1) for c in itertools.combinations(sorted(r.rows), k)]
        expected = Rel(RelType((FLAT1,)), frozenset((Rel(FLAT1, frozenset(c)),) for c in subsets))
        got = constructions._oracle_powerset(db_with_r(atoms, r))
        assert got == expected and len(got) == 1 << n


def test_oracles_name_no_solver_code():
    # no oracle, nor any function or comprehension inside one, names the
    # evaluator, the candidate decoder, its subset tables or the bit lister
    banned = {"evaluate", "Candidates", "subset_tables", "_bits", "bitslice"}
    oracles = [fn for name, fn in vars(constructions).items() if name.startswith("_oracle_")]
    assert len(oracles) == 5
    for fn in oracles:
        codes = [fn.__code__]
        while codes:
            code = codes.pop()
            assert not banned & set(code.co_names), fn.__name__
            codes += [c for c in code.co_consts if inspect.iscode(c)]
