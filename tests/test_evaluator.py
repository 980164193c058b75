import collections
import copy
import gc
import itertools
import pickle
import random
import tracemalloc
import weakref

import pytest

from eqalg import ast, bitslice, cli, evaluator, model
from eqalg.constructions import (
    build_powerset_eq,
    build_run,
    build_run_equation,
    build_tc_powerset_expr,
    tc_sparse_via_harness,
)
from eqalg.ast import (
    Difference,
    Domain,
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
from eqalg.evaluator import (
    BudgetExceeded,
    EvalBudget,
    evaluate,
    solve,
    solve_nonempty,
)
from eqalg.model import (
    ATOM,
    Database,
    Rel,
    RelType,
    SolutionSet,
    flat_type,
    rename_database,
    rename_value,
    value_size,
    value_sort_key,
)
from eqalg.parser import parse_expr, render_relation
from eqalg.typecheck import TypecheckError, infer_type

from oracles import (
    candidate_order,
    from_plain,
    o_domain,
    o_nest,
    o_powerset,
    o_product,
    o_project,
    o_select,
    o_unnest,
    oracle_eval,
    oracle_peak,
    plain_size,
    oracle_solution_set,
    random_digraph,
    random_expr,
    random_flat_rel,
    random_type,
    random_value,
    to_plain,
)

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)
FLAT3 = flat_type(3)


def rel(rtype, rows):
    return Rel(rtype, frozenset(rows))


def db_of(atoms, **rels):
    return Database(atoms, rels)


# ---------------------------------------------------------------------------
# single operators


def test_union_difference():
    db = db_of(("a", "b"), R=rel(FLAT1, [("a",)]), S=rel(FLAT1, [("b",)]))
    v, _ = evaluate(Union(Name("R"), Name("S")), db)
    assert render_relation(v) == "[[a],[b]]"
    v, _ = evaluate(Difference(Name("R"), Name("S")), db)
    assert render_relation(v) == "[[a]]"


def test_powerset_value():
    db = db_of(("a", "b"), R=rel(FLAT1, [("a",), ("b",)]))
    v, _ = evaluate(Powerset(Name("R")), db)
    assert v.rtype == RelType((FLAT1,))
    assert render_relation(v) == "[[[]],[[[a]]],[[[a],[b]]],[[[b]]]]"


NEST_IN = [("a", "b"), ("a", "c"), ("b", "b")]


def _nest_r(indices, rows=NEST_IN):
    return evaluate(Nest(indices, Name("R")), db_of(("a", "b", "c"), R=rel(FLAT2, rows)))[0]


def test_nest_groups_by_complement():
    got = _nest_r((2,))
    bc = rel(FLAT1, [("b",), ("c",)])
    b = rel(FLAT1, [("b",)])
    assert got == rel(
        RelType((*FLAT2.components, FLAT1)),
        [("a", "b", bc), ("a", "c", bc), ("b", "b", b)],
    )


def test_nest_all_columns_pairs_with_whole_relation():
    got = _nest_r((1, 2))
    whole = rel(FLAT2, NEST_IN)
    assert got.rows == frozenset({row + (whole,) for row in whole.rows})


def test_nest_empty():
    assert _nest_r((2,), []).rows == frozenset()


def test_unnest_of_nested_keeps_nested_column():
    bc = rel(FLAT1, [("b",), ("c",)])
    b = rel(FLAT1, [("b",)])
    nested = rel(
        RelType((*FLAT2.components, FLAT1)), [("a", "b", bc), ("a", "c", bc), ("b", "b", b)]
    )
    got, _ = evaluate(Unnest(3, Name("N")), db_of(("a", "b", "c"), N=nested))
    assert got == rel(
        RelType((*FLAT2.components, FLAT1, *FLAT1.components)),
        [
            ("a", "b", bc, "b"),
            ("a", "b", bc, "c"),
            ("a", "c", bc, "b"),
            ("a", "c", bc, "c"),
            ("b", "b", b, "b"),
        ],
    )


def test_unnest_drops_rows_with_empty_inner():
    empty_inner = rel(FLAT1, [])
    r = rel(RelType((FLAT1,)), [(empty_inner,)])
    assert evaluate(Unnest(1, Name("R")), db_of(("a",), R=r))[0].rows == frozenset()


def test_unnest_then_project_recovers_members():
    db = db_of(("a", "b"), W=Rel(RelType((FLAT2,)), frozenset({(rel(FLAT2, [("a", "b")]),)})))
    v, _ = evaluate(Project((2, 3), Unnest(1, Name("W"))), db)
    assert render_relation(v) == "[[a,b]]"


# ---------------------------------------------------------------------------
# solve


def test_solve_subsets_example():
    db = db_of(("a", "b"), R=rel(FLAT1, [("a",)]))
    v, metrics = solve((("X", FLAT1),), Union(Name("X"), Name("R")), Name("R"), db)
    assert render_relation(v) == "[[[]],[[[a]]]]"
    assert metrics.solves[0].candidates_tested == 4
    assert metrics.solves[0].solutions_found == 2


def test_solve_trivial_equation_nonempty_immediately():
    db = db_of(("a",))
    assert solve_nonempty((("X", FLAT1),), Name("X"), Name("X"), db)


def test_solve_nested_variable_small():
    db = db_of(("a",))
    t = RelType((FLAT1,))
    v, _ = solve((("X", t),), Name("X"), Name("X"), db)
    assert len(v.rows) == 4  # every relation of that type over one atom


def test_solve_matches_bruteforce_oracle_on_random_equations():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(1, 3)
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        r = random_flat_rel(rng, 2, atoms, density=0.4)
        db = db_of(atoms, R=r)
        vt = rng.choice([FLAT1, FLAT2])
        pool_expr = rng.choice([Name("R"), Project((1,), Name("R")), Domain()])
        x = Name("X")
        if pool_expr == Name("R"):
            target = Name("R") if vt == FLAT2 else Project((1,), Name("R"))
        else:
            target = pool_expr
        lhs = Union(x, target) if vt == target_type(target) else x
        rhs = target if lhs is not x else x
        binders = (("X", vt),)
        got, _ = solve(binders, lhs, rhs, db)
        expected = oracle_solution_set(binders, lhs, rhs, db)
        assert frozenset(tuple(to_plain(c) for c in row) for row in got.rows) == expected


def target_type(e):
    return FLAT2 if e == Name("R") else FLAT1


def test_solve_powerset_consistency_systematic():
    # the solution stream equals filtering the full candidate product
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(1, 2)
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        db = db_of(atoms, R=random_flat_rel(rng, 1, atoms, density=0.6))
        binders = (("X", FLAT1), ("Y", FLAT1))
        lhs = Union(Name("X"), Union(Name("Y"), Name("R")))
        rhs = Name("R")
        got, _ = solve(binders, lhs, rhs, db)
        expected = oracle_solution_set(binders, lhs, rhs, db)
        assert frozenset(tuple(to_plain(c) for c in row) for row in got.rows) == expected


# ---------------------------------------------------------------------------
# budgets and metrics


def small_db():
    return db_of(("a", "b"), R=rel(FLAT1, [("a",)]))


def test_candidate_budget_checked_before_enumeration():
    budget = EvalBudget(max_candidates=3, max_space_units=10**6, max_solutions=10)
    with pytest.raises(BudgetExceeded) as err:
        solve((("X", FLAT1),), Name("X"), Name("R"), small_db(), budget)
    assert err.value.which == "candidates"


def test_space_budget_aborts_with_partial_counts():
    budget = EvalBudget(max_candidates=10**6, max_space_units=6, max_solutions=10)
    with pytest.raises(BudgetExceeded) as err:
        solve((("X", FLAT2),), Name("X"), Name("X"), db_of(("a", "b")), budget)
    assert err.value.which == "space"
    assert "candidates" in str(err.value)


def test_solution_budget():
    budget = EvalBudget(max_candidates=10**6, max_space_units=10**6, max_solutions=2)
    with pytest.raises(BudgetExceeded) as err:
        solve((("X", FLAT1),), Name("X"), Name("X"), db_of(("a", "b")), budget)
    assert err.value.which == "solutions"


@pytest.mark.parametrize("cap", [2.5, True, False, "10", None, 0, -3])
@pytest.mark.parametrize("name", ["max_candidates", "max_space_units", "max_solutions"])
def test_budget_caps_must_be_positive_integers(name, cap):
    # a cap that is not an int, a bool included, is refused when the budget
    # is built, not at evaluation (a float has no bit_length) or in a
    # refusal's message (a bool prints as "cap True")
    with pytest.raises(model.ModelError, match=f"{name} must be a positive integer"):
        EvalBudget(**{name: cap})
    assert getattr(EvalBudget(**{name: 10**30}), name) == 10**30


def test_nested_solve_budget_error_carries_one_suffix():
    # the inner solve at lhs runs out of space; the outer solve adds nothing
    inner = "solve{(X:(0)) | union(X,Y) = Y}"
    e = parse_expr(f"solve{{(Y:(0)) | {inner} = {inner}}}")
    db = db_of(("a", "b"), R=rel(FLAT1, [("a",), ("b",)]))
    with pytest.raises(BudgetExceeded) as err:
        evaluate(e, db, EvalBudget(max_space_units=10))
    assert (err.value.which, err.value.path) == ("space", "lhs.lhs")
    assert str(err.value) == (
        "space budget exceeded at lhs.lhs: live 13 units > cap 10"
        " after 4 candidates, 1 solutions at solve lhs"
    )


@pytest.mark.parametrize(
    "budget, detail",
    [
        (EvalBudget(max_space_units=10), "space budget exceeded at rhs.right: live 12 units > cap 10"),
        (
            EvalBudget(max_candidates=100),
            "candidates budget exceeded at <expr>: candidate space 512 exceeds cap 100",
        ),
    ],
)
def test_refusals_before_the_candidate_loop_name_the_solve(representation, budget, detail):
    # the candidate space, and a side that mentions no bound variable, are
    # refused before any candidate is tested, and the refusal names the solve
    e = parse_expr("solve{(X:(0,0)) | X = times(D,D)}")
    with pytest.raises(BudgetExceeded) as err:
        evaluate(e, db_of(("a", "b", "c")), budget)
    assert err.value.solve == ("", 0, 0)
    assert str(err.value) == f"{detail} after 0 candidates, 0 solutions at solve <expr>"


def _cap_cases():
    """(expression, solve path, solve node, db): one solve node at the root,
    under a projection and on the right of a union."""
    unary = Solve((("X", FLAT1),), Union(Name("X"), Name("R")), Domain())
    squares = Solve((("X", FLAT2),), Name("X"), Name("X"))
    pairs = Solve((("X", FLAT1), ("Y", FLAT1)), Union(Name("X"), Name("Y")), Domain())
    abc = db_of(("a", "b", "c"), R=rel(FLAT1, [("a",)]))
    ab = db_of(("a", "b"), S=rel(RelType((FLAT1, FLAT1)), []))
    return [
        (unary, "", unary, abc),
        (Project((1,), squares), "arg", squares, ab),
        (Union(Name("S"), pairs), "right", pairs, ab),
    ]


@pytest.mark.parametrize("e,path,node,db", _cap_cases(), ids=["root", "arg", "right"])
def test_candidate_and_solution_caps_at_the_boundary(e, path, node, db):
    n = len(db.atoms)
    space = 1
    for _, t in node.binders:
        space *= 2 ** (n ** t.arity)
    found = len(oracle_solution_set(node.binders, node.lhs, node.rhs, db))
    assert found >= 2

    _, metrics = evaluate(e, db, EvalBudget(max_candidates=space, max_solutions=found))
    assert [(s.path, s.candidates_tested, s.solutions_found) for s in metrics.solves] == [
        (path, space, found)
    ]
    with pytest.raises(BudgetExceeded) as err:
        evaluate(e, db, EvalBudget(max_candidates=space - 1))
    assert (err.value.which, err.value.path) == ("candidates", path)
    assert f"candidate space {space} exceeds cap {space - 1}" in str(err.value)
    with pytest.raises(BudgetExceeded) as err:
        evaluate(e, db, EvalBudget(max_solutions=found - 1))
    assert (err.value.which, err.value.path) == ("solutions", path)
    assert f"more than {found - 1} solutions" in str(err.value)


def test_powerset_budget_guard_refuses_early():
    db = db_of(tuple("abcdefgh"))
    budget = EvalBudget(max_candidates=10**6, max_space_units=1000, max_solutions=10)
    with pytest.raises(BudgetExceeded) as err:
        evaluate(Powerset(Product(Domain(), Domain())), db, budget)
    assert err.value.which == "space"
    assert "powerset" in str(err.value)


def test_candidate_space_refused_before_counting_it():
    # 3^16 rows of a 16-ary relation: the space of 2^43046721 candidates is
    # refused on its exponent, without building that count (a 5 MB int)
    x = Name("X")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            solve((("X", flat_type(16)),), x, x, db_of(("a", "b", "c")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.which, err.value.path) == ("candidates", "")
    assert "candidate space ~2^43046721 exceeds cap 10000000" in str(err.value)
    assert peak < 1_000_000


def test_product_and_unnest_refused_before_allocating():
    # 20 atoms: the outer product would be 160,000 rows (800,000 units)
    db = db_of(tuple(f"x{i:02}" for i in range(20)))
    dd = Product(Domain(), Domain())
    budget = EvalBudget(max_space_units=10_000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            evaluate(Product(dd, dd), db, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.which, err.value.path) == ("space", "")
    assert "live 802400 units > cap 10000" in str(err.value)
    assert peak < 1_000_000

    # 30 atoms: the unnest would be 27,000 rows; the nest below it fits the cap
    db = db_of(tuple(f"x{i:02}" for i in range(30)))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            unnest = Unnest(3, Nest((2,), Product(Domain(), Domain())))
            evaluate(unnest, db, EvalBudget(max_space_units=60_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.which, err.value.path) == ("space", "")
    assert peak < 1_000_000

    # 18 binary rows: the powerset would be 262,144 subsets (7,340,032 units)
    db = db_of(tuple("abcde"), R=rel(FLAT2, [(x, y) for x in "abcde" for y in "abcde"][:18]))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as err:
            evaluate(Powerset(Name("R")), db, EvalBudget(max_space_units=2_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.which, err.value.path) == ("space", "")
    assert "powerset of 18 rows needs >= 7340032 units" in str(err.value)
    assert "live 7340086 units > cap 2000000" in str(err.value)
    assert peak < 1_000_000


def test_refusals_of_counts_too_long_to_print():
    # the fifth powerset of a 2-atom domain needs about 2^65556 units, and a
    # solve over 14-ary relations has 2^16384 candidates: ints of thousands
    # of digits, which Python refuses to convert to text
    db = db_of(("a", "b"))
    with pytest.raises(BudgetExceeded) as err:
        evaluate(parse_expr("powerset(powerset(powerset(powerset(powerset(D)))))"), db)
    assert (err.value.which, err.value.path) == ("space", "arg")
    assert "powerset of 65536 rows needs >= ~2^65556 units: live ~2^65556 units" in str(err.value)
    with pytest.raises(BudgetExceeded) as err:
        evaluate(Solve((("X", flat_type(14)),), Name("X"), Name("X")), db)
    assert (err.value.which, err.value.path) == ("candidates", "")
    assert "candidate space ~2^16384 exceeds cap" in str(err.value)


def test_binding_violation_raises():
    inner = Solve((("X", FLAT1),), Union(Name("X"), Name("R")), Name("R"))
    with pytest.raises(TypecheckError, match=r"'X' collides .* \(at right\)$"):
        evaluate(Product(Name("X"), inner), db_of(("a",), R=rel(FLAT1, []), X=rel(FLAT1, [])))


def test_repeated_solve_occurrence_tracks_changing_inputs():
    # the same solve node object appears twice inside an outer solve; its
    # value depends on the outer variable, so each candidate must recompute
    atoms = ("a", "b")
    inner = Solve((("Y", FLAT1),), Union(Name("Y"), Name("V")), Name("V"))
    lhs = Union(inner, inner)
    rhs = Powerset(Name("V"))
    binders = (("V", FLAT1),)
    db = db_of(atoms)
    got, metrics = solve(binders, lhs, rhs, db)
    assert len(got.rows) == 4  # subsets-of-V equals the powerset for every V
    expected = oracle_solution_set(binders, lhs, rhs, db)
    assert frozenset(tuple(to_plain(c) for c in row) for row in got.rows) == expected


def test_metrics_counters_obey_bounds():
    db = db_of(("a", "b"), R=rel(FLAT1, [("a",)]))
    _, metrics = solve((("X", FLAT1),), Union(Name("X"), Name("R")), Name("R"), db)
    s = metrics.solves[0]
    assert s.solutions_found <= s.candidates_tested <= 4  # candidate-space size


def test_metrics_determinism():
    db = small_db()
    e = parse_expr("solve{(X:(0)) | union(X,R) = R}")
    v1, m1 = evaluate(e, db)
    v2, m2 = evaluate(e, db)
    assert render_relation(v1) == render_relation(v2)
    assert m1.peak_space_units == m2.peak_space_units
    assert m1.format() == m2.format()


def test_metering_bound_for_flat_solve():
    # peak is bounded by db size + one candidate + side evaluations + solutions
    atoms = ("a", "b", "c")
    r = rel(FLAT2, [("a", "b"), ("b", "c")])
    db = db_of(atoms, R=r)
    binders = (("X", FLAT1),)
    lhs = Union(Name("X"), Project((1,), Name("R")))
    rhs = Project((1,), Name("R"))
    got, metrics = solve(binders, lhs, rhs, db)
    db_size = value_size(r)
    max_candidate = max(value_size(v) for v in _all_unary(atoms))
    side_peaks = []
    for cand in _all_unary(atoms):
        db2 = Database(atoms, {"R": r, "X": cand})
        for side in (lhs, rhs):
            _, m = evaluate(side, db2)
            side_peaks.append(m.peak_space_units)
    bound = db_size + max_candidate + 2 * max(side_peaks) + value_size(got)
    assert metrics.peak_space_units <= bound


def _all_unary(atoms):
    from eqalg.model import enumerate_relations

    return list(enumerate_relations(FLAT1, atoms))


# ---------------------------------------------------------------------------
# oracle comparison across every operator (small; the full sweep is in acceptance)


def test_operators_match_comprehension_oracle():
    rng = random.Random(501)
    for _ in range(40):
        t = random_type(rng, max_depth=2)
        n = rng.randint(1, 4)
        atoms = tuple(f"x{i}" for i in range(1, n + 1))
        r = random_value(rng, t, atoms)
        s = random_value(rng, t, atoms)
        db = db_of(atoms, A=r, B=s)
        k = t.arity

        checks = [
            (Union(Name("A"), Name("B")), o_product(frozenset(), frozenset()) | to_plain(r) | to_plain(s)),
            (Difference(Name("A"), Name("B")), to_plain(r) - to_plain(s)),
            (Product(Name("A"), Name("B")), o_product(to_plain(r), to_plain(s))),
            (Project((1,), Name("A")), o_project(to_plain(r), (1,))),
            (Select(1, "=", 1, Name("A")), o_select(to_plain(r), 1, "=", 1)),
            (Nest((1,), Name("A")), o_nest(to_plain(r), (1,), k)),
            (Domain(), o_domain(atoms)),
        ]
        if len(r.rows) <= 6:
            checks.append((Powerset(Name("A")), o_powerset(to_plain(r))))
        nested_cols = [i for i, c in enumerate(t.components, start=1) if not c.is_atom]
        if nested_cols:
            checks.append((Unnest(nested_cols[0], Name("A")), o_unnest(to_plain(r), nested_cols[0])))
        for expr, expected in checks:
            got, _ = evaluate(expr, db)
            assert to_plain(got) == expected


# ---------------------------------------------------------------------------
# genericity (small, the full version is in acceptance)


def test_eval_commutes_with_atom_permutations():
    rng = random.Random(404)
    atoms = ("x1", "x2", "x3")
    for _ in range(8):
        schema = {"R": FLAT2, "S": FLAT1}
        db = db_of(
            atoms,
            R=random_flat_rel(rng, 2, atoms, 0.4),
            S=random_flat_rel(rng, 1, atoms, 0.5),
        )
        e = random_expr(rng, schema, steps=5)
        budget = EvalBudget(max_candidates=10**5, max_space_units=10**7, max_solutions=10**5)
        try:
            base, _ = evaluate(e, db, budget)
        except BudgetExceeded:
            continue
        perm = list(atoms)
        rng.shuffle(perm)
        mapping = dict(zip(atoms, perm))
        permuted, _ = evaluate(e, rename_database(db, mapping), budget)
        assert permuted == rename_value(base, mapping)


# ---------------------------------------------------------------------------
# select chains over products (run as hash joins) against the oracles

JOIN_KINDS = ("cross", "cross_reversed", "within_one_side", "not_equal")
JOIN_TYPES = {
    "N": RelType((ATOM, FLAT1)),
    "M": RelType((FLAT1, ATOM, FLAT1)),
}


def _same_type_pairs(comps, lo, hi, lo2, hi2):
    return [
        (i, j)
        for i in range(lo, hi + 1)
        for j in range(lo2, hi2 + 1)
        if comps[i - 1] == comps[j - 1]
    ]


def _join_expr(rng, schema, kind, depth, tags):
    """``[project] select* select(product(a, b))`` whose innermost test is of
    the given kind; an operand is sometimes itself such an expression."""

    def operand():
        if depth and rng.random() < 0.3:
            tags.add("join_operand")
            return _join_expr(rng, schema, "cross", depth - 1, tags)
        return Name(rng.choice(sorted(schema)))

    while True:
        a, b = operand(), operand()
        ta, tb = infer_type(a, schema), infer_type(b, schema)
        comps = ta.components + tb.components
        ka, k = ta.arity, len(comps)
        cross = _same_type_pairs(comps, 1, ka, ka + 1, k)
        pairs = {
            "cross": cross,
            "cross_reversed": [(j, i) for i, j in cross],
            "within_one_side": _same_type_pairs(comps, 1, ka, 1, ka)
            + _same_type_pairs(comps, ka + 1, k, ka + 1, k),
            "not_equal": cross,
        }[kind]
        if pairs and k <= 8:
            break
    if a == b:
        tags.add("self_join")
    i, j = rng.choice(pairs)
    if not comps[i - 1].is_atom:
        tags.add("nested_key")
    e = Select(i, "!=" if kind == "not_equal" else "=", j, Product(a, b))
    for _ in range(rng.randint(0, 2)):
        fi, fj = rng.choice(_same_type_pairs(comps, 1, k, 1, k))
        e = Select(fi, rng.choice(["=", "!="]), fj, e)
        tags.add("filters")
    if rng.random() < 0.6:
        e = Project(tuple(rng.randint(1, k) for _ in range(rng.randint(1, 3))), e)
        tags.add("project")
    return e


@pytest.mark.parametrize("kind", JOIN_KINDS)
def test_select_over_product_matches_oracle_value_and_peak(kind):
    rng = random.Random(9100 + JOIN_KINDS.index(kind))
    tags: set = set()
    for _ in range(50):
        atoms = ("a", "b", "c")[: rng.randint(2, 3)]
        schema = {nm: flat_type(rng.randint(1, 3)) for nm in ("P", "Q")}
        schema.update(JOIN_TYPES)
        rels = {nm: random_value(rng, t, atoms, max_rows=5) for nm, t in schema.items()}
        db = Database(atoms, rels)
        e = _join_expr(rng, schema, kind, 1, tags)
        env = {nm: to_plain(r) for nm, r in db.relations.items()}

        value, metrics = evaluate(e, db)
        assert to_plain(value) == oracle_eval(e, env, atoms, schema)
        peak, peak_path, _ = oracle_peak(e, env, atoms, schema)
        assert metrics.peak_space_units == peak
        if peak < 2:
            continue
        _, at_cap = evaluate(e, db, EvalBudget(max_space_units=peak))
        assert at_cap.peak_space_units == peak
        with pytest.raises(BudgetExceeded) as err:
            evaluate(e, db, EvalBudget(max_space_units=peak - 1))
        assert (err.value.which, err.value.path) == ("space", peak_path)
        assert f"live {peak} units > cap {peak - 1}" in str(err.value)
    assert {"self_join", "nested_key", "filters", "project", "join_operand"} <= tags


# ---------------------------------------------------------------------------
# projections: the value-level kernel, the compiled node and the join's
# projection, against the oracles


def _projection_indices(rng, k):
    """1, 2 or 3-4 indices within arity ``k``, repeats allowed and sometimes forced."""
    idx = [rng.randint(1, k) for _ in range(rng.choice((1, 2, rng.randint(3, 4))))]
    if len(idx) > 1 and rng.random() < 0.3:
        idx[1] = idx[0]
    return tuple(idx)


def _assert_matches_oracle(e, db, atoms, schema):
    env = {nm: to_plain(r) for nm, r in db.relations.items()}
    value, metrics = evaluate(e, db)
    assert to_plain(value) == oracle_eval(e, env, atoms, schema)
    peak, peak_path, _ = oracle_peak(e, env, atoms, schema)
    assert metrics.peak_space_units == peak
    if peak >= 2:
        with pytest.raises(BudgetExceeded) as err:
            evaluate(e, db, EvalBudget(max_space_units=peak - 1))
        assert (err.value.which, err.value.path) == ("space", peak_path)


def test_projection_paths_match_oracle_value_and_peak():
    rng = random.Random(9300)
    seen: set = set()
    for case in range(60):
        atoms = ("a", "b", "c")[: rng.randint(2, 3)]
        schema = {"P": flat_type(rng.randint(1, 3)), "Q": flat_type(rng.randint(1, 3))}
        schema.update(JOIN_TYPES)
        rels = {nm: random_value(rng, t, atoms, max_rows=5) for nm, t in schema.items()}
        db = Database(atoms, rels)
        name = rng.choice(sorted(schema))
        t = schema[name]
        idx = (2, 2, 1) if case == 0 and t.arity >= 2 else _projection_indices(rng, t.arity)
        seen.add(min(len(idx), 3))
        if len(set(idx)) < len(idx):
            seen.add("repeat")
        if any(not t.components[i - 1].is_atom for i in idx):
            seen.add("relation_column")

        # the compiled node, over a name and over a non-join operator
        _assert_matches_oracle(Project(idx, Name(name)), db, atoms, schema)
        _assert_matches_oracle(Project(idx, Union(Name(name), Name(name))), db, atoms, schema)
        # the join's projection, picking the same columns of its left side
        other = rng.choice(sorted(schema))
        comps = t.components + schema[other].components
        pairs = _same_type_pairs(comps, 1, t.arity, t.arity + 1, len(comps))
        if pairs:
            i, j = rng.choice(pairs)
            join = Project(idx, Select(i, "=", j, Product(Name(name), Name(other))))
            _assert_matches_oracle(join, db, atoms, schema)
            seen.add("join")
    assert {1, 2, 3, "repeat", "relation_column", "join"} <= seen


# ---------------------------------------------------------------------------
# the space cap at every operator of the metering wrapper

CAP_OPS = ("union", "difference", "nest", "unnest", "powerset", "product", "select")


def _relation_columns(t):
    return [i for i, c in enumerate(t.components, start=1) if not c.is_atom]


def _cap_expr(rng, op, schema):
    """``(expression, path of the op node, operand of the op node)``: the op
    over names of the schema or over a union or difference of them, sometimes
    under a product with ``S`` or a projection, so the op node is not always
    the root.  A select is never over a product, so it is not a join."""
    t = schema["P"]

    def operand():
        if rng.random() < 0.3:
            return rng.choice((Union, Difference))(Name("P"), Name("Q"))
        return Name(rng.choice(("P", "Q")))

    arg = operand()
    if op == "union":
        node = Union(arg, operand())
    elif op == "difference":
        node = Difference(arg, operand())
    elif op == "nest":
        count = rng.randint(1, t.arity)
        node = Nest(tuple(sorted(rng.sample(range(1, t.arity + 1), count))), arg)
    elif op == "unnest":
        cols = _relation_columns(t)
        if cols and rng.random() < 0.7:
            node = Unnest(rng.choice(cols), arg)
        else:  # the column a nest appends
            node = Unnest(t.arity + 1, Nest((rng.randint(1, t.arity),), arg))
    elif op == "powerset":
        node = Powerset(arg)
    elif op == "product":
        node = Product(arg, operand())
    else:
        i = rng.randint(1, t.arity)
        same_type = [c for c in range(1, t.arity + 1) if t.components[c - 1] == t.components[i - 1]]
        j = rng.choice(same_type)
        node = Select(i, rng.choice(("=", "!=")), j, arg)
    wrap = rng.choice(("root", "left", "right", "project"))
    if wrap == "left":
        return Product(node, Name("S")), "left", arg
    if wrap == "right":
        return Product(Name("S"), node), "right", arg
    if wrap == "project":
        return Project((1,), node), "arg", arg
    return node, "", arg


@pytest.mark.parametrize("op", CAP_OPS)
def test_space_cap_boundary_at_each_operator(op):
    rng = random.Random(9500 + CAP_OPS.index(op))
    seen: set = set()
    for _ in range(40):
        atoms = ("a", "b", "c")[: rng.randint(2, 3)]
        t = random_type(rng, max_depth=2)
        while op == "unnest" and rng.random() < 0.7 and not _relation_columns(t):
            t = random_type(rng, max_depth=2)
        schema = {"P": t, "Q": t, "S": flat_type(rng.randint(1, 2))}
        max_rows = 4 if op == "powerset" else 5
        rels = {nm: random_value(rng, rt, atoms, max_rows=max_rows) for nm, rt in schema.items()}
        db = Database(atoms, rels)
        e, op_path, arg = _cap_expr(rng, op, schema)
        env = {nm: to_plain(r) for nm, r in db.relations.items()}

        value, metrics = evaluate(e, db)
        assert to_plain(value) == oracle_eval(e, env, atoms, schema)
        peak, peak_path, _ = oracle_peak(e, env, atoms, schema)
        assert metrics.peak_space_units == peak
        if peak >= 2:
            _, at_cap = evaluate(e, db, EvalBudget(max_space_units=peak))
            assert at_cap.peak_space_units == peak
            with pytest.raises(BudgetExceeded) as err:
                evaluate(e, db, EvalBudget(max_space_units=peak - 1))
            assert (err.value.which, err.value.path) == ("space", peak_path)
            if peak_path == op_path:
                seen.add("peak_at_op")
        if _relation_columns(t):
            seen.add("relation_column")

        if op == "powerset":
            # the exact size, at least one unit per subset, is charged before
            # any subset is built: the operand, and S when evaluated first, are live
            arg_value = oracle_eval(arg, env, atoms, schema)
            before = plain_size(env["S"]) if op_path == "right" else 0
            live = before + plain_size(arg_value)
            cap = live + 2 ** len(arg_value) - 1
            if 1 <= cap and before + oracle_peak(arg, env, atoms, schema)[0] <= cap:
                with pytest.raises(BudgetExceeded) as err:
                    evaluate(e, db, EvalBudget(max_space_units=cap))
                assert (err.value.which, err.value.path) == ("space", op_path)
                assert f"powerset of {len(arg_value)} rows needs >= " in str(err.value)
                seen.add("precheck")
    assert {"peak_at_op", "relation_column"} <= seen
    if op == "powerset":
        assert "precheck" in seen


# ---------------------------------------------------------------------------
# flat solve bodies, evaluated bit-sliced, against the oracles

FLAT_BINDERS = (
    ((("X", FLAT1),), 3),
    ((("X", FLAT2),), 3),
    ((("X", FLAT1), ("Y", FLAT1)), 3),
    ((("X", FLAT1), ("Y", FLAT2)), 2),
)


def _to_arity(rng, e, k, target):
    if k == target:
        return e
    return Project(tuple(rng.randint(1, k) for _ in range(target)), e)


def _flat_body(rng, arities, depth, tags):
    """``(expression, arity)``: a random flat expression over the names of
    ``arities`` (name -> arity) and D, of arity at most 4."""
    if depth == 0 or rng.random() < 0.25:
        nm = rng.choice(sorted(arities) + ["D"])
        tags.add(nm if nm in ("D", "P", "Q") else "variable")
        return (Domain(), 1) if nm == "D" else (Name(nm), arities[nm])
    op = rng.choice(("union", "minus", "times", "select", "project", "join"))
    a, ka = _flat_body(rng, arities, depth - 1, tags)
    if op in ("union", "minus"):
        b, kb = _flat_body(rng, arities, depth - 1, tags)
        tags.add(op)
        return (Union if op == "union" else Difference)(a, _to_arity(rng, b, kb, ka)), ka
    if op in ("times", "join"):
        b, kb = _flat_body(rng, arities, depth - 1, tags)
        if ka + kb > 4:
            return a, ka
        e, k = Product(a, b), ka + kb
        tags.add("times")
        if op == "join":
            e = Select(rng.randint(1, ka), "=", rng.randint(ka + 1, k), e)
            e = Project(tuple(rng.randint(1, k) for _ in range(rng.randint(1, 3))), e)
            tags.add("join")
            return e, len(e.indices)
        return e, k
    if op == "select":
        test = rng.choice(("=", "!="))
        tags.add("select" + test)
        return Select(rng.randint(1, ka), test, rng.randint(1, ka), a), ka
    indices = tuple(rng.randint(1, ka) for _ in range(rng.randint(1, 3)))
    if len(set(indices)) < len(indices):
        tags.add("project_repeat")
    return Project(indices, a), len(indices)


def _flat_solve(rng, binders, tags):
    """A solve node over ``binders`` whose sides are random flat bodies; the
    right side is sometimes free of the bound variables, or the empty set."""
    free = {"P": rng.randint(1, 2), "Q": rng.randint(1, 3)}
    arities = {**free, **{nm: t.arity for nm, t in binders}}
    lhs, k = _flat_body(rng, arities, rng.randint(1, 3), tags)
    form = rng.choice(("body", "free", "empty"))
    if form == "free":
        rhs = _to_arity(rng, *_flat_body(rng, free, rng.randint(0, 2), tags), k)
    elif form == "empty":
        rhs = ast.empty_like(lhs)
    else:
        rhs = _to_arity(rng, *_flat_body(rng, arities, rng.randint(0, 3), tags), k)
    bound = {nm for nm, _ in binders}
    if not (ast.free_names(lhs) & bound and ast.free_names(rhs) & bound):
        tags.add("invariant_side")
    return Solve(binders, lhs, rhs), free


def _flat_cases(tags):
    """``(expression, solve node, database, free names' schema)`` for 100
    random flat solve bodies, a fixed sequence; each expression uses its
    solve node twice with probability 0.3."""
    rng = random.Random(9700)
    for binders, max_atoms in FLAT_BINDERS:
        for _ in range(20):
            atoms = ("a", "b", "c")[: rng.randint(1, max_atoms)]
            node, free = _flat_solve(rng, binders, tags)
            schema = {nm: flat_type(k) for nm, k in free.items()}
            rels = {nm: random_flat_rel(rng, k, atoms, 0.5) for nm, k in free.items()}
            # a solve node used twice: the second use charges the first's solution set
            e = Union(node, node) if rng.random() < 0.3 else node
            if e is not node:
                tags.add("reused")
            yield e, node, Database(atoms, rels), schema


def _on_relations(monkeypatch):
    """Keep every solve body on the relation kernels: the one seam that does
    it is the plan's per-solve record, whose last part then says that no
    body runs bit-sliced.  The seam acts when a node is compiled, and a node
    evaluated before keeps its program, so a test evaluates fresh nodes or
    fresh copies under it; ``bitslice.Blocks.scan`` fails under it, so a
    program compiled to run bit-sliced cannot pass for the relation path."""
    record = evaluator.Plan.solve

    def on_relations(plan, e, path):
        return (*record(plan, e, path)[:2], None)

    def scan(*args):
        raise AssertionError("a block was scanned with every body on relations")

    monkeypatch.setattr(evaluator.Plan, "solve", on_relations)
    monkeypatch.setattr(bitslice.Blocks, "scan", scan)


def _representations(monkeypatch, e, db):
    """Yield a fresh copy of ``e`` per representation: first on bit-sliced
    blocks, which scan at least one block where ``_sliced`` says a body of
    ``e`` slices on ``db``, then with every solve body kept on the relation
    kernels (``_on_relations``), which scan none, until the loop resumes.
    Each copy carries no program, so it is compiled under its own seam."""
    scans = []
    scan = bitslice.Blocks.scan

    def counted(self, *args):
        scans.append(args)
        return scan(self, *args)

    with monkeypatch.context() as m:
        m.setattr(bitslice.Blocks, "scan", counted)
        slices = any(_sliced(e, db).values())
        yield copy.copy(e)
        assert bool(scans) == slices
        _on_relations(m)
        yield copy.copy(e)


def _sliced(e, db) -> dict:
    """Whether each solve of ``e`` runs bit-sliced on ``db``, by path, as the
    plan's per-solve record says."""
    plan = evaluator._prepare(e, db, None)[0]
    return {path: plan.solve(node, path)[-1] is not None for path, node in _solve_nodes(e)}


@pytest.fixture(params=["sliced", "relations"])
def representation(request, monkeypatch):
    """The values flat solve bodies run on: bit-sliced blocks, or relations."""
    if request.param == "relations":
        _on_relations(monkeypatch)
    return request.param


def test_flat_solve_bodies_match_oracles(representation):
    tags: set = set()
    for e, node, db, schema in _flat_cases(tags):
        atoms = db.atoms
        assert _sliced(node, db) == {"": representation == "sliced"}
        env = {nm: to_plain(r) for nm, r in db.relations.items()}

        value, metrics = evaluate(e, db)
        expected = oracle_eval(e, env, atoms, schema)
        assert to_plain(value) == expected
        peak, peak_path, solves = oracle_peak(e, env, atoms, schema)
        counts = {s.path: (s.candidates_tested, s.solutions_found) for s in metrics.solves}
        assert counts == solves
        assert metrics.peak_space_units == peak
        _, at_cap = evaluate(e, db, EvalBudget(max_space_units=peak))
        assert at_cap.peak_space_units == peak
        with pytest.raises(BudgetExceeded) as err:
            evaluate(e, db, EvalBudget(max_space_units=peak - 1))
        assert (err.value.which, err.value.path) == ("space", peak_path)
        nonempty = solve_nonempty(node.binders, node.lhs, node.rhs, db)
        assert nonempty == bool(oracle_eval(node, env, atoms, schema))
        tags.add("has_solutions" if nonempty else "no_solutions")
    assert {
        "union", "minus", "times", "select=", "select!=", "project_repeat", "join",
        "P", "Q", "D", "variable", "invariant_side", "has_solutions", "no_solutions", "reused",
    } <= tags  # fmt: skip


def _fixed_flat_cases(atoms):
    """``(solve node, database)`` for flat solve bodies that the random
    corpus may miss, on ``atoms``: operators whose operands are all names or
    D, a left or a right side that mentions no bound variable, on three
    atoms more than 64 solutions in one block, and metering points that
    peak at different candidates."""
    X, P, Q, D = Name("X"), Name("P"), Name("Q"), Domain()
    x1, x2 = (("X", FLAT1),), (("X", FLAT2),)
    xq, dq = Product(X, Q), Product(Difference(D, X), Q)
    bodies = [
        # operands that are all leaves
        (x1, Union(X, P), Difference(D, X)),
        (x1, Product(X, D), Product(P, X)),
        (x2, Project((1,), Select(2, "=", 3, Product(X, Q))), Project((2,), Select(1, "!=", 2, X))),
        # a side that mentions no bound variable, on the left, then the right
        (x2, Product(P, P), Union(X, Select(1, "!=", 2, Product(P, P)))),
        (x2, Difference(Union(X, Q), Product(P, D)), Q),
        (x1, Project((1,), Product(X, X)), Union(P, Project((2,), Q))),
        # with all but one pair in Q, more than 64 solutions in one block on
        # three atoms, here and in the body on X x Q above
        (x2, Difference(X, Q), ast.empty_like(Q)),
        # every candidate a solution: the product of D - X peaks at X = {},
        # the first candidate, and has the higher bound, but the product by
        # Q, at X = D, the last, is the highest with the solutions before it
        (x1, Union(Project((1,), Product(Difference(D, X), Product(D, D))), Project((1,), xq)), D),
        # X x X holds a pair of distinct atoms only for X = D, so the first
        # product by Q peaks at X = D, the last candidate, and the second at
        # X = {}, the first: under a cap that refuses the last candidate, the
        # peak it leaves comes from the second, which no block counts
        # without a cap
        (x1, Union(Project((1,), Product(Select(1, "!=", 2, Product(X, X)), Q)), Project((1,), dq)),
         Project((1,), Product(Difference(D, X), X))),
    ]
    pairs = list(itertools.product(atoms, repeat=2))
    db = db_of(atoms, P=rel(FLAT1, [(atoms[0],), (atoms[-1],)]), Q=rel(FLAT2, pairs[:-1]))
    for binders, lhs, rhs in bodies:
        yield Solve(binders, lhs, rhs), db


def _metered(e, db, budget):
    """What evaluating ``e`` under ``budget`` leaves, through the program
    kept on ``e``: its value and metrics, or the refusal's kind, path, text
    and solve counts and the peak total it leaves."""
    run = evaluator._program(e, db).run
    ctx, env = evaluator._context(db, budget)
    try:
        value = run(env, ctx)
    except BudgetExceeded as exc:
        return exc.which, exc.path, str(exc), exc.solve, ctx.peak
    return value, ctx.metrics()


def _above_block_bounds(e, db, monkeypatch) -> int:
    """A space cap under which no candidate of a bit-sliced block of ``e`` on
    ``db`` can be refused: above the live total before each block plus the
    scalar bound of what its candidates keep live, the solutions before its
    stop candidate, its candidate's own charge and the larger of its highest
    point and a solution's own row (see ``bitslice._tile_read``), whether
    the block is then read at tile tops or counted.  Every block whose
    sides are evaluated goes through the tile read first."""
    cap = EvalBudget().max_space_units
    needed = [1]
    read = bitslice._tile_read

    def bounded(points, charge, hit, keep, end, room):
        c = sum(s.bound for s in charge)
        top = max((sum(s.bound for s in p) for p in points), default=0)
        reach = hit.bit_count() * (1 + c) + c
        needed.append(cap - room + reach + max(top, c + 1))
        return read(points, charge, hit, keep, end, room)

    with monkeypatch.context() as m:
        m.setattr(bitslice, "_tile_read", bounded)
        evaluate(e, db)
    return max(needed) + 1


def test_flat_solve_bodies_agree_across_representations(monkeypatch):
    # bit-sliced blocks and relations give the same value and metrics, and
    # the same outcome under every cap from 60 below the peak to 60 above
    # it, where blocks take the vertical counters, and under one cap above
    # the blocks' scalar bounds, where a block whose values grow is read at
    # its tile tops: the refusal's kind, path and text and the peak it leaves
    fixed = [(node, node, db, None) for node, db in _fixed_flat_cases(("a", "b", "c"))]
    assert max(len(evaluate(node, db)[0]) for node, _, db, _ in fixed) > 64
    for e, _, db, _ in itertools.chain(_flat_cases(set()), fixed):
        above = _above_block_bounds(e, db, monkeypatch)
        runs = []
        for copied in _representations(monkeypatch, e, db):
            value, metrics = evaluate(copied, db)
            peak = metrics.peak_space_units
            low = max(1, peak - 60)
            caps = [*range(low, peak + 61), max(above, peak + 61)]
            outcomes = [_metered(copied, db, EvalBudget(max_space_units=cap)) for cap in caps]
            # a refusal below the peak, the value and metrics from it on
            assert [len(outcome) for outcome in outcomes] == [5] * (peak - low) + [2] * 62
            runs.append((value, metrics, outcomes))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("block_bits", [bitslice.BLOCK_BITS, 2])
def test_metering_point_bounds_hold_per_candidate(block_bits, monkeypatch):
    # on the flat corpora, each metering point's scalar bound is at least
    # the largest value of its per-candidate counter, and so is each live
    # value's, products and levels alike, and the binders' bounds hold a
    # candidate's own charge; at the top t of each tile of the candidates
    # before each solution of a block and before its end, each value's units
    # read at t, with and without its bit mask, are its counter's value
    # there, and a value that grows with the binders has no candidate of the
    # tile above it
    monkeypatch.setattr(bitslice, "BLOCK_BITS", block_bits)
    evaluate_block = bitslice.Blocks._evaluate
    seen = collections.Counter()

    def checked(self, k, keep, room):
        hit, charge, points = evaluate_block(self, k, keep, room)
        tiles = set()  # (top, first candidate, end) of each tile of each prefix
        for e in (*bitslice._bits(hit, keep.bit_length()), keep.bit_length()):
            while e:
                lo = e & e - 1
                tiles.add((e - 1, lo, e))
                e = lo
        for p in [*points, charge]:
            assert sum(s.bound for s in p) >= bitslice._vmax_in(bitslice._total(p), keep)
            for s in p:
                highest = bitslice._vmax_in(s.size(), keep)
                assert s.bound >= highest
                seen["product" if isinstance(s._of, tuple) else "value"] += 1
                for t, lo, e in sorted(tiles):
                    units = bitslice._vat(s.size(), t)
                    assert s.rows_at(t, 0) * s.width == units
                    s._t = -1  # read again, through the bit mask
                    assert s.rows_at(t, 1 << t) * s.width == units
                    if s.grows:
                        assert bitslice._vmax_in(s.size(), (1 << e) - (1 << lo)) == units
                    seen["grows" if s.grows else "shrinks"] += 1
                    seen["later tile" if lo else "first tile"] += 1
            seen["point"] += 1
        return hit, charge, points

    monkeypatch.setattr(bitslice.Blocks, "_evaluate", checked)
    fixed = list(_fixed_flat_cases(("a", "b", "c")))
    for e, db in itertools.chain(((e, db) for e, _, db, _ in _flat_cases(set())), fixed):
        evaluate(e, db)
    tags = ("product", "value", "point", "grows", "shrinks", "first tile", "later tile")
    assert min(seen[tag] for tag in tags) > 0


# binders of 3 to 6 counter bits, so that with two-bit blocks every solve
# spans several blocks of 4 candidates
BLOCK_BINDERS = (
    ((("X", FLAT1),), 3),
    ((("X", FLAT2),), 2),
    ((("X", FLAT1), ("Y", FLAT1)), 3),
    ((("X", FLAT1), ("Y", FLAT2)), 2),
)


def _hits(node, db) -> list:
    """The positions of the solutions in candidate order."""
    env = {nm: to_plain(r) for nm, r in db.relations.items()}
    solutions = oracle_eval(node, env, db.atoms, db.schema)
    orders = [candidate_order(t, db.atoms) for _, t in node.binders]
    return [i for i, assignment in enumerate(itertools.product(*orders)) if assignment in solutions]


def _outcome(e, db, budget):
    try:
        return evaluate(e, db, budget)
    except BudgetExceeded as exc:
        return str(exc), exc.solve


def test_small_blocks_agree_with_relations(monkeypatch):
    # with blocks of 4 candidates, a solve gives what the relation kernels
    # give: value and metrics, the outcome under every cap from 60 below the
    # peak to 60 above it, under one cap above the blocks' scalar bounds and
    # under every solution cap below the solution count (the refusal's kind,
    # path and text and the peak it leaves), and solve_nonempty
    monkeypatch.setattr(bitslice, "BLOCK_BITS", 2)
    rng = random.Random(9750)
    tags: set = set()

    def corpus():
        for binders, max_atoms in BLOCK_BINDERS:
            for _ in range(8):
                atoms = ("a", "b", "c")[:max_atoms]
                node, free = _flat_solve(rng, binders, tags)
                rels = {nm: random_flat_rel(rng, k, atoms, 0.5) for nm, k in free.items()}
                yield node, Database(atoms, rels)
        yield from _fixed_flat_cases(("a", "b"))

    for node, db in corpus():
        above = _above_block_bounds(node, db, monkeypatch)
        runs = []
        for copied in _representations(monkeypatch, node, db):
            value, metrics = evaluate(copied, db)
            peak = metrics.peak_space_units
            found = metrics.solves[0].solutions_found
            low = max(1, peak - 60)
            spaces = (*range(low, peak + 61), max(above, peak + 61))
            caps = [EvalBudget(max_space_units=cap) for cap in spaces]
            caps += [EvalBudget(max_solutions=m) for m in range(1, found)]
            outcomes = [_metered(copied, db, budget) for budget in caps]
            nonempty = solve_nonempty(node.binders, node.lhs, node.rhs, db)
            runs.append((value, metrics, outcomes, nonempty))
        assert runs[0] == runs[1]
        if len(node.binders) > 1:
            tags.add("several_binders")
        if found > 1:
            tags.add("solution_cap")
        hits = _hits(node, db)
        if hits and hits[0] >= 4:
            tags.add("first_hit_in_later_block")
        space_refusals = outcomes[: peak - low]
        if any(solve and solve[1] >= 4 for _, _, _, solve, _ in space_refusals):
            tags.add("space_refusal_in_later_block")
    assert {
        "several_binders", "solution_cap", "first_hit_in_later_block",
        "space_refusal_in_later_block",
    } <= tags  # fmt: skip


def _stop(node, db, budget, quota):
    """The solve loop of ``node`` run up to ``quota``, as ``solve_nonempty``
    runs it with a quota of 0: the solution runs, units, live and peak
    totals and metrics it leaves, or the refusal's text, its solve's counts
    and the peak total."""
    plan, ctx, env = evaluator._prepare(node, db, budget)
    try:
        runs, _, units = evaluator._compile_solve(node, "", plan)(env, ctx, quota)
    except BudgetExceeded as exc:
        return str(exc), exc.solve, ctx.peak
    return runs, units, ctx.live, ctx.peak, ctx.metrics()


@pytest.mark.parametrize("quota", [0, 1, 2, 3])
@pytest.mark.parametrize("block_bits", [bitslice.BLOCK_BITS, 2])
def test_stop_rule_meters_alike_on_both_paths(block_bits, quota, monkeypatch):
    # stopping at the solution past the quota, a bit-sliced body leaves what
    # the relation kernels leave: the solution runs, units, live and peak
    # totals and solve stats, and the refusal and the peak it leaves under
    # every space cap from 20 below the peak up to it
    monkeypatch.setattr(bitslice, "BLOCK_BITS", block_bits)
    rng = random.Random(9760)
    tags: set = set()
    for binders, max_atoms in BLOCK_BINDERS:
        for _ in range(8):
            atoms = ("a", "b", "c")[:max_atoms]
            node, free = _flat_solve(rng, binders, tags)
            rels = {nm: random_flat_rel(rng, k, atoms, 0.5) for nm, k in free.items()}
            db = Database(atoms, rels)
            runs = []
            for copied in _representations(monkeypatch, node, db):
                done = _stop(copied, db, EvalBudget(), quota)
                peak = done[3]
                caps = range(max(1, peak - 20), peak + 1)
                runs.append([done] + [_stop(copied, db, EvalBudget(max_space_units=c), quota) for c in caps])
            assert runs[0] == runs[1]
            hits = _hits(node, db)
            stop = hits[quota] if len(hits) > quota else None
            tags.add("no_stop_solution" if stop is None else "stop_solution")
            # past candidate 3 is past the first block at a block size of 4
            for outcome in runs[0][1:-1]:
                if stop is not None and outcome[1][1] == stop:
                    tags.add("stop_solution_refused")
                if outcome[1][1] >= 4:
                    tags.add("late_refusal")
            if stop is None:
                continue
            if stop >= 4:
                tags.add("stop_solution_in_later_block")
            # the stop solution joins the run of its block, one run a block
            found = runs[0][0][0]
            assert len({base for base, _ in found}) == len(found)
            base, mask = found[-1]
            assert base <= stop and mask >> stop - base & 1
            if quota and hits[quota - 1] >> 2 == stop >> 2:
                assert mask >> hits[quota - 1] - base & 1
                tags.add("stop_solution_after_hits_in_its_block")
    expected = {
        "stop_solution", "no_stop_solution", "stop_solution_refused", "late_refusal",
        "stop_solution_in_later_block",
    }  # fmt: skip
    if quota:
        expected.add("stop_solution_after_hits_in_its_block")
    assert expected <= tags


@pytest.mark.parametrize("quota", [0, 1])
def test_peak_read_only_over_the_candidates_before_the_stop(quota, monkeypatch):
    # on two atoms, X x X holds a pair of distinct atoms only for X = D, the
    # last candidate, so the product by Q peaks there at 58 units; the
    # product of D - X by P peaks at 48 units for X = {}, the first.  Only
    # the singletons are solutions, so with a quota of 0 the walk stops at
    # the first of them: the first candidate's peak must come from the
    # second product, read over the tiles before the stop and not over the
    # block; with a quota of 1 it stops at the second
    X, D, P, Q = Name("X"), Domain(), Name("P"), Name("Q")
    pairs = list(itertools.product(("a", "b"), repeat=2))
    db = db_of(("a", "b"), P=rel(FLAT2, pairs), Q=rel(FLAT2, pairs))
    wide = Product(Select(1, "!=", 2, Product(X, X)), Q)
    lhs = Union(Project((1,), wide), Project((1,), Product(Difference(D, X), P)))
    node = Solve((("X", FLAT1),), lhs, Project((1,), Product(Difference(D, X), X)))
    assert _hits(node, db) == [1, 2]
    runs = [_stop(copied, db, EvalBudget(), quota)
            for copied in _representations(monkeypatch, node, db)]  # fmt: skip
    assert runs[0] == runs[1]
    assert runs[0][3] == 48


def test_a_stop_candidate_that_does_not_stop_is_an_internal_error(monkeypatch, capsys, tmp_path):
    # a block's scan that reports a stop candidate which is neither refused
    # nor a solution breaks the solve loop's one invariant: evaluate raises
    # InternalCheckError, naming the candidate and the solve, and the CLI
    # maps it to exit 3 with no traceback
    def scan(self, k, live0, cap, quota):
        return 0, 0, live0, 1  # candidate 1, {(a)}, is not a solution

    monkeypatch.setattr(bitslice.Blocks, "scan", scan)
    text = "solve{(X:(0)) | X = R}"
    db = db_of(("a", "b"), R=rel(FLAT1, [("b",)]))
    with pytest.raises(evaluator.InternalCheckError, match="candidate 1 of solve <expr> is"):
        evaluate(parse_expr(text), db)
    path = tmp_path / "r.edb"
    path.write_text("domain [a,b]\nR:(0) = [[b]]\n")
    assert cli.main(["solve", "--db", str(path), "--expr", text]) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: candidate 1 of solve")
    assert "Traceback" not in err


def _space_refusal(node, db, cap):
    """The refusal of the solve loop of ``node`` under a space cap: its node
    path and text, its solve's counts and the peak total it leaves."""
    plan, ctx, env = evaluator._prepare(node, db, EvalBudget(max_space_units=cap))
    with pytest.raises(BudgetExceeded) as err:
        evaluator._compile_solve(node, "", plan)(env, ctx, ctx.max_solutions)
    return err.value.path, str(err.value), err.value.solve, ctx.peak


@pytest.mark.parametrize("few_bits", [model._FEW_BITS, -1])
def test_refusal_on_a_solutions_own_charge_agrees_with_relations(few_bits, monkeypatch):
    # in X = P, a candidate's sides keep no more live than X, so a
    # solution's row of 1 + |X| + |Y| units, charged at the solve node while
    # X and Y are live, is the most its candidate has live: under every cap
    # below the peak, some of them on that charge, the refusal's text, counts
    # and peak total are those of the relation kernels; so is the outcome
    # under each solution cap below the 8 solutions, whether the block lists
    # its solutions' bits one at a time or by the bytes to find the one past
    # the cap
    monkeypatch.setattr(model, "_FEW_BITS", few_bits)
    db = db_of(("a", "b", "c"), P=rel(FLAT1, [("a",), ("c",)]))
    node = Solve((("X", FLAT1), ("Y", FLAT1)), Name("X"), Name("P"))
    caps = range(1, evaluate(node, db)[1].peak_space_units)
    quotas = range(1, 8)
    runs = [([_space_refusal(copied, db, cap) for cap in caps],
             [_outcome(copied, db, EvalBudget(max_solutions=q)) for q in quotas])
            for copied in _representations(monkeypatch, node, db)]  # fmt: skip
    assert runs[0] == runs[1]
    # the solution past each cap, found on the candidates 42 to 48
    assert [solve[1:] for _, solve in runs[0][1]] == [(41 + q, 1 + q) for q in quotas]
    # (node path, candidates tested) by increasing cap
    refusals = [(path, solve[1]) for path, _, solve, _ in runs[0][0]]
    # a candidate refused at the solve node once its lhs has passed, so on
    # its solution row: all solutions but the last, whose row stays below
    # the peaks of the candidates after it
    own = {n for (p, n), (q, m) in zip(refusals, refusals[1:]) if (p, q) == ("lhs", "") and n == m}
    assert len(own) == 7


def test_full_block_of_solutions_agrees_with_relations(monkeypatch):
    # one block of 2^14 candidates, each of them a solution: the walk carries
    # thousands of solutions to the peak, to a space refusal and to a
    # solution cap as the relation kernels do; 14 atoms, so the solve is one
    # whole block at any block size from 2^14 up
    bits = 14
    atoms = tuple(f"a{i}" for i in range(bits))
    db = db_of(atoms, R=rel(FLAT1, [(a,) for a in atoms]))
    e = build_powerset_eq()
    runs = []
    for copied in _representations(monkeypatch, e, db):
        value, metrics = evaluate(copied, db)
        assert metrics.solves[0].solutions_found == 1 << bits
        peak = metrics.peak_space_units
        budgets = [EvalBudget(max_space_units=cap) for cap in (peak - 1, peak // 2)]
        budgets.append(EvalBudget(max_solutions=5000))
        outcomes = [_outcome(copied, db, budget) for budget in budgets]
        runs.append((value, metrics, outcomes))
    assert runs[0] == runs[1]
    assert [solve[2] for _, solve in outcomes] == [(1 << bits) - 1, 8871, 5001]


def _nested_solve_cases(tags):
    """``(expression, database)`` for 40 random solves under solves, a fixed
    sequence: an outer solve over a unary Y whose left side unnests a flat
    inner solve, whose body mentions Y as a free name."""
    rng = random.Random(9600)
    for _ in range(40):
        atoms = ("a", "b", "c")[: rng.randint(1, 2)]
        binders = rng.choice(((("X", FLAT1),), (("X", FLAT2),)))
        k = binders[0][1].arity
        free = {"P": rng.randint(1, 2), "Q": rng.randint(1, 2)}
        arities = {**free, "Y": 1, "X": k}
        inner = None
        while inner is None or "Y" not in ast.free_names(inner):
            lhs, kl = _flat_body(rng, arities, rng.randint(1, 3), tags)
            rhs = _to_arity(rng, *_flat_body(rng, arities, rng.randint(0, 2), tags), kl)
            inner = Solve(binders, lhs, rhs)
        # unnest keeps the nested column; the projection drops it
        lhs = Project(tuple(range(2, k + 2)), Unnest(1, inner))
        rhs = _to_arity(rng, *_flat_body(rng, {"Y": 1, "P": free["P"]}, rng.randint(0, 2), tags), k)
        rels = {nm: random_flat_rel(rng, ar, atoms, 0.5) for nm, ar in free.items()}
        yield Solve((("Y", FLAT1),), lhs, rhs), Database(atoms, rels)


def test_solves_under_solves_match_oracles(representation):
    tags: set = set()
    for e, db in _nested_solve_cases(tags):
        atoms, schema = db.atoms, db.schema
        assert _sliced(e, db) == {"": False, "lhs.arg.arg": representation == "sliced"}
        env = {nm: to_plain(r) for nm, r in db.relations.items()}

        value, metrics = evaluate(e, db)
        assert to_plain(value) == oracle_eval(e, env, atoms, schema)
        peak, peak_path, solves = oracle_peak(e, env, atoms, schema)
        assert {s.path: (s.candidates_tested, s.solutions_found) for s in metrics.solves} == solves
        assert metrics.peak_space_units == peak
        _, at_cap = evaluate(e, db, EvalBudget(max_space_units=peak))
        assert at_cap.peak_space_units == peak
        with pytest.raises(BudgetExceeded) as err:
            evaluate(e, db, EvalBudget(max_space_units=peak - 1))
        assert (err.value.which, err.value.path) == ("space", peak_path)
        tags.add("peak_inside" if peak_path.startswith("lhs.arg.arg") else "peak_outside")
        tags.add("has_solutions" if value.rows else "no_solutions")
    assert {"peak_inside", "has_solutions", "no_solutions"} <= tags


# binders whose solution sets span two table chunks (a 9-row universe),
# several blocks of 4 candidates, and up to three binders
ORDER_BINDERS = (
    ((("X", FLAT1),), 3),
    ((("X", FLAT2),), 3),
    ((("X", FLAT1), ("Y", FLAT2)), 2),
    ((("X", FLAT1), ("Y", FLAT1), ("Z", FLAT1)), 3),
)
NESTED1 = RelType((FLAT1,))


def _ordering_cases():
    """``(solve node, database)``: seeded solves over flat binders with random
    flat bodies, then solves with a nested binder X and up to two flat ones,
    whose equation relates the members of X's sets to them and to P."""
    rng = random.Random(9800)
    for binders, max_atoms in ORDER_BINDERS:
        for _ in range(6):
            atoms = ("a", "b", "c")[: rng.randint(1, max_atoms)]
            node, free = _flat_solve(rng, binders, set())
            rels = {nm: random_flat_rel(rng, k, atoms, 0.5) for nm, k in free.items()}
            yield node, Database(atoms, rels)
    for names in (("X",), ("X", "Y"), ("X", "Y", "Z")):
        for _ in range(4):
            binders = (("X", NESTED1),) + tuple((nm, FLAT1) for nm in names[1:])
            lhs = Project((2,), Unnest(1, Name("X")))
            for nm in names[1:]:
                lhs = rng.choice((Union, Difference))(lhs, Name(nm))
            db = Database(("a", "b"), {"P": random_flat_rel(rng, 1, ("a", "b"), 0.5)})
            yield Solve(binders, lhs, Name("P")), db


def _assert_sorts_as_fresh(v, tags):
    """``v``, a solution set not yet sorted, sorts as the same rows rebuilt
    through ``Rel`` do: its sorted rows, key, hash and size, and the order
    caches of its flat relations, are those of the fresh relation."""
    assert isinstance(v, SolutionSet)
    cands = v.counters()
    assert list(cands) == sorted(set(cands)) and len(v.rows) == len(cands)
    decoded = [x for row in v.rows for x in row]
    assert all(x._sorted is None and x._key is None for x in decoded)
    f = from_plain(to_plain(v), v.rtype)
    assert v.sorted_rows() == f.sorted_rows()
    assert value_sort_key(v) == value_sort_key(f)
    assert (hash(v), value_size(v)) == (hash(f), value_size(f))
    for x in decoded:
        fx = from_plain(to_plain(x), x.rtype)
        assert (x._hash, value_size(x)) == (hash(fx), value_size(fx))
        if x.rtype.is_flat:
            assert (x._sorted, x._key) == (fx.sorted_rows(), value_sort_key(fx))
    _shape_tags(cands, v._space, tags)
    if v.in_order()[1] != list(cands):  # canonical order is not counter order
        tags.add("order_differs")


def _shape_tags(cands, space, tags) -> None:
    """Tag what the counter values ``cands`` over ``space`` cover."""
    tags.add("empty" if not cands else "solutions")
    if len({c >> 2 for c in cands}) > 1:
        tags.add("several_blocks")
    if any(len(universe) > 8 for _, universe, *_ in space.binders):
        tags.add("two_chunks")
    if len(space.binders) == 3:
        tags.add("three_binders")
    if any(not t.is_flat for t, *_ in space.binders):
        tags.add("nested")


# the default block size, a 2^14 block (the size of the sliced walk before
# blocks grew to 2^16) and 4-candidate blocks that split each solve
@pytest.mark.parametrize("block_bits", [bitslice.BLOCK_BITS, 14, 2])
def test_solution_sets_sort_as_fresh_relations(representation, block_bits, monkeypatch):
    # the set a solve returns, the same set under a solution cap and a space
    # cap that it just fits, and the set of solve_nonempty's first solution
    monkeypatch.setattr(bitslice, "BLOCK_BITS", block_bits)
    tags: set = set()
    for node, db in _ordering_cases():
        value, metrics = evaluate(node, db)
        found = metrics.solves[0].solutions_found
        values = [value]
        for budget in (
            EvalBudget(max_solutions=max(1, found)),
            EvalBudget(max_space_units=metrics.peak_space_units),
        ):
            values.append(evaluate(node, db, budget)[0])
        plan, ctx, env = evaluator._prepare(node, db, EvalBudget())
        first = evaluator._compile_solve(node, "", plan)(env, ctx, 0)
        early = SolutionSet(plan.types[""], *first)
        assert values == [value] * 3 and len(early.rows) == min(1, found)
        assert early.rows <= value.rows
        for v in values + [early]:
            _assert_sorts_as_fresh(v, tags)
    expected = {"empty", "solutions", "order_differs", "two_chunks", "three_binders", "nested"}
    if representation == "sliced" and block_bits == 2:
        expected.add("several_blocks")
    assert expected <= tags


@pytest.mark.parametrize("rows_first", [True, False], ids=["rows_first", "sort_first"])
def test_solution_sets_read_in_either_order_equal_fresh_relations(
    representation, rows_first, decoded
):
    # a solution set is counted and sized without decoding, and decodes each
    # solution once whether its rows are read before or after its first sort
    for node, db in _ordering_cases():
        ref = evaluate(node, db)[0]
        fresh = from_plain(to_plain(ref), ref.rtype)
        v = evaluate(node, db)[0]
        decoded.clear()
        counted = (len(v), bool(v), value_size(v))
        assert counted == (len(fresh), bool(fresh), value_size(fresh)) and sum(decoded) == 0
        if rows_first:
            assert v.rows == fresh.rows
        assert render_relation(v) == render_relation(fresh)
        assert (v.rows, hash(v), len(v), bool(v), value_size(v)) == (
            fresh.rows, hash(fresh), *counted
        )
        assert v == fresh and fresh == v
        assert sum(decoded) == len(v)


@pytest.mark.parametrize("then", ["rows", "sort"])
def test_solution_sets_render_from_counter_values(representation, then, decoded, monkeypatch):
    # a solution set not yet sorted renders with nothing decoded, as the same
    # rows rebuilt through Rel do; reading its rows or sorting it afterwards
    # gives those rows and that text again
    monkeypatch.setattr(bitslice, "BLOCK_BITS", 2)
    tags: set = set()
    for node, db in _ordering_cases():
        ref = evaluate(node, db)[0]
        fresh = from_plain(to_plain(ref), ref.rtype)
        v = evaluate(node, db)[0]
        _shape_tags(v.counters(), v._space, tags)
        decoded.clear()
        text = render_relation(v)
        assert sum(decoded) == 0 and v._sorted is None
        assert text == render_relation(fresh)
        if then == "rows":
            assert v.rows == fresh.rows and v._sorted is None
        else:
            assert v.sorted_rows() == fresh.sorted_rows()
        assert (render_relation(v), v.rows) == (text, fresh.rows) and v == fresh
    assert {"empty", "solutions", "several_blocks", "two_chunks", "three_binders", "nested"} <= tags


def test_solution_sets_render_alike_before_and_after_a_sort(representation, decoded):
    # a sort decodes each solution once, in one batch, and the set renders
    # from its counter values before and after it alike
    for node, db in _ordering_cases():
        ref = evaluate(node, db)[0]
        fresh = from_plain(to_plain(ref), ref.rtype)
        v = evaluate(node, db)[0]
        decoded.clear()
        text = render_relation(v)
        assert decoded == []
        assert v.sorted_rows() == fresh.sorted_rows() and decoded == [len(v)]
        assert render_relation(v) == text == render_relation(fresh)
        assert decoded == [len(v)]


def _no_listing(x, n):
    raise AssertionError("a solution was listed")


# a dense solve, every candidate a solution, and one whose 2^7 solutions,
# the subsets of R, are spread over its 2^10 candidates
COUNTED = (
    build_powerset_eq(),
    Solve((("X", FLAT1),), Difference(Name("X"), Name("R")), Difference(Domain(), Domain())),
)

# what a solution set gives when read, to compare before and after it is listed
READS = {
    "eq": lambda v, fresh: (v == fresh, fresh == v, v != fresh),
    "render": lambda v, fresh: render_relation(v),
    "rows": lambda v, fresh: v.rows,
    "sort": lambda v, fresh: (v.sorted_rows(), value_sort_key(v), hash(v)),
    "copy": lambda v, fresh: (type(copy.copy(v)), copy.copy(v), copy.deepcopy(v)),
    "pickle": lambda v, fresh: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("block_bits", [bitslice.BLOCK_BITS, 14, 2])
def test_counting_solutions_lists_none(block_bits, monkeypatch, capsys):
    # a solution set's length, truth and size, a solve under a solution cap
    # it just meets, solve_nonempty and the profile command read the hit
    # masks alone; every read gives the same before and after the counter
    # values are listed; a cap passed mid-block is refused as on relations
    monkeypatch.setattr(bitslice, "BLOCK_BITS", block_bits)
    atoms = tuple(f"a{i}" for i in range(10))
    db = db_of(atoms, R=rel(FLAT1, [(a,) for a in atoms[3:]]))
    argv = ["profile", "--eq", "powerset", "--n-range", "1..16" if block_bits > 2 else "1..12"]
    assert cli.main(argv) == 0
    table = capsys.readouterr().out
    for e in COUNTED:
        fresh = from_plain(to_plain(evaluate(e, db)[0]), RelType((FLAT1,)))
        found = len(fresh)
        for name, read in READS.items():
            listed = evaluate(e, db)[0]
            listed.counters()
            assert read(evaluate(e, db)[0], fresh) == read(listed, fresh) == read(fresh, fresh), name
        refusals = []
        for copied in _representations(monkeypatch, e, db):
            refusals.append(_outcome(copied, db, EvalBudget(max_solutions=found - 3)))
        assert refusals[0] == refusals[1] and refusals[0][1][2] == found - 2
        with monkeypatch.context() as m:
            m.setattr(model, "_bits", _no_listing)
            m.setattr(bitslice, "_bits", _no_listing)
            for budget in (EvalBudget(), EvalBudget(max_solutions=found)):
                v = evaluate(e, db, budget)[0]
                assert (len(v), bool(v), value_size(v)) == (found, True, value_size(fresh))
            assert solve_nonempty(e.binders, e.lhs, e.rhs, db)
            assert cli.main(argv) == 0 and capsys.readouterr().out == table


def _aligned_runs(counters, bits: int) -> list:
    """The counter values ``counters`` as ``(base, mask)`` runs, one per
    block of ``bits`` counter bits that holds any of them."""
    runs: dict = {}
    for c in counters:
        base = c >> bits << bits
        runs[base] = runs.get(base, 0) | 1 << c - base
    return sorted(runs.items())


@pytest.mark.parametrize("block_bits", [bitslice.BLOCK_BITS, 2])
def test_both_paths_keep_one_run_per_block(representation, block_bits, monkeypatch):
    # on relations as in bit-sliced blocks, a solve keeps its solutions as
    # one (base, mask) run per block of BLOCK_BITS counter bits: at the
    # default block size the 1,024 subsets of a 10-row R are one run, and so
    # are the 128 subsets of a 7-row R, spread over 1,024 candidates
    monkeypatch.setattr(bitslice, "BLOCK_BITS", block_bits)
    atoms = tuple(f"a{i}" for i in range(10))
    for rows in (atoms, atoms[3:]):
        db = db_of(atoms, R=rel(FLAT1, [(a,) for a in rows]))
        for e in COUNTED:
            v = evaluate(copy.copy(e), db)[0]  # compiled under this representation
            fresh = from_plain(oracle_solution_set(e.binders, e.lhs, e.rhs, db), v.rtype)
            counters = sorted(v._space.encode(fresh.rows))
            assert len(counters) == 1 << len(rows)
            assert list(v.counters()) == counters
            assert v._runs == _aligned_runs(counters, block_bits)
            if rows == atoms and block_bits > 10:
                assert v._runs == [(0, (1 << 1024) - 1)]


def test_wide_sparse_body_stays_small_in_memory():
    # X has 16 candidates on 4 atoms, but R x R x R x X x D is 8-ary, over a
    # universe of 4^8 = 65,536 rows.  A bit-sliced value holds only the rows
    # some candidate holds, and the join never builds the product, so the
    # evaluation stays under 2 MB.
    rng = random.Random(9900)
    atoms = ("a", "b", "c", "d")
    r = random_flat_rel(rng, 2, atoms, 0.5)
    db = db_of(atoms, R=r)
    wide = Product(Product(Name("R"), Name("R")), Product(Name("R"), Product(Name("X"), Domain())))
    lhs = Project((1, 7), Select(2, "=", 3, Select(4, "=", 5, wide)))
    node = Solve((("X", FLAT1),), lhs, Project((1, 2), Product(Name("R"), Name("X"))))
    types: dict = {}
    infer_type(node, db.schema, types)
    assert types["lhs.arg.arg.arg"].arity == 8
    assert _sliced(node, db) == {"": True}  # the body runs bit-sliced

    tracemalloc.start()
    try:
        value, metrics = evaluate(node, db)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    env = {"R": to_plain(r)}
    assert to_plain(value) == oracle_eval(node, env, atoms, db.schema)
    peak, peak_path, solves = oracle_peak(node, env, atoms, db.schema)
    assert metrics.peak_space_units == peak
    assert [(s.path, s.candidates_tested, s.solutions_found) for s in metrics.solves] == [
        ("", *solves[""])
    ]
    with pytest.raises(BudgetExceeded) as err:
        evaluate(node, db, EvalBudget(max_space_units=peak - 1))
    assert (err.value.which, err.value.path) == ("space", peak_path)
    assert peak_bytes < 2_000_000

    # one more column makes a universe of 4^9 rows, with no select to join
    # on: the body still runs bit-sliced, with the same results
    wider = Solve(node.binders, Project((1, 7), Product(wide, Domain())), node.rhs)
    assert _sliced(wider, db) == {"": True}
    value, metrics = evaluate(wider, db)
    assert to_plain(value) == oracle_eval(wider, env, atoms, db.schema)
    assert metrics.peak_space_units == oracle_peak(wider, env, atoms, db.schema)[0]


def _solve_nodes(e, path=""):
    """``(path, node)`` of every solve node in ``e``."""
    if isinstance(e, Solve):
        yield path, e
    for label in e.labels:
        yield from _solve_nodes(getattr(e, label), ast.child_path(path, label))


def test_random_expressions_with_solves_match_oracle_metering():
    # random_expr's solves sit anywhere in an expression, sometimes one node
    # at several places; a variable of a nested type keeps the relation kernels
    rng = random.Random(9800)
    var_types = (FLAT1, FLAT2, RelType((FLAT1,)))
    schema = {"R": FLAT2, "S": FLAT1}
    budget = EvalBudget(max_candidates=10**4)
    bodies = set()
    for _ in range(150):
        atoms = ("a", "b", "c")[: rng.randint(1, 3)]
        rels = {"R": random_flat_rel(rng, 2, atoms, 0.4), "S": random_flat_rel(rng, 1, atoms, 0.5)}
        db = Database(atoms, rels)
        e = random_expr(rng, schema, steps=6, solve_var_types=var_types)
        sliced = _sliced(e, db)
        if not sliced:
            continue
        bodies.update("sliced" if s else "relations" for s in sliced.values())
        env = {nm: to_plain(r) for nm, r in rels.items()}

        value, metrics = evaluate(e, db, budget)
        assert to_plain(value) == oracle_eval(e, env, atoms, schema)
        peak, peak_path, counts = oracle_peak(e, env, atoms, schema)
        assert {s.path: (s.candidates_tested, s.solutions_found) for s in metrics.solves} == counts
        assert metrics.peak_space_units == peak
        with pytest.raises(BudgetExceeded) as err:
            evaluate(e, db, EvalBudget(max_candidates=10**4, max_space_units=peak - 1))
        assert (err.value.which, err.value.path) == ("space", peak_path)
    assert bodies == {"sliced", "relations"}


# ---------------------------------------------------------------------------
# shared subexpressions: one node object at several paths runs once per
# evaluation, and is metered as if it ran at each path

SHARE_KINDS = ("depths", "join_operand", "under_solve", "bound_variable", "over_solve")
SHARE_SCHEMA = {"R": FLAT2, "S": FLAT1}


def _same_column_pair(rng, t):
    i = rng.randint(1, t.arity)
    same = [j for j in range(1, t.arity + 1) if t.components[j - 1] == t.components[i - 1]]
    return i, rng.choice(same)


def _shared_operand(rng, schema, need_atom_column, mention=None):
    """``(node, type, atom column)``: a random operator node over ``schema``
    with no solve, mentioning ``mention`` if given; the atom column, drawn
    at random, is None when it has none and none is needed."""
    while True:
        s = random_expr(rng, schema, steps=rng.randint(1, 4), allow_solve=False)
        if not s.labels or (mention and mention not in ast.free_names(s)):
            continue
        t = infer_type(s, schema)
        cols = [i for i, c in enumerate(t.components, start=1) if c.is_atom]
        if cols or not need_atom_column:
            return s, t, rng.choice(cols) if cols else None


def _shared_expr(rng, kind):
    """``(expression, shared node, schema)``: an expression in which the one
    node object ``shared`` occurs at two or three paths, placed as ``kind``
    says.  In the solve kinds a unary ``V`` is bound; in ``over_solve`` the
    shared node contains a solve, so it is evaluated at each path while its
    solve runs once."""
    schema = dict(SHARE_SCHEMA)
    if kind == "depths":
        s, t, _ = _shared_operand(rng, schema, False)
        i, j = _same_column_pair(rng, t)
        deeper = Select(i, rng.choice(("=", "!=")), j, s)
        if rng.random() < 0.5:
            return Union(s, Difference(deeper, s)), s, schema
        # an empty side over a product, evaluated first, so the shared node
        # first runs well below the peak
        cols = tuple(range(1, t.arity + 1))
        empty = Project(cols, Select(i, "!=", i, Product(_unshared(s), Name("R"))))
        return Union(empty, Difference(deeper, s)), s, schema
    if kind == "join_operand":
        s, t, _ = _shared_operand(rng, schema, False)
        k = t.arity
        i = rng.randint(1, k)
        join = Project(tuple(range(1, k + 1)), Select(i, "=", k + i, Product(s, s)))
        return Union(join, s), s, schema
    if kind == "over_solve":
        s, t, c = _shared_operand(rng, schema, True)
        p = Project((c,), s)
        inner = Solve((("W", FLAT1),), Union(Name("W"), p), p)
        shared = Unnest(1, inner)  # rows (W, w) for each solution W and w in it
        i, j = _same_column_pair(rng, RelType((FLAT1, ATOM)))
        return Union(Project((2,), shared), Project((2,), Select(i, "=", j, shared))), shared, schema
    inner_schema = {**schema, "V": FLAT1}
    mention = "V" if kind == "bound_variable" else None
    s, t, c = _shared_operand(rng, inner_schema if mention else schema, True, mention)
    i, j = _same_column_pair(rng, t)
    lhs = Union(Name("V"), Project((c,), s))
    rhs = Project((c,), Select(i, rng.choice(("=", "!=")), j, s))
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    return Solve((("V", FLAT1),), lhs, rhs), s, schema


def _unshared(e, solves=None):
    """A structurally equal copy of ``e`` that has no operator node at two
    paths.  Each solve node is copied once, so it stays one node: a reused
    solve charges only its solution set (see ``oracle_peak``)."""
    if solves is None:
        solves = {}
    if isinstance(e, Solve):
        copy = solves.get(id(e))
        if copy is None:
            copy = Solve(e.binders, _unshared(e.lhs, solves), _unshared(e.rhs, solves))
            solves[id(e)] = copy
        return copy
    fields = [getattr(e, f) for f in e.__slots__]
    return type(e)(*(_unshared(v, solves) if isinstance(v, ast.Expr) else v for v in fields))


def _refusal(e, db, cap):
    with pytest.raises(BudgetExceeded) as err:
        evaluate(e, db, EvalBudget(max_space_units=cap))
    return err.value.which, err.value.path, str(err.value)


@pytest.mark.parametrize("kind", SHARE_KINDS)
def test_shared_nodes_meter_as_if_evaluated_at_each_path(kind):
    # value, peak and counts as the oracles give them, and every refusal up
    # to 60 below the peak as on a copy that shares no operator node
    rng = random.Random(9900 + SHARE_KINDS.index(kind))
    tags: set = set()
    for _ in range(12):
        atoms = ("a", "b", "c")[: rng.randint(2, 3)]
        e, shared, schema = _shared_expr(rng, kind)
        rels = {nm: random_value(rng, t, atoms, max_rows=4) for nm, t in schema.items()}
        db = Database(atoms, rels)
        env = {nm: to_plain(r) for nm, r in rels.items()}
        cached = id(shared) in evaluator._prepare(e, db, None)[0].shared
        assert cached == (kind != "over_solve")
        tags.update("sliced" if s else "relations" for s in _sliced(e, db).values())

        value, metrics = evaluate(e, db)
        assert to_plain(value) == oracle_eval(e, env, atoms, schema)
        peak, peak_path, solves = oracle_peak(e, env, atoms, schema)
        assert {s.path: (s.candidates_tested, s.solutions_found) for s in metrics.solves} == solves
        assert metrics.peak_space_units == peak
        copy = _unshared(e)
        assert copy == e and evaluate(copy, db) == (value, metrics)
        if peak < 2:
            continue
        assert _refusal(e, db, peak - 1)[:2] == ("space", peak_path)
        for cap in range(max(1, peak - 60), peak):
            assert _refusal(e, db, cap) == _refusal(copy, db, cap)
        tags.add("has_solutions" if value.rows else "empty")
    if kind in ("under_solve", "bound_variable"):
        assert {"sliced", "relations"} <= tags


def _counting_kernels(monkeypatch) -> collections.Counter:
    """Count the runs of each operator node's kernel, by the node's id.
    Kernels are built when a node is compiled, so a test evaluates fresh
    nodes or fresh copies, which carry no program, under the count."""
    runs: collections.Counter = collections.Counter()
    build = evaluator._kernel

    def counted(e, path, plan):
        kernel, need = build(e, path, plan)

        def run(*operands, _kernel=kernel, _key=id(e)):
            runs[_key] += 1
            return _kernel(*operands)

        return run, need

    monkeypatch.setattr(evaluator, "_kernel", counted)
    return runs


def _tree_nodes(e) -> list:
    """Each node object of ``e``, once per path it occurs at."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(ast.children(node))
    return out


def test_stage_equation_runs_each_kernel_once_per_evaluation(monkeypatch):
    runs = _counting_kernels(monkeypatch)
    _, lhs, _ = build_run_equation()
    nodes = _tree_nodes(lhs)
    positions = collections.Counter(map(id, nodes))
    # 202 paths, and one node object per structurally distinct subtree
    distinct = {id(node): node for node in nodes}.values()
    assert len(nodes) == 202 and len(positions) == len(set(distinct)) == 100
    r = random_digraph(random.Random(9950), 5, 0.35)
    atoms = tuple(sorted({a for row in r.rows for a in row}))
    db = Database(atoms, {"R": r, "X": build_run(r)})
    shared = evaluator._prepare(lhs, db, None)[0].shared
    lhs = copy.copy(lhs)
    for n in (1, 2):
        evaluate(lhs, db)
        assert set(runs.values()) == {n}  # every kernel, at every path
    repeated = {k for k, m in positions.items() if m > 1 and k in runs}
    assert shared.keys() & runs.keys() and repeated - shared.keys()  # some run inside a shared node


def test_each_join_path_is_shaped_once_per_evaluation(monkeypatch):
    # tc_powerset's solve body compiles on both engines, bit-sliced for its
    # blocks and on relations for the replay of a stop candidate; the plan
    # shapes its join once for both, and every other path once too
    decided: collections.Counter = collections.Counter()
    joins = set()
    shape = evaluator._join_shape

    def counted(e, path, plan):
        decided[path] += 1
        record = shape(e, path, plan)
        if record is not None:
            joins.add(path)
        return record

    monkeypatch.setattr(evaluator, "_join_shape", counted)
    e = build_tc_powerset_expr()
    db = db_of(("a", "b", "c"), R=rel(FLAT2, [("a", "b"), ("b", "c")]))
    value, _ = evaluate(copy.copy(e), db)
    assert value.rows == {("a", "b"), ("b", "c"), ("a", "c")}
    assert _sliced(e, db) == {"right.arg.left.left": True, "right.arg.right.arg": True}
    assert "right.arg.left.left.lhs.left.left" in joins
    assert set(decided.values()) == {1}


def test_shared_node_on_the_bound_variable_runs_once_per_candidate(monkeypatch):
    _on_relations(monkeypatch)
    runs = _counting_kernels(monkeypatch)
    s = Union(Name("V"), Name("S"))  # on the bound variable: one value per candidate
    d = Difference(Domain(), Name("S"))  # free of it: one value per solve
    node = Solve((("V", FLAT1),), Difference(s, d), Union(Difference(d, s), s))
    db = db_of(("a", "b", "c"), S=rel(FLAT1, [("a",)]))
    value, metrics = evaluate(copy.copy(node), db)
    (stats,) = metrics.solves
    assert stats.candidates_tested == 8
    assert runs[id(s)] == 8 and runs[id(d)] == 1
    env = {"S": to_plain(db.relations["S"])}
    assert to_plain(value) == oracle_eval(node, env, db.atoms, db.schema)
    assert metrics.peak_space_units == oracle_peak(node, env, db.atoms, db.schema)[0]


def test_subexpression_repeated_in_text_runs_once(monkeypatch):
    runs = _counting_kernels(monkeypatch)
    e = parse_expr("union(project[1](R),project[1](R))")
    db = db_of(("a", "b", "c"), R=rel(FLAT2, [("a", "b"), ("b", "c")]))
    value, metrics = evaluate(copy.copy(e), db)
    assert runs[id(e.left)] == 1 and sum(runs.values()) == 2  # the projection, the union
    env = {"R": to_plain(db.relations["R"])}
    assert to_plain(value) == oracle_eval(e, env, db.atoms, db.schema)
    assert metrics.peak_space_units == oracle_peak(e, env, db.atoms, db.schema)[0]
    # a repeated solve is enumerated once, and its reuse charges its solutions
    e = parse_expr("union(solve{(X:(0,0)) | union(X,R) = R},solve{(X:(0,0)) | union(X,R) = R})")
    value, metrics = evaluate(e, db)
    assert [(s.path, s.candidates_tested) for s in metrics.solves] == [("left", 2**9)]
    assert to_plain(value) == oracle_eval(e, env, db.atoms, db.schema)


# ---------------------------------------------------------------------------
# a node evaluated again runs the program kept on it for its schema


def _kept_program_cases():
    """``(expression, db1, db2)``: ``tc_powerset``'s expression and every
    fourth of the random flat solve bodies, each on two databases of one
    schema."""
    e = build_tc_powerset_expr()
    yield (
        e,
        db_of(("a", "b", "c"), R=rel(FLAT2, [("a", "b"), ("b", "c")])),
        db_of(("x", "y", "z"), R=rel(FLAT2, [("x", "x"), ("z", "y"), ("y", "x")])),
    )
    rng = random.Random(9970)
    for e, _, db, schema in itertools.islice(_flat_cases(set()), 0, None, 4):
        atoms = ("a", "b", "c")[: rng.randint(1, 3)]
        rels = {nm: random_flat_rel(rng, t.arity, atoms, 0.5) for nm, t in schema.items()}
        yield e, db, Database(atoms, rels)


def test_a_node_evaluated_again_compiles_once_per_schema(monkeypatch):
    # on db1, db2 and db1 again, all of one schema, a node is typed and
    # planned once and each kernel built once; another schema compiles it
    # again, and one on which it is ill-typed raises and keeps the program
    plans, kernels = [], []
    init, kernel = evaluator.Plan.__init__, evaluator._kernel

    def planned(self, e, schema):
        plans.append(schema)
        init(self, e, schema)

    def built(e, path, plan):
        kernels.append(path)
        return kernel(e, path, plan)

    monkeypatch.setattr(evaluator.Plan, "__init__", planned)
    monkeypatch.setattr(evaluator, "_kernel", built)
    e, db1, db2 = next(_kept_program_cases())
    values = [evaluate(e, db)[0] for db in (db1, db2, db1)]
    assert values[0] == values[2] != values[1]
    assert len(plans) == 1 and len(kernels) == len(set(kernels)) > 0
    program = e._program
    wider = Database(db1.atoms, {**db1.relations, "S": rel(FLAT1, [])})
    assert evaluate(e, wider)[0] == values[0]
    assert len(plans) == 2 and e._program is not program
    program = e._program
    with pytest.raises(TypecheckError):
        evaluate(e, db_of(db1.atoms, R=rel(FLAT1, [])))
    assert e._program is program
    assert evaluate(e, wider)[0] == values[0] and len(plans) == 3


def test_kept_programs_meter_as_fresh_copies():
    # the program kept on a node, compiled on db1 and run on db2 and db1
    # again, gives what a fresh copy compiled for each run gives, under
    # every space cap from 60 below the peak to 60 above it: the value and
    # metrics, or the refusal's kind, path, text, counts and peak total
    outcomes = collections.Counter()
    for e, db1, db2 in _kept_program_cases():
        program = None
        for db in (db1, db2, db1):
            peak = evaluate(copy.copy(e), db)[1].peak_space_units
            for cap in range(max(1, peak - 60), peak + 61):
                budget = EvalBudget(max_space_units=cap)
                kept = _metered(e, db, budget)
                assert kept == _metered(copy.copy(e), db, budget)
                outcomes[len(kept)] += 1
            program = program or e._program
            assert e._program is program
    assert outcomes[5] and outcomes[2]  # refusals and values


def test_a_kept_program_is_freed_with_its_node():
    # no closure of a program refers to its node, so with the cycle
    # collector off, dropping the node frees the program
    db = db_of(("a", "b", "c"), R=rel(FLAT2, [("a", "b"), ("b", "c")]))
    builds = (build_tc_powerset_expr, lambda: parse_expr("project[1,4](select[2=3](times(R,R)))"))
    gc.collect()
    gc.disable()
    try:
        for build in builds:
            e = build()
            evaluate(e, db)
            run = weakref.ref(e._program.run)
            del e
            assert run() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# evaluation builds no reference cycles: the command line pauses the cycle
# collector while it evaluates, renders and verifies, and relies on this

ACYCLIC_DB = db_of(
    ("a", "b", "c"),
    R=rel(FLAT2, [("a", "b"), ("b", "c")]),
    S=rel(FLAT1, [("a",), ("c",)]),
)
def _shared_subtree_case() -> ast.Expr:
    """A solve whose body uses one node on its bound variable at two paths,
    one a join operand, under a node used at three paths outside it too."""
    keys = Project((2,), Name("R"))
    per_candidate = Difference(Name("X"), keys)
    body = Union(per_candidate, Project((1,), Select(1, "=", 2, Product(per_candidate, keys))))
    solutions = Solve((("X", FLAT1),), body, Difference(keys, keys))
    return Union(keys, Project((2,), Unnest(1, solutions)))


ACYCLIC_CASES = {
    "mask_solve": ("solve{(X:(0)) | union(X,S) = S}", EvalBudget(), None),
    "nested_binder_solve": (
        "solve{(X:((0))) | union(X,powerset(S)) = powerset(S)}", EvalBudget(), None
    ),
    "hash_join": ("project[1,4](select[2=3](times(R,R)))", EvalBudget(), None),
    "nest_unnest_powerset": (
        "times(unnest[3](nest[2](R)), unnest[1](powerset(S)))", EvalBudget(), None
    ),
    "tc_sparse_via_harness": (None, EvalBudget(max_space_units=2 * 10**9), None),
    "space_refusal": ("solve{(X:(0,0)) | X = X}", EvalBudget(max_space_units=20), "space"),
    "candidates_refusal": (
        "solve{(X:(0)) | union(X,S) = S}", EvalBudget(max_candidates=7), "candidates"
    ),
    "solutions_refusal": (
        "solve{(X:(0)) | union(X,S) = S}", EvalBudget(max_solutions=3), "solutions"
    ),
    "shared_subtree": (_shared_subtree_case(), EvalBudget(), None),
}


@pytest.mark.parametrize("case", sorted(ACYCLIC_CASES))
def test_evaluation_leaves_no_garbage_cycles(case):
    text, budget, refusal = ACYCLIC_CASES[case]
    gc.collect()
    gc.disable()
    try:
        try:
            if text is None:
                tc_sparse_via_harness(ACYCLIC_DB, budget)
            else:
                e = text if isinstance(text, ast.Expr) else parse_expr(text)
                evaluate(e, ACYCLIC_DB, budget)
        except BudgetExceeded as exc:
            assert exc.which == refusal
        else:
            assert refusal is None
        assert gc.collect() == 0
    finally:
        gc.enable()
