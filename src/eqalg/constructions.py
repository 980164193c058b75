"""Ready-made expressions and equations, each paired with an independent oracle.

Everything here is plain algebra built from the AST combinators.  Where an
equation is internally equated to the empty relation, the right-hand side is
spelled as a cheap same-typed difference (``R - R`` or ``D - D``) rather than
duplicating the left-hand side, which keeps candidate testing affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import ast
from .ast import Difference, Domain, Name, Nest, Product, Project, Select, Solve, Unnest
from .evaluator import EvalBudget, InternalCheckError, evaluate
from .model import Database, ModelError, Rel, RelType, flat_type

FLAT1 = flat_type(1)
FLAT2 = flat_type(2)
FLAT6 = flat_type(6)


def _union(*es: ast.Expr) -> ast.Expr:
    out = es[0]
    for e in es[1:]:
        out = ast.Union(out, e)
    return out


# ---------------------------------------------------------------------------
# binary-relation helpers (value level)


def _require_flat_binary(r: Rel, what: str) -> None:
    if r.rtype != FLAT2:
        raise ModelError(f"{what} needs a flat binary relation, got type {r.rtype}")


def compose(s: Rel, t: Rel) -> Rel:
    """Relational composition of two flat binary relations."""
    _require_flat_binary(s, "compose")
    _require_flat_binary(t, "compose")
    succ: dict = {}
    for c, d in t.rows:
        succ.setdefault(c, []).append(d)
    rows = {(a, d) for a, b in s.rows for d in succ.get(b, ())}
    return Rel(FLAT2, frozenset(rows))


def warshall_tc(r: Rel) -> Rel:
    """Transitive closure by node-wise saturation; the independent oracle.

    Deliberately shares no code with compose() or the expression pipelines it
    is used to check.
    """
    _require_flat_binary(r, "warshall_tc")
    nodes = sorted({a for row in r.rows for a in row})
    edge = {a: {b for x, b in r.rows if x == a} for a in nodes}
    for k in nodes:
        for i in nodes:
            if k in edge[i]:
                edge[i] |= edge[k]
    return Rel(FLAT2, frozenset((a, b) for a in nodes for b in edge[a]))


@dataclass(frozen=True)
class PowerTable:
    """Iterated compositions of a binary relation, one entry per exponent.

    ``power[i]`` is the i-fold composition, ``upto[i]`` the union of powers
    1..i, and ``fresh[i] = power[i] - upto[i-1]`` the pairs first reached at
    distance exactly i.  Entries run from 1 to ``len(base)+1``; ``upto`` at
    index ``len(base)`` equals the transitive closure.
    """

    base: Rel
    power: dict
    upto: dict
    fresh: dict


def build_power_table(r: Rel) -> PowerTable:
    _require_flat_binary(r, "build_power_table")
    power = {1: r}
    upto = {0: Rel(FLAT2, frozenset()), 1: r}
    fresh = {1: r}
    for i in range(2, len(r.rows) + 2):
        power[i] = compose(power[i - 1], r)
        upto[i] = Rel(FLAT2, upto[i - 1].rows | power[i].rows)
        fresh[i] = Rel(FLAT2, power[i].rows - upto[i - 1].rows)
    return PowerTable(base=r, power=power, upto=upto, fresh=fresh)


def build_run(r: Rel) -> Rel:
    """The 6-ary stage relation: union over i of upto[i] x upto[i+1] x fresh[i+1].

    Records every stage of the closure computation; it is empty exactly when
    the input is already transitively closed.
    """
    table = build_power_table(r)
    rows: set = set()
    for i in range(1, len(r.rows) + 1):
        fresh = table.fresh[i + 1].rows
        if not fresh:
            continue
        for u in table.upto[i].rows:
            for v in table.upto[i + 1].rows:
                for w in fresh:
                    rows.add(u + v + w)
    return Rel(FLAT6, frozenset(rows))


# ---------------------------------------------------------------------------
# the stage-relation equation: X equals build_run(R) is its only solution


def build_run_equation() -> tuple:
    """Equation over a 6-ary variable X whose unique solution, given R, is
    ``build_run(R)``.

    Reading of X's rows: columns 1-2 range over the already-reached set of a
    stage, columns 3-4 over the next reached set, and columns 5-6 are the key,
    a pair first reached at that next stage.  Per key (x,y), write sec(x,y)
    for the 4-ary section of X, hat(x,y) for its 1-2 projection and chk(x,y)
    for its 3-4 projection.  The conjuncts below say:

      1a. sec(x,y) is exactly hat(x,y) x chk(x,y);
      1b. hat(x,y) contains R;
      1c. chk(x,y) = hat(x,y) united with its composition with R;
      1d. (x,y) lies in chk(x,y) - hat(x,y);
      1e. every pair in chk(x,y) - hat(x,y) is itself a key, with the same hat;
      2.  every pair first reached at distance two is a key, with hat R;
      3.  a stage whose chk still grows under R has a successor stage;
      4.  a stage with hat different from R has a predecessor stage.

    Each conjunct is compiled to a violation witness (empty iff the conjunct
    holds); the union of witnesses, projected to one column, is equated with
    the empty unary relation.  Per-key sections are compared wholesale by
    nesting them into a column and using deep-(in)equality selections, which
    keeps the evaluation near-linear in the size of X.
    """
    X = Name("X")
    R = Name("R")

    keys = Project((5, 6), X)
    khat = Project((5, 6, 1, 2), X)  # (x,y,a,b): (a,b) in hat(x,y)
    kchk = Project((5, 6, 3, 4), X)  # (x,y,c,d): (c,d) in chk(x,y)
    # one row per key, carrying the whole section as a nested value
    KH = Project((3, 4, 5), Nest((1, 2), Project((1, 2, 5, 6), X)))
    KC = Project((3, 4, 5), Nest((1, 2), Project((3, 4, 5, 6), X)))

    # 1a: rebuild hat x chk per key and require every combination to be in X;
    # each nested column is dropped right after its unnest to keep rows small
    kh_kc = Product(KH, KC)
    j = Project((1, 2, 3, 6), Select(1, "=", 4, Select(2, "=", 5, kh_kc)))
    u1 = Project((1, 2, 4, 5, 6), Unnest(3, j))  # (x,y,chk,a,b)
    u2 = Project((1, 2, 4, 5, 6, 7), Unnest(3, u1))  # (x,y,a,b,c,d)
    combos = Project((3, 4, 5, 6, 1, 2), u2)
    w1a = Difference(combos, X)

    # 1b
    w1b = Difference(Product(keys, R), khat)

    # 1c: chk = hat U hat.R, keyed
    kcomp = Project((1, 2, 3, 6), Select(4, "=", 5, Product(khat, R)))
    rhs_k = ast.Union(khat, kcomp)
    w1c = ast.symmetric_difference(kchk, rhs_k)

    # 1d
    self_chk = Project((1, 2), Select(1, "=", 3, Select(2, "=", 4, kchk)))
    w1d1 = Difference(keys, self_chk)
    w1d2 = Project((1, 2), Select(1, "=", 3, Select(2, "=", 4, khat)))

    # 1e
    dk = Difference(kchk, khat)  # (x,y,u,v): (u,v) in chk(x,y) - hat(x,y)
    w1e1 = Difference(Project((3, 4), dk), keys)
    e1 = Project((1, 2, 3, 4, 7), Select(1, "=", 5, Select(2, "=", 6, Product(dk, KH))))
    e2 = Select(3, "=", 6, Select(4, "=", 7, Product(e1, KH)))
    w1e2 = Project((1, 2, 3, 4), Select(5, "!=", 8, e2))

    # 2: pairs first reached at distance two
    rsq = Project((1, 4), Select(2, "=", 3, Product(R, R)))
    fresh2 = Difference(rsq, R)
    w2a = Difference(fresh2, keys)
    keys_in2 = Difference(fresh2, w2a)
    rnest = Project((3,), Nest((1, 2), R))  # the singleton {R}, or empty when R is
    t2 = Project((1, 2, 5), Select(1, "=", 3, Select(2, "=", 4, Product(keys_in2, KH))))
    w2bc = Project((1, 2), Select(3, "!=", 4, Product(t2, rnest)))

    # 3: growth demands a successor stage
    kccomp = Project((1, 2, 3, 6), Select(4, "=", 5, Product(kchk, R)))
    grow = Project((1, 2), Difference(kccomp, kchk))
    has_succ = Project((1, 2), Select(3, "=", 6, Product(KC, KH)))
    w3 = Difference(grow, has_succ)

    # 4: hat != R demands a predecessor stage
    not_r = Project((1, 2), Select(3, "!=", 4, Product(KH, rnest)))
    has_pred = Project((1, 2), Select(3, "=", 6, kh_kc))
    w4 = Difference(not_r, has_pred)

    witnesses = (w1a, w1b, w1c, w1d1, w1d2, w1e1, w1e2, w2a, w2bc, w3, w4)
    lhs = _union(*(Project((1,), w) for w in witnesses))
    return (("X", FLAT6),), lhs, ast.empty_like(Domain())


def build_tc_sparse_expr() -> ast.Expr:
    """Transitive closure via the stage-relation equation."""
    return _tc_sparse_pipeline(Solve(*build_run_equation()))


def _tc_sparse_pipeline(solutions: ast.Expr) -> ast.Expr:
    """The closure read off the stage equation's solution set ``solutions``.

    Unnest the (unique) solution, project the middle two flat columns, and
    union with a fallback that yields R itself exactly when R is already
    transitively closed (the stage relation, and hence the pipeline's first
    branch, is empty in that case).
    """
    R = Name("R")
    rsq = Project((1, 4), Select(2, "=", 3, Product(R, R)))
    growth = Difference(rsq, R)  # empty iff R transitively closed
    blank = Project((3, 4), Product(growth, R))  # R if growth nonempty, else empty
    return ast.Union(Project((4, 5), Unnest(1, solutions)), Difference(R, blank))


def tc_sparse_via_harness(db: Database, budget: EvalBudget | None = None) -> Rel:
    """Candidate-checking harness for the sparse closure pipeline.

    Enumerating 6-ary candidates is infeasible even on two atoms, so instead
    of solving we construct the stage relation directly, check that it
    satisfies the equation, and run the downstream pipeline on the solution
    set it induces.
    """
    r = db.relations["R"]
    run_rel = build_run(r)
    if not check_run_equation(db, run_rel, budget):
        raise InternalCheckError("directly built stage relation does not satisfy its equation")
    sol = Rel(RelType((FLAT6,)), frozenset(((run_rel,),)))
    db2 = Database(db.domain, {"R": r, "SOL": sol})
    out, _ = evaluate(_tc_sparse_pipeline(Name("SOL")), db2, budget)
    return out


def check_run_equation(db: Database, candidate: Rel, budget: EvalBudget | None = None) -> bool:
    """Does ``candidate`` (bound to X) satisfy the stage-relation equation?"""
    _, lhs, rhs = build_run_equation()
    db2 = Database(db.domain, {"R": db.relations["R"], "X": candidate})
    va, _ = evaluate(lhs, db2, budget)
    vb, _ = evaluate(rhs, db2, budget)
    return va == vb


# ---------------------------------------------------------------------------
# transitive closure as the intersection of all closed supersets


def build_tc_powerset_expr() -> ast.Expr:
    """Transitive closure as the least transitively closed superset of R.

    The inner solve W collects every binary T with R inside it and T.T inside
    T.  These supersets are closed under intersection, so the least one is
    their intersection: the pairs of D x D that no member of W leaves out.
    A pair (x,y) is left out by some T when (T,x,y) is in W x D x D but not
    in unnest(W).  W is never empty, since D x D is one of its members.  Both
    occurrences are the same solve node, so W is enumerated once.
    """
    T = Name("T")
    R = Name("R")
    closed_violation = Difference(
        Project((1, 4), Select(2, "=", 3, Product(T, T))), T
    )
    etc = ast.Union(closed_violation, Difference(R, T))
    closed = Solve((("T", FLAT2),), etc, Difference(R, R))
    dd = Product(Domain(), Domain())
    left_out = Project((2, 3), Difference(Product(closed, dd), Unnest(1, closed)))
    return Difference(dd, left_out)


# ---------------------------------------------------------------------------
# parity, singleton, subsets, nesting


def build_parity_eq() -> tuple:
    """Equation with a solution exactly when the domain has even cardinality.

    Solutions are the binary X that are one-to-one with first and second
    projections disjoint and jointly covering the domain, i.e. perfect
    matchings between two halves of the domain.
    """
    X = Name("X")
    xx = Product(X, X)
    p1 = Project((1,), X)
    p2 = Project((2,), X)
    lhs = _union(
        Project((1,), Select(2, "!=", 4, Select(1, "=", 3, xx))),
        Project((2,), Select(2, "=", 4, Select(1, "!=", 3, xx))),
        Difference(p1, Difference(p1, p2)),
        Difference(Domain(), ast.Union(p1, p2)),
        Difference(ast.Union(p1, p2), Domain()),
    )
    return (("X", FLAT2),), lhs, ast.empty_like(Domain())


def build_singleton_eq() -> tuple:
    """Equation whose solutions are exactly the singleton subsets of the domain.

    Violations: two distinct members witness more than one element; an empty X
    is witnessed through the nonemptiness rewrite D - project[1](D x X).
    """
    X = Name("X")
    lhs = ast.Union(
        Project((1,), Select(1, "!=", 2, Product(X, X))),
        Difference(Domain(), Project((1,), Product(Domain(), X))),
    )
    return (("X", FLAT1),), lhs, ast.empty_like(Domain())


def build_powerset_eq(var_type: RelType = FLAT1) -> ast.Expr:
    """All subsets of R, as the solutions of X union R = R."""
    X = Name("X")
    return Solve((("X", var_type),), ast.Union(X, Name("R")), Name("R"))


def build_powerset_of_powerset_eq(var_type: RelType = FLAT1) -> ast.Expr:
    """All subsets of the subset collection of R, by one solve inside another."""
    inner = build_powerset_eq(var_type)
    y_type = RelType((var_type,))  # same type as the inner solution set
    Y = Name("Y")
    return Solve((("Y", y_type),), ast.Union(Y, inner), inner)


def build_nest_sparse_expr() -> ast.Expr:
    """Nesting of a binary R on its second column, with no nest over R itself.

    Solutions of the inner equation are the pairs (X,Y) with X a singleton
    {x} drawn from the first column of R and Y the set of successors of x
    (plus the harmless all-empty pair, which the unnest drops).  Unnesting X
    and joining back to R rebuilds exactly the nested form of R.
    """
    X = Name("X")
    Y = Name("Y")
    R = Name("R")
    e = _union(
        Project((1,), Select(1, "!=", 2, Product(X, X))),
        Difference(X, Project((1,), R)),
        ast.symmetric_difference(Y, Project((3,), Select(1, "=", 2, Product(X, R)))),
    )
    sol = Solve((("X", FLAT1), ("Y", FLAT1)), e, ast.empty_like(Domain()))
    triples = Unnest(1, sol)  # (X, Y, x)
    joined = Select(3, "=", 4, Product(triples, R))  # (X, Y, x, x1, x2) with x1 = x
    return Project((4, 5, 2), joined)


# ---------------------------------------------------------------------------
# registry for the CLI and profiler

def _oracle_parity(db: Database) -> Rel:
    import itertools

    atoms = db.atoms
    n = len(atoms)
    rows = set()
    if n % 2 == 0:
        half = n // 2
        for firsts in itertools.combinations(atoms, half):
            rest = tuple(a for a in atoms if a not in firsts)
            for image in itertools.permutations(rest):
                x = Rel(FLAT2, frozenset(zip(firsts, image)))
                rows.add((x,))
    return Rel(RelType((FLAT2,)), frozenset(rows))


def _oracle_singleton(db: Database) -> Rel:
    return Rel(
        RelType((FLAT1,)),
        frozenset(((Rel(FLAT1, frozenset(((a,),))),) for a in db.atoms)),
    )


def _oracle_powerset(db: Database) -> Rel:
    import itertools

    r = db.relations["R"]
    rows = []
    base = sorted(r.rows)
    for k in range(len(base) + 1):
        for combo in itertools.combinations(base, k):
            rows.append((Rel(r.rtype, frozenset(combo)),))
    return Rel(RelType((r.rtype,)), frozenset(rows))


def _oracle_tc(db: Database) -> Rel:
    return warshall_tc(db.relations["R"])


def _oracle_nest(db: Database) -> Rel:
    """Each row of the binary R with the set of its first column's successors."""
    r = db.relations["R"]
    succ: dict = {}
    for x, y in r.rows:
        succ.setdefault(x, set()).add((y,))
    groups = {x: Rel(FLAT1, frozenset(ys)) for x, ys in succ.items()}
    rows = frozenset((x, y, groups[x]) for x, y in r.rows)
    return Rel(RelType((*FLAT2.components, FLAT1)), rows)


@dataclass(frozen=True)
class Construction:
    name: str
    schema: dict
    oracle: Callable[[Database], Rel]
    expression: ast.Expr
    harness: Callable | None = None


def registry() -> dict[str, Construction]:
    return {
        "parity": Construction("parity", {}, _oracle_parity, Solve(*build_parity_eq())),
        "singleton": Construction(
            "singleton", {}, _oracle_singleton, Solve(*build_singleton_eq())
        ),
        "powerset": Construction("powerset", {"R": FLAT1}, _oracle_powerset, build_powerset_eq()),
        "tc-powerset": Construction(
            "tc-powerset", {"R": FLAT2}, _oracle_tc, build_tc_powerset_expr()
        ),
        "tc-sparse": Construction(
            "tc-sparse",
            {"R": FLAT2},
            _oracle_tc,
            build_tc_sparse_expr(),
            harness=tc_sparse_via_harness,
        ),
        "nest-sparse": Construction(
            "nest-sparse", {"R": FLAT2}, _oracle_nest, build_nest_sparse_expr()
        ),
    }
