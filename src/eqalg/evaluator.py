"""Expression evaluation: compositional, with budgets and space metering.

Each operator is one kernel, a function from its operand values to its
result, built once per node from the types the typechecker inferred (see
``_kernel``); the value-level ``op_*`` functions call the same kernels.  The
compiler (``_compile``) turns an expression into closures over relations,
and one metering wrapper per operand arity (``_metered``) runs every
operator node the same way: it evaluates the operands, charges the result's
size and then releases the operands.  Product, unnest and powerset have an
exact size computed from their operands, charged before the kernel runs, so
an over-cap one is refused before any row is built; the other operators
charge the result they built.  A solve node tests candidate assignments in
the order of a binary counter over the canonically ordered row universe,
last variable fastest, as if one at a time with one candidate live, and
materializes the solution set.  ``peak_space_units`` tracks the maximum over
time of the total size of live intermediate results, where the size of a
value is its recursive atom-occurrence count plus tuple count; the input
database itself is ambient and not counted.

Four shortcuts over literal re-evaluation, none observable in results or
metrics: an equation side that mentions no bound variable is evaluated once
per solve, not once per candidate; re-occurrences of one solve node whose
free inputs are the identical values reuse the previous solution set instead
of enumerating again (candidates_tested counts real enumerations); a chain
of selections on a product whose innermost test equates a column of the
left operand with one of the right, optionally under a projection, runs as a
hash join that never builds the product or the selections; and a solve
whose binders and every node of both sides have flat types evaluates its
body bit-sliced, once per block of candidates, not once per candidate (see
``bitslice``), and builds a ``Rel`` only for a solution row.  The join
charges every node at its exact size, at its own path, in the order literal
evaluation would.  A bit-sliced block computes each candidate's live total
at every such charge from per-candidate row counts, and replays its first
refused candidate alone on the relation kernels, so ``peak_space_units``
and every budget refusal, down to its message, stay the same.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass

from . import ast, bitslice
from .model import (
    ATOM,
    Database,
    ModelError,
    Rel,
    RelType,
    count_relations,
    row_picker,
    rows_for_mask,
    subset_tables,
    tuple_universe,
    value_size,
)
from .typecheck import infer_type


class EvalError(Exception):
    """Base class for evaluation failures."""


class BindingError(EvalError):
    def __init__(self, violations) -> None:
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class BudgetExceeded(EvalError):
    def __init__(self, which: str, path: str, detail: str) -> None:
        self.which = which  # "candidates" | "space" | "solutions"
        self.path = path
        # (path, candidates tested, solutions found) of the innermost solve
        # running when the budget was exceeded; set by that solve
        self.solve: tuple[str, int, int] | None = None
        super().__init__(f"{which} budget exceeded at {path or '<expr>'}: {detail}")

    def __str__(self) -> str:
        if self.solve is None:
            return self.args[0]
        path, tested, found = self.solve
        return (
            f"{self.args[0]} after {tested} candidates, {found} solutions"
            f" at solve {path or '<expr>'}"
        )


class InternalCheckError(EvalError):
    """An internal invariant failed; indicates a bug, not a user error."""


@dataclass(frozen=True)
class EvalBudget:
    """Caps for evaluation.  Defaults: 10^7 candidates per solve node,
    10^7 space units, 10^6 solutions per solve node."""

    max_candidates: int = 10_000_000
    max_space_units: int = 10_000_000
    max_solutions: int = 1_000_000

    def __post_init__(self):
        for name in ("max_candidates", "max_space_units", "max_solutions"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive")


@dataclass
class SolveStats:
    path: str
    candidates_tested: int = 0
    solutions_found: int = 0


@dataclass(frozen=True)
class EvalMetrics:
    peak_space_units: int
    solves: tuple[SolveStats, ...] = ()

    def format(self) -> str:
        lines = [f"peak_space_units {self.peak_space_units}"]
        for s in self.solves:
            lines.append(
                f"solve {s.path or '<expr>'}: candidates_tested {s.candidates_tested},"
                f" solutions_found {s.solutions_found}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# operator kernels


def _row_sizer(rtype: RelType):
    """Space units of one row of a type with relation-valued columns.

    The tuple and its atom columns are a constant known from the type, so
    only the relation-valued columns are sized, from their cached sizes.
    """
    pick = row_picker(tuple(i + 1 for i in rtype.nested_columns))
    base = rtype.row_base_size
    size = value_size
    return lambda r: base + sum(map(size, pick(r)))


def _product_size(na: int, sa: int, nb: int, sb: int) -> int:
    """Size of the product of relations with ``na``/``nb`` rows of total size
    ``sa``/``sb``: each row pair carries both rows' units, less one tuple."""
    return na * sb + nb * sa - na * nb


def _kernel(e: ast.Expr, path: str, types: dict):
    """``(kernel, need)`` for the operator node ``e`` at ``path``.

    ``kernel`` maps the operand values to the result.  ``need`` is None, or
    maps the operands to the exact size of the result, computed before
    anything is built.  The result type and the column positions come from
    ``types``, which the typechecker filled after checking every index and
    column type, so neither function validates or derives anything per call.
    """
    # constants are defaults, not closure cells, as in _metered
    rt = types[path]
    if isinstance(e, ast.Union):
        return (lambda a, b, rt=rt: Rel(rt, a.rows | b.rows)), None
    if isinstance(e, ast.Difference):
        return (lambda a, b, rt=rt: Rel(rt, a.rows - b.rows)), None
    if isinstance(e, ast.Product):
        return (
            lambda a, b, rt=rt: Rel(rt, frozenset({x + y for x in a.rows for y in b.rows})),
            lambda a, b: _product_size(len(a.rows), value_size(a), len(b.rows), value_size(b)),
        )
    if isinstance(e, ast.Project):

        def project(a, rt=rt, pick=row_picker(e.indices)):
            return Rel(rt, frozenset(map(pick, a.rows)))

        return project, None
    if isinstance(e, ast.Select):
        if e.op == "=":

            def select(a, rt=rt, i=e.i - 1, j=e.j - 1):
                return Rel(rt, frozenset({r for r in a.rows if r[i] == r[j]}))

        else:

            def select(a, rt=rt, i=e.i - 1, j=e.j - 1):
                return Rel(rt, frozenset({r for r in a.rows if r[i] != r[j]}))

        return select, None
    if isinstance(e, ast.Nest):
        # per row, the set of projected sub-rows agreeing on all other columns
        rest = tuple(c for c in range(1, rt.arity) if c not in e.indices)
        key = row_picker(rest) if rest else lambda r: ()

        def nest(a, rt=rt, pick=row_picker(e.indices), key=key):
            groups = defaultdict(set)
            for r in a.rows:
                groups[key(r)].add(pick(r))
            packed = {kv: Rel(rt.components[-1], frozenset(g)) for kv, g in groups.items()}
            return Rel(rt, frozenset([r + (packed[key(r)],) for r in a.rows]))

        return nest, None
    if isinstance(e, ast.Unnest):

        def unnest(a, rt=rt, i=e.index - 1):
            return Rel(rt, frozenset({r + y for r in a.rows for y in r[i].rows}))

        def need(a, i=e.index - 1, row_size=_row_sizer(types[ast.child_path(path, "arg")])):
            # each row paired with the rows of its nested set: a one-row product
            total = 0
            for r in a.rows:
                inner = r[i]
                total += _product_size(1, row_size(r), len(inner.rows), value_size(inner))
            return total

        return unnest, need
    if isinstance(e, ast.Powerset):

        def powerset(a, rt=rt, inner=rt.components[0]):
            subs = [frozenset()]
            for row in a.rows:
                single = frozenset((row,))
                subs += [s | single for s in subs]
            return Rel(rt, frozenset((Rel(inner, s),) for s in subs))

        # 2^k one-tuples, and each operand row is in half of the subsets
        return powerset, lambda a: (1 << len(a.rows)) + ((value_size(a) << len(a.rows)) >> 1)
    raise ModelError(f"cannot compile {type(e).__name__}")


_A = ast.Name("A")


def _apply(node: ast.Expr, a: Rel) -> Rel:
    """Apply a one-operator node over the name ``A`` to the value ``a`` with
    the kernel its compiled node runs; the typechecker checks the node."""
    types: dict = {}
    infer_type(node, {"A": a.rtype}, types)
    return _kernel(node, "", types)[0](a)


def op_project(a: Rel, indices: tuple[int, ...]) -> Rel:
    return _apply(ast.Project(tuple(indices), _A), a)


def op_nest(a: Rel, indices: tuple[int, ...]) -> Rel:
    """Append, per row, the set of projected sub-rows agreeing on all other columns."""
    return _apply(ast.Nest(tuple(indices), _A), a)


def op_unnest(a: Rel, index: int) -> Rel:
    return _apply(ast.Unnest(index, _A), a)


def domain_relation(atoms: tuple[str, ...]) -> Rel:
    return Rel(RelType((ATOM,)), frozenset((a,) for a in atoms))


# ---------------------------------------------------------------------------
# compilation to closures


class _Ctx:
    __slots__ = (
        "atoms",
        "live",
        "peak",
        "max_candidates",
        "max_space",
        "max_solutions",
        "solve_stats",
        "solve_cache",
    )

    def __init__(self, db: Database, budget: EvalBudget) -> None:
        self.atoms = db.atoms
        self.live = 0
        self.peak = 0
        self.max_candidates = budget.max_candidates
        self.max_space = budget.max_space_units
        self.max_solutions = budget.max_solutions
        self.solve_stats: dict[str, SolveStats] = {}
        self.solve_cache: dict = {}  # node id -> (input values, solution set)

    def stats_for(self, path: str) -> SolveStats:
        s = self.solve_stats.get(path)
        if s is None:
            s = self.solve_stats[path] = SolveStats(path)
        return s

    def metrics(self) -> EvalMetrics:
        return EvalMetrics(
            peak_space_units=self.peak,
            solves=tuple(self.solve_stats[p] for p in sorted(self.solve_stats)),
        )


def _grow(ctx, amount: int, path: str) -> None:
    """Add freshly materialized units to the live total; track peak and cap."""
    live = ctx.live + amount
    ctx.live = live
    if live > ctx.peak:
        _new_peak(ctx, live, path)


def _new_peak(ctx, live: int, path: str) -> None:
    """Record a new historical peak of ``live`` units, reached at ``path``.

    A cap violation always happens at a new historical peak, so the cap is
    checked here only.
    """
    ctx.peak = live
    if live > ctx.max_space:
        raise BudgetExceeded("space", path, f"live {live} units > cap {ctx.max_space}")


def _count(n: int) -> str:
    """A count for a message; one too long to print in full (Python refuses
    to print an int of over 4300 digits) is given as its power of two."""
    return str(n) if n.bit_length() <= 64 else f"~2^{n.bit_length() - 1}"


def _precharge(ctx, amount: int, path: str, node: ast.Expr, operands) -> None:
    """``_grow`` by the exact size of a result not yet built; a refusal names
    the operator and its operand row counts."""
    live = ctx.live + amount
    if live > ctx.max_space:
        what = type(node).__name__.lower()
        rows = " x ".join(str(len(x.rows)) for x in operands)
        cap = ctx.max_space
        detail = (
            f"{what} of {rows} rows needs >= {_count(amount)} units:"
            f" live {_count(live)} units > cap {cap}"
        )
        raise BudgetExceeded("space", path, detail)
    _grow(ctx, amount, path)


def _metered(fs, kernel, need, path: str, node: ast.Expr):
    """The compiled node of an operator with one or two operands.

    It evaluates the operands in order, charges the result at ``path`` and
    releases the operands.  With ``need`` the exact size is charged before
    the kernel runs, so an over-cap result is refused before any row is
    built; without it the built result is charged.  A refusal names
    ``node``, the operator.  The common case of ``_grow`` is inlined.
    """
    # operands and constants are defaults, not closure cells, so a compiled
    # node holds two objects for the cycle collector, not one per variable
    if len(fs) == 1:

        def run(env, ctx, _f=fs[0], _k=kernel, _need=need, _p=path, _node=node, _s=value_size):
            a = _f(env, ctx)
            if _need is None:
                res = _k(a)
                live = ctx.live + _s(res)
                if live > ctx.peak:
                    _new_peak(ctx, live, _p)
            else:
                _precharge(ctx, _need(a), _p, _node, (a,))
                res = _k(a)
                live = ctx.live
            ctx.live = live - _s(a)
            return res

        return run

    def run(
        env, ctx, _f1=fs[0], _f2=fs[1], _k=kernel, _need=need, _p=path, _node=node, _s=value_size
    ):  # fmt: skip
        a = _f1(env, ctx)
        b = _f2(env, ctx)
        if _need is None:
            res = _k(a, b)
            live = ctx.live + _s(res)
            if live > ctx.peak:
                _new_peak(ctx, live, _p)
        else:
            _precharge(ctx, _need(a, b), _p, _node, (a, b))
            res = _k(a, b)
            live = ctx.live
        ctx.live = live - _s(a) - _s(b)
        return res

    return run


def _compile(e: ast.Expr, path: str, types: dict, atoms: tuple[str, ...]):
    """Compile an expression into ``fn(env, ctx) -> Rel``.

    ``types`` maps every node path to its type, as filled in by
    ``infer_type``, and ``atoms`` is the domain.  Contract: when ``fn``
    returns, exactly the size of its result has been added to ``ctx.live``;
    the caller releases it after consuming it.  A name and the domain share
    one closure, a solve node has its own (its body may run bit-sliced, see
    ``_solve_parts``), and a select chain over a product becomes one hash
    join (see ``_compile_join``).  Every other operator is its kernel
    (``_kernel``) under the metering wrapper of its arity (``_metered``),
    over its children compiled at their paths.
    """
    if isinstance(e, (ast.Name, ast.Domain)):
        nm = e.name if isinstance(e, ast.Name) else "D"

        def run(env, ctx, _nm=nm, _p=path, _s=value_size):
            v = env[_nm]
            live = ctx.live + _s(v)
            ctx.live = live
            if live > ctx.peak:
                _new_peak(ctx, live, _p)
            return v

        return run

    if isinstance(e, ast.Solve):
        parts = _solve_parts(e, path, types, atoms)
        res_type = RelType(tuple(t for _, t in e.binders))
        fnames = tuple(sorted(ast.free_names(e)))
        key = id(e)

        def run(env, ctx, _parts=parts, _rt=res_type, _p=path, _fn=fnames, _key=key):
            # Re-occurrences of one solve node whose free inputs are the very
            # same values reuse the previous solution set instead of
            # re-enumerating; candidates_tested counts real enumerations.
            cached = ctx.solve_cache.get(_key)
            if cached is not None:
                sig, rel = cached
                if all(env[nm] is v for nm, v in zip(_fn, sig)):
                    _grow(ctx, value_size(rel), _p)
                    return rel
            rows = _run_solve(_parts, env, ctx, _p, early_exit=False)
            rel = Rel(_rt, rows)
            ctx.solve_cache[_key] = (tuple(env[nm] for nm in _fn), rel)
            return rel

        return run

    if isinstance(e, (ast.Project, ast.Select)):
        join = _compile_join(e, path, types, atoms)
        if join is not None:
            return join

    kernel, need = _kernel(e, path, types)
    fs = [_compile(getattr(e, label), ast.child_path(path, label), types, atoms)
          for label in ast.child_labels(e)]  # fmt: skip
    return _metered(fs, kernel, need, path, e)


def _compile_join(e: ast.Expr, path: str, types: dict, atoms: tuple[str, ...]):
    """The hash join for the shape ``ast.join_shape`` accepts; None for any
    other shape, which compiles operator by operator.

    The right rows are indexed by their key column and each left row meets
    only its matches.  The outer selects filter the joined rows and a
    projection picks its columns from them; neither the product nor any
    selection becomes a relation.  Metering replays literal evaluation: the
    product, then each select level, is grown at its own path by its exact
    size and the level below it released, in the same order, so the peak and
    every budget refusal are unchanged.
    """
    shape = ast.join_shape(e, path, types)
    if shape is None:
        return None
    top = path
    indices, e, path, lk, rk, levels = shape
    pick = None if indices is None else row_picker(indices)
    fa = _compile(e.left, ast.child_path(path, "left"), types, atoms)
    fb = _compile(e.right, ast.child_path(path, "right"), types, atoms)
    size = value_size
    grow = _grow
    width = types[path].flat_row_size  # units per joined row, None if nested
    row_size = None if width else _row_sizer(types[path])

    def run(env, ctx, _p=path, _rt=types[top], _node=e):
        a = fa(env, ctx)
        b = fb(env, ctx)
        sa = size(a)
        sb = size(b)
        live = _product_size(len(a.rows), sa, len(b.rows), sb)
        _precharge(ctx, live, _p, _node, (a, b))
        ctx.live -= sa + sb
        index: dict = {}
        for y in b.rows:
            k = y[rk]
            ys = index.get(k)
            if ys is None:
                index[k] = [y]
            else:
                ys.append(y)
        rows = [x + y for x in a.rows for y in index.get(x[lk], ())]
        for i, eq, j, level_path in levels:
            if i is not None:
                if eq:
                    rows = [r for r in rows if r[i] == r[j]]
                else:
                    rows = [r for r in rows if r[i] != r[j]]
            # product rows are distinct, so each level's rows are its result
            s = len(rows) * width if width else sum(map(row_size, rows))
            grow(ctx, s, level_path)
            ctx.live -= live
            live = s
        if pick is None:
            return Rel(_rt, frozenset(rows))
        res = Rel(_rt, frozenset(map(pick, rows)))
        grow(ctx, size(res), top)
        ctx.live -= live
        return res

    return run


def _sliceable(e: ast.Solve, path: str, types: dict) -> bool:
    """True when a solve's binders and every node of both sides have flat
    types, so its body can run bit-sliced."""
    sides = (ast.child_path(path, "lhs"), ast.child_path(path, "rhs"))
    inside = tuple(p + "." for p in sides)
    return all(t.is_flat for _, t in e.binders) and all(
        t.is_flat for p, t in types.items() if p in sides or p.startswith(inside)
    )


def _solve_parts(e: ast.Solve, path: str, types: dict, atoms: tuple[str, ...]):
    """The compiled sides of a solve node and what its candidate loop needs.

    Both sides compile over relations.  When ``_sliceable`` holds, the last
    part holds each side that mentions a bound variable compiled bit-sliced
    as well (``bitslice.compile_sliced``, None for the other side) and the
    free names its blocks read; the candidates then run a block at a time, and
    the relation sides run once for a side that mentions no bound variable
    and for the replay of a refused candidate.  Otherwise it is None.
    """
    lp, rp = ast.child_path(path, "lhs"), ast.child_path(path, "rhs")
    bound = set(e.var_names)
    l_inv = not (ast.free_names(e.lhs) & bound)
    r_inv = not (ast.free_names(e.rhs) & bound)
    fl = _compile(e.lhs, lp, types, atoms)
    fr = _compile(e.rhs, rp, types, atoms)
    sliced = None
    if _sliceable(e, path, types):
        sliced = (
            None if l_inv else bitslice.compile_sliced(e.lhs, lp, types),
            None if r_inv else bitslice.compile_sliced(e.rhs, rp, types),
            tuple(sorted(ast.free_names(e))) + ("D",),
        )
    var_types = tuple(t for _, t in e.binders)
    return e.var_names, var_types, fl, fr, l_inv, r_inv, sliced


def _run_solve(parts, env, ctx, path, early_exit):
    """Run a solve's candidates; return the frozenset of solution rows (or,
    with early_exit, an empty/singleton frozenset stopped at the first hit).

    On return, ctx.live has grown by exactly the total size of the returned
    rows (the caller owns the materialized solution set).  Candidates follow
    a binary counter over the canonically ordered row universes, last
    variable fastest, and a candidate's counter value decodes to its
    relations.  Without a bit-sliced body, each candidate in turn is bound,
    charged, tested on the relation sides and released, one live at a time.
    With one, each block's solutions, peak and first refused candidate come
    from ``bitslice.Blocks.scan``, and a refused candidate is replayed alone
    on the relation sides, with the live total and counts it would have
    had, so the refusal is raised by the code that defines it.
    """
    names, types, fl, fr, l_inv, r_inv, sliced = parts
    size = value_size
    grow = _grow
    n = len(ctx.atoms)
    total = 1
    for t in types:
        total *= count_relations(t, n)
    if total > ctx.max_candidates:
        raise BudgetExceeded(
            "candidates",
            path,
            f"candidate space {_count(total)} exceeds cap {ctx.max_candidates}",
        )
    stats = ctx.stats_for(path)
    universes = [tuple_universe(t, ctx.atoms) for t in types]
    decoders = []
    shift = total.bit_length() - 1
    for t, u in zip(types, universes):
        shift -= len(u)
        decoders.append((t, subset_tables(u), shift, (1 << len(u)) - 1))
    max_solutions = ctx.max_solutions
    from_tables = rows_for_mask

    def decode(ms):
        """The candidate with counter value ``ms`` as a row of relations."""
        return tuple(Rel(t, from_tables(tb, ms >> sh & m)) for t, tb, sh, m in decoders)

    const_l = fl(env, ctx) if l_inv else None
    const_r = fr(env, ctx) if r_inv else None
    sol_rows: list = []
    tested = 0
    found = 0

    def run(candidates) -> None:
        """Test ``candidates`` one at a time, up to the first hit with
        early_exit."""
        nonlocal tested, found
        for ms in candidates:
            cand = decode(ms)
            csize = 0
            for nm, v in zip(names, cand):
                env[nm] = v
                csize += size(v)
            grow(ctx, csize, path)
            tested += 1
            va = const_l if l_inv else fl(env, ctx)
            vb = const_r if r_inv else fr(env, ctx)
            hit = va == vb
            if not l_inv:
                ctx.live -= size(va)
            if not r_inv:
                ctx.live -= size(vb)
            if hit:
                found += 1
                if found > max_solutions:
                    raise BudgetExceeded(
                        "solutions", path, f"more than {max_solutions} solutions"
                    )
                sol_rows.append(cand)
                grow(ctx, 1 + csize, path)  # solution row stays live
                if early_exit:
                    ctx.live -= csize
                    return
            ctx.live -= csize

    try:
        if sliced is None:
            run(range(total))
        else:
            blocks = bitslice.Blocks(sliced, env, (const_l, const_r), names, types, universes)
            width = 1 << blocks.bits
            for k in range(total >> blocks.bits):
                live0 = ctx.live
                hits, gains, peak, refuse = blocks.scan(
                    k, live0, ctx.max_space, max_solutions - found, early_exit
                )
                base = k * width
                if refuse is not None:
                    i = bisect.bisect_left(hits, refuse)
                    ctx.live = live0 + sum(gains[:i])
                    tested += refuse
                    found += i
                    run((base + refuse,))
                    raise InternalCheckError(
                        f"candidate {base + refuse} of solve {path or '<expr>'} was not refused"
                        " on replay"
                    )
                if peak > ctx.peak:
                    ctx.peak = peak
                sol_rows += [decode(base + h) for h in hits]
                ctx.live = live0 + sum(gains)
                found += len(hits)
                if early_exit and hits:
                    tested += hits[0] + 1
                    break
                tested += width
    except BudgetExceeded as exc:
        if exc.solve is None:
            exc.solve = (path, tested, found)
        raise
    finally:
        stats.candidates_tested += tested
        stats.solutions_found += found
        for nm in names:
            env.pop(nm, None)
        if const_l is not None:
            ctx.live -= size(const_l)
        if const_r is not None:
            ctx.live -= size(const_r)
    return frozenset(sol_rows)


# ---------------------------------------------------------------------------
# public entry points


def _precheck(e: ast.Expr, db: Database) -> dict:
    """Check bindings and types; return the type of every node path."""
    violations = ast.check_bindings(e)
    if violations:
        raise BindingError(violations)
    types: dict = {}
    infer_type(e, db.schema, types)
    return types


def evaluate(e: ast.Expr, db: Database, budget: EvalBudget | None = None):
    """Evaluate a well-typed expression on a database.

    Returns ``(value, metrics)``; the output type is checked against the
    inferred type as a runtime soundness invariant.
    """
    types = _precheck(e, db)
    expected = types[""]
    ctx = _Ctx(db, budget or EvalBudget())
    env = {**db.relations, "D": domain_relation(db.atoms)}  # no relation is named D
    res = _compile(e, "", types, db.atoms)(env, ctx)
    if res.rtype != expected:
        raise InternalCheckError(
            f"evaluator produced type {res.rtype}, typechecker said {expected}"
        )
    return res, ctx.metrics()


def solve(binders, lhs: ast.Expr, rhs: ast.Expr, db: Database, budget: EvalBudget | None = None):
    """Solution set of the equation ``lhs = rhs`` in the given variables."""
    return evaluate(ast.Solve(tuple(binders), lhs, rhs), db, budget)


def solve_nonempty(
    binders, lhs: ast.Expr, rhs: ast.Expr, db: Database, budget: EvalBudget | None = None
) -> bool:
    """True iff the equation has at least one solution (stops at the first)."""
    node = ast.Solve(tuple(binders), lhs, rhs)
    types = _precheck(node, db)
    ctx = _Ctx(db, budget or EvalBudget())
    env = {**db.relations, "D": domain_relation(db.atoms)}
    rows = _run_solve(_solve_parts(node, "", types, db.atoms), env, ctx, "", early_exit=True)
    return bool(rows)
