"""Expression evaluation: compositional, with budgets and space metering.

Each evaluation makes one ``Plan`` of its expression, read by both engines,
the relation kernels and the bit-sliced blocks of ``bitslice``: each node
path's type, from ``infer_type``, the one front-end check; the shared nodes;
and per path, once compiled, its row width, join and solve records.  Each
operator is one kernel, a function from its operand values to its result,
built once per node from the plan (see ``_kernel``).  The compiler
(``_compile``) turns an expression into closures over relations, and one
metering wrapper per operand arity (``_metered``) runs every operator node
the same way: it evaluates the operands, charges the result's size and then
releases the operands.  Product, unnest and powerset have an exact size
computed from their operands, charged before the kernel runs, so an over-cap
one is refused before any row is built; the other operators charge the
result they built.  A solve node tests candidate assignments in the order of
a binary counter over the canonically ordered row universe, last variable
fastest, as if one at a time with one candidate live, and keeps its
solutions as hit masks over runs of counter values: the solution set lists
and decodes them only when they are read (``model.SolutionSet``).
``peak_space_units`` tracks the maximum over time of the total size of live
intermediate results, where the size of a value is its recursive
atom-occurrence count plus tuple count; the input database itself is ambient
and not counted.

The plan decides four shortcuts over literal re-evaluation, none observable
in results or metrics.  A shared node, that is an operator node object met
at two or more places with no solve inside it, or any solve node, is
computed once for the values its free names hold: one cache per evaluation,
keyed on the node and the identities of those values, keeps its value and
its rise, the most its evaluation raised the live total above where it began
(see ``_shared``).  A reuse raises the peak to the live total plus that rise
and charges the value, as evaluating it again would, and one whose rise
would pass the space cap evaluates it again, so the refusal comes from the
code that defines it; a reused solve charges only its solution set, and
candidates_tested counts real enumerations.  An equation side that mentions
no bound variable is evaluated once per solve, not once per candidate.  A
chain of selections on a product whose innermost test equates a column of
the left operand with one of the right, optionally under a projection, runs
as a hash join that never builds the product or the selections.  And a solve
whose binders and every node of both sides have flat types evaluates its
body bit-sliced, once per block of candidates, not once per candidate (see
``bitslice``).  The join charges every node at its exact size, at its own
path, in the order literal evaluation would.  Both engines walk a solve's
candidates in the same blocks and stop at the same candidate: the first
refused one, or the solution past the solve's quota (its solution cap, or
0 for ``solve_nonempty``).  A bit-sliced block computes each candidate's
live total at every charge that can be its highest from per-candidate row
counts, and decodes only its stop candidate, which it tests on the relation
kernels as the other engine tests every candidate, so ``peak_space_units``
and every budget refusal, down to its message, stay the same.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from . import ast, bitslice
from .model import (
    ATOM,
    SATURATED,
    Candidates,
    Database,
    ModelError,
    Rel,
    RelType,
    SolutionSet,
    row_picker,
    tuple_universe,
    universe_size,
    value_size,
)
from .typecheck import infer_type


class EvalError(Exception):
    """Base class for evaluation failures."""


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
            cap = getattr(self, name)
            if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
                raise ModelError(f"{name} must be a positive integer, not {cap!r}")


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


def _product_size(na: int, sa: int, nb: int, sb: int) -> int:
    """Size of the product of relations with ``na``/``nb`` rows of total size
    ``sa``/``sb``: each row pair carries both rows' units, less one tuple."""
    return na * sb + nb * sa - na * nb


def _kernel(e: ast.Expr, path: str, plan: Plan):
    """``(kernel, need)`` for the operator node ``e`` at ``path``.

    ``kernel`` maps the operand values to the result.  ``need`` is None, or
    maps the operands to the exact size of the result, computed before
    anything is built.  The result type and the row widths come from the
    plan, typed after every index and column type was checked, so neither
    function validates or derives anything per call.
    """
    # constants are defaults, not closure cells, as in _metered
    rt = plan.types[path]
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

        # the operand has a relation-valued column, so its width sizes a row
        def need(a, i=e.index - 1, row_size=plan.width(ast.child_path(path, "arg"))):
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
        "cache",
    )

    def __init__(self, db: Database, budget: EvalBudget) -> None:
        self.atoms = db.atoms
        self.live = 0
        self.peak = 0
        self.max_candidates = budget.max_candidates
        self.max_space = budget.max_space_units
        self.max_solutions = budget.max_solutions
        self.solve_stats: dict[str, SolveStats] = {}
        self.cache: dict = {}  # shared node id -> (input values, value, rise)

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


def _space_count(bits: int) -> str:
    """``_count(2 ** bits)`` without building the power; a saturated
    ``bits`` is given as a lower bound."""
    if bits < 64:
        return str(1 << bits)
    return f"~2^{bits}" if bits < SATURATED else f">= 2^{bits}"


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


# ---------------------------------------------------------------------------
# the plan: what an evaluation decides about its expression, once

_NODES = ast.Expr.__subclasses__()
_UNARY = frozenset(cls for cls in _NODES if cls.labels == ("arg",))
_BINARY = frozenset(cls for cls in _NODES if cls.labels == ("left", "right"))


class Plan:
    """What both engines read about one evaluation's expression.

    ``types`` maps each node path to its type.  ``free`` maps the id of each
    distinct node to its free names, and ``shared`` the id of each shared
    node to the sorted names that key its cache entries (see ``_shared``).
    A path's ``width``, ``join`` and ``solve`` are decided when an engine
    compiles it, so a path never compiled costs nothing, and ``joins`` keeps
    each join for the other engine.  All are keyed by path, since one node
    can have other types under other binders.
    """

    __slots__ = ("types", "free", "shared", "joins")

    def __init__(self, e: ast.Expr, schema: dict) -> None:
        # One walk with an explicit stack visits each distinct node once, its
        # children first, and adds no Python frame per level: a node is pushed
        # again above its children when first met and finished when met on
        # top of them; met again after that, it is only marked shared.
        self.types: dict = {}
        infer_type(e, schema, self.types)
        self.joins: dict = {}
        self.free = free = {}
        self.shared = shared = {}
        with_solve: set = set()  # ids of the nodes that are or contain a solve
        stack: list = [e]
        while stack:
            node = stack.pop()
            k = id(node)
            cls = type(node)
            if k not in free:  # opened: free names None until finished
                free[k] = None
                stack.append(node)
                if cls in _UNARY:
                    stack.append(node.arg)
                elif cls in _BINARY:
                    stack += (node.left, node.right)
                elif cls is ast.Solve:
                    stack += (node.lhs, node.rhs)
                continue
            if free[k] is not None:
                if k not in shared and k not in with_solve and node.labels:
                    shared[k] = tuple(sorted(free[k]))
                continue
            if cls in _UNARY:
                a = id(node.arg)
                free[k] = free[a]
                if a in with_solve:
                    with_solve.add(k)
            elif cls in _BINARY:
                a, b = id(node.left), id(node.right)
                free[k] = free[a] | free[b]
                if a in with_solve or b in with_solve:
                    with_solve.add(k)
            elif cls is ast.Solve:
                names = (free[id(node.lhs)] | free[id(node.rhs)]).difference(node.var_names)
                free[k] = names
                shared[k] = tuple(sorted(names))
                with_solve.add(k)
            else:
                free[k] = frozenset((node.name,)) if cls is ast.Name else frozenset()

    def width(self, path: str):
        """The units of a row at ``path``: an int for a flat type, else a
        function of the row, which sizes its relation-valued columns."""
        t = self.types[path]
        if t.is_flat:
            return t.flat_row_size
        pick = row_picker(tuple(i + 1 for i in t.nested_columns))
        base = t.row_base_size
        size = value_size
        return lambda r: base + sum(map(size, pick(r)))

    def join(self, e: ast.Expr, path: str):
        """``_join_shape`` of the node ``e`` at ``path``, decided once."""
        if path not in self.joins:
            self.joins[path] = _join_shape(e, path, self)
        return self.joins[path]

    def solve(self, e: ast.Solve, path: str):
        """``(l_inv, r_inv, reads)`` of the solve ``e`` at ``path``: whether
        each side mentions no bound variable, and the free names and ``D``
        that its blocks read, or None unless its binders and every node of
        both sides have flat types, so that its body runs bit-sliced."""
        free, bound = self.free, e.var_names
        below = path + "." if path else ""
        flat = all(t.is_flat for _, t in e.binders) and all(
            t.is_flat for p, t in self.types.items() if p.startswith(below) and p != path
        )
        reads = tuple(sorted(free[id(e)])) + ("D",) if flat else None
        return free[id(e.lhs)].isdisjoint(bound), free[id(e.rhs)].isdisjoint(bound), reads


def _join_shape(e: ast.Expr, path: str, plan: Plan):
    """The join record of ``[project] select ... select[i=j](times(a, b))``
    with column i in ``a`` and column j in ``b`` (or the reverse), or None:
    ``(indices, product, product_path, lk, rk, levels, width)``, the
    projection's indices or None, the product node and its path, the 0-based
    key columns of ``a`` and ``b``, per select level, innermost first, ``(i,
    equal, j, path)`` with the key level's test None, and ``Plan.width`` of
    the product rows, which every select level keeps.
    """
    indices = None
    if isinstance(e, ast.Project):
        indices = e.indices
        e, path = e.arg, ast.child_path(path, "arg")
    filters = []
    while isinstance(e, ast.Select):
        filters.append((e.i - 1, e.op == "=", e.j - 1, path))
        e, path = e.arg, ast.child_path(path, "arg")
    if not filters or not isinstance(e, ast.Product):
        return None
    i0, want_eq, j0, key_path = filters.pop()
    lk, rk = min(i0, j0), max(i0, j0)
    ka = plan.types[ast.child_path(path, "left")].arity
    if not (want_eq and lk < ka <= rk):
        return None
    # innermost level first; its test is the join key, so it filters nothing
    levels = [(None, True, None, key_path)] + filters[::-1]
    return indices, e, path, lk, rk - ka, levels, plan.width(path)


def _shared(e: ast.Expr, path: str, plan: Plan, names: tuple):
    """The occurrence at ``path`` of the shared node ``e``, whose cache
    entry is keyed on the values of ``names``.

    The entry ``ctx.cache[id(e)]`` holds the values the node last ran on,
    its value and its rise: the most by which ``ctx.live`` went above its
    value on entry while the node ran.  A hit, on the very same values, has
    the live total and the peak that running again would give: the peak is
    raised to the live total plus the rise, and the value is charged.  When
    that peak is over the cap, the occurrence runs instead, so the refusal
    comes from the code that defines it.  A solve keeps the contract of a
    reused solve: a hit charges its solution set at its own path, however
    much its enumeration rose.  A miss compiles the node at ``path``, once,
    and runs it, so an occurrence that always hits is never compiled.
    """
    real: list = []  # the node compiled at this path, once it first runs

    def run(
        env, ctx, _key=id(e), _names=names, _real=real, _args=(e, path, plan),
        _p=path, _solve=isinstance(e, ast.Solve), _s=value_size,
    ):  # fmt: skip
        entry = ctx.cache.get(_key)
        if entry is not None:
            inputs, res, rise = entry
            for nm, v in zip(_names, inputs):
                if env[nm] is not v:
                    break
            else:
                if _solve:
                    _grow(ctx, _s(res), _p)
                    return res
                live = ctx.live
                top = live + rise
                if top <= ctx.max_space:
                    if top > ctx.peak:
                        ctx.peak = top
                    ctx.live = live + _s(res)
                    return res
        if not _real:
            _real.append(_compile(*_args, cached=False))
        inputs = tuple(map(env.__getitem__, _names))
        if _solve:
            res = _real[0](env, ctx)
            ctx.cache[_key] = (inputs, res, None)
            return res
        # the peak is lowered to the entry total while the node runs, so the
        # peak it leaves is the entry total plus the rise
        live = ctx.live
        peak = ctx.peak
        ctx.peak = live
        res = _real[0](env, ctx)
        ctx.cache[_key] = (inputs, res, ctx.peak - live)
        if peak > ctx.peak:
            ctx.peak = peak
        return res

    return run


def _compile(e: ast.Expr, path: str, plan: Plan, cached: bool = True):
    """Compile an expression into ``fn(env, ctx) -> Rel``.

    ``plan`` is the ``Plan`` of the whole expression.  Contract: when ``fn``
    returns, exactly the size of its result has been added to ``ctx.live``;
    the caller releases it after consuming it.  An occurrence of a shared
    node goes through the evaluation's cache (see ``_shared``), unless
    ``cached`` is false, as when that occurrence compiles the node itself.
    A name and the domain share one closure, a solve node runs its solve
    loop with the solution cap as its quota (see ``_compile_solve``), and a
    select chain over a product becomes one hash join (see
    ``_compile_join``).  Every other operator is its kernel (``_kernel``)
    under the metering wrapper of its arity (``_metered``), over its
    children compiled at their paths.
    """
    if cached:
        names = plan.shared.get(id(e))
        if names is not None:
            return _shared(e, path, plan, names)
    if isinstance(e, (ast.Name, ast.Domain)):

        def run(env, ctx, _nm=getattr(e, "name", "D"), _p=path, _s=value_size):
            v = env[_nm]
            live = ctx.live + _s(v)
            ctx.live = live
            if live > ctx.peak:
                _new_peak(ctx, live, _p)
            return v

        return run

    if isinstance(e, ast.Solve):

        def run(env, ctx, _solve=_compile_solve(e, path, plan), _rt=plan.types[path]):
            return SolutionSet(_rt, *_run_solve(_solve, env, ctx, ctx.max_solutions))

        return run

    join = plan.join(e, path)
    if join is not None:
        return _compile_join(join, path, plan)
    kernel, need = _kernel(e, path, plan)
    fs = [_compile(getattr(e, label), ast.child_path(path, label), plan)
          for label in e.labels]  # fmt: skip
    return _metered(fs, kernel, need, path, e)


def _compile_join(join, top: str, plan: Plan):
    """The hash join of the node at ``top`` whose ``Plan.join`` record is
    ``join``.

    The right rows are indexed by their key column and each left row meets
    only its matches.  The outer selects filter the joined rows and a
    projection picks its columns from them; neither the product nor any
    selection becomes a relation.  Metering replays literal evaluation: the
    product, then each select level, is grown at its own path by its exact
    size and the level below it released, in the same order, so the peak and
    every budget refusal are unchanged.
    """
    indices, e, path, lk, rk, levels, width = join
    pick = None if indices is None else row_picker(indices)
    fa = _compile(e.left, ast.child_path(path, "left"), plan)
    fb = _compile(e.right, ast.child_path(path, "right"), plan)
    size = value_size
    grow = _grow
    flat = isinstance(width, int)  # else width sizes one joined row

    def run(env, ctx, _p=path, _rt=plan.types[top], _node=e):
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
            s = len(rows) * width if flat else sum(map(width, rows))
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


def _compile_solve(e: ast.Solve, path: str, plan: Plan):
    """The solve loop of the solve node ``e`` at ``path``, ``solve(env, ctx,
    quota) -> (runs, space, units)``.

    It returns the solutions as ``(base, mask)`` runs in candidate order,
    bit h of ``mask`` for the candidate with counter value ``base + h``, the
    ``model.Candidates`` that decodes them and their total size, read as the
    growth of ``ctx.live`` over the solve (the caller owns the solution set):
    the arguments of ``SolutionSet`` after its type.  Candidates follow a
    binary counter over the canonically ordered row universes, last variable
    fastest.  Both sides compile over relations and, when ``Plan.solve``
    says the body runs bit-sliced, a side that mentions a bound variable
    also over blocks (``bitslice.compile_sliced``); a side that mentions
    none runs once per solve.  Both engines walk the same blocks, of
    ``bitslice.BLOCK_BITS`` counter bits or of all of them if fewer, and a
    block with solutions adds one run.  ``test`` decodes one candidate,
    binds, charges and tests it on the relation sides and releases it, the
    row of a solution staying live.  Without a bit-sliced body it tests each
    candidate in turn.  With one, ``bitslice.Blocks.scan`` gives a block's
    hit mask of the solutions before its stop candidate, the units they
    keep live, the peak of the candidates before that one, and that
    candidate, which ``test`` then runs from that peak, so its refusal is
    raised by the code that defines it.  One stop rule serves both: the
    solve ends at the solution past ``quota``, which joins its block's run
    unless ``test`` refuses it as past the solution cap.  Every refusal
    names this solve and its counts so far.
    """
    l_inv, r_inv, reads = plan.solve(e, path)
    lp, rp = ast.child_path(path, "lhs"), ast.child_path(path, "rhs")
    fl = _compile(e.lhs, lp, plan)
    fr = _compile(e.rhs, rp, plan)
    sliced = None
    if reads is not None:
        sliced = (
            None if l_inv else bitslice.compile_sliced(e.lhs, lp, plan),
            None if r_inv else bitslice.compile_sliced(e.rhs, rp, plan),
            reads,
        )
    names = e.var_names
    types = tuple(t for _, t in e.binders)
    size = value_size

    def solve(env, ctx, quota):
        stats = ctx.solve_stats.setdefault(path, SolveStats(path))
        start = ctx.live
        const_l = const_r = None
        runs: list = []
        tested = found = 0

        def test(ms: int) -> bool:
            """Whether the candidate with counter value ``ms`` is a solution."""
            nonlocal tested, found
            (cand,) = space.decode((ms,))
            csize = 0
            for nm, v in zip(names, cand):
                env[nm] = v
                csize += size(v)
            _grow(ctx, csize, path)
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
                if found > ctx.max_solutions:
                    raise BudgetExceeded(
                        "solutions", path, f"more than {ctx.max_solutions} solutions"
                    )
                _grow(ctx, 1 + csize, path)  # solution row stays live
            ctx.live -= csize
            return hit

        try:
            # the space is 2^bits candidates, refused on bits so it is never built
            n = len(ctx.atoms)
            bits = min(sum(universe_size(t, n) for t in types), SATURATED)
            if bits >= ctx.max_candidates.bit_length():
                raise BudgetExceeded(
                    "candidates",
                    path,
                    f"candidate space {_space_count(bits)} exceeds cap {ctx.max_candidates}",
                )
            space = Candidates(types, [tuple_universe(t, ctx.atoms) for t in types])
            if l_inv:
                const_l = fl(env, ctx)
            if r_inv:
                const_r = fr(env, ctx)
            block = min(bitslice.BLOCK_BITS, bits)
            width = 1 << block
            if sliced is not None:
                blocks = bitslice.Blocks(sliced, env, (const_l, const_r), names, space, block)
            for k in range(1 << bits - block):
                base = k << block
                if sliced is None:
                    marks = bytearray(width + 7 >> 3)
                    for c in range(width):
                        if test(base + c):
                            marks[c >> 3] |= 1 << (c & 7)
                            if found > quota:
                                break
                    mask = int.from_bytes(marks, "little")
                else:
                    mask, gained, peak, stop = blocks.scan(k, ctx.live, ctx.max_space, quota - found)
                    ctx.live += gained
                    found += mask.bit_count()
                    # the stop candidate is charged from this peak, and
                    # refused where its own peak passes the cap
                    if peak > ctx.peak:
                        ctx.peak = peak
                    if stop is None:
                        tested += width
                    else:
                        tested += stop
                        if not test(base + stop) or found <= quota:
                            raise InternalCheckError(
                                f"candidate {base + stop} of solve {path or '<expr>'} is"
                                " neither refused nor the solution past the quota"
                            )
                        mask |= 1 << stop
                if mask:
                    runs.append((base, mask))
                if found > quota:
                    break
        except BudgetExceeded as exc:
            if exc.solve is None:
                exc.solve = (path, tested, found)
            raise
        finally:
            stats.candidates_tested += tested
            stats.solutions_found += found
            for nm in names:
                env.pop(nm, None)
            for const in (const_l, const_r):
                if const is not None:
                    ctx.live -= size(const)
        return runs, space, ctx.live - start

    return solve


def _run_solve(solve, env, ctx, quota: int):
    """Run the solve loop ``solve`` of ``_compile_solve`` up to ``quota``:
    the one call every solve goes through, which ``perfbench`` times."""
    return solve(env, ctx, quota)


# ---------------------------------------------------------------------------
# public entry points


def _prepare(e: ast.Expr, db: Database, budget: EvalBudget | None):
    """Type ``e`` on ``db``; return its ``Plan``, a fresh context and the
    environment of the database's relations and ``D``."""
    env = {**db.relations, "D": domain_relation(db.atoms)}  # no relation is named D
    return Plan(e, db.schema), _Ctx(db, budget or EvalBudget()), env


def evaluate(e: ast.Expr, db: Database, budget: EvalBudget | None = None):
    """Evaluate a well-typed expression on a database.

    Returns ``(value, metrics)``; the output type is checked against the
    inferred type as a runtime soundness invariant.
    """
    plan, ctx, env = _prepare(e, db, budget)
    res = _compile(e, "", plan)(env, ctx)
    if res.rtype != plan.types[""]:
        raise InternalCheckError(
            f"evaluator produced type {res.rtype}, typechecker said {plan.types['']}"
        )
    return res, ctx.metrics()


def solve(binders, lhs: ast.Expr, rhs: ast.Expr, db: Database, budget: EvalBudget | None = None):
    """Solution set of the equation ``lhs = rhs`` in the given variables."""
    return evaluate(ast.Solve(binders, lhs, rhs), db, budget)


def solve_nonempty(
    binders, lhs: ast.Expr, rhs: ast.Expr, db: Database, budget: EvalBudget | None = None
) -> bool:
    """True iff the equation has at least one solution (stops at the first)."""
    node = ast.Solve(binders, lhs, rhs)
    plan, ctx, env = _prepare(node, db, budget)
    return bool(_run_solve(_compile_solve(node, "", plan), env, ctx, 0)[0])
