"""Expression evaluation: compositional, with budgets and space metering.

Each operator is one kernel, a function from its operand values to its
result, built once per node from the types the typechecker inferred (see
``_kernel``); the value-level ``op_*`` functions call the same kernels.  One
compiler (``_compile``) serves two value representations, relations and the
masks of a flat solve body (below), and one metering wrapper per operand
arity (``_metered``) runs every operator node of either the same way: it
evaluates the operands, charges the result's size and then releases the
operands.  Product, unnest and powerset have an exact size computed from
their operands, charged before the kernel runs, so an over-cap one is refused
before any row is built; the other operators charge the result they built.
A solve node streams candidate assignments one at a time over the candidate
space (binary counter over the canonically ordered row universe, last
variable fastest), keeps one candidate live, and materializes the solution
set.  ``peak_space_units`` tracks the maximum over time of the total size of
live intermediate results, where the size of a value is its recursive
atom-occurrence count plus tuple count; the input database itself is ambient
and not counted.

Four shortcuts over literal re-evaluation, none observable in results or
metrics: an equation side that mentions no bound variable is evaluated once
per solve, not once per candidate; re-occurrences of one solve node whose
free inputs are the identical values reuse the previous solution set instead
of enumerating again (candidates_tested counts real enumerations); a chain
of selections on a product whose innermost test equates a column of the
left operand with one of the right, optionally under a projection, runs as a
hash join that never builds the product or the selections; and a solve
whose binders and every node of both sides have flat types evaluates its
sides on masks, Python ints with one bit per row of the type's universe
(see ``_mask_kernel``), so a candidate's counter value is its relation and
a ``Rel`` is built only for a solution row.  The join and the mask kernels
still charge every node at its exact size, at its own path, in the order
literal evaluation would, so ``peak_space_units`` and every budget refusal,
down to its message, stay the same.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import add, eq, itemgetter, ne, or_

from . import ast
from .model import (
    ATOM,
    Database,
    ModelError,
    Rel,
    RelType,
    count_relations,
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


def _row_picker(indices: tuple[int, ...]):
    """The projection kernel: a function from a row to the tuple of its
    columns at the 1-based ``indices``, repeats allowed."""
    idx = tuple(i - 1 for i in indices)
    # itemgetter returns a bare value for one index, a tuple for a slice
    return itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))


def _row_sizer(rtype: RelType):
    """Space units of one row of a type with relation-valued columns.

    The tuple and its atom columns are a constant known from the type, so
    only the relation-valued columns are sized, from their cached sizes.
    """
    pick = _row_picker(tuple(i + 1 for i in rtype.nested_columns))
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

        def project(a, rt=rt, pick=_row_picker(e.indices)):
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
        key = _row_picker(rest) if rest else lambda r: ()

        def nest(a, rt=rt, pick=_row_picker(e.indices), key=key):
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
# mask kernels for flat solve bodies
#
# A flat relation of arity k over n atoms is an int whose bit r stands for
# row r of ``tuple_universe``: the rows in lexicographic order, so the row
# of atoms numbered c_1..c_k (in sorted order) is bit c_1 n^(k-1) + ... + c_k.
# A product's universe is its operands' universes concatenated, the row
# x + y at x |U_b| + y, so a solve candidate's counter value is its mask.

# A mask costs one bit per row of its universe however few rows it holds, so
# a flat body with a node whose universe is larger keeps the relation kernels.
_MASK_BITS = 1 << 16


class _ByteImages(dict):
    """Per byte of an operand mask, the OR of the images of the rows its set
    bits stand for, keyed by byte position * 256 + byte value.  Entries are
    filled on first use, so memory follows the bytes actually seen."""

    __slots__ = ("image",)

    def __init__(self, image) -> None:
        super().__init__()
        self.image = image  # row index -> mask

    def __missing__(self, key: int) -> int:
        row = (key >> 8) << 3
        out = 0
        for t in range(8):
            if key >> t & 1:
                out |= self.image(row + t)
        self[key] = out
        return out


def _image_kernel(image, bits: int):
    """The kernel mapping a mask over a ``bits``-row universe to the OR of
    ``image(r)`` over its set bits r, one table lookup per nonzero byte."""
    nbytes = (bits + 7) >> 3
    offsets = range(0, nbytes << 8, 256)
    get = _ByteImages(image).__getitem__

    def apply(m: int) -> int:
        data = m.to_bytes(nbytes, "little")
        keys = map(add, itertools.compress(offsets, data), itertools.compress(data, data))
        return reduce(or_, map(get, keys), 0)

    return apply


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _select_mask(n: int, k: int, i: int, j: int, equal: bool) -> int:
    """The rows of the k-ary universe whose 0-based columns i and j are equal
    (``equal``) or unequal.  The two columns are compared row by row in C
    and the outcomes read as a binary numeral, lowest row last."""

    def column(c):  # the atom number in column c of every row, in row order
        run = n ** (k - 1 - c)
        block = list(itertools.chain.from_iterable(itertools.repeat(v, run) for v in range(n)))
        return block * n**c

    test = map(eq if equal else ne, column(i), column(j))
    return int(bytes(test).translate(_BIT_CHARS)[::-1], 2)


def _mask_of(v: Rel, pos: dict) -> int:
    """The mask of a flat relation; ``pos`` numbers the atoms in sorted
    order.  Bits are set in a byte buffer, as OR-ing them one by one into a
    growing int takes time quadratic in the universe."""
    n = len(pos)
    buf = bytearray((n**v.rtype.arity + 7) >> 3)
    for row in v.rows:
        r = 0
        for a in row:
            r = r * n + pos[a]
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


def _mask_kernel(e: ast.Expr, path: str, types: dict, n: int):
    """``(kernel, need)`` over masks for the flat operator node ``e``, as
    ``_kernel`` gives them over relations, for a domain of ``n`` atoms."""
    if isinstance(e, ast.Union):
        return or_, None
    if isinstance(e, ast.Difference):
        return (lambda a, b: a & ~b), None
    if isinstance(e, ast.Product):
        ua = n ** types[ast.child_path(path, "left")].arity
        ub = n ** types[ast.child_path(path, "right")].arity
        # a copy of b at row x |U_b| for each row x of a: b times the mask
        # that has bit x |U_b| for each bit x of a; b < 2^|U_b|, so no carries
        spread = _image_kernel(lambda x: 1 << x * ub, ua)
        w = types[path].row_base_size
        return (lambda a, b: b * spread(a)), (lambda a, b: a.bit_count() * b.bit_count() * w)
    k = types[ast.child_path(path, "arg")].arity
    if isinstance(e, ast.Project):
        strides = [n ** (k - i) for i in e.indices]

        def image(r):
            out = 0
            for s in strides:
                out = out * n + r // s % n
            return 1 << out

        return _image_kernel(image, n**k), None
    if isinstance(e, ast.Select):
        keep = _select_mask(n, k, e.i - 1, e.j - 1, e.op == "=")
        return (lambda a: a & keep), None
    raise ModelError(f"no mask kernel for {type(e).__name__}")


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
    the operator and its operand row counts (relations or masks)."""
    live = ctx.live + amount
    if live > ctx.max_space:
        what = type(node).__name__.lower()
        rows = " x ".join(str(x.bit_count() if type(x) is int else len(x.rows)) for x in operands)
        cap = ctx.max_space
        detail = (
            f"{what} of {rows} rows needs >= {_count(amount)} units:"
            f" live {_count(live)} units > cap {cap}"
        )
        raise BudgetExceeded("space", path, detail)
    _grow(ctx, amount, path)


def _sizing(types: dict, path: str, masks: bool):
    """``(count, width)`` for the node at ``path``: a value has
    ``count(v) * width`` units.  A relation counts its own units, a mask its
    rows, each of the units per row of the node's flat type."""
    if masks:
        return int.bit_count, types[path].row_base_size
    return value_size, 1


def _metered(fs, kernel, need, path: str, node: ast.Expr, count, widths):
    """The compiled node of an operator with one or two operands.

    It evaluates the operands in order, charges the result at ``path`` and
    releases the operands.  With ``need`` the exact size is charged before
    the kernel runs, so an over-cap result is refused before any row is
    built; without it the built result is charged.  A refusal names
    ``node``, the operator.  Relations and masks run in this one wrapper: a
    value's size is ``count(v)`` times its width, ``widths`` holding those
    of the result and of each operand (see ``_sizing``).  The common case of
    ``_grow`` is inlined, as this runs for every node of a solve body once
    per candidate.
    """
    # operands and constants are defaults, not closure cells, so a compiled
    # node holds two objects for the cycle collector, not one per variable
    if len(fs) == 1:

        def run(
            env, ctx, _f=fs[0], _k=kernel, _need=need, _p=path, _node=node, _c=count,
            _w=widths[0], _wa=widths[1],
        ):  # fmt: skip
            a = _f(env, ctx)
            if _need is None:
                res = _k(a)
                live = ctx.live + _c(res) * _w
                if live > ctx.peak:
                    _new_peak(ctx, live, _p)
            else:
                _precharge(ctx, _need(a), _p, _node, (a,))
                res = _k(a)
                live = ctx.live
            ctx.live = live - _c(a) * _wa
            return res

        return run

    def run(
        env, ctx, _f1=fs[0], _f2=fs[1], _k=kernel, _need=need, _p=path, _node=node, _c=count,
        _w=widths[0], _wa=widths[1], _wb=widths[2],
    ):  # fmt: skip
        a = _f1(env, ctx)
        b = _f2(env, ctx)
        if _need is None:
            res = _k(a, b)
            live = ctx.live + _c(res) * _w
            if live > ctx.peak:
                _new_peak(ctx, live, _p)
        else:
            _precharge(ctx, _need(a, b), _p, _node, (a, b))
            res = _k(a, b)
            live = ctx.live
        ctx.live = live - _c(a) * _wa - _c(b) * _wb
        return res

    return run


def _compile(e: ast.Expr, path: str, types: dict, atoms: tuple[str, ...], masks: bool = False):
    """Compile an expression into ``fn(env, ctx) -> value``.

    ``types`` maps every node path to its type, as filled in by
    ``infer_type``, and ``atoms`` is the domain.  One compiler serves two
    value representations: relations, and with ``masks`` the masks of a
    flat solve body (see ``_solve_parts``), where ``env`` maps names to
    masks.  Contract: when ``fn`` returns, exactly the size of its result
    has been added to ``ctx.live``; the caller releases it after consuming
    it.  A name and the domain share one closure; over relations a solve
    node has its own, and a select chain over a product becomes one hash
    join (see ``_compile_join``).  Every other operator is its kernel
    (``_kernel``, or ``_mask_kernel`` over masks) under the metering wrapper
    of its arity (``_metered``), over its children compiled at their paths.
    """
    count, w = _sizing(types, path, masks)
    if isinstance(e, (ast.Name, ast.Domain)):
        nm = e.name if isinstance(e, ast.Name) else "D"

        def run(env, ctx, _nm=nm, _p=path, _c=count, _w=w):
            v = env[_nm]
            live = ctx.live + _c(v) * _w
            ctx.live = live
            if live > ctx.peak:
                _new_peak(ctx, live, _p)
            return v

        return run

    # a solve's type is never flat, so it and the join compile over relations only
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

    if not masks and isinstance(e, (ast.Project, ast.Select)):
        join = _compile_join(e, path, types, atoms)
        if join is not None:
            return join

    kernel, need = _mask_kernel(e, path, types, len(atoms)) if masks else _kernel(e, path, types)
    fs = []
    widths = [w]
    for label in ast.child_labels(e):
        child = ast.child_path(path, label)
        fs.append(_compile(getattr(e, label), child, types, atoms, masks))
        widths.append(_sizing(types, child, masks)[1])
    return _metered(fs, kernel, need, path, e, count, widths)


def _compile_join(e: ast.Expr, path: str, types: dict, atoms: tuple[str, ...]):
    """The hash join for ``[project] select ... select[i=j](times(a, b))``
    with column i in ``a`` and column j in ``b`` (or the reverse); None for
    any other shape, which compiles operator by operator.

    The right rows are indexed by their key column and each left row meets
    only its matches.  The outer selects filter the joined rows and a
    projection picks its columns from them; neither the product nor any
    selection becomes a relation.  Metering replays literal evaluation: the
    product, then each select level, is grown at its own path by its exact
    size and the level below it released, in the same order, so the peak and
    every budget refusal are unchanged.
    """
    top = path
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
    ka = types[ast.child_path(path, "left")].arity
    if not (want_eq and lk < ka <= rk):
        return None
    rk -= ka
    pick = None if indices is None else _row_picker(indices)
    # innermost level first; its test is the join key, so it filters nothing
    levels = [(None, True, None, key_path)] + filters[::-1]
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


def _solve_parts(e: ast.Solve, path: str, types: dict, atoms: tuple[str, ...]):
    """The compiled sides of a solve node and what its candidate loop needs.

    The sides run on masks when the binders and every node of both sides
    have flat types whose universes have at most ``_MASK_BITS`` rows; the
    last part then names the free names to convert to masks once per solve,
    and it is None otherwise.  Each side's value has ``count(v)`` times the
    side's width units, as ``_sizing`` gives them.
    """
    names = e.var_names
    var_types = tuple(t for _, t in e.binders)
    lp, rp = ast.child_path(path, "lhs"), ast.child_path(path, "rhs")
    bound = set(names)
    l_inv = not (ast.free_names(e.lhs) & bound)
    r_inv = not (ast.free_names(e.rhs) & bound)
    n = len(atoms)
    inside = (lp + ".", rp + ".")
    body = [t for p, t in types.items() if p in (lp, rp) or p.startswith(inside)]
    masks = all(t.is_flat and n**t.arity <= _MASK_BITS for t in var_types + tuple(body))
    fl = _compile(e.lhs, lp, types, atoms, masks)
    fr = _compile(e.rhs, rp, types, atoms, masks)
    count, wl = _sizing(types, lp, masks)
    wr = _sizing(types, rp, masks)[1]
    free = tuple(sorted(ast.free_names(e))) + ("D",) if masks else None
    return names, var_types, fl, fr, l_inv, r_inv, count, wl, wr, free


def _run_solve(parts, env, ctx, path, early_exit):
    """Stream candidates; return the frozenset of solution rows (or, with
    early_exit, an empty/singleton frozenset stopped at the first hit).

    On return, ctx.live has grown by exactly the total size of the returned
    rows (the caller owns the materialized solution set).  A candidate's
    counter value is its mask: a mask body reads it as it is, and only a
    solution row is built as relations.
    """
    names, types, fl, fr, l_inv, r_inv, count, wl, wr, masks = parts
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
    counts = [1 << len(u) for u in universes]
    all_tables = [subset_tables(u) for u in universes]
    single = len(types) == 1
    t0 = types[0]
    tables0 = all_tables[0]
    n0 = names[0]
    max_solutions = ctx.max_solutions
    from_tables = rows_for_mask

    def decode(ms):
        """The candidate with counter value ``ms`` as a row of relations."""
        if single:
            return (Rel(t0, from_tables(tables0, ms)),)
        return tuple(Rel(t, from_tables(tb, m)) for t, tb, m in zip(types, all_tables, ms))

    if masks is None:
        benv = env
    else:
        pos = {a: i for i, a in enumerate(ctx.atoms)}
        benv = {nm: _mask_of(env[nm], pos) for nm in masks}
        widths = [t.row_base_size for t in types]
        w0 = widths[0]

    const_l = fl(benv, ctx) if l_inv else None
    const_r = fr(benv, ctx) if r_inv else None
    sol_rows: list = []
    tested = 0
    found = 0
    try:
        for ms in range(counts[0]) if single else itertools.product(*map(range, counts)):
            if masks is None:
                cand = decode(ms)
                csize = 0
                for nm, v in zip(names, cand):
                    env[nm] = v
                    csize += size(v)
            elif single:
                benv[n0] = ms
                csize = ms.bit_count() * w0
            else:
                csize = 0
                for nm, m, w in zip(names, ms, widths):
                    benv[nm] = m
                    csize += m.bit_count() * w
            grow(ctx, csize, path)
            tested += 1
            va = const_l if l_inv else fl(benv, ctx)
            vb = const_r if r_inv else fr(benv, ctx)
            hit = va == vb
            if not l_inv:
                ctx.live -= count(va) * wl
            if not r_inv:
                ctx.live -= count(vb) * wr
            if hit:
                found += 1
                if found > max_solutions:
                    raise BudgetExceeded(
                        "solutions", path, f"more than {max_solutions} solutions"
                    )
                sol_rows.append(cand if masks is None else decode(ms))
                grow(ctx, 1 + csize, path)  # solution row stays live
                if early_exit:
                    ctx.live -= csize
                    return frozenset(sol_rows)
            ctx.live -= csize
    except BudgetExceeded as exc:
        if exc.solve is None:
            exc.solve = (path, tested, found)
        raise
    finally:
        stats.candidates_tested += tested
        stats.solutions_found += found
        for nm in names:
            env.pop(nm, None)
        if l_inv and const_l is not None:
            ctx.live -= count(const_l) * wl
        if r_inv and const_r is not None:
            ctx.live -= count(const_r) * wr
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
