"""Independent reference implementations used to check the engine.

Values here are plain Python data: an atom is a str, a relation is a
frozenset of tuples.  Operators are written as direct set comprehensions
from their definitions, and the brute-force equation solver enumerates
candidate assignments with itertools, so none of this shares code with the
engine's kernels, compiler, or solve loop.
"""

from __future__ import annotations

import functools
import itertools
import random

from eqalg import ast
from eqalg.model import ATOM, Database, Rel, RelType, flat_type
from eqalg.typecheck import infer_type

# ---------------------------------------------------------------------------
# conversions


def to_plain(v):
    if isinstance(v, str):
        return v
    return frozenset(tuple(to_plain(c) for c in row) for row in v.rows)


def from_plain(rows, rtype: RelType) -> Rel:
    out = set()
    for row in rows:
        out.add(tuple(_component_from_plain(c, t) for c, t in zip(row, rtype.components)))
    return Rel(rtype, frozenset(out))


def _component_from_plain(c, t: RelType):
    if t.is_atom:
        return c
    return from_plain(c, t)


# ---------------------------------------------------------------------------
# operators, straight from the definitions


def o_union(r1, r2):
    return r1 | r2


def o_difference(r1, r2):
    return r1 - r2


def o_product(r1, r2):
    return frozenset(x + y for x in r1 for y in r2)


def o_project(r, indices):
    return frozenset(tuple(row[i - 1] for i in indices) for row in r)


def o_select(r, i, op, j):
    if op == "=":
        return frozenset(row for row in r if row[i - 1] == row[j - 1])
    return frozenset(row for row in r if row[i - 1] != row[j - 1])


def o_nest(r, indices, arity):
    chosen = set(indices)
    rest = [c for c in range(1, arity + 1) if c not in chosen]
    out = set()
    for x in r:
        group = frozenset(
            tuple(y[i - 1] for i in indices)
            for y in r
            if all(y[c - 1] == x[c - 1] for c in rest)
        )
        out.add(x + (group,))
    return frozenset(out)


def o_unnest(r, i):
    return frozenset(x + y for x in r for y in x[i - 1])


def o_powerset(r):
    base = list(r)
    out = []
    for k in range(len(base) + 1):
        for combo in itertools.combinations(base, k):
            out.append((frozenset(combo),))
    return frozenset(out)


def o_domain(atoms):
    return frozenset((a,) for a in atoms)


# ---------------------------------------------------------------------------
# a full reference interpreter (types threaded for empties)


def oracle_eval(e: ast.Expr, env: dict, atoms, schema: dict):
    """Evaluate an expression to a plain value using only the comprehensions above."""
    if isinstance(e, ast.Name):
        return env[e.name]
    if isinstance(e, ast.Domain):
        return o_domain(atoms)
    if isinstance(e, ast.Solve):
        return oracle_solve(e.binders, e.lhs, e.rhs, env, atoms, schema)
    args = [oracle_eval(child, env, atoms, schema) for _, child in _operands(e)]
    return _operate(e, args, schema)


def _operands(e: ast.Expr):
    """(path label, node) of each operand, in evaluation order."""
    if isinstance(e, (ast.Union, ast.Difference, ast.Product)):
        return [("left", e.left), ("right", e.right)]
    if isinstance(e, (ast.Project, ast.Select, ast.Nest, ast.Unnest, ast.Powerset)):
        return [("arg", e.arg)]
    raise AssertionError(f"oracle cannot evaluate {type(e).__name__}")


def _operate(e: ast.Expr, args, schema: dict):
    """The operator of ``e`` applied to its evaluated operands."""
    if isinstance(e, ast.Union):
        return o_union(*args)
    if isinstance(e, ast.Difference):
        return o_difference(*args)
    if isinstance(e, ast.Product):
        return o_product(*args)
    if isinstance(e, ast.Project):
        return o_project(args[0], e.indices)
    if isinstance(e, ast.Select):
        return o_select(args[0], e.i, e.op, e.j)
    if isinstance(e, ast.Nest):
        return o_nest(args[0], e.indices, infer_type(e.arg, schema).arity)
    if isinstance(e, ast.Unnest):
        return o_unnest(args[0], e.index)
    return o_powerset(args[0])


# ---------------------------------------------------------------------------
# the metering contract, replayed on plain values


def plain_size(v) -> int:
    """Space units of a plain value: atom occurrences plus tuples, at every depth."""
    if isinstance(v, str):
        return 1
    return sum(1 + sum(plain_size(c) for c in row) for row in v)


def oracle_peak(e: ast.Expr, env: dict, atoms, schema: dict):
    """``(peak, path, solves)`` of an expression under the metering contract.

    Literal evaluation, operands left to right: a name or ``D`` charges its
    value; an operator's result is charged once built, while its operands are
    still live, and the operands are released right after.  ``peak`` is the
    largest live total and ``path`` the node where it is first reached, so a
    space cap of ``peak - 1`` must be refused there.

    A solve node charges an equation side that mentions no bound variable
    once, before its first candidate, and releases it after the last.  Each
    candidate assignment, in enumeration order (see ``candidate_order``), is
    charged at the solve's path, then the other sides are evaluated,
    compared and released; a solution keeps a row of 1 + the candidate's
    size live, and then the candidate is released.  The solution rows are
    the solve's charged result.  A re-occurrence of a solve node whose free
    names hold the same values charges the earlier result at its own path
    and tests no candidate.  ``solves`` maps each enumerating solve's path
    to ``(candidates tested, solutions found)``.
    """
    state = {"live": 0, "peak": 0, "path": None}
    solves: dict = {}
    cache: dict = {}

    def charge(units: int, path: str) -> None:
        state["live"] += units
        if state["live"] > state["peak"]:
            state["peak"] = state["live"]
            state["path"] = path

    def walk(node: ast.Expr, path: str, env: dict, schema: dict):
        if isinstance(node, ast.Solve):
            return walk_solve(node, path, env, schema)
        if isinstance(node, (ast.Name, ast.Domain)):
            value = oracle_eval(node, env, atoms, schema)
            charge(plain_size(value), path)
            return value
        args = [
            walk(child, f"{path}.{label}" if path else label, env, schema)
            for label, child in _operands(node)
        ]
        value = _operate(node, args, schema)
        charge(plain_size(value), path)
        state["live"] -= sum(plain_size(a) for a in args)
        return value

    def walk_solve(node: ast.Solve, path: str, env: dict, schema: dict):
        free = sorted(ast.free_names(node))
        inputs = [env[nm] for nm in free]
        hit = cache.get(id(node))
        if hit is not None and hit[0] == inputs:
            charge(plain_size(hit[1]), path)
            return hit[1]
        inner_schema = {**schema, **dict(node.binders)}
        bound = set(node.var_names)
        sides = []
        for label, side in (("lhs", node.lhs), ("rhs", node.rhs)):
            side_path = f"{path}.{label}" if path else label
            const = None
            if not ast.free_names(side) & bound:
                const = walk(side, side_path, env, inner_schema)
            sides.append((side, side_path, const))
        tested = found = 0
        rows = set()
        for assignment in itertools.product(*(candidate_order(t, atoms) for _, t in node.binders)):
            inner = {**env, **dict(zip(node.var_names, assignment))}
            size = sum(plain_size(v) for v in assignment)
            charge(size, path)
            tested += 1
            values = [
                const if const is not None else walk(side, side_path, inner, inner_schema)
                for side, side_path, const in sides
            ]
            for (_, _, const), v in zip(sides, values):
                if const is None:
                    state["live"] -= plain_size(v)
            if values[0] == values[1]:
                found += 1
                rows.add(tuple(assignment))
                charge(1 + size, path)
            state["live"] -= size
        for _, _, const in sides:
            if const is not None:
                state["live"] -= plain_size(const)
        prev = solves.get(path, (0, 0))
        solves[path] = (prev[0] + tested, prev[1] + found)
        value = frozenset(rows)
        cache[id(node)] = (inputs, value)
        return value

    walk(e, "", env, schema)
    return state["peak"], state["path"], solves


def candidate_order(t: RelType, atoms) -> list:
    """Every plain relation of a type, in the order a solve enumerates them:
    a binary counter over the canonically ordered rows of the type, the
    first row as the lowest bit."""
    spaces = [sorted(atoms) if c.is_atom else candidate_order(c, atoms) for c in t.components]
    universe = plain_sorted_rows(set(itertools.product(*spaces)))
    return [
        frozenset(row for i, row in enumerate(universe) if mask >> i & 1)
        for mask in range(1 << len(universe))
    ]


# ---------------------------------------------------------------------------
# canonical order and rendering, from their definitions


def plain_compare(x, y) -> int:
    """Canonical order of two plain values of one type, as -1, 0 or 1.

    Atoms compare as strings.  A relation is the list of its rows in
    canonical order, and two relations compare as those lists do: by the
    first position where their rows differ, else the shorter list first.
    Rows compare component by component.
    """
    if isinstance(x, str):
        return (x > y) - (x < y)
    xs, ys = plain_sorted_rows(x), plain_sorted_rows(y)
    for a, b in zip(xs, ys):
        c = _plain_row_compare(a, b)
        if c:
            return c
    return (len(xs) > len(ys)) - (len(xs) < len(ys))


def _plain_row_compare(a, b) -> int:
    for c, d in zip(a, b):
        r = plain_compare(c, d)
        if r:
            return r
    return 0


def plain_sorted_rows(r) -> list:
    """The rows of a plain relation in canonical order."""
    return sorted(r, key=functools.cmp_to_key(_plain_row_compare))


def plain_render(v) -> str:
    """Text of a plain value: an atom is itself; a relation is ``[`` its rows
    in canonical order, comma-separated, ``]``, and a row is ``[`` its
    rendered components, comma-separated, ``]``."""
    if isinstance(v, str):
        return v
    rows = ["[" + ",".join(plain_render(c) for c in row) + "]" for row in plain_sorted_rows(v)]
    return "[" + ",".join(rows) + "]"


def plain_relations(t: RelType, atoms):
    """Every plain relation of a type over the atoms, via combinations."""
    spaces = []
    for c in t.components:
        if c.is_atom:
            spaces.append(sorted(atoms))
        else:
            spaces.append(sorted(plain_relations(c, atoms), key=repr))
    universe = [tuple(combo) for combo in itertools.product(*spaces)]
    out = []
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            out.append(frozenset(combo))
    return out


def oracle_solve(binders, lhs, rhs, env, atoms, schema):
    """Brute-force solution set by filtering every candidate assignment."""
    names = [nm for nm, _ in binders]
    spaces = [plain_relations(t, atoms) for _, t in binders]
    inner_schema = dict(schema)
    for nm, t in binders:
        inner_schema[nm] = t
    out = set()
    for assignment in itertools.product(*spaces):
        inner = dict(env)
        for nm, v in zip(names, assignment):
            inner[nm] = v
        if oracle_eval(lhs, inner, atoms, inner_schema) == oracle_eval(
            rhs, inner, atoms, inner_schema
        ):
            out.add(tuple(assignment))
    return frozenset(out)


def oracle_solution_set(binders, lhs, rhs, db: Database):
    return oracle_solve(
        binders,
        lhs,
        rhs,
        {name: to_plain(rel) for name, rel in db.relations.items()},
        db.atoms,
        db.schema,
    )


# ---------------------------------------------------------------------------
# random generation helpers


def random_type(rng: random.Random, max_depth=2, max_arity=3) -> RelType:
    def comp(depth):
        if depth <= 0 or rng.random() < 0.7:
            return ATOM
        return build(depth - 1)

    def build(depth):
        arity = rng.randint(1, max_arity)
        return RelType(tuple(comp(depth) for _ in range(arity)))

    return build(max_depth)


def random_value(rng: random.Random, t: RelType, atoms, max_rows=4) -> Rel:
    rows = set()
    for _ in range(rng.randint(0, max_rows)):
        rows.add(tuple(_random_component(rng, c, atoms, max_rows) for c in t.components))
    return Rel(t, frozenset(rows))


def _random_component(rng, c: RelType, atoms, max_rows):
    if c.is_atom:
        return rng.choice(atoms)
    return random_value(rng, c, atoms, max_rows=max(1, max_rows - 1))


def random_flat_rel(rng: random.Random, arity: int, atoms, density=0.4) -> Rel:
    rows = {
        combo
        for combo in itertools.product(sorted(atoms), repeat=arity)
        if rng.random() < density
    }
    return Rel(flat_type(arity), frozenset(rows))


def random_digraph(rng: random.Random, n: int, p: float | None = None) -> Rel:
    atoms = tuple(f"x{i}" for i in range(1, n + 1))
    if p is None:
        p = 0.5
    return random_flat_rel(rng, 2, atoms, density=p)


# ---------------------------------------------------------------------------
# the binding rules of GRAMMAR.md


def _subterms(e: ast.Expr) -> list:
    return [v for v in (getattr(e, f) for f in e.__slots__) if isinstance(v, ast.Expr)]


def _names_free_in(e: ast.Expr) -> set:
    if isinstance(e, ast.Name):
        return {e.name}
    free = set().union(*map(_names_free_in, _subterms(e)))
    if isinstance(e, ast.Solve):
        free -= {nm for nm, _ in e.binders}
    return free


def binding_violations(e: ast.Expr) -> list[str]:
    """The variables bound against the two rules: a variable may not occur
    free in the whole expression, and a solve may not rebind a variable of an
    enclosing solve.  Empty means the bindings are well formed."""
    top_free = _names_free_in(e)
    out = []
    stack = [(e, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, ast.Solve):
            names = {nm for nm, _ in node.binders}
            out += sorted(names & (top_free | enclosing))
            enclosing |= names
        stack += [(sub, enclosing) for sub in _subterms(node)]
    return out


# random well-typed expressions ------------------------------------------------

_UNARY = RelType((ATOM,))


def random_expr(rng: random.Random, schema: dict, steps=6, allow_solve=True, solve_var_types=None):
    """Grow a pool of well-typed expressions over the schema; return one.

    Kept deliberately tame: small arities, nesting depth capped, powersets
    rare, solve variables flat, so evaluation stays affordable on tiny
    domains.
    """
    if solve_var_types is None:
        solve_var_types = (_UNARY, flat_type(2))
    pool = [(ast.Name(nm), t) for nm, t in sorted(schema.items())]
    pool.append((ast.Domain(), _UNARY))
    fresh = itertools.count(1)

    def depth_of(t: RelType) -> int:
        if t.is_atom:
            return 0
        return 1 + max(depth_of(c) for c in t.components)

    for _ in range(steps):
        op = rng.choice(
            ["union", "minus", "times", "project", "select", "nest", "unnest", "solve", "power"]
        )
        e1, t1 = rng.choice(pool)
        if op in ("union", "minus"):
            same = [(e, t) for e, t in pool if t == t1]
            e2, _ = rng.choice(same)
            node = ast.Union(e1, e2) if op == "union" else ast.Difference(e1, e2)
            pool.append((node, t1))
        elif op == "times":
            e2, t2 = rng.choice(pool)
            if t1.arity + t2.arity <= 5:
                pool.append((ast.Product(e1, e2), RelType(t1.components + t2.components)))
        elif op == "project":
            k = t1.arity
            indices = tuple(rng.randint(1, k) for _ in range(rng.randint(1, k)))
            pool.append(
                (ast.Project(indices, e1), RelType(tuple(t1.components[i - 1] for i in indices)))
            )
        elif op == "select":
            k = t1.arity
            pairs = [
                (i, j)
                for i in range(1, k + 1)
                for j in range(1, k + 1)
                if t1.components[i - 1] == t1.components[j - 1]
            ]
            i, j = rng.choice(pairs)
            pool.append((ast.Select(i, rng.choice(["=", "!="]), j, e1), t1))
        elif op == "nest":
            if depth_of(t1) >= 2 or t1.arity > 3:
                continue
            k = t1.arity
            count = rng.randint(1, k)
            indices = tuple(sorted(rng.sample(range(1, k + 1), count)))
            nested = RelType(tuple(t1.components[i - 1] for i in indices))
            pool.append((ast.Nest(indices, e1), RelType(t1.components + (nested,))))
        elif op == "unnest":
            cols = [i for i, c in enumerate(t1.components, start=1) if not c.is_atom]
            if not cols:
                continue
            i = rng.choice(cols)
            inner = t1.components[i - 1]
            pool.append((ast.Unnest(i, e1), RelType(t1.components + inner.components)))
        elif op == "power":
            if rng.random() < 0.85 or depth_of(t1) >= 2:
                continue
            pool.append((ast.Powerset(e1), RelType((t1,))))
        elif op == "solve" and allow_solve:
            var = f"V{next(fresh)}"
            vt = rng.choice(list(solve_var_types))
            base = [(e, t) for e, t in pool if t == vt]
            if base:
                eb, _ = rng.choice(base)
                node = ast.Solve(((var, vt),), ast.Union(ast.Name(var), eb), eb)
            else:
                node = ast.Solve(((var, vt),), ast.Name(var), ast.Name(var))
            pool.append((node, RelType((vt,))))
    # prefer something non-trivial
    candidates = pool[len(schema) + 1 :] or pool
    return rng.choice(candidates)[0]
