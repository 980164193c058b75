"""Command line front end.

Subcommands: eval, solve, check, profile, construction, repl.  Exit codes:
0 success, 1 user error (usage, parse or type error), 2 budget exceeded,
3 internal invariant failure (including a failed --verify).  Budgets come
from flags, then the environment variables EQALG_MAX_CANDIDATES,
EQALG_MAX_SPACE, and EQALG_MAX_SOLUTIONS, then the documented defaults.
Stdout is byte-identical across runs for identical inputs and seeds; timing
and metrics go to stderr.

Each command runs after one full garbage collection, with the cycle
collector paused until it returns (the repl does this per input line), and
the collector is enabled again only if it was enabled before.  Evaluation,
rendering and the oracles build only acyclic values, which reference
counting frees, so a collection during a command would walk every solution
it holds and find nothing.  The library functions leave the collector alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import sys

from . import ast
from .constructions import registry
from .evaluator import (
    BudgetExceeded,
    EvalBudget,
    InternalCheckError,
    evaluate,
    solve_nonempty,
)
from .model import Database, ModelError, flat_type
from .parser import ParseError, parse_database, parse_expr, render_relation
from .profiler import DbGenerator, meter_expression, profile
from .typecheck import TypecheckError, infer_type

EXIT_OK = 0
EXIT_USER = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3

# errors in what the user typed or named: exit 1 from main, "error:" in the repl
USER_ERRORS = (ParseError, TypecheckError, ModelError, ast.AstError, OSError)


@contextlib.contextmanager
def _collector_paused():
    """One full collection, then the cycle collector off for the block; on
    exit it is enabled again if it was enabled on entry.  Collecting first
    frees the garbage made before the block instead of keeping it all along."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ModelError(f"bad integer in {name}: {raw!r}") from None


def _budget_from(args) -> EvalBudget:
    defaults = EvalBudget()
    return EvalBudget(
        max_candidates=args.max_candidates
        if args.max_candidates is not None
        else _env_int("EQALG_MAX_CANDIDATES", defaults.max_candidates),
        max_space_units=args.max_space
        if args.max_space is not None
        else _env_int("EQALG_MAX_SPACE", defaults.max_space_units),
        max_solutions=args.max_solutions
        if args.max_solutions is not None
        else _env_int("EQALG_MAX_SOLUTIONS", defaults.max_solutions),
    )


def _add_budget_flags(p) -> None:
    p.add_argument("--max-candidates", type=int, default=None)
    p.add_argument("--max-space", type=int, default=None)
    p.add_argument("--max-solutions", type=int, default=None)


def _add_expr_flags(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="expression text")
    group.add_argument("--expr-file", help="file holding one expression")


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; other bytes are a parse error at their place."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        line = data.count(b"\n", 0, at) + 1
        col = at - data.rfind(b"\n", 0, at)
        raise ParseError(f"{path}: byte 0x{data[at]:02x} is not UTF-8 text", line, col) from None


def _load_expr(args) -> ast.Expr:
    text = args.expr
    if text is None:
        text = _read_text(args.expr_file)
    return parse_expr(text)


def _load_db(path: str) -> Database:
    db, _ = parse_database(_read_text(path))
    return db


def cmd_eval(args) -> int:
    db = _load_db(args.db)
    e = _load_expr(args)
    value, metrics = evaluate(e, db, _budget_from(args))
    print(render_relation(value))
    if args.metrics:
        print(metrics.format(), file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    db = _load_db(args.db)
    e = _load_expr(args)
    if not isinstance(e, ast.Solve):
        raise ParseError("the solve subcommand needs a solve{...} expression", 1, 1)
    budget = _budget_from(args)
    if args.nonempty:
        found = solve_nonempty(e.binders, e.lhs, e.rhs, db, budget)
        print("true" if found else "false")
        return EXIT_OK
    value, metrics = evaluate(e, db, budget)
    print(render_relation(value))
    if args.metrics:
        print(metrics.format(), file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    e = _load_expr(args)
    if args.db:
        schema = _load_db(args.db).schema
    else:
        schema = {name: flat_type(2) for name in sorted(ast.free_names(e))}
        if schema:
            print(
                "note: no --db given; free names assumed flat binary", file=sys.stderr
            )
    t = infer_type(e, schema)
    print(t)
    return EXIT_OK


def cmd_construction(args) -> int:
    entry = registry().get(args.name)
    if entry is None:
        known = ", ".join(sorted(registry()))
        raise ParseError(f"unknown construction {args.name!r} (known: {known})", 1, 1)
    db = _load_db(args.db)
    for name, t in entry.schema.items():
        r = db.relations.get(name)
        if r is None or r.rtype != t:
            has = "none" if r is None else f"type {r.rtype}"
            raise ModelError(
                f"construction {entry.name} needs a relation {name} of type {t},"
                f" the database has {has}"
            )
    budget = _budget_from(args)
    if entry.harness is not None:
        value = entry.harness(db, budget)
        if args.metrics:
            print(f"no metrics: {entry.name} runs a harness, which reports none", file=sys.stderr)
    else:
        value, metrics = evaluate(entry.expression, db, budget)
        if args.metrics:
            print(metrics.format(), file=sys.stderr)
    print(render_relation(value))
    if args.verify:
        expected = entry.oracle(db)
        if value == expected:
            print("VERIFY PASS", file=sys.stderr)
        else:
            print("VERIFY FAIL", file=sys.stderr)
            print(f"expected {render_relation(expected)}", file=sys.stderr)
            return EXIT_INTERNAL
    return EXIT_OK


def _parse_n_range(text: str):
    lo, sep, hi = text.partition("..")
    try:
        if sep and 1 <= int(lo) <= int(hi):
            return range(int(lo), int(hi) + 1)
    except ValueError:
        pass
    raise ParseError(f"bad n-range {text!r}, expected A..B with 1 <= A <= B", 1, 1)


def _parse_gen(text: str | None, default_schema: dict, seed: int) -> DbGenerator:
    """--gen forms: 'domain' or 'flat:NAME:TYPE:DENSITY[,NAME:TYPE:DENSITY...]'."""
    from .parser import parse_type

    if text is None:
        return DbGenerator(schema=default_schema, density=1.0, seed=seed)
    if text == "domain":
        return DbGenerator(seed=seed)
    if text.startswith("flat:"):
        schema = {}
        density: dict = {}
        for part in _split_outside_parens(text[len("flat:") :]):
            name, _, rest = part.partition(":")
            if name in schema:
                raise ParseError(f"relation {name!r} given twice in --gen", 1, 1)
            type_text, _, dens = rest.rpartition(":")
            schema[name] = parse_type(type_text)
            try:
                d = float(dens)
            except ValueError:
                d = None
            # NaN fails this comparison too
            if d is None or not 0.0 <= d <= 1.0:
                raise ParseError(
                    f"bad density {dens!r} for {name} in --gen, expected a number in [0, 1]", 1, 1
                )
            density[name] = d
        return DbGenerator(schema=schema, density=density, seed=seed)
    raise ParseError(f"bad --gen {text!r}", 1, 1)


def _split_outside_parens(text: str) -> list[str]:
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def cmd_profile(args) -> int:
    budget = _budget_from(args)
    entry = registry().get(args.eq)
    if entry is not None:
        expression, default_schema = entry.expression, entry.schema
    elif os.path.exists(args.eq):
        expression = parse_expr(_read_text(args.eq))
        default_schema = {}
    else:
        known = ", ".join(sorted(registry()))
        raise ParseError(f"unknown construction {args.eq!r} (known: {known})", 1, 1)
    if not isinstance(expression, ast.Solve) and not args.meter:
        raise ParseError("profile needs a solve{...} expression (or --meter)", 1, 1)
    gen = _parse_gen(args.gen, default_schema, args.seed)
    n_range = _parse_n_range(args.n_range)
    if args.meter:
        report = meter_expression(expression, gen, n_range, budget)
    else:
        report = profile((expression.binders, expression.lhs, expression.rhs), gen, n_range, budget)
    print(report.format_table())
    for p in report.points:
        print(f"n={p.n} wall_ms={p.wall_ms:.1f}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.format_file())
    return EXIT_BUDGET if report.truncated else EXIT_OK


def cmd_repl(args) -> int:
    db = _load_db(args.db) if args.db else None
    budget = _budget_from(args)
    show_metrics = False
    stdin = sys.stdin
    while True:
        print("eqalg> ", end="", file=sys.stderr, flush=True)
        line = stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        with _collector_paused():
            try:
                if line == ":quit":
                    break
                if line == ":metrics":
                    show_metrics = not show_metrics
                    print(f"metrics {'on' if show_metrics else 'off'}", file=sys.stderr)
                    continue
                if line.startswith(":load "):
                    db = _load_db(line[len(":load ") :].strip())
                    print(f"loaded database with {len(db.domain)} atoms", file=sys.stderr)
                    continue
                if line.startswith(":type "):
                    e = parse_expr(line[len(":type ") :])
                    schema = db.schema if db else {}
                    print(infer_type(e, schema))
                    continue
                if line.startswith(":"):
                    print(f"unknown command {line.split()[0]}", file=sys.stderr)
                    continue
                if db is None:
                    print("no database loaded; use :load FILE", file=sys.stderr)
                    continue
                value, metrics = evaluate(parse_expr(line), db, budget)
                print(render_relation(value))
                if show_metrics:
                    print(metrics.format(), file=sys.stderr)
            except USER_ERRORS as exc:
                print(f"error: {exc}", file=sys.stderr)
            except BudgetExceeded as exc:
                print(f"budget: {exc}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it makes cyclic garbage."""
    top = argparse.ArgumentParser(prog="eqalg", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression on a database")
    p.add_argument("--db", required=True)
    _add_expr_flags(p)
    p.add_argument("--metrics", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("solve", help="solve an equation (a solve{...} expression)")
    p.add_argument("--db", required=True)
    _add_expr_flags(p)
    p.add_argument("--nonempty", action="store_true", help="only report solvability")
    p.add_argument("--metrics", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="parse and type an expression")
    _add_expr_flags(p)
    p.add_argument("--db", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("construction", help="run a named construction")
    p.add_argument("--name", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--verify", action="store_true", help="compare against the oracle")
    p.add_argument("--metrics", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_construction)

    p = sub.add_parser("profile", help="profile growth over increasing domains")
    p.add_argument("--eq", required=True, help="construction name or expression file")
    p.add_argument("--n-range", required=True, help="A..B inclusive")
    p.add_argument("--gen", default=None, help="'domain' or 'flat:NAME:TYPE:DENSITY,...'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write machine-readable report here")
    p.add_argument("--meter", action="store_true", help="meter peak space of the expression")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("repl", help="interactive loop")
    p.add_argument("--db", default=None)
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_repl)

    return top


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USER
    # the repl pauses the collector per input line, not for the whole session
    with contextlib.nullcontext() if args.fn is cmd_repl else _collector_paused():
        try:
            return args.fn(args)
        except USER_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USER
        except BudgetExceeded as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except InternalCheckError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
