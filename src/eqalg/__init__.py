"""eqalg: a nested relational algebra with an equation-solving operator.

The package provides the data model (`model`), expression AST and rewrites
(`ast`), type inference (`typecheck`), a textual surface syntax (`parser`),
the evaluator with budgets and space metering (`evaluator`), a library of
ready-made expressions with verification oracles (`constructions`), an
empirical growth profiler (`profiler`), and a command line front end (`cli`).
"""

from .model import (
    ATOM,
    Database,
    ModelError,
    Rel,
    RelType,
    Value,
    canonicalize,
    count_relations,
    deep_equal,
    enumerate_relations,
    flat_type,
    value_size,
)
from .evaluator import (
    BudgetExceeded,
    EvalBudget,
    EvalError,
    EvalMetrics,
    evaluate,
    solve,
    solve_nonempty,
)
from .parser import ParseError, parse_database, parse_expr, render_database, render_expr, render_relation
from .typecheck import TypecheckError, infer_type, typecheck_database

__version__ = "0.1.0"

__all__ = [
    "ATOM",
    "BudgetExceeded",
    "Database",
    "EvalBudget",
    "EvalError",
    "EvalMetrics",
    "ModelError",
    "ParseError",
    "Rel",
    "RelType",
    "TypecheckError",
    "Value",
    "canonicalize",
    "count_relations",
    "deep_equal",
    "enumerate_relations",
    "evaluate",
    "flat_type",
    "infer_type",
    "parse_database",
    "parse_expr",
    "render_database",
    "render_expr",
    "render_relation",
    "solve",
    "solve_nonempty",
    "typecheck_database",
    "value_size",
    "__version__",
]
