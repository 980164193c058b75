"""Span recorder for the traced run, attached to eqalg from outside.

The recorder replaces eqalg's public functions with timing wrappers at the
places where the calling modules look them up (the defining module for calls
made through it, and each module that imported the function by name), and
puts the originals back when the traced query ends.  Hot inner helpers such
as ``value_size`` and the recursive renderers are left alone.  Spans stay in
memory with their parent and the query they belong to, and are written out
once, when the run ends.  The recorder also reads the program's own counts
off the results it sees: the metrics of every ``evaluate`` call and the
verdict of every stage-equation check.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

# span name -> [(owner, attribute)]: ``owner`` is a dotted path from the eqalg
# namespace, the attribute is replaced in it.  ``evaluator.solve`` is the
# candidate loop of every solve node, reached through evaluate or solve.
TARGETS = {
    "cli.main": [("cli", "main")],
    "parser.parse_database": [("cli", "parse_database")],
    "parser.render_relation": [("cli", "render_relation")],
    "profiler.profile": [("cli", "profile")],
    "constructions.build_run": [("constructions", "build_run")],
    "constructions.check_run_equation": [("constructions", "check_run_equation")],
    "constructions.tc_sparse_via_harness": [("constructions", "tc_sparse_via_harness")],
    "constructions.oracle": [("constructions", "_oracle_*")],
    "evaluator.evaluate": [
        ("evaluator", "evaluate"),
        ("constructions", "evaluate"),
        ("cli", "evaluate"),
        ("profiler", "evaluate"),
    ],
    "evaluator.solve": [("evaluator", "_run_solve")],
    "typecheck.infer_type": [("evaluator", "infer_type"), ("cli", "infer_type")],
    "ast.check_bindings": [("ast", "check_bindings")],
    "model.Database": [("model.Database", "__init__")],
    "model.tuple_universe": [("evaluator", "tuple_universe"), ("profiler", "tuple_universe")],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, parent index or -1, query, start, end]
        self.stack: list = []
        self.query = None
        self.peak_space = 0
        self.candidates = 0
        self.solutions = 0
        self.checks = 0  # check_run_equation calls
        self.accepted = 0  # ... that returned True
        self.render_bytes = 0

    def _observe(self, name: str, result) -> None:
        if name == "evaluator.evaluate":
            metrics = result[1]
            self.peak_space = max(self.peak_space, metrics.peak_space_units)
            self.candidates += sum(s.candidates_tested for s in metrics.solves)
            self.solutions += sum(s.solutions_found for s in metrics.solves)
        elif name == "constructions.check_run_equation":
            self.checks += 1
            self.accepted += bool(result)
        elif name == "parser.render_relation":
            self.render_bytes += len(result)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.query, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def attached(self, eq, query=None):
        """Wrap every target for the duration of the block, then restore;
        spans recorded in the block belong to ``query``."""
        self.query = query
        saved = []
        try:
            for name, places in TARGETS.items():
                for owner_path, attr in places:
                    owner = eq
                    for part in owner_path.split("."):
                        owner = getattr(owner, part)
                    attrs = [attr]
                    if attr.endswith("*"):
                        attrs = [a for a in vars(owner) if a.startswith(attr[:-1])]
                    for a in attrs:
                        original = vars(owner).get(a)
                        if original is None:
                            print(f"trace: {owner_path}.{a} not found, not traced", file=sys.stderr)
                            continue
                        saved.append((owner, a, original))
                        setattr(owner, a, self._wrap(name, original))
            yield self
        finally:
            for owner, a, original in reversed(saved):
                setattr(owner, a, original)

    def self_times(self) -> dict:
        """name -> (calls, self seconds), totals over every traced query."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in TARGETS}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return out

    def inclusive_s(self, name: str) -> float:
        return sum(end - start for n, _, _, start, end in self.spans if n == name)

    def write(self, path: str) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            {"id": i, "parent": p, "query": q, "name": n, "start_s": s - t0, "end_s": e - t0}
            for i, (n, p, q, s, e) in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
