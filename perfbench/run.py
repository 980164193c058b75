"""eqalg benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload tc_powerset --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; eqalg is imported from its ``src``.  A run
sets up (import, expressions, input databases), computes the oracles, and
makes one untimed pass with the span recorder attached, which reads the exact
counts off the program's own results.  Then it runs timed passes over the
workload's queries, one query after another, until ``--seconds`` have passed
(at least one pass).  SETUP_REPS set-ups are timed after each pass, so the
median ``setup_s`` samples the machine over the whole run, as the pass times
do, and the next pass runs the queries of the last set-up: where the
interpreter happens to lay out eqalg's modules and inputs moves small queries
by 10% from one process to the next, and a fresh layout per pass lets the
median over the passes average that out.  The times of the end-to-end
metrics are scaled to a fixed machine speed (see REFERENCE_S).  Every result
is checked; a wrong result, an exception or a budget refusal is a failed
operation.  The last stdout line is one JSON object with the end-to-end
metrics (``--trace 0``), or with the per-layer metrics of a traced run
(``--trace 1``), which runs every query twice back to back, once untraced
and once traced.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

from spans import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
MODULES = ("model", "ast", "typecheck", "parser", "evaluator", "constructions", "profiler", "cli")
SETUP_REPS = 5

# The speed of a shared virtual machine drifts by up to 2x over minutes, more
# than any bound worth keeping.  So a reference computation that shares no
# code with eqalg runs between the queries (REFERENCE_REPS calls whenever
# REFERENCE_EVERY_S have passed since the last ones, and after the last query
# of a pass), and every time measured in a pass, its set-ups' too, is
# multiplied by REFERENCE_S / (the median reference time of the pass).  The
# times reported are thus seconds at a speed where one reference call takes
# REFERENCE_S, about its median on the machine of record (baseline.json).
REFERENCE_S = 0.003
REFERENCE_EVERY_S = 0.25
REFERENCE_REPS = 3
_REF_PAIRS = tuple((i % 97, i % 89) for i in range(2000))
_REF_INDEX = {i: i * 7 + 1 for i in range(97)}


def import_eqalg():
    """A fresh import of every eqalg module, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "eqalg" or n.startswith("eqalg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("eqalg")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"eqalg imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"eqalg.{m}") for m in MODULES})


def timed_setups(workload, reps: int):
    """Time ``reps`` set-ups; return the times and the last set-up's modules,
    whose queries the workload then holds, with their oracles."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        eq = import_eqalg()
        workload.build(eq)
        times.append(time.perf_counter() - t0)
    workload.attach_oracles(eq)
    return times, eq


def reference() -> int:
    """Fixed pure-Python work that shares no code with eqalg: integer
    arithmetic and dict lookups over prebuilt pairs, then small tuples, dicts
    and frozensets made and dropped at once.  It grows no container, so that
    its speed follows the machine, not the state of the workload's heap."""
    acc = 0
    for _ in range(8):
        for a, b in _REF_PAIRS:
            acc = (acc + _REF_INDEX[a] * b) % 1_000_003
    for a, b in _REF_PAIRS:
        row = (a, b, a + b)
        acc = (acc + len({a: row, b: row}) + len(frozenset(row))) % 1_000_003
    return acc


def reference_times() -> list[float]:
    """REFERENCE_REPS timed reference calls, with the cycle collector off: the
    reference makes no cycles, and a collection would time the workload's heap."""
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPS):
            t0 = time.perf_counter()
            reference()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return times


class Run:
    """Runs and checks one workload's queries, one at a time."""

    def __init__(self, workload, eq=None) -> None:
        self.workload = workload
        self.eq = eq
        self.first: dict = {}  # query index -> fingerprint of its first correct result
        self.attempted = 0
        self.failures: list[str] = []

    def query(self, k: int, tracer: Tracer | None = None) -> float:
        """Run query ``k`` once, with ``tracer`` attached if given; check the
        result and return the query's seconds."""
        q = self.workload.queries[k]
        with tracer.attached(self.eq, k) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                res = q.run()
            except Exception as exc:  # a refusal or crash is a failed operation
                err = f"raised {type(exc).__name__}: {exc}"
            else:
                err = None
            seconds = time.perf_counter() - t0
        self.attempted += 1
        if err is None:
            try:
                fp, err = q.check(res)
            except Exception as exc:  # e.g. a result of another shape
                err = f"result could not be checked: {type(exc).__name__}: {exc}"
        if err is None and self.first.setdefault(k, fp) != fp:
            err = "result differs from the first correct result"
        if err is not None:
            self.failures.append(f"{q.label}: {err}")
        return seconds

    def one_pass(self, tracer: Tracer | None = None) -> list[float]:
        return [self.query(k, tracer) for k in range(len(self.workload.queries))]


def observe(run: Run) -> Tracer:
    """One untimed pass with the span recorder attached, for its counts."""
    tracer = Tracer()
    run.one_pass(tracer)
    return tracer


def measure(run: Run, seconds: float, setup: list) -> tuple[list, list]:
    """Closed loop of whole passes until ``seconds`` have passed, with set-ups
    timed after each pass appended to ``setup``.  Return the seconds of every
    query, one list per pass, and the scale of each pass; all times are scaled
    to the speed of record."""
    passes: list = []
    scales: list = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        times, refs, last = [], [], -REFERENCE_EVERY_S
        for k in range(len(run.workload.queries)):
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                refs += reference_times()
                last = time.perf_counter()
            times.append(run.query(k))
        refs += reference_times()
        scale = REFERENCE_S / statistics.median(refs)
        passes.append([t * scale for t in times])
        scales.append(scale)
        times, run.eq = timed_setups(run.workload, SETUP_REPS)
        setup += [t * scale for t in times]
    return passes, scales


def measure_traced(run: Run, seconds: float, tracer: Tracer) -> tuple[list, list]:
    """Every query twice back to back, untraced and traced, the order switched
    on every pass, until ``seconds`` have passed; return the untraced and the
    traced seconds, one list per pass each."""
    plain: list = []
    traced: list = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        order = (None, tracer) if len(plain) % 2 == 0 else (tracer, None)
        pair = {None: [], tracer: []}
        for k in range(len(run.workload.queries)):
            for t in order:
                pair[t].append(run.query(k, t))
        plain.append(pair[None])
        traced.append(pair[tracer])
    return plain, traced


def per_query_median(passes: list) -> list[float]:
    """Each query's median over the passes, so one slow pass moves no percentile."""
    return [statistics.median(times) for times in zip(*passes)]


def end_to_end(passes: list, setup: list, observed: Tracer) -> dict:
    wall = statistics.median(sum(p) for p in passes)
    qt = per_query_median(passes)
    p90 = statistics.quantiles(qt, n=10, method="inclusive")[8] if len(qt) > 1 else qt[0]
    # candidates: those of every solve, plus every relation checked against
    # the stage equation; solutions: the solutions found and accepted checks
    candidates = observed.candidates + observed.checks
    return {
        "wall_s": (wall, "s"),
        "query_ms.p50": (statistics.median(qt) * 1e3, "ms"),
        "query_ms.p90": (p90 * 1e3, "ms"),
        "candidates_per_s": (candidates / wall, "1/s"),
        "candidates_tested": (candidates, "count"),
        "solutions_found": (observed.solutions + observed.accepted, "count"),
        "peak_space_units": (observed.peak_space, "units"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(plain: list, traced: list, tracer: Tracer) -> dict:
    n = len(traced)
    out = {}
    for name, (calls, self_s) in tracer.self_times().items():
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (self_s / n, "s")
    cands = tracer.candidates
    solve_s = tracer.inclusive_s("evaluator.solve")
    out["evaluator.candidates_tested"] = (cands / n, "count")
    out["evaluator.us_per_candidate"] = (solve_s / cands * 1e6 if cands else 0.0, "us")
    out["evaluator.hit_ratio"] = (tracer.solutions / cands if cands else 0.0, "ratio")
    out["evaluator.peak_space_units"] = (tracer.peak_space, "units")
    out["parser.render_bytes"] = (tracer.render_bytes / n, "bytes")
    # per query, the median of its paired differences, traced minus untraced
    # back to back, so drift of the machine between passes cancels out
    diffs = [[t - u for t, u in zip(tp, up)] for tp, up in zip(traced, plain)]
    out["trace.wall_s"] = (sum(per_query_median(traced)), "s")
    out["trace.overhead_s"] = (sum(per_query_median(diffs)), "s")
    return out


def summary(run: Run, metrics: dict) -> dict:
    """The result line: correct only when no operation failed."""
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eqalg", "__init__.py")):
        print(f"perfbench: no eqalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, work_dir=work_dir)
    try:
        workload.prepare()
        eq = timed_setups(workload, 1)[1]
        run = Run(workload, eq)
        observed = observe(run)
        if args.trace:
            tracer = Tracer()
            plain, traced = measure_traced(run, args.seconds, tracer)
            metrics = per_layer(plain, traced, tracer)
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
        else:
            setup: list = []
            plain, scales = measure(run, args.seconds, setup)
            metrics = end_to_end(plain, setup, observed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in run.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(plain)} timed passes"
        f" of {len(workload.queries)} queries, {run.attempted} attempted, {len(run.failures)} failed"
    )
    label = "pass seconds" if args.trace else "pass seconds, scaled"
    print(f"# {label}: " + " ".join(f"{sum(p):.3f}" for p in plain))
    if not args.trace:
        print("# measured / scaled: " + " ".join(f"{1 / x:.3f}" for x in scales))
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<42} {value:>16.6f} {unit}")
    print(json.dumps(summary(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
