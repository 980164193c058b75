"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import PowersetCli, TcPowerset, TcSparse, powerset_text  # noqa: E402


@pytest.fixture(scope="module")
def eq():
    return bench.import_eqalg()


class SmallSparse(TcSparse):
    CORPUS_SIZE = 6
    STAGE_ROW_CAP = 60


def small_sparse(eq, seed=3):
    w = SmallSparse(seed)
    w.prepare()
    w.build(eq)
    w.attach_oracles(eq)
    return w


class SmallCli(PowersetCli):
    PROFILE_RANGE = (1, 4)
    SIZES = (3, 4)


def small_cli(eq, tmp_path, seed=5):
    w = SmallCli(seed, work_dir=str(tmp_path / f"work-{seed}"))
    w.build(eq)
    w.attach_oracles(eq)
    return w


def inputs_of(w):
    return [(q.label, tuple(q.names), sorted(q.edges)) for q in w.queries]


def test_inputs_are_identical_for_one_seed(eq, tmp_path):
    a, b, c = (TcSparse(s) for s in (11, 11, 12))
    for w in (a, b, c):
        w.prepare()
        w.build(eq)
        w.attach_oracles(eq)
    assert inputs_of(a) == inputs_of(b)
    assert [q.mutant for q in a.queries] == [q.mutant for q in b.queries]
    assert inputs_of(a) != inputs_of(c)

    p, r = TcPowerset(4), TcPowerset(4)
    for w in (p, r):
        w.prepare()
        w.build(eq)
    assert inputs_of(p) == inputs_of(r)

    files = []
    for k in range(2):
        w = small_cli(eq, tmp_path / str(k), seed=9)
        files.append([open(q.path).read() for q in w.queries[1:]])
    assert files[0] == files[1]


class OneClosure(TcPowerset):
    SOLUTION_TARGETS = (1,)


def test_correct_results_pass_every_check(eq, tmp_path):
    closure = OneClosure(6)
    closure.prepare()
    closure.build(eq)
    closure.attach_oracles(eq)
    for w in (small_sparse(eq), small_cli(eq, tmp_path), closure):
        run, setup = bench.Run(w, eq), []
        bench.observe(run)
        bench.measure(run, 0, setup)
        run.one_pass()  # after the timed set-ups, another pass must reproduce the first
        assert run.failures == []
        assert run.attempted == 3 * len(w.queries)
        assert len(setup) == bench.SETUP_REPS


def test_counts_come_from_the_program(eq):
    w = small_sparse(eq)
    observed = bench.observe(bench.Run(w, eq))
    # each digraph: the stage relation, its mutant and the harness's own check
    assert observed.checks == 3 * len(w.queries)
    assert observed.accepted == 2 * len(w.queries)
    assert observed.peak_space > 0

    p = TcPowerset(2)
    p.prepare()
    p.build(eq)
    p.attach_oracles(eq)
    p.queries = p.queries[:1]
    observed = bench.observe(bench.Run(p, eq))
    assert (observed.candidates, observed.solutions, observed.checks) == (1 << 16, 1, 0)


def test_wrong_result_counts_as_failed(eq, tmp_path):
    w = small_sparse(eq)
    good, loop = w.queries[1].run, (w.queries[1].names[0],) * 2

    def wrong():
        stage, ok, mutant_ok, tc = good()
        return stage, ok, mutant_ok, eq.model.Rel(tc.rtype, tc.rows ^ {loop})

    w.queries[1].run = wrong
    run = bench.Run(w)
    run.one_pass()
    assert len(run.failures) == 1 and "Warshall" in run.failures[0]
    line = bench.summary(run, {})
    assert (line["correct"], line["failed"], line["attempted"]) == (False, 1, len(w.queries))

    cli = small_cli(eq, tmp_path)
    text = powerset_text(cli.queries[1].atoms)
    cli.queries[1].expected = text.replace("[[]],", "", 1)  # the empty subset goes missing
    run = bench.Run(cli)
    run.one_pass()
    assert run.failures == ["construction |R|=3: stdout differs from the benchmark's subset enumeration"]


def test_refusal_counts_as_failed(eq):
    w = small_sparse(eq)

    def refused():
        raise eq.evaluator.BudgetExceeded("space", "", "test")

    w.queries[0].run = refused
    run = bench.Run(w)
    run.one_pass()
    assert len(run.failures) == 1 and "BudgetExceeded" in run.failures[0]


def test_traced_self_times_fit_in_traced_wall(eq, tmp_path):
    for w in (small_sparse(eq), small_cli(eq, tmp_path)):
        run, tracer = bench.Run(w, eq), Tracer()
        plain, traced = bench.measure_traced(run, 0, tracer)
        assert run.failures == []
        assert len(plain) == len(traced) == 1
        layers = bench.per_layer(plain, traced, tracer)
        self_total = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
        assert 0 < self_total <= layers["trace.wall_s"][0]
        assert eq.evaluator.evaluate.__module__ == "eqalg.evaluator"
        assert not hasattr(eq.evaluator.evaluate, "__wrapped__")
        assert not hasattr(eq.model.Database.__init__, "__wrapped__")
    assert layers["cli.main.calls"][0] == len(w.queries)
    assert layers["parser.render_bytes"][0] > 0


def test_traced_run_in_a_fresh_checkout(tmp_path):
    for part in ("perfbench", "src"):
        shutil.copytree(
            os.path.join(ROOT, part),
            tmp_path / part,
            ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"),
        )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = json.load(open(tmp_path / "BENCHMARK.json"))["command"]
    p = subprocess.run(
        cmd + ["--workload", "tc_sparse", "--seed", "2", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert p.returncode == 0, p.stderr
    line = json.loads(p.stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert line["metrics"]["constructions.check_run_equation.calls"]["value"] == 300
    assert (tmp_path / "perfbench" / ".work" / "trace-tc_sparse-2.json").is_file()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = json.load(open(tmp_path / "BENCHMARK.json"))["command"]
    p = subprocess.run(
        cmd + ["--workload", "tc_sparse", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""
