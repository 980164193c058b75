"""The three workloads: seeded inputs, the queries, and their oracles.

A workload is prepared in two steps.  ``build`` is the timed set-up: it builds
the expressions and the input databases through eqalg, as a user of the
package would.  ``attach_oracles`` is untimed: it computes what each query
must return with code written here from scratch, sharing nothing with eqalg,
so a change to the program cannot change what counts as correct.  All
randomness comes from ``random.Random``, seeded by a fixed corpus seed for
digraph shapes and by the run's ``--seed`` for everything else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import re
import string
from dataclasses import dataclass, field
from typing import Any, Callable

# Explicit budgets, far above what any query here needs, so a correct program
# refuses nothing.  The space cap is logical: unnesting the stage solution set
# keeps the whole nested relation in every row, which the meter counts in full.
MAX_CANDIDATES = 10**7
MAX_SPACE_UNITS = 10**12
MAX_SOLUTIONS = 10**6


@dataclass
class Query:
    label: str
    run: Callable[[], Any] | None = None
    # check(result) -> (fingerprint, error or None); the fingerprint must be
    # identical on every pass over the same input
    check: Callable[[Any], tuple] | None = None
    expected: Any = None


@dataclass
class Workload:
    seed: int
    queries: list = field(default_factory=list)
    work_dir: str = ""

    def prepare(self) -> None:
        """Seed-independent benchmark data, computed once before set-up is timed."""

    def build(self, eq) -> None:
        raise NotImplementedError

    def attach_oracles(self, eq) -> None:
        raise NotImplementedError


def atom_names(rng: random.Random, n: int) -> list[str]:
    """n distinct four-character atoms in random order; a fixed length keeps
    rendered output the same size on every seed."""
    names: set[str] = set()
    alphabet = string.ascii_lowercase + string.digits
    while len(names) < n:
        names.add(rng.choice(string.ascii_lowercase) + "".join(rng.choices(alphabet, k=3)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def closure(n: int, edges) -> set:
    """Transitive closure of a digraph on nodes 0..n-1, by Warshall's algorithm
    on reachability bitsets."""
    reach = [0] * n
    for i, j in edges:
        reach[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    return {(i, j) for i in range(n) for j in range(n) if reach[i] >> j & 1}


def _budget(eq):
    return eq.evaluator.EvalBudget(
        max_candidates=MAX_CANDIDATES, max_space_units=MAX_SPACE_UNITS, max_solutions=MAX_SOLUTIONS
    )


def _named(rows, names):
    return frozenset(tuple(names[i] for i in row) for row in rows)


# ---------------------------------------------------------------------------
# tc_powerset: the solve-bound workload


def transitive_masks() -> list[int]:
    """All transitive relations on 4 nodes, as 16-bit masks (bit 4*i+j = pair (i,j))."""
    out = []
    for m in range(1 << 16):
        rows = [(m >> (4 * i)) & 15 for i in range(4)]
        for r in rows:
            comp = 0
            for j in range(4):
                if r >> j & 1:
                    comp |= rows[j]
            if comp & ~r:
                break
        else:
            out.append(m)
    return out


class TcPowerset(Workload):
    """Transitive closure by minimising over all transitively closed supersets.

    Every query tests all 2^16 binary relations on 4 atoms.  A pass holds three
    density-0.5 digraphs with exactly 1, 3 and 6 transitively closed
    supersets, drawn once from a fixed corpus seed.  The post-solve minimality
    step grows with the square of that count and its peak space with the
    supersets' sizes, so fixed shapes keep the solve loop dominant and every
    count exact on every seed; the run's seed names the atoms, which permutes
    the nodes and reorders the candidates.
    """

    CORPUS_SEED = "tc_powerset/corpus"
    SOLUTION_TARGETS = (1, 3, 6)

    def prepare(self) -> None:
        transitive = transitive_masks()
        rng = random.Random(self.CORPUS_SEED)
        self.shapes = []
        for target in self.SOLUTION_TARGETS:
            while True:
                mask = sum(1 << b for b in range(16) if rng.random() < 0.5)
                if sum(1 for t in transitive if t & mask == mask) == target:
                    break
            self.shapes.append((target, {(b // 4, b % 4) for b in range(16) if mask >> b & 1}))

    def build(self, eq) -> None:
        m = eq.model
        expr = eq.constructions.build_tc_powerset_expr()
        budget = _budget(eq)
        rng = random.Random(f"tc_powerset/{self.seed}")
        self.queries = []
        for target, edges in self.shapes:
            names = atom_names(rng, 4)
            r = m.Rel(m.flat_type(2), _named(edges, names))
            db = m.Database(names, {"R": r})
            q = Query(f"s={target}")
            q.run = lambda db=db: eq.evaluator.evaluate(expr, db, budget)
            q.check = lambda res, q=q, r=r: self._check(eq, q, r, res)
            q.edges, q.names, q.solutions = edges, names, target
            self.queries.append(q)

    def attach_oracles(self, eq) -> None:
        for q in self.queries:
            q.expected = _named(closure(4, q.edges), q.names)

    def _check(self, eq, q, r, res):
        value, metrics = res
        solutions = sum(s.solutions_found for s in metrics.solves)
        # plain data: a set-up imports eqalg afresh, and objects of classes
        # from two imports never compare equal
        stats = [(s.candidates_tested, s.solutions_found) for s in metrics.solves]
        fp = (value.rows, metrics.peak_space_units, stats)
        if value.rows != q.expected:
            return fp, "closure differs from the benchmark's Warshall closure"
        if eq.constructions.warshall_tc(r).rows != q.expected:
            return fp, "warshall_tc differs from the benchmark's Warshall closure"
        if solutions != q.solutions:
            return fp, f"{solutions} closed supersets found, {q.solutions} exist"
        return fp, None


# ---------------------------------------------------------------------------
# tc_sparse: bulk evaluation, no candidate enumeration


def _stages(edges):
    """Per distance i: (pairs reached within i steps, within i+1, first at i+1)."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    upto = set(edges)
    power = set(edges)
    while True:
        power = {(a, d) for a, b in power for d in succ.get(b, ())}
        nxt = upto | power
        fresh = nxt - upto
        if not fresh:
            return
        yield upto, nxt, fresh
        upto = nxt


def stage_rows(edges) -> set:
    """The 6-ary stage relation on node indices: every u + v + w per stage."""
    return {u + v + w for upto, nxt, fresh in _stages(edges) for u in upto for v in nxt for w in fresh}


def stage_size(edges) -> int:
    """len(stage_rows(edges)) without building the rows; w fixes the stage."""
    return sum(len(upto) * len(nxt) * len(fresh) for upto, nxt, fresh in _stages(edges))


class TcSparse(Workload):
    """The criterion-6 family: digraphs with n in 2..8 and density min(0.5, 1.3/n).

    Per digraph: build the stage relation, check it against its equation (must
    hold), check a mutant (must fail), and run the closure harness.  The
    digraph shapes are drawn once from a fixed corpus seed and kept to stage
    relations of at most STAGE_ROW_CAP rows, so every run does the same amount
    of work; the run's seed renames and permutes the atoms, orders the queries
    and picks the mutants.  The cost per digraph follows the size of its stage
    relation, which is heavy-tailed, and a random draw of shapes per seed would
    make the pass time swing by more than any bound worth keeping.  The cap and
    the corpus size keep a pass near 2 s, so that a run times ten passes or more
    and each query's median rests on as many samples, while the slowest
    digraph still costs about ten times the p50.
    """

    CORPUS_SEED = "tc_sparse/corpus"
    CORPUS_SIZE = 100
    STAGE_ROW_CAP = 500

    def prepare(self) -> None:
        rng = random.Random(self.CORPUS_SEED)
        self.shapes = []
        while len(self.shapes) < self.CORPUS_SIZE:
            n = rng.randint(2, 8)
            density = min(0.5, 1.3 / n)
            edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
            if stage_size(edges) <= self.STAGE_ROW_CAP:
                self.shapes.append((n, edges))

    def build(self, eq) -> None:
        c, m = eq.constructions, eq.model
        budget = _budget(eq)
        flat2 = m.flat_type(2)
        rng = random.Random(f"tc_sparse/{self.seed}")
        shapes = list(self.shapes)
        rng.shuffle(shapes)
        self.queries = []
        for k, (n, edges) in enumerate(shapes):
            names = atom_names(rng, n)
            r = m.Rel(flat2, _named(edges, names))
            db = m.Database(names, {"R": r})
            q = Query(f"#{k} n={n}")

            def run(q=q, db=db, r=r):
                stage = c.build_run(r)
                return (
                    stage,
                    c.check_run_equation(db, stage, budget),
                    c.check_run_equation(db, q.mutant, budget),
                    c.tc_sparse_via_harness(db, budget),
                )

            q.run = run
            q.check = lambda res, q=q, r=r: self._check(eq, q, r, res)
            q.n, q.edges, q.names, q.db = n, edges, names, db
            self.queries.append(q)

    def attach_oracles(self, eq) -> None:
        m = eq.model
        flat6 = m.flat_type(6)
        rng = random.Random(f"tc_sparse/{self.seed}/mutants")
        for q in self.queries:
            stage = _named(stage_rows(q.edges), q.names)
            if stage and rng.random() < 0.5:
                mutant = stage - {rng.choice(sorted(stage))}
            else:
                while True:
                    foreign = tuple(rng.choice(q.names) for _ in range(6))
                    if foreign not in stage:
                        break
                mutant = stage | {foreign}
            q.stage = stage
            q.mutant = m.Rel(flat6, mutant)
            q.expected = _named(closure(q.n, q.edges), q.names)

    def _check(self, eq, q, r, res):
        run, stage_ok, mutant_ok, tc = res
        fp = (run.rows, stage_ok, mutant_ok, tc.rows)
        if run.rows != q.stage:
            return fp, "build_run differs from the benchmark's stage relation"
        if not stage_ok:
            return fp, "stage relation rejected by its equation"
        if mutant_ok:
            return fp, "mutant accepted by the stage equation"
        if tc.rows != q.expected:
            return fp, "harness closure differs from the benchmark's Warshall closure"
        if eq.constructions.warshall_tc(r).rows != q.expected:
            return fp, "warshall_tc differs from the benchmark's Warshall closure"
        return fp, None


# ---------------------------------------------------------------------------
# powerset_cli: solution output through the command line


METRIC_LINE = re.compile(r"candidates_tested (\d+), solutions_found (\d+)")
PEAK_LINE = re.compile(r"^peak_space_units (\d+)$", re.M)
PROFILE_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)$", re.M)


def powerset_text(atoms) -> str:
    """Expected stdout of the powerset construction: every subset of the atoms,
    as one-column rows in canonical order (subsets compared as sorted tuples)."""
    base = sorted(atoms)
    subsets = sorted(c for k in range(len(base) + 1) for c in itertools.combinations(base, k))
    rows = ("[[" + ",".join(f"[{a}]" for a in s) + "]]" for s in subsets)
    return "[" + ",".join(rows) + "]\n"


class PowersetCli(Workload):
    """``eqalg profile --eq powerset --n-range 1..16`` and ``eqalg construction
    --name powerset --verify`` on full unary R of 13, 14 and 15 atoms, through
    ``cli.main`` in process with stdout captured.  Every candidate is a
    solution, so this is the write side of the solver: parsing, rendering 2^n
    rows and the oracle comparison.  At 16 atoms one construction alone took
    more than half of a pass; without it a pass takes about 3.5 s, and a run
    times eight of them.
    """

    PROFILE_RANGE = (1, 16)
    SIZES = (13, 14, 15)

    def build(self, eq) -> None:
        rng = random.Random(f"powerset_cli/{self.seed}")
        budget = [
            "--max-candidates", str(MAX_CANDIDATES),
            "--max-space", str(MAX_SPACE_UNITS),
            "--max-solutions", str(MAX_SOLUTIONS),
        ]  # fmt: skip
        lo, hi = self.PROFILE_RANGE
        q = Query(f"profile n={lo}..{hi}")
        argv = ["profile", "--eq", "powerset", "--n-range", f"{lo}..{hi}", "--seed", str(self.seed)]
        q.run = lambda argv=argv + budget: _run_cli(eq, argv)
        q.check = lambda res, q=q: self._check_profile(q, res)
        self.queries = [q]
        os.makedirs(self.work_dir, exist_ok=True)
        names = atom_names(rng, max(self.SIZES))
        for size in self.SIZES:
            atoms = names[:size]
            path = os.path.join(self.work_dir, f"powerset-{size}.edb")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"domain [{','.join(atoms)}]\n")
                fh.write("R:(0) = [" + ",".join(f"[{a}]" for a in rng.sample(atoms, size)) + "]\n")
            q = Query(f"construction |R|={size}")
            argv = ["construction", "--name", "powerset", "--verify", "--metrics", "--db", path]
            q.run = lambda argv=argv + budget: _run_cli(eq, argv)
            q.check = lambda res, q=q: self._check_construction(q, res)
            q.atoms, q.path = atoms, path
            self.queries.append(q)

    def attach_oracles(self, eq) -> None:
        lo, hi = self.PROFILE_RANGE
        self.queries[0].expected = {n: 1 << n for n in range(lo, hi + 1)}
        for q in self.queries[1:]:
            q.expected = powerset_text(q.atoms)

    def _check_profile(self, q, res):
        code, out, err = res
        table = {int(n): (int(c), int(s)) for n, c, s, _ in PROFILE_ROW.findall(out)}
        fp = (code, hashlib.sha256(out.encode()).hexdigest())
        if code != 0:
            return fp, f"exit code {code}: {err.strip()[-200:]}"
        if table != {n: (k, k) for n, k in q.expected.items()}:
            return fp, "profile table does not list 2^n candidates and solutions per n"
        if "growth EXPONENTIAL_LIKE" not in out:
            return fp, "powerset growth not classified EXPONENTIAL_LIKE"
        return fp, None

    def _check_construction(self, q, res):
        code, out, err = res
        m = METRIC_LINE.search(err)
        p = PEAK_LINE.search(err)
        fp = (code, hashlib.sha256(out.encode()).hexdigest(), p and p.group(1))
        if code != 0:
            return fp, f"exit code {code}: {err.strip()[-200:]}"
        if "VERIFY PASS" not in err:
            return fp, "no VERIFY PASS on stderr"
        if out != q.expected:
            return fp, "stdout differs from the benchmark's subset enumeration"
        if not m or int(m.group(1)) != 1 << len(q.atoms) or m.group(2) != m.group(1):
            return fp, "metrics do not report 2^|R| candidates and solutions"
        return fp, None


def _run_cli(eq, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eq.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {"tc_powerset": TcPowerset, "tc_sparse": TcSparse, "powerset_cli": PowersetCli}
