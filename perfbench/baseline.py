"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in BENCHMARK.json: two sets of one run per seed 1..SEEDS,
then REPEAT back-to-back runs of seed 1 and one traced run of seed 1, each in
a fresh process.  For each metric the summary gives the values, their median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  For each end-to-end
metric it also gives how much worse the second set's median is than the
first's, as a share of the first, and whether that and both spreads are
within the metric's bound.  The environment is recorded with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10
REPEAT = 3


def environment() -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def one_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]  # fmt: skip
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    out["seed"] = seed
    out["run_s"] = time.perf_counter() - t0
    print(f"{workload} seed={seed} trace={trace} {out['run_s']:.1f}s correct={out['correct']}", flush=True)
    return out


def summary(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "values": values, "median": med}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        out[name] = entry
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "run_s": [round(r["run_s"], 1) for r in runs],
        "metrics": out,
    }


def agreement(bench: dict, first: dict, second: dict) -> dict:
    """Per end-to-end metric: the second set's median change and whether the
    two sets meet the metric's bound (spreads apart from setup_s's)."""
    out = {}
    for m in bench["end_to_end"]:
        a, b = first["metrics"][m["name"]], second["metrics"][m["name"]]
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (b["median"] - a["median"]) / a["median"]
        spreads_ok = m["name"] == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
        ok = spreads_ok and worse <= m["bound"]
        out[m["name"]] = {"bound": m["bound"], "worse": worse, "ok": ok}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    result = {"environment": environment(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        seeds = range(1, SEEDS + 1)
        sets = [summary([one_run(bench, name, s, 0) for s in seeds]) for _ in range(2)]
        again = [one_run(bench, name, 1, 0) for _ in range(REPEAT)]
        traced = one_run(bench, name, 1, 1)
        result["workloads"][name] = {
            "seeds": sets[0],
            "seeds_again": sets[1],
            "agreement": agreement(bench, *sets),
            "back_to_back_seed_1": summary(again),
            "traced_seed_1": summary([traced]),
        }
        with open(args.out, "w", encoding="utf-8") as fh:  # after every workload
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
