"""Fast self-check of the benchmark (well under a minute).

Usage, from the root of a jurylearn checkout:

    python3 perfbench/selfcheck.py

* A fixed seed regenerates identical argv and input files; another seed
  gives different ones; the stratified work of every workload stays within
  a few percent across seeds.
* The default seed's stored references equal freshly computed ones.
* Each workload runs at tiny size, untraced and traced: every op is
  correct and every end-to-end and per-layer metric in BENCHMARK.json is
  reported with its unit, and nothing else.
* Without a jurylearn source tree the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import reference
import workloads
from run import BENCH_DIR, OUT_DIR, REFERENCES

WORK_TOLERANCE = 0.05


def _require(condition: bool, message) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def _work(ops: list[dict]) -> dict[str, int]:
    """Work the stratified sizes carry, computed from the op parameters."""
    work = {"fold_cells": 0, "homog_terms": 0, "votes": 0, "pairs": 0}
    for op in ops:
        p = op["params"]
        if op["kind"] == "majority_hetero":
            work["fold_cells"] += len(p["probs"]) * (len(p["probs"]) + 1) // 2
        elif op["kind"] == "majority_homog" and p["n"] < workloads.OVERFLOW_N:
            work["homog_terms"] += p["n"] - p["n"] // 2
        elif op["kind"] == "correlate" and p["model"]["kind"] != "exactmajority":
            model = p["model"]
            work["votes"] += p["trials"] * (model["n"] if "n" in model else len(model["probs"]))
        elif op["kind"] == "ladha":
            work["pairs"] += len(p["probs"]) ** 2 // 2
    return work


def check_generation() -> None:
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 1, "inputs")
        _require(first == workloads.generate(workload, 1, "inputs"), f"{workload}: seed 1 is not reproducible")
        _require(first[0] != workloads.generate(workload, 2, "inputs")[0], f"{workload}: seeds 1 and 2 agree")
        totals = [_work(workloads.generate(workload, seed, "inputs")[0]) for seed in range(1, 6)]
        for key in totals[0]:
            values = [t[key] for t in totals]
            if max(values):
                spread = (max(values) - min(values)) / max(values)
                _require(spread <= WORK_TOLERANCE, f"{workload}: {key} varies {spread:.1%} across seeds")


def check_stored_references() -> None:
    with open(REFERENCES) as fh:
        stored = json.load(fh)
    for workload in workloads.WORKLOADS:
        ops, _ = workloads.generate(workload, workloads.DEFAULT_SEED, "inputs")
        fresh = json.loads(json.dumps([reference.expect(op, stored["figures"]) for op in ops]))
        _require(fresh == stored["default_seed"][workload], f"{workload}: stored references are stale")


def _run(args: list[str], cwd: str = ".") -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)


def check_runs() -> None:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            done = _run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"])
            _require(done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            _require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            _require(result["correct"], done.stdout.splitlines()[-2])
            _require(result["attempted"] >= 1, f"{workload} trace {trace}: nothing attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _require(got == {m["name"]: m["unit"] for m in declared}, f"{workload} trace {trace}: metric names or units differ")
            numbers = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            _require(numbers, f"{workload} trace {trace}: a metric value is not a number")


def check_bare_directory() -> None:
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, BENCH_DIR), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    done = _run(["--workload", "juries", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    _require(done.returncode != 0 and not done.stdout.strip(), "a directory without src/ must fail without a result")


def main() -> int:
    check_generation()
    check_stored_references()
    check_runs()
    check_bare_directory()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
