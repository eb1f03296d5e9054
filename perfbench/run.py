"""jurylearn benchmark.

Usage, from the root of a jurylearn checkout:

    python3 perfbench/run.py --workload {figures,juries,sampling} --seed N --seconds S --trace {0,1}

Generates the workload's seeded op list, measures set-up time over fresh
interpreters, runs the ops in a separate worker process (see worker.py)
for S seconds, checks every op's output against the references in
reference.py, and prints a report line and then, as the last line, the
result: ``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0
the metrics are the end-to-end ones in BENCHMARK.json; with --trace 1 they
are the per-layer ones, from passes traced by tracer.py.

The work is one thread with one op in flight and no queue, so no op ever
waits for another and the benchmark reports no waiting time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import reference
import workloads
from worker import MIN_PASSES

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

SETUP_RUNS = 7
# op_tail_ms is read at the highest ladder percentile that has TAIL_SAMPLES
# samples beyond it in the fewest timed passes a run makes, so a workload
# uses the same percentile in every run.
TAIL_SAMPLES = 10
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
WORKER_TIMEOUT_S = 150

# The set-up a fresh process pays before its first op.
SETUP_PROBE = """\
import jurylearn
from jurylearn import cli, dynamics
cli.build_parser()
for name in dynamics.list_scenarios():
    dynamics.load_scenario(name)
"""


def program_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH="src" + (os.pathsep + path if path else ""),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def measure_setup(env: dict[str, str]) -> list[float]:
    command = [sys.executable, "-c", SETUP_PROBE]
    subprocess.run(command, env=env, check=True)  # writes bytecode caches; untimed
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(command, env=env, check=True)
        times.append(perf_counter() - start)
    return times


def tail_percentile(ok_ops_per_pass: int) -> float:
    samples = ok_ops_per_pass * MIN_PASSES
    usable = [q for q in TAIL_LADDER if samples * (1.0 - q / 100.0) >= TAIL_SAMPLES]
    return usable[-1] if usable else TAIL_LADDER[0]


def load_expectations(ops: list[dict], workload: str, seed: int, scale: str) -> list:
    with open(REFERENCES) as fh:
        stored = json.load(fh)
    if seed == workloads.DEFAULT_SEED and scale == "full":
        return stored["default_seed"][workload]
    return [reference.expect(op, stored["figures"]) for op in ops]


def verify(ops: list[dict], expected: list, result: dict) -> list[str]:
    """Every problem found in the worker's outputs; empty when all are right."""
    problems = []
    warm = result["warm"]
    for i, op in enumerate(ops):
        if warm["error"][i] is None:
            try:
                problem = reference.check(op, expected[i], warm["text"][i], warm["digest"][i])
            except (ValueError, IndexError, AttributeError) as exc:
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
            if problem:
                problems.append(f"op {i} ({op['kind']}): {problem}")
        for k, record in enumerate(result["passes"]):
            # later passes, traced or not, must repeat the checked output exactly
            if (record["digest"][i], record["error"][i]) != (warm["digest"][i], warm["error"][i]):
                problems.append(f"op {i} ({op['kind']}): pass {k} output differs from the first pass")
    return problems


def provenance(workload: str, seed: int, ops: list[dict]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    # the ceiling keeps git from reporting a repository that merely contains the checkout
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True, env=git_env
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "ops_per_pass": len(ops),
    }


def end_to_end(result: dict, setup_times: list[float], attempted: int, failed: int) -> tuple[dict, dict]:
    passes = result["passes"]
    latencies = [
        lat for record in passes for lat, err in zip(record["latency"], record["error"]) if err is None
    ]
    q = tail_percentile(sum(err is None for err in result["warm"]["error"]))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(record["wall"] for record in passes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(latencies, q)) * 1e3, "ms"),
        "ok_rate": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    details = {
        "passes": len(passes),
        "error_rate": failed / attempted,
        "op_tail": {"percentile": q, "samples": len(latencies), "beyond": round(len(latencies) * (1 - q / 100))},
        "setup_samples_s": setup_times,
        "pass_samples_s": [record["wall"] for record in passes],
    }
    return metrics, details


def per_layer(result: dict) -> tuple[dict, dict]:
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    layers = result["layers"]
    walls = {flag: [r["wall"] for r in result["passes"] if r["traced"] is flag] for flag in (True, False)}
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["trace.overhead"] = statistics.median(walls[True]) / statistics.median(walls[False])
    metrics = {name: (values[name], unit) for name, unit in declared.items()}
    details = {
        "traced_passes": len(walls[True]),
        "untraced_passes": len(walls[False]),
        "work_counters_per_pass": {
            name: [layer[name] for layer in layers]
            for name in (
                "votemath.fold_cells",
                "votemath.homog_terms",
                "tradeoff.evals_per_query",
                "dynamics.rk4_steps",
                "correlation.trials",
            )
        },
        "waiting": "none: one thread, one op in flight, no queue",
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the self-check's small inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "jurylearn", "cli.py")):
        print("error: run from the root of a jurylearn checkout (no src/jurylearn/cli.py here)", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-{args.scale}"
    input_dir = os.path.join(OUT_DIR, "inputs", tag)
    run_dir = os.path.join(OUT_DIR, "runs", f"{tag}-trace{args.trace}")
    os.makedirs(input_dir, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    ops, files = workloads.generate(args.workload, args.seed, input_dir, args.scale)
    for path, text in files.items():
        with open(path, "w") as fh:
            fh.write(text)
    ops_path = os.path.join(run_dir, "ops.json")
    with open(ops_path, "w") as fh:
        json.dump([op["argv"] for op in ops], fh)

    env = program_env()
    setup_times = measure_setup(env)
    result_path = os.path.join(run_dir, "worker.json")
    spans_path = os.path.join(run_dir, "spans.jsonl")
    worker = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), ops_path, result_path, str(args.seconds), str(args.trace), spans_path]
    subprocess.run(worker, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    shutil.rmtree(input_dir)
    with open(result_path) as fh:
        result = json.load(fh)

    problems = verify(ops, load_expectations(ops, args.workload, args.seed, args.scale), result)
    errors = [err for record in result["passes"] for err in record["error"]]
    errors_by_type = {err: errors.count(err) for err in set(errors) - {None}}
    attempted, failed = len(errors), sum(errors_by_type.values())
    metrics, details = per_layer(result) if args.trace else end_to_end(result, setup_times, attempted, failed)
    report = {
        "provenance": provenance(args.workload, args.seed, ops),
        "errors_by_type": errors_by_type,
        "problems": problems,
        **details,
    }
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
