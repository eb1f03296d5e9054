"""Run one workload's op list in a closed loop and write what happened as JSON.

Usage: python3 perfbench/worker.py OPS_JSON OUT_JSON SECONDS TRACE SPANS_JSONL

Runs from the root of a checkout, with jurylearn imported from ``src/``.
Each op is one ``jurylearn.cli.run(argv)`` call with stdout and stderr
captured in memory; one op is in flight at a time, in a single thread.
A first pass warms up and keeps each op's output text for the correctness
checks; timed passes follow until SECONDS have elapsed.
With TRACE=1 the timed passes alternate untraced and traced, so the
tracing overhead is measured in the same process; the spans of the first
traced pass are written to SPANS_JSONL at the end, one JSON array per line
after a first line that names the fields.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
from time import perf_counter

MIN_PASSES = 5  # untraced; a traced run makes at least two of each kind
_KEEP_TEXT = 1 << 16  # output texts up to this size go back for checking


def _run_pass(cli, argvs, tracer=None) -> tuple[dict, list[str]]:
    latencies, errors, outputs = [], [], []
    start = perf_counter()
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.run(list(argv))
                error = None if code == 0 else f"exit {code}"
            except Exception as exc:  # an op that escapes the CLI is counted, not fatal
                error = type(exc).__name__
            latencies.append(perf_counter() - t0)
        errors.append(error)
        outputs.append(out.getvalue())
    wall = perf_counter() - start
    record = {
        "wall": wall,
        "latency": latencies,
        "error": errors,
        "digest": [hashlib.sha256(text.encode()).hexdigest() for text in outputs],
        "bytes": sum(len(text.encode()) for text in outputs),
    }
    return record, outputs


def main(argv: list[str]) -> int:
    ops_path, out_path, seconds, trace, spans_path = argv[1], argv[2], float(argv[3]), argv[4] == "1", argv[5]
    sys.path.insert(0, "src")
    from jurylearn import cli

    from tracer import Tracer, layer_metrics

    with open(ops_path) as fh:
        argvs = json.load(fh)
    warm, outputs = _run_pass(cli, argvs)
    warm["text"] = [text if len(text) <= _KEEP_TEXT else None for text in outputs]
    del outputs
    passes, layers, first_spans = [], [], None
    tracer = Tracer() if trace else None
    start = perf_counter()
    min_passes = 4 if trace else MIN_PASSES
    while perf_counter() - start < seconds or len(passes) < min_passes:
        gc.collect()
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                record, _ = _run_pass(cli, argvs, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take_spans()
            layers.append(layer_metrics(spans, record["bytes"]))
            if first_spans is None:
                first_spans = spans
        else:
            record, _ = _run_pass(cli, argvs)
        record["traced"] = traced
        passes.append(record)
    result = {
        "warm": warm,
        "passes": passes,
        "layers": layers,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    if first_spans is not None:
        with open(spans_path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "error", "info"]) + "\n")
            for span in first_spans:
                fh.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
