"""Record references.json: figure digests and the default seed's references.

Usage, from the root of a jurylearn checkout:

    python3 perfbench/record.py

Figure digests are taken from the program as it stands; rerun only when a
change to figure bytes is intended and stated.  The default seed's
references come from reference.py, and for ``simulate`` and ``correlate``
the program's own output digest must equal the reimplementation's, which
pins the reimplementations to the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import reference
import workloads
from run import OUT_DIR, REFERENCES


def _program_output(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"{argv[:3]} exited with {code}")
    return out.getvalue()


def main() -> int:
    sys.path.insert(0, "src")
    from jurylearn import cli

    figures = {str(k): reference.sha256(_program_output(cli, ["figure", "--id", str(k)])) for k in range(1, 9)}
    default_seed = {}
    for workload in workloads.WORKLOADS:
        input_dir = os.path.join(OUT_DIR, "inputs", f"record-{workload}")
        os.makedirs(input_dir, exist_ok=True)
        ops, files = workloads.generate(workload, workloads.DEFAULT_SEED, input_dir)
        for path, text in files.items():
            with open(path, "w") as fh:
                fh.write(text)
        expected = [reference.expect(op, figures) for op in ops]
        for op, exp in zip(ops, expected):
            if op["kind"] in ("simulate", "correlate"):
                got = reference.sha256(_program_output(cli, op["argv"]))
                if got != exp["sha256"]:
                    raise SystemExit(f"{op['kind']} reimplementation disagrees with the program: {op['argv'][:3]}")
        shutil.rmtree(input_dir)
        default_seed[workload] = expected
    with open(REFERENCES, "w") as fh:
        json.dump({"figures": figures, "default_seed": default_seed}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
