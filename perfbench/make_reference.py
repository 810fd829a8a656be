"""Regenerate perfbench/reference.json, the many-path reference that the
`paths` workload's output check compares against.

Run from the root of a checkout:  python3 perfbench/make_reference.py

It runs the `paths` workload's payoff-path command with REF_PATHS rate
paths and a seed no benchmark run uses, and stores t, payoff and stderr.
Takes about a minute on one core.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, "src")

from homesale import cli  # noqa: E402

import checks  # noqa: E402
import run as bench  # noqa: E402

REF_PATHS = 400
REF_SEED = 2**31 - 1      # outside the range run.py draws child seeds from


def main() -> None:
    argv = list(bench._workloads(checks)["paths"].argv)
    i = argv.index("--n-paths")
    argv[i + 1] = str(REF_PATHS)
    out = bench.WORK / "reference"
    shutil.rmtree(out, ignore_errors=True)
    rc = cli.main([*argv, "--seed", str(REF_SEED), "--workers", "1", "--out", str(out)])
    if rc != 0:
        sys.exit(f"payoff-path exited {rc}")
    _, rows = checks.read_csv(out / "payoff_path.csv")
    shutil.rmtree(out)
    cols = list(zip(*[[float(v) for v in row] for row in rows]))
    ref = {"paths": {"argv": argv, "seed": REF_SEED, "n_paths": REF_PATHS,
                     "t": cols[0], "payoff": cols[1], "stderr": cols[2]}}
    Path(checks.REFERENCE).write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
