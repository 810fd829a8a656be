"""Print the SHA-256 of every file the benchmark's commands write.

    python tools/output_digests.py

Runs each workload of perfbench/run.py (its argvs read from
_workloads, not copied) with --seed 11 --workers 1, and then
`validate --n 25000 --seed 1`, each as `python -m homesale.cli` in a
fresh interpreter writing to its own temporary --out directory.  Prints
one `<run> exit <code>` line per run and one `<run> <file> <sha256>`
line per output file, in a fixed order, so that the output of two
checkouts can be compared with diff: equal lines mean equal bytes.
Always exits 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # perfbench/checks.py
import run  # perfbench/run.py


def _runs() -> list[tuple[str, tuple[str, ...]]]:
    runs = [(name, (*wl.argv, "--seed", "11", "--workers", "1"))
            for name, wl in run._workloads(checks).items()]
    return runs + [("validate-seed-1", ("validate", "--n", "25000", "--seed", "1"))]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for name, argv in _runs():
        with tempfile.TemporaryDirectory() as out:
            code = subprocess.run([sys.executable, "-m", "homesale.cli", *argv, "--out", out],
                                  env=env, stdout=subprocess.DEVNULL).returncode
            print(f"{name} exit {code}")
            for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{name} {path.relative_to(out).as_posix()} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
