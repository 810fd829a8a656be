"""homesale benchmark: CLI workloads timed end to end, plus a traced layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload surface --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one report

Each run starts fresh child processes one at a time (perfbench/child.py);
each child calls homesale.cli.main(argv) in-process with --workers 1 and
--seed, and the run checks the files it wrote
(perfbench/checks.py).  Children are started until --seconds have
passed.  With --trace 0 the run reports the end-to-end metrics, each the
median over the children.  With --trace 1 every untraced child is
followed by a traced one on the same seed, and the run reports per-layer
metrics (medians over the traced children) and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are the human-readable report and a JSON
line with the machine stamp and the SHA-256 of every output file.
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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK = Path(".perfbench_work")

MIN_CHILDREN = 3          # per run, whatever --seconds says
RUN_LIMIT_S = 150.0       # stop starting children after this, so a run ends in time
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    units: int             # work units one call performs, for throughput
    unit: str              # what one unit is
    check: Callable        # (out_dir, seed, rng) -> list of problems
    exit_codes: tuple[int, ...] = (0,)
    # per-layer metric that must equal another metric (or a number) on
    # every traced call; catches a layer boundary the tracer missed
    selfcheck: tuple[str, str | int] | None = None


def _workloads(checks) -> dict[str, Workload]:
    n_paths, t_steps = 10, 20
    # ten posting times far enough apart that their rates, and so the
    # attempts' lengths, average out across seeds
    n_reps, times = 750, "2,4,6,8,10,12,14,16,18,20"
    return {
        "surface": Workload(
            ("sweep", "--x", "lam:1:12:24", "--y", "r:0.02:0.3:24"), 24 * 24, "cells",
            checks.check_surface, selfcheck=("closed_form.calls", "owt.evals")),
        "paths": Workload(
            ("payoff-path", "--mode", "changing", "--t-steps", str(t_steps),
             "--n-paths", str(n_paths)), n_paths * t_steps, "path x horizon evaluations",
            lambda out, seed, rng: checks.check_paths(out, seed, rng, n_paths),
            selfcheck=("stochastic.cir_calls", n_paths * t_steps)),
        "evolve": Workload(
            ("evolve", "--horizon", "200"), 200, "simulated years", checks.check_evolve),
        "price": Workload(
            ("expected-price", "--times", times, "--n-reps", str(n_reps)),
            len(times.split(",")) * n_reps, "sale attempts",
            lambda out, seed, rng: checks.check_price(out, seed, rng, n_reps),
            selfcheck=("stochastic.nhpp_calls", "market_sim.attempts")),
        "oracle": Workload(
            ("validate", "--n", "25000"), 25000, "MC replications per check",
            checks.check_oracle, exit_codes=(0, 1)),
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_stamp() -> dict:
    import numpy

    import homesale
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level = _read(idx / "level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(idx / "size").strip()
    commit = "unknown"
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for f in sorted(Path("src/homesale").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "homesale": homesale.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _sha256s(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.name not in ("stdout.txt", "spans.npz")}


class Run:
    """One workload at one seed: starts the children and collects results.

    Every child makes the same call (the workload's argv with --seed), so
    the children are repeated measurements of one input.
    """

    def __init__(self, name: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, checks):
        self.name, self.wl, self.seed, self.seconds, self.trace = name, wl, seed, seconds, trace
        self.work = work
        self.checks = checks
        self.attempted = 0
        self.failed = 0
        self.plain: list[dict] = []      # untraced successful children
        self.traced: list[dict] = []     # traced successful children
        self.problems: list[str] = []
        self._verdicts: dict[str, list[str]] = {}   # output digest -> problems

    def child(self, i: int, traced: bool, deadline: float) -> None:
        out = self.work / f"c{i}{'t' if traced else ''}"
        out.mkdir()
        argv = [*self.wl.argv, "--seed", str(self.seed), "--workers", "1", "--out", str(out)]
        self.attempted += 1
        timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(time.monotonic_ns()), str(out),
                 "1" if traced else "0", *argv],
                capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self.fail(f"timed out after {timeout:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self.fail(f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        res = json.loads(lines[-1])
        if res["rc"] not in self.wl.exit_codes:
            return self.fail(f"homesale exit code {res['rc']}")
        res["sha256"] = _sha256s(out)
        # identical bytes get the same verdict, so check each distinct output once
        digest = json.dumps(res["sha256"], sort_keys=True)
        if digest not in self._verdicts:
            self._verdicts[digest] = self.wl.check(out, self.seed,
                                                   np.random.default_rng(self.seed))
        problems = self._verdicts[digest]
        if problems:
            return self.fail("; ".join(problems[:5]))
        if traced:
            res["layers"]["cli.rows_written"] = self.checks.count_rows(out)
            shutil.move(str(out / "spans.npz"),
                        str(self.work.parent / f"spans-{self.name}-s{self.seed}.npz"))
            self.traced.append(res)
        else:
            self.plain.append(res)
        shutil.rmtree(out)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)

    def execute(self) -> None:
        start = time.monotonic()
        hard_deadline = start + RUN_LIMIT_S
        i = 0
        while True:
            self.child(i, False, hard_deadline)
            if self.trace:
                self.child(i, True, hard_deadline)
            i += 1
            now = time.monotonic()
            if now >= hard_deadline or (now - start >= self.seconds and i >= MIN_CHILDREN):
                break


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


# Seconds the calibration kernel (child.py) takes on the machine the
# benchmark was defined on when that machine is quiet: a 2-vCPU Intel Xeon
# KVM guest, Python 3.11.7, numpy 2.4.6.
REFERENCE_CALIBRATION_S = 0.018


def speed_factor(child: dict) -> float:
    """Scale that converts the child's times to reference speed.

    Other tenants of a shared host slow the CPU by up to ~1.7x for
    seconds at a time.  The child times a fixed kernel just before and
    just after its call; dividing by that time cancels most of such a
    slowdown, which a median over children cannot when it covers a
    whole run.
    """
    return REFERENCE_CALIBRATION_S / statistics.fmean(child["calibration_s"])


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "throughput": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def end_to_end(run: Run) -> tuple[dict[str, dict], dict[str, dict]]:
    """Medians over the children: times at reference speed, and as measured."""
    scaled: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    raw: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    for c in run.plain:
        f = speed_factor(c)
        for name in ("setup_s", "wall_s", "cpu_s"):
            scaled[name].append(c[name] * f)
            raw[name].append(c[name])
        scaled["throughput"].append(run.wl.units / (c["wall_s"] * f))
        raw["throughput"].append(run.wl.units / c["wall_s"])
        scaled["peak_rss_mb"].append(c["peak_rss_mb"])
        raw["peak_rss_mb"].append(c["peak_rss_mb"])

    def summarize(samples):
        out = {}
        for name, unit in END_TO_END_UNITS.items():
            xs = samples[name]
            q1, med, q3 = _quartiles(xs) if xs else (0.0, 0.0, 0.0)
            out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(xs)}
        return out

    return summarize(scaled), summarize(raw)


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_step"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(run: Run) -> tuple[dict[str, dict], list[str]]:
    traced = run.traced
    names = sorted({k for c in traced for k in c["layers"]}) if traced else []
    metrics = {}
    for name in names:
        unit = _layer_unit(name)
        power = {"s": 1, "ns": 1, "1/s": -1}.get(unit, 0)
        med = statistics.median(c["layers"][name] * speed_factor(c) ** power for c in traced)
        metrics[name] = {"value": med, "unit": unit}
    broken = []
    if run.wl.selfcheck:
        lhs, rhs = run.wl.selfcheck
        for c in traced:
            want = c["layers"][rhs] if isinstance(rhs, str) else rhs
            if c["layers"][lhs] != want:
                broken.append(f"{lhs}={c['layers'][lhs]} != {rhs} ({want})")
    missing = sorted({m for c in traced for m in c["missing"]})
    traced_wall = (statistics.median(c["wall_s"] * speed_factor(c) for c in traced)
                   if traced else 0.0)
    plain_wall = (statistics.median(c["wall_s"] * speed_factor(c) for c in run.plain)
                  if run.plain else 0.0)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.selfcheck_failures"] = {"value": len(broken), "unit": "count"}
    return metrics, broken + [f"binding missing: {m}" for m in missing]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report(run: Run, e2e: dict, raw: dict, layers: dict | None,
           notes: list[str]) -> list[str]:
    wl = run.wl
    lines = [f"== {run.name}  seed={run.seed}  homesale {' '.join(wl.argv)}",
             f"   children: {run.attempted} attempted, {run.failed} failed, "
             f"failed_frac={_fmt(run.failed / max(run.attempted, 1))}"]
    for p in run.problems:
        lines.append(f"   FAILED {p}")
    lines.append(f"   {'metric':<12} {'median':>12} {'unit':<6} {'q1':>10} {'q3':>10}"
                 f"   as measured: {'median':>10} {'q1':>10} {'q3':>10}   n")
    for name, m in e2e.items():
        r = raw[name]
        lines.append(f"   {name:<12} {_fmt(m['value']):>12} {m['unit']:<6} {_fmt(m['q1']):>10} "
                     f"{_fmt(m['q3']):>10}                {_fmt(r['value']):>10} "
                     f"{_fmt(r['q1']):>10} {_fmt(r['q3']):>10}   {m['n']}")
    lines.append(f"   throughput unit: {wl.unit} per second; times in the first columns are "
                 f"at reference speed")
    if layers is not None:
        self_s = {layer: layers[f"{layer}.self_s"]["value"] for layer in LAYERS}
        total = sum(self_s.values()) or 1.0
        share = "  ".join(f"{layer} {100 * t / total:.0f}%" for layer, t in self_s.items())
        lines.append(f"   traced self time by layer: {share}")
        for name, m in layers.items():
            lines.append(f"   {name:<34} {_fmt(m['value']):>14} {m['unit']}")
        for note in notes:
            lines.append(f"   SELF-CHECK {note}")
    return lines


def run_workload(name: str, wl: Workload, args, checks) -> tuple[Run, dict]:
    work = WORK / f"{name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(name, wl, args.seed, args.seconds, bool(args.trace), work, checks)
        run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e, raw = end_to_end(run)
    layers, notes = per_layer(run) if args.trace else (None, [])
    for line in report(run, e2e, raw, layers, notes):
        print(line)
    for note in notes:
        print(f"{name}: {note}", file=sys.stderr)
    for p in run.problems:
        print(f"{name}: FAILED {p}", file=sys.stderr)
    metrics = layers if args.trace else e2e
    return run, {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="surface, paths, evolve, price, oracle, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/homesale/cli.py").is_file():
        print("error: run from the root of a homesale checkout (src/homesale not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    import checks
    workloads = _workloads(checks)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads)} or all")

    WORK.mkdir(exist_ok=True)
    # untimed: compile and cache the package so the first child does not pay for it
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import homesale.cli"])
    stamp = machine_stamp()
    print(f"machine: {json.dumps(stamp)}")
    runs, metrics = [], {}
    for name in names:
        run, m = run_workload(name, workloads[name], args, checks)
        runs.append(run)
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"stamp": stamp, "seed": args.seed, "trace": args.trace,
                      "children": {r.name: r.plain for r in runs}}))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
