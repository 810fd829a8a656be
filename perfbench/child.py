"""One timed homesale CLI call in a fresh process.

Usage: python3 perfbench/child.py SPAWN_NS OUT_DIR TRACE CLI_ARGS...

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process, so set-up time covers interpreter start and the package import.
The command's own stdout goes to OUT_DIR/stdout.txt; this process prints
one JSON line of measurements.  With TRACE=1 the layer boundaries are
wrapped (perfbench/tracing.py) and the spans are saved to
OUT_DIR/spans.npz after the call.
"""

import sys
import time


def calibrate(reps: int = 3) -> float:
    """Seconds the machine takes, right now, for a fixed ~17 ms kernel.

    The kernel mixes the kinds of work the homesale layers do:
    interpreted float arithmetic, small numpy calls, and random draws on
    large arrays.  The minimum over a few repetitions drops jitter
    shorter than one repetition but follows slowdowns that last longer,
    which are the ones that also slow a whole CLI call.
    """
    import math

    import numpy as np
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0.0
        for i in range(100_000):
            x += math.exp(-i * 1e-6)
        a = np.arange(1000.0)
        for _ in range(1000):
            a = np.sqrt(a + 1.0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x += float(np.sort(rng.uniform(size=100_000))[-1])
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    spawn_ns = int(sys.argv[1])
    sys.path.insert(0, "src")
    from homesale import cli
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9

    import contextlib
    import json
    import os
    import resource

    out_dir, trace, argv = sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    tracer = None
    if trace:
        import tracing  # found beside this script
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cal_before = calibrate()
    with open(os.path.join(out_dir, "stdout.txt"), "w") as fh, \
            contextlib.redirect_stdout(fh):
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    cal_after = calibrate()
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": [cal_before, cal_after],
    }
    if tracer is not None:
        tracer.save(os.path.join(out_dir, "spans.npz"))
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing"] = tracer.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
