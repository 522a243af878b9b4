"""fanostat benchmark: fit, scan and oracle workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: the next operation starts
when the previous one has ended, on one thread (BLAS is held to one thread
unless the environment says otherwise).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs each operation untraced and then
traced, and reports the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads, metrics and first baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("fit", "scan", "oracle")
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
    "op_s": "s",
    "op_err": "1",
    "T_err": "1",
    "g2zero_err": "1",
    "g2trace_err": "1",
}


def use_checkout_source():
    """Put the checkout's ``src`` first on the path; False if it is missing."""
    if not (SRC / "fanostat" / "__init__.py").is_file():
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    return True


def setup_seconds(spec):
    """Median set-up time over fresh interpreters (import + first evaluation)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(spec)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def timed(workload, item, tracer=None):
    """Run one operation; return its wall time and whether it passed."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(item)
        else:
            with tracer.operation(f"op.{workload.name}"):
                result = workload.run(item)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, False
    return time.perf_counter() - t0, workload.check(item, result)


def measure(workload, seconds, tracer=None):
    """Whole passes over the workload's operations, about ``seconds`` long.

    Passes run while one more would bring the run nearer to ``seconds``,
    so a run is the whole number of passes nearest to ``seconds`` (at least
    one). Returns the wall times of the operations,
    those of their traced repeats and the number of failures. With a tracer,
    each operation runs untraced and then at once traced, so the overhead
    compares like with like.
    """
    import layers

    times, traced, failed = [], [], 0
    start = time.perf_counter()
    passes = 0
    while True:
        for item in workload.items():
            dt, ok = timed(workload, item)
            times.append(dt)
            failed += not ok
            if tracer is not None:
                patches = layers.install(tracer)
                try:
                    dt, ok = timed(workload, item, tracer)
                finally:
                    patches.restore()
                traced.append(dt)
                failed += not ok
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return times, traced, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not use_checkout_source():
        print(f"error: no fanostat sources under {SRC}", file=sys.stderr)
        return 2

    import layers
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        w = workloads.make(args.workload, args.seed, workdir)
        if args.trace:
            w.warmup()
            tracer = Tracer()
            plain, traced, failed = measure(w, args.seconds, tracer)
            tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
            for name, secs in sorted(layers.inclusive_per_call(tracer).items()):
                print(f"per call, inclusive: {name} {secs * 1e3:.3f} ms", file=sys.stderr)
            if tracer.absent:
                print(f"absent (reported as zero calls): {', '.join(tracer.absent)}",
                      file=sys.stderr)
            metrics = layers.metrics(tracer, len(traced), sum(traced) / sum(plain) - 1.0)
            attempted = len(plain) + len(traced)
        else:
            setup = setup_seconds(w.probe())
            w.warmup()
            times, _, failed = measure(w, args.seconds)
            attempted = len(times)
            values = {
                "setup_s": setup,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": (attempted - failed) / attempted,
                # the mean, not the median: see "Mean over the run" in README.md
                "op_s": statistics.fmean(times),
                **w.accuracy(),
            }
            metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
