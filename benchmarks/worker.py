"""One workload in its own process, driven by run.py over stdin/stdout.

The worker imports the package from --src, warms up each layer the workload
uses, and prints {"setup_s": ...}: the time since run.py's CLOCK_MONOTONIC
reading taken just before the spawn (interpreter start, import, warm-up).
Then, by mode:

  --setup-only  exits.
  --trace 1     runs the workload's fixed number of operations untraced, then
                the same operations under the tracer, prints one JSON line of
                per-layer figures and exits.  The counts repeat exactly for a
                seed; the difference in wall time is the tracing overhead.
  default       serves: for each operation index read from stdin it runs that
                operation and prints {"op_s", "attempted", "failed"}, after
                printing {"pause": true} and waiting for a line before each
                call to one of the workload's pause points; at end of input
                it prints its peak RSS, CPU time and environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _run_ops(wl, indices) -> dict:
    attempted = failed = 0
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for i in indices:
        a, f = wl.op(i)
        attempted += a
        failed += f
    return {"attempted": attempted, "failed": failed,
            "wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - cpu0}


def _blas_threads() -> dict:
    """OpenBLAS vendor string and thread count, queried as found."""
    import ctypes
    import glob
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if getter is not None and config is not None:
                getter.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"vendor": config().decode(), "threads": getter()}
    return {"vendor": "unknown", "threads": None}


def _environment() -> dict:
    import numpy as np
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas_threads(),
            "blas_env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                         if k in os.environ}}


def _emit(obj: dict) -> None:
    # sys.__stdout__: operations redirect sys.stdout to capture the CLI output
    print(json.dumps(obj), file=sys.__stdout__, flush=True)


def _traced(wl) -> dict:
    from tracing import Tracer

    indices = range(wl.trace_ops)
    plain = _run_ops(wl, indices)
    with Tracer() as tracer:
        traced = _run_ops(wl, indices)
    layers = tracer.metrics()
    layers["bench.wall_s"] = plain["wall_s"]
    layers["bench.cpu_s"] = plain["cpu_s"]
    layers["bench.tracing_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {"attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "layers": layers}


class Handoff:
    """Pauses an operation before each call to a pause point until run.py
    answers, so run.py can interleave two workers' operations in slices; the
    time spent paused is not counted."""

    def __init__(self, points) -> None:
        from tracing import rebind

        self.paused_s = 0.0
        for home, attr in points:
            rebind(home, attr, self._pausing)

    def _pausing(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            _emit({"pause": True})
            sys.stdin.readline()
            self.paused_s += time.perf_counter() - t0
            return fn(*args, **kwargs)
        return wrapper


def _serve(wl) -> dict:
    handoff = Handoff(wl.pause_points)
    cpu0 = _cpu_s()
    while line := sys.stdin.readline():
        i = int(line)
        paused0, start = handoff.paused_s, time.perf_counter()
        attempted, failed = wl.op(i)
        op_s = time.perf_counter() - start - (handoff.paused_s - paused0)
        _emit({"op_s": op_s, "attempted": attempted, "failed": failed})
    return {"cpu_s": _cpu_s() - cpu0, "headline": wl.headline}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(args.src))
    import workloads  # imports the package found under --src

    wl = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    wl.warm_up()
    _emit({"setup_s": time.monotonic() - args.spawned_at})
    if args.setup_only:
        return 0
    result = _traced(wl) if args.trace else _serve(wl)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
