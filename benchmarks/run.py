"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json from the root of a source checkout; the
package is imported from `src/`, nothing is installed.  Workers are fresh
processes (worker.py); only one of them computes at any time, with a single
caller and no threads beyond numpy's own BLAS pool, recorded as found.

--trace 0  spawns SETUP_SPAWNS program workers in turn (`setup_s` is the
           median of their set-up times); the last one, and then a worker
           running the frozen reference copy of the package under
           reference/src, stay up.  For --seconds the two run the workload's
           operations in pairs, interleaved in slices and alternating which
           goes first, so both see the same machine speed.  `op_ratio` is the
           median over pairs of program time over reference time; host speed
           drifts cancel in it, which they do not in raw seconds on a shared
           machine.  `peak_rss_mb` is the program worker's peak RSS.
--trace 1  one program worker runs a fixed number of operations untraced
           and again traced, and prints the per-layer metrics.

The last line of stdout is the result JSON (correct, attempted, failed,
metrics); the lines before it are the run header and the metrics in words,
including the program's raw time per operation.  The harness pins no CPU,
drops no cache and changes no machine or BLAS setting.  Exit code 2 (and no
result) when the checkout lacks `src/` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-full", "table-sweep", "cascade-n20")
PROGRAM_SRC = ROOT / "src"
REFERENCE_SRC = HERE / "reference" / "src"
SETUP_SPAWNS = 3
# A worker process keeps its heap for life, and whether that heap got huge
# pages is luck that differs between the two workers of a run; on cascade-n20
# (16 MiB arrays) it moved op_ratio by up to 14%, so that workload takes a
# fresh pair of workers for every pair of operations.
RESTART_EVERY = {"cascade-n20": 1}
DEADLINE_S = 170.0
NOTE = ("this harness pins no CPU, drops no cache, and sets no machine or BLAS "
        "setting; BLAS threads are recorded as found")


class BenchError(RuntimeError):
    pass


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Worker:
    """A worker process answering one JSON line per request, within a deadline."""

    def __init__(self, args, src: Path, work_dir: Path, deadline: float,
                 setup_only: bool = False) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        cmd += ["--spawned-at", repr(time.monotonic())]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def reply(self) -> dict:
        timeout = max(self.deadline - time.monotonic(), 0.0)
        if not select.select([self.proc.stdout], [], [], timeout)[0]:
            raise BenchError("worker exceeded the run deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, line: str) -> dict:
        self.proc.stdin.write(f"{line}\n")
        self.proc.stdin.flush()
        return self.reply()

    def finish(self) -> dict:
        """Close the worker's input and return its last line."""
        self.proc.stdin.close()
        result = self.reply()
        self.close()
        return result

    def close(self) -> None:
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        if self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0)) != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def _interleaved(order: list[Worker], i: int) -> dict:
    """Run operation i on every worker, one slice (up to the next pause) of
    each in turn; only one worker runs at any time."""
    done: dict = {}
    started = set()
    while len(done) < len(order):
        for w in order:
            if w not in done:
                reply = w.send("go" if w in started else str(i))
                started.add(w)
                if not reply.get("pause"):
                    done[w] = reply
    return done


def _pairs(args, start) -> dict:
    """Closed loop of operation pairs for --seconds (at least one pair): the
    program's and the reference's operation i run interleaved, alternating
    which goes first.  Both workers are restarted every RESTART_EVERY pairs
    (never by default)."""
    out: dict = {"ratios": [], "program_s": [], "reference_s": [], "setups": [],
                 "rss_mb": [], "cpu_s": 0.0, "attempted": 0, "failed": 0}
    every = RESTART_EVERY.get(args.workload)
    program = reference = None

    def retire() -> None:
        summary = program.finish()
        reference.finish()
        out["rss_mb"].append(summary["peak_rss_mb"])
        out["cpu_s"] += summary["cpu_s"]
        out.update(headline=summary["headline"], environment=summary["environment"])

    t0 = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - t0 < args.seconds:
        if program is None or (every and i % every == 0):
            if program is not None:
                retire()
            program = start(PROGRAM_SRC, "program")
            out["setups"].append(program.reply()["setup_s"])
            reference = start(REFERENCE_SRC, "reference")
            reference.reply()
        replies = _interleaved([program, reference] if i % 2 == 0 else
                               [reference, program], i)
        p, r = replies[program], replies[reference]
        out["program_s"].append(p["op_s"])
        out["reference_s"].append(r["op_s"])
        out["ratios"].append(p["op_s"] / r["op_s"])
        out["attempted"] += p["attempted"]
        out["failed"] += p["failed"]
        i += 1
    retire()
    return out


def measure(args, spec: dict, work_dir: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    workers: list[Worker] = []

    def start(src: Path, sub: str, setup_only: bool = False) -> Worker:
        w = Worker(args, src, work_dir / sub, deadline, setup_only)
        workers.append(w)
        return w

    try:
        if args.trace:
            program = start(PROGRAM_SRC, "program")
            setups = [program.reply()["setup_s"]]
            res = program.finish()
        else:
            res = _pairs(args, start)
            setups = res["setups"]
            while len(setups) < SETUP_SPAWNS:
                w = start(PROGRAM_SRC, "program", setup_only=True)
                setups.append(w.reply()["setup_s"])
                w.close()
    finally:
        for w in workers:
            w.stop()
    res["setup_runs"] = setups

    ratio = res["failed"] / res["attempted"]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = {**res["layers"], "bench.failed_ratio": ratio}
        for n in names:
            if n not in values:  # a traced function no longer exists under that name
                print(f"# warning: {n} not produced; reported as 0", file=sys.stderr)
        values = {n: values.get(n, 0) for n in names}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setups),
                  "op_ratio": statistics.median(res["ratios"]),
                  "peak_rss_mb": statistics.median(res["rss_mb"])}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise BenchError(f"end-to-end metrics {sorted(values)} != {sorted(units)}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return res, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        print("run.py: need --seed >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "disentanglers" / "__init__.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
              "affinity_cpus": len(os.sched_getaffinity(0)),
              "loadavg_1m_at_start": os.getloadavg()[0], "note": NOTE}
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        res, metrics = measure(args, spec, work_dir)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    header.update(res["environment"])
    print(f"# header {json.dumps(header)}")
    print(f"# {NOTE}")
    ratio = res["failed"] / res["attempted"]
    if not args.trace:
        name, unit, work = res["headline"]
        op_s = statistics.median(res["program_s"])
        print(f"# {args.workload}: {len(res['ratios'])} pairs; program "
              f"{name} = {op_s if work is None else work / op_s:.6g} {unit}; "
              f"median op program {op_s:.4f} s, reference "
              f"{statistics.median(res['reference_s']):.4f} s; "
              f"program cpu_s {res['cpu_s']:.3f} over op wall_s {sum(res['program_s']):.3f}")
        print(f"# {args.workload}: ratios {['%.4f' % r for r in res['ratios']]}; "
              f"setups {['%.4f' % s for s in res['setup_runs']]}")
    for name, m in metrics.items():
        print(f"# {args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload}  failed_ratio = {ratio:.6g} 1 "
          f"({res['failed']}/{res['attempted']})")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
