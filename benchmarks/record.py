"""Run every workload over several seeds and summarise; optionally write a
BENCH_*.json point of the performance trajectory.

    python3 benchmarks/record.py --seeds 1-10 [--workloads verify-full ...]
                                 [--out benchmarks/BENCH_x.json]

Per workload it runs run.py once per seed with tracing off, one after the
other, at BENCHMARK.json's run_seconds; then twice traced at TRACE_SEED.
It prints every end-to-end metric by name and unit with its median,
quartiles and spread (quartile distance over median) against the metric's
bound, the failed ratio, and whether the two traced runs gave identical
`.calls` counts.  Exit code 1 when a run fails its gates, a spread other
than setup_s exceeds a third of its bound, or traced counts differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_SEED = 7


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    header = next(json.loads(l[len("# header "):]) for l in lines if l.startswith("# header "))
    return header, json.loads(lines[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / med if med else float("inf")
    return {"values": values, "min": min(values), "q1": q1, "median": med, "q3": q3,
            "spread": spread, "bound": bound}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    report = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    ok = True
    for wl in args.workloads:
        runs = []
        for seed in seeds:
            header, res = run_once(wl, seed, seconds, 0)
            report.setdefault("header", header)
            runs.append({"seed": seed, "loadavg_1m_at_start": header["loadavg_1m_at_start"],
                         **res})
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry = {"failed_ratio": {"value": failed / attempted, "unit": "1",
                                  "failed": failed, "attempted": attempted},
                 "end_to_end": {}, "runs": runs}
        ok &= failed == 0
        print(f"== {wl}: failed_ratio = {failed / attempted:.3g} 1 ({failed}/{attempted})")
        for name in units:
            s = summarise([r["metrics"][name]["value"] for r in runs], bounds[name])
            s["unit"] = units[name]
            entry["end_to_end"][name] = s
            steady = name == "setup_s" or s["spread"] < s["bound"] / 3
            ok &= steady
            print(f"== {wl}: {name} median {s['median']:.5g} {s['unit']} "
                  f"[q1 {s['q1']:.5g}, q3 {s['q3']:.5g}] spread {s['spread']:.2%} "
                  f"(bound {s['bound']:.0%}{'' if steady else ', NOT below a third'})")
        traced = [run_once(wl, TRACE_SEED, seconds, 1)[1] for _ in range(2)]
        calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
                 for t in traced]
        repeat = calls[0] == calls[1]
        ok &= repeat and all(t["failed"] == 0 for t in traced)
        entry["per_layer"] = {"seed": TRACE_SEED, "calls_repeat": repeat,
                              "runs": [{k: v["value"] for k, v in t["metrics"].items()}
                                       for t in traced]}
        print(f"== {wl}: traced .calls repeat across two runs of seed "
              f"{TRACE_SEED}: {repeat}; tracing_overhead_s = "
              f"{[t['metrics']['bench.tracing_overhead_s']['value'] for t in traced]}")
        report["workloads"][wl] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
