"""Tests of the benchmark itself: every gate fails on corrupted output, and
tracing is deterministic and leaves the package as it found it.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import workloads  # noqa: E402
from disentanglers import cli, core, devices, measurement, network  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402


def _ratio(attempted_failed: tuple[int, int]) -> float:
    attempted, failed = attempted_failed
    return failed / attempted


def _captured(fn, *args) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fn(*args)
    return code, buf.getvalue()


def test_verify_gate_counts_fail_lines():
    code, text = _captured(cli.main, ["verify", "--level", "fast", "--seed", "42"])
    assert _ratio(gates.verify_gate(code, text)) == 0
    bad = text.replace("PASS", "FAIL", 1)
    assert _ratio(gates.verify_gate(code, bad)) > 0
    assert _ratio(gates.verify_gate(1, text)) > 0
    assert _ratio(gates.verify_gate(0, "")) > 0


def test_table_gate_rejects_one_altered_byte(tmp_path):
    path = tmp_path / "table.csv"
    code = cli.cmd_table(1, workloads.TABLE_N_MAX, str(path))
    data = path.read_bytes()
    assert _ratio(gates.table_gate(code, data, 1, workloads.TABLE_N_MAX)) == 0
    pos = len(data) // 2
    altered = data[:pos] + bytes([data[pos] ^ 1]) + data[pos + 1:]
    assert _ratio(gates.table_gate(code, altered, 1, workloads.TABLE_N_MAX)) > 0


def _network_transcript(theta: float) -> tuple[int, str]:
    return _captured(cli.cmd_network, theta, 0.7, workloads.CASCADE_N,
                     workloads.CASCADE_SHOTS, 11)


def _replace_value(text: str, key: str, value: str) -> str:
    return "\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line
                     for line in text.splitlines())


def test_network_gate_rejects_fidelity_off_by_1e9():
    theta = 1.1
    code, text = _network_transcript(theta)
    args = (theta, workloads.CASCADE_N, workloads.CASCADE_SHOTS)
    assert _ratio(gates.network_gate(code, text, *args)) == 0
    off = _replace_value(text, "post_selected_fidelity", format(1.0 - 1e-9, ".12g"))
    assert _ratio(gates.network_gate(code, off, *args)) > 0
    p = gates.success_probability_ref(theta, workloads.CASCADE_N)
    wrong_p = _replace_value(text, "exact_success_probability", format(p * (1 + 1e-9), ".12g"))
    assert _ratio(gates.network_gate(code, wrong_p, *args)) > 0
    sigma = (p * (1 - p) / workloads.CASCADE_SHOTS) ** 0.5
    far = _replace_value(text, "empirical_plus_fraction", format(p + 6 * sigma, ".12g"))
    assert _ratio(gates.network_gate(code, far, *args)) > 0
    assert _ratio(gates.network_gate(code, "", *args)) > 0


def test_tracer_restores_every_binding():
    def bindings():
        out = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
        for cls in (core.BlochQuadrature, core.FullStateVector, devices.DeviceTransform):
            out[(cls.__name__, "__post_init__")] = cls.__dict__["__post_init__"]
        return out

    before = bindings()
    with Tracer() as tracer:
        assert network.run_cascade is not before[("disentanglers.network", "run_cascade")]
        cli.cmd_network(1.0, 0.5, 6, 100, 0)
    assert bindings() == before
    m = tracer.metrics()
    assert m["network.run_cascade.calls"] == 1
    assert m["network.apply_cnot.calls"] == 3 * 5
    assert m["network.useful_gate_ratio"] == pytest.approx(1 / 3)
    assert m["measurement.strategy_integral.calls"] == 0
    assert measurement.strategy_integral.__module__ == "disentanglers.measurement"


@pytest.mark.parametrize("workload", ["table-sweep", "cascade-n20"])
def test_traced_calls_repeat_across_processes(workload, tmp_path):
    def traced_calls():
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--src", str(HERE.parent / "src"),
             "--workload", workload, "--seed", "5", "--trace", "1",
             "--work-dir", str(tmp_path), "--spawned-at", repr(time.monotonic())],
            capture_output=True, text=True, timeout=170, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert res["failed"] == 0
        return {k: v for k, v in res["layers"].items() if k.endswith(".calls")}

    first = traced_calls()
    assert any(first.values())
    assert traced_calls() == first


def test_run_reports_every_end_to_end_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "table-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())
