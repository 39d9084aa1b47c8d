"""The three workloads.  Each is a closed loop with one caller: operation i+1
starts only after operation i has returned.  Inputs come from the workload
seed alone; every operation's output goes through its gate in `gates`.

verify-full  one `verify --level full --seed S` pass, S = the workload seed.
             Concentrates the two search layers (measurement-bound oracle,
             device optimizers); its network checks stay at n <= 12, where
             per-call overhead dominates.
table-sweep  `cmd_table(1, TABLE_N_MAX, file)` and a sha256 of the file.
             Closed forms plus cli formatting only; bypasses quadrature, both
             searches and the cascade, so optimising those must not move it.
cascade-n20  `cmd_network(theta, phi, 20, 10**5, s)` with (theta, phi, s)
             drawn from the workload seed.  The dense statevector at its CLI
             cap, bound by memory traffic (16 MiB of amplitudes per gate).
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from disentanglers import cli, devices, measurement, network
from disentanglers.core import BlochQuadrature, PureQubit, bloch_average, dilute_angle

import gates

TABLE_N_MAX = 50_000
CASCADE_N = 20
CASCADE_SHOTS = 100_000


def _captured(fn, *args) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fn(*args)
    return code, buf.getvalue()


# One small call into each layer, so imports and lazy set-up are paid before
# the measured phase.

def _warm_core(work_dir: Path) -> None:
    quad = BlochQuadrature(8, 8)
    bloch_average(lambda th, ph: np.cos(th) ** 2, quad)
    dilute_angle(1.0, 3)


def _warm_devices(work_dir: Path) -> None:
    t = devices.universal_disentangler(3)
    devices.device_avg_fidelity(t)
    devices.pointwise_fidelity(t, 0.5, 0.1)


def _warm_measurement(work_dir: Path) -> None:
    measurement.optimal_measurement_bound(3)
    measurement.strategy_integral(0, 0.5, 0.0, 0.3, 0.0, 3, BlochQuadrature(8, 8))


def _warm_network(work_dir: Path) -> None:
    psi = PureQubit(1.0, 0.5)
    network.post_selected_state(network.run_cascade(psi, 4), 4)
    network.sample_shots(psi, 4, 16, 0)


def _warm_cli(work_dir: Path) -> None:
    cli.main(["table", "--n-min", "1", "--n-max", "3",
              "--output", str(work_dir / "warmup.csv")])


WARM_UP = {"core": _warm_core, "devices": _warm_devices,
           "measurement": _warm_measurement, "network": _warm_network,
           "cli": _warm_cli}


class Workload:
    name: str
    layers: tuple[str, ...]
    trace_ops: int  # operations in a traced run; fixed, so counts repeat
    # Public functions before whose calls an operation may pause, so that
    # run.py can interleave long operations of two workers in short slices.
    pause_points: tuple = ()

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def warm_up(self) -> None:
        for layer in self.layers:
            WARM_UP[layer](self.work_dir)

    def op(self, i: int) -> tuple[int, int]:
        """Run operation i; return (attempted, failed) from its gate."""
        raise NotImplementedError

    # (name, unit, work per operation) of the figure a user reads; with no
    # work given the figure is the operation's time itself.
    headline: tuple[str, str, int | None]


class VerifyFull(Workload):
    name = "verify-full"
    layers = ("core", "devices", "measurement", "network", "cli")
    trace_ops = 1
    pause_points = ((measurement, "optimal_measurement_bound_numeric"),
                    (devices, "optimize_average"), (devices, "optimize_universal"))

    def op(self, i: int) -> tuple[int, int]:
        code, text = _captured(cli.main, ["verify", "--level", "full",
                                          "--seed", str(self.seed)])
        return gates.verify_gate(code, text)

    headline = ("verify_s", "s", None)


class TableSweep(Workload):
    name = "table-sweep"
    layers = ("core", "devices", "measurement", "cli")
    trace_ops = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.path = work_dir / f"table-{seed}.csv"

    def op(self, i: int) -> tuple[int, int]:
        code = cli.cmd_table(1, TABLE_N_MAX, str(self.path))
        data = self.path.read_bytes() if code == 0 else b""
        return gates.table_gate(code, data, 1, TABLE_N_MAX)

    headline = ("rows_per_s", "rows/s", TABLE_N_MAX)


class CascadeN20(Workload):
    name = "cascade-n20"
    layers = ("core", "network", "cli")
    trace_ops = 3

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self._rng = np.random.default_rng(seed)
        self._inputs: list[tuple[float, float, int]] = []

    def inputs(self, i: int) -> tuple[float, float, int]:
        while len(self._inputs) <= i:
            self._inputs.append((float(self._rng.uniform(0.0, np.pi)),
                                 float(self._rng.uniform(0.0, 2.0 * np.pi)),
                                 int(self._rng.integers(0, 2 ** 31))))
        return self._inputs[i]

    def op(self, i: int) -> tuple[int, int]:
        theta, phi, shot_seed = self.inputs(i)
        code, text = _captured(cli.cmd_network, theta, phi, CASCADE_N,
                               CASCADE_SHOTS, shot_seed)
        return gates.network_gate(code, text, theta, CASCADE_N, CASCADE_SHOTS)

    headline = ("cascades_per_s", "ops/s", 1)


WORKLOADS = {w.name: w for w in (VerifyFull, TableSweep, CascadeN20)}
