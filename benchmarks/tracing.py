"""Per-layer tracing from outside the package.

Wrappers are installed at run time over the public functions of `core`,
`devices`, `measurement`, `network` and `cli`, at every module binding that
refers to the same function object, so calls made through `from .core
import ...` names are caught as well.  Nothing under `src/` is edited; the
original objects are put back when the `Tracer` context exits.

Each wrapper records a span kept in memory.  A span's self time is its
duration minus the time covered by the spans it caused; the package is
single-threaded, so a stack of open spans gives the parent of each span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from disentanglers import cli, core, devices, measurement, network

MODULES = (core, devices, measurement, network, cli)

# The five closed forms, summed into one span where `cli` looks them up.
CLOSED_FORMS = ((core, "diluted_avg_fidelity"),
                (measurement, "measurement_avg_fidelity"),
                (measurement, "optimal_measurement_bound"),
                (measurement, "dilution_overlap"),
                (devices, "universal_coefficients"))

SPANS = ((measurement, "optimal_measurement_bound_numeric"),
         (measurement, "strategy_integral"),
         (devices, "optimize_average"),
         (devices, "optimize_universal"),
         (devices, "device_avg_fidelity"),
         (devices, "gram_summary"),
         (devices, "moment_integrals"),
         (devices, "pointwise_fidelity"),
         (core, "bloch_average"),
         (core, "dilute_angle"),
         (core, "dicke_to_statevector"),
         (cli, "fidelity_row"),
         (cli, "cmd_table"),
         (network, "run_cascade"),
         (network, "decompose"),
         (network, "post_selected_state"),
         (network, "sample_shots"))

# Constructions are counted by wrapping the dataclass's __post_init__, so the
# class object itself (and every isinstance check on it) is left alone.
CONSTRUCTORS = ((core, "BlochQuadrature"),
                (core, "FullStateVector"),
                (devices, "DeviceTransform"))

CHECK_PREFIX = "_check_"


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def rebind(home, attr: str, wrap) -> list[tuple[object, str, object]]:
    """Replace function `home.attr` by `wrap(original)` at every module
    binding of the same object; return (module, attr, original) to undo."""
    original = getattr(home, attr, None)
    if original is None:
        return []
    wrapper = wrap(original)
    undo = []
    for module in MODULES:
        if getattr(module, attr, None) is original:
            undo.append((module, attr, original))
            setattr(module, attr, wrapper)
    return undo


class Tracer:
    """Installs the wrappers on entry, restores the originals on exit."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cache_start = self._cache_end = (0, 0)

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered = [0.0]
            self._open.append(covered)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - covered[0]
                self.total_s[name] += dur
                if self._open:
                    self._open[-1][0] += dur
            if observe is not None:
                observe(args, result)
            return result
        self.calls[name] += 0  # listed even when never called
        return wrapper

    def _function(self, home, attr: str, name: str | None = None, observe=None) -> None:
        name = name or f"{_short(home)}.{attr}"
        self._patches += rebind(home, attr, lambda fn: self._span(name, fn, observe))

    def _constructor(self, home, attr: str) -> None:
        cls = getattr(home, attr, None)
        if cls is None or "__post_init__" not in cls.__dict__:
            return
        original = cls.__dict__["__post_init__"]
        self._patches.append((cls, "__post_init__", original))
        cls.__post_init__ = self._span(f"{_short(home)}.{attr}", original)

    # -- observers for counters that live in return values ------------------

    def _count_minimize(self, args, res) -> None:
        self.counts["devices.minimize.nfev"] += res.nfev
        self.counts["devices.minimize.converged"] += bool(res.success)

    def _count_minimize_scalar(self, args, res) -> None:
        self.counts["measurement.minimize_scalar.nfev"] += res.nfev

    def _count_cascade(self, args, out) -> None:
        self.counts["network.cascade.useful_gates"] += out.n - 1

    def _count_cnot(self, args, out) -> None:
        # amplitudes read and written, plus one int64 index array per gate
        self.counts["network.cascade.bytes_computed"] += (
            args[0].amps.nbytes + out.amps.nbytes + 8 * out.amps.size)

    # -- context ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for home, attr in SPANS:
            observe = None
            if attr == "run_cascade":
                observe = self._count_cascade
            self._function(home, attr, observe=observe)
        for home, attr in CLOSED_FORMS:
            self._function(home, attr, name="closed_forms")
        self._function(network, "apply_cnot", observe=self._count_cnot)
        self._function(devices, "minimize", observe=self._count_minimize)
        self._function(measurement, "minimize_scalar",
                       observe=self._count_minimize_scalar)
        for home, attr in CONSTRUCTORS:
            self._constructor(home, attr)
        for attr in dir(cli):
            if attr.startswith(CHECK_PREFIX):
                self._function(cli, attr, name=f"cli.check.{attr[len(CHECK_PREFIX):]}")
        self._cache_start = self._cache_info()
        return self

    def __exit__(self, *exc) -> None:
        self._cache_end = self._cache_info()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _cache_info() -> tuple[int, int]:
        tables = getattr(measurement, "_ensemble_tables", None)
        if tables is None or not hasattr(tables, "cache_info"):
            return 0, 0
        info = tables.cache_info()
        return info.hits, info.misses

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure this tracer can give, by metric name."""
        out: dict[str, float] = {}
        for name in self.calls:
            if name.startswith("cli.check."):
                out[f"{name}.total_s"] = self.total_s[name]
            else:
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
        hits = self._cache_end[0] - self._cache_start[0]
        misses = self._cache_end[1] - self._cache_start[1]
        out["measurement.ensemble_cache.hit_ratio"] = _ratio(hits, hits + misses)
        out["measurement.minimize_scalar.nfev"] = int(self.counts["measurement.minimize_scalar.nfev"])
        restarts = self.calls["devices.minimize"]
        out["devices.minimize.restarts"] = restarts
        out["devices.minimize.nfev_per_restart"] = _ratio(
            self.counts["devices.minimize.nfev"], restarts)
        out["devices.minimize.converged_ratio"] = _ratio(
            self.counts["devices.minimize.converged"], restarts)
        out["network.useful_gate_ratio"] = _ratio(
            self.counts["network.cascade.useful_gates"], self.calls["network.apply_cnot"])
        out["network.cascade.bytes_computed"] = int(self.counts["network.cascade.bytes_computed"])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
