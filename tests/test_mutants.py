"""Mutant catalogue: simple faults that `verify` must catch, and how.

Each entry replaces one module attribute with a mutant built from the
original function, runs `cmd_verify` at the cheapest level that catches it,
and requires exit 1 with exactly the named checks among the FAIL lines.  An
entry is never removed to let a change pass; a change that makes `verify`
catch a survivor below adds it here.

Survivors, the targets for later verify checks (none of these fails a line
of `verify --level full --seed 42`):
  * `measurement.averaged_estimator`, `measurement.estimator_output`,
    `core.symmetric_marginal` and `core.reduced_qubit`, each returning I/2:
    no verify check calls them.
  * `core._libm_pow` replaced by `np.power`: the values move by an ulp,
    far inside every tolerance; only the Tier-1 pins in
    `tests/test_core.py::TestLibmPow` and the `table` digests catch it.
"""

import numpy as np
import pytest

from disentanglers import SupportStateVector, cli, devices, measurement, network


def _scaled_gamma(coefficients):
    def mutant(n):
        gamma, delta = coefficients(n)
        return gamma * np.sqrt(1.0 - 1e-8), delta
    return mutant


def _nan_search(build):
    """A device search that returns `build(n)` valued NaN, at a count or at
    each of a sequence of counts."""
    def mutant(n, seed=0):
        found = [(build(k), np.nan) for k in np.atleast_1d(n)]
        return found if np.ndim(n) else found[0]
    return mutant


def _single_pass(refine):
    """The refine skipped: one pass of the grid, stopped at its first bracket."""
    return lambda fun, lo, hi, nodes, xatol: refine(fun, lo, hi, nodes, hi - lo)


def _loose_stop(search):
    """The Nelder-Mead stop rule loosened to xatol = fatol = 1e-3."""
    return lambda fun, x0, **options: search(fun, x0, **{**options, "xatol": 1e-3,
                                                          "fatol": 1e-3})


def _first_gate_dropped(cascade):
    """The cascade without its (1, n) gate: the single excitation on qubit 1,
    at row 2^(n-1), keeps its row instead of moving to 2^(n-1) + 1."""
    def mutant(v):
        out = cascade(v)
        rows = out.rows.copy()
        rows[-1] = 2 ** (v.n - 1)
        return SupportStateVector(v.n, rows, out.amps)
    return mutant


def _scaled_m3(moments):
    def mutant(n):
        m1, m2, m3 = moments(n)
        return m1, m2, m3 * (1.0 + 1e-9)
    return mutant


# id: (module, attribute, mutant from the original, level, FAIL lines in order)
CATALOGUE = {
    "dilution_overlap+2e-10": (
        measurement, "dilution_overlap", lambda f: lambda n: f(n) + 2e-10,
        "fast", ["endpoint-values-n1"]),
    "m3*(1+1e-9)": (
        devices, "moment_integrals", _scaled_m3,
        "fast", ["oracle-moment-integrals"]),
    "gamma^2*(1-1e-8)": (
        devices, "universal_coefficients", _scaled_gamma,
        "fast", ["endpoint-values-n1"]),
    "optimal_measurement_bound+1e-10": (
        measurement, "optimal_measurement_bound", lambda f: lambda n: f(n) + 1e-10,
        "fast", ["endpoint-values-n1"]),
    "success_probability*(1+1e-11)": (
        network, "success_probability",
        lambda f: lambda theta, n: f(theta, n) * (1.0 + 1e-11),
        "fast", ["network-success-probability"]),
    "pointwise_fidelity-nan": (
        devices, "pointwise_fidelity", lambda f: lambda t, th, ph: f(t, th, ph) * np.nan,
        "fast", ["oracle-device-average", "pointwise-closed-vs-direct",
                 "universal-covariance-spread", "swap-state-dependence"]),
    "covariance_spread-nan": (
        devices, "covariance_spread", lambda f: lambda t: f(t) * np.nan,
        "fast", ["universal-covariance-spread", "swap-state-dependence"]),
    "optimal_measurement_bound_numeric-nan": (
        measurement, "optimal_measurement_bound_numeric", lambda f: lambda n: f(n) * np.nan,
        "fast", ["measurement-bound-numeric-2"]),
    "device_avg_fidelity-nan": (
        devices, "device_avg_fidelity", lambda f: lambda t: np.nan,
        "full", ["oracle-device-average", "optimizer-average-attains",
                 "optimizer-universal-attains", "optimizer-never-exceeds"]),
    "optimize_average-nan": (
        devices, "optimize_average", lambda f: _nan_search(devices.swap_disentangler),
        "full", ["optimizer-average-attains", "optimizer-never-exceeds"]),
    "optimize_universal-nan": (
        devices, "optimize_universal",
        lambda f: _nan_search(devices.universal_disentangler),
        "full", ["optimizer-universal-attains", "optimizer-never-exceeds"]),
    # max() keeps 0.0 against a NaN that follows it
    "unitarity_residuals-nan": (
        devices, "unitarity_residuals", lambda f: lambda t: (0.0, 0.0, np.nan),
        "full", ["unitary-images-n-le-50"]),
    "bracket-refine-skipped": (
        measurement, "_grid_refine", _single_pass,
        "fast", ["measurement-bound-numeric-2"]),
    # the network group raises DecompositionError, so it fails as one line
    "cascade-first-gate-dropped": (
        network, "_cascade", _first_gate_dropped,
        "fast", ["network-cascade-action", "network"]),
    "search-stop-loosened": (
        devices, "_nelder_mead", _loose_stop,
        "full", ["optimizer-average-attains"]),
}


@pytest.mark.parametrize("name", CATALOGUE)
def test_verify_kills(capsys, monkeypatch, name):
    module, attr, mutate, level, failing = CATALOGUE[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert cli.cmd_verify(level, 42) == 1
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == failing
