"""Measure-and-prepare disentangling and its optimal fidelity bound.

The apparatus projects the symmetric N-qubit state onto an orthonormal pair
aligned with a random orientation, then re-prepares a single qubit along the
observed outcome.  Averaging over orientations and inputs gives a closed-form
mean fidelity; a supremum over all preparation rules gives the best any
measurement-based strategy can do.

That bound has a closed form and a numerical oracle.  The oracle takes the
supremum over the re-prepared qubit exactly, since |<psi|eta>|^2 =
(1 + r_psi . r_eta) / 2 is linear in the Bloch vector of eta, and searches
only the apparatus polar angle numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from .core import (
    BlochQuadrature,
    DensityOperator,
    DickeVector,
    PureQubit,
    _require,
    _require_count,
    dilute_angle,
)


@dataclass(frozen=True)
class ProjectorPair:
    """Orthonormal projector pair resolving the symmetric two-dimensional span."""

    theta_p: float
    phi_p: float
    xi0: DickeVector
    xi1: DickeVector


@dataclass(frozen=True)
class EstimateRecord:
    """One measurement outcome: its probability and the re-prepared qubit."""

    probability: float
    prepared: PureQubit


def projector_pair(theta_p: float, phi_p: float, n: int) -> ProjectorPair:
    """Apparatus projectors at orientation (theta_p, phi_p).

    xi0 follows the orientation; xi1 is the orthonormal completion
    e^{-i phi'} sin(theta'/2) |N;0> - cos(theta'/2) |N;1>.
    """
    c, s = np.cos(theta_p / 2.0), np.sin(theta_p / 2.0)
    xi0 = DickeVector(n, c, np.exp(1j * phi_p) * s)
    xi1 = DickeVector(n, np.exp(-1j * phi_p) * s, -c)
    return ProjectorPair(theta_p, phi_p, xi0, xi1)


def prepared_state(theta_p: float, phi_p: float, outcome: int) -> PureQubit:
    """Qubit re-prepared after the given outcome: along the apparatus axis for
    outcome 0, along the antipode for outcome 1."""
    if outcome == 0:
        return PureQubit.from_angles(theta_p, phi_p)
    return PureQubit.from_angles(np.pi - theta_p, phi_p + np.pi)


def measurement_outcomes(big_psi: DickeVector,
                         pair: ProjectorPair) -> tuple[EstimateRecord, EstimateRecord]:
    """Outcome probabilities and prepared qubits for one apparatus orientation."""
    _require(big_psi.n == pair.xi0.n, "qubit counts differ")
    p0 = abs(pair.xi0.overlap(big_psi)) ** 2
    p1 = abs(pair.xi1.overlap(big_psi)) ** 2
    return (EstimateRecord(p0, prepared_state(pair.theta_p, pair.phi_p, 0)),
            EstimateRecord(p1, prepared_state(pair.theta_p, pair.phi_p, 1)))


def estimator_output(big_psi: DickeVector, pair: ProjectorPair) -> DensityOperator:
    """Density operator of the re-prepared qubit for one apparatus orientation."""
    rho = np.zeros((2, 2), dtype=complex)
    for rec in measurement_outcomes(big_psi, pair):
        v = rec.prepared.amplitudes()
        rho += rec.probability * np.outer(v, v.conj())
    return DensityOperator(rho)


def averaged_estimator(big_psi: DickeVector, quad: BlochQuadrature) -> DensityOperator:
    """Estimator output averaged over all apparatus orientations.

    The orientation integrand has azimuthal frequencies up to 2, and its
    azimuth-independent part is a quadratic in cos(theta), so every grid with
    n_phi >= 3 integrates it exactly and the result collapses to
    (1/3) |psi><psi| + (1/3) I with psi carrying the input's two amplitudes.
    Raises DomainError for n_phi < 3, where the frequency-2 terms alias.
    """
    _require(quad.n_phi >= 3,
             f"n_phi={quad.n_phi} < 3 cannot integrate the frequency-2 azimuth")
    th, ph, w = quad.grid()
    c, s = np.cos(th / 2.0), np.sin(th / 2.0)
    e = np.exp(1j * ph)
    ov0 = np.conj(big_psi.c0) * c + np.conj(big_psi.c1) * e * s
    p0 = np.abs(ov0) ** 2
    p1 = 1.0 - p0
    outer0 = np.array([[c * c, c * s * np.conj(e)], [c * s * e, s * s]])
    outer1 = np.array([[s * s, -c * s * np.conj(e)], [-c * s * e, c * c]])
    rho = np.einsum("tp,abtp->ab", w * p0, outer0) + np.einsum(
        "tp,abtp->ab", w * p1, outer1)
    return DensityOperator(rho)


def dilution_overlap(n: int) -> float:
    """Sphere average of the squared overlap between a qubit and its dilution.

    Closed form (N^2 + 4 N^{3/2} - 4 N^{1/2} - 1 + 2 N ln N) /
    (2 (N-1) (sqrt(N)+1)^2); equals 1 at N=1 and tends to 1/2.
    """
    n = _require_count(n)
    if n == 1:
        return 1.0
    rt = np.sqrt(n)
    num = n * n + 4.0 * n * rt - 4.0 * rt - 1.0 + 2.0 * n * np.log(n)
    return num / (2.0 * (n - 1.0) * (rt + 1.0) ** 2)


def measurement_avg_fidelity(n: int) -> float:
    """Mean fidelity (1 + overlap average) / 3 of the projective strategy."""
    return (1.0 + dilution_overlap(n)) / 3.0


def optimal_measurement_bound(n: int) -> float:
    """Upper bound on any measure-and-prepare strategy's average fidelity:
    (1/2) [1 + sqrt(N) (N^2 - 1 - 2 N ln N) / (N-1)^3], with limit 2/3 at N=1."""
    n = _require_count(n)
    if n == 1:
        return 2.0 / 3.0
    return 0.5 * (1.0 + np.sqrt(n) * (n * n - 1.0 - 2.0 * n * np.log(n)) / (n - 1.0) ** 3)


@lru_cache(maxsize=8)
def _ensemble_tables(n: int, quad: BlochQuadrature):
    """Input-ensemble factors reused across strategy-integral evaluations."""
    tbar = dilute_angle(quad.theta_nodes, n)
    return {
        "cb": np.cos(tbar / 2.0), "sb": np.sin(tbar / 2.0),
        "c": np.cos(quad.theta_nodes / 2.0), "s": np.sin(quad.theta_nodes / 2.0),
        "cos_ph": np.cos(quad.phi_nodes), "sin_ph": np.sin(quad.phi_nodes),
        "w": quad.grid()[2],
    }


def _branch_weights(j: int, theta_meas: float, phi_meas: float, n: int,
                    quad: BlochQuadrature) -> np.ndarray:
    """Quadrature weight times outcome-j probability |<Psi|xi_j>|^2 on the
    input grid, for the apparatus at (theta_meas, phi_meas)."""
    _require(j in (0, 1), f"outcome index {j} not in {{0, 1}}")
    t = _ensemble_tables(n, quad)
    cm, sm = np.cos(theta_meas / 2.0), np.sin(theta_meas / 2.0)
    cos_dm = t["cos_ph"] * np.cos(phi_meas) + t["sin_ph"] * np.sin(phi_meas)
    if j == 0:
        amp = (t["cb"] * cm) ** 2 + (t["sb"] * sm) ** 2
        cross = 2.0 * t["cb"] * t["sb"] * cm * sm
    else:
        amp = (t["cb"] * sm) ** 2 + (t["sb"] * cm) ** 2
        cross = -2.0 * t["cb"] * t["sb"] * cm * sm
    return t["w"] * (amp[:, None] + cross[:, None] * cos_dm[None, :])


def strategy_integral(j: int, theta_prep, phi_prep, theta_meas: float,
                      phi_meas: float, n: int, quad: BlochQuadrature):
    """Joint success-fidelity integral of one outcome branch.

    Averages |<Psi|xi_j>|^2 |<psi|eta(theta_prep, phi_prep)>|^2 over the input
    ensemble, where xi_j sits at the apparatus orientation and eta is the
    re-prepared qubit.  The preparation angles may be arrays (broadcast).
    """
    wp = _branch_weights(j, theta_meas, phi_meas, n, quad)
    t = _ensemble_tables(n, quad)

    tp = np.asarray(theta_prep, dtype=float)
    pp = np.asarray(phi_prep, dtype=float)
    shape = np.broadcast_shapes(tp.shape, pp.shape)
    tp = np.broadcast_to(tp, shape).reshape(-1, 1, 1)
    pp = np.broadcast_to(pp, shape).reshape(-1, 1, 1)
    cp, sp = np.cos(tp / 2.0), np.sin(tp / 2.0)
    cos_dp = t["cos_ph"][None, None, :] * np.cos(pp) + t["sin_ph"][None, None, :] * np.sin(pp)
    c, s = t["c"][None, :, None], t["s"][None, :, None]
    q = (c * cp) ** 2 + (s * sp) ** 2 + 2.0 * c * cp * s * sp * cos_dp

    vals = np.einsum("tp,ktp->k", wp, q)
    return vals.reshape(shape) if shape else float(vals[0])


def _branch_supremum(j: int, theta_meas: float, n: int,
                     quad: BlochQuadrature) -> float:
    """sup over preparation directions of one branch integral, exactly.

    |<psi|eta>|^2 = (1 + r_psi . r_eta) / 2, so the branch integral equals
    (P + R . r_eta) / 2, with P = sum w p_j the weighted outcome probability
    and R = sum w p_j r_psi the weighted Bloch vector of the inputs.  Over
    unit r_eta the supremum is (P + |R|) / 2, attained at r_eta = R / |R|
    (Massar & Popescu, PRL 74, 1259 (1995)).  The apparatus azimuth is fixed
    at zero.
    """
    wp = _branch_weights(j, theta_meas, 0.0, n, quad)
    t = _ensemble_tables(n, quad)
    sin_th = 2.0 * t["c"] * t["s"]
    cos_th = t["c"] ** 2 - t["s"] ** 2
    by_phi = sin_th @ wp
    big_r = np.array([by_phi @ t["cos_ph"], by_phi @ t["sin_ph"],
                      cos_th @ wp.sum(axis=1)])
    return 0.5 * (float(wp.sum()) + float(np.linalg.norm(big_r)))


def optimal_measurement_bound_numeric(n: int) -> float:
    """Re-derive the measurement bound by an apparatus-angle search.

    For each apparatus polar angle both branch suprema over the re-prepared
    qubit are taken exactly from the input ensemble's weighted Bloch vectors
    (`_branch_supremum`); their sum is then maximized numerically over that
    angle, on a 64-point grid refined by a bounded scalar search.  The inputs
    are averaged with the default 64x64 `BlochQuadrature`, and the apparatus
    azimuth is fixed at zero: the ensemble is azimuthally covariant.
    """
    quad = BlochQuadrature()

    def h_sum(theta_meas: float) -> float:
        return sum(_branch_supremum(j, theta_meas, n, quad) for j in (0, 1))

    grid = np.linspace(0.0, np.pi, 64)
    coarse = [h_sum(tm) for tm in grid]
    k = int(np.argmax(coarse))
    best = coarse[k]
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    if hi > lo:
        res = minimize_scalar(lambda tm: -h_sum(tm), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-6})
        best = max(best, float(-res.fun))
    return best
