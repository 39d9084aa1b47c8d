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

import numpy as np

from .core import (
    BlochQuadrature,
    DensityOperator,
    DickeVector,
    _closed_form,
    _golden_section,
    _libm_pow,
    _require,
    dilute_angle,
)


def _projector_amplitudes(theta_p, phi_p):
    """Amplitudes (c0, c1) of the apparatus pair at orientation (theta', phi'),
    for scalars or arrays: xi0 = (c, e^{i phi'} s) follows the orientation and
    xi1 = (e^{-i phi'} s, -c) completes it, with c, s = cos, sin(theta'/2).

    Re-preparation needs no state of its own: the qubit re-prepared after
    outcome j, along the apparatus axis (theta', phi') for j = 0 and along
    its antipode (pi - theta', phi' + pi) for j = 1, has xi_j's two
    amplitudes up to a global phase.
    """
    c, s = np.cos(theta_p / 2.0), np.sin(theta_p / 2.0)
    e = np.exp(1j * phi_p)
    return (c, e * s), (np.conj(e) * s, -c)


def projector_pair(theta_p: float, phi_p: float,
                   n: int) -> tuple[DickeVector, DickeVector]:
    """Apparatus projectors (xi0, xi1) at orientation (theta_p, phi_p)."""
    return tuple(DickeVector(n, *xi) for xi in _projector_amplitudes(theta_p, phi_p))


def _channel(big_psi: DickeVector, pair, w) -> DensityOperator:
    """Measure-and-prepare channel sum_j w |<xi_j|Psi>|^2 xi_j xi_j^H, summed
    over the orientations the amplitude pairs `pair` hold, with weights `w`."""
    rho = np.zeros((2, 2), dtype=complex)
    for xi in pair:
        x = np.reshape(np.array(xi), (2, -1))
        p = np.abs(np.conj(x[0]) * big_psi.c0 + np.conj(x[1]) * big_psi.c1) ** 2
        rho += (x * (np.ravel(w) * p)) @ x.conj().T
    return DensityOperator(rho)


def estimator_output(big_psi: DickeVector,
                     pair: tuple[DickeVector, DickeVector]) -> DensityOperator:
    """Density operator of the re-prepared qubit for one apparatus orientation."""
    _require(big_psi.n == pair[0].n, "qubit counts differ")
    return _channel(big_psi, [xi.amplitudes() for xi in pair], 1.0)


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
    return _channel(big_psi, _projector_amplitudes(th, ph), w)


def dilution_overlap(n):
    """Sphere average of the squared overlap between a qubit and its dilution.

    Closed form (N^2 + 4 N^{3/2} - 4 N^{1/2} - 1 + 2 N ln N) /
    (2 (N-1) (sqrt(N)+1)^2); equals 1 at N=1 and tends to 1/2.  Takes a
    count or an integer array of counts, as do the two forms below.
    """
    def overlap(n):
        rt = np.sqrt(n)
        num = n * n + 4.0 * n * rt - 4.0 * rt - 1.0 + 2.0 * n * np.log(n)
        return num / (2.0 * (n - 1.0) * _libm_pow(rt + 1.0, 2.0))

    return _closed_form(n, 1.0, overlap)


def _fidelity_from_overlap(overlap):
    """The (1 + f) / 3 law: mean fidelity of the projective strategy from the
    overlap average f of `dilution_overlap`."""
    return (1.0 + overlap) / 3.0


def measurement_avg_fidelity(n):
    """Mean fidelity (1 + overlap average) / 3 of the projective strategy."""
    return _fidelity_from_overlap(dilution_overlap(n))


def optimal_measurement_bound(n):
    """Upper bound on any measure-and-prepare strategy's average fidelity:
    (1/2) [1 + sqrt(N) (N^2 - 1 - 2 N ln N) / (N-1)^3], with limit 2/3 at N=1."""
    return _closed_form(n, 2.0 / 3.0, lambda n: 0.5 * (
        1.0 + np.sqrt(n) * (n * n - 1.0 - 2.0 * n * np.log(n)) / _libm_pow(n - 1.0, 3.0)))


def _ensemble_tables(n: int, quad: BlochQuadrature) -> dict[str, np.ndarray]:
    """Input-ensemble factors shared by the strategy-integral evaluations, from
    the diluted (cb, sb) and input (c, s) half angles of the polar nodes."""
    tbar = dilute_angle(quad.theta_nodes, n)
    cb, sb = np.cos(tbar / 2.0), np.sin(tbar / 2.0)
    c, s = np.cos(quad.theta_nodes / 2.0), np.sin(quad.theta_nodes / 2.0)
    return {
        "cb2": cb ** 2, "sb2": sb ** 2, "cbsb2": 2.0 * (cb * sb), "c": c, "s": s,
        "sin_th": 2.0 * c * s, "cos_th": c ** 2 - s ** 2,
        "cos_ph": np.cos(quad.phi_nodes), "sin_ph": np.sin(quad.phi_nodes),
        "w": quad.grid()[2],
    }


def _branch_weights(j: int, theta_meas: float, phi_meas: float,
                    t: dict[str, np.ndarray]) -> np.ndarray:
    """Quadrature weight times outcome-j probability |<xi_j|Psi>|^2 on the
    input grid of the tables `t`, for the apparatus at (theta_meas, phi_meas).
    With Psi = (cb, e^{i phi} sb) and xi_j = (x0, x1) that probability is
    |x0|^2 cb^2 + |x1|^2 sb^2 + 2 cb sb Re(x0 conj(x1) e^{i phi})."""
    _require(j in (0, 1), f"outcome index {j} not in {{0, 1}}")
    x0, x1 = _projector_amplitudes(theta_meas, phi_meas)[j]
    z = x0 * np.conj(x1)
    amp = abs(x0) ** 2 * t["cb2"] + abs(x1) ** 2 * t["sb2"]
    re_phase = z.real * t["cos_ph"] - z.imag * t["sin_ph"]
    return t["w"] * (amp[:, None] + t["cbsb2"][:, None] * re_phase[None, :])


def strategy_integral(j: int, theta_prep, phi_prep, theta_meas: float,
                      phi_meas: float, n: int, quad: BlochQuadrature):
    """Joint success-fidelity integral of one outcome branch.

    Averages |<Psi|xi_j>|^2 |<psi|eta(theta_prep, phi_prep)>|^2 over the input
    ensemble, where xi_j sits at the apparatus orientation and eta is the
    re-prepared qubit.  The preparation angles may be arrays (broadcast).
    """
    t = _ensemble_tables(n, quad)
    wp = _branch_weights(j, theta_meas, phi_meas, t)

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


def _branch_supremum(j: int, theta_meas: float, t: dict[str, np.ndarray]) -> float:
    """sup over preparation directions of one branch integral, exactly.

    |<psi|eta>|^2 = (1 + r_psi . r_eta) / 2, so the branch integral equals
    (P + R . r_eta) / 2, with P = sum w p_j the weighted outcome probability
    and R = sum w p_j r_psi the weighted Bloch vector of the inputs.  Over
    unit r_eta the supremum is (P + |R|) / 2, attained at r_eta = R / |R|
    (Massar & Popescu, PRL 74, 1259 (1995)).  The apparatus azimuth is fixed
    at zero.
    """
    wp = _branch_weights(j, theta_meas, 0.0, t)
    by_phi = t["sin_th"] @ wp
    big_r = np.array([by_phi @ t["cos_ph"], by_phi @ t["sin_ph"],
                      t["cos_th"] @ wp.sum(axis=1)])
    return 0.5 * (float(wp.sum()) + float(np.linalg.norm(big_r)))


def optimal_measurement_bound_numeric(n: int) -> float:
    """Re-derive the measurement bound by an apparatus-angle search.

    For each apparatus polar angle both branch suprema over the re-prepared
    qubit are taken exactly from the input ensemble's weighted Bloch vectors
    (`_branch_supremum`); their sum is then maximized numerically over that
    angle, on a 64-point grid whose best node's two neighbours bracket a
    golden-section search (`core._golden_section`) to a width of 1e-6.  The
    refine is needed: for N >= 2 the maximum lies at pi/2, between two grid
    nodes, and the grid alone falls short by 1e-6 (N = 2) to 1e-5.  The
    inputs are averaged with the default 64x64 `BlochQuadrature`, and the
    apparatus azimuth is fixed at zero: the ensemble is azimuthally
    covariant.
    """
    t = _ensemble_tables(n, BlochQuadrature())

    def h_sum(theta_meas: float) -> float:
        return sum(_branch_supremum(j, theta_meas, t) for j in (0, 1))

    grid = np.linspace(0.0, np.pi, 64)
    coarse = [h_sum(tm) for tm in grid]
    k = int(np.argmax(coarse))
    best = coarse[k]
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    if hi > lo:
        _, low, _ = _golden_section(lambda tm: -h_sum(tm), lo, hi, 1e-6)
        best = max(best, -low)
    return best
