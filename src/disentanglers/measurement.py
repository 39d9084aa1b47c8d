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
    _grid_refine,
    _libm_pow,
    _require,
    _require_angles,
    _require_count,
    _require_instance,
    dilute_angle,
)
from .devices import _m3


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
    """Apparatus projectors (xi0, xi1) at orientation (theta_p, phi_p), two
    scalar angles checked by `_require_angles`."""
    theta_p, phi_p = _require_angles(theta_p, phi_p, "apparatus ", scalar=True)
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
    _require_instance(big_psi, DickeVector)
    _require(isinstance(pair, (tuple, list)) and len(pair) == 2
             and all(isinstance(xi, DickeVector) for xi in pair),
             f"need a pair of DickeVectors, got {type(pair).__name__}")
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
    _require_instance(big_psi, DickeVector)
    _require(_require_instance(quad, BlochQuadrature).n_phi >= 3,
             f"n_phi={quad.n_phi} < 3 cannot integrate the frequency-2 azimuth")
    th, ph, w = quad.grid()
    return _channel(big_psi, _projector_amplitudes(th, ph), w)


def dilution_overlap(n):
    """Sphere average of the squared overlap between a qubit and its dilution.

    Closed form (N^2 + 4 N^{3/2} - 4 N^{1/2} - 1 + 2 N ln N) /
    (2 (N-1) (sqrt(N)+1)^2); equals 1 at N=1 and tends to 1/2 from above.
    Takes a count or an integer array of counts, as do the two forms below.

    The true value exceeds 1/2 at every N, but rounding takes the quotient
    to 0.4999999999999999 at some N >= 2^106 (2^107 is the first power of
    two), so it is floored at 1/2.  Where the floor acts, the true value
    lies above 1/2 by at most 2 * 2^-53, the worst error against a
    150-digit evaluation at about 720 N between 2^100 and 2^340.  Below
    10^6 the quotient exceeds 0.5007 and the floor moves no value.  With f
    >= 1/2, (1 + f) / 3 >= 1/2 as well.
    """
    def overlap(n):
        rt = np.sqrt(n)
        num = n * n + 4.0 * n * rt - 4.0 * rt - 1.0 + 2.0 * n * np.log(n)
        return np.maximum(0.5, num / (2.0 * (n - 1.0) * _libm_pow(rt + 1.0, 2.0)))

    return _closed_form(n, 1.0, overlap)


def _fidelity_from_overlap(overlap):
    """The (1 + f) / 3 law: mean fidelity of the projective strategy from the
    overlap average f of `dilution_overlap`."""
    return (1.0 + overlap) / 3.0


def measurement_avg_fidelity(n):
    """Mean fidelity (1 + overlap average) / 3 of the projective strategy."""
    return _fidelity_from_overlap(dilution_overlap(n))


def optimal_measurement_bound(n):
    """(1 + sqrt(N) m3) / 2, m3 of `devices.moment_integrals`, 2/3 at N=1: the
    best measure-and-prepare average fidelity (Massar & Popescu, PRL 74, 1259 (1995))."""
    return _closed_form(n, 2.0 / 3.0, lambda n: 0.5 * (1.0 + np.sqrt(n) * _m3(n)))


def _ensemble_tables(n: int, quad: BlochQuadrature) -> dict[str, np.ndarray]:
    """Input-ensemble factors shared by the strategy-integral evaluations, from
    the diluted (cb, sb) and input (c, s) half angles of the polar nodes.
    The rows of "bloch_th" and "bloch_ph" are the theta and phi factors of
    the components 1, x, y, z of the inputs' Bloch vectors."""
    tbar = dilute_angle(quad.theta_nodes, n)
    cb, sb = np.cos(tbar / 2.0), np.sin(tbar / 2.0)
    c, s = np.cos(quad.theta_nodes / 2.0), np.sin(quad.theta_nodes / 2.0)
    cos_ph, sin_ph = np.cos(quad.phi_nodes), np.sin(quad.phi_nodes)
    return {
        "cb2": cb ** 2, "sb2": sb ** 2, "cbsb2": 2.0 * (cb * sb), "c": c, "s": s,
        "cos_ph": cos_ph, "sin_ph": sin_ph,
        "bloch_th": np.stack([np.ones_like(c), 2.0 * c * s, 2.0 * c * s, c ** 2 - s ** 2]),
        "bloch_ph": np.stack([np.ones_like(cos_ph), cos_ph, sin_ph, np.ones_like(cos_ph)]),
        "w": quad.weights,
    }


def _branch_weights(theta_meas, phi_meas, t: dict[str, np.ndarray]):
    """Factors (amp, re) of the outcome probabilities |<xi_j|Psi>|^2 =
    amp[theta] + cbsb2[theta] re[phi] on the input grid of the tables `t`:
    with Psi = (cb, e^{i phi} sb) and xi_j = (x0, x1) at the apparatus angles,
    amp = |x0|^2 cb^2 + |x1|^2 sb^2 and re = Re(x0 conj(x1) e^{i phi}).
    Axis 0 is the outcome j, then come the broadcast shape of the angles and
    the input axis."""
    x = np.array(_projector_amplitudes(theta_meas, phi_meas))[..., None]
    x0, x1 = x[:, 0], x[:, 1]
    z = x0 * np.conj(x1)
    amp = np.abs(x0) ** 2 * t["cb2"] + np.abs(x1) ** 2 * t["sb2"]
    return amp, z.real * t["cos_ph"] - z.imag * t["sin_ph"]


def strategy_integral(j: int, theta_prep, phi_prep, theta_meas: float,
                      phi_meas: float, n: int, quad: BlochQuadrature):
    """Joint success-fidelity integral of one outcome branch.

    Averages |<Psi|xi_j>|^2 |<psi|eta(theta_prep, phi_prep)>|^2 over the input
    ensemble, where xi_j sits at the apparatus orientation and eta is the
    re-prepared qubit.  The preparation angles may be arrays (broadcast);
    the apparatus angles are scalars.
    """
    j = _require_count(j, "outcome index", least=0)
    _require(j <= 1, f"outcome index {j} not in {{0, 1}}")
    _require_angles(theta_meas, phi_meas, "apparatus ", scalar=True)
    tp, pp = _require_angles(theta_prep, phi_prep, "preparation ")
    t = _ensemble_tables(n, quad)
    amp, re = _branch_weights(theta_meas, phi_meas, t)
    wp = t["w"] * (amp[j][:, None] + t["cbsb2"][:, None] * re[j][None, :])

    shape = np.broadcast_shapes(np.shape(tp), np.shape(pp))
    tp = np.broadcast_to(tp, shape).reshape(-1, 1, 1)
    pp = np.broadcast_to(pp, shape).reshape(-1, 1, 1)
    cp, sp = np.cos(tp / 2.0), np.sin(tp / 2.0)
    cos_dp = t["cos_ph"][None, None, :] * np.cos(pp) + t["sin_ph"][None, None, :] * np.sin(pp)
    c, s = t["c"][None, :, None], t["s"][None, :, None]
    q = (c * cp) ** 2 + (s * sp) ** 2 + 2.0 * c * cp * s * sp * cos_dp

    vals = np.einsum("tp,ktp->k", wp, q)
    return vals.reshape(shape) if shape else float(vals[0])


def _branch_suprema(theta_meas, t: dict[str, np.ndarray]) -> np.ndarray:
    """sup over preparation directions of both branch integrals, exactly, at
    each apparatus polar angle; shape (2,) + shape of theta_meas.

    |<psi|eta>|^2 = (1 + r_psi . r_eta) / 2, so the branch integral equals
    (P + R . r_eta) / 2, with P = sum w p_j the weighted outcome probability
    and R = sum w p_j r_psi the weighted Bloch vector of the inputs.  Over
    unit r_eta the supremum is (P + |R|) / 2, attained at r_eta = R / |R|
    (Massar & Popescu, PRL 74, 1259 (1995)).  The apparatus azimuth is fixed
    at zero.

    Each factor of p_j (`_branch_weights`) and of the Bloch components meets
    w on its own axis: no array spans apparatus angles and both input axes.
    """
    amp, re = _branch_weights(theta_meas, 0.0, t)
    f_th, f_ph, w = t["bloch_th"], t["bloch_ph"], t["w"]
    moments = amp @ (f_th * (f_ph @ w.T)).T + re @ (f_ph * ((f_th * t["cbsb2"]) @ w)).T
    return 0.5 * (moments[..., 0] + np.linalg.norm(moments[..., 1:], axis=-1))


def optimal_measurement_bound_numeric(n: int) -> float:
    """Re-derive the measurement bound by an apparatus-angle search.

    Both branch suprema over the re-prepared qubit are exact
    (`_branch_suprema`); their sum is maximized over the apparatus polar
    angle by `core._grid_refine`, from a 64-node grid on [0, pi] down to a
    bracket at most 1e-6 wide.  The refine is needed: for N >= 2 the
    maximum lies at pi/2, between nodes of the first grid, which alone falls
    short by 1e-6 (N = 2) to 1e-5.  The inputs are averaged with the default
    64x64 `BlochQuadrature`, and the apparatus azimuth is fixed at zero: the
    ensemble is azimuthally covariant.
    """
    t = _ensemble_tables(n, BlochQuadrature())
    return _grid_refine(lambda tm: _branch_suprema(tm, t).sum(axis=0),
                        0.0, np.pi, 64, 1e-6)
