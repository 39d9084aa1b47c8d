"""Coherent disentangling devices on the symmetric sector.

A device is a unitary acting on (symmetric sector) x (machine), fixed by four
unnormalized machine vectors: the zero-excitation input maps to
|0>|D1> + |1>|D2> and the one-excitation input to |0>|D3> + |1>|D4>, up to the
spectator zero-excitation factor on the remaining qubits.  Unitarity on the
two-dimensional input sector pins down three Gram constraints; everything
measurable about a device (pointwise and average fidelity) is a function of
the Gram data alone.  The average fidelity reads only three Gram
coordinates, ||D1||^2, ||D4||^2 and Re <D1|D4>, so the optimizers search
those; one builder, `_device`, realizes every constructed device from them,
and only the optimum a search returns is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DensityOperator,
    DickeVector,
    _closed_form,
    _float_count,
    _libm_pow,
    _nelder_mead,
    _require,
    _require_angles,
    _require_count,
    dilute_angle,
)

MACHINE_DIM = 4

UNITARITY_TOL = 1e-8

RESTARTS = 8


class UnitarityError(ValueError):
    """A device transform violates the unitarity constraints."""


class OptimizationError(RuntimeError):
    """A constrained device search failed to produce a feasible optimum."""


@dataclass(frozen=True, eq=False)
class DeviceTransform:
    """A sector-preserving device unitary, fixed by its four machine vectors:
    the rows D1..D4 of one read-only (4, MACHINE_DIM) complex array.

    Their Gram matrix is formed once, here, and read by `gram_summary`;
    unitarity is checked where the device is used, not here."""

    n: int
    vectors: np.ndarray
    _gram_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_count(self.n))
        try:  # a copy, so freezing it leaves the caller's array writable
            v = np.array(self.vectors, dtype=complex)
        except ValueError:  # ragged rows
            v = np.empty(0)
        _require(v.shape == (4, MACHINE_DIM),
                 f"vectors must be an array of shape (4, {MACHINE_DIM}), the rows D1..D4")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        g = v.conj() @ v.T
        g.setflags(write=False)
        object.__setattr__(self, "_gram_matrix", g)


def gram_summary(t: DeviceTransform) -> np.ndarray:
    """Gram matrix <Di|Dj> of the four machine vectors, read-only; ||Di||^2
    on its diagonal."""
    return t._gram_matrix


def _gram_residuals(g: np.ndarray) -> tuple[float, float, float]:
    return (abs(g[0, 0].real + g[1, 1].real - 1.0),
            abs(g[2, 2].real + g[3, 3].real - 1.0),
            abs(g[0, 2] + g[1, 3]))


def unitarity_residuals(t: DeviceTransform) -> tuple[float, float, float]:
    """Deviations from the three unitarity constraints:
    | ||D1||^2 + ||D2||^2 - 1 |, | ||D3||^2 + ||D4||^2 - 1 |, |<D1|D3> + <D2|D4>|,
    the moduli of the entries of im im^H - I for the sector images
    im = [D1 D2; D3 D4]."""
    return _gram_residuals(gram_summary(t))


def _check_unitary(t: DeviceTransform) -> np.ndarray:
    """The Gram matrix of `t`, once its unitarity residuals pass; a NaN
    residual fails."""
    g = gram_summary(t)
    res = _gram_residuals(g)
    if not all(r < UNITARITY_TOL for r in res):
        raise UnitarityError(f"unitarity residuals {res} exceed {UNITARITY_TOL}")
    return g


def apply_transform(t: DeviceTransform,
                    big_psi: DickeVector) -> tuple[np.ndarray, DensityOperator]:
    """Run the device on a symmetric-sector input.

    Returns the joint (qubit, machine) pure state as a (2, 4) array and the
    qubit density operator left after tracing out the machine.
    """
    _require(t.n == big_psi.n, "transform and input qubit counts differ")
    _check_unitary(t)
    a0, a1 = big_psi.c0, big_psi.c1
    d1, d2, d3, d4 = t.vectors
    joint = np.stack([a0 * d1 + a1 * d3, a0 * d2 + a1 * d4])
    return joint, DensityOperator(joint @ joint.conj().T)


def pointwise_fidelity(t: DeviceTransform, theta, phi):
    """Fidelity of the disentangled qubit against the original at one input
    orientation; broadcasts over angle arrays, checked by `_require_angles`.

    The Gram quadratic form Re(x^H G x), with x = (diluted input) (x)
    conj(original qubit) and Gram index 2i + a for sector input i and
    output level a: x holds the coefficients, on D1..D4, of the machine
    state left by projecting the output qubit onto the original.
    """
    g = _check_unitary(t)
    th, ph = _require_angles(theta, phi)
    phase = np.exp(1j * ph)
    tbar = dilute_angle(th, t.n)
    qubit = np.broadcast_arrays(np.cos(th / 2.0), phase * np.sin(th / 2.0))
    diluted = np.broadcast_arrays(np.cos(tbar / 2.0), phase * np.sin(tbar / 2.0))
    x = np.stack([d * np.conj(q) for d in diluted for q in qubit], axis=-1)
    val = np.real(np.sum(x.conj() * (x @ g.T), axis=-1))
    return val if val.ndim else float(val)


def _device(n: int, eta1: float, eta4: float, w: float) -> DeviceTransform:
    """The device with ||D1||^2 = eta1, ||D4||^2 = eta4 and
    Re <D1|D4> = sqrt(eta1 eta4) w, for eta1, eta4 in [0, 1] and w in [-1, 1].
    D1 and D4 lie in span(e0, e1), D2 and D3 on e2 and e3 with the norms
    left over, so every unitarity constraint holds by construction."""
    v = np.zeros((4, MACHINE_DIM))
    v[0, 0] = np.sqrt(eta1)
    v[1, 2] = np.sqrt(1.0 - eta1)
    v[2, 3] = np.sqrt(1.0 - eta4)
    v[3, :2] = np.sqrt(eta4) * w, np.sqrt(eta4) * np.sqrt(1.0 - w * w)
    return DeviceTransform(n, v)


def _gram(eta1, eta4, w) -> tuple:
    """The Gram scalars that `_avg_fidelity` reads, of `_device(n, eta1, eta4, w)`
    without building it: ||D1||^2, ||D2||^2, ||D3||^2, ||D4||^2, Re <D1|D4>;
    elementwise for arrays."""
    return eta1, 1.0 - eta1, 1.0 - eta4, eta4, np.sqrt(eta1 * eta4) * w


def _general(count, p) -> tuple:
    """General family: (eta1, eta4, w) = (sin^2 a, sin^2 b, cos c) for
    p = (a, b, c), onto [0, 1]^2 x [-1, 1], or for each row of an array p
    of shape (rows, 3); the count is not read."""
    a, b, c = np.asarray(p).T
    return np.sin(a) ** 2, np.sin(b) ** 2, np.cos(c)


def _covariant(count, p) -> tuple:
    """Covariant family: (g^2, g^2, cos(omega)) for p = (omega,), or for
    each row of an array p of shape (rows, 1), with
    g^2 = (N+1) / (2 (N+1 - sqrt(N) cos(omega))) at the float count N, or
    at each of an array of them; matched norms and this g^2 make the
    pointwise fidelity independent of the input."""
    x = np.cos(np.asarray(p)[..., 0])
    g2 = (count + 1.0) / (2.0 * (count + 1.0 - np.sqrt(count) * x))
    return g2, g2, x


def universal_coefficients(n) -> tuple:
    """Amplitude pair (gamma, delta) of the covariant optimum, the covariant
    family at omega = 0: gamma^2 = (N+1) / (2 (N+1-sqrt(N))),
    delta = sqrt(1 - gamma^2).  Floats for a count, arrays for an integer
    array of counts."""
    g2 = _covariant(_float_count(n), (0.0,))[0]
    gamma, delta = np.sqrt(g2), np.sqrt(np.maximum(1.0 - g2, 0.0))
    return (gamma, delta) if np.ndim(g2) else (float(gamma), float(delta))


def universal_disentangler(n: int) -> DeviceTransform:
    """Covariant optimum: constant fidelity gamma^2 for every input."""
    return _device(n, *_covariant(_float_count(n), (0.0,)))


def swap_disentangler(n: int) -> DeviceTransform:
    """State-swapping device: decouples the machine and leaves the qubit in
    the diluted pure state.  Maximizes the sphere-averaged fidelity."""
    return _device(n, 1.0, 1.0, 1.0)


def covariance_spread(t: DeviceTransform) -> float:
    """max - min of the pointwise fidelity over a deterministic 1000-point
    golden-spiral covering of the sphere; zero means input-state independence."""
    k = np.arange(1000)
    theta = np.arccos(1.0 - 2.0 * (k + 0.5) / k.size)
    phi = (k * np.pi * (np.sqrt(5.0) - 1.0)) % (2.0 * np.pi)
    vals = pointwise_fidelity(t, theta, phi)
    return float(np.max(vals) - np.min(vals))


def _moment(num):
    """The formula num(N, ln N) / (N-1)^3 of a moment, for float counts N > 1."""
    return lambda n: num(n, np.log(n)) / _libm_pow(n - 1.0, 3.0)


# each moment written once; `measurement.optimal_measurement_bound` reads m3
_m1 = _moment(lambda n, ln: 3.0 - 4.0 * n + n * n + 2.0 * ln)
_m2 = _moment(lambda n, ln: -1.0 + 4.0 * n - 3.0 * n * n + 2.0 * n * n * ln)
_m3 = _moment(lambda n, ln: -1.0 + n * n - 2.0 * n * ln)


def moment_integrals(n):
    """Polar moments (m1, m2, m3) of the diluted ensemble: integrals of
    sin(theta) dtheta / (N cos^2(theta/2) + sin^2(theta/2)) times cos^4, sin^4
    and sin^2 cos^2 of the half-angle.  N m1 + m2 + (N+1) m3 = 2; (2/3, 2/3,
    1/3) at N=1.  Floats for a count, arrays for an integer array of counts."""
    return (_closed_form(n, 2.0 / 3.0, _m1), _closed_form(n, 2.0 / 3.0, _m2),
            _closed_form(n, 1.0 / 3.0, _m3))


def _avg_fidelity(n: float, moments: tuple[float, float, float], d1_sq: float,
                  d2_sq: float, d3_sq: float, d4_sq: float, re14: float) -> float:
    """Sphere-averaged disentangling fidelity from the Gram data, for the
    count N as the float `_float_count` returns:
    (1/2) [ m1 N ||D1||^2 + m2 ||D4||^2
            + m3 ( ||D3||^2 + N ||D2||^2 + 2 sqrt(N) Re <D1|D4> ) ]."""
    m1, m2, m3 = moments
    return 0.5 * (m1 * n * d1_sq + m2 * d4_sq
                  + m3 * (d3_sq + n * d2_sq + 2.0 * np.sqrt(n) * re14))


def device_avg_fidelity(t: DeviceTransform) -> float:
    """Sphere-averaged disentangling fidelity of a unitarity-checked device,
    from its Gram data (see `_avg_fidelity`)."""
    g = _check_unitary(t)
    return _avg_fidelity(_float_count(t.n), moment_integrals(t.n),
                         *g.diagonal().real, float(np.real(g[0, 3])))


def random_transform(n: int, rng: np.random.Generator) -> DeviceTransform:
    """Random device satisfying the unitarity constraints exactly: the two
    sector images, (D1, D2) and (D3, D4) stacked, are orthonormalized
    columns of a Gaussian complex matrix."""
    z = rng.standard_normal((2 * MACHINE_DIM, 2)) + 1j * rng.standard_normal(
        (2 * MACHINE_DIM, 2))
    q, _ = np.linalg.qr(z)
    return DeviceTransform(n, q.T.reshape(4, MACHINE_DIM))


def _restart_search(family, n, dim: int, seed: int):
    """Nelder-Mead from `RESTARTS` seeded starts per count on the average
    fidelity of the Gram coordinates `family(count, p)`, p of length `dim`.

    n is a count or a sequence of counts; every (count, restart) row moves
    in one lockstep search, and each count gets the starts it would get
    alone, the first RESTARTS draws of default_rng(seed).  Per count, the
    best optimum is built by `_device` and evaluated through
    `device_avg_fidelity`; OptimizationError names the first count none of
    whose restarts converged.  Returns the (device, value) pair for a
    count, a list of them for a sequence."""
    seed = _require_count(seed, "seed", least=0)
    ns = [n] if np.ndim(n) == 0 else list(n)
    _require(np.ndim(n) <= 1 and len(ns) > 0,
             f"need a count or a nonempty sequence of counts, got {n!r}")
    counts = np.repeat([_float_count(k) for k in ns], RESTARTS)
    moments = np.repeat([moment_integrals(k) for k in ns], RESTARTS, axis=0).T
    draws = np.random.default_rng(seed).uniform(0.0, np.pi, (RESTARTS, dim))
    starts = np.tile(draws, (len(ns), 1))

    def objective(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
        count = counts[rows]
        return -_avg_fidelity(count, moments[:, rows], *_gram(*family(count, p)))

    res = _nelder_mead(objective, starts, xatol=1e-8, fatol=1e-13,
                       maxiter=4000, maxfev=4000)
    found = []
    for i, k in enumerate(ns):
        rows = range(i * RESTARTS, (i + 1) * RESTARTS)
        if not res.converged[rows].any():
            raise OptimizationError(
                f"none of {RESTARTS} device-search restarts converged at n={k}")
        best = min(rows, key=res.fun.__getitem__)
        if not np.isfinite(res.fun[best]):
            raise OptimizationError(f"device search produced no feasible optimum at n={k}")
        t = _device(k, *family(counts[best], res.x[best]))
        found.append((t, device_avg_fidelity(t)))
    return found if np.ndim(n) else found[0]


def optimize_average(n, seed: int = 0):
    """Maximize the sphere-averaged fidelity over all unitarity-constrained
    devices, at a count or at each of a sequence of counts (one batched
    search).  The optimum is the state-swapping device.  Raises
    OptimizationError when no restart at a count converges.

    The average fidelity of a unitary device reads only ||D1||^2, ||D4||^2
    (||D2||^2 and ||D3||^2 are their complements) and Re <D1|D4>, which obeys
    |Re <D1|D4>| <= ||D1|| ||D4||.  `_general` reaches every such triple, so
    searching it searches the whole domain of the objective."""
    return _restart_search(_general, n, 3, seed)


def optimize_universal(n, seed: int = 0):
    """Maximize the (constant) fidelity over covariant devices, at a count or
    at each of a sequence of counts (one batched search).  The optimum is
    the universal disentangler with gamma^2 fidelity.  Raises
    OptimizationError when no restart at a count converges."""
    return _restart_search(_covariant, n, 1, seed)
