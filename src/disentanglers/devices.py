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

A `DeviceTransform` may also hold a stack of k devices at one count: a
(k, 4, MACHINE_DIM) vectors array, whose (k, 4, 4) Gram stack is checked by
the one unitarity guard.  `gram_summary`, `unitarity_residuals`,
`device_avg_fidelity`, `apply_transform` and `pointwise_fidelity` act on
every member at once, each member with the bits of the same call on that
device alone.  `pointwise_fidelity` aligns the stack with the leading axis
of the angles, so member j reads theta[j], phi[j] (or all of a scalar
angle, or of an angle array whose leading axis has length 1).
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
    _require_complex,
    _require_count,
    _require_each,
    _require_instance,
    dilute_angle,
)

MACHINE_DIM = 4

UNITARITY_TOL = 1e-8

RESTARTS = 8


class UnitarityError(ValueError):
    """A device transform violates the unitarity constraints."""


class OptimizationError(RuntimeError):
    """A constrained device search failed to produce a feasible optimum."""


def _gram_residuals(g: np.ndarray) -> tuple:
    """The three unitarity residuals of a Gram matrix, or of each of a stack."""
    d = g.real
    return (np.abs(d[..., 0, 0] + d[..., 1, 1] - 1.0),
            np.abs(d[..., 2, 2] + d[..., 3, 3] - 1.0),
            np.abs(g[..., 0, 2] + g[..., 1, 3]))


_VECTORS_FORM = f"vectors must be a numeric array of shape (4, {MACHINE_DIM}), the rows D1..D4"


@dataclass(frozen=True, eq=False)
class DeviceTransform:
    """A sector-preserving device unitary, fixed by its four machine vectors:
    the rows D1..D4 of one read-only (4, MACHINE_DIM) complex array, or a
    stack of k devices at one count, (k, 4, MACHINE_DIM).

    Their Gram matrix is formed once, here, and read by `gram_summary`.  A
    device is built only if each unitarity residual of every member is below
    UNITARITY_TOL (UnitarityError otherwise, naming the first failing
    member's residuals; a NaN residual fails)."""

    n: int
    vectors: np.ndarray
    _gram_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_count(self.n))
        v = _require_complex(self.vectors, (4, MACHINE_DIM), _VECTORS_FORM)
        g = v.conj() @ np.swapaxes(v, -1, -2)
        res = _gram_residuals(g)
        below = (res[0] < UNITARITY_TOL) & (res[1] < UNITARITY_TOL) & (res[2] < UNITARITY_TOL)
        _require_each(below, lambda i: (f"unitarity residuals {tuple(float(r[i]) for r in res)} "
                                        f"exceed {UNITARITY_TOL}"), UnitarityError)
        v.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_gram_matrix", g)


def gram_summary(t: DeviceTransform) -> np.ndarray:
    """Gram matrix <Di|Dj> of the four machine vectors, read-only; ||Di||^2
    on its diagonal.  (k, 4, 4) for a stack."""
    return _require_instance(t, DeviceTransform)._gram_matrix


def unitarity_residuals(t: DeviceTransform) -> tuple:
    """Deviations from the three unitarity constraints:
    | ||D1||^2 + ||D2||^2 - 1 |, | ||D3||^2 + ||D4||^2 - 1 |, |<D1|D3> + <D2|D4>|,
    the moduli of the entries of im im^H - I for the sector images
    im = [D1 D2; D3 D4]; three arrays over the members of a stack."""
    return _gram_residuals(gram_summary(t))


def apply_transform(t: DeviceTransform,
                    big_psi: DickeVector) -> tuple[np.ndarray, DensityOperator]:
    """Run the device on a symmetric-sector input.

    Returns the joint (qubit, machine) pure state as a (2, 4) array and the
    qubit density operator left after tracing out the machine; with a stack
    of devices or of inputs (or one of each, alike long), a (k, 2, 4) array
    and a stack of k operators.
    """
    v = _require_instance(t, DeviceTransform).vectors
    _require(t.n == _require_instance(big_psi, DickeVector).n,
             "transform and input qubit counts differ")
    a0, a1 = (np.asarray(c)[..., None, None] for c in (big_psi.c0, big_psi.c1))
    # rows a0 D1 + a1 D3 and a0 D2 + a1 D4
    joint = a0 * v[..., :2, :] + a1 * v[..., 2:, :]
    return joint, DensityOperator(joint @ np.swapaxes(joint.conj(), -1, -2))


def pointwise_fidelity(t: DeviceTransform, theta, phi):
    """Fidelity of the disentangled qubit against the original at one input
    orientation; broadcasts over angle arrays, checked by `_require_angles`.
    For a stack of devices, member j reads the angles at index j of their
    leading axis (see the module docstring), and leads the result.

    The Gram quadratic form F = Re(x^H G x), with x = (diluted input) (x)
    conj(original qubit) and Gram index 2i + a for sector input i and
    output level a: x holds the coefficients, on D1..D4, of the machine
    state left by projecting the output qubit onto the original.  Each
    x_a = r_a e^{i s_a phi} with a real r_a of theta alone and
    s = (0, -1, 1, 0), and G is Hermitian, so F is a trigonometric
    polynomial of degree 2 in phi whose coefficients depend on theta alone:
    F = C0 + 2 sum_{m=1,2} Re(A_m e^{i m phi}), A_m = sum over s_b - s_a = m
    of r_a r_b G_ab.  They are formed once per polar angle and device.
    """
    g = gram_summary(t)
    th, ph = _require_angles(theta, phi)
    tbar = dilute_angle(th, t.n)
    c, s = np.cos(th / 2.0), np.sin(th / 2.0)
    cb, sb = np.cos(tbar / 2.0), np.sin(tbar / 2.0)
    r = (cb * c, cb * s, sb * c, sb * s)
    # each member's Gram entries on the leading axis of the angles
    lead = g.shape[:-2]
    axes = len(np.broadcast_shapes(np.shape(th), np.shape(ph)))
    g = g.reshape(lead + (1,) * max(axes - len(lead), 0) + (4, 4))

    def term(a, b):
        return g[..., a, b] * (r[a] * r[b])

    c0 = (term(0, 0) + term(3, 3) + term(1, 1) + term(2, 2)).real + 2.0 * term(0, 3).real
    a1 = term(1, 0) + term(1, 3) + term(0, 2) + term(3, 2)
    a2 = term(1, 2)
    val = (c0 + 2.0 * (a1.real * np.cos(ph) - a1.imag * np.sin(ph))
           + 2.0 * (a2.real * np.cos(2.0 * ph) - a2.imag * np.sin(2.0 * ph)))
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
    g2 = _closed_form(n, 1.0, lambda x: _covariant(x, (0.0,))[0])
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
    """max - min of the pointwise fidelity of one device over a deterministic
    1000-point golden-spiral covering of the sphere; zero means input-state
    independence."""
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


def _avg_coefficients(n) -> tuple:
    """(m1 N, m2, m3, N, 2 sqrt(N)) at the float count N: the first products
    of `_avg_fidelity`'s formula, so forming them once keeps its bits."""
    count = _float_count(n)
    m1, m2, m3 = moment_integrals(n)
    return m1 * count, m2, m3, count, 2.0 * np.sqrt(count)


def _avg_fidelity(coefficients, d1_sq, d2_sq, d3_sq, d4_sq, re14):
    """Sphere-averaged disentangling fidelity from the Gram data, at the
    count of `_avg_coefficients` (or at each of arrays of them):
    (1/2) [ m1 N ||D1||^2 + m2 ||D4||^2
            + m3 ( ||D3||^2 + N ||D2||^2 + 2 sqrt(N) Re <D1|D4> ) ]."""
    m1n, m2, m3, n, two_root_n = coefficients
    return 0.5 * (m1n * d1_sq + m2 * d4_sq + m3 * (d3_sq + n * d2_sq + two_root_n * re14))


def device_avg_fidelity(t: DeviceTransform):
    """Sphere-averaged disentangling fidelity of a device, from its Gram
    data (see `_avg_fidelity`); an array over the members of a stack."""
    d = gram_summary(t).real
    return _avg_fidelity(_avg_coefficients(t.n), d[..., 0, 0], d[..., 1, 1],
                         d[..., 2, 2], d[..., 3, 3], d[..., 0, 3])


def _gaussian_draw(rng: np.random.Generator) -> np.ndarray:
    """The (2 MACHINE_DIM, 2) complex Gaussian matrix that `random_transform`
    orthonormalizes: its real parts drawn first, then its imaginary parts."""
    shape = (2 * MACHINE_DIM, 2)
    z = _require_instance(rng, np.random.Generator).standard_normal(shape)
    return z + 1j * rng.standard_normal(shape)


def _orthonormalized(n: int, z: np.ndarray) -> DeviceTransform:
    """The device whose two sector images, (D1, D2) and (D3, D4) stacked,
    are the orthonormalized columns of z, or the stack of devices of a
    (k, 2 MACHINE_DIM, 2) stack of draws: one QR for all of them."""
    q, _ = np.linalg.qr(z)
    return DeviceTransform(n, np.swapaxes(q, -1, -2).reshape(q.shape[:-2] + (4, MACHINE_DIM)))


def random_transform(n: int, rng: np.random.Generator) -> DeviceTransform:
    """Random device satisfying the unitarity constraints exactly: the two
    sector images, (D1, D2) and (D3, D4) stacked, are orthonormalized
    columns of a Gaussian complex matrix."""
    return _orthonormalized(n, _gaussian_draw(rng))


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
    coefficients = np.repeat(np.transpose([_avg_coefficients(k) for k in ns]), RESTARTS, axis=1)
    counts = coefficients[3]
    draws = np.random.default_rng(seed).uniform(0.0, np.pi, (RESTARTS, dim))
    starts = np.tile(draws, (len(ns), 1))
    res = _nelder_mead(lambda p: -_avg_fidelity(coefficients, *_gram(*family(counts, p))),
                       starts, xatol=1e-8, fatol=1e-13, maxiter=4000, maxfev=4000)
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
