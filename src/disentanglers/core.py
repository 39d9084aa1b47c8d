"""Qubit states, symmetric dilution, partial traces, sphere quadrature, and
the two numpy searches the re-derivations use (a lockstep Nelder-Mead and a
grid refine).

A single qubit |psi(theta, phi)> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>
spread symmetrically over N qubits stays inside the two-dimensional span of
the fully symmetric states with zero or one excitation, so most of the
machinery here works with two complex amplitudes regardless of N.  A 2^n
statevector is a `SupportStateVector`: the rows that may be nonzero and
their amplitudes, n+1 of them for a symmetric state or the network's
output.  Its `dense()` amplitudes are only materialized where an honest
brute-force cross-check (partial trace, gate network) is wanted.

Conventions fixed throughout the package:
  * qubit 1 is the most significant bit of a statevector index,
  * pure states are compared through |<a|b>|^2, never amplitude-wise,
  * sphere averages use the normalized measure sin(theta) dtheta dphi / (4 pi).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

MAX_STATEVECTOR_QUBITS = 24

STATEVECTOR_NORM_TOL = 1e-10

MAX_CLOSED_FORM_N = 2 ** 340


class DomainError(ValueError):
    """An argument is outside the range an operation is defined on."""


class CapacityError(ValueError):
    """A request would exceed the dense-statevector size cap."""


def _require(cond: bool, msg: str, exc: type[Exception] = DomainError) -> None:
    if not cond:
        raise exc(msg)


def _require_count(n, name: str = "n", least: int = 1) -> int:
    """Return n as a Python int; raise DomainError, naming the count, unless
    n is an integer (not a bool) with n >= least.  Callers compute with the
    returned value, so a narrow numpy integer such as np.uint8(16) cannot
    wrap in n * n."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"need an integer {name} >= {least}, got {n!r}")
    return int(n)


def _require_angles(theta, phi=0.0, what: str = "", scalar: bool = False):
    """The polar angles (theta, phi), converted; DomainError unless each is a
    real number (not complex, a string or an object), each theta is in
    [0, pi], each azimuth is finite (any is taken, being 2 pi-periodic; NaN
    is neither) and, if `scalar`, both are scalars.  Two float scalars
    (Python or numpy) come back as Python floats by a branch of their own,
    with the same checks and messages; anything else comes back as two float
    arrays.  Values are formatted only into a message that is raised."""
    if isinstance(theta, float) and isinstance(phi, float):
        # NaN fails every comparison, so both guards reject it
        if not 0.0 <= theta <= np.pi:
            raise DomainError(f"{what}theta={theta} outside [0, pi]")
        if not math.isfinite(phi):
            raise DomainError(f"{what}phi={phi}: phi not finite")
        return float(theta), float(phi)
    th, ph = np.asarray(theta), np.asarray(phi)
    if th.dtype.kind not in "biuf" or ph.dtype.kind not in "biuf":
        raise DomainError(f"{what}angles must be real numbers, got {theta!r}, {phi!r}")
    th, ph = th.astype(float, copy=False), ph.astype(float, copy=False)
    _require(not scalar or th.ndim == ph.ndim == 0, f"{what}angles must be scalars")
    if not ((th >= 0.0) & (th <= np.pi)).all():
        raise DomainError(f"{what}theta={theta} outside [0, pi]")
    if not np.isfinite(ph).all():
        raise DomainError(f"{what}phi={phi}: phi not finite")
    return th, ph


def _float_count(n):
    """A checked count as the float the closed forms compute with.

    They form powers of N up to N^3, so N must stay below
    MAX_CLOSED_FORM_N = 2^340 (N^3 < 2^1020 is finite); DomainError
    otherwise.  Up to 2^53 the float is exact and gives the integer's
    arithmetic bit for bit.  An integer numpy array of counts gets the same
    checks, naming its first failing entry, and gives a float array; its
    fixed-width dtype keeps every entry below 2^64, inside that range.
    """
    if isinstance(n, np.ndarray):
        _require(n.dtype.kind in "iu", f"need an integer n array, got dtype {n.dtype}")
        low = n < 1
        if low.any():
            raise DomainError(f"need an integer n >= 1, got {n.flat[np.argmax(low)]}")
        return n.astype(float)
    n = _require_count(n)
    if n >= MAX_CLOSED_FORM_N:
        raise DomainError("need n < 2**340 for the closed forms, "
                          f"got n >= 2**{n.bit_length() - 1}")
    return float(n)


class NelderMead(NamedTuple):
    """Per-row outcome of `_nelder_mead`: best point, its value, objective
    evaluations, and whether the row met its stop rule within its budget."""

    x: np.ndarray
    fun: np.ndarray
    nfev: np.ndarray
    converged: np.ndarray


def _sorted_simplex(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's vertices in ascending order of value, by argsort per row."""
    order = np.argsort(fsim, axis=1)
    rows = np.arange(fsim.shape[0])[:, None]
    return sim[rows, order], fsim[rows, order]


def _nelder_mead(fun: Callable[[np.ndarray, np.ndarray], np.ndarray], x0: np.ndarray,
                 xatol: float, fatol: float, maxiter: int, maxfev: int) -> NelderMead:
    """Minimize from every row of x0 (shape (rows, dim)) by Nelder-Mead, all
    rows in lockstep, each with its own simplex, counts and stop rule.

    `fun(rows, x)` returns the objective of the rows with indices `rows` at
    the points x (one per row), so rows may differ in more than their start.
    Every rule is scipy's `minimize(method="Nelder-Mead")` without bounds or
    adaptation (Nelder & Mead, Comput. J. 7, 308 (1965); Lagarias et al.,
    SIAM J. Optim. 9, 112 (1998)): reflection 1, expansion 2, contraction
    and shrink 1/2; a start simplex moving each coordinate by +5% (0.00025
    if it is 0); vertices ordered by argsort; a row stops once its vertices
    lie within `xatol` and their values within `fatol` of the best, or at
    `maxiter` iterations or `maxfev` evaluations, where an evaluation past
    the budget ends the step it falls in.  Given the same scalar objective
    each row follows scipy's iterates bit for bit.  A step evaluates the
    reflection of every row, then one more point per row: the expansion, or
    the outside or inside contraction, whichever scipy would try next.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    rows, dim = x0.shape
    sim = np.repeat(x0[:, None, :].astype(float), dim + 1, axis=1)
    k = np.arange(dim)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full((rows, dim + 1), np.inf)
    nfev = np.zeros(rows, dtype=int)
    iterations = np.ones(rows, dtype=int)
    met = np.zeros(rows, dtype=bool)

    def evaluate(idx, want, points, live):
        """Values of `fun` at points[i] for the i with want[i] and live[i],
        rows idx[i]; a row whose budget is spent leaves `live` instead."""
        i = np.flatnonzero(want & live)
        spent = nfev[idx[i]] >= maxfev
        live[i[spent]] = False
        i = i[~spent]
        nfev[idx[i]] += 1
        out = np.zeros(idx.size)
        if i.size:
            out[i] = fun(idx[i], points[i])
        return out

    every = np.arange(rows)
    live = np.ones(rows, dtype=bool)
    for v in range(dim + 1):
        fsim[:, v] = np.where(live, evaluate(every, live, sim[:, v], live), np.inf)
    # scipy sorts the start simplex twice; argsort is not stable, so the
    # second sort can swap tied vertices
    for _ in range(2):
        sim, fsim = _sorted_simplex(sim, fsim)

    while True:
        idx = np.flatnonzero(~met & (nfev < maxfev) & (iterations < maxiter))
        s, f = sim[idx], fsim[idx]
        done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=2).max(axis=1) <= xatol)
                & (np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= fatol))
        met[idx[done]] = True
        idx, s, f = idx[~done], s[~done], f[~done]
        if not idx.size:
            break
        live = np.ones(idx.size, dtype=bool)
        xbar = np.add.reduce(s[:, :-1], 1) / dim
        worst = s[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = evaluate(idx, live, xr, live)
        expand = live & (fxr < f[:, 0])
        contract = live & ~expand & ~(fxr < f[:, -2])
        outside = contract & (fxr < f[:, -1])
        inside = contract & ~outside
        xe = (1 + rho * chi) * xbar - rho * chi * worst
        xc = (1 + psi * rho) * xbar - psi * rho * worst
        xcc = (1 - psi) * xbar + psi * worst
        x2 = np.where(expand[:, None], xe, np.where(outside[:, None], xc, xcc))
        fx2 = evaluate(idx, expand | contract, x2, live)
        better = live & np.where(expand, fx2 < fxr,
                                 np.where(outside, fx2 <= fxr, fx2 < f[:, -1]))
        take2 = (expand | contract) & better
        take_r = live & ~contract & ~take2
        s[take2, -1], f[take2, -1] = x2[take2], fx2[take2]
        s[take_r, -1], f[take_r, -1] = xr[take_r], fxr[take_r]
        shrink = contract & live & ~better
        if shrink.any():
            for v in range(1, dim + 1):
                moved = shrink & live
                s[moved, v] = s[moved, 0] + sigma * (s[moved, v] - s[moved, 0])
                fv = evaluate(idx, moved, s[:, v], live)
                f[moved & live, v] = fv[moved & live]
        iterations[idx[live]] += 1
        sim[idx], fsim[idx] = _sorted_simplex(s, f)

    converged = (nfev < maxfev) & (iterations < maxiter)
    return NelderMead(sim[:, 0], np.min(fsim, axis=1), nfev, converged)


def _grid_refine(fun: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 nodes: int, xatol: float) -> float:
    """Maximize the array function `fun` on [lo, hi]: evaluate it on `nodes`
    equally spaced points, narrow [lo, hi] to the best node's neighbours,
    and repeat until that bracket is at most `xatol` wide.  A pass keeps
    2 / (nodes - 1) of the bracket, so nodes >= 4.  Returns the largest
    value evaluated, NaN if a pass's best is NaN."""
    best = -np.inf
    while True:
        x = np.linspace(lo, hi, nodes)
        f = fun(x)
        k = int(np.argmax(f))
        best = np.maximum(best, f[k])
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, nodes - 1)]
        if hi - lo <= xatol:
            return float(best)


def _closed_form(n, at_one: float, formula: Callable):
    """`formula` at the float count of n, or at each count of an integer
    array n, with the value `at_one` at N = 1, where the formula reads 0/0.
    N = 1 entries are evaluated at N = 2 and then replaced, so no
    RuntimeWarning arises; a scalar n gives a float."""
    x = _float_count(n)
    one = x == 1.0
    out = np.where(one, at_one, formula(np.where(one, 2.0, x)))
    return out if out.ndim else float(out)


def _libm_pow(x, p: float):
    """x ** p through the C library's pow, for a scalar or each array entry.

    `np.float_power` applies libm's pow to every float64 element in C.
    `np.power` would not do: its SIMD kernels, and its x*x path at p = 2,
    round some values differently from pow in the last bit.  The closed
    forms whose power is inexact raise through this one function, so a
    scalar and an array evaluation agree bit for bit, and so do the
    `table` bytes.  A scalar x gives a float."""
    out = np.float_power(x, p)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class PureQubit:
    """Bloch-parameterized pure qubit with theta in [0, pi], phi in [0, 2 pi)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        _require_angles(self.theta, self.phi, scalar=True)
        if not 0.0 <= self.phi < TWO_PI:
            raise DomainError(f"phi={self.phi} outside [0, 2 pi)")

    def amplitudes(self) -> np.ndarray:
        return np.array([np.cos(self.theta / 2.0),
                         np.exp(1j * self.phi) * np.sin(self.theta / 2.0)], dtype=complex)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "PureQubit":
        """Build with phi reduced mod 2 pi (theta must already be in range);
        the angles pass `_require_angles` first, as scalars.

        A phi a rounding error below a multiple of 2 pi reduces to exactly
        2 pi in floating point; that value is folded back to 0.
        """
        theta, phi = _require_angles(theta, phi, scalar=True)
        phi = float(phi) % TWO_PI
        return cls(float(theta), 0.0 if phi == TWO_PI else phi)

    @classmethod
    def from_amplitudes(cls, vec: np.ndarray) -> "PureQubit":
        """Extract Bloch angles from a 2-vector, discarding the global phase."""
        v = np.asarray(vec, dtype=complex)
        _require(v.shape == (2,), "expected a 2-component amplitude vector")
        _require(bool(np.all(np.isfinite(v))), "amplitudes not finite")
        norm = np.linalg.norm(v)
        _require(norm > 0, "cannot extract angles from the zero vector")
        v = v / norm
        theta = 2.0 * np.arctan2(abs(v[1]), abs(v[0]))
        phi = 0.0 if abs(v[1]) < 1e-15 else float(np.angle(v[1]) - np.angle(v[0]))
        return cls.from_angles(min(max(theta, 0.0), np.pi), phi)


@dataclass(frozen=True)
class DickeVector:
    """N-qubit state c0 |N;0> + c1 |N;1> in the symmetric zero/one-excitation span."""

    n: int
    c0: complex
    c1: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_count(self.n))
        c0, c1 = np.asarray(self.c0), np.asarray(self.c1)
        if c0.ndim or c1.ndim or c0.dtype.kind not in "biufc" or c1.dtype.kind not in "biufc":
            raise DomainError(f"amplitudes must be two numbers, got {self.c0!r}, {self.c1!r}")
        norm2 = abs(self.c0) ** 2 + abs(self.c1) ** 2
        _require(abs(norm2 - 1.0) < 1e-12, f"amplitudes not normalized: |c|^2 = {norm2}")

    def amplitudes(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)


@dataclass(frozen=True)
class SupportStateVector:
    """A 2^n statevector held as its support: the rows that may be nonzero,
    strictly ascending, and their amplitudes; every other row is zero.  Bit
    k-1 of a row (from the top) is the state of qubit k.  A dense state is
    the support over every row, np.arange(2^n); n is capped at
    MAX_STATEVECTOR_QUBITS = 24, so `dense()` always exists.

    The norm must be within STATEVECTOR_NORM_TOL = 1e-10 of 1 for any
    m <= 2^n amplitudes.  `np.linalg.norm` evaluates sqrt(re.re + im.im)
    from two dot products of m terms.  Its worst-case relative error, about
    m u with u = 2^-53, exceeds 1e-10 from m = 2^20 on, but rounding errors
    of a sum behave like a random walk: with probability at least
    1 - 2 exp(-lambda^2 / 2) the error of the squared norm stays below
    lambda sqrt(2m) u (Higham & Mary, SIAM J. Sci. Comput. 41, A2815
    (2019)).  At m = 2^24 and lambda = 10 that is 6.4e-12, half of it for
    the norm; a caller's own normalization by `np.linalg.norm` adds as much
    again, which leaves a margin above 10.  Dense random states at n = 20
    measure below 1e-14.
    """

    n: int
    rows: np.ndarray
    amps: np.ndarray

    def __post_init__(self) -> None:
        n = _require_count(self.n)
        _require(n <= MAX_STATEVECTOR_QUBITS,
                 f"n={n} exceeds the {MAX_STATEVECTOR_QUBITS}-qubit statevector cap",
                 CapacityError)
        # copies, so freezing them leaves the caller's arrays writable
        rows = np.array(self.rows)
        a = np.array(self.amps, dtype=complex)
        _require(rows.dtype.kind in "iu" and rows.ndim == 1 and a.shape == rows.shape,
                 "expected equally long 1-D integer rows and amplitudes")
        # int64 holds every row below 2^24, so a gate's bit shift cannot wrap
        # as it would in a narrow dtype such as uint8
        rows = rows.astype(np.int64, copy=False)
        norm = np.linalg.norm(a)
        _require(abs(norm - 1.0) < STATEVECTOR_NORM_TOL, f"statevector norm {norm} != 1")
        _require(bool(rows[0] >= 0 and rows[-1] < 2 ** n and (rows[1:] > rows[:-1]).all()),
                 f"rows not strictly ascending in [0, 2^{n})")
        rows.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "amps", a)

    def dense(self) -> np.ndarray:
        """The 2^n complex amplitudes, zero off the support."""
        amps = np.zeros(2 ** self.n, dtype=complex)
        amps[self.rows] = self.amps
        return amps


def _min_eigenvalue(a: float, d: float, b: complex) -> float:
    """The smaller eigenvalue (a + d)/2 - hypot((a - d)/2, |b|) of the
    Hermitian 2x2 matrix [[a, conj(b)], [b, d]].

    Error model, with u = 2^-53 and r the hypot: the half sum and the half
    difference round once each (halving is exact), `math.hypot` is within
    one ulp and carries the half difference's rounding at most once more,
    and the final subtraction rounds once, so the result is within
    u (|a + d|/2 + 3 r + |result|) of the exact eigenvalue.  For a unit-trace
    matrix near the PSD cut r is about 1/2, which bounds the error by about
    2u = 2.2e-16; `eigvalsh` is backward stable to a few u as well.
    """
    return (a + d) / 2.0 - math.hypot((a - d) / 2.0, b.real, b.imag)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite qubit (2x2) matrix.

    The checks read the four entries as Python scalars: each Hermiticity
    residual |m_ij - conj(m_ji)| below 1e-10, compared one by one so that a
    NaN or an infinite entry fails as in the array form; the real trace
    within 1e-10 of 1; and the smaller eigenvalue of the lower triangle (as
    `eigvalsh` reads it), in the closed form of `_min_eigenvalue`, above
    -1e-10.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        # a copy, so freezing it leaves the caller's array writable
        m = np.array(self.entries, dtype=complex)
        _require(m.shape == (2, 2), f"expected a 2x2 matrix, got shape {m.shape}")
        a, b, c, d = m.ravel().tolist()
        # not max(): it keeps its first operand when a later one is NaN
        _require(abs(a - a.conjugate()) < 1e-10 and abs(b - c.conjugate()) < 1e-10
                 and abs(d - d.conjugate()) < 1e-10, "matrix is not Hermitian")
        if not abs(a.real + d.real - 1.0) < 1e-10:
            raise DomainError(f"trace {np.trace(m)} != 1")
        _require(_min_eigenvalue(a.real, d.real, c) > -1e-10, "matrix is not PSD")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def dilute_angle(theta, n: int):
    """Polar angle of the symmetric N-qubit image of a qubit at `theta`.

    cos(out/2) = sqrt(N) cos(theta/2) / sqrt(sin^2(theta/2) + N cos^2(theta/2)),
    with sin(out/2) >= 0.  Computed as 2 arctan2(sin(theta/2), sqrt(N)
    cos(theta/2)), which keeps its relative accuracy at large N, where the
    cosine is within rounding of 1.  Accepts scalars or arrays.
    """
    n = _float_count(n)
    th, _ = _require_angles(theta)
    out = 2.0 * np.arctan2(np.sin(th / 2.0), np.sqrt(n) * np.cos(th / 2.0))
    return out if out.ndim else float(out)


def symmetric_state(psi: PureQubit, n: int) -> DickeVector:
    """Symmetric N-qubit dilution of a single qubit (identity for n=1)."""
    tbar = dilute_angle(psi.theta, n)
    return DickeVector(n, np.cos(tbar / 2.0), np.exp(1j * psi.phi) * np.sin(tbar / 2.0))


def _dicke_support(v: DickeVector) -> tuple[np.ndarray, np.ndarray]:
    """The n+1 nonzero entries of the dense expansion of `v`, rows ascending:
    c0 at row 0 (no excitation), then c1 / sqrt(n) at rows 1, 2, 4, ..., 2^(n-1)
    (the single excitation on qubit n, n-1, ..., 1)."""
    rows = np.concatenate(([0], 2 ** np.arange(v.n)))
    amps = np.full(v.n + 1, v.c1 / np.sqrt(v.n), dtype=complex)
    amps[0] = v.c0
    return rows, amps


def dicke_to_statevector(v: DickeVector) -> SupportStateVector:
    """The two-amplitude symmetric state as a 2^n statevector: the support
    of its n+1 nonzero rows."""
    return SupportStateVector(v.n, *_dicke_support(v))


def reduced_qubit(state: SupportStateVector, which: int) -> DensityOperator:
    """Partial trace of the dense amplitudes down to qubit `which`
    (1-indexed, qubit 1 = top bit)."""
    which = _require_count(which, "qubit index")
    _require(which <= state.n, f"qubit index {which} outside 1..{state.n}")
    tensor = state.dense().reshape((2,) * state.n)
    m = np.moveaxis(tensor, which - 1, 0).reshape(2, -1)
    return DensityOperator(m @ m.conj().T)


def symmetric_marginal(v: DickeVector) -> DensityOperator:
    """Single-qubit marginal of the symmetric state, in closed form.

    Equals `reduced_qubit` of the dense expansion for any qubit index, for
    every N below MAX_CLOSED_FORM_N (DomainError from there on).  The
    three-term decomposition below is not a convex mixture (the middle
    weight is negative for N > 1); only the sum is a state.
    """
    n = _float_count(v.n)
    cb2 = abs(v.c0) ** 2
    sb2 = abs(v.c1) ** 2
    psi = np.array([v.c0, v.c1], dtype=complex)
    rho = ((n - 1) / n) * np.diag([1.0, 0.0]).astype(complex)
    rho += ((1 - np.sqrt(n)) / n) * np.diag([cb2, sb2])
    rho += (1 / np.sqrt(n)) * np.outer(psi, psi.conj())
    return DensityOperator(rho)


def fidelity_pure(psi: PureQubit, rho: DensityOperator) -> float:
    """<psi| rho |psi> for a qubit density operator, as its real part.

    The imaginary part dropped is <psi|A|psi> / i for the anti-Hermitian part
    A = (rho - rho^H) / 2, whose entries `DensityOperator` bounds by half its
    1e-10 Hermiticity tolerance: below 5e-11 when the diagonal of rho is
    real, and below 1e-10 (the 2x2 row-sum bound) in any case.
    """
    v = psi.amplitudes()
    return complex(v.conj() @ rho.entries @ v).real


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only polar nodes arccos(u) and weights w/2 of the n_theta-point
    Gauss-Legendre rule in u = cos(theta), built once per size (the 16
    sizes used last are kept)."""
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    nodes, weights = np.arccos(u), wu / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True, eq=False)
class BlochQuadrature:
    """Gauss-Legendre (in cos theta) x trapezoid (in phi) rule on the sphere.

    Weights are normalized to the measure sin(theta) dtheta dphi / (4 pi), so
    they sum to one.  Exact for integrands polynomial of degree <= 2 n_theta - 1
    in cos(theta) and bandlimited below n_phi in phi.  The nodes and the
    (n_theta, n_phi) weights are built once per rule and are read-only.
    """

    n_theta: int = 64
    n_phi: int = 64
    theta_nodes: np.ndarray = field(init=False, repr=False)
    phi_nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("n_theta", "n_phi"):
            object.__setattr__(self, name, _require_count(getattr(self, name), name, least=2))
        nodes, weights = _gauss_legendre(self.n_theta)
        phi_nodes = TWO_PI * np.arange(self.n_phi) / self.n_phi
        w = np.outer(weights, np.full(self.n_phi, 1.0 / self.n_phi))
        phi_nodes.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "theta_nodes", nodes)
        object.__setattr__(self, "phi_nodes", phi_nodes)
        object.__setattr__(self, "weights", w)

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Meshed (theta, phi, weight) arrays of shape (n_theta, n_phi); the
        two meshes are built on each call."""
        th, ph = np.meshgrid(self.theta_nodes, self.phi_nodes, indexing="ij")
        return th, ph, self.weights


def bloch_average(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  quad: BlochQuadrature) -> float:
    """Average f(theta, phi) over the sphere; f must act elementwise and
    broadcast over arrays.

    The rule is a product, so f gets the polar nodes as a column and the
    azimuth nodes as a row: a factor of theta alone is evaluated once per
    polar node, not once per grid point.  Each grid point's value, and so
    the weighted sum over the meshed grid, is the same as from the meshed
    arrays of `grid()`."""
    w = quad.weights
    vals = f(quad.theta_nodes[:, None], quad.phi_nodes[None, :])
    return float(np.sum(w * np.broadcast_to(np.asarray(vals, dtype=float), w.shape)))


def diluted_avg_fidelity(n):
    """Mean fidelity (N^2 - 1 - 2 ln N) / (2 (N-1)^2) between one qubit of the
    symmetric dilution and the original; 1 at N=1, 1/2 as N grows.  Takes a
    count or an integer array of counts.  (N-1)^2 is the product
    (N-1)(N-1), one rounding for scalars and arrays alike; `a ** 2` would
    call libm's pow for a float but x*x for an array (`_libm_pow`)."""
    return _closed_form(n, 1.0, lambda n: (n * n - 1.0 - 2.0 * np.log(n))
                        / (2.0 * (n - 1.0) * (n - 1.0)))
