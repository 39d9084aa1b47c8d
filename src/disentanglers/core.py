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

Stacks: `PureQubit`, `DickeVector`, `SupportStateVector` (whose members
share their rows) and `DensityOperator` also hold k members at one count n,
given as their usual arguments with one leading axis of length k (two
equally long 1-D arrays of angles or amplitudes, a (k, m) amplitude block,
a (k, 2, 2) matrix stack).  Each guard is written once and runs over the
whole stack; a single object is the stack without that axis, checked with
the same message, and a failing stack names its first failing member.  The
functions that take these objects act on every member at once, and each
member of a result has the bits of the same call on that member alone.

Conventions fixed throughout the package:
  * qubit 1 is the most significant bit of a statevector index,
  * pure states are compared through |<a|b>|^2, never amplitude-wise,
  * sphere averages use the normalized measure sin(theta) dtheta dphi / (4 pi).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

MAX_STATEVECTOR_QUBITS = 24

STATEVECTOR_NORM_TOL = 1e-10

MAX_CLOSED_FORM_N = 2 ** 340

# The most nodes `BlochQuadrature` takes along either axis: numpy's
# `leggauss` forms an n_theta x n_theta companion matrix (8 MiB at the cap),
# and the weights are n_theta x n_phi floats.
MAX_QUADRATURE_NODES = 1024


class DomainError(ValueError):
    """An argument is outside the range an operation is defined on."""


class CapacityError(ValueError):
    """A request would exceed a size cap: the statevector's, the cascade's
    or the quadrature's."""


def _require(cond: bool, msg: str, exc: type[Exception] = DomainError) -> None:
    if not cond:
        raise exc(msg)


def _require_each(ok, message: Callable[[tuple], str],
                  exc: type[Exception] = DomainError) -> None:
    """Raise exc(message(i)) unless every entry of the boolean array ok holds,
    i the index of the first that does not: () for the 0-d check of a
    single object, which so reads as the same check of a stack's member.
    A scalar True (Python's or numpy's) is taken at once."""
    if ok is True or ok is np.True_:
        return
    if not np.logical_and.reduce(ok, axis=None):
        raise exc(message(np.unravel_index(np.argmin(ok), np.shape(ok))))


def _require_instance(x, kind: type):
    """x; DomainError unless it is a `kind`: the one guard for a state,
    device or generator argument."""
    if not isinstance(x, kind):
        raise DomainError(f"need a {kind.__name__}, got {type(x).__name__}")
    return x


def _fields_equal(self, other):
    """`==` of the stack-capable value types, a bool for single objects and
    stacks alike: whether other has the same type and each field is
    `np.array_equal` to its own, so of the same shape.  A single object
    compares its scalars as the dataclass `==` does, and hashes as before."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self))


def _stored(a):
    """A checked value in its one stored form: a Python scalar for a single
    object, a read-only copy for a stack."""
    if isinstance(a, np.ndarray) and a.ndim:
        a = a.copy()
        a.setflags(write=False)
        return a
    return a.item() if isinstance(a, (np.ndarray, np.generic)) else a


def _squared_norm(x: np.ndarray) -> np.ndarray:
    """The sum of the squared moduli of the complex array x along its last
    axis, for each member of a stack: a vector dot product of m terms,
    within about m u relative (u = 2^-53)."""
    return np.vecdot(x, x).real


def _folded_azimuth(phi):
    """phi reduced mod 2 pi, a float or each entry of an array.  A phi a
    rounding error below a multiple of 2 pi reduces to exactly 2 pi in
    floating point; that value is folded back to 0."""
    phi = phi % TWO_PI
    return phi - TWO_PI * (phi == TWO_PI)


def _require_count(n, name: str = "n", least: int = 1) -> int:
    """Return n as a Python int; raise DomainError, naming the count, unless
    n is an integer (not a bool) with n >= least.  Callers compute with the
    returned value, so a narrow numpy integer such as np.uint8(16) cannot
    wrap in n * n."""
    if type(n) is int and n >= least:
        return n
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"need an integer {name} >= {least}, got {n!r}")
    return int(n)


def _require_angles(theta, phi=0.0, what: str = "", scalar: bool = False,
                    stack: bool = False):
    """The polar angles (theta, phi), converted; DomainError unless each is a
    real number (not complex, a string or an object), each theta is in
    [0, pi], each azimuth is finite (any is taken, being 2 pi-periodic; NaN
    is neither), if `scalar` both are scalars, and if `stack` both are
    scalars or both 1-D arrays of one length (a stack's).  Two float scalars
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
    _require(not stack or (th.shape == ph.shape and th.ndim <= 1),
             f"{what}angles must be two scalars or two equally long 1-D arrays")
    if not ((th >= 0.0) & (th <= np.pi)).all():
        raise DomainError(f"{what}theta={theta} outside [0, pi]")
    if not np.isfinite(ph).all():
        raise DomainError(f"{what}phi={phi}: phi not finite")
    return th, ph


def _require_qubits(n) -> int:
    """n checked by `_require_count`; CapacityError past MAX_STATEVECTOR_QUBITS."""
    n = _require_count(n)
    if n > MAX_STATEVECTOR_QUBITS:
        raise CapacityError(f"n={n} exceeds the {MAX_STATEVECTOR_QUBITS}-qubit "
                            "statevector cap")
    return n


def _require_array(x, kinds: str, msg: str) -> np.ndarray:
    """np.asarray(x); DomainError(msg) unless numpy converts x to an array
    whose dtype kind is in `kinds` (so not a ragged one, and not a string or
    object one unless asked for)."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(msg) from None
    _require(a.dtype.kind in kinds, msg)
    return a


def _require_complex(x, shape: tuple, msg: str) -> np.ndarray:
    """x as a fresh complex array, which the caller may freeze; DomainError(msg)
    unless `_require_array` takes x as a bool, integer, float or complex array
    (ints past the float range come as an object one) of `shape`, or of a
    stack of them: (k,) + shape."""
    a = _require_array(x, "biufc", msg)
    _require(a.shape[a.ndim - len(shape):] == shape and a.ndim - len(shape) in (0, 1), msg)
    return a.astype(complex)


def _float_count(n) -> float:
    """A checked count as the float the closed forms compute with.  They form
    powers up to N^3, so DomainError from MAX_CLOSED_FORM_N = 2^340 on (N^3 <
    2^1020 is finite), and for an array.  Up to 2^53 the float is exact."""
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


def _sorted_simplex(sim: np.ndarray, fsim: np.ndarray,
                    selected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each selected row's vertices in ascending order of value, by argsort."""
    order = np.where(selected[:, None], np.argsort(fsim, axis=1), np.arange(fsim.shape[1]))
    every = np.arange(fsim.shape[0])[:, None]
    return sim[every, order], fsim[every, order]


def _nelder_mead(fun: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                 xatol: float, fatol: float, maxiter: int, maxfev: int) -> NelderMead:
    """Minimize from every row of x0 (shape (rows, dim)) by Nelder-Mead, all
    rows in lockstep, each with its own simplex, counts and stop rule.

    `fun(x)` returns the objective at every row of a (rows, dim) array x,
    row i by start i's objective, so rows may differ in more than their
    start.  Every rule is scipy's `minimize(method="Nelder-Mead")` without
    bounds or adaptation (Nelder & Mead, Comput. J. 7, 308 (1965); Lagarias
    et al., SIAM J. Optim. 9, 112 (1998)): reflection 1, expansion 2,
    contraction and shrink 1/2; a start simplex moving each coordinate by
    +5% (0.00025 if it is 0); vertices ordered by argsort; a row stops once
    its vertices lie within `xatol` and their values within `fatol` of the
    best, or at `maxiter` iterations or `maxfev` evaluations, where an
    evaluation past the budget ends the step it falls in.  Given the same
    scalar objective each row follows scipy's iterates bit for bit.  Each
    phase of a step (the reflection; the expansion or the contraction scipy
    would try next; each shrink vertex) calls `fun` on every row, stopped
    ones included, and a row reads and counts only the values it asks for.
    """
    rows, dim = x0.shape
    sim = np.repeat(x0[:, None, :].astype(float), dim + 1, axis=1)
    k = np.arange(dim)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full((rows, dim + 1), np.inf)
    start = min(dim + 1, maxfev)
    for v in range(start):
        fsim[:, v] = fun(sim[:, v])
    nfev = np.full(rows, start)
    iterations = np.ones(rows, dtype=int)
    go = np.ones(rows, dtype=bool)
    # scipy sorts the start simplex twice; argsort is not stable, so the
    # second sort can swap tied vertices
    for _ in range(2):
        sim, fsim = _sorted_simplex(sim, fsim, go)
    # (reflection, expansion, outside, inside contraction) = a xbar - b worst,
    # with the bits of scipy's (1 + rho) xbar - rho worst and its kin
    a = np.array([2.0, 3.0, 1.5, 0.5])[:, None, None]
    b = np.array([1.0, 2.0, 0.5, -0.5])[:, None, None]
    every = np.arange(rows)
    gap = np.zeros((rows, dim))

    while True:
        # a row that stops, by its rule or a budget, stays stopped
        go &= (nfev < maxfev) & (iterations < maxiter)
        near = go & (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
        # values are compared only where scipy compares them, so an inf
        # vertex of a spent row gives no inf - inf
        np.subtract(fsim[:, :1], fsim[:, 1:], out=gap, where=near[:, None])
        go &= ~(near & (np.abs(gap).max(axis=1) <= fatol))
        if not go.any():
            break
        trial = a * (np.add.reduce(sim[:, :-1], 1) / dim) - b * sim[:, -1]
        fxr = fun(trial[0])
        nfev += go
        expand = fxr < fsim[:, 0]
        contract = ~expand & ~(fxr < fsim[:, -2])
        outside = contract & (fxr < fsim[:, -1])
        x2 = trial[3 - 2 * expand - outside, every]
        want = go & (expand | contract)
        live = go & ~(want & (nfev >= maxfev))
        fx2 = fun(x2)
        asked = want & live
        nfev += asked
        better = np.where(expand, fx2 < fxr,
                          np.where(outside, fx2 <= fxr, fx2 < fsim[:, -1]))
        take2 = asked & better
        # the worst vertex gives way to x2 where it is better, else to xr
        # where no contraction was tried
        replaced = take2 | (live & ~contract)
        shrink = asked & contract & ~better
        np.copyto(sim[:, -1], np.where(take2[:, None], x2, trial[0]), where=replaced[:, None])
        np.copyto(fsim[:, -1], np.where(take2, fx2, fxr), where=replaced)
        if shrink.any():
            for v in range(1, dim + 1):
                moved = shrink & live
                np.copyto(sim[:, v], sim[:, 0] + 0.5 * (sim[:, v] - sim[:, 0]),
                          where=moved[:, None])
                live &= ~(moved & (nfev >= maxfev))
                fv = fun(sim[:, v])
                moved &= live
                nfev += moved
                np.copyto(fsim[:, v], fv, where=moved)
        iterations += live
        sim, fsim = _sorted_simplex(sim, fsim, go)

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
    """`formula` at `_float_count(n)`, or at each count of an integer array n
    (checked alike, naming the first failing entry; its fixed width keeps
    each below 2^64), with `at_one` at N = 1, where the formula reads 0/0.
    N = 1 entries are evaluated at N = 2 and then replaced, so no
    RuntimeWarning arises; a scalar n gives a float."""
    if isinstance(n, np.ndarray):
        _require(n.dtype.kind in "iu", f"need an integer n array, got dtype {n.dtype}")
        low = n < 1
        if low.any():
            raise DomainError(f"need an integer n >= 1, got {n.flat[np.argmax(low)]}")
        x = n.astype(float)
    else:
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
    """Bloch-parameterized pure qubit with theta in [0, pi], phi in [0, 2 pi):
    two floats, or for a stack two equally long read-only float arrays."""

    theta: float
    phi: float = 0.0
    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        th, ph = _require_angles(self.theta, self.phi, stack=True)
        _require_each((ph >= 0.0) & (ph < TWO_PI),
                      lambda i: f"phi={np.asarray(ph)[i]} outside [0, 2 pi)")
        object.__setattr__(self, "theta", _stored(th))
        object.__setattr__(self, "phi", _stored(ph))

    def amplitudes(self) -> np.ndarray:
        """The amplitudes (cos(theta/2), e^{i phi} sin(theta/2)), on the last
        axis of a (2,) array, or of a (k, 2) one for a stack."""
        return np.ascontiguousarray(np.array(
            [np.cos(self.theta / 2.0), np.exp(1j * self.phi) * np.sin(self.theta / 2.0)],
            dtype=complex).T)

    @classmethod
    def from_angles(cls, theta, phi) -> "PureQubit":
        """Build with phi reduced mod 2 pi by `_folded_azimuth` (theta must
        already be in range); the angles pass `_require_angles` first, as
        for the constructor."""
        theta, phi = _require_angles(theta, phi, stack=True)
        return cls(theta, _folded_azimuth(phi))

    @classmethod
    def from_amplitudes(cls, vec: np.ndarray) -> "PureQubit":
        """Extract Bloch angles from a 2-vector, or from each row of a (k, 2)
        stack of them, discarding the global phase."""
        v = _require_complex(vec, (2,), "expected a 2-component amplitude vector")
        # re0, im0, re1, im1 of each member; a modulus itself may overflow
        parts = v.view(float).reshape(v.shape[:-1] + (4,))
        # the largest part is inf or NaN exactly where some part is
        largest = np.abs(parts).max(axis=-1, keepdims=True)
        if not (np.isfinite(largest) & (largest > 0)).all():
            _require(bool(np.isfinite(largest).all()), "amplitudes not finite")
            raise DomainError("cannot extract angles from the zero vector")
        # scaled by 2^-e to below 1 in every part, so no modulus over- or
        # underflows; a power of two scales exactly, and the angles read only
        # ratios, so they are those of the unscaled vector, bit for bit
        v = np.ldexp(parts, -np.frexp(largest)[1]).view(complex)
        modulus, angle = np.abs(v), np.arctan2(v.imag, v.real)
        up, down = modulus[..., 0], modulus[..., 1]
        # both moduli are >= 0, so theta lies in [0, pi]: doubling pi/2 is exact
        theta = 2.0 * np.arctan2(down, up)
        # no azimuth where the |1> amplitude is below 1e-15 of the vector's norm
        phi = np.where(down < 1e-15 * np.hypot(up, down), 0.0, angle[..., 1] - angle[..., 0])
        return cls(_stored(theta), _folded_azimuth(_stored(phi)))


@dataclass(frozen=True)
class DickeVector:
    """N-qubit state c0 |N;0> + c1 |N;1> in the symmetric zero/one-excitation
    span: two complex numbers, or for a stack two equally long read-only
    complex arrays, at one n."""

    n: int
    c0: complex
    c1: complex
    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_count(self.n))
        # (c0, c1) on the first axis; ragged or mixed forms do not convert
        try:
            c = _require_array((self.c0, self.c1), "biufc", "").astype(complex)
            _require(c.ndim <= 2, "")
        except DomainError:
            raise DomainError("amplitudes must be two numbers or two equally long 1-D "
                              f"arrays, got {self.c0!r}, {self.c1!r}") from None
        norm2 = _squared_norm(c.T)
        _require_each(np.abs(norm2 - 1.0) < 1e-12,
                      lambda i: f"amplitudes not normalized: |c|^2 = {norm2[i]}")
        object.__setattr__(self, "c0", _stored(c[0]))
        object.__setattr__(self, "c1", _stored(c[1]))

    def amplitudes(self) -> np.ndarray:
        """(c0, c1) on the last axis: shape (2,), or (k, 2) for a stack."""
        return np.ascontiguousarray(np.array([self.c0, self.c1], dtype=complex).T)


_SUPPORT_FORM = "expected equally long 1-D integer rows and amplitudes"


@dataclass(frozen=True)
class SupportStateVector:
    """A 2^n statevector held as its support: the rows that may be nonzero,
    strictly ascending, and their amplitudes; every other row is zero.  Bit
    k-1 of a row (from the top) is the state of qubit k.  A dense state is
    the support over every row, np.arange(2^n); n is capped at
    MAX_STATEVECTOR_QUBITS = 24, so `dense()` always exists.  A stack of k
    states on the same rows holds a (k, m) amplitude block.

    The norm must be within STATEVECTOR_NORM_TOL = 1e-10 of 1 for any
    m <= 2^n amplitudes.  `_squared_norm` along the amplitude axis sums m
    squared moduli, and the norm is its square root.  Its worst-case
    relative error, about m u with u = 2^-53, exceeds 1e-10 from m = 2^20
    on, but rounding errors of a sum behave like a random walk: with
    probability at least
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
    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        n = _require_qubits(self.n)
        rows = _require_array(self.rows, "iu", _SUPPORT_FORM)
        _require(rows.ndim == 1, _SUPPORT_FORM)
        # copies, so freezing them leaves the caller's arrays writable; int64
        # holds every row below 2^24, so a gate's bit shift cannot wrap as it
        # would in a narrow dtype such as uint8
        rows = rows.astype(np.int64)
        a = _require_complex(self.amps, rows.shape, _SUPPORT_FORM)
        norm = np.sqrt(_squared_norm(a))
        _require_each(np.abs(norm - 1.0) < STATEVECTOR_NORM_TOL,
                      lambda i: f"statevector norm {norm[i]} != 1")
        _require(bool(rows[0] >= 0 and rows[-1] < 2 ** n and (rows[1:] > rows[:-1]).all()),
                 f"rows not strictly ascending in [0, 2^{n})")
        rows.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "amps", a)

    def dense(self) -> np.ndarray:
        """The 2^n complex amplitudes, zero off the support, on the last axis."""
        amps = np.zeros(self.amps.shape[:-1] + (2 ** self.n,), dtype=complex)
        amps[..., self.rows] = self.amps
        return amps


def _min_eigenvalue(a, d, b):
    """The smaller eigenvalue (a + d)/2 - hypot((a - d)/2, |b|) of the
    Hermitian 2x2 matrix [[a, conj(b)], [b, d]], elementwise for arrays.

    Error model, with u = 2^-53 and r the hypot: the half sum and the half
    difference round once each (halving is exact), |b| and the outer
    `np.hypot` are within one ulp each and the half difference's rounding
    passes through once more, and the final subtraction rounds once, so the
    result is within u (|a + d|/2 + 4 r + |result|) of the exact eigenvalue.
    For a unit-trace matrix near the PSD cut r is about 1/2, which bounds
    the error by about 2.5u = 2.8e-16; `eigvalsh` is backward stable to a
    few u as well.
    """
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(b))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite qubit (2x2) matrix, or a
    (k, 2, 2) stack of them.

    The checks, per member: each Hermiticity residual |m_ij - conj(m_ji)|
    below 1e-10, compared one by one so that a NaN or an infinite entry
    fails; the real trace within 1e-10 of 1; and the smaller eigenvalue of
    the lower triangle (as `eigvalsh` reads it), in the closed form of
    `_min_eigenvalue`, above -1e-10.
    """

    entries: np.ndarray
    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        m = _require_complex(self.entries, (2, 2), "expected a 2x2 matrix")
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        # an infinite part gives a NaN residual (inf - inf), which fails; not
        # a max(): it keeps its first operand when a later one is NaN
        with np.errstate(invalid="ignore"):
            hermitian = ((np.abs(a - a.conj()) < 1e-10) & (np.abs(b - c.conj()) < 1e-10)
                         & (np.abs(d - d.conj()) < 1e-10))
        _require_each(hermitian, lambda i: "matrix is not Hermitian")
        _require_each(np.abs(a.real + d.real - 1.0) < 1e-10,
                      lambda i: f"trace {np.trace(m[i])} != 1")
        _require_each(_min_eigenvalue(a.real, d.real, c) > -1e-10,
                      lambda i: "matrix is not PSD")
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
    """Symmetric N-qubit dilution of a single qubit (identity for n=1), or
    of each member of a stack."""
    tbar = dilute_angle(_require_instance(psi, PureQubit).theta, n)
    return DickeVector(n, np.cos(tbar / 2.0), np.exp(1j * psi.phi) * np.sin(tbar / 2.0))


@functools.lru_cache(maxsize=MAX_STATEVECTOR_QUBITS)
def _dicke_rows(n: int) -> np.ndarray:
    """The rows 0, 1, 2, 4, ..., 2^(n-1) of the n+1 amplitudes of a symmetric
    state, ascending and read-only; built once per n."""
    rows = np.concatenate(([0], 2 ** np.arange(n)))
    rows.setflags(write=False)
    return rows


def _dicke_support(v: DickeVector) -> tuple[np.ndarray, np.ndarray]:
    """The n+1 nonzero entries of the dense expansion of `v`, rows ascending:
    c0 at row 0 (no excitation), then c1 / sqrt(n) at rows 1, 2, 4, ..., 2^(n-1)
    (the single excitation on qubit n, n-1, ..., 1), on the last axis of the
    amplitudes; n checked by `_require_qubits`.

    Each part of c1 is divided by sqrt(n) as a float, rounded once, whatever
    the numeric type c1 was given in: a complex division would multiply
    by the reciprocal and round twice."""
    n = _require_qubits(_require_instance(v, DickeVector).n)
    rows = _dicke_rows(n)
    c1 = np.asarray(v.c1, dtype=complex)[..., None]
    amps = np.empty(c1.shape[:-1] + (n + 1,), dtype=complex)
    amps[..., 0] = v.c0
    amps[..., 1:] = (c1.view(float) / np.sqrt(n)).view(complex)
    return rows, amps


def dicke_to_statevector(v: DickeVector) -> SupportStateVector:
    """The two-amplitude symmetric state as a 2^n statevector: the support
    of its n+1 nonzero rows (for a stack, rows shared)."""
    rows, amps = _dicke_support(v)
    return SupportStateVector(v.n, rows, amps)


def reduced_qubit(state: SupportStateVector, which: int) -> DensityOperator:
    """Partial trace of the dense amplitudes down to qubit `which`
    (1-indexed, qubit 1 = top bit)."""
    which = _require_count(which, "qubit index")
    _require(which <= _require_instance(state, SupportStateVector).n,
             f"qubit index {which} outside 1..{state.n}")
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
    n = _float_count(_require_instance(v, DickeVector).n)
    cb2 = abs(v.c0) ** 2
    sb2 = abs(v.c1) ** 2
    psi = np.array([v.c0, v.c1], dtype=complex)
    rho = ((n - 1) / n) * np.diag([1.0, 0.0]).astype(complex)
    rho += ((1 - np.sqrt(n)) / n) * np.diag([cb2, sb2])
    rho += (1 / np.sqrt(n)) * np.outer(psi, psi.conj())
    return DensityOperator(rho)


def fidelity_pure(psi: PureQubit, rho: DensityOperator):
    """<psi| rho |psi> for a qubit density operator, as its real part; per
    member (an array) when either is a stack.

    The imaginary part dropped is <psi|A|psi> / i for the anti-Hermitian part
    A = (rho - rho^H) / 2, whose entries `DensityOperator` bounds by half its
    1e-10 Hermiticity tolerance: below 5e-11 when the diagonal of rho is
    real, and below 1e-10 (the 2x2 row-sum bound) in any case.
    """
    v = _require_instance(psi, PureQubit).amplitudes()
    m = _require_instance(rho, DensityOperator).entries
    val = (v.conj()[..., None, :] @ m @ v[..., :, None])[..., 0, 0].real
    return val if val.ndim else float(val)


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
    Either size past MAX_QUADRATURE_NODES raises CapacityError before
    anything is allocated.
    """

    n_theta: int = 64
    n_phi: int = 64
    theta_nodes: np.ndarray = field(init=False, repr=False)
    phi_nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("n_theta", "n_phi"):
            size = _require_count(getattr(self, name), name, least=2)
            _require(size <= MAX_QUADRATURE_NODES,
                     f"{name}={size} exceeds the {MAX_QUADRATURE_NODES}-node quadrature cap",
                     CapacityError)
            object.__setattr__(self, name, size)
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
                  quad: BlochQuadrature):
    """Average f(theta, phi) over the sphere; f must act elementwise and
    broadcast over arrays.

    The rule is a product, so f gets the polar nodes as a column and the
    azimuth nodes as a row: a factor of theta alone is evaluated once per
    polar node, not once per grid point.  Each grid point's value, and so
    the weighted sum over the meshed grid, is the same as from the meshed
    arrays of `grid()`.  A float; if f returns a stack of grids (leading
    axes before the last two), the array of their averages, each with the
    bits of its grid's average alone."""
    _require(callable(f), f"need a callable, got {type(f).__name__}")
    quad = _require_instance(quad, BlochQuadrature)
    vals = f(quad.theta_nodes[:, None], quad.phi_nodes[None, :])
    avg = np.sum(quad.weights * np.asarray(vals, dtype=float), axis=(-2, -1))
    return avg if avg.ndim else float(avg)


def diluted_avg_fidelity(n):
    """Mean fidelity (N^2 - 1 - 2 ln N) / (2 (N-1)^2) between one qubit of the
    symmetric dilution and the original; 1 at N=1, 1/2 as N grows.  Takes a
    count or an integer array of counts.  (N-1)^2 is the product
    (N-1)(N-1), one rounding for scalars and arrays alike; `a ** 2` would
    call libm's pow for a float but x*x for an array (`_libm_pow`)."""
    return _closed_form(n, 1.0, lambda n: (n * n - 1.0 - 2.0 * np.log(n))
                        / (2.0 * (n - 1.0) * (n - 1.0)))
