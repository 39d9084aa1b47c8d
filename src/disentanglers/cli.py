"""Command-line frontend: fidelity tables, verification suite, network runs.

Three subcommands:

  table    write the per-N fidelity curves of the five strategies as CSV
  verify   run the closed-form/quadrature/optimizer/network cross-checks
  network  run the probabilistic disentangler and report sampled statistics

Data goes to the chosen file or stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import devices, measurement, network
from .core import (
    BlochQuadrature,
    CapacityError,
    DickeVector,
    DomainError,
    PureQubit,
    _libm_pow,
    _require,
    _require_count,
    bloch_average,
    dicke_to_statevector,
    dilute_angle,
    diluted_avg_fidelity,
    fidelity_pure,
    symmetric_state,
)

MAX_TABLE_N = 10 ** 6

# Counts whose columns are evaluated, formatted and written at a time, so
# that memory holds one block's columns and text, whatever the row count.
TABLE_BLOCK_ROWS = 4096

# A table row at full width, before `_table_bytes` drops its NULs: N in
# _N_WIDTH digits, then ",0." and 12 digits for each of the five columns.
_N_WIDTH = len(str(MAX_TABLE_N))
_FIELD = len(",0.") + 12


def _require_rows(ns: np.ndarray, cols: np.ndarray) -> None:
    """Raise DomainError at the first count ns[i] whose column cols[:, i]
    (F0, F1, Fmax, F2, F3) leaves [1/2, 1] or, from N = 2 on, breaks the
    strict ordering F1 < Fmax < F2 < F3."""
    outside = ~np.all((cols >= 0.5) & (cols <= 1.0), axis=0)
    f1, fmax, f2, f3 = cols[1:]
    unordered = (ns >= 2) & ~((f1 < fmax) & (fmax < f2) & (f2 < f3))
    bad = outside | unordered
    if bad.any():
        i = int(np.argmax(bad))
        if outside[i]:
            raise DomainError(f"fidelities out of [1/2, 1] at n={ns[i]}: "
                              f"{tuple(cols[:, i].tolist())}")
        raise DomainError(f"strategy ordering violated at n={ns[i]}")


def fidelity_columns(n) -> np.ndarray:
    """The five strategy fidelities F0, F1, Fmax, F2, F3 as rows, at the count
    n (shape (5,)) or at each count of an integer array n (shape (5, n.size)),
    checked by `_require_rows`."""
    gamma, _ = devices.universal_coefficients(n)
    overlap = measurement.dilution_overlap(n)
    cols = np.array([diluted_avg_fidelity(n),
                     measurement._fidelity_from_overlap(overlap),
                     measurement.optimal_measurement_bound(n),
                     _libm_pow(gamma, 2.0),
                     overlap])
    _require_rows(np.reshape(n, -1), np.reshape(cols, (5, -1)))
    return cols


def _round12(v: np.ndarray) -> np.ndarray:
    """round-half-even(v 10^12) as uint64, exactly, for doubles v in [1/2, 1].

    Such a v is m / 2^53 for an integer m <= 2^53, so v 10^12 =
    m 5^12 / 2^41.  That product overflows 64 bits; with m = a 2^21 + b,
    its floor is (a 5^12 + (b 5^12 >> 21)) >> 20, every term below 2^61,
    and the remainder is the low 41 bits of the wrapped product m 5^12."""
    m = (v * 2.0 ** 53).astype(np.uint64)
    q = ((m >> 21) * 5 ** 12 + (((m & (2 ** 21 - 1)) * 5 ** 12) >> 21)) >> 20
    rem = (m * 5 ** 12) & (2 ** 41 - 1)
    return q + ((rem > 2 ** 40) | ((rem == 2 ** 40) & ((q & 1) == 1)))


def _digits(x: np.ndarray, width: int):
    """Yield the `width` decimal places of the uint32 array x, units first,
    each as (digit as uint8, x // 10^place): the second is 0 exactly where
    the place is a leading zero."""
    for _ in range(width):
        rest = x // 10
        yield (x - rest * 10).astype(np.uint8), x
        x = rest


def _table_bytes(ns: np.ndarray, cols: np.ndarray) -> bytes:
    """The CSV rows of the counts `ns` (at most MAX_TABLE_N) and their
    columns `cols` (shape (5, ns.size)), byte-identical to
    "%d" + ",%.12g" * 5 per row, each ended by LF.

    `_require_rows` holds every value in [1/2, 1], where %.12g prints "0."
    and the 12 digits of q = round-half-even(v 10^12) without trailing
    zeros, or "1" when q = 10^12.  Each character is one row of a uint8
    matrix with one column per table row, NUL where a character is dropped
    (leading zeros of N, trailing zeros of a fraction, the "." of a 1); the
    NULs go in one pass over the bytes."""
    k = ns.size
    mat = np.empty((_N_WIDTH + 5 * _FIELD + 1, k), dtype=np.uint8)
    places = zip(range(_N_WIDTH - 1, -1, -1), _digits(ns.astype(np.uint32), _N_WIDTH))
    for place, (d, upper) in places:
        mat[place] = (d + 48) * (upper != 0)
    fields = mat[_N_WIDTH:-1].reshape(5, _FIELD, k)
    q = _round12(cols)
    one = q == 10 ** 12
    fields[:, 0] = ord(",")
    fields[:, 1] = ord("0") + one
    fields[:, 2] = ord(".") * ~one
    frac = q * ~one
    # two halves of 6 digits: 32-bit division is several times faster
    high = frac // 10 ** 6
    low = frac - high * 10 ** 6
    kept = np.zeros(q.shape, dtype=bool)
    places = zip(range(_FIELD - 1, 2, -1), chain(_digits(low.astype(np.uint32), 6),
                                                 _digits(high.astype(np.uint32), 6)))
    for place, (d, _) in places:
        kept |= d != 0
        fields[:, place] = (d + 48) * kept
    mat[-1] = ord("\n")
    return mat.T.tobytes().translate(None, b"\0")


def _table_blocks(n_min: int, n_max: int):
    """Yield the CSV of the counts n_min..n_max as bytes: the header, then
    the rows of each block of TABLE_BLOCK_ROWS counts, whose columns
    `fidelity_columns` checks before any of the block's bytes are formed."""
    yield b"N,F0_diluted,F1_measure,Fmax_measure,F2_universal,F3_swap\n"
    for start in range(n_min, n_max + 1, TABLE_BLOCK_ROWS):
        ns = np.arange(start, min(start + TABLE_BLOCK_ROWS, n_max + 1))
        yield _table_bytes(ns, fidelity_columns(ns))


def cmd_table(n_min: int, n_max: int, output: str | None) -> int:
    """Write the fidelity table as CSV (12 significant digits, LF endings).

    The table is computed and written one block of TABLE_BLOCK_ROWS counts
    at a time, so memory does not grow with the row count.  A block whose
    columns fail `_require_rows` raises DomainError with the earlier blocks
    already written; no count up to MAX_TABLE_N fails."""
    try:
        n_min, n_max = _require_count(n_min, "n-min"), _require_count(n_max, "n-max")
    except DomainError as exc:
        print(f"table: {exc}", file=sys.stderr)
        return 2
    if not n_min <= n_max <= MAX_TABLE_N:
        print(f"table: need 1 <= n-min <= n-max <= {MAX_TABLE_N}", file=sys.stderr)
        return 2
    blocks = _table_blocks(n_min, n_max)
    if output is None:
        sys.stdout.writelines(block.decode("ascii") for block in blocks)
        return 0
    try:
        with open(output, "wb") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        print(f"table: cannot write {output}: {exc}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------
# Each `_check_*` is the one implementation of its exit criterion, called by
# `cmd_verify` and the acceptance suite with their own samples.

@dataclass(frozen=True)
class CheckResult:
    """One `verify` line: the worst of a check's values against its bound.

    The constructor folds `value` (a number, a list or an array) into the
    worst entry under `relation`, the largest for "<=" and the smallest for
    ">", or inf or -inf if any is not finite, so a NaN fails where max() or
    min() would keep what it has; `fmt` names value, tol and relation."""

    name: str
    value: float
    tol: float
    relation: str = "<="
    fmt: str = "residual={value:.3e} tol={tol:.0e}"

    def __post_init__(self) -> None:
        _require(self.relation in ("<=", ">"), f"unknown relation {self.relation!r}")
        sign = 1.0 if self.relation == "<=" else -1.0
        v = sign * np.asarray(self.value, dtype=float)
        worst = v.max() if np.isfinite(v).all() else np.inf
        object.__setattr__(self, "value", sign * float(worst))

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tol if self.relation == "<=" else self.value > self.tol)

    @property
    def detail(self) -> str:
        return self.fmt.format(value=self.value, tol=self.tol, relation=self.relation)


def _check_endpoints() -> list[CheckResult]:
    """The n=1 values of the five table columns, exactly."""
    got = fidelity_columns(1)
    want = np.array([1.0, 2.0 / 3.0, 2.0 / 3.0, 1.0, 1.0])
    return [CheckResult("endpoint-values-n1", np.abs(got - want), 0.0)]


def _check_asymptotes() -> list[CheckResult]:
    return [CheckResult("asymptotic-limits-n1e6",
                        np.abs(fidelity_columns(MAX_TABLE_N) - 0.5), 2e-3)]


def _check_ordering() -> list[CheckResult]:
    # fidelity_columns raises if the ordering invariant breaks
    gaps = np.diff(fidelity_columns(np.arange(2, 51))[1:], axis=0)
    return [CheckResult("strategy-ordering-2-50", gaps, 1e-6, ">",
                        "min gap={value:.3e} (needs {relation} {tol:.0e})")]


def _overlap_sq(th: np.ndarray, n: int) -> np.ndarray:
    tbar = dilute_angle(th, n)
    return np.cos((th - tbar) / 2.0) ** 2


def _check_closed_form_oracles() -> list[CheckResult]:
    quad = BlochQuadrature()
    res_f0, res_overlap, res_f1, res_moments = [], [], [], []
    for n in (2, 3, 5, 10, 25):
        def diluted_integrand(th, ph, n=n):
            tbar = dilute_angle(th, n)
            cb, sb = np.cos(tbar / 2.0), np.sin(tbar / 2.0)
            r00 = cb * cb + sb * sb * (n - 1.0) / n
            r11 = sb * sb / n
            r01 = cb * sb / np.sqrt(n)
            c, s = np.cos(th / 2.0), np.sin(th / 2.0)
            return c * c * r00 + s * s * r11 + 2.0 * c * s * r01

        res_f0.append(abs(diluted_avg_fidelity(n)
                          - bloch_average(diluted_integrand, quad)))
        res_overlap.append(abs(
            measurement.dilution_overlap(n)
            - bloch_average(lambda th, ph, n=n: _overlap_sq(th, n), quad)))
        res_f1.append(abs(
            measurement.measurement_avg_fidelity(n)
            - bloch_average(lambda th, ph, n=n: (1.0 + _overlap_sq(th, n)) / 3.0,
                            quad)))

        weight = lambda th, n=n: 1.0 / (n * np.cos(th / 2.0) ** 2
                                        + np.sin(th / 2.0) ** 2)
        quads = [2.0 * bloch_average(
            lambda th, ph, f=f, n=n: weight(th, n) * f(th), quad)
            for f in (lambda th: np.cos(th / 2.0) ** 4,
                      lambda th: np.sin(th / 2.0) ** 4,
                      lambda th: np.sin(th / 2.0) ** 2 * np.cos(th / 2.0) ** 2)]
        res_moments.extend(np.abs(np.array(devices.moment_integrals(n))
                                  - np.array(quads)))

    return [CheckResult("oracle-diluted-average", res_f0, 1e-9),
            CheckResult("oracle-dilution-overlap", res_overlap, 1e-9),
            CheckResult("oracle-measurement-average", res_f1, 1e-9),
            CheckResult("oracle-moment-integrals", res_moments, 1e-10)]


def _check_device_average_oracle(seed: int) -> list[CheckResult]:
    """Closed-form device average against quadrature, for 5 transforms per
    N drawn from default_rng(seed) (the draws of `devices.random_transform`),
    each N's five as one stack of devices."""
    quad = BlochQuadrature()
    rng = np.random.default_rng(seed)
    residuals = []
    for n in (2, 3, 5, 10, 25):
        t = devices._orthonormalized(n, np.array([devices._gaussian_draw(rng)
                                                  for _ in range(5)]))
        closed = devices.device_avg_fidelity(t)
        # the grid behind the stack axis, which leads the angles
        via_quad = bloch_average(
            lambda th, ph: devices.pointwise_fidelity(t, th[None], ph[None]), quad)
        residuals.append(np.abs(closed - via_quad))
    return [CheckResult("oracle-device-average", residuals, 1e-9)]


def _check_pointwise_dual_route(seed: int) -> list[CheckResult]:
    """Closed-form pointwise fidelity against the density-matrix route, for
    200 (N, transform, angle) samples drawn from default_rng(seed), in the
    order N, transform (`devices.random_transform`'s draw), theta, phi.
    The samples at each N are evaluated as one stack by both routes."""
    rng = np.random.default_rng(seed)
    samples: dict[int, list] = {}
    for _ in range(200):
        n = int(rng.integers(1, 11))
        z = devices._gaussian_draw(rng)
        th = float(rng.uniform(0.0, np.pi))
        ph = float(rng.uniform(0.0, 2.0 * np.pi))
        samples.setdefault(n, []).append((z, th, ph))
    residuals = []
    for n, drawn in samples.items():
        z, th, ph = (np.array(column) for column in zip(*drawn))
        t = devices._orthonormalized(n, z)
        closed = devices.pointwise_fidelity(t, th, ph)
        psi = PureQubit.from_angles(th, ph)
        _, rho = devices.apply_transform(t, symmetric_state(psi, n))
        residuals.append(np.abs(closed - fidelity_pure(psi, rho)))
    return [CheckResult("pointwise-closed-vs-direct", np.concatenate(residuals), 1e-11)]


def _check_covariance() -> list[CheckResult]:
    spreads = [devices.covariance_spread(devices.universal_disentangler(n))
               for n in (2, 5, 10)]
    swap_spread = devices.covariance_spread(devices.swap_disentangler(2))
    return [CheckResult("universal-covariance-spread", spreads, 1e-12),
            CheckResult("swap-state-dependence", swap_spread, 0.01, ">",
                        "spread={value:.3e} (needs {relation} {tol:.0e})")]


def _check_unitary_images() -> list[CheckResult]:
    """Unitarity residuals of the covariant device for N = 1..50."""
    residuals = [devices.unitarity_residuals(devices.universal_disentangler(n))
                 for n in range(1, 51)]
    return [CheckResult("unitary-images-n-le-50", residuals, 1e-12)]


def _dicke_with_last(n: int, c0, c1, last) -> np.ndarray:
    """Dense amplitudes of (c0 |n-1;0> + c1 |n-1;1>) tensor |last>, or of
    each member of a stack: c0, c1 and last equally long arrays.  Each entry
    is one product, as in `np.kron`."""
    left = dicke_to_statevector(DickeVector(n - 1, c0, c1)).dense()
    qubit = np.stack([1.0 - np.asarray(last), last], axis=-1).astype(complex)
    return (left[..., :, None] * qubit[..., None, :]).reshape(left.shape[:-1] + (-1,))


def _check_cascade_action() -> list[CheckResult]:
    """The sector cascade on both sector basis vectors against the gate-level
    cascade, bit for bit, for n = 1..12 and against its defining action for
    n = 2..12.  It is linear on the sector, so they cover every input.  Per
    n both basis vectors run as one two-member stack, each member with the
    bits of its own single run."""
    mismatched = set()
    residuals = []
    for n in range(1, 13):
        basis = DickeVector(n, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        out = network._cascade(basis).dense()
        gated = dicke_to_statevector(basis)
        for control, target in network.cnot_cascade(n):
            gated = network.apply_cnot(gated, control, target)
        gated = gated.dense()
        for member in range(2):
            if not np.array_equal(out[member], gated[member]):
                mismatched.add(n)
                residuals.append(np.inf)
        if n > 1:
            # the images, as (c0, c1, last): (1, 0, 0), (1/sqrt(n), sqrt((n-1)/n), 1)
            image = _dicke_with_last(n, np.array([1.0, 1.0 / np.sqrt(n)]),
                                     np.array([0.0, np.sqrt((n - 1.0) / n)]), np.array([0, 1]))
            residuals.extend(np.max(np.abs(out - image), axis=-1))
    gates = (f"differs from gate-by-gate at n={sorted(mismatched)}" if mismatched
             else "equals gate-by-gate")
    return [CheckResult("network-cascade-action", residuals, 1e-12,
                        fmt="residual={value:.3e} tol={tol:.0e}, " + gates)]


def _recovery_fidelity(psi: PureQubit, recovered: PureQubit):
    """|<psi|recovered>|^2, per member of a stack."""
    return np.abs(np.vecdot(psi.amplitudes(), recovered.amplitudes())) ** 2


def _check_network(seed: int, angles_per_n: int,
                   shot_seed: int) -> list[CheckResult]:
    """Post-selection exactness for `angles_per_n` input angles (theta, then
    phi) per n = 2..12 drawn from default_rng(seed), each n's inputs run and
    decomposed as one stack, and the success count of 10^5 shots at
    p = 1/4, one binomial draw at `shot_seed`, against a 3 sigma bound.  The
    bound fails at about 0.3% of seeds by design (5 of seeds 0-999)."""
    rng = np.random.default_rng(seed)
    res_fid, res_prob = [], []
    for n in range(2, 13):
        angles = [(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
                  for _ in range(angles_per_n)]
        psi = PureQubit(*np.array(angles).reshape(-1, 2).T)
        dec = network.decompose(network.run_cascade(psi, n), n)
        res_fid.append(np.abs(_recovery_fidelity(psi, dec.recovered) - 1.0))
        res_prob.append(np.abs(np.abs(dec.amp_plus_psi) ** 2 - [
            network.success_probability(theta, n) for theta in psi.theta.tolist()]))
    plus = network.sample_shots(PureQubit(0.0, 0.0), 4, 10 ** 5, shot_seed)
    p = 0.25
    sigma = np.sqrt(p * (1 - p) / 10 ** 5)
    dev = abs(plus / 10 ** 5 - p)
    return [CheckResult("network-postselect-fidelity", np.concatenate(res_fid), 1e-12),
            CheckResult("network-success-probability", np.concatenate(res_prob), 1e-12),
            CheckResult("network-shot-sampling", dev, 3 * sigma,
                        fmt="|freq-p|={value:.3e} (needs {relation} 3 sigma = {tol:.3e})")]


def _check_bound_numeric(ns: tuple[int, ...]) -> list[CheckResult]:
    res = [abs(measurement.optimal_measurement_bound_numeric(n)
               - measurement.optimal_measurement_bound(n)) for n in ns]
    return [CheckResult(f"measurement-bound-numeric-{'-'.join(map(str, ns))}", res, 1e-9)]


def _check_optimizers(seeds: tuple[int, ...]) -> list[CheckResult]:
    """Both restart searches at N = 2, 3, 5, 10 for every optimizer seed,
    one batched search per family and seed over all four counts.

    Error model: the objective is quadratic at both optima, and the
    in-house Nelder-Mead (`core._nelder_mead`) stops once the simplex values
    agree to `fatol` = 1e-13 with the points within `xatol` = 1e-8, so a
    converged restart sits within about 1e-13 of the optimum; the tolerance
    1e-12 is 10x that."""
    ns = (2, 3, 5, 10)
    res_avg, res_uni, excess = [], [], []
    for seed in seeds:
        found = zip(ns, devices.optimize_average(ns, seed=seed),
                    devices.optimize_universal(ns, seed=seed))
        for n, (_, val), (_, val_u) in found:
            target = measurement.dilution_overlap(n)
            target_u = devices.universal_coefficients(n)[0] ** 2
            res_avg.append(abs(val - target))
            res_uni.append(abs(val_u - target_u))
            excess += [val - target, val_u - target_u]
    return [CheckResult("optimizer-average-attains", res_avg, 1e-12),
            CheckResult("optimizer-universal-attains", res_uni, 1e-12),
            CheckResult("optimizer-never-exceeds", excess, 1e-12,
                        fmt="max excess={value:.3e} (needs {relation} {tol:.0e})")]


def cmd_verify(level: str, seed: int) -> int:
    """Run the cross-check suite; exit 0 iff every check passes.

    A check that raises (e.g. a corrupted build tripping a unitarity guard)
    fails as one line for its group, an inf residual; only a usage error
    (an unknown level, a seed that is not an integer >= 0) yields exit 2.
    """
    try:
        _require(level in ("fast", "full"), f"unknown level {level!r}")
        seed = _require_count(seed, "seed", least=0)
    except DomainError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    groups = [
        ("endpoint-values-n1", _check_endpoints),
        ("asymptotic-limits-n1e6", _check_asymptotes),
        ("strategy-ordering-2-50", _check_ordering),
        ("closed-form-oracles", _check_closed_form_oracles),
        ("oracle-device-average", lambda: _check_device_average_oracle(seed)),
        ("pointwise-closed-vs-direct",
         lambda: _check_pointwise_dual_route(seed + 1)),
        ("covariance", _check_covariance),
        ("unitary-images", _check_unitary_images),
        ("network-cascade-action", _check_cascade_action),
        ("network", lambda: _check_network(seed + 2, 20, seed)),
    ]
    if level == "fast":
        groups.append(("measurement-bound-numeric",
                       lambda: _check_bound_numeric((2,))))
    else:
        groups.append(("measurement-bound-numeric",
                       lambda: _check_bound_numeric((1, 2, 3, 5, 8))))
        groups.append(("optimizers", lambda: _check_optimizers((seed,))))

    checks: list[CheckResult] = []
    for name, thunk in groups:
        try:
            checks += thunk()
        except Exception as exc:
            text = repr(exc).replace("{", "{{").replace("}", "}}")  # braces as text
            checks.append(CheckResult(name, np.inf, 0.0, fmt=f"raised {text}"))
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:34s}  {c.detail}")
    failed = sum(not c.passed for c in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def cmd_network(theta: float, phi: float, n: int, shots: int, seed: int) -> int:
    """Run the probabilistic disentangler once and report its statistics; the
    library calls check the arguments, and their errors exit 2 via stderr."""
    try:
        psi = PureQubit(theta, phi)
        p = network.success_probability(theta, n)
        plus = network.sample_shots(psi, n, shots, seed)
        out = network.run_cascade(psi, n)
        recovered = (network.post_selected_state(out, n) if n >= 2
                     else PureQubit.from_amplitudes(out.dense()))
    except (DomainError, CapacityError) as exc:
        print(f"network: {exc}", file=sys.stderr)
        return 2
    fid = _recovery_fidelity(psi, recovered)
    freq = plus / shots
    stderr_bin = float(np.sqrt(p * (1.0 - p) / shots))
    print(f"exact_success_probability = {p:.12g}")
    print(f"empirical_plus_fraction = {freq:.12g}")
    print(f"binomial_standard_error = {stderr_bin:.12g}")
    print(f"post_selected_fidelity = {fid:.12g}")
    print(f"shots = {shots}  plus = {plus}  minus = {shots - plus}  "
          f"rng = pcg64  seed = {seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="disentanglers",
        description="Fidelity tables, cross-checks, and network runs for "
                    "qubit disentangling strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="write the per-N fidelity CSV")
    p_table.add_argument("--n-min", type=int, default=1)
    p_table.add_argument("--n-max", type=int, default=50)
    p_table.add_argument("--output", type=str, default=None,
                         help="CSV path (default: stdout)")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.add_argument("--seed", type=int, default=42)

    p_net = sub.add_parser("network", help="run the probabilistic disentangler")
    p_net.add_argument("--theta", type=float, required=True)
    p_net.add_argument("--phi", type=float, default=0.0)
    p_net.add_argument("--n", type=int, required=True)
    p_net.add_argument("--shots", type=int, default=1000)
    p_net.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "table":
        return cmd_table(args.n_min, args.n_max, args.output)
    if args.command == "verify":
        return cmd_verify(args.level, args.seed)
    return cmd_network(args.theta, args.phi, args.n, args.shots, args.seed)


if __name__ == "__main__":
    sys.exit(main())
