"""Probabilistic exact disentangling via a C-NOT cascade and post-selection.

All qubits of the symmetric input control a shared target (the last qubit).
Projecting the leading qubits onto a fixed vector afterwards either leaves
the target in exactly the original qubit state (success) or in the reference
state (failure); the success probability depends on the input orientation
but the recovered state never deviates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CapacityError,
    DickeVector,
    FullStateVector,
    PureQubit,
    _require,
    _require_count,
    dicke_to_statevector,
    symmetric_state,
)

MAX_CASCADE_QUBITS = 20


class DecompositionError(RuntimeError):
    """Network output fell outside the expected post-selection subspace."""


@dataclass(frozen=True)
class CnotCascade:
    """Gate list (control k, target n) for k = 1 .. n-1."""

    n: int
    gates: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _require(len(self.gates) == self.n - 1, "cascade needs n-1 gates")
        controls = [c for c, _ in self.gates]
        _require(len(set(controls)) == len(controls), "duplicate control")
        _require(all(c != t for c, t in self.gates), "control equals target")


def cnot_cascade(n: int) -> CnotCascade:
    n = _require_count(n)
    return CnotCascade(n, tuple((k, n) for k in range(1, n)))


@dataclass(frozen=True)
class OutcomeDecomposition:
    """Amplitudes of the two post-selection branches of a network output.

    `amp_plus_psi` multiplies (success branch) x (recovered qubit);
    `amp_minus` multiplies (failure branch) x (reference state).
    """

    amp_plus_psi: complex
    amp_minus: complex

    def __post_init__(self) -> None:
        total = abs(self.amp_plus_psi) ** 2 + abs(self.amp_minus) ** 2
        _require(abs(total - 1.0) < 1e-12, f"branch weights sum to {total}")


def apply_cnot(state: FullStateVector, control: int, target: int) -> FullStateVector:
    """C-NOT as an exact amplitude permutation (norm preserved bit-for-bit)."""
    n = state.n
    _require(1 <= control <= n and 1 <= target <= n,
             f"gate ({control},{target}) outside 1..{n}")
    _require(control != target, "control equals target")
    idx = np.arange(2 ** n)
    cbit = (idx >> (n - control)) & 1
    perm = idx ^ (cbit << (n - target))
    return FullStateVector(n, state.amps[perm])


def _dicke_with_last(n: int, c0: complex, c1: complex, last: int) -> np.ndarray:
    """Dense amplitudes of (c0 |n-1;0> + c1 |n-1;1>) tensor |last>."""
    left = dicke_to_statevector(DickeVector(n - 1, c0, c1)).amps
    qubit = np.array([1.0 - last, last], dtype=complex)
    return np.kron(left, qubit)


def _cascade_permutation(n: int) -> np.ndarray:
    """Index map of the whole cascade: the target (last, least significant)
    bit is XORed with the parity of the n-1 control bits.

    The gates share one target and have distinct controls, so they commute
    and compose into this one permutation.  The parity table of the control
    bits grows by doubling (prepending a set top bit flips the parity), so
    the map costs O(2^n) with no per-gate pass.  It is not cached: at n = 20
    a cached map would hold 8 MiB for the life of the process and raise the
    peak memory of a network run, to save about 3 ms per call (2-vCPU x86).
    """
    parity = np.zeros(1, dtype=np.intp)
    for _ in range(n - 1):
        parity = np.concatenate((parity, parity ^ 1))
    return np.arange(2 ** n) ^ np.repeat(parity, 2)


def run_cascade(psi: PureQubit, n: int) -> FullStateVector:
    """Dilute `psi` into the symmetric n-qubit state and run the cascade.

    The cascade runs as one gather through its parity permutation, the
    same permutation of the same amplitudes as applying `apply_cnot` gate
    by gate over `cnot_cascade(n)`.  That gate-level definition, and the
    defining action on the two sector basis vectors (the zero-excitation
    input maps to (all blanks)|0>, the one-excitation input to
    (sqrt(n-1) one-excitation + blanks)|1> / sqrt(n)), are checked by
    `verify` and the tests, not on every call.
    """
    n = _require_count(n)
    _require(n <= MAX_CASCADE_QUBITS,
             f"n={n} exceeds the {MAX_CASCADE_QUBITS}-qubit cascade cap",
             CapacityError)
    dicke = dicke_to_statevector(symmetric_state(psi, n))
    return FullStateVector(n, dicke.amps[_cascade_permutation(n)])


def postselect_basis(n: int) -> tuple[FullStateVector, FullStateVector]:
    """Orthonormal success/failure vectors on the leading n-1 qubits.

    success = (sqrt(n-1) one-excitation + zero-excitation) / sqrt(n),
    failure = (sqrt(n-1) zero-excitation - one-excitation) / sqrt(n).
    """
    n = _require_count(n)
    _require(n >= 2, f"need n >= 2, got {n}")
    rt = np.sqrt(n)
    plus = dicke_to_statevector(DickeVector(n - 1, 1.0 / rt, np.sqrt(n - 1.0) / rt))
    minus = dicke_to_statevector(DickeVector(n - 1, np.sqrt(n - 1.0) / rt, -1.0 / rt))
    return plus, minus


def _branches(output: FullStateVector) -> tuple[np.ndarray, np.ndarray, float]:
    """Project the output onto the two branches; returns the last-qubit
    vectors riding on each branch and the norm of what is left over."""
    plus, minus = postselect_basis(output.n)
    m = output.amps.reshape(-1, 2)
    branch_plus = plus.amps.conj() @ m
    branch_minus = minus.amps.conj() @ m
    recon = np.outer(plus.amps, branch_plus) + np.outer(minus.amps, branch_minus)
    residual = float(np.linalg.norm(m - recon))
    return branch_plus, branch_minus, residual


def decompose(output: FullStateVector, n: int) -> OutcomeDecomposition:
    """Resolve a network output into its success and failure branches.

    The failure branch must carry the reference state on the last qubit and
    nothing may fall outside the two-branch subspace.
    """
    _require(output.n == n, "qubit count mismatch")
    branch_plus, branch_minus, residual = _branches(output)
    if residual > 1e-10:
        raise DecompositionError(f"residual {residual} outside the branch subspace")
    if abs(branch_minus[1]) > 1e-10:
        raise DecompositionError("failure branch is not proportional to |0>")
    plus_norm = float(np.linalg.norm(branch_plus))
    if plus_norm < 1e-15:
        raise DecompositionError("success branch has zero weight")
    unit = PureQubit.from_amplitudes(branch_plus).amplitudes()
    amp_plus = complex(unit.conj() @ branch_plus)
    return OutcomeDecomposition(amp_plus, complex(branch_minus[0]))


def success_probability(theta: float, n: int) -> float:
    """Chance the post-selection succeeds:
    1 / (N cos^2(theta/2) + sin^2(theta/2)), between 1/N and 1."""
    n = _require_count(n)
    _require(0.0 <= theta <= np.pi, f"theta={theta} outside [0, pi]")
    c2 = np.cos(theta / 2.0) ** 2
    return float(1.0 / (n * c2 + (1.0 - c2)))


def post_selected_state(output: FullStateVector, n: int) -> PureQubit:
    """Last-qubit state conditioned on the success branch; reproduces the
    original input exactly (up to global phase)."""
    _require(output.n == n, "qubit count mismatch")
    branch_plus, _, residual = _branches(output)
    if residual > 1e-10:
        raise DecompositionError(f"residual {residual} outside the branch subspace")
    if np.linalg.norm(branch_plus) < 1e-15:
        raise DecompositionError("success branch has zero weight")
    return PureQubit.from_amplitudes(branch_plus)


@dataclass(frozen=True)
class ShotCounts:
    """Post-selection tallies from seeded Bernoulli sampling (PCG64)."""

    plus: int
    minus: int


def sample_shots(psi: PureQubit, n: int, shots: int, seed: int) -> ShotCounts:
    """Sample success/failure counts at the exact success probability.

    Uses numpy's seeded PCG64 stream; identical (seed, shots) always gives
    identical counts.
    """
    _require(shots >= 1, f"need shots >= 1, got {shots}")
    p = success_probability(psi.theta, n)
    rng = np.random.default_rng(seed)
    plus = int(np.count_nonzero(rng.random(shots) < p))
    return ShotCounts(plus, shots - plus)
