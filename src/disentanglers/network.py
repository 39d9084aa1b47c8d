"""Probabilistic exact disentangling via a C-NOT cascade and post-selection.

All qubits of the symmetric input control a shared target (the last qubit).
Projecting the leading qubits onto a fixed vector afterwards either leaves
the target in exactly the original qubit state (success) or in the reference
state (failure); the success probability depends on the input orientation
but the recovered state never deviates.

The cascade's input and output have n+1 nonzero amplitudes, so both are
carried as a `SupportStateVector` from the dilution through the projection;
no 2^n array is formed.  `apply_cnot` is the gate-level definition, acting
on any support, that `verify` and the tests compare the cascade with.

`run_cascade`, `_cascade` and `decompose` also take a stack of k inputs at
one n (a stacked `PureQubit`, `DickeVector` or `SupportStateVector`, whose
members share their rows): the cascade and the projection run once on the
(k, n+1) amplitude block, every member passes each check of `decompose`,
and each member of the result has the bits of the same call on it alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_STATEVECTOR_QUBITS,
    CapacityError,
    DickeVector,
    PureQubit,
    SupportStateVector,
    _dicke_support,
    _fields_equal,
    _float_count,
    _require,
    _require_angles,
    _require_count,
    _require_each,
    _require_instance,
    _require_qubits,
    _squared_norm,
    _stored,
    symmetric_state,
)

# The limit on n of `run_cascade` and so of the `network` command, whose exit
# code at n = 21 it fixes; the support form itself would go further.
MAX_CASCADE_QUBITS = 20

# numpy's binomial draw takes its trial count as a C long (int64).
MAX_SHOTS = 2 ** 63


class DecompositionError(RuntimeError):
    """Network output fell outside the expected post-selection subspace."""


def cnot_cascade(n: int) -> tuple[tuple[int, int], ...]:
    """Gate list (control k, target n) for k = 1 .. n-1; n checked by `_require_qubits`."""
    n = _require_qubits(n)
    return tuple((k, n) for k in range(1, n))


@dataclass(frozen=True)
class OutcomeDecomposition:
    """Amplitudes of the two post-selection branches of a network output.

    `amp_plus_psi` multiplies (success branch) x (`recovered` qubit);
    `amp_minus` multiplies (failure branch) x (reference state).  For a
    stack of outputs, read-only arrays over its members and a stacked
    `recovered`.
    """

    amp_plus_psi: complex
    amp_minus: complex
    recovered: PureQubit
    __eq__ = _fields_equal


def apply_cnot(state: SupportStateVector, control: int, target: int) -> SupportStateVector:
    """C-NOT as an exact move of amplitudes between rows (norm preserved bit
    for bit): each row's target bit flips where its control bit is set, and
    the rows are sorted back into ascending order.  On the support over
    every row this is the dense amplitude permutation, and on a stack it
    moves every member's amplitudes alike."""
    n = _require_instance(state, SupportStateVector).n
    control, target = _require_count(control, "control"), _require_count(target, "target")
    _require(control <= n and target <= n, f"gate ({control},{target}) outside 1..{n}")
    _require(control != target, "control equals target")
    cbit = (state.rows >> (n - control)) & 1
    rows = state.rows ^ (cbit << (n - target))
    order = np.argsort(rows)
    return SupportStateVector(n, rows[order], state.amps[..., order])


def _cascade(v: DickeVector) -> SupportStateVector:
    """The cascade on a symmetric input, as the support of its output.

    The gates share the target (the last, least significant bit) and have
    distinct controls, so together they XOR the target with the parity of the
    control bits.  On the support of `v` that parity is 1 exactly at rows
    2, 4, ..., 2^(n-1), the single excitations on a control qubit, so each
    of those amplitudes moves from row r to row r + 1 and the rest stay;
    the rows stay ascending.  A stack of inputs gives the stack of outputs.
    """
    rows, amps = _dicke_support(v)
    return SupportStateVector(v.n, rows ^ (rows > 1), amps)


def run_cascade(psi: PureQubit, n: int) -> SupportStateVector:
    """Dilute `psi` (or each member of a stack) into the symmetric n-qubit
    state and run the cascade.

    The output is the support of the n+1 amplitudes of the symmetric sector:
    it has the same amplitudes at the same rows as applying `apply_cnot`
    gate by gate over `cnot_cascade(n)` to the input, on its n+1 rows or on
    every row.
    That gate-level definition, and the defining action on the two sector
    basis vectors (the zero-excitation input maps to (all blanks)|0>, the
    one-excitation input to (sqrt(n-1) one-excitation + blanks)|1> /
    sqrt(n)), are checked by `verify` and the tests, not on every call.
    """
    n = _require_count(n)
    _require(n <= MAX_CASCADE_QUBITS,
             f"n={n} exceeds the {MAX_CASCADE_QUBITS}-qubit cascade cap",
             CapacityError)
    return _cascade(symmetric_state(psi, n))


def postselect_basis(n: int) -> tuple[DickeVector, DickeVector]:
    """Orthonormal success/failure vectors on the leading n-1 qubits.

    success = (sqrt(n-1) one-excitation + zero-excitation) / sqrt(n),
    failure = (sqrt(n-1) zero-excitation - one-excitation) / sqrt(n).
    """
    n = _require_count(n)
    _require(n >= 2, f"need n >= 2, got {n}")
    rt = np.sqrt(_float_count(n))
    return (DickeVector(n - 1, 1.0 / rt, np.sqrt(n - 1.0) / rt),
            DickeVector(n - 1, np.sqrt(n - 1.0) / rt, -1.0 / rt))


@functools.lru_cache(maxsize=MAX_STATEVECTOR_QUBITS)
def _postselect_support(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of `postselect_basis(n)`, the (2, n) projection whose rows
    are the conjugated success and failure amplitudes on them, and its
    (n, 2) adjoint, read-only; built once per n."""
    plus, minus = postselect_basis(n)
    rows, p = _dicke_support(plus)
    _, q = _dicke_support(minus)
    project = np.stack([p.conj(), q.conj()])
    adjoint = np.ascontiguousarray(project.conj().T)
    for a in (rows, project, adjoint):
        a.setflags(write=False)
    return rows, project, adjoint


def _branches(output: SupportStateVector) -> tuple:
    """Project the output onto the two branches; returns the last-qubit
    vectors riding on each branch, the norm of what is left over, and the
    squared norm of the output (per member for a stack).

    Both basis vectors live on the n rows of the (2^(n-1), 2) amplitude
    matrix that hold the zero- and one-excitation states of the leading
    qubits.  An entry of the support at row r sits in matrix row r >> 1,
    column r & 1: if that matrix row is one of the n, the entry goes into
    the (n, 2) block that is projected, and otherwise its squared modulus
    goes straight into the residual, together with that of the projected
    remainder.  The residual is not sqrt(|m|^2 - |branches|^2), whose 1e-16
    rounding reads as about 1e-8.
    """
    basis, project, adjoint = _postselect_support(output.n)
    amps = output.amps
    pair = output.rows >> 1
    k = np.searchsorted(basis, pair)
    on = basis[np.minimum(k, len(basis) - 1)] == pair
    block = np.zeros(amps.shape[:-1] + (len(basis), 2), dtype=complex)
    block[..., k[on], output.rows[on] & 1] = amps[..., on]
    branches = project @ block  # rows: the success and the failure branch
    remainder = block - adjoint @ branches
    residual_sq = (_squared_norm(amps[..., ~on])
                   + _squared_norm(remainder.reshape(remainder.shape[:-2] + (-1,))))
    return (branches[..., 0, :], branches[..., 1, :], np.sqrt(residual_sq),
            _squared_norm(amps))


def decompose(output: SupportStateVector, n: int) -> OutcomeDecomposition:
    """Resolve a network output into its success and failure branches.

    The one checked projection: the failure branch must carry the reference
    state on the last qubit, nothing may fall outside the two branches, and
    their weights must add up to the output's own squared norm (not to 1).
    A dense state is decomposed as its support over every row, np.arange(2**n).
    Every member of a stack must pass each check; the first that fails one
    is named by its values.
    """
    _require(_require_instance(output, SupportStateVector).n == _require_count(n),
             "qubit count mismatch")
    branch_plus, branch_minus, residual, norm_sq = _branches(output)
    # each check reads `not (x > bound)`, which a NaN passes
    _require_each(~(residual > 1e-10), lambda i: (
        f"residual {residual[i]} outside the branch subspace"), DecompositionError)
    _require_each(~(np.abs(branch_minus[..., 1]) > 1e-10),
                  lambda i: "failure branch is not proportional to |0>", DecompositionError)
    _require_each(~(np.sqrt(_squared_norm(branch_plus)) < 1e-15),
                  lambda i: "success branch has zero weight", DecompositionError)
    recovered = PureQubit.from_amplitudes(branch_plus)
    amp_plus = np.vecdot(recovered.amplitudes(), branch_plus)
    amp_minus = branch_minus[..., 0]
    total = np.abs(amp_plus) ** 2 + np.abs(amp_minus) ** 2
    _require_each(~(np.abs(total - norm_sq) >= 1e-12), lambda i: (
        f"branch weights sum to {total[i]}, not {norm_sq[i]}"), DecompositionError)
    return OutcomeDecomposition(_stored(amp_plus), _stored(amp_minus), recovered)


def success_probability(theta: float, n: int) -> float:
    """Chance the post-selection succeeds:
    1 / (N cos^2(theta/2) + sin^2(theta/2)), between 1/N and 1."""
    n = _float_count(n)
    _require_angles(theta, scalar=True)
    c2 = np.cos(theta / 2.0) ** 2
    return float(1.0 / (n * c2 + (1.0 - c2)))


def post_selected_state(output: SupportStateVector, n: int) -> PureQubit:
    """Last-qubit state conditioned on the success branch, as checked by
    `decompose`; reproduces the original input exactly (up to global phase)."""
    return decompose(output, n).recovered


def sample_shots(psi: PureQubit, n: int, shots: int, seed: int) -> int:
    """The number of post-selection successes in `shots` runs, a Python int;
    the other shots failed.

    The runs are independent Bernoulli trials at the exact success
    probability p, so their success count is Binomial(shots, p) and is drawn
    as one number, in time and memory that do not grow with `shots`.  It
    uses numpy's seeded PCG64 stream: identical (seed, shots) always gives
    the same count.  The seed must be an integer >= 0, and `shots` an
    integer in 1 .. 2^63 - 1, the range of numpy's binomial draw.
    """
    shots = _require_count(shots, "shots")
    _require(shots < MAX_SHOTS, f"need shots < 2**63, got {shots}")
    seed = _require_count(seed, "seed", least=0)
    p = success_probability(_require_instance(psi, PureQubit).theta, n)
    return int(np.random.default_rng(seed).binomial(shots, p))
