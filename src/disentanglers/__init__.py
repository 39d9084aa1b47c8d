"""Numerical laboratory for qubit disentangling strategies.

Implements and cross-verifies four ways of pulling an unknown qubit back out
of its symmetric N-qubit dilution: measure-and-prepare, the optimal covariant
device, the state-swapping device, and an exact-but-probabilistic C-NOT
network.  Every closed-form fidelity ships with an independent quadrature or
search oracle.
"""

from .core import (
    BlochQuadrature,
    CapacityError,
    DensityOperator,
    DickeVector,
    DomainError,
    FullStateVector,
    PureQubit,
    SupportStateVector,
    bloch_average,
    dicke_to_statevector,
    dilute_angle,
    diluted_avg_fidelity,
    fidelity_pure,
    reduced_qubit,
    symmetric_marginal,
    symmetric_state,
)
from .devices import (
    DeviceTransform,
    OptimizationError,
    UnitarityError,
    apply_transform,
    covariance_spread,
    device_avg_fidelity,
    gram_summary,
    moment_integrals,
    optimize_average,
    optimize_universal,
    pointwise_fidelity,
    random_transform,
    swap_disentangler,
    unitarity_residuals,
    universal_coefficients,
    universal_disentangler,
)
from .measurement import (
    averaged_estimator,
    dilution_overlap,
    estimator_output,
    measurement_avg_fidelity,
    optimal_measurement_bound,
    optimal_measurement_bound_numeric,
    projector_pair,
    strategy_integral,
)
from .network import (
    DecompositionError,
    OutcomeDecomposition,
    ShotCounts,
    apply_cnot,
    cnot_cascade,
    decompose,
    post_selected_state,
    postselect_basis,
    run_cascade,
    sample_shots,
    success_probability,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
