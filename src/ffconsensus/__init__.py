"""Leader-follower consensus of linear multi-agent systems over F_p."""

from .field import PrimeField, is_prime
from .matrix import MatrixFF, VectorFF, kron
from .poly import (
    PolyFF,
    factor,
    is_irreducible,
    order_of_x_mod,
    split_nilpotent_bijective,
)
from .linsys import (
    ControllabilityDecomposition,
    CycleStructure,
    LinearSystemFF,
    autonomous_cycle_structure,
    controllability_matrix,
    deadbeat_gain,
    is_stabilizable,
    kalman_decompose,
)
from .graphs import EdgeError, WeightedDigraphFF, union
from .consensus import (
    AnalysisReport,
    GainSynthesisError,
    LeaderFollowerNetwork,
    SwitchingSignal,
    analyze,
    blockwise_nilpotency_check,
    check_static,
    check_switching,
    convergence_bound,
    error_dynamics_matrix,
    synthesize_gain,
)
from .sim import (
    NetworkState,
    Trajectory,
    exhaustive_consensus_oracle,
    random_state,
    simulate,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "PrimeField", "is_prime",
    "MatrixFF", "VectorFF", "kron",
    "PolyFF", "factor", "is_irreducible", "order_of_x_mod", "split_nilpotent_bijective",
    "ControllabilityDecomposition", "CycleStructure", "LinearSystemFF",
    "autonomous_cycle_structure", "controllability_matrix", "deadbeat_gain",
    "is_stabilizable", "kalman_decompose",
    "EdgeError", "WeightedDigraphFF", "union",
    "AnalysisReport", "GainSynthesisError", "LeaderFollowerNetwork", "SwitchingSignal",
    "analyze", "blockwise_nilpotency_check", "check_static", "check_switching",
    "convergence_bound", "error_dynamics_matrix",
    "synthesize_gain",
    "NetworkState", "Trajectory", "exhaustive_consensus_oracle", "random_state",
    "simulate", "step",
]
