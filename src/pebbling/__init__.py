"""Exact graph pebbling engine.

Decides cover solvability, reachability, and canonical solvability;
computes cover pebbling and pebbling numbers at desk scale; and builds the
exact-cover-by-4-sets hardness reduction instances with their certificates
and witness configurations.
"""

from .core import (
    BudgetExceeded,
    Configuration,
    Demand,
    DimensionMismatch,
    EdgeViolation,
    Graph,
    MoveList,
    PebblingError,
    apply_moves,
    gamma,
    gamma_witness,
    verify_solution,
)
from .numbers import (
    NumberResult,
    ZeroDemand,
    cover_pebbling_number,
    pebbling_number,
    stacking_lower_bound,
)
from .reductions import (
    MalformedInstance,
    NotACover,
    ReducedInstance,
    X4CInstance,
    cover_certificate_from_exact_cover,
    number_witness_config,
    reduce_cover_to_canonical,
    reduce_to_cover_solvability,
    reduce_to_number_threshold,
    x4c_solve,
)
from .solver import (
    CanonicalResult,
    SolveResult,
    is_canonical_solvable,
    is_cover_solvable,
    is_reachable,
    oracle_solvable,
)

__all__ = [
    "BudgetExceeded",
    "CanonicalResult",
    "Configuration",
    "Demand",
    "DimensionMismatch",
    "EdgeViolation",
    "Graph",
    "MalformedInstance",
    "MoveList",
    "NotACover",
    "NumberResult",
    "PebblingError",
    "ReducedInstance",
    "SolveResult",
    "X4CInstance",
    "ZeroDemand",
    "apply_moves",
    "cover_certificate_from_exact_cover",
    "cover_pebbling_number",
    "gamma",
    "gamma_witness",
    "is_canonical_solvable",
    "is_cover_solvable",
    "is_reachable",
    "number_witness_config",
    "oracle_solvable",
    "pebbling_number",
    "reduce_cover_to_canonical",
    "reduce_to_cover_solvability",
    "reduce_to_number_threshold",
    "stacking_lower_bound",
    "verify_solution",
    "x4c_solve",
]

__version__ = "0.1.0"
