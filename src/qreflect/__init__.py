"""Soliton scattering and reflection matrices from quantum affine symmetry.

The package constructs evaluation representations of the type-A affine
quantum algebra and its boundary coideal subalgebra, solves the linear
intertwining equations for bulk S-matrices and boundary K-matrices by SVD
nullspace computation, and verifies the Yang-Baxter equation, the
reflection equation, the coideal property, and the evaluated
reflection-equation-algebra relations numerically.
"""

from .linalg import (
    NullspaceResult,
    VerificationReport,
    embed_on_legs,
    flip_operator,
    kron,
    normalize_solution,
    nullspace,
    projective_compare,
)
from .reps import (
    EvaluationRep,
    cartan_inner,
    check_relations,
    coideal_generators,
    coproduct,
    coproduct_matrix,
    dual_rep,
    vector_rep,
)
from .intertwiners import (
    IntertwinerSolution,
    ScanResult,
    closed_form_s,
    dimension_scan,
    engine_point,
    reflection_dual,
    solve_boundary,
    solve_bulk,
    solve_equivalence,
)
from .boundary import (
    ClosedFormParams,
    GaugeReport,
    closed_form_k,
    paper_boundary_system,
    reconcile_gauge,
    solve_k,
    solve_paper_k,
)
from .checks import (
    check_b_commutation,
    check_coideal_property,
    check_reflection_equation,
    check_sklyanin,
    check_ybe,
    engine_blocks,
    eval_b_matrix,
    opposite_r,
    plain_r,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormParams",
    "EvaluationRep",
    "GaugeReport",
    "IntertwinerSolution",
    "NullspaceResult",
    "ScanResult",
    "VerificationReport",
    "cartan_inner",
    "check_b_commutation",
    "check_coideal_property",
    "check_reflection_equation",
    "check_relations",
    "check_sklyanin",
    "check_ybe",
    "closed_form_k",
    "closed_form_s",
    "coideal_generators",
    "coproduct",
    "coproduct_matrix",
    "dimension_scan",
    "dual_rep",
    "embed_on_legs",
    "engine_blocks",
    "engine_point",
    "eval_b_matrix",
    "flip_operator",
    "kron",
    "normalize_solution",
    "nullspace",
    "opposite_r",
    "paper_boundary_system",
    "plain_r",
    "projective_compare",
    "reconcile_gauge",
    "reflection_dual",
    "solve_boundary",
    "solve_bulk",
    "solve_equivalence",
    "solve_k",
    "solve_paper_k",
    "vector_rep",
]
