"""Screening reductions for penalized second-moment estimators.

The package splits into matrix plumbing (symmat), single-linkage machinery
(linkage), mask-condition checking (orbit), the reductions themselves
(reductions), solvers with KKT certificates (estimators), randomized
verification (verify), and a CLI (cli).
"""

from .estimators import (
    BlockStat,
    ConvergenceError,
    EstimatorSpec,
    Family,
    NoSolutionError,
    SolveReport,
    SolverOptions,
    glasso,
    ising_logpartition,
    ising_pmle,
    kkt_residual,
    lasso,
    nnls,
    objective_at,
    reduction_for,
    solve,
    solve_decomposed,
)
from .linkage import (
    Dendrogram,
    Partition,
    cluster_matrix,
    components,
    cut_dendrogram,
    is_binary_ultrametric,
    mst_kruskal,
    slc,
    slt,
    slt_plus,
    threshold_components,
)
from .orbit import (
    ConditionReport,
    MaskProjection,
    arcsin_map,
    check_projection_conditions,
    conj_majorizes,
    cut_membership,
)
from .penalty import GroupId, PenaltyKind, PenaltySpec
from .reductions import (
    group_hard_threshold,
    hard_threshold,
    positive_part,
    reconstruct_from_soft,
    reduce_input,
    screening_partition,
)
from .symmat import SymMatrix, hadamard, uncentered_covariance
from .verify import (
    SufficiencyReport,
    SuiteSummary,
    check_minimality_slc,
    check_sufficiency,
    check_support_containment,
    enumerate_feasible_ultrametrics,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BlockStat",
    "ConditionReport",
    "ConvergenceError",
    "Dendrogram",
    "EstimatorSpec",
    "Family",
    "GroupId",
    "MaskProjection",
    "NoSolutionError",
    "Partition",
    "PenaltyKind",
    "PenaltySpec",
    "SolveReport",
    "SolverOptions",
    "SufficiencyReport",
    "SuiteSummary",
    "SymMatrix",
    "arcsin_map",
    "check_minimality_slc",
    "check_projection_conditions",
    "check_sufficiency",
    "check_support_containment",
    "cluster_matrix",
    "components",
    "conj_majorizes",
    "cut_dendrogram",
    "cut_membership",
    "enumerate_feasible_ultrametrics",
    "glasso",
    "group_hard_threshold",
    "hadamard",
    "hard_threshold",
    "is_binary_ultrametric",
    "ising_logpartition",
    "ising_pmle",
    "kkt_residual",
    "lasso",
    "mst_kruskal",
    "nnls",
    "objective_at",
    "positive_part",
    "reconstruct_from_soft",
    "reduce_input",
    "reduction_for",
    "run_suite",
    "screening_partition",
    "slc",
    "slt",
    "slt_plus",
    "solve",
    "solve_decomposed",
    "threshold_components",
    "uncentered_covariance",
]
