"""Greedy sensor selection by frame potential minimization.

The package answers one question: given N candidate sensing locations whose
responses are the rows of an N x K matrix, which L rows should be kept so
that least squares reconstruction of the K parameters stays accurate? The
main algorithm eliminates nearly-parallel rows until L remain, and companion
modules supply reference baselines, exhaustive oracles, near-optimality
certificates, reproducible test matrices, and an experiment harness with a
command line front end.
"""

from .bounds import (
    BOUNDS_CSV_HEADER,
    BoundsReport,
    DELTA_SUBSET_LIMIT,
    MPScenario,
    compute_bounds_report,
    delta_bound,
    fp_approx_factor,
    l_min_max,
    mse_approx_factor,
    mse_envelope,
    mp_scenario,
    mp_scenario_report,
    sharma_interval,
    untf_reference,
)
from .harness import (
    AGG_CSV_HEADER,
    AUDIT_CSV_HEADER,
    AuditRow,
    AuditTable,
    ExperimentConfig,
    RAW_CSV_HEADER,
    RawRow,
    ResultTable,
    oracle_audit,
    sweep_mse,
    sweep_timing,
)
from .linalg import (
    RANK_RTOL,
    UNBOUNDED,
    ConvergenceError,
    NoiseModel,
    SensingMatrix,
    as_sensing_matrix,
    coherence,
    frame_potential,
    gram,
    least_squares,
    mse,
    row_normalize,
    sym_eigenvalues,
)
from .matgen import FAMILIES, GeneratorSpec, generate
from .matio import load_matrix, save_matrix
from .placement import (
    ALGORITHMS,
    ORACLE_SUBSET_LIMIT,
    CovarianceConditioningError,
    PlacementOptions,
    Selection,
    exhaustive_oracle,
    framesense,
    greedy_coherence,
    greedy_det,
    greedy_mi,
    greedy_mse,
    random_placement,
    run_placement,
)

__version__ = "0.1.0"

__all__ = [
    "AGG_CSV_HEADER",
    "ALGORITHMS",
    "AUDIT_CSV_HEADER",
    "AuditRow",
    "AuditTable",
    "BOUNDS_CSV_HEADER",
    "BoundsReport",
    "ConvergenceError",
    "CovarianceConditioningError",
    "DELTA_SUBSET_LIMIT",
    "ExperimentConfig",
    "FAMILIES",
    "GeneratorSpec",
    "MPScenario",
    "NoiseModel",
    "ORACLE_SUBSET_LIMIT",
    "PlacementOptions",
    "RANK_RTOL",
    "RAW_CSV_HEADER",
    "RawRow",
    "ResultTable",
    "Selection",
    "SensingMatrix",
    "UNBOUNDED",
    "as_sensing_matrix",
    "coherence",
    "compute_bounds_report",
    "delta_bound",
    "exhaustive_oracle",
    "fp_approx_factor",
    "frame_potential",
    "framesense",
    "generate",
    "gram",
    "greedy_coherence",
    "greedy_det",
    "greedy_mi",
    "greedy_mse",
    "l_min_max",
    "least_squares",
    "load_matrix",
    "mp_scenario",
    "mp_scenario_report",
    "mse",
    "mse_approx_factor",
    "mse_envelope",
    "oracle_audit",
    "random_placement",
    "row_normalize",
    "run_placement",
    "save_matrix",
    "sweep_mse",
    "sweep_timing",
    "sym_eigenvalues",
    "untf_reference",
]
