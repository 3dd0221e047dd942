"""Greedy sensor selection by frame potential minimization.

The package answers one question: given N candidate sensing locations whose
responses are the rows of an N x K matrix, which L rows should be kept so
that least squares reconstruction of the K parameters stays accurate? The
main algorithm eliminates nearly-parallel rows until L remain, and companion
modules supply reference baselines, exhaustive oracles, near-optimality
certificates, reproducible test matrices, and an experiment harness with a
command line front end.

Submodules load on first use (PEP 562): ``import framesense`` imports none
of them, and ``framesense.<name>`` imports only the submodule that defines
``name``, so a process that places sensors never loads the harness.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    name: home
    for home, names in {
        "bounds": (
            "BOUNDS_CSV_HEADER",
            "BoundsReport",
            "compute_bounds_report",
            "delta_bound",
            "fp_approx_factor",
            "l_min_max",
            "mse_approx_factor",
            "mse_envelope",
            "mp_scenario",
            "mp_scenario_report",
            "sharma_interval",
            "untf_reference",
        ),
        "harness": (
            "AGG_CSV_HEADER",
            "AUDIT_CSV_HEADER",
            "AuditRow",
            "AuditTable",
            "ExperimentConfig",
            "RAW_CSV_HEADER",
            "RawRow",
            "ResultTable",
            "oracle_audit",
            "sweep_mse",
            "sweep_timing",
        ),
        "linalg": (
            "RANK_RTOL",
            "UNBOUNDED",
            "ConvergenceError",
            "SensingMatrix",
            "as_sensing_matrix",
            "coherence",
            "frame_potential",
            "gram",
            "least_squares",
            "mse",
            "row_normalize",
            "sym_eigenvalues",
        ),
        "matgen": ("FAMILIES", "GeneratorSpec", "generate"),
        "matio": ("load_matrix", "save_matrix"),
        "placement": (
            "ALGORITHMS",
            "ORACLE_SUBSET_LIMIT",
            "CovarianceConditioningError",
            "PlacementOptions",
            "Selection",
            "exhaustive_oracle",
            "framesense",
            "greedy_coherence",
            "greedy_det",
            "greedy_mi",
            "greedy_mse",
            "random_placement",
            "run_placement",
        ),
    }.items()
    for name in names
}

_SUBMODULES = ("bounds", "cli", "harness", "linalg", "matgen", "matio", "placement", "seeding")

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
