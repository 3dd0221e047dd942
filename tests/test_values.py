"""Every public entry point takes counts, seeds, reals and flags by one set of rules.

A count or seed is an integer, a real is a number, a flag is ``True`` or
``False``, and none of them is a bool standing in for another kind. A value
of the wrong kind raises ValueError naming the argument, with the message a
config file gets for the same mistake, instead of being cast.
"""

import re

import pytest

from framesense import (
    ExperimentConfig,
    GeneratorSpec,
    PlacementOptions,
    compute_bounds_report,
    delta_bound,
    exhaustive_oracle,
    fp_approx_factor,
    framesense,
    generate,
    greedy_coherence,
    greedy_det,
    greedy_mi,
    greedy_mse,
    l_min_max,
    mp_scenario,
    mp_scenario_report,
    mse,
    mse_approx_factor,
    mse_envelope,
    random_placement,
    untf_reference,
)
from framesense.seeding import derive_seed, philox_generator, stream_key

PSI = generate(GeneratorSpec("gaussian", 8, 3, seed=0))

BAD = {
    "count": (4.5, 4.0, True),
    "seed": (1.7, True),
    "real": ("2", True),
    "flag": ("false", 1),
}
WANT = {"count": "an integer", "seed": "an integer", "real": "a real number", "flag": "true or false"}

# (caller, argument named in the message, kind, call with the bad value)
CALLERS = [
    ("framesense", "framesense sensor count", "count", lambda v: framesense(PSI, v)),
    ("greedy_det", "det sensor count", "count", lambda v: greedy_det(PSI, v)),
    ("greedy_mse", "mse sensor count", "count", lambda v: greedy_mse(PSI, v)),
    ("greedy_mi", "mi sensor count", "count", lambda v: greedy_mi(PSI, v)),
    ("greedy_coherence", "coherence sensor count", "count", lambda v: greedy_coherence(PSI, v)),
    ("random_placement", "random sensor count", "count", lambda v: random_placement(PSI, v)),
    ("random_placement.seed", "seed", "seed", lambda v: random_placement(PSI, 4, v)),
    ("exhaustive_oracle", "exhaustive_oracle sensor count", "count",
     lambda v: exhaustive_oracle(PSI, v)),
    ("l_min_max", "l_min_max sensor count", "count", lambda v: l_min_max(PSI, v)),
    ("fp_approx_factor", "fp_approx_factor sensor count", "count",
     lambda v: fp_approx_factor(PSI, v)),
    ("delta_bound", "delta_bound sensor count", "count", lambda v: delta_bound(PSI, v)),
    ("untf_reference.num_sensors", "num_sensors", "count", lambda v: untf_reference(v, 3)),
    ("untf_reference.k", "k", "count", lambda v: untf_reference(4, v)),
    ("mse.sigma2", "sigma2", "real", lambda v: mse(PSI, [0, 1, 2, 3], sigma2=v)),
    ("mse_envelope.l_min", "l_min", "real", lambda v: mse_envelope(PSI, [0, 1, 2, 3], v, 2.0)),
    ("mse_envelope.l_max", "l_max", "real", lambda v: mse_envelope(PSI, [0, 1, 2, 3], 1.0, v)),
    ("mse_approx_factor.gamma", "gamma", "real", lambda v: mse_approx_factor(v, 2.0, 0.5, 1.0, 2.0)),
    ("mse_approx_factor.d", "d", "real", lambda v: mse_approx_factor(2.0, v, 0.5, 1.0, 2.0)),
    ("mse_approx_factor.delta", "delta", "real", lambda v: mse_approx_factor(2.0, 2.0, v, 1.0, 2.0)),
    ("mse_approx_factor.l_min", "l_min", "real", lambda v: mse_approx_factor(2.0, 2.0, 0.5, v, 2.0)),
    ("mse_approx_factor.l_max", "l_max", "real", lambda v: mse_approx_factor(2.0, 2.0, 0.5, 1.0, v)),
    ("mp_scenario.c1", "c1", "real", lambda v: mp_scenario(v, 6.0)),
    ("mp_scenario.c2", "c2", "real", lambda v: mp_scenario(0.25, v)),
    ("mp_scenario_report.c1", "c1", "real", lambda v: mp_scenario_report(v, 6.0)),
    ("mp_scenario_report.c2", "c2", "real", lambda v: mp_scenario_report(0.25, v)),
    ("compute_bounds_report.delta", "delta", "real",
     lambda v: compute_bounds_report(PSI, 4, [0, 1, 2, 3], delta=v)),
    ("stream_key", "stream key part", "count", lambda v: stream_key("x", v)),
    ("derive_seed", "stream key part", "count", lambda v: derive_seed("x", 2, v)),
    ("philox_generator", "stream key part", "count", lambda v: philox_generator("x", v)),
    ("GeneratorSpec.n", "n", "count", lambda v: GeneratorSpec("gaussian", v, 3)),
    ("GeneratorSpec.k", "k", "count", lambda v: GeneratorSpec("gaussian", 8, v)),
    ("GeneratorSpec.seed", "seed", "seed", lambda v: GeneratorSpec("gaussian", 8, 3, seed=v)),
    ("GeneratorSpec.scale", "scale", "real",
     lambda v: GeneratorSpec("stacked_scaled", 8, 3, scale=v)),
    ("GeneratorSpec.entry_scale", "entry_scale", "real",
     lambda v: GeneratorSpec("gaussian", 8, 3, entry_scale=v)),
    ("PlacementOptions.seed", "seed", "seed", lambda v: PlacementOptions(seed=v)),
    ("PlacementOptions.sigma2", "sigma2", "real", lambda v: PlacementOptions(sigma2=v)),
    ("PlacementOptions.normalize_rows", "normalize_rows", "flag",
     lambda v: PlacementOptions(normalize_rows=v)),
    # the config's own messages, which the library now shares
    ("ExperimentConfig.n", "n", "count", lambda v: ExperimentConfig(n=v)),
    ("ExperimentConfig.trials", "trials", "count", lambda v: ExperimentConfig(trials=v)),
    ("ExperimentConfig.l_values", "l_values entry", "count", lambda v: ExperimentConfig(l_values=[v])),
    ("ExperimentConfig.master_seed", "master_seed", "seed", lambda v: ExperimentConfig(master_seed=v)),
    ("ExperimentConfig.sigma2", "sigma2", "real", lambda v: ExperimentConfig(sigma2=v)),
    ("ExperimentConfig.scale", "scale", "real", lambda v: ExperimentConfig(scale=v)),
    ("ExperimentConfig.normalize_rows", "normalize_rows", "flag",
     lambda v: ExperimentConfig(normalize_rows=v)),
]


@pytest.mark.parametrize(
    "name,kind,call,bad",
    [
        pytest.param(name, kind, call, bad, id=f"{caller}-{bad!r}")
        for caller, name, kind, call in CALLERS
        for bad in BAD[kind]
    ],
)
def test_value_of_the_wrong_kind_is_refused(name, kind, call, bad):
    want = f"{name} must be {WANT[kind]}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(bad)


@pytest.mark.parametrize(
    "name,call",
    [
        ("n", lambda: GeneratorSpec("gaussian", 0, 3)),
        ("k", lambda: GeneratorSpec("gaussian", 8, 0)),
        ("k", lambda: untf_reference(4, 0)),
        ("trials", lambda: ExperimentConfig(trials=0)),
        ("threads", lambda: ExperimentConfig(threads=0)),
    ],
    ids=["GeneratorSpec.n", "GeneratorSpec.k", "untf_reference.k", "trials", "threads"],
)
def test_count_below_one_is_refused(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
        call()
