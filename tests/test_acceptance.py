"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

One test per criterion, named for what it verifies; each prints a PASS line
with the measured numbers once its assertions hold. Together they are the
go/no-go gate for the package.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np

from framesense import (
    ExperimentConfig,
    FAMILIES,
    GeneratorSpec,
    PlacementOptions,
    exhaustive_oracle,
    fp_approx_factor,
    frame_potential,
    framesense,
    generate,
    gram,
    l_min_max,
    mp_scenario,
    mp_scenario_report,
    mse,
    mse_envelope,
    row_normalize,
    sharma_interval,
    sweep_mse,
    sweep_timing,
    sym_eigenvalues,
)
from _oracles import marginal_gain, naive_framesense, row_gram


def test_criterion_01_frame_potential_matches_spectrum_on_1000_selections():
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst_fp = worst_trace = 0.0
    for t in range(1000):
        family = FAMILIES[t % len(FAMILIES)]
        n = int(rng.integers(5, 51))
        if family == "stacked_scaled" and n % 2:
            n += 1
        k = int(rng.integers(2, min(10, n - 1) + 1))
        scale = 3.0 if family == "stacked_scaled" else None
        seed = int(rng.integers(2**32))
        psi = generate(GeneratorSpec(family, n, k, seed=seed, scale=scale))
        size = int(rng.integers(1, n + 1))
        sel = rng.permutation(n)[:size].tolist()

        fp = frame_potential(psi, sel)
        lam = sym_eigenvalues(gram(psi, sel))
        energy = float(np.sum(psi.entries[sel] ** 2))
        fp_err = abs(fp - float(np.sum(lam * lam))) / fp
        trace_err = abs(float(lam.sum()) - energy) / float(lam.sum())
        worst_fp = max(worst_fp, fp_err)
        worst_trace = max(worst_trace, trace_err)
        assert fp_err <= 1e-8
        assert trace_err <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 01 spectral identities: PASS "
          f"(1000 selections, fp err {worst_fp:.2e}, trace err {worst_trace:.2e}, {elapsed:.1f}s)")


def test_criterion_02_gains_nonnegative_and_shrinking_on_200_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(20260802)
    gains = diffs = 0
    for t in range(200):
        n = int(rng.integers(5, 13))
        k = int(rng.integers(2, 5))
        psi = rng.normal(size=(n, k))
        if t % 2:
            psi = row_normalize(psi).entries
        rg = row_gram(psi)
        everyone = set(range(n))

        y = set(rng.permutation(n)[: int(rng.integers(1, n - 2))].tolist())
        x = set(list(y)[: int(rng.integers(0, len(y)))])
        rem_x = sorted(everyone - x)
        rem_y = sorted(everyone - y)
        for i in sorted(everyone - y):
            gain_x = marginal_gain(rg, rem_x, i)
            gain_y = marginal_gain(rg, rem_y, i)
            assert gain_x >= 0.0
            assert gain_y >= 0.0
            # eliminating from the smaller eliminated set pays at least as much
            assert gain_x - gain_y >= -1e-10
            gains += 2
            diffs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 02 monotone, diminishing gains: PASS "
          f"({gains} gains, {diffs} differences, {elapsed:.1f}s)")


def test_criterion_03_greedy_within_gamma_of_optimum_100_of_100():
    start = time.perf_counter()
    hits = 0
    for trial in range(100):
        psi = generate(GeneratorSpec("gaussian", 12, 4, seed=trial))
        opts = PlacementOptions(algorithm="framesense", normalize_rows=False)
        chosen = framesense(psi, 6, opts).chosen
        fp_greedy = frame_potential(psi, chosen)
        gamma = fp_approx_factor(psi, 6)
        _, fp_opt = exhaustive_oracle(psi, 6, "fp")
        assert fp_greedy <= gamma * fp_opt * (1 + 1e-12)
        hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 100
    assert elapsed < 60.0
    print(f"criterion 03 near-optimality factor: PASS ({hits}/100 trials, {elapsed:.1f}s)")


def test_criterion_04_mse_envelope_contains_all_subsets_and_collapses_on_untf():
    covered = 0
    for m in range(20):
        psi = generate(GeneratorSpec("gaussian", 8, 3, seed=4000 + m))
        lo_e, hi_e, _ = l_min_max(psi, 4)
        for sub in itertools.combinations(range(8), 4):
            val = mse(psi, sub, 1.0)
            if math.isinf(val):
                continue
            lower, upper = mse_envelope(psi, sub, lo_e, hi_e)
            assert lower * (1 - 1e-12) - 1e-12 <= val <= upper * (1 + 1e-12) + 1e-12
            covered += 1
    assert covered >= 20 * 69

    # eight unit vectors at evenly spaced angles form a tight frame in the plane
    angles = np.arange(8) * np.pi / 8
    untf = np.column_stack([np.cos(angles), np.sin(angles)])
    lo_e, hi_e, _ = l_min_max(untf, 8)
    lower, upper = mse_envelope(untf, range(8), lo_e, hi_e)
    reference = 2**2 / 8
    assert abs(lower - reference) <= 1e-8
    assert abs(upper - reference) <= 1e-8
    assert abs(mse(untf, range(8), 1.0) - reference) <= 1e-8
    print(f"criterion 04 error envelope: PASS "
          f"({covered} full-rank subsets contained, tight-frame collapse to {reference})")


def test_criterion_05_asymptotic_scenario_factors():
    gamma, eta, spectrum_low, spectrum_high = mp_scenario(0.25, 6)
    assert 13.8 <= gamma <= 14.0
    assert spectrum_low == 0.5
    assert spectrum_high == 4.5
    assert math.isclose(eta, gamma * 81.0, rel_tol=1e-13)
    assert 1123.0 < eta < 1125.0
    report = mp_scenario_report(0.25, 6)
    assert "about 1124" in report
    assert "about 50" in report
    print(f"criterion 05 asymptotic factors: PASS "
          f"(gamma {gamma:.4f}, eta {eta:.3f}, spectrum [{spectrum_low}, {spectrum_high}])")


def test_criterion_06_mean_error_beats_random_and_decays_with_sensors():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        family="gaussian",
        n=100,
        k=30,
        l_values=(30, 35, 40, 45, 50, 55, 60),
        trials=100,
        algorithms=("framesense", "random"),
        master_seed=60,
    )
    table = sweep_mse(cfg)
    means = {(row.algorithm, row.l): row.mse_mean for row in table.aggregates}
    for l in cfg.l_values:
        assert means["framesense", l] <= means["random", l]
    curve = [means["framesense", l] for l in cfg.l_values]
    for bigger_l, smaller_l in zip(curve[1:], curve[:-1]):
        assert bigger_l <= smaller_l * (1 + 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 06 error ordering over sensors: PASS "
          f"(7 sensor counts x 100 trials, {elapsed:.1f}s)")


def test_criterion_07_faster_than_eigen_greedy_baselines():
    cfg = ExperimentConfig(
        family="gaussian",
        k=10,
        n_values=(20, 50, 100, 200),
        trials=20,
        algorithms=("framesense", "det", "mse"),
        master_seed=70,
    )
    table = sweep_timing(cfg)
    times = {(row.algorithm, row.n): row.time_mean for row in table.aggregates}
    for n in (50, 100, 200):
        assert times["framesense", n] < times["det", n]
        assert times["framesense", n] < times["mse", n]
    ratio = times["det", 200] / times["framesense", 200]
    print(f"criterion 07 timing ordering: PASS "
          f"(at N=200 the determinant greedy is {ratio:.0f}x slower)")


def test_criterion_08_mean_ratio_bracket_on_10000_value_sets():
    rng = np.random.default_rng(20260808)
    two_element = 0
    for t in range(10_000):
        size = 2 if t % 3 == 0 else int(rng.integers(3, 31))
        vals = rng.uniform(0.1, 10.0, size=size)
        ratio = float(vals.mean() * np.sum(1.0 / vals) / size)
        low, high = sharma_interval(vals)
        slack = 1e-12 * max(1.0, ratio)
        assert low - slack <= ratio <= high + slack
        if size == 2:
            # both ends of the bracket are exact for two values
            assert abs(ratio - low) <= slack
            assert abs(high - ratio) <= slack
            two_element += 1
    print(f"criterion 08 mean-ratio bracket: PASS "
          f"(10000 value sets, {two_element} two-element sets tight)")


def test_criterion_09_incremental_and_naive_eliminations_agree_on_50_instances():
    rng = np.random.default_rng(20260809)
    for t in range(50):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(2, min(6, n - 4) + 1))
        l = int(rng.integers(max(2, k), n - 1))
        normalize = bool(t % 2)
        psi = rng.normal(size=(n, k))
        opts = PlacementOptions(algorithm="framesense", normalize_rows=normalize)
        fast = framesense(psi, l, opts)
        slow = naive_framesense(psi, l, normalize_rows=normalize)
        assert list(fast.eliminated) == slow
    print("criterion 09 incremental consistency: PASS (50 instances, N up to 30)")


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "framesense", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _without_columns(path, names):
    lines = path.read_text().splitlines()
    keep = [i for i, h in enumerate(lines[0].split(",")) if h not in names]
    return "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines)


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    place_args = ("place", "--gen", "gaussian", "--n", "10", "--k", "3",
                  "--sensors", "5", "--seed", "42")
    assert _cli(*place_args) == _cli(*place_args)

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"family": "bernoulli", "n": 7, "k": 4, "master_seed": 5}))
    _cli("matgen", "--config", str(gen_cfg), "--out", str(tmp_path / "m1"))
    _cli("matgen", "--config", str(gen_cfg), "--out", str(tmp_path / "m2"))
    assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()

    mse_cfg = tmp_path / "mse.json"
    mse_cfg.write_text(json.dumps({
        "family": "gaussian", "n": 10, "k": 3, "l_values": [3, 4, 5],
        "trials": 6, "algorithms": ["framesense", "det", "mse", "random"],
        "master_seed": 10,
    }))
    for run, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        _cli("sweep-mse", "--config", str(mse_cfg),
             "--out", str(tmp_path / run), "--threads", threads)
    raws = [_without_columns(tmp_path / f"{run}_raw.csv", {"wall_time_seconds"})
            for run in "abc"]
    aggs = [_without_columns(tmp_path / f"{run}_agg.csv", {"time_mean", "time_std"})
            for run in "abc"]
    plots = [(tmp_path / f"{run}_plot").read_bytes() for run in "abc"]
    assert raws[0] == raws[1] == raws[2]
    assert aggs[0] == aggs[1] == aggs[2]
    assert plots[0] == plots[1] == plots[2]

    time_cfg = tmp_path / "time.json"
    time_cfg.write_text(json.dumps({
        "family": "gaussian", "k": 3, "n_values": [8, 12], "trials": 2,
        "algorithms": ["framesense", "det", "random"], "master_seed": 11,
    }))
    _cli("sweep-time", "--config", str(time_cfg), "--out", str(tmp_path / "t1"))
    _cli("sweep-time", "--config", str(time_cfg), "--out", str(tmp_path / "t2"))
    for suffix, dropped in (("raw.csv", {"wall_time_seconds"}),
                            ("agg.csv", {"time_mean", "time_std"})):
        first = _without_columns(tmp_path / f"t1_{suffix}", dropped)
        second = _without_columns(tmp_path / f"t2_{suffix}", dropped)
        assert first == second

    audit_cfg = tmp_path / "audit.json"
    audit_cfg.write_text(json.dumps({
        "family": "gaussian", "n": 8, "k": 3, "l_values": [4], "trials": 3,
        "normalize_rows": False, "master_seed": 12,
    }))
    out_a = _cli("audit", "--config", str(audit_cfg), "--out", str(tmp_path / "au1"))
    out_b = _cli("audit", "--config", str(audit_cfg), "--out", str(tmp_path / "au2"))
    assert out_a.splitlines()[-1] == out_b.splitlines()[-1]
    for suffix in ("raw.csv", "agg.csv"):
        assert (tmp_path / f"au1_{suffix}").read_bytes() == (tmp_path / f"au2_{suffix}").read_bytes()

    print("criterion 10 deterministic reruns: PASS "
          "(place, matgen, sweep-mse across threads, sweep-time, audit)")
