"""Experiment harness: configs, sweeps, audits, CSV output."""

import json
import math

import numpy as np
import pytest

from framesense import (
    AGG_CSV_HEADER,
    AUDIT_CSV_HEADER,
    ExperimentConfig,
    GeneratorSpec,
    PlacementOptions,
    RAW_CSV_HEADER,
    ResultTable,
    exhaustive_oracle,
    frame_potential,
    generate,
    mse,
    oracle_audit,
    run_placement,
    save_matrix,
    sweep_mse,
    sweep_timing,
)
from framesense.harness import RawRow, _trial_seed


def small_cfg(**overrides):
    base = dict(
        family="gaussian",
        n=10,
        k=3,
        l_values=(3, 5),
        trials=3,
        algorithms=("framesense", "random"),
        master_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.family == ["gaussian"]
        assert cfg.l_values == (30, 35, 40, 45, 50, 55, 60)
        assert cfg.threads == 1
        assert cfg.normalize_rows is True

    def test_family_string_becomes_list(self):
        assert ExperimentConfig(family="bernoulli").family == ["bernoulli"]
        assert ExperimentConfig(family=["gaussian", "bernoulli"]).family == [
            "gaussian",
            "bernoulli",
        ]

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 8, "num_sensors": 4}))
        with pytest.raises(ValueError, match="num_sensors"):
            ExperimentConfig.from_json(path)

    def test_from_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "bernoulli", "n": 12, "k": 4, "trials": 2}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.family == ["bernoulli"]
        assert cfg.n == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(threads=0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("framesense", "magic"))
        with pytest.raises(ValueError):
            ExperimentConfig(l_values=())

    def test_l_grid_checked_against_dimensions(self):
        cfg = small_cfg(l_values=(9,))
        with pytest.raises(ValueError, match="framesense"):
            cfg.check_l_values(10, 3)
        # without the eliminating greedy the full range is legal
        cfg2 = small_cfg(l_values=(10,), algorithms=("random",))
        cfg2.check_l_values(10, 3)
        with pytest.raises(ValueError):
            cfg2.check_l_values(9, 3)


class TestSweepMse:
    def test_grid_shape_and_order(self):
        table = sweep_mse(small_cfg())
        assert len(table.raw) == 3 * 2 * 2
        keys = [(r.family, r.n, r.k, r.l, r.algorithm, r.trial) for r in table.raw]
        assert keys == sorted(keys)

    def test_rows_are_regenerable(self):
        cfg = small_cfg()
        table = sweep_mse(cfg)
        row = table.raw[-1]
        matrix = generate(GeneratorSpec("gaussian", row.n, row.k, seed=row.seed))
        opts = PlacementOptions(
            algorithm=row.algorithm, normalize_rows=True, seed=row.seed, sigma2=1.0
        )
        sel = run_placement(matrix, row.l, opts)
        assert mse(matrix, sel.chosen, 1.0) == row.mse
        assert frame_potential(matrix, sel.chosen) == row.fp

    def test_thread_count_does_not_change_results(self):
        one = sweep_mse(small_cfg(threads=1))
        four = sweep_mse(small_cfg(threads=4))

        def strip_timing(rows):
            return [(r.family, r.n, r.k, r.l, r.algorithm, r.trial, r.seed, r.mse, r.fp)
                    for r in rows]

        assert strip_timing(one.raw) == strip_timing(four.raw)

    def test_trial_seeds_differ_per_family_and_trial(self):
        assert _trial_seed(1, "gaussian", 0) != _trial_seed(1, "gaussian", 1)
        assert _trial_seed(1, "gaussian", 0) != _trial_seed(1, "bernoulli", 0)
        assert _trial_seed(1, "gaussian", 0) != _trial_seed(2, "gaussian", 0)

    def test_fixed_matrix_from_csv(self, tmp_path):
        rng = np.random.default_rng(44)
        psi = rng.normal(size=(9, 3))
        path = tmp_path / "m.csv"
        save_matrix(path, psi)
        cfg = small_cfg(matrix_csv=str(path), l_values=(4,), trials=2)
        table = sweep_mse(cfg)
        assert all(r.family == "csv" for r in table.raw)
        assert all(r.n == 9 for r in table.raw)
        # same matrix every trial, so framesense rows repeat exactly
        fs = [r for r in table.raw if r.algorithm == "framesense"]
        assert fs[0].mse == fs[1].mse

    def test_bad_l_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_mse(small_cfg(l_values=(2,)))


class TestAggregation:
    def test_group_stats(self):
        rows = [
            RawRow("gaussian", 5, 2, 3, "random", 0, 7, 1.0, 10.0, 0.5),
            RawRow("gaussian", 5, 2, 3, "random", 1, 8, 3.0, 30.0, 1.5),
        ]
        table = ResultTable(rows)
        agg = table.aggregates
        assert len(agg) == 1
        assert agg[0].trials == 2
        assert agg[0].mse_mean == 2.0
        assert agg[0].mse_std == 1.0
        assert agg[0].mse_unbounded == 0
        assert agg[0].fp_mean == 20.0
        assert agg[0].time_mean == 1.0

    def test_infinite_cells_propagate(self):
        rows = [
            RawRow("gaussian", 5, 2, 2, "random", 0, 7, math.inf, 8.0, 0.1),
            RawRow("gaussian", 5, 2, 2, "random", 1, 8, 1.0, 8.0, 0.1),
        ]
        agg = ResultTable(rows).aggregates
        assert math.isinf(agg[0].mse_mean)
        assert agg[0].mse_unbounded == 1
        assert agg[0].to_csv().split(",")[AGG_CSV_HEADER.split(",").index("mse_unbounded")] == "1"


class TestCsvOutput:
    def test_write_produces_three_files(self, tmp_path):
        table = sweep_mse(small_cfg())
        paths = table.write(tmp_path / "out")
        raw, agg, plot = (open(p).read() for p in paths)
        assert raw.splitlines()[0] == RAW_CSV_HEADER
        assert agg.splitlines()[0] == AGG_CSV_HEADER
        assert len(raw.splitlines()) == 1 + len(table.raw)
        assert "$data0" in plot and "EOD" in plot
        assert "gnuplot" in plot.splitlines()[0]

    def test_raw_row_field_count(self):
        table = sweep_mse(small_cfg())
        width = len(RAW_CSV_HEADER.split(","))
        for row in table.raw:
            assert len(row.to_csv().split(",")) == width


class TestSweepTiming:
    def test_l_is_half_of_n(self):
        cfg = small_cfg(n_values=(8, 12), trials=2, algorithms=("framesense",))
        table = sweep_timing(cfg)
        for row in table.raw:
            assert row.l == (row.n + 1) // 2
            assert row.wall_time_seconds > 0
        assert {r.n for r in table.raw} == {8, 12}

    def test_grid_point_outside_range_rejected(self):
        cfg = small_cfg(n_values=(4,), algorithms=("framesense",))
        with pytest.raises(ValueError, match="timing grid"):
            sweep_timing(cfg)


class TestOracleAudit:
    def test_small_instances_pass_certificates(self):
        cfg = small_cfg(n=8, l_values=(4,), trials=4, normalize_rows=False)
        table = oracle_audit(cfg)
        assert len(table.rows) == 4
        for row in table.rows:
            assert row.status == "ok"
            assert row.fp_within_gamma is True
            assert row.mse_within_bounds is True
            assert row.fp_greedy >= row.fp_opt * (1 - 1e-12)
            assert row.mse_greedy >= row.mse_opt * (1 - 1e-12)
        info = table.summary()
        assert info["audited"] == 4
        assert info["fp_pass"] == 4
        assert info["max_fp_ratio"] >= 1.0

    def test_default_config_certifies_unnormalized_run(self):
        # stacked_scaled rows have uneven norms, so a normalized greedy can
        # miss gamma; the default config (normalize_rows=True) must still
        # audit the unnormalized run the certificate covers
        cfg = small_cfg(family="stacked_scaled", scale=4.0, n=12, k=3,
                        l_values=(4, 6), trials=10)
        assert cfg.normalize_rows
        table = oracle_audit(cfg)
        assert all(row.fp_within_gamma for row in table.rows)
        for row in table.rows:
            matrix = generate(GeneratorSpec("stacked_scaled", 12, 3, seed=row.seed, scale=4.0))
            sel = run_placement(matrix, row.report.l, PlacementOptions(normalize_rows=False))
            assert row.fp_greedy == frame_potential(matrix, sel.chosen)

    def test_greedy_values_match_direct_run(self):
        cfg = small_cfg(n=8, l_values=(4,), trials=1)
        row = oracle_audit(cfg).rows[0]
        matrix = generate(GeneratorSpec("gaussian", 8, 3, seed=row.seed))
        sel = run_placement(matrix, 4, PlacementOptions(seed=row.seed))
        assert row.fp_greedy == frame_potential(matrix, sel.chosen)
        _, fp_opt = exhaustive_oracle(matrix, 4, "fp")
        assert row.fp_opt == fp_opt

    def test_oversized_instances_are_skipped(self):
        cfg = small_cfg(n=40, k=3, l_values=(20,), trials=1)
        table = oracle_audit(cfg)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.status.startswith("skipped")
        assert "," not in row.status
        assert row.fp_within_gamma is None
        assert math.isnan(row.report.gamma)
        info = table.summary()
        assert info["skipped"] == 1
        assert math.isnan(info["max_fp_ratio"])

    def test_write_audit_files(self, tmp_path):
        cfg = small_cfg(n=8, l_values=(4,), trials=2)
        table = oracle_audit(cfg)
        raw_path, agg_path = table.write(tmp_path / "audit")
        raw = open(raw_path).read().splitlines()
        assert raw[0] == AUDIT_CSV_HEADER
        assert len(raw) == 3
        width = len(AUDIT_CSV_HEADER.split(","))
        assert all(len(line.split(",")) == width for line in raw[1:])
        agg = open(agg_path).read().splitlines()
        assert agg[0].startswith("instances,audited")
