"""Experiment harness: configs, sweeps, audits, CSV output."""

import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from framesense import (
    AGG_CSV_HEADER,
    ALGORITHMS,
    AUDIT_CSV_HEADER,
    BOUNDS_CSV_HEADER,
    BoundsReport,
    ExperimentConfig,
    GeneratorSpec,
    PlacementOptions,
    RAW_CSV_HEADER,
    ResultTable,
    compute_bounds_report,
    delta_bound,
    exhaustive_oracle,
    fp_approx_factor,
    frame_potential,
    generate,
    mse,
    oracle_audit,
    run_placement,
    save_matrix,
    sweep_mse,
    sweep_timing,
)
from framesense.harness import AggRow, AuditRow, RawRow, _trial_seed
from framesense.matio import csv_row


def record_placements(monkeypatch):
    """Run every placement the harness makes, recording its (algorithm, L)."""
    import framesense.harness

    calls = []

    def recorded(psi, l, opts):
        calls.append((opts.algorithm, l))
        return run_placement(psi, l, opts)

    monkeypatch.setattr(framesense.harness, "run_placement", recorded)
    return calls


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

    def test_from_json_refuses_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([{"n": 8}]))
        with pytest.raises(ValueError, match="config must be a JSON object$"):
            ExperimentConfig.from_json(path)

    def test_matrix_csv_must_be_a_path(self):
        with pytest.raises(ValueError, match="^matrix_csv must be a path, got 5$"):
            ExperimentConfig(matrix_csv=5)

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

    @pytest.mark.parametrize("field,value", [
        ("family", ["gaussian", "bernoulli", "gaussian"]),
        ("l_values", (4, 4)),
        ("n_values", (60, 80, 60)),
        ("algorithms", ("det", "random", "det")),
    ], ids=["family", "l_values", "n_values", "algorithms"])
    def test_repeated_entry_refused(self, field, value):
        # a repeat would run its cells again and count them as more trials
        with pytest.raises(ValueError, match=f"^{field} repeats "):
            ExperimentConfig(n=10, k=3, trials=2, **{field: value})

    def test_l_grid_checked_against_dimensions(self):
        with pytest.raises(ValueError, match="framesense"):
            sweep_mse(small_cfg(l_values=(9,)))
        # without the eliminating greedy the full range is legal
        sweep_mse(small_cfg(l_values=(10,), algorithms=("random",)))
        with pytest.raises(ValueError):
            sweep_mse(small_cfg(n=9, l_values=(10,), algorithms=("random",)))


# (algorithm, L) cells outside the algorithm's range on a 10 x 3 matrix;
# framesense's is held to L >= K
BAD_CELLS = [("det", 2), ("mse", 2), ("mi", 10), ("coherence", 1), ("framesense", 2)]


class TestSweepMse:
    @pytest.mark.parametrize("algo,l", BAD_CELLS)
    def test_bad_cell_refused_before_any_placement(self, monkeypatch, algo, l):
        calls = record_placements(monkeypatch)
        cfg = small_cfg(l_values=(5, l), algorithms=("random", algo))
        with pytest.raises(ValueError, match=f"^{algo} needs a sensor count"):
            sweep_mse(cfg)
        assert calls == []

    def test_grid_shape_and_order(self):
        table = sweep_mse(small_cfg())
        assert len(table.raw) == 3 * 2 * 2
        keys = [(r.family, r.n, r.k, r.l, r.algorithm, r.trial) for r in table.raw]
        assert keys == sorted(keys)

    def test_rows_are_regenerable(self):
        # every row of every algorithm, at L < K, L = K and L > K, rows
        # normalized or not: its mse and fp are those of its replayed
        # selection, bit for bit
        grids = [((2,), ("mi", "coherence", "random")), ((3, 6), ALGORITHMS)]
        for normalize_rows in (True, False):
            rows = []
            for l_values, algorithms in grids:
                rows += sweep_mse(small_cfg(l_values=l_values, algorithms=algorithms, trials=2,
                                            sigma2=0.3, normalize_rows=normalize_rows)).raw
            assert len(rows) == 2 * (3 + 2 * len(ALGORITHMS))
            for row in rows:
                matrix = generate(GeneratorSpec("gaussian", row.n, row.k, seed=row.seed))
                opts = PlacementOptions(algorithm=row.algorithm, normalize_rows=normalize_rows,
                                        seed=row.seed, sigma2=0.3)
                sel = run_placement(matrix, row.l, opts)
                assert mse(matrix, sel.chosen, 0.3) == row.mse
                assert frame_potential(matrix, sel.chosen) == row.fp

    def test_thread_count_does_not_change_results(self, tmp_path):
        # generated matrices, and one fixed matrix read from disk
        path = tmp_path / "m.csv"
        save_matrix(path, np.random.default_rng(44).normal(size=(9, 3)))

        def strip_timing(rows):
            return [(r.family, r.n, r.k, r.l, r.algorithm, r.trial, r.seed, r.mse, r.fp)
                    for r in rows]

        for family, overrides in (("gaussian", {}),
                                  ("csv", {"matrix_csv": str(path), "l_values": (4,)})):
            one = sweep_mse(small_cfg(threads=1, **overrides))
            four = sweep_mse(small_cfg(threads=4, **overrides))
            assert {r.family for r in one.raw} == {family}
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

    @pytest.mark.parametrize("field,value", [
        ("scale", 2.0), ("entry_scale", 5.0), ("family", ["bernoulli", "dct_frame"]),
    ], ids=["scale", "entry_scale", "family"])
    def test_fixed_matrix_refuses_generation_setting(self, tmp_path, monkeypatch, field, value):
        # a matrix_csv sweep generates nothing, so it would ignore these
        path = tmp_path / "m.csv"
        save_matrix(path, np.random.default_rng(44).normal(size=(9, 3)))
        calls = record_placements(monkeypatch)
        cfg = small_cfg(matrix_csv=str(path), l_values=(4,), trials=1, algorithms=("random",),
                        **{field: value})
        with pytest.raises(ValueError, match=f"^{field} .+ does not apply to matrix_csv"):
            sweep_mse(cfg)
        assert calls == []

    def test_bad_l_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_mse(small_cfg(l_values=(2,)))


# Family settings that GeneratorSpec refuses, each in a config whose other
# family and whose L grid are fine, so a late check would run placements
REFUSED_FAMILIES = [
    (dict(family=["gaussian", "stacked_scaled"]), "stacked_scaled needs scale > 1"),
    (dict(family=["gaussian", "random_tight_frame"], n=10, k=10),
     "random_tight_frame needs more rows than columns"),
    (dict(family=["gaussian", "stacked_scaled"], n=11, scale=2.0),
     "stacked_scaled needs an even number of rows"),
]


class TestGenerationCheck:
    """Every run checks each matrix it will generate before its first placement."""

    @pytest.mark.parametrize("overrides,message", REFUSED_FAMILIES)
    def test_sweep_mse_refuses_family_setting(self, monkeypatch, overrides, message):
        calls = record_placements(monkeypatch)
        cfg = small_cfg(l_values=(3,), trials=2, algorithms=("random",), **overrides)
        with pytest.raises(ValueError, match=message):
            sweep_mse(cfg)
        assert calls == []

    def test_sweep_timing_checks_every_n(self, monkeypatch):
        # a check made as each N comes up would run n = 12 for both families first
        calls = record_placements(monkeypatch)
        cfg = small_cfg(family=["gaussian", "stacked_scaled"], scale=2.0,
                        n_values=(12, 13), trials=1, algorithms=("random",))
        with pytest.raises(ValueError, match="stacked_scaled needs an even number of rows"):
            sweep_timing(cfg)
        assert calls == []

    def test_audit_refuses_family_setting(self, monkeypatch):
        calls = record_placements(monkeypatch)
        cfg = small_cfg(family=["gaussian", "stacked_scaled"], l_values=(4,), trials=1)
        with pytest.raises(ValueError, match="stacked_scaled needs scale > 1"):
            oracle_audit(cfg)
        assert calls == []

    def test_unused_scale_refused(self, monkeypatch):
        calls = record_placements(monkeypatch)
        cfg = small_cfg(family=["gaussian", "bernoulli"], scale=2.0, algorithms=("random",))
        with pytest.raises(ValueError, match=r"^scale only applies to stacked_scaled"):
            sweep_mse(cfg)
        assert calls == []

    @pytest.mark.parametrize("run,command", [(sweep_timing, "sweep-time"), (oracle_audit, "audit")])
    def test_matrix_csv_refused(self, monkeypatch, run, command):
        calls = record_placements(monkeypatch)
        cfg = small_cfg(matrix_csv="m.csv", l_values=(4,), n_values=(8,))
        with pytest.raises(ValueError, match=f"^matrix_csv applies to sweep-mse only, not to {command}$"):
            run(cfg)
        assert calls == []

    @pytest.mark.parametrize("run,command", [(sweep_timing, "sweep-time"), (oracle_audit, "audit")])
    def test_threads_refused(self, monkeypatch, run, command):
        # these runs are single-worker, so a threads setting would be ignored
        calls = record_placements(monkeypatch)
        cfg = small_cfg(threads=2, l_values=(4,), n_values=(8,))
        with pytest.raises(ValueError, match=f"^threads applies to sweep-mse only, not to {command}$"):
            run(cfg)
        assert calls == []

    @pytest.mark.parametrize("run", [sweep_mse, sweep_timing, oracle_audit])
    def test_unread_entry_scale_refused(self, monkeypatch, run):
        calls = record_placements(monkeypatch)
        cfg = small_cfg(family="bernoulli", entry_scale=3.0, l_values=(4,), n_values=(8,), trials=1)
        message = r"^entry_scale only applies to gaussian and stacked_scaled, got families \['bernoulli'\]$"
        with pytest.raises(ValueError, match=message):
            run(cfg)
        assert calls == []

    def test_entry_scale_reaches_its_readers_only(self):
        # a family list may mix families that read entry_scale and ones that do not
        kw = dict(family=["gaussian", "bernoulli"], l_values=(4,), trials=2, algorithms=("random",))
        scaled, plain = sweep_mse(small_cfg(entry_scale=3.0, **kw)).raw, sweep_mse(small_cfg(**kw)).raw
        for row, base in zip(scaled, plain):
            if row.family == "bernoulli":
                assert (row.mse, row.fp) == (base.mse, base.fp)
            else:
                # the same rows of draws scaled by 3 give 1/9 of the MSE
                assert row.mse == pytest.approx(base.mse / 9.0, rel=1e-12)
        assert {r.family for r in scaled} == {"gaussian", "bernoulli"}

    def test_scale_reaches_stacked_scaled_only(self):
        cfg = small_cfg(family=["gaussian", "stacked_scaled"], scale=4.0, l_values=(4,),
                        trials=1, algorithms=("random",))
        for row in sweep_mse(cfg).raw:
            scale = 4.0 if row.family == "stacked_scaled" else None
            matrix = generate(GeneratorSpec(row.family, 10, 3, seed=row.seed, scale=scale))
            sel = run_placement(matrix, 4, PlacementOptions("random", seed=row.seed))
            assert frame_potential(matrix, sel.chosen) == row.fp


def test_readme_config_table_names_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
    names = []
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        names += re.findall(r"`(\w+)`", line.split("|")[1])
    assert names == [f.name for f in dataclasses.fields(ExperimentConfig)]


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
        assert csv_row(agg[0]).split(",")[AGG_CSV_HEADER.split(",").index("mse_unbounded")] == "1"


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
            assert len(csv_row(row).split(",")) == width


def flat_field_names(cls):
    """Field names of a row record, a nested record's names in its place."""
    hints = typing.get_type_hints(cls)
    names = []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            names += flat_field_names(hints[f.name])
        else:
            names.append(f.name)
    return names


class TestRowFormat:
    @pytest.mark.parametrize(
        "record, header",
        [
            (RawRow, RAW_CSV_HEADER),
            (AggRow, AGG_CSV_HEADER),
            (AuditRow, AUDIT_CSV_HEADER),
            (BoundsReport, BOUNDS_CSV_HEADER),
        ],
    )
    def test_fields_follow_header(self, record, header):
        # rows are written from their fields in declaration order
        assert [name.lower() for name in flat_field_names(record)] == header.lower().split(",")

    def test_csv_row_formats_each_type(self):
        values = [True, False, None, 2**64 - 1, 7, math.nan, math.inf, -math.inf, -0.0, 0.1, "ok"]
        assert csv_row(values) == (
            "1,0,,18446744073709551615,7,nan,inf,-inf,-0,0.10000000000000001,ok"
        )
        assert csv_row([]) == ""


class TestSweepTiming:
    def test_l_is_half_of_n(self):
        cfg = small_cfg(n_values=(8, 12), trials=2, algorithms=("framesense",))
        table = sweep_timing(cfg)
        for row in table.raw:
            assert row.l == (row.n + 1) // 2
            assert row.wall_time_seconds > 0
        assert {r.n for r in table.raw} == {8, 12}

    # (algorithm, K, N) with L = ceil(N / 2) outside the algorithm's range
    @pytest.mark.parametrize("algo,k,n", [("det", 3, 4), ("mi", 1, 1), ("coherence", 3, 2)])
    def test_bad_cell_refused_before_any_placement(self, monkeypatch, algo, k, n):
        calls = record_placements(monkeypatch)
        cfg = small_cfg(k=k, n_values=(12, n), trials=1, algorithms=("random", algo))
        with pytest.raises(ValueError, match=f"^timing grid point n={n}: {algo} needs"):
            sweep_timing(cfg)
        assert calls == []

    def test_default_config_passes_grid_check(self, monkeypatch):
        import framesense.harness

        class Reached(Exception):
            pass

        def stop(*args):
            raise Reached

        monkeypatch.setattr(framesense.harness, "generate", stop)
        with pytest.raises(Reached):
            sweep_timing(ExperimentConfig(trials=1))

    def test_plot_script(self):
        table = sweep_timing(small_cfg(n_values=(8, 12), trials=2, algorithms=("framesense", "random")))
        script = table.plot_script()
        assert "set title 'placement wall time'\n" in script
        assert "set xlabel 'candidate locations N'\n" in script
        assert "set ylabel 'mean wall time [s]'\n" in script
        blocks = re.findall(r"<< EOD\n(.*?)EOD\n", script, re.S)
        assert len(blocks) == 2
        for block in blocks:
            assert [line.split(",")[0] for line in block.splitlines()] == ["8", "12"]

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

    def test_optimal_greedy_reports_fp_opt_exactly(self):
        # one FP rule for one set of rows: wherever framesense finds the
        # oracle's subset, its FP and the optimum are the same float
        same = 0
        for family in ("gaussian", "bernoulli"):
            table = oracle_audit(small_cfg(family=family, n=12, k=3, l_values=(4, 6, 8, 10),
                                           trials=10))
            for row in table.rows:
                matrix = generate(GeneratorSpec(family, 12, 3, seed=row.seed))
                sel = run_placement(matrix, row.report.l, PlacementOptions(normalize_rows=False))
                best, _ = exhaustive_oracle(matrix, row.report.l, "fp")
                if sel.chosen == best.chosen:
                    same += 1
                    assert row.fp_greedy == row.fp_opt, (family, row.trial, row.report.l)
        assert same >= 10

    def test_greedy_values_match_direct_run(self):
        cfg = small_cfg(n=8, l_values=(4,), trials=1)
        row = oracle_audit(cfg).rows[0]
        matrix = generate(GeneratorSpec("gaussian", 8, 3, seed=row.seed))
        sel = run_placement(matrix, 4, PlacementOptions(seed=row.seed))
        assert row.fp_greedy == frame_potential(matrix, sel.chosen)
        _, fp_opt = exhaustive_oracle(matrix, 4, "fp")
        assert row.fp_opt == fp_opt

    def test_one_gram_and_one_eigen_call_per_subset(self, monkeypatch):
        # the walk forms each subset's Gram product inline and decomposes it
        # with one eigvalsh call; the checked gram and sym_eigenvalues run
        # only for the greedy selection's MSE and its MSE envelope. Counted
        # at every module that binds them, as a tracer would see them.
        import framesense.bounds
        import framesense.harness
        import framesense.linalg
        import framesense.placement

        calls = {"gram": 0, "sym_eigenvalues": 0, "eigvalsh": 0}

        def count(home, name):
            orig = getattr(home, name)

            def counted(*args, _orig=orig, _name=name):
                calls[_name] += 1
                return _orig(*args)

            return orig, counted

        for name in ("gram", "sym_eigenvalues"):
            orig, counted = count(framesense.linalg, name)
            for mod in (framesense.linalg, framesense.bounds, framesense.placement, framesense.harness):
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", count(np.linalg, "eigvalsh")[1])
        oracle_audit(small_cfg(n=10, k=3, l_values=(5,), trials=1, normalize_rows=False))
        assert calls == {"gram": 2, "sym_eigenvalues": 2, "eigvalsh": math.comb(10, 5) + 2}

    def test_every_walked_cell_reports_its_delta(self, monkeypatch):
        # one guard decides both whether a cell walks and whether it has a
        # delta: at a guard of C(10, 4) = 210, L = 4 and 6 walk, L = 5 skips.
        # The guard reads its limit from linalg at call time.
        import framesense.linalg

        monkeypatch.setattr(framesense.linalg, "ORACLE_SUBSET_LIMIT", math.comb(10, 4))
        cfg = small_cfg(n=10, k=3, l_values=(4, 5, 6), trials=2, normalize_rows=False)
        for row in oracle_audit(cfg).rows:
            l = row.report.l
            if l == 5:
                assert row.status.startswith("skipped")
                with pytest.raises(ValueError, match="guard"):
                    delta_bound(generate(GeneratorSpec("gaussian", 10, 3, seed=row.seed)), l)
                continue
            assert row.status == "ok"
            matrix = generate(GeneratorSpec("gaussian", 10, 3, seed=row.seed))
            assert math.isfinite(row.report.delta)
            assert row.report.delta == delta_bound(matrix, l)
            sel = run_placement(matrix, l, PlacementOptions(normalize_rows=False))
            assert compute_bounds_report(matrix, l, sel.chosen).delta == row.report.delta

    def test_a_skipped_cell_misses_only_what_the_walk_gives(self, monkeypatch):
        # at a guard of C(10, 4) = 210, L = 5 skips: its row is the walked
        # row except for the optima, delta, eta, the gamma check and status
        import framesense.linalg

        cfg = small_cfg(n=10, k=3, l_values=(4, 5, 6), trials=2, normalize_rows=False)
        columns = AUDIT_CSV_HEADER.split(",")

        def audit_rows():
            return [dict(zip(columns, csv_row(row).split(","))) for row in oracle_audit(cfg).rows]

        walked = audit_rows()
        monkeypatch.setattr(framesense.linalg, "ORACLE_SUBSET_LIMIT", math.comb(10, 4))
        guarded = audit_rows()
        walk_only = {"delta": "nan", "eta": "nan", "fp_opt": "nan", "mse_opt": "nan",
                     "fp_within_gamma": "", "status": "skipped: C(10;5) exceeds enumeration guard"}
        assert [row["L"] for row in guarded] == ["4", "5", "6"] * 2
        for full, row in zip(walked, guarded):
            assert full["status"] == "ok"
            if row["L"] != "5":
                assert row == full
                continue
            assert {c: row[c] for c in walk_only} == walk_only
            assert {c: row[c] for c in columns if c not in walk_only} == \
                {c: full[c] for c in columns if c not in walk_only}

    def test_optima_and_delta_match_standalone_calls(self):
        cfg = small_cfg(n=10, k=3, l_values=(3, 5, 8), trials=3, normalize_rows=False)
        for row in oracle_audit(cfg).rows:
            matrix = generate(GeneratorSpec("gaussian", 10, 3, seed=row.seed))
            l = row.report.l
            assert row.fp_opt == exhaustive_oracle(matrix, l, "fp")[1]
            assert row.mse_opt == exhaustive_oracle(matrix, l, "mse")[1]
            assert row.report.delta == delta_bound(matrix, l)

    def test_single_column_cells_pass_certificates(self):
        # K = 1: every row is a multiple of one vector, so each subset's Gram
        # matrix is its energy and the envelope collapses onto the MSE
        info = oracle_audit(small_cfg(n=10, k=1, l_values=(1, 4, 8), trials=2)).summary()
        assert (info["audited"], info["fp_pass"], info["mse_pass"]) == (6, 6, 6)

    def test_l_below_k_refused_before_any_placement(self, monkeypatch):
        # the certificate needs L >= K; the L = 4 cell would run first
        calls = record_placements(monkeypatch)
        with pytest.raises(ValueError, match=r"^audit: framesense needs a sensor count in \[3, 6\]"):
            oracle_audit(small_cfg(n=8, l_values=(4, 2), trials=1))
        assert calls == []

    def test_collapsed_cells_pass_within_rounding(self):
        # on 9 of these cells the envelope collapses onto the MSE and its
        # computed lower bound reads 3e-16 above it; the three fp misses
        # are real, by 1.8-9% of gamma
        cfg = small_cfg(family="bernoulli", n=12, k=3, l_values=(4, 6, 8, 10), trials=10,
                        master_seed=0)
        info = oracle_audit(cfg).summary()
        assert (info["fp_pass"], info["mse_pass"]) == (37, 40)

    def test_allowance_does_not_hide_a_real_miss(self, monkeypatch):
        import framesense.harness

        cfg = small_cfg(family="bernoulli", n=12, k=3, l_values=(4,), trials=1, master_seed=0)
        row = oracle_audit(cfg).rows[0]
        lower, upper = row.report.mse_bound_lower, row.report.mse_bound_upper
        assert row.mse_within_bounds and upper - lower <= 1e-15 * upper
        monkeypatch.setattr(framesense.harness, "mse", lambda *a: mse(*a) * (1 + 1e-9))
        assert oracle_audit(cfg).rows[0].mse_within_bounds is False

    def test_paper_gamma_misses_after_the_first_pair(self):
        # L = N - 2: framesense only eliminates its first pair, which the
        # paper's gamma does not cover; trial 18 misses it by 5%
        cfg = small_cfg(n=16, k=2, l_values=(14,), trials=20, master_seed=0)
        table = oracle_audit(cfg)
        assert table.summary()["fp_pass"] == 19
        assert [row.trial for row in table.rows if not row.fp_within_gamma] == [18]

    def test_oversized_instances_are_skipped(self):
        cfg = small_cfg(n=40, k=3, l_values=(20,), trials=1)
        table = oracle_audit(cfg)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.status.startswith("skipped")
        assert "," not in row.status
        assert row.fp_within_gamma is None
        matrix = generate(GeneratorSpec("gaussian", 40, 3, seed=row.seed))
        assert row.report.gamma == fp_approx_factor(matrix, 20)
        assert math.isnan(row.fp_opt)
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
