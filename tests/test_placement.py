"""Placement algorithms: the frame-potential greedy, baselines, oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from framesense import (
    ALGORITHMS,
    ORACLE_SUBSET_LIMIT,
    GeneratorSpec,
    PlacementOptions,
    Selection,
    exhaustive_oracle,
    frame_potential,
    framesense,
    generate,
    greedy_coherence,
    greedy_det,
    greedy_mi,
    greedy_mse,
    marginal_gain,
    mse,
    random_placement,
    row_gram,
    run_placement,
)

from _oracles import (
    _det_and_inverse,
    best_subset,
    exact_best_in,
    exact_framesense,
    naive_framesense,
)

# three basis rows plus a duplicate of the first
E_DUP = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
])

MB_DUP = np.array([
    [0.0, 1.0],
    [-math.sqrt(3) / 2, -0.5],
    [math.sqrt(3) / 2, -0.5],
    [0.0, 1.0],
])


def random_instance(seed, n=None, k=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(6, 13))
    k = k or int(rng.integers(2, min(n - 2, 5) + 1))
    return rng.normal(size=(n, k))


def duplicated_row_instance(seed):
    """Random instance whose row ``copy`` repeats the lower row ``twin``."""
    psi = random_instance(seed)
    rng = np.random.default_rng(seed + 10_000)
    twin, copy = sorted(int(i) for i in rng.choice(psi.shape[0], size=2, replace=False))
    psi[copy] = psi[twin]
    return psi, twin, copy


class TestFramesense:
    def test_duplicate_basis_rows(self):
        sel = framesense(E_DUP, 2)
        assert sel.chosen == (1, 2)
        assert sel.eliminated == (0, 3)

    def test_mercedes_benz_with_duplicate(self):
        sel = framesense(MB_DUP, 2)
        assert sel.chosen == (1, 2)
        assert set(sel.eliminated) == {0, 3}

    def test_matches_naive_reference(self):
        for seed in range(12):
            psi = random_instance(seed)
            n, k = psi.shape
            l = int(np.random.default_rng(seed + 1000).integers(k, n - 1))
            for normalize in (True, False):
                fast = framesense(psi, l, PlacementOptions(normalize_rows=normalize))
                slow = naive_framesense(psi, l, normalize_rows=normalize)
                assert list(fast.eliminated) == slow
        # unnormalized, the scaled half dominates the first gains by scale^4;
        # once it is gone the small rows must still be ranked by their own
        # gains, not tied by a tolerance sized for the rows that left
        for scale in (1e3, 1e6):
            for seed in range(4):
                psi = generate(GeneratorSpec("stacked_scaled", 20, 3, seed=seed, scale=scale))
                for l in (3, 8, 13):
                    fast = framesense(psi, l, PlacementOptions(normalize_rows=False))
                    slow = naive_framesense(psi.entries, l, normalize_rows=False)
                    assert list(fast.eliminated) == slow, (scale, seed, l)

    def test_matches_naive_down_to_one_row(self):
        # unnormalized: single-survivor objectives stay distinct, so the
        # elimination order is fully determined all the way down
        psi = random_instance(200, n=9, k=3)
        fast = framesense(psi, 1, PlacementOptions(normalize_rows=False))
        assert list(fast.eliminated) == naive_framesense(psi, 1, normalize_rows=False)

    def test_objective_trace_reports_original_matrix(self):
        rng = np.random.default_rng(2)
        psi = rng.normal(size=(8, 3)) * rng.uniform(0.5, 3.0, size=(8, 1))
        sel = framesense(psi, 3)
        alive = list(range(8))
        for r, fp in zip(sel.eliminated, sel.objective_trace):
            alive.remove(r)
            assert fp == pytest.approx(frame_potential(psi, alive), rel=1e-9)

    def test_all_equal_rows_tie_lowest_index(self):
        psi = np.ones((5, 2))
        sel = framesense(psi, 2)
        assert sel.eliminated == (0, 1, 2)
        assert sel.chosen == (3, 4)

    def test_normalize_flag_changes_selection_when_energies_differ(self):
        # normalized: the most parallel pair goes first; unnormalized: the
        # highest-energy cross term wins instead
        psi = np.array([
            [1.0, 0.0],
            [0.999, 0.04],
            [5.0, 0.1],
            [0.0, 5.0],
            [3.0, 4.0],
        ])
        on = framesense(psi, 3, PlacementOptions(normalize_rows=True))
        off = framesense(psi, 3, PlacementOptions(normalize_rows=False))
        assert on.eliminated == (0, 2)
        assert off.eliminated == (3, 4)

    def test_exact_ties_match_integer_oracle_on_bernoulli(self):
        # +-1 rows share one norm, so every squared inner product is an
        # exact integer (times 1/k^2 when normalized) and ties are real;
        # they must break toward the lowest index despite rounding
        k = 5
        for n in (12, 40, 100, 300):
            for seed in range(10):
                psi = generate(GeneratorSpec("bernoulli", n, k, seed=seed))
                for l in sorted({k, (n + k) // 2, n - 2}):
                    want = exact_framesense(psi.entries, l)
                    for normalize in (True, False):
                        sel = framesense(psi, l, PlacementOptions(normalize_rows=normalize))
                        assert list(sel.eliminated) == want, (n, seed, l, normalize)

    def test_stacked_scaled_first_pair_is_lexicographic(self):
        # normalized, rows i and i + 20 coincide: twenty tied duplicate
        # pairs, of which (0, 20) comes first
        for seed in range(8):
            psi = generate(GeneratorSpec("stacked_scaled", 40, 5, seed=seed, scale=4.0))
            assert framesense(psi, 20).eliminated[:2] == (0, 20)

    def test_no_n_by_n_table(self):
        psi = generate(GeneratorSpec("gaussian", 4000, 30, seed=0))
        tracemalloc.start()
        try:
            framesense(psi, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 4000 x 4000 float64 table alone would take 122 MiB
        assert peak < 32 * 2**20

    def test_sensor_count_range(self):
        with pytest.raises(ValueError):
            framesense(E_DUP, 0)
        with pytest.raises(ValueError):
            framesense(E_DUP, 3)

    def test_zero_row_with_normalization_raises(self):
        psi = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            framesense(psi, 2)
        # without normalization the zero row is legal, and worthless
        sel = framesense(psi, 2, PlacementOptions(normalize_rows=False))
        assert len(sel.chosen) == 2


class TestMarginalGain:
    def test_orthogonal_unit_row(self):
        g = row_gram(np.eye(4))
        assert marginal_gain(g, (0, 1, 2, 3), 2) == 1.0

    def test_duplicated_unit_row(self):
        g = row_gram(E_DUP)
        assert marginal_gain(g, (0, 1, 2, 3), 0) == 3.0

    def test_equals_fp_difference(self):
        rng = np.random.default_rng(8)
        psi = rng.normal(size=(9, 4))
        g = row_gram(psi)
        remaining = (0, 2, 3, 5, 7, 8)
        for i in remaining:
            rest = tuple(j for j in remaining if j != i)
            diff = frame_potential(psi, remaining) - frame_potential(psi, rest)
            assert marginal_gain(g, remaining, i) == pytest.approx(diff, abs=1e-9)

    def test_requires_membership(self):
        g = row_gram(np.eye(3))
        with pytest.raises(ValueError):
            marginal_gain(g, (0, 1), 2)


class TestGreedyDet:
    def test_spans_full_rank(self):
        sel = greedy_det(E_DUP, 3)
        assert {1, 2} <= set(sel.chosen)
        assert len({0, 3} & set(sel.chosen)) == 1

    def test_identity_takes_all(self):
        sel = greedy_det(np.eye(3), 3)
        assert sorted(sel.chosen) == [0, 1, 2]

    def test_beats_random_on_average(self):
        wins = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            psi = rng.normal(size=(10, 3))
            greedy = greedy_det(psi, 5)
            rand = random_placement(psi, 5, seed=seed)
            eps = PlacementOptions().resolved_ridge(psi)

            def logdet(sel):
                block = psi[list(sel.chosen)]
                return np.linalg.slogdet(block.T @ block + eps * np.eye(3))[1]

            wins += logdet(greedy) - logdet(rand)
        assert wins / 100 > 0

    def test_real_gap_is_not_a_tie(self):
        # after row 0, row 236 raises the log determinant 5.7e-7 more than
        # row 70 (5e-9 relative): a real gap that no tie band may swallow
        psi = generate(GeneratorSpec("gaussian_row_normalized", 300, 10, seed=4))
        ridge = Fraction(PlacementOptions().resolved_ridge(psi))
        a = [[Fraction(float(v)) for v in row] for row in psi.entries]

        def det_with(i):
            return _det_and_inverse([
                [ridge * (r == c) + a[0][r] * a[0][c] + a[i][r] * a[i][c] for c in range(10)]
                for r in range(10)
            ])[0]

        assert det_with(236) > det_with(70)
        assert greedy_det(psi, 10).chosen[:2] == (0, 236)

    def test_trace_holds_log_det_gains(self):
        for seed in range(10):
            psi = generate(GeneratorSpec("gaussian", 40, 5, seed=seed)).entries
            ridge = PlacementOptions().resolved_ridge(psi)
            sel = greedy_det(psi, 20)
            gains = np.array(sel.objective_trace)
            # log det is submodular, so the greedy's gains never increase
            assert np.all(gains[1:] <= gains[:-1] * (1 + 1e-9)), seed
            block = psi[list(sel.chosen)]
            _, want = np.linalg.slogdet(block.T @ block + ridge * np.eye(5))
            assert 5 * math.log(ridge) + gains.sum() == pytest.approx(want, rel=1e-9), seed


class TestGreedyMse:
    def test_contains_the_spanning_rows(self):
        sel = greedy_mse(E_DUP, 3)
        assert {1, 2} <= set(sel.chosen)

    def test_identity_takes_all(self):
        sel = greedy_mse(np.eye(4), 4)
        assert sorted(sel.chosen) == [0, 1, 2, 3]

    def test_beats_random_on_average(self):
        diffs = []
        for seed in range(100):
            rng = np.random.default_rng(seed + 500)
            psi = rng.normal(size=(10, 3))
            greedy = greedy_mse(psi, 5)
            rand = random_placement(psi, 5, seed=seed)
            a = mse(psi, greedy.chosen, 1.0)
            b = mse(psi, rand.chosen, 1.0)
            if math.isfinite(a) and math.isfinite(b):
                diffs.append(a - b)
        assert np.mean(diffs) < 0


class TestGreedyMi:
    def test_duplicate_gain_is_minimal(self):
        # once one copy is chosen, its duplicate carries no new information
        # and is never added while other candidates remain
        psi = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.4, 0.9]])
        sel = greedy_mi(psi, 3)
        assert len({0, 1} & set(sel.chosen)) == 1
        assert sel.chosen == (0, 3, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        psi = rng.normal(size=(10, 3))
        a = greedy_mi(psi, 5)
        b = greedy_mi(psi, 5)
        assert a.chosen == b.chosen
        assert a.objective_trace == b.objective_trace

    def test_needs_unchosen_remainder(self):
        with pytest.raises(ValueError):
            greedy_mi(np.eye(3), 3)


class TestGreedyCoherence:
    def test_never_keeps_a_parallel_pair(self):
        sel = greedy_coherence(E_DUP, 3)
        assert not {0, 3} <= set(sel.chosen)

    def test_orthogonal_rows_lowest_indices(self):
        sel = greedy_coherence(np.eye(5), 3)
        assert sorted(sel.chosen) == [0, 1, 2]

    def test_beats_random_on_average(self):
        def worst_coherence(psi, chosen):
            norms = np.linalg.norm(psi, axis=1)
            coh = np.abs(psi @ psi.T) / np.outer(norms, norms)
            idx = np.array(chosen)
            sub = coh[np.ix_(idx, idx)]
            np.fill_diagonal(sub, 0.0)
            return sub.max()

        diffs = []
        for seed in range(100):
            rng = np.random.default_rng(seed + 900)
            psi = rng.normal(size=(10, 3))
            greedy = greedy_coherence(psi, 5)
            rand = random_placement(psi, 5, seed=seed)
            diffs.append(worst_coherence(psi, greedy.chosen) - worst_coherence(psi, rand.chosen))
        assert np.mean(diffs) < 0

    def test_needs_at_least_two(self):
        with pytest.raises(ValueError):
            greedy_coherence(np.eye(3), 1)


class TestBestInTies:
    @pytest.mark.parametrize("placer", [greedy_det, greedy_mse, greedy_mi, greedy_coherence])
    def test_exact_ties_go_to_the_lowest_index(self, placer):
        # a copied row ties its twin exactly in every objective, so the copy
        # may only follow it
        for seed in range(200):
            psi, twin, copy = duplicated_row_instance(seed)
            chosen = list(placer(psi, psi.shape[0] - 1).chosen)
            if copy in chosen:
                assert twin in chosen[:chosen.index(copy)], (seed, chosen)
        if placer in (greedy_det, greedy_mse):
            # the first pick's determinant and error trace depend on the
            # row norm alone, so unit-norm rows all tie
            for seed in range(10):
                psi = generate(GeneratorSpec("gaussian_row_normalized", 40, 5, seed=seed))
                assert placer(psi, 5).chosen[0] == 0, seed

    @pytest.mark.parametrize("objective", ["det", "mse"])
    def test_matches_exact_oracle_on_bernoulli(self, objective):
        # +-1 rows tie in many steps, also after the first; rational
        # arithmetic decides every comparison exactly
        placer = greedy_det if objective == "det" else greedy_mse
        for n, k, l, seeds in ((12, 3, 10, range(10)), (40, 5, 8, range(4))):
            for seed in seeds:
                psi = generate(GeneratorSpec("bernoulli", n, k, seed=seed))
                ridge = PlacementOptions().resolved_ridge(psi)
                want = exact_best_in(psi.entries, l, objective, ridge)
                assert list(placer(psi, l).chosen) == want, (n, seed)


class TestRandomPlacement:
    def test_full_selection(self):
        sel = random_placement(np.eye(4), 4)
        assert sel.chosen == (0, 1, 2, 3)
        assert sel.eliminated == ()

    def test_same_seed_same_output(self):
        psi = np.eye(9)
        assert random_placement(psi, 4, seed=5).chosen == random_placement(psi, 4, seed=5).chosen

    def test_uniform_frequencies(self):
        psi = np.eye(5)
        counts = np.zeros(5)
        draws = 100_000
        for s in range(draws):
            for i in random_placement(psi, 2, seed=s).chosen:
                counts[i] += 1
        assert np.max(np.abs(counts / draws - 0.4)) < 0.01

    def test_partition_invariant(self):
        sel = random_placement(np.eye(8), 3, seed=77)
        assert sorted(sel.chosen + sel.eliminated) == list(range(8))


class TestExhaustiveOracle:
    def test_duplicate_basis_rows_lexicographic_tie(self):
        sel, val = exhaustive_oracle(E_DUP, 2, "fp")
        assert sel.chosen == (0, 1)
        assert val == 2.0

    def test_matches_brute_force_fp(self):
        for seed in range(6):
            psi = random_instance(seed + 40, n=8, k=3)
            sel, val = exhaustive_oracle(psi, 4, "fp")
            want_sub, want_val = best_subset(psi, 4, lambda s: frame_potential(psi, s))
            assert sel.chosen == want_sub
            assert val == pytest.approx(want_val, rel=1e-12)

    def test_matches_brute_force_mse(self):
        psi = random_instance(77, n=7, k=3)
        sel, val = exhaustive_oracle(psi, 4, "mse")
        want_sub, want_val = best_subset(psi, 4, lambda s: mse(psi, s, 1.0))
        assert sel.chosen == want_sub
        assert val == pytest.approx(want_val, rel=1e-9)

    def test_enumeration_guard(self):
        assert ORACLE_SUBSET_LIMIT == 10_000_000
        with pytest.raises(ValueError, match="guard"):
            exhaustive_oracle(np.ones((40, 2)), 20, "fp")

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            exhaustive_oracle(np.eye(3), 2, "volume")


class TestSelectionRecord:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            Selection((0, 1), (1, 2), ())
        with pytest.raises(ValueError):
            Selection((0, 0), (1,), ())
        with pytest.raises(ValueError):
            Selection((0,), (2,), ())

    def test_valid_record(self):
        sel = Selection((2, 0), (1,), (5.0,))
        assert sorted(sel.chosen + sel.eliminated) == [0, 1, 2]


class TestOptionsAndDispatch:
    def test_algorithm_names(self):
        assert ALGORITHMS == ("framesense", "det", "mse", "mi", "coherence", "random")

    def test_options_validation(self):
        with pytest.raises(ValueError):
            PlacementOptions(algorithm="newton")
        with pytest.raises(ValueError):
            PlacementOptions(seed=-3)
        with pytest.raises(ValueError):
            PlacementOptions(sigma2=0.0)
        with pytest.raises(ValueError):
            PlacementOptions(ridge=-1e-9)

    def test_default_ridge_tracks_row_energy(self):
        opts = PlacementOptions()
        psi = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert opts.resolved_ridge(psi) == pytest.approx(1e-6 * 2.5)
        assert PlacementOptions(ridge=0.5).resolved_ridge(psi) == 0.5

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_run_placement_dispatch(self, algo):
        psi = random_instance(123, n=9, k=3)
        sel = run_placement(psi, 4, PlacementOptions(algorithm=algo))
        assert len(sel.chosen) == 4
        assert sorted(sel.chosen + sel.eliminated) == list(range(9))
