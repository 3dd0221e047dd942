"""Placement algorithms: the frame-potential greedy, baselines, oracles."""

import inspect
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from framesense import (
    ALGORITHMS,
    FAMILIES,
    ORACLE_SUBSET_LIMIT,
    ExperimentConfig,
    GeneratorSpec,
    PlacementOptions,
    Selection,
    as_sensing_matrix,
    compute_bounds_report,
    delta_bound,
    exhaustive_oracle,
    frame_potential,
    framesense,
    generate,
    greedy_coherence,
    greedy_det,
    greedy_mi,
    greedy_mse,
    mse,
    mse_envelope,
    oracle_audit,
    random_placement,
    row_normalize,
    run_placement,
)
from framesense import placement
from framesense.linalg import ConvergenceError
from framesense.placement import _PAIR_BLOCK_ENTRIES, _PLACERS, _ridge

from _oracles import (
    _det_and_inverse,
    best_subset,
    exact_best_in,
    exact_framesense,
    exact_mi,
    frame_potential_oracle,
    marginal_gain,
    naive_coherence,
    naive_framesense,
    naive_mi,
    row_gram,
)


def default_ridge(psi):
    """The ridge the det, mse and mi greedies use on ``psi``."""
    e = as_sensing_matrix(psi).entries
    return _ridge(np.einsum("ij,ij->i", e, e))


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


def family_scale(family):
    """The duplicate-block factor ``stacked_scaled`` needs, None for the rest."""
    return 4.0 if family == "stacked_scaled" else None


def duplicated_row_instance(seed):
    """Random instance whose row ``copy`` repeats the lower row ``twin``."""
    psi = random_instance(seed)
    rng = np.random.default_rng(seed + 10_000)
    twin, copy = sorted(int(i) for i in rng.choice(psi.shape[0], size=2, replace=False))
    psi[copy] = psi[twin]
    return psi, twin, copy


class TestFramesense:
    def test_overflowing_frame_potential_raises_value_error(self):
        # unnormalized scores at 1e100 overflow to inf and NaN and would
        # eliminate a row twice; rows normalized first are unaffected
        psi = random_instance(47, n=8, k=3)
        for scale in (1e100, 1e160):
            with pytest.raises(ValueError, match="frame potential of the rows overflows"):
                framesense(psi * scale, 4, PlacementOptions(normalize_rows=False))
        assert framesense(psi * 1e100, 4).chosen == framesense(psi, 4).chosen

    def test_overflowing_row_norm_raises_value_error(self):
        # squared entries past float64 would normalize the rows to zero
        psi = random_instance(47, n=8, k=3)
        psi[1:] *= 1e160
        with pytest.raises(ValueError, match="row 1 has norm inf, too large to normalize"):
            framesense(psi, 4)

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

    def test_objective_trace_holds_elimination_gains(self):
        # each entry is the frame-potential drop of its elimination, the
        # first pair included, on the matrix the selection ran on
        for seed in range(6):
            rng = np.random.default_rng(seed)
            psi = rng.normal(size=(12, 3)) * rng.uniform(0.5, 3.0, size=(12, 1))
            for l, normalize in ((3, True), (1, True), (3, False), (1, False)):
                sel = framesense(psi, l, PlacementOptions(normalize_rows=normalize))
                w = row_normalize(psi) if normalize else psi
                assert len(sel.objective_trace) == len(sel.eliminated) == 12 - l
                alive = list(range(12))
                for r, gain in zip(sel.eliminated, sel.objective_trace):
                    before = frame_potential(w, alive)
                    alive.remove(r)
                    drop = before - frame_potential(w, alive)
                    assert gain == pytest.approx(drop, rel=1e-9), (seed, l, normalize, r)
            # unnormalized, the gains add up to the drop the naive reference reaches
            sel = framesense(psi, 3, PlacementOptions(normalize_rows=False))
            gone = naive_framesense(psi, 3, normalize_rows=False)
            kept = [i for i in range(12) if i not in gone]
            want = frame_potential_oracle(psi, range(12)) - frame_potential_oracle(psi, kept)
            assert sum(sel.objective_trace) == pytest.approx(want, rel=1e-9), seed

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

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_pair_search_holds_one_small_block(self, n):
        psi = generate(GeneratorSpec("gaussian", n, 30, seed=0))
        tracemalloc.start()
        try:
            framesense(psi, n // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few (N, K) arrays and one reused 1 MiB block of the pair search
        assert peak < 5 * psi.entries.nbytes + 2**20

    @pytest.mark.parametrize("n, seed", [(600, 0), (1000, 1)])
    def test_first_pair_over_several_blocks_matches_naive(self, n, seed):
        # the search scans _PAIR_BLOCK_ENTRIES // N rows per block
        assert _PAIR_BLOCK_ENTRIES // n < (n - 1) // 2
        psi = generate(GeneratorSpec("gaussian", n, 10, seed=seed))
        for normalize in (True, False):
            fast = framesense(psi, n - 2, PlacementOptions(normalize_rows=normalize))
            assert list(fast.eliminated) == naive_framesense(psi.entries, n - 2, normalize)

    def test_duplicate_pair_straddling_a_block_boundary(self):
        n = 1000
        step = _PAIR_BLOCK_ENTRIES // n
        assert 3 * step < n
        base = generate(GeneratorSpec("gaussian", n, 10, seed=2)).entries
        # a duplicate pair whose lower row ends the first block, then one
        # whose lower row opens the second; a tied duplicate pair further
        # on must not win over either
        for twin in (step - 1, step):
            psi = base.copy()
            psi[twin + 1] = psi[twin]
            psi[n - 1] = psi[2 * step + 5]
            assert framesense(psi, n - 2).eliminated == (twin, twin + 1)

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
            eps = default_ridge(psi)

            def logdet(sel):
                block = psi[list(sel.chosen)]
                return np.linalg.slogdet(block.T @ block + eps * np.eye(3))[1]

            wins += logdet(greedy) - logdet(rand)
        assert wins / 100 > 0

    def test_real_gap_is_not_a_tie(self):
        # after row 0, row 236 raises the log determinant 5.7e-7 more than
        # row 70 (5e-9 relative): a real gap that no tie band may swallow
        psi = generate(GeneratorSpec("gaussian_row_normalized", 300, 10, seed=4))
        ridge = Fraction(default_ridge(psi))
        a = [[Fraction(float(v)) for v in row] for row in psi.entries]

        def det_with(i):
            return _det_and_inverse([
                [ridge * (r == c) + a[0][r] * a[0][c] + a[i][r] * a[i][c] for c in range(10)]
                for r in range(10)
            ])[0]

        assert det_with(236) > det_with(70)
        assert greedy_det(psi, 10).chosen[:2] == (0, 236)
        # after 463 picks of +-1 rows, row 934 raises it 4e-13 more than row
        # 556 (2e-11 relative), past the span, where a tie band sized by the
        # spanning eigenbasis, not the current one, swallowed the gap
        psi = generate(GeneratorSpec("bernoulli", 1000, 10, seed=0))
        chosen = greedy_det(psi, 464).chosen
        a = psi.entries.astype(int)
        g = a[list(chosen[:463])].T @ a[list(chosen[:463])]
        ridge = Fraction(default_ridge(psi))

        def det_with(i):
            return _det_and_inverse([
                [ridge * (r == c) + int(g[r, c]) + int(a[i, r] * a[i, c]) for c in range(10)]
                for r in range(10)
            ])[0]

        assert det_with(934) > det_with(556)
        assert chosen[463] == 934

    def test_trace_holds_log_det_gains(self):
        for seed in range(10):
            psi = generate(GeneratorSpec("gaussian", 40, 5, seed=seed)).entries
            ridge = default_ridge(psi)
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

    def test_trace_holds_error_traces(self):
        # each entry is the trace of the ridged inverse Gram matrix after its
        # pick, past the span too, where rank-one steps keep it
        for family in ("gaussian", "stacked_scaled"):
            psi = generate(GeneratorSpec(family, 40, 5, seed=1, scale=family_scale(family))).entries
            ridge = default_ridge(psi)
            sel = greedy_mse(psi, 30)
            for size, value in enumerate(sel.objective_trace, start=1):
                block = psi[list(sel.chosen[:size])]
                want = np.trace(np.linalg.inv(block.T @ block + ridge * np.eye(5)))
                assert value == pytest.approx(want, rel=1e-9), (family, size)

    @pytest.mark.parametrize("gap", [
        5e-6,
        # before the picks span K directions the tie band scales with the
        # error trace, about K / ridge, so squared norms within about
        # K x 1e-6 relative read as tied and the first pick goes to row 0
        pytest.param(2e-6, marks=pytest.mark.xfail(
            strict=True, reason="mse's first pick ties squared norms within about K x 1e-6")),
    ])
    def test_first_pick_tells_near_equal_norms_apart(self, gap):
        # e1, a copy of it whose squared norm is longer by gap, then e2 and e3
        psi = np.array([[1.0, 0.0, 0.0], [math.sqrt(1.0 + gap), 0.0, 0.0],
                        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        want = tuple(exact_best_in(psi, 3, "mse", default_ridge(psi)))
        assert want == (1, 2, 3)
        assert (greedy_det(psi, 3).chosen, greedy_mse(psi, 3).chosen) == (want, want)


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

    def test_overflowing_gram_matrices_raise_conditioning_error(self):
        # the ridge overflow is the ValueError that det and mse raise too
        psi = random_instance(47, n=8, k=3)
        with pytest.raises(ValueError, match=r"^ridge 1e-6 \* mean squared row norm overflows "
                                             r"float64; rescale the matrix$"):
            greedy_mi(psi * 1e160, 4)

    def test_conditional_variance_past_range_raises_value_error(self, monkeypatch):
        # rounding on rows far larger than sigma2 can bring a free row's q
        # to 1, where its variance given the other free rows is infinite
        k = 3
        psi = random_instance(5, n=8, k=k)
        least = float(np.einsum("ij,ij->i", psi, psi).min())

        def saturated(g, shift):
            # every row's q = |x|^2 / least is 1 or more
            return np.full(k, 1.0 / least), np.eye(k), True

        monkeypatch.setattr(placement, "_eigen_basis", saturated)
        with pytest.raises(ValueError, match="^conditional variance at location 0 is not "
                                             "positive and finite$"):
            greedy_mi(psi, 4)

    def test_matches_naive_covariance_reference(self):
        for family in FAMILIES:
            for n, k in ((12, 3), (40, 5), (100, 30)):
                for seed in (0, 1):
                    psi = generate(GeneratorSpec(family, n, k, seed=seed, scale=family_scale(family)))
                    ls = (k, (n + k) // 2, n - 2)
                    want = naive_mi(psi.entries, ls[-1], 1.0, default_ridge(psi))
                    for l in ls:
                        assert list(greedy_mi(psi, l).chosen) == want[:l], (family, n, seed, l)

    def test_no_n_by_n_covariance(self):
        psi = generate(GeneratorSpec("gaussian", 2000, 10, seed=0))
        tracemalloc.start()
        try:
            greedy_mi(psi, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2000 x 2000 float64 covariance alone would take 30.5 MiB
        assert peak < 8 * 2**20


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

    def test_row_normalize_rule(self):
        # scaling row 2 keeps its direction, but its norm overflows float64;
        # read as coherence 0, it would be picked second
        psi = generate(GeneratorSpec("gaussian", 8, 3, seed=0)).entries.copy()
        assert greedy_coherence(psi, 4).chosen == (0, 1, 4, 3)
        psi[2] *= 1e200
        with pytest.raises(ValueError, match="^row 2 has norm inf, too large to normalize$"):
            greedy_coherence(psi, 4)
        psi[2] = 0.0
        with pytest.raises(ValueError, match="^row 2 has norm 0.000e[+]00, too small to normalize$"):
            greedy_coherence(psi, 4)

    def test_matches_naive_reference(self):
        # at 1000 x 10 the start row comes from one of several scan blocks
        assert _PAIR_BLOCK_ENTRIES // 1000 < 999 // 2
        for family in FAMILIES:
            for n, k, top in ((12, 3, 12), (40, 5, 40), (100, 30, 100), (1000, 10, 60)):
                for seed in (0, 1):
                    psi = generate(GeneratorSpec(family, n, k, seed=seed, scale=family_scale(family)))
                    want, want_trace = naive_coherence(psi.entries, top)
                    for l in (2, top // 2, top):
                        sel = greedy_coherence(psi, l)
                        assert list(sel.chosen) == want[:l], (family, n, seed, l)
                        gap = np.abs(np.subtract(sel.objective_trace, want_trace[: l - 1]))
                        assert gap.max(initial=0.0) <= 1e-15, (family, n, seed, l)

    def test_least_coherent_pair_straddling_a_block_boundary(self):
        n = 1000
        step = _PAIR_BLOCK_ENTRIES // n
        assert 3 * step < n
        base = generate(GeneratorSpec("gaussian", n, 10, seed=2)).entries

        def orthogonalize(psi, low, high):
            psi[high] -= (psi[high] @ psi[low]) / (psi[low] @ psi[low]) * psi[low]

        # an orthogonal pair whose lower row ends the first block, then one
        # whose lower row opens the second; a tied orthogonal pair further
        # on must not win over either
        for twin in (step - 1, step):
            psi = base.copy()
            orthogonalize(psi, twin, twin + 1)
            orthogonalize(psi, 2 * step + 5, n - 1)
            assert greedy_coherence(psi, 2).chosen == (twin, twin + 1)

    def test_no_n_by_n_table(self):
        psi = generate(GeneratorSpec("gaussian", 2000, 30, seed=0))
        tracemalloc.start()
        try:
            greedy_coherence(psi, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2000 x 2000 float64 coherence table alone would take 30.5 MiB
        assert peak < 8 * 2**20


@pytest.mark.parametrize("placer", [greedy_det, greedy_mse, greedy_coherence])
def test_options_free_placers_take_no_options(placer):
    # their objectives read no PlacementOptions field, so they take none
    assert list(inspect.signature(placer).parameters) == ["psi", "num_sensors"]


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
    def test_matches_exact_oracle_on_bernoulli(self, objective, monkeypatch):
        # +-1 rows tie in many steps, also after the first; rational
        # arithmetic decides every comparison exactly. Once the picks span
        # K directions the steps are rank-one updates; at L = N - 2 most
        # steps are, under exact ties (bernoulli, duplicate rows) and
        # uneven norms (gaussian, stacked_scaled), and on nearly
        # rank-deficient matrices. A matrix of rank below K never spans, so
        # every one of its steps takes an eigenbasis.
        placer = greedy_det if objective == "det" else greedy_mse
        eigen_steps = []
        basis = placement._eigen_basis

        def counted(g, shift):
            eigen_steps.append(g.shape)
            return basis(g, shift)

        monkeypatch.setattr(placement, "_eigen_basis", counted)
        cases = [(generate(GeneratorSpec("bernoulli", n, k, seed=seed)).entries, l, 0)
                 for n, k, l, seeds in ((12, 3, 10, range(10)), (40, 5, 8, range(4)))
                 for seed in seeds]
        # (entries, L, least number of rank-one steps)
        for family in ("bernoulli", "gaussian", "stacked_scaled"):
            for seed in range(2):
                for n, k in ((14, 3), (10, 2)):
                    spec = GeneratorSpec(family, n, k, seed=seed, scale=family_scale(family))
                    cases.append((generate(spec).entries, n - 2, 5))
        for seed in (2, 3, 18, 20, 29):
            psi, _, _ = duplicated_row_instance(seed)
            cases.append((psi, psi.shape[0] - 2, 5))
        # a column that nearly copies another: the Gram matrix passes the
        # rank rule (smallest over largest eigenvalue 1.9e-9 and 1.7e-10,
        # against 1e-10), so M^-1 is near as ill-conditioned as a spanning
        # step allows
        for noise in (1e-4, 3e-5):
            near = generate(GeneratorSpec("bernoulli", 14, 3, seed=0)).entries.copy()
            near[:, 2] = near[:, 0] + noise * np.random.default_rng(0).standard_normal(14)
            cases.append((near, 12, 5))
        low_rank = generate(GeneratorSpec("bernoulli", 12, 3, seed=0)).entries.copy()
        low_rank[:, 2] = low_rank[:, 0]
        cases.append((low_rank, 10, None))
        for psi, l, rank_one in cases:
            eigen_steps.clear()
            want = exact_best_in(psi, l, objective, default_ridge(psi))
            assert list(placer(psi, l).chosen) == want, psi.shape
            if rank_one is None:
                assert len(eigen_steps) == l
            else:
                assert l - len(eigen_steps) >= rank_one, psi.shape

    def test_mi_matches_exact_oracle_on_bernoulli(self):
        for seed in range(10):
            psi = generate(GeneratorSpec("bernoulli", 12, 3, seed=seed))
            want = exact_mi(psi.entries, 8, 1.0, default_ridge(psi))
            # each pick depends only on the earlier ones, so L = 4 is a prefix
            for l in (4, 8):
                assert list(greedy_mi(psi, l).chosen) == want[:l], (seed, l)


class TestPrefixProperty:
    # each step depends only on the steps before it, never on the target
    # count, so a run at one sensor count is a prefix of the run at another
    CASES = [
        (family, n, k, seed)
        for family in ("gaussian", "bernoulli", "dct_frame", "stacked_scaled")
        for n, k in ((12, 3), (40, 5))
        for seed in (0, 1)
    ]

    @pytest.mark.parametrize("placer", [greedy_det, greedy_mse, greedy_mi, greedy_coherence])
    def test_best_in_picks_lead_the_run_at_the_largest_count(self, placer):
        for family, n, k, seed in self.CASES:
            psi = generate(GeneratorSpec(family, n, k, seed=seed, scale=family_scale(family)))
            full = placer(psi, n - 2)
            for l in (k, (n + k) // 2, n - 3):
                sel = placer(psi, l)
                assert sel.chosen == full.chosen[:l], (family, n, seed, l)
                assert sel.objective_trace == full.objective_trace[: len(sel.objective_trace)]

    @pytest.mark.parametrize("normalize_rows", [True, False])
    def test_framesense_eliminations_lead_the_run_at_the_smallest_count(self, normalize_rows):
        opts = PlacementOptions(normalize_rows=normalize_rows)
        for family, n, k, seed in self.CASES:
            psi = generate(GeneratorSpec(family, n, k, seed=seed, scale=family_scale(family)))
            full = framesense(psi, 1, opts)
            for l in (k, (n + k) // 2, n - 2):
                sel = framesense(psi, l, opts)
                assert sel.eliminated == full.eliminated[: n - l], (family, n, seed, l)
                assert sel.objective_trace == full.objective_trace[: n - l]


class TestScale:
    @pytest.mark.parametrize("p", [400, -400, -600])
    def test_power_of_two_scale_keeps_picks_and_traces(self, p):
        # at 2**400 the error trace's inv**2 underflowed to 0 and at 2**-400
        # it overflowed, so greedy_mse picked the lowest indices instead; at
        # 2**-600 the ridge of the rows as given underflows to 0
        c = math.ldexp(1.0, p)
        for family, seed in (("gaussian", 3), ("stacked_scaled", 0), ("bernoulli", 1)):
            psi = generate(GeneratorSpec(family, 40, 5, seed=seed, scale=family_scale(family))).entries
            # the mse trace scales as the inverse Gram matrix; mi compares
            # variances with sigma2, which scales with the squared rows
            for algo, sigma2, degree in (("det", 1.0, 0), ("mse", 1.0, -2), ("mi", c * c, 0)):
                if sigma2 == 0.0:
                    continue  # c * c underflows, so no sigma2 follows the rows
                base = run_placement(psi, 20, PlacementOptions(algorithm=algo))
                sel = run_placement(psi * c, 20, PlacementOptions(algorithm=algo, sigma2=sigma2))
                assert sel.chosen == base.chosen, (family, algo)
                # a trace past float64 in the rows' own scale reads inf
                with np.errstate(over="ignore"):
                    want = np.ldexp(base.objective_trace, degree * p).tolist()
                if algo == "mi":
                    # mi scores on the rows as given, where LAPACK rescales
                    assert sel.objective_trace == pytest.approx(want, rel=1e-12), (family, algo)
                else:
                    assert list(sel.objective_trace) == want, (family, algo)

    @pytest.mark.parametrize("algo", ["det", "mse"])
    def test_all_zero_matrix_raises(self, algo):
        with pytest.raises(ValueError, match=f"{algo} needs a matrix with a nonzero entry"):
            run_placement(np.zeros((8, 3)), 4, PlacementOptions(algorithm=algo))

    def test_mse_greedy_on_huge_rows_picks_by_error(self):
        psi = np.random.default_rng(0).normal(size=(8, 3))
        assert greedy_mse(psi * 1e150, 4).chosen == greedy_mse(psi, 4).chosen == (4, 2, 7, 6)


class TestSingleColumn:
    """K = 1: every row is a multiple of one vector, and unit-norm rows all tie."""

    @pytest.mark.parametrize("l", [2, 5, 8])
    def test_placers_match_references(self, l):
        for seed in range(3):
            psi = generate(GeneratorSpec("gaussian", 10, 1, seed=seed))
            e = psi.entries
            for normalize in (True, False):
                fast = framesense(psi, l, PlacementOptions(normalize_rows=normalize))
                assert list(fast.eliminated) == naive_framesense(e, l, normalize), (seed, normalize)
            ridge = default_ridge(psi)
            assert list(greedy_det(psi, l).chosen) == exact_best_in(e, l, "det", ridge), seed
            assert list(greedy_mse(psi, l).chosen) == exact_best_in(e, l, "mse", ridge), seed
            assert list(greedy_mi(psi, l).chosen) == naive_mi(e, l, 1.0, ridge), seed
            assert list(greedy_coherence(psi, l).chosen) == naive_coherence(e, l)[0], seed
            rand = random_placement(psi, l, seed=seed)
            assert len(rand.chosen) == l and sorted(rand.chosen + rand.eliminated) == list(range(10))


class TestLapackFailure:
    """A LAPACK eigen failure reaches every caller as ConvergenceError."""

    @pytest.fixture(autouse=True)
    def failing_eigen(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)

    @pytest.mark.parametrize("placer", [greedy_det, greedy_mse])
    def test_det_and_mse_raise_convergence_error(self, placer):
        with pytest.raises(ConvergenceError, match="did not converge"):
            placer(random_instance(5, n=8, k=3), 4)

    def test_mi_raises_conditioning_error(self):
        # mi raises the same ConvergenceError as det and mse
        with pytest.raises(ConvergenceError, match="did not converge"):
            greedy_mi(random_instance(5, n=8, k=3), 4)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda psi: mse(psi, (0, 1, 2, 3)), id="mse"),
        pytest.param(lambda psi: mse_envelope(psi, (0, 1, 2, 3), 1.0, 2.0), id="mse_envelope"),
        pytest.param(lambda psi: compute_bounds_report(psi, 4, (0, 1, 2, 3)),
                     id="compute_bounds_report"),
        pytest.param(lambda psi: delta_bound(psi, 4), id="delta_bound"),
        pytest.param(lambda psi: exhaustive_oracle(psi, 4, "mse"), id="exhaustive_oracle"),
        pytest.param(lambda psi: oracle_audit(ExperimentConfig(
            family="gaussian", n=8, k=3, l_values=(4,), trials=1, master_seed=0)),
            id="oracle_audit"),
    ])
    def test_evaluation_and_certificates_raise_convergence_error(self, call):
        with pytest.raises(ConvergenceError, match="did not converge"):
            call(random_instance(5, n=8, k=3))


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

    @pytest.mark.parametrize("n,l,seed,chosen", [
        (10, 1, 0, (3,)),
        (9, 8, 14, (0, 1, 2, 3, 4, 6, 7, 8)),
        (12, 5, 7, (1, 2, 3, 8, 9)),
        (40, 17, 2**63 + 5, (0, 2, 6, 7, 9, 16, 19, 23, 24, 26, 28, 29, 30, 31, 35, 37, 39)),
        (6, 6, 3, (0, 1, 2, 3, 4, 5)),
    ])
    def test_pinned_draws(self, n, l, seed, chosen):
        # recorded from one draw per swap; drawing the swap targets in
        # another order or from another stream changes these rows
        sel = random_placement(np.ones((n, 2)), l, seed=seed)
        assert sel.chosen == chosen
        assert sel.eliminated == tuple(sorted(set(range(n)) - set(chosen)))


class TestExhaustiveOracle:
    def test_duplicate_basis_rows_lexicographic_tie(self):
        sel, val = exhaustive_oracle(E_DUP, 2, "fp")
        assert sel.chosen == (0, 1)
        assert val == 2.0

    def test_matches_brute_force_fp(self):
        # the walk sums FP by frame_potential's rule, so its optimum and the
        # optimum's value are those of a brute force over frame_potential
        cases = [(random_instance(seed + 40, n=8, k=3), 4) for seed in range(6)]
        cases += [(generate(GeneratorSpec("gaussian", 12, 3, seed=seed)).entries, size)
                  for seed in range(50) for size in (3, 4, 6, 9)]
        for psi, size in cases:
            sel, val = exhaustive_oracle(psi, size, "fp")
            want_sub, want_val = best_subset(psi, size, lambda s: frame_potential(psi, s))
            assert sel.chosen == want_sub
            assert val == want_val == frame_potential(psi, sel.chosen)

    def test_fp_walk_forms_no_n_by_n_array(self):
        # an N x N table of 2000 rows would take 30.5 MiB, and its square as much
        psi = generate(GeneratorSpec("gaussian", 2000, 3, seed=1))
        tracemalloc.start()
        try:
            exhaustive_oracle(psi, 1, "fp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_matches_brute_force_mse(self):
        psi = random_instance(77, n=7, k=3)
        sel, val = exhaustive_oracle(psi, 4, "mse")
        want_sub, want_val = best_subset(psi, 4, lambda s: mse(psi, s, 1.0))
        assert sel.chosen == want_sub
        assert val == pytest.approx(want_val, rel=1e-9)

    def test_exact_mse_ties_go_to_first_subset(self):
        # integer entries make the Grams of subsets that swap a row for its
        # duplicate identical, so their MSEs tie exactly
        rng = np.random.default_rng(41)
        ties = 0
        for _ in range(6):
            psi = rng.integers(-3, 4, size=(6, 3)).astype(float)
            psi = np.vstack([psi, psi[[4, 1]]])
            for size in (3, 4, 5):
                sel, val = exhaustive_oracle(psi, size, "mse")
                want_sub, want_val = best_subset(psi, size, lambda s: mse(psi, s, 1.0))
                assert (sel.chosen, val) == (want_sub, want_val)
                tied = [s for s in combinations(range(8), size) if mse(psi, s, 1.0) == val]
                assert sel.chosen == tied[0]
                if math.isfinite(val):
                    ties += len(tied) > 1
        assert ties >= 6

    def test_enumeration_guard(self):
        assert ORACLE_SUBSET_LIMIT == 10_000_000
        with pytest.raises(ValueError, match="guard"):
            exhaustive_oracle(np.ones((40, 2)), 20, "fp")

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            exhaustive_oracle(np.eye(3), 2, "volume")

    def test_overflow_raises_instead_of_infinite_optimum(self):
        # the squared-inner-product table overflows at 1e100, subset Gram
        # matrices at 1e160
        psi = random_instance(46, n=8, k=3)
        with pytest.raises(ValueError, match="overflow"):
            exhaustive_oracle(psi * 1e100, 4, "fp")
        _, val = exhaustive_oracle(psi * 1e100, 4, "mse")
        assert 0.0 < val < math.inf
        for objective in ("fp", "mse"):
            with pytest.raises(ValueError, match="overflow"):
                exhaustive_oracle(psi * 1e160, 4, objective)


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

    def test_default_ridge_tracks_row_energy(self):
        psi = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert default_ridge(psi) == pytest.approx(1e-6 * 2.5)
        assert default_ridge(psi * 2.0**100) == default_ridge(psi) * 2.0**200
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows float64"):
            default_ridge(psi * 1e160)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_each_placer_accepts_exactly_its_sensor_range(self, algo):
        psi = random_instance(124, n=9, k=3)
        low, high = _PLACERS[algo].sensors(9, 3)
        opts = PlacementOptions(algorithm=algo)
        for l in (low, high):
            assert len(run_placement(psi, l, opts).chosen) == l
        for l in (low - 1, high + 1):
            want = rf"^{algo} needs a sensor count in \[{low}, {high}\] for a 9 x 3 matrix, got {l}$"
            with pytest.raises(ValueError, match=want):
                run_placement(psi, l, opts)

    def test_empty_sensor_range_says_none_is_accepted(self):
        # framesense eliminates a pair first, so a 2-row matrix has no count
        want = r"^framesense needs a sensor count but accepts none for a 2 x 2 matrix, got 1$"
        with pytest.raises(ValueError, match=want):
            framesense(np.eye(2), 1)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_run_placement_dispatch(self, algo):
        psi = random_instance(123, n=9, k=3)
        sel = run_placement(psi, 4, PlacementOptions(algorithm=algo))
        assert len(sel.chosen) == 4
        assert sorted(sel.chosen + sel.eliminated) == list(range(9))
