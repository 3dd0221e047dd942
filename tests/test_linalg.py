"""Dense-numerics layer: Gram matrices, eigenvalues, FP, MSE."""

import math

import numpy as np
import pytest

from framesense import (
    ConvergenceError,
    GramMatrix,
    NoiseModel,
    RANK_RTOL,
    SensingMatrix,
    Spectrum,
    UNBOUNDED,
    as_sensing_matrix,
    coherence,
    frame_potential,
    gram,
    least_squares,
    mse,
    row_normalize,
    sym_eigenvalues,
)

from _oracles import eig_oracle, frame_potential_oracle, gram_oracle, mse_oracle

MB = np.array([[0.0, 1.0],
               [-math.sqrt(3) / 2, -0.5],
               [math.sqrt(3) / 2, -0.5]])

# Seeded 6x3 instance with frozen oracle values, see _oracles.py.
PSI6 = np.array([
    (0.0012301533574825742, 0.2987455375084699, -0.2741378553622176),
    (-0.8905918387572742, -0.45467078517172255, -0.9916465549964624),
    (0.060143602597438485, 1.3402152455545335, -0.49220651855132963),
    (-0.6204748998199404, 0.4898420501851982, 0.35688700816006075),
    (0.10541424899789856, -0.9304680447082047, -0.02925182246327349),
    (0.6953031944582878, -1.344214547285082, -0.45761576104021817),
])
SEL6 = (0, 2, 4, 5)

# Symmetric 4x4 whose eigenvalues were computed independently by bisection
# on the characteristic polynomial (tests/_oracles.py, tol 1e-12).
SYM4 = np.array([
    [0.9679650554762125, -0.742337949657692, -1.148987249081232, -0.09984830867558347],
    [-0.742337949657692, -2.955569056311048, -0.01675742822608295, 1.7131880166679072],
    [-1.148987249081232, -0.01675742822608295, 0.2989360524889626, 0.46730709316230795],
    [-0.09984830867558347, 1.7131880166679072, 0.46730709316230795, -2.468595207958648],
])
SYM4_EIGS = (1.9817215240378143, -0.482019999203405, -1.1306549743265697, -4.526309706814142)


class TestSensingMatrix:
    def test_basic_properties(self):
        m = SensingMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert m.n == 3
        assert m.k == 2
        assert m.shape == (3, 2)
        assert np.allclose(m.row(1), [3.0, 4.0])
        assert np.allclose(m.row_norms, [math.sqrt(5), 5.0, math.sqrt(61)])

    def test_entries_are_immutable(self):
        m = SensingMatrix([[1.0, 2.0]])
        with pytest.raises((ValueError, RuntimeError)):
            m.entries[0, 0] = 9.0

    def test_input_copy_is_defensive(self):
        src = np.ones((2, 2))
        m = SensingMatrix(src)
        src[0, 0] = 5.0
        assert m.entries[0, 0] == 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SensingMatrix([1.0, 2.0])
        with pytest.raises(ValueError):
            SensingMatrix(np.ones((0, 3)))
        with pytest.raises(ValueError):
            SensingMatrix(np.ones((2, 2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SensingMatrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            SensingMatrix([[np.inf, 1.0]])

    def test_row_out_of_range(self):
        m = SensingMatrix([[1.0, 2.0]])
        with pytest.raises(IndexError):
            m.row(1)

    def test_as_sensing_matrix_passthrough(self):
        m = SensingMatrix([[1.0, 2.0]])
        assert as_sensing_matrix(m) is m
        m2 = as_sensing_matrix([[1.0, 2.0]])
        assert isinstance(m2, SensingMatrix)


class TestGramMatrix:
    def test_mirrors_upper_triangle_bitwise(self):
        # tiny asymmetry below the guard must be repaired exactly
        a = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        g = GramMatrix(a)
        assert g.entries[0, 1] == g.entries[1, 0]
        assert g.entries[0, 1] == 1.0

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError):
            GramMatrix([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GramMatrix(np.ones((2, 3)))

    def test_trace(self):
        assert GramMatrix([[2.0, 1.0], [1.0, 3.0]]).trace == 5.0


def test_gram_small_example():
    psi = [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    g = gram(psi, (0, 1, 2))
    assert np.allclose(g.entries, [[2.0, 1.0], [1.0, 2.0]])


def test_gram_matches_triple_loop_oracle():
    expected = gram_oracle(PSI6, SEL6)
    got = gram(PSI6, SEL6).entries
    assert np.max(np.abs(got - expected)) < 1e-12


def test_gram_selection_errors():
    psi = np.eye(3)
    with pytest.raises(IndexError):
        gram(psi, (0, 3))
    with pytest.raises(IndexError):
        gram(psi, (-1,))
    with pytest.raises(ValueError):
        gram(psi, (0, 0))
    with pytest.raises(ValueError):
        gram(psi, ())


class TestEigenvalues:
    def test_two_by_two_analytic(self):
        spec = sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(spec.eigenvalues, [3.0, 1.0])

    def test_scaled_identity(self):
        spec = sym_eigenvalues(7.5 * np.eye(5))
        assert np.allclose(spec.eigenvalues, 7.5)

    def test_frozen_bisection_values(self):
        spec = sym_eigenvalues(SYM4)
        assert np.max(np.abs(spec.eigenvalues - np.array(SYM4_EIGS))) < 1e-8

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            t = a + a.T
            got = sym_eigenvalues(t).eigenvalues
            want = eig_oracle(t)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_accuracy_against_lapack(self):
        rng = np.random.default_rng(11)
        for k in (2, 5, 10, 25):
            a = rng.normal(size=(k, k))
            t = a @ a.T
            got = sym_eigenvalues(t).eigenvalues
            want = np.sort(np.linalg.eigvalsh(t))[::-1]
            assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + abs(want[0]))

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        lam = sym_eigenvalues(a + a.T).eigenvalues
        assert np.all(np.diff(lam) <= 0)

    def test_one_by_one(self):
        assert sym_eigenvalues([[4.0]]).eigenvalues[0] == 4.0

    def test_zero_matrix(self):
        assert np.all(sym_eigenvalues(np.zeros((3, 3))).eigenvalues == 0.0)

    def test_convergence_error_is_runtime_error(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError):
            sym_eigenvalues(np.eye(2))


class TestSpectrum:
    def test_summary_stats(self):
        spec = Spectrum.from_eigenvalues([1.0, 4.0, 4.0])
        assert spec.largest == 4.0
        assert spec.smallest == 1.0
        assert spec.arithmetic_mean == 3.0
        assert spec.harmonic_mean == pytest.approx(3.0 / 1.5)
        assert spec.std_dev == pytest.approx(math.sqrt(2.0))

    def test_harmonic_mean_nan_when_nonpositive(self):
        assert math.isnan(Spectrum.from_eigenvalues([2.0, 0.0]).harmonic_mean)
        assert math.isnan(Spectrum.from_eigenvalues([2.0, -1.0]).harmonic_mean)


class TestFramePotential:
    def test_orthonormal_identity(self):
        assert frame_potential(np.eye(2)) == 2.0

    def test_mercedes_benz(self):
        assert frame_potential(MB) == pytest.approx(4.5, rel=1e-12)

    def test_duplicate_rank_one(self):
        assert frame_potential([[1.0, 0.0], [1.0, 0.0]]) == pytest.approx(4.0)

    def test_matches_double_sum_oracle(self):
        got = frame_potential(PSI6, SEL6)
        assert got == pytest.approx(frame_potential_oracle(PSI6, SEL6), rel=1e-10)

    def test_wide_and_tall_gram_forms_agree(self):
        rng = np.random.default_rng(9)
        psi = rng.normal(size=(7, 3))
        # L < K and L > K exercise the two internal Gram orientations
        for sel in [(1, 4), (0, 2, 3, 5, 6)]:
            assert frame_potential(psi, sel) == pytest.approx(
                frame_potential_oracle(psi, sel), rel=1e-10
            )

    def test_spectral_identity(self):
        lam = sym_eigenvalues(gram(PSI6, SEL6)).eigenvalues
        fp = frame_potential(PSI6, SEL6)
        assert abs(fp - float(np.sum(lam**2))) <= 1e-8 * fp

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            frame_potential(np.eye(3), ())


class TestMse:
    def test_identity_selection(self):
        assert mse(np.eye(3), (0, 1, 2)) == pytest.approx(3.0)

    def test_mercedes_benz(self):
        assert mse(MB, (0, 1, 2)) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_rank_deficient_returns_unbounded(self):
        assert mse([[1.0, 0.0], [2.0, 0.0]], (0, 1)) == UNBOUNDED
        assert math.isinf(UNBOUNDED)

    def test_noise_scaling(self):
        base = mse(PSI6, SEL6, 1.0)
        assert mse(PSI6, SEL6, 2.5) == pytest.approx(2.5 * base)
        assert mse(PSI6, SEL6, NoiseModel(2.5)) == pytest.approx(2.5 * base)

    def test_matches_oracle(self):
        assert mse(PSI6, SEL6) == pytest.approx(mse_oracle(PSI6, SEL6), rel=1e-8)

    def test_rank_threshold_is_relative(self):
        # scaling the matrix must not flip the rank decision
        psi = np.array([[1.0, 0.0], [1.0, 1e-4]])
        assert math.isfinite(mse(psi, (0, 1)))
        assert math.isfinite(mse(1e8 * psi, (0, 1)))
        deficient = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert mse(1e-8 * deficient, (0, 1)) == UNBOUNDED
        assert RANK_RTOL == 1e-10

    def test_bad_sigma2(self):
        with pytest.raises(ValueError):
            mse(np.eye(2), (0, 1), 0.0)
        with pytest.raises(ValueError):
            NoiseModel(-1.0)


class TestLeastSquares:
    def test_identity(self):
        out = least_squares(np.eye(2), (0, 1), [1.0, 2.0])
        assert np.allclose(out, [1.0, 2.0])

    def test_averages_consistent_duplicates(self):
        out = least_squares([[1.0], [1.0]], (0, 1), [1.0, 3.0])
        assert np.allclose(out, [2.0])

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(21)
        psi = rng.normal(size=(8, 4))
        alpha = rng.normal(size=4)
        sel = (0, 2, 3, 5, 7)
        f = psi[list(sel)] @ alpha
        out = least_squares(psi, sel, f)
        assert np.max(np.abs(out - alpha)) < 1e-8

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(22)
        psi = rng.normal(size=(6, 3))
        sel = (0, 1, 3, 4)
        f = rng.normal(size=4)
        out = least_squares(psi, sel, f)
        block = psi[list(sel)]
        residual = block @ out - f
        assert np.max(np.abs(block.T @ residual)) < 1e-8

    def test_ill_conditioned_block(self):
        # Gram condition number 1e7 (block 10^3.5): the normal equations
        # would lose about seven digits, the block solve about three
        rng = np.random.default_rng(23)
        u, _ = np.linalg.qr(rng.normal(size=(40, 6)))
        v, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        psi = (u * np.logspace(0, -3.5, 6)) @ v.T
        alpha = rng.normal(size=6)
        out = least_squares(psi, range(40), psi @ alpha)
        assert np.max(np.abs(out - alpha)) < 1e-11 * np.max(np.abs(alpha))

    def test_rank_deficient_raises(self):
        with pytest.raises(ValueError):
            least_squares([[1.0, 0.0], [2.0, 0.0]], (0, 1), [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            least_squares(np.eye(2), (0, 1), [1.0, 2.0, 3.0])


class TestRowNormalize:
    def test_three_four_five(self):
        out = row_normalize([[3.0, 4.0]])
        assert np.allclose(out.entries, [[0.6, 0.8]])

    def test_idempotent(self):
        once = row_normalize(PSI6)
        twice = row_normalize(once)
        assert np.max(np.abs(twice.entries - once.entries)) < 1e-15

    def test_original_untouched(self):
        m = SensingMatrix([[3.0, 4.0]])
        row_normalize(m)
        assert m.entries[0, 0] == 3.0

    def test_zero_row_names_index(self):
        with pytest.raises(ValueError, match="row 0"):
            row_normalize([[0.0, 0.0], [1.0, 0.0]])


class TestCoherence:
    def test_analytic_cases(self):
        psi = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]
        assert coherence(psi, 0, 1) == 0.0
        assert coherence(psi, 0, 3) == 1.0
        assert coherence(psi, 0, 2) == pytest.approx(1.0 / math.sqrt(2))

    def test_clipped_to_one(self):
        # rounding in norm products can push the raw ratio past 1
        psi = [[0.1, 0.1, 0.1], [0.3, 0.3, 0.3]]
        assert coherence(psi, 0, 1) <= 1.0

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            coherence([[0.0, 0.0], [1.0, 0.0]], 0, 1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            coherence(np.eye(2), 0, 2)
