"""Near-optimality certificates: gamma, eta, delta, envelopes, references."""

import itertools
import math

import numpy as np
import pytest

from framesense import (
    BOUNDS_CSV_HEADER,
    BoundsReport,
    ORACLE_SUBSET_LIMIT,
    compute_bounds_report,
    delta_bound,
    fp_approx_factor,
    framesense,
    gram,
    l_min_max,
    mse,
    mse_approx_factor,
    mse_envelope,
    mp_scenario,
    mp_scenario_report,
    sharma_interval,
    sym_eigenvalues,
    untf_reference,
)

MB = np.array([[0.0, 1.0],
               [-math.sqrt(3) / 2, -0.5],
               [math.sqrt(3) / 2, -0.5]])

E_DUP = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
])

# four unit rows at 45 degree spacing: every other pair is an orthobasis
CROSS8 = np.array([
    [math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)] for k in range(4)
])


class TestEnergyExtremes:
    def test_hand_example(self):
        psi = [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]
        l_min, l_max, l_mean = l_min_max(psi, 2)
        assert l_min == 5.0
        assert l_max == 13.0
        assert l_mean == pytest.approx(28.0 / 3.0)

    def test_unit_rows_collapse(self):
        l_min, l_max, l_mean = l_min_max(MB, 2)
        assert l_min == pytest.approx(2.0)
        assert l_max == pytest.approx(2.0)
        assert l_mean == pytest.approx(2.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            l_min_max(MB, 0)
        with pytest.raises(ValueError):
            l_min_max(MB, 4)


@pytest.mark.parametrize("fn,low", [(l_min_max, 1), (fp_approx_factor, 2), (delta_bound, 1)])
def test_sensor_count_range_message(fn, low):
    # MB is 3 x 2; every bound states its range in the placers' one message
    for l in (low - 1, 4):
        with pytest.raises(ValueError, match=rf"^{fn.__name__} needs a sensor count in \[{low}, 3\] "
                                             rf"for a 3 x 2 matrix, got {l}$"):
            fn(MB, l)
    fn(MB, low)


class TestFpApproxFactor:
    def test_untf_half_selection(self):
        assert fp_approx_factor(CROSS8, 2) == pytest.approx(1.0 + 3.0 / math.e, rel=1e-12)

    def test_full_selection_of_tight_frame_is_exact(self):
        assert fp_approx_factor(MB, 3) == pytest.approx(1.0, abs=1e-12)

    def test_at_least_one(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            psi = rng.normal(size=(9, 3))
            assert fp_approx_factor(psi, 5) >= 1.0

    def test_zero_energy_floor_rejected(self):
        # l_min sums the L smallest energies, so it takes L zero rows to sink it
        psi = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            fp_approx_factor(psi, 2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            fp_approx_factor(MB, 1)

    def test_factor_past_float64_raises(self):
        # FP and l_min each fit float64, but K FP / l_min**2 does not, at
        # any common scale of the rows
        psi = np.random.default_rng(0).standard_normal((12, 3))
        psi[0] *= 1e75
        psi[1:] *= 1e-5
        for scale in (1.0, 1e-60):
            with pytest.raises(ValueError, match="^approximation factor of the rows overflows "
                                                 "float64; rescale the rows$"):
                fp_approx_factor(psi * scale, 4)


class TestMseApproxFactor:
    def test_arithmetic_example(self):
        assert mse_approx_factor(2.0, 2.0, 1.0, 1.0, 1.0) == 18.0

    def test_zero_deviation_collapses_to_gamma(self):
        assert mse_approx_factor(2.5, 1.7, 0.0, 2.0, 2.0) == 2.5

    def test_vacuous_bound_raises(self):
        with pytest.raises(ValueError, match="vacuous"):
            mse_approx_factor(2.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="vacuous"):
            mse_approx_factor(2.0, 0.5, 1.0, 1.0, 1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mse_approx_factor(0.5, 2.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mse_approx_factor(2.0, 2.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mse_approx_factor(2.0, 2.0, 1.0, 0.0, 1.0)


class TestMseEnvelope:
    def test_tight_frame_collapse(self):
        lower, upper = mse_envelope(MB, (0, 1, 2), 3.0, 3.0)
        assert lower == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert upper == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert mse(MB, (0, 1, 2)) == pytest.approx(lower, rel=1e-10)

    def test_identity_selection_collapse(self):
        psi = np.eye(3)
        lower, upper = mse_envelope(psi, (0, 1, 2), 3.0, 3.0)
        assert lower == pytest.approx(3.0)
        assert upper == pytest.approx(3.0)

    def test_contains_mse_on_all_subsets(self):
        rng = np.random.default_rng(17)
        psi = rng.normal(size=(6, 2))
        for size in (2, 3, 4):
            l_min, l_max, _ = l_min_max(psi, size)
            for sub in itertools.combinations(range(6), size):
                value = mse(psi, sub, 1.0)
                lower, upper = mse_envelope(psi, sub, l_min, l_max)
                if math.isinf(value):
                    assert math.isinf(upper)
                    continue
                assert lower <= value * (1 + 1e-12)
                assert value <= upper * (1 + 1e-12)

    def test_rank_deficient_upper_is_infinite(self):
        psi = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        lower, upper = mse_envelope(psi, (0, 1), 1.0, 5.0)
        assert math.isfinite(lower)
        assert math.isinf(upper)

    def test_underflowing_smallest_square_reads_infinite_upper(self):
        # the frame potential passes the range rule and the rank is kept
        # (ratio 3.3e-10), but lambda_min**2 = 1.6e-327 underflows to 0
        psi = np.diag([1.1e-77, 2e-82])
        lower, upper = mse_envelope(psi, (0, 1), 1.0, 1.0)
        assert math.isfinite(lower) and upper == math.inf
        assert math.isfinite(mse(psi, (0, 1)))

    def test_degenerate_selection_is_fully_infinite(self):
        psi = np.array([[0.0, 0.0], [1.0, 1.0]])
        lower, upper = mse_envelope(psi, (0,), 1.0, 2.0)
        assert math.isinf(lower) and math.isinf(upper)

    def test_energy_argument_validation(self):
        with pytest.raises(ValueError):
            mse_envelope(MB, (0, 1), 0.0, 1.0)
        with pytest.raises(ValueError):
            mse_envelope(MB, (0, 1), 2.0, 1.0)


def test_rounding_allowance_is_a_few_k_eps_and_never_above_1e_12():
    from framesense.bounds import _rounding_allowance

    eps = np.finfo(np.float64).eps
    assert _rounding_allowance(3) == 12 * eps
    assert [_rounding_allowance(k) <= 1e-12 for k in (1, 30, 1125, 1126, 10**6)] == [True] * 5
    assert _rounding_allowance(10**6) == 1e-12
    # it covers the 3e-16 by which a collapsed 12 x 3 envelope misses
    assert 3e-16 < _rounding_allowance(3)


class TestDeltaBound:
    def test_duplicate_basis_rows(self):
        # the subset holding both duplicates has spectrum {2, 1, 0}
        assert delta_bound(E_DUP, 3) == pytest.approx(1.0, abs=1e-12)

    def test_single_subset_full_selection(self):
        psi = np.diag([1.0, 2.0])
        _, _, l_mean = l_min_max(psi, 2)
        center = l_mean / 2
        lam = sym_eigenvalues(gram(psi, (0, 1)))
        want = float(np.max(np.abs(lam - center)))
        assert delta_bound(psi, 2) == pytest.approx(want, rel=1e-12)

    def test_minimality(self):
        rng = np.random.default_rng(23)
        psi = rng.normal(size=(8, 2))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        delta = delta_bound(psi, 4)
        _, _, l_mean = l_min_max(psi, 4)
        center = l_mean / 2
        hit = 0
        for sub in itertools.combinations(range(8), 4):
            lam = sym_eigenvalues(gram(psi, sub))
            dev = float(np.max(np.abs(lam - center)))
            assert dev <= delta + 1e-15
            if dev > delta - 1e-9:
                hit += 1
        # shrinking delta by 1e-9 must exclude at least one subset
        assert hit >= 1

    def test_equals_per_subset_maximum_exactly(self):
        # delta_bound keeps only the walk's eigenvalue range; rounding of
        # lam - center is monotone, so the float must equal the largest
        # per-subset deviation bit for bit
        rng = np.random.default_rng(24)
        for n, k, size in ((8, 2, 3), (9, 3, 4), (10, 3, 7), (7, 4, 5)):
            psi = rng.normal(size=(n, k)) * rng.uniform(0.2, 5.0, size=(n, 1))
            _, _, l_mean = l_min_max(psi, size)
            center = l_mean / k
            want = 0.0
            for sub in itertools.combinations(range(n), size):
                lam = sym_eigenvalues(gram(psi, sub))
                want = max(want, float(np.max(np.abs(lam - center))))
            assert delta_bound(psi, size) == want

    def test_enumeration_guard(self):
        # the one guard the exhaustive oracles and audits share
        with pytest.raises(ValueError, match=f"guard of {ORACLE_SUBSET_LIMIT}$"):
            delta_bound(np.ones((30, 2)), 15)

    def test_overflowing_gram_matrices_raise_value_error(self):
        psi = np.random.default_rng(45).normal(size=(8, 3))
        assert math.isfinite(delta_bound(psi * 1e100, 4))
        with pytest.raises(ValueError, match="overflow"):
            delta_bound(psi * 1e160, 4)


class TestSharmaInterval:
    def test_constant_values(self):
        assert sharma_interval([1.0, 1.0, 1.0]) == (1.0, 1.0)

    def test_two_element_tightness(self):
        lower, upper = sharma_interval([1.0, 3.0])
        assert lower == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert upper == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_containment_random_triples(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            v = rng.uniform(0.05, 10.0, size=3)
            lower, upper = sharma_interval(v)
            ratio = float(np.mean(v) * np.mean(1.0 / v))
            assert lower - 1e-12 <= ratio <= upper + 1e-12
            assert lower >= 1.0 - 1e-15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sharma_interval([2.0])
        with pytest.raises(ValueError):
            sharma_interval([1.0, -2.0])
        with pytest.raises(ValueError):
            sharma_interval([1.0, 0.0])


class TestUntfReference:
    def test_known_values(self):
        assert untf_reference(3, 2) == (4.5, pytest.approx(4.0 / 3.0), 1.5)
        assert untf_reference(5, 5) == (5.0, 5.0, 1.0)
        fp, err, lam = untf_reference(100, 30)
        assert fp == pytest.approx(1000.0 / 3.0)
        assert err == pytest.approx(9.0)
        assert lam == pytest.approx(10.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            untf_reference(2, 3)


class TestMpScenario:
    def test_reference_point(self):
        gamma, eta, low, high = mp_scenario(0.25, 6.0)
        assert gamma == pytest.approx(1.0 + 35.0 / math.e, rel=1e-15)
        assert 13.8 <= gamma <= 14.0
        assert low == 0.5
        assert high == 4.5
        assert eta == pytest.approx(gamma * 81.0, rel=1e-15)

    def test_gamma_limit_at_unit_aspect(self):
        gamma, _, _, _ = mp_scenario(0.5, 1.0 + 1e-9)
        assert gamma == pytest.approx(1.0, abs=1e-8)

    def test_scenario_validation(self):
        for c1, c2 in ((1.5, 6.0), (0.25, 0.9), (0.0, 6.0), (math.nan, 6.0)):
            for fn in (mp_scenario, mp_scenario_report):
                with pytest.raises(ValueError, match="need 0 < c1 < 1 < c2"):
                    fn(c1, c2)

    def test_report_documents_eta_product(self):
        text = mp_scenario_report(0.25, 6.0)
        assert "gamma=" in text and "eta=" in text
        assert "1124" in text and "50" in text


class TestBoundsReport:
    def test_csv_header_order(self):
        assert BOUNDS_CSV_HEADER == (
            "N,K,L,gamma,eta,l_min,l_max,l_mean,d,delta,mse_bound_lower,mse_bound_upper"
        )
        report = BoundsReport(4, 2, 3, 1.5, 2.0, 1.0, 2.0, 1.5, 0.75, 0.1, 0.5, 3.0)
        row = report.to_csv_row()
        assert row.split(",")[0:3] == ["4", "2", "3"]
        assert len(row.split(",")) == len(BOUNDS_CSV_HEADER.split(","))

    def test_text_block(self):
        report = BoundsReport(4, 2, 3, 1.5, 2.0, 1.0, 2.0, 1.5, 0.75, 0.1, 0.5, 3.0)
        text = report.to_text()
        assert "N=4" in text
        assert "gamma=1.5" in text
        assert text.endswith("\n")

    def test_compute_consistency(self):
        rng = np.random.default_rng(33)
        psi = rng.normal(size=(8, 3))
        sel = framesense(psi, 4).chosen
        report = compute_bounds_report(psi, 4, sel)
        l_min, l_max, l_mean = l_min_max(psi, 4)
        assert report.gamma == pytest.approx(fp_approx_factor(psi, 4), rel=1e-15)
        assert report.l_min == l_min and report.l_max == l_max
        assert report.d == pytest.approx(l_mean / 3)
        assert report.delta == pytest.approx(delta_bound(psi, 4), rel=1e-15)
        lower, upper = mse_envelope(psi, sel, l_min, l_max)
        assert report.mse_bound_lower == lower
        assert report.mse_bound_upper == upper
        if math.isfinite(report.eta):
            assert report.eta == pytest.approx(
                mse_approx_factor(report.gamma, report.d, report.delta, l_min, l_max)
            )

    def test_given_delta_is_reported_as_is(self):
        rng = np.random.default_rng(35)
        psi = rng.normal(size=(9, 3))
        sel = framesense(psi, 4).chosen
        enumerated = compute_bounds_report(psi, 4, sel)
        given = compute_bounds_report(psi, 4, sel, delta_bound(psi, 4))
        assert given.to_text() == enumerated.to_text()
        skipped = compute_bounds_report(psi, 4, sel, math.nan)
        assert math.isnan(skipped.delta) and math.isnan(skipped.eta)
        assert skipped.gamma == enumerated.gamma
        assert skipped.mse_bound_upper == enumerated.mse_bound_upper

    @pytest.mark.parametrize("sel", [[0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6]])
    def test_selection_of_another_size_refused(self, sel):
        # the envelope of a 4-row selection with the energies of L = 6 certifies nothing
        psi = np.random.default_rng(36).normal(size=(10, 3))
        with pytest.raises(ValueError, match=f"^sel holds {len(sel)} rows, but the report is for L = 6$"):
            compute_bounds_report(psi, 6, sel)

    def test_delta_nan_when_enumeration_too_large(self):
        # past the enumeration guard the exhaustive oracles share
        rng = np.random.default_rng(34)
        psi = rng.normal(size=(30, 3))
        assert math.comb(30, 15) > ORACLE_SUBSET_LIMIT
        report = compute_bounds_report(psi, 15, tuple(range(15)))
        assert math.isnan(report.delta)
        assert math.isnan(report.eta)

    def test_eta_nan_when_vacuous(self):
        # energy spread wide enough that the subset spectra reach the center
        psi = np.array([[1.0, 0.0], [0.0, 1.0], [10.0, 0.0], [0.0, 10.0]])
        report = compute_bounds_report(psi, 2, (0, 1))
        assert math.isnan(report.eta)
        assert math.isfinite(report.delta)
