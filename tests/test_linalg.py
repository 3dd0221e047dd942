"""Dense-numerics layer: Gram matrices, eigenvalues, FP, MSE."""

import ast
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from framesense import (
    ConvergenceError,
    GeneratorSpec,
    PlacementOptions,
    RANK_RTOL,
    SensingMatrix,
    UNBOUNDED,
    as_sensing_matrix,
    coherence,
    compute_bounds_report,
    delta_bound,
    exhaustive_oracle,
    fp_approx_factor,
    frame_potential,
    framesense,
    generate,
    gram,
    l_min_max,
    mse,
    mse_envelope,
    row_normalize,
    sym_eigenvalues,
)

from framesense.linalg import _check_range, _walk_subsets

from _oracles import (
    eig_oracle,
    frame_potential_oracle,
    gram_oracle,
    mse_oracle,
    walk_reference,
)

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
        assert np.allclose(m.row_norms, [math.sqrt(5), 5.0, math.sqrt(61)])
        # nothing is written after construction, so threads may share it
        assert list(vars(m)) == ["_entries"]

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

    def test_as_sensing_matrix_passthrough(self):
        m = SensingMatrix([[1.0, 2.0]])
        assert as_sensing_matrix(m) is m
        m2 = as_sensing_matrix([[1.0, 2.0]])
        assert isinstance(m2, SensingMatrix)


class TestGramMatrix:
    """Gram matrices are plain arrays: what gram returns, what sym_eigenvalues takes."""

    def test_gram_is_the_block_product_bitwise(self):
        rng = np.random.default_rng(21)
        psi = rng.normal(size=(40, 7))
        sel = [31, 2, 17, 8, 39, 0, 23, 11, 5]
        block = psi[sel]
        g = gram(psi, sel)
        assert isinstance(g, np.ndarray)
        assert g.shape == (7, 7)
        assert np.array_equal(g, block.T @ block)
        assert np.array_equal(g, g.T)

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError):
            sym_eigenvalues([[1.0, 0.5], [0.0, 1.0]])

    def test_accepts_asymmetry_within_guard(self):
        lam = sym_eigenvalues([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        assert np.allclose(lam, [3.0, 1.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.ones((2, 3)))
        with pytest.raises(ValueError):
            sym_eigenvalues(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        # a ValueError, not the ConvergenceError that LAPACK would lead to
        t = np.eye(3)
        t[1, 2] = t[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sym_eigenvalues(t)


def test_gram_small_example():
    psi = [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    g = gram(psi, (0, 1, 2))
    assert np.allclose(g, [[2.0, 1.0], [1.0, 2.0]])


def test_gram_matches_triple_loop_oracle():
    expected = gram_oracle(PSI6, SEL6)
    got = gram(PSI6, SEL6)
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
    # an empty array is float by default; it is still an empty selection
    with pytest.raises(ValueError, match="at least one row index"):
        gram(psi, np.array([]))
    assert np.array_equal(gram(psi, np.array([0, 2], dtype=np.uint8)), gram(psi, [0, 2]))
    with pytest.raises(ValueError, match="^selection must be a flat collection of row indices$"):
        frame_potential(np.eye(4), [[0, 1], [2, 3]])


@pytest.mark.parametrize("sel", [
    [0.5, 1.7, 2.2, 3.9],
    [0.0, 1.0, 2.0, 3.0],
    ["1", "2", "3"],
    [True, False, True, True],
    np.array([True, False, True, True]),
])
def test_non_integer_selections_refused(sel):
    # casting would truncate floats to rows 0-3, parse strings and read a
    # mask as rows 1, 0, 1, 1
    psi = generate(GeneratorSpec("gaussian", 8, 3, seed=0))
    for call in (lambda: gram(psi, sel), lambda: frame_potential(psi, sel),
                 lambda: mse(psi, sel)):
        with pytest.raises(ValueError, match="integer row indices"):
            call()


class TestEigenvalues:
    def test_two_by_two_analytic(self):
        lam = sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(lam, [3.0, 1.0])

    def test_scaled_identity(self):
        lam = sym_eigenvalues(7.5 * np.eye(5))
        assert np.allclose(lam, 7.5)

    def test_frozen_bisection_values(self):
        lam = sym_eigenvalues(SYM4)
        assert np.max(np.abs(lam - np.array(SYM4_EIGS))) < 1e-8

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            t = a + a.T
            got = sym_eigenvalues(t)
            want = eig_oracle(t)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_accuracy_against_lapack(self):
        rng = np.random.default_rng(11)
        for k in (2, 5, 10, 25):
            a = rng.normal(size=(k, k))
            t = a @ a.T
            got = sym_eigenvalues(t)
            want = np.sort(np.linalg.eigvalsh(t))[::-1]
            assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + abs(want[0]))

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        lam = sym_eigenvalues(a + a.T)
        assert np.all(np.diff(lam) <= 0)

    def test_descending_lapack_values_bitwise(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(8, 5))
        t = a.T @ a
        lam = sym_eigenvalues(t)
        assert lam.ndim == 1
        assert lam.dtype == np.float64
        assert np.array_equal(lam, np.linalg.eigvalsh(t)[::-1])

    def test_result_is_read_only(self):
        lam = sym_eigenvalues(np.eye(3))
        with pytest.raises(ValueError):
            lam[0] = 2.0

    def test_one_by_one(self):
        assert sym_eigenvalues([[4.0]])[0] == 4.0

    def test_zero_matrix(self):
        assert np.all(sym_eigenvalues(np.zeros((3, 3))) == 0.0)

    def test_convergence_error_is_runtime_error(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError):
            sym_eigenvalues(np.eye(2))


def _numpy_linalg_uses(tree):
    """``(line, name)`` of every ``np.linalg.<name>`` or ``numpy.linalg.<name>`` in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "numpy"):
            if node.module == "numpy.linalg" or any(a.name == "linalg" for a in node.names):
                yield node.lineno, "import"


def test_eigen_is_the_one_lapack_gateway():
    # every numpy.linalg use but the norm sits in linalg._eigen, where a
    # LAPACK failure becomes ConvergenceError
    src = Path(__file__).resolve().parents[1] / "src" / "framesense"
    stray = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        gateway = set()
        if path.name == "linalg.py":
            (eigen,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_eigen")
            gateway = {line for line, _ in _numpy_linalg_uses(eigen)}
        stray += [f"{path.name}:{line}: numpy.linalg.{name}"
                  for line, name in _numpy_linalg_uses(tree)
                  if name != "norm" and line not in gateway]
    assert not stray, "numpy.linalg outside linalg._eigen: " + ", ".join(stray)


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
        lam = sym_eigenvalues(gram(PSI6, SEL6))
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
        assert mse(PSI6, SEL6, sigma2=2.5) == pytest.approx(2.5 * base)

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
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
                mse(np.eye(2), (0, 1), bad)

    @pytest.mark.parametrize("diag", [
        # the rank is kept (ratio 2e-10), but 1 / lambda_min = 5e316
        [math.sqrt(1e-307), math.sqrt(2e-317)],
        # each 1 / lambda = 1.25e308 fits, but their sum does not
        [math.sqrt(8e-309)] * 3,
    ], ids=["reciprocal", "sum"])
    def test_full_rank_mse_past_float64_raises(self, diag):
        # the Gram matrix passes the range rule; an inf MSE would read as
        # the UNBOUNDED marker of lost rank
        psi = np.diag(diag)
        sel = range(len(diag))
        msg = "^MSE of the rows overflows float64; rescale the matrix$"
        with pytest.raises(ValueError, match=msg):
            mse(psi, sel)
        with pytest.raises(ValueError, match=msg):
            exhaustive_oracle(psi, len(diag), "mse")


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

    def test_row_normalize_rule(self):
        # scaling row 2 keeps its direction, but its norm overflows float64
        # and would read as coherence 0 instead of 0.294
        psi = generate(GeneratorSpec("gaussian", 8, 3, seed=0)).entries.copy()
        psi[2] *= 1e200
        for i, j in ((2, 3), (3, 2)):
            with pytest.raises(ValueError, match="^row 2 has norm inf, too large to normalize$"):
                coherence(psi, i, j)
        with pytest.raises(ValueError, match="^row 0 has norm 0.000e[+]00, too small to normalize$"):
            coherence([[0.0, 0.0], [1.0, 0.0]], 1, 0)
        # only rows i and j are checked
        assert coherence(psi, 0, 3) == coherence(psi[[0, 3]], 0, 1)


def _walk_grid():
    # (name, matrix): even row counts for stacked_scaled; the duplicate-row
    # matrix repeats rows 4 and 1 of an integer one, so subsets that swap a
    # row for its copy tie exactly
    rng = np.random.default_rng(43)
    dup = rng.integers(-3, 4, size=(8, 3)).astype(float)
    yield "duplicate_rows", as_sensing_matrix(np.vstack([dup, dup[[4, 1]]]))
    for seed in range(2):
        for family, scale in (("gaussian", None), ("bernoulli", None), ("stacked_scaled", 4.0)):
            yield family, generate(GeneratorSpec(family, 10, 3, seed=seed, scale=scale))


class TestWalkSubsets:
    @pytest.mark.parametrize("name, m", list(_walk_grid()))
    def test_equals_per_subset_reference_bitwise(self, name, m):
        # sizes 1 and 2 lie below K = 3, where every subset is unbounded and
        # the first one wins; bernoulli and the duplicate rows tie exactly
        for size in (1, 2, 3, 5, 9):
            want = walk_reference(m, size)
            assert _walk_subsets(m, size, fp=True, mse=True, spread=True) == want
            assert _walk_subsets(m, size, fp=True) == (want[0], None, None)
            assert _walk_subsets(m, size, mse=True) == (None, want[1], None)
            assert _walk_subsets(m, size, spread=True) == (None, None, want[2])
            (sub, fp), (_, unit_mse), _ = want
            assert fp == frame_potential(m, sub)
            assert (unit_mse == UNBOUNDED) == (size < m.k)
            center = l_min_max(m, size)[2] / m.k
            assert delta_bound(m, size) == max(
                float(np.max(np.abs(sym_eigenvalues(gram(m, s)) - center)))
                for s in itertools.combinations(range(m.n), size)
            )

    def test_exact_ties_occur_on_grid(self):
        # the grid must exercise the first-subset tie rule, not just claim to
        ties = 0
        for name, m in _walk_grid():
            if name in ("bernoulli", "duplicate_rows"):
                (sub, val), _, _ = walk_reference(m, 3)
                tied = [s for s in itertools.combinations(range(m.n), 3)
                        if frame_potential(m, s) == val]
                assert tied[0] == sub
                ties += len(tied) > 1
        assert ties >= 2

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError):
            _walk_subsets(as_sensing_matrix(MB), 2, spread=True)


def _range_cases():
    base = np.random.default_rng(0).standard_normal((12, 3))
    mixed = base.copy()
    mixed[1:] *= 1e-90  # E is normal, but l_min**2 underflows
    spread = base.copy()
    spread[0] *= 1e75
    spread[1:] *= 1e-5  # FP and l_min fit, but K FP / l_min**2 does not
    return [pytest.param(base * s, id=f"x{s:g}") for s in (1e-90, 1e80, 1e160)] + [
        pytest.param(mixed, id="mixed"), pytest.param(spread, id="spread")
    ]


class TestRangeRule:
    @pytest.mark.parametrize("psi", _range_cases())
    def test_every_value_is_finite_or_refused(self, psi):
        # each call returns finite values or raises ValueError; an inf, a NaN,
        # another exception or a RuntimeWarning (an error under pyproject's
        # filterwarnings) fails
        sel = [1, 2, 3, 4]
        calls = {
            "gram": lambda: gram(psi, sel),
            "frame_potential": lambda: frame_potential(psi, sel),
            "mse": lambda: mse(psi, sel),
            "l_min_max": lambda: l_min_max(psi, 4),
            "fp_approx_factor": lambda: fp_approx_factor(psi, 4),
            "mse_envelope": lambda: mse_envelope(psi, sel, 1.0, 2.0),
            "compute_bounds_report": lambda: dataclasses.astuple(
                compute_bounds_report(psi, 4, sel)),
            "framesense": lambda: framesense(
                psi, 4, PlacementOptions(normalize_rows=False)).objective_trace,
            "oracle_fp": lambda: exhaustive_oracle(psi, 4, "fp")[1],
            "oracle_mse": lambda: exhaustive_oracle(psi, 4, "mse")[1],
        }
        for name, call in calls.items():
            try:
                values = np.asarray(call(), dtype=np.float64)
            except ValueError as exc:
                assert "float64" in str(exc) or "zero rows" in str(exc), name
                continue
            assert np.isfinite(values).all(), name

    def test_walk_checks_its_least_subset_energy(self):
        # the 4 largest rows fit, but the frame potential of 4 rows at
        # 1e-90 underflows, and those subsets would tie at 0.0
        psi = np.random.default_rng(0).standard_normal((12, 3))
        psi[1:] *= 1e-90
        msg = "^frame potential of the rows underflows float64; rescale the matrix$"
        with pytest.raises(ValueError, match=msg):
            exhaustive_oracle(psi, 4, "fp")
        # with zero rows among the 4 smallest, the smallest nonzero row decides
        zeros = np.zeros((4, 3))
        with pytest.raises(ValueError, match=msg):
            exhaustive_oracle(np.vstack([zeros, psi]), 4, "fp")
        # zero rows alone have a frame potential of exactly 0
        sel, value = exhaustive_oracle(np.vstack([zeros, psi[:1]]), 4, "fp")
        assert sel.chosen == (0, 1, 2, 3) and value == 0.0

    def test_bounds_and_messages(self):
        big = math.sqrt(np.finfo(np.float64).max)
        # E**2 fits, but 2 E**2, the room framesense's gains need, does not
        with pytest.raises(ValueError, match="^frame potential of the rows overflows float64"):
            _check_range([0.8 * big], fp=True)
        _check_range([0.7 * big], fp=True)
        with pytest.raises(ValueError, match="^Gram matrix of the rows overflows float64"):
            _check_range([np.finfo(np.float64).max, np.finfo(np.float64).max])
        tiny = np.finfo(np.float64).tiny
        _check_range([tiny])
        with pytest.raises(ValueError, match="^Gram matrix of the rows underflows float64"):
            _check_range([tiny / 2])
        with pytest.raises(ValueError, match="^frame potential of the rows underflows float64"):
            _check_range([1e-160], fp=True)
        # all-zero rows fit: their Gram matrix and frame potential are exactly 0
        _check_range(np.zeros(3), fp=True)
        assert frame_potential(np.zeros((3, 2)), [0, 1]) == 0.0
