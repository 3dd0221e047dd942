"""Property-based tests over randomly drawn instances."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framesense import (
    frame_potential,
    gram,
    greedy_coherence,
    greedy_det,
    greedy_mi,
    greedy_mse,
    load_matrix,
    mse,
    random_placement,
    row_normalize,
    save_matrix,
    sharma_interval,
    sym_eigenvalues,
)

from _oracles import marginal_gain, row_gram


@st.composite
def seeded_matrix(draw, min_n=1, max_n=10, max_k=6):
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max_k))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).normal(size=(n, k))


@st.composite
def matrix_with_subset(draw, min_size=1):
    psi = draw(seeded_matrix(min_n=min_size + 1))
    n = psi.shape[0]
    size = draw(st.integers(min_size, n - 1))
    sel = draw(st.permutations(range(n)))[:size]
    return psi, sorted(sel)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def small_side_eigs(psi):
    t = psi.T @ psi if psi.shape[1] <= psi.shape[0] else psi @ psi.T
    return sym_eigenvalues(t)


@given(seeded_matrix())
def test_gram_trace_equals_energy_and_eigenvalue_sum(psi):
    g = gram(psi, range(psi.shape[0]))
    energy = float(np.sum(psi * psi))
    lam = small_side_eigs(psi)
    assert math.isclose(float(np.trace(g)), energy, rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(float(lam.sum()), energy, rel_tol=1e-8, abs_tol=1e-10)


@given(seeded_matrix())
def test_frame_potential_equals_sum_of_squared_eigenvalues(psi):
    lam = small_side_eigs(psi)
    assert math.isclose(
        frame_potential(psi), float(np.sum(lam * lam)), rel_tol=1e-8, abs_tol=1e-10
    )


@given(seeded_matrix())
def test_frame_potential_global_bounds(psi):
    energy = float(np.sum(psi * psi))
    fp = frame_potential(psi)
    k = psi.shape[1]
    assert fp >= energy**2 / k * (1 - 1e-10)
    assert fp <= energy**2 * (1 + 1e-10)


@given(seeded_matrix())
def test_unit_row_frame_potential_excess_is_twice_upper_triangle(psi):
    # every Gaussian row has nonzero norm, so normalization is defined
    unit = row_normalize(psi).entries
    g = row_gram(unit)
    upper = float(np.sum(np.triu(g, 1) ** 2))
    l = psi.shape[0]
    assert math.isclose(frame_potential(unit), l + 2.0 * upper, rel_tol=1e-10, abs_tol=1e-10)


@given(matrix_with_subset(min_size=1))
def test_elimination_gain_matches_potential_difference(pair):
    psi, remaining = pair
    i = remaining[0]
    shrunk = [r for r in remaining if r != i]
    diff = frame_potential(psi, remaining) - (
        frame_potential(psi, shrunk) if shrunk else 0.0
    )
    gain = marginal_gain(row_gram(psi), remaining, i)
    assert math.isclose(gain, diff, rel_tol=1e-8, abs_tol=1e-8)


@given(matrix_with_subset(min_size=1))
def test_elimination_gain_grows_with_the_candidate_set(pair):
    psi, remaining = pair
    outside = [r for r in range(psi.shape[0]) if r not in remaining]
    assume(outside)
    i = remaining[0]
    small = marginal_gain(row_gram(psi), remaining, i)
    large = marginal_gain(row_gram(psi), sorted(remaining + [outside[0]]), i)
    assert large >= small - 1e-10 * max(1.0, abs(small))


@given(st.lists(st.floats(0.01, 1e6), min_size=2, max_size=40))
def test_mean_ratio_lies_in_sharma_interval(values):
    arr = np.asarray(values)
    ratio = float(arr.mean() / (len(arr) / np.sum(1.0 / arr)))
    low, high = sharma_interval(values)
    # two widely spread values make the interval tight and its lower form
    # cancellation-prone, so the slack is generous
    assert low * (1 - 1e-7) - 1e-12 <= ratio <= high * (1 + 1e-7) + 1e-12


@given(n=st.integers(1, 6), k=st.integers(1, 6), data=st.data())
def test_save_load_roundtrip_is_bitwise(tmp_path_factory, n, k, data):
    flat = data.draw(st.lists(finite_floats, min_size=n * k, max_size=n * k))
    psi = np.array(flat).reshape(n, k)
    path = tmp_path_factory.mktemp("roundtrip") / "m.csv"
    save_matrix(path, psi)
    assert np.array_equal(load_matrix(path), psi)


@given(matrix_with_subset())
def test_eigenvalues_weakly_increase_when_a_row_is_added(pair):
    psi, sel = pair
    outside = [i for i in range(psi.shape[0]) if i not in sel]
    assume(outside)
    bigger = sorted(sel + [outside[0]])
    lam_small = sym_eigenvalues(psi[sel].T @ psi[sel])
    lam_big = sym_eigenvalues(psi[bigger].T @ psi[bigger])
    scale = max(1.0, float(lam_big[0]))
    assert np.all(lam_big >= lam_small - 1e-9 * scale)


@given(matrix_with_subset())
def test_mse_never_rises_when_a_row_is_added(pair):
    psi, sel = pair
    outside = [i for i in range(psi.shape[0]) if i not in sel]
    assume(outside)
    before = mse(psi, sel)
    after = mse(psi, sorted(sel + [outside[0]]))
    if math.isinf(before):
        return
    # near the rank threshold the two calls may disagree on invertibility
    assume(not math.isinf(after))
    assert after <= before * (1 + 1e-9) + 1e-12


@settings(max_examples=30, deadline=None)
@given(seeded_matrix(min_n=5, max_n=9, max_k=3), st.data())
def test_every_greedy_returns_a_partition(psi, data):
    n, k = psi.shape
    # the determinant greedy needs at least k sensors for a full-rank start
    size = data.draw(st.integers(max(2, k), n - 2))
    runs = [
        greedy_det(psi, size),
        greedy_mse(psi, size),
        greedy_mi(psi, size),
        greedy_coherence(psi, size),
        random_placement(psi, size, seed=0),
    ]
    for sel in runs:
        chosen, eliminated = set(sel.chosen), set(sel.eliminated)
        assert len(sel.chosen) == size
        assert len(chosen) == size
        assert not chosen & eliminated
        assert chosen | eliminated == set(range(n))
