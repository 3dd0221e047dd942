"""Reproducible matrix families."""

import numpy as np
import pytest

from framesense import FAMILIES, GeneratorSpec, generate


def test_family_list():
    assert FAMILIES == (
        "gaussian",
        "gaussian_row_normalized",
        "random_tight_frame",
        "bernoulli",
        "dct_frame",
        "stacked_scaled",
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_same_spec_same_matrix(family):
    kwargs = {"family": family, "n": 8, "k": 3, "seed": 42}
    if family == "stacked_scaled":
        kwargs["scale"] = 2.5
    a = generate(GeneratorSpec(**kwargs)).entries
    b = generate(GeneratorSpec(**kwargs)).entries
    assert np.array_equal(a, b)


def test_seed_changes_gaussian():
    a = generate(GeneratorSpec("gaussian", 8, 3, seed=0)).entries
    b = generate(GeneratorSpec("gaussian", 8, 3, seed=1)).entries
    assert not np.array_equal(a, b)


def test_gaussian_moments():
    m = generate(GeneratorSpec("gaussian", 400, 50, seed=7)).entries
    assert abs(np.mean(m)) < 0.02
    assert abs(np.var(m) - 1.0) < 0.02


def test_gaussian_entry_scale():
    base = generate(GeneratorSpec("gaussian", 6, 4, seed=3)).entries
    scaled = generate(GeneratorSpec("gaussian", 6, 4, seed=3, entry_scale=2.0)).entries
    assert np.allclose(scaled, 2.0 * base)


def test_row_normalized_rows_are_unit():
    m = generate(GeneratorSpec("gaussian_row_normalized", 10, 4, seed=5))
    assert np.max(np.abs(m.row_norms - 1.0)) < 1e-12


def test_entry_scale_refused_where_unread():
    # these families renormalize rows or columns or fix entries to a
    # lattice, so an entry_scale would change nothing
    for family in ("gaussian_row_normalized", "random_tight_frame", "bernoulli", "dct_frame"):
        message = f"^entry_scale only applies to gaussian and stacked_scaled, got family '{family}'$"
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(family, 6, 3, entry_scale=9.0)
        # 1.0, the default, counts as not set
        GeneratorSpec(family, 6, 3, entry_scale=1.0)


def test_tight_frame_columns_orthonormal():
    m = generate(GeneratorSpec("random_tight_frame", 12, 4, seed=1)).entries
    assert np.max(np.abs(m.T @ m - np.eye(4))) < 1e-12


def test_tight_frame_needs_tall_matrix():
    with pytest.raises(ValueError):
        GeneratorSpec("random_tight_frame", 4, 4)


def test_bernoulli_entries_are_signs():
    m = generate(GeneratorSpec("bernoulli", 20, 6, seed=9)).entries
    assert set(np.unique(m)) == {-1.0, 1.0}


def test_dct_frame_deterministic_and_orthonormal():
    a = generate(GeneratorSpec("dct_frame", 9, 4, seed=0)).entries
    b = generate(GeneratorSpec("dct_frame", 9, 4, seed=123)).entries
    # cosine lattice ignores the seed entirely
    assert np.array_equal(a, b)
    assert np.max(np.abs(a.T @ a - np.eye(4))) < 1e-12


def test_dct_frame_needs_k_le_n():
    with pytest.raises(ValueError):
        GeneratorSpec("dct_frame", 3, 4)


def test_stacked_scaled_structure():
    m = generate(GeneratorSpec("stacked_scaled", 10, 3, seed=4, scale=3.0)).entries
    top, bottom = m[:5], m[5:]
    assert np.allclose(bottom, 3.0 * top)


def test_stacked_scaled_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("stacked_scaled", 7, 3, scale=2.0)
    with pytest.raises(ValueError):
        GeneratorSpec("stacked_scaled", 8, 3, scale=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec("stacked_scaled", 8, 3)


def test_scale_rejected_outside_stacked():
    with pytest.raises(ValueError):
        GeneratorSpec("gaussian", 8, 3, scale=2.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("no_such_family", 4, 2)
    with pytest.raises(ValueError):
        GeneratorSpec("gaussian", 0, 2)
    with pytest.raises(ValueError):
        GeneratorSpec("gaussian", 4, 2, seed=-1)
    with pytest.raises(ValueError):
        GeneratorSpec("gaussian", 4, 2, entry_scale=0.0)


def test_families_use_distinct_streams():
    g = generate(GeneratorSpec("gaussian", 8, 3, seed=0)).entries
    s = generate(GeneratorSpec("stacked_scaled", 16, 3, seed=0, scale=2.0)).entries
    # same seed, different family label, different draws
    assert not np.allclose(g, s[:8])
