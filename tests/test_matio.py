"""CSV matrix reader and writer."""

import numpy as np
import pytest

from framesense import SensingMatrix, load_matrix, save_matrix
from framesense.matio import FLOAT_FMT


def test_roundtrip_is_bitwise(tmp_path):
    assert FLOAT_FMT == "%.17g"
    rng = np.random.default_rng(14)
    src = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
    path = tmp_path / "m.csv"
    save_matrix(path, src)
    back = load_matrix(path)
    assert back.shape == src.shape
    assert np.array_equal(back, src)


def test_roundtrip_extreme_values(tmp_path):
    src = np.array([[1e-300, -1e300], [5e-324, 0.125], [-0.0, 3.141592653589793]])
    path = tmp_path / "m.csv"
    save_matrix(path, src)
    assert np.array_equal(load_matrix(path), src)


def test_save_accepts_sensing_matrix(tmp_path):
    m = SensingMatrix([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "m.csv"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m.entries)


def test_save_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "m.csv", np.ones(3))


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n   \n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_ragged_row_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_matrix(path)


def test_parse_failure_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_matrix(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no matrix rows"):
        load_matrix(path)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_matrix(tmp_path / "absent.csv")
