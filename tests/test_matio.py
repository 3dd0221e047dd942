"""CSV matrix reader and writer."""

import os
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


# float64 bit patterns, weighted toward +-0, subnormals and the extremes
_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 1 << 63, 1, (1 << 52) - 1, (1 << 63) | 1, 1 << 52, 0x7FEFFFFFFFFFFFFF]),
    st.integers(1, (1 << 52) - 1).map(lambda m: m | (1 << 63)),
)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), k=st.integers(1, 5), data=st.data())
def test_random_bit_patterns_roundtrip_bitwise(tmp_path_factory, n, k, data):
    bits = np.array(data.draw(st.lists(_BITS, min_size=n * k, max_size=n * k)), dtype=np.uint64)
    src = bits.view(np.float64).reshape(n, k)
    assume(np.isfinite(src).all())
    path = tmp_path_factory.mktemp("bits") / "m.csv"
    save_matrix(path, src)
    back = load_matrix(path)
    assert back.dtype == np.float64 and back.shape == (n, k)
    assert np.array_equal(back.view(np.uint64), src.view(np.uint64))
    # and each value is what float() makes of its field
    lines = path.read_text(encoding="ascii").splitlines()
    assert back.tolist() == [[float(v) for v in line.split(",")] for line in lines]


def _load_error(path, text):
    path.write_text(text, encoding="ascii")
    with pytest.raises(ValueError) as info:
        load_matrix(path)
    return str(info.value)


def test_hash_inside_a_field_is_a_parse_error(tmp_path):
    path = tmp_path / "m.csv"
    assert _load_error(path, "1,2\n3,#4\n") == f"{path}: line 2: could not parse a value in '3,#4'"
    assert _load_error(path, "# 1,2\n3,4\n") == f"{path}: line 1: could not parse a value in '# 1,2'"


def test_empty_field_is_a_parse_error(tmp_path):
    path = tmp_path / "m.csv"
    assert _load_error(path, "1,2,3\n4,,6\n") == f"{path}: line 2: could not parse a value in '4,,6'"


def test_trailing_comma_names_its_line(tmp_path):
    path = tmp_path / "m.csv"
    assert _load_error(path, "1,2\n3,4,\n") == f"{path}: line 2: expected 2 values, got 3"
    assert _load_error(path, "1,2,\n3,4,\n") == f"{path}: line 1: could not parse a value in '1,2,'"


def test_whitespace_only_lines_are_skipped_and_counted(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n \t \n3,4\n\x0c\n", encoding="ascii")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])
    assert _load_error(path, "1,2\n  \n3\n") == f"{path}: line 3: expected 2 values, got 1"
    assert _load_error(path, " \t\n\n") == f"{path}: no matrix rows found"


@pytest.mark.parametrize("text, want", [
    ("0,1\n2,3\n4,5\n", [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]),
    ("0,1\n2,x\n", "line 2: could not parse a value in '2,x'"),
])
def test_reads_a_pipe_once(tmp_path, text, want):
    # a pipe can be read once and not rewound, for numpy and scanner alike
    path = tmp_path / "pipe"
    os.mkfifo(path)

    def write():
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                load_matrix(path)
        else:
            assert load_matrix(path).tolist() == want
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_fields_read_as_float_reads_them(tmp_path):
    path = tmp_path / "m.csv"
    # float() takes underscores between digits and surrounding spaces
    path.write_text(" 1_0 , 2.5\n-inf,3\n", encoding="ascii")
    assert load_matrix(path).tolist() == [[10.0, 2.5], [-np.inf, 3.0]]
    # information separators, which float() does not strip, stay errors
    assert _load_error(path, "1,\x1c2\n") == f"{path}: line 1: could not parse a value in '1,\\x1c2'"
