import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deepmp.datagen import synthesize
from deepmp.errors import (
    NegativeEntry,
    NotNormalized,
    NotOvercomplete,
    ParseError,
)
from deepmp.types import (
    Dictionary,
    load_dictionary_csv,
    read_csv_matrix,
    save_dictionary_csv,
    validate_dictionary,
    write_csv,
)


def unit_2x3():
    r = 1.0 / np.sqrt(2.0)
    return np.array([[1.0, 0.0, r], [0.0, 1.0, r]])


def test_validate_accepts_unit_columns():
    d = validate_dictionary(unit_2x3())
    assert isinstance(d, Dictionary)
    assert d.signal_dim == 2 and d.num_atoms == 3


def test_validate_rejects_negative_entry():
    atoms = unit_2x3()
    atoms[0, 0] = -0.1
    with pytest.raises(NegativeEntry):
        validate_dictionary(atoms)


def test_validate_rejects_undercomplete():
    with pytest.raises(NotOvercomplete):
        validate_dictionary(np.ones((3, 2)) / np.sqrt(3.0))


def test_validate_rejects_unnormalized_column():
    atoms = unit_2x3()
    atoms[:, 2] *= 1.001
    with pytest.raises(NotNormalized):
        validate_dictionary(atoms)


@pytest.mark.parametrize("norm", [0.0, np.nan])
def test_unnormalized_column_message_reads_the_norm_as_a_float(norm):
    # numpy 2 reprs its scalars as "np.float64(0.0)"
    atoms = unit_2x3()
    atoms[:, 0] = [norm, 0.0]
    with pytest.raises(NotNormalized) as caught:
        validate_dictionary(atoms)
    assert str(caught.value) == f"column 0 has norm {norm}"


def test_validated_atoms_are_frozen():
    d = validate_dictionary(unit_2x3())
    with pytest.raises(ValueError):
        d.atoms[0, 0] = 5.0


# -- mixture synthesis: atoms[:, supports[b]] @ coeffs[b] per row b -------------


def test_synthesize_unit_code_returns_atom():
    d = validate_dictionary(unit_2x3())
    signals = synthesize(d.atoms, np.array([[1]]), np.array([[1.0]]))
    assert np.array_equal(signals[0], d.atoms[:, 1])


def test_synthesize_zero_code():
    d = validate_dictionary(unit_2x3())
    signals = synthesize(d.atoms, np.array([[0, 2]]), np.zeros((1, 2)))
    assert np.array_equal(signals, np.zeros((1, 2)))


def test_synthesize_matches_direct_summation_oracle():
    rng = np.random.default_rng(5)
    atoms = np.abs(rng.standard_normal((5, 20)))
    atoms /= np.linalg.norm(atoms, axis=0)
    d = validate_dictionary(atoms)
    expected = 0.5 * atoms[:, 2] + 0.25 * atoms[:, 7]
    signals = synthesize(d.atoms, np.array([[2, 7]]), np.array([[0.5, 0.25]]))
    assert np.allclose(signals[0], expected, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_synthesize_is_linear(seed, a, b):
    # linear in the coefficients of a fixed support stack
    rng = np.random.default_rng(seed)
    atoms = np.abs(rng.standard_normal((6, 11)))
    atoms /= np.linalg.norm(atoms, axis=0)
    d = validate_dictionary(atoms)
    supports = rng.integers(0, 11, size=(7, 4))
    x = rng.standard_normal((7, 4))
    z = rng.standard_normal((7, 4))
    lhs = synthesize(d.atoms, supports, a * x + b * z)
    rhs = a * synthesize(d.atoms, supports, x) + b * synthesize(d.atoms, supports, z)
    assert np.allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 12))
def test_normalized_abs_random_matrix_always_validates(seed, rows, extra):
    rng = np.random.default_rng(seed)
    cols = rows + extra
    atoms = np.abs(rng.standard_normal((rows, cols)))
    atoms /= np.linalg.norm(atoms, axis=0)
    validate_dictionary(atoms)


def test_csv_round_trip_is_exact(tmp_path, small_dictionary):
    path = tmp_path / "dict.csv"
    save_dictionary_csv(small_dictionary, path)
    loaded = load_dictionary_csv(path)
    assert np.array_equal(loaded.atoms, small_dictionary.atoms)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[-0.0, 5e-324, -5e-324, 2.2250738585072009e-308],
                   [1.7976931348623157e308, -1.7976931348623157e308,
                    2.2250738585072014e-308, 0.1]]))
def test_write_csv_round_trips_any_finite_matrix_bit_for_bit(tmp_path_factory,
                                                             matrix):
    path = tmp_path_factory.getbasetemp() / "matrix.csv"
    # rows of Python floats, as the writers pass them, and of numpy scalars
    for rows in (matrix.tolist(), matrix):
        write_csv(path, rows)
        read = read_csv_matrix(path)
        assert read.shape == matrix.shape
        assert np.array_equal(read.view(np.uint64), matrix.view(np.uint64))


def test_csv_header_line_is_ignored(tmp_path):
    path = tmp_path / "dict.csv"
    path.write_text("atom_a,atom_b,atom_c\n1.0,0.0,0.7071067811865476\n"
                    "0.0,1.0,0.7071067811865475\n")
    matrix = read_csv_matrix(path)
    assert matrix.shape == (2, 3)


def test_csv_with_a_byte_order_mark_loads_the_same_matrix(tmp_path):
    # the mark used to make the first numeric row fail to parse, so it was
    # skipped as a header and the matrix lost a row
    text = "0.5,0.25,1.0\n0.0,2.0,0.125\n3.0,0.75,0.5\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    matrix = read_csv_matrix(marked)
    assert matrix.shape == (3, 3)
    assert np.array_equal(matrix, read_csv_matrix(plain))


def test_csv_parse_error_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,oops\n")
    with pytest.raises(ParseError, match=r"row 3, column 2"):
        read_csv_matrix(path)


def test_csv_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "garbage.csv"
    path.write_bytes(b"1.0,2.0\n\xff\xfe\x00garbage\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8")):
        read_csv_matrix(path)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        read_csv_matrix(path)
