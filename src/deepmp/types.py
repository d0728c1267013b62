"""Shared mathematical objects: dictionaries, signals, codes, supports, samples.

All numerics are float64, apart from training's working arrays (see
:mod:`deepmp.training`). Atom matrices are kept column-contiguous (Fortran
order) because the hot kernel everywhere is the correlation ``atoms.T @ r``,
one dot product per atom, which walks columns.

Conventions: the kernels take stacks, one row per signal, for a dictionary
of ``signal_dim`` = M rows and ``num_atoms`` = N atoms.

* signals are (B, M) floats; sparse codes are (B, N) floats, non-negative
  with at most ``budget`` nonzeros per row for a pursuit;
* supports are (B, k) ints: atom indices in selection order, -1 after a
  pursuit's early stop. Plain matching pursuit may select an atom more than
  once, so repeats are allowed and order is meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEntry,
    NotNormalized,
    NotOvercomplete,
    ParseError,
)

#: validation gate on column norms
NORM_TOL = 1e-6

#: bytes a binary reader or hasher holds at a time
READ_BYTES = 1 << 20


@dataclass(frozen=True)
class Dictionary:
    """Overcomplete non-negative generative model; columns are unit-norm atoms.

    Construct via :func:`validate_dictionary` so the invariants hold. The atom
    matrix is frozen (read-only) after construction and safe to share across
    threads.
    """

    atoms: np.ndarray

    @property
    def signal_dim(self) -> int:
        return self.atoms.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class Sample:
    """A noiseless mixture together with the ground truth that generated it.

    ``signal`` equals the weighted sum of the ``true_support`` atoms with
    weights ``true_coeffs`` (all strictly positive); ``true_support`` holds
    distinct atom indices, one per coefficient.
    """

    signal: np.ndarray
    true_support: np.ndarray
    true_coeffs: np.ndarray


def validate_dictionary(atoms) -> Dictionary:
    """Check the dictionary invariants and freeze a copy of the atom matrix.

    Requirements: a non-empty 2-D matrix with strictly more columns (atoms)
    than rows (signal dimensions), non-negative entries, and unit Euclidean
    column norms within ``NORM_TOL``.
    """
    return _own_dictionary(np.array(atoms, dtype=np.float64, order="F"))


def _own_dictionary(a: np.ndarray) -> Dictionary:
    """:func:`validate_dictionary` of a float64 matrix it may keep: the
    matrix is checked and frozen in place, not copied."""
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatch(
            f"expected a non-empty 2-D matrix, got shape {a.shape}"
        )
    rows, cols = a.shape
    if rows >= cols:
        raise NotOvercomplete(f"need signal_dim < num_atoms, got {rows}x{cols}")
    if np.any(a < 0.0):
        raise NegativeEntry("dictionary entries must be non-negative")
    norms = np.sqrt(np.einsum("mn,mn->n", a, a))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        raise NotNormalized(f"column {bad[0]} has norm {float(norms[bad[0]])}")
    a.flags.writeable = False
    return Dictionary(a)


# -- CSV and JSON serialization ---------------------------------------------
#
# Every CSV and JSON artifact is written by write_csv or write_json. A CSV is
# UTF-8 text, one "\n"-ended line per row, its cells joined by commas as str
# gives them: a Python float's str is its shortest round-trip text, so a
# matrix written as floats reads back bit-exact. JSON is UTF-8, indented by 2,
# with sorted keys and a final newline. A dictionary CSV has one row per
# signal dimension, comma-separated columns are atoms. An optional first
# header line is ignored when it fails numeric parse.


def write_csv(path, rows, header=None) -> None:
    """Write each row of ``rows`` as one line of its cells' ``str``, joined
    by commas, after ``header`` as the first line when it is given."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON indented by 2, keys sorted, newline-ended."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv_matrix(path) -> np.ndarray:
    """Parse a dense numeric CSV matrix, skipping one optional header line.

    Raises ParseError naming the file when it is not UTF-8 text, a cell is
    not numeric, rows differ in length, or no numeric row is found.
    """
    rows: list[np.ndarray] = []
    # utf-8-sig drops a leading byte-order mark, which would otherwise make
    # the first row a header
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                try:
                    values = np.array([float(c) for c in cells])
                except ValueError:
                    if lineno == 1:
                        continue  # header
                    col = next(i for i, c in enumerate(cells)
                               if not _is_float(c))
                    raise ParseError(
                        f"{path}: row {lineno}, column {col + 1}: "
                        f"{cells[col].strip()!r} is not numeric"
                    ) from None
                if rows and len(values) != len(rows[0]):
                    raise ParseError(
                        f"{path}: row {lineno} has {len(values)} cells, "
                        f"expected {len(rows[0])}"
                    )
                rows.append(values)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise ParseError(f"{path}: no numeric rows")
    return np.array(rows, dtype=np.float64)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_dictionary_csv(dictionary: Dictionary, path) -> None:
    # one row's Python floats at a time
    write_csv(path, (row.tolist() for row in dictionary.atoms))


def load_dictionary_csv(path) -> Dictionary:
    """Load a dictionary written by :func:`save_dictionary_csv` (strict)."""
    return validate_dictionary(read_csv_matrix(path))
