"""Dictionary generation, mixture sampling, and dataset files.

Synthetic dictionaries are i.i.d. standard normal draws projected onto the
positive orthant and column normalized. Mixtures draw k distinct atoms
uniformly without replacement with coefficients uniform on (0, 1], open at
zero so every ground-truth atom genuinely participates. All rows are drawn at
once: Floyd's subset algorithm (Bentley & Floyd, CACM 1987) picks every row's
k-subset in k vectorised steps, and each row is then shuffled so the order of
its atoms is exchangeable. A Lorentzian-peak surrogate generator stands in
for a real spectra library and produces the same kind of coherent, smooth,
non-negative atoms.

Dataset files are an export only: CSV shards (one mixture per row: k
"index:coefficient" cells, then the signal values) next to a JSON sidecar
recording dimensions, sparsity, seed, sample count, and the coefficient law.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    EmptyInput,
    EmptyLibrary,
    OutOfRange,
    ParseError,
    ZeroSparsity,
)
from .types import (
    Dictionary,
    Sample,
    read_csv_matrix,
    validate_dictionary,
    write_csv,
    write_json,
)

log = logging.getLogger(__name__)

COEFFICIENT_LAW = "uniform(0,1]"
REDRAW_CAP = 100
#: most rows per block of :func:`row_blocks`, unless a caller gives its own
SYNTH_BLOCK = 256


@dataclass(frozen=True)
class MixtureConfig:
    """How many mixtures to draw and at what sparsity."""

    sparsity: int
    num_samples: int
    seed: int | np.random.SeedSequence = 0


def _draw_nonneg_column(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One positive-orthant-projected normal column, redrawn if it lands at zero."""
    for _ in range(REDRAW_CAP):
        col = np.maximum(rng.standard_normal(dim), 0.0)
        norm = np.linalg.norm(col)
        if norm > 0.0:
            return col / norm
    raise DegenerateColumn(f"column stayed zero after {REDRAW_CAP} redraws")


def generate_synthetic_dictionary(signal_dim: int, num_atoms: int,
                                  seed: int | np.random.SeedSequence) -> Dictionary:
    """Random non-negative dictionary: clipped normal entries, unit columns."""
    rng = np.random.default_rng(seed)
    atoms = np.maximum(rng.standard_normal((signal_dim, num_atoms)), 0.0)
    norms = np.linalg.norm(atoms, axis=0)
    for j in np.flatnonzero(norms == 0.0):
        atoms[:, j] = _draw_nonneg_column(rng, signal_dim)
        norms[j] = 1.0
    atoms /= norms
    return validate_dictionary(atoms)


@dataclass(frozen=True)
class Mixtures:
    """Noiseless mixtures as their ground truth, one row each.

    ``supports`` (n, k) holds each row's k distinct atom indices into
    ``atoms`` and ``coeffs`` (n, k) their weights. ``signals`` synthesises
    the (n, signal_dim) stack on every read; a consumer of some rows calls
    :func:`synthesize` on theirs and gets the same rows bit for bit.
    Iterating yields one :class:`Sample` per row.
    """

    atoms: np.ndarray
    supports: np.ndarray
    coeffs: np.ndarray

    @property
    def signals(self) -> np.ndarray:
        return synthesize(self.atoms, self.supports, self.coeffs)

    def __len__(self) -> int:
        return len(self.supports)

    def __iter__(self):
        for y, s, c in zip(self.signals, self.supports, self.coeffs):
            yield Sample(signal=y, true_support=s, true_coeffs=c)


def sample_mixture(dictionary: Dictionary, config: MixtureConfig) -> Mixtures:
    """Draw noiseless non-negative mixtures as supports and coefficients."""
    k, n = config.sparsity, config.num_samples
    if k < 1:
        raise ZeroSparsity("sparsity must be >= 1")
    if n < 1:
        raise EmptyInput("num_samples must be >= 1")
    if k > dictionary.num_atoms:
        raise DimensionMismatch(
            f"sparsity {k} exceeds the {dictionary.num_atoms} available atoms"
        )
    rng = np.random.default_rng(config.seed)
    # Floyd: column c draws from 0..j, and a row that already holds the draw
    # takes j, which no earlier column can hold
    supports = np.empty((n, k), dtype=np.int64)
    for c, j in enumerate(range(dictionary.num_atoms - k, dictionary.num_atoms)):
        v = rng.integers(0, j + 1, size=n)
        taken = (supports[:, :c] == v[:, None]).any(axis=1)
        supports[:, c] = np.where(taken, j, v)
    supports = rng.permuted(supports, axis=1)
    coeffs = 1.0 - rng.random((n, k))  # uniform on (0, 1]
    return Mixtures(dictionary.atoms, supports, coeffs)


def row_blocks(n: int, most: int = SYNTH_BLOCK) -> list[slice]:
    """The fewest near-equal slices of at most ``most`` rows that cover
    ``range(n)``, in order; none when ``n == 0``.

    Sizes differ by at most one, so no block is a lone row unless ``n == 1``
    or ``most <= 2``: a one-row product takes numpy's matrix-vector path,
    which can round differently from the matrix product of a larger block.
    """
    blocks = -(-n // most)
    return [slice(n * i // blocks, n * (i + 1) // blocks)
            for i in range(blocks)]


def synthesize(atoms: np.ndarray, supports: np.ndarray,
               coeffs: np.ndarray) -> np.ndarray:
    """Mixture signals ``atoms[:, supports[b]] @ coeffs[b]`` for every row b.

    ``supports`` (B, k) holds atom indices and ``coeffs`` (B, k) their
    weights; returns the (B, signal_dim) stack. Rows are independent, so a
    row comes out bit-identical whatever batch it is synthesised in.
    """
    signals = np.empty((len(supports), atoms.shape[0]))
    # the gathered atoms are k times the size of the signals they make, so
    # they are gathered a block of rows at a time
    for rows in row_blocks(len(supports)):
        picked = np.moveaxis(atoms[:, supports[rows]], 0, 1)  # (B, M, k)
        signals[rows] = np.matmul(picked, coeffs[rows, :, None])[..., 0]
    return signals


def load_raman_library(path) -> Dictionary:
    """Load a spectra library CSV (rows = wavenumbers, columns = spectra).

    Spectra arrive unnormalized; columns are normalized on load and negative
    readings are clamped to zero with the clamp count reported via logging.
    """
    if not os.path.exists(path):
        raise ParseError(f"cannot read {path}: no such file")
    if os.path.getsize(path) == 0:
        raise EmptyLibrary(f"{path}: empty library file")
    matrix = read_csv_matrix(path)
    negatives = int(np.count_nonzero(matrix < 0.0))
    if negatives:
        log.warning("%s: clamped %d negative readings to zero", path, negatives)
        matrix = np.maximum(matrix, 0.0)
    norms = np.linalg.norm(matrix, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumn(f"{path}: spectrum {zero[0]} is identically zero")
    return validate_dictionary(matrix / norms)


def generate_raman_surrogate(signal_dim: int, num_atoms: int, peaks_per_atom: int,
                             seed: int | np.random.SeedSequence) -> Dictionary:
    """Spectra-like dictionary: each atom is a sum of Lorentzian lines.

    Peak centers are uniform over the grid, half-widths are log-uniform from
    2 to ``max(2, signal_dim / 4)`` grid bins, peak heights are uniform on
    (0, 1]. Smooth overlapping lines make these atoms markedly more coherent
    than clipped-normal random atoms of the same size.
    """
    if peaks_per_atom < 1:
        raise OutOfRange("peaks_per_atom must be >= 1")
    lo, hi = 2.0, max(2.0, signal_dim / 4.0)
    rng = np.random.default_rng(seed)
    grid = np.arange(signal_dim, dtype=np.float64)
    atoms = np.empty((signal_dim, num_atoms), order="F")
    for j in range(num_atoms):
        centers = rng.uniform(0.0, signal_dim - 1.0, size=peaks_per_atom)
        widths = np.exp(rng.uniform(np.log(lo), np.log(hi), size=peaks_per_atom))
        heights = 1.0 - rng.random(peaks_per_atom)
        col = np.zeros(signal_dim)
        for c, w, h in zip(centers, widths, heights):
            col += h * w**2 / ((grid - c) ** 2 + w**2)
        atoms[:, j] = col / np.linalg.norm(col)
    return validate_dictionary(atoms)


# -- dataset shards ---------------------------------------------------------------


def write_dataset(shards, directory, *, dictionary: Dictionary, sparsity: int,
                  seed: int) -> list[str]:
    """Write each :class:`Mixtures` shard as one CSV file, plus a JSON sidecar.

    Replaces the ``shard_*.csv`` files of an earlier call, so the shards in
    ``directory`` are exactly the sidecar's; other files stay. Returns the
    paths written: the shards in order, then the sidecar. A shard's signals
    are synthesised one :func:`row_blocks` block at a time, the same bytes
    as its ``signals``, so its whole signal stack is never held.
    """
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        if name.startswith("shard_") and name.endswith(".csv"):
            os.remove(os.path.join(directory, name))
    paths = []
    count = 0
    for index, shard in enumerate(shards):
        path = os.path.join(directory, f"shard_{index:05d}.csv")
        write_csv(path, _shard_rows(shard))
        paths.append(path)
        count += len(shard)
    path = os.path.join(directory, "dataset.json")
    write_json(path, {
        "signal_dim": dictionary.signal_dim,
        "num_atoms": dictionary.num_atoms,
        "k": sparsity,
        "seed": seed,
        "num_samples": count,
        "coefficient_law": COEFFICIENT_LAW,
    })
    return paths + [path]


def _shard_rows(shard: Mixtures):
    """Each mixture's CSV row: its k ``index:coefficient`` cells, then its
    signal values, synthesised one :func:`row_blocks` block at a time as
    ``Mixtures.signals`` would. One row at a time is held as Python floats,
    which take 4 times its array's size."""
    for rows in row_blocks(len(shard)):
        supports, coeffs = shard.supports[rows], shard.coeffs[rows]
        for signal, support, weights in zip(
                synthesize(shard.atoms, supports, coeffs),
                supports.tolist(), coeffs.tolist()):
            yield [f"{i}:{c}" for i, c in zip(support, weights)] + signal.tolist()
