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

Dataset files are CSV shards (one mixture per row: k "index:coefficient"
cells, then the signal values) next to a JSON sidecar recording dimensions,
sparsity, seed, sample count, and the coefficient law.
"""

from __future__ import annotations

import json
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
from .types import Dictionary, Sample, read_csv_matrix, validate_dictionary

log = logging.getLogger(__name__)

COEFFICIENT_LAW = "uniform(0,1]"
REDRAW_CAP = 100
#: rows per block in which :func:`synthesize` gathers atoms
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
    """A stack of noiseless mixtures with their ground truth, one row each.

    ``signals`` is (n, signal_dim); ``supports`` (n, k) holds each row's k
    distinct atom indices and ``coeffs`` (n, k) their weights, so row b's
    signal is ``synthesize(atoms, supports, coeffs)[b]``. Iterating yields
    one :class:`Sample` per row.
    """

    signals: np.ndarray
    supports: np.ndarray
    coeffs: np.ndarray

    def __len__(self) -> int:
        return len(self.supports)

    def __iter__(self):
        for y, s, c in zip(self.signals, self.supports, self.coeffs):
            yield Sample(signal=y, true_support=s, true_coeffs=c)


def sample_mixture(dictionary: Dictionary, config: MixtureConfig) -> Mixtures:
    """Draw noiseless non-negative mixtures with recorded ground truth."""
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
    return Mixtures(synthesize(dictionary.atoms, supports, coeffs),
                    supports, coeffs)


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
    for lo in range(0, len(supports), SYNTH_BLOCK):
        rows = slice(lo, lo + SYNTH_BLOCK)
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
                             seed: int | np.random.SeedSequence,
                             width_range: tuple[float, float] | None = None
                             ) -> Dictionary:
    """Spectra-like dictionary: each atom is a sum of Lorentzian lines.

    Peak centers are uniform over the grid, half-widths are log-uniform over
    ``width_range`` (default 2 to signal_dim/4 grid bins), peak heights are
    uniform on (0, 1]. Smooth overlapping lines make these atoms markedly more
    coherent than clipped-normal random atoms of the same size.
    """
    if peaks_per_atom < 1:
        raise OutOfRange("peaks_per_atom must be >= 1")
    if width_range is None:
        width_range = (2.0, max(2.0, signal_dim / 4.0))
    lo, hi = width_range
    if not (0.0 < lo <= hi):
        raise OutOfRange(f"bad width_range {width_range}")
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
                  seed: int) -> dict:
    """Write each :class:`Mixtures` shard as one CSV file, plus a JSON sidecar.

    Returns the sidecar.
    """
    os.makedirs(directory, exist_ok=True)
    count = 0
    for index, shard in enumerate(shards):
        path = os.path.join(directory, f"shard_{index:05d}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            # one row's signal at a time: a whole shard as Python floats
            # would be 4 times its array's size
            for signal, support, coeffs in zip(shard.signals,
                                               shard.supports.tolist(),
                                               shard.coeffs.tolist()):
                cells = [f"{i}:{c!r}" for i, c in zip(support, coeffs)]
                cells.extend(repr(v) for v in signal.tolist())
                fh.write(",".join(cells))
                fh.write("\n")
        count += len(shard)
    sidecar = {
        "signal_dim": dictionary.signal_dim,
        "num_atoms": dictionary.num_atoms,
        "k": sparsity,
        "seed": seed,
        "num_samples": count,
        "coefficient_law": COEFFICIENT_LAW,
    }
    with open(os.path.join(directory, "dataset.json"), "w", encoding="utf-8") as meta:
        json.dump(sidecar, meta, indent=2, sort_keys=True)
        meta.write("\n")
    return sidecar


def read_dataset_meta(directory) -> dict:
    with open(os.path.join(directory, "dataset.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def iter_dataset(directory):
    """Stream samples back from CSV shards, in written order.

    Raises ParseError naming the file and row when a row does not parse, its
    signal does not have the sidecar's ``signal_dim`` finite values, its atom
    indices are not ``k`` distinct indices in ``[0, num_atoms)``, or a
    coefficient lies outside the (0, 1] of the coefficient law.
    """
    meta = read_dataset_meta(directory)
    k = int(meta["k"])
    signal_dim, num_atoms = int(meta["signal_dim"]), int(meta["num_atoms"])
    shards = sorted(
        f for f in os.listdir(directory)
        if f.startswith("shard_") and f.endswith(".csv")
    )
    for shard in shards:
        path = os.path.join(directory, shard)
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                try:
                    pairs = [cell.split(":") for cell in cells[:k]]
                    support = np.array([int(i) for i, _ in pairs], dtype=np.int64)
                    coeffs = np.array([float(c) for _, c in pairs])
                    signal = np.array([float(v) for v in cells[k:]])
                except (ValueError, IndexError):
                    raise ParseError(f"{path}: row {lineno} is malformed") from None
                if signal.size != signal_dim:
                    raise ParseError(
                        f"{path}: row {lineno} has {signal.size} signal "
                        f"values, not {signal_dim}"
                    )
                if not np.isfinite(signal).all():
                    raise ParseError(
                        f"{path}: row {lineno} has a non-finite signal value"
                    )
                if (np.unique(support).size != k or support.min() < 0
                        or support.max() >= num_atoms):
                    raise ParseError(
                        f"{path}: row {lineno} atoms {support.tolist()} are "
                        f"not {k} distinct indices in [0, {num_atoms})"
                    )
                # NaN fails both comparisons
                if not ((coeffs > 0.0) & (coeffs <= 1.0)).all():
                    raise ParseError(
                        f"{path}: row {lineno} coefficients {coeffs.tolist()} "
                        f"are not all in (0, 1]"
                    )
                yield Sample(signal=signal, true_support=support,
                             true_coeffs=coeffs)
