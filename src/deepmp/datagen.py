"""Dictionary generation, mixture sampling, and dataset files.

Synthetic dictionaries are i.i.d. standard normal draws projected onto the
positive orthant and column normalized. Mixtures draw k distinct atoms
uniformly without replacement with coefficients uniform on (0, 1], open at
zero so every ground-truth atom genuinely participates. A Lorentzian-peak
surrogate generator stands in for a real spectra library and produces the
same kind of coherent, smooth, non-negative atoms.

Dataset files are CSV shards (one sample per row: k "index:coefficient"
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


def sample_mixture(dictionary: Dictionary, config: MixtureConfig) -> list[Sample]:
    """Draw noiseless non-negative mixtures with recorded ground truth."""
    k = config.sparsity
    if k < 1:
        raise ZeroSparsity("sparsity must be >= 1")
    if config.num_samples < 1:
        raise EmptyInput("num_samples must be >= 1")
    if k > dictionary.num_atoms:
        raise DimensionMismatch(
            f"sparsity {k} exceeds the {dictionary.num_atoms} available atoms"
        )
    rng = np.random.default_rng(config.seed)
    supports = np.empty((config.num_samples, k), dtype=np.int64)
    coeffs = np.empty((config.num_samples, k))
    for i in range(config.num_samples):
        supports[i] = rng.choice(dictionary.num_atoms, size=k, replace=False)
        coeffs[i] = 1.0 - rng.random(k)  # uniform on (0, 1]
    signals = synthesize(dictionary.atoms, supports, coeffs)
    return [
        Sample(signal=y, true_support=s, true_coeffs=c, sparsity=k)
        for y, s, c in zip(signals, supports, coeffs)
    ]


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


def write_dataset(samples, directory, *, dictionary: Dictionary, sparsity: int,
                  seed: int, shard_size: int = 8192) -> dict:
    """Write samples as CSV shards plus a JSON sidecar; returns the sidecar."""
    os.makedirs(directory, exist_ok=True)
    count = 0
    shard_idx = 0
    fh = None
    try:
        for sample in samples:
            if fh is None or count % shard_size == 0:
                if fh is not None:
                    fh.close()
                shard_path = os.path.join(directory, f"shard_{shard_idx:05d}.csv")
                fh = open(shard_path, "w", encoding="utf-8")
                shard_idx += 1
            cells = [
                f"{int(i)}:{float(c)!r}"
                for i, c in zip(sample.true_support, sample.true_coeffs)
            ]
            cells.extend(repr(v) for v in sample.signal.tolist())
            fh.write(",".join(cells))
            fh.write("\n")
            count += 1
    finally:
        if fh is not None:
            fh.close()
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
    """Stream samples back from CSV shards, in written order."""
    meta = read_dataset_meta(directory)
    k = int(meta["k"])
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
                yield Sample(
                    signal=signal, true_support=support,
                    true_coeffs=coeffs, sparsity=k,
                )
