"""Evaluation metrics and the sweep harness.

* support recovery: normalized Hamming-distance complement, reduced to the
  fraction of ground-truth atoms recovered (duplicate selections collapse to
  distinct indices before intersecting);
* relative reconstruction error: mean of ||y - reconstruction|| / ||y||;
* mutual coherence of a matrix and the empirical CDF of all pairwise column
  coherences on a grid over [0, 1].

``run_sweep`` draws fresh test mixtures per sparsity level (stream disjoint
from training by construction), synthesises their signals one
:func:`~deepmp.datagen.row_blocks` block at a time and hands each block to
every solver, keeps both metrics per row and averages them per solver and
level. The signals and the solvers' (rows, atoms) codes and scores stay
block-sized whatever the number of test mixtures. Pursuit rows are
independent, but BLAS may round a row's products differently at another
row count, so blocking is not bit-exact in general: the tests check that
the sweep's numbers equal one whole-stack call's on their test sets, with
no block a lone row, whose matrix-vector product rounds apart most often.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .datagen import MixtureConfig, row_blocks, sample_mixture, synthesize
from .errors import (
    DimensionMismatch,
    MissingModel,
    SparsityMismatch,
    ZeroColumn,
    ZeroSignal,
    ZeroSparsity,
)
from .network import UnfoldedModel, batched_infer
from .network import forward_infer  # unused here; perfbench/tracing.py wraps it here
from .seeding import TEST_STREAM, child_seed
from .solvers import ProjectionMode, dictionary_pursuit, row_norms
from .solvers import nnmp_solve  # unused here; perfbench/tracing.py wraps it here
from .solvers import nnomp_solve  # unused here; perfbench/tracing.py wraps it here
from .types import Dictionary, write_csv, write_json

#: default ECDF grid resolution over [0, 1]
ECDF_GRID_POINTS = 200

#: (signals (B, M), sparsity k) -> (supports (B, k) padded with -1, codes (B, N))
SweepSolver = Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]


def hamming_complement(acquired, truth, sparsity: int) -> float:
    """Fraction of ground-truth atoms recovered, in [0, 1].

    Duplicate selections count once; ``truth`` is assumed to hold ``sparsity``
    distinct indices.
    """
    if sparsity < 1:
        raise ZeroSparsity("sparsity must be >= 1")
    # intersect1d returns the sorted distinct common values
    found = np.intersect1d(np.asarray(acquired, dtype=np.int64),
                           np.asarray(truth, dtype=np.int64))
    return found.size / sparsity


def row_recovery(supports: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """:func:`hamming_complement` of every row of a support stack at once.

    ``supports`` (B, budget) may repeat picks and carry -1 padding after an
    early stop; ``truth`` (B, k) holds each row's k distinct true atoms.
    Returns the (B,) fraction of each row's true atoms that were picked.
    """
    k = truth.shape[1]
    if k < 1:
        raise ZeroSparsity("sparsity must be >= 1")
    hits = (truth[:, :, None] == supports[:, None, :]).any(axis=2)
    return hits.sum(axis=1) / k


def row_epsilon(dictionary: Dictionary, signals, codes) -> np.ndarray:
    """Relative residual norm ||y - atoms @ x|| / ||y|| of every aligned row.

    ``signals`` is (B, signal_dim) and ``codes`` (B, num_atoms); returns (B,).
    """
    signals = np.asarray(signals, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    atoms = dictionary.atoms
    if (signals.shape[1:] != atoms.shape[:1]
            or codes.shape != (len(signals), atoms.shape[1])):
        raise DimensionMismatch(
            f"signals {signals.shape} and codes {codes.shape} do not pair "
            f"with a {atoms.shape} dictionary"
        )
    norms = row_norms(signals)
    if np.any(norms == 0.0):
        raise ZeroSignal("relative error undefined for a zero signal")
    return row_norms(signals - codes @ atoms.T) / norms


def epsilon_error(dictionary: Dictionary, signals, codes) -> float:
    """Mean of :func:`row_epsilon` over aligned rows."""
    return float(np.mean(row_epsilon(dictionary, signals, codes)))


def pairwise_coherences(matrix) -> np.ndarray:
    """Normalized absolute inner products of all unordered column pairs.

    Clipped into [0, 1], in the row-major order of the Gram matrix's strict
    upper triangle; the input is normalized internally, never modified.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 2:
        raise DimensionMismatch("coherence needs a 2-D matrix with >= 2 columns")
    norms = np.linalg.norm(m, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumn(f"column {int(np.flatnonzero(norms == 0.0)[0])} is zero")
    normed = m / norms
    del m
    gram = normed.T @ normed
    del normed
    upper = np.tri(len(gram), dtype=bool)
    np.logical_not(upper, out=upper)  # the strict upper triangle
    pairs = gram[upper]
    np.abs(pairs, out=pairs)
    return np.clip(pairs, 0.0, 1.0, out=pairs)


def coherence(matrix) -> float:
    """Largest pairwise column coherence (the mutual coherence)."""
    return float(pairwise_coherences(matrix).max())


def coherence_ecdf(matrix, grid=None) -> list[tuple[float, float]]:
    """Fraction of column pairs with coherence <= t, for each grid point t."""
    if grid is None:
        grid = np.linspace(0.0, 1.0, ECDF_GRID_POINTS)
    pairs = pairwise_coherences(matrix)
    pairs.sort()
    counts = np.searchsorted(pairs, np.asarray(grid, dtype=np.float64),
                             side="right")
    return [(float(t), float(c) / pairs.size) for t, c in zip(grid, counts)]


# -- sweep harness ------------------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-sparsity recovery, reconstruction error and solver wall time.

    ``seconds`` is the solver's wall time at each sparsity level, summed over
    its calls on that level's row blocks; it varies between runs, so the
    metrics files leave it out.
    """

    solver: str
    num_test: int
    recovery: dict[int, float] = field(default_factory=dict)
    epsilon: dict[int, float] = field(default_factory=dict)
    seconds: dict[int, float] = field(default_factory=dict)


def nnmp_runner(dictionary: Dictionary,
                proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT) -> SweepSolver:
    """NNMP on every signal: :func:`~deepmp.solvers.dictionary_pursuit`
    with the MP update."""
    return lambda signals, k: dictionary_pursuit(dictionary, signals, k, proj)[:2]


def nnomp_runner(dictionary: Dictionary) -> SweepSolver:
    """NNOMP on every signal: :func:`~deepmp.solvers.dictionary_pursuit`
    with the refit update."""
    return lambda signals, k: dictionary_pursuit(dictionary, signals, k, None)[:2]


def deepmp_runner(models: Mapping[int, UnfoldedModel]) -> SweepSolver:
    """Dispatch to one trained model per sparsity level.

    Raises SparsityMismatch when a model's depth differs from its level.
    """
    models = dict(models)
    for k, model in models.items():
        if model.depth != k:
            raise SparsityMismatch(
                f"model for sparsity {k} has depth {model.depth}"
            )

    def run(signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k not in models:
            raise MissingModel(f"no trained model for sparsity {k}")
        return batched_infer(models[k], signals)

    return run


def run_sweep(dictionary: Dictionary, solvers, k_range, num_test: int,
              seed: int) -> dict[str, MetricsReport]:
    """Evaluate every solver on fresh test mixtures at each sparsity level.

    ``solvers`` maps labels to :data:`SweepSolver` functions, or is a
    function of k that returns that level's mapping; a function is called
    once per level, after the previous level's mapping is released. Each
    solver runs with budget equal to the mixture sparsity, on one
    :func:`~deepmp.datagen.row_blocks` block of the level's test signals at
    a time; each block is synthesised once and handed to every solver, so
    all solvers see identical test sets. Recovery and epsilon are means over every test
    row, and the wall time of a level's solver calls goes to its report's
    ``seconds``.
    """
    reports: dict[str, MetricsReport] = {}
    for k in k_range:
        test = sample_mixture(
            dictionary,
            MixtureConfig(sparsity=k, num_samples=num_test,
                          seed=child_seed(seed, TEST_STREAM, k)),
        )
        level = solvers(k) if callable(solvers) else solvers
        # one row per solver
        recovery, epsilon = np.empty((2, len(level), num_test))
        for label in level:
            reports.setdefault(label, MetricsReport(
                solver=label, num_test=num_test)).seconds[k] = 0.0
        for rows in row_blocks(num_test):
            signals = synthesize(dictionary.atoms, test.supports[rows],
                                 test.coeffs[rows])
            for j, label in enumerate(level):
                start = time.perf_counter()
                supports, codes = level[label](signals, k)
                reports[label].seconds[k] += time.perf_counter() - start
                recovery[j, rows] = row_recovery(supports, test.supports[rows])
                epsilon[j, rows] = row_epsilon(dictionary, signals, codes)
                # released before the next solver builds its own
                del supports, codes
        for label, rec, eps in zip(level, recovery.mean(axis=1),
                                   epsilon.mean(axis=1)):
            reports[label].recovery[k] = float(rec)
            reports[label].epsilon[k] = float(eps)
        # released before the next level's mixtures are drawn and its mapping
        # built, so a function that loads a model per level holds one at a time
        del level, test
    return reports


# -- report files -------------------------------------------------------------------


def write_metrics_csv(reports: Mapping[str, MetricsReport], path) -> None:
    write_csv(path, ([label, k, report.recovery[k], report.epsilon[k]]
                     for label, report in sorted(reports.items())
                     for k in sorted(report.recovery)),
              "solver,k,recovery,epsilon")


def write_metrics_json(reports: Mapping[str, MetricsReport], path) -> None:
    write_json(path, {
        label: {
            "solver": rep.solver,
            "num_test": rep.num_test,
            "recovery": {str(k): v for k, v in sorted(rep.recovery.items())},
            "epsilon": {str(k): v for k, v in sorted(rep.epsilon.items())},
        }
        for label, rep in reports.items()
    })
