"""Evaluation metrics and the sweep harness.

* support recovery: normalized Hamming-distance complement, reduced to the
  fraction of ground-truth atoms recovered (duplicate selections collapse to
  distinct indices before intersecting);
* relative reconstruction error: mean of ||y - reconstruction|| / ||y||;
* mutual coherence of a matrix and the empirical CDF of all pairwise column
  coherences on a grid over [0, 1].

``run_sweep`` draws fresh test mixtures per sparsity level (stream disjoint
from training by construction), hands each solver the whole stack of test
signals at once and aggregates both metrics per solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .datagen import MixtureConfig, sample_mixture
from .errors import (
    DimensionMismatch,
    MissingModel,
    ZeroColumn,
    ZeroSignal,
    ZeroSparsity,
)
from .network import UnfoldedModel, batched_infer
from .network import forward_infer  # unused here; perfbench/tracing.py wraps it here
from .seeding import TEST_STREAM, child_seed
from .solvers import ProjectionMode, hard_max_pursuit, nnomp_solve
from .solvers import nnmp_solve  # unused here; perfbench/tracing.py wraps it here
from .types import Dictionary, distinct_support

#: default ECDF grid resolution over [0, 1]
ECDF_GRID_POINTS = 200
#: default number of test mixtures per sparsity level
DEFAULT_NUM_TEST = 5000

#: (signals (B, M), sparsity k) -> (supports (B, k) padded with -1, codes (B, N))
SweepSolver = Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]


def hamming_complement(acquired, truth, sparsity: int) -> float:
    """Fraction of ground-truth atoms recovered, in [0, 1].

    Duplicate selections count once; ``truth`` is assumed to hold ``sparsity``
    distinct indices.
    """
    if sparsity < 1:
        raise ZeroSparsity("sparsity must be >= 1")
    found = np.intersect1d(distinct_support(acquired), distinct_support(truth))
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


def epsilon_error(dictionary: Dictionary, samples, codes) -> float:
    """Mean relative residual norm of reconstructions over aligned lists."""
    samples = list(samples)
    codes = list(codes)
    if len(samples) != len(codes):
        raise DimensionMismatch(
            f"{len(samples)} samples vs {len(codes)} codes"
        )
    total = 0.0
    for sample, code in zip(samples, codes):
        norm = np.linalg.norm(sample.signal)
        if norm == 0.0:
            raise ZeroSignal("relative error undefined for a zero signal")
        total += np.linalg.norm(sample.signal - dictionary.atoms @ code) / norm
    return float(total / len(samples))


def _normalized_columns(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 2:
        raise DimensionMismatch("coherence needs a 2-D matrix with >= 2 columns")
    norms = np.linalg.norm(m, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumn(f"column {int(np.flatnonzero(norms == 0.0)[0])} is zero")
    return m / norms


def pairwise_coherences(matrix) -> np.ndarray:
    """Normalized absolute inner products of all unordered column pairs.

    Clipped into [0, 1]; the input is normalized internally, never modified.
    """
    normed = _normalized_columns(matrix)
    gram = normed.T @ normed
    iu = np.triu_indices(gram.shape[0], k=1)
    return np.clip(np.abs(gram[iu]), 0.0, 1.0)


def coherence(matrix) -> float:
    """Largest pairwise column coherence (the mutual coherence)."""
    return float(pairwise_coherences(matrix).max())


def coherence_ecdf(matrix, grid=None) -> list[tuple[float, float]]:
    """Fraction of column pairs with coherence <= t, for each grid point t."""
    if grid is None:
        grid = np.linspace(0.0, 1.0, ECDF_GRID_POINTS)
    pairs = np.sort(pairwise_coherences(matrix))
    counts = np.searchsorted(pairs, np.asarray(grid, dtype=np.float64),
                             side="right")
    return [(float(t), float(c) / pairs.size) for t, c in zip(grid, counts)]


# -- sweep harness ------------------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-sparsity recovery and reconstruction error for one solver."""

    solver: str
    num_test: int
    recovery: dict[int, float] = field(default_factory=dict)
    epsilon: dict[int, float] = field(default_factory=dict)


def nnmp_runner(dictionary: Dictionary,
                proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT) -> SweepSolver:
    """NNMP on every signal with one call of the batched pursuit kernel."""
    atoms = dictionary.atoms

    def run(signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        supports, codes, _, _ = hard_max_pursuit([atoms] * k, atoms, signals, proj)
        return supports, codes

    return run


def nnomp_runner(dictionary: Dictionary) -> SweepSolver:
    """NNOMP, one signal at a time."""

    def run(signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        supports = np.full((len(signals), k), -1, dtype=np.int64)
        codes = np.zeros((len(signals), dictionary.num_atoms))
        for i, y in enumerate(signals):
            res = nnomp_solve(dictionary, y, k)
            supports[i, :res.steps_taken] = res.support
            codes[i] = res.code
        return supports, codes

    return run


def deepmp_runner(models: Mapping[int, UnfoldedModel]) -> SweepSolver:
    """Dispatch to one trained model per sparsity level."""
    models = dict(models)

    def run(signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k not in models:
            raise MissingModel(f"no trained model for sparsity {k}")
        return batched_infer(models[k], signals)

    return run


def run_sweep(dictionary: Dictionary, solvers: Mapping[str, SweepSolver],
              k_range, num_test: int, seed: int) -> dict[str, MetricsReport]:
    """Evaluate every solver on fresh test mixtures at each sparsity level.

    Each solver runs with budget equal to the mixture sparsity on the stack
    of that level's test signals; all solvers see identical test sets.
    """
    reports = {
        label: MetricsReport(solver=label, num_test=num_test) for label in solvers
    }
    for k in k_range:
        samples = sample_mixture(
            dictionary,
            MixtureConfig(sparsity=k, num_samples=num_test,
                          seed=child_seed(seed, TEST_STREAM, k)),
        )
        signals = np.stack([s.signal for s in samples])
        truth = np.stack([s.true_support for s in samples])
        for label, solve in solvers.items():
            supports, codes = solve(signals, k)
            reports[label].recovery[k] = float(
                np.mean(row_recovery(supports, truth))
            )
            reports[label].epsilon[k] = epsilon_error(dictionary, samples, codes)
            # released before the next solver builds its own
            del supports, codes
    return reports


# -- report files -------------------------------------------------------------------


def write_metrics_csv(reports: Mapping[str, MetricsReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("solver,k,recovery,epsilon\n")
        for label in sorted(reports):
            report = reports[label]
            for k in sorted(report.recovery):
                fh.write(
                    f"{label},{k},{report.recovery[k]!r},{report.epsilon[k]!r}\n"
                )


def write_metrics_json(reports: Mapping[str, MetricsReport], path) -> None:
    payload = {
        label: {
            "solver": rep.solver,
            "num_test": rep.num_test,
            "recovery": {str(k): v for k, v in sorted(rep.recovery.items())},
            "epsilon": {str(k): v for k, v in sorted(rep.epsilon.items())},
        }
        for label, rep in reports.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_ecdf_csv(points, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,fraction\n")
        for t, fraction in points:
            fh.write(f"{t!r},{fraction!r}\n")
