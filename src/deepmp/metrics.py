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
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .datagen import MixtureConfig, sample_mixture
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
from .solvers import ProjectionMode, hard_max_pursuit, nnomp_pursuit
from .solvers import nnmp_solve  # unused here; perfbench/tracing.py wraps it here
from .solvers import nnomp_solve  # unused here; perfbench/tracing.py wraps it here
from .types import Dictionary

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


def epsilon_error(dictionary: Dictionary, signals, codes) -> float:
    """Mean relative residual norm ||y - atoms @ x|| / ||y|| over aligned rows.

    ``signals`` is (B, signal_dim) and ``codes`` (B, num_atoms).
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
    norms = np.linalg.norm(signals, axis=1)
    if np.any(norms == 0.0):
        raise ZeroSignal("relative error undefined for a zero signal")
    return float(np.mean(np.linalg.norm(signals - codes @ atoms.T, axis=1) / norms))


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

    Clipped into [0, 1], in the row-major order of the Gram matrix's strict
    upper triangle; the input is normalized internally, never modified.
    """
    normed = _normalized_columns(matrix)
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

    ``seconds`` is the wall time of the solver's call on each sparsity level's
    stack; it varies between runs, so the metrics files leave it out.
    """

    solver: str
    num_test: int
    recovery: dict[int, float] = field(default_factory=dict)
    epsilon: dict[int, float] = field(default_factory=dict)
    seconds: dict[int, float] = field(default_factory=dict)


def nnmp_runner(dictionary: Dictionary,
                proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT) -> SweepSolver:
    """NNMP on every signal with one call of the batched pursuit kernel."""
    atoms = dictionary.atoms

    def run(signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        stack = np.broadcast_to(atoms, (k, *atoms.shape))
        supports, codes, _, _ = hard_max_pursuit(stack, atoms, signals, proj)
        return supports, codes

    return run


def nnomp_runner(dictionary: Dictionary) -> SweepSolver:
    """NNOMP on every signal with one call of the batched NNOMP kernel."""
    atoms = dictionary.atoms

    def run(signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        supports, codes, _, _ = nnomp_pursuit(atoms, signals, k)
        return supports, codes

    return run


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


def run_sweep(dictionary: Dictionary, solvers: Mapping[str, SweepSolver],
              k_range, num_test: int, seed: int) -> dict[str, MetricsReport]:
    """Evaluate every solver on fresh test mixtures at each sparsity level.

    Each solver runs with budget equal to the mixture sparsity on the stack
    of that level's test signals; all solvers see identical test sets. The
    wall time of each solver call goes to its report's ``seconds``.
    """
    reports = {
        label: MetricsReport(solver=label, num_test=num_test) for label in solvers
    }
    for k in k_range:
        test = sample_mixture(
            dictionary,
            MixtureConfig(sparsity=k, num_samples=num_test,
                          seed=child_seed(seed, TEST_STREAM, k)),
        )
        signals, truth = test.signals, test.supports
        for label, solve in solvers.items():
            start = time.perf_counter()
            supports, codes = solve(signals, k)
            reports[label].seconds[k] = time.perf_counter() - start
            reports[label].recovery[k] = float(
                np.mean(row_recovery(supports, truth))
            )
            reports[label].epsilon[k] = epsilon_error(dictionary, signals, codes)
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
