"""Greedy non-negative pursuit solvers.

Two reference algorithms operate on a fixed dictionary:

* ``nnmp_solve``  plain matching pursuit with a positivity loop guard and a
  projected residual update. Selected coefficients are raw correlations, so
  an atom may be picked repeatedly.
* ``nnomp_solve`` orthogonal variant: same greedy selection, but every step
  refits all selected coefficients with active-set non-negative least squares
  and recomputes the residual from the refit. Never re-selects an atom.

Plain MP and trained models share one kernel, :func:`hard_max_pursuit`, which
runs the pursuit over a stack of signals at once: the selection score comes
from a per-step selection matrix, while the residual update is always the
fixed-dictionary rule of :func:`residual_step`, so swapping the selection
matrices changes which atom is picked but never how the residual evolves.
``nnmp_solve`` is a one-row call of that kernel with the dictionary as every
selection matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    MaxIterationsExceeded,
    NonFiniteSignal,
    ZeroSparsity,
)
from .types import Dictionary

#: stop pursuing once the residual is numerical dust
RESIDUAL_FLOOR = 1e-12


class ProjectionMode(Enum):
    """Residual-update operator: identity or entrywise clamp at zero."""

    IDENTITY = "identity"
    POSITIVE_ORTHANT = "positive"


def project(values: np.ndarray, mode: ProjectionMode) -> np.ndarray:
    if mode is ProjectionMode.POSITIVE_ORTHANT:
        return np.maximum(values, 0.0)
    return values


@dataclass(frozen=True)
class PursuitResult:
    """Outcome of one pursuit run.

    ``support`` lists atom indices in selection order (repeats possible for
    plain MP). ``residual_norm_path`` holds the residual norm before the first
    step and after every completed step, so it has ``steps_taken + 1`` entries.
    ``steps_taken`` falls short of the budget only when a stopping test fired.
    """

    code: np.ndarray
    support: np.ndarray
    residual: np.ndarray
    steps_taken: int
    residual_norm_path: np.ndarray


def check_signals(signals, signal_dim: int) -> np.ndarray:
    """Signals as a float64 (batch, signal_dim) array of finite values.

    Accepts an array or a list of equal-length rows. Raises DimensionMismatch
    for any other shape and NonFiniteSignal for NaN or infinite entries.
    """
    try:
        s = np.asarray(signals, dtype=np.float64)
    except ValueError:
        raise DimensionMismatch("signals are not rows of one length") from None
    if s.ndim != 2 or s.shape[1] != signal_dim:
        raise DimensionMismatch(
            f"signals shape {s.shape}, expected (*, {signal_dim})"
        )
    if not np.isfinite(s).all():
        raise NonFiniteSignal("signals contain NaN or infinite entries")
    return s


def residual_step(atoms: np.ndarray, residuals: np.ndarray, index: np.ndarray,
                  proj: ProjectionMode) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-dictionary update of each row of a residual stack.

    Row b takes the dictionary correlation ``coeff[b] = <d_i, r_b>`` of its
    atom ``i = index[b]`` and becomes ``P(r_b - coeff[b] * d_i)``. Returns
    ``(coeff, new_residuals)``; the input stack is not modified.
    """
    picked = atoms[:, index]  # (M, B)
    coeff = np.einsum("mb,bm->b", picked, residuals)
    return coeff, project(residuals - coeff[:, None] * picked.T, proj)


def hard_max_pursuit(selection_mats, atoms: np.ndarray, signals,
                     proj: ProjectionMode
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run ``len(selection_mats)`` pursuit steps on every row of a signal stack.

    Step k scores each residual with ``selection_mats[k].T @ r`` and hard-max
    picks the winner (ties go to the lowest index); the row then takes the
    fixed-dictionary update of :func:`residual_step`, so the subtracted
    coefficient is the winner's dictionary correlation whatever drove the
    selection. A row stops for good once its residual norm is below
    ``RESIDUAL_FLOOR``, its best score is not strictly positive, or the
    winner's correlation is not strictly positive.

    Returns ``(supports, codes, residuals, norm_paths)``: supports is
    (batch, depth) in selection order with -1 after a row's stop, codes is
    (batch, num_atoms), residuals the final (batch, signal_dim) residuals, and
    norm_paths (batch, depth + 1) holds each row's residual norm before the
    first step and after every step, constant after its stop.
    """
    residuals = check_signals(signals, atoms.shape[0]).copy()
    batch, depth = residuals.shape[0], len(selection_mats)
    supports = np.full((batch, depth), -1, dtype=np.int64)
    codes = np.zeros((batch, atoms.shape[1]))
    norm_paths = np.empty((batch, depth + 1))
    norm_paths[:, 0] = np.linalg.norm(residuals, axis=1)
    live = np.ones(batch, dtype=bool)
    rows = np.arange(batch)
    for k, weights in enumerate(selection_mats):
        live &= norm_paths[:, k] >= RESIDUAL_FLOOR
        if live.any():
            scores = residuals @ weights  # (B, N)
            picked = np.argmax(scores, axis=1)
            best = scores[rows, picked]
            # the next step's scores must not be built while these are alive
            del scores
            coeff, updated = residual_step(atoms, residuals, picked, proj)
            # score and correlation can straddle zero only at float-noise level
            live &= (best > 0.0) & (coeff > 0.0)
            supports[live, k] = picked[live]
            codes[live, picked[live]] += coeff[live]
            residuals[live] = updated[live]
        norm_paths[:, k + 1] = np.linalg.norm(residuals, axis=1)
    return supports, codes, residuals, norm_paths


def single_pursuit(selection_mats, atoms: np.ndarray, y,
                   proj: ProjectionMode) -> PursuitResult:
    """:func:`hard_max_pursuit` on the one signal ``y``, as a PursuitResult."""
    supports, codes, residuals, norm_paths = hard_max_pursuit(
        selection_mats, atoms, [y], proj
    )
    support = supports[0][supports[0] >= 0]
    return PursuitResult(
        code=codes[0],
        support=support,
        residual=residuals[0],
        steps_taken=support.size,
        residual_norm_path=norm_paths[0, :support.size + 1],
    )


def nnmp_solve(dictionary: Dictionary, y, budget: int,
               proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT) -> PursuitResult:
    """Non-negative matching pursuit.

    Repeats up to ``budget`` times: pick the atom with the largest correlation
    against the current residual (must be strictly positive to continue),
    accumulate that correlation as its coefficient, subtract the contribution
    and project the residual.
    """
    if budget < 1:
        raise ZeroSparsity("budget must be >= 1")
    atoms = dictionary.atoms
    return single_pursuit([atoms] * budget, atoms, y, proj)


def nnls_active_set(columns, target, max_iter: int | None = None) -> np.ndarray:
    """Active-set (Lawson-Hanson) non-negative least squares.

    Minimizes ``||columns @ x - target||_2`` over ``x >= 0``. Assumes full
    column rank; callers restrict to at most ``signal_dim`` columns. At the
    solution the KKT conditions hold: the gradient is ~0 on positive
    coordinates and non-negative on zero coordinates.

    Raises MaxIterationsExceeded past the iteration cap (default three times
    the number of columns, counting both insertions and backtracks).
    """
    a = np.asarray(columns, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise DimensionMismatch(
            f"incompatible shapes {a.shape} and {b.shape} for NNLS"
        )
    n = a.shape[1]
    cap = 3 * n if max_iter is None else max_iter
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    grad_tol = 1e-12 * max(1.0, float(np.abs(a.T @ b).max()))
    iterations = 0
    while True:
        w = a.T @ (b - a @ x)  # negative gradient
        w_free = np.where(passive, -np.inf, w)
        if passive.all() or w_free.max() <= grad_tol:
            return x
        iterations += 1
        if iterations > cap:
            raise MaxIterationsExceeded(f"NNLS did not converge in {cap} iterations")
        passive[int(np.argmax(w_free))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if z[passive].min() > 0.0:
                x = z
                break
            # step back to the feasibility boundary, release blocking columns
            blocking = passive & (z <= 0.0)
            alpha = float(np.min(x[blocking] / (x[blocking] - z[blocking])))
            x = x + alpha * (z - x)
            passive &= x > 1e-14
            x[~passive] = 0.0
            iterations += 1
            if iterations > cap:
                raise MaxIterationsExceeded(
                    f"NNLS did not converge in {cap} iterations"
                )


def nnomp_solve(dictionary: Dictionary, y, budget: int) -> PursuitResult:
    """Orthogonal non-negative pursuit with a full NNLS refit per step.

    Selection is identical to ``nnmp_solve`` but restricted to atoms not yet
    selected; after each pick all selected coefficients are refit by
    :func:`nnls_active_set` against the original signal and the residual is
    recomputed from the refit (no projection needed, the refit residual is
    used directly).
    """
    if budget < 1:
        raise ZeroSparsity("budget must be >= 1")
    atoms = dictionary.atoms
    cols = atoms.shape[1]
    y = check_signals([y], atoms.shape[0])[0]
    r = y.copy()
    selected: list[int] = []
    coeffs = np.zeros(0)
    free = np.ones(cols, dtype=bool)
    norm_path = [float(np.linalg.norm(r))]
    for _ in range(budget):
        if norm_path[-1] < RESIDUAL_FLOOR:
            break
        scores = np.where(free, atoms.T @ r, -np.inf)
        index = int(np.argmax(scores))
        if scores[index] <= 0.0:
            break
        selected.append(index)
        free[index] = False
        coeffs = nnls_active_set(atoms[:, selected], y)
        r = y - atoms[:, selected] @ coeffs
        norm_path.append(float(np.linalg.norm(r)))
    code = np.zeros(cols)
    if selected:
        code[np.array(selected)] = coeffs
    return PursuitResult(
        code=code,
        support=np.array(selected, dtype=np.int64),
        residual=r,
        steps_taken=len(selected),
        residual_norm_path=np.array(norm_path),
    )
