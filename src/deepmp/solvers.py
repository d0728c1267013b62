"""Greedy non-negative pursuit solvers.

Two reference algorithms operate on a fixed dictionary:

* ``nnmp_solve``  plain matching pursuit with a positivity loop guard and a
  projected residual update. Selected coefficients are raw correlations, so
  an atom may be picked repeatedly.
* ``nnomp_solve`` orthogonal variant: same greedy selection, but every step
  refits all selected coefficients with active-set non-negative least squares
  and recomputes the residual from the refit. Never re-selects an atom.

Both, and trained models, are calls of one batched kernel over a stack of
signals, :func:`hard_max_pursuit`: a per-step selection matrix scores the
residuals, hard-max picks an atom, and one of two update rules moves the
residual. The MP rule is the fixed-dictionary :func:`residual_step`, so
swapping the selection matrices changes which atom is picked but never how
the residual evolves. The refit rule, :func:`_refit`, solves each row's own
small Gram system: by one batched full-support solve where Lawson-Hanson
would make exactly that solve, and by the Lawson-Hanson solver
:func:`_nnls_gram` for the few rows that lose positivity. Either rule takes
any selection stack; with the dictionary at every step they are NNMP and
NNOMP. :func:`dictionary_pursuit` makes that call: the sweep's NNMP and
NNOMP runners on a block of signals, ``nnmp_solve`` and ``nnomp_solve`` on
one row. ``nnls_active_set`` is a one-row call of the Lawson-Hanson solver.
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
    ``(coeff, new_residuals)``; the input stack is not modified. The update
    is built in the gathered atoms' buffer, as its (B, M) transpose:
    multiply, subtract, then clamp for ``POSITIVE_ORTHANT``.
    """
    picked = atoms[:, index]  # (M, B)
    coeff = np.einsum("mb,bm->b", picked, residuals)
    update = picked.T
    np.multiply(coeff[:, None], update, out=update)
    np.subtract(residuals, update, out=update)
    if proj is ProjectionMode.POSITIVE_ORTHANT:
        np.maximum(update, 0.0, out=update)
    return coeff, update


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a real (batch, dim) array.

    The expression ``np.linalg.norm(rows, axis=1)`` evaluates for real
    input, without its dispatch, so the result is the same bit for bit.
    """
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def hard_max_pursuit(selection_mats, atoms: np.ndarray, signals,
                     proj: ProjectionMode | None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run ``len(selection_mats)`` pursuit steps on every row of a signal stack.

    ``selection_mats`` is a (depth, signal_dim, num_atoms) stack (the atoms
    broadcast to every step for NNMP and NNOMP); step k scores each residual
    with ``selection_mats[k].T @ r`` and hard-max picks the winner (ties go
    to the lowest index). A row stops for good once its residual norm is
    below ``RESIDUAL_FLOOR`` or its best score is not strictly positive;
    every other row takes one of two updates:

    * ``proj`` a ProjectionMode: the MP update of :func:`residual_step`, so
      the subtracted coefficient is the winner's dictionary correlation
      whatever drove the selection, and a row whose correlation is not
      strictly positive stops instead. An atom may be picked again.
    * ``proj=None``: the refit of :func:`_refit`. The row's picked atoms are
      masked from its scores, every picked coefficient is refit by NNLS
      against the signal and the residual is rebuilt from the refit. With
      the dictionary as every selection matrix this is NNOMP.

    Steps work on slices while every row is live and on gathers of the live
    rows after that. A row's outputs do not depend on which other rows are
    live as long as BLAS rounds a row's products alike at every row count,
    which the tests check byte for byte. The loop ends once no row is live.
    Each step's coefficients are kept per row and step, and all are added into
    ``codes`` once, at the end, in step order within a row, so an atom
    picked twice sums its coefficients in the order it was picked.

    Returns ``(supports, codes, residuals, norm_paths)``: supports is
    (batch, depth) in selection order with -1 after a row's stop, codes is
    (batch, num_atoms), residuals the final (batch, signal_dim) residuals, and
    norm_paths (batch, depth + 1) holds each row's residual norm before the
    first step and after every step, constant after its stop. Raises
    MaxIterationsExceeded when a refit passes three times its column count
    in iterations from its warm start.
    """
    signals = check_signals(signals, atoms.shape[0])
    batch, depth = signals.shape[0], len(selection_mats)
    supports = np.full((batch, depth), -1, dtype=np.int64)
    coeffs = np.zeros((batch, depth))  # aligned with supports
    residuals = signals.copy()
    norm_paths = np.empty((batch, depth + 1))
    norm_paths[:, 0] = row_norms(residuals)
    live = norm_paths[:, 0] >= RESIDUAL_FLOOR
    if proj is None:
        # row j is atom j; each row's Gram system on its support
        refit = (np.ascontiguousarray(atoms.T), np.zeros((batch, depth, depth)),
                 np.zeros((batch, depth)))
    steps = 0
    for k, weights in enumerate(selection_mats):
        rows = live.nonzero()[0]
        if not rows.size:
            break
        # while every row is live, slices index views in place of gathers
        at = slice(None) if rows.size == batch else rows
        scores = residuals[at] @ weights  # (L, N)
        ids = np.arange(rows.size)
        if proj is None:
            scores[ids[:, None], supports[at, :k]] = -np.inf
        picked = scores.argmax(axis=1)
        keep = scores[ids, picked] > 0.0
        # the next step's scores must not be built while these are alive
        del scores
        if proj is not None:
            coeff, updated = residual_step(atoms, residuals[at], picked, proj)
            # score and correlation can straddle zero only at float-noise level
            keep &= coeff > 0.0
        if not keep.all():
            live[rows[~keep]] = False
            at, picked = rows[keep], picked[keep]
            if proj is not None:
                coeff, updated = coeff[keep], updated[keep]
        supports[at, k] = picked
        if proj is None:
            updated = _refit(*refit, signals, supports, coeffs, at, k)
        else:
            coeffs[at, k] = coeff
        residuals[at] = updated
        # released before the next step builds its scores
        del updated
        norm_paths[:, k + 1] = row_norms(residuals)
        live &= norm_paths[:, k + 1] >= RESIDUAL_FLOOR
        steps = k + 1
    # no row moves after the last step taken
    norm_paths[:, steps + 1:] = norm_paths[:, steps, None]
    codes = np.zeros((batch, atoms.shape[1]))
    # in (row, step) order; a stopped step's -1 adds its 0.0 to the last
    # atom, which leaves a code entry that is +0.0 or positive as it is
    np.add.at(codes, (np.arange(batch)[:, None], supports), coeffs)
    return supports, codes, residuals, norm_paths


def _one_row(supports, codes, residuals, norm_paths) -> PursuitResult:
    """Row 0 of a pursuit kernel's output, as a PursuitResult."""
    support = supports[0][supports[0] >= 0]
    return PursuitResult(
        code=codes[0],
        support=support,
        residual=residuals[0],
        steps_taken=support.size,
        residual_norm_path=norm_paths[0, :support.size + 1],
    )


def _gradient_tolerance(rhs: np.ndarray) -> np.ndarray:
    """Per row of ``rhs``, the largest gradient entry NNLS treats as zero."""
    return 1e-12 * np.maximum(1.0, np.abs(rhs).max(axis=1, initial=0.0))


def _nnls_gram(grams: np.ndarray, rhs: np.ndarray, x: np.ndarray,
               max_iter: int) -> np.ndarray:
    """Active-set (Lawson-Hanson) NNLS of every row of a stack of Gram systems.

    Row b minimizes ``||A_b @ x - y_b||_2`` over ``x >= 0`` given only
    ``grams[b] = A_b.T @ A_b`` (n, n) and ``rhs[b] = A_b.T @ y_b`` (n,). Each
    row starts from its row of ``x`` (rows, n), passive where ``x > 0``: zero
    or the least-squares solution on those columns, as an earlier solve
    leaves it. Rows run on their own; every inner step solves the passive
    subsystems of all rows still iterating with one ``np.linalg.solve``, a
    row's non-passive rows and columns replaced by the identity (with a zero
    right-hand side) so every system keeps shape (n, n). The solutions
    overwrite ``x``, which is returned.

    :func:`_refit` itself solves the rows for which this would be one
    insertion and one unpadded, strictly positive solve (first n - 1 columns
    positive, the last at 0 with a gradient above the tolerance) by one
    batched solve of those rows' unpadded systems, and passes only the
    other rows here.

    Raises MaxIterationsExceeded once any row passes ``max_iter`` iterations
    from its start, counting both insertions and backtracks.
    """
    rows, n = rhs.shape
    passive = x > 0.0
    iterations = np.zeros(rows, dtype=np.int64)
    grad_tol = _gradient_tolerance(rhs)
    eye = np.eye(n)
    outer = np.arange(rows)
    while outer.size:
        # negative gradient A.T (y - A x); a row with every column passive or
        # no free coordinate above the tolerance is optimal
        w = rhs[outer] - (grams[outer] * x[outer, None, :]).sum(axis=2)
        w[passive[outer]] = -np.inf
        go = w.max(axis=1) > grad_tol[outer]
        outer = outer[go]
        passive[outer, w[go].argmax(axis=1)] = True
        inner = outer
        # every insertion and every backtrack is followed by one solve
        while inner.size:
            iterations[inner] += 1
            if iterations.max() > max_iter:
                raise MaxIterationsExceeded(
                    f"NNLS did not converge in {max_iter} iterations"
                )
            p = passive[inner]
            systems = np.where(p[:, :, None] & p[:, None, :], grams[inner], eye)
            z = np.linalg.solve(systems, np.where(p, rhs[inner], 0.0)[:, :, None])
            z = np.where(p, z[:, :, 0], 0.0)
            blocking = p & (z <= 0.0)
            back = blocking.any(axis=1)
            x[inner[~back]] = z[~back]
            if not back.any():
                break
            inner, p, z, blocking = inner[back], p[back], z[back], blocking[back]
            # step back to the feasibility boundary, release blocking columns
            xi = x[inner]
            ratio = np.divide(xi, xi - z, out=np.full_like(xi, np.inf),
                              where=blocking)
            xi += ratio.min(axis=1)[:, None] * (z - xi)
            p &= xi > 1e-14
            x[inner] = np.where(p, xi, 0.0)
            passive[inner] = p
    return x


def nnls_active_set(columns, target, max_iter: int | None = None) -> np.ndarray:
    """Active-set (Lawson-Hanson) non-negative least squares.

    Minimizes ``||columns @ x - target||_2`` over ``x >= 0``. Assumes full
    column rank; callers restrict to at most ``signal_dim`` columns. At the
    solution the KKT conditions hold: the gradient is ~0 on positive
    coordinates and non-negative on zero coordinates. A one-row call of the
    Gram-form solver that the refit update of :func:`hard_max_pursuit` runs.

    Starts from x = 0. Raises DimensionMismatch for shapes that do not match
    or no columns, NonFiniteSignal for NaN or infinite entries, and
    MaxIterationsExceeded past the iteration cap (default three times the
    number of columns, counting both insertions and backtracks).
    """
    a = np.asarray(columns, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    if a.ndim != 2 or b.shape != (a.shape[0],) or a.shape[1] == 0:
        raise DimensionMismatch(
            f"incompatible shapes {a.shape} and {b.shape} for NNLS"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteSignal("NNLS input contains NaN or infinite entries")
    cap = 3 * a.shape[1] if max_iter is None else max_iter
    x = np.zeros((1, a.shape[1]))
    return _nnls_gram((a.T @ a)[None], (a.T @ b)[None], x, cap)[0]


def _refit(atoms_t: np.ndarray, grams: np.ndarray, rhs: np.ndarray,
           signals: np.ndarray, supports: np.ndarray, coeffs: np.ndarray,
           at, k: int) -> np.ndarray:
    """NNOMP's update of rows ``at`` after their step-k pick; their residuals.

    Every row refits all its picked coefficients against its signal by
    Lawson-Hanson NNLS on its own s x s Gram system (s <= depth), kept per
    row in ``grams`` and ``rhs`` and grown by one row and column
    ``<d_j, d_new>`` per step; the right-hand side ``<d_j, y>`` is computed
    for the new column only. ``atoms_t`` holds atom j in row j.

    The refit starts from the row's previous coefficients in ``coeffs``, the
    new column at 0, and overwrites them. A row takes the solution of its
    full s x s system, from one batched ``np.linalg.solve``, when its
    previous coefficients are all strictly positive, its new column's
    gradient exceeds :func:`_nnls_gram`'s tolerance and the solution is
    strictly positive: from that start Lawson-Hanson inserts the new column,
    makes exactly this solve on exactly this matrix and stops, so the result
    is its result bit for bit. The qualifying rows are gathered for that
    solve, and the other rows run :func:`_nnls_gram` from the same start.
    The residual ``y - sum_j x_j d_{S_j}`` is rebuilt from the step's
    gathered support columns, one subtraction per column.
    """
    columns = atoms_t[supports[at, :k + 1]]  # (L, k + 1, M)
    refit = signals[at]
    rhs[at, k] = np.einsum("bm,bm->b", refit, columns[:, k])
    # the new Gram row and column <d_j, d_new>, formed once
    new = np.einsum("bjm,bm->bj", columns, columns[:, k])
    grams[at, :k + 1, k] = grams[at, k, :k + 1] = new
    g, b = grams[at, :k + 1, :k + 1], rhs[at, :k + 1]
    # warm start: the previous refit, 0 at the new column
    x = coeffs[at, :k + 1]
    # _nnls_gram's gradient and tolerance: rows where its run would
    # be one insertion and one full, positive solve skip it
    w = b[:, k] - (new * x).sum(axis=1)
    full = (x[:, :k] > 0.0).all(axis=1) & (w > _gradient_tolerance(b))
    if full.any():
        z = np.linalg.solve(g[full], b[full, :, None])[:, :, 0]
        taken = (z > 0.0).all(axis=1)
        full[full] = taken
        x[full] = z[taken]
    if not full.all():
        rest = ~full
        x[rest] = _nnls_gram(g[rest], b[rest], x[rest], 3 * (k + 1))
    coeffs[at, :k + 1] = x
    residual = refit - x[:, 0, None] * columns[:, 0]
    for j in range(1, k + 1):
        residual -= x[:, j, None] * columns[:, j]
    return residual


def dictionary_pursuit(dictionary: Dictionary, signals, budget: int,
                       proj: ProjectionMode | None):
    """:func:`hard_max_pursuit` of ``budget`` steps on a signal stack, with
    the dictionary as every selection matrix: NNMP with a ProjectionMode,
    NNOMP with ``proj=None``. Returns the kernel's four arrays; raises
    ZeroSparsity for a budget below 1."""
    if budget < 1:
        raise ZeroSparsity("budget must be >= 1")
    atoms = dictionary.atoms
    stack = np.broadcast_to(atoms, (budget, *atoms.shape))
    return hard_max_pursuit(stack, atoms, signals, proj)


def nnmp_solve(dictionary: Dictionary, y, budget: int,
               proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT) -> PursuitResult:
    """Non-negative matching pursuit.

    Repeats up to ``budget`` times: pick the atom with the largest correlation
    against the current residual (must be strictly positive to continue),
    accumulate that correlation as its coefficient, subtract the contribution
    and project the residual. A one-row call of :func:`dictionary_pursuit`
    with the MP update.
    """
    return _one_row(*dictionary_pursuit(dictionary, [y], budget, proj))


def nnomp_solve(dictionary: Dictionary, y, budget: int) -> PursuitResult:
    """Orthogonal non-negative pursuit with a full NNLS refit per step.

    Selection is identical to ``nnmp_solve`` but restricted to atoms not yet
    selected; after each pick all selected coefficients are refit by NNLS
    against the original signal and the residual is recomputed from the refit
    (no projection needed, the refit residual is used directly). A one-row
    call of :func:`dictionary_pursuit` with the refit update (``proj=None``).
    """
    return _one_row(*dictionary_pursuit(dictionary, [y], budget, None))
