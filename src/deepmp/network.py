"""Unfolded pursuit network with trainable selection matrices.

The model unrolls ``depth`` pursuit steps. Step k owns block ``W_k`` of one
trainable (K, M, N) stack, each block of the dictionary's shape; inference is
the one pursuit kernel :func:`~deepmp.solvers.hard_max_pursuit` driven by the
``W_k``: it scores the residual with ``W_k.T @ r`` and hard-max picks the
atom, while the residual update stays the kernel's MP rule, the
fixed-dictionary :func:`~deepmp.solvers.residual_step`. With every ``W_k``
initialized to the dictionary the network runs exactly the computation of
plain matching pursuit, so it reproduces it bit for bit and training can only
move it away from that baseline. The kernel's other rule, the NNOMP refit
(``proj=None``), accepts any selection stack too; at ``W = D`` it is NNOMP.

Training treats each step as an atom classification problem: the hard-max is
relaxed to a softmax over the selection scores and each layer is penalized
with cross entropy against a teacher target. Teacher forcing advances the
residual with the ground-truth atom (the best remaining true atom by
dictionary correlation), so layer k trains on the residual distribution it
would see at inference when the earlier layers are right. A training batch is
two arrays: the (B, signal_dim) signals and the (B, depth) teacher targets.
One loop, :func:`teacher_walk`, walks the teacher path: it picks the targets
from the rows' supports or follows given ones, and returns them with the
residual stack and live mask; :func:`build_training_batch` is its targets.
Because the teacher residuals never depend on the weights, the loss gradient
is the closed-form softmax cross-entropy expression per layer and no
backpropagation through the recursion is needed: :func:`loss_and_gradient`
is :func:`cross_entropy_head` applied to the residual stack and live mask of
the walk along given targets. The head shifts the scores by their row maxima
only when some score lies far enough out that ``exp`` could overflow or
underflow, and it forms the gradient on demand, a group of blocks at a time,
so training can update each group before the next is formed;
:func:`loss_and_gradient` forms the whole stack.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyBatch,
    InputError,
    OutOfRange,
    ParseError,
    ShapeMismatch,
    SparsityMismatch,
    ZeroSparsity,
)
from .solvers import (
    RESIDUAL_FLOOR,
    ProjectionMode,
    PursuitResult,
    _one_row,
    check_signals,
    hard_max_pursuit,
    residual_step,
)
from .types import READ_BYTES, Dictionary, _own_dictionary

_MAGIC = b"DMP1"


@dataclass
class UnfoldedModel:
    """K trainable selection matrices plus the fixed dictionary they unroll.

    ``selection_weights`` is one (depth, signal_dim, num_atoms) stack, the
    only trainable state; block k drives the atom choice at step k, and
    ``update_dict`` is used verbatim in every residual update.
    """

    selection_weights: np.ndarray
    update_dict: Dictionary
    proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT

    def __post_init__(self) -> None:
        shape = self.update_dict.atoms.shape
        if self.selection_weights.shape[1:] != shape:
            raise ShapeMismatch(
                f"selection stack {self.selection_weights.shape} does not "
                f"stack {shape} blocks"
            )

    @property
    def depth(self) -> int:
        return len(self.selection_weights)

    @property
    def signal_dim(self) -> int:
        return self.update_dict.signal_dim

    @property
    def num_atoms(self) -> int:
        return self.update_dict.num_atoms


def _column_major(stack) -> np.ndarray:
    """Copy of a (K, M, N) stack with column-major blocks, as the atoms are."""
    return np.array(np.transpose(stack, (0, 2, 1)), order="C").transpose(0, 2, 1)


def init_from_dictionary(dictionary: Dictionary, depth: int,
                         proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT
                         ) -> UnfoldedModel:
    """Model whose every selection block is a copy of the dictionary."""
    if depth < 1:
        raise ZeroSparsity("depth must be >= 1")
    atoms = dictionary.atoms
    weights = _column_major(np.broadcast_to(atoms, (depth, *atoms.shape)))
    return UnfoldedModel(selection_weights=weights, update_dict=dictionary, proj=proj)


def forward_infer(model: UnfoldedModel, y) -> PursuitResult:
    """Hard-max inference; shape-identical to plain matching pursuit."""
    return _one_row(*hard_max_pursuit(
        model.selection_weights, model.update_dict.atoms, [y], model.proj
    ))


def batched_infer(model: UnfoldedModel, signals) -> tuple[np.ndarray, np.ndarray]:
    """Hard-max inference over a stack of signals (rows).

    Returns ``(supports, codes)`` where ``supports`` is (batch, depth) with -1
    padding after early stops. Row i equals :func:`forward_infer` on
    ``signals[i]`` bit for bit: both are calls of the same kernel.
    """
    supports, codes, _, _ = hard_max_pursuit(
        model.selection_weights, model.update_dict.atoms, signals, model.proj
    )
    return supports, codes


# -- training ------------------------------------------------------------------


def build_training_batch(model: UnfoldedModel, signals,
                         supports) -> np.ndarray:
    """Teacher target order of every mixture, as a (B, depth) int64 array.

    ``signals`` (B, signal_dim) are mixtures of the atoms in the rows of
    ``supports`` (B, depth); the targets are those :func:`teacher_walk`
    picks. Every row always receives exactly ``depth`` targets even if its
    residual dies early. Raises EmptyBatch, SparsityMismatch when the
    supports do not have ``depth`` columns, DimensionMismatch when signals
    and supports differ in row count, and OutOfRange for a support that is
    not an atom index.
    """
    supports = np.asarray(supports, dtype=np.int64)
    if not len(supports):
        raise EmptyBatch("no samples")
    depth = model.depth
    if supports.ndim != 2 or supports.shape[1] != depth:
        raise SparsityMismatch(f"supports of shape {supports.shape} != "
                               f"model depth {depth}")
    _check_atom_indices(supports, model.num_atoms, "supports")
    signals = check_signals(signals, model.signal_dim)
    if len(signals) != len(supports):
        raise DimensionMismatch(f"{len(signals)} signals for "
                                f"{len(supports)} supports")
    return teacher_walk(model, signals, supports=supports)[0]


def _check_atom_indices(indices: np.ndarray, num_atoms: int, what: str) -> None:
    bad = indices[(indices < 0) | (indices >= num_atoms)]
    if bad.size:
        raise OutOfRange(f"{what} hold atom index {bad[0]}, not in "
                         f"[0, {num_atoms})")


def teacher_walk(model: UnfoldedModel, signals: np.ndarray, *,
                 supports: np.ndarray | None = None,
                 targets: np.ndarray | None = None, dtype=np.float64
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk every row along its teacher path: targets, residuals, live mask.

    Given ``targets`` (B, depth) the walk follows them. Given ``supports``
    (B, depth) instead it picks them: at step k, among the row's
    not-yet-used true atoms, the one with the largest dictionary
    correlation against the step's residual (ties to the earliest support
    position), computed one support column at a time. Either way the walk
    applies the fixed-dictionary update and returns the (B, depth) targets,
    the (K, B, M) residual stack of ``dtype``, layer k after the first k
    targets, and the (K, B) live mask: a row lives while every residual so
    far has norm >= ``RESIDUAL_FLOOR``. Dead rows are zeroed in the stack,
    but still receive targets. The running residual and its norms stay
    float64 whatever ``dtype``, so the targets and the live mask do not
    depend on it.
    """
    atoms = model.update_dict.atoms
    stack = np.empty((model.depth, *signals.shape), dtype=dtype)
    live = np.empty(stack.shape[:2], dtype=bool)
    if targets is None:
        targets = np.empty(supports.shape, dtype=np.int64)
        used = np.zeros(supports.shape, dtype=bool)
        corr = np.empty(supports.shape)
        rows = np.arange(len(supports))
    # a caller's temporary signals go with the first update
    residuals = signals
    del signals
    for k in range(model.depth):
        if k:
            _, residuals = residual_step(atoms, residuals, targets[:, k - 1],
                                         model.proj)
        stack[k] = residuals
        live[k] = (np.einsum("bm,bm->b", residuals, residuals)
                   >= RESIDUAL_FLOOR ** 2)
        if supports is not None:
            for j in range(supports.shape[1]):
                corr[:, j] = np.einsum("mb,bm->b", atoms[:, supports[:, j]],
                                       residuals)
            corr[used] = -np.inf
            pick = np.argmax(corr, axis=1)
            targets[:, k] = supports[rows, pick]
            used[rows, pick] = True
    np.logical_and.accumulate(live, axis=0, out=live)
    stack[~live] = 0.0
    return targets, stack, live


def cross_entropy_head(weights: np.ndarray, stack: np.ndarray,
                       live: np.ndarray, targets: np.ndarray
                       ) -> tuple[float, Callable[[int, int], np.ndarray]]:
    """Loss and weight gradient of :func:`teacher_walk`'s stack and mask.

    All layers go in one score stack, and dead rows' loss terms are masked.
    The head computes in the stack's dtype, casting each weight block to it
    for that block's score product only. The scores are one (K, N, B) array
    whose normalisation is folded into the gradient product: target entries
    take ``-= z`` and the rows of ``stack`` (overwritten) ``/= z * B``. The
    gradient is returned as a function ``gradient(lo, hi)`` that forms
    blocks ``lo:hi`` with one product, the (hi - lo, N, M) product as
    (hi - lo, M, N), with column-major blocks like the weights; it holds the
    scores and the stack while it lives.

    The per-row max-shift runs only when a score leaves the open interval
    ``±(-log(tiny) - log(N * B))``, with ``tiny`` the smallest normal number
    of the stack's dtype. Inside it every ``exp``, normaliser ``z`` and
    ``z * B`` is a finite normal number, so skipping the shift changes the
    loss and gradient by rounding only: about ``eps * max|score|`` in a
    row's loss term, which the score product carries anyway, and at most
    ``eps / 2`` in a gradient entry where ``/= z * B`` takes residual entries
    below the normal range.
    """
    depth, batch_size, _ = stack.shape
    p = np.empty((depth, weights.shape[2], batch_size), dtype=stack.dtype)
    for k in range(depth):
        np.matmul(weights[k].T.astype(stack.dtype, copy=False), stack[k].T,
                  out=p[k])
    limit = (-math.log(np.finfo(stack.dtype).tiny)
             - math.log(p.shape[1] * batch_size))
    if not (-limit < p.min() and p.max() < limit):
        p -= p.max(axis=1, keepdims=True)
    hit = (np.arange(depth)[:, None], targets.T, np.arange(batch_size))
    picked = p[hit]
    np.exp(p, out=p)
    z = p.sum(axis=1)  # (K, B)
    loss = float(((np.log(z) - picked) * live).sum()) / batch_size
    p[hit] -= z
    stack /= (z * batch_size)[:, :, None]

    def gradient(lo: int, hi: int) -> np.ndarray:
        return np.matmul(p[lo:hi], stack[lo:hi]).transpose(0, 2, 1)

    return loss, gradient


def loss_and_gradient(model: UnfoldedModel, signals, targets
                      ) -> tuple[float, np.ndarray]:
    """Cross-entropy loss over all layers and its closed-form gradient.

    ``signals`` (B, signal_dim) are mixtures and ``targets`` (B, depth) their
    teacher targets from :func:`build_training_batch`. Loss is the
    per-sample sum over live layers of -log softmax(target), averaged over
    the batch; the gradient, a stack like the weights, holds in block k the
    batch mean of outer(residual_k, softmax_k - onehot(target_k)). A sample
    whose residual died before layer k adds exactly nothing from there on.
    Raises EmptyBatch, DimensionMismatch unless the targets have one row of
    ``depth`` atoms per signal, and OutOfRange for a target that is not an
    atom index.
    """
    signals = check_signals(signals, model.signal_dim)
    targets = np.asarray(targets)
    batch_size = len(signals)
    if batch_size == 0:
        raise EmptyBatch("no samples")
    if targets.shape != (batch_size, model.depth):
        raise DimensionMismatch(
            f"targets of shape {targets.shape} for {batch_size} signals and "
            f"a depth-{model.depth} model"
        )
    _check_atom_indices(targets, model.num_atoms, "targets")
    loss, gradient = cross_entropy_head(
        model.selection_weights,
        *teacher_walk(model, signals, targets=targets)[1:], targets)
    return loss, gradient(0, model.depth)


# -- serialization ----------------------------------------------------------------
#
# Flat little-endian binary container: magic "DMP1", then four uint32 fields
# (depth, signal_dim, num_atoms, projection flag 0=identity 1=positive), then
# a row-major float64 (depth + 1, signal_dim, num_atoms) stack: the selection
# matrices, then the dictionary matrix.


def save_model(model: UnfoldedModel, path) -> None:
    header = struct.pack(
        "<4sIIII",
        _MAGIC,
        model.depth,
        model.signal_dim,
        model.num_atoms,
        1 if model.proj is ProjectionMode.POSITIVE_ORTHANT else 0,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for block in (*model.selection_weights, model.update_dict.atoms):
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def load_model(path) -> UnfoldedModel:
    """Read a model written by :func:`save_model`.

    The file is read ``READ_BYTES`` at a time, straight into the
    column-major selection stack and dictionary, so loading holds no copy
    of the file. Raises ParseError naming the file when the header is
    malformed (bad magic, depth 0, a projection flag other than 0 or 1, or
    dimensions that no dictionary has: not ``0 < signal_dim < num_atoms``),
    the size does not match the header, a selection weight is not finite,
    or the dictionary block fails :func:`~deepmp.types.validate_dictionary`.
    """
    head = struct.calcsize("<4sIIII")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(head)
        if len(header) < head:
            raise ParseError(f"{path}: truncated model file")
        magic, depth, signal_dim, num_atoms, proj_flag = struct.unpack(
            "<4sIIII", header)
        if magic != _MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        if depth < 1:
            raise ParseError(f"{path}: depth-{depth} model")
        if proj_flag not in (0, 1):
            raise ParseError(
                f"{path}: projection flag {proj_flag} is not 0 or 1")
        # checked before anything is allocated or read: with a zero
        # dimension the size check passes at any depth
        if not 0 < signal_dim < num_atoms:
            raise ParseError(f"{path}: a {signal_dim}x{num_atoms} dictionary "
                             f"is not overcomplete")
        expected = head + 8 * (depth + 1) * signal_dim * num_atoms
        if size != expected:
            raise ParseError(
                f"{path}: expected {expected} bytes for a depth-{depth} "
                f"model, got {size}"
            )
        weights = np.empty((depth, num_atoms, signal_dim)).transpose(0, 2, 1)
        atoms = np.empty((signal_dim, num_atoms), order="F")
        for block in (*weights, atoms):
            _read_rows(fh, block, path)
    if not all(np.isfinite(w).all() for w in weights):
        raise ParseError(f"{path}: non-finite selection weight")
    try:
        dictionary = _own_dictionary(atoms)
    except InputError as exc:
        raise ParseError(f"{path}: dictionary block: {exc}") from None
    proj = ProjectionMode.POSITIVE_ORTHANT if proj_flag else ProjectionMode.IDENTITY
    return UnfoldedModel(selection_weights=weights, update_dict=dictionary,
                         proj=proj)


def _read_rows(fh, block: np.ndarray, path) -> None:
    """Fill ``block`` from the row-major little-endian float64 rows at the
    file position, at most ``READ_BYTES`` at a time."""
    rows, cols = block.shape
    step = max(1, READ_BYTES // max(1, 8 * cols))
    buffer = np.empty((min(rows, step), cols), dtype="<f8")
    for lo in range(0, rows, step):
        chunk = buffer[:min(step, rows - lo)]
        if fh.readinto(chunk) != chunk.nbytes:
            raise ParseError(f"{path}: truncated model file")
        block[lo:lo + len(chunk)] = chunk
