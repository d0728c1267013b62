"""Unfolded pursuit network with trainable selection matrices.

The model unrolls ``depth`` pursuit steps. Step k owns block ``W_k`` of one
trainable (K, M, N) stack, each block of the dictionary's shape; inference is
the kernel :func:`~deepmp.solvers.hard_max_pursuit` driven by the ``W_k``: it
scores the residual with ``W_k.T @ r`` and hard-max picks the atom, while the
residual update stays the fixed-dictionary rule of
:func:`~deepmp.solvers.residual_step`. With every ``W_k`` initialized to the
dictionary the network runs exactly the computation of plain matching
pursuit, so it reproduces it bit for bit and training can only move it away
from that baseline.

Training treats each step as an atom classification problem: the hard-max is
relaxed to a softmax over the selection scores and each layer is penalized
with cross entropy against a teacher target. Teacher forcing advances the
residual with the ground-truth atom (the best remaining true atom by
dictionary correlation), so layer k trains on the residual distribution it
would see at inference when the earlier layers are right. A training batch is
two arrays: the (B, signal_dim) signals and the (B, depth) teacher targets
that :func:`build_training_batch` computes for them. Because the teacher
residuals never depend on the weights, the loss gradient is the closed-form
softmax cross-entropy expression per layer and no backpropagation through the
recursion is needed: :func:`loss_and_gradient` is :func:`cross_entropy_head`
applied to the residual stack of :func:`teacher_replay`. The head shifts the
scores by their row maxima only when some score lies far enough out that
``exp`` could overflow or underflow, and it forms the gradient on demand, a
group of blocks at a time, so training can update each group before the next
is formed; :func:`loss_and_gradient` forms the whole stack.
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
#: log of the smallest normal float64, about -708.4
_LOG_TINY = math.log(np.finfo(np.float64).tiny)


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
    ``supports`` (B, depth). At each step the teacher picks, among the row's
    not-yet-used true atoms, the one with the largest dictionary correlation
    against the current teacher residual (ties to the earliest support
    position), then applies the fixed-dictionary update. Every row always
    receives exactly ``depth`` targets even if its residual dies early.
    Raises EmptyBatch, SparsityMismatch when the supports do not have
    ``depth`` columns, DimensionMismatch when signals and supports differ in
    row count, and OutOfRange for a support that is not an atom index.
    """
    candidates = np.asarray(supports, dtype=np.int64)  # (B, depth)
    if not len(candidates):
        raise EmptyBatch("no samples")
    depth = model.depth
    if candidates.ndim != 2 or candidates.shape[1] != depth:
        raise SparsityMismatch(
            f"supports of shape {candidates.shape} != model depth {depth}"
        )
    _check_atom_indices(candidates, model.num_atoms, "supports")
    atoms = model.update_dict.atoms
    signals = check_signals(signals, model.signal_dim)
    batch = len(candidates)
    if len(signals) != batch:
        raise DimensionMismatch(
            f"{len(signals)} signals for {batch} supports"
        )
    residuals = signals
    used = np.zeros((batch, depth), dtype=bool)
    targets = np.zeros((batch, depth), dtype=np.int64)
    rows = np.arange(batch)
    cand_atoms = atoms[:, candidates]  # (M, B, depth)
    for step in range(depth):
        # correlations of each sample's true atoms with its current residual
        corr = np.einsum("mbk,bm->bk", cand_atoms, residuals)
        corr[used] = -np.inf
        pick = np.argmax(corr, axis=1)
        chosen = candidates[rows, pick]
        used[rows, pick] = True
        targets[:, step] = chosen
        _, residuals = residual_step(atoms, residuals, chosen, model.proj)
    return targets


def _check_atom_indices(indices: np.ndarray, num_atoms: int, what: str) -> None:
    bad = indices[(indices < 0) | (indices >= num_atoms)]
    if bad.size:
        raise OutOfRange(f"{what} hold atom index {bad[0]}, not in "
                         f"[0, {num_atoms})")


def teacher_replay(model: UnfoldedModel, signals: np.ndarray,
                   targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Teacher residuals of every layer, replayed from the targets.

    Returns the (K, B, M) stack, layer k after the first k targets, and the
    (K, B) live mask: a row lives while every residual so far has norm >=
    ``RESIDUAL_FLOOR``. Dead rows are zeroed in the stack.
    """
    atoms = model.update_dict.atoms
    stack = np.empty((model.depth, *signals.shape))
    stack[0] = signals
    for k in range(model.depth - 1):
        _, stack[k + 1] = residual_step(atoms, stack[k], targets[:, k],
                                        model.proj)
    live = np.logical_and.accumulate(
        np.einsum("kbm,kbm->kb", stack, stack) >= RESIDUAL_FLOOR ** 2, axis=0)
    stack[~live] = 0.0
    return stack, live


def cross_entropy_head(weights: np.ndarray, stack: np.ndarray,
                       live: np.ndarray, targets: np.ndarray
                       ) -> tuple[float, Callable[[int, int], np.ndarray]]:
    """Loss and weight gradient of :func:`teacher_replay`'s output.

    All layers go in one score product, and dead rows' loss terms are masked.
    The scores are one (K, N, B) array whose normalisation is folded into the
    gradient product: target entries take ``-= z`` and the rows of ``stack``
    (overwritten) ``/= z * B``. The gradient is returned as a function
    ``gradient(lo, hi)`` that forms blocks ``lo:hi`` with one product, the
    (hi - lo, N, M) product as (hi - lo, M, N), with column-major blocks like
    the weights; it holds the scores and the stack while it lives.

    The per-row max-shift runs only when a score leaves the open interval
    ``±(-log(tiny) - log(N * B))``, about ±698 at N = 200, B = 128. Inside
    it every ``exp``, normaliser ``z`` and ``z * B`` is a finite normal
    float, so skipping the shift changes the loss and gradient by rounding
    only: about ``eps * max|score|`` in a row's loss term, which the score
    product carries anyway, and at most ``eps / 2`` in a gradient entry
    where ``/= z * B`` takes residual entries below the normal range.
    """
    depth, batch_size, _ = stack.shape
    p = np.matmul(weights.transpose(0, 2, 1), stack.transpose(0, 2, 1))
    limit = -_LOG_TINY - math.log(p.shape[1] * batch_size)
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
        model.selection_weights, *teacher_replay(model, signals, targets),
        targets)
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
    malformed (bad magic, depth 0, a projection flag other than 0 or 1), the
    size does not match the header, a selection weight is not finite, or the
    dictionary block fails :func:`~deepmp.types.validate_dictionary`.
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
