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
would see at inference when the earlier layers are right. Because the teacher
residuals never depend on the weights, the loss gradient is the closed-form
softmax cross-entropy expression per layer and no backpropagation through the
recursion is needed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyBatch,
    InputError,
    ParseError,
    ShapeMismatch,
    SparsityMismatch,
    ZeroSparsity,
)
from .solvers import (
    RESIDUAL_FLOOR,
    ProjectionMode,
    PursuitResult,
    check_signals,
    hard_max_pursuit,
    residual_step,
    single_pursuit,
)
from .types import Dictionary

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
    return single_pursuit(
        model.selection_weights, model.update_dict.atoms, y, model.proj
    )


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


@dataclass
class TrainingBatch:
    """Signals of sparsity = depth with their per-step teacher targets.

    ``signals`` is (batch, signal_dim); ``targets[i]`` is the ordered list of
    ground-truth atom indices for sample i, one per layer, a permutation of
    the sample's true support chosen by the teacher (greedy best remaining
    atom). Targets depend only on the dictionary, never on the trainable
    weights.
    """

    signals: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.signals.shape[0]


def build_training_batch(model: UnfoldedModel, signals,
                         supports) -> TrainingBatch:
    """Compute teacher target order for every mixture (vectorized).

    ``signals`` (B, signal_dim) are mixtures of the atoms in the rows of
    ``supports`` (B, depth). At each step the teacher picks, among the row's
    not-yet-used true atoms, the one with the largest dictionary correlation
    against the current teacher residual (ties to the earliest support
    position), then applies the fixed-dictionary update. Every row always
    receives exactly ``depth`` targets even if its residual dies early.
    Raises EmptyBatch, SparsityMismatch when the supports do not have
    ``depth`` columns, and DimensionMismatch when signals and supports
    differ in row count.
    """
    candidates = np.asarray(supports, dtype=np.int64)  # (B, depth)
    if not len(candidates):
        raise EmptyBatch("no samples")
    depth = model.depth
    if candidates.ndim != 2 or candidates.shape[1] != depth:
        raise SparsityMismatch(
            f"supports of shape {candidates.shape} != model depth {depth}"
        )
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
    for step in range(depth):
        # correlations of each sample's true atoms with its current residual
        cand_atoms = atoms[:, candidates]  # (M, B, depth)
        corr = np.einsum("mbk,bm->bk", cand_atoms, residuals)
        corr[used] = -np.inf
        pick = np.argmax(corr, axis=1)
        chosen = candidates[rows, pick]
        used[rows, pick] = True
        targets[:, step] = chosen
        _, residuals = residual_step(atoms, residuals, chosen, model.proj)
    return TrainingBatch(signals=signals, targets=targets)


def loss_and_gradient(model: UnfoldedModel, batch: TrainingBatch
                      ) -> tuple[float, np.ndarray]:
    """Cross-entropy loss over all layers and its closed-form gradient.

    Loss is the per-sample sum over live layers of -log softmax(target),
    averaged over the batch; the gradient, a stack like the weights, holds
    in block k the batch mean of outer(residual_k, softmax_k -
    onehot(target_k)). All layers go in one stacked pass: the teacher
    residuals, replayed from the batch's stored targets, form one
    (depth, batch, signal_dim) stack that makes one score product and one
    gradient product. A sample whose residual died before layer k has its
    layer-k residual zeroed and its loss term masked, so from there on it
    adds exactly nothing.
    """
    batch_size = len(batch)
    if batch_size == 0:
        raise EmptyBatch("no samples")
    targets = batch.targets
    if (batch.signals.shape[1] != model.signal_dim
            or targets.shape[1] != model.depth):
        raise DimensionMismatch(
            f"batch of signals {batch.signals.shape} and targets "
            f"{targets.shape} does not fit a depth-{model.depth} model on "
            f"{model.signal_dim} dimensions"
        )
    atoms = model.update_dict.atoms
    stack = np.empty((model.depth, batch_size, model.signal_dim))
    stack[0] = batch.signals
    for k in range(model.depth - 1):
        _, stack[k + 1] = residual_step(atoms, stack[k], targets[:, k],
                                        model.proj)
    live = np.logical_and.accumulate(
        np.linalg.norm(stack, axis=2) >= RESIDUAL_FLOOR, axis=0)  # (K, B)
    stack[~live] = 0.0
    # (K, B, N) scores, turned into softmax probabilities in place
    p = np.matmul(stack, model.selection_weights)
    p -= p.max(axis=2, keepdims=True)
    hit = (np.arange(model.depth)[:, None], np.arange(batch_size), targets.T)
    picked = p[hit]
    np.exp(p, out=p)
    z = p.sum(axis=2)
    loss = float(((np.log(z) - picked) * live).sum()) / batch_size
    p /= z[:, :, None]
    p[hit] -= 1.0
    # (K, N, M) product viewed as (K, M, N): column-major like the weights
    grads = np.matmul(p.transpose(0, 2, 1), stack).transpose(0, 2, 1)
    grads /= batch_size
    return loss, grads


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
        fh.write(model.selection_weights.astype("<f8", copy=False).tobytes())
        fh.write(model.update_dict.atoms.astype("<f8", copy=False).tobytes())


def load_model(path) -> UnfoldedModel:
    """Read a model written by :func:`save_model`.

    Raises ParseError naming the file when the header is malformed (bad
    magic, depth 0, a projection flag other than 0 or 1), the size does not
    match the header, a selection weight is not finite, or the dictionary
    block fails :func:`~deepmp.types.validate_dictionary`.
    """
    from .types import validate_dictionary

    with open(path, "rb") as fh:
        blob = fh.read()
    head = struct.calcsize("<4sIIII")
    if len(blob) < head:
        raise ParseError(f"{path}: truncated model file")
    magic, depth, signal_dim, num_atoms, proj_flag = struct.unpack(
        "<4sIIII", blob[:head]
    )
    if magic != _MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if depth < 1:
        raise ParseError(f"{path}: depth-{depth} model")
    if proj_flag not in (0, 1):
        raise ParseError(f"{path}: projection flag {proj_flag} is not 0 or 1")
    count = (depth + 1) * signal_dim * num_atoms
    if len(blob) != head + 8 * count:
        raise ParseError(
            f"{path}: expected {head + 8 * count} bytes for a depth-{depth} "
            f"model, got {len(blob)}"
        )
    stack = np.frombuffer(blob, dtype="<f8", count=count, offset=head).reshape(
        depth + 1, signal_dim, num_atoms
    )
    if not np.isfinite(stack[:depth]).all():
        raise ParseError(f"{path}: non-finite selection weight")
    try:
        dictionary = validate_dictionary(stack[depth])
    except InputError as exc:
        raise ParseError(f"{path}: dictionary block: {exc}") from None
    proj = ProjectionMode.POSITIVE_ORTHANT if proj_flag else ProjectionMode.IDENTITY
    return UnfoldedModel(selection_weights=_column_major(stack[:depth]),
                         update_dict=dictionary, proj=proj)
