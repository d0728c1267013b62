"""Epoch-driven training of one unfolded model per sparsity level.

Training mixtures come from shards seeded from the master seed, so
identical seeds reproduce identical batches (and therefore bit-identical
models). Each shard is drawn once per training run. Training keeps each
mixture's support and coefficients and the (N, k) teacher targets: O(N k)
numbers for N mixtures at sparsity k, whatever the signal dimension.
Training synthesises its signals and walks the teacher path
(``teacher_walk``) one walk block at a time: ``num_atoms // signal_dim``
whole batches (at least one) of a shard's shuffled order, so every batch
holds the rows it would alone. Each batch scores its slice of the block's
residual stack with ``cross_entropy_head``. Neither the signals, equal to
the sampled ones bit for bit (:func:`~deepmp.datagen.synthesize`), nor the
walk depends on the weights, and rows are independent in both, so a block
gives every batch the bits its own walk would. No pass runs before the
first epoch: epoch 0's walks pick each row's targets from its support and
store them, and later epochs' walks follow the stored targets. Validation
synthesises and scores the held-out rows one ``row_blocks`` block at a time,
as the sweep does.
The AdaBound step forms its gradient one group of whole blocks at a time and
updates each group before the next is formed, so a step never holds the
whole gradient stack.

Training alone chooses mixed precision (Micikevicius et al. 2018): the
replay stack, the scores, the gradient and AdaBound's moments are float32,
while the weights, updated in place, the teacher path, validation, the
returned model, inference and model files stay float64.
The last ``val_fraction`` of the sample index space is held out: it never
drives a gradient step; it is reported as per-epoch support recovery and
picks the model that training returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import MixtureConfig, row_blocks, sample_mixture, synthesize
from .errors import EmptyInput, NonFiniteLoss, OutOfRange
from .metrics import hamming_complement  # unused; perfbench/tracing.py wraps it here
from .metrics import row_recovery
from .network import (
    UnfoldedModel,
    batched_infer,
    cross_entropy_head,
    init_from_dictionary,
    teacher_walk,
)
from .network import build_training_batch  # unused; perfbench/tracing.py wraps it here
from .network import loss_and_gradient  # unused; perfbench/tracing.py wraps it here
from .optim import AdaBoundHyper, adabound_step, init_adabound
from .seeding import SHUFFLE_STREAM, TRAIN_STREAM, child_seed
from .solvers import ProjectionMode
from .types import Dictionary


#: mixtures per shard of the stream ``gen-data`` exports, read at each call
SHARD_SIZE = 8192


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    mean_loss: float
    val_recovery: float


def stream_shards(dictionary: Dictionary, depth: int, seed: int, total: int):
    """Yield the mixtures of sample indices 0..total-1, one shard at a time.

    Shard i holds indices ``i * SHARD_SIZE`` onwards and is drawn from its
    own seed, so every shard is reproducible on its own.
    """
    for i, start in enumerate(range(0, total, SHARD_SIZE)):
        yield sample_mixture(
            dictionary,
            MixtureConfig(sparsity=depth,
                          num_samples=min(SHARD_SIZE, total - start),
                          seed=child_seed(seed, TRAIN_STREAM, depth, i)),
        )


def _validation_recovery(model: UnfoldedModel, supports: np.ndarray,
                         coeffs: np.ndarray) -> float:
    """Mean support recovery over held-out rows, one :func:`row_blocks`
    block at a time."""
    if not len(supports):
        return float("nan")
    recovery = np.empty(len(supports))
    for rows in row_blocks(len(supports)):
        signals = synthesize(model.update_dict.atoms, supports[rows],
                             coeffs[rows])
        picked, _ = batched_infer(model, signals)
        recovery[rows] = row_recovery(picked, supports[rows])
    return float(np.mean(recovery))


def train_model(dictionary: Dictionary, depth: int, num_samples: int, *,
                epochs: int, batch_size: int = 128,
                hyper: AdaBoundHyper | None = None,
                proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT,
                seed: int = 0, val_fraction: float = 0.1
                ) -> tuple[UnfoldedModel, list[TrainLogRow]]:
    """Train the selection matrices of a depth-``depth`` model.

    The first ``1 - val_fraction`` of the sample stream is training data,
    the rest validation; the stream is drawn, and each epoch shuffled, one
    ``SHARD_SIZE`` shard at a time. A shard's shuffled order is cut into
    walk blocks of ``num_atoms // signal_dim`` batches (at least one), the
    last of them ragged; a block's signals are synthesised and its rows
    walked once, and each of its batches then takes one gradient step on
    its slice of the walk. The returned model is the validation-best
    of the dictionary initialization and the weights after each epoch; ties
    go to the earlier candidate, so a trained model never scores below its
    NNMP start on the held-out split. With no validation samples the last
    epoch is returned. The log holds one row per trained epoch.
    ``epochs == 0`` returns the dictionary-initialized model untouched.
    Raises OutOfRange, before anything is drawn, when ``batch_size`` is below
    1, ``epochs`` is negative or ``val_fraction`` is not in [0, 1); raises
    EmptyInput when the split leaves no training samples and NonFiniteLoss
    if a batch loss leaves the reals.
    """
    if batch_size < 1:
        raise OutOfRange(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise OutOfRange(f"epochs must be >= 0, got {epochs}")
    # written so that NaN fails it too
    if not 0.0 <= val_fraction < 1.0:
        raise OutOfRange(f"val_fraction must be in [0, 1), got {val_fraction}")
    num_val = int(round(num_samples * val_fraction))
    num_train = num_samples - num_val
    if num_train < 1:
        raise EmptyInput(
            f"no training samples: {num_samples} samples with val_fraction "
            f"{val_fraction}"
        )
    model = init_from_dictionary(dictionary, depth, proj)
    atoms = dictionary.atoms

    # each shard is copied into place as it is drawn, so no two copies of
    # the stream are held
    supports = np.empty((num_samples, depth), dtype=np.int64)
    coeffs = np.empty((num_samples, depth))
    for i, shard in enumerate(stream_shards(dictionary, depth, seed, num_samples)):
        rows = slice(i * SHARD_SIZE, i * SHARD_SIZE + len(shard))
        supports[rows], coeffs[rows] = shard.supports, shard.coeffs
    # the last shard is released before training starts
    del shard
    # filled by epoch 0, whose walk picks each row's targets
    targets = np.empty((num_train, depth), dtype=np.int64)
    val_supports, val_coeffs = supports[num_train:], coeffs[num_train:]

    # the validation-best weights: None is the initialization, which is
    # rebuilt from the dictionary rather than held; trained weights are
    # copied only while later epochs could overwrite them
    best: np.ndarray | None = None
    best_recovery = _validation_recovery(model, val_supports, val_coeffs)

    # a walk block of N // M whole batches holds a float32 (K, rows, M)
    # stack no larger than one batch's (K, N, B) score stack
    walk_rows = batch_size * max(1, dictionary.num_atoms // dictionary.signal_dim)
    state = init_adabound(model.selection_weights, hyper, dtype=np.float32)
    log_rows: list[TrainLogRow] = []
    for epoch in range(epochs):
        loss_total = 0.0
        for i, base in enumerate(range(0, num_train, SHARD_SIZE)):
            shuffle = np.random.default_rng(
                child_seed(seed, SHUFFLE_STREAM, depth, epoch, i))
            order = base + shuffle.permutation(min(SHARD_SIZE, num_train - base))
            for lo in range(0, len(order), walk_rows):
                block = order[lo:lo + walk_rows]
                # epoch 0 picks the block's targets, later epochs follow
                # them; the walk's first update releases the signals
                block_targets, stack, live = teacher_walk(
                    model, synthesize(atoms, supports[block], coeffs[block]),
                    supports=None if epoch else supports[block],
                    targets=targets[block] if epoch else None, dtype=np.float32)
                if not epoch:
                    targets[block] = block_targets
                for b in range(0, len(block), batch_size):
                    s = slice(b, b + batch_size)
                    batch = block_targets[s]
                    loss, gradient = cross_entropy_head(
                        model.selection_weights, stack[:, s], live[:, s], batch)
                    if not np.isfinite(loss):
                        raise NonFiniteLoss(
                            f"non-finite loss at epoch {epoch}, shard {i}"
                        )
                    adabound_step(state, model.selection_weights, gradient)
                    # the scores it holds are released before the next batch
                    # builds its own
                    del gradient
                    loss_total += loss * len(batch)
                # released before the next block walks
                del stack, live
        val_recovery = _validation_recovery(model, val_supports, val_coeffs)
        log_rows.append(TrainLogRow(
            epoch=epoch,
            mean_loss=loss_total / num_train,
            val_recovery=val_recovery,
        ))
        if num_val and val_recovery > best_recovery:
            # the earlier copy is released before the new one is made
            best_recovery, best = val_recovery, None
            best = (model.selection_weights.copy(order="K")
                    if epoch + 1 < epochs else model.selection_weights)
    # the moments are released before a model is rebuilt or returned
    del state

    if best is not None:
        model.selection_weights = best
    elif num_val:
        model = init_from_dictionary(dictionary, depth, proj)
    return model, log_rows

