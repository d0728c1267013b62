"""Epoch-driven training of one unfolded model per sparsity level.

Training mixtures come from shards seeded from the master seed, so
identical seeds reproduce identical batches (and therefore bit-identical
models). Each shard is drawn once per training run, and the teacher targets
of its training mixtures are computed while it is alive. Only each
mixture's support and coefficients, plus the targets, outlive the shard:
O(N k) numbers for N mixtures at sparsity k, whatever the signal dimension.
Signals are never held; every batch synthesises its own with the helper
that ``sample_mixture`` uses, so they equal the sampled signals bit for bit,
replays them along the rows of the (N, k) target array (``teacher_replay``)
and scores the replay with ``cross_entropy_head``. The AdaBound step forms
its gradient one group of whole blocks at a time and updates each group
before the next is formed, so a step never holds the whole gradient stack.
The last ``val_fraction`` of the sample index space is held out: it never
drives a gradient step; it is reported as per-epoch support recovery and
picks the model that training returns. Validation, too, synthesises and
scores one batch of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import MixtureConfig, sample_mixture, synthesize
from .errors import EmptyInput, NonFiniteLoss
from .metrics import hamming_complement  # unused; perfbench/tracing.py wraps it here
from .metrics import row_recovery
from .network import (
    UnfoldedModel,
    batched_infer,
    build_training_batch,
    cross_entropy_head,
    init_from_dictionary,
    teacher_replay,
)
from .network import loss_and_gradient  # unused; perfbench/tracing.py wraps it here
from .optim import AdaBoundHyper, adabound_step, init_adabound
from .seeding import SHUFFLE_STREAM, TRAIN_STREAM, child_seed
from .solvers import ProjectionMode
from .types import Dictionary


#: mixtures per shard of the training stream, which ``gen-data`` exports
SHARD_SIZE = 8192


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    mean_loss: float
    val_recovery: float


def stream_shards(dictionary: Dictionary, depth: int, seed: int,
                  shard_size: int, total: int):
    """Yield (shard_index, mixtures) covering sample indices 0..total-1.

    Shard i holds indices ``i * shard_size`` onwards and is drawn from its
    own seed, so every shard is reproducible on its own.
    """
    for i, start in enumerate(range(0, total, shard_size)):
        yield i, sample_mixture(
            dictionary,
            MixtureConfig(sparsity=depth,
                          num_samples=min(shard_size, total - start),
                          seed=child_seed(seed, TRAIN_STREAM, depth, i)),
        )


def _validation_recovery(model: UnfoldedModel, supports: np.ndarray,
                         coeffs: np.ndarray, batch_size: int) -> float:
    """Mean support recovery over held-out rows, ``batch_size`` rows at a time."""
    if not len(supports):
        return float("nan")
    recovery = np.empty(len(supports))
    for lo in range(0, len(supports), batch_size):
        rows = slice(lo, lo + batch_size)
        signals = synthesize(model.update_dict.atoms, supports[rows],
                             coeffs[rows])
        picked, _ = batched_infer(model, signals)
        recovery[rows] = row_recovery(picked, supports[rows])
    return float(np.mean(recovery))


def train_model(dictionary: Dictionary, depth: int, num_samples: int, *,
                epochs: int, batch_size: int = 128,
                hyper: AdaBoundHyper | None = None,
                proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT,
                seed: int = 0, shard_size: int = SHARD_SIZE,
                val_fraction: float = 0.1
                ) -> tuple[UnfoldedModel, list[TrainLogRow]]:
    """Train the selection matrices of a depth-``depth`` model.

    The first ``1 - val_fraction`` of the sample stream is training data,
    the rest validation. The returned model is the validation-best of the
    dictionary initialization and the weights after each epoch; ties go to
    the earlier candidate, so a trained model never scores below its NNMP
    start on the held-out split. With no validation samples the last epoch
    is returned. The log holds one row per trained epoch. ``epochs == 0``
    returns the dictionary-initialized model untouched. Raises EmptyInput
    when the split leaves no training samples and NonFiniteLoss if a batch
    loss leaves the reals.
    """
    num_val = int(round(num_samples * val_fraction))
    num_train = num_samples - num_val
    if num_train < 1:
        raise EmptyInput(
            f"no training samples: {num_samples} samples with val_fraction "
            f"{val_fraction}"
        )
    model = init_from_dictionary(dictionary, depth, proj)
    atoms = dictionary.atoms

    # one walk of the stream; training rows also get their teacher targets,
    # computed while the shard's signals are alive
    supports = np.empty((num_samples, depth), dtype=np.int64)
    coeffs = np.empty((num_samples, depth))
    targets = np.empty((num_train, depth), dtype=np.int64)
    for i, shard in stream_shards(dictionary, depth, seed, shard_size,
                                  num_samples):
        base = i * shard_size
        supports[base:base + len(shard)] = shard.supports
        coeffs[base:base + len(shard)] = shard.coeffs
        shard_train = min(len(shard), num_train - base)
        for lo in range(0, shard_train, batch_size):
            hi = min(lo + batch_size, shard_train)
            targets[base + lo:base + hi] = build_training_batch(
                model, shard.signals[lo:hi], shard.supports[lo:hi])
        # released before the next shard is drawn
        del shard
    val_supports, val_coeffs = supports[num_train:], coeffs[num_train:]

    # best candidate so far: -1 is the initialization, which is rebuilt from
    # the dictionary rather than held; trained weights are copied only while
    # they lead and later epochs could overwrite them
    best_epoch = -1
    best_recovery = _validation_recovery(model, val_supports, val_coeffs,
                                         batch_size)
    best_weights: np.ndarray | None = None

    state = init_adabound(model.selection_weights, hyper)
    log_rows: list[TrainLogRow] = []
    for epoch in range(epochs):
        loss_total = 0.0
        for i, base in enumerate(range(0, num_train, shard_size)):
            shuffle = np.random.default_rng(
                child_seed(seed, SHUFFLE_STREAM, depth, epoch, i))
            order = base + shuffle.permutation(min(shard_size, num_train - base))
            for lo in range(0, len(order), batch_size):
                idx = order[lo:lo + batch_size]
                batch = targets[idx]
                loss, gradient = cross_entropy_head(
                    model.selection_weights,
                    *teacher_replay(
                        model, synthesize(atoms, supports[idx], coeffs[idx]),
                        batch),
                    batch)
                if not np.isfinite(loss):
                    raise NonFiniteLoss(
                        f"non-finite loss at epoch {epoch}, shard {i}"
                    )
                adabound_step(state, model.selection_weights, gradient)
                # the scores and residuals it holds are released before the
                # next batch builds its own
                del gradient
                loss_total += loss * len(idx)
        val_recovery = _validation_recovery(model, val_supports, val_coeffs,
                                            batch_size)
        log_rows.append(TrainLogRow(
            epoch=epoch,
            mean_loss=loss_total / num_train,
            val_recovery=val_recovery,
        ))
        if num_val and val_recovery > best_recovery:
            best_epoch, best_recovery, best_weights = epoch, val_recovery, None
            if epoch + 1 < epochs:
                best_weights = model.selection_weights.copy(order="K")
    # the moments are released before a model is rebuilt or returned
    del state

    if not num_val or best_epoch == epochs - 1:
        return model, log_rows
    if best_weights is None:
        return init_from_dictionary(dictionary, depth, proj), log_rows
    return UnfoldedModel(selection_weights=best_weights,
                         update_dict=dictionary, proj=proj), log_rows


def write_train_log(rows: list[TrainLogRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss,val_recovery\n")
        for row in rows:
            fh.write(f"{row.epoch},{row.mean_loss!r},{row.val_recovery!r}\n")
