"""Epoch-driven training of one unfolded model per sparsity level.

Training mixtures are streamed shard by shard with seeds derived from the
master seed, so the data never has to be materialized at once and identical
seeds reproduce identical batches (and therefore bit-identical models). The
last ``val_fraction`` of the sample index space is held out: it never drives
a gradient step; it is reported as per-epoch support recovery and picks the
model that training returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import MixtureConfig, sample_mixture
from .errors import EmptyInput, NonFiniteLoss
from .metrics import hamming_complement
from .network import (
    UnfoldedModel,
    batched_infer,
    build_training_batch,
    init_from_dictionary,
    loss_and_gradient,
)
from .optim import AdaBoundHyper, adabound_step, init_adabound
from .seeding import SHUFFLE_STREAM, TRAIN_STREAM, child_seed, rng_for
from .solvers import ProjectionMode
from .types import Dictionary, Sample


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    mean_loss: float
    val_recovery: float


def generate_shard(dictionary: Dictionary, depth: int, seed: int,
                   shard_index: int, shard_size: int, total: int) -> list[Sample]:
    """Samples of one shard of the deterministic per-sparsity data stream."""
    start = shard_index * shard_size
    count = min(shard_size, total - start)
    if count <= 0:
        return []
    return sample_mixture(
        dictionary,
        MixtureConfig(sparsity=depth, num_samples=count,
                      seed=child_seed(seed, TRAIN_STREAM, depth, shard_index)),
    )


def stream_shards(dictionary: Dictionary, depth: int, seed: int,
                  shard_size: int, total: int):
    """Yield (shard_index, samples) covering sample indices 0..total-1."""
    num_shards = (total + shard_size - 1) // shard_size
    for i in range(num_shards):
        yield i, generate_shard(dictionary, depth, seed, i, shard_size, total)


def _validation_recovery(model: UnfoldedModel, samples: list[Sample]) -> float:
    if not samples:
        return float("nan")
    signals = np.stack([s.signal for s in samples])
    supports, _ = batched_infer(model, signals)
    scores = [
        hamming_complement(row[row >= 0], s.true_support, s.sparsity)
        for row, s in zip(supports, samples)
    ]
    return float(np.mean(scores))


def train_model(dictionary: Dictionary, depth: int, num_samples: int, *,
                epochs: int, batch_size: int = 128,
                hyper: AdaBoundHyper | None = None,
                proj: ProjectionMode = ProjectionMode.POSITIVE_ORTHANT,
                seed: int = 0, shard_size: int = 8192,
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

    val_samples: list[Sample] = []
    if num_val:
        first_val_shard = num_train // shard_size
        for i, shard in stream_shards(dictionary, depth, seed, shard_size,
                                      num_samples):
            if i < first_val_shard:
                continue
            base = i * shard_size
            val_samples.extend(
                s for j, s in enumerate(shard) if base + j >= num_train
            )

    # best candidate so far: -1 is the initialization, which is rebuilt from
    # the dictionary rather than held; trained weights are copied only while
    # they lead and later epochs could overwrite them
    best_epoch = -1
    best_recovery = _validation_recovery(model, val_samples)
    best_weights: list[np.ndarray] | None = None

    state = init_adabound(model.selection_weights, hyper)
    log_rows: list[TrainLogRow] = []
    for epoch in range(epochs):
        loss_total = 0.0
        for i, shard in stream_shards(dictionary, depth, seed, shard_size,
                                      num_train):
            order = rng_for(seed, SHUFFLE_STREAM, depth, epoch, i).permutation(
                len(shard)
            )
            for lo in range(0, len(shard), batch_size):
                chunk = [shard[j] for j in order[lo:lo + batch_size]]
                batch = build_training_batch(model, chunk)
                loss, grads = loss_and_gradient(model, batch)
                if not np.isfinite(loss):
                    raise NonFiniteLoss(
                        f"non-finite loss at epoch {epoch}, shard {i}"
                    )
                adabound_step(state, model.selection_weights, grads)
                # release before the next batch builds its own: two live
                # gradient sets would set the training memory peak
                del grads
                loss_total += loss * len(chunk)
        val_recovery = _validation_recovery(model, val_samples)
        log_rows.append(TrainLogRow(
            epoch=epoch,
            mean_loss=loss_total / num_train,
            val_recovery=val_recovery,
        ))
        if val_samples and val_recovery > best_recovery:
            best_epoch, best_recovery, best_weights = epoch, val_recovery, None
            if epoch + 1 < epochs:
                best_weights = [w.copy(order="F")
                                for w in model.selection_weights]

    if not val_samples or best_epoch == epochs - 1:
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
