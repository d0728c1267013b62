"""Deterministic seed derivation for every random stream in a run.

All randomness flows through numpy's PCG64 via ``default_rng``; streams are
derived from the master seed plus a stream tag (and optional keys such as the
sparsity level or shard index), so training, evaluation, and data export stay
reproducible and mutually disjoint.
"""

from __future__ import annotations

import numpy as np

DICT_STREAM = 1
TRAIN_STREAM = 2
TEST_STREAM = 3
SHUFFLE_STREAM = 4


def child_seed(master_seed: int, stream: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=[int(master_seed), int(stream), *(int(k) for k in key)]
    )
