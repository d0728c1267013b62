"""What the benchmark relies on in deepmp, pinned where a refactor sees it.

perfbench/tracing.py replaces ``module.attribute`` for every lookup site in
its ``TRACED`` table; a refactor that drops one of those attributes would
only surface as a crash of a traced benchmark run. This test fails first.
The benchmark also takes the length of ``sample_mixture``'s result and
iterates it one sample at a time, and its counter hooks read a model's depth,
a training batch's length and the blocks of the selection stack.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from deepmp.datagen import MixtureConfig, sample_mixture
from deepmp.network import (
    build_training_batch,
    init_from_dictionary,
    loss_and_gradient,
)
from deepmp.optim import adabound_step, init_adabound

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_site_resolves():
    traced = load_tracing().TRACED
    assert traced
    missing = []
    for name, (sites, attr, _hook) in traced.items():
        for site in sites:
            if not callable(getattr(importlib.import_module(site), attr, None)):
                missing.append(f"{name}: {site}.{attr}")
    assert not missing, missing


def test_sample_mixture_result_has_length_and_yields_samples(small_dictionary):
    # the tracer's draw counter takes len() of the result, and sweep-synth's
    # criterion-1 check iterates it one sample at a time
    result = sample_mixture(small_dictionary,
                            MixtureConfig(sparsity=3, num_samples=7, seed=2))
    assert len(result) == 7
    samples = list(result)
    assert len(samples) == 7
    for b, sample in enumerate(samples):
        assert np.array_equal(sample.signal, result.signals[b])
        assert np.array_equal(sample.true_support, result.supports[b])


class CountingTracer:
    def __init__(self):
        self.counters = {}

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n


def test_counter_hooks_read_depth_batch_length_and_stack_blocks(small_dictionary):
    # the loss hook reads model.depth and the batch size as len(args[1]), the
    # signals' row count; the AdaBound hook sums nbytes over the blocks it
    # gets by iterating the parameter stack, so
    # optim.adabound_step.bytes_computed moves only if the stack does
    model = init_from_dictionary(small_dictionary, 3)
    mixtures = sample_mixture(small_dictionary,
                              MixtureConfig(sparsity=3, num_samples=7, seed=2))
    targets = build_training_batch(model, mixtures.signals, mixtures.supports)
    assert model.depth == 3
    args = (model, mixtures.signals, targets)
    assert len(args[1]) == 7
    blocks = list(model.selection_weights)
    assert len(blocks) == model.depth
    assert all(w.shape == small_dictionary.atoms.shape for w in blocks)
    assert sum(w.nbytes for w in blocks) == model.selection_weights.nbytes

    traced = load_tracing().TRACED
    tracer = CountingTracer()
    traced["network.loss_and_gradient"][2](
        tracer, "network.loss_and_gradient", args, {},
        loss_and_gradient(*args))
    args = (init_adabound(model.selection_weights), model.selection_weights,
            loss_and_gradient(model, mixtures.signals, targets)[1])
    traced["optim.adabound_step"][2](
        tracer, "optim.adabound_step", args, {}, adabound_step(*args))
    b, m, n = 7, model.signal_dim, model.num_atoms
    assert (tracer.counters["network.loss_and_gradient.flops_computed"]
            == 3 * (4 * b * m * n + 5 * b * n + 6 * b * m))
    assert (tracer.counters["optim.adabound_step.bytes_computed"]
            == 7 * model.selection_weights.nbytes)
