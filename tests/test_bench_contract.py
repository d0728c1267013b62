"""What the benchmark relies on in deepmp, pinned where a refactor sees it.

perfbench/tracing.py replaces ``module.attribute`` for every lookup site in
its ``TRACED`` table; a refactor that drops one of those attributes would
only surface as a crash of a traced benchmark run. This test fails first.
The benchmark also takes the length of ``sample_mixture``'s result and
iterates it one sample at a time.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from deepmp.datagen import MixtureConfig, sample_mixture

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
