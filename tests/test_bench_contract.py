"""What the benchmark relies on in deepmp, pinned where a refactor sees it.

perfbench/tracing.py replaces ``module.attribute`` for every lookup site in
its ``TRACED`` table; a refactor that drops one of those attributes would
only surface as a crash of a traced benchmark run. This test fails first.
The benchmark also takes the length of ``sample_mixture``'s result and
iterates it one sample at a time, and its counter hooks read a model's depth,
a training batch's length, the blocks of the selection stack and a pursuit
result's ``steps_taken``. perfbench/workloads.py reads ``support`` and
``code`` of one-signal pursuit results, ``val_recovery`` of training log
rows, the ``(signals, k) -> (supports, codes)`` sweep runners, the test
stream's seeds and ``cli.main``'s exit code; a refactor that drops one of
those would only surface as failed benchmark operations.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from deepmp import cli, seeding
from deepmp.datagen import MixtureConfig, sample_mixture
from deepmp.metrics import deepmp_runner, nnmp_runner, nnomp_runner, run_sweep
from deepmp.network import (
    build_training_batch,
    forward_infer,
    init_from_dictionary,
    loss_and_gradient,
)
from deepmp.optim import adabound_step, init_adabound
from deepmp.solvers import nnmp_solve, nnomp_solve
from deepmp.training import train_model

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


def test_one_signal_results_carry_support_code_and_steps(small_dictionary):
    # sweep-synth's criterion-1 check compares support and code of
    # forward_infer and nnmp_solve; the solve hooks count steps_taken
    d = small_dictionary
    y = d.atoms[:, [3, 7]] @ np.array([0.6, 0.4])
    model = init_from_dictionary(d, 2)
    traced = load_tracing().TRACED
    tracer = CountingTracer()
    calls = [("network.forward_infer", forward_infer, (model, y)),
             ("solvers.nnmp_solve", nnmp_solve, (d, y, 2)),
             ("solvers.nnomp_solve", nnomp_solve, (d, y, 2))]
    for name, solve, args in calls:
        result = solve(*args)
        assert result.support.ndim == 1 and result.support.dtype.kind == "i"
        assert result.code.shape == (d.num_atoms,)
        assert result.steps_taken == result.support.size <= 2
        traced[name][2](tracer, name, args, {}, result)
    assert tracer.counters["solvers.solves"] == 3
    assert 3 <= tracer.counters["solvers.steps"] <= 6


def test_train_model_log_rows_carry_val_recovery(small_dictionary):
    model, rows = train_model(small_dictionary, 2, 60, epochs=1, seed=3,
                              val_fraction=0.25)
    assert model.depth == 2 and len(rows) == 1
    assert 0.0 <= rows[-1].val_recovery <= 1.0


def test_sweep_runners_map_signals_and_k_to_supports_and_codes(
        small_dictionary):
    d, k = small_dictionary, 3
    signals = sample_mixture(d, MixtureConfig(sparsity=k, num_samples=5,
                                              seed=4)).signals
    runners = [nnmp_runner(d), nnomp_runner(d),
               deepmp_runner({k: init_from_dictionary(d, k)})]
    for run in runners:
        supports, codes = run(signals, k)
        assert supports.shape == (5, k) and supports.dtype.kind == "i"
        assert codes.shape == (5, d.num_atoms)


def test_child_seed_and_test_stream_redraw_a_sweeps_test_set(
        small_dictionary):
    # sweep-synth's criterion-1 check redraws the sweeps' test mixtures
    d = small_dictionary
    seen = {}

    def record(signals, k):
        seen[k] = signals.copy()
        return (np.full((len(signals), k), -1),
                np.zeros((len(signals), d.num_atoms)))

    run_sweep(d, {"record": record}, [2], 6, 11)
    redrawn = sample_mixture(d, MixtureConfig(
        sparsity=2, num_samples=6,
        seed=seeding.child_seed(11, seeding.TEST_STREAM, 2)))
    assert np.array_equal(redrawn.signals, seen[2])


def test_cli_main_returns_its_exit_code(tmp_path, capsys):
    # cli-surrogate runs the steps in process and reads the returned code
    out = str(tmp_path / "run")
    ok = cli.main(["--out", out, "--scale", "0.002", "gen-dict"])
    bad = cli.main(["--out", out, "--k-range", "0", "gen-dict"])
    capsys.readouterr()
    assert type(ok) is int and ok == 0
    assert type(bad) is int and bad == 2
