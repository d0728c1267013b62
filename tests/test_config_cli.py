import hashlib
import json
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepmp import cli, optim, training
from deepmp.cli import blob_hash, main
from deepmp.config import _SCHEMA, RunConfig, load_config, parse_k_range
from deepmp.datagen import (
    generate_synthetic_dictionary,
    sample_mixture,
    write_dataset,
)
from deepmp.errors import ConfigError, EmptyInput, OutOfRange
from deepmp.metrics import hamming_complement
from deepmp.network import (
    UnfoldedModel,
    batched_infer,
    build_training_batch,
    cross_entropy_head,
    forward_infer,
    init_from_dictionary,
    load_model,
    save_model,
    teacher_walk,
)
from deepmp.optim import AdaBoundHyper, adabound_step, init_adabound
from deepmp.seeding import SHUFFLE_STREAM, child_seed
from deepmp.training import stream_shards, train_model
from deepmp.types import load_dictionary_csv

from conftest import read_shards


# -- configuration ------------------------------------------------------------


def test_defaults_match_reference_table():
    cfg = RunConfig()
    assert (cfg.signal_dim, cfg.num_atoms) == (30, 200)
    assert cfg.lr == 1e-3
    assert cfg.final_lr == 0.1
    # the CLI trains with exactly the library's AdaBound defaults
    assert cfg.hyper() == AdaBoundHyper()
    assert cfg.num_train_samples == 150000
    assert cfg.resolved_epochs == 20
    assert cfg.k_range == (1, 2, 3, 4, 5)
    raman = RunConfig(source="raman", raman_path="x.csv")
    assert raman.resolved_epochs == 30


def test_scale_shrinks_sample_counts():
    cfg = RunConfig().scaled(0.1)
    assert cfg.num_train_samples == 15000
    assert cfg.z_test == 500
    assert RunConfig().scaled(1e-9).num_train_samples == 1


def test_parse_k_range_forms():
    assert parse_k_range("1-5") == (1, 2, 3, 4, 5)
    assert parse_k_range("3") == (3,)
    assert parse_k_range("1,2,4") == (1, 2, 4)
    with pytest.raises(ConfigError):
        parse_k_range("five")


def test_parse_k_range_rejects_a_long_span_before_building_it():
    # the span bound is 1000 levels; 10**6 levels would cost tens of MB if
    # built first, so this stays cheap where the bound is missing
    assert parse_k_range("1-1000") == tuple(range(1, 1001))
    for spec in ("1-1001", "1-1000000", "1-99999999999999999999"):
        with pytest.raises(ConfigError, match="spans more than 1000"):
            parse_k_range(spec)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[dictionary]\nsource = surrogate\nsignal_dim = 40\nnum_atoms = 60\n"
        "[training]\nk_range = 1-2\nepochs = 3\nbatch_size = 16\n"
        "[run]\nseed = 7\nout_dir = somewhere\n"
    )
    cfg = load_config(path)
    assert cfg.source == "surrogate"
    assert (cfg.signal_dim, cfg.num_atoms) == (40, 60)
    assert cfg.k_range == (1, 2)
    assert cfg.resolved_epochs == 3
    assert cfg.seed == 7
    assert cfg.out_dir == "somewhere"
    # untouched values keep reference defaults
    assert cfg.lr == 1e-3 and cfg.final_lr == 0.1


def test_config_with_a_byte_order_mark_loads(tmp_path):
    # the mark used to hide the first section header: "File contains no
    # section headers"
    text = "[training]\nk_range = 1-2\nepochs = 3\n[run]\nseed = 7\n"
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    cfg = load_config(marked)
    assert cfg == load_config(plain)
    assert cfg.k_range == (1, 2) and cfg.seed == 7


def test_config_naming_every_key_at_its_default_loads_the_defaults(tmp_path):
    # each value is parsed by the type of its field's default
    defaults = RunConfig()
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(defaults, key)
            if key == "k_range":
                value = ",".join(map(str, value))
            lines.append(f"{key} = {value}")
    path = tmp_path / "defaults.ini"
    path.write_text("\n".join(lines) + "\n")
    assert sorted(key for keys in _SCHEMA.values() for key in keys) == sorted(
        vars(defaults))
    assert load_config(path) == defaults


#: settings a run does not vary: AdaBound's other constants, the shard size
#: and the ECDF grid
REMOVED_KEYS = {"beta1": "training", "beta2": "training", "gamma": "training",
                "epsilon": "training", "shard_size": "training",
                "ecdf_grid_points": "evaluation"}


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    for key, section in {"learning_rate": "training", **REMOVED_KEYS}.items():
        path.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[run]\nseed = 1\xff\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8")):
        load_config(path)


def test_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[dictionary]\nsignal_dim = 100\nnum_atoms = 50\n")
    with pytest.raises(ConfigError):
        load_config(path)


no_newline = st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\r\n")
ini_values = st.one_of(
    st.text(no_newline, max_size=12),
    st.integers(-3, 300).map(str),
    st.floats().map(repr),
    # k ranges: short ones, and ones too long for a tuple's length; lengths
    # in between would be built in memory, so they are left out
    st.tuples(st.integers(-2, 8),
              st.one_of(st.integers(-2, 8), st.integers(2**63, 2**80))
              ).map("{0[0]}-{0[1]}".format),
    st.sampled_from(["positive", "identity", "synthetic", "surrogate", "raman",
                     "1,2,4", "50%", "%(seed)s", "", "0.5"]),
)
ini_lines = st.one_of(
    st.tuples(st.sampled_from([key for keys in _SCHEMA.values() for key in keys]
                              + ["bogus"]),
              st.sampled_from([" = ", "=", ": "]), ini_values).map("".join),
    st.text(no_newline, max_size=20),
)
ini_sections = st.tuples(
    st.sampled_from([*_SCHEMA, "DEFAULT", "nope"]).map("[{}]".format),
    st.lists(ini_lines, max_size=4),
).map(lambda section: "\n".join([section[0], *section[1]]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(ini_sections, max_size=4).map("\n".join),
                 st.text(max_size=80)))
@example("[run]\nout_dir = runs/o50%\n")
@example("[training]\nlr = nan\n")
@example("[training]\nk_range = 1-99999999999999999999\n")
def test_load_config_returns_valid_config_or_raises_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(text, encoding="utf-8")
        try:
            config = load_config(path)
        except ConfigError:
            return
    assert isinstance(config, RunConfig)
    assert config.validate() is config


# -- training loop ------------------------------------------------------------


def test_zero_epochs_returns_dictionary_init(tmp_path, small_dictionary):
    model, rows = train_model(small_dictionary, 2, 100, epochs=0, seed=4)
    assert rows == []
    reference = init_from_dictionary(small_dictionary, 2)
    trained_path = tmp_path / "a.dmp"
    init_path = tmp_path / "b.dmp"
    save_model(model, trained_path)
    save_model(reference, init_path)
    assert trained_path.read_bytes() == init_path.read_bytes()


def test_training_is_seed_deterministic(tmp_path, small_dictionary):
    paths = []
    for name in ("one", "two"):
        model, rows = train_model(small_dictionary, 2, 300, epochs=2,
                                  batch_size=32, seed=77)
        path = tmp_path / f"{name}.dmp"
        save_model(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_training_rejects_empty_training_split(small_dictionary):
    with pytest.raises(EmptyInput, match="no training samples"):
        train_model(small_dictionary, 2, 2, epochs=1, val_fraction=0.9)


@pytest.mark.parametrize("bad", [
    {"batch_size": 0}, {"batch_size": -5}, {"epochs": -1},
    {"val_fraction": -0.1},
    {"val_fraction": 1.0}, {"val_fraction": float("nan")},
])
def test_training_rejects_out_of_range_arguments_before_drawing(
        monkeypatch, small_dictionary, bad):
    # RunConfig guards the CLI; the library entry point checks on its own
    drawn = []
    monkeypatch.setattr(training, "sample_mixture",
                        lambda *args: drawn.append(args))
    with pytest.raises(OutOfRange, match=next(iter(bad))):
        train_model(small_dictionary, 2, 300, **{"epochs": 1, **bad})
    assert drawn == []


def test_training_log_rows(small_dictionary):
    model, rows = train_model(small_dictionary, 2, 200, epochs=3,
                              batch_size=32, seed=5)
    assert [r.epoch for r in rows] == [0, 1, 2]
    assert all(np.isfinite(r.mean_loss) for r in rows)
    assert all(0.0 <= r.val_recovery <= 1.0 for r in rows)


def held_out(dictionary, depth, seed, num_samples, num_train):
    """Signals and supports of the stream's rows from ``num_train`` on."""
    shards = list(stream_shards(dictionary, depth, seed, num_samples))
    return (np.concatenate([m.signals for m in shards])[num_train:],
            np.concatenate([m.supports for m in shards])[num_train:])


def held_out_recovery(model, dictionary, depth, seed, num_samples):
    """Per-sample NNMP-style recovery on train_model's default held-out split."""
    num_val = int(round(num_samples * 0.1))
    signals, truth = held_out(dictionary, depth, seed, num_samples,
                              num_samples - num_val)
    return float(np.mean([
        hamming_complement(forward_infer(model, y).support, t, depth)
        for y, t in zip(signals, truth)
    ]))


def model_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


def test_training_never_returns_worse_than_init(tmp_path, small_dictionary):
    # at this seed validation recovery falls after every epoch: init 0.5083,
    # epochs 0.4417, 0.4583, 0.4667
    depth, seed, n = 3, 0, 400
    model, rows = train_model(small_dictionary, depth, n, epochs=3,
                              batch_size=32, seed=seed)
    init = init_from_dictionary(small_dictionary, depth)
    init_score = held_out_recovery(init, small_dictionary, depth, seed, n)
    assert [r.epoch for r in rows] == [0, 1, 2]
    assert all(r.val_recovery < init_score for r in rows)
    assert (held_out_recovery(model, small_dictionary, depth, seed, n)
            >= init_score)
    assert (model_bytes(model, tmp_path / "a.dmp")
            == model_bytes(init, tmp_path / "b.dmp"))

    # without a validation split the last epoch is returned as trained
    last, rows = train_model(small_dictionary, depth, n, epochs=3,
                             batch_size=32, seed=seed, val_fraction=0.0)
    assert all(np.isnan(r.val_recovery) for r in rows)
    assert (model_bytes(last, tmp_path / "c.dmp")
            != model_bytes(init, tmp_path / "b.dmp"))


def test_training_returns_validation_best_epoch(tmp_path, small_dictionary):
    # validation recovery at this seed: init 0.7625, epochs 0.775, 0.775,
    # 0.7625; epoch 0 wins and the tie at epoch 1 keeps the earlier candidate
    depth, seed, n = 2, 18, 400
    model, rows = train_model(small_dictionary, depth, n, epochs=3,
                              batch_size=32, seed=seed)
    assert rows[0].val_recovery == rows[1].val_recovery > rows[2].val_recovery
    first, _ = train_model(small_dictionary, depth, n, epochs=1,
                           batch_size=32, seed=seed)
    assert (model_bytes(model, tmp_path / "a.dmp")
            == model_bytes(first, tmp_path / "b.dmp"))
    init = init_from_dictionary(small_dictionary, depth)
    assert (held_out_recovery(model, small_dictionary, depth, seed, n)
            >= held_out_recovery(init, small_dictionary, depth, seed, n))


def per_epoch_oracle(dictionary, depth, num_samples, *, epochs, batch_size,
                     seed, val_fraction):
    """train_model written as a loop that redraws its data every epoch.

    Each epoch draws the shards of the stream again, shuffles the training
    rows of each shard, builds teacher targets per shuffled chunk, and steps
    in the training precision: a float32 replay stack, head and gradient
    stack, and float32 AdaBound moments beside the float64 weights;
    validation scores the held-out samples one row at a time with
    hamming_complement. Returns
    the validation-best of the initialization and each epoch (ties to the
    earlier, the last epoch without a held-out split) and the log rows as
    (epoch, loss, recovery) with the floats in hex.
    """
    num_val = int(round(num_samples * val_fraction))
    num_train = num_samples - num_val
    val_signals, val_truth = held_out(dictionary, depth, seed, num_samples,
                                      num_train)

    def recovery(model):
        if not len(val_truth):
            return float("nan")
        supports, _ = batched_infer(model, val_signals)
        return float(np.mean([
            hamming_complement(row[row >= 0], t, depth)
            for row, t in zip(supports, val_truth)
        ]))

    model = init_from_dictionary(dictionary, depth)
    state = init_adabound(model.selection_weights, dtype=np.float32)
    candidates = [(model.selection_weights.copy(), recovery(model))]
    rows = []
    for epoch in range(epochs):
        loss_total = 0.0
        for i, shard in enumerate(stream_shards(dictionary, depth, seed,
                                                num_samples)):
            shard_train = num_train - i * training.SHARD_SIZE
            if shard_train <= 0:
                break
            order = np.random.default_rng(
                child_seed(seed, SHUFFLE_STREAM, depth, epoch, i)
            ).permutation(min(len(shard), shard_train))
            shard_signals = shard.signals
            for lo in range(0, len(order), batch_size):
                chunk = order[lo:lo + batch_size]
                signals = shard_signals[chunk]
                targets = build_training_batch(model, signals,
                                               shard.supports[chunk])
                loss, gradient = cross_entropy_head(
                    model.selection_weights,
                    *teacher_walk(model, signals, targets=targets,
                                  dtype=np.float32)[1:],
                    targets)
                adabound_step(state, model.selection_weights,
                              gradient(0, depth))
                loss_total += loss * len(chunk)
        val_recovery = recovery(model)
        rows.append((epoch, (loss_total / num_train).hex(),
                     val_recovery.hex()))
        candidates.append((model.selection_weights.copy(), val_recovery))
    if len(val_truth):
        best = 0
        for j, (_, score) in enumerate(candidates):
            if score > candidates[best][1]:
                best = j
    else:
        best = len(candidates) - 1
    weights = candidates[best][0]
    return UnfoldedModel(selection_weights=weights, update_dict=dictionary,
                         proj=model.proj), rows


@pytest.mark.parametrize("depth,batch_size,val_fraction,epochs,chunk,shard", [
    # validation starts inside shard 2 of 5
    pytest.param(2, 32, 0.37, 3, optim.CHUNK, 64, id="2-32-0.37-3"),
    # 24 does not divide the 64-sample shard
    pytest.param(3, 24, 0.37, 3, optim.CHUNK, 64, id="3-24-0.37-3"),
    # no held-out split: the last epoch is returned
    pytest.param(3, 24, 0.0, 2, optim.CHUNK, 64, id="3-24-0.0-2"),
    # no training: the initialization is returned
    pytest.param(2, 32, 0.37, 0, optim.CHUNK, 64, id="2-32-0.37-0"),
    # the step forms the gradient of one 10x50 block at a time, then two
    # blocks and one: more than one group, as on blocks larger than CHUNK
    pytest.param(3, 24, 0.37, 3, 500, 64, id="3-24-0.37-3-groups-of-1"),
    pytest.param(3, 24, 0.37, 3, 1000, 64, id="3-24-0.37-3-groups-of-2"),
    # a 10x50 walk block spans 5 batches, 120 rows: the 160 training rows
    # of shard 0 walk as 120 and a ragged 40 that 24 does not divide, and
    # shard 1's 80 rows as one ragged block
    pytest.param(3, 24, 0.2, 3, optim.CHUNK, 160, id="3-24-0.2-3-walk-blocks"),
])
def test_training_matches_per_epoch_oracle(monkeypatch, tmp_path,
                                           small_dictionary, depth,
                                           batch_size, val_fraction, epochs,
                                           chunk, shard):
    monkeypatch.setattr(training, "SHARD_SIZE", shard)
    kwargs = dict(epochs=epochs, batch_size=batch_size, seed=13,
                  val_fraction=val_fraction)
    with mock.patch.object(optim, "CHUNK", chunk):
        model, rows = train_model(small_dictionary, depth, 300, **kwargs)
    oracle, oracle_rows = per_epoch_oracle(small_dictionary, depth, 300,
                                           **kwargs)
    assert [(r.epoch, r.mean_loss.hex(), r.val_recovery.hex())
            for r in rows] == oracle_rows
    assert (model_bytes(model, tmp_path / "a.dmp")
            == model_bytes(oracle, tmp_path / "b.dmp"))


def test_training_draws_each_shard_once(monkeypatch, small_dictionary):
    drawn = []

    def counting(dictionary, config):
        drawn.append((tuple(config.seed.entropy), config.num_samples))
        return sample_mixture(dictionary, config)

    monkeypatch.setattr(training, "sample_mixture", counting)
    monkeypatch.setattr(training, "SHARD_SIZE", 64)
    train_model(small_dictionary, 2, 300, epochs=3, batch_size=32, seed=9)
    assert sum(count for _, count in drawn) == 300
    assert len(drawn) == len(set(drawn)) == 5


def test_training_picks_each_rows_targets_once(monkeypatch, small_dictionary):
    # epoch 0's walks pick the targets, later epochs follow them, and with
    # no epochs nothing is walked
    walks = []
    walk = training.teacher_walk

    def counting(model, signals, **kwargs):
        walks.append(kwargs)
        return walk(model, signals, **kwargs)

    monkeypatch.setattr(training, "teacher_walk", counting)
    monkeypatch.setattr(training, "SHARD_SIZE", 64)
    depth, num_samples, seed = 2, 300, 9
    train_model(small_dictionary, depth, num_samples, epochs=3, batch_size=32,
                seed=seed, val_fraction=0.25)
    picked = [w["supports"] for w in walks if w["supports"] is not None]
    assert sum(w["supports"] is None for w in walks) == 2 * len(picked)
    shards = stream_shards(small_dictionary, depth, seed, num_samples)
    # 225 training rows: 300 less the 75 held out
    train_supports = np.concatenate([s.supports for s in shards])[:225]
    assert (sorted(map(tuple, np.concatenate(picked).tolist()))
            == sorted(map(tuple, train_supports.tolist())))

    walks.clear()
    train_model(small_dictionary, depth, num_samples, epochs=0, seed=seed,
                val_fraction=0.25)
    assert walks == []


def test_validation_of_one_row_past_a_batch_takes_two_near_equal_blocks(
        monkeypatch, small_dictionary):
    # 257 held-out rows, one past a 256-row block, go to the kernel as two
    # near-equal blocks, not as 256 rows and a lone row, whose matrix-vector
    # product can round apart from the matrix product of a larger block
    sizes = []
    infer = training.batched_infer

    def recording(model, signals):
        sizes.append(len(signals))
        return infer(model, signals)

    monkeypatch.setattr(training, "batched_infer", recording)
    # 1028 mixtures at val_fraction 0.25 hold out 257
    train_model(small_dictionary, 2, 1028, epochs=0, seed=3, val_fraction=0.25)
    assert sizes == [128, 129]


def test_validation_memory_grows_only_by_supports_and_targets(monkeypatch):
    # the held-out half is scored a row block at a time: ten times the
    # mixtures may add their supports, coefficients and targets, but no
    # signals
    monkeypatch.setattr(training, "SHARD_SIZE", 2000)
    d = generate_synthetic_dictionary(200, 400, seed=8)
    depth = 3

    def peak(num_samples):
        tracemalloc.start()
        try:
            train_model(d, depth, num_samples, epochs=0, seed=2,
                        val_fraction=0.5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 2_000, 20_000
    extra = large - small
    # int64 supports and float64 coefficients of every row, int64 targets
    # of the training half
    support_bytes = 8 * depth * (2 * extra + extra // 2)
    assert peak(large) - peak(small) <= support_bytes + 2**20


def test_training_holds_one_gradient_block_not_the_stack():
    # 200x300 blocks exceed CHUNK, so each step forms and applies the
    # gradient one block at a time: the peak is the weights and both
    # AdaBound moments, one gradient block, the head's residual and score
    # stacks and small change, never the whole gradient stack
    d = generate_synthetic_dictionary(200, 300, seed=8)
    depth, batch_size = 4, 128
    m, n = d.atoms.shape
    assert m * n > optim.CHUNK
    tracemalloc.start()
    try:
        train_model(d, depth, 512, epochs=1, batch_size=batch_size, seed=3,
                    val_fraction=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * m * n
    head = 8 * depth * batch_size * (m + n)
    assert peak <= 3 * depth * block + block + head + 2**20


def test_training_keeps_float32_moments_beside_float64_weights():
    # the recipe above, at training's precision: the float64 weights, both
    # AdaBound moments at 4 bytes an entry, one float32 gradient block, one
    # weight block cast to float32 for its score product, the float32
    # residual and score stacks and small change
    d = generate_synthetic_dictionary(200, 300, seed=8)
    depth, batch_size = 4, 128
    m, n = d.atoms.shape
    tracemalloc.start()
    try:
        train_model(d, depth, 512, epochs=1, batch_size=batch_size, seed=3,
                    val_fraction=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = 8 * depth * m * n
    moments = 2 * 4 * depth * m * n
    blocks = 2 * 4 * m * n
    head = 4 * depth * batch_size * (m + n)
    assert peak <= weights + moments + blocks + head + 2**20


def test_training_walk_block_holds_no_more_than_one_score_stack():
    # 20x200 walks 10 batches at a time: the 2700 training rows take two
    # blocks of 1280 and a ragged 140. A block's float32 residual stack is
    # no larger than one batch's score stack, so the peak is the recipe
    # above with the head's two stacks the size of the score stack, beside
    # every mixture's support and coefficients and the training targets
    d = generate_synthetic_dictionary(20, 200, seed=8)
    depth, batch_size, num_samples, num_train = 4, 128, 3000, 2700
    m, n = d.atoms.shape
    tracemalloc.start()
    try:
        train_model(d, depth, num_samples, epochs=1, batch_size=batch_size,
                    seed=3, val_fraction=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = 8 * depth * m * n
    moments = 2 * 4 * depth * m * n
    blocks = 2 * 4 * m * n
    head = 2 * 4 * depth * batch_size * n
    truth = 8 * depth * (2 * num_samples + num_train)
    assert peak <= weights + moments + blocks + head + truth + 2**20


# -- CLI ------------------------------------------------------------------------


def run_cli(args):
    return main([str(a) for a in args])


def pipeline_args(out, seed=5):
    return ["--seed", seed, "--out", out, "--k-range", "1-2",
            "--scale", 0.002]  # 300 train samples, 10 test


def test_cli_pipeline_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    base = pipeline_args(out)
    assert run_cli(base + ["gen-dict"]) == 0
    assert run_cli(base + ["gen-data"]) == 0
    assert run_cli(base + ["train"]) == 0
    assert run_cli(base + ["eval"]) == 0
    assert run_cli(base + ["ecdf", out / "dictionary.csv"]) == 0
    capsys.readouterr()

    d = load_dictionary_csv(out / "dictionary.csv")
    assert (d.signal_dim, d.num_atoms) == (30, 200)
    for k in (1, 2):
        assert (out / "models" / f"model_k{k}.dmp").exists()
        assert (out / f"train_log_k{k}.csv").exists()
        assert (out / "data" / f"k{k}" / "dataset.json").exists()
    metrics_csv = (out / "metrics.csv").read_text().splitlines()
    assert metrics_csv[0] == "solver,k,recovery,epsilon"
    assert len(metrics_csv) == 1 + 3 * 2  # three solvers, two sparsity levels
    assert (out / "ecdf_dictionary.csv").exists()
    assert (out / "ecdf_model_k2_layer0.csv").exists()
    assert (out / "ecdf_model_k2_layer1.csv").exists()

    built = np.__config__.CONFIG["Build Dependencies"]["blas"]
    for command in ("gen-dict", "gen-data", "train", "eval", "ecdf"):
        name = command.replace("-", "_")
        manifest = json.loads((out / f"manifest_{name}.json").read_text())
        assert manifest["command"] == command
        assert manifest["config"]["seed"] == 5
        assert manifest["outputs"], name
        for rel, digest in manifest["outputs"].items():
            assert blob_hash(out / rel) == digest, rel
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__}, name
        blas = manifest["blas"]
        assert (blas["name"], blas["version"]) == (built["name"],
                                                   built["version"]), name
        assert blas["threads"] is None or blas["threads"] >= 1, name
        if "openblas" in built["name"] and sys.platform == "linux":
            assert isinstance(blas["threads"], int), name


def _unreadable(*args, **kwargs):
    raise PermissionError("no /proc here")


@pytest.mark.parametrize("name,value", [
    ("_OPENBLAS_THREADS", ("no_such_symbol",)),
    ("open", _unreadable),
], ids=["no-getter", "no-proc"])
def test_manifest_blas_threads_is_null_when_it_cannot_be_asked(
        monkeypatch, name, value):
    monkeypatch.setattr(cli, name, value, raising=False)
    assert cli._blas()["threads"] is None
    # nor can it be set, as train and eval ask
    assert cli._blas(1)["threads"] is None


def test_cli_eval_manifest_records_solver_seconds(tmp_path):
    out = tmp_path / "run"
    base = pipeline_args(out)
    for cmd in ("gen-dict", "train", "eval"):
        assert run_cli(base + [cmd]) == 0
    manifest = json.loads((out / "manifest_eval.json").read_text())
    seconds = manifest["solver_seconds"]
    assert sorted(seconds) == ["deepmp", "nnmp", "nnomp"]
    for by_k in seconds.values():
        assert sorted(by_k) == ["1", "2"]
        assert all(t > 0.0 for t in by_k.values())
    assert "seconds" not in (out / "metrics.json").read_text()


def test_cli_manifests_record_wall_seconds_and_peak_rss(tmp_path):
    out = tmp_path / "run"
    base = pipeline_args(out)
    for cmd in ("gen-dict", "gen-data", "train", "eval"):
        assert run_cli(base + [cmd]) == 0
    assert run_cli(base + ["ecdf", out / "dictionary.csv"]) == 0
    for name in ("gen_dict", "gen_data", "train", "eval", "ecdf"):
        manifest = json.loads((out / f"manifest_{name}.json").read_text())
        assert manifest["wall_seconds"] > 0.0, name
        assert isinstance(manifest["peak_rss_kib"], int), name
        assert manifest["peak_rss_kib"] > 0, name


def test_blob_hash_streams_the_file(tmp_path):
    path = tmp_path / "big.bin"
    data = np.random.default_rng(1).bytes(16 * 2**20 + 12345)
    path.write_bytes(data)
    expected = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
    del data
    tracemalloc.start()
    try:
        digest = blob_hash(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == expected
    assert peak < 2 * 2**20
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert blob_hash(empty) == hashlib.sha1(b"blob 0\0").hexdigest()


def test_cli_untrained_models_duplicate_nnmp(tmp_path):
    out = tmp_path / "run"
    base = pipeline_args(out)
    base_zero = base + ["--config", str(tmp_path / "cfg.ini")]
    (tmp_path / "cfg.ini").write_text("[training]\nepochs = 0\n")
    assert run_cli(base_zero + ["gen-dict"]) == 0
    assert run_cli(base_zero + ["train"]) == 0
    assert run_cli(base_zero + ["eval"]) == 0
    rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
    table = {}
    for row in rows:
        solver, k, recovery, epsilon = row.split(",")
        table[(solver, k)] = (recovery, epsilon)
    for k in ("1", "2"):
        assert table[("deepmp", k)] == table[("nnmp", k)]


def test_cli_identical_runs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        base = pipeline_args(out)
        for cmd in ("gen-dict", "gen-data", "train", "eval"):
            assert run_cli(base + [cmd]) == 0
        outputs.append(out)
    a, b = outputs
    for rel in ("dictionary.csv", "models/model_k1.dmp", "models/model_k2.dmp",
                "metrics.csv", "metrics.json", "train_log_k1.csv",
                "data/k1/shard_00000.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_cli_missing_raman_path_exits_2(tmp_path, capsys):
    cfg = tmp_path / "raman.ini"
    cfg.write_text("[dictionary]\nsource = raman\nraman_path = /missing.csv\n")
    code = run_cli(["--config", cfg, "--out", tmp_path / "r", "gen-dict"])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_cli_eval_without_models_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    base = pipeline_args(out)
    assert run_cli(base + ["gen-dict"]) == 0
    assert run_cli(base + ["eval"]) == 2
    assert "MissingModel" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "lr = nan", "lr = 0", "final_lr = -0.1", "final_lr = inf", "lr = 5%",
])
def test_cli_bad_optimizer_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[training]\n{line}\n")
    assert run_cli(["--config", cfg, "--out", tmp_path / "r", "gen-dict"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]


# AdaBound's other constants are no longer settings, whatever their value
@pytest.mark.parametrize("line", [
    "gamma = 0", "gamma = nan", "beta1 = 1.0", "beta1 = -0.1", "beta2 = nan",
    "epsilon = -1e-8", "epsilon = inf",
])
def test_cli_removed_optimizer_key_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[training]\n{line}\n")
    assert run_cli(["--config", cfg, "--out", tmp_path / "r", "gen-dict"]) == 2
    errors = cli_error_lines(capsys)
    key = line.split(" = ")[0]
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert f"unknown key '{key}'" in errors[0]


# 1e305 is finite but scales the default 150000 mixtures past the floats
@pytest.mark.parametrize("scale", ["nan", "inf", "1e400", "1e305"])
def test_cli_non_finite_scale_exits_2(tmp_path, capsys, scale):
    assert run_cli(["--scale", scale, "--out", tmp_path / "r", "gen-dict"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and "ConfigError" in errors[0]


def test_cli_scale_of_a_count_beyond_every_float_exits_2(tmp_path, capsys):
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[evaluation]\nz_test = {10**400}\n")
    assert run_cli(["--config", cfg, "--scale", 0.5, "--out", tmp_path / "r",
                    "gen-dict"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert not (tmp_path / "r").exists()


def test_cli_percent_in_a_config_value_is_literal(tmp_path):
    out = tmp_path / "o50%"
    cfg = tmp_path / "percent.ini"
    cfg.write_text(f"[run]\nout_dir = {out}\n")
    assert run_cli(["--config", cfg, "--scale", 0.002, "gen-dict"]) == 0
    assert (out / "dictionary.csv").exists()


def test_cli_eval_model_of_another_depth_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    base = pipeline_args(out)
    assert run_cli(base + ["gen-dict"]) == 0
    assert run_cli(base + ["train"]) == 0
    shutil.copy(out / "models" / "model_k1.dmp", out / "models" / "model_k2.dmp")
    capsys.readouterr()
    assert run_cli(base + ["eval"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "SparsityMismatch" in errors[0]


def test_cli_eval_model_of_another_dictionary_exits_2(tmp_path, capsys):
    # NNMP and NNOMP would run on the new dictionary, DeepMP on the old one
    out = tmp_path / "run"
    base = pipeline_args(out)
    assert run_cli(base + ["gen-dict"]) == 0
    assert run_cli(base + ["train"]) == 0
    assert run_cli(pipeline_args(out, seed=7) + ["gen-dict"]) == 0
    capsys.readouterr()
    assert run_cli(base + ["eval"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert str(out / "models" / "model_k1.dmp") in errors[0]


def test_cli_eval_model_of_another_projection_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    base = pipeline_args(out)
    cfg = tmp_path / "identity.ini"
    cfg.write_text("[training]\nprojection = identity\n")
    assert run_cli(base + ["gen-dict"]) == 0
    assert run_cli(base + ["--config", cfg, "train"]) == 0
    capsys.readouterr()
    assert run_cli(base + ["eval"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert str(out / "models" / "model_k1.dmp") in errors[0]
    assert "identity" in errors[0]


def test_cli_eval_model_of_another_dictionary_at_the_last_level_exits_2(
        tmp_path, capsys):
    # the models are checked as their levels run, so the fault shows after
    # k=1 has been scored, and still before any output is written
    out = tmp_path / "run"
    base = pipeline_args(out)
    assert run_cli(base + ["gen-dict"]) == 0
    assert run_cli(base + ["train"]) == 0
    other = generate_synthetic_dictionary(30, 200, seed=7)
    save_model(init_from_dictionary(other, 2), out / "models" / "model_k2.dmp")
    capsys.readouterr()
    assert run_cli(base + ["eval"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert str(out / "models" / "model_k2.dmp") in errors[0]
    assert not list(out.glob("metrics.*")) and not list(out.glob("ecdf_*"))


def test_cli_eval_loads_each_model_once(monkeypatch, tmp_path):
    # the deepest model's ECDFs come from the copy its level loaded, the
    # same bytes as the ecdf command writes from the file
    out = tmp_path / "run"
    base = pipeline_args(out)
    for cmd in ("gen-dict", "train"):
        assert run_cli(base + [cmd]) == 0
    loaded = []
    load = cli.network.load_model

    def counting(path):
        loaded.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(cli.network, "load_model", counting)
    assert run_cli(base + ["eval"]) == 0
    assert loaded == ["model_k1.dmp", "model_k2.dmp"]
    alone = tmp_path / "alone"
    assert run_cli(["--out", alone, "ecdf", out / "models" / "model_k2.dmp"]) == 0
    names = sorted(p.name for p in alone.glob("ecdf_*.csv"))
    assert names == ["ecdf_model_k2_layer0.csv", "ecdf_model_k2_layer1.csv"]
    for name in names:
        assert (out / name).read_bytes() == (alone / name).read_bytes()


def test_cli_eval_holds_one_model_at_a_time(tmp_path):
    # each model is loaded when its level runs and released before the next
    # one loads: the peak is the dictionary, the deepest model's stack, its
    # file's own dictionary block and the ECDF's normalised copy and Gram
    # matrix, never the stacks of every level together
    m, n, depths = 400, 500, (1, 2, 3)
    out = tmp_path / "run"
    cfg = tmp_path / "wide.ini"
    cfg.write_text(f"[dictionary]\nsignal_dim = {m}\nnum_atoms = {n}\n")
    base = ["--config", cfg, "--out", out, "--seed", 3, "--scale", 0.002,
            "--k-range", "1-3"]
    assert run_cli(base + ["gen-dict"]) == 0
    d = load_dictionary_csv(out / "dictionary.csv")
    (out / "models").mkdir()
    for k in depths:
        save_model(init_from_dictionary(d, k), out / "models" / f"model_k{k}.dmp")
    del d
    tracemalloc.start()
    try:
        assert run_cli(base + ["eval"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * m * n
    ecdf = 8 * (m * n + n * n)
    assert peak <= block + (max(depths) + 1) * block + ecdf + 2**20


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[nope]\nx = 1\n")
    assert run_cli(["--config", cfg, "gen-dict"]) == 2
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    # -1 is the only negative value: it picks the source's default length
    ("[training]\nepochs = -5\n", "epochs"),
    ("[training]\nepochs = -2\n", "epochs"),
    # configparser would merge [DEFAULT] keys into every other section
    ("[DEFAULT]\nbogus = 1\n", "[DEFAULT]"),
    ("[DEFAULT]\nlr = 0.5\n[training]\nepochs = 1\n[evaluation]\nz_test = 3\n",
     "[DEFAULT]"),
], ids=["epochs=-5", "epochs=-2", "default-alone", "default-beside-sections"])
def test_cli_bad_config_names_its_fault_and_exits_2(tmp_path, capsys, text,
                                                     named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run_cli(["--config", cfg, "--out", tmp_path / "r", "gen-dict"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert named in errors[0]


def cli_error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")]


def test_cli_ecdf_of_a_model_of_zero_dimensions_exits_2(tmp_path, capsys):
    # 20 bytes: depth 2**32 - 1, both dimensions 0, so the size check passes
    model = tmp_path / "empty.dmp"
    model.write_bytes(struct.pack("<4sIIII", b"DMP1", 2**32 - 1, 0, 0, 1))
    assert run_cli(["--out", tmp_path / "run", "ecdf", model]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ParseError" in errors[0]
    assert str(model) in errors[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cell", ["0.0", "nan"])
def test_cli_ecdf_of_an_unnormalized_column_names_its_norm(tmp_path, capsys,
                                                          cell):
    matrix = tmp_path / "dictionary.csv"
    matrix.write_text(f"{cell},1.0,0.0\n0.0,0.0,1.0\n")
    assert run_cli(["--out", tmp_path / "run", "ecdf", matrix]) == 2
    assert cli_error_lines(capsys) == [
        f"error: NotNormalized: column 0 has norm {float(cell)}"]


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "ecdf",
                                     "config"])
def test_cli_input_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    out = tmp_path / "run"
    out.mkdir()
    garbage = out / "dictionary.csv"
    garbage.write_bytes(b"\xff\xfe\x00garbage\n")
    args = ["--out", out, "--scale", 0.001]
    if command == "config":
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"[run]\nseed = 1\xff\n")
        args = ["--config", cfg] + args + ["gen-dict"]
    elif command == "ecdf":
        args += ["ecdf", garbage]
    else:
        args += [command]
    assert run_cli(args) == 2
    errors = cli_error_lines(capsys)
    fault = "ConfigError" if command == "config" else "ParseError"
    assert len(errors) == 1 and fault in errors[0] and "UTF-8" in errors[0]


@pytest.mark.parametrize("command", ["ecdf", "eval", "raman"])
def test_cli_input_that_is_a_directory_exits_2(tmp_path, capsys, command):
    out = tmp_path / "run"
    args = ["--out", out, "--scale", 0.001, "--k-range", "1"]
    if command == "ecdf":
        args += ["ecdf", tmp_path]
    elif command == "eval":
        assert run_cli(args + ["gen-dict"]) == 0
        (out / "models" / "model_k1.dmp").mkdir(parents=True)
        args += ["eval"]
    else:
        cfg = tmp_path / "raman.ini"
        cfg.write_text(f"[dictionary]\nsource = raman\nraman_path = {tmp_path}\n")
        args = ["--config", cfg] + args + ["gen-dict"]
    assert run_cli(args) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "IsADirectoryError" in errors[0]


@pytest.mark.parametrize("command", ["gen-dict", "gen-data", "train", "eval",
                                     "ecdf"])
@pytest.mark.parametrize("under", [False, True], ids=["at", "under"])
def test_cli_run_directory_at_or_under_a_file_exits_2(tmp_path, capsys,
                                                      command, under):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" if under else afile
    args = ["--out", out, "--scale", 0.001, command]
    if command == "ecdf":
        dictionary = tmp_path / "dictionary.csv"
        dictionary.write_text("1.0,0.0,0.6\n0.0,1.0,0.8\n")
        args.append(dictionary)
    assert run_cli(args) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert f"{str(afile)!r} is not a directory" in errors[0]
    assert afile.read_text() == ""


def test_cli_sparsity_above_atom_count_exits_2(tmp_path, capsys):
    # the default dictionary has 200 atoms
    out = tmp_path / "run"
    base = ["--seed", 5, "--out", out, "--scale", 0.002]
    assert run_cli(base + ["gen-dict"]) == 0
    assert run_cli(base + ["--k-range", "250", "train"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "DimensionMismatch" in errors[0]


def test_cli_sparsity_above_atom_count_fails_before_any_level(tmp_path,
                                                               capsys):
    # 199 and 200 fit the default 200 atoms and 201 does not: each command
    # exits 2 before it writes a level's data or model, or a manifest
    out = tmp_path / "run"
    base = ["--seed", 5, "--out", out, "--scale", 0.001]
    assert run_cli(base + ["gen-dict"]) == 0
    for command in ("gen-data", "train", "eval"):
        assert run_cli(base + ["--k-range", "199-201", command]) == 2
        errors = cli_error_lines(capsys)
        assert len(errors) == 1 and "DimensionMismatch" in errors[0]
        assert "sparsity 201 exceeds the 200 available atoms" in errors[0]
    assert not (out / "data" / "k199").exists()
    assert not (out / "models" / "model_k199.dmp").exists()
    assert sorted(p.name for p in out.glob("manifest_*")) == [
        "manifest_gen_dict.json"]


def test_cli_over_long_k_span_exits_2(tmp_path, capsys):
    code = run_cli(["--out", tmp_path / "run", "--k-range", "1-1000000",
                    "gen-dict"])
    assert code == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]


@pytest.mark.parametrize("where, spec", [("flag", "2,2"), ("flag", "1,2,1"),
                                         ("config", "2,2")])
def test_cli_repeated_sparsity_level_exits_2(tmp_path, capsys, where, spec):
    # a repeated level would train, write and sweep the same model twice
    args = ["--out", tmp_path / "run", "--scale", 0.002]
    if where == "flag":
        args += ["--k-range", spec]
    else:
        cfg = tmp_path / "repeat.ini"
        cfg.write_text(f"[training]\nk_range = {spec}\n")
        args += ["--config", cfg]
    assert run_cli(args + ["gen-dict"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert "repeats a level" in errors[0]
    with pytest.raises(ConfigError):
        RunConfig(k_range=parse_k_range(spec)).validate()


def test_cli_bad_surrogate_peaks_exits_2(tmp_path, capsys):
    cfg = tmp_path / "surrogate.ini"
    cfg.write_text("[dictionary]\nsource = surrogate\npeaks_per_atom = 0\n")
    assert run_cli(["--config", cfg, "--out", tmp_path / "r", "gen-dict"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "OutOfRange" in errors[0]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_cli_seed_above_u64_exits_2_and_writes_nothing(tmp_path, capsys,
                                                       where):
    out = tmp_path / "run"
    args = ["--out", out]
    if where == "flag":
        args += ["--seed", 2**64]
    else:
        cfg = tmp_path / "seed.ini"
        cfg.write_text(f"[run]\nseed = {2**64}\n")
        args += ["--config", cfg]
    listing = sorted(tmp_path.iterdir())
    assert run_cli(args + ["gen-dict"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0]
    assert str(2**64) in errors[0]
    assert sorted(tmp_path.iterdir()) == listing
    assert RunConfig(seed=2**64 - 1).validate().seed == 2**64 - 1


def test_cli_empty_training_split_exits_2(tmp_path, capsys):
    # --scale 1e-6 leaves one mixture per level, which val_fraction 0.9 holds out
    cfg = tmp_path / "split.ini"
    cfg.write_text("[training]\nval_fraction = 0.9\n")
    out = tmp_path / "run"
    base = ["--config", cfg, "--seed", 5, "--out", out, "--k-range", "1",
            "--scale", 1e-6]
    assert run_cli(base + ["gen-dict"]) == 0
    listing = sorted(out.iterdir())
    assert run_cli(base + ["train"]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "EmptyInput" in errors[0]
    # no models/ directory is left behind
    assert sorted(out.iterdir()) == listing


def run_tree(top):
    """Every file below ``top`` by relative path, with its bytes."""
    return {path.relative_to(top): path.read_bytes()
            for path in Path(top).rglob("*") if path.is_file()}


@pytest.mark.parametrize("command,section,name,count", [
    ("eval", "evaluation", "z_test", 10**23),
    ("eval", "evaluation", "z_test", 10**13),
    ("train", "training", "num_train_samples", 10**23),
    ("gen-data", "training", "num_train_samples", 10**23),
    # too large for a float
    ("train", "training", "num_train_samples", 10**400),
], ids=["eval-1e23", "eval-1e13", "train-1e23", "gen-data-1e23",
        "train-1e400"])
def test_cli_sample_count_beyond_memory_exits_2_before_drawing(
        monkeypatch, tmp_path, capsys, command, section, name, count):
    # 16 bytes a row per level for supports and coefficients (24 with
    # train's targets) at k=2: 320 TB or more, beyond any machine's memory
    out = tmp_path / "run"
    base = pipeline_args(out)
    assert run_cli(base + ["gen-dict"]) == 0
    assert run_cli(base + ["train"]) == 0

    def never(*args, **kwargs):
        raise AssertionError("mixtures drawn for an impossible count")

    # the two sites that draw: training's stream and the sweep's test sets
    monkeypatch.setattr(training, "sample_mixture", never)
    monkeypatch.setattr(cli.metrics, "sample_mixture", never)
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[{section}]\n{name} = {count}\n")
    before = run_tree(out)
    capsys.readouterr()
    args = ["--config", cfg, "--seed", 5, "--out", out, "--k-range", "1-2"]
    assert run_cli(args + [command]) == 2
    errors = cli_error_lines(capsys)
    assert len(errors) == 1 and "ConfigError" in errors[0], errors
    assert f"{name} = {count}" in errors[0]
    assert run_tree(out) == before


def test_cli_train_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    # At 503x600 and k=1, OpenBLAS at two threads rounds training's products
    # apart from one thread, so the model bytes differ unless train sets
    # OpenBLAS to one thread. The difference can show only on a machine with
    # two or more CPUs; on one CPU this test passes either way.
    cfg = tmp_path / "surrogate.ini"
    cfg.write_text("[dictionary]\nsource = surrogate\nsignal_dim = 503\n"
                   "num_atoms = 600\n[training]\nk_range = 1\n"
                   "num_train_samples = 200\nepochs = 1\nval_fraction = 0\n")
    src = Path(cli.__file__).resolve().parent.parent

    def deepmp(out, command, threads):
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": str(threads)}
        subprocess.run([sys.executable, "-m", "deepmp.cli", "--config", cfg,
                        "--seed", "1", "--out", out, command],
                       env=env, check=True, capture_output=True)

    deepmp(tmp_path / "one", "gen-dict", 1)
    shutil.copytree(tmp_path / "one", tmp_path / "two")
    for threads, name in ((1, "one"), (2, "two")):
        deepmp(tmp_path / name, "train", threads)
    model, manifest = "models/model_k1.dmp", "manifest_train.json"
    assert ((tmp_path / "one" / model).read_bytes()
            == (tmp_path / "two" / model).read_bytes())
    for name in ("one", "two"):
        blas = json.loads((tmp_path / name / manifest).read_text())["blas"]
        # one thread where the loaded OpenBLAS has a setter, else null
        assert blas["threads"] in (1, None)


def test_gen_data_shards_match_training_stream(monkeypatch, tmp_path,
                                              small_dictionary):
    # the exported dataset is the same deterministic stream train_model reads
    monkeypatch.setattr(training, "SHARD_SIZE", 64)
    out = tmp_path / "data"
    shards = stream_shards(small_dictionary, 2, 17, 150)
    write_dataset(shards, out, dictionary=small_dictionary, sparsity=2, seed=17)
    regenerated = list(stream_shards(small_dictionary, 2, 17, 150))
    _, loaded = read_shards(out)
    assert len(loaded) == sum(map(len, regenerated)) == 150
    assert np.array_equal(loaded.signals,
                          np.concatenate([s.signals for s in regenerated]))
    assert np.array_equal(loaded.supports,
                          np.concatenate([s.supports for s in regenerated]))


def test_cli_gen_data_rerun_replaces_the_earlier_shards(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(training, "SHARD_SIZE", 40)
    out = tmp_path / "run"
    base = ["--seed", 5, "--out", out, "--k-range", "1"]
    assert run_cli(base + ["--scale", 0.001, "gen-dict"]) == 0
    assert run_cli(base + ["--scale", 0.001, "gen-data"]) == 0  # 150 rows
    data = out / "data" / "k1"
    assert len(list(data.glob("shard_*.csv"))) == 4
    (data / "notes.txt").write_text("kept\n")
    assert run_cli(base + ["--scale", 0.0005, "gen-data"]) == 0  # 75 rows
    meta, loaded = read_shards(data)
    assert meta["num_samples"] == len(loaded) == 75
    shards = sorted(p.name for p in data.glob("shard_*.csv"))
    assert shards == ["shard_00000.csv", "shard_00001.csv"]
    manifest = json.loads((out / "manifest_gen_data.json").read_text())
    assert sorted(manifest["outputs"]) == [
        f"data/k1/{name}" for name in ["dataset.json"] + shards]
    assert (data / "notes.txt").read_text() == "kept\n"
