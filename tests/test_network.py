import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepmp.datagen import (
    MixtureConfig,
    generate_raman_surrogate,
    generate_synthetic_dictionary,
    sample_mixture,
)
from deepmp.errors import (
    DimensionMismatch,
    EmptyBatch,
    NonFiniteSignal,
    OutOfRange,
    ParseError,
    SparsityMismatch,
    ZeroSparsity,
)
from deepmp.network import (
    UnfoldedModel,
    batched_infer,
    build_training_batch,
    cross_entropy_head,
    forward_infer,
    init_from_dictionary,
    load_model,
    loss_and_gradient,
    save_model,
    teacher_replay,
)
from deepmp.optim import adabound_step, init_adabound
from deepmp.solvers import RESIDUAL_FLOOR, ProjectionMode, nnmp_solve, residual_step
from deepmp.types import READ_BYTES, validate_dictionary

from conftest import random_unit_dictionary


def random_model(rng, d, depth, noise=0.3):
    weights = d.atoms + noise * rng.standard_normal((depth, *d.atoms.shape))
    return UnfoldedModel(selection_weights=weights, update_dict=d)


# -- initialization -----------------------------------------------------------


def test_init_copies_dictionary(small_dictionary):
    model = init_from_dictionary(small_dictionary, 3)
    for w in model.selection_weights:
        assert np.array_equal(w, small_dictionary.atoms)
    model.selection_weights[0][0, 0] += 1.0
    assert not np.array_equal(model.selection_weights[0],
                              model.selection_weights[1])
    assert small_dictionary.atoms[0, 0] != model.selection_weights[0][0, 0]


def test_parameter_count_is_depth_times_dims(small_dictionary):
    for depth in (1, 2, 5):
        model = init_from_dictionary(small_dictionary, depth)
        assert model.selection_weights.size == depth * 10 * 50


def test_init_rejects_zero_depth(small_dictionary):
    with pytest.raises(ZeroSparsity):
        init_from_dictionary(small_dictionary, 0)


def test_parameter_count_linear_in_depth(small_dictionary):
    base = init_from_dictionary(small_dictionary, 1).selection_weights.size
    for depth in range(2, 7):
        model = init_from_dictionary(small_dictionary, depth)
        assert model.selection_weights.size == depth * base


def test_init_equivalence_with_nnmp_bitwise(table_dictionary):
    rng = np.random.default_rng(99)
    model = init_from_dictionary(table_dictionary, 4)
    for _ in range(100):
        if rng.random() < 0.5:
            idx = rng.choice(200, size=3, replace=False)
            y = table_dictionary.atoms[:, idx] @ (1.0 - rng.random(3))
        else:
            y = np.abs(rng.standard_normal(30))
        mine = forward_infer(model, y)
        ref = nnmp_solve(table_dictionary, y, 4)
        assert np.array_equal(mine.support, ref.support)
        assert np.array_equal(mine.code, ref.code)
        assert np.array_equal(mine.residual, ref.residual)


# -- inference ----------------------------------------------------------------


def test_forward_infer_zero_signal(small_dictionary):
    model = init_from_dictionary(small_dictionary, 3)
    res = forward_infer(model, np.zeros(10))
    assert res.support.size == 0


def test_selection_is_driven_by_weights_not_dictionary(small_dictionary):
    # permute the columns of the first selection matrix; the selected INDEX
    # must be the permuted position even though the update uses the dictionary
    rng = np.random.default_rng(4)
    perm = rng.permutation(50)
    model = init_from_dictionary(small_dictionary, 1)
    model.selection_weights[0] = np.asfortranarray(
        small_dictionary.atoms[:, perm]
    )
    j = 13
    res = forward_infer(model, small_dictionary.atoms[:, j])
    expected_position = int(np.flatnonzero(perm == j)[0])
    assert res.support.tolist() == [expected_position]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.5, 3.7, 40.0]))
def test_selection_is_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    d = validate_dictionary(random_unit_dictionary(rng, 8, 20))
    model = random_model(rng, d, 3)
    y = np.abs(rng.standard_normal(8)) + 0.05
    base = forward_infer(model, y)
    scaled = forward_infer(model, scale * y)
    assert np.array_equal(base.support, scaled.support)


def test_batched_infer_matches_per_sample(table_dictionary):
    rng = np.random.default_rng(17)
    model = random_model(rng, table_dictionary, 3, noise=0.1)
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=3, num_samples=40, seed=5)
    )
    signals = samples.signals
    supports, codes = batched_infer(model, signals)
    for row, code_row, y in zip(supports, codes, signals):
        ref = forward_infer(model, y)
        assert row[row >= 0].tolist() == ref.support.tolist()
        assert np.allclose(code_row, ref.code, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inference_rejects_non_finite_signals(small_dictionary, bad):
    model = init_from_dictionary(small_dictionary, 3)
    signals = np.ones((4, 10))
    signals[2, 5] = bad
    with pytest.raises(NonFiniteSignal):
        batched_infer(model, signals)
    with pytest.raises(NonFiniteSignal):
        forward_infer(model, signals[2])


# -- training forward pass -------------------------------------------------------


def test_single_sparse_sample_target_is_its_atom(small_dictionary):
    model = init_from_dictionary(small_dictionary, 1)
    j = 7
    targets = build_training_batch(model, [0.6 * small_dictionary.atoms[:, j]],
                                   [[j]])
    assert targets.tolist() == [[j]]


def test_softmax_outputs_normalized(table_dictionary):
    # for one sample, layer k's gradient is outer(r_k, p_k - onehot(t_k)):
    # rows sum to zero exactly when p_k sums to one, and with r_k >= 0 the
    # off-target columns are >= 0 exactly when p_k is
    rng = np.random.default_rng(2)
    model = random_model(rng, table_dictionary, 3)
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=3, num_samples=10, seed=8)
    )
    for b in range(len(samples)):
        signals = samples.signals[b:b + 1]
        targets = build_training_batch(model, signals,
                                       samples.supports[b:b + 1])
        _, grads = loss_and_gradient(model, signals, targets)
        for k, g in enumerate(grads):
            assert g.shape == (30, 200)
            assert np.all(np.abs(g.sum(axis=1)) < 1e-12)
            off_target = np.delete(g, targets[0, k], axis=1)
            assert np.all(off_target >= 0.0)


def test_teacher_residual_vanishes_for_orthogonal_atoms():
    # atoms 0..3 of this dictionary are the identity basis, mutually orthogonal
    eye = np.eye(4)
    extra = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    d = validate_dictionary(np.hstack([eye, extra]))
    model = init_from_dictionary(d, 3)
    support = np.array([0, 1, 2])
    coeffs = np.array([0.9, 0.4, 0.2])
    residuals = (d.atoms[:, support] @ coeffs)[None, :]
    targets = build_training_batch(model, residuals, [support])
    # oracle order: largest correlation first
    assert targets.tolist() == [[0, 1, 2]]
    for k in range(3):
        _, residuals = residual_step(d.atoms, residuals, targets[:, k],
                                     model.proj)
    assert np.linalg.norm(residuals[0]) < 1e-9


def test_build_training_batch_rejects_sparsity_mismatch(small_dictionary):
    model = init_from_dictionary(small_dictionary, 2)
    mixtures = sample_mixture(
        small_dictionary, MixtureConfig(sparsity=3, num_samples=1, seed=1)
    )
    with pytest.raises(SparsityMismatch):
        build_training_batch(model, mixtures.signals, mixtures.supports)


def test_targets_are_a_permutation_of_support(table_dictionary):
    model = init_from_dictionary(table_dictionary, 4)
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=4, num_samples=30, seed=21)
    )
    targets = build_training_batch(model, samples.signals, samples.supports)
    for support, row in zip(samples.supports, targets):
        assert sorted(row.tolist()) == sorted(support.tolist())


# -- loss and gradient ----------------------------------------------------------


def test_uniform_scores_give_log_n_per_layer(small_dictionary):
    model = init_from_dictionary(small_dictionary, 1)
    model.selection_weights[0] = np.zeros_like(model.selection_weights[0])
    samples = sample_mixture(
        small_dictionary, MixtureConfig(sparsity=1, num_samples=6, seed=3)
    )
    targets = build_training_batch(model, samples.signals, samples.supports)
    loss, grads = loss_and_gradient(model, samples.signals, targets)
    assert loss == pytest.approx(np.log(50), abs=1e-12)


def test_one_hot_probability_gives_zero_loss_and_gradient(small_dictionary):
    model = init_from_dictionary(small_dictionary, 1)
    j = 11
    y = 0.7 * small_dictionary.atoms[:, j]
    # a huge score gap drives the softmax to an exact one-hot in float64
    w = np.zeros_like(model.selection_weights[0])
    w[:, j] = 1e4 * y / np.linalg.norm(y) ** 2
    model.selection_weights[0] = w
    targets = build_training_batch(model, [y], [[j]])
    loss, grads = loss_and_gradient(model, [y], targets)
    assert loss == 0.0
    assert np.all(grads[0] == 0.0)


def test_loss_rejects_empty_batch(small_dictionary):
    model = init_from_dictionary(small_dictionary, 2)
    with pytest.raises(EmptyBatch):
        loss_and_gradient(model, np.zeros((0, 10)),
                          np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(EmptyBatch):
        build_training_batch(model, np.zeros((0, 10)),
                             np.zeros((0, 2), dtype=np.int64))


def test_batch_arrays_must_agree_in_rows_and_depth(small_dictionary):
    model = init_from_dictionary(small_dictionary, 2)
    mixtures = sample_mixture(
        small_dictionary, MixtureConfig(sparsity=2, num_samples=4, seed=1))
    targets = build_training_batch(model, mixtures.signals, mixtures.supports)
    with pytest.raises(DimensionMismatch):
        build_training_batch(model, mixtures.signals[:3], mixtures.supports)
    with pytest.raises(DimensionMismatch):
        loss_and_gradient(model, mixtures.signals[:3], targets)
    with pytest.raises(DimensionMismatch):
        loss_and_gradient(model, mixtures.signals, targets[:3])
    with pytest.raises(DimensionMismatch):
        loss_and_gradient(model, mixtures.signals, targets[:, :1])


@pytest.mark.parametrize("shift", [-1, 1])
def test_atom_indices_out_of_range_are_rejected(small_dictionary, shift):
    # a shift by -N used to wrap silently, one by +N to end in IndexError
    n = small_dictionary.num_atoms
    model = init_from_dictionary(small_dictionary, 3)
    mixtures = sample_mixture(small_dictionary,
                              MixtureConfig(sparsity=3, num_samples=4, seed=2))
    targets = build_training_batch(model, mixtures.signals, mixtures.supports)
    with pytest.raises(OutOfRange, match="atom index"):
        build_training_batch(model, mixtures.signals,
                             mixtures.supports + shift * n)
    with pytest.raises(OutOfRange, match="atom index"):
        loss_and_gradient(model, mixtures.signals, targets + shift * n)


def test_loss_and_gradient_is_the_head_of_the_replay(table_dictionary):
    rng = np.random.default_rng(4)
    model = random_model(rng, table_dictionary, 3)
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=3, num_samples=32, seed=4))
    targets = build_training_batch(model, samples.signals, samples.supports)
    loss, grads = loss_and_gradient(model, samples.signals, targets)
    stack, live = teacher_replay(model, samples.signals, targets)
    assert stack.shape == (3, 32, table_dictionary.signal_dim)
    assert live.shape == (3, 32)
    head_loss, gradient = cross_entropy_head(model.selection_weights, stack,
                                             live, targets)
    assert loss == head_loss
    assert np.array_equal(grads, gradient(0, 3))
    # formed a block or two at a time, the gradient is the same bits
    for groups in ([(0, 1), (1, 2), (2, 3)], [(0, 2), (2, 3)]):
        parts = [gradient(lo, hi) for lo, hi in groups]
        assert all(part.strides == grads[lo:hi].strides
                   for part, (lo, hi) in zip(parts, groups))
        assert np.concatenate(parts).tobytes() == grads.tobytes()


def test_loss_and_gradient_do_not_depend_on_row_order(table_dictionary):
    rng = np.random.default_rng(9)
    model = random_model(rng, table_dictionary, 4)
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=4, num_samples=50, seed=9))
    targets = build_training_batch(model, samples.signals, samples.supports)
    loss, grads = loss_and_gradient(model, samples.signals, targets)
    order = rng.permutation(50)
    shuffled_loss, shuffled_grads = loss_and_gradient(
        model, samples.signals[order], targets[order])
    assert_close(shuffled_loss, loss)
    assert_close(shuffled_grads, grads)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    d = generate_synthetic_dictionary(6, 15, seed=77)
    depth = 3
    model = random_model(rng, d, depth)
    samples = sample_mixture(d, MixtureConfig(sparsity=depth, num_samples=5, seed=9))
    batch = (samples.signals,
             build_training_batch(model, samples.signals, samples.supports))
    loss, grads = loss_and_gradient(model, *batch)
    h = 1e-5
    for k in range(depth):
        w = model.selection_weights[k]
        fd = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + h
                up, _ = loss_and_gradient(model, *batch)
                w[i, j] = orig - h
                down, _ = loss_and_gradient(model, *batch)
                w[i, j] = orig
                fd[i, j] = (up - down) / (2.0 * h)
        denom = np.maximum(np.abs(grads[k]), np.abs(fd))
        small = denom < 1e-5
        assert np.all(np.abs(grads[k] - fd)[small] < 1e-9)
        rel = np.abs(grads[k] - fd)[~small] / denom[~small]
        assert rel.max() < 1e-4


def test_single_class_problem_converges_to_its_atom():
    # 1-sparse sample: repeated steps on the one-sample batch drive the
    # layer-0 softmax peak onto the true atom
    d = generate_synthetic_dictionary(6, 15, seed=50)
    model = init_from_dictionary(d, 1)
    j = 4
    signals = np.array([0.8 * d.atoms[:, j]])
    targets = build_training_batch(model, signals, [[j]])
    state = init_adabound(model.selection_weights)
    for _ in range(200):
        _, grads = loss_and_gradient(model, signals, targets)
        adabound_step(state, model.selection_weights, grads)
    # one depth-1 sample: the loss is -log p_j, the layer-0 softmax
    # probability of the true atom at the signal
    loss, _ = loss_and_gradient(model, signals, targets)
    p_j = np.exp(-loss)
    assert int(np.argmax(model.selection_weights[0].T @ signals[0])) == j
    assert p_j > 0.9


def test_loss_decreases_after_one_adabound_step(table_dictionary):
    failures = 0
    for seed in range(20):
        model = init_from_dictionary(table_dictionary, 2)
        samples = sample_mixture(
            table_dictionary,
            MixtureConfig(sparsity=2, num_samples=64, seed=1000 + seed),
        )
        batch = (samples.signals,
                 build_training_batch(model, samples.signals, samples.supports))
        before, grads = loss_and_gradient(model, *batch)
        state = init_adabound(model.selection_weights)
        adabound_step(state, model.selection_weights, grads)
        after, _ = loss_and_gradient(model, *batch)
        if not after < before:
            failures += 1
    assert failures <= 1


def per_layer_loss_and_gradient(model, signals, targets):
    """The loss and gradient walked one layer at a time, live rows only."""
    batch_size = len(signals)
    atoms = model.update_dict.atoms
    residuals = signals
    live = np.ones(batch_size, dtype=bool)
    loss = 0.0
    grads = np.zeros_like(model.selection_weights)
    for k in range(model.depth):
        live = live & (np.linalg.norm(residuals, axis=1) >= RESIDUAL_FLOOR)
        if not live.any():
            break
        r_live = residuals[live]
        t_live = targets[live, k]
        scores = r_live @ model.selection_weights[k]
        scores -= scores.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(scores).sum(axis=1))
        rows = np.arange(r_live.shape[0])
        loss += float((log_norm - scores[rows, t_live]).sum()) / batch_size
        p = np.exp(scores - log_norm[:, None])
        p[rows, t_live] -= 1.0
        grads[k] += (r_live.T @ p) / batch_size
        _, residuals = residual_step(atoms, residuals, targets[:, k], model.proj)
    return loss, grads


def assert_close(value, reference, rtol=1e-12, scale=0.0):
    """Scalars or stacks equal to ``rtol`` of the reference's largest entry,
    or of ``scale`` where that is larger."""
    scale = max(np.abs(reference).max(), scale)
    assert np.abs(np.asarray(value) - reference).max() <= rtol * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 5),
       signal_dim=st.integers(3, 8), extra_atoms=st.integers(2, 10),
       batch_size=st.integers(1, 24), positive=st.booleans())
def test_stacked_pass_matches_per_layer_oracle(seed, depth, signal_dim,
                                               extra_atoms, batch_size,
                                               positive):
    rng = np.random.default_rng(seed)
    d = validate_dictionary(
        random_unit_dictionary(rng, signal_dim, signal_dim + extra_atoms))
    model = random_model(rng, d, depth)
    if not positive:
        model.proj = ProjectionMode.IDENTITY
    samples = sample_mixture(
        d, MixtureConfig(sparsity=depth, num_samples=batch_size, seed=seed))
    batch = (samples.signals,
             build_training_batch(model, samples.signals, samples.supports))
    loss, grads = loss_and_gradient(model, *batch)
    ref_loss, ref_grads = per_layer_loss_and_gradient(model, *batch)
    assert_close(loss, ref_loss)
    assert_close(grads, ref_grads)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 5),
       signal_dim=st.integers(3, 8), extra_atoms=st.integers(2, 10),
       batch_size=st.integers(1, 24), positive=st.booleans(),
       scale=st.sampled_from(["x100", "x5000", "edge"]))
def test_large_scores_match_per_layer_oracle(seed, depth, signal_dim,
                                             extra_atoms, batch_size,
                                             positive, scale):
    # the head skips its max-shift while every score lies inside
    # +-(-log(tiny) - log(N * B)); unit-norm signals bound each score by its
    # weight column's norm, so x100 stays inside, x5000 leaves the range,
    # and "edge" scales the largest score to just inside it
    rng = np.random.default_rng(seed)
    d = validate_dictionary(
        random_unit_dictionary(rng, signal_dim, signal_dim + extra_atoms))
    model = random_model(rng, d, depth)
    if not positive:
        model.proj = ProjectionMode.IDENTITY
    samples = sample_mixture(
        d, MixtureConfig(sparsity=depth, num_samples=batch_size, seed=seed))
    signals = samples.signals / np.linalg.norm(samples.signals, axis=1,
                                               keepdims=True)
    targets = build_training_batch(model, signals, samples.supports)
    stack, _ = teacher_replay(model, signals, targets)
    limit = -np.log(np.finfo(np.float64).tiny) - np.log(
        d.num_atoms * batch_size)

    def scores():
        weights = model.selection_weights
        return np.matmul(weights.transpose(0, 2, 1), stack.transpose(0, 2, 1))

    if scale == "edge":
        model.selection_weights *= 0.9999 * limit / np.abs(scores()).max()
    else:
        model.selection_weights *= float(scale[1:])
    p = scores()
    assert (np.abs(p).max() < limit) == (scale != "x5000")
    loss, grads = loss_and_gradient(model, signals, targets)
    ref_loss, ref_grads = per_layer_loss_and_gradient(model, signals, targets)
    assert np.isfinite(loss)
    # confident rows make the loss and gradient differences of nearly equal
    # numbers, so both are compared at the scale of their terms: the scores
    # for the loss, the residual entries for the gradient
    assert_close(loss, ref_loss, scale=np.abs(p).max())
    assert_close(grads, ref_grads, scale=np.abs(stack).max())


def test_dead_rows_add_nothing_to_loss_or_gradient():
    # atoms 0..3 are the identity basis: the teacher removes one coordinate
    # per step exactly, so a signal with a 1e-14 fourth coordinate has a
    # residual below RESIDUAL_FLOOR, but not zero, at layer 4 of 4
    extra = np.full((4, 2), 0.5)
    d = validate_dictionary(np.hstack([np.eye(4), extra]))
    rng = np.random.default_rng(12)
    model = random_model(rng, d, 4)
    mixtures = sample_mixture(d, MixtureConfig(sparsity=4, num_samples=9,
                                               seed=4))
    dying = np.array([[0.9, 0.4, 0.2, 1e-14]])
    kept_signals = np.vstack([mixtures.signals, dying])
    kept_supports = np.vstack([mixtures.supports, [[0, 1, 2, 3]]])
    zero_supports = np.array([[5, 4, 3, 2], [0, 1, 2, 3], [1, 3, 5, 0]])
    signals = np.vstack([kept_signals[:4], np.zeros((3, 4)), kept_signals[4:]])
    supports = np.vstack([kept_supports[:4], zero_supports, kept_supports[4:]])

    def scaled(signals, supports):
        targets = build_training_batch(model, signals, supports)
        loss, grads = loss_and_gradient(model, signals, targets)
        return len(signals) * loss, len(signals) * grads, targets

    loss, grads, _ = scaled(signals, supports)
    kept_loss, kept_grads, _ = scaled(kept_signals, kept_supports)
    assert_close(loss, kept_loss)
    assert_close(grads, kept_grads)

    # the dying row: its dead last layer adds no loss and a zero block
    loss, grads, targets = scaled(dying, [[0, 1, 2, 3]])
    assert targets.tolist() == [[0, 1, 2, 3]]
    assert np.all(grads[3] == 0.0)
    shallow = UnfoldedModel(selection_weights=model.selection_weights[:3],
                            update_dict=d)
    shallow_loss, shallow_grads = loss_and_gradient(shallow, dying,
                                                    targets[:, :3])
    assert_close(loss, shallow_loss)
    assert_close(grads[:3], shallow_grads)


def test_gradient_blocks_are_column_major_like_the_weights(table_dictionary):
    model = init_from_dictionary(table_dictionary, 3)
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=3, num_samples=16, seed=6))
    targets = build_training_batch(model, samples.signals, samples.supports)
    _, grads = loss_and_gradient(model, samples.signals, targets)
    assert grads.shape == model.selection_weights.shape
    assert all(g.flags.f_contiguous for g in grads)
    assert grads.strides == model.selection_weights.strides


def test_loss_and_gradient_allocates_one_stack_of_each():
    # the residual stack, the score stack and the gradient stack, no more
    depth, batch_size = 5, 128
    d = generate_raman_surrogate(503, 600, peaks_per_atom=5, seed=2)
    model = init_from_dictionary(d, depth)
    samples = sample_mixture(d, MixtureConfig(sparsity=depth,
                                              num_samples=batch_size, seed=3))
    targets = build_training_batch(model, samples.signals, samples.supports)
    m, n = d.atoms.shape
    bound = 8 * (depth * batch_size * (m + n) + depth * m * n) + 2**20
    tracemalloc.start()
    try:
        loss_and_gradient(model, samples.signals, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


# -- serialization ----------------------------------------------------------------


def test_model_round_trip_bitwise(tmp_path, small_dictionary):
    rng = np.random.default_rng(8)
    model = random_model(rng, small_dictionary, 3)
    model.proj = ProjectionMode.IDENTITY
    path = tmp_path / "model.dmp"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.depth == 3
    assert loaded.proj is ProjectionMode.IDENTITY
    for a, b in zip(loaded.selection_weights, model.selection_weights):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.update_dict.atoms, small_dictionary.atoms)


def test_model_file_magic_and_truncation(tmp_path, small_dictionary):
    model = init_from_dictionary(small_dictionary, 2)
    path = tmp_path / "model.dmp"
    save_model(model, path)
    blob = path.read_bytes()
    assert blob[:4] == b"DMP1"
    bad = tmp_path / "bad.dmp"
    bad.write_bytes(blob[:-8])
    with pytest.raises(ParseError):
        load_model(bad)
    wrong = tmp_path / "wrong.dmp"
    wrong.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ParseError):
        load_model(wrong)


def test_model_file_rejects_depth_zero_bad_flag_nan_weight_and_bad_dictionary(
        tmp_path, small_dictionary):
    model = init_from_dictionary(small_dictionary, 2)
    path = tmp_path / "model.dmp"
    save_model(model, path)
    blob = path.read_bytes()
    head, block = 20, 10 * 50 * 8
    nan = struct.pack("<d", np.nan)
    cases = {
        # a well-sized depth-0 file: the header and the dictionary block only
        "depth0": blob[:4] + struct.pack("<I", 0) + blob[8:head]
        + blob[head + 2 * block:],
        "flag7": blob[:16] + struct.pack("<I", 7) + blob[head:],
        "nanweight": blob[:head + 8] + nan + blob[head + 16:],
        # the first dictionary entry raised: its column is no longer unit-norm
        "dictionary": blob[:head + 2 * block]
        + struct.pack("<d", small_dictionary.atoms[0, 0] + 0.5)
        + blob[head + 2 * block + 8:],
    }
    for name, data in cases.items():
        assert len(data) == len(blob) - (2 * block if name == "depth0" else 0)
        bad = tmp_path / f"{name}.dmp"
        bad.write_bytes(data)
        with pytest.raises(ParseError) as excinfo:
            load_model(bad)
        assert str(bad) in str(excinfo.value), name


def test_load_model_reads_into_the_model_without_a_file_copy(tmp_path):
    # the (depth + 1) blocks the model keeps, one read buffer of at most
    # READ_BYTES and small change for the file object and array headers;
    # no bytes object of the file and no second copy of the stack
    depth = 3
    d = generate_raman_surrogate(503, 600, peaks_per_atom=5, seed=2)
    path = tmp_path / "model.dmp"
    save_model(init_from_dictionary(d, depth), path)
    tracemalloc.start()
    try:
        loaded = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.update_dict.atoms, d.atoms)
    assert all(np.array_equal(w, d.atoms) for w in loaded.selection_weights)
    assert peak <= 8 * (depth + 1) * d.atoms.size + READ_BYTES + 2**14


def test_save_model_holds_one_block_at_a_time(tmp_path):
    # a row-major copy of one column-major block and small change for the
    # file object; no bytes object of the whole stack
    d = generate_raman_surrogate(503, 600, peaks_per_atom=5, seed=2)
    model = init_from_dictionary(d, 5)
    path = tmp_path / "model.dmp"
    tracemalloc.start()
    try:
        save_model(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    loaded = load_model(path)
    assert np.array_equal(loaded.update_dict.atoms, d.atoms)
    assert all(np.array_equal(w, d.atoms) for w in loaded.selection_weights)
    assert peak <= 8 * d.atoms.size + 2**14


def saved_model_bytes(seed, depth, signal_dim, extra_atoms, positive):
    """A random model with its file bytes, written and read back in a temp dir."""
    rng = np.random.default_rng(seed)
    num_atoms = signal_dim + extra_atoms
    d = validate_dictionary(random_unit_dictionary(rng, signal_dim, num_atoms))
    model = UnfoldedModel(
        selection_weights=rng.standard_normal((depth, signal_dim, num_atoms)),
        update_dict=d,
        proj=(ProjectionMode.POSITIVE_ORTHANT if positive
              else ProjectionMode.IDENTITY),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.dmp"
        save_model(model, path)
        return model, path.read_bytes()


def load_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.dmp"
        path.write_bytes(data)
        return load_model(path)


model_shapes = dict(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 4),
                    signal_dim=st.integers(1, 5), extra_atoms=st.integers(1, 5),
                    positive=st.booleans())


@settings(max_examples=40, deadline=None)
@given(**model_shapes)
def test_model_file_save_load_is_bit_identical(seed, depth, signal_dim,
                                               extra_atoms, positive):
    model, blob = saved_model_bytes(seed, depth, signal_dim, extra_atoms,
                                    positive)
    loaded = load_bytes(blob)
    assert loaded.proj is model.proj
    assert loaded.selection_weights.shape == model.selection_weights.shape
    assert (loaded.selection_weights.tobytes()
            == model.selection_weights.tobytes())
    assert loaded.update_dict.atoms.tobytes() == model.update_dict.atoms.tobytes()
    # blocks come back column-major, the layout the atoms have
    assert all(w.flags.f_contiguous for w in loaded.selection_weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "again.dmp"
        save_model(loaded, path)
        assert path.read_bytes() == blob


HEADER_FIELDS = {"depth": 4, "signal_dim": 8, "num_atoms": 12, "flag": 16}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), **model_shapes)
def test_damaged_model_files_raise_parse_error(data, seed, depth, signal_dim,
                                               extra_atoms, positive):
    # damage: any truncation or extension; any other magic; any other depth,
    # signal_dim or num_atoms; a projection flag above 1; a non-finite
    # selection weight; a dictionary entry made non-finite or moved by at
    # least 0.01, which moves its column norm off 1 by more than NORM_TOL
    model, blob = saved_model_bytes(seed, depth, signal_dim, extra_atoms,
                                    positive)
    head = 20
    dict_start = head + depth * model.selection_weights[0].nbytes
    damage = data.draw(st.sampled_from(
        ["truncate", "extend", "magic", *HEADER_FIELDS, "weight", "dictionary"]
    ))
    if damage == "truncate":
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "extend":
        damaged = blob + data.draw(st.binary(min_size=1, max_size=16))
    elif damage == "magic":
        magic = data.draw(st.binary(min_size=4, max_size=4)
                          .filter(lambda b: b != b"DMP1"))
        damaged = magic + blob[4:]
    elif damage in HEADER_FIELDS:
        at = HEADER_FIELDS[damage]
        (old,) = struct.unpack_from("<I", blob, at)
        low = 2 if damage == "flag" else 0
        value = data.draw(st.integers(low, 2**32 - 1).filter(lambda v: v != old))
        damaged = blob[:at] + struct.pack("<I", value) + blob[at + 4:]
    else:
        start, stop = (head, dict_start) if damage == "weight" else (
            dict_start, len(blob))
        at = start + 8 * data.draw(st.integers(0, (stop - start) // 8 - 1))
        (old,) = struct.unpack_from("<d", blob, at)
        bad_values = st.sampled_from([np.nan, np.inf, -np.inf])
        if damage == "dictionary":
            bad_values = st.one_of(bad_values, st.floats(0.01, 10.0).flatmap(
                lambda step: st.sampled_from([old + step, old - step])))
        damaged = (blob[:at] + struct.pack("<d", data.draw(bad_values))
                   + blob[at + 8:])
    with pytest.raises(ParseError):
        load_bytes(damaged)
