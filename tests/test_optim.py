import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepmp import optim
from deepmp.errors import NonFiniteGradient, ShapeMismatch
from deepmp.optim import (
    AdaBoundHyper,
    adabound_step,
    init_adabound,
    step_bounds,
)


def test_zero_gradient_leaves_params_unchanged():
    params = np.stack([np.full((3, 4), 0.5), np.ones((3, 4))])
    state = init_adabound(params)
    before = params.copy()
    adabound_step(state, params, np.zeros((2, 3, 4)))
    assert state.t == 1
    for p, b in zip(params, before):
        assert np.array_equal(p, b)


def test_bounds_converge_to_final_lr():
    hyper = AdaBoundHyper()
    lower, upper = step_bounds(hyper, 10**9)
    assert lower == pytest.approx(0.1, abs=1e-6)
    assert upper == pytest.approx(0.1, abs=1e-6)
    lo1, up1 = step_bounds(hyper, 1)
    assert lo1 < 0.001 < up1


def scalar_step(p, m, v, g, step, hyper):
    """Straight transcription of step ``step`` of the rule for one scalar."""
    m = hyper.beta1 * m + (1 - hyper.beta1) * g
    v = hyper.beta2 * v + (1 - hyper.beta2) * g * g
    mhat = m / (1 - hyper.beta1**step)
    vhat = v / (1 - hyper.beta2**step)
    lower = hyper.final_lr * (1 - 1 / (hyper.gamma * step + 1))
    upper = hyper.final_lr * (1 + 1 / (hyper.gamma * step))
    rate = min(max(hyper.lr / np.sqrt(vhat + hyper.epsilon), lower), upper)
    return p - rate * mhat, m, v


def scalar_oracle(g, t, hyper):
    """The rule run for t steps on one scalar parameter from zero."""
    p = m = v = 0.0
    for step in range(1, t + 1):
        p, m, v = scalar_step(p, m, v, g, step, hyper)
    return p


def test_single_scalar_matches_oracle_transcription():
    hyper = AdaBoundHyper()
    params = np.zeros((1, 1, 1))
    state = init_adabound(params, hyper)
    grads = np.ones((1, 1, 1))
    adabound_step(state, params, grads)
    assert params[0][0, 0] == pytest.approx(scalar_oracle(1.0, 1, hyper), rel=1e-14)
    adabound_step(state, params, grads)
    adabound_step(state, params, grads)
    assert params[0][0, 0] == pytest.approx(scalar_oracle(1.0, 3, hyper), rel=1e-14)


def test_effective_step_size_respects_clip_sandwich():
    rng = np.random.default_rng(6)
    hyper = AdaBoundHyper()
    params = rng.standard_normal((1, 5, 7))
    state = init_adabound(params, hyper)
    for _ in range(30):
        grad = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-4, 3)
        before = params[0].copy()
        adabound_step(state, params, grad[None])
        mhat = state.m[0] / (1 - hyper.beta1 ** state.t)
        delta = before - params[0]
        lower, upper = step_bounds(hyper, state.t)
        mask = np.abs(mhat) > 1e-12
        rate = delta[mask] / mhat[mask]
        assert np.all(rate >= lower * (1 - 1e-9))
        assert np.all(rate <= upper * (1 + 1e-9))


def test_large_t_limit_approaches_sgd_at_final_lr():
    # at steady state with constant gradient the adaptive rate lr / |g| lies
    # below the lower bound, so the step runs at lower(t + 1) =
    # final_lr * (1 - 1 / (gamma * (t + 1) + 1)); at t = 1e7 that is still
    # 1 / (gamma * (t + 1)) ~ 1e-4 relative from plain SGD at final_lr
    hyper = AdaBoundHyper()
    g = np.full((2, 3), 0.7)
    params = np.zeros((1, 2, 3))
    state = init_adabound(params, hyper)
    state.m = g[None].copy()
    state.v = (g * g)[None]
    t = 10**7
    state.t = t
    before = params[0].copy()
    adabound_step(state, params, g[None])
    delta = before - params[0]
    expected = hyper.final_lr * (1 - 1 / (hyper.gamma * (t + 1) + 1)) * g
    assert np.allclose(delta, expected, rtol=1e-12, atol=0.0)
    sgd = hyper.final_lr * g
    assert np.all(np.abs(delta - sgd) <= sgd / (hyper.gamma * (t + 1)))


def test_second_moment_stays_nonnegative_and_t_increments():
    rng = np.random.default_rng(3)
    params = rng.standard_normal((1, 4, 4))
    state = init_adabound(params)
    for expected_t in range(1, 6):
        adabound_step(state, params, rng.standard_normal((1, 4, 4)))
        assert state.t == expected_t
        assert np.all(state.v[0] >= 0.0)


def test_shape_mismatch_rejected():
    params = np.zeros((1, 2, 2))
    state = init_adabound(params)
    with pytest.raises(ShapeMismatch):
        adabound_step(state, params, np.zeros((1, 2, 3)))
    with pytest.raises(ShapeMismatch):
        adabound_step(state, params, np.zeros((2, 2, 2)))


def test_non_finite_gradient_rejected():
    params = np.zeros((1, 2, 2))
    state = init_adabound(params)
    bad = np.zeros((1, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NonFiniteGradient):
        adabound_step(state, params, bad)
    bad[0, 0, 0] = np.inf
    with pytest.raises(NonFiniteGradient):
        adabound_step(state, params, bad)


def test_step_allocates_at_most_two_blocks():
    # column-major blocks, as the model lays them out
    rng = np.random.default_rng(3)
    params = rng.standard_normal((4, 150, 120)).transpose(0, 2, 1)
    grads = rng.standard_normal((4, 150, 120)).transpose(0, 2, 1)
    state = init_adabound(params)
    block = params[0].nbytes
    for _ in range(3):
        tracemalloc.start()
        try:
            adabound_step(state, params, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block + 64 * 1024


def stack_like(values, column_major):
    """``values`` as a (K, M, N) stack with column-major or C-order blocks."""
    if column_major:
        return np.array(values.transpose(0, 2, 1), order="C").transpose(0, 2, 1)
    return np.array(values, order="C")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 9)),
       chunk=st.sampled_from([1, 5, 16, 100, optim.CHUNK]),
       column_major=st.booleans(), grads_column_major=st.booleans(),
       t=st.integers(0, 5000),
       lr=st.floats(1e-5, 1.0), final_lr=st.floats(1e-3, 1.0),
       beta1=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       beta2=st.floats(0.0, 0.9999), gamma=st.floats(1e-4, 1.0),
       epsilon=st.one_of(st.just(0.0), st.floats(1e-12, 1e-3)))
# chunks of 100 over 54-element blocks: every chunk spans a block boundary
# and the last of the three is partial
@example(seed=7, shape=(4, 6, 9), chunk=100, column_major=True,
         grads_column_major=False, t=3, lr=1e-3, final_lr=0.1, beta1=0.9,
         beta2=0.999, gamma=1e-3, epsilon=1e-8)
def test_step_matches_scalar_oracle(seed, shape, chunk, column_major,
                                    grads_column_major, t, lr, final_lr, beta1,
                                    beta2, gamma, epsilon):
    # each entry takes step t + 1 from its own random state; the stack is
    # walked in chunks of ``chunk`` elements, which may span several blocks,
    # so most stacks span several chunks, some of them partial
    hyper = AdaBoundHyper(lr=lr, final_lr=final_lr, beta1=beta1, beta2=beta2,
                          gamma=gamma, epsilon=epsilon)
    rng = np.random.default_rng(seed)
    params = stack_like(np.zeros(shape), column_major)
    state = init_adabound(params, hyper)
    state.m[...] = rng.standard_normal(shape)
    state.v[...] = rng.random(shape) * 10.0 ** rng.integers(-6, 2, shape)
    state.t = t
    grads = stack_like(rng.standard_normal(shape), grads_column_major)
    m0, v0 = state.m.copy(), state.v.copy()
    with mock.patch.object(optim, "CHUNK", chunk):
        adabound_step(state, params, grads)
    assert state.t == t + 1
    for i in np.ndindex(shape):
        p, m, v = scalar_step(0.0, m0[i], v0[i], grads[i], t + 1, hyper)
        assert params[i] == pytest.approx(p, rel=1e-12, abs=0.0)
        assert state.m[i] == pytest.approx(m, rel=1e-12, abs=0.0)
        assert state.v[i] == pytest.approx(v, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 9)),
       chunk=st.sampled_from([1, 5, 16, 100, optim.CHUNK]),
       column_major=st.booleans(), t=st.integers(0, 5000),
       lr=st.floats(1e-5, 1.0), final_lr=st.floats(1e-3, 1.0),
       beta1=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       beta2=st.floats(0.0, 0.9999), gamma=st.floats(1e-4, 1.0),
       epsilon=st.one_of(st.just(0.0), st.floats(1e-12, 1e-3)))
def test_float32_moments_match_scalar_oracle(seed, shape, chunk, column_major,
                                             t, lr, final_lr, beta1, beta2,
                                             gamma, epsilon):
    # training's split: float64 parameters, float32 moments and gradient.
    # The step is computed in float32, so it matches the float64 oracle to
    # a few float32 roundings of the terms it sums, and it is added into the
    # parameters in float64: a float32 parameter would round away most of
    # an update this small against entries of order one
    hyper = AdaBoundHyper(lr=lr, final_lr=final_lr, beta1=beta1, beta2=beta2,
                          gamma=gamma, epsilon=epsilon)
    rng = np.random.default_rng(seed)
    params = stack_like(rng.standard_normal(shape), column_major)
    state = init_adabound(params, hyper, dtype=np.float32)
    state.m[...] = rng.standard_normal(shape)
    state.v[...] = rng.random(shape) * 10.0 ** rng.integers(-6, 2, shape)
    state.t = t
    grads = stack_like(rng.standard_normal(shape), column_major
                       ).astype(np.float32)
    p0, m0, v0 = params.copy(), state.m.copy(), state.v.copy()
    with mock.patch.object(optim, "CHUNK", chunk):
        adabound_step(state, params, grads)
    assert params.dtype == np.float64
    assert state.m.dtype == state.v.dtype == np.float32
    assert state.t == t + 1
    tol = 16 * np.finfo(np.float32).eps
    for i in np.ndindex(shape):
        g = float(grads[i])
        p, m, v = scalar_step(p0[i], float(m0[i]), float(v0[i]), g, t + 1,
                              hyper)
        # m sums two terms that may nearly cancel; v's terms never do
        terms = abs(beta1 * float(m0[i])) + abs((1 - beta1) * g)
        assert abs(state.m[i] - m) <= tol * terms
        assert abs(state.v[i] - v) <= tol * v
        # the update is rate * m / bias1: off by m's error and the rate's
        update, ref_update = params[i] - p0[i], p - p0[i]
        assert (abs(update - ref_update) * abs(m)
                <= tol * abs(ref_update) * (abs(m) + terms))


@pytest.mark.parametrize("formed", [False, True])
def test_float32_moments_non_finite_gradient_moves_nothing(formed):
    # a float32 gradient with an infinity in block 1: the whole stack moves
    # nothing, and formed groups move block 0 only
    rng = np.random.default_rng(9)
    shape = (3, 120, 300)
    params = column_major_stack(rng, shape)
    grads = column_major_stack(rng, shape).astype(np.float32)
    grads[1, 5, 7] = np.inf
    state = init_adabound(params, dtype=np.float32)
    before = [a.copy(order="K") for a in (params, state.m, state.v)]
    with pytest.raises(NonFiniteGradient):
        adabound_step(state, params,
                      (lambda lo, hi: grads[lo:hi]) if formed else grads)
    assert state.t == 0
    assert params.dtype == np.float64
    assert state.m.dtype == state.v.dtype == np.float32
    moved = 1 if formed else 0
    for a, b in zip((params, state.m, state.v), before):
        assert a[moved:].tobytes() == b[moved:].tobytes()
        assert np.array_equal(a[:moved], b[:moved]) == (not formed)


def test_moments_laid_out_unlike_the_params_are_rejected():
    params = stack_like(np.zeros((2, 3, 4)), column_major=True)
    state = init_adabound(params)
    state.m = np.zeros((2, 3, 4))
    with pytest.raises(ShapeMismatch):
        adabound_step(state, params, np.ones((2, 3, 4)))


def column_major_stack(rng, shape):
    return stack_like(rng.standard_normal(shape), column_major=True)


def test_finiteness_check_allocates_no_stack_sized_temporary():
    # a stack 15 chunks long: the check walks it a chunk at a time, so the
    # step holds its float scratch chunk and one chunk of bools, not a bool
    # per entry of the stack (480,000 bytes here)
    rng = np.random.default_rng(5)
    shape = (4, 300, 400)
    params, grads = (column_major_stack(rng, shape) for _ in range(2))
    assert params.size > 10 * optim.CHUNK
    state = init_adabound(params)
    tracemalloc.start()
    try:
        adabound_step(state, params, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * optim.CHUNK + 16 * 1024


@pytest.mark.parametrize("where", [0, optim.CHUNK - 1, -1])
def test_non_finite_entry_anywhere_moves_nothing(where):
    # the whole-stack call is all or nothing, even with the bad entry in the
    # last of many chunks
    rng = np.random.default_rng(6)
    shape = (3, 120, 150)
    params, grads = (column_major_stack(rng, shape) for _ in range(2))
    state = init_adabound(params)
    adabound_step(state, params, grads)
    before = [a.copy() for a in (params, state.m, state.v)]
    flat = grads.transpose(0, 2, 1).reshape(-1)  # memory order, a view
    flat[where] = np.nan
    with pytest.raises(NonFiniteGradient):
        adabound_step(state, params, grads)
    assert state.t == 1
    for a, b in zip((params, state.m, state.v), before):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape,chunk,groups", [
    ((5, 30, 200), optim.CHUNK, [(0, 5)]),      # 30x200 stacks are one group
    ((3, 120, 300), optim.CHUNK, [(0, 1), (1, 2), (2, 3)]),  # blocks > CHUNK
    ((5, 4, 6), 48, [(0, 2), (2, 4), (4, 5)]),  # two blocks per group
])
def test_formed_gradient_groups_match_the_whole_stack_step(shape, chunk,
                                                           groups):
    rng = np.random.default_rng(7)
    params = column_major_stack(rng, shape)
    grads = column_major_stack(rng, shape)
    whole_params = params.copy(order="K")
    whole, grouped = init_adabound(params), init_adabound(params)
    calls = []

    def gradient(lo, hi):
        # a group is formed only after the one before it was updated
        if calls:
            previous = slice(*calls[-1])
            assert grouped.m[previous].any()
        assert not grouped.m[lo:hi].any()
        calls.append((lo, hi))
        return grads[lo:hi].copy(order="K")

    with mock.patch.object(optim, "CHUNK", chunk):
        assert optim.group_blocks(params) == groups[0][1]
        adabound_step(whole, whole_params, grads)
        adabound_step(grouped, params, gradient)
    assert calls == groups
    assert whole.t == grouped.t == 1
    for a, b in ((params, whole_params), (grouped.m, whole.m),
                 (grouped.v, whole.v)):
        assert a.tobytes() == b.tobytes()


def test_non_finite_group_raises_before_it_moves():
    rng = np.random.default_rng(8)
    shape = (3, 120, 300)
    params = column_major_stack(rng, shape)
    grads = column_major_stack(rng, shape)
    grads[1, 5, 7] = np.inf
    state = init_adabound(params)
    before = params.copy(order="K")
    with pytest.raises(NonFiniteGradient):
        adabound_step(state, params, lambda lo, hi: grads[lo:hi])
    assert state.t == 0
    assert not np.array_equal(params[0], before[0])
    assert params[1:].tobytes() == before[1:].tobytes()
