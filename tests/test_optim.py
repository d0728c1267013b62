import tracemalloc

import numpy as np
import pytest

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


def scalar_oracle(g, t, hyper):
    """Straight transcription of the update rule for one scalar parameter."""
    m = 0.0
    v = 0.0
    p = 0.0
    for step in range(1, t + 1):
        m = hyper.beta1 * m + (1 - hyper.beta1) * g
        v = hyper.beta2 * v + (1 - hyper.beta2) * g * g
        mhat = m / (1 - hyper.beta1**step)
        vhat = v / (1 - hyper.beta2**step)
        lower = hyper.final_lr * (1 - 1 / (hyper.gamma * step + 1))
        upper = hyper.final_lr * (1 + 1 / (hyper.gamma * step))
        rate = min(max(hyper.lr / np.sqrt(vhat + hyper.epsilon), lower), upper)
        p -= rate * mhat
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
