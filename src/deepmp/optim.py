"""Bounded adaptive gradient steps for the stack of selection matrices.

Adam-style first/second moment estimates with bias correction, but the
per-coordinate step size ``lr / sqrt(vhat + epsilon)`` is clamped into
``[lower(t), upper(t)]`` where both bounds converge to ``final_lr``:

    lower(t) = final_lr * (1 - 1 / (gamma * t + 1))
    upper(t) = final_lr * (1 + 1 / (gamma * t))

so updates start adaptive and approach plain SGD at ``final_lr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch


@dataclass(frozen=True)
class AdaBoundHyper:
    lr: float = 1e-3
    final_lr: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    gamma: float = 1e-3
    epsilon: float = 1e-8


@dataclass
class AdaBoundState:
    """Moment accumulators shaped like the parameter stack, and the step counter.

    Single-writer: the training loop owns it exclusively. ``t`` advances by
    exactly one per step; second moments stay non-negative.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    hyper: AdaBoundHyper = field(default_factory=AdaBoundHyper)


def init_adabound(params, hyper: AdaBoundHyper | None = None) -> AdaBoundState:
    hyper = hyper or AdaBoundHyper()
    return AdaBoundState(
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        hyper=hyper,
    )


def step_bounds(hyper: AdaBoundHyper, t: int) -> tuple[float, float]:
    """Clamp interval for the per-coordinate step size at step t >= 1."""
    lower = hyper.final_lr * (1.0 - 1.0 / (hyper.gamma * t + 1.0))
    upper = hyper.final_lr * (1.0 + 1.0 / (hyper.gamma * t))
    return lower, upper


def adabound_step(state: AdaBoundState, params: np.ndarray, grads: np.ndarray):
    """Advance a (K, ...) parameter stack in place by one bounded adaptive step.

    Returns ``(params, state)`` for chaining; both are mutated. Raises
    ShapeMismatch when params/grads/state disagree and NonFiniteGradient when
    any gradient entry is NaN or infinite.
    """
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ShapeMismatch(
            f"params {params.shape} / grads {grads.shape} vs state "
            f"{state.m.shape}"
        )
    if not np.isfinite(grads).all():
        raise NonFiniteGradient("gradient contains NaN or Inf")
    h = state.hyper
    t = state.t + 1
    lower, upper = step_bounds(h, t)
    bias1 = 1.0 - h.beta1 ** t
    bias2 = 1.0 - h.beta2 ** t
    # block by block along axis 0; two scratch arrays laid out like a block
    # hold every temporary, so the step allocates nothing else
    step, mhat = np.empty_like(params[0]), np.empty_like(params[0])
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= h.beta1
        m += np.multiply(1.0 - h.beta1, g, out=step)
        v *= h.beta2
        v += np.multiply(1.0 - h.beta2, np.square(g, out=step), out=step)
        # step = clip(lr / sqrt(v / bias2 + epsilon), lower, upper)
        np.divide(v, bias2, out=step)
        step += h.epsilon
        np.divide(h.lr, np.sqrt(step, out=step), out=step)
        np.clip(step, lower, upper, out=step)
        p -= np.multiply(step, np.divide(m, bias1, out=mhat), out=step)
    state.t = t
    return params, state
