"""Bounded adaptive gradient steps for the stack of selection matrices.

Adam-style first/second moment estimates with bias correction, but the
per-coordinate step size ``lr / sqrt(vhat + epsilon)`` is clamped into
``[lower(t), upper(t)]`` where both bounds converge to ``final_lr``:

    lower(t) = final_lr * (1 - 1 / (gamma * t + 1))
    upper(t) = final_lr * (1 + 1 / (gamma * t))

so updates start adaptive and approach plain SGD at ``final_lr``. A step folds
the bias corrections into scalars (Kingma & Ba 2015, section 2) and walks the
whole stack in memory order, in flat chunks of ``CHUNK`` elements that may span
several blocks: a stack of at most ``CHUNK`` elements takes one chunk.
"""

from __future__ import annotations

import math
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


#: largest chunk, in elements, that a step updates at a time
CHUNK = 1 << 15


def adabound_step(state: AdaBoundState, params: np.ndarray, grads: np.ndarray):
    """Advance a (K, ...) parameter stack in place by one bounded adaptive step.

    Returns ``(params, state)`` for chaining; both are mutated. Raises
    ShapeMismatch when params/grads/state disagree in shape or params and
    moments differ in memory layout, and NonFiniteGradient when any gradient
    entry is NaN or infinite.
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
    # bias corrections folded into scalars: clip(lr / sqrt(v / bias2 + eps),
    # lower, upper) * m / bias1 is clip(scale / sqrt(v + eps * bias2),
    # lower / bias1, upper / bias1) * m
    scale = h.lr * math.sqrt(bias2) / bias1
    floor, ceil, eps = lower / bias1, upper / bias1, h.epsilon * bias2
    # flat, in the parameters' memory order; ravel copies what it cannot view
    axes = sorted(range(params.ndim), key=lambda i: -params.strides[i])
    p, g, m, v = (a.transpose(axes).ravel()
                  for a in (params, grads, state.m, state.v))
    if not all(map(np.may_share_memory, (p, m, v), (params, state.m, state.v))):
        raise ShapeMismatch("params and moments must share one layout")
    step = np.empty(min(params.size, CHUNK))  # the one scratch array
    for lo in range(0, len(p), len(step)):
        pc, gc, mc, vc = (a[lo:lo + len(step)] for a in (p, g, m, v))
        sc = step[:len(pc)]
        mc *= h.beta1
        mc += np.multiply(1.0 - h.beta1, gc, out=sc)
        vc *= h.beta2
        vc += np.multiply(1.0 - h.beta2, np.square(gc, out=sc), out=sc)
        np.divide(scale, np.sqrt(np.add(vc, eps, out=sc), out=sc), out=sc)
        np.minimum(np.maximum(sc, floor, out=sc), ceil, out=sc)
        pc -= np.multiply(sc, mc, out=sc)
    state.t = t
    return params, state
