"""Bounded adaptive gradient steps for the stack of selection matrices.

Adam-style first/second moment estimates with bias correction, but the
per-coordinate step size ``lr / sqrt(vhat + epsilon)`` is clamped into
``[lower(t), upper(t)]`` where both bounds converge to ``final_lr``:

    lower(t) = final_lr * (1 - 1 / (gamma * t + 1))
    upper(t) = final_lr * (1 + 1 / (gamma * t))

so updates start adaptive and approach plain SGD at ``final_lr``. A step folds
the bias corrections into scalars (Kingma & Ba 2015, section 2) and walks the
stack in memory order, in flat chunks of ``CHUNK`` elements that may span
several blocks: a stack of at most ``CHUNK`` elements takes one chunk. A step
may also take its gradient one group of whole blocks at a time, as the caller
forms it, and update each group before the next is formed, so the whole
gradient is never held: the fused update of LOMO (Lv et al. 2023).

A step computes in the moments' dtype and updates the parameters in theirs;
:func:`init_adabound` makes float64 moments by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch


@dataclass(frozen=True)
class AdaBoundHyper:
    """AdaBound's published defaults (Luo et al., ICLR 2019)."""

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


def init_adabound(params, hyper: AdaBoundHyper | None = None,
                  dtype=np.float64) -> AdaBoundState:
    """Zero moments of ``dtype``, laid out like ``params``, at step 0."""
    hyper = hyper or AdaBoundHyper()
    return AdaBoundState(
        m=np.zeros_like(params, dtype=dtype),
        v=np.zeros_like(params, dtype=dtype),
        hyper=hyper,
    )


def step_bounds(hyper: AdaBoundHyper, t: int) -> tuple[float, float]:
    """Clamp interval for the per-coordinate step size at step t >= 1."""
    lower = hyper.final_lr * (1.0 - 1.0 / (hyper.gamma * t + 1.0))
    upper = hyper.final_lr * (1.0 + 1.0 / (hyper.gamma * t))
    return lower, upper


#: largest chunk, in elements, that a step updates at a time
CHUNK = 1 << 15


def group_blocks(params: np.ndarray) -> int:
    """Blocks per gradient group: as many as fit in ``CHUNK``, at least one."""
    return max(1, CHUNK // max(1, math.prod(params.shape[1:])))


def adabound_step(state: AdaBoundState, params: np.ndarray, grads) -> None:
    """Advance a (K, ...) parameter stack in place by one bounded adaptive step.

    ``grads`` is the gradient stack, or a function ``grads(lo, hi)`` that
    forms the gradient of blocks ``lo:hi``. A function is called once per
    group of :func:`group_blocks` whole blocks, and each group is updated and
    dropped before the next is formed. ``t`` advances once per step either
    way. Both ``params`` and ``state`` are mutated. Raises
    ShapeMismatch when params/grads/state disagree in shape or params and
    moments differ in memory layout, and NonFiniteGradient when a gradient
    entry is NaN or infinite. A gradient stack is checked whole before any
    parameter moves; a formed group is checked before it moves, after the
    groups before it.
    """
    if params.shape != state.m.shape:
        raise ShapeMismatch(
            f"params {params.shape} vs state {state.m.shape}")
    h = state.hyper
    t = state.t + 1
    lower, upper = step_bounds(h, t)
    bias1 = 1.0 - h.beta1 ** t
    bias2 = 1.0 - h.beta2 ** t
    # bias corrections folded into scalars: clip(lr / sqrt(v / bias2 + eps),
    # lower, upper) * m / bias1 is clip(scale / sqrt(v + eps * bias2),
    # lower / bias1, upper / bias1) * m
    scalars = (h.lr * math.sqrt(bias2) / bias1, lower / bias1, upper / bias1,
               h.epsilon * bias2)
    if callable(grads):
        size = group_blocks(params)
        for lo in range(0, len(params), size):
            hi = min(lo + size, len(params))
            group = grads(lo, hi)
            _update(h, scalars, params[lo:hi], group, state.m[lo:hi],
                    state.v[lo:hi])
            # dropped before the next group is formed
            del group
    else:
        _update(h, scalars, params, grads, state.m, state.v)
    state.t = t


def _update(h: AdaBoundHyper, scalars, params, grads, m, v) -> None:
    """Check ``grads`` for finiteness, then step ``params`` with moments m, v."""
    if grads.shape != params.shape:
        raise ShapeMismatch(f"params {params.shape} / grads {grads.shape}")
    scale, floor, ceil, eps = scalars
    # flat, in the parameters' memory order; ravel copies what it cannot view
    axes = sorted(range(params.ndim), key=lambda i: -params.strides[i])
    p, g, mf, vf = (a.transpose(axes).ravel() for a in (params, grads, m, v))
    if not all(map(np.may_share_memory, (p, mf, vf), (params, m, v))):
        raise ShapeMismatch("params and moments must share one layout")
    # a pass before the update, a chunk at a time: all or nothing
    for lo in range(0, len(g), CHUNK):
        if not np.isfinite(g[lo:lo + CHUNK]).all():
            raise NonFiniteGradient("gradient contains NaN or Inf")
    step = np.empty(min(params.size, CHUNK), m.dtype)  # the one scratch array
    for lo in range(0, len(p), len(step)):
        pc, gc, mc, vc = (a[lo:lo + len(step)] for a in (p, g, mf, vf))
        sc = step[:len(pc)]
        mc *= h.beta1
        mc += np.multiply(1.0 - h.beta1, gc, out=sc)
        vc *= h.beta2
        vc += np.multiply(1.0 - h.beta2, np.square(gc, out=sc), out=sc)
        np.divide(scale, np.sqrt(np.add(vc, eps, out=sc), out=sc), out=sc)
        np.minimum(np.maximum(sc, floor, out=sc), ceil, out=sc)
        pc -= np.multiply(sc, mc, out=sc)
