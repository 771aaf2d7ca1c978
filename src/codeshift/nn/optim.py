"""Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8).

One step updates each group of parameters that share a dtype (and whose
gradients share one) in one pass: the group's moments live in flat `m`/`v`
buffers, its gradients are concatenated, and the update runs the same
elementwise operations in the same order as a per-parameter update, so
every parameter gets the same bits. Every parameter passed needs a
gradient, and one state serves one parameter dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


@dataclass
class AdamState:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    # flat moments, one buffer per group, keyed by the group's parameter names
    m: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)
    v: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place on `params`.

    Raises ValueError naming a parameter without a gradient or with one of
    another shape, and when `params` differ from those of the state's
    first step.
    """
    groups: dict[tuple, list[str]] = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ValueError(f"adam_step: no gradient for {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step: grad shape {g.shape} != param {p.data.shape} for {name!r}")
        groups.setdefault((p.data.dtype, g.dtype), []).append(name)
    # each group's names, its dtype and its size
    layout = {
        tuple(names): (dtype, sum(params[name].data.size for name in names)) for (dtype, _), names in groups.items()
    }
    if not state.m:
        state.m = {names: np.zeros(size, dtype=dtype) for names, (dtype, size) in layout.items()}
        state.v = {names: np.zeros(size, dtype=dtype) for names, (dtype, size) in layout.items()}
    if {names: (m.dtype, m.size) for names, m in state.m.items()} != layout:
        raise ValueError(f"adam_step: parameters {list(params)} differ from those of the state's first step")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for names, m in state.m.items():
        g = np.concatenate([grads[name].reshape(-1) for name in names])
        v = state.v[names]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        update = state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
        start = 0
        for name in names:
            p = params[name].data
            p -= update[start:start + p.size].reshape(p.shape)
            start += p.size
