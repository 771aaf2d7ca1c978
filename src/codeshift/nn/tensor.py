"""Reverse-mode autodiff over flat numpy arrays.

A Tensor wraps one ndarray plus an optional gradient buffer. Ops build a
tape of parent links and backward closures; `backward` replays the tape in
reverse topological order. Default dtype is float32; passing float64 data
keeps everything in 64-bit, which the gradient tests rely on.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables tape construction (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """An ndarray node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def needs_grad(t: Tensor) -> bool:
    """Whether a gradient flowing into `t` reaches a tensor that requires one."""
    return t.requires_grad or bool(t._parents)


def make_node(data: np.ndarray, parents: Iterable[Tensor], backward_fn) -> Tensor:
    """Wrap an op result; drops the tape when no parent needs gradients."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    if _GRAD_ENABLED:
        live = tuple(parents)
        if any(needs_grad(p) for p in live):
            out._parents = live
            out._backward = backward_fn
    return out


def accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add `g` into `t.grad`.

    `fresh` hands `g` over: the backward rule built it and nothing else
    holds it, so when `t` has no gradient yet and `g` is in `t`'s dtype it
    becomes `t.grad` itself. Otherwise the first gradient is copied, so a
    `g` shared with another operand (`add`), returned unchanged from
    `_unbroadcast`, or a view of an upstream gradient is never aliased.
    """
    if t.grad is None:
        t.grad = g if fresh and g.dtype == t.data.dtype else g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def backward(loss: Tensor, seed: np.ndarray | None = None) -> None:
    """Fill `.grad` of every tensor reachable from `loss`.

    `seed` defaults to ones; pass an explicit cotangent to backprop a
    non-scalar output.
    """
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data) if seed is None else np.asarray(seed, dtype=loss.data.dtype)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
