"""Reverse-mode autodiff over flat numpy arrays.

A Tensor wraps one ndarray plus an optional gradient buffer. Ops build a
tape of parent links and backward closures; `backward` replays the tape in
reverse topological order and consumes it as it goes: each node drops its
closure and its parent links once its rule has run, so the forward arrays
the closure captured and the gradients handed down are freed as soon as
nothing else holds them. A graph runs backward once. Default dtype is
float32; passing float64 data keeps everything in 64-bit, which the
gradient tests rely on.
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
    """Whether a gradient flowing into `t` reaches a tensor that requires one (or a consumed tape)."""
    return t.requires_grad or t._backward is not None


def _consumed(g: np.ndarray) -> None:
    """The backward rule `backward` leaves on each node whose rule it has run."""
    raise RuntimeError("backward through a graph that has already run backward")


def on_tape(parents: Iterable[Tensor]) -> bool:
    """Whether `make_node` records an op on `parents`: the tape is on and one of them needs a gradient."""
    return _GRAD_ENABLED and any(needs_grad(p) for p in parents)


def make_node(data: np.ndarray, parents: Iterable[Tensor], backward_fn) -> Tensor:
    """Wrap an op result; drops the tape when no parent needs gradients."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    live = tuple(parents)
    if on_tape(live):
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
    """Fill `.grad` of every tensor reachable from `loss`, consuming the tape.

    `seed` defaults to ones; pass an explicit cotangent to backprop a
    non-scalar output. Each node is let go once its rule has run, with its
    closure and parent links cleared, so a node nothing else holds is freed
    with its forward arrays and its gradient; a tensor the caller holds
    keeps its `.grad`. A second backward through the consumed graph, from
    `loss`, from any tensor of it or from a new op on one, raises
    RuntimeError before any gradient is touched.
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
        if node._backward is _consumed:
            _consumed(None)  # raises
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data) if seed is None else np.asarray(seed, dtype=loss.data.dtype)
    while topo:
        node = topo.pop()
        rule = node._backward
        if rule is None:  # a leaf
            continue
        node._backward, node._parents = _consumed, ()
        if node.grad is not None:
            rule(node.grad)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
