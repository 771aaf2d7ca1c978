"""Forward ops with hand-written backward rules.

Everything the two task models need: affine maps, embedding lookups (a
gather of one table, or a sum over several tables fused with a bias and a
tanh that run once per distinct row), tanh, stable softmax, inverted dropout,
attention pooling, cross-entropy, and the small glue ops
(add/mul/concat/row slice/mean) they are composed from. Shapes
broadcast over leading batch dimensions; reductions and softmax act on the
last axis unless stated otherwise.

Bags of variable size (CS context bags) travel as the d-wide rows of their
real slots, in C order of a boolean `mask` whose last axis spans a bag:
`attention_pool` takes that mask, `dropout` draws over the rows as they
are, and no op builds or draws over the padded layout. The model derives
the mask from its split's row lengths; splits store no mask and no
padding.

A backward rule that builds a fresh gradient array hands it to
`accumulate` (`fresh=True`), which keeps it without a copy. An embedding
table's gradient is one `np.add.at` over pairs of adjacent columns viewed
as complex numbers (plus one over an odd last column), which adds each
id's rows in row order, as a loop would.

`dropout`'s float64 uniforms and `attention_pool`'s weighted rows are
formed `_BLOCK_ROWS` rows at a time, with the bits of one whole-array
computation, so neither holds an (R, d) temporary over the rows it is
given; off the tape, `dropout` keeps no keep factors either.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, accumulate, make_node, needs_grad, on_tape


# rows per block of dropout's draw and attention pooling's weighted rows
_BLOCK_ROWS = 512
# the complex dtype whose element is two adjacent columns of an embedding table of each float dtype
_COLUMN_PAIRS = {np.dtype(np.float32): np.dtype(np.complex64), np.dtype(np.float64): np.dtype(np.complex128)}


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# add, mul and linear skip the gradient of a constant operand (a mask, a
# count, frozen activations): nothing reads it.


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward_fn(g):
        for t in (a, b):
            if needs_grad(t):
                gt = _unbroadcast(g, t.data.shape)
                accumulate(t, gt, fresh=gt is not g)

    return make_node(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward_fn(g):
        if needs_grad(a):
            accumulate(a, _unbroadcast(g * b.data, a.data.shape), fresh=True)
        if needs_grad(b):
            accumulate(b, _unbroadcast(g * a.data, b.data.shape), fresh=True)

    return make_node(out, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x (..., k) @ w (k, m) -> (..., m)."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: {x.data.shape} @ {w.data.shape}")
    out = x.data @ w.data

    def backward_fn(g):
        if needs_grad(x):
            accumulate(x, g @ w.data.T, fresh=True)
        if needs_grad(w):
            k, m = w.data.shape
            accumulate(w, x.data.reshape(-1, k).T @ g.reshape(-1, m), fresh=True)

    return make_node(out, (x, w), backward_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over leading dims."""
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"affine: bias {b.data.shape} vs weight {w.data.shape}")
    return add(linear(x, w), b)


def row_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of `x` along its first axis."""
    if not 0 <= start <= stop <= x.data.shape[0]:
        raise ShapeError(f"row_slice: rows {start}:{stop} of {x.data.shape}")
    out = x.data[start:stop]

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        accumulate(x, gx, fresh=True)

    return make_node(out, (x,), backward_fn)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward_fn(g):
        accumulate(x, _tanh_grad(g, out), fresh=True)

    return make_node(out, (x,), backward_fn)


def _tanh_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g * (1 - out²), the bits of `g * (1.0 - out * out)`, in one fresh buffer."""
    gx = np.multiply(out, out)
    np.subtract(1.0, gx, out=gx)
    gx *= g
    return gx


def softmax(x: Tensor) -> Tensor:
    """Row-stable softmax over the last axis."""
    z = x.data
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        gx = g - inner
        gx *= out
        accumulate(x, gx, fresh=True)

    return make_node(out, (x,), backward_fn)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` (V, d); output shape ids.shape + (d,); backward `_embedding_grad`."""
    ((table, ids),) = _checked_lookups([(table, ids)], "embedding_lookup")

    def backward_fn(g):
        accumulate(table, _embedding_grad(table.data, ids, g), fresh=True)

    return make_node(table.data[ids], (table,), backward_fn)


def _checked_lookups(lookups, op: str) -> list[tuple[Tensor, np.ndarray]]:
    """`lookups` with array ids, each of one shape, into (V_i, d) tables of one d, and in range."""
    lookups = [(table, np.asarray(ids)) for table, ids in lookups]
    for table, ids in lookups:
        if ids.shape != lookups[0][1].shape or table.data.shape[1:] != lookups[0][0].data.shape[1:]:
            raise ShapeError(f"{op}: table {table.data.shape}, ids {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
            raise IndexError(f"embedding id out of range [0, {table.data.shape[0]})")
    return lookups


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the (R,) non-negative int `keys`.

    `first` holds one row of each distinct key, in ascending key order, and
    `inverse` each row's index into `first`, so `keys[first][inverse]` is
    `keys`. One pass over a boolean table of max(keys) + 1 entries, not a
    sort.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ShapeError(f"distinct_rows: keys {keys.shape} are not one column")
    if keys.size and keys.min() < 0:
        raise IndexError("distinct_rows: a key is negative")
    present = np.zeros(int(keys.max()) + 1 if keys.size else 0, dtype=bool)
    present[keys] = True
    first = np.empty(present.size, dtype=np.intp)
    first[keys] = np.arange(keys.size)  # any row of a key will do
    return first[present], (np.cumsum(present) - 1)[keys]


def embedding_sum_tanh(lookups: list[tuple[Tensor, np.ndarray]], bias: Tensor, distinct: np.ndarray) -> Tensor:
    """tanh(table_0[ids_0] + table_1[ids_1] + ... + bias), computed once per distinct row.

    Each lookup is a (V_i, d) table with (R,) in-range ids; `bias` is (d,).
    `distinct` (R,) names each row's id tuple with a non-negative int: rows
    that share one must look up the same ids in every table (ValueError
    otherwise). The sum, the bias and the tanh run
    on one row per distinct value (`distinct_rows`), which are then
    gathered into the R rows. Each op is elementwise per row, so the output
    is the `embedding_lookup`s added in order, plus the bias, under a tanh,
    bit for bit. So is every gradient: the backward runs on all R rows,
    with the tanh's rule, the bias's sum over rows and each table's per-id
    sums in row order.
    """
    lookups = _checked_lookups(lookups, "embedding_sum_tanh")
    distinct = np.asarray(distinct)
    d = lookups[0][0].data.shape[1]
    if lookups[0][1].ndim != 1 or distinct.shape != lookups[0][1].shape or bias.data.shape != (d,):
        raise ShapeError(
            f"embedding_sum_tanh: ids {lookups[0][1].shape}, distinct {distinct.shape}, bias {bias.data.shape}"
        )
    first, inverse = distinct_rows(distinct)
    picked = [(table, ids[first]) for table, ids in lookups]
    if any(not np.array_equal(ids[inverse], full) for (_, ids), (_, full) in zip(picked, lookups)):
        raise ValueError("embedding_sum_tanh: rows with one distinct value look up different ids")
    (table, ids), *rest = picked
    pre = table.data[ids]
    for table, ids in rest:
        pre += table.data[ids]
    act = pre + bias.data
    out = np.tanh(act, out=act)[inverse]

    def backward_fn(g):
        gpre = _tanh_grad(g, out)
        if needs_grad(bias):
            accumulate(bias, _unbroadcast(gpre, bias.data.shape), fresh=True)
        for table, ids in lookups:
            if needs_grad(table):
                accumulate(table, _embedding_grad(table.data, ids, gpre), fresh=True)

    return make_node(out, (*(table for table, _ in lookups), bias), backward_fn)


def _embedding_grad(table: np.ndarray, ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of `table[ids]` for the cotangent `g` (ids.shape + (d,)).

    It sums each id's rows in row order from zero, as a loop of
    `gt[id] += row` would. Each pair of adjacent columns is viewed as one
    complex number (float32 as complex64, float64 as complex128), and one
    `np.add.at` over the flat indices id·(d // 2) + pair adds them: a complex
    addition is the two float additions of its parts, so every element gets
    the same additions in the same order, with half as many indices and
    half the index array. An odd last column takes its own `np.add.at` over
    `ids`. Each addition rounds to the output dtype, so `g` must be in
    `table`'s, float32 or float64.

    The one difference from the loop is which NaN a sum of two NaNs keeps:
    the loop keeps the running sum's, the complex addition may keep the
    row's, so such an element can end with the other sign bit (as the
    second column of a pair, the column -inf, +NaN, 1, -NaN sums to +NaN in
    the loop and to -NaN here).
    """
    if g.dtype != table.dtype or table.dtype not in _COLUMN_PAIRS:
        raise ValueError(
            f"embedding gradient of dtype {g.dtype} for a {table.dtype} table (both float32, or both float64)"
        )
    vocab, d = table.shape
    ids = ids.reshape(-1)
    g = g.reshape(ids.size, d)
    gt = np.zeros((vocab, d), dtype=table.dtype)
    half = d // 2
    if half:
        # an odd d sums its pairs apart from its last column, and pays a copy of both
        paired = gt if 2 * half == d else np.zeros((vocab, 2 * half), dtype=table.dtype)
        pairs = np.ascontiguousarray(g[:, :2 * half]).view(_COLUMN_PAIRS[table.dtype])
        flat = (ids[:, None] * half + np.arange(half)).reshape(-1)
        np.add.at(paired.reshape(-1).view(pairs.dtype), flat, pairs.reshape(-1))
        if paired is not gt:
            gt[:, :-1] = paired
    if d % 2:
        np.add.at(gt[:, -1], ids, g[:, -1])
    return gt


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p) so inference is identity.

    The keep factors are those of one `rng.random(x.shape)` draw, so a
    row's factors depend only on the rows before it. The uniforms are drawn
    `_BLOCK_ROWS` rows (of the last axis) at a time in C order, which is the
    order `Generator.random` fills in: the numbers and the generator's end
    state are the whole draw's, and no float64 array wider than a block is
    held. Off the tape (`no_grad`, or `x` needs no gradient), each block of
    keep factors is multiplied into the output as it is drawn, so no keep
    array is held either; the bits are the same. The CS head passes its
    (R, d) real context rows, the CC head its (B, d) embedding means, at
    most one block; no PAD slot is drawn.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    taped = on_tape((x,))
    keep = np.empty(x.data.shape, dtype=x.data.dtype)  # off the tape, the output
    flat, rows = keep.reshape(-1), x.data.reshape(-1)
    step = _BLOCK_ROWS * max(1, math.prod(keep.shape[-1:]))
    for start in range(0, flat.size, step):
        block = flat[start:start + step]
        np.greater_equal(rng.random(block.size), p, out=block)
        block /= 1.0 - p
        if not taped:
            block *= rows[start:start + step]
    out = x.data * keep if taped else keep

    def backward_fn(g):
        accumulate(x, g * keep, fresh=True)

    return make_node(out, (x,), backward_fn)


def attention_pool(contexts: Tensor, a: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Soft attention within each bag: weights = softmax(rows @ a), pooled = the weighted sum of the rows.

    `mask` (..., n), boolean, marks each bag's real slots along its last
    axis, and every bag needs at least one. `contexts` holds the d-wide rows
    of the True slots in C order, in any shape that flattens to
    (mask.sum(), d); mask=None makes every slot of contexts.shape[:-1] real.
    `a` is (d,). Returns (pooled mask.shape[:-1] + (d,), weights
    (mask.sum(),)): one weight per real slot, in the order of the rows. Only
    `pooled` is on the tape.

    Each bag's rows are contiguous, so its softmax max and sums are
    `reduceat` segments starting at the bags' first rows. The pooled sums
    form the weighted rows over blocks of whole bags (those whose first
    row falls in one `_BLOCK_ROWS`-row span), so no (R, d) product is held;
    each bag's sum is the same sequence of adds. The scores
    (one d-long dot product per row) and the gradient of `a` (a sum over
    every row of the batch) are `np.einsum` reductions, which never call
    BLAS: a multi-threaded BLAS GEMV gives the rows near its thread split
    other bits for the scores, and splits the gradient's sum, so either
    would depend on the thread count.
    """
    x = contexts.data
    d = x.shape[-1]
    if a.data.shape != (d,):
        raise ShapeError(f"attention_pool: contexts {x.shape} vs a {a.data.shape}")
    mask = np.ones(x.shape[:-1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if x.size != int(mask.sum()) * d:
        raise ShapeError(f"attention_pool: rows {x.shape} for {int(mask.sum())} real slots of {mask.shape}")
    counts = mask.sum(axis=-1).reshape(-1)
    if not counts.all():
        raise ValueError("attention_pool: a bag is fully masked")
    starts = np.cumsum(counts) - counts
    rows = x.reshape(-1, d)
    s = np.einsum("rd,d->r", rows, a.data)
    e = np.exp(s - np.repeat(np.maximum.reduceat(s, starts), counts))
    w = e / np.repeat(np.add.reduceat(e, starts), counts)
    pooled = _pooled_sums(rows, w, starts, counts).reshape(mask.shape[:-1] + (d,))

    def backward_fn(g):
        g_rows = np.repeat(g.reshape(-1, d), counts, axis=0)
        gw = np.einsum("rd,rd->r", rows, g_rows)
        gs = w * (gw - np.repeat(np.add.reduceat(gw * w, starts), counts))
        if needs_grad(a):
            accumulate(a, np.einsum("rd,r->d", rows, gs), fresh=True)
        if needs_grad(contexts):
            gx = np.multiply(g_rows, w[:, None], out=g_rows)
            gx += gs[:, None] * a.data
            accumulate(contexts, gx.reshape(x.shape), fresh=True)

    return make_node(pooled, (contexts, a), backward_fn), Tensor(w)


def _pooled_sums(rows: np.ndarray, w: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """`np.add.reduceat(w[:, None] * rows, starts, axis=0)`, bit for bit, a block of bags at a time."""
    pooled = np.empty((len(starts), rows.shape[1]), dtype=np.result_type(w, rows))
    opens = np.flatnonzero(np.diff(starts // _BLOCK_ROWS, prepend=-1))  # the bags that open a block
    for lo, hi in zip(opens, [*opens[1:], len(starts)]):
        first, stop = starts[lo], starts[hi - 1] + counts[hi - 1]
        np.add.reduceat(w[first:stop, None] * rows[first:stop], starts[lo:hi] - first, axis=0, out=pooled[lo:hi])
    return pooled


def concat_last(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    out = np.concatenate([p.data for p in parts], axis=-1)
    sizes = [p.data.shape[-1] for p in parts]

    def backward_fn(g):
        offset = 0
        for p, n in zip(parts, sizes):
            accumulate(p, g[..., offset:offset + n])
            offset += n

    return make_node(out, tuple(parts), backward_fn)


def mean(x: Tensor) -> Tensor:
    """Scalar mean over all elements."""
    out = np.asarray(x.data.mean())
    n = x.data.size

    def backward_fn(g):
        accumulate(x, np.broadcast_to(g / n, x.data.shape).astype(x.data.dtype), fresh=True)

    return make_node(out, (x,), backward_fn)


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Per-sample -log probs[label]; probs (..., C), labels (...) ints.

    Probabilities are clipped at the dtype's tiny value before the log so a
    saturated softmax cannot produce inf.
    """
    labels = np.asarray(labels)
    if labels.shape != probs.data.shape[:-1]:
        raise ShapeError(f"cross_entropy: labels {labels.shape} vs probs {probs.data.shape}")
    n_classes = probs.data.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise IndexError(f"label out of range [0, {n_classes})")
    tiny = np.finfo(probs.data.dtype).tiny
    # the true-label column of each row of the (rows, C) view, by plain row indexing
    at = (np.arange(labels.size), labels.reshape(-1))
    picked = probs.data.reshape(-1, n_classes)[at].reshape(labels.shape)
    clipped = np.maximum(picked, tiny)
    out = -np.log(clipped)

    def backward_fn(g):
        gp = np.zeros(probs.data.shape, dtype=probs.data.dtype)
        live = (picked >= tiny).astype(probs.data.dtype)  # zero slope in the clip region
        gp.reshape(-1, n_classes)[at] = (-g * live / clipped).reshape(-1)
        accumulate(probs, gp, fresh=True)

    return make_node(out, (probs,), backward_fn)
