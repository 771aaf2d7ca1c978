"""Gradient checks (central finite differences, 64-bit) and op contracts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeshift import nn

H = 1e-5
TOL = 1e-4


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def finite_diff_check(build_loss, params, h=H, tol=TOL):
    """Compare autograd gradients against (f(x+h)-f(x-h))/2h elementwise.

    `build_loss` must be a pure function of the current param values so it
    can be re-evaluated after each coordinate nudge.
    """
    nn.zero_grads(params)
    loss = build_loss()
    nn.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(build_loss().data)
            flat[i] = orig - h
            down = float(build_loss().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            assert rel_err(gflat[i], fd) < tol, f"grad mismatch at {i}: {gflat[i]} vs {fd}"


def t64(rng, *shape, scale=1.0):
    return nn.Tensor(rng.standard_normal(shape) * scale, requires_grad=True, dtype=np.float64)


N_INSTANCES = 50


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_affine_tanh_mean(seed):
    rng = np.random.default_rng(seed)
    x = t64(rng, 3, 4)
    w = t64(rng, 4, 5)
    b = t64(rng, 5)
    finite_diff_check(lambda: nn.mean(nn.tanh(nn.affine(x, w, b))), [x, w, b])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_softmax_cross_entropy(seed):
    rng = np.random.default_rng(100 + seed)
    x = t64(rng, 4, 6)
    labels = rng.integers(0, 6, size=4)
    finite_diff_check(lambda: nn.mean(nn.cross_entropy(nn.softmax(x), labels)), [x])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_masked_softmax(seed):
    # the masked softmax lives inside attention_pool; a fresh random mask per seed
    rng = np.random.default_rng(200 + seed)
    mask = rng.random((3, 5)) < 0.7
    mask[:, 0] = True  # keep every row alive
    contexts = t64(rng, int(mask.sum()), 2)
    a = t64(rng, 2)
    weights = t64(rng, 2, 2)

    def build():
        pooled, _ = nn.attention_pool(contexts, a, mask=mask)
        return nn.mean(nn.linear(pooled, weights))

    finite_diff_check(build, [contexts, a, weights])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_embedding_lookup(seed):
    rng = np.random.default_rng(300 + seed)
    table = t64(rng, 7, 4)
    ids = rng.integers(0, 7, size=(2, 5))
    w = t64(rng, 4, 3)
    finite_diff_check(lambda: nn.mean(nn.linear(nn.embedding_lookup(table, ids), w)), [table, w])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_row_slice(seed):
    rng = np.random.default_rng(800 + seed)
    w = t64(rng, 6, 3)
    x = t64(rng, 4, 2)
    start = int(rng.integers(0, 5))
    finite_diff_check(lambda: nn.mean(nn.tanh(nn.linear(x, nn.row_slice(w, start, start + 2)))), [w, x])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_embedding_lookup_of_a_projected_table(seed):
    # the table is itself an op's output, as CS's projected vocabularies are
    rng = np.random.default_rng(900 + seed)
    table = t64(rng, 5, 3)
    w = t64(rng, 3, 4)
    ids = rng.integers(0, 5, size=(2, 6))
    finite_diff_check(lambda: nn.mean(nn.tanh(nn.embedding_lookup(nn.linear(table, w), ids))), [table, w])


def added_lookups(lookups):
    """table_0[ids_0] + table_1[ids_1] + ..., composed from `embedding_lookup` and `add` in that order."""
    (table, ids), *rest = lookups
    out = nn.embedding_lookup(table, ids)
    for table, ids in rest:
        out = nn.add(out, nn.embedding_lookup(table, ids))
    return out


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_embedding_sum(seed):
    rng = np.random.default_rng(1000 + seed)
    first, second = t64(rng, 5, 3), t64(rng, 4, 3)
    ids = [rng.integers(0, 5, size=(2, 6)), rng.integers(0, 4, size=(2, 6)), rng.integers(0, 5, size=(2, 6))]
    w = t64(rng, 3, 2)

    def build():
        summed = added_lookups([(first, ids[0]), (second, ids[1]), (first, ids[2])])
        return nn.mean(nn.tanh(nn.linear(summed, w)))

    finite_diff_check(build, [first, second, w])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_sum_equals_added_lookups_bitwise(dtype):
    rng = np.random.default_rng(29)
    shared = rng.standard_normal((6, 4)).astype(dtype)
    other = rng.standard_normal((9, 4)).astype(dtype)
    ids = [rng.integers(0, 6, size=(3, 20)), rng.integers(0, 9, size=(3, 20)), rng.integers(0, 6, size=(3, 20))]
    g = (rng.standard_normal((3, 20, 4)) * 10.0 ** rng.uniform(-5, 5, (3, 20, 4))).astype(dtype)
    a, b = nn.Tensor(shared.copy(), requires_grad=True), nn.Tensor(other.copy(), requires_grad=True)
    out = added_lookups([(a, ids[0]), (b, ids[1]), (a, ids[2])])
    nn.backward(out, seed=g)
    assert_bitwise(out.data, shared[ids[0]] + other[ids[1]] + shared[ids[2]])
    # a shared table's gradient is the sum of its lookups' per-id sums
    assert_bitwise(a.grad, loop_embedding_grad(6, ids[0], g) + loop_embedding_grad(6, ids[2], g))
    assert_bitwise(b.grad, loop_embedding_grad(9, ids[1], g))


def test_embedding_sum_rejects_mismatched_lookups():
    table, bias = nn.Tensor(np.zeros((4, 2))), nn.Tensor(np.zeros(2))
    distinct = np.arange(3)
    with pytest.raises(nn.ShapeError):
        nn.embedding_sum_tanh([(table, np.zeros(3, dtype=int)), (table, np.zeros(4, dtype=int))], bias, distinct)
    with pytest.raises(nn.ShapeError):
        nn.embedding_sum_tanh(
            [(table, np.zeros(3, dtype=int)), (nn.Tensor(np.zeros((4, 3))), np.zeros(3, dtype=int))], bias, distinct
        )
    with pytest.raises(IndexError):
        nn.embedding_sum_tanh([(table, np.zeros(3, dtype=int)), (table, np.array([0, 4, 1]))], bias, distinct)
    for ids in (np.array([0, 4, 1]), np.array([[0, -1]])):
        with pytest.raises(IndexError):
            nn.embedding_lookup(table, ids)


def test_row_slice_rejects_rows_out_of_range():
    w = nn.Tensor(np.zeros((4, 2)))
    assert nn.row_slice(w, 1, 3).data.shape == (2, 2)
    for start, stop in ((-1, 2), (3, 2), (2, 5)):
        with pytest.raises(nn.ShapeError):
            nn.row_slice(w, start, stop)


def test_backward_leaves_constant_operands_without_gradients():
    rng = np.random.default_rng(21)
    x = t64(rng, 3, 4)
    w = t64(rng, 4, 2)
    mask = nn.Tensor(rng.random((3, 4)) < 0.5, dtype=np.float64)
    shift = nn.Tensor(rng.standard_normal(2), dtype=np.float64)
    frozen = nn.Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
    loss = nn.mean(nn.add(nn.linear(nn.mul(x, mask), w), shift))
    nn.backward(nn.add(loss, nn.mean(nn.linear(frozen, w))))
    assert mask.grad is None and shift.grad is None and frozen.grad is None
    assert x.grad is not None and w.grad is not None


@pytest.mark.parametrize("vocab", [1 << 15, (1 << 16) + 1])
def test_embedding_backward_on_either_side_of_the_int16_sort(vocab):
    # ids 0 and 2^16 share their low 16 bits: a backward that keyed ids as int16 would merge them
    rng = np.random.default_rng(23)
    ids = rng.integers(0, vocab, size=300)
    ids[:40:2] = vocab - 1  # the largest id, repeated
    ids[1:40:2] = 0
    g = (rng.standard_normal((300, 2)) * 10.0 ** rng.uniform(-5, 5, (300, 2))).astype(np.float32)
    assert_bitwise(lookup_grad(vocab, ids, g), loop_embedding_grad(vocab, ids, g))


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_attention_pool(seed):
    rng = np.random.default_rng(400 + seed)
    mask = np.ones((2, 6), dtype=bool)
    mask[0, 4:] = False
    contexts = t64(rng, int(mask.sum()), 4)
    a = t64(rng, 4)

    def build():
        pooled, _ = nn.attention_pool(contexts, a, mask=mask)
        return nn.mean(pooled)

    finite_diff_check(build, [contexts, a])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_dropout(seed):
    rng = np.random.default_rng(500 + seed)
    x = t64(rng, 4, 5)

    def build():
        drop_rng = np.random.default_rng(seed)  # same mask on every re-evaluation
        return nn.mean(nn.dropout(x, 0.4, training=True, rng=drop_rng))

    finite_diff_check(build, [x])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_elementwise_and_reductions(seed):
    rng = np.random.default_rng(600 + seed)
    a = t64(rng, 3, 4)
    b = t64(rng, 4)  # broadcast
    c = t64(rng, 3, 4)

    def build():
        return nn.mean(nn.mul(nn.add(a, b), c))

    finite_diff_check(build, [a, b, c])


def ragged_mask(rng, max_bags=4, max_width=6):
    """A random (bags, width) mask of left-aligned real slots; one bag holds a single slot."""
    lengths = rng.integers(1, max_width + 1, size=int(rng.integers(1, max_bags + 1)))
    lengths[rng.integers(0, len(lengths))] = 1
    return np.arange(lengths.max()) < lengths[:, None]


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_attention_pool_over_ragged_bags(seed):
    rng = np.random.default_rng(1100 + seed)
    mask = ragged_mask(rng)
    contexts = t64(rng, int(mask.sum()), 3)
    a = t64(rng, 3)
    head = t64(rng, 3, 2)  # a fixed random cotangent, so no gradient cancels by symmetry

    def build():
        pooled, _ = nn.attention_pool(nn.tanh(contexts), a, mask=mask)
        return nn.mean(nn.tanh(nn.linear(pooled, head)))

    finite_diff_check(build, [contexts, a, head])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_scatter_rows(seed):
    # pooling the real rows must give the gradient of their scatter over zeros into the padded
    # layout, gathered back at the mask; tanh after the scatter gives the PAD slots a nonzero
    # slope, and their gradient must still be zero, since the rows never see it
    rng = np.random.default_rng(1100 + seed)
    mask = rng.random((3, 5)) < 0.6
    mask[:, 0] = True  # every bag keeps a real slot, as CS context bags do
    rows, a, g = rng.standard_normal((int(mask.sum()), 2)), rng.standard_normal(2), rng.standard_normal((3, 2))
    x, at = nn.Tensor(rows, requires_grad=True, dtype=np.float64), nn.Tensor(a, requires_grad=True, dtype=np.float64)
    pooled, _ = nn.attention_pool(nn.tanh(x), at, mask=mask)
    nn.backward(pooled, seed=g)
    padded = np.zeros(mask.shape + (2,))
    padded[mask] = rows
    squashed = np.tanh(padded)
    _, _, ref_gx, ref_ga = composed_attention_pool(squashed, a, mask, g)
    ref_gx *= 1.0 - squashed**2
    assert (ref_gx[~mask] == 0.0).all()
    np.testing.assert_allclose(x.grad, ref_gx[mask], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(at.grad, ref_ga, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_masked_dropout(seed):
    rng = np.random.default_rng(1200 + seed)
    mask = ragged_mask(rng)
    x = t64(rng, int(mask.sum()), 3)
    a = t64(rng, 3)

    def build():
        drop_rng = np.random.default_rng(seed)  # same factors on every re-evaluation
        pooled, _ = nn.attention_pool(nn.dropout(x, 0.4, training=True, rng=drop_rng), a, mask=mask)
        return nn.mean(nn.tanh(pooled))

    finite_diff_check(build, [x, a])


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_concat_weighted_sum(seed):
    rng = np.random.default_rng(700 + seed)
    left = t64(rng, 2, 3, 2)
    right = t64(rng, 2, 3, 3)
    a = t64(rng, 5, scale=0.5)

    def build():
        # attention_pool's weighted sum of the concatenated rows
        pooled, _ = nn.attention_pool(nn.concat_last([left, right]), a)
        return nn.mean(pooled)

    finite_diff_check(build, [left, right, a])


def test_grad_full_attention_classifier():
    # One composite of every op the CS model runs, in its order, checked end to end.
    rng = np.random.default_rng(42)
    d = 3
    term_emb = t64(rng, 6, d)
    path_emb = t64(rng, 5, d)
    w_comb = t64(rng, 3 * d, d)
    b_comb = t64(rng, d)
    attn = t64(rng, d)
    w_out = t64(rng, d, 5)
    b_out = t64(rng, 5)
    left, right = rng.integers(0, 6, size=(2, 2, 4))
    path = rng.integers(0, 5, size=(2, 4))
    mask = np.array([[True, True, True, False], [True, False, True, True]])
    labels = rng.integers(0, 5, size=2)

    def build():
        proj_left = nn.linear(term_emb, nn.row_slice(w_comb, 0, d))
        proj_path = nn.linear(path_emb, nn.row_slice(w_comb, d, 2 * d))
        proj_right = nn.linear(term_emb, nn.row_slice(w_comb, 2 * d, 3 * d))
        pre = added_lookups([(proj_left, left[mask]), (proj_path, path[mask]), (proj_right, right[mask])])
        combined = nn.tanh(nn.add(pre, b_comb))
        dropped = nn.dropout(combined, 0.3, training=True, rng=np.random.default_rng(5))
        pooled, _ = nn.attention_pool(dropped, attn, mask=mask)
        probs = nn.softmax(nn.affine(pooled, w_out, b_out))
        return nn.mean(nn.cross_entropy(probs, labels))

    finite_diff_check(build, [term_emb, path_emb, w_comb, b_comb, attn, w_out, b_out])


def loop_embedding_grad(vocab, ids, g):
    """Reference backward: add each gradient row to its id's row, in order."""
    ids = np.asarray(ids).reshape(-1)
    g = np.asarray(g)
    g = g.reshape(ids.size, g.shape[-1])
    gt = np.zeros((vocab, g.shape[1]), dtype=g.dtype)
    for i in range(ids.size):
        gt[ids[i]] += g[i]
    return gt


def lookup_grad(vocab, ids, g):
    table = nn.Tensor(np.zeros((vocab, g.shape[-1]), dtype=g.dtype), requires_grad=True)
    nn.backward(nn.embedding_lookup(table, ids), seed=g)
    return table.grad


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 5])  # one column is where numpy would sum pairwise
@pytest.mark.parametrize(
    "ids_shape", [(37,), (4, 9), (3, 5, 4)], ids=["n", "batch-n", "batch-n-k"]
)
def test_embedding_backward_matches_loop_bitwise(dtype, dim, ids_shape):
    rng = np.random.default_rng(17)
    ids = rng.integers(0, 3, size=ids_shape)
    # Magnitudes over ten decades make the summation order show in the bits.
    shape = ids_shape + (dim,)
    g = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)).astype(dtype)
    assert_bitwise(lookup_grad(3, ids, g), loop_embedding_grad(3, ids, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_backward_edge_ids(dtype):
    rng = np.random.default_rng(18)
    empty = np.zeros((0, 3), dtype=np.int64)
    grad = lookup_grad(4, empty, np.zeros((0, 3, 2), dtype=dtype))
    assert_bitwise(grad, np.zeros((4, 2), dtype=dtype))

    singletons = rng.permutation(9).reshape(3, 3)
    g = rng.standard_normal((3, 3, 4)).astype(dtype)
    assert_bitwise(lookup_grad(9, singletons, g), loop_embedding_grad(9, singletons, g))

    one_id = np.full((6, 20), 2)
    g = (rng.standard_normal((6, 20, 4)) * 10.0 ** rng.uniform(-6, 6, (6, 20, 4))).astype(dtype)
    assert_bitwise(lookup_grad(3, one_id, g), loop_embedding_grad(3, one_id, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_backward_signed_zeros_and_nan(dtype):
    ids = np.array([0, 1, 1, 2, 3, 3, 3])
    g = np.array(
        [
            [-0.0, 1.0],  # a lone -0.0 lands as +0.0, as 0.0 + -0.0 does
            [-0.0, -0.0],
            [-0.0, 2.0],
            [np.nan, 1.0],  # a NaN row poisons its id only
            [1.0, -0.0],
            [-1.0, -0.0],
            [0.0, -0.0],
        ],
        dtype=dtype,
    )
    grad = lookup_grad(5, ids, g)
    assert_bitwise(grad, loop_embedding_grad(5, ids, g))
    assert not np.signbit(grad[[0, 1, 3]]).any()
    assert np.isnan(grad[2, 0]) and not np.isnan(grad[[0, 1, 3, 4]]).any()


def test_embedding_backward_needs_the_tables_dtype():
    # np.add.at rounds each addition to the table's dtype, so a wider gradient is refused, not rounded per row
    table = nn.Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
    bias = nn.Tensor(np.ones(2), dtype=np.float64)  # the sum, and so its gradient, is float64
    out = nn.embedding_sum_tanh([(table, np.array([0, 2, 2]))], bias, np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="dtype float64 for a float32 table"):
        nn.backward(out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_backward_two_lookups_share_a_table(dtype):
    # CS looks up the left and the right terminal of a path in one table.
    rng = np.random.default_rng(19)
    table = nn.Tensor(np.zeros((7, 3), dtype=dtype), requires_grad=True)
    left, right = rng.integers(0, 7, size=(2, 4, 10))
    cat = nn.concat_last([nn.embedding_lookup(table, left), nn.embedding_lookup(table, right)])
    g = rng.standard_normal((4, 10, 6)).astype(dtype)
    nn.backward(cat, seed=g)
    expected = loop_embedding_grad(7, left, g[..., :3]) + loop_embedding_grad(7, right, g[..., 3:])
    assert_bitwise(table.grad, expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    vocab=st.integers(1, 12),
    dim=st.integers(1, 5),
    ids_shape=st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
def test_embedding_backward_property(vocab, dim, ids_shape, dtype, data):
    size = int(np.prod(ids_shape))
    ids = np.array(data.draw(st.lists(st.integers(0, vocab - 1), min_size=size, max_size=size)), dtype=np.int64)
    values = st.floats(width=np.finfo(dtype).bits, allow_nan=True, allow_infinity=False)
    g = np.array(data.draw(st.lists(values, min_size=size * dim, max_size=size * dim)), dtype=dtype)
    ids, g = ids.reshape(ids_shape), g.reshape(ids_shape + (dim,))
    with np.errstate(all="ignore"):
        assert_bitwise(lookup_grad(vocab, ids, g), loop_embedding_grad(vocab, ids, g))


def test_softmax_symmetry_and_stability():
    assert np.allclose(nn.softmax(nn.Tensor([0.0, 0.0])).data, [0.5, 0.5])
    big = nn.softmax(nn.Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(big))
    assert big[0] > 0.999 and big[1] < 1e-3


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = nn.Tensor(rng.standard_normal((5, 9)) * rng.uniform(0.1, 50))
        probs = nn.softmax(x).data
        assert np.all(probs > 0)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-9


def test_attention_pool_single_row():
    contexts = nn.Tensor([[3.0, -1.0]])
    a = nn.Tensor([0.2, 0.4])
    pooled, weights = nn.attention_pool(contexts, a)
    assert np.allclose(weights.data, [1.0])
    assert np.allclose(pooled.data, [3.0, -1.0])


def pool_batch(dtype, shape=(75, 198, 48), seed=12):
    """A seeded masked attention batch at the CS training shape: padded contexts, a, mask, cotangent.

    PAD rows are zero; `contexts[mask]` are the real rows the CS head pools.
    """
    rng = np.random.default_rng(seed)
    B, n, d = shape
    mask = np.arange(n) < rng.integers(1, n + 1, size=(B, 1))
    contexts = rng.standard_normal(shape).astype(dtype)
    contexts[~mask] = 0.0
    return contexts, rng.standard_normal(d).astype(dtype), mask, rng.standard_normal((B, d)).astype(dtype)


def composed_attention_pool(x, a, mask, g):
    """Attention pooling over the padded layout, composed of a linear map, two reshapes, a masked
    softmax and a weighted sum, each with its own backward, in numpy: pooled, weights, contexts grad
    (padded), a grad."""
    d = x.shape[-1]
    s = (x @ a.reshape(d, 1)).reshape(x.shape[:-1])
    z = np.where(mask, s, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    pooled = (w[..., None] * x).sum(axis=-2)
    gw = (x * g[..., None, :]).sum(axis=-1)
    gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
    gx = w[..., None] * g[..., None, :]
    gx += gs[..., None] @ a.reshape(d, 1).T
    return pooled, w, gx, (x.reshape(-1, d).T @ gs.reshape(-1, 1)).reshape(d)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_pool_matches_the_composed_ops_bitwise(dtype):
    # the row layout sums in another order than the padded ops, so values agree to rounding
    x, a, mask, g = pool_batch(dtype)
    contexts, at = nn.Tensor(x[mask], requires_grad=True), nn.Tensor(a, requires_grad=True)
    pooled, weights = nn.attention_pool(contexts, at, mask=mask)
    assert weights._parents == ()  # the weights are off the tape
    nn.backward(pooled, seed=g)
    ref_pooled, ref_w, ref_gx, ref_ga = composed_attention_pool(x, a, mask, g)
    tolerance = 1e-12 if dtype == np.float64 else 1e-5
    for actual, expected in ((pooled.data, ref_pooled), (weights.data, ref_w[mask]), (contexts.grad, ref_gx[mask])):
        assert actual.dtype == expected.dtype == dtype and actual.shape == expected.shape
        np.testing.assert_allclose(actual, expected, rtol=tolerance, atol=tolerance * np.abs(expected).max())
    assert at.grad.dtype == dtype and np.allclose(at.grad, ref_ga, rtol=1e-4 if dtype == np.float32 else 1e-10)
    assert (weights.data > 0.0).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.integers(1, 7), min_size=1, max_size=6),
    d=st.integers(1, 5),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_attention_pool_equals_the_padded_reference(lengths, d, scale, seed):
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    mask = np.arange(lengths.max()) < lengths[:, None]
    mask = rng.permuted(mask, axis=-1)  # real slots anywhere in their bag, not only at its front
    x = np.zeros(mask.shape + (d,))
    x[mask] = rng.standard_normal((int(mask.sum()), d)) * scale
    a, g = rng.standard_normal(d), rng.standard_normal((len(mask), d))
    pooled, weights = nn.attention_pool(nn.Tensor(x[mask], dtype=np.float64), nn.Tensor(a, dtype=np.float64), mask=mask)
    ref_pooled, ref_w, _, _ = composed_attention_pool(x, a, mask, g)
    np.testing.assert_allclose(pooled.data, ref_pooled, rtol=1e-10, atol=1e-10 * scale)
    np.testing.assert_allclose(weights.data, ref_w[mask], rtol=1e-10, atol=1e-10)


def test_attention_pool_rejects_a_fully_masked_row():
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(ValueError, match="fully masked"):
        nn.attention_pool(nn.Tensor(np.ones((1, 3))), nn.Tensor(np.ones(3)), mask=mask)


def test_attention_pool_gradient_bytes_do_not_depend_on_the_blas_thread_count():
    # the thread count is read when numpy loads, so each count needs its own interpreter
    src = str(Path(nn.__file__).resolve().parents[2])
    probe = (
        "import hashlib, numpy as np, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from codeshift import nn\n"
        "from test_nn import pool_batch\n"
        # the training shape, and about 13k rows, where a GEMV for the scores splits across threads
        "for shape in ((75, 198, 48), (133, 198, 48)):\n"
        "    x, a, mask, g = pool_batch(np.float32, shape=shape)\n"
        "    contexts, at = nn.Tensor(x[mask], requires_grad=True), nn.Tensor(a, requires_grad=True)\n"
        "    pooled, weights = nn.attention_pool(contexts, at, mask=mask)\n"
        "    nn.backward(pooled, seed=g)\n"
        "    for out in (pooled.data, weights.data, at.grad, contexts.grad):\n"
        "        print(hashlib.sha256(out.tobytes()).hexdigest())\n"
    )
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout.split()
        for threads in ("1", "2")
    }
    assert len(digests["1"]) == 8 and digests["1"] == digests["2"]


def test_dropout_identities():
    x = nn.Tensor(np.arange(12.0).reshape(3, 4))
    rng = np.random.default_rng(0)
    assert nn.dropout(x, 0.0, training=True, rng=rng) is x
    assert nn.dropout(x, 0.5, training=False) is x
    with pytest.raises(ValueError):
        nn.dropout(x, 1.0, training=True, rng=rng)
    with pytest.raises(ValueError):
        nn.dropout(x, -0.1, training=True, rng=rng)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    shape=st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple),
    p=st.sampled_from([0.1, 0.5, 0.9]),
    dtype=st.sampled_from([np.float32, np.float64]),
    buffered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dropout_draws_one_keep_factor_per_element(shape, p, dtype, buffered, seed):
    values = np.random.default_rng(seed + 1)
    x, g = (values.standard_normal(shape).astype(dtype) for _ in range(2))
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # a 32-bit draw leaves half a 64-bit output waiting in the bit generator
        for r in (ref_rng, rng):
            r.integers(0, 10, dtype=np.int32)
    keep = (ref_rng.random(shape) >= p).astype(dtype) / (1.0 - p)
    t = nn.Tensor(x, requires_grad=True)
    out = nn.dropout(t, p, training=True, rng=rng)
    nn.backward(out, seed=g)
    assert_bitwise(out.data, x * keep)
    assert_bitwise(t.grad, g * keep)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def random_triples(rng, n_rows, n_terms, n_paths):
    """(left, path, right, distinct) rows: repeated triples, triples that occur once, and UNK (id 0) ones.

    `distinct` numbers the triples sparsely and out of order, as a batch of
    a split holds only some of the split's triple indices.
    """
    pool = rng.integers(0, [n_terms, n_paths, n_terms], size=(max(1, n_rows // 3), 3))
    pool[0] = 0  # the all-UNK triple
    pool[-1, 1] = 0  # an UNK path between known terminals
    rows = np.concatenate([pool[rng.integers(0, len(pool), size=n_rows)],
                           rng.integers(0, [n_terms, n_paths, n_terms], size=(n_rows // 4, 3))])
    rows = rows[rng.permutation(len(rows))]
    _, index = np.unique(rows, axis=0, return_inverse=True)
    names = rng.permutation(3 * len(rows))  # an injective, unordered renaming
    return rows[:, 0], rows[:, 1], rows[:, 2], names[index.reshape(-1)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_rows=st.integers(1, 120), n_terms=st.integers(1, 40), n_paths=st.integers(1, 40), d=st.integers(1, 9),
    dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1),
)
def test_embedding_sum_tanh_equals_the_composed_ops_bit_for_bit(n_rows, n_terms, n_paths, d, dtype, seed):
    rng = np.random.default_rng(seed)
    left, path, right, distinct = random_triples(rng, n_rows, n_terms, n_paths)
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((n_terms, d), (n_paths, d), (d, d), (d,))]
    g = rng.standard_normal((len(left), d)).astype(dtype)
    results = []
    for fused in (True, False):
        terms, paths, w, b = (nn.Tensor(a.copy(), requires_grad=True) for a in arrays)
        # projected tables, so the gradients reach the leaves through `linear`, as in the CS model
        lookups = [(nn.linear(terms, w), left), (nn.linear(paths, w), path), (nn.linear(terms, w), right)]
        if fused:
            out = nn.embedding_sum_tanh(lookups, b, distinct)
        else:
            out = nn.tanh(nn.add(added_lookups(lookups), b))
        nn.backward(out, seed=g)
        results.append([out.data, terms.grad, paths.grad, w.grad, b.grad])
    for fused, composed in zip(*results):
        assert_bitwise(fused, composed)


def test_embedding_sum_tanh_checks_its_rows():
    rng = np.random.default_rng(3)
    table, bias = nn.Tensor(rng.standard_normal((4, 2))), nn.Tensor(np.zeros(2))
    ids = np.array([0, 1, 1, 3])
    with pytest.raises(ValueError, match="different ids"):
        nn.embedding_sum_tanh([(table, ids)], bias, np.array([0, 1, 0, 2]))
    with pytest.raises(IndexError, match="out of range"):
        nn.embedding_sum_tanh([(table, np.array([0, 4]))], bias, np.array([0, 1]))
    with pytest.raises(IndexError, match="negative"):
        nn.embedding_sum_tanh([(table, ids)], bias, np.array([0, -1, -1, 2]))
    with pytest.raises(nn.ShapeError):
        nn.embedding_sum_tanh([(table, ids)], bias, np.array([0, 1, 1]))
    with pytest.raises(nn.ShapeError):
        nn.embedding_sum_tanh([(table, ids)], nn.Tensor(np.zeros(3)), np.array([0, 1, 1, 2]))
    out = nn.embedding_sum_tanh([(table, ids)], bias, np.array([7, 1, 1, 2]))
    assert_bitwise(out.data, np.tanh(table.data[ids] + bias.data))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 50), max_size=60))
def test_distinct_rows_picks_one_row_per_key_in_ascending_order(keys):
    keys = np.array(keys, dtype=np.int64)
    first, inverse = nn.distinct_rows(keys)
    assert keys[first].tolist() == sorted(set(keys.tolist()))
    assert np.array_equal(keys[first][inverse], keys)


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_grad_embedding_sum_tanh(seed):
    rng = np.random.default_rng(1300 + seed)
    terms, paths, w, b = t64(rng, 4, 3), t64(rng, 3, 3), t64(rng, 3, 3), t64(rng, 3)
    left, path, right, distinct = random_triples(rng, 9, 4, 3)
    head = t64(rng, 3, 2)

    def build():
        lookups = [(nn.linear(terms, w), left), (nn.linear(paths, w), path), (terms, right)]
        return nn.mean(nn.linear(nn.embedding_sum_tanh(lookups, b, distinct), head))

    finite_diff_check(build, [terms, paths, w, b, head])


def assert_gradients_apart(tensors):
    """No two gradients share memory: a handed-over gradient is never another tensor's too."""
    grads = [t.grad for t in tensors if t.grad is not None]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_gradient_hand_over_keeps_shared_gradients_apart():
    rng = np.random.default_rng(17)
    x = nn.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = nn.Tensor(rng.standard_normal(4), requires_grad=True)
    g = rng.standard_normal((3, 4))
    # add(x, x): one g reaches x twice, and the node keeps its own
    twice = nn.add(x, x)
    nn.backward(twice, seed=g)
    assert_bitwise(x.grad, g + g)
    assert_bitwise(twice.grad, g)
    assert_gradients_apart([x, twice])
    # one node feeding two consumers: h -> mul(h, c) and h -> add(., h)
    nn.zero_grads([x, c])
    h = nn.tanh(x)
    scaled = nn.mul(h, c)
    out = nn.add(scaled, h)
    nn.backward(out, seed=g)
    gh = g * c.data + g
    assert_bitwise(h.grad, gh)
    assert_bitwise(x.grad, gh * (1.0 - h.data * h.data))
    assert_bitwise(c.grad, (g * h.data).sum(axis=0))
    assert_gradients_apart([x, c, h, scaled, out])


def test_gradient_hand_over_keeps_view_gradients_apart():
    rng = np.random.default_rng(19)
    w = nn.Tensor(rng.standard_normal((6, 2)), requires_grad=True)
    # two row slices of one weight, then their columns side by side: concat_last hands views of g
    top, bottom = nn.row_slice(w, 0, 3), nn.row_slice(w, 3, 6)
    side = nn.concat_last([top, bottom])
    g = rng.standard_normal((3, 4))
    nn.backward(side, seed=g)
    assert_bitwise(top.grad, g[:, :2])
    assert_bitwise(bottom.grad, g[:, 2:])
    assert_bitwise(w.grad, np.concatenate([g[:, :2], g[:, 2:]]))
    assert_gradients_apart([w, top, bottom, side])
    # attention_pool hands over a reshaped view of its own buffer
    nn.zero_grads([w])
    rows = nn.row_slice(w, 1, 5)
    pooled, _ = nn.attention_pool(rows, nn.Tensor(np.ones(2)), mask=np.array([[True, True], [True, True]]))
    nn.backward(pooled, seed=np.ones((2, 2)))
    expected = np.zeros((6, 2))
    expected[1:5] = rows.grad
    assert_bitwise(w.grad, expected)
    assert_gradients_apart([w, rows, pooled])


def test_dropout_scaling_preserves_mean():
    # Monte-Carlo check of the 1/(1-p) inverted-dropout scaling.
    rng = np.random.default_rng(123)
    x = nn.Tensor(np.ones(100_000))
    y = nn.dropout(x, 0.5, training=True, rng=rng)
    assert abs(y.data.mean() - 1.0) < 0.01


def test_cross_entropy_values():
    certain = nn.cross_entropy(nn.Tensor([[0.0, 1.0, 0.0]]), np.array([1]))
    assert np.allclose(certain.data, [0.0])
    uniform = nn.cross_entropy(nn.Tensor([0.25, 0.25, 0.25, 0.25]), np.array(2))
    assert abs(float(uniform.data) - np.log(4.0)) < 1e-6
    with pytest.raises(IndexError):
        nn.cross_entropy(nn.Tensor([0.5, 0.5]), np.array(2))


def test_shape_mismatch_errors():
    with pytest.raises(nn.ShapeError):
        nn.linear(nn.Tensor(np.ones((2, 3))), nn.Tensor(np.ones((4, 5))))
    with pytest.raises(nn.ShapeError):
        nn.affine(nn.Tensor(np.ones((2, 3))), nn.Tensor(np.ones((3, 5))), nn.Tensor(np.ones(4)))
    with pytest.raises(nn.ShapeError):
        nn.attention_pool(nn.Tensor(np.ones((2, 4, 5))), nn.Tensor(np.ones(4)))
    with pytest.raises(nn.ShapeError):
        nn.attention_pool(nn.Tensor(np.ones((2, 4, 5))), nn.Tensor(np.ones(5)), mask=np.ones((2, 5), dtype=bool))


def test_no_grad_skips_tape():
    x = nn.Tensor(np.ones((2, 2)), requires_grad=True)
    with nn.no_grad():
        y = nn.tanh(x)
    assert y._parents == ()
    z = nn.tanh(x)
    assert z._parents != ()


def test_adam_minimizes_quadratic():
    p = nn.Tensor(np.array([10.0, -6.0]), requires_grad=True, dtype=np.float64)
    state = nn.AdamState(learning_rate=0.1)
    for _ in range(500):
        grads = {"p": 2.0 * p.data}
        nn.adam_step({"p": p}, grads, state)
    assert np.abs(p.data).max() < 1e-3


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(5)
        p = nn.Tensor(rng.standard_normal(8), requires_grad=True)
        state = nn.AdamState()
        for step in range(50):
            grads = {"p": np.sin(p.data + step)}
            nn.adam_step({"p": p}, grads, state)
        return p.data.copy()

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_adam_one_pass_per_dtype_equals_the_per_parameter_update_bit_for_bit():
    # float32 model parameters next to float64 probe parameters, of several shapes
    rng = np.random.default_rng(17)
    shapes = {"emb": ((13, 5), np.float32), "w": ((5, 7), np.float64), "b": ((7,), np.float32),
              "attn": ((5,), np.float64), "w_out": ((5, 13), np.float32)}
    start = {name: rng.standard_normal(shape).astype(dtype) for name, (shape, dtype) in shapes.items()}
    params = {name: nn.Tensor(a.copy(), requires_grad=True, dtype=a.dtype) for name, a in start.items()}
    expected = {name: a.copy() for name, a in start.items()}
    m = {name: np.zeros_like(a) for name, a in start.items()}
    v = {name: np.zeros_like(a) for name, a in start.items()}
    state = nn.AdamState(learning_rate=0.01)
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
    for t in range(1, 51):
        grads = {name: (rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 3)).astype(a.dtype)
                 for name, a in start.items()}
        nn.adam_step(params, grads, state)
        for name, g in grads.items():  # the per-parameter update, operation by operation
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v[name] *= b2
            v[name] += (1.0 - b2) * (g * g)
            m_hat = m[name] / (1.0 - b1 ** t)
            v_hat = v[name] / (1.0 - b2 ** t)
            expected[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for name, a in expected.items():
            got = params[name].data
            assert got.dtype == a.dtype and got.tobytes() == a.tobytes(), (t, name)


def test_adam_needs_every_parameters_gradient():
    params = {"w": nn.Tensor(np.ones((2, 3)), requires_grad=True), "b": nn.Tensor(np.ones(3), requires_grad=True)}
    state = nn.AdamState()
    for grads in ({"w": np.ones((2, 3))}, {"w": np.ones((2, 3)), "b": None}):
        with pytest.raises(ValueError, match="'b'"):
            nn.adam_step(params, grads, state)
    with pytest.raises(ValueError, match="'b'"):
        nn.adam_step(params, {"w": np.ones((2, 3)), "b": np.ones(4)}, state)
    assert state.step == 0 and all(p.data.sum() == p.data.size for p in params.values())  # nothing moved
    nn.adam_step(params, {"w": np.ones((2, 3)), "b": np.ones(3)}, state)
    with pytest.raises(ValueError, match="first step"):
        nn.adam_step({"w": params["w"]}, {"w": np.ones((2, 3))}, state)


@pytest.mark.parametrize("label_shape", [(6,), (6, 4)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_equals_the_along_axis_reference_bit_for_bit(label_shape, dtype):
    rng = np.random.default_rng(31)
    n_classes = 9
    probs = rng.random(label_shape + (n_classes,)).astype(dtype)
    probs /= probs.sum(axis=-1, keepdims=True)
    labels = rng.integers(0, n_classes, size=label_shape)
    tiny = np.finfo(dtype).tiny
    probs[(0,) * len(label_shape) + (int(labels.flat[0]),)] = tiny / 4  # below tiny: clipped, zero slope
    g = rng.standard_normal(label_shape).astype(dtype)
    x = nn.Tensor(probs, requires_grad=True, dtype=dtype)
    out = nn.cross_entropy(x, labels)
    nn.backward(out, seed=g)
    picked = np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]
    clipped = np.maximum(picked, tiny)
    grad = np.zeros_like(probs)
    live = (picked >= tiny).astype(dtype)
    np.put_along_axis(grad, labels[..., None], (-g * live / clipped)[..., None], axis=-1)
    assert out.data.tobytes() == (-np.log(clipped)).tobytes()
    assert x.grad.dtype == dtype and x.grad.tobytes() == grad.tobytes()
    assert x.grad[(0,) * len(label_shape)].tolist() == [0.0] * n_classes


def test_checkpoint_roundtrip_bitwise():
    rng = np.random.default_rng(11)
    arrays = {
        "w": rng.standard_normal((4, 3)).astype(np.float32),
        "b": rng.standard_normal(3).astype(np.float32),
    }
    blob = nn.write_checkpoint("cs", {"dim": 4}, {"labels": ["<UNK>", "<PAD>", "f"]}, arrays)
    ck = nn.read_checkpoint(blob)
    assert ck.kind == "cs"
    assert ck.config == {"dim": 4}
    assert ck.vocabs == {"labels": ["<UNK>", "<PAD>", "f"]}
    for name, arr in arrays.items():
        assert np.array_equal(ck.arrays[name], arr)
        assert ck.arrays[name].dtype == np.float32


def test_checkpoint_truncation_and_magic():
    blob = nn.write_checkpoint("cc", {}, {}, {"w": np.zeros((2, 2), dtype=np.float32)})
    with pytest.raises(nn.CheckpointError):
        nn.read_checkpoint(blob[: len(blob) - 3])
    with pytest.raises(nn.CheckpointError):
        nn.read_checkpoint(b"XXXX" + blob[4:])
    with pytest.raises(nn.CheckpointError):
        nn.read_checkpoint(blob + b"\x00")


def test_checkpoint_kind_mismatch():
    blob = nn.write_checkpoint("cs", {}, {}, {})
    with pytest.raises(nn.CheckpointKindError):
        nn.read_checkpoint(blob, expect_kind="cc")
