"""Model forward contracts, memorization oracles, and checkpoint round-trips."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeshift import extraction as ex
from codeshift import nn, tasks

from test_nn import finite_diff_check

# Eight separable methods: every method has its own identifier lexicon so a
# correctly implemented model must be able to fit them.
CS_FIXTURE = """
class Fixtures {
    int getCount(int count) { return count; }
    int addPair(int addLeft, int addRight) { return addLeft + addRight; }
    int subPair(int subLeft, int subRight) { return subLeft - subRight; }
    boolean isEmpty(int size) { return size == 0; }
    int maxPair(int maxLeft, int maxRight) { if (maxLeft > maxRight) { return maxLeft; } return maxRight; }
    int doubleIt(int doubled) { return doubled * 2; }
    int negate(int flipped) { return 0 - flipped; }
    int firstOf(int[] items) { return items[0]; }
}
"""

CC_FIXTURE = "int a0 = b0; int a1 = b1; int a2 = b2; int a3 = b3; long c0 = d0;"


def cs_training_setup(config=None):
    tree = ex.parse_java_lite(ex.tokenize_java(CS_FIXTURE))
    samples = ex.extract_method_samples(tree, max_contexts=200, max_path_len=9)
    assert len(samples) == 8
    terminals, paths, labels = ex.build_cs_vocabs(samples, min_count=1)
    encoded = tasks.encode_split(samples, {"terminals": terminals, "paths": paths, "labels": labels}, id_prefix="fix")
    return encoded, terminals, paths, labels


def cc_fixture_samples():
    return ex.extract_cbow_samples(ex.tokenize_java(CC_FIXTURE), window=4)[:20]


def cc_fixture_windows(vocab):
    """The fixture's context windows as ids, one (2w,) row per sample, PAD at the file's edges."""
    return np.array([vocab.encode_all(s.context) for s in cc_fixture_samples()])


def pack_window_rows(sample_ids, labels, windows):
    """`tasks.pack_windows` over one id row per window."""
    ids = [i for window in windows for i in window]
    return tasks.pack_windows(sample_ids, labels, np.array(ids, dtype=np.int64), [len(window) for window in windows])


def cc_training_setup():
    samples = cc_fixture_samples()
    vocab = ex.build_cc_vocab(samples, min_count=1)
    encoded = tasks.encode_split(samples, {"tokens": vocab}, id_prefix="fix")
    assert len(encoded) == 20
    return encoded, vocab


def per_sample(flat, lengths):
    """A flat per-context array cut into one array per sample."""
    return np.split(flat, np.cumsum(lengths)[:-1])


def zeroed(model):
    for p in model.params().values():
        p.data[:] = 0.0
    return model


def test_zero_cs_model_uniform_probs():
    encoded, terminals, paths, labels = cs_training_setup()
    model = zeroed(tasks.PathAttentionModel(terminals, paths, labels, dim=16))
    out = tasks.infer(model, encoded[:1], keys=("probs", "weights"))
    assert np.allclose(out["probs"][0], 1.0 / len(labels))
    (weights,) = per_sample(out["weights"], encoded.lengths[:1])
    assert len(weights) == encoded.lengths[0] > 1
    assert abs(weights.sum() - 1.0) < 1e-6


def test_single_context_attention_weight_is_one():
    encoded, terminals, paths, labels = cs_training_setup()
    first_context = {name: [encoded.inputs[name][:1]] for name in ("left", "path", "right")}
    single = tasks.pack(["one"], encoded.labels[:1], {**first_context, "triple": [[0]]})
    model = tasks.PathAttentionModel(terminals, paths, labels, dim=16, seed=3)
    (weights,) = per_sample(tasks.infer(model, single, keys=("weights",))["weights"], single.lengths)
    assert np.allclose(weights, [1.0])


def test_attention_weights_sum_to_one_per_sample():
    encoded, terminals, paths, labels = cs_training_setup()
    model = tasks.PathAttentionModel(terminals, paths, labels, dim=16, seed=1)
    weights = per_sample(tasks.infer(model, encoded, keys=("weights",))["weights"], encoded.lengths)
    assert len(weights) == len(encoded)
    for w in weights:
        assert abs(w.sum() - 1.0) < 1e-5


def test_attention_weights_concatenate_over_batches_of_different_widths():
    encoded, terminals, paths, labels = cs_training_setup()
    widths = [encoded[i:i + 3].lengths.max() for i in range(0, len(encoded), 3)]
    assert len(set(widths)) > 1
    model = tasks.PathAttentionModel(terminals, paths, labels, dim=16, seed=1)
    weights = tasks.infer(model, encoded, batch_size=3, keys=("weights",))["weights"]
    assert weights.shape == (encoded.lengths.sum(),)
    one_batch = tasks.infer(model, encoded, keys=("weights",))["weights"]
    np.testing.assert_allclose(weights, one_batch, rtol=1e-6)


@pytest.mark.parametrize("task", ["cs", "cc"])
def test_forward_computes_probs_and_embed_mean_only_when_asked(task):
    if task == "cs":
        encoded, terminals, paths, labels = cs_training_setup()
        model = tasks.PathAttentionModel(terminals, paths, labels, dim=8, seed=2)
    else:
        encoded, vocab = cc_training_setup()
        model = tasks.MlpCompletionModel(vocab, dim=8, seed=2)
    batch = encoded[:4]
    assert model.forward_batch(batch, keys=("logits",)).keys().isdisjoint({"probs", "embed_mean"})
    assert "embed_mean" not in model.forward_batch(batch, keys=("probs",))
    out = model.forward_batch(batch, keys=("probs", "embed_mean"))
    assert np.array_equal(out["probs"].data, nn.softmax(out["logits"]).data)
    assert out["embed_mean"].data.shape == (4, 8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cs_embed_mean_equals_the_masked_mean_bitwise(dtype):
    encoded, terminals, paths, labels = cs_training_setup()
    model = tasks.PathAttentionModel(terminals, paths, labels, dim=16, seed=6, dtype=dtype)
    mask = np.arange(encoded.lengths.max()) < encoded.lengths[:, None]
    assert not mask.all()
    out = tasks.infer(model, encoded, keys=("embed_mean", "features"))
    features = out["features"]
    assert features.shape == (mask.sum(), 16)  # one row per real context
    padded = np.zeros(mask.shape + (16,), dtype=dtype)
    padded[mask] = features
    maskf = mask.astype(dtype)[..., None]
    expected = (padded * maskf).sum(axis=-2) * (1.0 / mask.sum(axis=-1)).astype(dtype)[:, None]
    assert out["embed_mean"].dtype == expected.dtype == dtype and out["embed_mean"].shape == expected.shape
    # the segment sums add the rows in another order than the padded sum
    tolerance = 1e-12 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(out["embed_mean"], expected, rtol=tolerance, atol=tolerance * np.abs(expected).max())


ragged_rows = st.lists(st.lists(st.integers(0, 50), max_size=5), max_size=8)


@st.composite
def splits_and_selections(draw):
    rows = draw(ragged_rows)
    n = len(rows)
    selection = draw(st.one_of(
        st.builds(slice, st.none() | st.integers(-n - 2, n + 2), st.none() | st.integers(-n - 2, n + 2),
                  st.none() | st.sampled_from([-2, -1, 1, 2, 3])),
        st.lists(st.integers(0, n - 1), max_size=12).map(lambda picks: np.array(picks, dtype=np.int64))
        if n else st.just(np.zeros(0, dtype=np.int64)),
    ))
    return rows, selection


def pack_rows(rows):
    """A two-input split over `rows`; the second input is the first shifted, so the columns differ."""
    return tasks.pack(
        [f"s{i}" for i in range(len(rows))], list(range(100, 100 + len(rows))),
        {"left": rows, "right": [[i + 1 for i in row] for row in rows]},
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(splits_and_selections())
def test_selected_rows_equal_the_split_packed_from_those_rows(case):
    rows, selection = case
    split = pack_rows(rows)
    assert split.lengths.tolist() == [len(row) for row in rows]
    assert split.inputs["left"].tolist() == [i for row in rows for i in row]
    picked = [rows[i] for i in np.arange(len(rows))[selection]]
    sub, expected = split[selection], pack_rows(picked)
    assert sub.sample_ids.tolist() == split.sample_ids[selection].tolist()
    assert sub.labels.tolist() == split.labels[selection].tolist()
    assert sub.lengths.dtype == np.int64 and sub.lengths.tolist() == expected.lengths.tolist()
    for name, ids in expected.inputs.items():
        assert sub.inputs[name].dtype == np.int64 and sub.inputs[name].tolist() == ids.tolist()
        if isinstance(selection, slice) and selection.step in (None, 1) and ids.size:
            assert np.shares_memory(sub.inputs[name], split.inputs[name])  # a slice's columns are views


def test_cs_triple_column_numbers_the_splits_distinct_triples_in_order():
    encoded, *_ = cs_training_setup()
    ids = encoded.inputs
    triples = list(zip(ids["left"].tolist(), ids["path"].tolist(), ids["right"].tolist()))
    distinct = sorted(set(triples))
    assert len(distinct) < len(triples)  # the fixture repeats triples
    assert ids["triple"].dtype == np.int64 and ids["triple"].tolist() == [distinct.index(t) for t in triples]
    batch = encoded[np.array([5, 1])].inputs  # a batch keeps the split's indices
    batch_triples = zip(batch["left"].tolist(), batch["path"].tolist(), batch["right"].tolist())
    assert batch["triple"].tolist() == [distinct.index(t) for t in batch_triples]


def test_pack_windows_rejects_sizes_that_do_not_cover_the_ids():
    with pytest.raises(ValueError, match="3 window ids"):
        tasks.pack_windows(["a", "b"], [2, 2], np.array([2, 3, 4]), [2, 2])


def test_pack_rejects_inputs_whose_rows_differ_in_length():
    with pytest.raises(ValueError, match="'path' rows differ"):
        tasks.pack(["a"], [5], {"left": [[2, 3]], "path": [[6]], "right": [[3, 2]]})


def test_with_params_replaces_only_the_named_arrays_without_initialising_new_ones(monkeypatch):
    encoded, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=8, seed=4)

    def fail(*args, **kwargs):
        raise AssertionError("with_params must not draw fresh parameters")

    monkeypatch.setattr(tasks, "_uniform_init", fail)
    w_out = np.zeros_like(model.params()["w_out"].data)
    twin = model.with_params({"w_out": w_out})
    assert type(twin) is type(model) and twin.tokens is model.tokens
    assert twin.params()["w_out"].data is w_out
    assert twin.params()["token_emb"] is model.params()["token_emb"]
    assert twin.params()["b_out"] is model.params()["b_out"]
    assert model.params()["w_out"].data.any()
    b_out = np.ones(len(vocab))
    again = twin.with_params({"b_out": b_out})
    assert again.params()["b_out"].data is b_out and again.params()["w_out"] is twin.params()["w_out"]
    assert again.params()["token_emb"] is model.params()["token_emb"]


def test_grad_factorized_cs_features():
    encoded, terminals, paths, labels = cs_training_setup()
    model = tasks.PathAttentionModel(terminals, paths, labels, dim=3, dtype=np.float64)
    p = model.params()
    rng = np.random.default_rng(5)
    p["b_comb"].data[:] = rng.standard_normal(3)
    batch = encoded[:2]
    # a fixed random cotangent, so no gradient cancels by symmetry
    weights = nn.Tensor(rng.standard_normal((int(batch.lengths.sum()), 3)), dtype=np.float64)
    params = [p[name] for name in model.feature_params]
    assert len(params) == 4
    finite_diff_check(lambda: nn.mean(nn.mul(model.features(batch), weights)), params)


TABLES = ("term_emb", "path_emb", "term_emb")  # the left, path and right blocks of w_comb


@pytest.mark.parametrize("dtype, tolerance", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_factorized_combiner_matches_the_concatenated_affine(dtype, tolerance):
    encoded, terminals, paths, labels = cs_training_setup()
    model = tasks.PathAttentionModel(terminals, paths, labels, dim=16, seed=3, dtype=dtype)
    p = model.params()
    p["b_comb"].data[:] = np.random.default_rng(4).uniform(-0.5, 0.5, 16)
    batch = encoded[:5]
    ids = batch.inputs
    assert len(set(batch.lengths.tolist())) > 1  # bags of different sizes
    combined = model.features(batch)
    d, w = 16, p["w_comb"]
    projected = [nn.linear(p[table], nn.row_slice(w, k * d, (k + 1) * d)) for k, table in enumerate(TABLES)]
    # the composed ops on the real contexts only, which the fused op equals bit for bit
    left, mid, right = (nn.embedding_lookup(t, ids[k]) for t, k in zip(projected, ("left", "path", "right")))
    pre = nn.add(nn.add(nn.add(left, mid), right), p["b_comb"]).data
    term, path = p["term_emb"].data, p["path_emb"].data
    cat = np.concatenate([term[ids["left"]], path[ids["path"]], term[ids["right"]]], axis=-1)
    expected = cat @ p["w_comb"].data + p["b_comb"].data
    assert pre.dtype == expected.dtype == dtype and pre.shape == expected.shape
    np.testing.assert_allclose(pre, expected, rtol=tolerance, atol=tolerance * np.abs(expected).max())
    assert combined.data.shape == (batch.lengths.sum(), 16)
    assert np.array_equal(combined.data, np.tanh(pre))


def tie_rows(dtype):
    big = np.finfo(dtype).max / 2
    x = dtype(1e-3)  # small enough that exp(-ulp) rounds to 1 and the probabilities tie
    below = np.nextafter(x, dtype(-np.inf))
    return np.array(
        [
            [0.1, 2.0, 2.0, -1.0],  # exact tie
            [below, x, 0.0, 0.0],  # 1-ulp gap after the top's first rival
            [x, below, 0.0, 0.0],
            [0.0, np.nextafter(dtype(1e4), dtype(0)), dtype(1e4), 1.0],  # 1-ulp gap at a large logit
            [3e38, -3e38, 0.0, 1.0],
            [-3e38, -3e38, -3e38, -3e38],
            [-3e38, 3e38, 3e38, 0.0],
            [big, -big, 1.0, 0.0],
            [1.0, np.nan, 2.0, 0.0],
            [np.nan, np.nan, np.nan, np.nan],
            [np.inf, 1.0, 0.0, 0.0],
            [1.0, -np.inf, 0.0, 0.5],
            [0.25, 0.5, 0.125, 0.0],  # a plain row
        ],
        dtype=dtype,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predicted_labels_match_the_softmax_argmax(dtype, monkeypatch):
    rng = np.random.default_rng(9)
    logits = np.concatenate([tie_rows(dtype), (rng.standard_normal((200, 4)) * 5).astype(dtype)])
    with np.errstate(all="ignore"):  # the huge and non-finite rows overflow in the softmax
        expected = nn.softmax(nn.Tensor(logits)).data.argmax(axis=-1)
        assert np.array_equal(tasks.predicted_labels(logits), expected)
    # the guard matters: on a 1-ulp gap and on a NaN row the softmax picks another index
    assert expected[1] == 0 and logits[1].argmax() == 1
    assert expected[8] == 0 and logits[8].argmax() == 1

    # finite logits take the test in their own dtype; it sends exactly the
    # rows the float64 test names near through the softmax
    sent = []
    softmax = nn.softmax
    monkeypatch.setattr(nn, "softmax", lambda x: sent.append(x.data.copy()) or softmax(x))
    rivals = threshold_rivals(dtype)
    cases = {
        "rivals just below and just above the threshold": rivals,
        "empty": np.zeros((0, 4), dtype=dtype),
        "no near tie": np.arange(40, dtype=dtype).reshape(10, 4) * dtype(0.5),
        "random": logits[len(tie_rows(dtype)):],
    }
    for name, case in cases.items():
        expected = softmax(nn.Tensor(case)).data.argmax(axis=-1)
        sent.clear()
        assert np.array_equal(tasks.predicted_labels(case), expected), name
        near = float64_near_rows(case)
        assert np.array_equal(np.concatenate(sent or [case[:0]]), case[near]), name
    assert float64_near_rows(rivals).tolist() == [False, True] * (len(rivals) // 2)

    # a NaN or +inf top passes nothing, so as many values pass as there are
    # rows, yet the 1-ulp gap beside it is still sent to the softmax
    for bad in (np.nan, np.inf):
        case = np.concatenate([np.full((1, 4), bad, dtype=dtype), tie_rows(dtype)[1:2]])
        with np.errstate(all="ignore"):
            labels = tasks.predicted_labels(case)
            assert np.array_equal(labels, softmax(nn.Tensor(case)).data.argmax(axis=-1))
        assert labels[1] == 0


def threshold_rivals(dtype):
    """Row pairs whose rival of the top sits on the float32 value just below, then just above, its threshold."""
    rows = []
    for top in (0.3, 1.0, -2.5, 123.456, -7e3, 1e4):
        top = np.float32(top)
        threshold = float(top) - 1e-5 * max(1.0, abs(float(top)))
        below = np.float32(threshold)
        if float(below) >= threshold:  # compared in float64: a Python float beside a float32 is cast to float32
            below = np.nextafter(below, np.float32(-np.inf))
        above = np.nextafter(below, np.float32(np.inf))
        assert float(below) < threshold < float(above)  # the threshold falls between two adjacent float32 values
        rows += [[below, top, top - 50, top - 60], [above, top, top - 50, top - 60]]
    return np.array(rows, dtype=dtype)


def float64_near_rows(logits):
    """The rows whose top has a rival within 1e-5 * max(1, |top|), tested in float64."""
    z = logits.astype(np.float64)
    top = z.max(axis=-1, keepdims=True)
    return (z >= top - 1e-5 * np.maximum(1.0, np.abs(top))).sum(axis=-1) > 1


def test_evaluate_accuracy_reads_the_logits(monkeypatch):
    encoded, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=8, seed=2)
    expected = tasks.infer(model, encoded)["probs"].argmax(axis=-1)
    expected = float(((expected == encoded.labels) & (encoded.labels != ex.UNK_ID)).mean() * 100.0)
    monkeypatch.setattr(nn, "softmax", lambda *a, **k: pytest.fail("softmax ran"))
    assert tasks.evaluate_accuracy(model, encoded) == expected


def test_empty_context_bag_raises():
    encoded, terminals, paths, labels = cs_training_setup()
    model = tasks.PathAttentionModel(terminals, paths, labels, dim=8)
    empty = tasks.pack(["none"], [2], {"left": [[]], "path": [[]], "right": [[]]})
    with pytest.raises(ValueError, match="empty context bag"):
        tasks.infer(model, empty)


def test_zero_cc_model_uniform_and_mean_idempotence():
    encoded, vocab = cc_training_setup()
    model = zeroed(tasks.MlpCompletionModel(vocab, dim=16))
    probs = tasks.infer(model, encoded[:1])["probs"][0]
    assert np.allclose(probs, 1.0 / len(vocab))

    model = tasks.MlpCompletionModel(vocab, dim=16, seed=9)
    tok = vocab.encode("a0")
    pad = ex.PAD_ID
    once = pack_window_rows(["s1"], [2], [[tok, pad, pad, pad]])
    twice = pack_window_rows(["s2"], [2], [[tok, tok, pad, pad]])
    p_once = tasks.infer(model, once)["probs"][0]
    p_twice = tasks.infer(model, twice)["probs"][0]
    assert np.allclose(p_once, p_twice, atol=1e-6)


def test_all_pad_context_raises():
    encoded, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=8)
    pad = ex.PAD_ID
    bad = pack_window_rows(["ok", "bad"], [2, 2], [[2, 3, pad, pad], np.full(4, pad)])
    assert bad.lengths.tolist() == [2, 0]  # an all-PAD window packs as an empty bag
    with pytest.raises(ValueError, match="all-PAD"):
        tasks.infer(model, bad)


def test_encode_split_drops_a_cc_window_without_a_real_slot():
    # a contexts file written before extraction skipped one-token files may hold such a window
    _, vocab = cc_training_setup()
    samples = cc_fixture_samples()[:3]
    samples.insert(1, ex.CbowSample(target="a0", context=[ex.PAD_TOKEN] * 8))
    encoded = tasks.encode_split(samples, {"tokens": vocab}, id_prefix="old")
    assert encoded.sample_ids.tolist() == ["old#0", "old#2", "old#3"]  # each window keeps its index
    kept = tasks.encode_split([samples[i] for i in (0, 2, 3)], {"tokens": vocab})
    assert encoded.labels.tolist() == kept.labels.tolist() and encoded.lengths.tolist() == kept.lengths.tolist()
    for name, column in kept.inputs.items():
        assert encoded.inputs[name].tobytes() == column.tobytes()


def test_cc_bag_rows_of_different_widths_average_their_own_windows():
    _, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=8, seed=4, dtype=np.float64)
    pad = ex.PAD_ID
    windows = [[2, 3, 2, 3, 4, pad], [2, 3], [pad, 5, 5, pad]]
    ragged = pack_window_rows(["w6", "w2", "w4"], [2, 2, 2], windows)
    table = model.params()["token_emb"].data
    expected = [table[[i for i in window if i != pad]].mean(axis=0) for window in windows]
    np.testing.assert_allclose(model.features(ragged).data, expected, rtol=1e-12, atol=1e-15)


def test_cc_context_ids_outside_the_table_raise():
    _, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=8)
    V, pad = len(vocab), ex.PAD_ID
    # the bag's scatter would write id -1 into column V - 1 without the check
    for rows in ([[2, V, 3, pad], [2, 3, pad, pad]], [[2, 3, 2, 3], [2, -1, pad, pad]]):
        batch = pack_window_rows(["r0", "r1"], [2, 2], rows)
        with pytest.raises(IndexError, match="out of range"):
            model.features(batch)


def cc_bag_batch(dtype, shape=(128, 8, 88, 48), seed=21):
    """A seeded CC model, batch and (B, d) cotangent at the CC training shape (B, 2w, V, d).

    Windows repeat tokens and hold PAD slots; no window's first slot is PAD.
    """
    B, width, V, d = shape
    rng = np.random.default_rng(seed)
    vocab = ex.Vocabulary.from_tokens([ex.UNK_TOKEN, ex.PAD_TOKEN, *(f"t{i}" for i in range(V - 2))])
    model = tasks.MlpCompletionModel(vocab, dim=d, seed=seed, dtype=dtype)
    context = rng.integers(0, V, size=(B, width))
    context[rng.random((B, width)) < 0.2] = ex.PAD_ID
    context[:, 0] = rng.integers(2, V, size=B)  # no row is all PAD
    batch = pack_window_rows([f"s{i}" for i in range(B)], rng.integers(0, V, size=B), context)
    return model, batch, rng.standard_normal((B, d)).astype(dtype)


def bincount_bag(windows: np.ndarray, n_tokens: int, dtype) -> np.ndarray:
    """The (B, V) bag of token shares built per batch, as `features` did before windows were packed as bags."""
    real = windows != ex.PAD_ID
    counts = real.sum(axis=-1)
    slots = (np.arange(len(windows))[:, None] * n_tokens + windows)[real]
    bag = np.bincount(slots, minlength=len(windows) * n_tokens).reshape(len(windows), n_tokens)
    return (bag / counts[:, None]).astype(dtype)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_tokens=st.integers(3, 300), dtype=st.sampled_from([np.float32, np.float64]))
def test_cc_share_bag_equals_the_bincount_bag_bit_for_bit(data, n_tokens, dtype):
    # windows of several widths, with PAD slots and repeated tokens; each is
    # padded to the widest with PAD, which the per-batch bag does not count
    slot = st.one_of(st.just(ex.PAD_ID), st.integers(0, n_tokens - 1), st.sampled_from([ex.UNK_ID, n_tokens - 1]))
    window = st.integers(1, 5).flatmap(lambda w: st.lists(slot, min_size=2 * w, max_size=2 * w))
    rows = data.draw(st.lists(window.filter(lambda row: set(row) != {ex.PAD_ID}), min_size=1, max_size=12))
    width = max(map(len, rows))
    windows = np.array([row + [ex.PAD_ID] * (width - len(row)) for row in rows])
    vocab = ex.Vocabulary.from_tokens([ex.UNK_TOKEN, ex.PAD_TOKEN, *(f"t{i}" for i in range(n_tokens - 2))])
    model = tasks.MlpCompletionModel(vocab, dim=3, dtype=dtype)
    batch = pack_window_rows([f"s{i}" for i in range(len(rows))], [2] * len(rows), rows)
    assert batch.inputs["share"].dtype == np.float64
    bag = model.features(batch)._parents[0].data  # the tape: bag @ token_emb
    expected = bincount_bag(windows, n_tokens, dtype)
    assert bag.dtype == expected.dtype and np.array_equal(tasks._bits(bag), tasks._bits(expected))


@pytest.mark.parametrize("dtype, tolerance", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_cc_bag_mean_equals_the_masked_mean(dtype, tolerance):
    encoded, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=16, seed=5, dtype=dtype)
    tok, other, pad = vocab.encode("a0"), vocab.encode("b0"), ex.PAD_ID
    windows = np.array([[tok, other, tok, tok], [pad, other, pad, tok]])
    repeated = pack_window_rows(["rep", "pad"], [2, 2], windows)
    table = model.params()["token_emb"].data
    fixture = cc_fixture_windows(vocab)
    for ids, batch in ((windows, repeated), (fixture, encoded)):
        real = ids != pad
        expected = np.where(real[..., None], table[ids], 0).sum(1) / real.sum(1)[:, None]
        got = model.features(batch).data
        assert got.dtype == dtype and got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=tolerance, atol=tolerance * np.abs(expected).max())
    assert (fixture == pad).any()  # the fixture's windows hold PAD too


def test_grad_cc_bag_features():
    _, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=3, seed=6, dtype=np.float64)
    tok, pad = vocab.encode("a0"), ex.PAD_ID
    batch = pack_window_rows(["rep", "pad"], [2, 2], [[tok, tok, 2, 3], [pad, 4, pad, tok]])
    # a fixed random cotangent, so no gradient cancels by symmetry
    weights = nn.Tensor(np.random.default_rng(7).standard_normal((2, 3)), dtype=np.float64)
    params = [model.params()[name] for name in model.feature_params]
    assert len(params) == 1
    finite_diff_check(lambda: nn.mean(nn.mul(model.features(batch), weights)), params)


def test_cc_bag_features_and_gradient_bytes_do_not_depend_on_the_blas_thread_count():
    # the thread count is read when numpy loads, so each count needs its own interpreter
    src = str(Path(tasks.__file__).resolve().parents[1])
    probe = (
        "import hashlib, numpy as np, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from codeshift import nn\n"
        "from test_tasks import cc_bag_batch\n"
        "model, batch, g = cc_bag_batch(np.float32)\n"
        "features = model.features(batch)\n"
        "nn.backward(features, seed=g)\n"
        "for out in (features.data, model.params()['token_emb'].grad):\n"
        "    print(hashlib.sha256(out.tobytes()).hexdigest())\n"
    )
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout.split()
        for threads in ("1", "2")
    }
    assert len(digests["1"]) == 2 and digests["1"] == digests["2"]


def test_cs_memorization_oracle():
    # 8 separable samples, full 300-epoch run at the default config: a
    # correct implementation must fit them exactly.
    encoded, terminals, paths, labels = cs_training_setup()
    config = tasks.TrainConfig(seed=3)
    result = tasks.train_cs(encoded, terminals, paths, labels, config)
    assert tasks.evaluate_accuracy(result.model, encoded) == 100.0
    assert len(result.history) == 300
    assert result.history[-1]["train_acc"] == 100.0


def test_cc_memorization_oracle():
    encoded, vocab = cc_training_setup()
    config = tasks.TrainConfig(seed=3)
    result = tasks.train_cc(encoded, vocab, config)
    assert tasks.evaluate_accuracy(result.model, encoded) == 100.0


def test_untrained_model_near_chance_on_balanced_data():
    encoded, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=32, seed=123)
    rng = np.random.default_rng(0)
    n_classes = len(vocab)
    balanced = pack_window_rows(
        [f"b{i}" for i in range(400)],
        [i % n_classes for i in range(400)],
        [rng.integers(2, n_classes, size=8) for i in range(400)],
    )
    acc = tasks.evaluate_accuracy(model, balanced)
    assert acc < 3 * 100.0 / n_classes  # chance is 100/C percent


def test_train_empty_split_errors():
    encoded, vocab = cc_training_setup()
    with pytest.raises(ValueError):
        tasks.train_cc(encoded[:0], vocab, tasks.TrainConfig(epochs=1))


def test_training_deterministic_bitwise():
    encoded, vocab = cc_training_setup()
    config = tasks.TrainConfig(epochs=5, seed=11, embedding_dim=16)
    first = tasks.train_cc(encoded, vocab, config)
    second = tasks.train_cc(encoded, vocab, config)
    for name in first.model.params():
        assert np.array_equal(first.model.params()[name].data, second.model.params()[name].data)
    assert first.history == second.history


def test_unk_true_label_counts_as_failure():
    encoded, vocab = cc_training_setup()
    model = tasks.MlpCompletionModel(vocab, dim=8, seed=0)
    unk_sample = pack_window_rows(["u"], [ex.UNK_ID], cc_fixture_windows(vocab)[:1])
    # even a model that predicts UNK gets no credit for it
    for p in model.params().values():
        p.data[:] = 0.0
    model.params()["b_out"].data[ex.UNK_ID] = 10.0
    assert tasks.evaluate_accuracy(model, unk_sample) == 0.0


def test_epoch_log_csv(tmp_path):
    history = [
        {"epoch": 1, "train_acc": 50.0, "val_acc": 40.0, "loss": 1.5},
        {"epoch": 2, "train_acc": 75.0, "val_acc": None, "loss": 0.5},
        {"epoch": 3, "train_acc": None, "val_acc": 45.0, "loss": 0.25},
    ]
    path = tmp_path / "log.csv"
    tasks.write_epoch_log(history, path, config_hash="abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc123"
    assert lines[1] == "epoch,train_acc,val_acc,loss"
    assert lines[2] == "1,50.0,40.0,1.5"
    assert lines[3] == "2,75.0,,0.5"
    assert lines[4] == "3,,45.0,0.25"


@pytest.mark.parametrize("task", ["cs", "cc"])
def test_train_acc_is_measured_at_the_final_epoch_only(task):
    config = tasks.TrainConfig(epochs=4, seed=5, embedding_dim=16, batch_size=8)
    if task == "cs":
        encoded, terminals, paths, labels = cs_training_setup()
        train, val = encoded[:6], encoded[6:]
        result = tasks.train_cs(train, terminals, paths, labels, config, val_samples=val)
    else:
        encoded, vocab = cc_training_setup()
        train, val = encoded[:15], encoded[15:]
        result = tasks.train_cc(train, vocab, config, val_samples=val)
    assert [row["epoch"] for row in result.history] == [1, 2, 3, 4]
    assert all(row["train_acc"] is None for row in result.history[:-1])
    assert result.history[-1]["train_acc"] == tasks.evaluate_accuracy(result.model, train, config.batch_size)
    assert all(isinstance(row["val_acc"], float) for row in result.history)
    assert result.history[-1]["val_acc"] == tasks.evaluate_accuracy(result.model, val, config.batch_size)


@pytest.mark.parametrize("with_val", [True, False])
def test_training_runs_one_train_split_accuracy_pass(monkeypatch, with_val):
    # one eval pass over the training split in all, plus one validation pass per epoch
    encoded, vocab = cc_training_setup()
    calls = []
    real = tasks.evaluate_accuracy

    def counting(model, samples, batch_size=512):
        calls.append(len(samples))
        return real(model, samples, batch_size)

    monkeypatch.setattr(tasks, "evaluate_accuracy", counting)
    config = tasks.TrainConfig(epochs=5, seed=5, embedding_dim=16)
    val = encoded[15:] if with_val else None
    tasks.train_cc(encoded[:15], vocab, config, val_samples=val)
    assert calls.count(15) == 1
    assert len(calls) == (config.epochs + 1 if with_val else 1)


def test_checkpoint_roundtrip_trained_model():
    encoded, vocab = cc_training_setup()
    config = tasks.TrainConfig(epochs=3, seed=2, embedding_dim=16)
    result = tasks.train_cc(encoded, vocab, config)
    blob = tasks.save_checkpoint(result.model, train_config=dataclasses.asdict(config))
    loaded = tasks.load_checkpoint(blob)
    assert loaded.kind == tasks.CC
    for name, p in result.model.params().items():
        assert np.array_equal(loaded.params()[name].data, p.data)
    assert loaded.tokens.tokens == vocab.tokens
    assert loaded.config_echo["train"]["seed"] == 2
    before = tasks.infer(result.model, encoded)["probs"]
    after = tasks.infer(loaded, encoded)["probs"]
    assert np.array_equal(before, after)


def test_checkpoint_kind_mismatch():
    encoded, terminals, paths, labels = cs_training_setup()
    model = tasks.PathAttentionModel(terminals, paths, labels, dim=8)
    blob = tasks.save_checkpoint(model)
    with pytest.raises(nn.CheckpointKindError):
        tasks.load_checkpoint(blob, expect_kind="cc")


def small_checkpoints():
    vocab = ex.Vocabulary.from_tokens([ex.UNK_TOKEN, ex.PAD_TOKEN, "a", "b"])
    return {
        "cc": tasks.save_checkpoint(tasks.MlpCompletionModel(vocab, dim=4)),
        "cs": tasks.save_checkpoint(tasks.PathAttentionModel(vocab, vocab, vocab, dim=2)),
    }


@pytest.mark.parametrize("kind", ["cc", "cs"])
def test_damaged_checkpoint_raises_only_checkpoint_error(kind):
    """Every single-bit flip and every truncation either loads or raises CheckpointError."""
    blob = small_checkpoints()[kind]
    damaged = [blob[:end] for end in range(len(blob))]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.append(bytes(flipped))
    rejected = 0
    for data in damaged:
        try:
            model = tasks.load_checkpoint(data)
        except nn.CheckpointError:
            rejected += 1
            continue
        for p in model.params().values():
            assert np.isfinite(p.data).all()
    assert rejected >= len(blob)  # at least every truncation
