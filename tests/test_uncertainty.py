"""Estimator contracts: all five methods, the registry, and score files."""

import copy
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codeshift import extraction as ex
from codeshift import tasks
from codeshift import uncertainty as uq

from test_tasks import pack_window_rows

CC_SOURCE = "int a0 = b0; int a1 = b1; int a2 = b2; int a3 = b3; long c0 = d0;"
CS_SOURCE = """
class Pair {
    int addPair(int addLeft, int addRight) { return addLeft + addRight; }
    int subPair(int subLeft, int subRight) { return subLeft - subRight; }
    int maxPair(int maxLeft, int maxRight) { if (maxLeft > maxRight) { return maxLeft; } return maxRight; }
    boolean isEmpty(int size) { return size == 0; }
}
"""


@pytest.fixture(scope="module")
def cc_setup():
    tokens = ex.tokenize_java(CC_SOURCE)
    samples = ex.extract_cbow_samples(tokens, window=4)
    vocab = ex.build_cc_vocab(samples, min_count=1)
    encoded = tasks.encode_split(samples, {"tokens": vocab}, id_prefix="cc")
    config = tasks.TrainConfig(epochs=60, seed=5, embedding_dim=24)
    model = tasks.train_cc(encoded, vocab, config).model
    return model, encoded, vocab


@pytest.fixture(scope="module")
def cs_setup():
    tree = ex.parse_java_lite(ex.tokenize_java(CS_SOURCE))
    samples = ex.extract_method_samples(tree)
    terminals, paths, labels = ex.build_cs_vocabs(samples)
    encoded = tasks.encode_split(samples, {"terminals": terminals, "paths": paths, "labels": labels}, id_prefix="cs")
    config = tasks.TrainConfig(epochs=60, seed=5, embedding_dim=24)
    model = tasks.train_cs(encoded, terminals, paths, labels, config).model
    return model, encoded


def forced_prob_model(probs):
    """CC model whose output distribution is exactly `probs` for any input."""
    vocab = ex.Vocabulary.from_tokens(
        [ex.UNK_TOKEN, ex.PAD_TOKEN] + [f"t{i}" for i in range(len(probs) - 2)]
    )
    model = tasks.MlpCompletionModel(vocab, dim=4)
    for p in model.params().values():
        p.data[:] = 0.0
    model.params()["b_out"].data[:] = np.log(np.asarray(probs, dtype=np.float64))
    return model, vocab


def sample_for(vocab, target="t0"):
    return pack_window_rows(["s0"], [vocab.encode(target)], [[2, 2, ex.PAD_ID, ex.PAD_ID]])


def copied(mutant, model):
    """The parameters whose arrays `mutant` does not share with `model`."""
    return {name for name, p in model.params().items() if mutant.params()[name].data is not p.data}


def assert_same_scores(a, b):
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# -- vanilla ---------------------------------------------------------------


def test_vanilla_is_max_softmax():
    model, vocab = forced_prob_model([0.7, 0.2, 0.1])
    sample = sample_for(vocab)
    (rec,) = uq.ESTIMATORS["vanilla"].tables(model, None, sample, uq.base_outputs(model, sample))
    assert abs(rec.confidence[0] - 0.7) < 1e-6
    assert rec.predicted[0] == 0
    assert rec.method == "vanilla" and rec.variant == ""


def test_vanilla_uniform_and_purity():
    model, vocab = forced_prob_model([0.25, 0.25, 0.25, 0.25])
    a = uq.score_vanilla(uq.base_outputs(model, sample_for(vocab))["probs"])
    b = uq.score_vanilla(uq.base_outputs(model, sample_for(vocab))["probs"])
    assert abs(a[1][0] - 0.25) < 1e-6
    assert_same_scores(a, b)


# -- temperature scaling ------------------------------------------------------


def test_temperature_one_equals_vanilla(cc_setup):
    model, encoded, _ = cc_setup
    base = uq.base_outputs(model, encoded)
    _, v_conf, v_pred = uq.score_vanilla(base["probs"])
    _, t_conf, t_pred = uq.score_temp_scale(base["logits"], 1.0)
    assert np.array_equal(v_pred, t_pred)
    assert np.all(np.abs(v_conf - t_conf) < 1e-6)


def test_large_temperature_flattens():
    model, vocab = forced_prob_model([0.88, 0.04, 0.04, 0.04])
    _, conf, _ = uq.score_temp_scale(uq.base_outputs(model, sample_for(vocab))["logits"], 1e6)
    assert abs(conf[0] - 0.25) < 1e-3


def test_fit_temperature_improves_nll(cc_setup):
    model, encoded, _ = cc_setup
    logits = tasks.infer(model, encoded, keys=("logits",))["logits"].astype(np.float64)
    labels = encoded.labels
    t_star = uq.fit_temperature(uq.base_outputs(model, encoded)["logits"], labels)
    assert t_star > 0
    assert uq._nll_at_temperature(logits, labels, t_star) <= uq._nll_at_temperature(logits, labels, 1.0) + 1e-9


def test_temp_scaling_preserves_argmax(cc_setup):
    model, encoded, _ = cc_setup
    base = uq.base_outputs(model, encoded)
    t_star = uq.fit_temperature(base["logits"], encoded.labels)
    assert np.array_equal(uq.score_vanilla(base["probs"])[2], uq.score_temp_scale(base["logits"], t_star)[2])


def test_fit_temperature_degenerate_clamps_and_warns():
    model, vocab = forced_prob_model([0.4, 0.3, 0.2, 0.1])
    # single-class validation, all labeled with the argmax class: the
    # optimum runs toward T -> 0 and must be clamped
    val = pack_window_rows([f"v{i}" for i in range(8)], [0] * 8, [[2, 3, ex.PAD_ID, ex.PAD_ID]] * 8)
    with pytest.warns(RuntimeWarning):
        t = uq.fit_temperature(uq.base_outputs(model, val)["logits"], val.labels)
    assert uq.TEMPERATURE_BOUNDS[0] <= t <= uq.TEMPERATURE_BOUNDS[1]


def test_fit_temperature_empty_validation():
    with pytest.raises(uq.EstimatorStateError):
        uq.fit_temperature(np.zeros((0, 2), dtype=np.float32), np.zeros(0, dtype=np.int64))


def nll_slope_in_inverse_temperature(logits, labels, temperature):
    """dNLL/dbeta of softmax(beta * logits) at beta = 1/temperature: mean(E_p[z] - z_label)."""
    z = np.asarray(logits, dtype=np.float64)
    scaled = z / temperature
    p = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return float(((p * z).sum(axis=-1) - z[np.arange(len(labels)), labels]).mean())


# rows of well-spread logits with labels drawn from softmax(logits / 2), and
# float32 rows whose logit gaps of 100 saturate the softmax, one of them wrong
SPREAD_RNG = np.random.default_rng(7)
SPREAD_LOGITS = SPREAD_RNG.normal(0.0, 3.0, size=(400, 6)).astype(np.float32)
SPREAD_LABELS = np.array([
    SPREAD_RNG.choice(6, p=np.exp(row / 2) / np.exp(row / 2).sum()) for row in SPREAD_LOGITS.astype(np.float64)
])
WIDE_GAP_LOGITS = np.float32(100.0) * np.eye(3, dtype=np.float32)[[0, 1, 2, 0]]
WIDE_GAP_LABELS = np.array([0, 1, 2, 1])


@pytest.mark.parametrize("logits, labels", [(SPREAD_LOGITS, SPREAD_LABELS), (WIDE_GAP_LOGITS, WIDE_GAP_LABELS)])
def test_fitted_temperature_is_a_stationary_point(logits, labels):
    t_star = uq.fit_temperature(logits, labels)
    lo, hi = uq.TEMPERATURE_BOUNDS
    assert lo < t_star < hi  # unclamped, so the NLL's slope must vanish there
    assert abs(nll_slope_in_inverse_temperature(logits, labels, t_star)) < 1e-9


def test_fit_temperature_stops_once_a_step_leaves_beta_unchanged(monkeypatch):
    # near this optimum the gradient's rounding noise keeps proposing steps that the
    # halving shrinks below beta's last bit; the loop used to repeat that no-op step
    # until its 100 steps ran out, 1621 NLL evaluations in all
    rng = np.random.default_rng(0)
    logits = (rng.standard_normal((500, 50)) * 3).astype(np.float32)
    labels = np.where(rng.random(500) < 0.7, logits.argmax(1), rng.integers(0, 50, 500))
    betas, terms = [], uq._nll_newton_terms
    monkeypatch.setattr(uq, "_nll_newton_terms", lambda z, z_true, beta: betas.append(beta) or terms(z, z_true, beta))
    t_star = uq.fit_temperature(logits, labels)
    assert len(betas) < 100
    assert betas[-1] in betas[:-1]  # the last trial was the no-op step, at a beta already reached
    assert abs(nll_slope_in_inverse_temperature(logits, labels, t_star)) < 1e-9


SATURATED = {
    # logit gaps above 87 underflow a float32 softmax
    "gap_above_87": (np.array([[120.0, 0.0, -5.0], [0.0, 95.0, 1.0], [3.0, 0.0, 200.0]], dtype=np.float32), [0, 0, 2]),
    # the largest finite float32 magnitudes
    "extreme": (np.array([[3e38, -3e38, 0.0], [-3e38, 3e38, 0.0], [0.0, -3e38, 3e38]], dtype=np.float32), [0, 0, 2]),
    "extreme_all_right": (np.array([[3e38, -3e38, 0.0], [0.0, -3e38, 3e38]], dtype=np.float32), [0, 2]),
}


@pytest.mark.parametrize("case", sorted(SATURATED))
def test_temperature_scaling_of_saturated_float32_logits(case):
    logits, labels = SATURATED[case]
    with np.errstate(over="raise", invalid="raise", divide="raise"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the fit may clamp T
        t_star = uq.fit_temperature(logits, np.array(labels))
        assert np.isfinite(t_star)
        assert uq.TEMPERATURE_BOUNDS[0] <= t_star <= uq.TEMPERATURE_BOUNDS[1]
        for temperature in (t_star, *uq.TEMPERATURE_BOUNDS, 1.0):
            raw, conf, pred = uq.score_temp_scale(logits, temperature)
            assert np.all(np.isfinite(raw)) and np.all(np.isfinite(conf))
            assert np.all((conf >= 0.0) & (conf <= 1.0))
            assert np.array_equal(pred, logits.argmax(axis=-1))


SATURATED_B_OUT = {
    # logit gaps above 87 underflow a float32 softmax
    "gap_above_87": [-5.0, -10.0, 120.0, 0.0, 30.0, 95.0],
    # the largest finite float32 magnitudes, with a tie at the top
    "extreme": [-3e38, -3e38, 3e38, 0.0, -3e38, 3e38],
}


@pytest.mark.parametrize("case", sorted(SATURATED_B_OUT))
@pytest.mark.parametrize("method", ["vanilla", "mc_dropout", "mmutant", "dissector"])
def test_estimators_on_saturated_float32_logits(case, method):
    # every weight is zero, so each sample's logits are exactly b_out
    vocab = ex.Vocabulary.from_tokens([ex.UNK_TOKEN, ex.PAD_TOKEN] + [f"t{i}" for i in range(4)])
    model = tasks.MlpCompletionModel(vocab, dim=4)
    for p in model.params().values():
        p.data[:] = 0.0
    model.params()["b_out"].data[:] = np.array(SATURATED_B_OUT[case], dtype=np.float32)
    samples = pack_window_rows(
        [f"s{i}" for i in range(8)], [2 + i % 4 for i in range(8)],
        [[2 + i % 4, 3, ex.PAD_ID, ex.PAD_ID] for i in range(8)],
    )
    # a mutation degree of 0.5 reaches b_out, so the mutants' logits saturate too
    settings = {"seed": 1, "mc_passes": 3, "mc_dropout_p": 0.5, "mutation_degree": 0.5, "mutant_count": 5,
                "probe_epochs": 3, "probe_learning_rate": 0.001}
    estimator = uq.ESTIMATORS[method]
    with np.errstate(over="ignore", invalid="ignore"):  # float32 overflow is the case under test
        base = uq.base_outputs(model, samples)
        state = estimator.fit(model, samples, samples, base, settings)
        for table in estimator.tables(model, state, samples, base, "test1"):  # rejects conf outside [0, 1]
            assert not np.isnan(table.confidence).any()
            assert np.all((table.confidence >= 0.0) & (table.confidence <= 1.0))
            assert np.array_equal(table.predicted, np.full(8, 2))  # the first largest logit


# -- MC-Dropout ---------------------------------------------------------------


def test_mc_dropout_p_zero_is_vanilla_bitwise(cc_setup):
    model, encoded, _ = cc_setup
    _, v_conf, v_pred = uq.score_vanilla(uq.base_outputs(model, encoded)["probs"])
    for passes in (1, 7):
        _, m_conf, m_pred = uq.score_mc_dropout(model, encoded, passes=passes, p=0.0, seed=3)
        assert np.array_equal(v_conf, m_conf)  # bitwise
        assert np.array_equal(v_pred, m_pred)


@pytest.mark.parametrize("setup", ["cc_setup", "cs_setup"])
def test_mc_dropout_leaves_the_scored_model_untouched(request, setup):
    model, encoded = setup_of(request, setup)
    rate = model.dropout_p
    params = dict(model.params())
    arrays = {name: (p.data, p.data.copy()) for name, p in params.items()}
    features = uq.base_outputs(model, encoded)["features"]
    for with_features in (None, features):
        uq.score_mc_dropout(model, encoded, passes=2, p=0.3, seed=4, features=with_features)
    assert model.dropout_p == rate
    assert model.params() == params  # the same Tensor objects
    for name, (data, before) in arrays.items():
        assert model.params()[name].data is data
        assert np.array_equal(data, before)


def test_mc_dropout_deterministic_per_seed(cc_setup):
    model, encoded, _ = cc_setup
    one = uq.score_mc_dropout(model, encoded, passes=1, p=0.5, seed=9)
    two = uq.score_mc_dropout(model, encoded, passes=1, p=0.5, seed=9)
    assert_same_scores(one, two)


def test_mc_dropout_converges_with_passes(cs_setup):
    model, encoded = cs_setup
    _, a, _ = uq.score_mc_dropout(model, encoded[:6], passes=100, p=0.5, seed=1)
    _, b, _ = uq.score_mc_dropout(model, encoded[:6], passes=200, p=0.5, seed=2)
    assert np.all(np.abs(a - b) < 0.05)


def test_cs_mc_dropout_of_a_sample_does_not_depend_on_wider_bags_after_it(cs_setup):
    # one pass draws one keep factor per real context row, in row order, so
    # appending the widest bag leaves the earlier samples' draws unchanged
    model, encoded = cs_setup
    widest = int(np.argmax(encoded.lengths))
    prefix = [row for row in range(len(encoded)) if row != widest]
    assert encoded.lengths[widest] > encoded.lengths[prefix].max()  # the batch widens
    alone = uq.score_mc_dropout(model, encoded[np.array(prefix)], passes=1, p=0.5, seed=6)
    appended = uq.score_mc_dropout(model, encoded[np.array([*prefix, widest])], passes=1, p=0.5, seed=6)
    assert_same_scores(alone, [scores[:len(prefix)] for scores in appended])


def test_mc_dropout_zero_passes_rejected(cc_setup):
    model, encoded, _ = cc_setup
    with pytest.raises(ValueError):
        uq.score_mc_dropout(model, encoded, passes=0)


# -- mMutant --------------------------------------------------------------------


def test_mmutant_degree_zero_lcr_zero(cc_setup):
    model, encoded, _ = cc_setup
    ensembles = {op: uq.build_mutant_ensemble(model, op, degree=0.0, count=5, seed=1) for op in uq.MUTATION_OPERATORS}
    tables = uq.ESTIMATORS["mmutant"].tables(model, ensembles, encoded[:10], uq.base_outputs(model, encoded[:10]))
    for op, rec in zip(uq.MUTATION_OPERATORS, tables, strict=True):
        assert np.all(rec.raw == 0.0)
        assert np.all(rec.confidence == 1.0)
        assert rec.variant == op


def test_mmutant_tied_logits_flip_under_gf():
    # all four logits exactly tied, but the output matrix has nonzero std:
    # Gaussian fuzzing breaks the tie and moves the argmax for most mutants
    model, vocab = forced_prob_model([0.25] * 4)
    rng = np.random.default_rng(3)
    rows = rng.normal(1.0, 0.5, size=(model.dim, 1)).astype(np.float32)
    model.params()["w_out"].data[:] = np.repeat(rows, model.n_classes(), axis=1)
    model.params()["token_emb"].data[2:, :] = 1.0
    ensemble = uq.build_mutant_ensemble(model, "GF", degree=1.0, count=40, seed=7)
    sample = sample_for(vocab)
    lcr, _, _ = uq.score_mmutant(ensemble, sample, uq.base_outputs(model, sample)["probs"].argmax(axis=-1))
    assert lcr[0] > 0.5


def test_nai_flips_preactivation_sign_exactly(cc_setup):
    model, encoded, _ = cc_setup
    mutant = uq.mutate_model(model, "NAI", degree=1.0, seed=4)
    base = tasks.infer(model, encoded[:8], keys=("logits",))["logits"]
    flipped = tasks.infer(mutant, encoded[:8], keys=("logits",))["logits"]
    assert np.array_equal(flipped, -base)


def test_ns_small_layer_skipped():
    model, _ = forced_prob_model([0.5, 0.5])
    # degree selects < 2 of the 4 output neurons: the layer must be skipped
    mutant = uq.mutate_model(model, "NS", degree=0.25, seed=0)
    assert copied(mutant, model) == set()
    assert mutant.params()["w_out"] is model.params()["w_out"]
    assert mutant.params()["b_out"] is model.params()["b_out"]


def test_ws_shuffles_only_selected_columns(cc_setup):
    model, _, _ = cc_setup
    mutant = uq.mutate_model(model, "WS", degree=0.3, seed=11)
    w_base = model.params()["w_out"].data
    w_mut = mutant.params()["w_out"].data
    changed = [j for j in range(w_base.shape[1]) if not np.array_equal(w_base[:, j], w_mut[:, j])]
    assert changed  # some columns shuffled
    for j in changed:  # a shuffle preserves the multiset of incoming weights
        assert np.array_equal(np.sort(w_base[:, j]), np.sort(w_mut[:, j]))


def test_mutation_deterministic(cc_setup):
    model, encoded, _ = cc_setup
    e1 = uq.build_mutant_ensemble(model, "GF", degree=0.05, count=6, seed=21)
    e2 = uq.build_mutant_ensemble(model, "GF", degree=0.05, count=6, seed=21)
    base_preds = uq.base_outputs(model, encoded[:12])["probs"].argmax(axis=-1)
    r1 = uq.score_mmutant(e1, encoded[:12], base_preds)
    r2 = uq.score_mmutant(e2, encoded[:12], base_preds)
    assert_same_scores(r1, r2)


def test_mutation_does_not_touch_base(cc_setup):
    model, _, _ = cc_setup
    before = {k: v.data.copy() for k, v in model.params().items()}
    uq.build_mutant_ensemble(model, "GF", degree=0.5, count=3, seed=2)
    uq.build_mutant_ensemble(model, "WS", degree=0.5, count=3, seed=2)
    uq.build_mutant_ensemble(model, "NS", degree=0.5, count=3, seed=2)
    uq.build_mutant_ensemble(model, "NAI", degree=1.0, count=1, seed=2)
    for k, v in model.params().items():
        assert np.array_equal(before[k], v.data)


# -- resuming at the head from the base forward's features -------------------------

RESUME_BATCH = 3  # CS fixture widths 15/15/28/6: batches of width 28 and 6


def setup_of(request, name):
    model, encoded = request.getfixturevalue(name)[:2]
    return model, encoded


def at_rate(model, p):
    """A shallow copy of `model` whose forward drops out at rate `p` when given a generator."""
    twin = copy.copy(model)
    twin.dropout_p = p
    return twin


@pytest.mark.parametrize("setup", ["cc_setup", "cs_setup"])
def test_mutants_share_feature_arrays_unless_gf(request, setup):
    model, _ = setup_of(request, setup)
    affine = {name for layer in model.affine_layers for name in layer}
    # WS/NS/NAI change affine layers only. CS's combiner is one, so its
    # WS/NS/NAI mutants replace feature params, yet share the embedding
    # tables: they resume with their changed feature columns recomputed
    # (test_column_resumed_cs_mutants_match_the_full_forward_bitwise)
    resumable = affine.isdisjoint(model.feature_params)
    assert resumable == (model.kind == tasks.CC)
    for op in uq.MUTATION_OPERATORS:
        mutant = uq.mutate_model(model, op, degree=0.5, seed=3)
        replaced = copied(mutant, model)
        assert (replaced == set(model.params())) if op == "GF" else (replaced <= affine)
        for name in model.feature_params:
            shared = np.shares_memory(mutant.params()[name].data, model.params()[name].data)
            assert shared == (name not in replaced), (op, name)
            if name not in affine:  # the embedding tables
                assert shared == (op != "GF"), (op, name)
        assert replaced.isdisjoint(model.feature_params) == (op != "GF" and resumable)
        for name in set(model.params()) - replaced:
            assert mutant.params()[name] is model.params()[name]


@pytest.mark.parametrize("setup", ["cc_setup", "cs_setup"])
@pytest.mark.parametrize("op", ["WS", "NS", "NAI"])
def test_resumed_mutant_matches_full_forward_bitwise(request, setup, op):
    model, encoded = setup_of(request, setup)
    features = tasks.infer(model, encoded, batch_size=RESUME_BATCH, keys=("features",))["features"]
    assert len(encoded) > RESUME_BATCH  # the split spans several batches
    for seed in range(3):
        mutant = uq.mutate_model(model, op, degree=0.5, seed=seed)
        # the mutant's changes after the features: all of a CC mutant's, a CS
        # mutant's output layer (its combiner changes make it run in full)
        head_changes = copied(mutant, model) - set(model.feature_params)
        assert head_changes
        mutant = model.with_params({name: mutant.params()[name].data for name in head_changes})
        full = tasks.infer(mutant, encoded, batch_size=RESUME_BATCH, keys=("probs", "logits"))
        resumed = tasks.infer(mutant, encoded, batch_size=RESUME_BATCH, keys=("probs", "logits"), features=features)
        assert np.array_equal(full["probs"], resumed["probs"])
        assert np.array_equal(full["logits"], resumed["logits"])


@pytest.mark.parametrize("setup", ["cc_setup", "cs_setup"])
def test_resumed_mc_dropout_pass_matches_full_forward_bitwise(request, setup):
    model, encoded = setup_of(request, setup)
    features = tasks.infer(model, encoded, batch_size=RESUME_BATCH, keys=("features",))["features"]
    stochastic = at_rate(model, 0.5)
    full_rng, resumed_rng = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(3):  # successive passes keep drawing from one stream
        full = tasks.infer(stochastic, encoded, batch_size=RESUME_BATCH, rng=full_rng)
        resumed = tasks.infer(stochastic, encoded, batch_size=RESUME_BATCH, rng=resumed_rng, features=features)
        assert np.array_equal(full["probs"], resumed["probs"])


def test_cs_passes_resumed_from_row_features_match_the_full_forward_bitwise(cs_setup):
    model, encoded = cs_setup
    features = tasks.infer(model, encoded, batch_size=RESUME_BATCH, keys=("features",))["features"]
    batches = [encoded[start:start + RESUME_BATCH] for start in range(0, len(encoded), RESUME_BATCH)]
    # one d-wide row per real context: no PAD rows are kept
    assert features.shape == (int(encoded.lengths.sum()), model.dim)
    assert [model.feature_rows(b) for b in batches] == [int(b.lengths.sum()) for b in batches]
    assert any(len(set(b.lengths.tolist())) > 1 for b in batches)  # a padded layout would hold PAD slots
    rng = np.random.default_rng(9)
    head_mutant = model.with_params(
        {name: model.params()[name].data + rng.normal(0.0, 0.1, model.params()[name].data.shape).astype(np.float32)
         for name in ("attn", "w_out")}
    )
    for m in (model, head_mutant):
        full_rng, resumed_rng = np.random.default_rng(23), np.random.default_rng(23)
        for _ in range(2):  # an MC-Dropout pass, then the next from the same stream
            settings = {"batch_size": RESUME_BATCH, "keys": ("probs", "logits")}
            full = tasks.infer(at_rate(m, 0.5), encoded, rng=full_rng, **settings)
            resumed = tasks.infer(at_rate(m, 0.5), encoded, rng=resumed_rng, features=features, **settings)
            assert np.array_equal(full["probs"], resumed["probs"])
            assert np.array_equal(full["logits"], resumed["logits"])
            assert full_rng.bit_generator.state == resumed_rng.bit_generator.state
        logits = tasks.infer(m, encoded, batch_size=RESUME_BATCH, keys=("logits",))["logits"]
        resumed = tasks.infer(m, encoded, batch_size=RESUME_BATCH, keys=("logits",), features=features)["logits"]
        assert np.array_equal(logits, resumed)


@pytest.mark.parametrize("setup", ["cc_setup", "cs_setup"])
def test_scorers_resumed_from_base_features_match_full_forward(request, setup):
    model, encoded = setup_of(request, setup)
    base = uq.base_outputs(model, encoded)
    base_preds = base["probs"].argmax(axis=-1)
    for op in uq.MUTATION_OPERATORS:
        ensemble = uq.build_mutant_ensemble(model, op, degree=0.5, count=4, seed=5)
        assert_same_scores(
            uq.score_mmutant(ensemble, encoded, base_preds, base["features"], model),
            uq.score_mmutant(ensemble, encoded, base_preds),
        )
    assert_same_scores(
        uq.score_mc_dropout(model, encoded, passes=3, p=0.5, seed=4, features=base["features"]),
        uq.score_mc_dropout(model, encoded, passes=3, p=0.5, seed=4),
    )


def record_mutant_resumes(model, encoded, monkeypatch, degree=0.05) -> dict[str, list[bool]]:
    """Per operator, whether each of two mutants' passes resumed from the base features."""
    base = uq.base_outputs(model, encoded)
    resumed = []
    infer = tasks.infer

    def recording_infer(*args, **kwargs):
        resumed.append(kwargs.get("features") is not None)
        return infer(*args, **kwargs)

    monkeypatch.setattr(tasks, "infer", recording_infer)
    by_op = {}
    for op in uq.MUTATION_OPERATORS:
        ensemble = uq.build_mutant_ensemble(model, op, degree=degree, count=2, seed=1)
        resumed.clear()
        uq.score_mmutant(ensemble, encoded, base["probs"].argmax(axis=-1), base["features"], model)
        by_op[op] = list(resumed)
    return by_op


def test_gf_mutant_takes_the_full_forward(cs_setup, monkeypatch):
    # and only GF: WS/NS/NAI change the combiner's columns, not the embedding
    # tables, so they resume with those columns recomputed (at degree 0.1 NS
    # picks two of its 24 neurons, a pair to swap)
    model, encoded = cs_setup
    resumed = record_mutant_resumes(model, encoded, monkeypatch, degree=0.1)
    assert resumed == {op: [op != "GF"] * 2 for op in uq.MUTATION_OPERATORS}


def test_cc_mutants_resume_at_the_head_unless_gf(cc_setup, monkeypatch):
    model, encoded, _ = cc_setup
    resumed = record_mutant_resumes(model, encoded, monkeypatch)
    assert resumed == {op: [op != "GF"] * 2 for op in uq.MUTATION_OPERATORS}


def column_resumed_features(mutant, model, encoded, features):
    """The mutant's features of `encoded`, from the base `features` and its changed columns."""
    change = mutant.feature_changes(model, encoded)
    assert change is not None
    cols, values = change
    resumed = features.copy()
    resumed[:, cols] = values
    return cols, resumed


@pytest.mark.parametrize("degree", [0.05, 0.5])
@pytest.mark.parametrize("op", ["WS", "NS", "NAI"])
def test_column_resumed_cs_mutants_match_the_full_forward_bitwise(cs_setup, op, degree):
    model, encoded = cs_setup
    features = tasks.infer(model, encoded, batch_size=RESUME_BATCH, keys=("features",))["features"]
    base = uq.base_outputs(model, encoded)
    changed_any = False
    for seed in range(4):
        mutant = uq.mutate_model(model, op, degree=degree, seed=seed)
        full = tasks.infer(mutant, encoded, batch_size=RESUME_BATCH, keys=("features", "logits"))
        cols, resumed = column_resumed_features(mutant, model, encoded, features)
        assert resumed.tobytes() == full["features"].tobytes()
        # exactly the columns whose combiner weights or bias changed
        w, b = (mutant.params()[name].data != model.params()[name].data for name in ("w_comb", "b_comb"))
        assert cols.tolist() == np.flatnonzero(w.any(axis=0) | b).tolist()
        changed_any |= bool(cols.size)
        logits = tasks.infer(mutant, encoded, batch_size=RESUME_BATCH, keys=("logits",), features=resumed)["logits"]
        assert logits.tobytes() == full["logits"].tobytes()
    assert changed_any or (op, degree) == ("NS", 0.05)  # NS needs two of the 24 neurons to swap
    ensemble = uq.build_mutant_ensemble(model, op, degree=degree, count=3, seed=7)
    base_preds = base["probs"].argmax(axis=-1)
    resumed_scores = uq.score_mmutant(ensemble, encoded, base_preds, base["features"], model)
    assert_same_scores(resumed_scores, uq.score_mmutant(ensemble, encoded, base_preds))
    assert np.array_equal(base["features"], features)  # each pass restored the copy, not the base


def test_column_resumed_mutant_recomputes_a_weight_flipped_to_negative_zero(cs_setup):
    model, encoded = cs_setup
    w = model.params()["w_comb"].data.copy()
    w[3, 5] = 0.0
    base = model.with_params({"w_comb": w})
    flipped = w.copy()
    flipped[3, 5] = -0.0
    assert np.array_equal(flipped, w)  # equal as numbers, not as bits
    mutant = base.with_params({"w_comb": flipped})
    features = tasks.infer(base, encoded, batch_size=RESUME_BATCH, keys=("features",))["features"]
    cols, resumed = column_resumed_features(mutant, base, encoded, features)
    assert cols.tolist() == [5]
    full = tasks.infer(mutant, encoded, batch_size=RESUME_BATCH, keys=("features",))["features"]
    assert resumed.tobytes() == full.tobytes()


@pytest.mark.parametrize("table", ["term_emb", "path_emb"])
def test_mutant_with_a_replaced_embedding_table_is_not_resumed(cs_setup, monkeypatch, table):
    model, encoded = cs_setup
    # an equal copy still counts: only the base's own tables made its features
    mutant = model.with_params({table: model.params()[table].data.copy(), "b_comb": -model.params()["b_comb"].data})
    assert mutant.feature_changes(model, encoded) is None
    base = uq.base_outputs(model, encoded)
    full = uq.score_mmutant([mutant], encoded, base["probs"].argmax(axis=-1))
    resumed = []
    infer = tasks.infer

    def recording_infer(*args, **kwargs):
        resumed.append(kwargs.get("features") is not None)
        return infer(*args, **kwargs)

    monkeypatch.setattr(tasks, "infer", recording_infer)
    resumed_scores = uq.score_mmutant([mutant], encoded, base["probs"].argmax(axis=-1), base["features"], model)
    assert_same_scores(resumed_scores, full)
    assert resumed == [False]


def test_resuming_mutants_needs_the_model_of_the_features(cs_setup):
    model, encoded = cs_setup
    base = uq.base_outputs(model, encoded)
    ensemble = uq.build_mutant_ensemble(model, "WS", degree=0.5, count=1, seed=0)
    with pytest.raises(ValueError, match="the model that computed the base features"):
        uq.score_mmutant(ensemble, encoded, base["probs"].argmax(axis=-1), base["features"])


def test_mmutant_labels_skip_the_softmax(cc_setup, monkeypatch):
    model, encoded, _ = cc_setup
    base = uq.base_outputs(model, encoded)
    ensemble = uq.build_mutant_ensemble(model, "GF", degree=0.5, count=3, seed=2)
    expected = uq.score_mmutant(ensemble, encoded, base["probs"].argmax(axis=-1), base["features"], model)
    changed = np.zeros(len(encoded), dtype=np.int64)
    for mutant in ensemble:
        changed += tasks.infer(mutant, encoded)["probs"].argmax(axis=-1) != expected[2]
    assert np.array_equal(expected[0], changed / 3)
    monkeypatch.setattr(tasks.nn, "softmax", lambda *a, **k: pytest.fail("softmax ran"))
    base_preds = base["probs"].argmax(axis=-1)
    assert_same_scores(uq.score_mmutant(ensemble, encoded, base_preds, base["features"], model), expected)


@pytest.mark.parametrize("setup", ["cc_setup", "cs_setup"])
def test_features_of_another_split_are_rejected(request, setup):
    model, encoded = setup_of(request, setup)
    other = encoded[:2]
    features = tasks.infer(model, other, batch_size=RESUME_BATCH, keys=("features",))["features"]
    expected, held = model.feature_rows(encoded), model.feature_rows(other)
    assert held != expected
    with pytest.raises(ValueError, match=f"features hold {held} rows, but the split has {expected}"):
        tasks.infer(model, encoded, batch_size=RESUME_BATCH, features=features)


@pytest.mark.parametrize("setup", ["cc_setup", "cs_setup"])
@pytest.mark.parametrize("batch_size", [1, 512])
def test_features_resumed_at_another_batch_size_match_the_full_forward_bitwise(request, setup, batch_size):
    model, encoded = setup_of(request, setup)
    features = tasks.infer(model, encoded, batch_size=RESUME_BATCH, keys=("features",))["features"]
    assert np.array_equal(features, tasks.infer(model, encoded, batch_size=batch_size, keys=("features",))["features"])
    keys = ("probs", "logits")
    full = tasks.infer(model, encoded, batch_size=batch_size, keys=keys)
    resumed = tasks.infer(model, encoded, batch_size=batch_size, keys=keys, features=features)
    full_rng, resumed_rng = np.random.default_rng(31), np.random.default_rng(31)
    passes = {"batch_size": batch_size, "keys": keys}
    full_pass = tasks.infer(at_rate(model, 0.5), encoded, rng=full_rng, **passes)
    resumed_pass = tasks.infer(at_rate(model, 0.5), encoded, rng=resumed_rng, features=features, **passes)
    for k in keys:
        assert np.array_equal(full[k], resumed[k])
        assert np.array_equal(full_pass[k], resumed_pass[k])


# -- Dissector ---------------------------------------------------------------------


def unanimous_probe(model, big=800.0, agree_with=None):
    """Probe that puts (float-exact) probability 1 on `agree_with` per sample."""
    dim = model.dim
    n = model.n_classes()
    w = np.zeros((dim, n))
    b = np.full(n, -big)
    b[agree_with] = big
    probe = uq.Probe(tag="embed_mean", w=uq.nn.Tensor(w), b=uq.nn.Tensor(b))
    return probe


def test_growth_weights():
    assert np.allclose(uq.growth_weights("linear", 2), [1 / 3, 2 / 3])
    log_w = uq.growth_weights("log", 3)
    assert abs(log_w.sum() - 1.0) < 1e-12
    exp_w = uq.growth_weights("exp", 4)
    assert np.all(np.diff(exp_w) > 0)  # strictly increasing with depth
    with pytest.raises(ValueError):
        uq.growth_weights("quadratic", 2)


def test_dissector_unanimous_probe_gives_pv_one(cc_setup):
    model, encoded, _ = cc_setup
    preds = tasks.infer(model, encoded[:1])["probs"].argmax(-1)
    probe = unanimous_probe(model, agree_with=int(preds[0]))
    probes = [probe]
    _, conf, _ = uq.score_dissector(probes, uq.base_outputs(model, encoded[:1]))["linear"]
    assert conf[0] == 1.0


def test_dissector_zero_probability_on_label_pulls_pv_down(cc_setup):
    model, encoded, _ = cc_setup
    preds = tasks.infer(model, encoded[:1])["probs"].argmax(-1)
    wrong = (int(preds[0]) + 1) % model.n_classes()
    probe = unanimous_probe(model, agree_with=wrong)
    probes = [probe]
    _, conf, _ = uq.score_dissector(probes, uq.base_outputs(model, encoded[:1]))["linear"]
    assert conf[0] == 0.0


def test_dissector_trained_probes_in_bounds(cs_setup):
    model, encoded = cs_setup
    probes = uq.train_probes(model, encoded, epochs=5, seed=0)
    assert [p.tag for p in probes] == ["embed_mean", "pooled"]
    base = uq.base_outputs(model, encoded)
    tables = uq.ESTIMATORS["dissector"].tables(model, probes, encoded, base)
    for growth, rec in zip(uq.GROWTH_TYPES, tables, strict=True):
        assert np.all((0.0 <= rec.confidence) & (rec.confidence <= 1.0))
        assert rec.variant == growth


def test_dissector_label_space_mismatch(cc_setup, cs_setup):
    cc_model, cc_encoded, _ = cc_setup
    cs_model, _ = cs_setup
    probes = uq.train_probes(cs_model, cs_setup[1], epochs=1, seed=0)
    with pytest.raises(uq.EstimatorStateError):
        uq.score_dissector(probes, uq.base_outputs(cc_model, cc_encoded[:2]))


def test_dissector_runs_each_probe_once_for_every_growth_type(cs_setup, monkeypatch):
    model, encoded = cs_setup
    probes = uq.train_probes(model, encoded, epochs=3, seed=0)
    base = uq.base_outputs(model, encoded)
    base_preds = base["probs"].argmax(axis=-1)
    expected = {}
    for growth in uq.GROWTH_TYPES:  # the reference runs every probe again for each growth type
        pv = np.zeros(len(encoded), dtype=np.float64)
        for weight, probe in zip(uq.growth_weights(growth, len(probes)), probes):
            pv += weight * uq._snapshot_validity(probe.predict(base[probe.tag]), base_preds)
        expected[growth] = pv
    assert not np.array_equal(expected["linear"], expected["exp"])  # two probes: the weights matter
    predicted = []
    predict = uq.Probe.predict
    monkeypatch.setattr(uq.Probe, "predict", lambda self, acts: predicted.append(self.tag) or predict(self, acts))
    tables = uq.ESTIMATORS["dissector"].tables(model, probes, encoded, base, "test1")
    assert predicted == [p.tag for p in probes]
    assert [t.variant for t in tables] == list(uq.GROWTH_TYPES)
    for table in tables:
        assert table.confidence.tobytes() == expected[table.variant].tobytes()  # bitwise
        assert table.raw.tobytes() == expected[table.variant].tobytes()


# -- registry and score tables ------------------------------------------------------

SETTINGS = {
    "mc_passes": 4, "mc_dropout_p": 0.5, "mutant_count": 6, "mutation_degree": 0.4,
    "probe_epochs": 2, "probe_learning_rate": 0.001, "seed": 0,
}


def test_all_confidences_in_unit_interval(cc_setup):
    model, encoded, _ = cc_setup
    base = uq.base_outputs(model, encoded)
    for estimator in uq.ESTIMATORS.values():
        state = estimator.fit(model, encoded, encoded, base, SETTINGS)
        tables = estimator.tables(model, state, encoded, base, "validation")
        assert [rec.variant for rec in tables] == list(estimator.variants)
        for rec in tables:
            assert len(rec) == len(encoded)
            assert np.all((0.0 <= rec.confidence) & (rec.confidence <= 1.0))


def test_registry_flags_and_variants():
    assert {name: e.flag for name, e in uq.ESTIMATORS.items()} == {
        "vanilla": "vanilla", "temp_scale": "temp", "mc_dropout": "mcdropout",
        "mmutant": "mmutant", "dissector": "dissector",
    }
    assert uq.ESTIMATORS["mmutant"].variants == ("GF", "WS", "NS", "NAI")
    assert uq.ESTIMATORS["dissector"].variants == ("linear", "log", "exp")
    assert all(uq.ESTIMATORS[m].variants == ("",) for m in ("vanilla", "temp_scale", "mc_dropout"))


def test_mmutant_registry_scores_every_operator_with_its_own_ensemble(cc_setup):
    model, encoded, _ = cc_setup
    estimator = uq.ESTIMATORS["mmutant"]
    base = uq.base_outputs(model, encoded)
    ensembles = estimator.fit(model, encoded, encoded, base, SETTINGS)
    assert sorted(ensembles) == sorted(uq.MUTATION_OPERATORS)
    tables = estimator.tables(model, ensembles, encoded, base, "test1")
    assert [t.variant for t in tables] == ["GF", "WS", "NS", "NAI"]
    for op, t in zip(estimator.variants, tables):
        own = uq.build_mutant_ensemble(
            model, op, degree=SETTINGS["mutation_degree"], count=SETTINGS["mutant_count"], seed=SETTINGS["seed"]
        )
        lcr, conf, pred = uq.score_mmutant(own, encoded, base["probs"].argmax(axis=-1))
        assert np.array_equal(t.raw, lcr) and np.array_equal(t.confidence, conf)
        assert np.array_equal(t.predicted, pred)
    # each operator is scored with its own ensemble, not the first one
    assert not np.array_equal(tables[0].raw, tables[3].raw)


def test_mc_dropout_stream_is_keyed_by_split(cc_setup):
    model, encoded, _ = cc_setup
    estimator = uq.ESTIMATORS["mc_dropout"]
    base = uq.base_outputs(model, encoded)
    state = estimator.fit(model, encoded, encoded, base, SETTINGS)
    (test1,) = estimator.tables(model, state, encoded, base, "test1")
    (again,) = estimator.tables(model, state, encoded, base, "test1")
    (other,) = estimator.tables(model, state, encoded, base, "test2")
    assert np.array_equal(test1.confidence, again.confidence)
    assert not np.array_equal(test1.confidence, other.confidence)


def test_mc_dropout_registry_passes_resume_at_the_head(cs_setup, monkeypatch):
    model, encoded = cs_setup
    base = uq.base_outputs(model, encoded)
    estimator = uq.ESTIMATORS["mc_dropout"]
    state = estimator.fit(model, encoded, encoded, base, SETTINGS)
    resumed = []
    infer = tasks.infer

    def recording_infer(*args, **kwargs):
        resumed.append(kwargs.get("features") is base["features"])
        return infer(*args, **kwargs)

    monkeypatch.setattr(tasks, "infer", recording_infer)
    estimator.tables(model, state, encoded, base, "test1")
    assert resumed == [True] * SETTINGS["mc_passes"]


def test_registry_missing_state():
    base = {"probs": np.zeros((0, 2), dtype=np.float32), "logits": np.zeros((0, 2), dtype=np.float32)}
    with pytest.raises(uq.EstimatorStateError):
        uq.ESTIMATORS["temp_scale"].score(None, None, [], base, "")
    with pytest.raises(uq.EstimatorStateError):
        uq.ESTIMATORS["mmutant"].score(None, None, [], base, "")
    with pytest.raises(uq.EstimatorStateError):
        uq.ESTIMATORS["dissector"].score(None, None, [], base, "")
    with pytest.raises(KeyError):
        uq.ESTIMATORS["unknown"]


def test_table_rejects_confidence_outside_unit_interval(cc_setup):
    model, encoded, _ = cc_setup
    broken = uq.Estimator(
        "broken", "broken", ("",), fit=lambda *a: None,
        score=lambda model, state, samples, base, split: {"": (
            np.ones(len(samples)), np.full(len(samples), 1.5), np.zeros(len(samples))
        )},
    )
    with pytest.raises(ValueError, match=encoded.sample_ids[0]):
        broken.tables(model, None, encoded, uq.base_outputs(model, encoded))


# -- score files ----------------------------------------------------------------------

_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ0123456789_#.", max_size=12)


@st.composite
def score_tables(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
    return uq.ScoreTable(
        method=draw(_name),
        variant=draw(_name),
        split=draw(_name),
        sample_ids=draw(st.lists(_name, min_size=n, max_size=n)),
        raw=np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64),
        confidence=np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)), dtype=np.float64),
        predicted=np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64),
        true=np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64),
    )


@settings(
    max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(table=score_tables())
def test_scores_csv_roundtrip(tmp_path, table):
    path = tmp_path / "scores.csv"
    uq.write_scores_csv(path, table, config_hash="abc")
    back = uq.read_scores_csv(path)
    assert (back.method, back.variant, back.split) == (table.method, table.variant, table.split)
    assert back.sample_ids == table.sample_ids
    for column in ("raw", "confidence"):
        assert getattr(back, column).dtype == np.float64
        assert getattr(back, column).tobytes() == getattr(table, column).tobytes()  # bit-identical
    assert np.array_equal(back.predicted, table.predicted)
    assert np.array_equal(back.true, table.true)


def row_by_row_scores_csv(table, config_hash: str) -> bytes:
    """A score file written one f-string per row, the reference for the column-wise writer."""
    rows = zip(table.sample_ids, table.raw.tolist(), table.confidence.tolist(), table.predicted.tolist(), table.true.tolist())
    return "".join([
        f"# config_hash={config_hash}\n{uq.SCORES_HEADER}\n",
        *(f"{sample_id},{table.method},{table.variant},{raw!r},{conf!r},{pred},{true},{table.split}\n"
          for sample_id, raw, conf, pred, true in rows),
    ]).encode("utf-8")


@st.composite
def repetitive_score_tables(draw):
    """Tables of 50-500 rows over a few distinct values; raw holds 0.0 and -0.0, and
    NaN and +-inf unless `finite`. Confidence is raw, raw with each zero's sign
    flipped, or its own column."""
    n = draw(st.integers(min_value=50, max_value=500))
    finite = draw(st.booleans())
    pool = np.array([0.0, -0.0, *draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = pool[rng.integers(len(pool), size=n)]
    raw[:2] = 0.0, -0.0
    if not finite:
        raw[2:5] = np.nan, np.inf, -np.inf
    kind = draw(st.sampled_from(["same", "zero_sign", "own"]))
    if kind == "same":
        confidence = raw.copy()
    elif kind == "zero_sign":
        confidence = np.where(raw == 0.0, -raw, raw)
    else:
        confidence = pool[rng.integers(len(pool), size=n)]
    ints = np.array([0, 2, 87, -(2**63), 2**63 - 1], dtype=np.int64)
    return uq.ScoreTable(
        method=draw(_name),
        variant=draw(_name),
        split=draw(_name),
        sample_ids=[f"s{i}" for i in range(n)],
        raw=raw,
        confidence=confidence,
        predicted=ints[rng.integers(len(ints), size=n)],
        true=ints[rng.integers(len(ints), size=n)],
    )


@settings(
    max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(table=repetitive_score_tables())
def test_scores_csv_bytes_equal_a_row_by_row_writer(tmp_path, table):
    path = tmp_path / "scores.csv"
    uq.write_scores_csv(path, table, config_hash="abc")
    assert path.read_bytes() == row_by_row_scores_csv(table, "abc")
    if np.isfinite(table.raw).all():
        back = uq.read_scores_csv(path)
        assert back.sample_ids == table.sample_ids
        for column in ("raw", "confidence", "predicted", "true"):
            assert getattr(back, column).tobytes() == getattr(table, column).tobytes()  # bit-identical


def test_read_scores_csv_skips_blank_lines_between_rows(tmp_path):
    n = 5
    table = uq.ScoreTable(
        method="vanilla", variant="", split="test1", sample_ids=[f"test1#{i}" for i in range(n)],
        raw=np.linspace(0.1, 0.5, n), confidence=np.linspace(0.1, 0.5, n),
        predicted=np.arange(n, dtype=np.int64), true=np.full(n, 3, dtype=np.int64),
    )
    path = tmp_path / "scores.csv"
    uq.write_scores_csv(path, table, config_hash="abc")
    comment, header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([comment, header, rows[0], "", "", *rows[1:3], "", *rows[3:]]) + "\n\n")
    back = uq.read_scores_csv(path)
    assert back.sample_ids == table.sample_ids
    for column in ("raw", "confidence", "predicted", "true"):
        assert getattr(back, column).tobytes() == getattr(table, column).tobytes()
    # a bad row after the blank lines is still named by its own line number
    text = path.read_text().replace("test1#4,vanilla", "test1#4,temp_scale")
    path.write_text(text)
    with pytest.raises(uq.ScoresFileError, match=r"scores\.csv, line 10: method 'temp_scale'"):
        uq.read_scores_csv(path)
