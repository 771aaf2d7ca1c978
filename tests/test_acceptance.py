"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass. Criteria 5 and 6 drive the full pipeline through the
CLI on the hermetic synthetic corpus; budget roughly five minutes.
"""

import json
import time

import numpy as np
import pytest

from codeshift import evalpipe, nn, tasks
from codeshift import extraction as ex
from codeshift import uncertainty as uq
from codeshift.cli import _load_encoded, main
from codeshift.config import bucket_dir, config_hash, load_config
from codeshift.metrics import aupr, brier, roc_auc


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- criterion 1: gradient suite ------------------------------------------------


def _finite_diff(build_loss, params, h=1e-5):
    nn.zero_grads(params)
    loss = build_loss()
    nn.backward(loss)
    worst = 0.0
    for p in params:
        grad = np.zeros_like(p.data) if p.grad is None else p.grad.copy()
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
            err = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1.0)
            worst = max(worst, err)
    return worst


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst = 0.0

    def t(rng, *shape):
        return nn.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)

    for seed in range(50):
        rng = np.random.default_rng(seed)
        x, w, b = t(rng, 3, 4), t(rng, 4, 5), t(rng, 5)
        worst = max(worst, _finite_diff(lambda: nn.mean(nn.tanh(nn.affine(x, w, b))), [x, w, b]))

        logits = t(rng, 3, 5)
        labels = rng.integers(0, 5, size=3)
        worst = max(
            worst,
            _finite_diff(lambda: nn.mean(nn.cross_entropy(nn.softmax(logits), labels)), [logits]),
        )

        table = t(rng, 6, 3)
        ids = rng.integers(0, 6, size=(2, 4))
        w2 = t(rng, 3, 2)
        worst = max(
            worst,
            _finite_diff(lambda: nn.mean(nn.linear(nn.embedding_lookup(table, ids), w2)), [table, w2]),
        )

        mask = np.ones((2, 5), dtype=bool)
        mask[1, 3:] = False
        contexts, attn = t(rng, int(mask.sum()), 3), t(rng, 3)

        def pool_loss():
            pooled, _ = nn.attention_pool(contexts, attn, mask=mask)
            return nn.mean(pooled)

        worst = max(worst, _finite_diff(pool_loss, [contexts, attn]))

        ragged = np.arange(4) < np.array([[4], [1], [2]])  # a bag of one row
        rows = t(rng, int(ragged.sum()), 3)

        def row_pool_loss():
            # the CS head on real rows: dropout over the rows, then pooling over the bags
            dropped = nn.dropout(nn.tanh(rows), 0.4, training=True, rng=np.random.default_rng(seed))
            pooled, _ = nn.attention_pool(dropped, attn, mask=ragged)
            return nn.mean(nn.tanh(pooled))

        worst = max(worst, _finite_diff(row_pool_loss, [rows, attn]))

        dx = t(rng, 3, 4)

        def drop_loss():
            return nn.mean(nn.dropout(dx, 0.4, training=True, rng=np.random.default_rng(seed)))

        worst = max(worst, _finite_diff(drop_loss, [dx]))

        terms, paths, wc, bc = t(rng, 4, 3), t(rng, 3, 3), t(rng, 3, 3), t(rng, 3)
        lp, pp, rp = rng.integers(0, 4, size=8), rng.integers(0, 3, size=8), rng.integers(0, 4, size=8)
        lp[4:], pp[4:], rp[4:] = lp[:4], pp[:4], rp[:4]  # each triple of the first half repeats
        _, distinct = np.unique(np.stack([lp, pp, rp], axis=1), axis=0, return_inverse=True)

        def combine_loss():
            lookups = [(nn.linear(terms, wc), lp), (nn.linear(paths, wc), pp), (terms, rp)]
            return nn.mean(nn.mul(nn.embedding_sum_tanh(lookups, bc, distinct.reshape(-1)), attn))

        worst = max(worst, _finite_diff(combine_loss, [terms, paths, wc, bc]))

        a, c = t(rng, 2, 3), t(rng, 3)
        worst = max(worst, _finite_diff(lambda: nn.mean(nn.mul(nn.add(a, c), a)), [a, c]))

        left, right, wa = t(rng, 2, 3, 2), t(rng, 2, 3, 2), t(rng, 4)

        def concat_loss():
            pooled, _ = nn.attention_pool(nn.concat_last([left, right]), wa)
            return nn.mean(pooled)

        worst = max(worst, _finite_diff(concat_loss, [left, right, wa]))

    elapsed = time.monotonic() - start
    announce(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"gradient suite: max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)",
    )


# -- criterion 2: metric oracle --------------------------------------------------


def test_criterion_2_metric_oracle():
    rng = np.random.default_rng(42)
    auc_exact = True
    aupr_close = True
    for _ in range(100):
        n = int(rng.integers(2, 201))
        scores = rng.random(n)
        quantize = rng.choice(n, size=n // 3, replace=False)
        scores[quantize] = np.round(scores[quantize], 1)  # inject ties
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if not labels.any():
            labels[0] = True
        if labels.all():
            labels[0] = False

        pos = [float(s) for s, l in zip(scores, labels) if l]
        neg = [float(s) for s, l in zip(scores, labels) if not l]
        wins = sum(1.0 if p > n_ else (0.5 if p == n_ else 0.0) for p in pos for n_ in neg)
        brute = wins / (len(pos) * len(neg)) * 100.0
        if roc_auc(scores, labels) != brute:
            auc_exact = False

        thresholds = sorted(set(scores.tolist()), reverse=True)
        area, prev_recall = 0.0, 0.0
        for t in thresholds:
            kept = labels[scores >= t]
            tp = int(kept.sum())
            recall = tp / len(pos)
            area += (recall - prev_recall) * (tp / len(kept))
            prev_recall = recall
        if abs(aupr(scores, labels) - area * 100.0) > 1e-9:
            aupr_close = False

    halves = brier(np.full(10, 0.5), np.arange(10) % 2 == 1)
    announce(
        2,
        auc_exact and aupr_close and halves == 25.0,
        f"AUC == brute force on 100 instances: {auc_exact}; AUPR within 1e-9: {aupr_close}; "
        f"Brier(all 0.5) = {halves}",
    )


# -- criterion 3: estimator invariants --------------------------------------------


@pytest.fixture(scope="module")
def small_models():
    cc_tokens = ex.tokenize_java("int a0 = b0; int a1 = b1; int a2 = b2; long c0 = d0;")
    cc_samples = ex.extract_cbow_samples(cc_tokens, window=4)
    cc_vocab = ex.build_cc_vocab(cc_samples)
    cc_encoded = tasks.encode_split(cc_samples, {"tokens": cc_vocab}, id_prefix="acc")
    cc_model = tasks.train_cc(cc_encoded, cc_vocab, tasks.TrainConfig(epochs=40, seed=8, embedding_dim=16)).model

    cs_source = """
    class Pair {
        int addPair(int addLeft, int addRight) { return addLeft + addRight; }
        int subPair(int subLeft, int subRight) { return subLeft - subRight; }
        boolean isEmpty(int size) { return size == 0; }
    }
    """
    tree = ex.parse_java_lite(ex.tokenize_java(cs_source))
    cs_samples = ex.extract_method_samples(tree)
    terminals, paths, labels = ex.build_cs_vocabs(cs_samples)
    cs_encoded = tasks.encode_split(cs_samples, {"terminals": terminals, "paths": paths, "labels": labels}, id_prefix="acc")
    cs_model = tasks.train_cs(
        cs_encoded, terminals, paths, labels, tasks.TrainConfig(epochs=40, seed=8, embedding_dim=16)
    ).model
    return cc_model, cc_encoded, cs_model, cs_encoded


def test_criterion_3_estimator_invariants(small_models):
    cc_model, cc_encoded, cs_model, cs_encoded = small_models

    cc_base = uq.base_outputs(cc_model, cc_encoded)
    t_star = uq.fit_temperature(cc_base["logits"], cc_encoded.labels)
    _, vanilla_conf, vanilla_pred = uq.score_vanilla(cc_base["probs"])
    _, _, scaled_pred = uq.score_temp_scale(cc_base["logits"], t_star)
    argmax_preserved = bool(np.array_equal(vanilla_pred, scaled_pred))
    logits = tasks.infer(cc_model, cc_encoded, keys=("logits",))["logits"].astype(np.float64)
    labels = cc_encoded.labels
    nll_improved = uq._nll_at_temperature(logits, labels, t_star) <= uq._nll_at_temperature(logits, labels, 1.0)

    _, mc_conf, mc_pred = uq.score_mc_dropout(cc_model, cc_encoded, passes=5, p=0.0, seed=3)
    mc_bitwise = np.array_equal(vanilla_conf, mc_conf) and np.array_equal(vanilla_pred, mc_pred)

    lcr_zero = True
    for op in uq.MUTATION_OPERATORS:
        ensemble = uq.build_mutant_ensemble(cc_model, op, degree=0.0, count=4, seed=2)
        lcr_zero &= bool(np.all(uq.score_mmutant(ensemble, cc_encoded, vanilla_pred)[0] == 0.0))

    probes = uq.train_probes(cs_model, cs_encoded, epochs=5, seed=1)
    cs_base = uq.base_outputs(cs_model, cs_encoded)
    pv_in_bounds = all(
        0.0 <= c <= 1.0
        for growth in uq.GROWTH_TYPES
        for c in uq.score_dissector(probes, cs_base)[growth][1]
    )
    exp_weights = uq.growth_weights("exp", len(probes))
    exp_increasing = bool(np.all(np.diff(exp_weights) > 0))

    announce(
        3,
        argmax_preserved and nll_improved and mc_bitwise and lcr_zero and pv_in_bounds and exp_increasing,
        f"temp argmax preserved: {argmax_preserved}, NLL(T*)<=NLL(1): {nll_improved}, "
        f"MC p=0 bitwise vanilla: {mc_bitwise}, LCR(degree=0)=0: {lcr_zero}, "
        f"PV in [0,1]: {pv_in_bounds}, exp weights increasing: {exp_increasing}",
    )


# -- criterion 4: memorization oracle ordered at published defaults -----------------


def test_criterion_4_memorization_oracle():
    start = time.monotonic()
    cs_source = """
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
    tree = ex.parse_java_lite(ex.tokenize_java(cs_source))
    cs_samples = ex.extract_method_samples(tree)
    terminals, paths, labels = ex.build_cs_vocabs(cs_samples)
    cs_encoded = tasks.encode_split(cs_samples, {"terminals": terminals, "paths": paths, "labels": labels}, id_prefix="fix")
    assert len(cs_encoded) == 8
    cs_result = tasks.train_cs(cs_encoded, terminals, paths, labels, tasks.TrainConfig(seed=3))
    cs_acc = tasks.evaluate_accuracy(cs_result.model, cs_encoded)

    cc_tokens = ex.tokenize_java("int a0 = b0; int a1 = b1; int a2 = b2; int a3 = b3; long c0 = d0;")
    cc_samples = ex.extract_cbow_samples(cc_tokens, window=4)[:20]
    cc_vocab = ex.build_cc_vocab(cc_samples)
    cc_encoded = tasks.encode_split(cc_samples, {"tokens": cc_vocab}, id_prefix="fix")
    assert len(cc_encoded) == 20
    cc_result = tasks.train_cc(cc_encoded, cc_vocab, tasks.TrainConfig(seed=3))
    cc_acc = tasks.evaluate_accuracy(cc_result.model, cc_encoded)

    elapsed = time.monotonic() - start
    announce(
        4,
        cs_acc == 100.0 and cc_acc == 100.0 and elapsed < 120.0
        and len(cs_result.history) == 300 and len(cc_result.history) == 300,
        f"300-epoch default-config memorization: CS {cs_acc:.1f}%, CC {cc_acc:.1f}%, {elapsed:.1f}s (< 120s)",
    )


# -- criteria 5 and 6: hermetic study ------------------------------------------------

STUDY_CONFIG = {
    "corpus": {"val_fraction": 0.2},
    "train": {"embedding_dim": 48, "batch_size": 128, "epochs": 100},
    "uncertainty": {"mc_passes": 8, "mutant_count": 12, "probe_epochs": 8},
    "extraction": {"max_contexts": 120},
    "seed": 101,
}

CROSS_STYLE = (("project", "test1"), ("author", "test3"))


def run_study(config_path: str) -> None:
    flags = ["--config", config_path]
    assert main(["synth-corpus", *flags]) == 0
    for shift in ("timeline", "project", "author"):
        assert main(["make-splits", "--shift", shift, *flags]) == 0
        for task in ("cs", "cc"):
            assert main(["extract", "--task", task, "--shift", shift, *flags]) == 0
            assert main(["train", "--task", task, "--shift", shift, *flags]) == 0
            assert main(["score", "--task", task, "--shift", shift, *flags]) == 0
            assert main(["eval", "--task", task, "--shift", shift, *flags]) == 0
    assert main(["report", *flags]) == 0


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    config_path = root / "study.json"
    config_path.write_text(json.dumps(STUDY_CONFIG), encoding="utf-8")
    start = time.monotonic()
    run_study(str(config_path))
    return root, config_path, time.monotonic() - start


def _accuracy_pair(config, bucket, task, shift, cross_split):
    model = tasks.load_checkpoint((bucket / "checkpoints" / f"{task}-{shift}.ckpt").read_bytes())
    vocabs = model.vocabs()  # encoded as `score` encodes: with the checkpoint's vocabularies
    val = tasks.evaluate_accuracy(model, _load_encoded(bucket, task, shift, "validation", vocabs))
    test = tasks.evaluate_accuracy(model, _load_encoded(bucket, task, shift, cross_split, vocabs))
    return val, test


def test_criterion_5_hermetic_study(study):
    root, config_path, study_elapsed = study
    start_extra = time.monotonic()
    config = load_config(config_path)
    bucket = bucket_dir(config)

    corpus_files = sum(1 for _ in (root / "corpus").rglob("*.java"))

    # (a) strict accuracy drop on the cross-style splits, over 3 seeds
    drops = []
    for shift, cross in CROSS_STYLE:
        for task in ("cs", "cc"):
            report = json.loads((bucket / "reports" / f"{task}-{shift}.json").read_text())
            val = report["accuracy"]["validation"]["accuracy"]
            test = report["accuracy"][cross]["accuracy"]
            drops.append((101, task, shift, val, test))
    for seed in (102, 103):
        seed_config_path = root / f"study-{seed}.json"
        seed_config_path.write_text(json.dumps({**STUDY_CONFIG, "seed": seed}), encoding="utf-8")
        flags = ["--config", str(seed_config_path)]
        assert main(["synth-corpus", *flags]) == 0
        seed_config = load_config(seed_config_path)
        seed_bucket = bucket_dir(seed_config)
        for shift, cross in CROSS_STYLE:
            assert main(["make-splits", "--shift", shift, *flags]) == 0
            for task in ("cs", "cc"):
                assert main(["extract", "--task", task, "--shift", shift, *flags]) == 0
                assert main(["train", "--task", task, "--shift", shift, *flags]) == 0
                val, test = _accuracy_pair(seed_config, seed_bucket, task, shift, cross)
                drops.append((seed, task, shift, val, test))
    drop_ok = all(test < val for _, _, _, val, test in drops)

    # (b) in-/OOD detection works on the strongest shift for some method
    best_aucs = {}
    for task in ("cs", "cc"):
        report = json.loads((bucket / "reports" / f"{task}-project.json").read_text())
        aucs = []
        for block in report["ood"]["validation|test1"].values():
            if "variants" in block:
                value = block["best"]["auc"]["value"]
            else:
                value = block["auc"]
            if value is not None:
                aucs.append(value)
        best_aucs[task] = max(aucs)
    ood_ok = any(v > 55.0 for v in best_aucs.values())

    # (c) threshold sweep counts monotone non-increasing
    sweep_ok = True
    for method in ("vanilla", "mcdropout"):
        assert main(["sweep", "--task", "cs", "--shift", "project", "--method", method,
                     "--config", str(config_path)]) == 0
    for path in sorted((bucket / "reports" / "sweeps").glob("*.csv")):
        counts = [int(line.split(",")[1]) for line in path.read_text().splitlines()[2:]]
        sweep_ok &= all(a >= b for a, b in zip(counts, counts[1:]))

    # (d) every persisted confidence lies in [0, 1]
    conf_ok = True
    n_scores = 0
    for path in (bucket / "scores").glob("*.csv"):
        for line in path.read_text().splitlines()[2:]:
            if not line:
                continue
            confidence = float(line.split(",")[4])
            conf_ok &= 0.0 <= confidence <= 1.0
            n_scores += 1

    elapsed = study_elapsed + (time.monotonic() - start_extra)
    worst_margin = min(val - test for _, _, _, val, test in drops)
    announce(
        5,
        drop_ok and ood_ok and sweep_ok and conf_ok and elapsed < 900.0,
        f"hermetic study ({corpus_files} files): cross-style drop strict over 3 seeds "
        f"(min margin {worst_margin:.1f}pp): {drop_ok}; best OOD AUC {best_aucs} (>55 for some): {ood_ok}; "
        f"sweep counts monotone: {sweep_ok}; {n_scores} confidences in [0,1]: {conf_ok}; "
        f"{elapsed:.0f}s (< 900s)",
    )


def test_criterion_6_determinism(study):
    root, config_path, _ = study
    config = load_config(config_path)
    bucket = bucket_dir(config)
    report_files = sorted((bucket / "reports").glob("*.*"))
    before = {p.name: p.read_bytes() for p in report_files if p.is_file()}
    assert before, "study produced no reports"

    run_study(str(config_path))  # identical config hash -> same bucket

    identical = True
    for p in sorted((bucket / "reports").glob("*.*")):
        if p.is_file() and before.get(p.name) != p.read_bytes():
            identical = False
    announce(
        6,
        identical,
        f"two runs with config hash {config_hash(config)[:12]} produced byte-identical reports: {identical}",
    )


# -- criterion 7: drop-ratio formatter ------------------------------------------------


def test_criterion_7_drop_ratio_format():
    rendered = evalpipe.accuracy_drop_report({"validation": 29.96, "test": 29.14})["test"]["formatted"]
    announce(7, rendered == "29.14(-2.74%)", f"accuracy_drop_report 29.96 -> 29.14 renders {rendered!r}")
