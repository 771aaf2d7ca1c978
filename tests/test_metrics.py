"""Metric contracts checked against brute-force oracles."""

import numpy as np
import pytest

from codeshift.metrics import MetricUndefinedError, aupr, brier, roc_auc


def brute_force_auc(scores, labels):
    """O(P*N) pairwise AUC: each (pos, neg) pair scores 1, 0.5 on tie."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg)) * 100.0


def sweep_oracle_aupr(scores, labels):
    """Precision/recall recomputed from scratch at every distinct score."""
    n_pos = sum(1 for l in labels if l)
    thresholds = sorted(set(scores), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        kept = [l for s, l in zip(scores, labels) if s >= t]
        tp = sum(1 for l in kept if l)
        recall = tp / n_pos
        precision = tp / len(kept)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area * 100.0


def random_scores(rng, n, tie_fraction=0.3):
    scores = rng.random(n)
    # inject ties by quantizing a slice of the scores
    k = int(n * tie_fraction)
    if k:
        idx = rng.choice(n, size=k, replace=False)
        scores[idx] = np.round(scores[idx], 1)
    labels = rng.random(n) < rng.uniform(0.2, 0.8)
    if not labels.any():
        labels[0] = True
    if labels.all():
        labels[0] = False
    return scores, labels


def loop_roc_auc(scores, labels):
    """Average-rank AUC with a while-loop tie scan: the arithmetic the
    vectorised roc_auc must reproduce bit for bit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    numerator = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return numerator / (n_pos * n_neg) * 100.0


def loop_aupr(scores, labels):
    """Step-sum AUPR over tie groups, accumulated one group at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    labels = labels[order]
    area, tp, fp, prev_recall, i = 0.0, 0, 0, 0.0, 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[j + 1] == scores[i]:
            j += 1
        tp += int(labels[i:j + 1].sum())
        fp += int(j - i + 1 - labels[i:j + 1].sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
        i = j + 1
    return area * 100.0


def test_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.3], [True, True, False]) == 100.0


def test_auc_all_tied_is_half():
    assert roc_auc([0.5, 0.5], [True, False]) == 50.0


def test_auc_single_class_raises():
    with pytest.raises(MetricUndefinedError):
        roc_auc([0.1, 0.2], [True, True])


def test_auc_matches_brute_force_exactly():
    # 100 random instances, n <= 200, ties injected: rank statistic must
    # match the pairwise count bit for bit.
    rng = np.random.default_rng(2024)
    for _ in range(100):
        scores, labels = random_scores(rng, int(rng.integers(2, 201)))
        assert roc_auc(scores, labels) == brute_force_auc(scores, labels)


def test_vectorised_metrics_match_loop_reference_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 400))
        scores, labels = random_scores(rng, n, tie_fraction=float(rng.uniform(0.0, 0.9)))
        if rng.random() < 0.2:
            scores[: n // 2] = 0.0
            scores[n // 2:] = -0.0  # signed zeros tie
        assert roc_auc(scores, labels) == loop_roc_auc(scores, labels)
        assert aupr(scores, labels) == loop_aupr(scores, labels)


def test_metrics_return_python_floats():
    scores, labels = [0.9, 0.4, 0.4, 0.1], [True, False, True, False]
    for metric in (roc_auc, aupr, brier):
        assert type(metric(scores, labels)) is float
        assert type(metric(np.array(scores), np.array(labels))) is float


def test_mismatched_lengths_and_non_finite_scores_raise():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2, 0.3], [True, False])
    with pytest.raises(ValueError):
        aupr([0.1, float("nan")], [True, False])


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(99)
    assert 40.0 <= roc_auc(rng.random(200), rng.random(200) < 0.5) <= 60.0


def test_auc_monotone_invariance_and_flip():
    rng = np.random.default_rng(5)
    scores, labels = random_scores(rng, 150)
    base = roc_auc(scores, labels)
    assert abs(roc_auc(np.tanh(3.0 * scores), labels) - base) < 1e-9
    assert abs(roc_auc(scores, ~labels) - (100.0 - base)) < 1e-9


def test_aupr_all_positive_and_perfect():
    assert aupr([0.2, 0.9], [True, True]) == 100.0
    assert aupr([0.9, 0.8, 0.1], [True, True, False]) == 100.0


def test_aupr_zero_positives_raises():
    with pytest.raises(MetricUndefinedError):
        aupr([0.4], [False])


def test_aupr_matches_sweep_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        scores, labels = random_scores(rng, int(rng.integers(2, 201)))
        assert abs(aupr(scores, labels) - sweep_oracle_aupr(scores, labels)) < 1e-9


def test_aupr_baseline_near_positive_rate():
    # With uninformative scores AUPR sits near the positive rate (30 here).
    rng = np.random.default_rng(31)
    assert 20.0 <= aupr(rng.random(300), rng.random(300) < 0.3) <= 40.0


def test_brier_values():
    assert brier([1.0, 0.0], [True, False]) == 0.0
    assert brier([0.5, 0.5, 0.5], [True, False, True]) == 25.0
    assert brier([0.0], [True]) == 100.0


def test_brier_out_of_range_raises():
    with pytest.raises(ValueError):
        brier([1.2], [True])


def test_brier_bounds_property():
    rng = np.random.default_rng(13)
    for _ in range(50):
        value = brier(rng.random(40), rng.random(40) < 0.5)
        assert 0.0 <= value <= 100.0
