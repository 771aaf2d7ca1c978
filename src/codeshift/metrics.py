"""Threshold-independent binary metrics: AUC, AUPR, Brier.

All three take parallel `(scores, labels)` arrays (labels true = positive)
and return a Python float on a 0-100 scale. AUC is the Mann-Whitney rank
statistic (ties count 1/2), AUPR the non-interpolated step sum over a
descending-score sweep with tied scores processed as one group, and Brier
the mean squared error between a [0,1] confidence and the binary outcome.
"""

from __future__ import annotations

import numpy as np


class MetricUndefinedError(ValueError):
    """The metric is not defined for this label composition."""


def _arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors")
    if scores.size and not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores, labels


def _tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group index of every score and the size of every group, ascending by score."""
    _, group, sizes = np.unique(scores, return_inverse=True, return_counts=True)
    return group, sizes


def roc_auc(scores, labels) -> float:
    """P(random positive outranks random negative) * 100, ties as 1/2.

    Computed from average ranks; equal to the brute-force pairwise count.
    """
    scores, labels = _arrays(scores, labels)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("roc_auc needs at least one positive and one negative")
    group, sizes = _tie_groups(scores)
    first = np.cumsum(sizes) - sizes  # 0-based sorted position where each tie group starts
    last = first + sizes - 1
    # ranks are 1-based; a tied group gets the average rank
    ranks = ((first + last) / 2.0 + 1.0)[group]
    pos_rank_sum = ranks[labels].sum()
    numerator = pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(numerator / (n_pos * n_neg) * 100.0)


def aupr(scores, labels) -> float:
    """Area under precision-recall via sum of (R_k - R_{k-1}) * P_k, * 100."""
    scores, labels = _arrays(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise MetricUndefinedError("aupr needs at least one positive")
    group, sizes = _tie_groups(scores)
    # tie groups from the highest score down
    tp = np.cumsum(np.bincount(group[labels], minlength=sizes.size)[::-1])
    kept = np.cumsum(sizes[::-1])
    recall = tp / n_pos
    precision = tp / kept
    steps = np.diff(recall, prepend=0.0) * precision
    # cumsum adds left to right like the step-sum definition; np.sum would
    # add pairwise and round differently
    return float(np.cumsum(steps)[-1] * 100.0)


def brier(scores, labels) -> float:
    """Mean of (score - 1{positive})^2, * 100. Scores must already be in [0,1]."""
    scores, labels = _arrays(scores, labels)
    if scores.size == 0:
        raise MetricUndefinedError("brier needs at least one item")
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise ValueError("brier scores must lie in [0, 1]")
    outcome = labels.astype(np.float64)
    return float(np.mean((scores - outcome) ** 2) * 100.0)
