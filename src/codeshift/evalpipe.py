"""End-to-end evaluations over score tables.

Ground truths: error/success prediction labels a sample positive iff the
model predicted it correctly; in-/out-of-distribution detection labels
validation samples positive and shifted-split samples negative. Metric
results that are undefined for a score set (single-class) are reported as
explicit nulls with a reason, never as zeros or crashes.
"""

from __future__ import annotations

import numpy as np

from .config import VALIDATION_SPLIT, write_csv
from .metrics import MetricUndefinedError, aupr, brier, is_correct, roc_auc
from .uncertainty import ScoreTable

SWEEP_THRESHOLDS = np.linspace(0.0, 1.0, 21)  # [0, 1] in steps of 0.05


def _metric_block(scores: np.ndarray, labels: np.ndarray) -> dict:
    out: dict = {"auc": None, "aupr": None, "brier": None, "note": None}
    notes = []
    for name, metric in (("auc", roc_auc), ("aupr", aupr), ("brier", brier)):
        try:
            out[name] = metric(scores, labels)
        except MetricUndefinedError as exc:
            notes.append(f"{name}: {exc}")
    if notes:
        out["note"] = "; ".join(notes)
    return out


def error_success_eval(confidence, correct) -> dict:
    """AUC/AUPR/Brier for ranking correct (positive) over incorrect samples."""
    if len(confidence) == 0:
        raise ValueError("no scores to evaluate")
    return _metric_block(confidence, correct)


def ood_eval(validation_confidence, shifted_confidence) -> dict:
    """AUC/AUPR/Brier for ranking in-distribution (validation, positive)
    over shifted-split (negative) samples by confidence."""
    n_val, n_shifted = len(validation_confidence), len(shifted_confidence)
    if not n_val or not n_shifted:
        raise ValueError("ood_eval needs scores on both sides")
    scores = np.concatenate([validation_confidence, shifted_confidence])
    labels = np.repeat([True, False], [n_val, n_shifted])
    return _metric_block(scores, labels)


def threshold_sweep(confidence, correct) -> list[dict]:
    """Per threshold in [0, 1] steps of 0.05: retained count and the
    error/success AUC over retained samples (None when single-class)."""
    confidence = np.asarray(confidence)
    correct = np.asarray(correct)
    rows = []
    for threshold in SWEEP_THRESHOLDS:
        retained = confidence >= threshold
        auc = None
        if retained.any():
            try:
                auc = roc_auc(confidence[retained], correct[retained])
            except MetricUndefinedError:
                pass
        rows.append({"threshold": float(threshold), "count": int(retained.sum()), "auc": auc})
    return rows


def write_sweep_csv(path, rows: list[dict], config_hash: str) -> None:
    write_csv(path, config_hash, "threshold,count,auc", (
        f"{row['threshold']!r},{row['count']},{'' if row['auc'] is None else repr(row['auc'])}\n" for row in rows
    ))


# -- accuracy table -------------------------------------------------------


def drop_ratio(val_acc: float, test_acc: float) -> float:
    """Signed relative accuracy change in percent; negative = degradation."""
    if val_acc == 0:
        raise ValueError("validation accuracy is zero; drop ratio undefined")
    return (test_acc - val_acc) / val_acc * 100.0


def accuracy_drop_report(accuracies: dict[str, float]) -> dict:
    """Rows of accuracy plus signed drop ratio against the validation split.

    A zero validation accuracy makes the ratio undefined; those rows carry
    a null ratio and a reason instead of crashing the report.
    """
    if VALIDATION_SPLIT not in accuracies:
        raise ValueError(f"missing {VALIDATION_SPLIT!r} accuracy")
    val_acc = accuracies[VALIDATION_SPLIT]
    rows: dict[str, dict] = {VALIDATION_SPLIT: {"accuracy": val_acc}}
    for split, acc in accuracies.items():
        if split == VALIDATION_SPLIT:
            continue
        if val_acc == 0:
            rows[split] = {
                "accuracy": acc,
                "drop_ratio": None,
                "formatted": f"{acc:.2f}(n/a)",
                "note": "validation accuracy is zero; drop ratio undefined",
            }
        else:
            ratio = drop_ratio(val_acc, acc)
            rows[split] = {"accuracy": acc, "drop_ratio": ratio, "formatted": f"{acc:.2f}({ratio:.2f}%)"}
    return rows


# -- runtime input filter ----------------------------------------------------


def input_filter(confidence, threshold: float) -> np.ndarray:
    """Mask of the scored inputs accepted (prediction emitted) at the threshold;
    the rest are rejected."""
    return np.asarray(confidence) >= threshold


# -- report assembly -----------------------------------------------------------

_METRIC_DIRECTION = {"auc": True, "aupr": True, "brier": False}  # higher-is-better?


def _best_per_metric(variant_blocks: dict[str, dict]) -> dict:
    best: dict = {}
    for metric, higher in _METRIC_DIRECTION.items():
        candidates = [(name, block[metric]) for name, block in variant_blocks.items() if block[metric] is not None]
        if not candidates:
            best[metric] = {"value": None, "variant": None}
            continue
        name, value = (max if higher else min)(candidates, key=lambda nv: nv[1])
        best[metric] = {"value": value, "variant": name}
    return best


def _method_block(variant_blocks: dict[str, dict]) -> dict:
    """A method without variants reports its one block; one with variants
    reports every variant and the best variant per metric."""
    if list(variant_blocks) == [""]:
        return variant_blocks[""]
    return {"variants": variant_blocks, "best": _best_per_metric(variant_blocks)}


def build_report(
    task: str, shift: str, tables: list[ScoreTable], accuracies: dict[str, float], config_hash: str
) -> dict:
    """Assemble the full report for one (task, shift): accuracy rows,
    error/success per split, and in-/OOD detection per (validation, test).

    The tables are grouped once, by split, then method, then variant; both
    sections walk that map in sorted order. A (method, variant) enters the
    OOD section of a test split only when the validation split has it too.
    """
    grouped: dict[str, dict[str, dict[str, ScoreTable]]] = {}
    for t in tables:
        grouped.setdefault(t.split, {}).setdefault(t.method, {})[t.variant] = t
    splits = sorted(grouped)

    error_success = {
        split: {
            method: _method_block({
                v: error_success_eval(t.confidence, is_correct(t.predicted, t.true))
                for v, t in sorted(variants.items())
            })
            for method, variants in sorted(grouped[split].items())
        }
        for split in splits
    }

    validation = grouped.get(VALIDATION_SPLIT, {})
    ood: dict[str, dict] = {}
    for split in splits:
        if split == VALIDATION_SPLIT:
            continue
        per_method = {}
        for method, variants in sorted(grouped[split].items()):
            val = validation.get(method, {})
            blocks = {v: ood_eval(val[v].confidence, t.confidence) for v, t in sorted(variants.items()) if v in val}
            if blocks:
                per_method[method] = _method_block(blocks)
        ood[f"{VALIDATION_SPLIT}|{split}"] = per_method

    return {
        "task": task,
        "shift": shift,
        "config_hash": config_hash,
        "accuracy": accuracy_drop_report(accuracies),
        "error_success": error_success,
        "ood": ood,
    }
