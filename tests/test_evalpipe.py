"""Evaluation pipeline contracts: ground truths, sweeps, drop ratios, filtering."""

import numpy as np
import pytest

from codeshift import config
from codeshift import evalpipe as ep
from codeshift.metrics import is_correct
from codeshift.uncertainty import ScoreTable


def table(confidences, predicted, true, method="vanilla", variant="", split="validation"):
    confidence = np.array(confidences, dtype=np.float64)
    return ScoreTable(
        method=method,
        variant=variant,
        split=split,
        sample_ids=[f"{split}#{i}" for i in range(len(confidence))],
        raw=confidence,
        confidence=confidence,
        predicted=np.array(predicted, dtype=np.int64),
        true=np.array(true, dtype=np.int64),
    )


def correct(t):
    return is_correct(t.predicted, t.true)


def test_error_success_oracle_confidences():
    t = table([1.0, 1.0, 0.0, 0.0], [5, 6, 5, 2], [5, 6, 7, 9])
    result = ep.error_success_eval(t.confidence, correct(t))
    assert result["auc"] == 100.0
    assert result["brier"] == 0.0
    assert result["note"] is None


def test_error_success_constant_confidence_auc_50():
    t = table([0.5, 0.5], [5, 5], [5, 7])
    assert ep.error_success_eval(t.confidence, correct(t))["auc"] == 50.0


def test_error_success_single_class_diagnostic():
    t = table([0.9, 0.8], [5, 6], [5, 6])
    result = ep.error_success_eval(t.confidence, correct(t))
    assert result["auc"] is None
    assert "auc" in result["note"]
    assert result["aupr"] == 100.0  # all-positive is still defined
    assert result["brier"] is not None
    with pytest.raises(ValueError):
        ep.error_success_eval(np.array([]), np.array([], dtype=bool))


def test_unk_true_label_is_never_correct():
    assert not is_correct([0], [0])[0]
    assert is_correct([4], [4])[0]


def test_ood_eval_directions():
    val = np.full(4, 1.0)
    shifted = np.full(4, 0.0)
    result = ep.ood_eval(val, shifted)
    assert result["auc"] == 100.0
    assert result["brier"] == 0.0
    assert ep.ood_eval(np.full(5, 0.7), np.full(5, 0.7))["auc"] == 50.0
    with pytest.raises(ValueError):
        ep.ood_eval(val, np.array([]))


def test_threshold_sweep_monotone_counts():
    t = table([i / 10.0 for i in range(11)], [1 if i % 2 else 2 for i in range(11)], [1] * 11)
    rows = ep.threshold_sweep(t.confidence, correct(t))
    assert rows[0]["threshold"] == 0.0
    assert rows[0]["count"] == len(t)
    counts = [r["count"] for r in rows]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert rows[-1]["count"] == int((t.confidence >= 1.0).sum())


def test_threshold_sweep_matches_filter():
    confidences = [0.1, 0.3, 0.55, 0.8, 0.95, 1.0]
    t = table(confidences, [1 if i % 3 else 2 for i in range(6)], [1] * 6)
    rows = ep.threshold_sweep(t.confidence, correct(t))
    at = next(r for r in rows if abs(r["threshold"] - 0.5) < 1e-12)
    accepted = ep.input_filter(t.confidence, 0.5)
    assert at["count"] == int(accepted.sum())
    assert int(accepted.sum()) + int((~accepted).sum()) == len(t)
    # post-hoc AUC over the accepted set equals the sweep's value there
    assert ep.error_success_eval(t.confidence[accepted], correct(t)[accepted])["auc"] == at["auc"]


def test_input_filter_extremes():
    confidence = np.array([0.0, 0.4, 1.0])
    assert ep.input_filter(confidence, 0.0).all()
    assert not ep.input_filter(confidence, 1.01).any()


def test_drop_ratio_and_formatting():
    assert ep.drop_ratio(50.0, 45.0) == -10.0
    assert ep.drop_ratio(50.0, 50.0) == 0.0
    assert ep.accuracy_drop_report({"validation": 29.96, "test": 29.14})["test"]["formatted"] == "29.14(-2.74%)"
    assert ep.accuracy_drop_report({"validation": 50.0, "test": 50.0})["test"]["formatted"] == "50.00(0.00%)"


def test_accuracy_drop_report_rows():
    rows = ep.accuracy_drop_report({"validation": 50.0, "test1": 45.0, "test2": 55.0})
    assert rows["validation"] == {"accuracy": 50.0}
    assert rows["test1"]["drop_ratio"] == -10.0
    assert rows["test1"]["formatted"] == "45.00(-10.00%)"
    assert rows["test2"]["drop_ratio"] == 10.0
    with pytest.raises(ValueError):
        ep.accuracy_drop_report({"test1": 10.0})
    degenerate = ep.accuracy_drop_report({"validation": 0.0, "test1": 5.0})
    assert degenerate["test1"]["drop_ratio"] is None
    assert "zero" in degenerate["test1"]["note"]


def make_tables():
    tables = []
    for split, base in (("validation", 0.9), ("test1", 0.4)):
        for method, variant in (
            ("vanilla", ""),
            ("mmutant", "GF"),
            ("mmutant", "WS"),
            ("dissector", "linear"),
            ("dissector", "exp"),
        ):
            confidences = [round(base - (0.0 if i % 2 == 0 else 0.3) + i * 0.01, 3) for i in range(6)]
            predicted = [3 if i % 2 == 0 else 4 for i in range(6)]
            tables.append(table(confidences, predicted, [3] * 6, method, variant, split))
    return tables


def test_build_report_structure_and_flatten():
    tables = make_tables()
    report = ep.build_report(
        "cs", "project", tables, {"validation": 80.0, "test1": 40.0}, config_hash="deadbeef"
    )
    assert report["accuracy"]["test1"]["formatted"] == "40.00(-50.00%)"
    vanilla_block = report["error_success"]["validation"]["vanilla"]
    assert vanilla_block["auc"] is not None
    mm = report["error_success"]["test1"]["mmutant"]
    assert set(mm["variants"]) == {"GF", "WS"}
    assert mm["best"]["auc"]["variant"] in {"GF", "WS"}
    ood = report["ood"]["validation|test1"]
    assert "vanilla" in ood and "dissector" in ood
    assert ood["dissector"]["best"]["brier"]["variant"] in {"linear", "exp"}

    rows = config.flatten_report(report)
    assert any(r["eval"] == "ood" and r["method"] == "vanilla" for r in rows)
    assert any(r["variant"].startswith("best[auc]") for r in rows)


def test_report_roundtrip_files(tmp_path):
    tables = make_tables()
    report = ep.build_report("cc", "author", tables, {"validation": 70.0, "test1": 60.0}, config_hash="cafe")
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    config.write_json(json_path, report)
    config.write_report_csv(csv_path, config.flatten_report(report), config_hash="cafe")
    assert json_path.read_text().startswith("{")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# config_hash=cafe"
    assert lines[1].startswith("task,shift,eval,split,method,variant")


def test_sweep_csv(tmp_path):
    t = table([i / 5.0 for i in range(6)], [1 if i % 2 else 2 for i in range(6)], [1] * 6)
    rows = ep.threshold_sweep(t.confidence, correct(t))
    path = tmp_path / "sweep.csv"
    ep.write_sweep_csv(path, rows, config_hash="beef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=beef"
    assert lines[1] == "threshold,count,auc"
    assert len(lines) == 2 + 21


def test_best_per_metric():
    blocks = {
        "GF": {"auc": 60.0, "aupr": 50.0, "brier": 0.2},
        "WS": {"auc": 70.0, "aupr": None, "brier": 0.1},
        "NS": {"auc": 65.0, "aupr": 40.0, "brier": 0.3},
    }
    best = ep._best_per_metric(blocks)
    assert best["auc"] == {"value": 70.0, "variant": "WS"}
    assert best["aupr"] == {"value": 50.0, "variant": "GF"}  # undefined variants are skipped
    assert best["brier"] == {"value": 0.1, "variant": "WS"}  # lower is better
    undefined = ep._best_per_metric({"only": {"auc": None, "aupr": None, "brier": None}})
    assert undefined["auc"] == {"value": None, "variant": None}
