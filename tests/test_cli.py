"""CLI contracts: exit codes, artifact layout, config hashing, defaults."""

import ctypes
import json
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codeshift
from codeshift import corpus, nn, tasks
from codeshift import uncertainty as uq
from codeshift.cli import TASKS, keep_heap, main
from codeshift.config import (
    DEFAULT_CONFIG,
    ConfigError,
    ValidationFailure,
    atomic_open,
    bucket_dir,
    config_hash,
    load_config,
    write_csv,
    write_json,
)
from codeshift.extraction import PAD_TOKEN, UNK_TOKEN, ContextFormatError, Vocabulary


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpus plus the pipeline artifacts for cs/project."""
    root = tmp_path_factory.mktemp("ws")
    config = {
        "train": {"embedding_dim": 16, "batch_size": 64, "epochs": 8},
        "uncertainty": {"mc_passes": 3, "mutant_count": 4, "probe_epochs": 3},
        "synth": {
            "timeline_files": 4,
            "project_files": 6,
            "author_files": {"alice": 5, "adam": 2, "mira": 2, "bogdan": 2},
        },
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    flags = ["--config", str(config_path)]
    assert main(["synth-corpus", *flags]) == 0
    assert main(["make-splits", "--shift", "project", *flags]) == 0
    assert main(["extract", "--task", "cs", "--shift", "project", *flags]) == 0
    assert main(["train", "--task", "cs", "--shift", "project", *flags]) == 0
    assert main(["score", "--task", "cs", "--shift", "project", *flags]) == 0
    assert main(["eval", "--task", "cs", "--shift", "project", *flags]) == 0
    return root, config_path, flags


def bucket_of(config_path):
    return bucket_dir(load_config(config_path))


@pytest.mark.parametrize("task", TASKS)
def test_train_checkpoint_echoes_the_train_section(workspace, tmp_path, task):
    # the fixture's corpus and training section, with a dropout and seed of their own and a work dir apart
    root, config_path, _ = workspace
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["paths"] = {"corpus_dir": str(root / "corpus"), "work_dir": str(tmp_path / "work")}
    doc["train"]["dropout"] = 0.25
    doc["seed"] = 7
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    flags = ["--config", str(tmp_path / "config.json"), "--shift", "project"]
    assert main(["make-splits", *flags]) == 0
    assert main(["extract", "--task", task, *flags]) == 0
    assert main(["train", "--task", task, *flags]) == 0
    config = load_config(tmp_path / "config.json")
    t = config["train"]
    ckpt = nn.read_checkpoint((bucket_dir(config) / "checkpoints" / f"{task}-project.ckpt").read_bytes())
    assert ckpt.config == {
        "dim": t["embedding_dim"],
        "dropout_p": t["dropout"] if task == "cs" else 0.0,  # CC trains without dropout
        "train": {
            "batch_size": t["batch_size"],
            "dropout": t["dropout"],
            "embedding_dim": t["embedding_dim"],
            "epochs": t["epochs"],
            "learning_rate": t["learning_rate"],
            "seed": 7,
            "config_hash": config_hash(config),
        },
    }


def test_default_config_carries_published_values():
    train = DEFAULT_CONFIG["train"]
    assert train["learning_rate"] == 0.001
    assert train["embedding_dim"] == 100
    assert train["dropout"] == 0.5
    assert train["optimizer"] == "adam"
    assert train["batch_size"] == 512
    assert train["epochs"] == 300
    assert DEFAULT_CONFIG["uncertainty"]["mutation_degree"] == 0.05
    assert DEFAULT_CONFIG["uncertainty"]["mc_dropout_p"] == 0.5


def test_task_choices_are_the_models():
    assert TASKS == tuple(tasks.MODELS)


def test_every_exit_2_error_is_a_validation_failure_of_its_old_base():
    for error, base in ((ConfigError, ValueError), (corpus.ManifestError, ValueError),
                        (ContextFormatError, ValueError), (uq.EstimatorStateError, RuntimeError),
                        (uq.ScoresFileError, ValueError)):
        assert issubclass(error, ValidationFailure) and issubclass(error, base), error


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_heap_policy_takes_on_glibc():
    assert keep_heap() == (1, 1)


def test_heap_policy_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a C library without `mallopt`
    assert keep_heap() == ()


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["train", "--task", "java"])
    assert exc.value.code == 1


def test_validation_errors_exit_2(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text("{}", encoding="utf-8")
    # eval before score
    assert main(["eval", "--task", "cs", "--shift", "project", "--config", str(config_path)]) == 2
    # train before extract
    assert main(["train", "--task", "cs", "--shift", "project", "--config", str(config_path)]) == 2
    # make-splits without a manifest
    assert main(["make-splits", "--shift", "timeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "manifest" in err


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"epochs": -1}}), encoding="utf-8")
    assert main(["synth-corpus", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
    assert main(["synth-corpus", "--config", str(unknown)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"paths": {"manifests": []}}, "paths.manifests"),
    ({"paths": {"manifests": {"timeline": 5}}}, "paths.manifests.timeline"),
    ({"paths": {"corpus_dir": 5}}, "paths.corpus_dir"),
    ({"synth": {"timeline_files": "x"}}, "synth.timeline_files"),
    ({"synth": {"author_files": {"alice": "x"}}}, "synth.author_files.alice"),
    ({"uncertainty": {"probe_epochs": 0}}, "uncertainty.probe_epochs"),
    ({"uncertainty": {"probe_learning_rate": -0.1}}, "uncertainty.probe_learning_rate"),
    ({"corpus": {"val_fraction": "x"}}, "corpus.val_fraction"),
    ({"seed": True}, "seed"),
    ({"synth": {"author_files": {}}}, "synth.author_files"),
    ({"paths": {"manifests": {"timelime": "m.json"}}}, "paths.manifests.timelime"),  # names no shift
    ({"synth": {"author_files": {"alice": 6, "adam": 3, "zed": 4}}}, "synth.author_files.zed"),  # names no author
    ({"synth": {"author_files": {"alice": 6, "adam": 3, "mira": 3}}}, "synth.author_files"),  # leaves bogdan out
])
def test_ill_typed_config_values_exit_2_naming_the_key(tmp_path, capsys, doc, key):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["synth-corpus"], ["make-splits", "--shift", "timeline"]):
        assert main([*command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and repr(key) in err


def rows_then_failure():
    yield "1,2\n"
    raise RuntimeError("the second row")


def write_raw(path, blob):
    with atomic_open(path, binary=True) as f:
        f.write(blob[:3])
        raise RuntimeError("mid-checkpoint")


# a writer that raises after writing part of the file: a CSV, a JSON document
# (its value for "b" is not JSON), and raw bytes
HALF_WRITES = {
    "csv": lambda path: write_csv(path, "hash", "a,b", rows_then_failure()),
    "json": lambda path: write_json(path, {"a": [1, 2], "b": object()}),
    "bytes": lambda path: write_raw(path, b"checkpoint"),
}


@pytest.mark.parametrize("name", sorted(HALF_WRITES))
def test_a_writer_that_raises_mid_file_leaves_the_earlier_file_and_nothing_else(tmp_path, name):
    path = tmp_path / f"artifact.{name}"
    path.write_bytes(b"the earlier file\n")
    with pytest.raises((RuntimeError, TypeError)):
        HALF_WRITES[name](path)
    assert path.read_bytes() == b"the earlier file\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file is left behind


def test_author_files_key_order_changes_neither_hash_nor_corpus(tmp_path):
    orders = ({"alice": 3, "adam": 2, "mira": 2, "bogdan": 2}, {"bogdan": 2, "mira": 2, "adam": 2, "alice": 3})
    hashes, trees = [], []
    for where, author_files in zip(("one", "two"), orders):
        config_path = tmp_path / where / "config.json"
        config_path.parent.mkdir()
        doc = {"synth": {"timeline_files": 2, "project_files": 2, "author_files": author_files}}
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["synth-corpus", "--config", str(config_path)]) == 0
        hashes.append(config_hash(load_config(config_path)))
        root = config_path.parent / "corpus"
        trees.append({p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()})
    assert hashes[0] == hashes[1]
    assert trees[0] == trees[1]


def test_artifact_layout_and_hash_embedding(workspace):
    root, config_path, flags = workspace
    bucket = bucket_of(config_path)
    hash_hex = config_hash(load_config(config_path))
    assert (bucket / "splits" / "project.json").is_file()
    splits_payload = json.loads((bucket / "splits" / "project.json").read_text())
    assert splits_payload["config"]["config_hash"] == hash_hex
    for split in ("train", "validation", "test1"):
        assert (bucket / "contexts" / f"cs-project-{split}.txt").is_file()
    assert (bucket / "checkpoints" / "cs-project.ckpt").is_file()
    log = (bucket / "logs" / "cs-project-epochs.csv").read_text().splitlines()
    assert log[0] == f"# config_hash={hash_hex}"
    assert log[1] == "epoch,train_acc,val_acc,loss"
    rows = [line.split(",") for line in log[2:]]
    assert [int(row[0]) for row in rows] == list(range(1, 9))  # the workspace trains 8 epochs
    assert [bool(row[1]) for row in rows] == [False] * 7 + [True]  # train_acc: final epoch only
    assert all(row[2] and row[3] for row in rows)  # val_acc and loss: every epoch
    report = json.loads((bucket / "reports" / "cs-project.json").read_text())
    assert report["config_hash"] == hash_hex

    for command in (["sweep", "--method", "vanilla"], ["filter", "--method", "vanilla", "--threshold", "0.5"]):
        assert main([*command, "--task", "cs", "--shift", "project", *flags]) == 0
    assert main(["report", *flags]) == 0
    csvs = sorted(bucket.rglob("*.csv"))
    assert {p.parent.name for p in csvs} == {"logs", "scores", "reports", "sweeps", "filtered"}
    for path in csvs:
        assert path.read_bytes().startswith(f"# config_hash={hash_hex}\n".encode()), path
    jsons = sorted(bucket.rglob("*.json"))
    assert {p.parent.name for p in jsons} == {"splits", "contexts", "reports"}
    for path in jsons:
        text = path.read_bytes().decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path  # one LF, sorted keys
    for path in bucket.rglob("*"):
        if path.is_file() and path.suffix != ".ckpt":
            assert b"\r" not in path.read_bytes(), path


def test_score_writes_one_csv_per_method_variant_split(workspace):
    root, config_path, flags = workspace
    bucket = bucket_of(config_path)
    scores = sorted(p.name for p in (bucket / "scores").glob("cs-project-*.csv"))
    splits = ("test1", "validation")
    expected = []
    for split in splits:
        expected.append(f"cs-project-vanilla-{split}.csv")
        expected.append(f"cs-project-temp_scale-{split}.csv")
        expected.append(f"cs-project-mc_dropout-{split}.csv")
        expected.extend(f"cs-project-mmutant-{op}-{split}.csv" for op in ("GF", "WS", "NS", "NAI"))
        expected.extend(f"cs-project-dissector-{g}-{split}.csv" for g in ("linear", "log", "exp"))
    assert scores == sorted(expected)
    one = (bucket / "scores" / "cs-project-vanilla-validation.csv").read_text().splitlines()
    assert one[1] == "sample_id,method,variant,raw_score,confidence,predicted,true,split"
    assert one[2].split(",")[7] == "validation"


def test_sweep_filter_report_commands(workspace):
    root, config_path, flags = workspace
    bucket = bucket_of(config_path)
    assert main(["sweep", "--task", "cs", "--shift", "project", "--method", "temp", *flags]) == 0
    sweep = (bucket / "reports" / "sweeps" / "cs-project-temp_scale-test1.csv").read_text().splitlines()
    assert sweep[1] == "threshold,count,auc"
    counts = [int(line.split(",")[1]) for line in sweep[2:]]
    assert all(a >= b for a, b in zip(counts, counts[1:]))

    assert main(["filter", "--task", "cs", "--shift", "project", "--method", "dissector",
                 "--variant", "exp", "--threshold", "0.5", *flags]) == 0
    accepted = (bucket / "filtered" / "cs-project-dissector-exp-test1-accepted.csv").read_text().splitlines()
    rejected = (bucket / "filtered" / "cs-project-dissector-exp-test1-rejected.csv").read_text().splitlines()
    n_records = sum(1 for line in (bucket / "scores" / "cs-project-dissector-exp-test1.csv").read_text().splitlines()[2:] if line)
    assert (len(accepted) - 2) + (len(rejected) - 2) == n_records

    assert main(["report", *flags]) == 0
    merged = json.loads((bucket / "reports" / "all.json").read_text())
    assert len(merged["reports"]) == 1

    # filtering on a variant the method does not have is a validation error
    assert main(["filter", "--task", "cs", "--shift", "project", "--method", "vanilla",
                 "--variant", "GF", "--threshold", "0.5", *flags]) == 2


def test_seed_override_changes_bucket(workspace):
    root, config_path, flags = workspace
    base = load_config(config_path)
    seeded = load_config(config_path, {"seed": 9})
    assert config_hash(base) != config_hash(seeded)
    assert bucket_dir(base) != bucket_dir(seeded)


def test_mc_dropout_scores_differ_from_vanilla(workspace):
    # dropout is active at score time for CS, so confidences must not all
    # collapse onto the vanilla ones
    root, config_path, flags = workspace
    bucket = bucket_of(config_path)
    def confs(name):
        lines = (bucket / "scores" / name).read_text().splitlines()[2:]
        return [float(l.split(",")[4]) for l in lines if l]
    vanilla = confs("cs-project-vanilla-test1.csv")
    mc = confs("cs-project-mc_dropout-test1.csv")
    assert vanilla != mc


def test_sweep_and_report_csvs_spell_metrics_like_all_csv(workspace):
    root, config_path, flags = workspace
    bucket = bucket_of(config_path)
    assert main(["sweep", "--task", "cs", "--shift", "project", "--method", "vanilla", *flags]) == 0
    assert main(["report", *flags]) == 0
    sweep_path = bucket / "reports" / "sweeps" / "cs-project-vanilla-test1.csv"
    report_path = bucket / "reports" / "cs-project.csv"
    all_path = bucket / "reports" / "all.csv"
    for path in (sweep_path, report_path):
        assert "np." not in path.read_text()

    def rows(path):
        lines = path.read_text().splitlines()[1:]
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    key = ("eval", "split", "method", "variant")
    merged = {tuple(r[k] for k in key): r for r in rows(all_path)}
    report_rows = rows(report_path)
    assert report_rows
    for row in report_rows:
        for metric in ("auc", "aupr", "brier"):
            assert row[metric] == merged[tuple(row[k] for k in key)][metric]
    # the sweep at threshold 0 keeps every row, so its AUC is the report's
    # error/success AUC for the same split
    sweep_auc = rows(sweep_path)[0]["auc"]
    assert sweep_auc == merged[("error_success", "test1", "vanilla", "")]["auc"]


def test_filter_rejected_inputs_carry_no_prediction(workspace):
    root, config_path, flags = workspace
    bucket = bucket_of(config_path)
    assert main(["filter", "--task", "cs", "--shift", "project", "--method", "vanilla",
                 "--threshold", "1.0", *flags]) == 0
    accepted = (bucket / "filtered" / "cs-project-vanilla-test1-accepted.csv").read_text().splitlines()
    rejected = (bucket / "filtered" / "cs-project-vanilla-test1-rejected.csv").read_text().splitlines()
    assert accepted[1:] == ["sample_id,confidence,predicted"]
    assert rejected[1] == "sample_id,confidence"
    assert len(rejected) > 2 and all(len(line.split(",")) == 2 for line in rejected[2:])


# -- corrupt artifacts ---------------------------------------------------------------


def scores_only_bucket(tmp_path):
    """A bucket holding only vanilla score files for cs/project; no model."""
    config_path = tmp_path / "config.json"
    config_path.write_text("{}", encoding="utf-8")
    scores = bucket_of(config_path) / "scores"
    scores.mkdir(parents=True)
    for split in ("validation", "test1"):
        n = 6
        confidence = np.linspace(0.2, 0.9, n)
        table = uq.ScoreTable(
            method="vanilla", variant="", split=split,
            sample_ids=[f"{split}#{i}" for i in range(n)],
            raw=confidence, confidence=confidence,
            predicted=np.arange(n) % 2 + 2, true=np.full(n, 2),
        )
        uq.write_scores_csv(scores / f"cs-project-vanilla-{split}.csv", table, "feed")
    return config_path, scores / "cs-project-vanilla-test1.csv"


CORRUPTIONS = {
    "field_count": lambda fields: fields[:-1],
    "non_numeric_score": lambda fields: fields[:3] + ["abc"] + fields[4:],
    "non_finite_score": lambda fields: fields[:3] + ["inf"] + fields[4:],
    "confidence_above_one": lambda fields: fields[:4] + ["1.5"] + fields[5:],
    "mixed_method": lambda fields: fields[:1] + ["temp_scale"] + fields[2:],
    "mixed_variant": lambda fields: fields[:2] + ["GF"] + fields[3:],
    "mixed_split": lambda fields: fields[:7] + ["test2"],
}
READERS = {
    "eval": ["eval"],
    "sweep": ["sweep", "--method", "vanilla"],
    "filter": ["filter", "--method", "vanilla", "--threshold", "0.5"],
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("command", sorted(READERS))
def test_corrupt_score_csv_exits_2_naming_file_and_line(tmp_path, capsys, command, corruption):
    config_path, target = scores_only_bucket(tmp_path)
    lines = target.read_text().splitlines()
    lines[3] = ",".join(CORRUPTIONS[corruption](lines[3].split(",")))  # line 4 of the file
    target.write_text("\n".join(lines) + "\n")
    argv = [READERS[command][0], "--task", "cs", "--shift", "project", *READERS[command][1:]]
    assert main([*argv, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{target}, line 4" in err
    assert "runtime error" not in err


def test_score_csv_rows_whose_comma_errors_cancel_name_the_first_line(tmp_path, capsys):
    config_path, target = scores_only_bucket(tmp_path)
    lines = target.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1])  # line 4: 6 commas
    lines[4] += ",extra"  # line 5: 8 commas, so the file's comma total is right
    target.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--task", "cs", "--shift", "project", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{target}, line 4: expected 8 fields, got 7" in err


@pytest.mark.parametrize("threshold", ["nan", "-0.1", "1.5"])
def test_filter_threshold_outside_unit_interval_exits_2(tmp_path, capsys, threshold):
    config_path, _ = scores_only_bucket(tmp_path)
    argv = ["filter", "--task", "cs", "--shift", "project", "--method", "vanilla", "--threshold", threshold]
    assert main([*argv, "--config", str(config_path)]) == 2
    assert "--threshold" in capsys.readouterr().err
    assert not (bucket_of(config_path) / "filtered").exists()


@pytest.mark.parametrize("threshold, accepted", [("0", 6), ("1", 0)])
def test_filter_threshold_bounds_are_accepted(tmp_path, threshold, accepted):
    config_path, _ = scores_only_bucket(tmp_path)
    argv = ["filter", "--task", "cs", "--shift", "project", "--method", "vanilla", "--threshold", threshold]
    assert main([*argv, "--config", str(config_path)]) == 0
    rows = (bucket_of(config_path) / "filtered" / "cs-project-vanilla-test1-accepted.csv").read_text().splitlines()
    assert len(rows) - 2 == accepted


@pytest.mark.parametrize("damage", ["truncated", "wrong_kind", "config_not_json", "config_nested_too_deep", "zero_dim"])
def test_corrupt_checkpoint_exits_2_naming_file(tmp_path, capsys, damage):
    config_path = tmp_path / "config.json"
    config_path.write_text("{}", encoding="utf-8")
    ckpt = bucket_of(config_path) / "checkpoints" / "cs-project.ckpt"
    ckpt.parent.mkdir(parents=True)
    vocab = Vocabulary.from_tokens([UNK_TOKEN, PAD_TOKEN, "a", "b"])
    blob = tasks.save_checkpoint(tasks.PathAttentionModel(vocab, vocab, vocab, dim=4))
    if damage == "truncated":
        ckpt.write_bytes(blob[: len(blob) // 2])
    elif damage == "wrong_kind":
        ckpt.write_bytes(tasks.save_checkpoint(tasks.MlpCompletionModel(vocab, dim=4)))
    elif damage == "config_nested_too_deep":  # the config JSON swapped, with its length prefix
        at = 4 + 4 + 2 + len(b"cs")  # magic, version, the kind's length and the kind
        (size,) = struct.unpack_from("<I", blob, at)
        deep = NESTED_TOO_DEEP.encode("utf-8")
        ckpt.write_bytes(blob[:at] + struct.pack("<I", len(deep)) + deep + blob[at + 4 + size:])
    else:  # one byte changed in the config JSON, so every length prefix still holds
        old, new = (b'{"dim"', b'["dim"') if damage == "config_not_json" else (b'"dim": 4', b'"dim": 0')
        ckpt.write_bytes(blob.replace(old, new, 1))
    assert main(["score", "--task", "cs", "--shift", "project", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err
    assert "runtime error" not in err


def test_score_runs_the_deterministic_forward_once_per_split(workspace, monkeypatch):
    root, config_path, flags = workspace
    calls, head_calls = [], []
    infer_batches = tasks.infer_batches

    def counting_infer_batches(model, samples, *args, **kwargs):
        if kwargs.get("rng") is None:
            (calls if kwargs.get("features") is None else head_calls).append(len(samples))
        return infer_batches(model, samples, *args, **kwargs)

    monkeypatch.setattr(tasks, "infer_batches", counting_infer_batches)
    assert main(["score", "--task", "cs", "--shift", "project", *flags]) == 0
    mutant_count = load_config(config_path)["uncertainty"]["mutant_count"]
    splits = ("validation", "test1")
    # fit: the probes on train (the temperature reads the validation split's
    # shared forward); then per split one shared forward plus one full pass
    # per GF mutant, which perturbs the embeddings. WS, NS and NAI mutants
    # run only the head, on the shared forward's features with the combiner
    # columns they changed recomputed.
    assert len(calls) == 1 + len(splits) * (1 + mutant_count)
    assert len(head_calls) == len(splits) * 3 * mutant_count


def test_sweep_and_filter_read_only_their_method(tmp_path, capsys):
    config_path, _ = scores_only_bucket(tmp_path)
    other = bucket_of(config_path) / "scores" / "cs-project-temp_scale-test1.csv"
    other.write_text("# config_hash=feed\nnot a score file\n")
    flags = ["--task", "cs", "--shift", "project", "--config", str(config_path)]
    assert main(["sweep", "--method", "vanilla", *flags]) == 0
    assert main(["filter", "--method", "vanilla", "--threshold", "0.5", *flags]) == 0
    capsys.readouterr()
    assert main(["eval", *flags]) == 2
    err = capsys.readouterr().err
    assert str(other) in err
    assert "runtime error" not in err


def test_score_file_named_for_another_method_exits_2(tmp_path, capsys):
    config_path, target = scores_only_bucket(tmp_path)
    target.write_text(target.read_text().replace(",vanilla,", ",temp_scale,"))
    assert main(["sweep", "--method", "vanilla", "--task", "cs", "--shift", "project",
                 "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err and "temp_scale" in err


# each task's context-file lines and its vocabularies' tokens after the reserved UNK and PAD
CONTEXT_FIXTURE = {
    "cs": (
        ["addPair a,Name↑Call↓Name,b a,Name↑Call↓Name,c", "subPair b,Name↑Call↓Name,c"],
        {"terminals": ["a", "b", "c"], "paths": ["Name↑Call↓Name"], "labels": ["addPair", "subPair"]},
    ),
    "cc": (["b a <PAD> c a", "c b a <PAD> <PAD>"], {"tokens": ["a", "b", "c"]}),
}


def contexts_bucket(tmp_path, task):
    """A bucket holding only the train/validation context files and the vocab file of `task`/project."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"train": {"embedding_dim": 4, "epochs": 1}}), encoding="utf-8")
    contexts = bucket_of(config_path) / "contexts"
    contexts.mkdir(parents=True)
    lines, vocabs = CONTEXT_FIXTURE[task]
    for split in ("train", "validation"):
        (contexts / f"{task}-project-{split}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = {"vocabs": {name: [UNK_TOKEN, PAD_TOKEN, *tokens] for name, tokens in vocabs.items()}}
    (contexts / f"{task}-project-vocabs.json").write_text(json.dumps(payload), encoding="utf-8")
    return config_path, contexts


NOT_UTF8 = b"b a \xff c a\n"
def score_bytes(config_path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((bucket_of(config_path) / "scores").glob("*.csv"))}


@pytest.mark.parametrize("rewrite", ["reordered", "extra_tokens"])
@pytest.mark.parametrize("task", ["cs", "cc"])
def test_score_encodes_with_the_checkpoints_vocabularies(tmp_path, capsys, task, rewrite):
    config_path, contexts = contexts_bucket(tmp_path, task)
    # the validation split holds tokens the training split lacks, which encode as UNK
    unseen = "zeroPair z,Name↑Call↓Name,z" if task == "cs" else "z a <PAD> c z"
    with open(contexts / f"{task}-project-validation.txt", "a", encoding="utf-8") as f:
        f.write(unseen + "\n")
    flags = ["--task", task, "--shift", "project", "--config", str(config_path)]
    assert main(["train", *flags]) == 0
    assert main(["score", *flags]) == 0
    clean = score_bytes(config_path)
    assert clean
    target = contexts / f"{task}-project-vocabs.json"
    vocabs = json.loads(target.read_text(encoding="utf-8"))["vocabs"]
    for name, tokens in vocabs.items():
        reserved, rest = tokens[:2], tokens[2:]
        vocabs[name] = reserved + (rest[::-1] if rewrite == "reordered" else rest + ["z", "zeroPair"])
    target.write_text(json.dumps({"vocabs": vocabs}), encoding="utf-8")
    for path in (bucket_of(config_path) / "scores").glob("*.csv"):
        path.unlink()
    capsys.readouterr()
    assert main(["score", *flags]) == 0, capsys.readouterr().err
    assert score_bytes(config_path) == clean


@pytest.mark.parametrize("task", ["cs", "cc"])
@pytest.mark.parametrize("split", ["validation", "test1"])
def test_score_on_an_empty_split_exits_2_naming_file(tmp_path, capsys, task, split):
    config_path, contexts = contexts_bucket(tmp_path, task)
    flags = ["--task", task, "--shift", "project", "--config", str(config_path)]
    assert main(["train", *flags]) == 0
    target = contexts / f"{task}-project-{split}.txt"
    target.write_text("", encoding="utf-8")
    assert_exit_2_naming(["score", *flags[:4]], config_path, target, capsys)


@pytest.mark.parametrize("task", ["cs", "cc"])
def test_score_reads_the_training_split_only_for_an_estimator_fit_on_it(tmp_path, capsys, task):
    config_path, contexts = contexts_bucket(tmp_path, task)
    flags = ["--task", task, "--shift", "project", "--config", str(config_path)]
    assert main(["train", *flags]) == 0
    target = contexts / f"{task}-project-train.txt"
    target.unlink()
    capsys.readouterr()
    assert main(["score", *flags, "--method", "vanilla"]) == 0, capsys.readouterr().err
    assert sorted(score_bytes(config_path)) == [f"{task}-project-vanilla-validation.csv"]
    assert_exit_2_naming(["score", *flags[:4], "--method", "dissector"], config_path, target, capsys)


@pytest.mark.parametrize("task", ["cs", "cc"])
def test_train_with_an_empty_validation_split_reports_no_val_acc(tmp_path, capsys, task):
    config_path, contexts = contexts_bucket(tmp_path, task)
    (contexts / f"{task}-project-validation.txt").write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--task", task, "--shift", "project", "--config", str(config_path)]) == 0
    assert "val_acc=n/a" in capsys.readouterr().out
    log = bucket_of(config_path) / "logs" / f"{task}-project-epochs.csv"
    assert log.read_text(encoding="utf-8").splitlines()[-1].split(",")[2] == ""


@pytest.mark.parametrize("task", ["cs", "cc"])
def test_train_on_an_empty_training_split_exits_2_naming_file(tmp_path, capsys, task):
    config_path, contexts = contexts_bucket(tmp_path, task)
    target = contexts / f"{task}-project-train.txt"
    target.write_text("", encoding="utf-8")
    assert_exit_2_naming(["train", "--task", task, "--shift", "project"], config_path, target, capsys)


def assert_exit_2_naming(argv, config_path, target, capsys):
    capsys.readouterr()
    assert main([*argv, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err
    assert "runtime error" not in err


@pytest.mark.parametrize("command", sorted(READERS))
def test_score_csv_not_utf8_exits_2_naming_file(tmp_path, capsys, command):
    config_path, target = scores_only_bucket(tmp_path)
    target.write_bytes(target.read_bytes() + NOT_UTF8)
    argv = [READERS[command][0], "--task", "cs", "--shift", "project", *READERS[command][1:]]
    assert_exit_2_naming(argv, config_path, target, capsys)


def synth_bucket(tmp_path):
    """A tiny synthetic corpus with its manifests; nothing else run."""
    config_path = tmp_path / "config.json"
    synth = {"timeline_files": 2, "project_files": 6, "author_files": {"alice": 2, "adam": 1, "mira": 1, "bogdan": 1}}
    config_path.write_text(json.dumps({"synth": synth}), encoding="utf-8")
    assert main(["synth-corpus", "--config", str(config_path)]) == 0
    return config_path, tmp_path / "corpus"


def truncate(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")


def test_manifest_not_utf8_exits_2_naming_file(tmp_path, capsys):
    config_path, corpus_root = synth_bucket(tmp_path)
    target = corpus_root / "manifest_timeline.json"
    target.write_bytes(target.read_bytes().replace(b'"timeline"', b'"time\xffline"', 1))
    assert_exit_2_naming(["make-splits", "--shift", "timeline"], config_path, target, capsys)


def test_java_nested_past_the_recursion_limit_exits_2_naming_file_and_line(tmp_path, capsys):
    config_path, corpus_root = synth_bucket(tmp_path)
    assert main(["make-splits", "--shift", "project", "--config", str(config_path)]) == 0
    splits = json.loads((bucket_of(config_path) / "splits" / "project.json").read_text(encoding="utf-8"))
    rel = splits["assignment"]["splits"]["train"][0]
    target = corpus_root / rel
    text = target.read_text(encoding="utf-8")
    end = text.rindex("}")
    deep = "\n    int deep() { return " + "(" * 1000 + "1" + ")" * 1000 + "; }\n"
    target.write_text(text[:end] + deep + text[end:], encoding="utf-8")
    line = text[:end].count("\n") + 2
    capsys.readouterr()
    assert main(["extract", "--task", "cs", "--shift", "project", "--config", str(config_path)]) == 2
    assert f"{rel}: line {line}: nesting too deep to parse" in capsys.readouterr().err
    assert main(["extract", "--task", "cc", "--shift", "project", "--config", str(config_path)]) == 0


def test_a_one_token_source_file_trains_and_scores(tmp_path, capsys):
    config_path, corpus_root = synth_bucket(tmp_path)
    assert main(["make-splits", "--shift", "project", "--config", str(config_path)]) == 0
    target = bucket_of(config_path) / "splits" / "project.json"
    payload = json.loads(target.read_text(encoding="utf-8"))
    payload["assignment"]["splits"]["train"].append("One.java")
    target.write_text(json.dumps(payload), encoding="utf-8")
    (corpus_root / "One.java").write_text("x\n", encoding="utf-8")
    for command in ("extract", "train", "score"):
        assert main([command, "--task", "cc", "--shift", "project", "--config", str(config_path)]) == 0, command
    contexts = bucket_of(config_path) / "contexts" / "cc-project-train.txt"
    assert not any(set(line.split()[1:]) == {PAD_TOKEN} for line in contexts.read_text(encoding="utf-8").splitlines())


def test_splits_files_do_not_depend_on_where_the_study_runs(tmp_path):
    splits = []
    for root in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        root.mkdir(parents=True)
        config_path, _ = synth_bucket(root)
        assert main(["make-splits", "--shift", "project", "--config", str(config_path)]) == 0
        splits.append(bucket_of(config_path) / "splits" / "project.json")
    assert splits[0].read_bytes() == splits[1].read_bytes()
    assert json.loads(splits[0].read_text(encoding="utf-8"))["assignment"]["base_dir"] == "../../../corpus"
    # the whole study directory moves (its old path is gone), and extract still finds the corpus
    moved = tmp_path / "moved"
    (tmp_path / "a").rename(moved)
    assert main(["extract", "--task", "cc", "--shift", "project", "--config", str(moved / "config.json")]) == 0


def test_splits_file_with_an_absolute_corpus_path_still_loads(tmp_path, monkeypatch):
    config_path, corpus_root = synth_bucket(tmp_path)
    assert main(["make-splits", "--shift", "project", "--config", str(config_path)]) == 0
    target = bucket_of(config_path) / "splits" / "project.json"
    payload = json.loads(target.read_text(encoding="utf-8"))
    payload["assignment"]["base_dir"] = str(corpus_root.resolve())
    target.write_text(json.dumps(payload), encoding="utf-8")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")  # an absolute path does not depend on the working directory
    assert main(["extract", "--task", "cc", "--shift", "project", "--config", str(config_path)]) == 0


@pytest.mark.parametrize("task", TASKS)
def test_extract_without_a_train_split_exits_2_before_writing_any_contexts(tmp_path, capsys, task):
    config_path, _ = synth_bucket(tmp_path)
    assert main(["make-splits", "--shift", "project", "--config", str(config_path)]) == 0
    bucket = bucket_of(config_path)
    edit_json(lambda payload: payload["assignment"]["splits"].pop("train"))(bucket / "splits" / "project.json")
    capsys.readouterr()
    assert main(["extract", "--task", task, "--shift", "project", "--config", str(config_path)]) == 2
    assert "assignment has no 'train' split" in capsys.readouterr().err
    assert list(bucket.glob("contexts/*.txt")) == []


# -- one table of malformed artifacts -------------------------------------------------
#
# Each row names an artifact, a corruption and the command that reads it. The
# intact artifact passes the command; the corrupted one exits 2 with a message
# that names the file and no "runtime error".


def config_artifact(tmp_path, request):
    config_path, _ = synth_bucket(tmp_path)
    return config_path, config_path


def manifest_artifact(tmp_path, request):
    config_path, corpus_root = synth_bucket(tmp_path)
    return config_path, corpus_root / "manifest_project.json"


def snapshot_artifact(tmp_path, request):
    """The timeline shift's first snapshot sidecar; validation takes one of its two train files."""
    config_path, corpus_root = synth_bucket(tmp_path)
    edit_json(lambda config: config.__setitem__("corpus", {"val_fraction": 0.5}))(config_path)
    return config_path, corpus_root / "timeline" / "v1" / "snapshot.json"


def splits_artifact(tmp_path, request):
    config_path, _ = synth_bucket(tmp_path)
    assert main(["make-splits", "--shift", "project", "--config", str(config_path)]) == 0
    return config_path, bucket_of(config_path) / "splits" / "project.json"


def source_artifact(tmp_path, request):
    """The first Java source of the project shift's train split."""
    config_path, splits = splits_artifact(tmp_path, request)
    rel = json.loads(splits.read_text(encoding="utf-8"))["assignment"]["splits"]["train"][0]
    return config_path, corpus_of(splits) / rel


def contexts_artifact(task, name):
    def build(tmp_path, request):
        config_path, contexts = contexts_bucket(tmp_path, task)
        return config_path, contexts / f"{task}-project-{name}"
    return build


def checkpoint_artifact(tmp_path, request):
    config_path, _ = contexts_bucket(tmp_path, "cc")
    assert main(["train", "--task", "cc", "--shift", "project", "--config", str(config_path)]) == 0
    return config_path, bucket_of(config_path) / "checkpoints" / "cc-project.ckpt"


def scores_artifact(tmp_path, request):
    return scores_only_bucket(tmp_path)


def report_artifact(tmp_path, request):
    _, workspace_config, _ = request.getfixturevalue("workspace")
    config_path = tmp_path / "config.json"
    config_path.write_text("{}", encoding="utf-8")
    source = bucket_of(workspace_config) / "reports" / "cs-project.json"
    target = bucket_of(config_path) / "reports" / source.name
    target.parent.mkdir(parents=True)
    target.write_bytes(source.read_bytes())
    return config_path, target


def edit_json(edit):
    """A corruption that rewrites the JSON document in place with `edit`."""
    def corrupt(target):
        payload = json.loads(target.read_text(encoding="utf-8"))
        edit(payload)
        target.write_text(json.dumps(payload), encoding="utf-8")
        return target
    return corrupt


def write(content):
    def corrupt(target):
        target.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        return target
    return corrupt


def write_naming_line(content, line):
    """`write`, whose error must name the file's line `line` (`<file>:<line>`)."""
    def corrupt(target):
        return f"{write(content)(target)}:{line}"
    return corrupt


def set_train_selector(key, value):
    return edit_json(lambda payload: payload["splits"]["train"][0].__setitem__(key, value))


def set_first_sidecar_path(rewrite):
    """The sidecar's first file entry names its file as `rewrite(sidecar, path)` returns."""
    def corrupt(target):
        def edit(payload):
            entry = payload["files"][0]
            entry["path"] = rewrite(target, entry["path"])
        return edit_json(edit)(target)
    return corrupt


def set_train_split(files):
    return edit_json(lambda payload: payload["assignment"]["splits"].__setitem__("train", files))


def corpus_of(payload_path):
    """The corpus directory a splits document points at, resolved as `extract` resolves it."""
    payload = json.loads(payload_path.read_text(encoding="utf-8"))
    return (payload_path.parent / payload["assignment"]["base_dir"]).resolve()


def unreadable_train_entry(rel):
    """The train split also lists `rel`, which names no readable file; the error names its path."""
    def corrupt(target):
        edit_json(lambda payload: payload["assignment"]["splits"]["train"].append(rel))(target)
        return corpus_of(target) / rel
    return corrupt


def edit_source(edit):
    """A corruption that rewrites the Java source text in place with `edit`."""
    def corrupt(target):
        target.write_text(edit(target.read_text(encoding="utf-8")), encoding="utf-8")
        return target
    return corrupt


def before_last_brace(text: str, inserted: str) -> str:
    end = text.rindex("}")
    return text[:end] + inserted + text[end:]


def delete_vanilla_validation(target):
    """Delete the vanilla validation scores beside `target`; eval's error must name them and say to run `score`."""
    gone = target.with_name("cs-project-vanilla-validation.csv")
    gone.unlink()
    return f"{gone}; run `score --task cs --shift project` first"


def score_field(index, value):
    def corrupt(target):
        lines = target.read_text(encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        fields[index] = value
        lines[3] = ",".join(fields)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return f"{target}, line 4"
    return corrupt


NESTED_TOO_DEEP = "[" * 200_000 + "]" * 200_000  # deeper than the interpreter recurses
MAKE_SPLITS = ["make-splits", "--shift", "project"]
MAKE_TIMELINE_SPLITS = ["make-splits", "--shift", "timeline"]
EXTRACT_CC = ["extract", "--task", "cc", "--shift", "project"]
EXTRACT_CS = ["extract", "--task", "cs", "--shift", "project"]
TRAIN_CS = ["train", "--task", "cs", "--shift", "project"]
TRAIN_CC = ["train", "--task", "cc", "--shift", "project"]
SWEEP_CS = ["sweep", "--task", "cs", "--shift", "project", "--method", "vanilla"]
FILTER_CS = ["filter", "--task", "cs", "--shift", "project", "--method", "vanilla", "--threshold", "0.5"]
MALFORMED = {  # id: (artifact, corruption, command)
    "config_not_utf8": (config_artifact, write(b'{"seed": 1\xff}'), MAKE_SPLITS),
    "config_nested_too_deep": (config_artifact, write(NESTED_TOO_DEEP), MAKE_SPLITS),
    "manifest_nested_too_deep": (manifest_artifact, write(NESTED_TOO_DEEP), MAKE_SPLITS),
    "snapshot_nested_too_deep": (snapshot_artifact, write(NESTED_TOO_DEEP), MAKE_TIMELINE_SPLITS),
    "splits_nested_too_deep": (splits_artifact, write(NESTED_TOO_DEEP), EXTRACT_CC),
    "vocab_nested_too_deep": (contexts_artifact("cc", "vocabs.json"), write(NESTED_TOO_DEEP), TRAIN_CC),
    "report_nested_too_deep": (report_artifact, write(NESTED_TOO_DEEP), ["report"]),
    "manifest_truncated": (manifest_artifact, lambda target: truncate(target) or target, MAKE_SPLITS),
    "manifest_a_list": (manifest_artifact, write("[]"), MAKE_SPLITS),
    "manifest_without_train": (manifest_artifact, edit_json(lambda payload: payload["splits"].pop("train")), MAKE_SPLITS),
    "manifest_root_not_a_string": (manifest_artifact, set_train_selector("root", 5), MAKE_SPLITS),
    "manifest_author_not_a_string": (manifest_artifact, set_train_selector("author", ["alice"]), MAKE_SPLITS),
    "snapshot_truncated": (snapshot_artifact, lambda target: truncate(target) or target, MAKE_TIMELINE_SPLITS),
    "snapshot_not_an_object": (snapshot_artifact, write("[]"), MAKE_TIMELINE_SPLITS),
    "snapshot_entry_without_path": (snapshot_artifact, write('{"files": [{"author": "x"}]}'), MAKE_TIMELINE_SPLITS),
    "snapshot_path_through_parent": (
        snapshot_artifact,
        set_first_sidecar_path(lambda sidecar, rel: f"../{sidecar.parent.name}/{rel}"),
        MAKE_TIMELINE_SPLITS,
    ),
    "snapshot_path_absolute": (
        snapshot_artifact, set_first_sidecar_path(lambda sidecar, rel: str(sidecar.parent / rel)), MAKE_TIMELINE_SPLITS
    ),
    "splits_truncated": (splits_artifact, lambda target: truncate(target) or target, EXTRACT_CC),
    "splits_missing_file": (splits_artifact, unreadable_train_entry("nope.java"), EXTRACT_CC),
    "splits_directory_entry": (splits_artifact, unreadable_train_entry("."), EXTRACT_CC),
    "splits_number_entry": (splits_artifact, set_train_split(["A.java", 7]), EXTRACT_CC),
    "splits_split_not_a_list": (splits_artifact, set_train_split(3), EXTRACT_CC),
    "splits_not_an_object": (
        splits_artifact, edit_json(lambda payload: payload["assignment"].__setitem__("splits", [])), EXTRACT_CC
    ),
    "splits_base_dir_not_a_string": (
        splits_artifact, edit_json(lambda payload: payload["assignment"].__setitem__("base_dir", 5)), EXTRACT_CC
    ),
    "source_not_utf8_cc": (source_artifact, lambda target: write(target.read_bytes() + NOT_UTF8)(target), EXTRACT_CC),
    "source_not_utf8_cs": (source_artifact, lambda target: write(target.read_bytes() + NOT_UTF8)(target), EXTRACT_CS),
    "source_missing": (source_artifact, lambda target: target.unlink() or target, EXTRACT_CC),
    "source_a_directory": (source_artifact, lambda target: target.unlink() or target.mkdir() or target, EXTRACT_CC),
    "source_nul_byte_cc": (source_artifact, edit_source(lambda text: before_last_brace(text, "\0")), EXTRACT_CC),
    "source_nul_byte_cs": (source_artifact, edit_source(lambda text: before_last_brace(text, "\0")), EXTRACT_CS),
    "source_unbalanced_braces": (source_artifact, edit_source(lambda text: text[:text.rindex("}")]), EXTRACT_CS),
    "source_nested_too_deep": (
        source_artifact,
        edit_source(lambda text: before_last_brace(text, "int deep() { return " + "(" * 1000 + "1" + ")" * 1000 + "; }\n")),
        EXTRACT_CS,
    ),
    "vocab_empty": (contexts_artifact("cc", "vocabs.json"), write(""), TRAIN_CC),
    "vocab_not_an_object": (contexts_artifact("cs", "vocabs.json"), write('{"vocabs": ["<UNK>", "<PAD>"]}'), TRAIN_CS),
    "vocab_duplicated_label": (
        contexts_artifact("cs", "vocabs.json"),
        edit_json(lambda payload: payload["vocabs"]["labels"].append("addPair")),
        TRAIN_CS,
    ),
    "vocab_not_json": (contexts_artifact("cc", "vocabs.json"), write('{"vocabs": '), TRAIN_CC),
    "vocab_missing_reserved": (
        contexts_artifact("cs", "vocabs.json"),
        write('{"vocabs": {"terminals": ["a"], "paths": [], "labels": []}}'),
        TRAIN_CS,
    ),
    "vocab_of_other_task": (
        contexts_artifact("cs", "vocabs.json"), write('{"vocabs": {"tokens": ["<UNK>", "<PAD>"]}}'), TRAIN_CS
    ),
    "vocab_duplicated_token": (
        contexts_artifact("cc", "vocabs.json"), write('{"vocabs": {"tokens": ["<UNK>", "<PAD>", "a", "b", "a"]}}'), TRAIN_CC
    ),
    "vocab_number_token": (
        contexts_artifact("cc", "vocabs.json"), write('{"vocabs": {"tokens": ["<UNK>", "<PAD>", "a", 5]}}'), TRAIN_CC
    ),
    "cc_not_utf8": (contexts_artifact("cc", "train.txt"), write(NOT_UTF8), TRAIN_CC),
    "cs_not_utf8": (contexts_artifact("cs", "train.txt"), write(NOT_UTF8), TRAIN_CS),
    "cc_ragged_width": (
        contexts_artifact("cc", "validation.txt"), write_naming_line("b a <PAD> c a\nc b a\n", 2), TRAIN_CC
    ),
    "cc_even_field_count": (
        contexts_artifact("cc", "train.txt"), write_naming_line("b a <PAD> c a\nc b a <PAD>\n", 2), TRAIN_CC
    ),
    "cs_bad_triple": (
        contexts_artifact("cs", "validation.txt"),
        write_naming_line("addPair a,Name↑Call↓Name,b\nsubPair b,c\n", 2),
        TRAIN_CS,
    ),
    "cc_contexts_empty": (contexts_artifact("cc", "train.txt"), write(""), TRAIN_CC),
    "cs_contexts_empty": (contexts_artifact("cs", "train.txt"), write(""), TRAIN_CS),
    "cs_triple_of_four_fields": (
        contexts_artifact("cs", "train.txt"), write("addPair a,Name↑Call↓Name,b,c\n"), TRAIN_CS
    ),
    "checkpoint_truncated": (
        checkpoint_artifact, lambda target: write(target.read_bytes()[:-9])(target), ["score", "--task", "cc", "--shift", "project"]
    ),
    "checkpoint_empty": (checkpoint_artifact, write(b""), ["score", "--task", "cc", "--shift", "project"]),
    "scores_empty": (scores_artifact, write(""), ["eval", "--task", "cs", "--shift", "project"]),
    "scores_validation_missing": (scores_artifact, delete_vanilla_validation, ["eval", "--task", "cs", "--shift", "project"]),
    "scores_nan_confidence": (scores_artifact, score_field(4, "nan"), ["eval", "--task", "cs", "--shift", "project"]),
    "scores_float_predicted_sweep": (scores_artifact, score_field(5, "2.5"), SWEEP_CS),
    "scores_empty_sweep": (scores_artifact, write(""), SWEEP_CS),
    "scores_negative_confidence_filter": (scores_artifact, score_field(4, "-0.25"), FILTER_CS),
    "scores_header_only_filter": (
        scores_artifact, lambda target: write("".join(target.read_text().splitlines(True)[:2]))(target), FILTER_CS
    ),
    "report_truncated": (report_artifact, lambda target: truncate(target) or target, ["report"]),
    "report_a_list": (report_artifact, write("[]"), ["report"]),
    "report_without_error_success": (report_artifact, edit_json(lambda payload: payload.pop("error_success")), ["report"]),
    "report_not_utf8": (report_artifact, lambda target: write(target.read_bytes() + NOT_UTF8)(target), ["report"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_exits_2_naming_file(tmp_path, capsys, request, case):
    artifact, corrupt, command = MALFORMED[case]
    config_path, target = artifact(tmp_path, request)
    assert main([*command, "--config", str(config_path)]) == 0, capsys.readouterr().err  # intact, it passes
    named = corrupt(target)
    capsys.readouterr()
    assert main([*command, "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert str(named) in err
    assert "runtime error" not in err


LAYERS = ("corpus", "extraction", "nn", "tasks", "uncertainty", "metrics", "evalpipe", "synth")
PROJECT_CS = ["--task", "cs", "--shift", "project"]
# id: (argv, whether the workspace config is appended, the exit code, the
# modules the command must not load). A row that forbids numpy runs where
# `import numpy` fails, as `python -m codeshift.cli`.
IMPORT_CONTRACT = {
    "help": (["--help"], False, 0, ("numpy", "ctypes", *LAYERS)),
    "config_error": (["report", "--config", "no-such-config.json"], False, 2, ("numpy", "ctypes", *LAYERS)),
    "report": (["report"], True, 0, ("numpy", "ctypes", *LAYERS)),
    "synth-corpus": (["synth-corpus"], True, 0, ("tasks", "nn", "extraction", "uncertainty", "evalpipe", "metrics")),
    "make-splits": (["make-splits", "--shift", "project"], True, 0,
                    ("tasks", "nn", "extraction", "uncertainty", "evalpipe", "metrics")),
    "extract": (["extract", *PROJECT_CS], True, 0, ("tasks", "nn", "uncertainty", "evalpipe", "synth")),
    "train": (["train", *PROJECT_CS], True, 0, ("uncertainty", "evalpipe", "synth", "corpus")),
    "score": (["score", *PROJECT_CS], True, 0, ("evalpipe", "synth", "corpus")),
    "eval": (["eval", *PROJECT_CS], True, 0, ("tasks", "nn", "extraction", "synth", "corpus")),
    "sweep": (["sweep", *PROJECT_CS, "--method", "vanilla"], True, 0, ("tasks", "nn", "extraction", "synth", "corpus")),
    "filter": (["filter", *PROJECT_CS, "--method", "vanilla", "--threshold", "0.5"], True, 0,
               ("tasks", "nn", "extraction", "synth", "corpus")),
}
PROBE = """\
import json, runpy, sys
if sys.argv[1] == "no-numpy":
    sys.modules["numpy"] = None  # `import numpy` raises ImportError
sys.argv = ["codeshift", *json.loads(sys.argv[2])]
try:
    runpy.run_module("codeshift.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(name for name, module in sys.modules.items() if module is not None)]))
"""


@pytest.mark.parametrize("case", sorted(IMPORT_CONTRACT))
def test_command_loads_only_its_layers(workspace, case):
    """A fresh `python -m codeshift.cli` run loads scipy never, and no layer its command does not run."""
    root, _, flags = workspace
    argv, with_config, expected_code, forbidden = IMPORT_CONTRACT[case]
    src = str(Path(codeshift.__file__).resolve().parents[1])
    numpy = "no-numpy" if "numpy" in forbidden else "numpy"
    result = subprocess.run(
        [sys.executable, "-c", PROBE, numpy, json.dumps(argv + flags if with_config else argv)],
        capture_output=True, text=True, cwd=root, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout.splitlines()[-1])
    assert code == expected_code, result.stderr
    loaded = {name.split(".")[0] if not name.startswith("codeshift.") else name.split(".")[1] for name in modules}
    assert "scipy" not in loaded
    assert sorted(loaded & set(forbidden)) == []
