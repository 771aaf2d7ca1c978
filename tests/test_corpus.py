"""Manifest loading, split assignment, and iteration contracts."""

import json

import pytest

from codeshift import corpus


def make_snapshot(root, names, authors=None, release="2020-01-01", meta=True):
    root.mkdir(parents=True, exist_ok=True)
    files = []
    for i, name in enumerate(names):
        (root / name).write_text(f"class C{i} {{ }}\n", encoding="utf-8")
        files.append({"path": name, "author": (authors or {}).get(name, "unknown")})
    if meta:
        payload = {"project": root.name, "version": "v1", "release_time": release, "files": files}
        (root / "snapshot.json").write_text(json.dumps(payload), encoding="utf-8")


def write_manifest(path, shift_kind, splits, seed=7):
    path.write_text(json.dumps({"shift_kind": shift_kind, "seed": seed, "splits": splits}), encoding="utf-8")
    return path


def timeline_manifest(tmp_path, n_train=10, n_test=4):
    for idx, split in enumerate(["v1", "v2", "v3", "v4"]):
        count = n_train if idx == 0 else n_test
        make_snapshot(tmp_path / split, [f"F{idx}_{k}.java" for k in range(count)])
    splits = {
        "train": [{"project": "p", "version": "v1", "root": "v1"}],
        "test1": [{"project": "p", "version": "v2", "root": "v2"}],
        "test2": [{"project": "p", "version": "v3", "root": "v3"}],
        "test3": [{"project": "p", "version": "v4", "root": "v4"}],
    }
    return write_manifest(tmp_path / "manifest.json", "timeline", splits)


def test_load_manifest_four_splits(tmp_path):
    manifest = corpus.load_manifest(timeline_manifest(tmp_path))
    assert manifest.shift_kind == "timeline"
    assert sorted(manifest.splits) == ["test1", "test2", "test3", "train"]
    assert len(manifest.splits) == 4


def test_load_manifest_rejects_empty_and_missing_train(tmp_path):
    path = write_manifest(tmp_path / "m.json", "timeline", {})
    with pytest.raises(corpus.ManifestError):
        corpus.load_manifest(path)
    make_snapshot(tmp_path / "v1", ["A.java"])
    path = write_manifest(tmp_path / "m2.json", "timeline", {"test1": [{"project": "p", "version": "v", "root": "v1"}]})
    with pytest.raises(corpus.ManifestError, match="train"):
        corpus.load_manifest(path)


def test_load_manifest_dangling_directory_named(tmp_path):
    splits = {
        "train": [{"project": "p", "version": "v", "root": "nowhere"}],
        "test1": [{"project": "p", "version": "v", "root": "nowhere"}],
    }
    path = write_manifest(tmp_path / "m.json", "project", splits)
    with pytest.raises(corpus.ManifestError, match="nowhere"):
        corpus.load_manifest(path)


def test_load_manifest_dangling_file_named(tmp_path):
    make_snapshot(tmp_path / "v1", ["A.java"])
    meta = json.loads((tmp_path / "v1" / "snapshot.json").read_text())
    meta["files"].append({"path": "Ghost.java", "author": "x"})
    (tmp_path / "v1" / "snapshot.json").write_text(json.dumps(meta))
    splits = {
        "train": [{"project": "p", "version": "v", "root": "v1"}],
        "test1": [{"project": "p", "version": "v", "root": "v1"}],
    }
    path = write_manifest(tmp_path / "m.json", "timeline", splits)
    with pytest.raises(corpus.ManifestError, match="Ghost.java"):
        corpus.load_manifest(path)


@pytest.mark.parametrize("absolute", [False, True])
def test_load_manifest_rejects_a_sidecar_path_outside_its_snapshot(tmp_path, absolute):
    make_snapshot(tmp_path / "v1", ["A.java"])
    (tmp_path / "Outside.java").write_text("class O { }\n", encoding="utf-8")
    rel = str(tmp_path / "Outside.java") if absolute else "../Outside.java"
    sidecar = tmp_path / "v1" / "snapshot.json"
    meta = json.loads(sidecar.read_text())
    meta["files"].append({"path": rel, "author": "x"})
    sidecar.write_text(json.dumps(meta))
    splits = {
        "train": [{"project": "p", "version": "v", "root": "v1"}],
        "test1": [{"project": "p", "version": "v", "root": "v1"}],
    }
    path = write_manifest(tmp_path / "m.json", "timeline", splits)
    with pytest.raises(corpus.ManifestError, match="leaves the snapshot directory") as info:
        corpus.load_manifest(path)
    assert str(sidecar) in str(info.value) and repr(rel) in str(info.value)


def test_load_manifest_parse_error(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(corpus.ManifestError, match="parse"):
        corpus.load_manifest(bad)


def test_load_manifest_bad_release_time(tmp_path):
    make_snapshot(tmp_path / "v1", ["A.java"], release="sometime")
    splits = {
        "train": [{"project": "p", "version": "v", "root": "v1"}],
        "test1": [{"project": "p", "version": "v", "root": "v1"}],
    }
    path = write_manifest(tmp_path / "m.json", "timeline", splits)
    with pytest.raises(corpus.ManifestError, match="release_time"):
        corpus.load_manifest(path)


def test_assign_splits_carves_validation(tmp_path):
    manifest = corpus.load_manifest(timeline_manifest(tmp_path, n_train=100, n_test=3))
    first = corpus.assign_splits(manifest, val_fraction=0.1)
    second = corpus.assign_splits(manifest, val_fraction=0.1)
    assert len(first.splits["train"]) == 90
    assert len(first.splits["validation"]) == 10
    assert first.splits == second.splits  # stable across runs


def test_assign_splits_partition_property(tmp_path):
    manifest = corpus.load_manifest(timeline_manifest(tmp_path, n_train=20, n_test=5))
    assignment = corpus.assign_splits(manifest, val_fraction=0.25)
    all_files = [f for files in assignment.splits.values() for f in files]
    assert len(all_files) == len(set(all_files)) == 20 + 3 * 5
    assert set(assignment.splits["train"]) | set(assignment.splits["validation"]) == {
        str(p) for p in [f"v1/F0_{k}.java" for k in range(20)]
    }


def test_assign_splits_author_filter(tmp_path):
    authors = {f"A{k}.java": ("kimchy" if k < 3 else "other") for k in range(8)}
    make_snapshot(tmp_path / "main", list(authors), authors=authors)
    splits = {
        "train": [{"project": "es", "version": "v", "root": "main", "author": "other"}],
        "test1": [{"project": "es", "version": "v", "root": "main", "author": "kimchy"}],
    }
    manifest = corpus.load_manifest(write_manifest(tmp_path / "m.json", "author", splits))
    assignment = corpus.assign_splits(manifest, val_fraction=0.3)
    assert len(assignment.splits["test1"]) == 3
    assert all("A0" in f or "A1" in f or "A2" in f for f in assignment.splits["test1"])


def test_assign_splits_empty_split_errors(tmp_path):
    make_snapshot(tmp_path / "one", ["A.java"])
    splits = {
        "train": [{"project": "p", "version": "v", "root": "one"}],
        "test1": [{"project": "p", "version": "v", "root": "one", "author": "nobody"}],
    }
    manifest = corpus.load_manifest(write_manifest(tmp_path / "m.json", "author", splits))
    with pytest.raises(corpus.ManifestError, match="test1"):
        corpus.assign_splits(manifest, val_fraction=0.5)


def test_assign_splits_degenerate_validation(tmp_path):
    make_snapshot(tmp_path / "v1", ["A.java"])
    make_snapshot(tmp_path / "v2", ["B.java"])
    splits = {
        "train": [{"project": "p", "version": "v1", "root": "v1"}],
        "test1": [{"project": "p", "version": "v2", "root": "v2"}],
    }
    manifest = corpus.load_manifest(write_manifest(tmp_path / "m.json", "timeline", splits))
    with pytest.raises(corpus.ManifestError, match="empty"):
        corpus.assign_splits(manifest, val_fraction=0.5)


def test_file_in_two_splits_rejected(tmp_path):
    make_snapshot(tmp_path / "v1", ["A.java", "B.java"])
    splits = {
        "train": [{"project": "p", "version": "v", "root": "v1"}],
        "test1": [{"project": "p", "version": "v", "root": "v1"}],
    }
    manifest = corpus.load_manifest(write_manifest(tmp_path / "m.json", "timeline", splits))
    with pytest.raises(corpus.ManifestError, match="appears in both"):
        corpus.assign_splits(manifest, val_fraction=0.5)


def test_iterate_samples_determinism_and_permutation(tmp_path):
    manifest = corpus.load_manifest(timeline_manifest(tmp_path, n_train=12, n_test=6))
    assignment = corpus.assign_splits(manifest, val_fraction=0.25)
    first = list(corpus.iterate_samples(assignment, "test1", seed=1))
    again = list(corpus.iterate_samples(assignment, "test1", seed=1))
    other = list(corpus.iterate_samples(assignment, "test1", seed=2))
    assert first == again
    assert sorted(first) == sorted(other)
    assert [p for p, _ in first] != [p for p, _ in other]  # 6 files: permutation differs
    assert all(text.startswith("class") for _, text in first)


def test_iterate_samples_unknown_split(tmp_path):
    manifest = corpus.load_manifest(timeline_manifest(tmp_path))
    assignment = corpus.assign_splits(manifest, val_fraction=0.2)
    with pytest.raises(corpus.UnknownSplitError):
        list(corpus.iterate_samples(assignment, "test9", seed=0))


def test_snapshot_scan_without_sidecar(tmp_path):
    root = tmp_path / "plain"
    (root / "sub").mkdir(parents=True)
    (root / "X.java").write_text("class X { }", encoding="utf-8")
    (root / "sub" / "Y.java").write_text("class Y { }", encoding="utf-8")
    (root / "notes.txt").write_text("skip me", encoding="utf-8")
    splits = {
        "train": [{"project": "p", "version": "v", "root": "plain"}],
        "test1": [{"project": "p", "version": "v", "root": "plain", "author": "unknown"}],
        "test2": [{"project": "p", "version": "v", "root": "plain", "author": "alice"}],
    }
    manifest = corpus.load_manifest(write_manifest(tmp_path / "m.json", "project", splits))
    assert manifest.splits["train"] == ["plain/X.java", "plain/sub/Y.java"]
    # a scanned file's author is "unknown", which that filter keeps and any other drops
    assert manifest.splits["test1"] == manifest.splits["train"]
    assert manifest.splits["test2"] == []
