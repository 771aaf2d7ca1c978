"""Shift manifests and deterministic split assignment.

A manifest is a JSON document:

    {
      "shift_kind": "timeline" | "project" | "author",
      "seed": 7,
      "splits": {
        "train": [{"project": "p", "version": "v1", "root": "dir", "author": "who?"}],
        "test1": [...]
      }
    }

Each selector's `root` is a directory relative to the manifest file. If the
directory contains a `snapshot.json` sidecar ({"project", "version",
"release_time", "files": [{"path", "author"}]}) the per-file authors and
release time come from it; otherwise the directory is scanned for *.java
files with author "unknown". The optional `author` key on a selector
filters that split down to files by one author.

Splits operate at file granularity; a validation split is carved out of
"train" by a seeded shuffle, so every sample extracted from a file inherits
the file's split.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

VALIDATION_SPLIT = "validation"
SHIFT_KINDS = ("timeline", "project", "author")


class ManifestError(ValueError):
    """Malformed or inconsistent manifest document."""


class UnknownSplitError(KeyError):
    pass


@dataclass(frozen=True)
class SnapshotFile:
    rel_path: str
    author: str


@dataclass
class ProjectSnapshot:
    project: str
    version: str
    release_time: str
    root: Path
    files: list[SnapshotFile]


@dataclass(frozen=True)
class SplitSelector:
    project: str
    version: str
    root: str
    author: str | None = None


@dataclass
class ShiftManifest:
    shift_kind: str
    seed: int
    splits: dict[str, list[SplitSelector]]
    base_dir: Path
    snapshots: dict[tuple[str, str, str], ProjectSnapshot] = field(default_factory=dict)

    def snapshot_for(self, sel: SplitSelector) -> ProjectSnapshot:
        return self.snapshots[(sel.project, sel.version, sel.root)]


@dataclass
class SplitAssignment:
    splits: dict[str, list[str]]  # split name -> file paths relative to base_dir
    base_dir: Path

    def to_json(self, root: Path) -> dict:
        """`base_dir` is written relative to `root`, the directory the document goes in."""
        return {"base_dir": os.path.relpath(self.base_dir, root), "splits": self.splits}

    @classmethod
    def from_json(cls, payload: dict, root: Path) -> "SplitAssignment":
        """A relative `base_dir` resolves against `root`; an absolute one is kept.

        A `splits` that does not map each name to a list of path strings,
        or a `base_dir` that is not a string, raises TypeError or
        AttributeError.
        """
        splits = payload["splits"]
        for name, files in splits.items():
            if not isinstance(files, list) or not all(isinstance(rel, str) for rel in files):
                raise TypeError(f"split {name!r} is not a list of file path strings")
        return cls(splits=dict(splits), base_dir=(root / payload["base_dir"]).resolve())


def _no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ManifestError("duplicate keys in manifest document")
    return dict(pairs)


def _load_snapshot(base_dir: Path, sel: SplitSelector) -> ProjectSnapshot:
    root = base_dir / sel.root
    if not root.is_dir():
        raise ManifestError(f"snapshot directory does not exist: {root}")
    sidecar = root / "snapshot.json"
    if sidecar.is_file():
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
            release = str(meta.get("release_time", "1970-01-01"))
            files = []
            seen = set()
            for entry in meta.get("files", []):
                rel = entry["path"]
                author = str(entry.get("author", "unknown"))
                if not author:
                    raise ManifestError(f"{sidecar}: empty author for {rel!r}")
                if rel in seen:
                    raise ManifestError(f"{sidecar}: duplicate file path {rel!r}")
                seen.add(rel)
                if not (root / rel).is_file():
                    raise ManifestError(f"dangling file reference: {root / rel}")
                files.append(SnapshotFile(rel_path=rel, author=author))
        except (UnicodeDecodeError, json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
            raise ManifestError(f"cannot parse snapshot sidecar {sidecar}: {type(exc).__name__}: {exc}") from exc
    else:
        release = "1970-01-01"
        files = [
            SnapshotFile(rel_path=str(p.relative_to(root)), author="unknown")
            for p in sorted(root.rglob("*.java"))
        ]
    try:
        date.fromisoformat(release)
    except ValueError as exc:
        raise ManifestError(f"unparseable release_time {release!r} for {root}") from exc
    return ProjectSnapshot(
        project=sel.project, version=sel.version, release_time=release, root=root, files=files
    )


def load_manifest(path) -> ShiftManifest:
    """Parse and validate a manifest, resolving all snapshot file lists."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_no_duplicate_keys)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    shift_kind = doc.get("shift_kind")
    if shift_kind not in SHIFT_KINDS:
        raise ManifestError(f"shift_kind must be one of {SHIFT_KINDS}, got {shift_kind!r}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ManifestError(f"seed must be an unsigned integer, got {seed!r}")
    raw_splits = doc.get("splits")
    if not isinstance(raw_splits, dict) or not raw_splits:
        raise ManifestError("manifest needs a non-empty 'splits' object")
    names = list(raw_splits)
    if names.count("train") != 1:
        raise ManifestError("manifest must contain exactly one split named 'train'")
    if not any(n.startswith("test") for n in names):
        raise ManifestError("manifest needs at least one split whose name starts with 'test'")
    if VALIDATION_SPLIT in names:
        raise ManifestError(f"split name {VALIDATION_SPLIT!r} is reserved for the carved validation set")

    base_dir = path.parent
    splits: dict[str, list[SplitSelector]] = {}
    manifest = ShiftManifest(shift_kind=shift_kind, seed=seed, splits=splits, base_dir=base_dir)
    for name, selectors in raw_splits.items():
        if not isinstance(selectors, list) or not selectors:
            raise ManifestError(f"split {name!r} must list at least one snapshot selector")
        parsed = []
        for raw in selectors:
            try:
                sel = SplitSelector(
                    project=raw["project"],
                    version=raw["version"],
                    root=raw["root"],
                    author=raw.get("author"),
                )
            except (TypeError, KeyError) as exc:
                raise ManifestError(f"split {name!r}: selector needs project/version/root: {raw!r}") from exc
            key = (sel.project, sel.version, sel.root)
            if key not in manifest.snapshots:
                manifest.snapshots[key] = _load_snapshot(base_dir, sel)
            parsed.append(sel)
        splits[name] = parsed
    return manifest


def _selector_files(manifest: ShiftManifest, sel: SplitSelector) -> list[str]:
    snap = manifest.snapshot_for(sel)
    files = snap.files
    if sel.author is not None:
        files = [f for f in files if f.author == sel.author]
    return [str(Path(sel.root) / f.rel_path) for f in files]


def assign_splits(manifest: ShiftManifest, val_fraction: float = 0.1) -> SplitAssignment:
    """Carve train/validation from "train" and pass test splits through.

    Pure in (manifest, val_fraction, manifest.seed): re-running returns the
    identical assignment.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    assigned: dict[str, list[str]] = {}
    seen: dict[str, str] = {}
    for name, selectors in manifest.splits.items():
        files: list[str] = []
        for sel in selectors:
            files.extend(_selector_files(manifest, sel))
        files = sorted(files)
        if not files:
            raise ManifestError(f"split {name!r} is empty after filtering")
        for f in files:
            if f in seen:
                raise ManifestError(f"file {f!r} appears in both {seen[f]!r} and {name!r}")
            seen[f] = name
        assigned[name] = files

    train_files = assigned.pop("train")
    rng = np.random.default_rng(manifest.seed)
    order = rng.permutation(len(train_files))
    n_val = int(round(len(train_files) * val_fraction))
    val_files = [train_files[i] for i in order[:n_val]]
    kept_train = [train_files[i] for i in order[n_val:]]
    if not val_files or not kept_train:
        raise ManifestError(
            f"validation carve left an empty split ({len(kept_train)} train / {len(val_files)} validation)"
        )
    out = {"train": kept_train, VALIDATION_SPLIT: val_files}
    out.update({name: assigned[name] for name in assigned})
    return SplitAssignment(splits=out, base_dir=manifest.base_dir)


def iterate_samples(assignment: SplitAssignment, split: str, seed: int):
    """Yield (relative path, file text) in a seed-permuted deterministic order."""
    if split not in assignment.splits:
        raise UnknownSplitError(f"unknown split {split!r}; have {sorted(assignment.splits)}")
    files = assignment.splits[split]
    rng = np.random.default_rng(seed)
    for i in rng.permutation(len(files)):
        rel = files[i]
        path = assignment.base_dir / rel
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: not UTF-8 text: {exc}") from exc
        except OSError as exc:
            raise ManifestError(f"{path}: cannot read split file: {type(exc).__name__}: {exc}") from exc
        yield rel, text
