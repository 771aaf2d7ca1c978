"""Deterministic two-style synthetic Java corpus with shift manifests.

Generates ~300 small Java files in two programmatically distinct styles and
writes timeline/project/author manifests over them, so the full three-shift
study runs hermetically without network access.

Style "a" leans on descriptive camelCase identifiers, for-loops, compound
assignment, and guard-style ifs. Style "b" uses a disjoint terse identifier
lexicon, while-loops with manual index arithmetic, ternaries, and
try/finally blocks. Both styles implement the same method-name label set,
so shifted test splits stay inside the training label space while their
input distribution moves.

Shift layout:
- timeline: four snapshots whose style-"b" fraction grows (0, 10, 40, 80%).
- project: project "alpha" is pure style a (train), "beta" pure style b.
- author: one snapshot whose files carry authors alice (a), adam (a),
  mira (mixed), bogdan (b); the manifest filters by author.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, write_json


def _stable_key(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))

STYLE_A = "a"
STYLE_B = "b"

# shared label space: every generator emits methods drawn from these names
LABELS = (
    "computeSum",
    "findMax",
    "countItems",
    "isEmpty",
    "getFirst",
    "containsValue",
    "resetAll",
    "scaleValues",
)

A_ARRAYS = ("values", "items", "entries", "records", "samples")
A_INTS = ("total", "result", "count", "limit", "target", "bound")
A_INDEX = ("index", "position", "cursor")
A_CLASS = ("Handler", "Batch", "Worker", "Catalog", "Ledger")

B_ARRAYS = ("arr", "buf", "reg", "vec", "mem")
B_INTS = ("acc", "n", "m", "t", "q", "z")
B_INDEX = ("k", "p", "j")
B_CLASS = ("P", "U", "X", "Z")


def _slot(pool: tuple, label: str, rng, offset: int = 0) -> str:
    # two label-preferred choices per slot: identifiers correlate with the
    # method name, so the label stays learnable from terminals alone
    base = LABELS.index(label) + offset
    return pool[(base + int(rng.integers(2))) % len(pool)]


def _a_names(label: str, rng):
    return {
        "arr": _slot(A_ARRAYS, label, rng),
        "acc": _slot(A_INTS, label, rng),
        "lim": _slot(A_INTS, label, rng, offset=3),
        "idx": _slot(A_INDEX, label, rng),
        "lit": int(rng.integers(2, 40)),
    }


def _b_names(label: str, rng):
    return {
        "arr": _slot(B_ARRAYS, label, rng),
        "acc": _slot(B_INTS, label, rng),
        "lim": _slot(B_INTS, label, rng, offset=3),
        "idx": _slot(B_INDEX, label, rng),
        "lit": int(rng.integers(2, 40)),
    }


def _method_a(label: str, rng) -> str:
    n = _a_names(label, rng)
    if label == "computeSum":
        return (
            f"    int computeSum(int[] {n['arr']}, int {n['lim']}) {{\n"
            f"        int {n['acc']} = 0;\n"
            f"        for (int {n['idx']} = 0; {n['idx']} < {n['lim']}; {n['idx']}++) {{\n"
            f"            {n['acc']} += {n['arr']}[{n['idx']}];\n"
            f"        }}\n"
            f"        return {n['acc']};\n"
            f"    }}\n"
        )
    if label == "findMax":
        return (
            f"    int findMax(int[] {n['arr']}, int {n['lim']}) {{\n"
            f"        int {n['acc']} = {n['arr']}[0];\n"
            f"        for (int {n['idx']} = 1; {n['idx']} < {n['lim']}; {n['idx']}++) {{\n"
            f"            if ({n['arr']}[{n['idx']}] > {n['acc']}) {{\n"
            f"                {n['acc']} = {n['arr']}[{n['idx']}];\n"
            f"            }}\n"
            f"        }}\n"
            f"        return {n['acc']};\n"
            f"    }}\n"
        )
    if label == "countItems":
        return (
            f"    int countItems(int[] {n['arr']}, int {n['lim']}, int target) {{\n"
            f"        int {n['acc']} = 0;\n"
            f"        for (int {n['idx']} = 0; {n['idx']} < {n['lim']}; {n['idx']}++) {{\n"
            f"            if ({n['arr']}[{n['idx']}] == target) {{\n"
            f"                {n['acc']}++;\n"
            f"            }}\n"
            f"        }}\n"
            f"        return {n['acc']};\n"
            f"    }}\n"
        )
    if label == "isEmpty":
        return (
            f"    boolean isEmpty(int {n['acc']}) {{\n"
            f"        if ({n['acc']} == 0) {{\n"
            f"            return true;\n"
            f"        }}\n"
            f"        return false;\n"
            f"    }}\n"
        )
    if label == "getFirst":
        return (
            f"    int getFirst(int[] {n['arr']}) {{\n"
            f"        int {n['acc']} = {n['arr']}[0];\n"
            f"        return {n['acc']};\n"
            f"    }}\n"
        )
    if label == "containsValue":
        return (
            f"    boolean containsValue(int[] {n['arr']}, int {n['lim']}, int target) {{\n"
            f"        for (int {n['idx']} = 0; {n['idx']} < {n['lim']}; {n['idx']}++) {{\n"
            f"            if ({n['arr']}[{n['idx']}] == target) {{\n"
            f"                return true;\n"
            f"            }}\n"
            f"        }}\n"
            f"        return false;\n"
            f"    }}\n"
        )
    if label == "resetAll":
        return (
            f"    void resetAll(int[] {n['arr']}, int {n['lim']}) {{\n"
            f"        for (int {n['idx']} = 0; {n['idx']} < {n['lim']}; {n['idx']}++) {{\n"
            f"            {n['arr']}[{n['idx']}] = 0;\n"
            f"        }}\n"
            f"    }}\n"
        )
    if label == "scaleValues":
        return (
            f"    void scaleValues(int[] {n['arr']}, int {n['lim']}) {{\n"
            f"        for (int {n['idx']} = 0; {n['idx']} < {n['lim']}; {n['idx']}++) {{\n"
            f"            {n['arr']}[{n['idx']}] *= {n['lit']};\n"
            f"        }}\n"
            f"    }}\n"
        )
    raise ValueError(f"no style-a template for {label!r}")


def _method_b(label: str, rng) -> str:
    n = _b_names(label, rng)
    if label == "computeSum":
        return (
            f"    int computeSum(int[] {n['arr']}, int {n['lim']}) {{\n"
            f"        int {n['acc']} = 0;\n"
            f"        int {n['idx']} = {n['lim']};\n"
            f"        while ({n['idx']} > 0) {{\n"
            f"            {n['idx']} = {n['idx']} - 1;\n"
            f"            {n['acc']} = {n['acc']} + {n['arr']}[{n['idx']}];\n"
            f"        }}\n"
            f"        return {n['acc']};\n"
            f"    }}\n"
        )
    if label == "findMax":
        return (
            f"    int findMax(int[] {n['arr']}, int {n['lim']}) {{\n"
            f"        int {n['acc']} = {n['arr']}[0];\n"
            f"        int {n['idx']} = 1;\n"
            f"        while ({n['idx']} != {n['lim']}) {{\n"
            f"            {n['acc']} = {n['arr']}[{n['idx']}] > {n['acc']} ? {n['arr']}[{n['idx']}] : {n['acc']};\n"
            f"            {n['idx']} = {n['idx']} + 1;\n"
            f"        }}\n"
            f"        return {n['acc']};\n"
            f"    }}\n"
        )
    if label == "countItems":
        return (
            f"    int countItems(int[] {n['arr']}, int {n['lim']}, int t) {{\n"
            f"        int {n['acc']} = 0;\n"
            f"        int {n['idx']} = {n['lim']};\n"
            f"        while ({n['idx']} != 0) {{\n"
            f"            {n['idx']} = {n['idx']} - 1;\n"
            f"            {n['acc']} = {n['arr']}[{n['idx']}] != t ? {n['acc']} : {n['acc']} + 1;\n"
            f"        }}\n"
            f"        return {n['acc']};\n"
            f"    }}\n"
        )
    if label == "isEmpty":
        return (
            f"    boolean isEmpty(int {n['acc']}) {{\n"
            f"        return {n['acc']} != 0 ? false : true;\n"
            f"    }}\n"
        )
    if label == "getFirst":
        return (
            f"    int getFirst(int[] {n['arr']}) {{\n"
            f"        return {n['arr']}[0];\n"
            f"    }}\n"
        )
    if label == "containsValue":
        return (
            f"    boolean containsValue(int[] {n['arr']}, int {n['lim']}, int t) {{\n"
            f"        int {n['idx']} = 0;\n"
            f"        while ({n['idx']} != {n['lim']}) {{\n"
            f"            if ({n['arr']}[{n['idx']}] != t) {{\n"
            f"                {n['idx']} = {n['idx']} + 1;\n"
            f"            }} else {{\n"
            f"                return true;\n"
            f"            }}\n"
            f"        }}\n"
            f"        return false;\n"
            f"    }}\n"
        )
    if label == "resetAll":
        return (
            f"    void resetAll(int[] {n['arr']}, int {n['lim']}) {{\n"
            f"        int {n['idx']} = {n['lim']};\n"
            f"        try {{\n"
            f"            while ({n['idx']} > 0) {{\n"
            f"                {n['idx']} = {n['idx']} - 1;\n"
            f"                {n['arr']}[{n['idx']}] = 0;\n"
            f"            }}\n"
            f"        }} finally {{\n"
            f"            {n['idx']} = 0;\n"
            f"        }}\n"
            f"    }}\n"
        )
    if label == "scaleValues":
        return (
            f"    void scaleValues(int[] {n['arr']}, int {n['lim']}) {{\n"
            f"        int {n['idx']} = {n['lim']};\n"
            f"        while ({n['idx']} > 0) {{\n"
            f"            {n['idx']} = {n['idx']} - 1;\n"
            f"            {n['arr']}[{n['idx']}] = {n['arr']}[{n['idx']}] * {n['lit']};\n"
            f"        }}\n"
            f"    }}\n"
        )
    raise ValueError(f"no style-b template for {label!r}")


def render_file(style: str, rng, class_tag: str) -> str:
    """One class with 2-3 methods drawn without repetition from LABELS."""
    n_methods = int(rng.integers(2, 4))
    labels = [LABELS[i] for i in rng.choice(len(LABELS), size=n_methods, replace=False)]
    if style == STYLE_A:
        class_name = f"{A_CLASS[rng.integers(len(A_CLASS))]}{class_tag}"
        bodies = [_method_a(label, rng) for label in labels]
    else:
        class_name = f"{B_CLASS[rng.integers(len(B_CLASS))]}{class_tag}"
        bodies = [_method_b(label, rng) for label in labels]
    return f"class {class_name} {{\n" + "\n".join(bodies) + "}\n"


def _write_snapshot(root: Path, project: str, version: str, release_time: str,
                    plan: list[tuple[str, str]], seed: int) -> int:
    """plan: list of (style, author); returns the number of files written."""
    root.mkdir(parents=True, exist_ok=True)
    files = []
    for i, (style, author) in enumerate(plan):
        rng = np.random.default_rng([seed, _stable_key(version), i])
        name = f"{'A' if style == STYLE_A else 'B'}{i:03d}.java"
        (root / name).write_text(render_file(style, rng, f"{version.replace('.', '')}x{i}"), encoding="utf-8")
        files.append({"path": name, "author": author})
    meta = {"project": project, "version": version, "release_time": release_time, "files": files}
    write_json(root / "snapshot.json", meta)
    return len(files)


def _style_plan(count: int, b_fraction: float, author: str, rng) -> list[tuple[str, str]]:
    n_b = int(round(count * b_fraction))
    styles = [STYLE_B] * n_b + [STYLE_A] * (count - n_b)
    rng.shuffle(styles)
    return [(s, author) for s in styles]


def generate_corpus(
    root,
    seed: int = 0,
    timeline_files: int = 40,
    project_files: int = 45,
    author_files: dict[str, int] | None = None,
) -> dict:
    """Write corpus directories plus the three shift manifests under `root`.

    Returns a summary {"files": total, "manifests": {shift: path}}.
    """
    root = Path(root)
    total = 0

    # timeline: style-b fraction grows with release time
    versions = (
        ("v1", "2013-11-01", 0.0),
        ("v2", "2016-04-01", 0.1),
        ("v3", "2019-04-01", 0.4),
        ("v4", "2021-02-01", 0.8),
    )
    for version, release, b_fraction in versions:
        rng = np.random.default_rng([seed, 1, int(b_fraction * 10)])
        plan = _style_plan(timeline_files, b_fraction, "synth", rng)
        total += _write_snapshot(root / "timeline" / version, "synth", version, release, plan, seed)
    timeline_manifest = {
        "shift_kind": "timeline",
        "seed": seed,
        "splits": {
            "train": [{"project": "synth", "version": "v1", "root": "timeline/v1"}],
            "test1": [{"project": "synth", "version": "v2", "root": "timeline/v2"}],
            "test2": [{"project": "synth", "version": "v3", "root": "timeline/v3"}],
            "test3": [{"project": "synth", "version": "v4", "root": "timeline/v4"}],
        },
    }

    # project: alpha trains, beta (the other style) tests
    for project, style in (("alpha", STYLE_A), ("beta", STYLE_B)):
        rng = np.random.default_rng([seed, 2, 0 if style == STYLE_A else 1])
        plan = _style_plan(project_files, 1.0 if style == STYLE_B else 0.0, project, rng)
        total += _write_snapshot(root / "project" / project, project, "v1", "2021-02-01", plan, seed)
    project_manifest = {
        "shift_kind": "project",
        "seed": seed,
        "splits": {
            "train": [{"project": "alpha", "version": "v1", "root": "project/alpha"}],
            "test1": [{"project": "beta", "version": "v1", "root": "project/beta"}],
        },
    }

    # author: one snapshot, authors of increasingly different habits
    if author_files is None:
        author_files = DEFAULT_CONFIG["synth"]["author_files"]
    author_styles = {"alice": 0.0, "adam": 0.0, "mira": 0.5, "bogdan": 1.0}
    plan = []
    for author, count in author_files.items():
        rng = np.random.default_rng([seed, 3, _stable_key(author)])
        plan.extend(_style_plan(count, author_styles.get(author, 0.0), author, rng))
    total += _write_snapshot(root / "author" / "main", "synth", "v4", "2021-02-01", plan, seed)
    author_manifest = {
        "shift_kind": "author",
        "seed": seed,
        "splits": {
            "train": [{"project": "synth", "version": "v4", "root": "author/main", "author": "alice"}],
            "test1": [{"project": "synth", "version": "v4", "root": "author/main", "author": "adam"}],
            "test2": [{"project": "synth", "version": "v4", "root": "author/main", "author": "mira"}],
            "test3": [{"project": "synth", "version": "v4", "root": "author/main", "author": "bogdan"}],
        },
    }

    manifests = {}
    for shift, doc in (("timeline", timeline_manifest), ("project", project_manifest), ("author", author_manifest)):
        path = root / f"manifest_{shift}.json"
        write_json(path, doc)
        manifests[shift] = str(path)
    return {"files": total, "manifests": manifests}
