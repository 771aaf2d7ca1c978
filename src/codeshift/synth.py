"""Deterministic two-style synthetic Java corpus with shift manifests.

Generates ~300 small Java files in two programmatically distinct styles and
writes timeline/project/author manifests over them, so the full three-shift
study runs hermetically without network access. Two tables define it.

`STYLES` has one row per style: file-name prefix, identifier pools, class
names, and a method template per label. Style "a" leans on descriptive
camelCase identifiers, for-loops, compound assignment, and guard-style ifs.
Style "b" uses a disjoint terse identifier lexicon, while-loops with manual
index arithmetic, ternaries, and try/finally blocks. Both implement every
label in `LABELS`, so shifted test splits stay inside the training label
space while their input distribution moves.

`SNAPSHOTS` has one row per snapshot; the writer and the manifests both read
it, so no manifest names a root that was not written.
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

# shared label space: every style has a method template for each of these names
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

# Method templates are `str.format` text over the names `_names` draws:
# arr (an int array), acc and lim (ints), idx (an index) and lit (a literal).
STYLES = {
    "a": {
        "prefix": "A",
        "arrays": ("values", "items", "entries", "records", "samples"),
        "ints": ("total", "result", "count", "limit", "target", "bound"),
        "index": ("index", "position", "cursor"),
        "classes": ("Handler", "Batch", "Worker", "Catalog", "Ledger"),
        "methods": {
            "computeSum": """\
    int computeSum(int[] {arr}, int {lim}) {{
        int {acc} = 0;
        for (int {idx} = 0; {idx} < {lim}; {idx}++) {{
            {acc} += {arr}[{idx}];
        }}
        return {acc};
    }}""",
            "findMax": """\
    int findMax(int[] {arr}, int {lim}) {{
        int {acc} = {arr}[0];
        for (int {idx} = 1; {idx} < {lim}; {idx}++) {{
            if ({arr}[{idx}] > {acc}) {{
                {acc} = {arr}[{idx}];
            }}
        }}
        return {acc};
    }}""",
            "countItems": """\
    int countItems(int[] {arr}, int {lim}, int target) {{
        int {acc} = 0;
        for (int {idx} = 0; {idx} < {lim}; {idx}++) {{
            if ({arr}[{idx}] == target) {{
                {acc}++;
            }}
        }}
        return {acc};
    }}""",
            "isEmpty": """\
    boolean isEmpty(int {acc}) {{
        if ({acc} == 0) {{
            return true;
        }}
        return false;
    }}""",
            "getFirst": """\
    int getFirst(int[] {arr}) {{
        int {acc} = {arr}[0];
        return {acc};
    }}""",
            "containsValue": """\
    boolean containsValue(int[] {arr}, int {lim}, int target) {{
        for (int {idx} = 0; {idx} < {lim}; {idx}++) {{
            if ({arr}[{idx}] == target) {{
                return true;
            }}
        }}
        return false;
    }}""",
            "resetAll": """\
    void resetAll(int[] {arr}, int {lim}) {{
        for (int {idx} = 0; {idx} < {lim}; {idx}++) {{
            {arr}[{idx}] = 0;
        }}
    }}""",
            "scaleValues": """\
    void scaleValues(int[] {arr}, int {lim}) {{
        for (int {idx} = 0; {idx} < {lim}; {idx}++) {{
            {arr}[{idx}] *= {lit};
        }}
    }}""",
        },
    },
    "b": {
        "prefix": "B",
        "arrays": ("arr", "buf", "reg", "vec", "mem"),
        "ints": ("acc", "n", "m", "t", "q", "z"),
        "index": ("k", "p", "j"),
        "classes": ("P", "U", "X", "Z"),
        "methods": {
            "computeSum": """\
    int computeSum(int[] {arr}, int {lim}) {{
        int {acc} = 0;
        int {idx} = {lim};
        while ({idx} > 0) {{
            {idx} = {idx} - 1;
            {acc} = {acc} + {arr}[{idx}];
        }}
        return {acc};
    }}""",
            "findMax": """\
    int findMax(int[] {arr}, int {lim}) {{
        int {acc} = {arr}[0];
        int {idx} = 1;
        while ({idx} != {lim}) {{
            {acc} = {arr}[{idx}] > {acc} ? {arr}[{idx}] : {acc};
            {idx} = {idx} + 1;
        }}
        return {acc};
    }}""",
            "countItems": """\
    int countItems(int[] {arr}, int {lim}, int t) {{
        int {acc} = 0;
        int {idx} = {lim};
        while ({idx} != 0) {{
            {idx} = {idx} - 1;
            {acc} = {arr}[{idx}] != t ? {acc} : {acc} + 1;
        }}
        return {acc};
    }}""",
            "isEmpty": """\
    boolean isEmpty(int {acc}) {{
        return {acc} != 0 ? false : true;
    }}""",
            "getFirst": """\
    int getFirst(int[] {arr}) {{
        return {arr}[0];
    }}""",
            "containsValue": """\
    boolean containsValue(int[] {arr}, int {lim}, int t) {{
        int {idx} = 0;
        while ({idx} != {lim}) {{
            if ({arr}[{idx}] != t) {{
                {idx} = {idx} + 1;
            }} else {{
                return true;
            }}
        }}
        return false;
    }}""",
            "resetAll": """\
    void resetAll(int[] {arr}, int {lim}) {{
        int {idx} = {lim};
        try {{
            while ({idx} > 0) {{
                {idx} = {idx} - 1;
                {arr}[{idx}] = 0;
            }}
        }} finally {{
            {idx} = 0;
        }}
    }}""",
            "scaleValues": """\
    void scaleValues(int[] {arr}, int {lim}) {{
        int {idx} = {lim};
        while ({idx} > 0) {{
            {idx} = {idx} - 1;
            {arr}[{idx}] = {arr}[{idx}] * {lit};
        }}
    }}""",
        },
    },
}

# One row per snapshot: (shift, root, project, version, release time, groups). A group
# is the files of one split: (split, author filter, style-"b" fraction, plan seed key).
# Its files carry the filter's author, or the project name where there is no filter;
# the author shift's groups follow this order whatever order `author_files` has.
SNAPSHOTS = (
    ("timeline", "timeline/v1", "synth", "v1", "2013-11-01", [("train", None, 0.0, (1, 0))]),
    ("timeline", "timeline/v2", "synth", "v2", "2016-04-01", [("test1", None, 0.1, (1, 1))]),
    ("timeline", "timeline/v3", "synth", "v3", "2019-04-01", [("test2", None, 0.4, (1, 4))]),
    ("timeline", "timeline/v4", "synth", "v4", "2021-02-01", [("test3", None, 0.8, (1, 8))]),
    ("project", "project/alpha", "alpha", "v1", "2021-02-01", [("train", None, 0.0, (2, 0))]),
    ("project", "project/beta", "beta", "v1", "2021-02-01", [("test1", None, 1.0, (2, 1))]),
    ("author", "author/main", "synth", "v4", "2021-02-01", [
        ("train", "alice", 0.0, (3, _stable_key("alice"))),
        ("test1", "adam", 0.0, (3, _stable_key("adam"))),
        ("test2", "mira", 0.5, (3, _stable_key("mira"))),
        ("test3", "bogdan", 1.0, (3, _stable_key("bogdan"))),
    ]),
)


def _slot(pool: tuple, label: str, rng, offset: int = 0) -> str:
    # two label-preferred choices per slot: identifiers correlate with the
    # method name, so the label stays learnable from terminals alone
    base = LABELS.index(label) + offset
    return pool[(base + int(rng.integers(2))) % len(pool)]


def _names(style: dict, label: str, rng) -> dict:
    # every style draws in this order, so a file's draws do not depend on its style
    return {
        "arr": _slot(style["arrays"], label, rng),
        "acc": _slot(style["ints"], label, rng),
        "lim": _slot(style["ints"], label, rng, offset=3),
        "idx": _slot(style["index"], label, rng),
        "lit": int(rng.integers(2, 40)),
    }


def render_file(style: str, rng, class_tag: str) -> str:
    """One class with 2-3 methods drawn without repetition from LABELS."""
    row = STYLES[style]
    n_methods = int(rng.integers(2, 4))
    labels = [LABELS[i] for i in rng.choice(len(LABELS), size=n_methods, replace=False)]
    class_name = f"{row['classes'][rng.integers(len(row['classes']))]}{class_tag}"
    bodies = [row["methods"][label].format_map(_names(row, label, rng)) for label in labels]
    return f"class {class_name} {{\n" + "\n\n".join(bodies) + "\n}\n"


def _write_snapshot(root: Path, project: str, version: str, release_time: str,
                    plan: list[tuple[str, str]], seed: int) -> int:
    """plan: list of (style, author); returns the number of files written."""
    root.mkdir(parents=True, exist_ok=True)
    files = []
    for i, (style, author) in enumerate(plan):
        rng = np.random.default_rng([seed, _stable_key(version), i])
        name = f"{STYLES[style]['prefix']}{i:03d}.java"
        (root / name).write_text(render_file(style, rng, f"{version.replace('.', '')}x{i}"), encoding="utf-8")
        files.append({"path": name, "author": author})
    meta = {"project": project, "version": version, "release_time": release_time, "files": files}
    write_json(root / "snapshot.json", meta)
    return len(files)


def _style_plan(count: int, b_fraction: float, author: str, rng) -> list[tuple[str, str]]:
    n_b = int(round(count * b_fraction))
    styles = ["b"] * n_b + ["a"] * (count - n_b)
    rng.shuffle(styles)
    return [(s, author) for s in styles]


def generate_corpus(
    root,
    seed: int = 0,
    timeline_files: int = DEFAULT_CONFIG["synth"]["timeline_files"],
    project_files: int = DEFAULT_CONFIG["synth"]["project_files"],
    author_files: dict[str, int] | None = None,
) -> dict:
    """Write corpus directories plus the three shift manifests under `root`.

    `author_files` gives each author of the author shift its file count; an
    author it leaves out gets no files and no split. Returns a summary
    {"files": total, "manifests": {shift: path}}.
    """
    root = Path(root)
    if author_files is None:
        author_files = DEFAULT_CONFIG["synth"]["author_files"]
    strangers = set(author_files).difference(group[1] for *_, groups in SNAPSHOTS for group in groups)
    if strangers:
        raise ValueError(f"author_files names authors no split uses: {sorted(strangers)}")
    counts = {"timeline": timeline_files, "project": project_files}
    docs, total = {}, 0
    for shift, rel, project, version, release_time, groups in SNAPSHOTS:
        splits = docs.setdefault(shift, {"shift_kind": shift, "seed": seed, "splits": {}})["splits"]
        plan = []
        for split, author, b_fraction, key in groups:
            if author is None:
                count, selector = counts[shift], {}
            elif author in author_files:
                count, selector = author_files[author], {"author": author}
            else:
                continue
            plan.extend(_style_plan(count, b_fraction, author or project, np.random.default_rng([seed, *key])))
            splits[split] = [{"project": project, "version": version, "root": rel, **selector}]
        total += _write_snapshot(root / rel, project, version, release_time, plan, seed)

    for shift, doc in docs.items():
        write_json(root / f"manifest_{shift}.json", doc)
    return {"files": total, "manifests": {shift: str(root / f"manifest_{shift}.json") for shift in docs}}
