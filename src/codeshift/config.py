"""Run configuration: defaults, file loading, flag overrides, hashing, artifact writers.

The config is one JSON document. Defaults carry the published training
setup (Adam, lr 0.001, embedding dim 100, dropout 0.5, batch 512, epochs
300) plus estimator parameters (mutation degree 0.05, MC dropout 0.5).
Artifacts land in `work_dir/<first 12 hex of the config hash>/`, so
rerunning with an identical effective config overwrites byte-identically
while changed configs get their own bucket. Every config-stamped CSV goes
through `write_csv`, and every JSON document the package writes (config
echoes, vocabularies, reports, corpus manifests) through `write_json`.
Every JSON document it reads (the config, manifests, snapshot sidecars,
splits, vocabularies, reports) goes through `read_json`. Those writers, the
context files and the checkpoints write through `atomic_open`, so an
artifact is whole or absent.

This module imports nothing but the standard library, so it also holds
what every layer shares: the shift kinds, the validation split's name, the
id of an unknown label, the method table, the one base class of every
error that exits 2, and the report's flat rows. A command that needs no
model or array (`report`, `--help`) loads only this module and the CLI.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

SHIFT_KINDS = ("timeline", "project", "author")
VALIDATION_SPLIT = "validation"
UNK_ID = 0  # the vocabulary id of an unknown token; a true label of UNK_ID is never predicted correctly

MUTATION_OPERATORS = ("GF", "WS", "NS", "NAI")
GROWTH_TYPES = ("linear", "log", "exp")
# the study's uncertainty methods, in report order: each name's `--method`
# flag and its variants (mutation operators, probe growth curves); a method
# without variants has the one variant ""
METHODS = {
    "vanilla": ("vanilla", ("",)),
    "temp_scale": ("temp", ("",)),
    "mc_dropout": ("mcdropout", ("",)),
    "mmutant": ("mmutant", MUTATION_OPERATORS),
    "dissector": ("dissector", GROWTH_TYPES),
}


class ValidationFailure(Exception):
    """Anything that should exit with code 2: a missing or malformed input or artifact."""


DEFAULT_CONFIG: dict = {
    "paths": {
        "corpus_dir": "corpus",
        "work_dir": "work",
        "manifests": {},  # optional per-shift overrides of corpus_dir/manifest_<shift>.json
    },
    "corpus": {
        "val_fraction": 0.1,
        "min_count": 1,
    },
    "extraction": {
        "max_contexts": 200,
        "max_path_len": 9,
        "window": 4,
    },
    "train": {
        "optimizer": "adam",
        "learning_rate": 0.001,
        "embedding_dim": 100,
        "dropout": 0.5,
        "batch_size": 512,
        "epochs": 300,
    },
    "uncertainty": {
        "mc_passes": 30,
        "mc_dropout_p": 0.5,
        "mutant_count": 50,
        "mutation_degree": 0.05,
        "probe_epochs": 20,
        "probe_learning_rate": 0.001,
    },
    "synth": {
        "timeline_files": 40,
        "project_files": 45,
        "author_files": {"alice": 30, "adam": 10, "mira": 10, "bogdan": 12},
    },
    "seed": 0,
}


class ConfigError(ValidationFailure, ValueError):
    pass


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in merged:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(merged[key], dict) and where not in _ENTRY_RULES:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            merged[key] = _deep_merge(merged[key], value, where)
        else:
            merged[key] = value
    return merged


_NUMBER = (int, float)
_POSITIVE_INT = (int, lambda v: v > 0, "a positive integer")
_TEXT = (str, None, "a string")
# dotted key: (its type, a test its value passes, what the test asks for); a bool is no number
_RULES = {
    "paths.corpus_dir": _TEXT,
    "paths.work_dir": _TEXT,
    "corpus.val_fraction": (_NUMBER, lambda v: 0 < v < 1, "a number in (0, 1)"),
    "corpus.min_count": _POSITIVE_INT,
    "extraction.max_contexts": _POSITIVE_INT,
    "extraction.max_path_len": _POSITIVE_INT,
    "extraction.window": _POSITIVE_INT,
    "train.optimizer": (str, lambda v: v == "adam", "'adam', the only optimizer supported"),
    "train.learning_rate": (_NUMBER, lambda v: v > 0, "a positive number"),
    "train.embedding_dim": _POSITIVE_INT,
    "train.dropout": (_NUMBER, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "train.batch_size": _POSITIVE_INT,
    "train.epochs": _POSITIVE_INT,
    "uncertainty.mc_passes": _POSITIVE_INT,
    "uncertainty.mc_dropout_p": (_NUMBER, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "uncertainty.mutant_count": _POSITIVE_INT,
    "uncertainty.mutation_degree": (_NUMBER, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "uncertainty.probe_epochs": _POSITIVE_INT,
    "uncertainty.probe_learning_rate": (_NUMBER, lambda v: v > 0, "a positive number"),
    "synth.timeline_files": _POSITIVE_INT,
    "synth.project_files": _POSITIVE_INT,
    "seed": (int, lambda v: v >= 0, "an unsigned integer"),
}
# free-form objects, merged whole: (a rule per entry, the names an entry may have, whether each is needed)
_ENTRY_RULES = {
    "paths.manifests": (_TEXT, SHIFT_KINDS, False),
    "synth.author_files": (_POSITIVE_INT, tuple(DEFAULT_CONFIG["synth"]["author_files"]), True),
}


def _check(path: str, value, rule) -> None:
    kind, test, expected = rule
    if not isinstance(value, kind) or isinstance(value, bool) or (test is not None and not test(value)):
        raise ConfigError(f"config {path!r} must be {expected}, got {value!r}")


def _validate(config: dict) -> None:
    def at(path: str):
        section, _, key = path.rpartition(".")
        return (config[section] if section else config)[key]

    for path, rule in _RULES.items():
        _check(path, at(path), rule)
    for path, (rule, names, all_required) in _ENTRY_RULES.items():
        entries = at(path)
        if not isinstance(entries, dict):
            raise ConfigError(f"config {path!r} must be an object, got {entries!r}")
        for name, value in entries.items():
            _check(f"{path}.{name}", value, rule)
            if name not in names:
                raise ConfigError(f"config key {f'{path}.{name}'!r} is not one of {names}")
        if all_required and len(entries) < len(names):
            raise ConfigError(f"config {path!r} must name each of {names}, got {sorted(entries)}")


def read_json(path, what: str, error: type[ValidationFailure] = ValidationFailure, object_pairs_hook=None):
    """The JSON document in the UTF-8 file `path`, decoded by `json.loads` with `object_pairs_hook`.

    A file that cannot be read, is not UTF-8, is not JSON or nests deeper
    than the interpreter recurses raises `error` naming `what` and `path`,
    so each reader exits 2 like every other malformed input.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=object_pairs_hook)
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise error(f"{what} file {path} is malformed: {type(exc).__name__}: {exc}") from exc


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults <- config file <- explicit overrides; validated."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    base_dir = Path.cwd()
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        doc = read_json(path, "config", ConfigError)
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        config = _deep_merge(config, doc)
        base_dir = path.parent.resolve()
    if overrides:
        config = _deep_merge(config, overrides)
    _validate(config)
    config["paths"]["_base_dir"] = str(base_dir)
    return config


def config_hash(config: dict) -> str:
    """sha256 of the canonical effective config (machine-local paths excluded)."""
    hashable = copy.deepcopy(config)
    hashable.get("paths", {}).pop("_base_dir", None)
    canonical = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def echo_config(config: dict) -> dict:
    """The config as embedded into artifacts: effective values plus hash."""
    echoed = copy.deepcopy(config)
    echoed.get("paths", {}).pop("_base_dir", None)
    echoed["config_hash"] = config_hash(config)
    return echoed


@contextmanager
def atomic_open(path, binary: bool = False):
    """A file to write `path`'s new content to: UTF-8 text with LF line ends, or bytes.

    It is a temporary file beside `path`, `.<name>.tmp`, which no reader's
    `*.txt`, `*.csv` or `*.json` glob matches. When the block ends it
    replaces `path` in one `os.replace`; when the block raises it is
    removed, and `path` keeps what it held.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, config_hash: str, header: str, lines) -> None:
    """A UTF-8 CSV with LF line ends: `# config_hash=<hash>`, the header, then `lines`, each ending in LF."""
    with atomic_open(path) as f:
        f.write(f"# config_hash={config_hash}\n{header}\n")
        f.writelines(lines)


def write_json(path, doc: dict) -> None:
    """`doc` as UTF-8 JSON with sorted keys, indented 2, and one trailing LF."""
    with atomic_open(path) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def flatten_report(report: dict) -> list[dict]:
    """Flat rows (task, shift, eval, split, method, variant, auc, aupr, brier, note)."""
    rows = []

    def emit(eval_kind, split, method, variant, block):
        rows.append(
            {
                "task": report["task"],
                "shift": report["shift"],
                "eval": eval_kind,
                "split": split,
                "method": method,
                "variant": variant,
                "auc": block["auc"],
                "aupr": block["aupr"],
                "brier": block["brier"],
                "note": block["note"],
            }
        )

    for eval_kind, section in (("error_success", report["error_success"]), ("ood", report["ood"])):
        for split, per_method in section.items():
            for method, block in per_method.items():
                if "variants" in block:
                    for variant, sub in block["variants"].items():
                        emit(eval_kind, split, method, variant, sub)
                    for metric, chosen in block["best"].items():
                        only = {"auc": None, "aupr": None, "brier": None, "note": None, metric: chosen["value"]}
                        emit(eval_kind, split, method, f"best[{metric}]={chosen['variant']}", only)
                else:
                    emit(eval_kind, split, method, "", block)
    return rows


def write_report_csv(path, rows: list[dict], config_hash: str) -> None:
    columns = ("task", "shift", "eval", "split", "method", "variant", "auc", "aupr", "brier", "note")

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value).replace(",", ";")

    write_csv(path, config_hash, ",".join(columns), (",".join(cell(row[c]) for c in columns) + "\n" for row in rows))


def resolve_path(config: dict, key: str) -> Path:
    base = Path(config["paths"].get("_base_dir", "."))
    return (base / config["paths"][key]).resolve()


def corpus_dir(config: dict) -> Path:
    return resolve_path(config, "corpus_dir")


def bucket_dir(config: dict) -> Path:
    return resolve_path(config, "work_dir") / config_hash(config)[:12]


def manifest_path(config: dict, shift: str) -> Path:
    override = config["paths"]["manifests"].get(shift)
    if override:
        return (Path(config["paths"].get("_base_dir", ".")) / override).resolve()
    return corpus_dir(config) / f"manifest_{shift}.json"
