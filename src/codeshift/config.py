"""Run configuration: defaults, file loading, flag overrides, hashing, artifact writers.

The config is one JSON document. Defaults carry the published training
setup (Adam, lr 0.001, embedding dim 100, dropout 0.5, batch 512, epochs
300) plus estimator parameters (mutation degree 0.05, MC dropout 0.5).
Artifacts land in `work_dir/<first 12 hex of the config hash>/`, so
rerunning with an identical effective config overwrites byte-identically
while changed configs get their own bucket. Every config-stamped CSV goes
through `write_csv`, and every JSON document the package writes (config
echoes, vocabularies, reports, corpus manifests) through `write_json`.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

from .corpus import SHIFT_KINDS

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


class ConfigError(ValueError):
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


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults <- config file <- explicit overrides; validated."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    base_dir = Path.cwd()
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
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


def write_csv(path, config_hash: str, header: str, lines) -> None:
    """A UTF-8 CSV with LF line ends: `# config_hash=<hash>`, the header, then `lines`, each ending in LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# config_hash={config_hash}\n{header}\n")
        f.writelines(lines)


def write_json(path, doc: dict) -> None:
    """`doc` as UTF-8 JSON with sorted keys, indented 2, and one trailing LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


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
