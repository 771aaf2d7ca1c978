"""Command-line surface tying the pipeline together.

Subcommands: synth-corpus, make-splits, extract, train, score, eval, sweep,
filter, report. Artifacts land under `work_dir/<config-hash>/` in splits/,
contexts/, checkpoints/, logs/, scores/, reports/, filtered/; every artifact
embeds the effective config hash, so reruns with an identical config are
byte-identical and different configs never collide.

Exit codes: 1 usage, 2 validation (missing/invalid inputs or artifacts),
3 runtime failure.

Each command imports only the layers it runs, so a short command does not
pay for the rest at start-up: `report` and `--help` load no numpy, and
`synth-corpus`, `make-splits`, `eval`, `sweep` and `filter` load no model.
Every error that exits 2 derives from `config.ValidationFailure`.

`train` and `score` first fix glibc's heap policy (`keep_heap`). Each
training step and each scored batch allocates and frees the same few
arrays of a megabyte or more: context rows, their gradients, the embedding
gradient's index. By default glibc serves such an array by `mmap` and gives
back a free heap top over its trim threshold, and it moves both thresholds
with what was last freed, so a step can map, fault in and unmap its arrays
page by page, every step. With arrays up to 32 MiB taken from the heap and
up to 64 MiB of free heap top kept, a step reuses the pages of the one
before. Both thresholds are set: setting either alone stops the mmap
threshold from moving, at its 128 KiB start. The policy decides only where
arrays live, so no artifact byte depends on it. Where the C library has
no `mallopt` (macOS, Windows), nothing is set.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import (
    METHODS,
    SHIFT_KINDS,
    VALIDATION_SPLIT,
    ConfigError,
    ValidationFailure,
    atomic_open,
    bucket_dir,
    config_hash,
    corpus_dir,
    echo_config,
    flatten_report,
    load_config,
    manifest_path,
    read_json,
    write_csv,
    write_json,
    write_report_csv,
)

TASKS = ("cs", "cc")  # the keys of tasks.MODELS
# (mallopt parameter, value): M_MMAP_THRESHOLD (-3) at 32 MiB, the most 64-bit glibc takes, and M_TRIM_THRESHOLD (-1)
# at 64 MiB
HEAP_POLICY = ((-3, 32 << 20), (-1, 64 << 20))


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="codeshift", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        if flags.get("task"):
            p.add_argument("--task", choices=TASKS, required=True)
        if flags.get("shift"):
            p.add_argument("--shift", choices=SHIFT_KINDS, required=True)
        if flags.get("method"):
            p.add_argument("--method", choices=[flag for flag, _ in METHODS.values()] + ["all"], default="all")
        if flags.get("variant"):
            p.add_argument("--variant", help="mutation operator or probe growth variant")
        if flags.get("threshold"):
            p.add_argument("--threshold", type=float, required=flags["threshold"] == "required")
        if flags.get("split"):
            p.add_argument("--split", help="restrict to one split (default: all scored splits)")
        return p

    add("synth-corpus", "generate the hermetic two-style corpus and its manifests")
    add("make-splits", "assign train/validation/test splits from a shift manifest", shift=True)
    add("extract", "tokenize/parse files and write context files per split", task=True, shift=True)
    add("train", "train a task model on extracted contexts", task=True, shift=True)
    add("score", "score splits with uncertainty estimators", task=True, shift=True, method=True)
    add("eval", "assemble error/success and in-/OOD reports from scores", task=True, shift=True)
    add("sweep", "confidence-threshold sweep over scored records",
        task=True, shift=True, method=True, variant=True, split=True)
    add("filter", "split inputs into accepted/rejected at a confidence threshold",
        task=True, shift=True, method=True, variant=True, threshold="required", split=True)
    add("report", "merge per-(task,shift) reports into one document")
    return parser


# -- artifact paths -----------------------------------------------------------


def _splits_path(bucket: Path, shift: str) -> Path:
    return bucket / "splits" / f"{shift}.json"


def _contexts_path(bucket: Path, task: str, shift: str, split: str) -> Path:
    return bucket / "contexts" / f"{task}-{shift}-{split}.txt"


def _vocabs_path(bucket: Path, task: str, shift: str) -> Path:
    return bucket / "contexts" / f"{task}-{shift}-vocabs.json"


def _checkpoint_path(bucket: Path, task: str, shift: str) -> Path:
    return bucket / "checkpoints" / f"{task}-{shift}.ckpt"


def _method_stem(task: str, shift: str, method: str, variant: str, split: str) -> str:
    """`<task>-<shift>-<method>[-<variant>]-<split>`, the stem of a method's per-split artifacts."""
    return "-".join(part for part in (task, shift, method, variant, split) if part)


def _scores_path(bucket: Path, task: str, shift: str, method: str, variant: str, split: str) -> Path:
    return bucket / "scores" / f"{_method_stem(task, shift, method, variant, split)}.csv"


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ValidationFailure(f"missing artifact {path}; run `{hint}` first")
    return path


@contextmanager
def _malformed(kind: str, path: Path):
    """Turn a decode or structure error while reading `path` into exit 2 naming it."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationFailure(f"{kind} file {path} is malformed: {type(exc).__name__}: {exc}") from exc


def keep_heap() -> tuple[int, ...]:
    """Apply `HEAP_POLICY` through the C library's `mallopt`; each call's result (1 on success), or () without one."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no `mallopt`, or no process-wide C library handle
        return ()
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return tuple(mallopt(param, value) for param, value in HEAP_POLICY)


# -- subcommands ----------------------------------------------------------------


def cmd_synth_corpus(config: dict, args) -> int:
    from . import synth

    target = corpus_dir(config)
    params = config["synth"]
    summary = synth.generate_corpus(
        target,
        seed=config["seed"],
        timeline_files=params["timeline_files"],
        project_files=params["project_files"],
        author_files=params["author_files"],
    )
    print(f"wrote {summary['files']} files under {target}")
    for shift, path in summary["manifests"].items():
        print(f"  manifest[{shift}] = {path}")
    return 0


def cmd_make_splits(config: dict, args) -> int:
    from . import corpus

    source = manifest_path(config, args.shift)
    if not source.is_file():
        raise ValidationFailure(f"manifest not found: {source}; run `synth-corpus` or point paths.manifests at one")
    with _malformed("manifest", source):
        manifest = corpus.load_manifest(source)
        assignment = corpus.assign_splits(manifest, val_fraction=config["corpus"]["val_fraction"])
    if manifest.shift_kind != args.shift:
        raise ValidationFailure(f"manifest {source} has shift_kind {manifest.shift_kind!r}, expected {args.shift!r}")
    bucket = bucket_dir(config)
    out = _splits_path(bucket, args.shift)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"config": echo_config(config), "shift": args.shift, "assignment": assignment.to_json(out.parent)}
    write_json(out, payload)
    sizes = {name: len(files) for name, files in assignment.splits.items()}
    print(f"splits[{args.shift}] -> {out} {sizes}")
    return 0


def _load_assignment(bucket: Path, shift: str):
    """The `corpus.SplitAssignment` that `make-splits` wrote for `shift`."""
    from . import corpus

    path = _require(_splits_path(bucket, shift), f"make-splits --shift {shift}")
    with _malformed("splits", path):
        payload = read_json(path, "splits")
        return corpus.SplitAssignment.from_json(payload["assignment"], path.parent)


def cmd_extract(config: dict, args) -> int:
    from . import corpus
    from .extraction import (
        LexicalError,
        ParseError,
        build_cc_vocab,
        build_cs_vocabs,
        extract_cbow_samples,
        extract_method_samples,
        parse_java_lite,
        tokenize_java,
        write_cc_contexts,
        write_cs_contexts,
    )

    ext = config["extraction"]
    if args.task == "cs":
        def extract(tokens, diagnostics):
            tree = parse_java_lite(tokens, diagnostics)
            return extract_method_samples(
                tree, max_contexts=ext["max_contexts"], max_path_len=ext["max_path_len"], seed=config["seed"]
            )
        write, build_vocabs = write_cs_contexts, build_cs_vocabs
    else:
        def extract(tokens, diagnostics):
            return extract_cbow_samples(tokens, window=ext["window"])
        write, build_vocabs = write_cc_contexts, build_cc_vocab

    bucket = bucket_dir(config)
    assignment = _load_assignment(bucket, args.shift)
    if "train" not in assignment.splits:
        raise ValidationFailure("assignment has no 'train' split")
    (bucket / "contexts").mkdir(parents=True, exist_ok=True)
    recoveries = 0
    for split in assignment.splits:
        records = []
        for rel, text in corpus.iterate_samples(assignment, split, seed=config["seed"]):
            diagnostics: list[str] = []
            try:
                records.extend(extract(tokenize_java(text), diagnostics))
            except (LexicalError, ParseError) as exc:
                raise ValidationFailure(f"{assignment.base_dir / rel}: {exc}") from exc
            recoveries += len(diagnostics)
        if not records:
            raise ValidationFailure(f"split {split!r} produced no {args.task} samples")
        write(_contexts_path(bucket, args.task, args.shift, split), records)
        if split == "train":
            train_records = records
        print(f"extract[{args.task}/{args.shift}/{split}] {len(records)} samples")
    vocabs = build_vocabs(train_records, min_count=config["corpus"]["min_count"])
    payload = {"config": echo_config(config), "vocabs": {name: vocab.tokens for name, vocab in vocabs.items()}}
    write_json(_vocabs_path(bucket, args.task, args.shift), payload)
    if recoveries:
        print(f"note: parser recovered {recoveries} unrecognized statements")
    return 0


def _load_vocabs(bucket: Path, task: str, shift: str) -> dict:
    """{name: extraction.Vocabulary} as `extract` wrote them for (task, shift)."""
    from . import tasks
    from .extraction import Vocabulary

    path = _require(_vocabs_path(bucket, task, shift), f"extract --task {task} --shift {shift}")
    with _malformed("vocab", path):
        vocabs = read_json(path, "vocab")["vocabs"]
        expected = sorted(tasks.MODELS[task].vocab_names)
        if sorted(vocabs) != expected:
            raise ValueError(f"expected vocabularies {expected}, got {sorted(vocabs)}")
        return {name: Vocabulary.from_tokens(tokens) for name, tokens in vocabs.items()}


def _load_encoded(bucket: Path, task: str, shift: str, split: str, vocabs: dict, allow_empty: bool = False):
    """`split`'s contexts encoded against `vocabs` line by line, as one `tasks.EncodedSplit`."""
    from . import tasks
    from .extraction import read_cc_contexts, read_cs_contexts

    path = _require(
        _contexts_path(bucket, task, shift, split), f"extract --task {task} --shift {shift}"
    )
    records = read_cs_contexts(path) if task == "cs" else read_cc_contexts(path)
    encoded = tasks.encode_records(records, vocabs, id_prefix=split)
    if not encoded and not allow_empty:
        raise ValidationFailure(f"contexts file {path} holds no {task} samples; re-run `extract`")
    return encoded


def _split_names(bucket: Path, task: str, shift: str) -> list[str]:
    prefix = f"{task}-{shift}-"
    names = [
        p.stem[len(prefix):]
        for p in sorted((bucket / "contexts").glob(f"{prefix}*.txt"))
    ]
    return [n for n in names if n]


def cmd_train(config: dict, args) -> int:
    from . import tasks

    keep_heap()
    bucket = bucket_dir(config)
    vocabs = _load_vocabs(bucket, args.task, args.shift)
    train_enc = _load_encoded(bucket, args.task, args.shift, "train", vocabs)
    val_enc = _load_encoded(bucket, args.task, args.shift, VALIDATION_SPLIT, vocabs, allow_empty=True)
    t, seed = config["train"], config["seed"]
    if args.task == "cs":
        model = tasks.PathAttentionModel(**vocabs, dim=t["embedding_dim"], dropout_p=t["dropout"], seed=seed)
    else:  # CC trains without dropout
        model = tasks.MlpCompletionModel(**vocabs, dim=t["embedding_dim"], seed=seed)
    history = tasks.train(
        model, train_enc, epochs=t["epochs"], batch_size=t["batch_size"], learning_rate=t["learning_rate"],
        seed=seed, val_samples=val_enc,
    )
    ckpt = _checkpoint_path(bucket, args.task, args.shift)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    hash_hex = config_hash(config)
    echo = {key: value for key, value in t.items() if key != "optimizer"}
    blob = tasks.save_checkpoint(model, train_config={**echo, "seed": seed, "config_hash": hash_hex})
    with atomic_open(ckpt, binary=True) as f:
        f.write(blob)
    log_dir = bucket / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    tasks.write_epoch_log(history, log_dir / f"{args.task}-{args.shift}-epochs.csv", hash_hex)
    last = history[-1]
    val_acc = "n/a" if last["val_acc"] is None else f"{last['val_acc']:.2f}"
    print(
        f"train[{args.task}/{args.shift}] epochs={len(history)} "
        f"train_acc={last['train_acc']:.2f} val_acc={val_acc} -> {ckpt}"
    )
    return 0


def _load_model(bucket: Path, task: str, shift: str):
    from . import nn, tasks

    path = _require(_checkpoint_path(bucket, task, shift), f"train --task {task} --shift {shift}")
    try:
        return tasks.load_checkpoint(path.read_bytes(), expect_kind=task)
    except nn.CheckpointError as exc:
        raise ValidationFailure(f"checkpoint {path}: {exc}") from exc


def cmd_score(config: dict, args) -> int:
    from . import uncertainty as uq

    keep_heap()
    bucket = bucket_dir(config)
    model = _load_model(bucket, args.task, args.shift)
    vocabs = model.vocabs()  # every split is encoded as the model was trained

    split_names = _split_names(bucket, args.task, args.shift)
    eval_splits = [s for s in split_names if s == VALIDATION_SPLIT or s.startswith("test")]
    if VALIDATION_SPLIT not in eval_splits:
        raise ValidationFailure("no validation contexts found; run `extract` first")
    encoded = {s: _load_encoded(bucket, args.task, args.shift, s, vocabs) for s in eval_splits}
    estimators = [e for e in uq.ESTIMATORS.values() if args.method in ("all", e.flag)]
    train = None  # read only for an estimator whose fit uses it
    if any(e.needs_train for e in estimators):
        train = _load_encoded(bucket, args.task, args.shift, "train", vocabs)

    settings = {**config["uncertainty"], "seed": config["seed"]}
    # the validation forward feeds the fits and then scores that split
    validation = encoded[VALIDATION_SPLIT]
    base = uq.base_outputs(model, validation)
    fitted = [(e, e.fit(model, train, validation, base, settings)) for e in estimators]
    del train, validation  # held by the fits only; each split scored below is freed once its files are written

    out_dir = bucket / "scores"
    out_dir.mkdir(parents=True, exist_ok=True)
    hash_hex = config_hash(config)
    written = 0
    for split in sorted(encoded, key=lambda s: s != VALIDATION_SPLIT):  # validation's outputs first
        samples = encoded.pop(split)
        if base is None:
            base = uq.base_outputs(model, samples)
        for estimator, state in fitted:
            for table in estimator.tables(model, state, samples, base, split):
                uq.write_scores_csv(
                    _scores_path(bucket, args.task, args.shift, table.method, table.variant, split), table, hash_hex
                )
                written += 1
        base = None  # one split's outputs, features included, are alive at a time
    print(f"score[{args.task}/{args.shift}] wrote {written} score files over splits {eval_splits}")
    return 0


def cmd_eval(config: dict, args) -> int:
    from . import evalpipe
    from .metrics import is_correct
    from .uncertainty import read_scores_csv

    bucket = bucket_dir(config)
    paths = sorted((bucket / "scores").glob(f"{args.task}-{args.shift}-*.csv"))
    if not paths:
        raise ValidationFailure(
            f"no scores for {args.task}/{args.shift} under {bucket / 'scores'}; "
            f"run `score --task {args.task} --shift {args.shift}` first"
        )
    tables = [read_scores_csv(path) for path in paths]
    vanilla = sorted((t for t in tables if t.method == "vanilla"), key=lambda t: t.split)
    accuracies = {
        t.split: 100.0 * int(is_correct(t.predicted, t.true).sum()) / len(t) for t in vanilla
    }
    if VALIDATION_SPLIT not in accuracies:  # every split's accuracy drop is measured against it
        missing = _scores_path(bucket, args.task, args.shift, "vanilla", "", VALIDATION_SPLIT)
        raise ValidationFailure(
            f"missing artifact {missing}; run `score --task {args.task} --shift {args.shift}` first"
        )
    hash_hex = config_hash(config)
    report = evalpipe.build_report(args.task, args.shift, tables, accuracies, config_hash=hash_hex)
    out_dir = bucket / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{args.task}-{args.shift}.json"
    write_json(json_path, report)
    write_report_csv(out_dir / f"{args.task}-{args.shift}.csv", flatten_report(report), hash_hex)
    print(f"eval[{args.task}/{args.shift}] -> {json_path}")
    for split, row in report["accuracy"].items():
        shown = row.get("formatted", f"{row['accuracy']:.2f}")
        print(f"  accuracy[{split}] = {shown}")
    return 0


def _variant_tables(bucket: Path, args) -> tuple[str, str, dict]:
    """The method `--method` names, its chosen variant, and that variant's score tables by split."""
    from .uncertainty import read_scores_csv

    if args.method == "all":
        raise ValidationFailure(f"{args.command} needs a single --method")
    method = next(name for name, (flag, _) in METHODS.items() if flag == args.method)
    _, variants = METHODS[method]
    variant = args.variant or variants[0]
    if variant not in variants:
        if variants == ("",):
            raise ValidationFailure(f"method {method} has no variants")
        raise ValidationFailure(f"{method} has variants {variants}, not {variant!r}")
    pattern = _scores_path(bucket, args.task, args.shift, method, variant, split="*")
    tables = {}
    for path in sorted(pattern.parent.glob(pattern.name)):
        table = read_scores_csv(path)
        if (table.method, table.variant) != (method, variant):
            raise ValidationFailure(
                f"score file {path} holds method={table.method} variant={table.variant!r}, "
                f"expected method={method} variant={variant!r}"
            )
        tables[table.split] = table
    if not tables:
        raise ValidationFailure(f"no records for method={method} variant={variant!r}")
    return method, variant, tables


def cmd_sweep(config: dict, args) -> int:
    from . import evalpipe
    from .metrics import is_correct

    bucket = bucket_dir(config)
    method, variant, tables = _variant_tables(bucket, args)
    splits = sorted(tables)
    if args.split:
        if args.split not in splits:
            raise ValidationFailure(f"split {args.split!r} not scored; have {splits}")
        splits = [args.split]
    out_dir = bucket / "reports" / "sweeps"
    out_dir.mkdir(parents=True, exist_ok=True)
    for split in splits:
        table = tables[split]
        rows = evalpipe.threshold_sweep(table.confidence, is_correct(table.predicted, table.true))
        path = out_dir / f"{_method_stem(args.task, args.shift, method, variant, split)}.csv"
        evalpipe.write_sweep_csv(path, rows, config_hash(config))
        print(f"sweep[{args.task}/{args.shift}/{split}] -> {path}")
    return 0


def cmd_filter(config: dict, args) -> int:
    from . import evalpipe
    from .uncertainty import column_texts

    if not 0.0 <= args.threshold <= 1.0:  # NaN fails too
        raise ValidationFailure(f"--threshold must be a number in [0, 1], got {args.threshold}")
    bucket = bucket_dir(config)
    method, variant, tables = _variant_tables(bucket, args)
    splits = sorted(s for s in tables if s.startswith("test"))
    if args.split:
        splits = [args.split]
    if not splits:
        raise ValidationFailure("no test splits to filter")
    out_dir = bucket / "filtered"
    out_dir.mkdir(parents=True, exist_ok=True)
    hash_hex = config_hash(config)
    for split in splits:
        if split not in tables:
            raise ValidationFailure(f"no records for split {split!r}")
        table = tables[split]
        accepted = evalpipe.input_filter(table.confidence, args.threshold).tolist()
        rows = list(zip(
            table.sample_ids, column_texts(table.confidence), column_texts(table.predicted), accepted
        ))
        stem = _method_stem(args.task, args.shift, method, variant, split)
        write_csv(out_dir / f"{stem}-accepted.csv", hash_hex, "sample_id,confidence,predicted",
                  (f"{sample_id},{conf},{pred}\n" for sample_id, conf, pred, ok in rows if ok))
        write_csv(out_dir / f"{stem}-rejected.csv", hash_hex, "sample_id,confidence",
                  (f"{sample_id},{conf}\n" for sample_id, conf, _, ok in rows if not ok))
        print(
            f"filter[{args.task}/{args.shift}/{split}] threshold={args.threshold} "
            f"accepted={sum(accepted)} rejected={len(accepted) - sum(accepted)}"
        )
    return 0


def cmd_report(config: dict, args) -> int:
    bucket = bucket_dir(config)
    report_dir = bucket / "reports"
    paths = sorted(p for p in report_dir.glob("*.json") if p.name != "all.json")
    if not paths:
        raise ValidationFailure(f"no reports under {report_dir}; run `eval` first")
    hash_hex = config_hash(config)
    merged = {"config_hash": hash_hex, "reports": []}
    rows = []
    for path in paths:
        with _malformed("report", path):
            report = read_json(path, "report")
            rows.extend(flatten_report(report))
        merged["reports"].append(report)
    write_json(report_dir / "all.json", merged)
    write_report_csv(report_dir / "all.csv", rows, hash_hex)
    print(f"report: merged {len(paths)} reports -> {report_dir / 'all.json'}")
    return 0


COMMANDS = {
    "synth-corpus": cmd_synth_corpus,
    "make-splits": cmd_make_splits,
    "extract": cmd_extract,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "filter": cmd_filter,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {"seed": args.seed} if args.seed is not None else None
    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"codeshift: config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](config, args)
    except ValidationFailure as exc:
        print(f"codeshift: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a runtime failure
        print(f"codeshift: runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
