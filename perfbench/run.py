#!/usr/bin/env python3
"""Benchmark of the codeshift study pipeline, run the way a user runs it.

    python3 perfbench/run.py --workload cs-timeline --seed 7 --seconds 58 --trace 0

Run from the root of a codeshift checkout. Every command is its own
`python -m codeshift.cli <command>` process with PYTHONPATH=src, in a closed
loop with one client: each command starts when the previous one exits.
BLAS may use at most `nproc` threads. The workload seed becomes the config
`seed`; the program receives only the generated corpus and the config.

A run sets the workload up (several times with --trace 0, and reports the
median as setup_s). It then runs rounds of the workload's timed commands
while another round is expected to end within --seconds of the run's start
(at least one), then rounds of only the commands shorter than CHEAP_S. Each
metric uses the median wall time of each command. Last, the run checks
every output and hashes the deterministic artifacts.

--trace 0 reports the end-to-end metrics. --trace 1 is the separate traced
run: fresh-process start-up timing, one set-up, then the timed commands
untraced, with spans around each layer's public functions
(perfbench/trace_cli.py), and untraced again, then the nn op table
(perfbench/optable.py); it reports the per-layer metrics. Human-readable lines go first; the last line of standard output is
one JSON object {correct, attempted, failed, metrics}. Full results, with
the provenance block, the artifact digest and the op table, are written to
.perfbench_results/<workload>-s<seed>-trace<t>.json. All scratch files live
under .perfbench_work/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
CHEAP_S = 3.0  # a timed command faster than this repeats while the window lasts
MAX_SAMPLES = 5  # runs of one command per measuring window

COMMANDS = ("make-splits", "extract", "train", "score", "eval", "sweep", "filter", "report")
METHOD_FILES = (  # (method, variant) pairs `score` writes per split
    ("vanilla", ""), ("temp_scale", ""), ("mc_dropout", ""),
    ("mmutant", "GF"), ("mmutant", "WS"), ("mmutant", "NS"), ("mmutant", "NAI"),
    ("dissector", "linear"), ("dissector", "log"), ("dissector", "exp"),
)

# README study config: dim 48, batch 128, 100 epochs, validation 0.2
README_TRAIN = {"embedding_dim": 48, "batch_size": 128, "epochs": 100}
README_UNCERTAINTY = {"mc_passes": 8, "mutant_count": 12, "probe_epochs": 8}


def study_commands(task: str, shift: str) -> list[tuple[str, ...]]:
    ts = ("--task", task, "--shift", shift)
    return [
        ("make-splits", "--shift", shift),
        ("extract", *ts),
        ("train", *ts),
        ("score", *ts),
        ("eval", *ts),
        ("sweep", *ts, "--method", "vanilla"),
        ("filter", *ts, "--method", "vanilla", "--threshold", "0.7"),
        ("report",),
    ]


@dataclass(frozen=True)
class Workload:
    config: dict
    setup: list
    timed: list
    studies: tuple  # (task, shift) pairs whose outputs are checked
    setup_reps: int
    full_study: bool  # timed commands include sweep, filter and report


def _project_setup() -> list:
    cmds = [("synth-corpus",), ("make-splits", "--shift", "project")]
    cmds += [("extract", "--task", t, "--shift", "project") for t in ("cs", "cc")]
    cmds += [("train", "--task", t, "--shift", "project") for t in ("cs", "cc")]
    return cmds


WORKLOADS = {
    # training is compute-bound: one batch of wide path-context tensors
    # per epoch; the parser runs; evalpipe/metrics see few samples
    "cs-timeline": Workload(
        config={"corpus": {"val_fraction": 0.2}, "train": README_TRAIN, "uncertainty": README_UNCERTAINTY},
        setup=[("synth-corpus",)],
        timed=study_commands("cs", "timeline"),
        studies=(("cs", "timeline"),),
        setup_reps=3,
        full_study=True,
    ),
    # training is per-call overhead and np.add.at; no parser; ~140k score
    # rows re-read by eval, sweep and filter
    "cc-timeline": Workload(
        config={"corpus": {"val_fraction": 0.2}, "train": README_TRAIN, "uncertainty": README_UNCERTAINTY},
        setup=[("synth-corpus",)],
        timed=study_commands("cc", "timeline"),
        studies=(("cc", "timeline"),),
        setup_reps=3,
        full_study=True,
    ),
    # the estimators at the paper's defaults (30 MC passes, 50 mutants per
    # operator, 20 probe epochs) do nearly all timed work. Training is
    # set-up, cut to 30 epochs so two set-ups fit a run: the estimators'
    # work depends on the shapes, not on how far the model trained (at 10
    # epochs CS validation accuracy falls below the shifted split's)
    "estimators-project": Workload(
        config={"corpus": {"val_fraction": 0.2}, "train": {**README_TRAIN, "epochs": 30}},
        setup=_project_setup(),
        timed=[(c, "--task", t, "--shift", "project") for t in ("cs", "cc") for c in ("score", "eval")],
        studies=(("cs", "project"), ("cc", "project")),
        setup_reps=2,
        full_study=False,
    ),
}


# -- processes -------------------------------------------------------------


@dataclass
class CommandRun:
    args: tuple
    wall_s: float
    rss_mb: float
    minor_faults: int
    returncode: int
    log: Path

    @property
    def name(self) -> str:
        return self.args[0]


class Runner:
    """Starts one process at a time and records its wall time and peak RSS."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OPENBLAS_NUM_THREADS=str(NPROC),
            OMP_NUM_THREADS=str(NPROC),
            MKL_NUM_THREADS=str(NPROC),
        )
        # bytecode is cached under src/ as after a normal install, whatever
        # the caller's environment says, so start-up is the same everywhere
        for name in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        self.count = 0

    def run(self, argv: list[str], cwd: Path, label: str) -> CommandRun:
        self.count += 1
        log = self.work / "logs" / f"{self.count:04d}-{label}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CommandRun(tuple(argv), wall, usage.ru_maxrss / 1024.0, usage.ru_minflt, proc.returncode, log)

    def cli(self, args: tuple, study: Path, spans: Path | None = None) -> CommandRun:
        if spans is None:
            head = [sys.executable, "-m", "codeshift.cli"]
        else:
            head = [sys.executable, str(HERE / "trace_cli.py"), str(spans)]
        run = self.run([*head, *args, "--config", "study.json"], study, args[0])
        run.args = args
        if run.returncode != 0:
            tail = run.log.read_text(encoding="utf-8", errors="replace")[-600:]
            print(f"command failed ({run.returncode}): {' '.join(args)}\n{tail}", file=sys.stderr)
        return run


# -- set-up and rounds -----------------------------------------------------


def set_up(runner: Runner, study: Path, workload: Workload, seed: int) -> list[CommandRun]:
    """Write the config into a fresh study directory and run the set-up commands."""
    shutil.rmtree(study, ignore_errors=True)
    study.mkdir(parents=True)
    config = {**workload.config, "paths": {"corpus_dir": "corpus", "work_dir": "work"}, "seed": seed}
    (study / "study.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return run_commands(runner, study, workload.setup)


def run_commands(runner: Runner, study: Path, commands: list, spans: Path | None = None) -> list[CommandRun]:
    """Run commands in order, stopping at the first failure."""
    runs = []
    for i, args in enumerate(commands):
        out = None if spans is None else spans / f"{i:02d}-{args[0]}.json"
        runs.append(runner.cli(args, study, out))
        if runs[-1].returncode != 0:
            break
    return runs


# -- correctness checks ------------------------------------------------------


def _bucket(study: Path) -> Path:
    buckets = sorted((study / "work").glob("*/"))
    if len(buckets) != 1:
        raise FileNotFoundError(f"expected one work bucket under {study / 'work'}, found {len(buckets)}")
    return buckets[0]


def _count_samples(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


def _check_scores(path: Path, expected_rows: int) -> str | None:
    rows = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#") or line.startswith("sample_id,"):
                continue
            try:
                confidence = float(line.split(",")[4])
            except (IndexError, ValueError):
                return f"malformed row {line.strip()!r}"
            if not 0.0 <= confidence <= 1.0:
                return f"confidence {confidence} outside [0, 1]"
            rows += 1
    if rows != expected_rows:
        return f"{rows} rows, split has {expected_rows} samples"
    return None


def _check_report_metrics(node) -> str | None:
    """Every AUC/AUPR/Brier lies in [0, 100] or is null beside a note."""
    if isinstance(node, dict):
        for key in ("auc", "aupr", "brier"):
            if key not in node:
                continue
            value = node[key]
            if isinstance(value, dict):  # a "best" entry; its variant block is checked itself
                value = value.get("value")
                if value is None:
                    continue
            if value is None:
                if not node.get("note"):
                    return f"{key} is null without a note"
            elif not (isinstance(value, (int, float)) and 0.0 <= value <= 100.0):
                return f"{key}={value!r} outside [0, 100]"
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return None
    for child in children:
        problem = _check_report_metrics(child)
        if problem:
            return problem
    return None


def _significantly_below(val_pct: float, n_val: int, test_pct: float, n_test: int) -> bool:
    """Validation accuracy lies more than two standard errors below the test split's.

    The shift drop is checked against sampling error: CS validation splits
    hold about 20 methods, so a mildly shifted test split (timeline test1 is
    10% restyled) can score above validation by chance while the program is
    right.
    """
    pv, pt = val_pct / 100.0, test_pct / 100.0
    se = math.sqrt(pv * (1.0 - pv) / n_val + pt * (1.0 - pt) / n_test)
    return pv < pt - 2.0 * se


def check_outputs(study: Path, workload: Workload) -> tuple[list[tuple[str, str | None]], dict]:
    """Return ([(check, problem or None)], facts about the outputs)."""
    checks: list[tuple[str, str | None]] = []
    facts = {"score_rows": {}, "train_samples": {}, "files": {}}
    try:
        bucket = _bucket(study)
    except FileNotFoundError as exc:
        return [("work bucket", str(exc))], facts

    def exists(path: Path) -> bool:
        ok = path.is_file()
        checks.append((f"exists {path.relative_to(bucket)}", None if ok else "missing"))
        return ok

    for task, shift in workload.studies:
        contexts = bucket / "contexts"
        samples = {
            p.stem[len(f"{task}-{shift}-"):]: _count_samples(p)
            for p in sorted(contexts.glob(f"{task}-{shift}-*.txt"))
        }
        facts["train_samples"][task] = samples.get("train", 0)
        splits_doc = bucket / "splits" / f"{shift}.json"
        if splits_doc.is_file():
            assignment = json.loads(splits_doc.read_text(encoding="utf-8"))["assignment"]["splits"]
            facts["files"][shift] = sum(len(files) for files in assignment.values())
        eval_splits = [s for s in samples if s == "validation" or s.startswith("test")]
        tests = [s for s in eval_splits if s.startswith("test")]
        if "validation" not in eval_splits or not tests:
            checks.append((f"{task}-{shift} splits", f"extracted splits {sorted(samples)}"))
            continue
        exists(bucket / "checkpoints" / f"{task}-{shift}.ckpt")
        rows = 0
        for method, variant in METHOD_FILES:
            for split in eval_splits:
                stem = f"{task}-{shift}-{method}{'-' + variant if variant else ''}-{split}"
                path = bucket / "scores" / f"{stem}.csv"
                if exists(path):
                    checks.append((f"rows and confidence {stem}", _check_scores(path, samples[split])))
                rows += samples[split]
        facts["score_rows"][task] = rows
        report = bucket / "reports" / f"{task}-{shift}.json"
        exists(bucket / "reports" / f"{task}-{shift}.csv")
        if exists(report):
            doc = json.loads(report.read_text(encoding="utf-8"))
            checks.append((f"metric ranges {report.name}", _check_report_metrics(doc)))
            accuracy = doc.get("accuracy", {})
            val = accuracy.get("validation", {}).get("accuracy")
            for split in tests:
                test = accuracy.get(split, {}).get("accuracy")
                ok = val is not None and test is not None and not _significantly_below(
                    val, samples["validation"], test, samples[split])
                checks.append((f"{task}-{shift} validation accuracy not below {split}",
                               None if ok else f"validation {val} vs {split} {test}"))
        if workload.full_study:
            for split in eval_splits:
                exists(bucket / "reports" / "sweeps" / f"{task}-{shift}-vanilla-{split}.csv")
            for split in tests:
                for side in ("accepted", "rejected"):
                    exists(bucket / "filtered" / f"{task}-{shift}-vanilla-{split}-{side}.csv")
    if workload.full_study:
        exists(bucket / "reports" / "all.json")
        exists(bucket / "reports" / "all.csv")
    return checks, facts


def artifact_digest(study: Path) -> str:
    """sha256 over every file of the study (path and bytes); the absolute study
    path, which the splits document embeds, is replaced by a placeholder."""
    digest = hashlib.sha256()
    root = str(study).encode()
    for path in sorted(p for p in study.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(study)).encode() + b"\0")
        digest.update(path.read_bytes().replace(root, b"<study>") + b"\0")
    return digest.hexdigest()


# -- statistics ----------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 11:
        pct = math.floor(100.0 * (1.0 - 10.0 / len(values)))
        ordered = sorted(values)
        out[f"p{pct}"] = ordered[min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1)]
    return out


def end_to_end(workload: Workload, config: dict, setups: list[list[CommandRun]],
               samples: dict[tuple, list[CommandRun]], facts: dict) -> dict[str, tuple[float, str]]:
    """Metrics from the median wall time of each timed command (and of each set-up)."""
    median = {args: statistics.median(r.wall_s for r in runs) for args, runs in samples.items()}

    def timed(*names: str) -> float:
        return sum(v for args, v in median.items() if args[0] in names)

    train_work = sum(facts["train_samples"].values()) * config["train"]["epochs"]
    # estimators-project trains only in set-up
    names = {args[0] for args in workload.timed}
    return {
        "study_s": (sum(median.values()), "s"),
        "train_samples_per_s": (
            train_work / timed("train") if "train" in names
            else statistics.median(train_work / sum(r.wall_s for r in s if r.name == "train") for s in setups),
            "1/s"),
        "score_records_per_s": (sum(facts["score_rows"].values()) / timed("score"), "1/s"),
        "analysis_s": (timed("eval", "sweep", "filter", "report"), "s"),
        "peak_rss_mb": (max(statistics.median(r.rss_mb for r in runs) for runs in samples.values()), "MB"),
        "setup_s": (statistics.median(sum(r.wall_s for r in s) for s in setups), "s"),
    }


# -- provenance ----------------------------------------------------------------


def provenance(runner: Runner, seed: int) -> dict:
    # importing codeshift.cli here also compiles its bytecode, which keeps
    # that one-off cost out of every timing
    probe = (
        "import json, platform, numpy, scipy, codeshift.cli\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': blas.get('name', '?') + ' ' + str(blas.get('version', '?'))}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=runner.env, capture_output=True, text=True, check=True)
    info = json.loads(out.stdout)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        match = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = match.group(1) if match else cpu
    except OSError:
        pass
    return {
        "git_commit": commit,
        **info,
        "blas_threads": NPROC,
        "nproc": NPROC,
        "cpu": cpu,
        "seed": seed,
        "hardware_counters": "none: this benchmark reads no performance counters",
    }


# -- traced run ----------------------------------------------------------------


def startup_times(runner: Runner, reps: int = 5) -> tuple[list[float], float]:
    """Fresh-process `import codeshift.cli` times, and the scipy share from -X importtime."""
    times = []
    for i in range(reps):
        times.append(runner.run([sys.executable, "-c", "import codeshift.cli"], ROOT, f"startup{i}").wall_s)
    run = runner.run([sys.executable, "-X", "importtime", "-c", "import codeshift.cli"], ROOT, "importtime")
    scipy_us = 0
    for line in run.log.read_text(encoding="utf-8").splitlines():
        # "import time: self [us] | cumulative | imported package"
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            scipy_us = int(parts[1].strip())
    return times, scipy_us / 1e6


def load_spans(directory: Path) -> tuple[list[dict], dict[str, int]]:
    spans, taped = [], {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(doc["spans"])
        for op, n in doc["taped_calls"].items():
            taped[op] = taped.get(op, 0) + n
    return spans, taped


class SpanQuery:
    def __init__(self, spans: list[dict]):
        self.spans = spans

    def select(self, names, under=(), parent=()):
        names = {names} if isinstance(names, str) else set(names)
        for s in self.spans:
            path = s["path"]
            if path[-1] not in names:
                continue
            if under and not any(any(p.startswith(u) for u in under) for p in path[:-1]):
                continue
            if parent and (len(path) < 2 or path[-2] not in parent):
                continue
            yield s

    def total(self, names, **kw) -> float:
        return sum(s["total_s"] for s in self.select(names, **kw))

    def count(self, names, **kw) -> int:
        return sum(s["count"] for s in self.select(names, **kw))

    def items(self, names, **kw) -> int:
        return sum(s["items"] for s in self.select(names, **kw))

    def layer_self(self, layer: str) -> float:
        return sum(s["self_s"] for s in self.spans if s["path"][-1].startswith(layer + "."))


NN_TABLE_OPS = ("embedding_lookup", "concat_last", "affine", "tanh", "dropout", "attention_pool", "softmax", "cross_entropy")
LAYERS = ("cli", "corpus", "extraction", "nn", "tasks", "uncertainty", "metrics", "evalpipe")
ESTIMATORS = ("vanilla", "temp_scale", "mc_dropout", "mmutant", "dissector")


def per_layer(spans: list[dict], taped: dict[str, int], command_runs: list[CommandRun], files: int,
              startup: list[float], scipy_s: float, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    q = SpanQuery(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for op in NN_TABLE_OPS:
        name = f"nn.{op}"
        m[f"{name}.fwd_us"] = (1e6 * ratio(q.total(name), q.count(name)), "us")
        m[f"{name}.bwd_us"] = (1e6 * ratio(q.total(f"{name}.bwd"), taped.get(op, 0)), "us")
    m["nn.backward_us"] = (1e6 * ratio(q.total("nn.backward"), q.count("nn.backward")), "us")
    m["nn.adam_step_us"] = (1e6 * ratio(q.total("nn.adam_step"), q.count("nn.adam_step")), "us")

    trainers = ("tasks.train_cs", "tasks.train_cc")
    train_s = q.total(trainers)
    eval_s = q.total("tasks.evaluate_accuracy", under=trainers)
    batch_s = q.total(("tasks.batch_cs", "tasks.batch_cc"), parent=trainers)
    m["tasks.train_step_s"] = (train_s - eval_s - batch_s, "s")
    m["tasks.batch_s"] = (batch_s, "s")
    m["tasks.evaluate_accuracy_s"] = (eval_s, "s")
    m["tasks.evaluate_accuracy_share"] = (ratio(eval_s, train_s), "ratio")
    m["tasks.steps"] = (q.count("nn.adam_step", parent=trainers), "count")
    m["tasks.checkpoint_save_s"] = (q.total("tasks.save_checkpoint"), "s")
    m["tasks.checkpoint_load_s"] = (q.total("tasks.load_checkpoint"), "s")
    m["tasks.infer_samples_per_s"] = (ratio(q.items("tasks.infer"), q.total("tasks.infer")), "1/s")

    for fn in ("fit_temperature", "build_mutant_ensemble", "train_probes"):
        m[f"uncertainty.{fn}_s"] = (q.total(f"uncertainty.{fn}"), "s")
    for est in ESTIMATORS:
        m[f"uncertainty.score_{est}_s"] = (q.total(f"uncertainty.score_{est}"), "s")
    m["uncertainty.write_scores_csv_s"] = (q.total("uncertainty.write_scores_csv"), "s")
    m["uncertainty.read_scores_csv_s"] = (q.total("uncertainty.read_scores_csv"), "s")
    m["uncertainty.infer_calls"] = (q.count("tasks.infer", under=("uncertainty.",)), "count")
    scorers = tuple(f"uncertainty.score_{e}" for e in ESTIMATORS)
    m["uncertainty.forwarded_per_row"] = (
        ratio(q.items("tasks.infer", under=scorers), q.items("uncertainty.write_scores_csv")), "ratio")
    m["uncertainty.temperature_clamped"] = (q.items("uncertainty.fit_temperature"), "count")

    evals = ("evalpipe.build_report", "evalpipe.threshold_sweep", "evalpipe.input_filter")
    for fn in evals:
        m[f"{fn}_s"] = (q.total(fn), "s")
    m["evalpipe.records"] = (q.items(evals), "count")
    metric_fns = ("metrics.roc_auc", "metrics.aupr", "metrics.brier")
    for fn in metric_fns:
        m[f"{fn}_s"] = (q.total(fn), "s")
    m["metrics.calls"] = (q.count(metric_fns), "count")
    m["metrics.items"] = (q.items(metric_fns), "count")

    m["extraction.tokenize_s"] = (q.total("extraction.tokenize_java"), "s")
    m["extraction.parse_s"] = (q.total("extraction.parse_java_lite"), "s")
    m["extraction.paths_s"] = (q.total("extraction.extract_method_samples"), "s")
    m["extraction.cbow_s"] = (q.total("extraction.extract_cbow_samples"), "s")
    m["extraction.write_contexts_s"] = (q.total(("extraction.write_cs_contexts", "extraction.write_cc_contexts")), "s")
    m["extraction.read_contexts_s"] = (q.total(("extraction.read_cs_contexts", "extraction.read_cc_contexts")), "s")
    m["extraction.tokens"] = (q.items("extraction.tokenize_java"), "count")
    m["extraction.samples"] = (q.items(("extraction.extract_method_samples", "extraction.extract_cbow_samples")), "count")
    m["extraction.parse_recoveries"] = (q.items("extraction.parse_java_lite"), "count")
    m["corpus.iterate_s"] = (q.total("corpus.iterate_samples"), "s")
    m["corpus.files"] = (q.items("corpus.iterate_samples"), "count")
    extracts = [r for r in command_runs if r.name == "extract"]
    m["extraction.files_per_s"] = (ratio(files * len(extracts), sum(r.wall_s for r in extracts)), "1/s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (q.layer_self(layer), "s")

    m["cli.startup_s"] = (statistics.median(startup), "s")
    m["cli.import_scipy_optimize_s"] = (scipy_s, "s")
    for cmd in COMMANDS:
        runs = [r for r in command_runs if r.name == cmd]
        m[f"cli.{cmd}.wall_s"] = (sum(r.wall_s for r in runs), "s")
        m[f"cli.{cmd}.rss_mb"] = (max((r.rss_mb for r in runs), default=0.0), "MB")
        m[f"cli.{cmd}.minor_faults"] = (sum(r.minor_faults for r in runs), "count")
    m["trace.study_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


# -- main --------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "codeshift" / "cli.py").is_file():
        print(f"perfbench: no codeshift sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    study = work / "study"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + RUN_DEADLINE_S)
    try:
        return measure(args, workload, runner, study, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


def measure(args, workload: Workload, runner: Runner, study: Path, started: float) -> int:
    info = provenance(runner, args.seed)
    config = {**workload.config, "seed": args.seed}

    startup, scipy_s = ([], 0.0)
    if args.trace:
        startup, scipy_s = startup_times(runner)

    setups = []
    for _ in range(1 if args.trace else workload.setup_reps):
        setups.append(set_up(runner, study, workload, args.seed))
    commands_attempted = sum(len(s) for s in setups)
    commands_failed = sum(1 for s in setups for r in s if r.returncode != 0)

    rounds: list[list[CommandRun]] = []
    digests: list[str] = []
    spans_dir = runner.work / "spans"

    def run_round(commands, spans=None) -> bool:
        nonlocal commands_attempted, commands_failed
        runs = run_commands(runner, study, commands, spans)
        rounds.append(runs)
        commands_attempted += len(runs)
        commands_failed += sum(1 for r in runs if r.returncode != 0)
        return commands_failed == 0

    if commands_failed == 0:
        if run_round(workload.timed):
            digests.append(artifact_digest(study))
            if args.trace:
                # untraced, traced, untraced: the traced round is compared
                # with the mean of its neighbours, which cancels slow drift
                spans_dir.mkdir()
                for spans in (spans_dir, None):
                    if not run_round(workload.timed, spans):
                        break
                    digests.append(artifact_digest(study))
            else:
                # whole rounds repeat while another is expected to end within
                # the window, then the commands about as short as start-up
                # repeat alone, so each median rests on more than one run
                cheap = [r.args for r in rounds[0] if r.wall_s < CHEAP_S]
                for subset in (workload.timed, cheap):
                    while subset and len(rounds) < MAX_SAMPLES and commands_failed == 0:
                        cost = sum(r.wall_s for r in rounds[0] if r.args in subset)
                        if time.monotonic() - started + cost > args.seconds:
                            break
                        run_round(subset)
                if len(rounds) > 1 and commands_failed == 0:
                    digests.append(artifact_digest(study))

    checks, facts = check_outputs(study, workload) if commands_failed == 0 else ([], {})
    op_rows: list[dict] = []
    if args.trace and commands_failed == 0:
        op_rows, problem = op_table(runner, study, workload)
        checks.append(("nn op table", problem))
    if len(digests) > 1:
        same = len(set(digests)) == 1
        checks.append(("artifacts identical across rounds", None if same else f"{len(set(digests))} digests"))
    checks_failed = [(name, problem) for name, problem in checks if problem]
    for name, problem in checks_failed:
        print(f"check failed: {name}: {problem}", file=sys.stderr)
    attempted = commands_attempted + len(checks)
    failed = commands_failed + len(checks_failed)

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": info,
        "artifact_digest": digests[-1] if digests else None,
        "rounds": len(rounds),
        "commands": [
            {"args": list(r.args), "wall_s": r.wall_s, "rss_mb": r.rss_mb, "minor_faults": r.minor_faults,
             "returncode": r.returncode}
            for group in (*setups, *rounds) for r in group
        ],
        "checks": {"attempted": len(checks), "failed": [f"{n}: {p}" for n, p in checks_failed]},
        "failed_ops": {"failed": failed, "attempted": attempted},
    }
    metrics: dict[str, dict] = {}
    if failed == 0:
        if args.trace:
            spans, taped = load_spans(spans_dir)
            untraced_s = (sum(r.wall_s for r in rounds[0]) + sum(r.wall_s for r in rounds[2])) / 2
            traced_s = sum(r.wall_s for r in rounds[1])
            layer = per_layer(spans, taped, [r for group in (*setups, rounds[0]) for r in group],
                              sum(facts["files"].values()), startup, scipy_s, untraced_s, traced_s)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            result["startup"] = summarize(startup)
            result["op_table"] = op_rows
            print_op_table(op_rows)
        else:
            samples: dict[tuple, list[CommandRun]] = {}
            for r in (r for group in rounds for r in group):
                samples.setdefault(r.args, []).append(r)
            for name, (value, unit) in end_to_end(workload, config, setups, samples, facts).items():
                metrics[name] = {"value": value, "unit": unit}
            result["timings"] = {
                " ".join(a): summarize([r.wall_s for r in runs]) for a, runs in samples.items()
            }
            result["timings"]["set-up"] = summarize([sum(r.wall_s for r in s) for s in setups])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} round(s), {len(setups)} set-up(s), {time.monotonic() - started:.1f} s")
    for key in ("git_commit", "python", "numpy", "scipy", "blas", "blas_threads", "nproc", "cpu", "hardware_counters"):
        print(f"  provenance {key}: {info[key]}")
    print(f"  artifact_digest {result['artifact_digest']}")
    print(f"  failed_ops {failed}/{attempted} (commands {commands_failed}/{commands_attempted}, "
          f"checks {len(checks_failed)}/{len(checks)})")
    for name, stats in result.get("timings", {}).items():
        extra = " ".join(f"{k} {v:.4f} s" for k, v in stats.items() if k.startswith("p"))
        print(f"  time [{name}] median {stats['median']:.4f} s (n={stats['n']}) {extra}".rstrip())
    for name, value in metrics.items():
        print(f"  {name} {value['value']:.6g} {value['unit']}")

    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    result["metrics"] = metrics
    (out_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def op_table(runner: Runner, study: Path, workload: Workload) -> tuple[list[dict], str | None]:
    """(rows of the nn op table, problem or None)."""
    rows = []
    mode = "train" if any(args[0] == "train" for args in workload.timed) else "infer"
    for task, shift in workload.studies:
        run = runner.run([sys.executable, str(HERE / "optable.py"), "study.json", task, shift, mode], study, f"optable-{task}")
        output = run.log.read_text(encoding="utf-8", errors="replace")
        if run.returncode != 0:
            return rows, f"optable.py exited {run.returncode}: {output[-300:]}"
        rows.extend(json.loads(output.splitlines()[-1]))
    return rows, None


def print_op_table(rows: list[dict]) -> None:
    print("  nn op table (times measured; flops and bytes computed from shapes, not counted):")
    for r in rows:
        print(f"    {r['task']} {r['op']:<16} {r['shape']:<34} fwd {r['fwd_us']:10.1f} us "
              f"bwd {r['bwd_us']:10.1f} us  fwd {r['fwd_flops']:.3g} flop {r['fwd_bytes']:.3g} B  "
              f"bwd {r['bwd_flops']:.3g} flop {r['bwd_bytes']:.3g} B")


if __name__ == "__main__":
    sys.exit(main())
