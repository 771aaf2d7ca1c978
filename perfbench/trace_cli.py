"""Run one `codeshift` CLI command with spans around each layer's public functions.

Usage: python perfbench/trace_cli.py <spans.json> <codeshift arguments...>

Every module-level public function of the codeshift modules below is
replaced by a wrapper that records a span: its name, its duration, and the
span that called it. Spans are aggregated in memory by call path (count,
total seconds, self seconds, items) and written to <spans.json> when the
command ends, so a long training loop costs a few dict updates per call.
The program itself is not modified; the wrappers are installed from here.

Three kinds of call get extra treatment:
- generator functions (corpus.iterate_samples) are timed per `next`, and
  each yielded value counts as one item;
- the tensor ops in NN_OPS are timed only at the outermost op, so an op
  built from other ops (attention_pool) reports as one; the backward
  closure of every tape node such an op creates is timed too and charged
  to `nn.<op>.bwd`;
- ITEM_COUNTERS names the calls whose work is counted in items.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = {
    "codeshift.cli": "cli",
    "codeshift.config": "cli",
    "codeshift.corpus": "corpus",
    "codeshift.extraction.lexer": "extraction",
    "codeshift.extraction.parser": "extraction",
    "codeshift.extraction.samples": "extraction",
    "codeshift.extraction.vocab": "extraction",
    "codeshift.nn.tensor": "nn",
    "codeshift.nn.ops": "nn",
    "codeshift.nn.optim": "nn",
    "codeshift.nn.checkpoint": "nn",
    "codeshift.tasks": "tasks",
    "codeshift.uncertainty": "uncertainty",
    "codeshift.metrics": "metrics",
    "codeshift.evalpipe": "evalpipe",
}
PACKAGES = ("codeshift", "codeshift.extraction", "codeshift.nn")

# helpers called once per tensor or per gradient; a span each would cost
# more than the work they do
SKIP = {"make_node", "accumulate", "grad_enabled"}

NN_OPS = {
    "embedding_lookup", "concat_last", "affine", "tanh", "dropout",
    "attention_pool", "softmax", "cross_entropy", "linear", "add", "mul",
    "scale", "reshape", "sum_axis", "mean", "weighted_sum",
}


def _len_arg(index, key):
    def count(args, kwargs, result):
        value = kwargs.get(key, args[index] if len(args) > index else ())
        return len(value)
    return count


ITEM_COUNTERS = {
    "tasks.infer": _len_arg(1, "samples"),
    "metrics.roc_auc": _len_arg(0, "items"),
    "metrics.aupr": _len_arg(0, "items"),
    "metrics.brier": _len_arg(0, "items"),
    "evalpipe.build_report": _len_arg(2, "records"),
    "evalpipe.threshold_sweep": _len_arg(0, "records"),
    "evalpipe.input_filter": _len_arg(0, "records"),
    "uncertainty.write_scores_csv": _len_arg(1, "records"),
    "uncertainty.read_scores_csv": lambda a, k, r: len(r),
    "extraction.tokenize_java": lambda a, k, r: len(r),
    "extraction.extract_method_samples": lambda a, k, r: len(r),
    "extraction.extract_cbow_samples": lambda a, k, r: len(r),
    "extraction.parse_java_lite": lambda a, k, r: len(k.get("diagnostics", a[1] if len(a) > 1 else None) or ()),
    # 1 when the fitted temperature sits on a clamp bound
    "uncertainty.fit_temperature": lambda a, k, r: int(r in sys.modules["codeshift.uncertainty"].TEMPERATURE_BOUNDS),
}


class Tracer:
    """Aggregated span tree keyed by call path."""

    def __init__(self):
        self.stats: dict[tuple, list] = {}  # path -> [count, total_s, self_s, items]
        self.stack: list[list] = []  # [path, start, child_s]
        self.op_depth = 0
        self.op_name: str | None = None
        self.taped_calls: dict[str, int] = {}  # outer op calls that put a node on the tape

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else ()
        self.stack.append([parent + (name,), time.perf_counter(), 0.0])

    def leave(self, items: int = 0) -> None:
        path, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        if self.stack:
            self.stack[-1][2] += duration
        row = self.stats.get(path)
        if row is None:
            row = self.stats[path] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        row[3] += items

    def dump(self, path: str) -> None:
        spans = [
            {"path": list(p), "count": c, "total_s": t, "self_s": s, "items": i}
            for p, (c, t, s, i) in self.stats.items()
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": spans, "taped_calls": self.taped_calls}, f)


def _wrap_function(tracer: Tracer, name: str, fn):
    counter = ITEM_COUNTERS.get(name)

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.leave()
                    return
                except BaseException:
                    tracer.leave()
                    raise
                tracer.leave(items=1)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        items = 0
        try:
            result = fn(*args, **kwargs)
            if counter:
                items = counter(args, kwargs, result)
            return result
        finally:
            tracer.leave(items)
    return wrapper


def _wrap_op(tracer: Tracer, op: str, fn):
    """Time an op at the outermost level and charge its tape nodes' backward to it."""
    from codeshift.nn.tensor import Tensor

    def timed_backward(owner, backward_fn):
        def timed(g):
            tracer.enter(f"nn.{owner}.bwd")
            try:
                backward_fn(g)
            finally:
                tracer.leave()
        timed.traced = True
        return timed

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = tracer.op_depth == 0
        if outer:
            tracer.op_name = op
            tracer.enter(f"nn.{op}")
        tracer.op_depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.op_depth -= 1
            if outer:
                tracer.leave()
        taped = False
        for t in result if isinstance(result, tuple) else (result,):
            if isinstance(t, Tensor) and t._backward is not None:
                taped = True
                if not getattr(t._backward, "traced", False):
                    t._backward = timed_backward(tracer.op_name, t._backward)
        if outer and taped:
            tracer.taped_calls[op] = tracer.taped_calls.get(op, 0) + 1
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    modules = {m: importlib.import_module(m) for m in (*MODULES, *PACKAGES)}
    replacements = {}
    for mod_name, layer in MODULES.items():
        mod = modules[mod_name]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or attr in SKIP or not inspect.isfunction(fn) or fn.__module__ != mod_name:
                continue
            if layer == "nn" and attr in NN_OPS:
                replacements[fn] = _wrap_op(tracer, attr, fn)
            else:
                replacements[fn] = _wrap_function(tracer, f"{layer}.{attr}", fn)
    # rebind every reference, including `from .x import f` names and
    # dispatch tables such as cli.COMMANDS
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, attr, replacements[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in replacements:
                        value[key] = replacements[item]


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from codeshift import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
