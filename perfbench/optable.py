"""Forward and backward time of each nn op at a workload's real shapes.

Usage (from a study directory): python optable.py <config> <task> <shift> <train|infer>

Shapes come from the study's own artifacts: vocabulary sizes from the
extracted vocabularies, the batch width from the longest context bag of
the training split, the batch size from the config (train) or the
inference batch of 512 capped at the largest scored split (infer). Times
are medians over repeated calls. Flops and bytes moved are computed from
the shapes (float32, int64 ids, each operand read or written once), not
counted: no hardware counters are read. Prints one JSON list.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from codeshift import nn
from codeshift.config import bucket_dir, load_config

F32 = 4
I64 = 8
INFER_BATCH = 512
BUDGET_S = 0.25  # per op and direction


def _median_us(fn, setup=None) -> float:
    times = []
    deadline = time.perf_counter() + BUDGET_S
    while len(times) < 5 or (time.perf_counter() < deadline and len(times) < 500):
        state = setup() if setup else None
        start = time.perf_counter()
        fn(state)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def _leaf(rng, shape) -> nn.Tensor:
    return nn.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


def measure(build, inputs: list[nn.Tensor]) -> tuple[float, float]:
    """(forward us, backward us); backward replays only the op's own tape nodes."""
    fwd = _median_us(lambda _: build())

    def fresh():
        for t in inputs:
            t.grad = None
        out = build()
        out = out[0] if isinstance(out, tuple) else out
        return out, np.ones_like(out.data)

    def run_backward(state):
        out, g = state
        nn.backward(out, seed=g)

    bwd = _median_us(run_backward, fresh)
    return fwd, bwd


def cs_rows(rng, vocabs, width, batch, dim, dropout_p):
    n_term, n_path, n_cls = len(vocabs["terminals"]), len(vocabs["paths"]), len(vocabs["labels"])
    B, n, d = batch, width, dim
    N = B * n
    term, path = _leaf(rng, (n_term, d)), _leaf(rng, (n_path, d))
    ids = rng.integers(0, n_term, size=(B, n))
    pids = rng.integers(0, n_path, size=(B, n))
    parts = [_leaf(rng, (B, n, d)) for _ in range(3)]
    cat = _leaf(rng, (B, n, 3 * d))
    w_comb, b_comb = _leaf(rng, (3 * d, d)), _leaf(rng, (d,))
    ctx = _leaf(rng, (B, n, d))
    attn = _leaf(rng, (d,))
    mask = np.ones((B, n), dtype=bool)
    pooled = _leaf(rng, (B, d))
    w_out, b_out = _leaf(rng, (d, n_cls)), _leaf(rng, (n_cls,))
    logits = _leaf(rng, (B, n_cls))
    probs = nn.Tensor(np.full((B, n_cls), 1.0 / n_cls, dtype=np.float32), requires_grad=True)
    labels = rng.integers(0, n_cls, size=B)
    drop_rng = np.random.default_rng(0)
    E = N * d
    return [
        ("embedding_lookup", f"({n_term},{d})[{B},{n}]", lambda: nn.embedding_lookup(term, ids), [term],
         0, N * I64 + 2 * E * F32, E, n_term * d * F32 * 3 + N * I64 + 3 * E * F32),
        ("embedding_lookup", f"({n_path},{d})[{B},{n}]", lambda: nn.embedding_lookup(path, pids), [path],
         0, N * I64 + 2 * E * F32, E, n_path * d * F32 * 3 + N * I64 + 3 * E * F32),
        ("concat_last", f"3x({B},{n},{d})", lambda: nn.concat_last(parts), parts,
         0, 6 * E * F32, 0, 6 * E * F32),
        ("affine", f"({B},{n},{3 * d})@({3 * d},{d})", lambda: nn.affine(cat, w_comb, b_comb), [cat, w_comb, b_comb],
         2 * N * 3 * d * d + E, F32 * (3 * E + 3 * d * d + d + E), 4 * N * 3 * d * d + E,
         F32 * (E + 2 * 3 * E + 2 * 3 * d * d + 2 * d)),
        ("tanh", f"({B},{n},{d})", lambda: nn.tanh(ctx), [ctx], E, 2 * E * F32, 3 * E, 3 * E * F32),
        ("dropout", f"({B},{n},{d}) p={dropout_p}", lambda: nn.dropout(ctx, dropout_p, True, drop_rng), [ctx],
         3 * E, 4 * E * F32, E, 3 * E * F32),
        ("attention_pool", f"({B},{n},{d})", lambda: nn.attention_pool(ctx, attn, mask), [ctx, attn],
         4 * E + 5 * N, F32 * (2 * E + 4 * N + d), 8 * E + 5 * N, F32 * (4 * E + 4 * N)),
        ("affine", f"({B},{d})@({d},{n_cls})", lambda: nn.affine(pooled, w_out, b_out), [pooled, w_out, b_out],
         2 * B * d * n_cls + B * n_cls, F32 * (B * d + d * n_cls + n_cls + B * n_cls),
         4 * B * d * n_cls + B * n_cls, F32 * (3 * B * n_cls + 2 * B * d + 2 * d * n_cls)),
        ("softmax", f"({B},{n_cls})", lambda: nn.softmax(logits), [logits],
         4 * B * n_cls, 2 * B * n_cls * F32, 4 * B * n_cls, 3 * B * n_cls * F32),
        ("cross_entropy", f"({B},{n_cls})", lambda: nn.cross_entropy(probs, labels), [probs],
         2 * B, B * (I64 + 2 * F32), 2 * B, B * n_cls * F32 * 2 + B * (I64 + F32)),
    ], [term, path, w_comb, b_comb, attn, w_out, b_out]


def cc_rows(rng, vocabs, width, batch, dim, dropout_p):
    V = len(vocabs["tokens"])
    B, n, d = batch, width, dim
    N = B * n
    table = _leaf(rng, (V, d))
    ids = rng.integers(0, V, size=(B, n))
    h = _leaf(rng, (B, d))
    w_out, b_out = _leaf(rng, (d, V)), _leaf(rng, (V,))
    logits = _leaf(rng, (B, V))
    probs = nn.Tensor(np.full((B, V), 1.0 / V, dtype=np.float32), requires_grad=True)
    labels = rng.integers(0, V, size=B)
    drop_rng = np.random.default_rng(0)
    E = N * d
    rows = [
        ("embedding_lookup", f"({V},{d})[{B},{n}]", lambda: nn.embedding_lookup(table, ids), [table],
         0, N * I64 + 2 * E * F32, E, V * d * F32 * 3 + N * I64 + 3 * E * F32),
        ("affine", f"({B},{d})@({d},{V})", lambda: nn.affine(h, w_out, b_out), [h, w_out, b_out],
         2 * B * d * V + B * V, F32 * (B * d + d * V + V + B * V),
         4 * B * d * V + B * V, F32 * (3 * B * V + 2 * B * d + 2 * d * V)),
        ("softmax", f"({B},{V})", lambda: nn.softmax(logits), [logits],
         4 * B * V, 2 * B * V * F32, 4 * B * V, 3 * B * V * F32),
        ("cross_entropy", f"({B},{V})", lambda: nn.cross_entropy(probs, labels), [probs],
         2 * B, B * (I64 + 2 * F32), 2 * B, B * V * F32 * 2 + B * (I64 + F32)),
    ]
    if dropout_p > 0:  # CC has a dropout site only at score time (MC-Dropout)
        rows.append(("dropout", f"({B},{d}) p={dropout_p}", lambda: nn.dropout(h, dropout_p, True, drop_rng), [h],
                     3 * B * d, 4 * B * d * F32, B * d, 3 * B * d * F32))
    return rows, [table, w_out, b_out]


def main() -> int:
    config_path, task, shift, mode = sys.argv[1:5]
    config = load_config(config_path)
    bucket = bucket_dir(config)
    contexts = bucket / "contexts"
    vocabs = json.loads((contexts / f"{task}-{shift}-vocabs.json").read_text(encoding="utf-8"))["vocabs"]
    lines = (contexts / f"{task}-{shift}-train.txt").read_text(encoding="utf-8").splitlines()
    width = max(len(line.split()) - 1 for line in lines if line.strip())
    dim = config["train"]["embedding_dim"]
    if mode == "train":
        batch = min(config["train"]["batch_size"], len(lines))
        dropout_p = config["train"]["dropout"] if task == "cs" else 0.0
    else:
        largest = max(
            sum(1 for line in p.read_text(encoding="utf-8").splitlines() if line.strip())
            for p in contexts.glob(f"{task}-{shift}-*.txt")
        )
        batch = min(INFER_BATCH, largest)
        dropout_p = config["uncertainty"]["mc_dropout_p"]
    rng = np.random.default_rng(0)
    build = cs_rows if task == "cs" else cc_rows
    rows, params = build(rng, vocabs, width, batch, dim, dropout_p)
    table = []
    for op, shape, fn, inputs, fwd_flops, fwd_bytes, bwd_flops, bwd_bytes in rows:
        fwd_us, bwd_us = measure(fn, inputs)
        table.append({
            "task": task, "mode": mode, "op": op, "shape": shape, "fwd_us": fwd_us, "bwd_us": bwd_us,
            "fwd_flops": fwd_flops, "fwd_bytes": fwd_bytes, "bwd_flops": bwd_flops, "bwd_bytes": bwd_bytes,
            "flops_bytes": "computed",
        })
    grads = {str(i): np.ones_like(p.data) for i, p in enumerate(params)}
    named = {str(i): p for i, p in enumerate(params)}
    state = nn.AdamState()
    elements = sum(p.data.size for p in params)
    table.append({
        "task": task, "mode": mode, "op": "adam_step", "shape": f"{elements} params",
        "fwd_us": _median_us(lambda _: nn.adam_step(named, grads, state)), "bwd_us": 0.0,
        "fwd_flops": 12 * elements, "fwd_bytes": 7 * elements * F32, "bwd_flops": 0, "bwd_bytes": 0,
        "flops_bytes": "computed",
    })
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
