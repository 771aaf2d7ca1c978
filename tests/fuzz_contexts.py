"""Seeded single corruptions of the CLI tests' context files, each read and encoded.

Each seed picks one corruption of the CS or the CC context file that
`test_cli.contexts_bucket` writes: a truncation, a bit flip, a run of zero
bytes, an inserted byte, a deleted, duplicated or swapped line, or an extra
or a missing `,`. The corrupted file goes through `read_cs_contexts` or
`read_cc_contexts` and `tasks.encode_records`, and only two outcomes pass:

- a split equal, bit for bit, to what the reference makes of the same
  file (each line parsed on its own into a tuple, each sample encoded on
  its own);
- a ContextFormatError that names the file, and, for a malformed line,
  the line (counted as a text-mode read counts them).

`test_context_files.py` runs a small seed range in the test suite. A
larger one runs as a script, from the root of a checkout:

    PYTHONPATH=src python tests/fuzz_contexts.py 0 1000

which checks both tasks at every seed in [0, 1000), prints how each
corruption fared, and exits 1 at the first case that breaks the rule.
"""

from __future__ import annotations

import io
import random
import re
import sys
import tempfile
from collections import Counter
from itertools import repeat
from pathlib import Path

import numpy as np

from codeshift import tasks
from codeshift.extraction import (
    PAD_ID,
    PAD_TOKEN,
    UNK_TOKEN,
    ContextFormatError,
    Vocabulary,
    read_cc_contexts,
    read_cs_contexts,
)

from test_cli import CONTEXT_FIXTURE

READERS = {"cs": read_cs_contexts, "cc": read_cc_contexts}
KINDS = (
    "truncate", "flip_bit", "zero_run", "insert_byte",
    "delete_line", "duplicate_line", "swap_lines", "extra_comma", "missing_comma",
)


def vocabularies(tokens: dict[str, list[str]]) -> dict[str, Vocabulary]:
    """Each named token list as a vocabulary, after the reserved UNK and PAD."""
    return {name: Vocabulary.from_tokens([UNK_TOKEN, PAD_TOKEN, *names]) for name, names in tokens.items()}


# -- the reference every streamed encoding must equal ---------------------


def read_tuples(path, task: str) -> list:
    """The file read whole, one tuple per non-empty line: CS (label, [(left, path, right), ...]), CC (target, context).

    A CS context that does not split into three fields raises ValueError.
    """
    with open(path, encoding="utf-8") as f:
        lines = [line for line in (raw.rstrip("\n") for raw in f) if line]
    rows = [line.split(" ") for line in lines]
    if task == "cc":
        return [(target, context) for target, *context in rows]
    return [(label, [(left, path, right) for left, path, right in map(str.split, chunks, repeat(","))])
            for label, *chunks in rows]


def encode_tuples(samples: list, vocabs: dict[str, Vocabulary], id_prefix: str) -> dict:
    """The split's arrays as encoding each sample tuple on its own gives them.

    Triples are numbered by sorting the distinct ones, and a window's
    shares are its real slots counted one by one. A CC split's sample ids
    take their width from every window's, the dropped all-PAD ones too.
    """
    ids = [f"{id_prefix}#{i}" for i in range(len(samples))]
    if "tokens" in vocabs:
        tokens = vocabs["tokens"]
        kept, labels, bags = [], [], []
        for i, (target, context) in enumerate(samples):
            real = Counter(t for t in map(tokens.encode, context) if t != PAD_ID)
            if real:
                kept.append(i)
                labels.append(tokens.encode(target))
                bags.append([(t, real[t] / sum(real.values())) for t in sorted(real)])
        inputs = {
            "token": np.array([t for bag in bags for t, _ in bag], dtype=np.int64),
            "share": np.array([share for bag in bags for _, share in bag], dtype=np.float64),
        }
        return {
            "sample_ids": np.array(ids, dtype=str)[kept],
            "labels": np.array(labels, dtype=np.int64),
            "lengths": np.array([len(bag) for bag in bags], dtype=np.int64),
            "inputs": inputs,
        }
    terminals, paths, names = vocabs["terminals"], vocabs["paths"], vocabs["labels"]
    kept = [i for i, (_, contexts) in enumerate(samples) if contexts]
    triples = [
        (terminals.encode(left), paths.encode(path), terminals.encode(right))
        for i in kept for left, path, right in samples[i][1]
    ]
    number = {t: k for k, t in enumerate(sorted(set(triples)))}
    columns = list(zip(*triples)) or [(), (), ()]
    inputs = {name: np.array(column, dtype=np.int64) for name, column in zip(("left", "path", "right"), columns)}
    inputs["triple"] = np.array([number[t] for t in triples], dtype=np.int64)
    return {
        "sample_ids": np.array([ids[i] for i in kept], dtype=str),
        "labels": np.array([names.encode(samples[i][0]) for i in kept], dtype=np.int64),
        "lengths": np.array([len(samples[i][1]) for i in kept], dtype=np.int64),
        "inputs": inputs,
    }


def assert_same(split: tasks.EncodedSplit, expected: dict) -> None:
    """`split` holds `expected`'s arrays: the same names, dtypes and bytes."""
    got = {"sample_ids": split.sample_ids, "labels": split.labels, "lengths": split.lengths}
    pairs = [(name, got[name], expected[name]) for name in got]
    assert list(split.inputs) == list(expected["inputs"])
    pairs += [(name, split.inputs[name], column) for name, column in expected["inputs"].items()]
    for name, a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, a, b)


# -- corruptions -------------------------------------------------------


def corrupt(data: bytes, seed: int) -> tuple[str, bytes]:
    """One seeded corruption of `data`: its kind and the corrupted bytes. Seed k makes kind k mod 9."""
    kind = KINDS[seed % len(KINDS)]
    rng = random.Random(seed)
    out = bytearray(data)
    lines = data.splitlines(keepends=True)
    if kind == "truncate":
        del out[rng.randrange(len(out)):]
    elif kind == "flip_bit":
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    elif kind == "zero_run":
        at = rng.randrange(len(out))
        run = min(rng.randint(1, 8), len(out) - at)
        out[at:at + run] = bytes(run)
    elif kind == "insert_byte":
        out.insert(rng.randrange(len(out) + 1), rng.randrange(256))
    elif kind == "delete_line":
        del lines[rng.randrange(len(lines))]
    elif kind == "duplicate_line":
        at = rng.randrange(len(lines))
        lines.insert(rng.randrange(len(lines) + 1), lines[at])
    elif kind == "swap_lines":
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "extra_comma":
        out.insert(rng.randrange(len(out) + 1), ord(","))
    elif kind == "missing_comma":
        commas = [i for i, byte in enumerate(out) if byte == ord(",")]
        if commas:
            del out[rng.choice(commas)]
    if kind.endswith(("_line", "_lines")):
        return kind, b"".join(lines)
    return kind, bytes(out)


def assert_names_the_file(message: str, path: Path, data: bytes) -> None:
    """A ContextFormatError's message names `path`, and a malformed line by its number."""
    if message.startswith(f"{path}: not UTF-8 text"):
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return
        raise AssertionError(f"UTF-8 text reported as not UTF-8: {message}")
    named = re.match(re.escape(str(path)) + r":(\d+): ", message)
    assert named, message
    lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
    assert 1 <= int(named[1]) <= len(lines), message


def check_case(task: str, seed: int, directory) -> tuple[str, str]:
    """Corrupt `task`'s fixture file by `seed`, read and encode it, and check the outcome.

    Returns the corruption's kind and "encoded" or "rejected"; any other
    outcome raises.
    """
    lines, tokens = CONTEXT_FIXTURE[task]
    kind, data = corrupt(("\n".join(lines) + "\n").encode("utf-8"), seed)
    path = Path(directory) / f"{task}-{seed}.txt"
    path.write_bytes(data)
    vocabs = vocabularies(tokens)
    try:
        split = tasks.encode_records(READERS[task](path), vocabs, "fuzz")
    except ContextFormatError as exc:
        assert_names_the_file(str(exc), path, data)
        return kind, "rejected"
    assert_same(split, encode_tuples(read_tuples(path, task), vocabs, "fuzz"))
    return kind, "encoded"


def main(argv: list[str]) -> int:
    start, stop = (int(a) for a in argv)
    outcomes: Counter = Counter()
    with tempfile.TemporaryDirectory() as directory:
        for seed in range(start, stop):
            for task in READERS:
                try:
                    outcomes[(task, *check_case(task, seed, directory))] += 1
                except Exception:
                    print(f"fuzz_contexts: task {task}, seed {seed} broke the rule", file=sys.stderr)
                    raise
    for (task, kind, outcome), count in sorted(outcomes.items()):
        print(f"{task} {kind:15} {outcome:9} {count}")
    print(f"fuzz_contexts: {sum(outcomes.values())} cases, seeds {start} to {stop - 1}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/fuzz_contexts.py START STOP")
    sys.exit(main(sys.argv[1:]))
