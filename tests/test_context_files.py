"""Context files encode line by line: equal to the tuple reference bit for bit, within a memory bound, and whole or rejected when corrupted."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeshift import tasks
from codeshift.extraction import UNK_ID
from fuzz_contexts import KINDS, READERS, assert_same, check_case, encode_tuples, read_tuples, vocabularies
from test_uncertainty import traced_peak

# each task's lines, written without a final line feed, its vocabularies' tokens, and the sample ids it keeps
CASES = {
    "cs": (
        [
            "addPair a,Name↑Call↓Name,b a,Name↑Call↓Name,c",
            "onlyLabel",  # no contexts: dropped, and the later samples keep their index
            "größe ü,Name↑Call↓Name,a z,Name↑Neu↓Name,ü",  # non-ASCII tokens, and unseen ones
            "zeroPair a,Name↑Call↓Name,b",  # an unseen label
            "subPair b,Name↑Call↓Name,c",
        ],
        {"terminals": ["a", "b", "c", "ü"], "paths": ["Name↑Call↓Name"], "labels": ["addPair", "subPair", "größe"]},
        ["t#0", "t#2", "t#3", "t#4"],
    ),
    "cc": (
        [
            "b a <PAD> c a",
            "a <PAD> <PAD> <PAD> <PAD>",  # all PAD, as a file written before extraction skipped one-token files holds
            "ü z a <PAD> ü",  # a non-ASCII token, and an unseen one
            "c b a <PAD> <PAD>",
        ],
        {"tokens": ["a", "b", "c", "ü"]},
        ["t#0", "t#2", "t#3"],
    ),
}


@pytest.mark.parametrize("task", sorted(CASES))
def test_streamed_encoding_equals_the_object_path_bit_for_bit(tmp_path, task):
    lines, tokens, kept = CASES[task]
    path = tmp_path / "contexts.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    vocabs = vocabularies(tokens)
    split = tasks.encode_records(READERS[task](path), vocabs, "t")
    assert_same(split, encode_tuples(read_tuples(path, task), vocabs, "t"))
    assert split.sample_ids.tolist() == kept
    assert UNK_ID in split.inputs["path" if task == "cs" else "token"]


FIELDS = st.sampled_from(["a", "b", "ü", "Name↑Call↓Name", "unseen", ""])


@st.composite
def context_files(draw, task):
    """A context file's lines, and whether the last one ends in a line feed."""
    if task == "cs":
        rows = draw(st.lists(st.tuples(FIELDS, st.lists(st.tuples(FIELDS, FIELDS, FIELDS), max_size=4)), max_size=6))
        lines = [" ".join([label, *(",".join(c) for c in contexts)]) for label, contexts in rows]
    else:
        width = 2 * draw(st.integers(1, 3))
        window = st.lists(st.one_of(FIELDS.filter(bool), st.just("<PAD>")), min_size=width + 1, max_size=width + 1)
        lines = [" ".join(w) for w in draw(st.lists(window, max_size=6))]
    return lines, draw(st.booleans())


@pytest.mark.parametrize("task", sorted(CASES))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_readable_file_encodes_as_the_object_path_does(tmp_path_factory, task, data):
    lines, final_line_feed = data.draw(context_files(task))
    path = tmp_path_factory.mktemp("contexts") / "contexts.txt"
    path.write_text("\n".join(lines) + "\n" * final_line_feed, encoding="utf-8")
    vocabs = vocabularies(CASES[task][1])
    split = tasks.encode_records(READERS[task](path), vocabs, "h")
    assert_same(split, encode_tuples(read_tuples(path, task), vocabs, "h"))


def large_context_file(path, task):
    """Write a seeded file of 300 methods of 20-199 contexts, or of 3,000 windows of 8; return vocabularies that miss some of its tokens."""
    rng = np.random.default_rng(11)
    with open(path, "w", encoding="utf-8") as f:
        if task == "cs":
            for n in rng.integers(20, 200, size=300):
                triples = rng.integers(0, 320, size=(n, 3))
                f.write(" ".join([f"get{n % 45}", *(f"t{a},Name↑Call{b}↓Name,t{c}" for a, b, c in triples)]) + "\n")
        else:
            for window in rng.integers(0, 330, size=(3000, 9)):
                f.write(" ".join(f"t{i}" if i < 300 else "<PAD>" for i in window) + "\n")
    if task == "cs":
        return vocabularies({
            "terminals": [f"t{i}" for i in range(300)],
            "paths": [f"Name↑Call{i}↓Name" for i in range(300)],
            "labels": [f"get{i}" for i in range(40)],
        })
    return vocabularies({"tokens": [f"t{i}" for i in range(300)]})


# Peak bytes traced while a context file is encoded, over the bytes of the split it gives.
# CS: the id columns are the buffers the lines were read into, and numbering the triples
# holds about six column-sized int64 arrays at once (the key, np.unique's copy, its sort
# order, the sorted keys, the running count and the inverse): about 2.6 splits of four
# columns. CC: the windows' ids and pack_windows' sort key are each about as large as the
# token column, and finding each row's distinct ids holds about four more: about 3.8
# splits. A split held as one Python object per line and a str per field takes about 12
# (CS) and 8 (CC) splits' worth, well over either bound.
SPLITS_HELD = {"cs": 3.5, "cc": 5.0}


@pytest.mark.parametrize("task", sorted(SPLITS_HELD))
def test_encoding_a_context_file_holds_a_few_splits_worth(tmp_path, task):
    path = tmp_path / "contexts.txt"
    vocabs = large_context_file(path, task)

    def encode():
        return tasks.encode_records(READERS[task](path), vocabs, "m")

    split = encode()
    size = sum(a.nbytes for a in (split.sample_ids, split.labels, split.lengths, *split.inputs.values()))
    held = traced_peak(encode)
    assert held <= SPLITS_HELD[task] * size, (held, size)


def test_every_corruption_of_a_context_file_encodes_whole_or_names_the_file(tmp_path):
    outcomes = {check_case(task, seed, tmp_path) for seed in range(270) for task in READERS}
    # the seeds reach every kind, and both outcomes
    assert {kind for kind, _ in outcomes} == set(KINDS)
    assert {outcome for _, outcome in outcomes} == {"encoded", "rejected"}
