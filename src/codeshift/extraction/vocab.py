"""Immutable vocabularies with reserved UNK/PAD ids.

A vocabulary is its id-ordered token list, fixed once built: UNK=0 and
PAD=1 lead it, and unseen tokens encode as UNK. `from_counts` orders the
remaining tokens by descending frequency, ties broken lexicographically, so
merging per-file counts in any order yields the same mapping.
`from_tokens` rebuilds one from a list read back from a file or checkpoint.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Iterable

import numpy as np

from .samples import CbowSample, MethodSample, PAD_TOKEN

UNK_TOKEN = "<UNK>"
UNK_ID = 0
PAD_ID = 1
_RESERVED = (UNK_TOKEN, PAD_TOKEN)


class Vocabulary:
    def __init__(self, tokens: list[str]):
        """`tokens` in id order, the reserved UNK/PAD first and no token twice."""
        self._tokens = tokens
        self._ids = {tok: i for i, tok in enumerate(tokens)}

    @classmethod
    def from_counts(cls, counts: Counter, min_count: int = 1) -> "Vocabulary":
        kept = [(tok, c) for tok, c in counts.items() if c >= min_count and tok not in _RESERVED]
        kept.sort(key=lambda item: (-item[1], item[0]))
        return cls([*_RESERVED, *(tok for tok, _ in kept)])

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        """Rebuild from an id-ordered token list read from outside the program."""
        if tokens[:2] != list(_RESERVED):
            raise ValueError("token list must start with the reserved UNK/PAD entries")
        strange = [tok for tok in tokens if not isinstance(tok, str)]
        if strange:
            raise ValueError(f"token {strange[0]!r} is not a string")
        vocab = cls(list(tokens))
        if len(vocab._ids) != len(tokens):
            repeated = next(tok for i, tok in enumerate(tokens) if vocab._ids[tok] != i)
            raise ValueError(f"token {repeated!r} appears more than once")
        return vocab

    def encode(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def encode_all(self, tokens: Iterable[str]) -> np.ndarray:
        return np.fromiter(map(self._ids.get, tokens, repeat(UNK_ID)), dtype=np.int64)

    def decode(self, idx: int) -> str:
        return self._tokens[idx]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids


def build_cs_vocabs(
    samples: Iterable[MethodSample], min_count: int = 1
) -> tuple[Vocabulary, Vocabulary, Vocabulary]:
    """Terminal, path, and label vocabularies from training-split samples."""
    terminal_counts: Counter = Counter()
    path_counts: Counter = Counter()
    label_counts: Counter = Counter()
    empty = True
    for s in samples:
        empty = False
        label_counts[s.label] += 1
        for c in s.contexts:
            terminal_counts[c.left] += 1
            terminal_counts[c.right] += 1
            path_counts[c.path] += 1
    if empty:
        raise ValueError("cannot build vocabularies from an empty sample stream")
    return (
        Vocabulary.from_counts(terminal_counts, min_count),
        Vocabulary.from_counts(path_counts, min_count),
        Vocabulary.from_counts(label_counts, min_count),
    )


def build_cc_vocab(samples: Iterable[CbowSample], min_count: int = 1) -> Vocabulary:
    """Token vocabulary over targets and (non-PAD) context slots."""
    counts: Counter = Counter()
    empty = True
    for s in samples:
        empty = False
        counts[s.target] += 1
        for tok in s.context:
            if tok != PAD_TOKEN:
                counts[tok] += 1
    if empty:
        raise ValueError("cannot build a vocabulary from an empty sample stream")
    return Vocabulary.from_counts(counts, min_count)
