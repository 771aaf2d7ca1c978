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
from typing import Iterable, Iterator

from ..config import UNK_ID
from .samples import PAD_TOKEN

UNK_TOKEN = "<UNK>"
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

    def ids(self, tokens: Iterable[str]) -> Iterator[int]:
        """Each token's id, lazily; an unseen one is UNK_ID."""
        return map(self._ids.get, tokens, repeat(UNK_ID))

    def decode(self, idx: int) -> str:
        return self._tokens[idx]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids


def build_cs_vocabs(records: Iterable[tuple[str, list[str]]], min_count: int = 1) -> dict[str, Vocabulary]:
    """Terminal, path, and label vocabularies from training-split records, keyed as the CS model's `vocabs()`."""
    terminal_counts: Counter = Counter()
    path_counts: Counter = Counter()
    label_counts: Counter = Counter()
    for label, fields in records:
        label_counts[label] += 1
        terminal_counts.update(fields[0::3])
        path_counts.update(fields[1::3])
        terminal_counts.update(fields[2::3])
    if not label_counts:
        raise ValueError("cannot build vocabularies from an empty sample stream")
    return {
        "terminals": Vocabulary.from_counts(terminal_counts, min_count),
        "paths": Vocabulary.from_counts(path_counts, min_count),
        "labels": Vocabulary.from_counts(label_counts, min_count),
    }


def build_cc_vocab(records: Iterable[tuple[str, list[str]]], min_count: int = 1) -> dict[str, Vocabulary]:
    """The token vocabulary over targets and context slots, keyed as the CC model's `vocabs()`.

    PAD, a reserved token, keeps its own id however many slots it fills.
    """
    counts: Counter = Counter()
    for target, context in records:
        counts[target] += 1
        counts.update(context)
    if not counts:
        raise ValueError("cannot build a vocabulary from an empty sample stream")
    return {"tokens": Vocabulary.from_counts(counts, min_count)}
