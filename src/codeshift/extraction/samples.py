"""Training-unit extraction: AST path contexts and CBOW token windows.

Every sample is a plain record, the one its context-file line reads back
as. A method sample is `(label, fields)`: the method's name and the bag of
(left terminal, path, right terminal) contexts over ordered leaf pairs
inside its declaration, their fields one context after another. A path
walks node kinds up to the lowest common ancestor and back down, rendered
like "Param↑MethodDecl↓Block↓Return". A CBOW sample is `(target,
context)`: one token with its 2*w neighbors, padded at file boundaries.

Terminal/token texts are lightly normalized: string and char literals
collapse to <STR>/<CHR> placeholders so terminals never contain spaces or
commas (the interchange format depends on that) and the vocabularies stay
small. Any leaf matching the enclosing method's name is replaced by a
sentinel so the label never leaks into its own contexts.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from ..config import ValidationFailure, atomic_open
from .lexer import Token
from .parser import AstNode

PAD_TOKEN = "<PAD>"
METHOD_NAME_SENTINEL = "<METHOD>"

UP = "↑"    # path step toward the root
DOWN = "↓"  # path step away from the root


def normalize_text(text: str) -> str:
    if text.startswith('"'):
        return "<STR>"
    if text.startswith("'"):
        return "<CHR>"
    return text


def build_parent_map(tree: AstNode) -> dict[int, AstNode]:
    parents: dict[int, AstNode] = {}
    stack = [tree]
    while stack:
        n = stack.pop()
        for child in n.children:
            parents[id(child)] = n
            stack.append(child)
    return parents


def _ancestors(parents: dict[int, AstNode], n: AstNode, limit: int) -> list[AstNode]:
    """`n`'s nearest `limit` ancestors, nearest first."""
    chain = []
    cur = parents.get(id(n))
    while cur is not None and len(chain) < limit:
        chain.append(cur)
        cur = parents.get(id(cur))
    return chain


def iter_method_nodes(tree: AstNode):
    for n in tree.walk():
        if n.kind == "MethodDecl":
            yield n


def method_name(m: AstNode) -> str | None:
    for child in m.children:
        if child.kind == "Name" and child.is_leaf:
            return child.token.text
    return None


def method_context_leaves(m: AstNode) -> list[AstNode]:
    """Leaves of the method subtree in source order, minus the method's own
    return-type and name leaves (params and body stay in)."""
    skip = {id(c) for c in m.children if c.is_leaf and c.kind in ("Type", "Name")}
    return [n for n in m.walk() if n.is_leaf and id(n) not in skip and n is not m]


def extract_method_samples(
    tree: AstNode,
    max_contexts: int = 200,
    max_path_len: int = 9,
    seed: int = 0,
) -> list[tuple[str, list[str]]]:
    """One `(label, fields)` record per method with >= 2 enumerable leaves and a context.

    Contexts are all ordered leaf pairs whose connecting path has at most
    `max_path_len` nodes; larger bags are thinned by a seeded uniform
    subsample that keeps source order.
    """
    parents = build_parent_map(tree)
    samples = []
    for ordinal, m in enumerate(iter_method_nodes(tree)):
        name = method_name(m)
        if not name:
            continue
        leaves = method_context_leaves(m)
        if len(leaves) < 2:
            continue
        terminals = [
            METHOD_NAME_SENTINEL if leaf.token.text == name else normalize_text(leaf.token.text)
            for leaf in leaves
        ]
        # A path of at most max_path_len nodes climbs at most that many
        # ancestors on either side, so each leaf keeps its nearest ones: their
        # ids, with each one's index, and the path text up to (↑) and down
        # from (↓) each. A pair's LCA is the first of the left chain found in
        # the right one's index; missing, or too deep, the path is too long.
        # Text is built only for kept pairs, in pair order, so the contexts
        # (and the max_contexts thinning) are exactly those of a walk that
        # joins each pair's full ancestor chains at their LCA.
        index, ups, downs = [], [], []
        for leaf in leaves:
            chain = _ancestors(parents, leaf, max_path_len)
            index.append({id(n): k for k, n in enumerate(chain)})  # in chain order
            ups.append([UP.join(n.kind for n in chain[:k + 1]) for k in range(len(chain))])
            downs.append(["".join(DOWN + n.kind for n in reversed(chain[:k])) for k in range(len(chain))])
        fields: list[str] = []  # left, path, right of each context, one after another
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                right = index[j]
                for up, node in enumerate(index[i]):
                    down = right.get(node)
                    if down is not None:
                        if up + 1 + down <= max_path_len:
                            fields += terminals[i], ups[i][up] + downs[j][down], terminals[j]
                        break
        if not fields:
            continue
        if len(fields) > 3 * max_contexts:
            rng = np.random.default_rng([seed, ordinal])
            keep = np.sort(rng.choice(len(fields) // 3, size=max_contexts, replace=False))
            fields = [field for k in keep.tolist() for field in fields[3 * k:3 * k + 3]]
        samples.append((name, fields))
    return samples


def extract_cbow_samples(tokens: list[Token], window: int = 4) -> list[tuple[str, list[str]]]:
    """One `(target, context)` record per token position; boundary context slots hold <PAD>.

    Every window needs a real slot, so a file of one token gives none: with
    two or more, each position's neighbour is in its window.
    """
    if window < 1:
        raise ValueError("window radius must be >= 1")
    if len(tokens) < 2:
        return []
    pad = [PAD_TOKEN] * window
    texts = [*pad, *(normalize_text(t.text) for t in tokens), *pad]
    return [
        (texts[i], texts[i - window:i] + texts[i + 1:i + window + 1]) for i in range(window, len(texts) - window)
    ]


# -- interchange files -------------------------------------------------
#
# CS: one method per line, `label left,path,right left,path,right ...`
# CC: one sample per line, `target ctx1 ctx2 ...` (2*w context slots)
# UTF-8, LF line endings.
#
# The writers take the records extraction returns, and the readers yield
# them back, one per non-empty line, holding only that line's strings: CS
# (label, fields), the contexts' left, path and right fields one context
# after another; CC (target, context tokens).


class ContextFormatError(ValidationFailure, ValueError):
    pass


def _numbered_lines(path):
    """Yield (line number, text) of each non-empty line; bytes that are not UTF-8 raise ContextFormatError."""
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise ContextFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _checked(sample: str, line: str, joins: dict[str, int]) -> str:
    """`line`, unless a field it joins holds a separator or a line break: then ValueError naming `sample`.

    `joins` counts each separator the line was joined with. A text-mode
    read ends a line at a line feed and at a carriage return.
    """
    for c, n in {**joins, "\n": 0, "\r": 0}.items():
        if line.count(c) != n:
            raise ValueError(f"{sample}: a field holds {c!r}, at which the context file is split")
    return line


def write_cs_contexts(path, records: list[tuple[str, list[str]]]) -> None:
    """Write one line per `(label, fields)` record, which `read_cs_contexts` reads back unchanged.

    Each line is written as soon as its record is checked. ValueError names
    the first record that would not read back so: fields that are not three
    per context, a label or field holding a space, a comma or a line break,
    or an empty label without contexts (an empty line, which the reader
    skips). Then `atomic_open` removes what was written, and `path` keeps
    what it held.
    """
    with atomic_open(path) as f:
        for i, (label, fields) in enumerate(records):
            name = f"CS sample {i} {label!r}"
            n, ragged = divmod(len(fields), 3)
            if ragged:
                raise ValueError(f"{name}: {len(fields)} context fields; each context needs 3")
            line = " ".join([label, *(",".join(fields[k:k + 3]) for k in range(0, 3 * n, 3))])
            if not line:
                raise ValueError(f"{name}: an empty label without contexts writes an empty line, which the reader skips")
            f.write(_checked(name, line, {" ": n, ",": 2 * n}) + "\n")


def read_cs_contexts(path):
    """Yield each line's record; a context that is not three fields raises ContextFormatError."""
    for lineno, line in _numbered_lines(path):
        label, *chunks = line.split(" ")
        if {*map(str.count, chunks, repeat(","))} - {2}:
            bad = next(chunk for chunk in chunks if chunk.count(",") != 2)
            raise ContextFormatError(f"{path}:{lineno}: bad context triple {bad!r}")
        yield label, ",".join(chunks).split(",") if chunks else []


def write_cc_contexts(path, records: list[tuple[str, list[str]]]) -> None:
    """Write one line per `(target, context)` record, which `read_cc_contexts` reads back unchanged.

    Each line is written as soon as its record is checked. ValueError names
    the first record that would not read back so: a token holding a space or
    a line break, or a context that is not 2*w tokens (w >= 1) as wide as
    the first record's. Then `atomic_open` removes what was written, and
    `path` keeps what it held.
    """
    width = len(records[0][1]) if records else 0
    with atomic_open(path) as f:
        for i, (target, context) in enumerate(records):
            name = f"CC sample {i} {target!r}"
            if len(context) != width or width < 2 or width % 2:
                raise ValueError(f"{name}: {len(context)} context tokens; each needs 2*w, w >= 1, as the first: {width}")
            f.write(_checked(name, " ".join([target, *context]), {" ": width}) + "\n")


def read_cc_contexts(path):
    """Yield each line's record; ContextFormatError unless it is a target and 2*w tokens, as many as the first line's."""
    first = None  # (line number, context width) of the first line
    for lineno, line in _numbered_lines(path):
        target, *context = line.split(" ")
        if len(context) < 2 or len(context) % 2:
            raise ContextFormatError(f"{path}:{lineno}: expected target plus 2*w context tokens")
        if first is None:
            first = (lineno, len(context))
        elif len(context) != first[1]:
            raise ContextFormatError(f"{path}:{lineno}: {len(context)} context tokens, but line {first[0]} has {first[1]}")
        yield target, context
