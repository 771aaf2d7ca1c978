"""Training-unit extraction: AST path contexts and CBOW token windows.

A method sample is the bag of (left terminal, path, right terminal)
triples over ordered leaf pairs inside one method declaration, where the
path walks node kinds up to the lowest common ancestor and back down,
rendered like "Param↑MethodDecl↓Block↓Return". A CBOW sample is one token
position with its 2*w neighbors, padded at file boundaries.

Terminal/token texts are lightly normalized: string and char literals
collapse to <STR>/<CHR> placeholders so terminals never contain spaces or
commas (the interchange format depends on that) and the vocabularies stay
small. Any leaf matching the enclosing method's name is replaced by a
sentinel so the label never leaks into its own contexts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lexer import Token
from .parser import AstNode

PAD_TOKEN = "<PAD>"
METHOD_NAME_SENTINEL = "<METHOD>"

UP = "↑"    # path step toward the root
DOWN = "↓"  # path step away from the root


@dataclass(frozen=True)
class PathContext:
    left: str
    path: str
    right: str


@dataclass
class MethodSample:
    label: str
    contexts: list[PathContext]
    origin: str = ""


@dataclass
class CbowSample:
    target: str
    context: list[str]


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
    origin: str = "",
) -> list[MethodSample]:
    """One sample per method with >= 2 enumerable leaves.

    Contexts are all ordered leaf pairs whose connecting path has at most
    `max_path_len` nodes; larger bags are thinned by a seeded uniform
    subsample that keeps source order.
    """
    parents = build_parent_map(tree)
    samples: list[MethodSample] = []
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
        contexts: list[PathContext] = []
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                right = index[j]
                for up, node in enumerate(index[i]):
                    down = right.get(node)
                    if down is not None:
                        if up + 1 + down <= max_path_len:
                            contexts.append(PathContext(terminals[i], ups[i][up] + downs[j][down], terminals[j]))
                        break
        if not contexts:
            continue
        if len(contexts) > max_contexts:
            rng = np.random.default_rng([seed, ordinal])
            keep = np.sort(rng.choice(len(contexts), size=max_contexts, replace=False))
            contexts = [contexts[k] for k in keep]
        samples.append(MethodSample(label=name, contexts=contexts, origin=origin))
    return samples


def extract_cbow_samples(tokens: list[Token], window: int = 4) -> list[CbowSample]:
    """One sample per token position; boundary context slots hold <PAD>.

    Every window needs a real slot, so a file of one token gives none: with
    two or more, each position's neighbour is in its window.
    """
    if window < 1:
        raise ValueError("window radius must be >= 1")
    texts = [normalize_text(t.text) for t in tokens]
    n = len(texts)
    if n < 2:
        return []
    samples = []
    for i in range(n):
        context = [
            texts[j] if 0 <= j < n else PAD_TOKEN
            for j in list(range(i - window, i)) + list(range(i + 1, i + window + 1))
        ]
        samples.append(CbowSample(target=texts[i], context=context))
    return samples


# -- interchange files -------------------------------------------------
#
# CS: one method per line, `label left,path,right left,path,right ...`
# CC: one sample per line, `target ctx1 ctx2 ...` (2*w context slots)
# UTF-8, LF line endings.


class ContextFormatError(ValueError):
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


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)


def write_cs_contexts(path, samples: list[MethodSample]) -> None:
    """Write one line per sample, which `read_cs_contexts` reads back as its label and contexts.

    Before anything is written, ValueError names the first sample that would
    not read back so: a label or context field holding a space, a comma or
    a line break, or an empty label without contexts (an empty line, which
    the reader skips).
    """
    lines = []
    for i, s in enumerate(samples):
        name = f"CS sample {i} {s.label!r}"
        line = " ".join([s.label, *(f"{c.left},{c.path},{c.right}" for c in s.contexts)])
        lines.append(_checked(name, line, {" ": len(s.contexts), ",": 2 * len(s.contexts)}))
        if not line:
            raise ValueError(f"{name}: an empty label without contexts writes an empty line, which the reader skips")
    _write_lines(path, lines)


def read_cs_contexts(path) -> list[MethodSample]:
    samples = []
    for lineno, line in _numbered_lines(path):
        parts = line.split(" ")
        contexts = []
        for chunk in parts[1:]:
            fields = chunk.split(",")
            if len(fields) != 3:
                raise ContextFormatError(f"{path}:{lineno}: bad context triple {chunk!r}")
            contexts.append(PathContext(*fields))
        samples.append(MethodSample(label=parts[0], contexts=contexts, origin=f"{path}:{lineno}"))
    return samples


def write_cc_contexts(path, samples: list[CbowSample]) -> None:
    """Write one line per sample, which `read_cc_contexts` reads back as its target and context.

    Before anything is written, ValueError names the first sample that would
    not read back so: a token holding a space or a line break, or a context
    that is not 2*w tokens (w >= 1) as wide as the first sample's.
    """
    width = len(samples[0].context) if samples else 0
    lines = []
    for i, s in enumerate(samples):
        name = f"CC sample {i} {s.target!r}"
        if len(s.context) != width or width < 2 or width % 2:
            raise ValueError(f"{name}: {len(s.context)} context tokens; each needs 2*w, w >= 1, as the first: {width}")
        lines.append(_checked(name, " ".join([s.target, *s.context]), {" ": width}))
    _write_lines(path, lines)


def read_cc_contexts(path) -> list[CbowSample]:
    samples = []
    first = None  # (line number, field count) of the first sample
    for lineno, line in _numbered_lines(path):
        parts = line.split(" ")
        if len(parts) < 3 or len(parts) % 2 == 0:
            raise ContextFormatError(f"{path}:{lineno}: expected target plus 2*w context tokens")
        if first is None:
            first = (lineno, len(parts))
        elif len(parts) != first[1]:
            raise ContextFormatError(
                f"{path}:{lineno}: {len(parts) - 1} context tokens, but line {first[0]} has {first[1] - 1}"
            )
        samples.append(CbowSample(target=parts[0], context=parts[1:]))
    return samples
