"""Java tokenizer: identifiers, keywords, literals, operators, separators.

Comments and whitespace are stripped before the token list is returned, so
the parser never sees them. String and char literals stay single tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

KIND_IDENTIFIER = "identifier"
KIND_KEYWORD = "keyword"
KIND_LITERAL = "literal"
KIND_OPERATOR = "operator"
KIND_SEPARATOR = "separator"

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while var record yield
    sealed permits""".split()
)

# true/false/null are literals in the language grammar
WORD_LITERALS = frozenset({"true", "false", "null"})

# longest match first
OPERATORS = (
    ">>>=", ">>>", "<<=", ">>=", "->", "::", "==", "!=", "<=", ">=", "&&", "||",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?", ":",
)

SEPARATORS = frozenset("(){}[];,.@")


class LexicalError(ValueError):
    """Unterminated literal/comment or an unclassifiable character."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _is_ident_part(c: str) -> bool:
    return c.isalnum() or c in "_$"


def tokenize_java(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(source)
    line = 1
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end == -1 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexicalError("unterminated block comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n:
                if source[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if source[j] == c:
                    break
                if source[j] == "\n":
                    raise LexicalError(f"unterminated {'string' if c == chr(34) else 'char'} literal", line)
                j += 1
            else:
                raise LexicalError(f"unterminated {'string' if c == chr(34) else 'char'} literal", line)
            tokens.append(Token(KIND_LITERAL, source[i:j + 1], line))
            line += source.count("\n", i, j)  # escaped newlines inside the literal
            i = j + 1
            continue
        if c.isdigit():
            j = i + 1
            while j < n:
                ch = source[j]
                if ch.isalnum() or ch in "._":
                    j += 1
                elif ch in "+-" and source[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            tokens.append(Token(KIND_LITERAL, source[i:j], line))
            i = j
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n and _is_ident_part(source[j]):
                j += 1
            word = source[i:j]
            if word in WORD_LITERALS:
                kind = KIND_LITERAL
            elif word in KEYWORDS:
                kind = KIND_KEYWORD
            else:
                kind = KIND_IDENTIFIER
            tokens.append(Token(kind, word, line))
            i = j
            continue
        if c in SEPARATORS:
            tokens.append(Token(KIND_SEPARATOR, c, line))
            i += 1
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(KIND_OPERATOR, op, line))
                i += len(op)
                break
        else:
            raise LexicalError(f"unexpected character {c!r}", line)
    return tokens
