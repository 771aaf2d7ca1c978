"""Recursive-descent parser for a pragmatic Java subset.

Recognizes class/interface/enum bodies, method declarations, blocks,
if/for/while/do/try, return/throw/break/continue, labelled statements,
local declarations, assignments, calls (explicit type arguments skipped),
field access, casts, and binary/unary expressions. Binary
operators come from one precedence table (BINARY_TIER), parsed by
precedence climbing. Anything else is consumed with brace-balanced
recovery and wrapped in an ExprStmt node instead of rejecting the file.
Only two inputs are a hard error (ParseError): unbalanced braces at end of
input, and nesting deeper than Python's recursion limit, which names the
line the parser reached.

Tree shape: leaves carry tokens (Name, Literal, Type, This, Super, and
childless Return/Break/Continue); internal nodes have at least one child.
Empty constructs are omitted rather than emitted childless, so e.g. a
method with an empty body simply has no Block child. The root
CompilationUnit is the one node allowed to be empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import (
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    KIND_LITERAL,
    KIND_OPERATOR,
    Token,
)

PRIMITIVES = frozenset({"void", "boolean", "byte", "char", "short", "int", "long", "float", "double", "var"})
MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "final", "abstract", "synchronized",
     "native", "transient", "volatile", "strictfp", "default", "sealed"}
)
ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="})

# binary operator -> precedence tier, loosest first
BINARY_TIER = {
    op: tier
    for tier, ops in enumerate((
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">=", "instanceof"),
        ("<<", ">>", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
    ))
    for op in ops
}
UNARY_OPS = frozenset({"!", "~", "+", "-", "++", "--"})
# the tokens besides identifiers and literals that can start a cast's operand: a unary expression not led by + or -
CAST_OPERAND_STARTS = frozenset({"(", "!", "~", "this", "super", "new"})


class ParseError(ValueError):
    pass


@dataclass
class AstNode:
    kind: str
    children: list["AstNode"] = field(default_factory=list)
    token: Token | None = None

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def pretty(self, depth: int = 0) -> str:
        label = self.kind if self.token is None else f"{self.kind}:{self.token.text}"
        lines = ["  " * depth + label]
        for child in self.children:
            lines.append(child.pretty(depth + 1))
        return "\n".join(lines)


def leaf(kind: str, token: Token) -> AstNode:
    return AstNode(kind, [], token)


def node(kind: str, children: list[AstNode | None]) -> AstNode | None:
    kept = [c for c in children if c is not None]
    if not kept:
        return None
    return AstNode(kind, kept)


class _Recover(Exception):
    """Internal: statement/member material the grammar does not cover."""


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[str] | None = None):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics

    # -- token helpers -------------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def check(self, text: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.text == text

    def check_kind(self, kind: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.kind == kind

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def match(self, text: str) -> Token | None:
        if self.check(text):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if self.check(text):
            return self.advance()
        raise _Recover()

    def name(self) -> AstNode:
        if not self.check_kind(KIND_IDENTIFIER):
            raise _Recover()
        return leaf("Name", self.advance())

    def skip_dims(self) -> None:
        while self.check("[") and self.check("]", 1):
            self.pos += 2

    def skip_modifiers(self) -> None:
        while self.check("@") or self.check_kind(KIND_KEYWORD) and self.peek().text in MODIFIERS:
            if self.check("@"):
                self.skip_annotation()
            else:
                self.advance()

    # -- recovery ------------------------------------------------------

    def recover_wrapped(self, start: int) -> AstNode | None:
        """Consume from `start` to the next ';' (balanced) or block edge,
        wrapping identifier/literal tokens as ExprStmt leaves."""
        self.pos = start
        collected: list[AstNode] = []
        depth = 0
        while not self.at_end():
            if depth == 0 and self.check("}"):
                break
            tok = self.advance()
            if tok.text in "([{":
                depth += 1
            elif tok.text in ")]}":
                depth -= 1
                if depth < 0:
                    self.pos -= 1
                    break
                if depth == 0 and tok.text == "}":
                    break  # a consumed block closed; the statement is over
            elif tok.kind == KIND_IDENTIFIER:
                collected.append(leaf("Name", tok))
            elif tok.kind == KIND_LITERAL:
                collected.append(leaf("Literal", tok))
            if depth == 0 and tok.text == ";":
                break
        if self.pos == start:  # always make progress
            self.advance()
        if self.diagnostics is not None:
            line = self.tokens[start].line
            self.diagnostics.append(
                f"line {line}: wrapped {self.pos - start} unrecognized tokens in an ExprStmt"
            )
        return node("ExprStmt", collected)

    def skip_balanced(self, open_text: str, close_text: str) -> None:
        depth = 0
        while not self.at_end():
            t = self.advance()
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
                if depth == 0:
                    return
        if close_text == "}":
            raise ParseError("unbalanced braces at end of input")

    def skip_annotation(self) -> None:
        self.advance()  # '@'
        if self.check_kind(KIND_IDENTIFIER) or self.check_kind(KIND_KEYWORD):
            self.advance()
            while self.match("."):
                if self.check_kind(KIND_IDENTIFIER):
                    self.advance()
        if self.check("("):
            self.skip_balanced("(", ")")

    def skip_generics(self) -> None:
        """Skip a balanced <...> if one plausibly starts here; else no-op."""
        if not self.check("<"):
            return
        save = self.pos
        depth = 0
        while not self.at_end():
            t = self.advance()
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return
            elif t.text in (";", "{", "}", ")") or t.kind == KIND_OPERATOR and t.text in ("&&", "||", "=="):
                break
        self.pos = save

    # -- types ---------------------------------------------------------

    def try_typeref(self) -> AstNode | None:
        """Parse a type reference, returning a Type leaf for its base name."""
        t = self.peek()
        if t is None or not (t.kind == KIND_IDENTIFIER or t.kind == KIND_KEYWORD and t.text in PRIMITIVES):
            return None
        base = self.advance()
        if base.kind == KIND_IDENTIFIER:
            self.skip_generics()
            while self.check(".") and self.check_kind(KIND_IDENTIFIER, 1):
                self.advance()
                base = self.advance()
                self.skip_generics()
        self.skip_dims()
        return leaf("Type", base)

    def typeref(self) -> AstNode:
        ref = self.try_typeref()
        if ref is None:
            raise _Recover()
        return ref

    def looks_like_declaration(self) -> bool:
        save = self.pos
        ok = self.try_typeref() is not None and self.check_kind(KIND_IDENTIFIER) and (
            self.peek(1) is not None and self.peek(1).text in ("=", ";", ",", ":", ")")
            or self.check("[", 1) and self.check("]", 2)
        )
        self.pos = save
        return ok

    # -- toplevel ------------------------------------------------------

    def parse_compilation_unit(self) -> AstNode:
        items: list[AstNode | None] = []
        while not self.at_end():
            start, text = self.pos, self.peek().text
            try:
                if text == "package" or text == "import":
                    items.append(self.parse_package_or_import())
                elif text == "@":
                    self.skip_annotation()
                elif text == ";":
                    self.advance()
                else:
                    items.append(self.parse_type_decl())
            except _Recover:
                items.append(self.recover_wrapped(start))
        return AstNode("CompilationUnit", [item for item in items if item is not None])

    def parse_package_or_import(self) -> AstNode | None:
        kind = "PackageDecl" if self.advance().text == "package" else "ImportDecl"
        names: list[AstNode] = []
        while not self.at_end() and not self.check(";"):
            t = self.advance()
            if t.kind == KIND_IDENTIFIER:
                names.append(leaf("Name", t))
        self.match(";")
        return node(kind, names)

    def parse_type_decl(self) -> AstNode | None:
        self.skip_modifiers()
        t = self.peek()
        if t is None or t.text not in ("class", "interface", "enum"):
            raise _Recover()
        kind = {"class": "ClassDecl", "interface": "InterfaceDecl", "enum": "EnumDecl"}[self.advance().text]
        children: list[AstNode | None] = [self.name()]
        self.skip_generics()
        while not self.at_end() and not self.check("{"):
            self.advance()  # extends/implements clause
        self.expect("{")
        if kind == "EnumDecl":
            children.extend(self.parse_enum_constants())
        while not self.match("}"):
            children.append(self.parse_member())  # raises ParseError at end of input
        return node(kind, children)

    def parse_enum_constants(self) -> list[AstNode]:
        constants: list[AstNode] = []
        while not self.at_end() and not self.check(";") and not self.check("}"):
            t = self.advance()
            if t.kind == KIND_IDENTIFIER:
                constants.append(leaf("Name", t))
            elif t.text == "(" or t.text == "{":
                self.pos -= 1
                self.skip_balanced(t.text, ")" if t.text == "(" else "}")
        self.match(";")
        return constants

    # -- members -------------------------------------------------------

    def parse_member(self) -> AstNode | None:
        start = self.pos
        try:
            while self.check("@"):
                self.skip_annotation()
            if self.match(";"):
                return None
            self.skip_modifiers()
            t = self.peek()
            if t is None:
                raise ParseError("unbalanced braces at end of input")
            if t.text in ("class", "interface", "enum"):
                return self.parse_type_decl()
            if t.text == "{":
                return self.parse_block()
            self.skip_generics()  # generic method type parameters
            if self.check_kind(KIND_IDENTIFIER) and self.check("(", 1):  # constructor
                return self.finish_method([self.name()])
            head = [self.typeref(), self.name()]
            if self.check("("):
                return self.finish_method(head)
            self.skip_dims()
            self.declarators(head)
            self.expect(";")
            return node("FieldDecl", head)
        except _Recover:
            return self.recover_wrapped(start)

    def finish_method(self, head: list[AstNode]) -> AstNode | None:
        children: list[AstNode | None] = list(head)
        self.expect("(")
        while not self.match(")"):
            if not self.match(","):
                children.append(self.parse_param())  # raises _Recover at end of input
        if self.match("throws"):
            while not self.at_end() and not self.check("{") and not self.check(";"):
                self.advance()
        if self.check("{"):
            children.append(self.parse_block())
        else:
            self.expect(";")
        return node("MethodDecl", children)

    def parse_param(self) -> AstNode:
        while self.check("@"):
            self.skip_annotation()
        while self.match("final"):
            pass
        ref = self.typeref()
        while self.match("."):  # varargs '...'
            pass
        name = self.name()
        self.skip_dims()
        return AstNode("Param", [ref, name])

    def declarators(self, children: list[AstNode | None]) -> None:
        """Append the `= init` and `, name = init` tail shared by fields and locals."""
        if self.match("="):
            children.append(self.parse_expr())
        while self.match(","):
            children.append(self.name())
            if self.match("="):
                children.append(self.parse_expr())

    # -- statements ----------------------------------------------------

    def parse_block(self) -> AstNode | None:
        self.expect("{")
        stmts: list[AstNode | None] = []
        while not self.match("}"):
            stmts.append(self.parse_statement())  # raises ParseError at end of input
        return node("Block", stmts)

    def parse_statement(self) -> AstNode | None:
        start = self.pos
        try:
            t = self.peek()
            if t is None:
                raise ParseError("unbalanced braces at end of input")
            text = t.text
            if text == "{":
                return self.parse_block()
            if text == ";":
                self.advance()
                return None
            if text == "if":
                self.advance()
                cond, then = self.paren_expr(), self.parse_statement()
                return node("If", [cond, then, self.parse_statement() if self.match("else") else None])
            if text == "while":
                self.advance()
                return node("While", [self.paren_expr(), self.parse_statement()])
            if text == "do":
                self.advance()
                body = self.parse_statement()
                self.expect("while")
                cond = self.paren_expr()
                self.match(";")
                return node("DoWhile", [body, cond])
            if text == "for":
                return self.parse_for()
            if text == "try":
                return self.parse_try()
            if text == "return" or text == "throw":
                tok = self.advance()
                if text == "return" and self.match(";"):
                    return leaf("Return", tok)
                return self.expr_statement(text.capitalize())
            if text == "break" or text == "continue":
                tok = self.advance()
                if self.check_kind(KIND_IDENTIFIER):
                    self.advance()  # label
                self.expect(";")
                return leaf(text.capitalize(), tok)
            if self.check_kind(KIND_IDENTIFIER) and self.check(":", 1):
                label = leaf("Name", self.advance())
                self.advance()  # ':'
                return node("Labeled", [label, self.parse_statement()])
            if text == "final" or self.looks_like_declaration():
                return self.parse_local_decl()
            return self.expr_statement("ExprStmt")
        except _Recover:
            return self.recover_wrapped(start)

    def paren_expr(self) -> AstNode:
        self.expect("(")
        expr = self.parse_expr()
        self.expect(")")
        return expr

    def expr_statement(self, kind: str) -> AstNode:
        expr = self.parse_expr()
        self.expect(";")
        return AstNode(kind, [expr])

    def parse_for(self) -> AstNode | None:
        self.advance()
        self.expect("(")
        # for-each: Type name : iterable
        save = self.pos
        ref = self.try_typeref()
        if ref is not None and self.check_kind(KIND_IDENTIFIER) and self.check(":", 1):
            param = AstNode("Param", [ref, self.name()])
            self.advance()  # ':'
            iterable = self.parse_expr()
            self.expect(")")
            return node("ForEach", [param, iterable, self.parse_statement()])
        self.pos = save
        init = None
        if self.check("final") or self.looks_like_declaration():
            init = self.parse_local_decl()
        elif not self.match(";"):
            init = self.expr_statement("ExprStmt")
        cond = None if self.check(";") else self.parse_expr()
        self.expect(";")
        update = None
        if not self.check(")"):
            update = AstNode("ExprStmt", [self.parse_expr()])
            while self.match(","):
                update = AstNode("ExprStmt", [update, AstNode("ExprStmt", [self.parse_expr()])])
        self.expect(")")
        return node("For", [init, cond, update, self.parse_statement()])

    def parse_try(self) -> AstNode | None:
        self.advance()
        if self.check("("):
            self.skip_balanced("(", ")")  # try-with-resources header
        children: list[AstNode | None] = [self.parse_block()]
        while self.match("catch"):
            self.expect("(")
            ref = self.try_typeref()
            while self.match("|"):
                self.try_typeref()
            param = None
            if ref is not None and self.check_kind(KIND_IDENTIFIER):
                param = AstNode("Param", [ref, self.name()])
            self.expect(")")
            children.append(node("Catch", [param, self.parse_block()]))
        if self.match("finally"):
            children.append(node("Finally", [self.parse_block()]))
        return node("Try", children)

    def parse_local_decl(self) -> AstNode | None:
        while self.match("final"):
            pass
        children: list[AstNode | None] = [self.typeref(), self.name()]
        self.skip_dims()
        self.declarators(children)
        self.expect(";")
        return node("LocalVarDecl", children)

    # -- expressions ---------------------------------------------------

    def parse_expr(self) -> AstNode:
        left = self.parse_ternary()
        t = self.peek()
        if t is not None and t.text in ASSIGN_OPS:
            op = self.advance().text
            return AstNode(f"Assign{op}", [left, self.parse_expr()])
        return left

    def parse_ternary(self) -> AstNode:
        cond = self.parse_binary()
        if self.match("?"):
            then = self.parse_expr()
            self.expect(":")
            return AstNode("Ternary", [cond, then, self.parse_ternary()])
        return cond

    def parse_binary(self, min_tier: int = 0) -> AstNode:
        """Precedence climbing over BINARY_TIER. After an operator of tier k
        only tiers <= k may follow at this level: tighter ones belong to its
        right operand, or, after `instanceof T`, end the expression."""
        left = self.parse_unary()
        ceiling = len(BINARY_TIER)  # above every tier
        while True:
            t = self.peek()
            tier = BINARY_TIER.get(t.text, -1) if t is not None else -1
            if not min_tier <= tier <= ceiling:
                return left
            ceiling = tier
            if self.advance().text == "instanceof":
                left = AstNode("InstanceOf", [left, self.typeref()])
            else:
                left = AstNode(f"Binary{t.text}", [left, self.parse_binary(tier + 1)])

    def parse_unary(self) -> AstNode:
        t = self.peek()
        if t is not None and t.kind == KIND_OPERATOR and t.text in UNARY_OPS:
            op = self.advance().text
            return AstNode(f"Unary{op}", [self.parse_unary()])
        if self.check("("):
            ref = self.cast_type()
            if ref is not None:
                return AstNode("Cast", [ref, self.parse_unary()])
        return self.parse_postfix()

    def cast_type(self) -> AstNode | None:
        """At `(`, consume a cast's `( type )` and return the type; else consume nothing.

        As in Java, `( primitive )` always casts, and any other parenthesized
        type only when the next token can start a unary expression other
        than + or -: `(a) - b` subtracts, `(a) !b` casts.
        """
        save = self.pos
        primitive = self.check_kind(KIND_KEYWORD, 1) and self.peek(1).text in PRIMITIVES and self.check(")", 2)
        self.advance()
        ref = self.try_typeref()
        if ref is not None and self.match(")"):
            t = self.peek()
            if primitive or t is not None and (
                t.kind in (KIND_IDENTIFIER, KIND_LITERAL) or t.text in CAST_OPERAND_STARTS
            ):
                return ref
        self.pos = save
        return None

    def parse_postfix(self) -> AstNode:
        expr = self.parse_primary()
        while True:
            t = self.peek()
            if t is None:
                return expr
            if t.text == ".":
                save = self.pos
                self.advance()
                self.skip_generics()  # explicit type arguments: a.<T>call()
                if not (self.check_kind(KIND_IDENTIFIER) or self.check_kind(KIND_KEYWORD)):
                    self.pos = save
                    return expr
                expr = AstNode("FieldAccess", [expr, leaf("Name", self.advance())])
            elif t.text == "(":
                expr = AstNode("Call", [expr, *self.call_args()])
            elif t.text == "[":
                self.advance()
                index = self.parse_expr()
                self.expect("]")
                expr = AstNode("Index", [expr, index])
            elif t.text in ("++", "--"):
                op = self.advance().text
                expr = AstNode(f"Postfix{op}", [expr])
            else:
                return expr

    def call_args(self) -> list[AstNode]:
        self.expect("(")
        args: list[AstNode] = []
        while not self.check(")"):
            args.append(self.parse_expr())  # raises _Recover at end of input
            if not self.match(","):
                break
        self.expect(")")
        return args

    def parse_primary(self) -> AstNode:
        t = self.peek()
        if t is None:
            raise _Recover()
        if t.kind == KIND_LITERAL:
            return leaf("Literal", self.advance())
        if t.kind == KIND_IDENTIFIER:
            return leaf("Name", self.advance())
        if t.text == "this" or t.text == "super":
            return leaf(t.text.capitalize(), self.advance())
        if t.text == "(":
            return self.paren_expr()
        if t.text == "new":
            self.advance()
            children = [self.typeref()]
            if self.check("("):
                children.extend(self.call_args())
            else:
                while self.match("["):
                    if not self.check("]"):
                        children.append(self.parse_expr())
                    self.expect("]")
            if self.check("{"):
                self.skip_balanced("{", "}")  # array/anon-class body
            return AstNode("New", children)
        raise _Recover()


def parse_java_lite(tokens: list[Token], diagnostics: list[str] | None = None) -> AstNode:
    """Parse a token list into a CompilationUnit tree.

    Pass a list as `diagnostics` to collect one message per brace-balanced
    recovery the parser had to perform. Nesting too deep for Python's
    recursion limit raises ParseError naming the line the parser reached.
    """
    parser = _Parser(tokens, diagnostics)
    try:
        return parser.parse_compilation_unit()
    except RecursionError:
        line = tokens[min(parser.pos, len(tokens) - 1)].line
        raise ParseError(f"line {line}: nesting too deep to parse") from None
