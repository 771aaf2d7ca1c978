"""Lexer, parser, and sample-extraction contracts.

The expected path-context sets are produced by an independent brute-force
tree walk in this file, never by the library's own enumeration.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeshift import extraction as ex
from codeshift import synth, tasks
from codeshift.extraction.lexer import KEYWORDS, OPERATORS, SEPARATORS, WORD_LITERALS

DATA = Path(__file__).parent / "data"
FIXTURE_METHOD = "int id(int a){return a;}"
FIXTURE_CLASS = "class A { void f() { return; } }"


# -- tokenizer ----------------------------------------------------------


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


def test_tokenize_simple_statement():
    tokens = ex.tokenize_java("int x = 1;")
    assert kinds_and_texts(tokens) == [
        ("keyword", "int"),
        ("identifier", "x"),
        ("operator", "="),
        ("literal", "1"),
        ("separator", ";"),
    ]


def test_tokenize_strips_comments():
    tokens = ex.tokenize_java("// note\nreturn;")
    assert kinds_and_texts(tokens) == [("keyword", "return"), ("separator", ";")]
    block = ex.tokenize_java("/* a\nb */ x")
    assert kinds_and_texts(block) == [("identifier", "x")]


def test_tokenize_unterminated_string():
    with pytest.raises(ex.LexicalError) as err:
        ex.tokenize_java('"abc')
    assert err.value.line == 1
    with pytest.raises(ex.LexicalError) as err:
        ex.tokenize_java("x;\n/* never closed")
    assert err.value.line == 2


def test_tokenize_literals_and_operators():
    tokens = ex.tokenize_java('s = "a b" + \'c\' + 0x1F + 2.5e-3; y >>= 2;')
    texts = [t.text for t in tokens]
    assert '"a b"' in texts and "'c'" in texts and "0x1F" in texts and "2.5e-3" in texts
    assert ">>=" in texts
    kinds = {t.text: t.kind for t in tokens}
    assert kinds['"a b"'] == "literal"
    assert kinds[">>="] == "operator"


def test_tokenize_word_literals():
    tokens = ex.tokenize_java("flag = true;")
    assert ("literal", "true") in kinds_and_texts(tokens)


def test_tokenize_counts_escaped_newlines_inside_literals():
    source = 'String s = "a\\' + "\n" + 'b";\nchar c = \'\\' + "\n" + "';\nint x;"
    lines = {t.text: t.line for t in ex.tokenize_java(source)}
    assert lines["s"] == 1 and lines["c"] == 3 and lines["x"] == 5


# A source is drawn as fragments, each with the tokens it must lex to, joined
# by gaps (whitespace or comments) that lex to nothing; a fragment that
# cannot lex makes LexicalError the only acceptable outcome.
_WORD = st.one_of(
    st.sampled_from(sorted(KEYWORDS | WORD_LITERALS)),
    st.text("abzXYZ_$éλжß中", min_size=1, max_size=5).flatmap(
        lambda head: st.text("az09_$λ", max_size=3).map(lambda tail: head + tail)),
)
_STRING_PART = st.sampled_from(["a", " ", "λ", "//", "/*", "'", "\\n", '\\"', "\\\\", "\\u0041", "\\\n"])


def _word_kind(word):
    if word in WORD_LITERALS:
        return "literal"
    return "keyword" if word in KEYWORDS else "identifier"


_FRAGMENTS = st.one_of(
    _WORD.map(lambda w: (w, [(_word_kind(w), w)])),
    st.sampled_from(["0", "42", "0x1F", "2.5e-3", "1_000L", "3.14f", "7E+2"]).map(lambda n: (n, [("literal", n)])),
    st.lists(_STRING_PART, max_size=4).map(lambda parts: '"' + "".join(parts) + '"')
    .map(lambda s: (s, [("literal", s)])),
    st.sampled_from(["'a'", "'\\n'", "'\\''", "'λ'", "'\"'"]).map(lambda c: (c, [("literal", c)])),
    st.sampled_from(OPERATORS).map(lambda op: (op, [("operator", op)])),
    st.sampled_from(sorted(SEPARATORS)).map(lambda sep: (sep, [("separator", sep)])),
)
_BAD_FRAGMENTS = st.sampled_from(["#", "`", "\\", '"open\n', "'x\n'"]).map(lambda b: (b, None))
_GAPS = st.sampled_from([" ", "\n", "\t", " \r\n", " // note\n", " /* a\nb */ ", "\n\n "])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.one_of(_FRAGMENTS, _FRAGMENTS, _FRAGMENTS, _BAD_FRAGMENTS), _GAPS), max_size=25))
def test_tokenize_returns_each_fragments_tokens_on_its_line(pieces):
    source, expected, valid = "", [], True
    for (text, tokens), gap in pieces:
        if tokens is None:
            valid = False
        else:
            line = source.count("\n") + 1
            expected.extend((kind, tok, line) for kind, tok in tokens)
        source += text + gap
    try:
        got = [(t.kind, t.text, t.line) for t in ex.tokenize_java(source)]
    except ex.LexicalError:
        assert not valid
        return
    assert valid and got == expected


# -- parser ------------------------------------------------------------


def parse(source):
    return ex.parse_java_lite(ex.tokenize_java(source))


def shape(n):
    """(kind, text-if-leaf, child shapes) for structural comparison."""
    return (n.kind, n.token.text if n.token else None, [shape(c) for c in n.children])


def test_parse_fixture_class_tree():
    tree = parse(FIXTURE_CLASS)
    expected = (
        "CompilationUnit",
        None,
        [
            (
                "ClassDecl",
                None,
                [
                    ("Name", "A", []),
                    (
                        "MethodDecl",
                        None,
                        [
                            ("Type", "void", []),
                            ("Name", "f", []),
                            ("Block", None, [("Return", "return", [])]),
                        ],
                    ),
                ],
            )
        ],
    )
    assert shape(tree) == expected


def test_parse_empty_source():
    tree = parse("")
    assert tree.kind == "CompilationUnit"
    assert tree.children == []


def test_parse_unbalanced_braces():
    with pytest.raises(ex.ParseError):
        parse("class A { void f() {")


def test_parse_statements_and_expressions():
    source = """
    class Demo {
        int total;
        int sum(int[] xs, int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                acc += xs[i];
            }
            while (acc > 100) { acc = acc - 1; }
            if (acc == 0) { return acc; } else { acc--; }
            try { helper(acc); } catch (Exception e) { acc = 0; } finally { log(acc); }
            return acc;
        }
    }
    """
    tree = parse(source)
    kinds = {n.kind for n in tree.walk()}
    assert {"ClassDecl", "FieldDecl", "MethodDecl", "For", "While", "If", "Try",
            "Catch", "Finally", "Call", "Index", "Assign=", "Assign+=", "Binary<"} <= kinds
    methods = list(ex.iter_method_nodes(tree))
    assert len(methods) == 1
    assert ex.method_name(methods[0]) == "sum"


def test_parse_invariants_hold():
    source = """
    class A {
        void f(String s) {
            Object o = s.trim().length() > 2 ? s : null;
            for (String part : parts) { use(part); }
            do { spin(); } while (busy);
        }
    }
    """
    tokens = ex.tokenize_java(source)
    assert_tree_invariants(ex.parse_java_lite(tokens), tokens)


def test_parse_recovery_wraps_unknown_material():
    # switch is outside the subset grammar: consumed balanced, not rejected.
    source = "class A { void f(int x) { switch (x) { default: x = 1; } return; } }"
    tree = parse(source)
    methods = list(ex.iter_method_nodes(tree))
    assert len(methods) == 1
    kinds = [n.kind for n in methods[0].walk()]
    assert "ExprStmt" in kinds and "Return" in kinds


def test_parse_is_deterministic():
    source = FIXTURE_CLASS + " class B { int g(int v) { return v + 1; } }"
    assert shape(parse(source)) == shape(parse(source))


def test_parse_grammar_fixture_pins_every_construct():
    # every statement kind, binary tier, cast, `new` form and declaration the
    # grammar covers, plus one `switch` the recovery wraps
    diagnostics = []
    tokens = ex.tokenize_java((DATA / "grammar.java").read_text(encoding="utf-8"))
    tree = ex.parse_java_lite(tokens, diagnostics)
    assert tree.pretty() + "\n" == (DATA / "grammar.pretty").read_text(encoding="utf-8")
    assert diagnostics == ["line 50: wrapped 12 unrecognized tokens in an ExprStmt"]


def parse_method_body(body, members=""):
    """The statements of `void f() { body }` in a class that also declares `members`, parsed without recovery."""
    diagnostics = []
    tree = ex.parse_java_lite(ex.tokenize_java(f"class A {{ {members} void f() {{ {body} }} }}"), diagnostics)
    assert diagnostics == []
    (method,) = ex.iter_method_nodes(tree)
    return tree, method.children[-1].children


def test_parse_labelled_statement_is_its_own_node():
    _, (stmt,) = parse_method_body("outer: for (int i = 0; i < n; i++) { if (i > 2) break outer; }")
    label, loop = stmt.children
    assert stmt.kind == "Labeled" and shape(label) == ("Name", "outer", [])
    assert loop.kind == "For" and [n.kind for n in loop.walk()].count("Break") == 1
    _, (stmt,) = parse_method_body("done: { x = 1; }")
    _, (assign,) = parse_method_body("x = 1;")
    assert shape(stmt) == ("Labeled", None, [("Name", "done", []), ("Block", None, [shape(assign)])])


def test_parse_field_with_dimensions_after_its_name():
    tree, _ = parse_method_body("", members="int[] grid[] = new int[3][], flat = null;")
    (field,) = [n for n in tree.walk() if n.kind == "FieldDecl"]
    assert shape(field) == ("FieldDecl", None, [
        ("Type", "int", []), ("Name", "grid", []), ("New", None, [("Type", "int", []), ("Literal", "3", [])]),
        ("Name", "flat", []), ("Literal", "null", []),
    ])


@pytest.mark.parametrize("expr, expected", [
    ("(Object) first", ("Cast", None, [("Type", "Object", []), ("Name", "first", [])])),
    ("(java.util.List<String>) items", ("Cast", None, [("Type", "List", []), ("Name", "items", [])])),
    ("(int[]) copy", ("Cast", None, [("Type", "int", []), ("Name", "copy", [])])),
    ("(R) result(n)", ("Cast", None, [("Type", "R", []), ("Call", None, [("Name", "result", []), ("Name", "n", [])])])),
    ("(A) !flag", ("Cast", None, [("Type", "A", []), ("Unary!", None, [("Name", "flag", [])])])),
    ("(A) (b)", ("Cast", None, [("Type", "A", []), ("Name", "b", [])])),
    ("(int) -n", ("Cast", None, [("Type", "int", []), ("Unary-", None, [("Name", "n", [])])])),
    ("(a) - b", ("Binary-", None, [("Name", "a", []), ("Name", "b", [])])),
    ("(a) + b", ("Binary+", None, [("Name", "a", []), ("Name", "b", [])])),
    ("(a) < b", ("Binary<", None, [("Name", "a", []), ("Name", "b", [])])),
    ("(a).size()", ("Call", None, [("FieldAccess", None, [("Name", "a", []), ("Name", "size", [])])])),
    ("java.util.Collections.<String>emptyList()", ("Call", None, [("FieldAccess", None, [
        ("FieldAccess", None, [("FieldAccess", None, [("Name", "java", []), ("Name", "util", [])]),
                               ("Name", "Collections", [])]),
        ("Name", "emptyList", []),
    ])])),
    ("this.<K, V>pair(k, v)", ("Call", None, [
        ("FieldAccess", None, [("This", "this", []), ("Name", "pair", [])]), ("Name", "k", []), ("Name", "v", []),
    ])),
], ids=["ref", "generic", "array", "call", "not", "paren", "primitive_minus", "minus", "plus", "less", "member",
        "generic_call", "two_type_args"])
def test_parse_casts_and_explicit_type_arguments(expr, expected):
    _, (stmt,) = parse_method_body(f"x = {expr};")
    assert shape(stmt) == ("ExprStmt", None, [("Assign=", None, [("Name", "x", []), expected])])


@pytest.mark.parametrize("nested", [
    "return " + "(" * 1000 + "1" + ")" * 1000 + ";",
    "{" * 1000 + "}" * 1000,
    "if (x) " * 1000 + "y();",
], ids=["parens", "blocks", "ifs"])
def test_parse_nesting_past_the_recursion_limit_is_a_parse_error(nested):
    source = "class A {\n  int f() {\n    " + nested + "\n  }\n}\n"
    with pytest.raises(ex.ParseError, match=r"^line 3: nesting too deep to parse$"):
        parse(source)


def assert_tree_invariants(tree, tokens):
    """Leaves hold a token and no children, every other non-root node has
    children, and the leaves' tokens are input tokens (by identity) at
    strictly increasing positions in pre-order."""
    assert tree.kind == "CompilationUnit" and tree.token is None
    position = {id(t): i for i, t in enumerate(tokens)}
    last, stack = -1, list(reversed(tree.children))
    while stack:
        n = stack.pop()
        if n.token is not None:
            assert n.children == [], f"leaf {n.kind} has children"
            assert position.get(id(n.token), -1) > last, f"leaf {n.kind} out of order"
            last = position[id(n.token)]
        else:
            assert n.children, f"internal {n.kind} is empty"
            stack.extend(reversed(n.children))


def assert_parses_or_raises_parse_error(tokens):
    try:
        tree = ex.parse_java_lite(tokens, [])
    except ex.ParseError:
        return
    assert_tree_invariants(tree, tokens)


_GRAMMAR_TOKENS = ex.tokenize_java(
    " ".join(sorted(KEYWORDS | WORD_LITERALS)) + " " + " ".join(OPERATORS) + " " + " ".join(sorted(SEPARATORS))
    + " x y T List 0 2.5 'c' \"s\""
)
_TOKEN = st.sampled_from([(t.kind, t.text) for t in _GRAMMAR_TOKENS]).map(lambda kt: ex.Token(*kt, 1))
_WRAPPERS = [("", ""), ("class A {", "}"), ("class A { void f() {", "} }"), ("enum E {", "}")]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_WRAPPERS), st.lists(_TOKEN, max_size=40))
def test_parse_any_token_list_raises_parse_error_or_keeps_the_invariants(wrapper, body):
    assert_parses_or_raises_parse_error(ex.tokenize_java(wrapper[0]) + body + ex.tokenize_java(wrapper[1]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_FRAGMENTS, _GAPS), max_size=40))
def test_parse_any_lexed_source_raises_parse_error_or_keeps_the_invariants(pieces):
    source = "class A { int f(int a) { " + "".join(text + gap for (text, _), gap in pieces) + " } }"
    assert_parses_or_raises_parse_error(ex.tokenize_java(source))


_NESTINGS = {
    "parens": ("x = ", "(", "a + 1", ")", ";"),
    "blocks": ("", "{", "x();", "}", ""),
    "calls": ("f(", "g(", "1", ")", ");"),
    "ifs": ("", "if (y) ", "z();", "", ""),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_NESTINGS)), st.integers(50, 400))
def test_parse_deep_nesting_raises_parse_error_or_keeps_the_invariants(kind, depth):
    head, opener, core, closer, tail = _NESTINGS[kind]
    source = "class A { void f() { " + head + opener * depth + core + closer * depth + tail + " } }"
    assert_parses_or_raises_parse_error(ex.tokenize_java(source))


# -- path contexts -------------------------------------------------------


def triples(fields):
    """A method record's contexts as (left, path, right) triples, in order."""
    assert len(fields) % 3 == 0
    return list(zip(fields[0::3], fields[1::3], fields[2::3]))


def brute_force_contexts(tree, max_path_len):
    """Independent enumeration: walk every method, pair leaves, climb chains."""
    def parent_of(root):
        table = {}
        def rec(n):
            for c in n.children:
                table[id(c)] = n
                rec(c)
        rec(root)
        return table

    def chain(table, n):
        out = []
        cur = table.get(id(n))
        while cur is not None:
            out.append(cur)
            cur = table.get(id(cur))
        return out

    parents = parent_of(tree)
    per_method = {}
    for m in tree.walk():
        if m.kind != "MethodDecl":
            continue
        name = next(c.token.text for c in m.children if c.kind == "Name" and c.token)
        skip = {id(c) for c in m.children if c.token is not None and c.kind in ("Type", "Name")}
        leaves = [n for n in m.walk() if n.token is not None and id(n) not in skip]
        triples = set()
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                up = chain(parents, leaves[i])
                down = chain(parents, leaves[j])
                common = None
                dpos = {id(x): k for k, x in enumerate(down)}
                for k, x in enumerate(up):
                    if id(x) in dpos:
                        common = (k, dpos[id(x)])
                        break
                k, l = common
                nodes = up[: k + 1] + down[:l][::-1]
                if len(nodes) > max_path_len:
                    continue
                text = "↑".join(x.kind for x in up[: k + 1])
                for x in down[:l][::-1]:
                    text += "↓" + x.kind
                def term(leaf):
                    t = leaf.token.text
                    if t == name:
                        return ex.METHOD_NAME_SENTINEL
                    return ex.normalize_text(t)
                triples.add((term(leaves[i]), text, term(leaves[j])))
        per_method[name] = triples
    return per_method


def test_method_samples_match_brute_force():
    tree = parse(f"class A {{ {FIXTURE_METHOD} }}")
    expected = brute_force_contexts(tree, max_path_len=9)
    samples = ex.extract_method_samples(tree, max_contexts=200, max_path_len=9)
    assert len(samples) == 1
    got = set(triples(samples[0][1]))
    assert got == expected["id"]
    # the param/return pairing the fixture exists to pin down
    assert ("a", "Param↑MethodDecl↓Block↓Return", "a") in got


def test_method_samples_match_brute_force_larger():
    source = """
    class Demo {
        int pick(int a, int b) { if (a > b) { return a; } return b; }
        void store(int v) { total = total + v; count++; }
    }
    """
    tree = parse(source)
    expected = brute_force_contexts(tree, max_path_len=9)
    for label, fields in ex.extract_method_samples(tree, max_contexts=10_000, max_path_len=9):
        assert set(triples(fields)) == expected[label]


def leaf_path(parents, left, right):
    """Reference path string between two leaves and its length in nodes:
    both full ancestor chains, joined at their lowest common ancestor."""
    def ancestors(n):
        chain, cur = [], parents.get(id(n))
        while cur is not None:
            chain.append(cur)
            cur = parents.get(id(cur))
        return chain

    la, ra = ancestors(left), ancestors(right)
    rindex = {id(n): i for i, n in enumerate(ra)}
    for i, n in enumerate(la):
        j = rindex.get(id(n))
        if j is not None:
            up = la[: i + 1]          # left parent .. LCA
            down = ra[:j][::-1]       # LCA-1 .. right parent
            text = "↑".join(k.kind for k in up)
            for k in down:
                text += "↓" + k.kind
            return text, len(up) + len(down)
    raise ValueError("leaves do not share a root")


@pytest.fixture(scope="module")
def synth_trees(tmp_path_factory):
    """Every file of a small synthetic corpus (both code styles), parsed."""
    root = tmp_path_factory.mktemp("corpus")
    synth.generate_corpus(root, seed=4, timeline_files=6, project_files=6,
                          author_files={"alice": 6, "adam": 3, "mira": 3, "bogdan": 3})
    return [parse(path.read_text(encoding="utf-8")) for path in sorted(root.rglob("*.java"))]


@pytest.mark.parametrize("max_path_len", [1, 3, 9, 30])
def test_method_contexts_equal_the_leaf_path_reference_in_order(synth_trees, max_path_len):
    # the ordered context list, duplicates included, before any thinning
    methods = 0
    for tree in synth_trees:
        parents = ex.build_parent_map(tree)
        expected = []
        for m in ex.iter_method_nodes(tree):
            name, leaves = ex.method_name(m), ex.method_context_leaves(m)
            if not name or len(leaves) < 2:
                continue
            terms = [ex.METHOD_NAME_SENTINEL if n.token.text == name else ex.normalize_text(n.token.text)
                     for n in leaves]
            contexts = []
            for i in range(len(leaves)):
                for j in range(i + 1, len(leaves)):
                    path, length = leaf_path(parents, leaves[i], leaves[j])
                    if length <= max_path_len:
                        contexts.append((terms[i], path, terms[j]))
            if contexts:
                expected.append((name, contexts))
        samples = ex.extract_method_samples(tree, max_contexts=10**9, max_path_len=max_path_len)
        assert [(label, triples(fields)) for label, fields in samples] == expected
        methods += len(expected)
    assert methods > 100


def test_method_sample_path_length_pruning():
    source = "class A { int f(int a) { if (a > 0) { if (a > 1) { return a; } } return 0; } }"
    tree = parse(source)
    _, deep = ex.extract_method_samples(tree, max_contexts=10_000, max_path_len=30)[0]
    _, shallow = ex.extract_method_samples(tree, max_contexts=10_000, max_path_len=3)[0]
    assert len(shallow) < len(deep)
    assert set(triples(shallow)) <= set(triples(deep))


def test_method_with_single_body_leaf_is_dropped():
    tree = parse("class A { void f() { go; } }")
    assert ex.extract_method_samples(tree) == []


def test_max_contexts_subsample_is_deterministic():
    source = "class A { int f(int a, int b, int c) { return a + b + c * a - b; } }"
    tree = parse(source)
    first = ex.extract_method_samples(tree, max_contexts=1, seed=7)
    second = ex.extract_method_samples(tree, max_contexts=1, seed=7)
    assert len(triples(first[0][1])) == 1
    assert first == second


def test_no_label_leakage():
    source = "class A { int fib(int fib) { return fib(fib - 1) + fib; } }"
    tree = parse(source)
    _, fields = ex.extract_method_samples(tree, max_contexts=10_000)[0]
    for left, _, right in triples(fields):
        assert left != "fib" and right != "fib"
    terminals = {*fields[0::3], *fields[2::3]}
    assert ex.METHOD_NAME_SENTINEL in terminals


def test_path_symmetry():
    tree = parse(FIXTURE_CLASS + f" class B {{ {FIXTURE_METHOD} }}")
    parents = ex.build_parent_map(tree)
    for m in ex.iter_method_nodes(tree):
        leaves = ex.method_context_leaves(m)
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                fwd, flen = leaf_path(parents, leaves[i], leaves[j])
                rev, rlen = leaf_path(parents, leaves[j], leaves[i])
                assert flen == rlen
                # reversing the walk swaps the arrows and the node order
                swapped = rev.replace("↑", "#").replace("↓", "↑").replace("#", "↓")
                parts = swapped.replace("↓", "↑").split("↑")
                fparts = fwd.replace("↓", "↑").split("↑")
                assert parts[::-1] == fparts


# -- cbow ----------------------------------------------------------------


def test_cbow_window_one():
    tokens = ex.tokenize_java("a b c")
    samples = ex.extract_cbow_samples(tokens, window=1)
    assert samples == [
        ("a", [ex.PAD_TOKEN, "b"]),
        ("b", ["a", "c"]),
        ("c", ["b", ex.PAD_TOKEN]),
    ]


def test_cbow_empty_and_middle():
    assert ex.extract_cbow_samples([], window=2) == []
    assert ex.extract_cbow_samples(ex.tokenize_java("x"), window=2) == []  # its one window would be all PAD
    tokens = ex.tokenize_java("a b c d e")
    samples = ex.extract_cbow_samples(tokens, window=2)
    assert samples[2] == ("c", ["a", "b", "d", "e"])
    for _, context in samples:
        assert len(context) == 4


# -- vocabulary ----------------------------------------------------------


def test_vocab_min_count():
    from collections import Counter

    vocab = ex.Vocabulary.from_counts(Counter({"foo": 3, "bar": 1}), min_count=2)
    assert "foo" in vocab
    assert vocab.encode("bar") == ex.UNK_ID


def test_vocab_min_count_one_keeps_all():
    from collections import Counter

    vocab = ex.Vocabulary.from_counts(Counter({"x": 1, "y": 1}), min_count=1)
    assert "x" in vocab and "y" in vocab


def test_vocab_encodes_unseen_tokens_to_unk():
    from collections import Counter

    vocab = ex.Vocabulary.from_counts(Counter({"x": 2}), min_count=1)
    assert vocab.encode("baz") == ex.UNK_ID
    assert list(vocab.ids(["x", "baz", "x"])) == [2, ex.UNK_ID, 2]
    assert "baz" not in vocab and len(vocab) == 3
    rebuilt = ex.Vocabulary.from_tokens([ex.UNK_TOKEN, ex.PAD_TOKEN, "x"])
    assert rebuilt.encode("baz") == ex.UNK_ID


def test_vocab_ids_match_encode_on_any_stream():
    from collections import Counter

    vocab = ex.Vocabulary.from_counts(Counter({"x": 3, "y": 1}), min_count=1)
    stream = ["y", "zz", "x", ex.PAD_TOKEN, "", ex.UNK_TOKEN, "x"]
    ids = vocab.ids(iter(stream))
    assert iter(ids) is ids  # lazy: a reader's line is looked up as it is consumed
    assert list(ids) == [vocab.encode(t) for t in stream] == [3, ex.UNK_ID, 2, ex.PAD_ID, ex.UNK_ID, ex.UNK_ID, 2]
    assert list(vocab.ids(t for t in ())) == []


def test_vocab_from_tokens_rejects_a_duplicated_token():
    with pytest.raises(ValueError, match="'x' appears more than once"):
        ex.Vocabulary.from_tokens([ex.UNK_TOKEN, ex.PAD_TOKEN, "x", "y", "x"])
    with pytest.raises(ValueError, match="appears more than once"):
        ex.Vocabulary.from_tokens([ex.UNK_TOKEN, ex.PAD_TOKEN, ex.UNK_TOKEN])
    with pytest.raises(ValueError, match="reserved"):
        ex.Vocabulary.from_tokens(["x", ex.UNK_TOKEN, ex.PAD_TOKEN])


@pytest.mark.parametrize("token", [5, None, 2.5, ["x"]])
def test_vocab_from_tokens_rejects_a_token_that_is_not_a_string(token):
    with pytest.raises(ValueError, match="is not a string"):
        ex.Vocabulary.from_tokens([ex.UNK_TOKEN, ex.PAD_TOKEN, "x", token])


def test_vocab_ids_dense_and_frequency_ordered():
    from collections import Counter

    vocab = ex.Vocabulary.from_counts(Counter({"rare": 1, "mid": 5, "abc": 5, "big": 9}), min_count=1)
    assert vocab.tokens == [ex.UNK_TOKEN, ex.PAD_TOKEN, "big", "abc", "mid", "rare"]
    assert [vocab.encode(t) for t in vocab.tokens] == list(range(len(vocab)))
    rebuilt = ex.Vocabulary.from_tokens(vocab.tokens)
    assert rebuilt.tokens == vocab.tokens


def test_build_vocabs_from_samples_and_empty_error():
    tree = parse("class A { int f(int a) { return a; } int g(int b) { return b; } }")
    samples = ex.extract_method_samples(tree)
    vocabs = ex.build_cs_vocabs(samples, min_count=1)
    assert list(vocabs) == list(tasks.MODELS["cs"].vocab_names)
    terminals, paths, labels = vocabs.values()
    assert "f" in labels and "g" in labels
    assert all(p.count(",") == 0 and " " not in p for p in paths.tokens)
    with pytest.raises(ValueError):
        ex.build_cs_vocabs([], min_count=1)
    with pytest.raises(ValueError):
        ex.build_cc_vocab([], min_count=1)


def test_cc_vocab_skips_pad():
    tokens = ex.tokenize_java("a b")
    vocabs = ex.build_cc_vocab(ex.extract_cbow_samples(tokens, window=2), min_count=1)
    assert list(vocabs) == list(tasks.MODELS["cc"].vocab_names)
    vocab = vocabs["tokens"]
    assert vocab.encode(ex.PAD_TOKEN) == ex.PAD_ID
    assert ex.PAD_TOKEN in vocab.tokens[:2]


def expected_vocab_tokens(texts, min_count):
    """The vocabulary's token list built by hand: UNK and PAD, then every other token seen at least
    `min_count` times, the most frequent first and equal counts in lexicographic order."""
    counts = {}
    for text in texts:
        counts[text] = counts.get(text, 0) + 1
    kept = [t for t in counts if counts[t] >= min_count and t not in (ex.UNK_TOKEN, ex.PAD_TOKEN)]
    order = []
    while kept:  # selection: the token no other beats
        best = kept[0]
        for t in kept[1:]:
            if counts[t] > counts[best] or (counts[t] == counts[best] and t < best):
                best = t
        order.append(best)
        kept.remove(best)
    return [ex.UNK_TOKEN, ex.PAD_TOKEN, *order]


VOCAB_TEXT = st.sampled_from(["a", "b", "B", "ab", "ü", "", ex.PAD_TOKEN, ex.UNK_TOKEN])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(VOCAB_TEXT, st.lists(st.tuples(VOCAB_TEXT, VOCAB_TEXT, VOCAB_TEXT), max_size=5)),
             min_size=1, max_size=8),
    st.integers(1, 4),
)
def test_cs_vocabs_order_tokens_as_a_brute_force_count_does(rows, min_count):
    records = [(label, [t for c in contexts for t in c]) for label, contexts in rows]
    vocabs = ex.build_cs_vocabs(records, min_count=min_count)
    contexts = [c for _, cs in rows for c in cs]
    assert vocabs["terminals"].tokens == expected_vocab_tokens(
        [left for left, _, _ in contexts] + [right for _, _, right in contexts], min_count
    )
    assert vocabs["paths"].tokens == expected_vocab_tokens([path for _, path, _ in contexts], min_count)
    assert vocabs["labels"].tokens == expected_vocab_tokens([label for label, _ in rows], min_count)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(lambda w: st.lists(
        st.tuples(VOCAB_TEXT, st.lists(VOCAB_TEXT, min_size=2 * w, max_size=2 * w)), min_size=1, max_size=8
    )),
    st.integers(1, 4),
)
def test_cc_vocab_orders_tokens_as_a_brute_force_count_does(records, min_count):
    vocab = ex.build_cc_vocab(records, min_count=min_count)["tokens"]
    texts = [t for target, context in records for t in (target, *context) if t != ex.PAD_TOKEN]
    assert vocab.tokens == expected_vocab_tokens(texts, min_count)


# -- interchange files ----------------------------------------------------


def test_cs_contexts_roundtrip(tmp_path):
    tree = parse("class A { int f(int a, int b) { return a + b; } }")
    samples = ex.extract_method_samples(tree)
    path = tmp_path / "cs.txt"
    ex.write_cs_contexts(path, samples)
    assert list(ex.read_cs_contexts(path)) == samples


def test_cc_contexts_roundtrip(tmp_path):
    tokens = ex.tokenize_java('x = helper(y, "a b");')
    samples = ex.extract_cbow_samples(tokens, window=2)
    path = tmp_path / "cc.txt"
    ex.write_cc_contexts(path, samples)
    assert list(ex.read_cc_contexts(path)) == samples


@pytest.mark.parametrize(
    "write, records, message",
    [
        (ex.write_cs_contexts, [("get x,y,z", ["a", "p", "b"])],
         "CS sample 0 'get x,y,z': a field holds ' '"),
        (ex.write_cs_contexts, [("get", []), ("", [])],
         "CS sample 1 '': an empty label without contexts writes an empty line"),
        (ex.write_cs_contexts, [("get", ["a", "p", "b"]), ("set", ["a", "p", "b", "c"])],
         "CS sample 1 'set': 4 context fields; each context needs 3"),
        (ex.write_cs_contexts, [("get", ["a", "p"])],
         "CS sample 0 'get': 2 context fields; each context needs 3"),
        (ex.write_cc_contexts, [("a", ["p", "q"]), ("b", ["x y", "q"])],
         "CC sample 1 'b': a field holds ' '"),
        (ex.write_cc_contexts, [("a", ["p", "q"]), ("b", list("pqrs"))],
         "CC sample 1 'b': 4 context tokens; each needs 2*w, w >= 1, as the first: 2"),
    ],
    ids=[
        "cs_label_with_separators", "cs_empty_line", "cs_fields_not_three_per_context", "cs_a_context_short_of_three",
        "cc_token_with_a_space", "cc_ragged_context",
    ],
)
def test_context_writers_reject_a_sample_that_would_not_read_back(tmp_path, write, records, message):
    path = tmp_path / "contexts.txt"
    with pytest.raises(ValueError, match=re.escape(message)):
        write(path, records)
    assert list(tmp_path.iterdir()) == []  # neither the file nor its temporary one is left


# the separators and every character str.splitlines breaks at
SEPARATORS = " ,\n\r\x0b\x0c\x1c\x85\u2028\u2029\ufeff"


def rarely(common, rare, one_in):
    """`rare` in about one draw of `one_in`, `common` otherwise."""
    return st.integers(1, one_in).flatmap(lambda i: rare if i == 1 else common)


# ASCII and non-ASCII text; in about one field of 50, text about half of whose characters are separators,
# so that most examples are written and read back and the rest are rejected for a separator or their shape
FIELD_TEXT = rarely(
    st.text(st.characters(exclude_characters=SEPARATORS), max_size=6),
    st.text(st.one_of(st.characters(), st.sampled_from(SEPARATORS)), max_size=6),
    50,
)


def written_back(write, read, records):
    """The records `read` yields for the file `write` makes of `records`, or None if `write` rejects them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "contexts.txt"
        try:
            write(path, records)
        except ValueError:
            assert list(Path(tmp).iterdir()) == []
            return None
        return list(read(path))


# a method record's fields: whole contexts or, in about one record of ten, any count of fields
CS_FIELDS = rarely(
    st.lists(st.tuples(FIELD_TEXT, FIELD_TEXT, FIELD_TEXT), max_size=3).map(lambda cs: [t for c in cs for t in c]),
    st.lists(FIELD_TEXT, max_size=7),
    10,
)
# CC records: each context as wide as the example's width or, in about one record of ten, of any width up to 4
CC_RECORDS = st.sampled_from([2, 4]).flatmap(lambda width: st.lists(st.tuples(
    FIELD_TEXT, rarely(st.lists(FIELD_TEXT, min_size=width, max_size=width), st.lists(FIELD_TEXT, max_size=4), 10)
), max_size=4))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(st.tuples(FIELD_TEXT, CS_FIELDS), max_size=4))
def test_cs_contexts_are_rejected_at_write_time_or_read_back_equal(records):
    back = written_back(ex.write_cs_contexts, ex.read_cs_contexts, records)
    texts = [text for label, fields in records for text in (label, *fields)]
    unreadable = (
        any(set(text) & set(" ,\n\r") for text in texts)
        or any(not label and not fields for label, fields in records)
        or any(len(fields) % 3 for _, fields in records)
    )
    assert (back is None) == unreadable
    if back is not None:
        assert back == records


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CC_RECORDS)
def test_cc_contexts_are_rejected_at_write_time_or_read_back_equal(records):
    back = written_back(ex.write_cc_contexts, ex.read_cc_contexts, records)
    width = len(records[0][1]) if records else 2
    unreadable = any(set(t) & set(" \n\r") for target, context in records for t in (target, *context)) or any(
        len(context) != width or width < 2 or width % 2 for _, context in records
    )
    assert (back is None) == unreadable
    if back is not None:
        assert back == records


def test_cs_contexts_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("label left,only\n", encoding="utf-8")
    with pytest.raises(ex.ContextFormatError):
        list(ex.read_cs_contexts(path))
