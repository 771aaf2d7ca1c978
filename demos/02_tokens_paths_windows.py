"""From source text to training units: tokens, AST path contexts, CBOW windows."""

from codeshift import extraction as ex

source = """
class Calculator {
    int addPair(int left, int right) {
        int total = left + right;
        return total;
    }
}
"""

tokens = ex.tokenize_java(source)
print("tokens:", " ".join(f"{t.text}" for t in tokens))

tree = ex.parse_java_lite(tokens)
print("\nparse tree:")
print(tree.pretty())

# a method sample is a bag of (left terminal, path, right terminal) triples;
# the method's own name is masked with a sentinel wherever it appears
samples = ex.extract_method_samples(tree, max_contexts=200, max_path_len=9)
sample = samples[0]
print(f"\nmethod sample: label={sample.label!r}, {len(sample.contexts)} contexts, e.g.")
for context in sample.contexts[:5]:
    print(f"  ({context.left}, {context.path}, {context.right})")

# code completion uses plain token windows with PAD at the boundaries
cbow = ex.extract_cbow_samples(tokens, window=2)
print(f"\ncbow samples ({len(cbow)} positions), first three:")
for s in cbow[:3]:
    print(f"  target={s.target!r:<14} context={s.context}")

# vocabularies are fixed once built; unseen tokens encode to UNK
terminals, paths, labels = ex.build_cs_vocabs(samples, min_count=1)
print(f"\nvocab sizes: terminals={len(terminals)}, paths={len(paths)}, labels={len(labels)}")
print(f"unseen token encodes to UNK id: {terminals.encode('neverSeenBefore')}")
