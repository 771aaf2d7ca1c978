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

# a method sample is its name and a bag of (left terminal, path, right terminal)
# contexts, their fields one after another; the method's own name is masked
# with a sentinel wherever it appears
samples = ex.extract_method_samples(tree, max_contexts=200, max_path_len=9)
label, fields = samples[0]
print(f"\nmethod sample: label={label!r}, {len(fields) // 3} contexts, e.g.")
for k in range(0, 15, 3):
    print(f"  ({', '.join(fields[k:k + 3])})")

# code completion uses plain token windows with PAD at the boundaries
cbow = ex.extract_cbow_samples(tokens, window=2)
print(f"\ncbow samples ({len(cbow)} positions), first three:")
for target, context in cbow[:3]:
    print(f"  target={target!r:<14} context={context}")

# vocabularies are fixed once built; unseen tokens encode to UNK
terminals, paths, labels = ex.build_cs_vocabs(samples, min_count=1).values()
print(f"\nvocab sizes: terminals={len(terminals)}, paths={len(paths)}, labels={len(labels)}")
print(f"unseen token encodes to UNK id: {terminals.encode('neverSeenBefore')}")
