"""Train both task models on tiny fixtures and watch them memorize.

The path-attention summarizer predicts a method's name from its body's
path contexts; the CBOW MLP predicts a masked token from its neighbors.
Both run the published setup (Adam, lr 0.001) scaled down for a demo.
"""

import dataclasses

from codeshift import extraction as ex
from codeshift import tasks

cs_source = """
class Fixtures {
    int getCount(int count) { return count; }
    int addPair(int addLeft, int addRight) { return addLeft + addRight; }
    boolean isEmpty(int size) { return size == 0; }
    int firstOf(int[] items) { return items[0]; }
}
"""

tree = ex.parse_java_lite(ex.tokenize_java(cs_source))
cs_samples = ex.extract_method_samples(tree)
terminals, paths, labels = ex.build_cs_vocabs(cs_samples)
cs_encoded = tasks.encode_split(cs_samples, {"terminals": terminals, "paths": paths, "labels": labels}, id_prefix="demo")

config = tasks.TrainConfig(embedding_dim=32, epochs=60, seed=1)
result = tasks.train_cs(cs_encoded, terminals, paths, labels, config)
print("code summarization (path-attention):")
for row in result.history[::20] + [result.history[-1]]:
    print(f"  epoch {row['epoch']:>3}  loss {row['loss']:.4f}")
print(f"  final train accuracy {result.history[-1]['train_acc']:.1f}%")  # measured on the last epoch only

out = tasks.infer(result.model, cs_encoded[:1], keys=("probs", "weights"))
predicted = labels.decode(int(out["probs"][0].argmax()))
print(f"  sample 0 predicted {predicted!r}, attention weights sum to {out['weights'].sum():.4f}")

# round-trip through the binary checkpoint container
blob = tasks.save_checkpoint(result.model, train_config=dataclasses.asdict(config))
loaded = tasks.load_checkpoint(blob)
print(f"  checkpoint round-trip: {len(blob)} bytes, accuracy after reload "
      f"{tasks.evaluate_accuracy(loaded, cs_encoded):.1f}%")

cc_tokens = ex.tokenize_java("int a0 = b0; int a1 = b1; int a2 = b2; long c0 = d0;")
cc_samples = ex.extract_cbow_samples(cc_tokens, window=4)
vocab = ex.build_cc_vocab(cc_samples)
cc_encoded = tasks.encode_split(cc_samples, {"tokens": vocab}, id_prefix="demo")
cc_result = tasks.train_cc(cc_encoded, vocab, tasks.TrainConfig(seed=1))  # published defaults
print("\ncode completion (CBOW MLP):")
print(f"  final train accuracy {cc_result.history[-1]['train_acc']:.1f}% over {len(cc_encoded)} samples")
