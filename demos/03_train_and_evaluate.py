"""Train both task models on tiny fixtures and watch them memorize.

The path-attention summarizer predicts a method's name from its body's
path contexts; the CBOW MLP predicts a masked token from its neighbors.
Each model is built first and `tasks.train` trains it in place, returning
one history row per epoch. The summarizer runs the published setup (Adam,
lr 0.001) scaled down for a demo; the completion model runs it in full,
read from the config defaults.
"""

from codeshift import extraction as ex
from codeshift import tasks
from codeshift.config import DEFAULT_CONFIG

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
cs_vocabs = ex.build_cs_vocabs(cs_samples)
terminals, paths, labels = cs_vocabs.values()
cs_encoded = tasks.encode_records(cs_samples, cs_vocabs, id_prefix="demo")

settings = {"epochs": 60, "batch_size": 512, "learning_rate": 0.001, "seed": 1}
model = tasks.PathAttentionModel(terminals, paths, labels, dim=32, dropout_p=0.5, seed=1)
history = tasks.train(model, cs_encoded, **settings)
print("code summarization (path-attention):")
for row in history[::20] + [history[-1]]:
    print(f"  epoch {row['epoch']:>3}  loss {row['loss']:.4f}")
print(f"  final train accuracy {history[-1]['train_acc']:.1f}%")  # measured on the last epoch only

out = tasks.infer(model, cs_encoded[:1], keys=("probs", "weights"))
predicted = labels.decode(int(out["probs"][0].argmax()))
print(f"  sample 0 predicted {predicted!r}, attention weights sum to {out['weights'].sum():.4f}")

# round-trip through the binary checkpoint container, which stores the training settings beside the weights
blob = tasks.save_checkpoint(model, train_config=settings)
loaded = tasks.load_checkpoint(blob)
print(f"  checkpoint round-trip: {len(blob)} bytes, accuracy after reload "
      f"{tasks.evaluate_accuracy(loaded, cs_encoded):.1f}%")

cc_tokens = ex.tokenize_java("int a0 = b0; int a1 = b1; int a2 = b2; long c0 = d0;")
cc_samples = ex.extract_cbow_samples(cc_tokens, window=4)
cc_vocabs = ex.build_cc_vocab(cc_samples)
vocab = cc_vocabs["tokens"]
cc_encoded = tasks.encode_records(cc_samples, cc_vocabs, id_prefix="demo")
published = DEFAULT_CONFIG["train"]
cc_model = tasks.MlpCompletionModel(vocab, dim=published["embedding_dim"], seed=1)  # CC trains without dropout
cc_history = tasks.train(
    cc_model, cc_encoded,
    epochs=published["epochs"], batch_size=published["batch_size"], learning_rate=published["learning_rate"], seed=1,
)
print("\ncode completion (CBOW MLP):")
print(f"  final train accuracy {cc_history[-1]['train_acc']:.1f}% over {len(cc_encoded)} samples")
