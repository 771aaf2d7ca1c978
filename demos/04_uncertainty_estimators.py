"""All five uncertainty estimators over one trained model.

Every estimator maps (model, sample) to a confidence in [0, 1] where
higher means "more likely within the model's competence": max softmax
(vanilla), temperature-scaled softmax, MC-Dropout averaging, mutation
label-change rate (1 - LCR), and probe-based PV scores. The registry
`uq.ESTIMATORS` fits each one and scores an encoded split into one column
table per variant, the same path the `codeshift score` command takes: one
deterministic forward pass (`uq.base_outputs`) feeds every estimator.
"""

from codeshift import extraction as ex
from codeshift import tasks
from codeshift import uncertainty as uq
from codeshift.config import DEFAULT_CONFIG

source = """
class Pair {
    int addPair(int addLeft, int addRight) { return addLeft + addRight; }
    int subPair(int subLeft, int subRight) { return subLeft - subRight; }
    int maxPair(int maxLeft, int maxRight) { if (maxLeft > maxRight) { return maxLeft; } return maxRight; }
    boolean isEmpty(int size) { return size == 0; }
}
"""

tree = ex.parse_java_lite(ex.tokenize_java(source))
samples = ex.extract_method_samples(tree)
terminals, paths, labels = ex.build_cs_vocabs(samples)
encoded = tasks.encode_split(samples, {"terminals": terminals, "paths": paths, "labels": labels}, id_prefix="demo")
model = tasks.train_cs(encoded, terminals, paths, labels,
                       tasks.TrainConfig(embedding_dim=24, epochs=60, seed=5)).model

# the config's estimator parameters, with a smaller mutant ensemble
settings = {**DEFAULT_CONFIG["uncertainty"], "mutant_count": 20, "seed": 0}
base = uq.base_outputs(model, encoded)
states = {name: e.fit(model, encoded, encoded, base, settings) for name, e in uq.ESTIMATORS.items()}

# one score call per estimator returns a table for each of its variants
tables = {name: e.tables(model, states[name], encoded, base) for name, e in uq.ESTIMATORS.items()}
(vanilla,) = tables["vanilla"]
print("vanilla (max softmax):")
for sample_id, confidence, predicted in zip(vanilla.sample_ids, vanilla.confidence, vanilla.predicted):
    print(f"  {sample_id}: confidence={confidence:.3f} predicted={labels.decode(int(predicted))}")

print(f"\ntemperature scaling: T*={states['temp_scale']:.3f}")
for name in ("temp_scale", "mc_dropout"):
    (table,) = tables[name]
    print(f"{name}: confidences {[round(c, 3) for c in table.confidence.tolist()]}")

print("\nmMutant label-change rates at degree 0.05 (confidence = 1 - LCR):")
for table in tables["mmutant"]:
    print(f"  {table.variant}: LCR {[round(r, 2) for r in table.raw.tolist()]}")

print("\ndissector PV scores per growth type:")
for table in tables["dissector"]:
    weights = uq.growth_weights(table.variant, len(states["dissector"]))
    print(f"  {table.variant:<6} layer weights {[round(float(w), 3) for w in weights]}, "
          f"PV {[round(c, 3) for c in table.confidence.tolist()]}")
