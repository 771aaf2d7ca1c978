"""Five predictive-uncertainty estimators over a trained task model.

All estimators share one convention: `confidence` lies in [0, 1] and higher
means "more likely within the model's competence". `ESTIMATORS` is the one
registry of them: each entry names its CLI flag and its variants (mutation
operators, probe growth curves), fits its state, and scores a split's
samples for every variant in one call, into one `ScoreTable` per (method,
variant, split), so reports can select the best-scoring variant per metric.

Every estimator is defined against the model's deterministic forward pass.
`base_outputs` runs it once per split; the scorers read its probabilities,
logits, predicted labels and probe taps instead of running it again. It
also keeps the split's features, one array of the input of the model's
dropout site (CS: the combined contexts after the combiner's tanh, one row
per real context; CC: the embedding mean, one row per sample). Only the
Monte-Carlo scorers run the network again. MC-Dropout's stochastic passes
run only the model's head on the kept features. A WS/NS/NAI mutant resumes
there too: CC's change only the output layer, and CS's recompute only the
feature columns whose `w_comb`/`b_comb` bits they changed, from the base's
embedding tables. Only GF mutants, which perturb every array, run the
network in full. Every resumed pass gives the full forward's bytes.

Each scorer reduces the split 512 rows at a time, as `tasks.infer_batches`
yields a pass's batches or as it slices the base's arrays. Only two hold a
split-wide (N, V) array beyond the base, each because its bits need it
whole: MC-Dropout's float64 sum (each pass draws after the last from one
stream) and a Dissector probe's float64 product (a GEMM over fewer rows can
round differently), whose softmax is taken in place. Streaming changes no bit.

- vanilla: max softmax probability.
- temp_scale: max softmax(logits / T), T fitted on validation NLL by Newton's
  method on 1/T, over the validation split's shared forward.
- mc_dropout: mean softmax over K stochastic passes of a copy of the model
  whose dropout rate is the configured one; the CC model trains without
  dropout, so only these passes drop its embedding mean.
- mmutant: label change rate (LCR) across an ensemble of mutated models
  (GF / WS / NS / NAI at a fixed mutation degree); confidence = 1 - LCR
  over a fixed-size ensemble.
- dissector: per-layer linear probes produce snapshot-validity scores that
  are aggregated with linear/log/exp depth weights into a PV score.

The registry, `ScoreTable` and the score-file format load with numpy
alone: the functions that run a model import `nn` and `tasks` when they
are called, so `eval`, `sweep` and `filter` read score files without
loading the model stack.
"""

from __future__ import annotations

import copy
import math
import warnings
import zlib
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable

import numpy as np

from .config import GROWTH_TYPES, METHODS, MUTATION_OPERATORS, ValidationFailure, write_csv

if TYPE_CHECKING:
    from . import nn

TEMPERATURE_BOUNDS = (0.05, 100.0)


class EstimatorStateError(ValidationFailure, RuntimeError):
    """A scorer was invoked without its fitted state (temperature, ensemble, probes)."""


class ScoresFileError(ValidationFailure, ValueError):
    """A score CSV is malformed; the message names the file and the line."""


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scores of one (method, variant, split) as parallel columns, one row per sample."""

    method: str
    variant: str
    split: str
    sample_ids: list[str]
    raw: np.ndarray  # float64
    confidence: np.ndarray  # float64, in [0, 1]
    predicted: np.ndarray  # int64
    true: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.sample_ids)


# -- the shared forward and vanilla ------------------------------------------


def base_outputs(model, samples) -> dict[str, np.ndarray]:
    """The deterministic forward every scorer reads: probs, logits, the probe
    taps, and the split's features, one array the Monte-Carlo scorers resume from
    (CC's one tap is that same array)."""
    from . import tasks

    keys = dict.fromkeys(("probs", "logits", *model.probe_layers, "features"))
    return tasks.infer(model, samples, keys=tuple(keys))


def score_vanilla(probs: np.ndarray):
    """(raw, confidence, predicted) arrays; raw and confidence are the max softmax."""
    conf = probs.max(axis=-1)
    return conf, conf, probs.argmax(axis=-1)


# -- temperature scaling -----------------------------------------------------


def _nll_at_temperature(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    scaled = logits / temperature
    top = scaled.max(axis=-1)  # the max-shifted log-sum-exp cannot overflow
    log_norm = top + np.log(np.exp(scaled - top[:, None]).sum(axis=-1))
    return float((log_norm - scaled[np.arange(len(labels)), labels]).mean())


def _nll_newton_terms(z: np.ndarray, z_true: np.ndarray, beta: float) -> tuple[float, float, float]:
    """Validation NLL of softmax(beta * z) and its first two derivatives in beta.

    With p = softmax(beta * z) per row, dNLL/dbeta = mean(E_p[z] - z_true)
    and d2NLL/dbeta2 = mean(Var_p[z]) >= 0, so the NLL is convex in beta.
    """
    p = beta * z
    top = p.max(axis=-1)
    p -= top[:, None]
    np.exp(p, out=p)
    total = p.sum(axis=-1)
    p /= total[:, None]
    mean_z = np.einsum("ij,ij->i", p, z)
    spread = z - mean_z[:, None]
    spread *= spread
    nll = float((top + np.log(total) - beta * z_true).mean())
    return nll, float((mean_z - z_true).mean()), float(np.einsum("ij,ij->i", p, spread).mean())


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> float:
    """T > 0 minimizing the NLL of softmax(logits / T) over validation `labels`.

    Newton's method on the inverse temperature beta = 1/T, from beta = 1,
    for at most 100 steps, each halved until the NLL does not rise. It stops
    once beta leaves 1/TEMPERATURE_BOUNDS, or once a step leaves beta as it
    was: every later step would repeat that one. The result is clamped into
    TEMPERATURE_BOUNDS (a degenerate validation set can push T to the
    boundary) and never allowed to be worse than T = 1.
    """
    if not len(labels):
        raise EstimatorStateError("temperature fitting needs a non-empty validation set")
    z = np.asarray(logits, dtype=np.float64)
    z_true = z[np.arange(len(labels)), labels]
    lo, hi = TEMPERATURE_BOUNDS
    beta = 1.0
    nll, grad, curv = _nll_newton_terms(z, z_true, beta)
    for _ in range(100):
        if not 1.0 / hi <= beta <= 1.0 / lo:
            break
        if curv > 0.0:
            step = -grad / curv
        else:  # a saturated softmax: the NLL is flat or linear in beta
            step = -math.copysign(beta, grad) if grad else 0.0
        # move beta by at most half itself, so a vanishing curvature cannot run off
        step = min(max(step, -beta / 2), beta / 2)
        if not abs(step) > 1e-12 * beta:  # converged, or a NaN step
            break
        for _ in range(60):  # halve the step until the NLL does not rise
            trial = _nll_newton_terms(z, z_true, beta + step)
            if trial[0] <= nll:
                break
            step /= 2
        else:
            break
        if beta + step == beta:  # rounding noise in the gradient, halved below beta's last bit
            break
        beta += step
        nll, grad, curv = trial
    temperature = 1.0 / beta
    if not lo <= temperature <= hi:
        clamped = float(np.clip(temperature, lo, hi))
        warnings.warn(
            f"fitted temperature {temperature:.4g} clamped to {clamped:.4g}; "
            "validation set may be degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
        temperature = clamped
    if _nll_at_temperature(z, labels, temperature) > _nll_at_temperature(z, labels, 1.0):
        temperature = 1.0
    return temperature


def score_temp_scale(logits: np.ndarray, temperature: float):
    from . import tasks

    if temperature is None or temperature <= 0:
        raise EstimatorStateError(f"temperature must be positive, got {temperature}")
    conf = np.empty(len(logits))
    for rows in tasks.row_batches(len(logits)):  # one float64 copy of a batch at a time
        scaled = logits[rows].astype(np.float64)
        scaled /= temperature
        scaled -= scaled.max(axis=-1, keepdims=True)
        # the largest softmax probability is exp(0) over the row's sum of exps
        conf[rows] = 1.0 / np.exp(scaled, out=scaled).sum(axis=-1)
    preds = logits.argmax(axis=-1)  # monotone scaling cannot move the argmax
    return conf, conf, preds


# -- MC-Dropout ---------------------------------------------------------------


def score_mc_dropout(model, samples, passes: int = 30, p: float = 0.5, seed: int = 0, features=None):
    """Mean softmax over `passes` stochastic passes.

    The passes run a shallow copy of `model` whose `dropout_p` is `p`, so
    `model` itself is left as it is; CC, which trains without dropout,
    drops its embedding mean here. The dropout site sits after the
    features, so with the split's `features` (from `base_outputs`) each
    pass runs only the copy's head, drawing the same random numbers in the
    same order as a full pass. Each batch's probabilities are added into one
    float64 (N, V) sum as it arrives, which is divided in place.
    """
    from . import tasks

    if passes < 1:
        raise ValueError(f"MC-Dropout needs passes >= 1, got {passes}")
    rng = np.random.default_rng([int(s) for s in np.atleast_1d(seed)] + [0xD0])
    stochastic = copy.copy(model)
    stochastic.dropout_p = p
    total = np.empty((len(samples), model.n_classes()))
    for k in range(passes):
        for rows, out in tasks.infer_batches(stochastic, samples, rng=rng, features=features):
            if k:
                total[rows] += out["probs"]
            else:
                total[rows] = out["probs"]
    # at p = 0 every pass is the deterministic forward, and K equal float32
    # rows summed in float64 and divided by K give those rows back exactly
    total /= passes
    conf = total.max(axis=-1)
    return conf, conf, total.argmax(axis=-1)


# -- mMutant -------------------------------------------------------------------


def _pick(rng: np.random.Generator, n: int, degree: float) -> np.ndarray:
    k = int(np.floor(degree * n + 0.5))
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(n, size=min(k, n), replace=False)


def mutate_model(model, operator: str, degree: float, seed: int):
    """Return a mutated copy of `model`; the base is never touched.

    GF perturbs a `degree` fraction of scalar weights in every parameter
    array with Gaussian noise scaled by that array's own std. WS, NS, and
    NAI act on output neurons of the affine layers: WS shuffles a neuron's
    incoming weights, NS swaps the incoming weights (and bias) of randomly
    paired neurons, NAI negates incoming weights and bias so the neuron's
    pre-activation flips sign. The mutant copies only the arrays it changes
    and shares the rest with the base.
    NS leaves a layer as it is when fewer than two of its neurons are picked.
    """
    if operator not in MUTATION_OPERATORS:
        raise ValueError(f"unknown mutation operator {operator!r}")
    if not 0.0 <= degree <= 1.0:
        raise ValueError(f"mutation degree must lie in [0, 1], got {degree}")
    seed_key = [int(s) for s in np.atleast_1d(seed)] + [MUTATION_OPERATORS.index(operator)]
    rng = np.random.default_rng(seed_key)
    params = model.params()
    changed: dict[str, np.ndarray] = {}

    def own(name: str) -> np.ndarray:
        """The mutant's copy of parameter `name`, made on its first write."""
        if name not in changed:
            changed[name] = params[name].data.copy()
        return changed[name]

    if operator == "GF":
        for name, p in params.items():
            idx = _pick(rng, p.data.size, degree)
            if idx.size:
                sigma = float(p.data.std())
                own(name).reshape(-1)[idx] += rng.normal(0.0, sigma, size=idx.size).astype(p.data.dtype)
        return model.with_params(changed)
    for w_name, b_name in model.affine_layers:
        n_out = params[w_name].data.shape[1]
        cols = _pick(rng, n_out, degree)
        if operator == "WS":
            for j in cols:
                w = own(w_name)
                w[:, j] = w[rng.permutation(w.shape[0]), j]
        elif operator == "NS":
            if cols.size < 2:
                continue
            if cols.size % 2:
                cols = cols[:-1]
            w, b = own(w_name), own(b_name)
            for a, bcol in cols.reshape(-1, 2):
                w[:, [a, bcol]] = w[:, [bcol, a]]
                b[[a, bcol]] = b[[bcol, a]]
        elif operator == "NAI":
            if cols.size:
                own(w_name)[:, cols] *= -1.0
                own(b_name)[cols] *= -1.0
    return model.with_params(changed)


def build_mutant_ensemble(model, operator: str, degree: float = 0.05, count: int = 50, seed: int = 0) -> list:
    """`count` mutants of `model` under `operator`, each from its own seed."""
    if count < 1:
        raise ValueError(f"ensemble needs count >= 1, got {count}")
    return [mutate_model(model, operator, degree, seed=[seed, i, 0xEA]) for i in range(count)]


def score_mmutant(ensemble: list | None, samples, base_preds: np.ndarray, features=None, model=None):
    """Raw score is the label change rate (LCR) from `base_preds`; confidence is 1 - LCR.

    A mutant's labels are the argmax of its softmax, read off its logits
    (`tasks.predicted_labels`), batch by batch, so no mutant pass runs the
    softmax or holds the split's logits. Given
    the split's `features` and the `model` that computed them (from
    `base_outputs`), a mutant runs only its head, on those features with
    the columns it changed recomputed (`feature_changes`). They are
    written into one copy of `features`, which each pass restores. A
    mutant whose changes reach the embedding tables (GF) runs in full.
    """
    from . import tasks

    if not ensemble:
        raise EstimatorStateError("mMutant scoring needs a built ensemble")
    if features is not None and model is None:
        raise ValueError("resuming mutants needs the model that computed the base features")
    resumed = None if features is None else features.copy()
    changed = np.zeros(len(samples), dtype=np.int64)
    for mutant in ensemble:
        change = None if features is None else mutant.feature_changes(model, samples)
        if change is None:
            batches = tasks.infer_batches(mutant, samples, keys=("logits",))
        else:
            cols, values = change
            resumed[:, cols] = values
            batches = tasks.infer_batches(mutant, samples, keys=("logits",), features=resumed)
        for rows, out in batches:
            changed[rows] += tasks.predicted_labels(out["logits"]) != base_preds[rows]
        if change is not None:
            resumed[:, cols] = features[:, cols]
    lcr = changed / len(ensemble)
    return lcr, 1.0 - lcr, base_preds


# -- Dissector ------------------------------------------------------------------

@dataclass
class Probe:
    tag: str
    w: nn.Tensor
    b: nn.Tensor

    def predict(self, acts: np.ndarray) -> np.ndarray:
        """softmax(acts @ w + b) over the rows of `acts`, with `nn.affine`'s and
        `nn.softmax`'s bits, computed in place in the product's one float64 array
        (`train_probes` fits w and b in float64)."""
        from . import nn

        w, b = self.w.data, self.b.data
        if b.shape != (w.shape[1],):
            raise nn.ShapeError(f"probe bias {b.shape} vs weight {w.shape}")
        q = acts @ w  # over the whole split: a GEMM over fewer rows can round differently
        q += b
        q -= q.max(axis=-1, keepdims=True)
        np.exp(q, out=q)
        q /= q.sum(axis=-1, keepdims=True)
        return q


def train_probes(
    model,
    train_samples,
    epochs: int = 20,
    learning_rate: float = 0.001,
    seed: int = 0,
    batch_size: int = 512,
) -> list[Probe]:
    """Fit one linear probe per tap in `model.probe_layers` on frozen training activations."""
    from . import nn, tasks

    if not train_samples:
        raise EstimatorStateError("probe training needs training-split samples")
    acts = tasks.infer(model, train_samples, batch_size=batch_size, keys=model.probe_layers)
    labels = train_samples.labels
    n_classes = model.n_classes()
    probes = []
    for layer_index, tag in enumerate(model.probe_layers):
        features = acts[tag]
        dim = features.shape[1]
        rng = np.random.default_rng([seed, layer_index, 0xDE])
        bound = 1.0 / np.sqrt(dim)
        w = nn.Tensor(rng.uniform(-bound, bound, size=(dim, n_classes)), requires_grad=True)
        b = nn.Tensor(np.zeros(n_classes), requires_grad=True)
        state = nn.AdamState(learning_rate=learning_rate)
        for epoch in range(epochs):
            order = np.random.default_rng([seed, layer_index, epoch]).permutation(len(labels))
            for start in range(0, len(labels), batch_size):
                idx = order[start:start + batch_size]
                nn.zero_grads([w, b])
                probs = nn.softmax(nn.affine(nn.Tensor(features[idx]), w, b))
                loss = nn.mean(nn.cross_entropy(probs, labels[idx]))
                nn.backward(loss)
                nn.adam_step({"w": w, "b": b}, {"w": w.grad, "b": b.grad}, state)
        probes.append(Probe(tag=tag, w=w, b=b))
    return probes


def growth_weights(growth: str, n_layers: int) -> np.ndarray:
    """Depth weights over 1-based layer indices, normalized to sum 1."""
    i = np.arange(1, n_layers + 1, dtype=np.float64)
    if growth == "linear":
        raw = i
    elif growth == "log":
        raw = np.log(i + 1.0)
    elif growth == "exp":
        raw = np.exp(i)
    else:
        raise ValueError(f"unknown growth type {growth!r}")
    return raw / raw.sum()


def _snapshot_validity(q: np.ndarray, base_pred: np.ndarray) -> np.ndarray:
    """sv = q[l]/(q[l]+second) when the probe agrees with the base label l,
    else q[l]/(q[l]+max); `np.sort` puts NaN last, so a row holding NaN has it as its max."""
    rows = np.arange(len(base_pred))
    ql = q[rows, base_pred]
    part = np.sort(q, axis=-1)
    qmax = part[:, -1]
    qsecond = part[:, -2]
    agrees = q.argmax(axis=-1) == base_pred
    denom = np.where(agrees, ql + qsecond, ql + qmax)
    return ql / denom


def score_dissector(probes: list[Probe] | None, base: dict[str, np.ndarray]):
    """PV scores from the probes over `base`'s probe taps, against its predicted labels.

    Returns {growth: (raw, confidence, predicted)} over GROWTH_TYPES. Each
    probe runs once; every growth type sums the same snapshot validities,
    shallowest first, under its own depth weights.
    """
    from . import tasks

    if not probes:
        raise EstimatorStateError("dissector scoring needs trained probes")
    n_classes = base["probs"].shape[-1]
    base_preds = base["probs"].argmax(axis=-1)
    validities = []
    for probe in probes:
        if probe.w.data.shape[-1] != n_classes:
            raise EstimatorStateError(f"probe label space ({probe.w.data.shape[-1]}) does not match model ({n_classes})")
        q = probe.predict(base[probe.tag])
        sv = np.empty(len(base_preds))
        for rows in tasks.row_batches(len(sv)):  # sorted a batch at a time
            sv[rows] = _snapshot_validity(q[rows], base_preds[rows])
        validities.append(sv)
        del q  # one probe's (N, V) array alive at a time
    scores = {}
    for growth in GROWTH_TYPES:
        pv = np.zeros(len(base_preds), dtype=np.float64)
        for weight, sv in zip(growth_weights(growth, len(probes)), validities):
            pv += weight * sv
        scores[growth] = (pv, pv, base_preds)
    return scores


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Estimator:
    """One uncertainty method of the study: its entry of `config.METHODS`
    (name, `--method` flag, variants) with its fit and score.

    `fit(model, train, validation, val_base, settings)` returns the fitted
    state: the temperature, the MC-Dropout settings, one mutant ensemble per
    operator, the probes, or None. `val_base` is `base_outputs(model,
    validation)`, the same outputs that score the validation split.
    `settings` holds the `uncertainty` config keys plus `seed`.
    `score(model, state, samples, base, split)` scores every variant at
    once and returns {variant: (raw, confidence, predicted)} in `variants`
    order, where `base` is `base_outputs(model, samples)`, computed once
    per split and shared by every estimator; the Monte-Carlo scorers resume
    from its "features" where it has them. `split` keys the random stream
    of stochastic passes. A method without variants has the one variant "".
    `fit` reads `train`, the training split, only when `needs_train` is
    set; otherwise it is given None.
    """

    name: str
    flag: str
    variants: tuple[str, ...]
    fit: Callable
    score: Callable
    needs_train: bool = False

    def tables(self, model, state, samples, base: dict[str, np.ndarray], split: str = "") -> list[ScoreTable]:
        """One ScoreTable per variant, in `variants` order, from one `score` call."""
        scores = self.score(model, state, samples, base, split)
        sample_ids = samples.id_list
        tables = []
        for variant in self.variants:
            raw, confidence, predicted = scores[variant]
            confidence = np.asarray(confidence, dtype=np.float64)
            outside = ~((confidence >= 0.0) & (confidence <= 1.0))
            if outside.any():
                i = int(outside.argmax())
                raise ValueError(f"confidence {confidence[i]} outside [0, 1] for {sample_ids[i]}")
            tables.append(ScoreTable(
                method=self.name,
                variant=variant,
                split=split,
                sample_ids=sample_ids,
                raw=np.asarray(raw, dtype=np.float64),
                confidence=confidence,
                predicted=np.asarray(predicted, dtype=np.int64),
                true=samples.labels,
            ))
        return tables


def _fit_mutant_ensembles(model, train, validation, val_base, settings) -> dict[str, list]:
    return {
        op: build_mutant_ensemble(
            model, op, degree=settings["mutation_degree"], count=settings["mutant_count"], seed=settings["seed"]
        )
        for op in MUTATION_OPERATORS
    }


def _fit_probes(model, train, validation, val_base, settings) -> list[Probe]:
    return train_probes(
        model, train, epochs=settings["probe_epochs"],
        learning_rate=settings["probe_learning_rate"], seed=settings["seed"],
    )


def _score_mc_dropout(model, settings, samples, base, split):
    seed = [settings["seed"], zlib.crc32(split.encode())]
    return {"": score_mc_dropout(
        model, samples, passes=settings["mc_passes"], p=settings["mc_dropout_p"], seed=seed,
        features=base.get("features"),
    )}


def _score_mmutant(model, ensembles, samples, base, split):
    base_preds = base["probs"].argmax(axis=-1)
    return {
        op: score_mmutant((ensembles or {}).get(op), samples, base_preds, base.get("features"), model)
        for op in MUTATION_OPERATORS
    }


def _estimator(name: str, fit: Callable, score: Callable, needs_train: bool = False) -> Estimator:
    """The registry entry of method `name`, its flag and variants read from `METHODS`."""
    flag, variants = METHODS[name]
    return Estimator(name, flag, variants, fit, score, needs_train)


# Entries call the public functions above through their module-level names
# at call time, so tracing or patching one of them also covers the
# registry's calls.
ESTIMATORS: dict[str, Estimator] = {
    e.name: e
    for e in (
        _estimator(
            "vanilla",
            fit=lambda model, train, validation, val_base, settings: None,
            score=lambda model, state, samples, base, split: {"": score_vanilla(base["probs"])},
        ),
        _estimator(
            "temp_scale",
            fit=lambda model, train, validation, val_base, settings: fit_temperature(val_base["logits"], validation.labels),
            score=lambda model, temperature, samples, base, split: {"": score_temp_scale(base["logits"], temperature)},
        ),
        _estimator(
            "mc_dropout",
            fit=lambda model, train, validation, val_base, settings: settings,
            score=_score_mc_dropout,
        ),
        _estimator(
            "mmutant",
            fit=_fit_mutant_ensembles,
            score=_score_mmutant,
        ),
        _estimator(
            "dissector",
            fit=_fit_probes,
            score=lambda model, probes, samples, base, split: score_dissector(probes, base),
            needs_train=True,
        ),
    )
}


# -- scores file --------------------------------------------------------------


SCORES_HEADER = "sample_id,method,variant,raw_score,confidence,predicted,true,split"
_SCORES_FIELDS = SCORES_HEADER.count(",") + 1


def column_texts(values: np.ndarray) -> list[str]:
    """The `repr` of each value of a float64 or int64 column, as score files
    write it, called once per distinct bit pattern (so -0.0 stays -0.0)."""
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(repr, keys.view(values.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def write_scores_csv(path, table: ScoreTable, config_hash: str) -> None:
    raw = column_texts(table.raw)
    same = np.array_equal(table.confidence.view(np.uint64), table.raw.view(np.uint64))
    confidence = raw if same else column_texts(table.confidence)
    rows = zip(table.sample_ids, raw, confidence, column_texts(table.predicted), column_texts(table.true))
    middle, end = f",{table.method},{table.variant},", f",{table.split}\n"
    write_csv(path, config_hash, SCORES_HEADER, (
        f"{sample_id}{middle}{r},{c},{p},{t}{end}" for sample_id, r, c, p, t in rows
    ))


def read_scores_csv(path) -> ScoreTable:
    """Read one score file; any malformed row raises ScoresFileError naming its line.

    The rows are split in bulk, and each column converts each distinct text
    once, with the same `float` or `int` a row-by-row parse would call, so
    the same files are accepted; a check that fails walks its column row by
    row to name the first bad line.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ScoresFileError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines[-1]:
        lines.pop()  # what follows the last line end
    header = len(lines)
    for number, line in enumerate(lines):  # "#" comment lines, then the header
        if line == SCORES_HEADER:
            header = number
            break
        if not line.startswith("#"):
            raise ScoresFileError(f"{path}, line {number + 1}: expected the header {SCORES_HEADER!r}")
    rows = list(filter(None, lines[header + 1:]))  # blank lines are skipped
    if not rows:
        raise ScoresFileError(f"{path}: no score rows")

    def reject(index: int, problem: str):
        numbers = [number for number, line in enumerate(lines[header + 1:], header + 2) if line]
        raise ScoresFileError(f"{path}, line {numbers[index]}: {problem}")

    commas = list(map(str.count, rows, repeat(",")))
    if commas.count(_SCORES_FIELDS - 1) != len(rows):
        i = next(i for i, count in enumerate(commas) if count != _SCORES_FIELDS - 1)
        reject(i, f"expected {_SCORES_FIELDS} fields, got {commas[i] + 1}")
    fields = ",".join(rows).split(",")
    sample_ids, methods, variants, raw, conf, predicted, true, splits = (
        fields[i::_SCORES_FIELDS] for i in range(_SCORES_FIELDS)
    )

    for name, column in (("method", methods), ("variant", variants), ("split", splits)):
        if column.count(column[0]) != len(column):
            i = next(i for i, value in enumerate(column) if value != column[0])
            reject(i, f"{name} {column[i]!r} differs from {column[0]!r} of the first row")

    def parse(name: str, texts: list[str], dtype, expected: str, valid=None, values=None) -> np.ndarray:
        """`texts` converted, or `values` when given, once they pass `valid`."""
        convert = float if dtype is np.float64 else int
        try:
            if values is None:
                distinct = set(texts)
                known = dict(zip(distinct, map(convert, distinct)))
                values = np.fromiter(map(known.__getitem__, texts), dtype=dtype, count=len(texts))
            if valid is None or valid(values).all():
                return values
        except (ValueError, OverflowError):
            pass
        for i, text in enumerate(texts):  # slow path, only to name the first bad line
            try:
                value = np.fromiter([convert(text)], dtype=dtype)
            except (ValueError, OverflowError):
                value = None
            if value is None or (valid is not None and not valid(value)[0]):
                reject(i, f"{name} {text!r} is not {expected}")

    raw_values = parse("raw_score", raw, np.float64, "a finite number", np.isfinite)
    return ScoreTable(
        method=methods[0],
        variant=variants[0],
        split=splits[0],
        sample_ids=sample_ids,
        raw=raw_values,
        confidence=parse(
            "confidence", conf, np.float64, "a number in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0),
            raw_values.copy() if conf == raw else None,
        ),
        predicted=parse("predicted", predicted, np.int64, "an integer"),
        true=parse("true", true, np.int64, "an integer"),
    )
