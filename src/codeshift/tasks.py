"""The two classifiers under study and their training loops.

CS (code summarization): a path-attention network. Each context triple
(left terminal, path, right terminal) is combined into one d-wide vector,
tanh(W·[e_left; e_path; e_right] + b), then dropped out, attention-pooled,
and classified by one fully-connected layer over method names. The
combiner is computed factorized: W's three d-row blocks project the
terminal and path embedding tables once per forward, and each context
gathers and sums three projected rows, so no (B, n, 3d) concatenation is
built. A split repeats most of its triples, so the sum and the tanh run
once per distinct triple of a batch and are gathered back. Everything
after that runs on the real contexts only, as (R, d) rows in the order of
the batch's flat id columns: dropout, which draws one keep factor per
element of those rows, attention pooling and their gradients.

CC (code completion): a CBOW-style MLP. Context token embeddings are
averaged (PAD slots contribute nothing and are excluded from the divisor)
and classified by one fully-connected layer over the token vocabulary.
Each window is encoded once as its bag: its distinct non-PAD tokens and
the share of its real slots each holds. The mean is one matrix product of
the token table with the (B, V) bag the batch's shares scatter into, so
its gradient is one product too.

Each model carries its task: the vocabularies it was built over, which
`encode_split` encodes every split against and checkpoints store, and its
parameters. `MODELS` maps each task kind to its model class. A split is
encoded once into one ragged layout (`EncodedSplit`): flat columns plus
row lengths, one entry per CS context (with its index among the split's
distinct triples) or per distinct CC window token, and no PAD stored.

Both train with Adam on mean cross-entropy over seeded, shuffled batches.
Accuracy is exact-match argmax, reported as a percentage; samples whose
true label fell out of the training vocabulary (UNK) count as failures
since the model can never legitimately produce UNK (`is_correct`).
"""

from __future__ import annotations

import copy
import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .config import write_csv
from .extraction import PAD_ID, UNK_ID, Vocabulary

CS = "cs"
CC = "cc"


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    embedding_dim: int = 100
    dropout: float = 0.5  # CS only; the CC model has no dropout layer
    batch_size: int = 512
    epochs: int = 300
    seed: int = 0


@dataclass(frozen=True, eq=False)
class EncodedSplit:
    """One split's model inputs in one ragged layout, one row per sample.

    `inputs` holds one flat column per model input, the rows concatenated;
    `lengths` counts each row's entries. CS has int64 `left`/`path`/`right`
    ids, one per real context, and `triple`, each context's index among
    the split's distinct (left, path, right) triples in ascending order;
    a batch keeps the split's indices. CC has each window's bag (`pack_windows`):
    int64 `token`, its distinct non-PAD ids, and float64 `share`, the share
    of the window's real slots that hold each.
    """

    sample_ids: np.ndarray  # str
    labels: np.ndarray  # int64
    inputs: dict[str, np.ndarray]
    lengths: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def offsets(self) -> np.ndarray:  # (N + 1,): each row's start in the id columns, then their length
        return np.concatenate([[0], np.cumsum(self.lengths)])

    def __getitem__(self, rows) -> "EncodedSplit":
        """The sub-split at `rows`: a slice, whose id columns are views, or an index array."""
        lengths = self.lengths[rows]
        if isinstance(rows, slice) and rows.step in (None, 1):
            start = self.offsets[rows.indices(len(self))[0]]
            at = slice(start, start + lengths.sum())
        else:  # each picked row's ids: its old start, then counting up
            shift = self.offsets[:-1][rows] - (np.cumsum(lengths) - lengths)
            at = np.repeat(shift, lengths) + np.arange(lengths.sum())
        inputs = {name: ids[at] for name, ids in self.inputs.items()}
        return EncodedSplit(self.sample_ids[rows], self.labels[rows], inputs, lengths)


def pack(sample_ids, labels, rows: dict[str, Sequence]) -> EncodedSplit:
    """Concatenate per-sample id rows into one EncodedSplit.

    `rows` maps each input name to one id sequence per sample, and a
    sample's sequences all have the same length.
    """
    sizes = {name: np.fromiter(map(len, column), dtype=np.int64, count=len(column)) for name, column in rows.items()}
    lengths = next(iter(sizes.values()))
    inputs = {}
    for name, column in rows.items():
        if not np.array_equal(sizes[name], lengths):
            raise ValueError(f"input {name!r} rows differ in length from the first input's")
        inputs[name] = np.fromiter(itertools.chain.from_iterable(column), dtype=np.int64, count=int(lengths.sum()))
    return EncodedSplit(np.array(sample_ids, dtype=str), np.asarray(labels, dtype=np.int64), inputs, lengths)


def pack_windows(sample_ids, labels, ids: np.ndarray, sizes: Sequence[int]) -> EncodedSplit:
    """Pack CC context windows as bags: the `token` and `share` columns of EncodedSplit.

    `ids` holds the windows' ids one window after another, and `sizes`
    each window's width. A row's `token` entries are its window's distinct
    non-PAD ids in ascending order, and each `share` is that id's slot
    count over the window's real (non-PAD) slot count, in float64. An
    all-PAD window gets an empty row. Windows may differ in width; each row
    averages its own.
    """
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.size != sizes.sum():
        raise ValueError(f"{ids.size} window ids for window sizes summing to {sizes.sum()}")
    rows = np.repeat(np.arange(len(sizes)), sizes)
    real = ids != PAD_ID
    ids, rows = ids[real], rows[real]
    order = np.lexsort((ids, rows))  # rows ascending, each row's ids ascending
    ids, rows = ids[order], rows[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, ids.size))
    n_real = np.bincount(rows, minlength=len(sizes))
    inputs = {"token": ids[starts], "share": counts / n_real[rows[starts]]}
    lengths = np.bincount(rows[starts], minlength=len(sizes))
    return EncodedSplit(np.array(sample_ids, dtype=str), np.asarray(labels, dtype=np.int64), inputs, lengths)


def encode_split(samples: list, vocabs: dict[str, Vocabulary], id_prefix: str = "") -> EncodedSplit:
    """Encode a split's samples against a model's vocabularies and pack them.

    `vocabs` holds the CS `terminals`/`paths`/`labels` vocabularies or the
    CC `tokens` one, as `model.vocabs()` returns them. CS methods without
    contexts and CC windows without a real (non-PAD) slot are dropped; a
    sample's id is `<id_prefix>#<index>`, its index among `samples`.
    """
    if "tokens" in vocabs:
        tokens = vocabs["tokens"]
        split = pack_windows(
            [f"{id_prefix}#{i}" for i in range(len(samples))],
            tokens.encode_all(s.target for s in samples),
            tokens.encode_all(itertools.chain.from_iterable(s.context for s in samples)),
            [len(s.context) for s in samples],
        )
        return split if split.lengths.all() else split[np.flatnonzero(split.lengths)]
    kept = [(i, s) for i, s in enumerate(samples) if s.contexts]
    terminals, paths = vocabs["terminals"], vocabs["paths"]
    split = pack(
        [f"{id_prefix}#{i}" for i, _ in kept],
        vocabs["labels"].encode_all(s.label for _, s in kept),
        {
            "left": [terminals.encode_all(c.left for c in s.contexts) for _, s in kept],
            "path": [paths.encode_all(c.path for c in s.contexts) for _, s in kept],
            "right": [terminals.encode_all(c.right for c in s.contexts) for _, s in kept],
        },
    )
    ids = split.inputs
    key = (ids["left"] * len(paths) + ids["path"]) * len(terminals) + ids["right"]
    ids["triple"] = np.unique(key, return_inverse=True)[1].astype(np.int64)
    return split


def _bits(a: np.ndarray) -> np.ndarray:
    """`a`'s bit patterns, as unsigned integers of its item size."""
    return a.view(f"u{a.itemsize}")


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> nn.Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return nn.Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, dtype=dtype)


class _TaskModel:
    """What both task models share: their task's data, named parameters, and one forward.

    A model holds the vocabularies its attributes `vocab_names` name, which
    `vocabs()` returns, and parameters whose output layer is `w_out`/`b_out`.
    Each forward of an EncodedSplit batch splits at its dropout site:
    `features(batch)` computes the dropout's input (CS: the combined
    contexts after the tanh, one row per real context; CC: the embedding
    mean, one row per sample) from the parameters `feature_params` names,
    and `head(features, batch, ...)` does the rest. `feature_rows(batch)`
    counts a batch's feature rows. So a model whose `feature_params` hold
    the same arrays can run `head` on features another model's forward
    computed, and `feature_changes(base, split)` says which feature columns
    of a split differ from those `base` computes, and what they hold. A head
    returns "logits" and "features" (CS also "weights", one attention
    weight per real context, and "pooled"); it computes "probs" and
    "embed_mean" only when its `keys` name them. Dropout is live exactly
    when the forward is given a generator `rng`, at the model's
    `dropout_p`. `affine_layers` names each (weight, bias) pair whose
    output neurons mutation acts on.
    """

    kind: str
    vocab_names: tuple[str, ...]
    probe_layers: tuple[str, ...]  # Dissector's taps, shallow to deep
    feature_params: tuple[str, ...]
    affine_layers: tuple[tuple[str, str], ...]
    _params: dict[str, nn.Tensor]

    def params(self) -> dict[str, nn.Tensor]:
        return self._params

    def vocabs(self) -> dict[str, Vocabulary]:
        return {name: getattr(self, name) for name in self.vocab_names}

    def n_classes(self) -> int:
        return len(self._params["b_out"].data)

    def feature_rows(self, batch: "EncodedSplit") -> int:
        return len(batch)

    def feature_changes(self, base: "_TaskModel", split: "EncodedSplit") -> tuple[np.ndarray, np.ndarray] | None:
        """(columns, their values): where this model's features of `split` differ from `base`'s.

        None means only a full forward gives them. A model whose
        `feature_params` are `base`'s own arrays changes no column.
        """
        theirs = base.params()
        if any(self._params[name].data is not theirs[name].data for name in self.feature_params):
            return None
        return np.empty(0, dtype=np.intp), np.empty((self.feature_rows(split), 0))

    def with_params(self, arrays: dict[str, np.ndarray]):
        """A copy whose parameters named in `arrays` hold those arrays; it shares the others with this model."""
        twin = copy.copy(self)
        twin._params = {**self._params, **{name: nn.Tensor(a, requires_grad=True) for name, a in arrays.items()}}
        return twin

    def forward_batch(
        self, batch: EncodedSplit, rng: np.random.Generator | None = None, keys: tuple[str, ...] = ("probs",)
    ) -> dict[str, nn.Tensor]:
        """`head` on `features(batch)`."""
        return self.head(self.features(batch), batch, rng=rng, keys=keys)


class PathAttentionModel(_TaskModel):
    kind = CS
    vocab_names = ("terminals", "paths", "labels")
    probe_layers = ("embed_mean", "pooled")
    feature_params = ("term_emb", "path_emb", "w_comb", "b_comb")
    affine_layers = (("w_comb", "b_comb"), ("w_out", "b_out"))

    def __init__(
        self,
        terminals: Vocabulary,
        paths: Vocabulary,
        labels: Vocabulary,
        dim: int = 100,
        dropout_p: float = 0.5,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.terminals = terminals
        self.paths = paths
        self.labels = labels
        self.dim = dim
        self.dropout_p = dropout_p
        rng = np.random.default_rng([seed, 0xC5])
        zeros = lambda *shape: nn.Tensor(np.zeros(shape), requires_grad=True, dtype=dtype)
        self._params = {
            "term_emb": _uniform_init(rng, (len(terminals), dim), dim, dtype),
            "path_emb": _uniform_init(rng, (len(paths), dim), dim, dtype),
            "w_comb": _uniform_init(rng, (3 * dim, dim), 3 * dim, dtype),
            "b_comb": zeros(dim),
            "attn": _uniform_init(rng, (dim,), dim, dtype),
            "w_out": _uniform_init(rng, (dim, len(labels)), dim, dtype),
            "b_out": zeros(len(labels)),
        }

    def feature_rows(self, batch: EncodedSplit) -> int:
        return int(batch.lengths.sum())

    def features(self, batch: EncodedSplit) -> nn.Tensor:
        """The combined contexts tanh(W·[e_left; e_path; e_right] + b), (R, d).

        The R rows are the batch's contexts in the order of its flat
        left/path/right id columns.

        W·[e_l; e_p; e_r] = W_l·e_l + W_p·e_p + W_r·e_r, so each d-row block
        of `w_comb` projects its embedding table once, and each distinct
        triple of the batch (its `triple` column) sums three gathered d-wide
        rows and takes the tanh once (`nn.embedding_sum_tanh`).
        """
        if not batch.lengths.all():
            raise ValueError("empty context bag in batch")
        p = self._params
        d = self.dim
        w = p["w_comb"]
        proj_left = nn.linear(p["term_emb"], nn.row_slice(w, 0, d))
        proj_path = nn.linear(p["path_emb"], nn.row_slice(w, d, 2 * d))
        proj_right = nn.linear(p["term_emb"], nn.row_slice(w, 2 * d, 3 * d))
        ids = batch.inputs
        lookups = [(proj_left, ids["left"]), (proj_path, ids["path"]), (proj_right, ids["right"])]
        return nn.embedding_sum_tanh(lookups, p["b_comb"], ids["triple"])

    def feature_changes(self, base: _TaskModel, split: EncodedSplit) -> tuple[np.ndarray, np.ndarray] | None:
        """(columns, their values) where the combined contexts differ from `base`'s; see `_TaskModel`.

        With `base`'s embedding tables, a context's column j depends only on
        column j of `w_comb` and `b_comb`, so only the columns whose bits
        differ are recomputed (-0.0 differs from +0.0), once per distinct
        triple. Each table is still projected through the full weight block,
        as `features` does: a GEMM over fewer columns can round differently.
        """
        same = super().feature_changes(base, split)
        p, theirs = self._params, base.params()
        if same is not None or any(p[name].data is not theirs[name].data for name in ("term_emb", "path_emb")):
            return same
        w, b = p["w_comb"].data, p["b_comb"].data
        differs = (_bits(w) != _bits(theirs["w_comb"].data)).any(axis=0) | (_bits(b) != _bits(theirs["b_comb"].data))
        cols = np.flatnonzero(differs)
        d, ids = self.dim, split.inputs
        first, inverse = nn.distinct_rows(ids["triple"])
        terms, paths = p["term_emb"].data, p["path_emb"].data
        # one column per row, so each gather is a 1-D take; summed as `features` sums: left, path, right, bias
        pre = (terms @ w[:d])[:, cols].T.take(ids["left"][first], axis=1)
        pre += (paths @ w[d:2 * d])[:, cols].T.take(ids["path"][first], axis=1)
        pre += (terms @ w[2 * d:])[:, cols].T.take(ids["right"][first], axis=1)
        pre += b[cols, None]
        return cols, np.tanh(pre).T[inverse]

    def head(
        self,
        features: nn.Tensor,
        batch: EncodedSplit,
        rng: np.random.Generator | None = None,
        keys: tuple[str, ...] = ("probs",),
    ) -> dict[str, nn.Tensor]:
        """Everything after the combiner, on the (R, d) rows `features` returns.

        Dropout at `dropout_p`, live when `rng` is given, draws over these
        rows, so no context's keep factors depend on the widths of the
        other bags; pooling takes the bag mask, (B, max length), derived
        from the batch's lengths. "weights", one attention weight per
        context (R,), and "embed_mean", each bag's mean row, are off the tape.
        """
        p = self._params
        lengths = batch.lengths
        mask = np.arange(lengths.max()) < lengths[:, None]
        dropped = nn.dropout(features, self.dropout_p, rng is not None, rng)
        pooled, weights = nn.attention_pool(dropped, p["attn"], mask=mask)
        logits = nn.affine(pooled, p["w_out"], p["b_out"])
        out = {"logits": logits, "features": features, "weights": weights, "pooled": pooled}
        if "embed_mean" in keys:
            sums = np.add.reduceat(features.data, np.cumsum(lengths) - lengths, axis=0)
            out["embed_mean"] = nn.Tensor(sums * (1.0 / lengths).astype(sums.dtype)[:, None])
        if "probs" in keys:
            out["probs"] = nn.softmax(logits)
        return out


class MlpCompletionModel(_TaskModel):
    kind = CC
    vocab_names = ("tokens",)
    probe_layers = ("embed_mean",)
    feature_params = ("token_emb",)
    affine_layers = (("w_out", "b_out"),)

    def __init__(self, tokens: Vocabulary, dim: int = 100, seed: int = 0, dtype=np.float32):
        self.tokens = tokens
        self.dim = dim
        self.dropout_p = 0.0  # no dropout in training; MC-Dropout scores a copy at its own rate
        rng = np.random.default_rng([seed, 0xCC])
        self._params = {
            "token_emb": _uniform_init(rng, (len(tokens), dim), dim, dtype),
            "w_out": _uniform_init(rng, (dim, len(tokens)), dim, dtype),
            "b_out": nn.Tensor(np.zeros(len(tokens)), requires_grad=True, dtype=dtype),
        }

    def features(self, batch: EncodedSplit) -> nn.Tensor:
        """The mean of the real context slots' embeddings, (B, d), as one product `bag @ token_emb`:
        `bag[b, t]` is the share of row b's real (non-PAD) window slots that hold token t, scattered
        from the batch's `token`/`share` columns in the table's dtype."""
        table = self._params["token_emb"]
        n_tokens = table.data.shape[0]
        if not batch.lengths.all():
            raise ValueError("all-PAD context in batch")
        tokens = batch.inputs["token"]
        if tokens.size and (tokens.min() < 0 or tokens.max() >= n_tokens):
            raise IndexError(f"context id out of range [0, {n_tokens})")  # a negative one would wrap
        bag = np.zeros((len(batch), n_tokens), dtype=table.data.dtype)
        bag[np.repeat(np.arange(len(batch)), batch.lengths), tokens] = batch.inputs["share"]
        return nn.linear(nn.Tensor(bag), table)

    def head(
        self,
        features: nn.Tensor,
        batch: EncodedSplit,
        rng: np.random.Generator | None = None,
        keys: tuple[str, ...] = ("probs",),
    ) -> dict[str, nn.Tensor]:
        """Dropout at `dropout_p`, live when `rng` is given, then the output layer.

        The model trains at 0.0, so only MC-Dropout's copy at its own rate
        drops anything after the embedding mean.
        """
        p = self._params
        h = nn.dropout(features, self.dropout_p, rng is not None, rng)
        logits = nn.affine(h, p["w_out"], p["b_out"])
        out = {"logits": logits, "features": features}
        if "embed_mean" in keys:
            out["embed_mean"] = features
        if "probs" in keys:
            out["probs"] = nn.softmax(logits)
        return out


Model = PathAttentionModel | MlpCompletionModel
MODELS: dict[str, type[Model]] = {model.kind: model for model in (PathAttentionModel, MlpCompletionModel)}


# -- inference over a split ----------------------------------------------


def infer(
    model: Model,
    samples: EncodedSplit,
    batch_size: int = 512,
    keys: tuple[str, ...] = ("probs",),
    rng: np.random.Generator | None = None,
    features: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Batched no-grad forward over a split; concatenates `keys` over its batches.

    Given `rng`, dropout is live at the model's `dropout_p` and draws from
    it batch after batch. The model's head computes "probs" and
    "embed_mean" only when `keys` name them. "features" is one (rows, d)
    array for the split, `model.feature_rows(samples)` rows: one per real
    context for CS, one per sample for CC. Passed back as `features` to a
    call over the same split, at any `batch_size`, it resumes every batch
    at `model.head`; the model must share the `feature_params` of the one
    that computed it, or the columns `model.feature_changes` names must be
    written into them.
    """
    if features is not None and len(features) != model.feature_rows(samples):
        raise ValueError(f"features hold {len(features)} rows, but the split has {model.feature_rows(samples)}")
    chunks: dict[str, list[np.ndarray]] = {k: [] for k in keys}
    settings = {"rng": rng, "keys": keys}
    row = 0
    with nn.no_grad():
        for start in range(0, len(samples), batch_size):
            batch = samples[start:start + batch_size]
            if features is None:
                out = model.forward_batch(batch, **settings)
            else:
                rows = model.feature_rows(batch)
                out = model.head(nn.Tensor(features[row:row + rows]), batch, **settings)
                row += rows
            for k in keys:
                chunks[k].append(out[k].data)
    return {k: np.concatenate(v, axis=0) for k, v in chunks.items()}


def predicted_labels(logits: np.ndarray) -> np.ndarray:
    """The argmax of each row of softmax(logits), read off the logits.

    Where the top two logits differ by more than 1e-5·max(1, |top|), the
    softmax gives every other class at most exp(-gap) < 1 - 1e-5 of the top
    probability, a margin float32 rounding cannot close, so both argmaxes
    agree. In rows closer than that the probabilities may round to a tie,
    and a row whose top is NaN or +inf turns to NaN; the softmax's argmax
    can then pick another index, so those rows go through the softmax
    itself. (A -inf below a finite top only gives a zero probability.)

    The test runs in the logits' dtype: a value of that dtype is at least a
    row's float64 threshold exactly when it is at least the threshold
    rounded up to the dtype. Each finite top passes its own threshold, so
    rows are counted only when more values pass than there are such tops.
    """
    preds = logits.argmax(axis=-1)
    top = np.take_along_axis(logits, preds[:, None], axis=-1).astype(np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite top: its threshold is NaN or -inf
        threshold = top - 1e-5 * np.maximum(1.0, np.abs(top))
        rounded = threshold.astype(logits.dtype)  # may overflow to -inf, which rounds up to the lowest value
        passes = logits >= np.where(rounded < threshold, np.nextafter(rounded, np.inf), rounded)
    near = ~np.isfinite(top[:, 0])
    if np.count_nonzero(passes) > len(logits) - np.count_nonzero(near):
        near |= np.count_nonzero(passes, axis=-1) > 1
    rows = np.flatnonzero(near)
    if rows.size:
        preds[rows] = nn.softmax(nn.Tensor(logits[rows])).data.argmax(axis=-1)
    return preds


def is_correct(predicted, true) -> np.ndarray:
    """Exact-match correctness per sample; UNK true labels can never be correct."""
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    return (predicted == true) & (true != UNK_ID)


def evaluate_accuracy(model: Model, samples: EncodedSplit, batch_size: int = 512) -> float:
    """Exact-match accuracy in percent; UNK true labels count as failures."""
    if not samples:
        raise ValueError("cannot evaluate accuracy on an empty split")
    preds = predicted_labels(infer(model, samples, batch_size=batch_size, keys=("logits",))["logits"])
    return float(is_correct(preds, samples.labels).mean() * 100.0)


# -- training --------------------------------------------------------------


@dataclass
class TrainResult:
    """The trained model and one row per epoch: epoch, train_acc, val_acc, loss.

    train_acc is measured on the final epoch only and is None on earlier rows;
    val_acc is measured every epoch, or None without a validation split.
    """

    model: Model
    history: list[dict] = field(default_factory=list)


def _train_loop(
    model: Model, samples: EncodedSplit, config: TrainConfig, val_samples: EncodedSplit | None
) -> TrainResult:
    if not samples:
        raise ValueError("empty training split")
    state = nn.AdamState(learning_rate=config.learning_rate)
    params = model.params()
    history = []
    for epoch in range(config.epochs):
        shuffle_rng = np.random.default_rng([config.seed, epoch, 0])
        drop_rng = np.random.default_rng([config.seed, epoch, 1])
        order = shuffle_rng.permutation(len(samples))
        losses = []
        for start in range(0, len(samples), config.batch_size):
            batch = samples[order[start:start + config.batch_size]]
            nn.zero_grads(params.values())
            out = model.forward_batch(batch, rng=drop_rng, keys=("probs",))
            loss = nn.mean(nn.cross_entropy(out["probs"], batch.labels))
            nn.backward(loss)
            nn.adam_step(params, {name: p.grad for name, p in params.items()}, state)
            losses.append(float(loss.data))
        # train accuracy is a full eval-mode pass over the training split, so
        # only the final model's is measured; earlier rows log None
        row = {
            "epoch": epoch + 1,
            "train_acc": evaluate_accuracy(model, samples, config.batch_size) if epoch + 1 == config.epochs else None,
            "val_acc": evaluate_accuracy(model, val_samples, config.batch_size) if val_samples else None,
            "loss": float(np.mean(losses)),
        }
        history.append(row)
    return TrainResult(model=model, history=history)


def train_cs(
    samples: EncodedSplit,
    terminals: Vocabulary,
    paths: Vocabulary,
    labels: Vocabulary,
    config: TrainConfig,
    val_samples: EncodedSplit | None = None,
) -> TrainResult:
    model = PathAttentionModel(
        terminals, paths, labels,
        dim=config.embedding_dim, dropout_p=config.dropout, seed=config.seed,
    )
    return _train_loop(model, samples, config, val_samples)


def train_cc(
    samples: EncodedSplit,
    tokens: Vocabulary,
    config: TrainConfig,
    val_samples: EncodedSplit | None = None,
) -> TrainResult:
    model = MlpCompletionModel(tokens, dim=config.embedding_dim, seed=config.seed)
    return _train_loop(model, samples, config, val_samples)


def write_epoch_log(history: list[dict], path, config_hash: str) -> None:
    """Per-epoch CSV: epoch,train_acc,val_acc,loss.

    A None accuracy is written as an empty cell: train_acc is filled on the
    final epoch only, and val_acc is empty when there is no validation split.
    """
    def cell(acc):
        return "" if acc is None else repr(acc)

    write_csv(path, config_hash, "epoch,train_acc,val_acc,loss", (
        f"{row['epoch']},{cell(row['train_acc'])},{cell(row['val_acc'])},{row['loss']!r}\n" for row in history
    ))


# -- model checkpoints -------------------------------------------------------


def save_checkpoint(model: Model, train_config: dict | None = None) -> bytes:
    config = {"dim": model.dim, "dropout_p": model.dropout_p}
    if train_config:
        config["train"] = train_config
    vocabs = {name: vocab.tokens for name, vocab in model.vocabs().items()}
    arrays = {name: p.data for name, p in model.params().items()}
    return nn.write_checkpoint(model.kind, config, vocabs, arrays)


def load_checkpoint(data: bytes, expect_kind: str | None = None) -> Model:
    """Rebuild a saved model; malformed data of any kind raises nn.CheckpointError."""
    ck = nn.read_checkpoint(data, expect_kind=expect_kind)
    dim, dropout_p = ck.config.get("dim"), ck.config.get("dropout_p")
    if type(dim) is not int or dim < 1:
        raise nn.CheckpointError(f"config dim {dim!r} is not a positive integer")
    if type(dropout_p) not in (int, float) or not 0.0 <= dropout_p < 1.0:
        raise nn.CheckpointError(f"config dropout_p {dropout_p!r} is not a probability below 1")
    if ck.kind not in MODELS:
        raise nn.CheckpointError(f"unknown model kind {ck.kind!r}")
    try:
        vocabs = {name: Vocabulary.from_tokens(ck.vocabs[name]) for name in MODELS[ck.kind].vocab_names}
    except (KeyError, TypeError, ValueError) as exc:
        raise nn.CheckpointError(f"vocabulary missing or malformed: {exc!r}") from exc
    model = MODELS[ck.kind](**vocabs, dim=dim)
    model.dropout_p = dropout_p
    for name, p in model.params().items():
        if name not in ck.arrays:
            raise nn.CheckpointError(f"checkpoint missing parameter {name!r}")
        if ck.arrays[name].shape != p.data.shape:
            raise nn.CheckpointError(
                f"parameter {name!r} has shape {ck.arrays[name].shape}, expected {p.data.shape}"
            )
        if not np.isfinite(ck.arrays[name]).all():
            raise nn.CheckpointError(f"parameter {name!r} holds non-finite values")
        p.data = ck.arrays[name]
    model.config_echo = ck.config
    return model
