"""The two classifiers under study and their training loops.

CS (code summarization): a path-attention network. Each context triple
(left terminal, path, right terminal) is embedded, concatenated to 3d,
squeezed through an affine+tanh combiner to d, dropped out, attention-
pooled, and classified by one fully-connected layer over method names.

CC (code completion): a CBOW-style MLP. Context token embeddings are
averaged (PAD slots contribute nothing and are excluded from the divisor)
and classified by one fully-connected layer over the token vocabulary.

Both train with Adam on mean cross-entropy over seeded, shuffled batches.
Accuracy is exact-match argmax, reported as a percentage; samples whose
true label fell out of the frozen vocabulary (UNK) count as failures since
the model can never legitimately produce UNK.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .extraction import PAD_ID, UNK_ID, CbowSample, MethodSample, Vocabulary

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

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "embedding_dim": self.embedding_dim,
            "dropout": self.dropout,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "seed": self.seed,
        }


@dataclass
class EncodedMethod:
    sample_id: str
    label: int
    left: np.ndarray
    path: np.ndarray
    right: np.ndarray


@dataclass
class EncodedCbow:
    sample_id: str
    target: int
    context: np.ndarray


def encode_method_samples(
    samples: list[MethodSample],
    terminals: Vocabulary,
    paths: Vocabulary,
    labels: Vocabulary,
    id_prefix: str = "",
) -> list[EncodedMethod]:
    """Encode against frozen vocabularies, dropping context-free methods."""
    encoded = []
    for i, s in enumerate(samples):
        if not s.contexts:
            continue
        encoded.append(
            EncodedMethod(
                sample_id=f"{id_prefix}#{i}",
                label=labels.encode(s.label),
                left=terminals.encode_all(c.left for c in s.contexts),
                path=paths.encode_all(c.path for c in s.contexts),
                right=terminals.encode_all(c.right for c in s.contexts),
            )
        )
    return encoded


def encode_cbow_samples(
    samples: list[CbowSample], vocab: Vocabulary, id_prefix: str = ""
) -> list[EncodedCbow]:
    return [
        EncodedCbow(
            sample_id=f"{id_prefix}#{i}",
            target=vocab.encode(s.target),
            context=vocab.encode_all(s.context),
        )
        for i, s in enumerate(samples)
    ]


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> nn.Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return nn.Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, dtype=dtype)


class PathAttentionModel:
    kind = CS

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

    def params(self) -> dict[str, nn.Tensor]:
        return self._params

    def affine_layers(self) -> list[tuple[str, str]]:
        return [("w_comb", "b_comb"), ("w_out", "b_out")]

    def n_classes(self) -> int:
        return len(self.labels)

    def clone(self) -> "PathAttentionModel":
        twin = PathAttentionModel(
            self.terminals, self.paths, self.labels, dim=self.dim, dropout_p=self.dropout_p
        )
        for name, p in self._params.items():
            twin._params[name] = nn.Tensor(p.data.copy(), requires_grad=True)
        return twin

    def forward_batch(
        self,
        left: np.ndarray,
        path: np.ndarray,
        right: np.ndarray,
        mask: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        dropout_p: float | None = None,
    ) -> dict[str, nn.Tensor]:
        """left/path/right (B, n) int ids, mask (B, n) bool; True = real context."""
        if not mask.any(axis=-1).all():
            raise ValueError("empty context bag in batch")
        p = self._params
        e_left = nn.embedding_lookup(p["term_emb"], left)
        e_path = nn.embedding_lookup(p["path_emb"], path)
        e_right = nn.embedding_lookup(p["term_emb"], right)
        cat = nn.concat_last([e_left, e_path, e_right])
        combined = nn.tanh(nn.affine(cat, p["w_comb"], p["b_comb"]))
        dropped = nn.dropout(
            combined, self.dropout_p if dropout_p is None else dropout_p, training, rng
        )
        pooled, weights = nn.attention_pool(dropped, p["attn"], mask=mask)
        logits = nn.affine(pooled, p["w_out"], p["b_out"])
        probs = nn.softmax(logits)
        maskf = nn.Tensor(mask.astype(combined.data.dtype)[..., None])
        counts = nn.Tensor((1.0 / mask.sum(axis=-1)).astype(combined.data.dtype)[:, None])
        embed_mean = nn.mul(nn.sum_axis(nn.mul(combined, maskf), axis=-2), counts)
        return {
            "probs": probs,
            "logits": logits,
            "contexts": combined,
            "weights": weights,
            "pooled": pooled,
            "embed_mean": embed_mean,
        }


class MlpCompletionModel:
    kind = CC

    def __init__(self, tokens: Vocabulary, dim: int = 100, seed: int = 0, dtype=np.float32):
        self.tokens = tokens
        self.dim = dim
        self.dropout_p = 0.0  # no dropout layer in this architecture
        rng = np.random.default_rng([seed, 0xCC])
        self._params = {
            "token_emb": _uniform_init(rng, (len(tokens), dim), dim, dtype),
            "w_out": _uniform_init(rng, (dim, len(tokens)), dim, dtype),
            "b_out": nn.Tensor(np.zeros(len(tokens)), requires_grad=True, dtype=dtype),
        }

    def params(self) -> dict[str, nn.Tensor]:
        return self._params

    def affine_layers(self) -> list[tuple[str, str]]:
        return [("w_out", "b_out")]

    def n_classes(self) -> int:
        return len(self.tokens)

    def clone(self) -> "MlpCompletionModel":
        twin = MlpCompletionModel(self.tokens, dim=self.dim)
        for name, p in self._params.items():
            twin._params[name] = nn.Tensor(p.data.copy(), requires_grad=True)
        return twin

    def forward_batch(
        self,
        context: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        dropout_p: float = 0.0,
    ) -> dict[str, nn.Tensor]:
        """context (B, 2w) int ids; PAD slots are masked out of the mean.

        `dropout_p` exists only so MC-Dropout can inject a stochastic site
        after the embedding mean at score time; training never uses it.
        """
        p = self._params
        real = context != PAD_ID
        counts = real.sum(axis=-1)
        if not counts.all():
            raise ValueError("all-PAD context in batch")
        emb = nn.embedding_lookup(p["token_emb"], context)
        maskf = nn.Tensor(real.astype(emb.data.dtype)[..., None])
        summed = nn.sum_axis(nn.mul(emb, maskf), axis=-2)
        embed_mean = nn.mul(summed, nn.Tensor((1.0 / counts).astype(emb.data.dtype)[:, None]))
        h = nn.dropout(embed_mean, dropout_p, training, rng)
        logits = nn.affine(h, p["w_out"], p["b_out"])
        probs = nn.softmax(logits)
        return {"probs": probs, "logits": logits, "embed_mean": embed_mean}


Model = PathAttentionModel | MlpCompletionModel


# -- batching ------------------------------------------------------------


def batch_cs(samples: list[EncodedMethod]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    width = max(len(s.left) for s in samples)
    B = len(samples)
    left = np.full((B, width), PAD_ID, dtype=np.int64)
    path = np.full((B, width), PAD_ID, dtype=np.int64)
    right = np.full((B, width), PAD_ID, dtype=np.int64)
    mask = np.zeros((B, width), dtype=bool)
    labels = np.zeros(B, dtype=np.int64)
    for i, s in enumerate(samples):
        n = len(s.left)
        left[i, :n] = s.left
        path[i, :n] = s.path
        right[i, :n] = s.right
        mask[i, :n] = True
        labels[i] = s.label
    return left, path, right, mask, labels


def batch_cc(samples: list[EncodedCbow]) -> tuple[np.ndarray, np.ndarray]:
    context = np.stack([s.context for s in samples])
    targets = np.array([s.target for s in samples], dtype=np.int64)
    return context, targets


# -- inference over a split ----------------------------------------------


def infer(
    model: Model,
    samples: list,
    batch_size: int = 512,
    keys: tuple[str, ...] = ("probs",),
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_p: float | None = None,
) -> dict[str, np.ndarray]:
    """Batched no-grad forward over a sample list; concatenates `keys`."""
    chunks: dict[str, list[np.ndarray]] = {k: [] for k in keys}
    with nn.no_grad():
        for start in range(0, len(samples), batch_size):
            part = samples[start:start + batch_size]
            if model.kind == CS:
                left, path, right, mask, _ = batch_cs(part)
                out = model.forward_batch(
                    left, path, right, mask, training=training, rng=rng, dropout_p=dropout_p
                )
            else:
                context, _ = batch_cc(part)
                out = model.forward_batch(
                    context, training=training, rng=rng,
                    dropout_p=0.0 if dropout_p is None else dropout_p,
                )
            for k in keys:
                chunks[k].append(out[k].data)
    return {k: np.concatenate(v, axis=0) for k, v in chunks.items()}


def true_labels(samples: list) -> np.ndarray:
    if samples and isinstance(samples[0], EncodedMethod):
        return np.array([s.label for s in samples], dtype=np.int64)
    return np.array([s.target for s in samples], dtype=np.int64)


def evaluate_accuracy(model: Model, samples: list, batch_size: int = 512) -> float:
    """Exact-match accuracy in percent; UNK true labels count as failures."""
    if not samples:
        raise ValueError("cannot evaluate accuracy on an empty split")
    probs = infer(model, samples, batch_size=batch_size)["probs"]
    preds = probs.argmax(axis=-1)
    labels = true_labels(samples)
    correct = (preds == labels) & (labels != UNK_ID)
    return float(correct.mean() * 100.0)


# -- training --------------------------------------------------------------


@dataclass
class TrainResult:
    model: Model
    history: list[dict] = field(default_factory=list)


def _train_loop(model: Model, samples: list, config: TrainConfig, val_samples: list | None) -> TrainResult:
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
            part = [samples[i] for i in order[start:start + config.batch_size]]
            nn.zero_grads(params.values())
            if model.kind == CS:
                left, path, right, mask, labels = batch_cs(part)
                out = model.forward_batch(left, path, right, mask, training=True, rng=drop_rng)
            else:
                context, labels = batch_cc(part)
                out = model.forward_batch(context, training=True, rng=drop_rng)
            loss = nn.mean(nn.cross_entropy(out["probs"], labels))
            nn.backward(loss)
            grads = {name: p.grad for name, p in params.items() if p.grad is not None}
            nn.adam_step(params, grads, state)
            losses.append(float(loss.data))
        row = {
            "epoch": epoch + 1,
            "train_acc": evaluate_accuracy(model, samples, config.batch_size),
            "val_acc": evaluate_accuracy(model, val_samples, config.batch_size) if val_samples else None,
            "loss": float(np.mean(losses)),
        }
        history.append(row)
    return TrainResult(model=model, history=history)


def train_cs(
    samples: list[EncodedMethod],
    terminals: Vocabulary,
    paths: Vocabulary,
    labels: Vocabulary,
    config: TrainConfig,
    val_samples: list[EncodedMethod] | None = None,
) -> TrainResult:
    model = PathAttentionModel(
        terminals, paths, labels,
        dim=config.embedding_dim, dropout_p=config.dropout, seed=config.seed,
    )
    return _train_loop(model, samples, config, val_samples)


def train_cc(
    samples: list[EncodedCbow],
    tokens: Vocabulary,
    config: TrainConfig,
    val_samples: list[EncodedCbow] | None = None,
) -> TrainResult:
    model = MlpCompletionModel(tokens, dim=config.embedding_dim, seed=config.seed)
    return _train_loop(model, samples, config, val_samples)


def write_epoch_log(history: list[dict], path, config_hash: str | None = None) -> None:
    """Per-epoch CSV: epoch,train_acc,val_acc,loss."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if config_hash:
            f.write(f"# config_hash={config_hash}\n")
        f.write("epoch,train_acc,val_acc,loss\n")
        for row in history:
            val = "" if row["val_acc"] is None else repr(row["val_acc"])
            f.write(f"{row['epoch']},{row['train_acc']!r},{val},{row['loss']!r}\n")


# -- model checkpoints -------------------------------------------------------


def save_checkpoint(model: Model, train_config: dict | None = None) -> bytes:
    config = {"dim": model.dim, "dropout_p": model.dropout_p}
    if train_config:
        config["train"] = train_config
    if model.kind == CS:
        vocabs = {
            "terminals": model.terminals.tokens,
            "paths": model.paths.tokens,
            "labels": model.labels.tokens,
        }
    else:
        vocabs = {"tokens": model.tokens.tokens}
    arrays = {name: p.data for name, p in model.params().items()}
    return nn.write_checkpoint(model.kind, config, vocabs, arrays)


def load_checkpoint(data: bytes, expect_kind: str | None = None) -> Model:
    ck = nn.read_checkpoint(data, expect_kind=expect_kind)
    if ck.kind == CS:
        model = PathAttentionModel(
            Vocabulary.from_tokens(ck.vocabs["terminals"]),
            Vocabulary.from_tokens(ck.vocabs["paths"]),
            Vocabulary.from_tokens(ck.vocabs["labels"]),
            dim=ck.config["dim"],
            dropout_p=ck.config["dropout_p"],
        )
    elif ck.kind == CC:
        model = MlpCompletionModel(Vocabulary.from_tokens(ck.vocabs["tokens"]), dim=ck.config["dim"])
    else:
        raise nn.CheckpointError(f"unknown model kind {ck.kind!r}")
    for name, p in model.params().items():
        if name not in ck.arrays:
            raise nn.CheckpointError(f"checkpoint missing parameter {name!r}")
        if ck.arrays[name].shape != p.data.shape:
            raise nn.CheckpointError(
                f"parameter {name!r} has shape {ck.arrays[name].shape}, expected {p.data.shape}"
            )
        p.data = ck.arrays[name]
    model.config_echo = ck.config
    return model
