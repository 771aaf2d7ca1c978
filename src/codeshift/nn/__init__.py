"""Minimal dense neural-network engine: tensors, ops, Adam, checkpoints."""

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointKindError,
    read_checkpoint,
    write_checkpoint,
)
from .ops import (
    ShapeError,
    add,
    affine,
    attention_pool,
    concat_last,
    cross_entropy,
    distinct_rows,
    dropout,
    embedding_lookup,
    embedding_sum_tanh,
    linear,
    mean,
    mul,
    row_slice,
    softmax,
    tanh,
)
from .optim import AdamState, adam_step
from .tensor import Tensor, backward, no_grad, zero_grads

__all__ = [
    "AdamState",
    "Checkpoint",
    "CheckpointError",
    "CheckpointKindError",
    "ShapeError",
    "Tensor",
    "adam_step",
    "add",
    "affine",
    "attention_pool",
    "backward",
    "concat_last",
    "cross_entropy",
    "distinct_rows",
    "dropout",
    "embedding_lookup",
    "embedding_sum_tanh",
    "linear",
    "mean",
    "mul",
    "no_grad",
    "read_checkpoint",
    "row_slice",
    "softmax",
    "tanh",
    "write_checkpoint",
    "zero_grads",
]
