"""Length-prefixed binary checkpoint container.

Layout (all integers little-endian):

    magic    4 bytes  b"CSHF"
    version  u32      (currently 1)
    kind     u16 len + utf-8 bytes        model type tag ("cs" / "cc")
    config   u32 len + utf-8 JSON bytes   training/model config echo
    vocabs   u32 len + utf-8 JSON bytes   {name: [token, ...]} in id order
    nparams  u32
    then per parameter:
      name   u16 len + utf-8 bytes
      ndim   u8, dims u32 each
      data   float32 little-endian, row-major

Parameters are stored as 32-bit floats regardless of in-memory dtype.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"CSHF"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed, truncated, or wrong-version checkpoint data."""


class CheckpointKindError(CheckpointError):
    """Checkpoint holds a different model type than requested."""


@dataclass
class Checkpoint:
    kind: str
    config: dict
    vocabs: dict[str, list[str]]
    arrays: dict[str, np.ndarray]


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"text before offset {self.pos} is not UTF-8: {exc}") from exc

    def json_object(self) -> dict:
        try:
            value = json.loads(self.text(self.u32()))
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"JSON before offset {self.pos} is malformed: {exc}") from exc
        if not isinstance(value, dict):
            raise CheckpointError(f"JSON before offset {self.pos} is not an object")
        return value


def write_checkpoint(kind: str, config: dict, vocabs: dict[str, list[str]], arrays: dict[str, np.ndarray]) -> bytes:
    out = [MAGIC, struct.pack("<I", VERSION)]
    kind_b = kind.encode("utf-8")
    out.append(struct.pack("<H", len(kind_b)))
    out.append(kind_b)
    for blob in (config, vocabs):
        enc = json.dumps(blob, sort_keys=True, ensure_ascii=False).encode("utf-8")
        out.append(struct.pack("<I", len(enc)))
        out.append(enc)
    out.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        name_b = name.encode("utf-8")
        out.append(struct.pack("<H", len(name_b)))
        out.append(name_b)
        out.append(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            out.append(struct.pack("<I", dim))
        out.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(out)


def read_checkpoint(data: bytes, expect_kind: str | None = None) -> Checkpoint:
    """Parse a checkpoint; malformed data of any kind raises CheckpointError."""
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise CheckpointError("not a checkpoint: bad magic")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    kind = r.text(r.u16())
    if expect_kind is not None and kind != expect_kind:
        raise CheckpointKindError(f"checkpoint holds a {kind!r} model, expected {expect_kind!r}")
    config = r.json_object()
    vocabs = r.json_object()
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text(r.u16())
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        raw = r.take(4 * math.prod(shape))  # exact: np.prod would wrap on a corrupt shape
        try:
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        except ValueError as exc:  # an empty shape numpy cannot hold: too many or too large dims
            raise CheckpointError(f"parameter {name!r} has an unsupported shape: {exc}") from exc
    if r.pos != len(data):
        raise CheckpointError(f"trailing bytes after checkpoint payload ({len(data) - r.pos})")
    return Checkpoint(kind=kind, config=config, vocabs=vocabs, arrays=arrays)
