"""Deterministic binary checkpoints.

Layout (little-endian):
  magic "DASR" | u32 version | u8 stage tag (1 or 2)
  u32 config length | config UTF-8 JSON (sorted keys)
  repeated until EOF:
    u16 name length | name bytes | u8 rank | u32 dims... | float32 payload
Tensors are written in sorted-name order, so identical state always
produces identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"DASR"
VERSION = 1

_STAGE_TAGS = {"stage1": 1, "stage2": 2}
_TAG_STAGES = {v: k for k, v in _STAGE_TAGS.items()}


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    stage: str
    config: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    version: int = VERSION

    def __post_init__(self):
        if self.stage not in _STAGE_TAGS:
            raise CheckpointError(f"unknown stage tag {self.stage!r}")


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to a temp file next to ``path``, then rename it over
    ``path``: a failed or interrupted write leaves the previous file whole
    and no temp file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    atomic_write(path, checkpoint_bytes(ckpt))


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", ckpt.version)
    out += struct.pack("<B", _STAGE_TAGS[ckpt.stage])
    cfg = json.dumps(ckpt.config, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    out += struct.pack("<I", len(cfg))
    out += cfg
    for name in sorted(ckpt.tensors):
        arr = np.ascontiguousarray(ckpt.tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            out += struct.pack("<I", d)
        out += arr.tobytes()
    return bytes(out)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return struct.unpack("<B", self.take(1, what))[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def done(self) -> bool:
        return self.pos == len(self.blob)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: bad magic (not a checkpoint file)")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(
            f"{path}: version mismatch (file {version}, supported {VERSION})")
    tag = r.u8("stage tag")
    if tag not in _TAG_STAGES:
        raise CheckpointError(f"{path}: unknown stage tag {tag}")
    cfg_len = r.u32("config length")
    try:
        config = json.loads(r.take(cfg_len, "config").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from exc

    tensors: dict[str, np.ndarray] = {}
    while not r.done():
        nlen = r.u16("tensor name length")
        try:
            name = r.take(nlen, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: bad tensor name: {exc}") from exc
        rank = r.u8(f"rank of {name!r}")
        dims = tuple(r.u32(f"dim of {name!r}") for _ in range(rank))
        count = math.prod(dims)  # exact; an int64 product can wrap to 0
        payload = r.take(4 * count, f"payload of {name!r}")
        arr = np.frombuffer(payload, dtype="<f4").astype(np.float32)
        if arr.size != count:
            raise CheckpointError(
                f"{path}: tensor {name!r} payload length {arr.size} != "
                f"dims product {count}")
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = arr.reshape(dims)
    return Checkpoint(stage=_TAG_STAGES[tag], config=config,
                      tensors=tensors, version=version)
