"""Versioned binary checkpoints: config, parameters, optimizer moments, step.

Layout (little-endian throughout): magic ``RVLCKPT2``; u32 config-text
length + UTF-8 config; u64 step counter; u32 tensor count; then per tensor
a u32 name length, the UTF-8 name, u32 ndim, u64 dims, and the float64
payload.  Optimizer moments are stored as tensors named ``opt_m.<name>`` /
``opt_v.<name>``.  The seed is the config's own.

``RVLCKPT1`` files (per-head attention tensors and a copy of the seed in
the header) are rejected: their parameter names no longer exist.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Config
from .errors import ValidationError
from .optim import AdamState
from .tensor import Parameters

CHECKPOINT_MAGIC = b"RVLCKPT2"


@dataclass
class Checkpoint:
    config: Config
    step: int
    tensors: dict[str, np.ndarray]

    def load_into(self, params: Parameters, state: AdamState | None = None) -> None:
        """Copy the parameters, and with ``state`` the moments and step, in
        place.  Everything is checked before anything is written, so a
        rejected checkpoint leaves ``params`` and ``state`` as they were."""
        moments = []
        if state is not None:
            for name, tensor in params.items():
                for kind, dest in (("opt_m", state.m), ("opt_v", state.v)):
                    moment = self.tensors.get(f"{kind}.{name}")
                    if moment is None or moment.shape != tensor.shape:
                        raise ValidationError(f"checkpoint optimizer moment {kind}.{name} "
                                              f"is missing or not of shape {tensor.shape}")
                    moments.append((dest[name], moment))
        params.load_data({n: t for n, t in self.tensors.items() if not n.startswith("opt_")})
        for dest, moment in moments:
            dest[...] = moment
        if state is not None:
            state.t = self.step


def _write_tensor(fh, name: str, data: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack(f"<I{len(encoded)}sI{data.ndim}Q", len(encoded), encoded,
                         data.ndim, *data.shape))
    fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def save_checkpoint(path, config: Config, step: int, params: Parameters,
                    state: AdamState) -> None:
    """Write ``<path>.tmp``, sync it, rename it over ``path`` and sync the
    directory, so that a save cut off part-way leaves the previous
    checkpoint whole and a finished one survives a power cut."""
    tensors = [(name, tensor.data) for name, tensor in params.items()]
    tensors += [(f"{kind}.{name}", moments[name]) for name in params.names()
                for kind, moments in (("opt_m", state.m), ("opt_v", state.v))]
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            config_blob = config.to_text().encode("utf-8")
            fh.write(struct.pack("<I", len(config_blob)))
            fh.write(config_blob)
            fh.write(struct.pack("<Q", step))
            fh.write(struct.pack("<I", len(tensors)))
            for name, data in tensors:
                _write_tensor(fh, name, data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(Path(path).parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.blob):
            raise ValidationError(
                f"truncated checkpoint at byte offset {self.offset}")
        piece = self.blob[self.offset:self.offset + count]
        self.offset += count
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def text(self, count: int, what: str) -> str:
        start = self.offset
        try:
            return self.take(count).decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationError(
                f"checkpoint {what} at byte offset {start} is not UTF-8") from None


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    reader = _Reader(blob)
    magic = reader.take(8)
    if magic == b"RVLCKPT1":
        raise ValidationError("checkpoint format RVLCKPT1 is retired; retrain to "
                              "write RVLCKPT2")
    if magic != CHECKPOINT_MAGIC:
        raise ValidationError(f"bad checkpoint magic at offset 0: {magic!r}")
    config_len = reader.u32()
    config = Config.from_text(reader.text(config_len, "config"), source=str(path))
    step = reader.u64()
    count = reader.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        start = reader.offset
        name = reader.text(reader.u32(), "tensor name")
        if name in tensors:
            raise ValidationError(f"checkpoint names tensor {name!r} twice, again at "
                                  f"byte offset {start}")
        ndim = reader.u32()
        shape = tuple(reader.u64() for _ in range(ndim))
        # math.prod of Python ints cannot wrap, so a huge shape fails take().
        payload = reader.take(8 * math.prod(shape))
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:
            raise ValidationError(
                f"checkpoint tensor {name!r} has shape {shape}: {exc}") from None
        if not np.isfinite(tensors[name]).all():
            raise ValidationError(f"checkpoint tensor {name!r} holds non-finite values")
    if reader.offset != len(blob):
        raise ValidationError(
            f"trailing bytes in checkpoint at offset {reader.offset}")
    return Checkpoint(config=config, step=step, tensors=tensors)
