"""Checkpoint persistence: bit-exact, language-neutral binary format.

Layout (all integers little-endian):

    4 bytes  magic "FSPT"
    u32      format version (currently 1)
    u32      training epoch counter
    u64      model RNG seed
    u32      spec text length, then that many UTF-8 bytes (ModelSpec text)
    u32      tensor count
    per tensor, in the model's node order:
        u16  qualified name length, then UTF-8 name ("node/param")
        u8   rank, then rank * u32 dims
        raw float32 little-endian payload (prod(dims) * 4 bytes)

Parameters and batch-norm running statistics are all stored, so a loaded
model's eval-mode forward is bit-identical to the saved one. A file must
hold exactly the model's tensors, each once, and nothing after the last.
"""
from __future__ import annotations

import io
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import CheckpointError, GraphError, ShapeError
from .graph import Model, ModelSpec

MAGIC = b"FSPT"
VERSION = 1


@contextmanager
def replacing(path, mode: str = "wb"):
    """A file written whole or not at all: the block writes ``<path>.tmp``,
    which then replaces ``path``; a block that raises removes it and leaves
    any earlier file at ``path`` as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, mode)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_checkpoint(model: Model, path) -> None:
    """Write ``model`` to ``path`` whole or not at all (see ``replacing``)."""
    spec_text = model.spec.to_text().encode("utf-8")
    tensors = model.state_tensors()
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIQ", VERSION, model.epoch, model.seed))
        fh.write(struct.pack("<I", len(spec_text)))
        fh.write(spec_text)
        fh.write(struct.pack("<I", len(tensors)))
        for name, value in tensors:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def _read_text(fh, n: int, what: str) -> str:
    """The next ``n`` bytes as UTF-8 text; a byte that does not decode is a
    CheckpointError naming the byte's offset in the file."""
    data = _read_exact(fh, n, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = fh.tell() - n + exc.start
        raise CheckpointError(f"{what} is not UTF-8 text at byte {offset}") from None


def load_checkpoint(path) -> Model:
    """Rebuild a Model from a checkpoint file.

    Raises CheckpointError with distinct messages for bad magic, unsupported
    versions, truncated files, model text or a tensor name that is not
    UTF-8, a tensor stored twice and trailing bytes; GraphError for
    malformed model text; ShapeError for a tensor set or shape that does not
    match the model. Each message begins with the file's path.
    """
    with open(path, "rb") as raw:
        fh = io.BytesIO(raw.read())
    try:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; not a conedrive checkpoint")
        version, epoch, seed = struct.unpack("<IIQ", _read_exact(fh, 16, "header"))
        if version != VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} (supported: {VERSION})")
        (spec_len,) = struct.unpack("<I", _read_exact(fh, 4, "spec length"))
        spec = ModelSpec.from_text(_read_text(fh, spec_len, "spec text"))
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "tensor name length"))
            name = _read_text(fh, name_len, "tensor name")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, f"rank of '{name}'"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"dims of '{name}'"))
            n_bytes = 4 * int(np.prod(dims, dtype=np.int64))
            payload = _read_exact(fh, n_bytes, f"payload of '{name}'")
            if name in tensors:
                raise CheckpointError(f"tensor '{name}' is stored twice")
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        trailing = len(fh.read())
        if trailing:
            raise CheckpointError(f"{trailing} trailing bytes after the last tensor")
        model = Model(spec, seed=seed)
        model.epoch = epoch
        model.load_state_tensors(tensors)
    except (CheckpointError, GraphError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return model
