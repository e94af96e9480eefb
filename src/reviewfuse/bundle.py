"""Bit-exact model file format.

Little-endian layout: magic "FKIT", u32 version, u32 tensor count; per
tensor u32 name length + UTF-8 name, u32 rank, rank x u64 extents, f32
row-major payload; then a JSON config block as u64 length + bytes, which
ends the file. Every decode fault raises ``FormatError``. Files are
written atomically (``atomic_open``).
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

MAGIC = b"FKIT"
VERSION = 1
_F4 = np.dtype("<f4")


@dataclass
class ModelBundle:
    tensors: dict[str, np.ndarray]
    config: dict = field(default_factory=dict)
    version: int = VERSION


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path`` for writing; on a clean exit it
    replaces ``path`` (``os.replace``), on an exception it is removed.

    Readers, and a run that fails midway, see the previous file or the
    complete new one, never a partial write.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def save_bundle(bundle: ModelBundle, path) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", bundle.version, len(bundle.tensors)))
        for name, arr in bundle.tensors.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        cfg = json.dumps(bundle.config, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<Q", len(cfg)))
        fh.write(cfg)


def load_bundle(path) -> ModelBundle:
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    size = len(blob)

    def truncated(what: str, pos: int) -> FormatError:
        return FormatError(f"{path}: truncated while reading {what} at offset {pos}")

    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic, not a model bundle")
    if size < 12:
        raise truncated("header", 4)
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} (want {VERSION})")
    pos = 12
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        if pos + 4 > size:
            raise truncated("name length", pos)
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + name_len + 4 > size:
            raise truncated("name and rank", pos)
        name = _decode(blob[pos:pos + name_len], f"{path}: tensor name")
        (rank,) = struct.unpack_from("<I", blob, pos + name_len)
        pos += name_len + 4
        if pos + 8 * rank > size:
            raise truncated(f"extents of {name}", pos)
        shape = struct.unpack_from(f"<{rank}Q", blob, pos)
        pos += 8 * rank
        # exact Python ints, so the bound holds for extents like 2^62
        # (numpy's product wraps to 0)
        count_f4 = math.prod(shape)
        if pos + 4 * count_f4 > size:
            raise truncated(f"payload of {name}", pos)
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        try:
            tensors[name] = np.ndarray(shape, _F4, blob, pos).copy()
        except ValueError as e:  # extents beyond what numpy can index
            raise FormatError(f"{path}: tensor {name!r} shape {shape}: {e}") from None
        pos += 4 * count_f4
    if pos + 8 > size:
        raise truncated("config length", pos)
    (cfg_len,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    if pos + cfg_len > size:
        raise truncated("config", pos)
    text = _decode(blob[pos:pos + cfg_len], f"{path}: config")
    pos += cfg_len
    if pos != size:
        raise FormatError(f"{path}: {size - pos} trailing bytes after the config")
    try:
        config = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"{path}: config is not valid JSON: {e}") from None
    if not isinstance(config, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    return ModelBundle(tensors=tensors, config=config, version=version)


def _decode(raw: memoryview, what: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8: {e}") from None
