"""Bit-exact model file format.

Little-endian layout: magic "FKIT", u32 version, u32 tensor count; per
tensor u32 name length + UTF-8 name, u32 rank, rank x u64 extents, f32
row-major payload; then a JSON config block as u64 length + bytes, which
ends the file. Every decode fault raises ``FormatError``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

MAGIC = b"FKIT"
VERSION = 1


@dataclass
class ModelBundle:
    tensors: dict[str, np.ndarray]
    config: dict = field(default_factory=dict)
    version: int = VERSION


def save_bundle(bundle: ModelBundle, path) -> None:
    with open(path, "wb") as fh:
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
        blob = fh.read()

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(f"{path}: truncated while reading {what} at offset {pos}")
        out = blob[pos:pos + n]
        pos += n
        return out

    pos = 0
    if take(4, "magic") != MAGIC:
        raise FormatError(f"{path}: bad magic, not a model bundle")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} (want {VERSION})")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = _decode(take(name_len, "name"), f"{path}: tensor name")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, "extents"))
        # exact Python ints, so ``take`` bounds it against the bytes left
        # (numpy's product wraps to 0 for extents like 2^62)
        payload = take(4 * math.prod(shape), f"payload of {name}")
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        except ValueError as e:  # extents beyond what numpy can index
            raise FormatError(f"{path}: tensor {name!r} shape {shape}: {e}") from None
    (cfg_len,) = struct.unpack("<Q", take(8, "config length"))
    text = _decode(take(cfg_len, "config"), f"{path}: config")
    if pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - pos} trailing bytes after the config")
    try:
        config = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"{path}: config is not valid JSON: {e}") from None
    if not isinstance(config, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    return ModelBundle(tensors=tensors, config=config, version=version)


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8: {e}") from None
