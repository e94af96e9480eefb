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
        fh.write(struct.pack("<II", VERSION, len(bundle.tensors)))
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
    """Decode a bundle, reading the tensor payloads straight into
    consecutive slices of one float32 buffer; every extent is checked
    against the file size first. A tensor holding NaN or Inf is a
    ``FormatError``."""
    with open(path, "rb") as fh:
        return _read_bundle(fh, os.fstat(fh.fileno()).st_size, path)


def _read_bundle(fh, size: int, path) -> ModelBundle:
    def truncated(what: str, at: int) -> FormatError:
        return FormatError(f"{path}: truncated while reading {what} at offset {at}")

    def take(n: int, what: str) -> bytes:
        # the next n bytes; the bound is checked before anything is read
        nonlocal pos
        if pos + n > size:
            raise truncated(what, pos)
        raw = fh.read(n)
        if len(raw) < n:  # the file shrank since fstat
            raise truncated(what, pos + len(raw))
        pos += n
        return raw

    if fh.read(4) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a model bundle")
    pos = 4  # the offset of the next unread byte
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} (want {VERSION})")
    tensors: dict[str, np.ndarray] = {}
    # every payload goes into the next slice of one buffer, which the file
    # size bounds; pages past the last payload are never touched
    payloads = np.empty(size // 4, _F4)
    used = 0
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        head = take(name_len + 4, "name and rank")
        name = _decode(head[:name_len], f"{path}: tensor name")
        (rank,) = struct.unpack_from("<I", head, name_len)
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, f"extents of {name}"))
        # exact Python ints, so the bound holds for extents like 2^62
        # (numpy's product wraps to 0)
        count_f4 = math.prod(shape)
        if pos + 4 * count_f4 > size:
            raise truncated(f"payload of {name}", pos)
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        flat = payloads[used:used + count_f4]
        try:
            tensors[name] = flat.reshape(shape)
        except ValueError as e:  # extents beyond what numpy can index
            raise FormatError(f"{path}: tensor {name!r} shape {shape}: {e}") from None
        if fh.readinto(flat.view(np.uint8)) != 4 * count_f4:
            raise truncated(f"payload of {name}", pos)
        used += count_f4
        pos += 4 * count_f4
    (cfg_len,) = struct.unpack("<Q", take(8, "config length"))
    text = _decode(take(cfg_len, "config"), f"{path}: config")
    if pos != size:
        raise FormatError(f"{path}: {size - pos} trailing bytes after the config")
    try:
        config = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"{path}: config is not valid JSON: {e}") from None
    if not isinstance(config, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    if not np.isfinite(payloads[:used]).all():
        name = next(k for k, a in tensors.items() if not np.isfinite(a).all())
        raise FormatError(f"bundle tensor {name} holds NaN or Inf")
    return ModelBundle(tensors=tensors, config=config)


def _decode(raw: bytes, what: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8: {e}") from None
