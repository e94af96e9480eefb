"""Image loading and preprocessing: PPM decode, bilinear resize, center crop,
and ImageNet-style channel normalization.

Images are plain numpy arrays throughout: H x W x 3 uint8 RGB from
``load_ppm`` through the resize, then the center crop's bytes
channels-first (3 x S x S), which ``preprocess`` returns for one file and a
prepared dataset stores. ``normalize_batch`` maps a B x 3 x S x S batch of
crops to the float32 batch the CNN encoder takes, through a per-channel
256-entry table that ``normalize_channels`` computes; a model that reads
images runs it on each batch of crops it is given.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DimensionError, FormatError, ParameterError

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)

# side of the square crop the CNN reads at desk scale
DESK_CROP_SIDE = 32


def load_ppm(path) -> np.ndarray:
    """Decode a binary PPM (P6, maxval 255) to its H x W x 3 uint8 pixels,
    a writable view of the one buffer the file is read into."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]  # a file that shrank since fstat
        blob += fh.read()  # or grew: its extra bytes are trailing bytes
    # header: magic, width, height, maxval tokens (comments allowed), then
    # exactly one whitespace byte before the pixel payload
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(blob):
            raise FormatError(f"{path}: truncated header at offset {pos}")
        ch = blob[pos:pos + 1]
        if ch.isspace():
            pos += 1
            continue
        if ch == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        tokens.append(bytes(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    if tokens[0] != b"P6":
        raise FormatError(f"{path}: not a P6 PPM (magic {tokens[0]!r} at offset 0)")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric header field") from exc
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    need = width * height * 3
    if len(blob) < pos + need:
        raise FormatError(f"{path}: short pixel body at offset "
                          f"{max(pos, len(blob))} (expected {need} bytes)")
    if len(blob) > pos + need:
        raise FormatError(f"{path}: {len(blob) - pos - need} trailing bytes "
                          f"after the pixel body at offset {pos + need}")
    return np.frombuffer(blob, dtype=np.uint8, count=need,
                         offset=pos).reshape(height, width, 3)


def encode_ppm(pixels: np.ndarray) -> bytes:
    """The bytes of H x W x 3 uint8 ``pixels`` as a binary PPM (P6,
    maxval 255)."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise DimensionError(f"a PPM holds an H x W x 3 uint8 array, got "
                             f"{pixels.dtype} {pixels.shape}")
    height, width, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (width, height) + pixels.tobytes()


def resize_bilinear(pixels: np.ndarray, side: int) -> np.ndarray:
    """Resize to side x side with half-pixel-center bilinear interpolation."""
    if side < 1:
        raise ParameterError(f"resize side must be >= 1, got {side}")
    height, width, _ = pixels.shape
    if width == side and height == side:
        return pixels.copy()

    def coords(n_src, n_dst):
        # half-pixel alignment: dst center i maps to (i + 0.5) * scale - 0.5
        c = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
        c = np.clip(c, 0.0, n_src - 1.0)
        lo = np.floor(c).astype(np.int64)
        hi = np.minimum(lo + 1, n_src - 1)
        return lo, hi, (c - lo)

    y0, y1, fy = coords(height, side)
    x0, x1, fx = coords(width, side)
    fy = fy[:, None, None]
    fx = fx[None, :, None]

    def taps(ys, xs):  # sampled bytes, then widened: memory follows side
        return pixels[np.ix_(ys, xs)].astype(np.float64)

    top = taps(y0, x0) * (1 - fx) + taps(y0, x1) * fx
    bot = taps(y1, x0) * (1 - fx) + taps(y1, x1) * fx
    out = top * (1 - fy) + bot * fy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def center_crop(pixels: np.ndarray, side: int) -> np.ndarray:
    """Crop the centered side x side window."""
    height, width, _ = pixels.shape
    if side > min(width, height):
        raise DimensionError(f"crop side {side} exceeds image {width}x{height}")
    oy = (height - side) // 2
    ox = (width - side) // 2
    return pixels[oy:oy + side, ox:ox + side].copy()


def normalize_channels(pixels: np.ndarray) -> np.ndarray:
    """(pixel/255 - mean) / std per channel with the ImageNet mean and std,
    in float32; an H x W x 3 image becomes 3 x H x W."""
    scaled = pixels.astype(np.float64) / 255.0
    normed = (scaled - np.asarray(IMAGENET_MEAN)) / np.asarray(IMAGENET_STD)
    return normed.transpose(2, 0, 1).astype(np.float32)


def preprocess(path, crop_side: int) -> np.ndarray:
    """One file's step of the image transform that training, eval and
    predict share: load -> resize to ``resize_side(crop_side)`` -> center
    crop; the crop's bytes, channels-first: a (3, crop_side, crop_side)
    uint8 array. ``normalize_batch`` is the other step."""
    crop = center_crop(resize_bilinear(load_ppm(path), resize_side(crop_side)),
                       crop_side)
    return crop.transpose(2, 0, 1)


def resize_side(crop_side: int) -> int:
    """The side ``preprocess`` resizes to before its center crop: 8/7 of it."""
    return max(crop_side, round(crop_side * 8 / 7))


def _norm_table() -> np.ndarray:
    ramp = np.repeat(np.arange(256, dtype=np.uint8), 3).reshape(1, 256, 3)
    table = normalize_channels(ramp)[:, 0, :].copy()
    table.flags.writeable = False
    return table


# NORM_TABLE[c, v]: normalize_channels' float32 value of byte v in channel c,
# which depends on nothing else, so a lookup is bitwise the formula
NORM_TABLE = _norm_table()


def normalize_batch(crops: np.ndarray) -> np.ndarray:
    """(B, 3, S, S) uint8 crops -> the float32 batch of their
    ``normalize_channels`` values, one table lookup per channel."""
    out = np.empty(crops.shape, dtype=np.float32)
    # a byte is always in range, so "clip" changes no index; it skips the
    # bounds check
    for c in range(3):
        np.take(NORM_TABLE[c], crops[:, c], out=out[:, c], mode="clip")
    return out
