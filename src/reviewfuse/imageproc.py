"""Image loading and preprocessing: PPM decode, bilinear resize, center crop,
and ImageNet-style channel normalization.

Images stay 8-bit until normalization: RGB arrays (H x W x 3) through the
resize, then the center crop's bytes channels-first (3 x S x S), which is
what a prepared dataset stores. ``normalize_batch`` maps a B x 3 x S x S
batch of crops to the float32 batch the CNN encoder takes, through a
per-channel 256-entry table that ``normalize_channels`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .errors import DimensionError, FormatError, ParameterError

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)


@dataclass
class RawImage:
    """8-bit RGB image, row-major from top-left."""
    width: int
    height: int
    pixels: np.ndarray  # uint8, shape (height, width, 3)

    def __post_init__(self):
        if self.pixels.shape != (self.height, self.width, 3):
            raise DimensionError(
                f"pixel buffer {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x3"
            )


def load_ppm(path) -> RawImage:
    """Decode a binary PPM (P6, maxval 255)."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
        tokens.append(blob[start:pos])
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
    body = blob[pos:pos + need]
    if len(body) < need:
        raise FormatError(
            f"{path}: short pixel body at offset {pos + len(body)} "
            f"(expected {need} bytes)"
        )
    if len(blob) > pos + need:
        raise FormatError(f"{path}: {len(blob) - pos - need} trailing bytes "
                          f"after the pixel body at offset {pos + need}")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3).copy()
    return RawImage(width=width, height=height, pixels=pixels)


def save_ppm(img: RawImage, path) -> None:
    """Write a binary PPM (P6, maxval 255), bit-exact format."""
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        fh.write(img.pixels.astype(np.uint8).tobytes())


def resize_bilinear(img: RawImage, side: int) -> RawImage:
    """Resize to side x side with half-pixel-center bilinear interpolation."""
    if side < 1:
        raise ParameterError(f"resize side must be >= 1, got {side}")
    if img.width == side and img.height == side:
        return RawImage(side, side, img.pixels.copy())
    src = img.pixels.astype(np.float64)

    def coords(n_src, n_dst):
        # half-pixel alignment: dst center i maps to (i + 0.5) * scale - 0.5
        c = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
        c = np.clip(c, 0.0, n_src - 1.0)
        lo = np.floor(c).astype(np.int64)
        hi = np.minimum(lo + 1, n_src - 1)
        return lo, hi, (c - lo)

    y0, y1, fy = coords(img.height, side)
    x0, x1, fx = coords(img.width, side)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    out = top * (1 - fy) + bot * fy
    pixels = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return RawImage(side, side, pixels)


def center_crop(img: RawImage, side: int) -> RawImage:
    """Crop the centered side x side window."""
    if side > min(img.width, img.height):
        raise DimensionError(
            f"crop side {side} exceeds image {img.width}x{img.height}"
        )
    oy = (img.height - side) // 2
    ox = (img.width - side) // 2
    return RawImage(side, side, img.pixels[oy:oy + side, ox:ox + side].copy())


def normalize_channels(img: RawImage,
                       mean: tuple[float, float, float] = IMAGENET_MEAN,
                       std: tuple[float, float, float] = IMAGENET_STD,
                       dtype=np.float32) -> Tensor:
    """(pixel/255 - mean) / std per channel; layout becomes 3 x H x W."""
    if any(s <= 0 for s in std):
        raise ParameterError(f"std components must be > 0, got {std}")
    scaled = img.pixels.astype(np.float64) / 255.0
    normed = (scaled - np.asarray(mean)) / np.asarray(std)
    return Tensor(normed.transpose(2, 0, 1), dtype=dtype)


def decode_crop(path, crop_side: int = 32) -> np.ndarray:
    """Load -> resize to crop_side * 8/7 -> center crop; the crop's bytes,
    channels-first: a (3, crop_side, crop_side) uint8 array."""
    img = load_ppm(path)
    resize_side = max(crop_side, round(crop_side * 8 / 7))
    img = center_crop(resize_bilinear(img, resize_side), crop_side)
    return img.pixels.transpose(2, 0, 1)


def _norm_table() -> np.ndarray:
    ramp = np.repeat(np.arange(256, dtype=np.uint8), 3).reshape(1, 256, 3)
    table = normalize_channels(RawImage(256, 1, ramp)).data[:, 0, :].copy()
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


def preprocess(path, crop_side: int = 32) -> Tensor:
    """One file through the transform that every batch of training, eval
    and predict goes through: ``decode_crop`` then ``normalize_batch``, as
    a 3 x S x S float32 tensor."""
    return Tensor(normalize_batch(decode_crop(path, crop_side)[np.newaxis])[0])
