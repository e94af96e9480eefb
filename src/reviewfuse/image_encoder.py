"""Small residual CNN with global average pooling.

Basic two-conv blocks (3x3 / 3x3) with per-channel spatial normalization
instead of batch norm, so evaluation is fully deterministic. Activations are
channel-major, C x B x H x W, from the stem to the pooling. The last norm
gain of every residual branch starts at zero, making each block an identity
map at initialization. Stride-2 blocks and channel changes use a 1x1
projection shortcut.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import DimensionError, ParameterError
from .imageproc import DESK_CROP_SIDE


@dataclass
class ImageEncoderConfig:
    input_side: int = DESK_CROP_SIDE
    stem_channels: int = 16
    # (blocks, channels, stride of the stage's first block)
    stages: list[tuple[int, int, int]] = field(
        default_factory=lambda: [(2, 16, 1), (2, 32, 2), (2, 64, 2)])

    def __post_init__(self):
        self.stages = [tuple(s) for s in self.stages]
        extents = (self.input_side, self.stem_channels,
                   *(n for s in self.stages for n in s))
        if not self.stages or any(type(n) is not int for n in extents):
            raise ParameterError("image encoder needs integer extents and a stage")
        for blocks, channels, stride in self.stages:
            if stride not in (1, 2):
                raise ParameterError(f"stage stride must be 1 or 2, got {stride}")
            if blocks < 1 or channels < 1:
                raise ParameterError("stage blocks/channels must be positive")

    @property
    def d_out(self) -> int:
        """The pooled width: the last stage's channel count."""
        return self.stages[-1][1]


def paper_scale_image_config() -> ImageEncoderConfig:
    """ResNet-50-shaped contract: 224 input, 2048-d pooled output."""
    return ImageEncoderConfig(input_side=224, stem_channels=64,
                              stages=[(2, 256, 1), (2, 512, 2), (2, 1024, 2),
                                      (2, 2048, 2)])


def image_encoder_layout(cfg: ImageEncoderConfig):
    """``(name, shape, init)`` of every parameter in draw order, for
    ``autograd.init_params``."""
    yield "stem.conv", (cfg.stem_channels, 3, 3, 3), "he"
    yield "stem.norm_g", (cfg.stem_channels,), "ones"
    yield "stem.norm_b", (cfg.stem_channels,), "zeros"
    c_in = cfg.stem_channels
    for si, (blocks, channels, stride) in enumerate(cfg.stages):
        for bi in range(blocks):
            pre = f"s{si}.b{bi}."
            yield pre + "conv1", (channels, c_in, 3, 3), "he"
            yield pre + "norm1_g", (channels,), "ones"
            yield pre + "norm1_b", (channels,), "zeros"
            yield pre + "conv2", (channels, channels, 3, 3), "he"
            # zero gain: the residual branch starts as a no-op
            yield pre + "norm2_g", (channels,), "zeros"
            yield pre + "norm2_b", (channels,), "zeros"
            if (stride != 1 and bi == 0) or channels != c_in:
                yield pre + "proj", (channels, c_in, 1, 1), "he"
            c_in = channels


def residual_block(x: Tensor, params: dict[str, Tensor], prefix: str,
                   stride: int = 1) -> Tensor:
    """conv3x3 -> norm -> relu -> conv3x3 -> norm, plus (projected) shortcut, relu.

    ``x`` is channel-major, C x B x H x W. Each norm carries the ReLU (and
    the second one the shortcut add) that follows it.
    """
    h = ag.conv2d(x, params[prefix + "conv1"], stride=stride, pad=1)
    h = ag.channel_norm(h, params[prefix + "norm1_g"], params[prefix + "norm1_b"])
    h = ag.conv2d(h, params[prefix + "conv2"], stride=1, pad=1)
    if prefix + "proj" in params:
        shortcut = ag.conv2d(x, params[prefix + "proj"], stride=stride, pad=0)
    else:
        shortcut = x
    return ag.channel_norm(h, params[prefix + "norm2_g"], params[prefix + "norm2_b"],
                           residual=shortcut)


# widest activation of one group of whole images in a graph-free CNN
# forward (``encode_image``): 4 desk-size images, 1 at paper scale. The
# groups are split between the caller and a worker thread per other CPU,
# so one group per thread is in flight.
EVAL_GROUP_BYTES = 256 * 1024


def eval_group(cfg: ImageEncoderConfig, itemsize: int) -> int:
    """Images per group of a graph-free forward: as many whole images as
    keep the widest activation within ``EVAL_GROUP_BYTES``, at least
    one."""
    side = cfg.input_side
    widest = max(3, cfg.stem_channels) * side * side
    for _, channels, stride in cfg.stages:
        side = (side - 1) // stride + 1  # a 3x3 conv, pad 1
        widest = max(widest, channels * side * side)
    return max(1, EVAL_GROUP_BYTES // (widest * itemsize))


def encode_image(params: dict[str, Tensor], cfg: ImageEncoderConfig,
                 img: Tensor) -> Tensor:
    """Normalized images, B x 3 x S x S -> B x d_out pooled features.

    Recording a graph, the batch runs as one pass. Without one
    (``autograd.no_grad``) it runs in groups of ``eval_group`` whole
    images, so an eval forward holds one group's activations per thread.
    The groups are dealt in turn to the caller and one thread per CPU of
    ``autograd._other_cpus``, the CPUs that ``autograd.beside`` places
    the threads it starts for the call on, with numpy's OpenBLAS pinned to
    one thread while the groups run (``autograd._one_blas_thread``); where
    it cannot be pinned, or there is no other CPU, the caller runs every
    group. Every op works image by image and each group writes its own
    rows, so the pooled rows are bitwise those of one pass, whatever the
    thread counts.
    """
    pixels = img.data
    if pixels.ndim != 4 or pixels.shape[-2:] != (cfg.input_side, cfg.input_side):
        raise DimensionError(
            f"input {pixels.shape} is not B x 3 x {cfg.input_side} x {cfg.input_side}"
        )
    bsz = pixels.shape[0]
    group = bsz if ag.grad_enabled() else eval_group(cfg, pixels.itemsize)
    if group >= bsz:
        return _forward(params, cfg, pixels)
    out = np.empty((bsz, cfg.d_out), dtype=pixels.dtype)
    starts = range(0, bsz, group)

    def run(share: range) -> None:
        for b0 in share:
            out[b0:b0 + group] = _forward(params, cfg, pixels[b0:b0 + group]).data

    workers = min(len(ag._other_cpus()), len(starts) - 1)
    with ag._one_blas_thread() as pinned:
        n = workers + 1 if pinned else 1
        with ag.beside(*(functools.partial(run, starts[t::n]) for t in range(1, n))):
            run(starts[::n])
    return Tensor(out)


def _forward(params: dict[str, Tensor], cfg: ImageEncoderConfig,
             pixels: np.ndarray) -> Tensor:
    """The CNN over a B x 3 x S x S batch. The batch is moved to
    channel-major order once, as data: no gradient flows back to the
    pixels."""
    x = Tensor(np.ascontiguousarray(pixels.transpose(1, 0, 2, 3)))
    x = ag.conv2d(x, params["stem.conv"], stride=1, pad=1)
    x = ag.channel_norm(x, params["stem.norm_g"], params["stem.norm_b"])
    for si, (blocks, channels, stride) in enumerate(cfg.stages):
        for bi in range(blocks):
            x = residual_block(x, params, f"s{si}.b{bi}.",
                               stride=stride if bi == 0 else 1)
    return ag.global_avg_pool(x)
