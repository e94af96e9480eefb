"""The classification head over fused (text then image) features, and the
label rule every prediction goes through."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import DimensionError, ParameterError


@dataclass
class FusionConfig:
    d_in: int  # the fused features: the encoders' widths summed
    d_hidden: int

    def __post_init__(self):
        if any(type(n) is not int for n in (self.d_in, self.d_hidden)):
            raise ParameterError("head extents must be integers")
        if self.d_in < 1:
            raise ParameterError("fused input dimension must be positive")
        if self.d_hidden < 1:
            raise ParameterError("d_hidden must be positive")


def paper_scale_fusion_config() -> FusionConfig:
    return FusionConfig(d_in=768 + 2048, d_hidden=512)  # BERT-base, ResNet-50


def fusion_layout(cfg: FusionConfig):
    """``(name, shape, init)`` of the head's parameters in draw order, for
    ``autograd.init_params``."""
    yield "head.w1", (cfg.d_in, cfg.d_hidden), "xavier"
    yield "head.b1", (cfg.d_hidden,), "zeros"
    yield "head.w2", (cfg.d_hidden, 2), "xavier"
    yield "head.b2", (2,), "zeros"


def classify_batch(params: dict[str, Tensor], cfg: FusionConfig,
                   fused: Tensor) -> Tensor:
    """B x d_in fused features -> B x 2 logits (linear, ReLU, linear), one
    ``mlp_head`` node."""
    if fused.data.ndim != 2 or fused.data.shape[1] != cfg.d_in:
        raise DimensionError(
            f"classify: fused shape {fused.data.shape}, expected (B, {cfg.d_in})"
        )
    return ag.mlp_head(fused, params["head.w1"], params["head.b1"],
                       params["head.w2"], params["head.b2"])


def predict_labels(logits) -> np.ndarray:
    """B x 2 logits -> B int labels by argmax; an exact tie goes to 0 (fake)."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionError(f"predict_labels expects B x 2 logits, got shape {arr.shape}")
    return (arr[:, 1] > arr[:, 0]).astype(np.int64)
