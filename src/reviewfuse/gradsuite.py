"""Finite-difference oracle suite behind the ``gradcheck`` subcommand.

Each component check builds a tiny instance of one layer type in float64 and
compares autodiff gradients against central differences (threshold 1e-6).
Between them their graphs hold every op of a desk training step, dropout
included.
The final check runs the full fused model in float32 against a float64
finite-difference twin (threshold 1e-3, since f32 forward noise dominates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor, grad_check
from .fusion import FusionConfig, fusion_layout
from .image_encoder import ImageEncoderConfig, image_encoder_layout, residual_block
from .model import ReviewClassifier
from .text_encoder import TextEncoderConfig, encoder_block, text_encoder_layout

F64_THRESHOLD = 1e-6
F32_THRESHOLD = 1e-3


@dataclass
class CheckResult:
    name: str
    error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.error < self.threshold


def _check_matmul(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    return grad_check(lambda: ag.matmul(a, b), [a, b])


def _check_conv2d(rng):
    # channel-major, two images of odd side: uneven stride-2 phases
    x = Tensor(rng.normal(size=(2, 2, 7, 7)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    return grad_check(lambda: ag.conv2d(x, k, stride=2, pad=1), [x, k])


def _check_layer_norm(rng):
    # the post-LN form: the residual add inside the norm
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    r = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    g = Tensor(rng.normal(size=6), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    return grad_check(lambda: ag.layer_norm(x, r, g, b), [x, r, g, b])


def _check_channel_norm(rng):
    # the fused form a residual block ends in: affine, shortcut add, ReLU
    x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    g = Tensor(rng.normal(size=2), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    r = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    return grad_check(lambda: ag.channel_norm(x, g, b, residual=r),
                      [x, g, b, r])


def _check_attention_block(rng, cls_only=False):
    cfg = TextEncoderConfig(vocab_size=11, d_model=8, n_layers=1, n_heads=2,
                            d_ff=12, max_len=5, dropout_p=0.25)
    p = ag.init_params(text_encoder_layout(cfg), rng, np.float64)
    # two sequences of five positions, with one and three PAD positions
    mask = np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0]])
    x = Tensor(rng.normal(size=(10, 8)), requires_grad=True)
    # both dropout sites on, the same uniforms on every call
    u = rng.random((2, 2 if cls_only else 10, 8))
    block_params = [v for k, v in p.items() if k.startswith("l0.")]
    return grad_check(lambda: encoder_block(x, mask, p, 0, cfg, u, cls_only),
                      block_params + [x])


def _check_residual_block(rng):
    cfg = ImageEncoderConfig(input_side=5, stem_channels=2, stages=[(1, 3, 2)])
    p = ag.init_params(image_encoder_layout(cfg), rng, np.float64)
    p["s0.b0.norm2_g"].data[:] = 0.6  # off zero so both convs participate
    x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    block_params = [v for k, v in p.items() if k.startswith("s0.b0.")]
    return grad_check(
        lambda: ag.global_avg_pool(residual_block(x, p, "s0.b0.", stride=2)),
        block_params + [x])


def _check_embedding(rng):
    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    ids = [0, 3, 3, 6]  # repeated id exercises scatter-add
    return grad_check(lambda: ag.embedding_lookup(table, ids), [table])


def _check_embed_tokens(rng):
    tok = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    pos = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    # repeated ids and [PAD] (id 0) positions, at B=2 and at B=1
    batches = [np.array([[2, 3, 3, 0, 0], [2, 6, 0, 0, 0]]),
               np.array([[2, 4, 0, 0, 0]])]
    return max(grad_check(lambda: ag.embed_tokens(tok, pos, ids), [tok, pos])
               for ids in batches)


def _check_cross_entropy(rng):
    logits = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    return grad_check(lambda: ag.cross_entropy(logits, [0, 1, 1, 0]), [logits])


def _check_fusion_head(rng):
    cfg = FusionConfig(d_in=4 + 3, d_hidden=5)
    p = ag.init_params(fusion_layout(cfg), rng, np.float64)
    # the fused features: text columns, then image columns
    t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    im = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    return grad_check(
        lambda: ag.cross_entropy(ag.mlp_head(ag.concat_cols(t, im),
                                             p["head.w1"], p["head.b1"],
                                             p["head.w2"], p["head.b2"]),
                                 [0, 1, 1]),
        list(p.values()) + [t, im])


def _full_model_pair(seed):
    text_cfg = TextEncoderConfig(vocab_size=12, d_model=8, n_layers=1,
                                 n_heads=2, d_ff=12, max_len=6, dropout_p=0.0)
    image_cfg = ImageEncoderConfig(input_side=8, stem_channels=3,
                                   stages=[(1, 3, 1), (1, 4, 2)])
    m32 = ReviewClassifier("fused", text_cfg, image_cfg, d_hidden=6,
                           seed=seed, dtype=np.float32)
    m64 = ReviewClassifier("fused", text_cfg, image_cfg, d_hidden=6,
                           seed=seed, dtype=np.float64)
    # move the zero-init branch gains off the ReLU kink: finite differences
    # are only valid away from non-smooth points
    for m in (m32, m64):
        for name, t in m.params.items():
            if name.endswith("norm2_g"):
                t.data[:] = 0.5
    return m32, m64


def _check_full_model_f32(rng):
    m32, m64 = _full_model_pair(int(rng.integers(0, 2 ** 31)))
    reviews = np.array([[2, 5, 7, 4, 3, 0], [2, 9, 3, 0, 0, 0]], dtype=np.int32)
    # both models read the same pixels: float32 values, cast up exactly in m64
    crops = rng.integers(0, 256, size=(2, 3, 8, 8), dtype=np.uint8)
    labels = [1, 0]

    def f32():
        return ag.cross_entropy(m32.forward_batch(reviews, crops), labels)

    def f64():
        return ag.cross_entropy(m64.forward_batch(reviews, crops), labels)

    # float32 noise floor: parameters whose true gradient is ~0 keep a
    # ~1e-10 rounding residue that is meaningless against the f64 oracle
    return grad_check(f32, m32.params.values(),
                      fd_f=f64, fd_params=m64.params.values(), floor=1e-5)


_F64_CHECKS = [
    ("matmul", _check_matmul),
    ("conv2d", _check_conv2d),
    ("layer_norm", _check_layer_norm),
    ("channel_norm", _check_channel_norm),
    ("attention_block", _check_attention_block),
    # the last block's form: [CLS] queries, keys and values from every row
    ("cls_block", lambda rng: _check_attention_block(rng, cls_only=True)),
    ("residual_block", _check_residual_block),
    ("embedding", _check_embedding),
    ("embed_tokens", _check_embed_tokens),
    ("cross_entropy", _check_cross_entropy),
    ("fusion_head", _check_fusion_head),
]


def run_gradcheck(seed: int = 0) -> list[CheckResult]:
    """Run every component check plus the full-model check; never raises on
    threshold breaches — callers inspect ``CheckResult.passed``."""
    def best_of(fn, idx, threshold):
        # the contract holds at random points *away from kinks*; a draw can
        # land with a ReLU pre-activation inside the FD step, so retry on a
        # fresh substream before declaring failure
        best = np.inf
        for attempt in range(3):
            rng = np.random.default_rng([seed, idx, attempt])
            best = min(best, float(fn(rng)))
            if best < threshold:
                break
        return best

    results = []
    for i, (name, fn) in enumerate(_F64_CHECKS):
        results.append(CheckResult(name, best_of(fn, i, F64_THRESHOLD),
                                   F64_THRESHOLD))
    results.append(CheckResult(
        "full_model_f32",
        best_of(_check_full_model_f32, len(_F64_CHECKS), F32_THRESHOLD),
        F32_THRESHOLD))
    return results
