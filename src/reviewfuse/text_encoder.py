"""Small transformer encoder with [CLS] pooling.

Post-layer-norm blocks (attention + residual + LN, then FFN + residual + LN,
the FFN one ``autograd.mlp_head`` node), learned positional embeddings,
additive -1e9 attention mask on padded positions. A batch runs as one
(B*L, d_model) activation, with heads as an axis inside ``autograd.attention``.
The row at position 0 ([CLS]) of each sequence is its review embedding.

Only the [CLS] rows leave the encoder, so the last block computes no other
row: its keys and values still come from all B*L rows, but its queries,
output projection, residual adds, layer norms and FFN run on the B [CLS]
rows alone (the last-layer case of PoWER-BERT's word-vector elimination,
Goyal et al. 2020, arXiv:2001.08950). This is exact in real arithmetic;
in float32 the smaller products may round differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import DimensionError, ParameterError
from .textproc import DESK_MAX_LEN, PAD_ID


@dataclass
class TextEncoderConfig:
    vocab_size: int
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 64
    max_len: int = DESK_MAX_LEN
    dropout_p: float = 0.1

    def __post_init__(self):
        extents = (self.vocab_size, self.d_model, self.n_layers, self.n_heads,
                   self.d_ff, self.max_len)
        if any(type(n) is not int for n in extents):
            raise ParameterError(f"text encoder extents must be integers, got {extents}")
        if self.d_model % self.n_heads != 0:
            raise ParameterError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if min(self.vocab_size, self.d_model, self.n_layers, self.n_heads,
               self.d_ff, self.max_len) < 1:
            raise ParameterError("all text encoder extents must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ParameterError(f"dropout_p must be in [0, 1), got {self.dropout_p}")


def paper_scale_text_config(vocab_size: int) -> TextEncoderConfig:
    """BERT-base-shaped preset (768/12/12/3072, 128 tokens)."""
    return TextEncoderConfig(vocab_size=vocab_size, d_model=768, n_layers=12,
                             n_heads=12, d_ff=3072, max_len=128, dropout_p=0.1)


def text_encoder_layout(cfg: TextEncoderConfig):
    """``(name, shape, init)`` of every parameter in draw order, for
    ``autograd.init_params``."""
    d, ff = cfg.d_model, cfg.d_ff
    yield "tok_emb", (cfg.vocab_size, d), "embed"
    yield "pos_emb", (cfg.max_len, d), "embed"
    for i in range(cfg.n_layers):
        for proj in ("wq", "wk", "wv", "wo"):
            yield f"l{i}.{proj}", (d, d), "xavier"
        yield f"l{i}.ffn_w1", (d, ff), "xavier"
        yield f"l{i}.ffn_b1", (ff,), "zeros"
        yield f"l{i}.ffn_w2", (ff, d), "xavier"
        yield f"l{i}.ffn_b2", (d,), "zeros"
        for norm in ("ln1", "ln2"):
            yield f"l{i}.{norm}_g", (d,), "ones"
            yield f"l{i}.{norm}_b", (d,), "zeros"


def encoder_block(x: Tensor, mask: np.ndarray, params: dict[str, Tensor],
                  layer: int, cfg: TextEncoderConfig,
                  uniforms: np.ndarray | None = None,
                  cls_only: bool = False) -> Tensor:
    """One post-LN transformer block over a (B*L, d_model) batch of sequences.

    ``mask`` is the (B, L) attention mask; row ``b*L + t`` of ``x`` is
    position ``t`` of sequence ``b``. Dropout runs where the block is
    given ``uniforms``: the (2, R, d_model) U[0, 1) draws of its two
    dropout sites for its R output rows.

    With ``cls_only`` the block computes only each sequence's [CLS] row
    (position 0): those B rows are gathered once, and queries, the output
    projection, both residual adds and layer norms and the FFN run on them
    alone, while keys and values come from every row. The output is then
    B x d_model.
    """
    if x.data.ndim != 2 or x.data.shape[1] != cfg.d_model:
        raise DimensionError(
            f"block input shape {x.data.shape}, expected (B*L, {cfg.d_model})")
    pre = f"l{layer}."
    xq = x
    if cls_only:
        bsz, seq_len = np.shape(mask)
        xq = ag.embedding_lookup(x, np.arange(bsz) * seq_len)
    u_attn, u_ffn = (None, None) if uniforms is None else uniforms

    ctx = ag.attention(ag.matmul(xq, params[pre + "wq"]),
                       ag.matmul(x, params[pre + "wk"]),
                       ag.matmul(x, params[pre + "wv"]), mask, cfg.n_heads)
    attn_out = ag.dropout(ag.matmul(ctx, params[pre + "wo"]), cfg.dropout_p, u_attn)
    y = ag.layer_norm(xq, attn_out, params[pre + "ln1_g"], params[pre + "ln1_b"])

    ffn_out = ag.mlp_head(y, params[pre + "ffn_w1"], params[pre + "ffn_b1"],
                          params[pre + "ffn_w2"], params[pre + "ffn_b2"])
    ffn_out = ag.dropout(ffn_out, cfg.dropout_p, u_ffn)
    return ag.layer_norm(y, ffn_out, params[pre + "ln2_g"], params[pre + "ln2_b"])


def encode_text(params: dict[str, Tensor], cfg: TextEncoderConfig,
                ids: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
    """Embed a (B, L) batch of token-id rows, run the blocks on one
    (B*L, d_model) activation, and return the B x d_model [CLS]-position
    rows, which the last block computes alone. The attention mask is
    ``ids != PAD_ID``."""
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] != cfg.max_len:
        raise DimensionError(
            f"token ids of shape {ids.shape}, expected (B, {cfg.max_len})")
    (bsz, seq_len), d = ids.shape, cfg.d_model
    if bsz == 0:
        raise DimensionError("encode_text needs at least one review")
    mask = ids != PAD_ID
    drops = None
    if training and cfg.dropout_p > 0:
        if rng is None:
            raise ParameterError("dropout in training mode requires an rng")
        # every dropout draw of the step at once, review-major, so each
        # review gets the masks it would get if encoded on its own
        drops = rng.random((bsz, cfg.n_layers, 2, seq_len, d))
    x = ag.embed_tokens(params["tok_emb"], params["pos_emb"], ids)
    for i in range(cfg.n_layers):
        last = i == cfg.n_layers - 1
        u = None
        if drops is not None:
            # (2, rows, d): the last block keeps only the [CLS] rows
            u = drops[:, i, :, 0].transpose(1, 0, 2) if last else \
                drops[:, i].transpose(1, 0, 2, 3).reshape(2, bsz * seq_len, d)
        x = encoder_block(x, mask, params, i, cfg, u, cls_only=last)
    return x
