import math

import numpy as np
import pytest

from reviewfuse import autograd as ag
from reviewfuse.autograd import grad_check
from reviewfuse.errors import DimensionError, ParameterError
from reviewfuse.fusion import classify_batch
from reviewfuse.model import ReviewClassifier
from reviewfuse.text_encoder import (
    TextEncoderConfig,
    encode_text,
    encoder_block,
    text_encoder_layout,
    paper_scale_text_config,
)
from reviewfuse.textproc import CLS_ID, PAD_ID, SEP_ID
from reviewfuse.workflow import desk_model

from graph_walk import add_then_layer_norm, backprop, step_op_counts


def tiny_cfg(**kw):
    defaults = dict(vocab_size=12, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                    max_len=6, dropout_p=0.0)
    defaults.update(kw)
    return TextEncoderConfig(**defaults)


def make_review(ids, max_len):
    """One review's (max_len,) int32 token-id row."""
    return np.array(ids + [PAD_ID] * (max_len - len(ids)), dtype=np.int32)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        cfg = tiny_cfg()
        a = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(3))
        b = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(3))
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    def test_gains_ones_at_init(self):
        p = ag.init_params(text_encoder_layout(tiny_cfg()), np.random.default_rng(0))
        np.testing.assert_array_equal(p["l0.ln1_g"].data, np.ones(8))
        np.testing.assert_array_equal(p["l0.ln2_b"].data, np.zeros(8))

    def test_weight_sample_mean_near_zero(self):
        cfg = tiny_cfg(vocab_size=1000, d_model=16)
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(1))
        emb = p["tok_emb"].data
        n = emb.size
        assert abs(emb.mean()) < 3 * 0.02 / np.sqrt(n)

    def test_invalid_heads(self):
        with pytest.raises(ParameterError):
            tiny_cfg(d_model=8, n_heads=3)


class TestEncoderBlock:
    def test_singleton_attention_weight_is_one(self):
        # L=1, all-ones mask: softmax over one position must be exactly 1,
        # so attention output equals the value projection of the token;
        # two such sequences in one batch must not see each other
        cfg = tiny_cfg(n_heads=1, max_len=1)
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(2))
        x = ag.Tensor(np.random.default_rng(3).normal(size=(2, 8)).astype(np.float32))
        out = encoder_block(x, np.ones((2, 1)), p, 0, cfg)
        assert out.shape == (2, 8)
        # recompute by hand with weight exactly 1.0 on each sequence's token
        v = x.data @ p["l0.wv"].data
        ctx = v @ p["l0.wo"].data
        resid = x.data + ctx
        mu = resid.mean(axis=-1, keepdims=True)
        sd = np.sqrt(resid.var(axis=-1, keepdims=True) + 1e-5)
        y = (resid - mu) / sd
        h = np.maximum(y @ p["l0.ffn_w1"].data + p["l0.ffn_b1"].data, 0)
        f = h @ p["l0.ffn_w2"].data + p["l0.ffn_b2"].data
        z = y + f
        mu2 = z.mean(axis=-1, keepdims=True)
        sd2 = np.sqrt(z.var(axis=-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(out.data, (z - mu2) / sd2, atol=1e-5)

    def test_identical_tokens_identical_rows(self):
        cfg = tiny_cfg(max_len=2)
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(4))
        row = np.random.default_rng(5).normal(size=8).astype(np.float32)
        x = ag.Tensor(np.stack([row, row, row, row]))
        out = encoder_block(x, np.ones((2, 2)), p, 0, cfg)
        for i in range(1, 4):
            np.testing.assert_allclose(out.data[0], out.data[i], atol=1e-6)

    def test_block_gradcheck_f32_against_f64_oracle(self):
        cfg = tiny_cfg(max_len=4)
        p64 = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(6), np.float64)
        p32 = {k: ag.Tensor(v.data.astype(np.float32), requires_grad=True)
               for k, v in p64.items()}
        x64 = np.random.default_rng(7).normal(size=(8, 8))
        w = np.random.default_rng(8).normal(size=(8, 8))
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])

        def f(params, x_arr, dtype):
            x = ag.Tensor(x_arr.astype(dtype))
            out = encoder_block(x, mask, params, 0, cfg)
            return ag.tsum(ag.mul(out, ag.Tensor(w.astype(dtype))))

        # the block's own parameters: the embedding tables do not reach it
        block = [k for k in p64 if k.startswith("l0.")]
        err = grad_check(lambda: f(p32, x64, np.float32), [p32[k] for k in block],
                         eps=1e-5,
                         fd_f=lambda: f(p64, x64, np.float64),
                         fd_params=[p64[k] for k in block])
        assert err < 1e-3

    def test_block_gradcheck_f64(self):
        cfg = tiny_cfg(max_len=3)
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(9), np.float64)
        x = ag.Tensor(np.random.default_rng(10).normal(size=(6, 8)),
                      requires_grad=True)
        w = ag.Tensor(np.random.default_rng(11).normal(size=(6, 8)))
        mask = np.array([[1, 1, 1], [1, 1, 0]])
        err = grad_check(
            lambda: ag.tsum(ag.mul(encoder_block(x, mask, p, 0, cfg), w)),
            [v for k, v in p.items() if k.startswith("l0.")] + [x])
        assert err < 1e-6

    # the [CLS] rows of the two sequences
    @pytest.mark.parametrize("rows", [[0, 3]], ids=["cls"])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.4])
    def test_rows_are_the_full_block_rows(self, rows, dropout_p):
        cfg = tiny_cfg(max_len=3, dropout_p=dropout_p)
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(12), np.float64)
        x = ag.Tensor(np.random.default_rng(13).normal(size=(6, 8)))
        u = np.random.default_rng(14).random((2, 6, 8))
        mask = np.array([[1, 1, 1], [1, 1, 0]])
        full = encoder_block(x, mask, p, 0, cfg, u).data
        # the dropout draws of the kept rows only
        got = encoder_block(x, mask, p, 0, cfg, u[:, rows], cls_only=True)
        assert got.shape == (len(rows), 8)
        np.testing.assert_allclose(got.data, full[rows], rtol=0, atol=1e-12)

    def test_rows_gradcheck_f64(self):
        # [CLS] queries over padded sequences: keys and values still come
        # from every row, so every row of x gets a gradient
        cfg = tiny_cfg(max_len=4)
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(16), np.float64)
        x = ag.Tensor(np.random.default_rng(17).normal(size=(8, 8)),
                      requires_grad=True)
        w = ag.Tensor(np.random.default_rng(18).normal(size=(2, 8)))
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])
        err = grad_check(
            lambda: ag.tsum(ag.mul(encoder_block(x, mask, p, 0, cfg,
                                                 cls_only=True), w)),
            [v for k, v in p.items() if k.startswith("l0.")] + [x])
        assert err < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [None, [0, 3]], ids=["full_rows", "cls_rows"])
    def test_bit_identical_to_add_then_layer_norm(self, monkeypatch, dtype, rows):
        # the block's output and every gradient, with each residual add
        # inside its layer_norm node or as a node of its own before it
        cfg = tiny_cfg(max_len=3, dropout_p=0.2)
        init = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(19),
                              dtype)
        rng = np.random.default_rng(20)
        x_data = rng.normal(size=(6, 8)).astype(dtype)
        u = rng.random((2, 6, 8))
        u = u if rows is None else u[:, rows]
        g = rng.normal(size=(6 if rows is None else len(rows), 8)).astype(dtype)
        mask = np.array([[1, 1, 1], [1, 1, 0]])
        results = []
        for norm in (ag.layer_norm, add_then_layer_norm):
            monkeypatch.setattr(ag, "layer_norm", norm)
            p = {k: ag.Tensor(v.data.copy(), requires_grad=True)
                 for k, v in init.items() if k.startswith("l0.")}
            x = ag.Tensor(x_data.copy(), requires_grad=True)
            out = encoder_block(x, mask, p, 0, cfg, u,
                                cls_only=rows is not None)
            backprop(out, g)
            results.append({"out": out.data, "x": x.grad,
                            **{k: t.grad for k, t in p.items()}})
        fused, chained = results
        assert fused.keys() == chained.keys()
        for name, a in fused.items():
            assert a.dtype == dtype, name
            np.testing.assert_array_equal(a, chained[name], err_msg=name)


class TestEncodeText:
    def test_output_length(self):
        cfg = tiny_cfg()
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(12))
        batch = np.stack([make_review([CLS_ID, 5, SEP_ID], cfg.max_len),
                          make_review([CLS_ID, 5, 6, 7, SEP_ID], cfg.max_len),
                          make_review([CLS_ID, SEP_ID], cfg.max_len)])
        assert encode_text(p, cfg, batch).shape == (3, cfg.d_model)

    def test_paper_scale_vector_length(self):
        cfg = paper_scale_text_config(vocab_size=30)
        assert cfg.d_model == 768 and cfg.max_len == 128
        # one layer is enough to assert the shape contract cheaply
        cfg1 = TextEncoderConfig(vocab_size=30, d_model=768, n_layers=1,
                                 n_heads=12, d_ff=3072, max_len=128)
        p = ag.init_params(text_encoder_layout(cfg1), np.random.default_rng(13))
        r = make_review([CLS_ID, 7, SEP_ID], 128)
        assert encode_text(p, cfg1, r[np.newaxis]).shape == (1, 768)

    def test_wrong_length_raises(self):
        cfg = tiny_cfg()
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(14))
        short = np.stack([make_review([CLS_ID, SEP_ID], 5)] * 2)
        with pytest.raises(DimensionError):
            encode_text(p, cfg, short)
        with pytest.raises(DimensionError):
            encode_text(p, cfg, short.reshape(-1))
        with pytest.raises(DimensionError):
            encode_text(p, cfg, np.empty((0, cfg.max_len), dtype=np.int32))

    def test_pad_position_isolation(self):
        cfg = tiny_cfg()
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(15))
        r1 = make_review([CLS_ID, 4, 5, SEP_ID], cfg.max_len)
        other = make_review([CLS_ID, 7, 8, 9, 10, SEP_ID], cfg.max_len)
        batch = np.stack([r1, other])
        a = encode_text(p, cfg, batch).data
        # perturb what the masked positions hold: the [PAD] embedding
        p["tok_emb"].data[PAD_ID] += 1.0
        b = encode_text(p, cfg, batch).data
        p["tok_emb"].data[PAD_ID] -= 1.0
        assert np.max(np.abs(a - b)) < 1e-5
        # nor does a sequence see its batch neighbours
        alone = encode_text(p, cfg, r1[np.newaxis]).data
        assert np.max(np.abs(a[0] - alone[0])) < 1e-5

    def test_eval_determinism_bitwise(self):
        cfg = tiny_cfg(dropout_p=0.3)
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(16))
        batch = np.stack([make_review([CLS_ID, 4, 5, SEP_ID], cfg.max_len),
                          make_review([CLS_ID, 6, SEP_ID], cfg.max_len)])
        a = encode_text(p, cfg, batch, training=False).data
        b = encode_text(p, cfg, batch, training=False).data
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ParameterError):
            encode_text(p, cfg, batch, training=True)

    def test_gradient_reaches_every_parameter(self):
        cfg = tiny_cfg(n_layers=2)
        p = ag.init_params(text_encoder_layout(cfg), np.random.default_rng(17))
        batch = np.stack([make_review([CLS_ID, 4, 5, 6, SEP_ID], cfg.max_len),
                          make_review([CLS_ID, 7, SEP_ID], cfg.max_len)])
        out = encode_text(p, cfg, batch, training=False)
        ag.tsum(ag.mul(out, out)).backward()
        for name, t in p.items():
            assert t.grad is not None, name
            if name != "tok_emb":  # embedding grads are sparse by design
                assert np.any(t.grad != 0), name


    def test_training_step_graph_is_small(self):
        # one B=32 text_only step of the desk model: the graph grows with
        # the layer count, not with the batch or the number of heads; the
        # head and each block's FFN are one mlp_head node, each residual
        # add is inside its layer_norm node, and the dropout sites cost one
        # node each: 24 nodes
        assert step_op_counts("text_only") == {
            "matmul": 8, "attention": 2, "dropout": 4, "layer_norm": 4,
            "mlp_head": 3, "embed_tokens": 1, "embedding_lookup": 1,
            "cross_entropy": 1}

    def test_last_block_runs_on_the_cls_rows(self):
        # the last block's layer norms hold one row per review; the blocks
        # before it hold every position
        model = desk_model("text_only", vocab_size=40)
        rng = np.random.default_rng(19)
        batch = np.stack([
            make_review([CLS_ID] + list(rng.integers(4, 40, n)) + [SEP_ID], 16)
            for n in rng.integers(0, 15, 32)])
        logits = model.forward_batch(batch, None, training=True, rng=rng)
        gains = {id(t): name for name, t in model.params.items()
                 if name.endswith(("ln1_g", "ln2_g"))}
        shapes, seen = {}, set()
        stack = [ag.cross_entropy(logits, [0, 1] * 16)]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                for parent in t._parents:
                    if id(parent) in gains:
                        shapes[gains[id(parent)]] = t.data.shape
                stack.extend(t._parents)
        assert shapes == {"text.l0.ln1_g": (32 * 16, 32),
                          "text.l0.ln2_g": (32 * 16, 32),
                          "text.l1.ln1_g": (32, 32),
                          "text.l1.ln2_g": (32, 32)}

# ---------------------------------------------------------------------------
# float64 twin: the per-sample, per-head encoder the batched one replaced,
# built from the generic ops, as an independent reference


def reference_block(x, mask, params, layer, cfg, training=False, rng=None):
    """One post-LN block over a single L x d_model sequence, head by head."""
    seq_len = x.data.shape[0]
    dh = cfg.d_model // cfg.n_heads
    pre = f"l{layer}."
    q = ag.matmul(x, params[pre + "wq"])
    k = ag.matmul(x, params[pre + "wk"])
    v = ag.matmul(x, params[pre + "wv"])
    mask_arr = np.asarray(mask, dtype=x.data.dtype)
    bias = np.broadcast_to((1.0 - mask_arr) * -1e9,
                           (seq_len, seq_len)).astype(x.data.dtype)
    head_ctx = None
    for h in range(cfg.n_heads):
        lo, hi = h * dh, (h + 1) * dh
        qh = ag.slice_cols(q, lo, hi)
        kh = ag.slice_cols(k, lo, hi)
        vh = ag.slice_cols(v, lo, hi)
        scores = ag.scale(ag.matmul(qh, ag.transpose(kh)), 1.0 / math.sqrt(dh))
        ctx = ag.matmul(ag.softmax(ag.add_const(scores, bias)), vh)
        head_ctx = ctx if head_ctx is None else ag.concat_cols(head_ctx, ctx)

    def drop(t):
        # this site's uniforms, in the order encode_text draws them
        u = rng.random(t.data.shape) if training and cfg.dropout_p > 0 else None
        return ag.dropout(t, cfg.dropout_p, u)

    attn_out = drop(ag.matmul(head_ctx, params[pre + "wo"]))
    y = ag.layer_norm(x, attn_out, params[pre + "ln1_g"], params[pre + "ln1_b"])
    hidden = ag.relu(ag.add_bias(ag.matmul(y, params[pre + "ffn_w1"]),
                                 params[pre + "ffn_b1"]))
    ffn_out = drop(ag.add_bias(ag.matmul(hidden, params[pre + "ffn_w2"]),
                               params[pre + "ffn_b2"]))
    return ag.layer_norm(y, ffn_out, params[pre + "ln2_g"], params[pre + "ln2_b"])


def reference_encode(params, cfg, reviews, training=False, rng=None):
    """B x d_model [CLS] rows, one sequence at a time."""
    rows = []
    for r in reviews:
        x = ag.add(ag.embedding_lookup(params["tok_emb"], r), params["pos_emb"])
        for i in range(cfg.n_layers):
            x = reference_block(x, r != PAD_ID, params, i, cfg, training, rng)
        rows.append(ag.take_row(x, 0))
    return ag.stack_rows(rows)


class TestBatchedMatchesPerSampleTwin:
    TOL = 1e-12

    def logits_and_grads(self, batched, training, dropout_p):
        cfg = tiny_cfg(vocab_size=15, n_layers=2, max_len=7, dropout_p=dropout_p)
        model = ReviewClassifier("text_only", cfg, None, d_hidden=5, seed=21,
                                 dtype=np.float64)
        rng = np.random.default_rng(22)
        # mixed padding: true lengths 7 (no PAD), 3, 2 and 5
        batch = np.stack([
            make_review([CLS_ID] + list(rng.integers(4, 15, n - 2)) + [SEP_ID],
                        cfg.max_len) for n in (7, 3, 2, 5)])
        rng = np.random.default_rng(23)
        if batched:
            logits = model.forward_batch(batch, None, training, rng)
        else:
            text = {k[5:]: v for k, v in model.params.items()
                    if k.startswith("text.")}
            feats = reference_encode(text, cfg, batch, training, rng)
            logits = classify_batch(model.params, model.fusion_cfg, feats)
        model.zero_grad()
        ag.cross_entropy(logits, [0, 1, 1, 0]).backward()
        return logits.data, {k: v.grad.copy() for k, v in model.params.items()}

    # with dropout on, the batched encoder must draw the same mask for each
    # review as the per-review encoder does
    @pytest.mark.parametrize("training,dropout_p",
                             [(False, 0.0), (True, 0.0), (True, 0.3)])
    def test_logits_and_every_gradient(self, training, dropout_p):
        got, got_grads = self.logits_and_grads(True, training, dropout_p)
        want, want_grads = self.logits_and_grads(False, training, dropout_p)
        np.testing.assert_allclose(got, want, rtol=0, atol=self.TOL)
        assert got_grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert np.any(g != 0), name
            np.testing.assert_allclose(got_grads[name], g, rtol=0,
                                       atol=self.TOL, err_msg=name)
