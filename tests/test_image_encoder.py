import os
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from reviewfuse import autograd as ag
from reviewfuse import image_encoder
from reviewfuse.autograd import grad_check
from reviewfuse.errors import DimensionError, ParameterError
from reviewfuse.fusion import classify_batch
from reviewfuse.image_encoder import (
    ImageEncoderConfig,
    encode_image,
    eval_group,
    image_encoder_layout,
    paper_scale_image_config,
    residual_block,
)
from reviewfuse.imageproc import normalize_batch
from reviewfuse.model import ReviewClassifier
from reviewfuse.textproc import CLS_ID, PAD_ID, SEP_ID
from reviewfuse.workflow import desk_model

from graph_walk import chained_channel_norm, step_op_counts


def tiny_cfg(**kw):
    defaults = dict(input_side=8, stem_channels=4,
                    stages=[(1, 4, 1), (1, 8, 2)])
    defaults.update(kw)
    return ImageEncoderConfig(**defaults)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        cfg = tiny_cfg()
        a = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(1))
        b = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(1))
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    def test_zero_branch_gain(self):
        p = ag.init_params(image_encoder_layout(tiny_cfg()), np.random.default_rng(2))
        np.testing.assert_array_equal(p["s0.b0.norm2_g"].data, np.zeros(4))
        np.testing.assert_array_equal(p["s0.b0.norm1_g"].data, np.ones(4))

    def test_he_variance(self):
        cfg = tiny_cfg(stem_channels=8, stages=[(1, 64, 1), (1, 8, 2)])
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(3))
        k = p["s0.b0.conv1"].data  # 64 x 8 x 3 x 3 = 4608 samples
        fan_in = 8 * 9
        assert abs(k.var() - 2.0 / fan_in) < 0.1 * (2.0 / fan_in)

    def test_d_out_is_the_final_stage_width(self):
        assert ImageEncoderConfig(stages=[(1, 8, 1), (1, 4, 2)]).d_out == 4
        with pytest.raises(TypeError):  # a read-only fact, not a setting
            ImageEncoderConfig(stages=[(1, 4, 1)], d_out=8)

    def test_bad_stride(self):
        with pytest.raises(ParameterError):
            ImageEncoderConfig(stages=[(1, 64, 3)])


class TestResidualBlock:
    def test_identity_at_init_for_nonnegative_input(self):
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(4))
        sub = {k[len("s0.b0."):]: v for k, v in p.items() if k.startswith("s0.b0.")}
        sub = {"s0.b0." + k: v for k, v in sub.items()}
        x = ag.Tensor(np.abs(np.random.default_rng(5).normal(size=(4, 1, 8, 8))).astype(np.float32))
        out = residual_block(x, p, "s0.b0.", stride=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_stride2_shape(self):
        cfg = ImageEncoderConfig(input_side=8, stem_channels=3,
                                 stages=[(1, 6, 2)])
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(6))
        x = ag.Tensor(np.random.default_rng(7).normal(size=(3, 1, 8, 8)).astype(np.float32))
        out = residual_block(x, p, "s0.b0.", stride=2)
        assert out.shape == (6, 1, 4, 4)

    def test_block_gradcheck_f64(self):
        cfg = ImageEncoderConfig(input_side=5, stem_channels=2,
                                 stages=[(1, 3, 2)])
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(8), np.float64)
        # nonzero branch gain so the second conv participates in the check
        p["s0.b0.norm2_g"].data[:] = 0.7
        x = ag.Tensor(np.random.default_rng(9).normal(size=(2, 1, 5, 5)),
                      requires_grad=True)
        w = ag.Tensor(np.random.default_rng(10).normal(size=(3, 1, 3, 3)))
        block_params = [v for k, v in p.items() if k.startswith("s0.b0.")]
        err = grad_check(
            lambda: ag.tsum(ag.mul(residual_block(x, p, "s0.b0.", stride=2), w)),
            block_params + [x])
        assert err < 1e-6


class TestEncodeImage:
    def test_output_length(self):
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(11))
        img = ag.Tensor(np.random.default_rng(12).normal(size=(1, 3, 8, 8)).astype(np.float32))
        assert encode_image(p, cfg, img).shape == (1, cfg.d_out)

    def test_batched_output(self):
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(13))
        imgs = ag.Tensor(np.random.default_rng(14).normal(size=(5, 3, 8, 8)).astype(np.float32))
        assert encode_image(p, cfg, imgs).shape == (5, cfg.d_out)

    def test_paper_scale_vector_length(self):
        cfg = paper_scale_image_config()
        assert cfg.d_out == 2048
        # shape contract by construction: pooled output = final stage channels
        small = ImageEncoderConfig(input_side=16, stem_channels=4,
                                   stages=[(1, 2048, 2)])
        p = ag.init_params(image_encoder_layout(small), np.random.default_rng(15))
        img = ag.Tensor(np.random.default_rng(16).normal(size=(1, 3, 16, 16)).astype(np.float32))
        assert encode_image(p, small, img).shape == (1, 2048)

    def test_wrong_side_raises(self):
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(17))
        with pytest.raises(DimensionError):
            encode_image(p, cfg, ag.Tensor(np.zeros((1, 3, 7, 7), dtype=np.float32)))

    def test_unbatched_image_raises(self):
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(17))
        with pytest.raises(DimensionError):
            encode_image(p, cfg, ag.Tensor(np.zeros((3, 8, 8), dtype=np.float32)))

    def test_zero_image_closed_form_trace(self):
        # zero input + zero-branch blocks: the embedding is computable by hand
        # from the stem alone (stage transitions only apply projections)
        cfg = ImageEncoderConfig(input_side=4, stem_channels=2,
                                 stages=[(1, 2, 1)])
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(18))
        img = ag.Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        out = encode_image(p, cfg, img)
        # stem conv of zeros -> zeros; channel_norm of constant map -> beta
        # (zero) -> relu -> zeros; identity block keeps zeros; pool -> zeros
        np.testing.assert_allclose(out.data, np.zeros((1, 2)), atol=1e-7)

    def test_eval_determinism_bitwise(self):
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(19))
        img = ag.Tensor(np.random.default_rng(20).normal(size=(1, 3, 8, 8)).astype(np.float32))
        with ag.no_grad():
            a = encode_image(p, cfg, img).data
            b = encode_image(p, cfg, img).data
        np.testing.assert_array_equal(a, b)

    def test_shift_stability_smoke(self):
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(21))
        base = np.random.default_rng(22).normal(size=(1, 3, 8, 8)).astype(np.float32)
        shifted = np.roll(base, 1, axis=3)
        a = encode_image(p, cfg, ag.Tensor(base)).data
        b = encode_image(p, cfg, ag.Tensor(shifted)).data
        in_delta = np.linalg.norm(shifted - base)
        out_delta = np.linalg.norm(b - a)
        assert out_delta < 10 * in_delta

    def test_zero_init_gains_receive_gradient(self):
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(23))
        img = ag.Tensor(np.random.default_rng(24).normal(size=(1, 3, 8, 8)).astype(np.float32))
        out = encode_image(p, cfg, img)
        ag.tsum(ag.mul(out, out)).backward()
        for name, t in p.items():
            if name.endswith("norm2_g"):
                assert t.grad is not None and np.any(t.grad != 0), name

    def test_gradient_reaches_every_parameter_after_warmup(self):
        # at exact init the zero branch gains block the conv gradients; once
        # the gains move off zero every parameter must receive gradient
        cfg = tiny_cfg()
        p = ag.init_params(image_encoder_layout(cfg), np.random.default_rng(23))
        for name, t in p.items():
            if name.endswith("norm2_g"):
                t.data[:] = 0.5
        img = ag.Tensor(np.random.default_rng(24).normal(size=(1, 3, 8, 8)).astype(np.float32))
        out = encode_image(p, cfg, img)
        ag.tsum(ag.mul(out, out)).backward()
        for name, t in p.items():
            assert t.grad is not None and np.any(t.grad != 0), name

    def test_batch_matches_per_sample_encodes(self):
        # the desk encoder at B=7: the stem (stride 1) and the first stage-1
        # conv (stride 2) each cut the batch into several tiles of whole
        # images, the last one ragged, and no sample may see another
        model = desk_model("image_only", vocab_size=40)
        for cin, hw, stride in ((3, 32 * 32, 1), (16, 16 * 16, 2)):
            per_tile = ag.CONV_TILE_BYTES // (cin * 9 * hw * 4)
            assert 1 < per_tile < 7 and 7 % per_tile, (stride, per_tile)
        crops = np.random.default_rng(28).integers(0, 256, size=(7, 3, 32, 32),
                                                   dtype=np.uint8)
        with ag.no_grad():
            batch = model.encode_batch(None, crops).data
            single = np.concatenate([model.encode_batch(None, crops[i:i + 1]).data
                                     for i in range(7)])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-6)

    def test_training_step_graph_is_small(self):
        # one B=32 image_only step of the desk model: one node per conv and
        # per norm (each norm carries its block's ReLU and shortcut add),
        # the pooling, the head and the loss: 31 nodes
        assert step_op_counts("image_only") == IMAGE_STEP_OPS

    def test_fused_training_step_graph_is_small(self):
        # the image graph above plus the text encoder's nodes and the
        # concatenation of the two feature rows: 54 nodes
        assert step_op_counts("fused") == IMAGE_STEP_OPS + Counter({
            "matmul": 8, "attention": 2, "dropout": 4, "layer_norm": 4,
            "mlp_head": 2, "embed_tokens": 1, "embedding_lookup": 1,
            "concat_cols": 1})


IMAGE_STEP_OPS = Counter({"conv2d": 15, "channel_norm": 13,
                          "global_avg_pool": 1, "mlp_head": 1,
                          "cross_entropy": 1})


# ---------------------------------------------------------------------------
# float64 twin: one im2col GEMM over the whole batch (Chellapilla, Puri &
# Simard 2006) and the unfused norm, add and ReLU chain, kept as independent
# references for the tiled convolution and the fused norm


def im2col_conv2d(x, w, stride=1, pad=0):
    """conv2d of channel-major maps through one (B*H'*W', C*k*k) column matrix."""
    xd = x.data.transpose(1, 0, 2, 3)
    bsz, cin, h, wdt = xd.shape
    cout, _, k, _ = w.data.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wdt + 2 * pad - k) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(bsz * h_out * w_out, cin * k * k)
    w_mat = w.data.reshape(cout, cin * k * k)
    out = (cols @ w_mat.T).reshape(bsz, h_out, w_out, cout).transpose(3, 0, 1, 2)

    def backward(g):
        g_mat = g.transpose(1, 2, 3, 0).reshape(bsz * h_out * w_out, cout)
        ag._accum(w, (g_mat.T @ cols).reshape(w.data.shape))
        dcols = (g_mat @ w_mat).reshape(bsz, h_out, w_out, cin, k, k)
        dxp = np.zeros(xp.shape)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + stride * h_out:stride,
                    j:j + stride * w_out:stride] += dcols[..., i, j].transpose(0, 3, 1, 2)
        ag._accum(x, dxp[:, :, pad:pad + h, pad:pad + wdt].transpose(1, 0, 2, 3))

    return ag._make(np.ascontiguousarray(out), (x, w), backward)


def test_float64_twin_of_im2col_encoder(monkeypatch):
    # an odd input side, stride-2 stages with 1x1 projections and a stride-1
    # channel change: every tap offset and phase the encoder can use
    cfg = ImageEncoderConfig(input_side=9, stem_channels=3,
                             stages=[(1, 4, 1), (2, 5, 2), (1, 6, 2)])
    model = ReviewClassifier("image_only", None, cfg, d_hidden=5, seed=26,
                             dtype=np.float64)
    for name, t in model.params.items():
        if name.endswith("norm2_g"):
            t.data[:] = 0.5  # every residual branch contributes
    crops = np.random.default_rng(27).integers(0, 256, size=(3, 3, 9, 9),
                                               dtype=np.uint8)

    def run():
        model.zero_grad()
        feats = model.encode_batch(None, crops)
        logits = classify_batch(model.params, model.fusion_cfg, feats)
        ag.cross_entropy(logits, [0, 1, 1]).backward()
        return feats.data, {k: t.grad for k, t in model.params.items()
                            if k.startswith("img.")}

    feats, grads = run()
    monkeypatch.setattr(ag, "conv2d", im2col_conv2d)
    monkeypatch.setattr(ag, "channel_norm", chained_channel_norm)
    ref_feats, ref_grads = run()
    np.testing.assert_allclose(feats, ref_feats, rtol=0, atol=1e-10)
    assert len(grads) == 30
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-10,
                                   err_msg=name)


# ---------------------------------------------------------------------------
# graph-free forwards run the CNN in groups of whole images


def streamed_model(mode):
    """A desk model whose residual branches are live (nonzero norm2_g)."""
    model = desk_model(mode, vocab_size=40, seed=4)
    rng = np.random.default_rng(5)
    for name, t in model.params.items():
        if name.endswith("norm2_g"):
            t.data[:] = rng.uniform(0.5, 1.5, t.data.shape)
    return model


def streamed_batch(bsz):
    """``bsz`` token-id rows and desk crops, as ``batches`` yields them."""
    rng = np.random.default_rng(6)
    crops = rng.integers(0, 256, size=(bsz, 3, 32, 32), dtype=np.uint8)
    reviews = np.full((bsz, 16), PAD_ID, dtype=np.int32)
    for row, n in zip(reviews, rng.integers(2, 17, bsz)):
        row[:n] = [CLS_ID, *rng.integers(4, 40, n - 2), SEP_ID]
    return reviews, crops


def streamed_pixels(bsz):
    """``streamed_batch``'s crops normalized, the input ``encode_image`` takes."""
    return ag.Tensor(normalize_batch(streamed_batch(bsz)[1]))


class TestStreamedEval:
    def test_group_sizes(self):
        assert eval_group(ImageEncoderConfig(), 4) == 4
        assert eval_group(paper_scale_image_config(), 4) == 1

    @pytest.mark.parametrize("mode", ["image_only", "fused", "text_only"])
    def test_grouped_rows_are_bitwise_the_single_image_rows(self, mode):
        # the encoders' rows, with and without grouping
        model = streamed_model(mode)
        reviews, crops = streamed_batch(64)
        with ag.no_grad():
            rows = np.concatenate([
                model.encode_batch(reviews[i:i + 1], crops[i:i + 1]).data
                for i in range(64)])
            for bsz in (64, 37):  # 37: the last group holds one image
                got = model.encode_batch(reviews[:bsz], crops[:bsz]).data
                np.testing.assert_array_equal(got, rows[:bsz])

    @pytest.mark.parametrize("mode", ["image_only", "fused", "text_only"])
    def test_single_sample_logits_are_bitwise_rows_of_the_batch(self, mode):
        # what predict computes for one sample is its row of a B=64 eval
        model = streamed_model(mode)
        reviews, crops = streamed_batch(64)
        with ag.no_grad():
            batched = model.forward_batch(reviews, crops).data
            for i in range(64):
                one = model.forward_batch(reviews[i:i + 1], crops[i:i + 1]).data
                assert one.tobytes() == batched[i:i + 1].tobytes(), i

    @pytest.mark.parametrize("mode", ["image_only", "fused"])
    def test_grouped_logits_are_bitwise_the_one_pass(self, mode):
        # a recorded graph runs the batch as one pass
        model = streamed_model(mode)
        for bsz in (64, 37):
            reviews, crops = streamed_batch(bsz)
            one_pass = model.forward_batch(reviews, crops).data
            with ag.no_grad():
                grouped = model.forward_batch(reviews, crops).data
            np.testing.assert_array_equal(grouped, one_pass)

    def test_eval_forward_holds_one_group(self, monkeypatch):
        model = streamed_model("image_only")
        params = {k[4:]: v for k, v in model.params.items()
                  if k.startswith("img.")}
        images = streamed_pixels(64)

        def peak_bytes():
            tracemalloc.start()
            try:
                with ag.no_grad():
                    encode_image(params, model.image_cfg, images)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(ag, "_other_cpus", set)
        assert peak_bytes() < 3 * 2 ** 20
        # split between the caller and a worker: one group per thread
        monkeypatch.setattr(ag, "_other_cpus", lambda: {1})
        assert peak_bytes() < 2 * 3 * 2 ** 20
        # one pass over all 64 images holds about four times one group
        monkeypatch.setattr(image_encoder, "EVAL_GROUP_BYTES", 2 ** 40)
        assert peak_bytes() > 8 * 2 ** 20


class TestSplitEval:
    """Graph-free groups split between the caller and worker threads."""

    @pytest.fixture
    def encoder(self, monkeypatch):
        """The desk CNN's params and config, with ``_forward`` recording
        the thread that runs each group."""
        if ag._openblas_threads() is None:
            pytest.skip("no OpenBLAS thread-count functions found, so no split")
        model = streamed_model("image_only")
        params = {k[4:]: v for k, v in model.params.items() if k.startswith("img.")}
        threads = []
        forward = image_encoder._forward

        def recorded(*args):
            threads.append(threading.get_ident())
            return forward(*args)

        monkeypatch.setattr(image_encoder, "_forward", recorded)
        return params, model.image_cfg, threads, forward

    def test_rows_are_bitwise_the_serial_loop_under_stress(self, encoder,
                                                           monkeypatch):
        params, cfg, threads, forward = encoder
        images = streamed_pixels(64)
        group = eval_group(cfg, 4)
        # more workers than cores, and a thread switch every microsecond
        monkeypatch.setattr(ag, "_other_cpus", lambda: {1, 2, 3, 4})

        def encodes():
            with ag.no_grad():
                return {bsz: encode_image(params, cfg, ag.Tensor(images.data[:bsz])).data
                        for bsz in (64, 37)}  # 37: the last group holds one image

        pool = ThreadPoolExecutor(1)
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = pool.submit(encodes).result(timeout=300)
        finally:
            sys.setswitchinterval(prev)
            pool.shutdown(wait=False)
        assert len(threads) == 16 + 10  # each group ran once
        assert len(set(threads[:16])) > 1 and len(set(threads[16:])) > 1
        with ag.no_grad():
            for bsz, rows in got.items():
                serial = np.concatenate([
                    forward(params, cfg, images.data[b0:min(b0 + group, bsz)]).data
                    for b0 in range(0, bsz, group)])
                np.testing.assert_array_equal(rows, serial)

    def test_one_image_and_a_recorded_graph_stay_on_the_caller(self, encoder):
        params, cfg, threads, _ = encoder
        images = streamed_pixels(64)
        with ag.no_grad():
            encode_image(params, cfg, ag.Tensor(images.data[:1]))
        encode_image(params, cfg, images)
        assert threads == [threading.get_ident()] * 2

    def test_a_worker_exception_reaches_the_caller(self, encoder, monkeypatch):
        params, cfg, _, forward = encoder
        images = streamed_pixels(64)

        class WorkerFailed(Exception):
            pass

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise WorkerFailed
            return forward(*args)

        monkeypatch.setattr(image_encoder, "_forward", failing)
        monkeypatch.setattr(ag, "_other_cpus", lambda: {1})
        alive = threading.active_count()
        with ag.no_grad(), pytest.raises(WorkerFailed):
            encode_image(params, cfg, images)
        assert threading.active_count() == alive

    def test_no_affinity_call_runs_every_group_on_the_caller(self, monkeypatch):
        # where os has no sched_getaffinity (macOS, for one) there is no
        # other CPU to count: no thread starts, and the rows are one pass's
        model = streamed_model("image_only")
        params = {k[4:]: v for k, v in model.params.items() if k.startswith("img.")}
        images = streamed_pixels(64)
        with ag.no_grad():
            whole = image_encoder._forward(params, model.image_cfg, images.data).data

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(ag.threading, "Thread", no_thread)
        with ag.no_grad():
            rows = encode_image(params, model.image_cfg, images).data
        np.testing.assert_array_equal(rows, whole)
