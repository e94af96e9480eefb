import numpy as np
import pytest

from reviewfuse import autograd as ag
from reviewfuse.autograd import Tensor, grad_check
from reviewfuse.errors import DimensionError
from reviewfuse.fusion import (
    FusionConfig,
    classify_batch,
    fusion_layout,
    paper_scale_fusion_config,
    predict_labels,
)
from reviewfuse.textproc import build_vocab, tokenize
from reviewfuse.workflow import desk_model

BATCH_SIZES = (1, 3)


def desk_cfg():
    return FusionConfig(d_in=32 + 64, d_hidden=32)


def desk_batch(n, seed=0):
    """``n`` tokenized reviews and ``n`` desk-size crops."""
    words = ["great", "cold", "service", "pizza", "never", "again"]
    vocab = build_vocab(words, max_size=50)
    rng = np.random.default_rng(seed)
    reviews = [tokenize(vocab, " ".join(rng.choice(words, size=4)), max_len=16)
               for _ in range(n)]
    crops = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
    return reviews, crops


class TestFuse:
    """Fusion happens in ReviewClassifier.encode_batch: text features, then
    image features, one row per sample."""

    def test_paper_scale_2816(self):
        cfg = paper_scale_fusion_config()
        assert cfg.d_in == 768 + 2048 == 2816
        assert cfg.d_hidden == 512

    def test_desk_default_96(self):
        model = desk_model("fused", vocab_size=50)
        assert model.fusion_cfg.d_in == 96
        for n in BATCH_SIZES:
            assert model.encode_batch(*desk_batch(n)).shape == (n, 96)

    def test_text_features_first(self):
        fused = desk_model("fused", vocab_size=50, seed=3)
        text = desk_model("text_only", vocab_size=50, seed=4)
        image = desk_model("image_only", vocab_size=50, seed=5)
        for part in (text, image):
            for k, t in part.params.items():
                if not k.startswith("head."):
                    t.data = fused.params[k].data.copy()
        reviews, crops = desk_batch(3, seed=1)
        feats = fused.encode_batch(reviews, crops).data
        d_text = fused.text_cfg.d_model
        np.testing.assert_array_equal(feats[:, :d_text],
                                      text.encode_batch(reviews, None).data)
        np.testing.assert_array_equal(feats[:, d_text:],
                                      image.encode_batch(None, crops).data)

    def test_length_mismatch(self):
        # text and image batches of different lengths cannot be fused
        model = desk_model("fused", vocab_size=50)
        reviews, _ = desk_batch(3)
        _, crops = desk_batch(2)
        with pytest.raises(DimensionError):
            model.encode_batch(reviews, crops)


class TestClassify:
    def test_zero_weights_give_even_logits(self):
        cfg = desk_cfg()
        p = ag.init_params(fusion_layout(cfg), np.random.default_rng(0))
        for t in p.values():
            t.data[:] = 0.0
        for n in BATCH_SIZES:
            logits = classify_batch(p, cfg, Tensor(np.ones((n, 96), dtype=np.float32)))
            np.testing.assert_array_equal(logits.data, np.zeros((n, 2)))
            np.testing.assert_allclose(ag.softmax(logits).data, 0.5)

    def test_eval_deterministic_bitwise(self):
        cfg = desk_cfg()
        p = ag.init_params(fusion_layout(cfg), np.random.default_rng(1))
        for n in BATCH_SIZES:
            x = Tensor(np.random.default_rng(2).normal(size=(n, 96)).astype(np.float32))
            a = classify_batch(p, cfg, x).data
            b = classify_batch(p, cfg, x).data
            np.testing.assert_array_equal(a, b)

    def test_gradcheck_f32_against_f64_oracle(self):
        cfg = FusionConfig(d_in=4 + 3, d_hidden=5)
        p64 = ag.init_params(fusion_layout(cfg), np.random.default_rng(3), np.float64)
        p32 = {k: Tensor(v.data.astype(np.float32), requires_grad=True)
               for k, v in p64.items()}
        x = np.random.default_rng(4).normal(size=(2, 7))

        def f(params, dtype):
            logits = classify_batch(params, cfg, Tensor(x.astype(dtype)))
            return ag.cross_entropy(logits, [0, 1])

        err = grad_check(lambda: f(p32, np.float32), p32.values(),
                         fd_f=lambda: f(p64, np.float64),
                         fd_params=p64.values())
        assert err < 1e-3

    def test_gradcheck_f64(self):
        cfg = FusionConfig(d_in=4 + 3, d_hidden=5)
        p = ag.init_params(fusion_layout(cfg), np.random.default_rng(5), np.float64)
        x = Tensor(np.random.default_rng(6).normal(size=(3, 7)),
                   requires_grad=True)
        err = grad_check(
            lambda: ag.cross_entropy(classify_batch(p, cfg, x), [0, 1, 1]),
            list(p.values()) + [x])
        assert err < 1e-6

    def test_dimension_mismatch(self):
        cfg = desk_cfg()
        p = ag.init_params(fusion_layout(cfg), np.random.default_rng(7))
        for shape in [(n, 95) for n in BATCH_SIZES] + [(96,)]:
            with pytest.raises(DimensionError):
                classify_batch(p, cfg, Tensor(np.zeros(shape, dtype=np.float32)))

    def test_linear_region_linearity(self):
        # with all hidden pre-activations positive the head is linear in
        # its input
        cfg = FusionConfig(d_in=2 + 2, d_hidden=3)
        p = ag.init_params(fusion_layout(cfg), np.random.default_rng(8))
        p["head.b1"].data[:] = 10.0  # push hidden units into the linear region
        f = lambda arr: classify_batch(p, cfg, Tensor(arr)).data
        for n in BATCH_SIZES:
            x1 = np.random.default_rng(9).normal(size=(n, 4)).astype(np.float32) * 0.1
            x2 = np.random.default_rng(10).normal(size=(n, 4)).astype(np.float32) * 0.1
            zero = np.zeros((n, 4), dtype=np.float32)
            np.testing.assert_allclose(f(x1 + x2), f(x1) + f(x2) - f(zero),
                                       atol=1e-5)

    def test_softmax_of_logits_sums_to_one(self):
        cfg = desk_cfg()
        p = ag.init_params(fusion_layout(cfg), np.random.default_rng(11))
        for n in BATCH_SIZES:
            x = Tensor(np.random.default_rng(12).normal(size=(n, 96)).astype(np.float32))
            probs = ag.softmax(classify_batch(p, cfg, x)).data
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestPredictLabel:
    def test_argmax(self):
        labels = predict_labels(np.array([[0.2, 1.7], [1.7, 0.2], [-3.0, -2.9]]))
        np.testing.assert_array_equal(labels, [1, 0, 1])

    def test_tie_goes_to_fake(self):
        logits = Tensor(np.array([[3.0, 3.0], [0.0, 0.0]], dtype=np.float32))
        np.testing.assert_array_equal(predict_labels(logits), [0, 0])

    def test_shift_invariance_sweep(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(50, 2))
        shift = rng.normal(size=(50, 1)) * 100
        np.testing.assert_array_equal(predict_labels(logits),
                                      predict_labels(logits + shift))

    def test_rejects_non_b_by_2(self):
        for shape in [(2,), (3, 3), (1, 2, 2)]:
            with pytest.raises(DimensionError):
                predict_labels(np.zeros(shape))
