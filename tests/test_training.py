import dataclasses
import os
import re

import numpy as np
import pytest

from reviewfuse import autograd as ag
from reviewfuse import model as model_module
from reviewfuse.autograd import Tensor
from reviewfuse.bundle import ModelBundle, load_bundle, save_bundle
from reviewfuse.data import PreparedDataset, ReviewSample
from reviewfuse.errors import ContractError, FormatError, ParameterError
from reviewfuse.fusion import fusion_layout, paper_scale_fusion_config
from reviewfuse.image_encoder import (
    ImageEncoderConfig,
    encode_image,
    image_encoder_layout,
    paper_scale_image_config,
)
from reviewfuse.imageproc import normalize_batch
from reviewfuse.model import MODES, ReviewClassifier
from reviewfuse.text_encoder import (
    TextEncoderConfig,
    paper_scale_text_config,
    text_encoder_layout,
)
from reviewfuse.textproc import build_vocab
from reviewfuse.training import (
    BETA1,
    BETA2,
    EPS_ADAM,
    AdamState,
    EVAL_BATCH,
    TrainConfig,
    adam_step,
    adam_update,
    eval_outputs,
    evaluate_accuracy,
    fit,
    model_from_bundle,
    model_to_bundle,
    train_epoch,
)
from reviewfuse.workflow import desk_model


def tiny_model(mode="fused", seed=0, dtype=np.float32):
    text_cfg = TextEncoderConfig(vocab_size=20, d_model=8, n_layers=1,
                                 n_heads=2, d_ff=16, max_len=8)
    image_cfg = ImageEncoderConfig(input_side=8, stem_channels=4,
                                   stages=[(1, 4, 1), (1, 8, 2)])
    return ReviewClassifier(mode, text_cfg, image_cfg, d_hidden=8, seed=seed,
                            dtype=dtype)


def tiny_dataset(n=8, seed=0):
    rng = np.random.default_rng(seed)
    words = ["good", "bad", "fine", "meh"]
    samples = [ReviewSample(f"t{i}", words[i % 4], i % 2) for i in range(n)]
    vocab = build_vocab(words, max_size=20)
    ds = PreparedDataset.prepare(samples, vocab=vocab, max_len=8,
                                 need_images=False)
    # the bytes of 8x8 crops, as PreparedDataset.prepare stores them
    return dataclasses.replace(
        ds, images=rng.integers(0, 256, size=(n, 3, 8, 8), dtype=np.uint8))


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.weight_decay, cfg.batch_size, cfg.max_epochs,
                cfg.patience, cfg.seed) == (5e-4, 0.01, 32, 10, 10, 0)

    def test_lr_zero_rejected(self):
        with pytest.raises(ParameterError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("setting", [dict(lr=float("nan")), dict(lr=float("inf")),
                                         dict(weight_decay=float("nan")),
                                         dict(weight_decay=-0.1)])
    def test_non_finite_or_negative_rates_rejected(self, setting):
        with pytest.raises(ParameterError):
            TrainConfig(**setting)


class TestAdamStep:
    def test_first_step_is_lr_times_sign(self):
        # bias correction makes m_hat = g, v_hat = g^2 on step one
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.25, 4.0])
        before = p.data.copy()
        adam_step({"w": p}, AdamState({"w": p}, cfg))
        expected = before - cfg.lr * np.sign(p.grad) / (1.0 + EPS_ADAM / np.abs(p.grad))
        np.testing.assert_allclose(p.data, expected, rtol=1e-10)

    def test_zero_grad_zero_wd_leaves_param(self):
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        adam_step({"w": p}, AdamState({"w": p}, cfg))
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_scalar_descent_trace(self):
        # f(theta) = theta^2 from theta=1 with lr=0.1 converges fast
        cfg = TrainConfig(lr=0.1, weight_decay=0.0)
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState({"theta": p}, cfg)
        for _ in range(100):
            p.grad = 2.0 * p.data
            adam_step({"theta": p}, state)
        assert abs(p.data[0]) < 0.05

    def test_state_binds_when_built(self):
        # every parameter becomes its view of flat, holding its old values;
        # with no weight decay there are no decay factors
        rng = np.random.default_rng(42)
        init = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=5),
                "k": rng.normal(size=(2, 1, 3, 3))}
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
        state = AdamState(params, TrainConfig(lr=0.02, weight_decay=0.0))
        assert state.flat.size == sum(v.size for v in init.values())
        for (k, p), view in zip(params.items(), state.views):
            assert p.data is view and np.shares_memory(p.data, state.flat), k
            np.testing.assert_array_equal(p.data, init[k])
        assert state.decay is None and state.lr == 0.02 and state.t == 0

    def test_decay_exemption(self):
        cfg = TrainConfig(lr=0.1, weight_decay=0.5)
        w = Tensor(np.array([[1.0]]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.zeros((1, 1))
        b.grad = np.zeros(1)
        params = {"w": w, "b": b}
        adam_step(params, AdamState(params, cfg))
        np.testing.assert_allclose(w.data, [[1.0 - 0.1 * 0.5]])
        np.testing.assert_array_equal(b.data, [1.0])

    def test_shared_step_count(self):
        cfg = TrainConfig(lr=0.01)
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState({"w": p}, cfg)
        for _ in range(3):
            p.grad = np.ones(1)
            adam_step({"w": p}, state)
        assert state.t == 3

    def test_flat_update_bit_identical_to_per_tensor_adam(self):
        # 50 steps over float32 tensors, the rank-1 ones exempt from decay,
        # one whose gradient is missing on every other step (the state's
        # gradient buffer must not keep the last one); at step 25 one
        # tensor's array is replaced, and the state must take it back in
        cfg = TrainConfig(lr=3e-3, weight_decay=0.05)
        rng = np.random.default_rng(40)
        shapes = {"w": (4, 3), "norm_g": (3,), "b1": (5,), "emb": (6, 2),
                  "idle": (2, 2)}
        init = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        flat = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
        ref = {k: v.copy() for k, v in init.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        state = AdamState(flat, cfg)
        for t in range(1, 51):
            grads = {k: None if k == "idle" and t % 2 else
                     rng.normal(size=s).astype(np.float32)
                     for k, s in shapes.items()}
            if t == 25:
                flat["emb"].data = flat["emb"].data.copy()
            for k, p in flat.items():
                p.grad = grads[k]
            adam_step(flat, state)
            # reference: the per-tensor update, one tensor at a time
            bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            for k, p in ref.items():
                g = np.zeros_like(p) if grads[k] is None else grads[k]
                if p.ndim >= 2:
                    p *= (1.0 - cfg.lr * cfg.weight_decay)
                m[k] *= BETA1
                m[k] += (1.0 - BETA1) * g
                v2[k] *= BETA2
                v2[k] += (1.0 - BETA2) * g * g
                p -= cfg.lr * (m[k] / bc1) / (np.sqrt(v2[k] / bc2) + EPS_ADAM)
        for k in shapes:
            assert flat[k].data.dtype == np.float32
            np.testing.assert_array_equal(flat[k].data, ref[k])

    def test_adam_update_of_a_gathered_gradient_is_adam_step(self):
        # the update alone, its flat gradient gathered by hand into the
        # state's buffer, moves the parameters exactly as adam_step does
        cfg = TrainConfig(lr=3e-3, weight_decay=0.05)
        rng = np.random.default_rng(41)
        shapes = {"w": (4, 3), "norm_g": (3,), "b1": (5,)}
        init = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        stepped = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
        updated = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
        by_step, by_update = AdamState(stepped, cfg), AdamState(updated, cfg)
        for _ in range(10):
            grads = {k: rng.normal(size=s).astype(np.float32)
                     for k, s in shapes.items()}
            for k, p in stepped.items():
                p.grad = grads[k]
            adam_step(stepped, by_step)
            by_update.grad[...] = np.concatenate([g.ravel() for g in grads.values()])
            adam_update(by_update)
        assert by_step.t == by_update.t == 10
        for k in shapes:
            np.testing.assert_array_equal(updated[k].data, stepped[k].data)

    def test_state_is_bound_to_one_parameter_set(self):
        w = {"w": Tensor(np.zeros(2), requires_grad=True)}
        state = AdamState(w, TrainConfig())
        adam_step(w, state)
        with pytest.raises(ContractError):
            adam_step({"u": Tensor(np.zeros(2), requires_grad=True)}, state)

    def test_grad_shape_mismatch(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.zeros(4)
        with pytest.raises(ContractError, match="w"):
            adam_step({"w": p}, AdamState({"w": p}, TrainConfig()))


class TestTrainEpoch:
    def test_loss_finite_and_positive(self):
        model = tiny_model()
        ds = tiny_dataset()
        cfg = TrainConfig(lr=1e-3, batch_size=4, seed=1)
        loss = train_epoch(model, ds, AdamState(model.params, cfg), cfg, epoch=1)
        assert np.isfinite(loss) and loss > 0

    def test_vanishing_lr_leaves_params_bitwise(self):
        # the optimizer contract: as lr -> 0 an epoch applies no update.
        # lr must be strictly positive, so probe with one small enough that
        # every f32 in-place update underflows to a no-op.
        model = tiny_model()
        ds = tiny_dataset()
        before = {k: v.data.copy() for k, v in model.params.items()}
        cfg = TrainConfig(lr=1e-30, weight_decay=0.01, batch_size=4, seed=1)
        train_epoch(model, ds, AdamState(model.params, cfg), cfg, epoch=1)
        for k, arr in before.items():
            after = model.params[k].data
            # nonzero entries cannot move at this lr; exactly-zero entries
            # (zero-init gains) may pick up an O(lr) residue
            nz = arr != 0
            np.testing.assert_array_equal(after[nz], arr[nz])
            assert np.all(np.abs(after[~nz]) < 1e-28)

    def test_deterministic_repeat(self):
        cfg = TrainConfig(lr=1e-3, batch_size=4, seed=5)
        results = []
        for _ in range(2):
            model = tiny_model(seed=3)
            ds = tiny_dataset(seed=2)
            loss = train_epoch(model, ds, AdamState(model.params, cfg), cfg, epoch=1)
            results.append((loss, {k: v.data.copy()
                                   for k, v in model.params.items()}))
        assert results[0][0] == results[1][0]
        for k in results[0][1]:
            np.testing.assert_array_equal(results[0][1][k], results[1][1][k])


class TestFit:
    def _scripted(self, accs, patience, max_epochs=10):
        model = tiny_model()
        snapshots = {}
        calls = {"n": 0}

        def epoch_fn(epoch):
            # perturb one parameter each epoch so best-epoch restoration is
            # observable, then record the state
            model.params["head.b2"].data[:] = float(epoch)
            snapshots[epoch] = {k: v.data.copy()
                                for k, v in model.params.items()}
            return 1.0 / epoch

        def val_fn():
            calls["n"] += 1
            return accs[calls["n"] - 1]

        cfg = TrainConfig(patience=patience, max_epochs=max_epochs)
        report, best = fit(model, None, None, cfg, epoch_fn=epoch_fn,
                           val_fn=val_fn)
        return model, report, best, snapshots

    def test_scripted_early_stop(self):
        model, report, best, snaps = self._scripted([0.5, 0.8, 0.8, 0.8, 0.9],
                                                    patience=2)
        assert len(report.val_accuracies) == 4
        assert report.best_epoch == 2
        assert report.stop_reason == "early_stop"
        np.testing.assert_array_equal(model.params["head.b2"].data,
                                      snaps[2]["head.b2"])

    def test_runs_to_max_epochs_when_improving(self):
        accs = [0.1 * i for i in range(1, 11)]
        model, report, best, _ = self._scripted(accs, patience=2, max_epochs=5)
        assert report.stop_reason == "max_epochs"
        assert report.best_epoch == 5

    def test_best_params_not_last(self):
        model, report, best, snaps = self._scripted([0.9, 0.5, 0.5, 0.5],
                                                    patience=3)
        assert report.best_epoch == 1
        np.testing.assert_array_equal(best["head.b2"], snaps[1]["head.b2"])

    def test_returned_best_state_is_a_copy(self):
        # the model holds its own copy of the best epoch, so changing the
        # model's parameters leaves the returned state as it was
        model, _, best, snaps = self._scripted([0.9, 0.5], patience=1)
        model.params["head.b2"].data[:] = -1.0
        np.testing.assert_array_equal(best["head.b2"], snaps[1]["head.b2"])

    def test_restored_accuracy_is_max(self):
        accs = [0.3, 0.7, 0.6, 0.4, 0.2]
        _, report, _, _ = self._scripted(accs, patience=3)
        assert max(report.val_accuracies) == accs[report.best_epoch - 1]


class TestEvaluateAccuracy:
    def test_known_fraction(self):
        model = tiny_model("text_only")
        ds = tiny_dataset(n=8)
        acc = evaluate_accuracy(model, ds)
        # predictions are deterministic; accuracy is a multiple of 1/8
        assert 0.0 <= acc <= 1.0
        assert abs(acc * 8 - round(acc * 8)) < 1e-9

    def test_eval_mode_repeatable(self):
        model = tiny_model()
        ds = tiny_dataset()
        assert evaluate_accuracy(model, ds) == evaluate_accuracy(model, ds)


class TestEvalOutputs:
    def test_rows_in_dataset_order_over_several_batches(self):
        model = tiny_model("text_only")
        ds = tiny_dataset(n=2 * EVAL_BATCH + 3)
        calls = []

        def forward(reviews, images):
            calls.append((len(reviews), ag._grad_enabled))
            return model.forward_batch(reviews, images)

        logits, labels = eval_outputs(forward, ds)
        assert calls == [(EVAL_BATCH, False), (EVAL_BATCH, False), (3, False)]
        assert logits.shape == (len(ds), 2)
        np.testing.assert_array_equal(labels, ds.labels)
        tail = model.forward_batch(ds.reviews[-3:], None).data
        np.testing.assert_allclose(logits[-3:], tail, rtol=1e-6, atol=1e-6)

    def test_encoder_features(self):
        model = tiny_model("fused")
        feats, _ = eval_outputs(model.encode_batch, tiny_dataset(n=5))
        assert feats.shape == (5, model.fusion_cfg.d_in)

    def test_empty_dataset(self):
        model = tiny_model("text_only")
        with pytest.raises(ContractError):
            eval_outputs(model.forward_batch, tiny_dataset(n=0))


class TestBundleFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.w": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=7).astype(np.float32),
            "c.deep.k": rng.normal(size=(2, 2, 3, 3)).astype(np.float32),
        }
        bundle = ModelBundle(tensors=tensors, config={"mode": "fused", "n": 3})
        path = tmp_path / "m.fkit"
        save_bundle(bundle, path)
        back = load_bundle(path)
        assert back.config == bundle.config
        assert list(back.tensors) == list(tensors)
        for k in tensors:
            np.testing.assert_array_equal(back.tensors[k], tensors[k])

    def test_file_size_accounting(self, tmp_path):
        import json
        tensors = {"w": np.zeros((2, 3), dtype=np.float32),
                   "bias": np.zeros(5, dtype=np.float32)}
        config = {"k": 1}
        path = tmp_path / "m.fkit"
        save_bundle(ModelBundle(tensors=tensors, config=config), path)
        expected = 4 + 4 + 4  # magic, version, count
        for name, arr in tensors.items():
            expected += 4 + len(name) + 4 + 8 * arr.ndim + 4 * arr.size
        expected += 8 + len(json.dumps(config, sort_keys=True))
        assert os.path.getsize(path) == expected

    def test_magic_bytes_on_disk(self, tmp_path):
        path = tmp_path / "m.fkit"
        save_bundle(ModelBundle(tensors={}, config={}), path)
        assert path.read_bytes()[:4] == b"FKIT"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fkit"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_bundle(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.fkit"
        save_bundle(ModelBundle(
            tensors={"w": np.ones((4, 4), dtype=np.float32)}, config={}), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 20])
        with pytest.raises(FormatError, match="truncated"):
            load_bundle(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.fkit"
        save_bundle(ModelBundle(tensors={}, config={}), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9  # version u32 low byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_bundle(path)

    def test_failed_save_leaves_previous_file(self, tmp_path):
        # the config is serialized after every tensor is written, so this
        # save fails midway; the old bundle must survive byte for byte
        path = tmp_path / "m.fkit"
        save_bundle(ModelBundle(tensors={"w": np.ones(3, dtype=np.float32)},
                                config={"k": 1}), path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_bundle(ModelBundle(tensors={"w": np.zeros(9, dtype=np.float32)},
                                    config={"k": object()}), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.fkit"]

    def test_config_survives_unicode(self, tmp_path):
        cfg = {"note": "café résumé", "vocab": ["über"]}
        path = tmp_path / "m.fkit"
        save_bundle(ModelBundle(tensors={}, config=cfg), path)
        assert load_bundle(path).config == cfg


class TestModelBundleRoundtrip:
    def test_model_roundtrip_same_logits(self, tmp_path):
        model = tiny_model(seed=11)
        ds = tiny_dataset(seed=12)
        path = tmp_path / "model.fkit"
        save_bundle(model_to_bundle(model, {"extra": {"max_len": 8}}), path)
        restored = model_from_bundle(load_bundle(path))
        assert restored.mode == model.mode
        batches = list(ds.batches(4, seed=0, epoch=0, shuffle=False))
        for reviews, images, labels in batches:
            a = model.forward_batch(reviews, images, training=False).data
            b = restored.forward_batch(reviews, images, training=False).data
            np.testing.assert_array_equal(a, b)

    def test_loaded_model_takes_the_decoded_arrays(self, tmp_path):
        # one copy per tensor on load: the bundle decoder's
        path = tmp_path / "model.fkit"
        save_bundle(model_to_bundle(tiny_model(seed=13)), path)
        bundle = load_bundle(path)
        restored = model_from_bundle(bundle)
        for name, t in restored.params.items():
            assert t.data is bundle.tensors[name], name

    def test_extra_config_preserved(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.fkit"
        save_bundle(model_to_bundle(model, {"vocab_tokens": ["a", "b"]}), path)
        bundle = load_bundle(path)
        assert bundle.config["vocab_tokens"] == ["a", "b"]
        assert bundle.config["model"]["mode"] == "fused"


class TestModelModes:
    def test_text_only_has_no_image_params(self):
        model = tiny_model("text_only")
        assert not any(k.startswith("img.") for k in model.params)
        assert any(k.startswith("text.") for k in model.params)

    def test_image_only_has_no_text_params(self):
        model = tiny_model("image_only")
        assert not any(k.startswith("text.") for k in model.params)

    def test_fused_head_input_width(self):
        model = tiny_model("fused")
        assert model.fusion_cfg.d_in == 8 + 8

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            ReviewClassifier("both", None, None)

    def test_missing_modality_input(self):
        model = tiny_model("fused")
        ds = tiny_dataset()
        reviews, crops, labels = next(ds.batches(4, seed=0, epoch=0))
        with pytest.raises(ContractError):
            model.forward_batch(reviews, None)
        # a Tensor of normalized pixels is not a crop batch
        with pytest.raises(ContractError, match="uint8 crop batch"):
            model.forward_batch(reviews, Tensor(normalize_batch(crops)))

    def test_text_only_ignores_crops(self):
        model = tiny_model("text_only")
        reviews, crops, _ = next(tiny_dataset().batches(4, seed=0, epoch=0))
        assert crops is not None
        assert (model.forward_batch(reviews, crops).data.tobytes()
                == model.forward_batch(reviews, None).data.tobytes())

    def test_image_modes_normalize_the_crops(self):
        # encode_batch is encode_image of the normalized crops, bit for bit
        model = tiny_model("image_only")
        crops = tiny_dataset().images[:4]
        want = encode_image(model._sub("img."), model.image_cfg,
                            Tensor(normalize_batch(crops)))
        assert model.encode_batch(None, crops).data.tobytes() == want.data.tobytes()

    def test_float64_model_reads_float64_pixels(self, monkeypatch):
        seen = []

        def spy(params, cfg, img):
            seen.append(img.data)
            return encode_image(params, cfg, img)

        monkeypatch.setattr(model_module, "encode_image", spy)
        crops = tiny_dataset().images[:3]
        feats = tiny_model("fused", dtype=np.float64).encode_batch(
            tiny_dataset().reviews[:3], crops)
        assert seen[0].dtype == feats.data.dtype == np.float64
        np.testing.assert_array_equal(seen[0], normalize_batch(crops))

    def test_decay_exempt_rules(self):
        # over every desk mode and the three paper-scale layouts, the rank
        # rule (rank >= 2 decays) leaves out exactly the biases and the norm
        # gains and shifts, by name; paper-scale layouts are checked at their
        # ranks with every axis cut to 1
        undecayed = re.compile(r"(.*\.)?(.*norm.*_[gb]|ln.*_[gb]|ffn_b.*)|head\.b[12]")
        layouts = {mode: desk_model(mode, vocab_size=30).params for mode in MODES}
        for name, layout in (
                ("paper_text", text_encoder_layout(paper_scale_text_config(30_522))),
                ("paper_image", image_encoder_layout(paper_scale_image_config())),
                ("paper_head", fusion_layout(paper_scale_fusion_config()))):
            layouts[name] = {k: Tensor(np.zeros((1,) * len(shape), np.float32))
                             for k, shape, _ in layout}
        for name, params in layouts.items():
            want = [bool(undecayed.fullmatch(k)) for k in params]
            assert any(want) and not all(want), name
            sizes = [p.data.size for p in params.values()]
            state = AdamState(params, TrainConfig(weight_decay=0.01))
            np.testing.assert_array_equal(state.decay == 1, np.repeat(want, sizes),
                                          err_msg=name)
