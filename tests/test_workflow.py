import numpy as np
import pytest

from reviewfuse import autograd as ag
from reviewfuse import workflow
from reviewfuse.autograd import Tensor
from reviewfuse.data import PreparedDataset, ReviewSample
from reviewfuse.errors import ManifestError
from reviewfuse.fusion import classify_batch, predict_labels
from reviewfuse.imageproc import encode_ppm
from reviewfuse.metrics import PAPER_REFERENCE, evaluate
from reviewfuse.model import MODES
from reviewfuse.synthgen import GeneratorSpec, generate_synthetic
from reviewfuse.training import (
    BETA1,
    BETA2,
    EPS_ADAM,
    AdamState,
    TrainConfig,
    adam_step,
    eval_outputs,
    fit,
)
from reviewfuse.workflow import (
    WARM_LR,
    compare_baselines,
    desk_model,
    load_corpus,
    train_model,
    warm_start_head,
)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = GeneratorSpec(n=60, seed=9, image_side=37)
    generate_synthetic(spec, out, ratios=(0.6, 0.2, 0.2))
    return load_corpus(out, max_len=16, crop_side=32, vocab_size=200)


class TestLoadCorpus:
    def test_splits_and_shapes(self, tiny_corpus):
        c = tiny_corpus
        assert len(c.train.labels) == 36
        assert len(c.val.labels) == 12
        assert len(c.test.labels) == 12
        assert c.train.images.shape == (36, 3, 32, 32)
        assert c.train.reviews.shape == (36, 16)
        assert c.train.reviews.dtype == np.int32

    def test_vocab_from_train_only(self, tiny_corpus):
        assert len(tiny_corpus.vocab) <= 200

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="train.csv"):
            load_corpus(tmp_path)


class TestDeskModel:
    def test_modes_and_param_counts(self):
        fused = desk_model("fused", vocab_size=100)
        text = desk_model("text_only", vocab_size=100)
        image = desk_model("image_only", vocab_size=100)
        assert set(text.params) < set(fused.params) | set()
        assert not any(k.startswith("img.") for k in text.params)
        assert not any(k.startswith("text.") for k in image.params)
        assert fused.fusion_cfg.d_in == 32 + 64

    def test_same_seed_same_init(self):
        a = desk_model("fused", vocab_size=50, seed=4)
        b = desk_model("fused", vocab_size=50, seed=4)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)


class TestTrainOnCorpus:
    def test_one_epoch_run(self, tiny_corpus):
        # a desk model fitted on a loaded corpus
        cfg = TrainConfig(lr=1e-3, max_epochs=1, patience=1, batch_size=16,
                          seed=2)
        model = desk_model("text_only", vocab_size=len(tiny_corpus.vocab),
                           seed=cfg.seed)
        report, _ = fit(model, tiny_corpus.train, tiny_corpus.val, cfg)
        assert len(report.train_losses) == 1
        assert np.isfinite(report.train_losses[0])
        assert 0.0 <= report.val_accuracies[0] <= 1.0


def graph_warm_start(model, train_set, val_set, cfg, epochs):
    """The warm start through the autograd graph: per batch a
    ``classify_batch`` node, ``cross_entropy``, ``backward`` and
    ``adam_step``. Returns the best accuracy, its epoch and the head of the
    last epoch, and leaves the model holding the best epoch's head."""
    Xtr, ytr = eval_outputs(model.encode_batch, train_set)
    Xva, yva = eval_outputs(model.encode_batch, val_set)
    head = {k: v for k, v in model.params.items() if k.startswith("head.")}
    warm_cfg = TrainConfig(lr=WARM_LR, weight_decay=0.0,
                           batch_size=cfg.batch_size, seed=cfg.seed)
    state = AdamState(head, warm_cfg)
    best_acc, best_epoch = -1.0, 0
    best = {k: v.data.copy() for k, v in head.items()}
    for epoch in range(1, epochs + 1):
        rng = np.random.default_rng([cfg.seed, epoch, 0x4EAD])
        order = rng.permutation(len(ytr))
        for i in range(0, len(order), warm_cfg.batch_size):
            idx = order[i:i + warm_cfg.batch_size]
            logits = classify_batch(model.params, model.fusion_cfg,
                                    Tensor(Xtr[idx]))
            loss = ag.cross_entropy(logits, ytr[idx])
            for t in head.values():
                t.zero_grad()
            loss.backward()
            adam_step(head, state)
        with ag.no_grad():
            logits = classify_batch(model.params, model.fusion_cfg,
                                    Tensor(Xva))
        acc = float((predict_labels(logits) == yva).mean())
        if acc > best_acc:
            best_acc, best_epoch = acc, epoch
            best = {k: v.data.copy() for k, v in head.items()}
    last = {k: v.data.copy() for k, v in head.items()}
    for k, t in head.items():
        t.data[...] = best[k]
    return best_acc, best_epoch, last


def gathered_warm_start(model, train_set, val_set, cfg):
    """The array warm start as it was before each epoch was gathered once:
    a fresh ``Xtr[idx]`` gather a step and ``adam_update`` with a fresh
    temporary and no flush of subnormal first moments. Returns the best
    accuracy and the most subnormal entries Adam's ``m`` held after any
    step."""
    Xtr, ytr = eval_outputs(model.encode_batch, train_set)
    Xva, yva = eval_outputs(model.encode_batch, val_set)
    head = {k: v for k, v in model.params.items() if k.startswith("head.")}
    warm_cfg = TrainConfig(lr=WARM_LR, weight_decay=0.0,
                           batch_size=cfg.batch_size, seed=cfg.seed)
    state = AdamState(head, warm_cfg)
    g = np.empty_like(state.flat)
    params, grad_views = state.split(state.flat), state.split(g)
    names = ("head.w1", "head.b1", "head.w2", "head.b2")
    w1, b1, w2, b2 = (params[k] for k in names)
    grads = [grad_views[k] for k in names]
    one, tiny = np.float32(1), np.finfo(np.float32).tiny
    best_acc, best, most_subnormal = -1.0, state.flat.copy(), 0
    for epoch in range(1, workflow.WARM_EPOCHS + 1):
        rng = np.random.default_rng([cfg.seed, epoch, 0x4EAD])
        order = rng.permutation(len(ytr))
        for i in range(0, len(order), warm_cfg.batch_size):
            idx = order[i:i + warm_cfg.batch_size]
            x = Xtr[idx]
            pre, hidden, logits = ag.mlp_head_forward(x, w1, b1, w2, b2)
            dlogits = ag.xent_grad(ag.softmax_rows(logits), ytr[idx],
                                   one / len(idx))
            ag.mlp_head_grads(dlogits, x, pre, hidden, w1, w2, grads)
            theta, m, v = state.flat, state.m, state.v
            tmp = np.empty_like(theta)
            state.t += 1
            bc1 = 1.0 - BETA1 ** state.t
            bc2 = 1.0 - BETA2 ** state.t
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=tmp)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=tmp)
            v += np.multiply(tmp, g, out=tmp)
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS_ADAM
            step = np.divide(m, bc1, out=g)
            step *= warm_cfg.lr
            step /= tmp
            theta -= step
            most_subnormal = max(most_subnormal,
                                 int(((m != 0) & (np.abs(m) < tiny)).sum()))
        logits = ag.mlp_head_forward(Xva, w1, b1, w2, b2)[2]
        acc = float((predict_labels(logits) == yva).mean())
        if acc > best_acc:
            best_acc, best = acc, state.flat.copy()
    state.flat[...] = best
    return best_acc, most_subnormal


class TestWarmStartHead:
    # 36 training samples at B=16: every epoch ends in a ragged batch of 4
    CFG = TrainConfig(lr=5e-4, batch_size=16, seed=3)

    @pytest.mark.parametrize("mode", ["text_only", "image_only", "fused"])
    def test_bit_identical_to_the_graph_loop(self, tiny_corpus, mode):
        models = [desk_model(mode, vocab_size=len(tiny_corpus.vocab), seed=5)
                  for _ in range(2)]
        acc = warm_start_head(models[0], tiny_corpus.train, tiny_corpus.val,
                              self.CFG)
        ref_acc, _, _ = graph_warm_start(models[1], tiny_corpus.train,
                                         tiny_corpus.val, self.CFG,
                                         workflow.WARM_EPOCHS)
        assert acc == ref_acc
        for k, t in models[0].params.items():
            assert t.data.dtype == np.float32
            np.testing.assert_array_equal(t.data, models[1].params[k].data,
                                          err_msg=k)

    def test_restores_the_best_epoch_not_the_last(self, tiny_corpus,
                                                  monkeypatch):
        epochs = 40
        monkeypatch.setattr(workflow, "WARM_EPOCHS", epochs)
        models = [desk_model("text_only", vocab_size=len(tiny_corpus.vocab),
                             seed=5) for _ in range(2)]
        acc = warm_start_head(models[0], tiny_corpus.train, tiny_corpus.val,
                              self.CFG)
        ref_acc, best_epoch, last = graph_warm_start(
            models[1], tiny_corpus.train, tiny_corpus.val, self.CFG, epochs)
        assert 1 < best_epoch < epochs and acc == ref_acc
        for k, v in last.items():
            np.testing.assert_array_equal(models[0].params[k].data,
                                          models[1].params[k].data)
            assert not np.array_equal(models[0].params[k].data, v), k


    @pytest.mark.parametrize("mode", ["text_only", "image_only", "fused"])
    def test_bit_identical_to_the_gathered_loop(self, tiny_corpus, mode,
                                                monkeypatch):
        # 8 steps an epoch, the last on one row, and enough steps that
        # first moments of dead hidden units decay below float32's smallest
        # normal, which adam_update now flushes to zero
        monkeypatch.setattr(workflow, "WARM_EPOCHS", 120)
        cfg = TrainConfig(lr=5e-4, batch_size=5, seed=3)
        models = [desk_model(mode, vocab_size=len(tiny_corpus.vocab), seed=5)
                  for _ in range(2)]
        acc = warm_start_head(models[0], tiny_corpus.train, tiny_corpus.val,
                              cfg)
        ref_acc, most_subnormal = gathered_warm_start(
            models[1], tiny_corpus.train, tiny_corpus.val, cfg)
        assert most_subnormal > 0 and acc == ref_acc
        for k, t in models[0].params.items():
            assert t.data.tobytes() == models[1].params[k].data.tobytes(), k


@pytest.fixture
def fit_reports(monkeypatch):
    """The report of every ``fit`` that ``workflow`` runs, in call order."""
    reports = []

    def recording_fit(*args, **kwargs):
        report, best = fit(*args, **kwargs)
        reports.append(report)
        return report, best

    monkeypatch.setattr(workflow, "fit", recording_fit)
    return reports


class TestTrainModel:
    def test_warm_start_is_a_fit_run_with_finite_losses(self, tiny_corpus,
                                                         monkeypatch, fit_reports):
        monkeypatch.setattr(workflow, "WARM_EPOCHS", 12)
        model = desk_model("text_only", vocab_size=len(tiny_corpus.vocab), seed=5)
        acc = warm_start_head(model, tiny_corpus.train, tiny_corpus.val,
                              TestWarmStartHead.CFG)
        report, = fit_reports
        assert len(report.train_losses) == 12
        assert report.stop_reason == "max_epochs"
        assert all(np.isfinite(report.train_losses))
        assert acc == max(report.val_accuracies)

    def test_epoch_loss_is_the_mean_cross_entropy_of_its_steps(
            self, tiny_corpus, monkeypatch, fit_reports):
        # one epoch of one step over the whole split: its loss is the graph
        # cross-entropy of the initial head on every training feature row
        monkeypatch.setattr(workflow, "WARM_EPOCHS", 1)
        model = desk_model("fused", vocab_size=len(tiny_corpus.vocab), seed=5)
        feats, labels = eval_outputs(model.encode_batch, tiny_corpus.train)
        with ag.no_grad():
            want = ag.cross_entropy(classify_batch(
                model.params, model.fusion_cfg, Tensor(feats)),
                labels).item()
        cfg = TrainConfig(batch_size=len(labels), seed=3)
        warm_start_head(model, tiny_corpus.train, tiny_corpus.val, cfg)
        np.testing.assert_allclose(fit_reports[0].train_losses, [want], rtol=1e-6)

    def test_warm_start_then_fit(self, tiny_corpus):
        cfg = TrainConfig(lr=1e-3, max_epochs=2, patience=1, batch_size=16,
                          seed=2)
        logged = []
        model, report = train_model("text_only", tiny_corpus, cfg, logged.append)
        by_hand = desk_model("text_only", vocab_size=len(tiny_corpus.vocab),
                             seed=cfg.seed)
        warm_acc = warm_start_head(by_hand, tiny_corpus.train, tiny_corpus.val, cfg)
        fit(by_hand, tiny_corpus.train, tiny_corpus.val, cfg)
        assert logged[0] == f"head warmup val_acc={warm_acc:.4f}"
        assert logged[1].startswith("epoch 1: ")
        assert 1 <= report.best_epoch <= len(report.train_losses) <= 2
        for k, t in model.params.items():
            assert t.data.tobytes() == by_hand.params[k].data.tobytes(), k


class TestCompareBaselines:
    def test_each_arm_is_train_model(self, tiny_corpus, monkeypatch):
        calls = []

        def stub(mode, corpus, cfg, log=None):
            calls.append((mode, corpus, cfg))
            return desk_model(mode, vocab_size=len(corpus.vocab), seed=cfg.seed), None

        monkeypatch.setattr(workflow, "train_model", stub)
        cfg = TrainConfig(seed=2)
        compare_baselines(tiny_corpus, cfg)
        assert calls == [(mode, tiny_corpus, cfg) for mode in MODES]

    def test_three_rows_with_reference(self, tiny_corpus):
        cfg = TrainConfig(lr=1e-3, max_epochs=1, patience=1, batch_size=16,
                          seed=2)
        reports = compare_baselines(tiny_corpus, cfg)
        assert [r.model_tag for r in reports] == ["text_only", "image_only",
                                                  "fused"]
        assert all(r.split_tag == "test" for r in reports)
        # each row has the reference row eval --compare prints beside it
        assert sorted(PAPER_REFERENCE) == sorted(r.model_tag for r in reports)


class TestBenchmarkContract:
    """What ``perfbench`` builds and calls keeps working: a seeded subset
    rebuilt through the constructor from rows, ``prepare`` with every size
    and modality spelled out, positional ``batches``, and ``fit`` through a
    split wrapper that passes every argument on."""

    @staticmethod
    def subset(ds, k, rng):
        idx = np.sort(rng.permutation(len(ds))[:k])
        return PreparedDataset(
            reviews=[ds.reviews[i] for i in idx] if ds.reviews is not None else None,
            images=ds.images[idx] if ds.images is not None else None,
            labels=ds.labels[idx], ids=[ds.ids[i] for i in idx])

    class Passthrough:
        def __init__(self, ds):
            self.ds = ds

        def __len__(self):
            return len(self.ds)

        def batches(self, *args, **kwargs):
            yield from self.ds.batches(*args, **kwargs)

    def test_subset_step_and_eval(self, tiny_corpus):
        c = tiny_corpus
        sub = self.subset(c.train, 20, np.random.default_rng(3))
        assert sub.reviews.dtype == np.int32 and sub.reviews.shape == (20, 16)
        model = desk_model("fused", vocab_size=len(c.vocab), max_len=c.max_len,
                           crop_side=c.crop_side, seed=3)
        reviews, images, labels = next(sub.batches(8, 3, 1))
        logits = model.forward_batch(reviews, images, training=True,
                                     rng=np.random.default_rng(3))
        ag.cross_entropy(logits, labels).backward()
        assert all(t.grad is not None for t in model.params.values())
        reviews, images, labels = next(sub.batches(64, shuffle=False))
        assert len(labels) == 20
        with ag.no_grad():
            logits = model.forward_batch(reviews, images).data
        assert logits.shape == (20, 2) and np.isfinite(logits).all()

    @pytest.mark.parametrize("mode", ["text_only", "image_only"])
    def test_prepare_fit_and_evaluate_one_modality(self, tiny_corpus, tmp_path,
                                                   mode):
        c = tiny_corpus
        samples = [ReviewSample(i, "great food", 1, image_path=None)
                   for i in ("a", "b")]
        model = desk_model(mode, vocab_size=len(c.vocab), seed=1)
        if mode == "image_only":
            for s in samples:
                path = tmp_path / f"{s.id}.ppm"
                path.write_bytes(encode_ppm(np.full((37, 37, 3), 90, dtype=np.uint8)))
                s.image_path = str(path)
        ds = PreparedDataset.prepare(
            samples, vocab=c.vocab, max_len=c.max_len, crop_side=c.crop_side,
            need_text=model.text_cfg is not None,
            need_images=model.image_cfg is not None)
        wrapped = self.Passthrough(self.subset(c.train, 12,
                                               np.random.default_rng(1)))
        fit(model, wrapped, wrapped, TrainConfig(max_epochs=1, batch_size=4))
        assert evaluate(model, ds).n == 2
