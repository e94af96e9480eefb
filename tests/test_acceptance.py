"""End-to-end acceptance gate.

Each test pins one of the package's headline guarantees: the gradient
oracle, the metrics oracle, the desk-scale baseline ordering (fused >
either unimodal arm), generator calibration against its Bayes ceilings,
split stratification at benchmark scale, paper-scale shape conformance,
bitwise training determinism, early stopping, and a training sanity run.

The baseline-comparison test regenerates the default corpus and trains
three models, so this module is the slow part of the suite (several
minutes); everything else is seconds.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from reviewfuse import autograd as ag, gradsuite
from reviewfuse.cli import COMPARE_TRAIN, main
from reviewfuse.data import ReviewSample, stratified_split
from reviewfuse.fusion import fusion_layout, paper_scale_fusion_config
from reviewfuse.gradsuite import run_gradcheck
from reviewfuse.image_encoder import paper_scale_image_config
from reviewfuse.metrics import ConfusionMatrix, compute_metrics
from reviewfuse.model import MODES, ReviewClassifier
from reviewfuse.synthgen import (
    GeneratorSpec,
    generate_synthetic,
    image_bayes_accuracy,
    simulate_latents,
    text_bayes_accuracy,
)
from reviewfuse.text_encoder import TextEncoderConfig, paper_scale_text_config
from reviewfuse.textproc import build_vocab
from reviewfuse.data import PreparedDataset
from reviewfuse.image_encoder import ImageEncoderConfig
from reviewfuse.training import TrainConfig, evaluate_accuracy, fit
from reviewfuse.workflow import compare_baselines, load_corpus

from graph_walk import op_counts, step_op_counts


def test_gradient_oracle_all_layers():
    # every layer type against central finite differences (f64 at 1e-6,
    # the full fused f32 model against a f64 twin at 1e-3), under a minute
    start = time.time()
    results = run_gradcheck(seed=0)
    elapsed = time.time() - start
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"gradcheck failures: {failed}"
    assert {r.name for r in results} >= {
        "matmul", "conv2d", "layer_norm", "channel_norm", "attention_block",
        "residual_block", "embedding", "cross_entropy", "fusion_head",
        "full_model_f32",
    }
    assert elapsed < 60.0


def test_float64_checks_cover_every_step_op(monkeypatch):
    # every op that a B=32 desk training step builds, in any mode, is in
    # the graph of some float64 component check
    checked = Counter()

    def graph_of(f, params, **kwargs):
        checked.update(op_counts(f()))
        return 0.0

    monkeypatch.setattr(gradsuite, "grad_check", graph_of)
    for _, check in gradsuite._F64_CHECKS:
        check(np.random.default_rng(0))
    for mode in MODES:
        missing = set(step_op_counts(mode)) - set(checked)
        assert not missing, f"{mode}: no float64 check of {sorted(missing)}"


class TestMetricsOracle:
    def test_worked_example(self):
        rep = compute_metrics(ConfusionMatrix(tp=3, fp=1, fn=1, tn=5))
        assert rep.accuracy == pytest.approx(0.8)
        assert rep.precision == pytest.approx(0.75)
        assert rep.recall == pytest.approx(0.75)
        assert rep.f1 == pytest.approx(0.75)

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 2, size=n)
            golds = rng.integers(0, 2, size=n)
            tp = int(np.sum((preds == 1) & (golds == 1)))
            fp = int(np.sum((preds == 1) & (golds == 0)))
            fn = int(np.sum((preds == 0) & (golds == 1)))
            tn = int(np.sum((preds == 0) & (golds == 0)))
            rep = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            acc = (tp + tn) / n
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = (2 * prec * rec / (prec + rec)) if prec + rec else 0.0
            assert abs(rep.accuracy - acc) < 1e-12
            assert abs(rep.precision - prec) < 1e-12
            assert abs(rep.recall - rec) < 1e-12
            assert abs(rep.f1 - f1) < 1e-12


def test_fused_beats_both_unimodal_baselines(tmp_path):
    # the qualitative headline: on the default corpus, concat fusion
    # recovers the cross-modal signal neither arm can see alone
    start = time.time()
    data = tmp_path / "corpus"
    generate_synthetic(GeneratorSpec(), str(data))
    corpus = load_corpus(str(data))
    cfg = TrainConfig(seed=0, **COMPARE_TRAIN)
    reports = compare_baselines(corpus, cfg)
    acc = {r.model_tag: r.accuracy for r in reports}
    assert acc["text_only"] > acc["image_only"]
    assert acc["fused"] >= acc["text_only"] + 0.05
    assert acc["fused"] >= acc["image_only"] + 0.05
    assert acc["fused"] >= 0.85
    assert time.time() - start < 600.0


class TestGeneratorCalibration:
    def test_unimodal_bayes_ceilings(self):
        spec = GeneratorSpec()
        lat = simulate_latents(spec, 100_000, np.random.default_rng(123))
        assert abs(text_bayes_accuracy(lat) - 0.75) <= 0.01
        assert abs(image_bayes_accuracy(lat) - 0.70) <= 0.01


def test_split_stratification_at_benchmark_scale():
    n = 20_144
    samples = [ReviewSample(f"s{i}", "t", i % 2) for i in range(n)]
    split = stratified_split(samples, ratios=(0.6, 0.2, 0.2), seed=0)
    for name, want in (("train", 12_086), ("val", 4_029), ("test", 4_029)):
        part = split[name]
        assert abs(len(part) - want) <= 1
        labels = [s.label for s in part]
        assert abs(labels.count(0) - labels.count(1)) <= 1
    ids = [s.id for part in split.values() for s in part]
    assert len(set(ids)) == n


def test_paper_scale_shapes_by_construction():
    text_cfg = paper_scale_text_config(vocab_size=30_522)
    image_cfg = paper_scale_image_config()
    fusion_cfg = paper_scale_fusion_config()
    assert text_cfg.d_model == 768
    assert image_cfg.d_out == 2048
    assert fusion_cfg.d_in == text_cfg.d_model + image_cfg.d_out == 2816
    assert fusion_cfg.d_hidden == 512
    params = ag.init_params(fusion_layout(fusion_cfg), np.random.default_rng(0))
    assert params["head.w1"].data.shape == (2816, 512)
    assert params["head.w2"].data.shape == (512, 2)


def test_training_is_bitwise_deterministic(tmp_path):
    data = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(data), "--n", "80",
                 "--seed", "11"]) == 0
    blobs = []
    for run in ("a", "b"):
        model = tmp_path / f"{run}.fkit"
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--mode", "fused", "--seed", "5", "--max-epochs", "2",
                     "--patience", "1"]) == 0
        blobs.append((model.read_bytes(),
                      (tmp_path / f"{run}.fkit.report.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_early_stopping_restores_best_epoch():
    text_cfg = TextEncoderConfig(vocab_size=20, d_model=8, n_layers=1,
                                 n_heads=2, d_ff=16, max_len=8)
    image_cfg = ImageEncoderConfig(input_side=8, stem_channels=4,
                                   stages=[(1, 4, 1), (1, 8, 2)])
    model = ReviewClassifier("text_only", text_cfg, image_cfg, d_hidden=8,
                             seed=0)
    accs = [0.5, 0.8, 0.8, 0.8]
    snapshots = {}
    state = {"epoch": 0}

    def epoch_fn(epoch):
        model.params["head.b2"].data[:] = float(epoch)
        snapshots[epoch] = model.params["head.b2"].data.copy()
        return 1.0 / epoch

    def val_fn():
        state["epoch"] += 1
        return accs[state["epoch"] - 1]

    cfg = TrainConfig(patience=2, max_epochs=50)
    report, _ = fit(model, None, None, cfg, epoch_fn=epoch_fn, val_fn=val_fn)
    assert len(report.val_accuracies) == 4
    assert report.best_epoch == 2
    np.testing.assert_array_equal(model.params["head.b2"].data, snapshots[2])


def test_training_sanity_on_separable_data():
    # 64 samples whose label is fully determined by a single token
    words = {0: "awful", 1: "great"}
    samples = [ReviewSample(f"x{i}", f"{words[i % 2]} product", i % 2)
               for i in range(64)]
    vocab = build_vocab([s.text for s in samples], max_size=20)
    ds = PreparedDataset.prepare(samples, vocab=vocab, max_len=8,
                                 need_images=False)
    # there are two distinct inputs, so accuracy reads 0.5 until both sit on
    # the right side of the decision threshold; from a fresh init that took
    # up to 7 epochs of 4 steps over seeds 0-7, so 5 epochs (or patience 5)
    # passed or failed by the seed's luck
    for text_dropout in (0.0, 0.1):
        for seed in range(4):
            text_cfg = TextEncoderConfig(vocab_size=len(vocab), d_model=8,
                                         n_layers=1, n_heads=2, d_ff=16,
                                         max_len=8, dropout_p=text_dropout)
            image_cfg = ImageEncoderConfig(input_side=8, stem_channels=4,
                                           stages=[(1, 4, 1), (1, 8, 2)])
            model = ReviewClassifier("text_only", text_cfg, image_cfg,
                                     d_hidden=8, seed=seed)
            cfg = TrainConfig(lr=1e-2, weight_decay=0.0, batch_size=16,
                              max_epochs=15, patience=15, seed=seed)
            report, _ = fit(model, ds, ds, cfg)
            assert report.train_losses[4] < report.train_losses[0]
            assert evaluate_accuracy(model, ds) == 1.0, (text_dropout, seed)
