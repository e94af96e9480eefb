import numpy as np
import pytest

from reviewfuse.errors import ManifestError
from reviewfuse.synthgen import GeneratorSpec, generate_synthetic
from reviewfuse.training import TrainConfig, fit
from reviewfuse.workflow import compare_baselines, desk_model, load_corpus


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
        assert len(c.train.reviews[0].ids) == 16

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
        # the train command's path: a desk model fitted on a loaded corpus
        cfg = TrainConfig(lr=1e-3, max_epochs=1, patience=1, batch_size=16,
                          seed=2)
        model = desk_model("text_only", vocab_size=len(tiny_corpus.vocab),
                           seed=cfg.seed)
        report, _ = fit(model, tiny_corpus.train, tiny_corpus.val, cfg)
        assert len(report.train_losses) == 1
        assert np.isfinite(report.train_losses[0])
        assert 0.0 <= report.val_accuracies[0] <= 1.0


class TestCompareBaselines:
    def test_three_rows_with_reference(self, tiny_corpus):
        cfg = TrainConfig(lr=1e-3, max_epochs=1, patience=1, batch_size=16,
                          seed=2)
        reports, meta = compare_baselines(tiny_corpus, cfg)
        assert [r.model_tag for r in reports] == ["text_only", "image_only",
                                                  "fused"]
        assert all(r.split_tag == "test" for r in reports)
        assert meta["benchmark_reference"]["fused"]["accuracy"] == 0.934
        assert meta["seed"] == 2
