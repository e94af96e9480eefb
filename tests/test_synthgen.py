import json
import os
from collections import Counter

import numpy as np
import pytest

from reviewfuse.data import read_manifest
from reviewfuse.errors import ParameterError
from reviewfuse.imageproc import load_ppm
from reviewfuse.synthgen import (
    FAKE_PHRASES,
    GENUINE_PHRASES,
    HUE_TINTS,
    TOPIC_WORDS,
    TOPICS,
    GeneratorSpec,
    combined_bayes_accuracy,
    generate_synthetic,
    image_bayes_accuracy,
    render_image,
    render_text,
    simulate_latents,
    text_bayes_accuracy,
)


class TestSpec:
    def test_sigma_calibration_closed_form(self):
        # Phi(gap / (2 sigma)) must equal the target accuracy
        import statistics
        spec = GeneratorSpec()
        gap = spec.mu_fake - spec.mu_genuine
        acc = statistics.NormalDist().cdf(gap / (2 * spec.sigma))
        assert abs(acc - spec.image_bayes_target) < 1e-12

    def test_explicit_sigma_kept(self):
        spec = GeneratorSpec(sigma=0.5)
        assert spec.sigma == 0.5

    def test_bad_flip_rate(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(text_flip_rate=0.5)

    def test_bad_p_match(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(p_match=0.5)

    def test_phrase_lists_disjoint_and_sized(self):
        assert len(GENUINE_PHRASES) == 16
        assert len(FAKE_PHRASES) == 16
        assert not set(GENUINE_PHRASES) & set(FAKE_PHRASES)

    def test_hue_tints_brightness_neutral(self):
        means = HUE_TINTS.mean(axis=1)
        np.testing.assert_allclose(means, means[0])


class TestLatents:
    def test_balanced_labels(self):
        spec = GeneratorSpec()
        lat = simulate_latents(spec, 1000, np.random.default_rng(0))
        counts = Counter(lat.label.tolist())
        assert counts[0] == counts[1] == 500

    def test_flip_rate_monte_carlo(self):
        spec = GeneratorSpec(text_flip_rate=0.25)
        lat = simulate_latents(spec, 100_000, np.random.default_rng(1))
        flip_frac = float((lat.text_list != lat.label).mean())
        assert abs(flip_frac - 0.25) < 0.01

    def test_brightness_clipped(self):
        spec = GeneratorSpec(sigma=2.0)
        lat = simulate_latents(spec, 5000, np.random.default_rng(2))
        assert lat.brightness.min() >= 0.0 and lat.brightness.max() <= 1.0

    def test_hue_match_rates(self):
        spec = GeneratorSpec(p_match=0.95)
        lat = simulate_latents(spec, 100_000, np.random.default_rng(3))
        gen = lat.label == 1
        # genuine: p_match + (1-p_match)/k; fake: 1/k
        k = spec.n_topics
        gen_rate = float((lat.hue[gen] == lat.topic[gen]).mean())
        fake_rate = float((lat.hue[~gen] == lat.topic[~gen]).mean())
        assert abs(gen_rate - (0.95 + 0.05 / k)) < 0.01
        assert abs(fake_rate - 1.0 / k) < 0.01


class TestBayesOracles:
    def test_text_oracle_hits_target(self):
        spec = GeneratorSpec()
        lat = simulate_latents(spec, 100_000, np.random.default_rng(4))
        assert abs(text_bayes_accuracy(lat) - 0.75) < 0.01

    def test_image_oracle_hits_target(self):
        spec = GeneratorSpec()
        lat = simulate_latents(spec, 100_000, np.random.default_rng(5))
        assert abs(image_bayes_accuracy(lat, spec) - 0.70) < 0.01

    def test_combined_beats_both(self):
        spec = GeneratorSpec()
        lat = simulate_latents(spec, 100_000, np.random.default_rng(6))
        combined = combined_bayes_accuracy(lat, spec)
        assert combined > text_bayes_accuracy(lat) + 0.05
        assert combined > image_bayes_accuracy(lat, spec) + 0.05

    def test_combined_matches_independent_mc_estimate(self):
        # independent oracle: numerically integrate the posterior on a fresh
        # latent draw using only closed-form pieces, no shared code paths
        spec = GeneratorSpec()
        rng = np.random.default_rng(7)
        lat = simulate_latents(spec, 50_000, rng)
        acc = combined_bayes_accuracy(lat, spec)
        assert 0.85 < acc < 0.89

    def test_degenerate_single_topic_kills_hue_signal(self):
        spec = GeneratorSpec(n_topics=1)
        lat = simulate_latents(spec, 50_000, np.random.default_rng(8))
        # with one topic the hue always matches; combined = text + brightness
        assert (lat.hue == lat.topic).all()


class TestRendering:
    def test_text_topic_words_lead_then_phrase(self):
        # topic words open the review so they survive truncation; the class
        # phrase follows immediately after them
        spec = GeneratorSpec()
        topic_words = set(TOPIC_WORDS[TOPICS[0]])
        rng = np.random.default_rng(9)
        for _ in range(20):
            words = render_text(spec, 0, 1, rng).split()
            head, rest = words[: spec.topic_mentions], words[spec.topic_mentions :]
            assert all(w in topic_words for w in head)
            tail = " ".join(rest)
            assert any(tail.startswith(p) for p in spec.genuine_phrases)

    def test_text_word_count_near_average(self):
        spec = GeneratorSpec()
        rng = np.random.default_rng(10)
        counts = [len(render_text(spec, 1, 0, rng).split()) for _ in range(200)]
        assert abs(np.mean(counts) - spec.avg_words) < 2

    def test_image_shape_and_brightness_ordering(self):
        spec = GeneratorSpec()
        rng = np.random.default_rng(11)
        dark = render_image(spec, 0.2, 0, rng)
        bright = render_image(spec, 0.9, 0, rng)
        assert dark.shape == (37, 37, 3) and dark.dtype == np.uint8
        assert bright.mean() > dark.mean() + 50

    def test_image_hue_dominant_channel(self):
        spec = GeneratorSpec()
        rng = np.random.default_rng(12)
        for hue in range(3):
            img = render_image(spec, 0.6, hue, rng)
            chan_means = img.reshape(-1, 3).mean(axis=0)
            assert int(np.argmax(chan_means)) == hue


class TestGenerateSynthetic:
    def test_end_to_end_layout(self, tmp_path):
        spec = GeneratorSpec(n=40, seed=3, image_side=16)
        split = generate_synthetic(spec, tmp_path)
        assert sorted(os.listdir(tmp_path / "images")) == \
               sorted(f"s{i:06d}.ppm" for i in range(40))
        for name, part in (("train", split.train), ("val", split.val),
                           ("test", split.test)):
            on_disk = read_manifest(tmp_path / f"{name}.csv")
            assert [s.id for s in on_disk] == [s.id for s in part]
        prov = json.loads((tmp_path / "provenance.json").read_text())
        assert prov["spec"]["n"] == 40
        assert prov["spec"]["seed"] == 3
        img = load_ppm(tmp_path / "images" / "s000000.ppm")
        assert img.shape == (16, 16, 3)

    def test_deterministic_regeneration(self, tmp_path):
        spec = GeneratorSpec(n=20, seed=5, image_side=8)
        generate_synthetic(spec, tmp_path / "a")
        generate_synthetic(spec, tmp_path / "b")
        for name in ("train.csv", "val.csv", "test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
        for f in os.listdir(tmp_path / "a" / "images"):
            assert (tmp_path / "a" / "images" / f).read_bytes() == \
                   (tmp_path / "b" / "images" / f).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        generate_synthetic(GeneratorSpec(n=20, seed=5, image_side=8),
                           tmp_path / "a")
        generate_synthetic(GeneratorSpec(n=20, seed=6, image_side=8),
                           tmp_path / "b")
        assert (tmp_path / "a" / "train.csv").read_bytes() != \
               (tmp_path / "b" / "train.csv").read_bytes()
