import errno
import json
import os
import sys
import threading
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from reviewfuse import synthgen
from reviewfuse.cli import main
from reviewfuse.data import ReviewSample, read_manifest, stratified_split, write_manifest
from reviewfuse.errors import ParameterError
from reviewfuse.imageproc import load_ppm
from reviewfuse.synthgen import (
    AVG_WORDS,
    FAKE_PHRASES,
    GENUINE_PHRASES,
    HUE_TINTS,
    IMAGE_BAYES_TARGET,
    MU_FAKE,
    MU_GENUINE,
    PIXEL_NOISE,
    SIGMA,
    SPLIT_RATIOS,
    TOPIC_MENTIONS,
    TOPIC_WORDS,
    TOPICS,
    WRITE_AHEAD,
    GeneratorSpec,
    chunk_samples,
    combined_bayes_accuracy,
    finish_pixels,
    generate_synthetic,
    image_bayes_accuracy,
    render_text,
    simulate_latents,
    text_bayes_accuracy,
)


class TestSpec:
    def test_sigma_calibration_closed_form(self):
        # Phi(gap / (2 sigma)) must equal the target accuracy
        import statistics
        acc = statistics.NormalDist().cdf((MU_FAKE - MU_GENUINE) / (2 * SIGMA))
        assert abs(acc - IMAGE_BAYES_TARGET) < 1e-12
        assert SIGMA == 0.2860409102679736  # the bits every corpus was drawn with

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
        # about 11% of each class's draws fall past its end of [0, 1]
        lat = simulate_latents(GeneratorSpec(), 5000, np.random.default_rng(2))
        assert lat.brightness.min() == 0.0 and lat.brightness.max() == 1.0
        assert 0.08 < float((lat.brightness[lat.label == 1] == 0.0).mean()) < 0.14

    def test_hue_match_rates(self):
        spec = GeneratorSpec(p_match=0.95)
        lat = simulate_latents(spec, 100_000, np.random.default_rng(3))
        gen = lat.label == 1
        # genuine: p_match + (1-p_match)/k; fake: 1/k
        k = len(TOPICS)
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
        assert abs(image_bayes_accuracy(lat) - 0.70) < 0.01

    def test_combined_beats_both(self):
        spec = GeneratorSpec()
        lat = simulate_latents(spec, 100_000, np.random.default_rng(6))
        combined = combined_bayes_accuracy(lat, spec)
        assert combined > text_bayes_accuracy(lat) + 0.05
        assert combined > image_bayes_accuracy(lat) + 0.05

    def test_combined_matches_independent_mc_estimate(self):
        # independent oracle: numerically integrate the posterior on a fresh
        # latent draw using only closed-form pieces, no shared code paths
        spec = GeneratorSpec()
        rng = np.random.default_rng(7)
        lat = simulate_latents(spec, 50_000, rng)
        acc = combined_bayes_accuracy(lat, spec)
        assert 0.85 < acc < 0.89


class TestRendering:
    def test_text_topic_words_lead_then_phrase(self):
        # topic words open the review so they survive truncation; the class
        # phrase follows immediately after them
        topic_words = set(TOPIC_WORDS[TOPICS[0]])
        rng = np.random.default_rng(9)
        for _ in range(20):
            words = render_text(0, 1, rng).split()
            head, rest = words[:TOPIC_MENTIONS], words[TOPIC_MENTIONS:]
            assert all(w in topic_words for w in head)
            tail = " ".join(rest)
            assert any(tail.startswith(p) for p in GENUINE_PHRASES)

    def test_text_word_count_near_average(self):
        rng = np.random.default_rng(10)
        counts = [len(render_text(1, 0, rng).split()) for _ in range(200)]
        assert abs(np.mean(counts) - AVG_WORDS) < 2

    def test_image_shape_and_brightness_ordering(self):
        rng = np.random.default_rng(11)
        noise = rng.normal(0.0, PIXEL_NOISE, size=(2, 37, 37, 3))
        dark, bright = finish_pixels(np.array([0.2, 0.9]), np.array([0, 0]),
                                     noise)
        assert dark.shape == (37, 37, 3) and dark.dtype == np.uint8
        assert bright.mean() > dark.mean() + 50

    def test_image_hue_dominant_channel(self):
        rng = np.random.default_rng(12)
        noise = rng.normal(0.0, PIXEL_NOISE, size=(3, 37, 37, 3))
        images = finish_pixels(np.full(3, 0.6), np.arange(3), noise)
        for hue, img in enumerate(images):
            chan_means = img.reshape(-1, 3).mean(axis=0)
            assert int(np.argmax(chan_means)) == hue


class TestGenerateSynthetic:
    def test_end_to_end_layout(self, tmp_path):
        spec = GeneratorSpec(n=40, seed=3, image_side=16)
        split = generate_synthetic(spec, tmp_path)
        assert sorted(os.listdir(tmp_path / "images")) == \
               sorted(f"s{i:06d}.ppm" for i in range(40))
        assert list(split) == ["train", "val", "test"]
        for name, part in split.items():
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


# ---------------------------------------------------------------------------
# the generator against one serial loop: the same bytes


def reference_image(side, brightness, hue, rng):
    """One sample's pixels, as one expression per sample."""
    base = 0.12 + 0.65 * brightness + HUE_TINTS[hue]
    noise = rng.normal(0.0, PIXEL_NOISE, size=(side, side, 3))
    img = np.clip(base + noise, 0.0, 1.0)
    return np.rint(img * 255.0).astype(np.uint8)


def serial_corpus(spec, out_dir, ratios=SPLIT_RATIOS):
    """The corpus written sample after sample on one thread: each
    sample's text, then its pixels, then its file; the CSVs and
    provenance.json after the last image."""
    image_dir = os.path.join(out_dir, "images")
    rng = np.random.default_rng(spec.seed)
    lat = simulate_latents(spec, spec.n, rng)
    samples = [ReviewSample(id=f"s{i:06d}", text="", label=int(lat.label[i]),
                            image_path=os.path.join(image_dir, f"s{i:06d}.ppm"))
               for i in range(spec.n)]
    split = stratified_split(samples, ratios=ratios, seed=spec.seed)
    os.makedirs(image_dir)
    for i, s in enumerate(samples):
        s.text = render_text(int(lat.topic[i]), int(lat.text_list[i]), rng)
        pixels = reference_image(spec.image_side, float(lat.brightness[i]),
                                 int(lat.hue[i]), rng)
        with open(s.image_path, "wb") as fh:
            fh.write(b"P6\n%d %d\n255\n" % (spec.image_side, spec.image_side))
            fh.write(pixels.tobytes())
    for name in ("train", "val", "test"):
        write_manifest(split[name], os.path.join(out_dir, f"{name}.csv"))
    with open(os.path.join(out_dir, "provenance.json"), "w", encoding="utf-8") as fh:
        json.dump({"spec": asdict(spec), "ratios": list(ratios)}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def tree_bytes(root) -> dict[str, bytes]:
    """Every file below ``root`` by its relative path."""
    found = {}
    for d, _, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


class TestSameBytesAsTheSerialLoop:
    def test_finish_pixels_is_the_one_sample_expression(self):
        cases = ((0.0, 0), (0.37, 1), (1.0, 2), (0.9, 0))
        noise = np.random.default_rng(4).normal(0.0, PIXEL_NOISE,
                                                size=(4, 13, 13, 3))
        got = finish_pixels(np.array([b for b, _ in cases]),
                            np.array([h for _, h in cases]), noise)
        rng = np.random.default_rng(4)
        for k, (brightness, hue) in enumerate(cases):
            want = reference_image(13, brightness, hue, rng)
            assert got[k].tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", [8, 37, 64])
    @pytest.mark.parametrize("shape", ["below_one_chunk", "one_chunk",
                                       "chunks_plus_one"])
    def test_every_file_matches(self, tmp_path, monkeypatch, side, shape):
        # a chunk of at least 8 samples, so even the smallest corpus can be
        # split (3 a class); at 37 pixels that is the budget's own 15
        monkeypatch.setattr(synthgen, "CHUNK_BYTES",
                            max(synthgen.CHUNK_BYTES, 8 * side * side * 3 * 8))
        chunk = chunk_samples(GeneratorSpec(image_side=side))
        n = {"below_one_chunk": chunk - 1, "one_chunk": chunk,
             "chunks_plus_one": 2 * chunk + 1}[shape]
        spec = GeneratorSpec(n=n, seed=11, image_side=side)
        serial_corpus(spec, tmp_path / "serial")
        generate_synthetic(spec, tmp_path / "chunked")
        want = tree_bytes(tmp_path / "serial")
        assert len(want) == n + 4
        assert tree_bytes(tmp_path / "chunked") == want

    def test_budget_sets_the_chunk(self, monkeypatch):
        assert chunk_samples(GeneratorSpec()) == 15
        assert chunk_samples(GeneratorSpec(image_side=224)) == 1
        monkeypatch.setattr(synthgen, "CHUNK_BYTES", 3 * 8 * 8 * 3 * 8)
        assert chunk_samples(GeneratorSpec(image_side=8)) == 3


class TestWriterThread:
    def test_writer_error_is_the_callers_and_nothing_keeps_running(
            self, tmp_path, monkeypatch):
        # chunks of 4 samples; image 9, the second of chunk 2, cannot be
        # created because a directory holds its name
        monkeypatch.setattr(synthgen, "CHUNK_BYTES", 4 * 8 * 8 * 3 * 8)
        chunk, k = 4, 9
        rendered = []
        real_render = synthgen.render_text

        def counted(*args):
            rendered.append(1)
            return real_render(*args)

        monkeypatch.setattr(synthgen, "render_text", counted)
        blocked = tmp_path / "images" / f"s{k:06d}.ppm"
        blocked.mkdir(parents=True)
        threads = threading.active_count()
        spec = GeneratorSpec(n=400, seed=3, image_side=8)
        with pytest.raises(IsADirectoryError) as caught:
            generate_synthetic(spec, tmp_path)
        assert caught.value.errno == errno.EISDIR
        assert caught.value.filename == str(blocked)
        assert threading.active_count() == threads
        # the writer wrote every image before the failed one and none after;
        # the caller rendered at most the chunks in flight and one more
        assert sorted(os.listdir(tmp_path / "images")) == \
            [f"s{i:06d}.ppm" for i in range(k + 1)]
        assert all((tmp_path / "images" / f"s{i:06d}.ppm").is_file()
                   for i in range(k))
        assert len(rendered) <= (k // chunk + WRITE_AHEAD + 2) * chunk
        assert sorted(os.listdir(tmp_path)) == ["images"]

    def test_same_bytes_and_stop_under_fast_thread_switching(
            self, tmp_path, monkeypatch):
        # one-sample chunks, and a thread switch at almost every bytecode
        monkeypatch.setattr(synthgen, "CHUNK_BYTES", 1)
        spec = GeneratorSpec(n=60, seed=5, image_side=8)
        serial_corpus(spec, tmp_path / "serial")
        (tmp_path / "failing" / "images" / "s000031.ppm").mkdir(parents=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            generate_synthetic(spec, tmp_path / "chunked")
            with pytest.raises(IsADirectoryError):
                generate_synthetic(spec, tmp_path / "failing")
        finally:
            sys.setswitchinterval(interval)
        assert tree_bytes(tmp_path / "chunked") == tree_bytes(tmp_path / "serial")
        assert sorted(os.listdir(tmp_path / "failing" / "images")) == \
            [f"s{i:06d}.ppm" for i in range(32)]

    def test_writer_error_exits_2_without_a_traceback(self, tmp_path, capsys):
        (tmp_path / "d" / "images" / "s000003.ppm").mkdir(parents=True)
        threads = threading.active_count()
        code = main(["gen-data", "--out", str(tmp_path / "d"), "--n", "40"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "s000003.ppm" in err
        assert "Traceback" not in err
        assert threading.active_count() == threads

    def test_unsplittable_corpus_starts_no_thread(self, tmp_path, monkeypatch,
                                                  capsys):
        def started(*jobs):
            raise AssertionError("the writer started before the split")

        monkeypatch.setattr(synthgen.ag, "beside", started)
        code = main(["gen-data", "--out", str(tmp_path / "d"), "--n", "5"])
        assert code == 2 and "error:" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_caller_error_joins_the_writer(self, tmp_path, monkeypatch):
        # the caller fails mid-render; the writer is still joined
        calls = []
        real_render = synthgen.render_text

        def failing(*args):
            calls.append(1)
            if len(calls) == 40:
                raise KeyboardInterrupt
            return real_render(*args)

        monkeypatch.setattr(synthgen, "render_text", failing)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            generate_synthetic(GeneratorSpec(n=100, seed=3, image_side=8),
                               tmp_path)
        assert threading.active_count() == threads
        assert not (tmp_path / "train.csv").exists()
