import codecs
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reviewfuse.data import (
    PreparedDataset,
    ReviewSample,
    align_images,
    read_manifest,
    stratified_split,
    write_manifest,
)
from reviewfuse.errors import (
    AlignmentError,
    ContractError,
    FormatError,
    ManifestError,
    SplitError,
)
from reviewfuse.imageproc import (
    center_crop,
    encode_ppm,
    load_ppm,
    normalize_batch,
    normalize_channels,
    preprocess,
    resize_bilinear,
)
from reviewfuse.textproc import build_vocab


def make_samples(n, balanced=True):
    out = []
    for i in range(n):
        label = i % 2 if balanced else 1
        out.append(ReviewSample(id=f"r{i}", text=f"review number {i}", label=label))
    return out


class TestManifest:
    def test_quoted_comma(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text('id,text,label\nr1,"great, fresh food",1\n')
        samples = read_manifest(p)
        assert len(samples) == 1
        assert samples[0].text == "great, fresh food"
        assert samples[0].label == 1

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,text,label\na,x,0\na,y,1\n")
        with pytest.raises(ManifestError, match="'a'"):
            read_manifest(p)

    def test_bad_label_with_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,text,label\na,x,0\nb,y,7\n")
        with pytest.raises(ManifestError, match=":3"):
            read_manifest(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,review,label\na,x,0\n")
        with pytest.raises(ManifestError, match="header"):
            read_manifest(p)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_invalid_utf8_names_line_and_offset(self, tmp_path, bom):
        p = tmp_path / "m.csv"
        p.write_bytes(bom + b"id,text,label\na,x,0\nb,caf\xe9,1\n")
        at = len(bom) + 25
        with pytest.raises(ManifestError, match=f":3: not valid UTF-8 at byte offset {at}"):
            read_manifest(p)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbfid,text,label\r\na,\"x\r\ny\",0\r\n")
        (s,) = read_manifest(p)
        assert (s.id, s.text, s.label) == ("a", "x\r\ny", 0)

    def test_failed_write_leaves_previous_manifest(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot render")

        p = tmp_path / "m.csv"
        write_manifest(make_samples(4), p)
        before = p.read_bytes()
        rows = make_samples(50) + [ReviewSample("bad", Unprintable(), 0)]
        with pytest.raises(RuntimeError):
            write_manifest(rows, p)
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.csv"]

    def test_roundtrip_random_samples(self, tmp_path):
        rng = np.random.default_rng(0)
        chars = 'abc ,"\n\'xyz'
        samples = []
        for i in range(200):
            text = "".join(chars[j] for j in rng.integers(0, len(chars), size=12))
            samples.append(ReviewSample(id=f"s{i}", text=text,
                                        label=int(rng.integers(0, 2))))
        p = tmp_path / "rt.csv"
        write_manifest(samples, p)
        back = read_manifest(p)
        assert [(s.id, s.text, s.label) for s in back] == \
               [(s.id, s.text, s.label) for s in samples]


class TestAlignImages:
    def _touch_ppm(self, d, name):
        (d / name).write_bytes(encode_ppm(np.zeros((1, 1, 3), dtype=np.uint8)))

    def test_aligned(self, tmp_path):
        for n in ("a.ppm", "b.ppm"):
            self._touch_ppm(tmp_path, n)
        samples = [ReviewSample("a", "x", 0), ReviewSample("b", "y", 1)]
        aligned, dropped = align_images(samples, tmp_path)
        assert dropped == 0
        assert aligned[0].image_path.endswith("a.ppm")

    def test_strict_missing(self, tmp_path):
        self._touch_ppm(tmp_path, "a.ppm")
        samples = [ReviewSample("a", "x", 0), ReviewSample("b", "y", 1)]
        with pytest.raises(AlignmentError, match="b"):
            align_images(samples, tmp_path)

    def test_surplus_images_ignored(self, tmp_path):
        for n in ("a.ppm", "b.ppm", "extra1.ppm", "extra2.ppm"):
            self._touch_ppm(tmp_path, n)
        samples = [ReviewSample("a", "x", 0), ReviewSample("b", "y", 1)]
        aligned, dropped = align_images(samples, tmp_path)
        assert [s.id for s in aligned] == ["a", "b"] and dropped == 0


class TestStratifiedSplit:
    def test_ten_samples(self):
        # 5 a class cut at 0.7/0.15/0.15 leaves val empty (4/0/1)
        with pytest.raises(SplitError, match="val split"):
            stratified_split(make_samples(10), (0.7, 0.15, 0.15), seed=1)
        split = stratified_split(make_samples(10), (0.6, 0.2, 0.2), seed=1)
        assert list(split) == ["train", "val", "test"]
        assert sum(len(part) for part in split.values()) == 10
        for part in split.values():
            counts = Counter(s.label for s in part)
            assert abs(counts[0] - counts[1]) <= 1

    def test_exact_divisibility(self):
        split = stratified_split(make_samples(6), (1 / 3, 1 / 3, 1 / 3), seed=2)
        for part in split.values():
            assert Counter(s.label for s in part) == {0: 1, 1: 1}

    def test_paper_counts(self):
        split = stratified_split(make_samples(20144), (0.6, 0.2, 0.2), seed=3)
        assert abs(len(split["train"]) - 12086) <= 1
        assert abs(len(split["val"]) - 4029) <= 1
        assert abs(len(split["test"]) - 4029) <= 1

    def test_disjoint_and_complete(self):
        samples = make_samples(101)
        split = stratified_split(samples, (0.7, 0.15, 0.15), seed=4)
        ids = [s.id for part in split.values() for s in part]
        assert sorted(ids) == sorted(s.id for s in samples)
        assert len(set(ids)) == len(ids)

    def test_tiny_class_rejected(self):
        samples = make_samples(4, balanced=False) + [ReviewSample("z", "t", 0)]
        with pytest.raises(SplitError):
            stratified_split(samples, (0.7, 0.15, 0.15), seed=5)

    def test_bad_ratios(self):
        with pytest.raises(SplitError):
            stratified_split(make_samples(10), (0.5, 0.2, 0.2), seed=6)

    def test_deterministic(self):
        samples = make_samples(40)
        a = stratified_split(samples, (0.7, 0.15, 0.15), seed=7)
        b = stratified_split(samples, (0.7, 0.15, 0.15), seed=7)
        assert [s.id for s in a["train"]] == [s.id for s in b["train"]]


class TestBatchIter:
    def _prepared(self, n):
        vocab = build_vocab(["review number"], max_size=10)
        samples = make_samples(n)
        return PreparedDataset.prepare(samples, vocab=vocab, max_len=8,
                                       need_images=False)

    def test_partial_final_batch(self):
        ds = self._prepared(10)
        sizes = [len(labels) for _, _, labels in ds.batches(4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_epoch_same_order(self):
        ds = self._prepared(10)
        a = [labels.tolist() for _, _, labels in ds.batches(4, seed=3, epoch=2)]
        b = [labels.tolist() for _, _, labels in ds.batches(4, seed=3, epoch=2)]
        assert a == b

    def test_epochs_differ(self):
        ds = self._prepared(20)
        a = [l for _, _, ls in ds.batches(4, seed=3, epoch=0) for l in ls]
        b = [l for _, _, ls in ds.batches(4, seed=3, epoch=1) for l in ls]
        assert a != b

    def test_pairs_stay_aligned(self, tmp_path):
        # tokenization and image rows must stay in the same sample order
        rng = np.random.default_rng(8)
        samples = []
        for i in range(6):
            path = os.path.join(tmp_path, f"r{i}.ppm")
            with open(path, "wb") as fh:
                fh.write(encode_ppm(np.full((37, 37, 3), i * 10, dtype=np.uint8)))
            samples.append(ReviewSample(f"r{i}", f"word{i}", i % 2,
                                        image_path=path))
        vocab = build_vocab([s.text for s in samples], max_size=20)
        ds = PreparedDataset.prepare(samples, vocab=vocab, max_len=6,
                                     crop_side=32)
        seen = []
        for revs, crops, labels in ds.batches(4, seed=1, epoch=5):
            for j in range(len(labels)):
                # recover the sample index from the constant image value
                i = int(crops[j, 0, 0, 0]) // 10
                assert (crops[j] == i * 10).all()
                np.testing.assert_array_equal(revs[j], ds.reviews[i])
                assert labels[j] == i % 2
                seen.append(i)
        assert sorted(seen) == list(range(6))


def float_path(path, crop_side):
    """The float32 image transform as it ran before crops were stored as
    bytes: load, resize, crop, then normalize_channels per image."""
    img = load_ppm(path)
    img = resize_bilinear(img, max(crop_side, round(crop_side * 8 / 7)))
    return normalize_channels(center_crop(img, crop_side))


class TestPrepareImages:
    def _samples(self, tmp_path, sizes, seed=14):
        rng = np.random.default_rng(seed)
        samples = []
        for i, (w, h) in enumerate(sizes):
            path = os.path.join(tmp_path, f"p{i}.ppm")
            px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            with open(path, "wb") as fh:
                fh.write(encode_ppm(px))
            samples.append(ReviewSample(f"p{i}", "x", i % 2, image_path=path))
        return samples

    def test_rows_are_the_preprocess_transform(self, tmp_path):
        # training and predict share one transform: each batch row is
        # bitwise the crop that preprocess gives for the same file
        samples = self._samples(tmp_path, [(37, 37), (50, 41), (32, 60)])
        ds = PreparedDataset.prepare(samples, need_text=False, crop_side=32)
        rows = np.concatenate([crops for _, crops, _ in
                               ds.batches(2, shuffle=False)])
        assert rows.dtype == np.uint8
        for i, s in enumerate(samples):
            np.testing.assert_array_equal(rows[i], preprocess(s.image_path, 32))

    def test_batches_are_bitwise_the_float_path(self, tmp_path):
        # shuffled batches of 3 over 8 samples, the last one ragged: each
        # yields the split's own crop rows, unchanged, and those rows
        # normalized are bitwise the float path
        sizes = [(37, 37), (50, 41), (32, 60), (40, 40), (33, 47), (64, 35),
                 (37, 38), (45, 45)]
        samples = self._samples(tmp_path, sizes, seed=3)
        ds = PreparedDataset.prepare(samples, need_text=False, crop_side=24)
        floats = np.stack([float_path(s.image_path, 24) for s in samples])
        order = np.random.default_rng([5, 2]).permutation(len(samples))
        got = [(revs, crops, labels) for revs, crops, labels in
               ds.batches(3, seed=5, epoch=2)]
        assert [len(labels) for _, _, labels in got] == [3, 3, 2]
        for k, (revs, crops, labels) in enumerate(got):
            idx = order[3 * k:3 * k + 3]
            assert revs is None
            assert crops.dtype == np.uint8
            assert crops.tobytes() == ds.images[idx].tobytes()
            assert normalize_batch(crops).tobytes() == floats[idx].tobytes()
            assert labels.tolist() == [samples[i].label for i in idx]

    def test_images_are_the_crop_bytes(self, tmp_path):
        samples = self._samples(tmp_path, [(37, 37), (50, 41), (32, 60)])
        ds = PreparedDataset.prepare(samples, need_text=False, crop_side=16)
        assert ds.images.dtype == np.uint8
        assert ds.images.nbytes == 3 * 3 * 16 * 16

    @pytest.mark.parametrize("images", [
        np.zeros((2, 3, 4, 4), dtype=np.float32),
        np.zeros((2, 4, 4, 3), dtype=np.uint8),
        np.zeros((3, 3, 4, 4), dtype=np.uint8),
        np.zeros((2, 3, 4, 5), dtype=np.uint8),
    ], ids=["float32", "channels-last", "wrong-count", "not-square"])
    def test_image_contract(self, images):
        with pytest.raises(ContractError,
                           match=rf"{images.dtype} \({', '.join(map(str, images.shape))}\)"):
            PreparedDataset(reviews=None, images=images,
                            labels=np.array([0, 1]))

    def test_ppm_with_trailing_bytes_is_rejected(self, tmp_path):
        samples = self._samples(tmp_path, [(37, 37), (40, 40)])
        with open(samples[1].image_path, "ab") as fh:
            fh.write(b"\n\n")
        with pytest.raises(FormatError, match="2 trailing bytes"):
            PreparedDataset.prepare(samples, need_text=False, crop_side=32)


# ---------------------------------------------------------------------------
# any bytes through read_manifest: samples or a ManifestError


@st.composite
def manifest_like(draw):
    """The header and rows of three fields (sometimes two or four), quoted
    or bare, as written or with bytes cut or spliced in."""
    text = st.one_of(st.sampled_from(["", "x", '"', "a,b", "\n", "\r",
                                      "\x00", "\ufeff"]),
                     st.text(max_size=6))
    label = st.sampled_from(["0", "1", "2", "", " 1", "\u0661", "x"])
    rows = [["id", "text", "label"]]
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(text), draw(text), draw(label), draw(text)]
        rows.append(row[:draw(st.sampled_from([3, 3, 3, 2, 4]))])
    csv_text = "".join(",".join(f'"{c}"' if draw(st.booleans()) else c
                                for c in row) + "\n" for row in rows)
    blob = draw(st.sampled_from([b"", codecs.BOM_UTF8])) + csv_text.encode()
    at = draw(st.integers(0, len(blob)))
    edit = draw(st.sampled_from(["none", "none", "cut", "splice"]))
    if edit == "cut":
        blob = blob[:at]
    elif edit == "splice":
        blob = blob[:at] + draw(st.binary(min_size=1, max_size=3)) + blob[at:]
    return blob


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=60), manifest_like()))
def test_any_bytes_parse_to_samples_or_raise_manifest_error(tmp_path, blob):
    p = tmp_path / "any.csv"
    p.write_bytes(blob)
    try:
        samples = read_manifest(p)
    except ManifestError:
        return
    assert len({s.id for s in samples}) == len(samples)
    assert all(s.label in (0, 1) for s in samples)
