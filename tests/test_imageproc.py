import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reviewfuse.errors import DimensionError, FormatError, ParameterError
from reviewfuse.imageproc import (
    NORM_TABLE,
    center_crop,
    encode_ppm,
    load_ppm,
    normalize_batch,
    normalize_channels,
    preprocess,
    resize_bilinear,
)


def make_image(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


class TestPpmIO:
    def test_single_red_pixel(self, tmp_path):
        p = tmp_path / "red.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        img = load_ppm(p)
        assert img.shape == (1, 1, 3) and img.dtype == np.uint8
        np.testing.assert_array_equal(img[0, 0], [255, 0, 0])

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n2 2\n255\n\xff\x00")
        with pytest.raises(FormatError, match="offset"):
            load_ppm(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            load_ppm(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_ppm(tmp_path / "nope.ppm")

    def test_roundtrip_random_images(self, tmp_path):
        for seed in range(5):
            img = make_image(8, 8, seed)
            p = tmp_path / f"img{seed}.ppm"
            p.write_bytes(encode_ppm(img))
            back = load_ppm(p)
            np.testing.assert_array_equal(back, img)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\x01\x02\x03\x00\x00\x00")
        with pytest.raises(FormatError, match="3 trailing bytes .* offset 14"):
            load_ppm(p)

    @pytest.mark.parametrize("change", [-3, 2], ids=["grew", "shrank"])
    def test_file_size_moved_since_fstat(self, monkeypatch, tmp_path, change):
        # the file is read to its end whatever fstat said: bytes a writer
        # added after it are trailing bytes, and a shorter file still reads
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\x01\x02\x03\x00\x00\x00")
        size = p.stat().st_size + change
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            fstat(fd)[:6] + (size,) + fstat(fd)[7:]))
        with pytest.raises(FormatError, match="3 trailing bytes .* offset 14"):
            load_ppm(p)

    def test_pixels_are_a_writable_array(self, tmp_path):
        p = tmp_path / "w.ppm"
        p.write_bytes(encode_ppm(make_image(3, 2)))
        img = load_ppm(p)
        img[0, 0] = 7
        assert img.flags.writeable and img.flags.c_contiguous

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03")
        img = load_ppm(p)
        np.testing.assert_array_equal(img[0, 0], [1, 2, 3])


    @pytest.mark.parametrize("pixels", [
        np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 2, 4), dtype=np.uint8),
        np.zeros((2, 2, 3), dtype=np.float32)], ids=["2d", "4-channel", "float"])
    def test_save_rejects_what_is_not_hxwx3_bytes(self, pixels):
        with pytest.raises(DimensionError):
            encode_ppm(pixels)


@st.composite
def ppm_like(draw):
    """A P6 header and its body, as written or with bytes cut, appended or
    spliced in."""
    w, h = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    blob = b"P6\n%d %d\n255\n" % (w, h)
    blob += draw(st.binary(min_size=max(w * h * 3, 0), max_size=max(w * h * 3, 0)))
    at = draw(st.integers(0, len(blob)))
    edit = draw(st.sampled_from(["none", "cut", "append", "splice"]))
    if edit == "cut":
        blob = blob[:at]
    elif edit != "none":
        extra = draw(st.binary(min_size=1, max_size=4))
        blob = blob + extra if edit == "append" else blob[:at] + extra + blob[at:]
    return blob


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=40), ppm_like()))
def test_any_bytes_decode_to_their_header_or_raise_format_error(tmp_path, blob):
    p = tmp_path / "any.ppm"
    p.write_bytes(blob)
    try:
        img = load_ppm(p)
    except FormatError:
        return
    assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3
    body = img.tobytes()
    assert blob.endswith(body)
    fields = re.sub(rb"#[^\n]*", b"", blob[:len(blob) - len(body)]).split()
    assert [int(f) for f in fields[1:]] == [img.shape[1], img.shape[0], 255]


class TestResize:
    def test_constant_color(self):
        img = np.full((5, 3, 3), 123, dtype=np.uint8)
        out = resize_bilinear(img, 7)
        assert out.shape == (7, 7, 3) and np.all(out == 123)

    def test_identity_same_side(self):
        img = make_image(6, 6, 1)
        out = resize_bilinear(img, 6)
        np.testing.assert_array_equal(out, img)

    def test_checkerboard_corners(self):
        # 2x2 checkerboard upsampled to 4x4: output corners hit source corners
        board = np.zeros((2, 2, 3), dtype=np.uint8)
        board[0, 0] = board[1, 1] = 255
        out = resize_bilinear(board, 4)
        np.testing.assert_array_equal(out[0, 0], [255, 255, 255])
        np.testing.assert_array_equal(out[0, 3], [0, 0, 0])
        np.testing.assert_array_equal(out[3, 0], [0, 0, 0])
        np.testing.assert_array_equal(out[3, 3], [255, 255, 255])

    def test_bad_side(self):
        with pytest.raises(ParameterError):
            resize_bilinear(make_image(4, 4), 0)

    def test_bitwise_the_whole_image_float_formula(self):
        # the formula as it read when it widened the whole source to
        # float64 first; gathering the sampled bytes first moves no bit
        def widened_first(pixels, side):
            src = pixels.astype(np.float64)
            height, width, _ = pixels.shape

            def coords(n_src, n_dst):
                c = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
                c = np.clip(c, 0.0, n_src - 1.0)
                lo = np.floor(c).astype(np.int64)
                return lo, np.minimum(lo + 1, n_src - 1), c - lo

            y0, y1, fy = coords(height, side)
            x0, x1, fx = coords(width, side)
            fy, fx = fy[:, None, None], fx[None, :, None]
            top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
            bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
            out = top * (1 - fy) + bot * fy
            return np.clip(np.rint(out), 0, 255).astype(np.uint8)

        rng = np.random.default_rng(29)
        for i in range(200):
            h, w, side = (int(v) for v in rng.integers(1, 90, size=3))
            if h == w == side:
                continue  # the same-size copy
            img = make_image(h, w, i)
            assert resize_bilinear(img, side).tobytes() == \
                widened_first(img, side).tobytes(), (h, w, side)


class TestCenterCrop:
    def test_full_size_identity(self):
        img = make_image(5, 5, 2)
        np.testing.assert_array_equal(center_crop(img, 5), img)

    def test_offset_arithmetic(self):
        img = make_image(4, 4, 3)
        out = center_crop(img, 2)
        np.testing.assert_array_equal(out, img[1:3, 1:3])

    def test_too_large(self):
        with pytest.raises(DimensionError):
            center_crop(make_image(4, 4), 5)

    def test_commutes_with_hflip(self):
        img = make_image(6, 6, 4)
        a = center_crop(img[:, ::-1].copy(), 4)
        b = center_crop(img, 4)[:, ::-1]
        np.testing.assert_array_equal(a, b)


class TestNormalize:
    MEAN = (0.485, 0.456, 0.406)
    STD = (0.229, 0.224, 0.225)

    def test_centering(self):
        # a pixel at the ImageNet mean, to the nearest byte, maps to ~0
        px = np.zeros((1, 1, 3), dtype=np.uint8)
        px[0, 0] = np.rint(np.array(self.MEAN) * 255)
        out = normalize_channels(px)
        np.testing.assert_allclose(out, 0.0, atol=1e-2)

    def test_plain_scaling(self):
        # the whole image at once: the float64 formula, rounded to float32
        img = make_image(2, 2, 5)
        out = normalize_channels(img)
        want = (img / 255.0 - np.array(self.MEAN)) / np.array(self.STD)
        assert out.dtype == np.float32
        assert out.tobytes() == want.transpose(2, 0, 1).astype(np.float32).tobytes()

    def test_channel_major_layout(self):
        img = make_image(2, 3, 6)
        out = normalize_channels(img)
        assert out.shape == (3, 2, 3)
        # index-arithmetic oracle: out[c, y, x] is pixels[y, x, c]'s value
        for c in range(3):
            for y in range(2):
                for x in range(3):
                    want = (img[y, x, c] / 255.0 - self.MEAN[c]) / self.STD[c]
                    assert out[c, y, x] == np.float32(want)

    def test_invertible(self):
        img = make_image(3, 3, 7)
        out = normalize_channels(img)
        mean = np.asarray(self.MEAN)[:, None, None]
        std = np.asarray(self.STD)[:, None, None]
        recovered = out * std + mean
        np.testing.assert_allclose(recovered,
                                   img.transpose(2, 0, 1) / 255.0,
                                   atol=1e-6)


class TestNormalizeBatch:
    def test_table_is_normalize_channels_at_every_byte(self):
        # each (channel, byte) through a 1x1 image, independently of the
        # ramp the table is built from
        for v in range(256):
            px = np.full((1, 1, 3), v, dtype=np.uint8)
            want = normalize_channels(px)[:, 0, 0]
            assert NORM_TABLE.dtype == np.float32
            np.testing.assert_array_equal(NORM_TABLE[:, v], want)

    def test_batch_is_normalize_channels_per_image(self):
        rng = np.random.default_rng(11)
        crops = rng.integers(0, 256, size=(5, 3, 6, 6), dtype=np.uint8)
        out = normalize_batch(crops)
        assert out.dtype == np.float32 and out.shape == crops.shape
        for i in range(5):
            img = crops[i].transpose(1, 2, 0)
            assert out[i].tobytes() == normalize_channels(img).tobytes()


class TestPreprocess:
    def test_preprocess_is_the_crop_channels_first(self, tmp_path):
        img = make_image(41, 50, 10)
        p = tmp_path / "x.ppm"
        p.write_bytes(encode_ppm(img))
        crop = preprocess(p, crop_side=32)
        want = center_crop(resize_bilinear(img, 37), 32)
        assert crop.dtype == np.uint8 and crop.shape == (3, 32, 32)
        np.testing.assert_array_equal(crop, want.transpose(2, 0, 1))

    def test_shape_and_determinism(self, tmp_path):
        img = make_image(37, 37, 8)
        p = tmp_path / "x.ppm"
        p.write_bytes(encode_ppm(img))
        a = preprocess(p, crop_side=32)
        b = preprocess(p, crop_side=32)
        assert a.shape == (3, 32, 32)
        np.testing.assert_array_equal(a, b)

    def test_paper_scale_sides(self, tmp_path):
        img = make_image(300, 250, 9)
        p = tmp_path / "big.ppm"
        p.write_bytes(encode_ppm(img))
        out = preprocess(p, crop_side=224)
        assert out.shape == (3, 224, 224)

    def test_large_photo_decodes_in_one_copy_of_its_bytes(self, tmp_path):
        # the pixels are a view of the one buffer the file is read into;
        # the resize widens only the sampled pixels, not the whole photo
        img = make_image(1200, 1600, 11)
        p = tmp_path / "photo.ppm"
        p.write_bytes(encode_ppm(img))
        tracemalloc.start()
        try:
            crop = preprocess(p, crop_side=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert crop.shape == (3, 32, 32)
        assert peak < 1.2 * img.nbytes, peak / img.nbytes
