"""Full encoder -> decoder paths: quality, equivalences, failure modes."""

from __future__ import annotations

import glob
import hashlib
import os
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from repro.errors import JpegError
from repro.data import synthetic_photo, synthetic_smooth
from repro.jpeg import (
    DecodeOptions,
    EncoderSettings,
    decode_jpeg,
    encode_jpeg,
    parse_jpeg,
)
from repro.jpeg.decoder import quant_tables_from_info, render_span
from repro.jpeg.idct import idct_2d_blocks, idct_samples, samples_from_idct
from repro.jpeg.quantization import dequantize_blocks


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return np.inf
    return 10 * np.log10(255.0 ** 2 / mse)


def render_rowwise(data: bytes, rows_per_step: int) -> np.ndarray:
    """The frame as bands of *rows_per_step* MCU rows, one
    :func:`render_span` call each, stacked."""
    whole = decode_jpeg(data)
    geo = whole.info.geometry
    quants = quant_tables_from_info(whole.info)
    return np.vstack([
        render_span(geo, whole.coefficients, quants, r,
                    min(r + rows_per_step, geo.mcu_rows), DecodeOptions(),
                    whole.info.adobe_transform)
        for r in range(0, geo.mcu_rows, rows_per_step)])


def sha1(blob: bytes) -> str:
    return hashlib.sha1(blob).hexdigest()


_STDLIB = sysconfig.get_paths()["stdlib"]
_PURELIB = sysconfig.get_paths()["purelib"]

#: Baseline streams other encoders wrote, found where the Python
#: standard library, IPython and a rustup toolchain's docs install them
#: (none is committed): name -> (glob, stream sha1, pixel sha1,
#: (width, height, subsampling)).  The pixel digests are this decoder's
#: own output, so they guard against change, not against a misreading
#: of the spec both entropy engines share.
FOREIGN_BASELINE = {
    "python.jpg": (
        f"{_STDLIB}/test/imghdrdata/python.jpg",
        "9b19331a00f83f12fdc2feba2eb401f9732f8d44",
        "4ebedc20786c9a805e3bf253809ffc0896ad8fc7", (16, 16, "4:2:0")),
    "python-raw.jpg": (
        f"{_STDLIB}/test/imghdrdata/python-raw.jpg",
        "3d231ac2c04311202745f9a9780e3c2a2e304eb1",
        "4ebedc20786c9a805e3bf253809ffc0896ad8fc7", (16, 16, "4:2:0")),
    "ipython-2x2.jpg": (
        f"{_PURELIB}/IPython/core/tests/2x2.jpg",
        "a16d35b1d7e4557b8d3bb2466a4370afbb9db064",
        "96639119578b38be1ce81e9538d4768378f48fda", (2, 2, "4:4:4")),
    "verify.jpeg": (
        os.path.expanduser(
            "~/.rustup/**/embedded-book/assets/verify.jpeg"),
        "114547e46d09a1f10eac1e228c2b696c366c6431",
        "77ac3b385d58b7b53398dc688a43116794949ef7", (720, 477, "4:4:4")),
}


class TestQuality:
    @pytest.mark.parametrize("mode", ["4:4:4", "4:2:2", "4:2:0"])
    def test_high_quality_high_psnr(self, small_rgb, mode):
        data = encode_jpeg(small_rgb, EncoderSettings(quality=95,
                                                      subsampling=mode))
        out = decode_jpeg(data).rgb
        assert out.shape == small_rgb.shape
        # chroma subsampling on noisy synthetic content caps PSNR near 28
        assert psnr(out, small_rgb) > 26

    def test_quality_monotone_in_psnr(self, small_rgb):
        scores = []
        for q in (30, 60, 90):
            data = encode_jpeg(small_rgb, EncoderSettings(quality=q))
            scores.append(psnr(decode_jpeg(data).rgb, small_rgb))
        assert scores[0] < scores[1] < scores[2]

    def test_quality_monotone_in_size(self, small_rgb):
        sizes = [len(encode_jpeg(small_rgb, EncoderSettings(quality=q)))
                 for q in (30, 60, 90)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_smooth_compresses_better_than_photo(self):
        smooth = synthetic_smooth(96, 96, seed=1)
        photo = synthetic_photo(96, 96, seed=1, detail=0.9)
        s = EncoderSettings(quality=85)
        assert len(encode_jpeg(smooth, s)) < len(encode_jpeg(photo, s))


class TestEquivalences:
    def test_optimized_tables_same_pixels_smaller_file(self, small_rgb):
        s1 = EncoderSettings(quality=80)
        s2 = EncoderSettings(quality=80, optimize_huffman=True)
        d1, d2 = encode_jpeg(small_rgb, s1), encode_jpeg(small_rgb, s2)
        assert len(d2) < len(d1)
        assert np.array_equal(decode_jpeg(d1).rgb, decode_jpeg(d2).rgb)

    def test_restart_markers_same_pixels(self, small_rgb):
        d1 = encode_jpeg(small_rgb, EncoderSettings(quality=80))
        d2 = encode_jpeg(small_rgb, EncoderSettings(quality=80,
                                                    restart_interval=2))
        assert np.array_equal(decode_jpeg(d1).rgb, decode_jpeg(d2).rgb)

    def test_aan_equals_matrix_idct(self, jpeg_422):
        """The decoder's one transform, AAN, gives the orthonormal matrix
        IDCT's samples on every component of a real image."""
        decoded = decode_jpeg(jpeg_422)
        quants = quant_tables_from_info(decoded.info)
        for coefs, quant in zip(decoded.coefficients.planes, quants,
                                strict=True):
            assert np.array_equal(
                idct_samples(coefs, quant),
                samples_from_idct(idct_2d_blocks(
                    dequantize_blocks(coefs, quant))))

    @pytest.mark.parametrize("step", [1, 3, 5])
    def test_rowwise_equals_whole(self, jpeg_422, step):
        whole = decode_jpeg(jpeg_422).rgb
        rows = render_rowwise(jpeg_422, rows_per_step=step)
        assert np.array_equal(whole, rows)

    def test_444_rowwise_equals_whole(self, jpeg_444):
        whole = decode_jpeg(jpeg_444).rgb
        rows = render_rowwise(jpeg_444, rows_per_step=2)
        assert np.array_equal(whole, rows)

    def test_decoder_returns_row_offsets(self, jpeg_422):
        dec = decode_jpeg(jpeg_422)
        assert len(dec.row_byte_offsets) == dec.info.geometry.mcu_rows + 1


class TestOddSizes:
    @pytest.mark.parametrize("size", [(1, 1), (7, 5), (8, 8), (9, 17),
                                      (16, 16), (33, 31)])
    @pytest.mark.parametrize("mode", ["4:4:4", "4:2:2"])
    def test_non_aligned_dimensions(self, size, mode):
        h, w = size
        rgb = synthetic_photo(h, w, seed=h * 100 + w)
        data = encode_jpeg(rgb, EncoderSettings(quality=90, subsampling=mode))
        out = decode_jpeg(data)
        assert out.rgb.shape == (h, w, 3)
        info = parse_jpeg(data)
        assert (info.width, info.height) == (w, h)


class TestErrors:
    def test_non_rgb_input_rejected(self):
        with pytest.raises(JpegError):
            encode_jpeg(np.zeros((10, 10), dtype=np.uint8))

    def test_grayscale_array_rejected(self):
        with pytest.raises(JpegError):
            encode_jpeg(np.zeros((10, 10, 1), dtype=np.uint8))

    def test_fancy_vs_simple_upsampling_differ(self, small_rgb):
        data = encode_jpeg(small_rgb, EncoderSettings(subsampling="4:2:2"))
        fancy = decode_jpeg(data, DecodeOptions(fancy_upsampling=True)).rgb
        simple = decode_jpeg(data, DecodeOptions(fancy_upsampling=False)).rgb
        assert not np.array_equal(fancy, simple)


class TestForeignBaselineFiles:
    """ROADMAP "meet the outside world" (c), the baseline half: streams
    this repo's encoder did not write decode to their pinned pixels, the
    reference engine agrees, and one-MCU-row bands stitch to the frame."""

    @pytest.mark.parametrize("name", sorted(FOREIGN_BASELINE))
    def test_matches_its_pinned_digest(self, name):
        pattern, stream, pixels, shape = FOREIGN_BASELINE[name]
        paths = sorted(glob.glob(pattern, recursive=True))
        if not paths:
            pytest.skip(f"no {name} installed here")
        blob = Path(paths[0]).read_bytes()
        if sha1(blob) != stream:
            pytest.skip(f"a different {name} than the one pinned")
        fast = decode_jpeg(blob)
        info = fast.info
        assert (info.width, info.height, info.subsampling_mode) == shape
        assert sha1(fast.rgb.tobytes()) == pixels
        reference = decode_jpeg(blob, DecodeOptions(entropy_engine="reference"))
        assert np.array_equal(reference.rgb, fast.rgb)
        assert np.array_equal(render_rowwise(blob, 1), fast.rgb)
