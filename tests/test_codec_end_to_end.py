"""Full encoder -> decoder paths: quality, equivalences, failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import JpegError
from repro.data import synthetic_photo, synthetic_smooth
from repro.jpeg import (
    DecodeOptions,
    EncoderSettings,
    decode_jpeg,
    decode_jpeg_rowwise,
    encode_jpeg,
    parse_jpeg,
)
from repro.jpeg.decoder import quant_tables_from_info
from repro.jpeg.idct import idct_2d_blocks, idct_samples, samples_from_idct
from repro.jpeg.quantization import dequantize_blocks


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return np.inf
    return 10 * np.log10(255.0 ** 2 / mse)


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
        rows = decode_jpeg_rowwise(jpeg_422, rows_per_step=step).rgb
        assert np.array_equal(whole, rows)

    def test_444_rowwise_equals_whole(self, jpeg_444):
        whole = decode_jpeg(jpeg_444).rgb
        rows = decode_jpeg_rowwise(jpeg_444, rows_per_step=2).rgb
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
