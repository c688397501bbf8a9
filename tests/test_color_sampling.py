"""Color conversion (Algorithm 2) and chroma resampling (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import JpegError
from repro.jpeg.color import rgb_to_ycbcr_float, ycbcr_to_rgb_float
from repro.jpeg.sampling import (
    downsample_h2v1,
    downsample_h2v2,
    downsample_plane,
    sampling_factors,
    upsample_h2v1_fancy,
    upsample_h2v1_simple,
    upsample_h2v2_fancy,
    upsample_plane,
)

U8 = st.integers(min_value=0, max_value=255)


class TestColorConversion:
    def test_neutral_gray(self):
        y = np.array([[128]], dtype=np.uint8)
        c = np.array([[128]], dtype=np.uint8)
        rgb = ycbcr_to_rgb_float(y, c, c)
        assert rgb.reshape(-1).tolist() == [128, 128, 128]

    def test_algorithm2_reference_values(self):
        """Spot-check Algorithm 2 against hand-computed values."""
        y = np.array([[100]], dtype=np.uint8)
        cb = np.array([[90]], dtype=np.uint8)
        cr = np.array([[200]], dtype=np.uint8)
        r, g, b = ycbcr_to_rgb_float(y, cb, cr).reshape(-1)
        assert r == round(100 + 1.402 * 72)          # 201
        assert g == round(100 - 0.34414 * -38 - 0.71414 * 72)  # 62
        assert b == max(0, round(100 + 1.772 * -38))  # 33

    def test_clipping(self):
        y = np.array([[255]], dtype=np.uint8)
        cb = np.array([[255]], dtype=np.uint8)
        cr = np.array([[255]], dtype=np.uint8)
        rgb = ycbcr_to_rgb_float(y, cb, cr)
        assert rgb.max() <= 255

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.uint8, (4, 4, 3), elements=U8))
    def test_forward_backward_roundtrip(self, rgb):
        """RGB -> YCbCr -> RGB is near-identity (rounding only)."""
        y, cb, cr = rgb_to_ycbcr_float(rgb)
        back = ycbcr_to_rgb_float(y, cb, cr)
        assert np.abs(back.astype(int) - rgb.astype(int)).max() <= 3

    def test_output_shape_appends_channel_axis(self):
        y = np.zeros((5, 7), dtype=np.uint8)
        assert ycbcr_to_rgb_float(y, y, y).shape == (5, 7, 3)


class TestUpsampling422:
    def test_paper_algorithm1_exact(self):
        """Check every output of Algorithm 1 on one 8-pixel row."""
        row = np.array([[10, 50, 90, 130, 170, 210, 250, 30]], dtype=np.uint8)
        out = upsample_h2v1_fancy(row)[0].astype(int)
        inp = row[0].astype(int)
        expected = [
            inp[0],
            (inp[0] * 3 + inp[1] + 2) // 4,
            (inp[1] * 3 + inp[0] + 1) // 4,
            (inp[1] * 3 + inp[2] + 2) // 4,
            (inp[2] * 3 + inp[1] + 1) // 4,
            (inp[2] * 3 + inp[3] + 2) // 4,
            (inp[3] * 3 + inp[2] + 1) // 4,
            (inp[3] * 3 + inp[4] + 2) // 4,
            (inp[4] * 3 + inp[3] + 1) // 4,
            (inp[4] * 3 + inp[5] + 2) // 4,
            (inp[5] * 3 + inp[4] + 1) // 4,
            (inp[5] * 3 + inp[6] + 2) // 4,
            (inp[6] * 3 + inp[5] + 1) // 4,
            (inp[6] * 3 + inp[7] + 2) // 4,
            (inp[7] * 3 + inp[6] + 1) // 4,
            inp[7],
        ]
        assert out.tolist() == expected

    def test_doubles_width(self):
        plane = np.arange(24, dtype=np.uint8).reshape(3, 8)
        assert upsample_h2v1_fancy(plane).shape == (3, 16)

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.uint8, (2, 8), elements=U8))
    def test_constant_preserved(self, plane):
        """A constant row upsamples to the same constant."""
        const = np.full_like(plane, plane[0, 0])
        out = upsample_h2v1_fancy(const)
        assert (out == plane[0, 0]).all()

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.uint8, (3, 16), elements=U8))
    def test_range_preserved(self, plane):
        """Fancy upsampling never overshoots the input range."""
        out = upsample_h2v1_fancy(plane)
        assert out.min() >= plane.min()
        assert out.max() <= plane.max()

    def test_simple_replication(self):
        row = np.array([[1, 2, 3]], dtype=np.uint8)
        assert upsample_h2v1_simple(row)[0].tolist() == [1, 1, 2, 2, 3, 3]


class TestUpsampling420:
    def test_shape_doubles_both(self):
        plane = np.arange(32, dtype=np.uint8).reshape(4, 8)
        assert upsample_h2v2_fancy(plane).shape == (8, 16)

    def test_constant_preserved(self):
        plane = np.full((4, 8), 77, dtype=np.uint8)
        assert (upsample_h2v2_fancy(plane) == 77).all()


class TestDownsampling:
    def test_h2v1_averages_pairs(self):
        plane = np.array([[10, 20, 30, 50]], dtype=np.uint8)
        assert downsample_h2v1(plane)[0].tolist() == [15, 40]

    def test_h2v1_odd_width_replicates_edge(self):
        plane = np.array([[10, 20, 30]], dtype=np.uint8)
        assert downsample_h2v1(plane)[0].tolist() == [15, 30]

    def test_h2v2_averages_quads(self):
        plane = np.array([[0, 4], [8, 12]], dtype=np.uint8)
        assert downsample_h2v2(plane)[0].tolist() == [6]

    def test_h2v2_odd_dims(self):
        plane = np.arange(9, dtype=np.uint8).reshape(3, 3)
        assert downsample_h2v2(plane).shape == (2, 2)


class TestModeDispatch:
    def test_sampling_factors(self):
        assert sampling_factors("4:4:4") == (1, 1)
        assert sampling_factors("4:2:2") == (2, 1)
        assert sampling_factors("4:2:0") == (2, 2)

    def test_unknown_mode_raises(self):
        with pytest.raises(JpegError):
            sampling_factors("4:9:9")
        with pytest.raises(JpegError):
            upsample_plane(np.zeros((8, 8)), "4:9:9")
        with pytest.raises(JpegError):
            downsample_plane(np.zeros((8, 8)), "4:9:9")

    def test_444_passthrough(self):
        plane = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert upsample_plane(plane, "4:4:4") is not None
        assert (downsample_plane(plane, "4:4:4") == plane).all()

    def test_down_up_is_lossless_for_constant(self):
        plane = np.full((8, 8), 42, dtype=np.uint8)
        for mode in ("4:2:2", "4:2:0"):
            down = downsample_plane(plane, mode)
            up = upsample_plane(down, mode)
            assert (up == 42).all()
