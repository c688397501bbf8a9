"""Whole-codec property-based tests (hypothesis) on small images.

These close the loop over every substrate at once: arbitrary small RGB
content and encoder settings must survive encode -> parse -> decode with
the right shape, bounded error, and cross-mode pixel identity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DecodeMode, HeterogeneousDecoder, PreparedImage
from repro.evaluation import platforms
from repro.jpeg import (
    DecodeOptions,
    EncoderSettings,
    decode_jpeg,
    encode_jpeg,
    parse_jpeg,
)
from repro.jpeg.decoder import quant_tables_from_info, render_span
from repro.jpeg.sampling import SUBSAMPLING_MODES


def random_rgb(seed: int, h: int, w: int, smooth: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if smooth:
        yy, xx = np.mgrid[0:h, 0:w]
        base = (xx * 7 + yy * 5) % 256
        noise = rng.integers(-6, 7, (h, w, 3))
        return np.clip(base[..., None] + noise, 0, 255).astype(np.uint8)
    return rng.integers(0, 256, (h, w, 3)).astype(np.uint8)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    h=st.integers(min_value=1, max_value=40),
    w=st.integers(min_value=1, max_value=40),
    quality=st.integers(min_value=30, max_value=97),
    mode=st.sampled_from(["4:4:4", "4:2:2", "4:2:0"]),
    smooth=st.booleans(),
)
def test_encode_parse_decode_roundtrip(seed, h, w, quality, mode, smooth):
    rgb = random_rgb(seed, h, w, smooth)
    data = encode_jpeg(rgb, EncoderSettings(quality=quality, subsampling=mode))
    info = parse_jpeg(data)
    assert (info.width, info.height) == (w, h)
    assert info.subsampling_mode == mode
    out = decode_jpeg(data).rgb
    assert out.shape == rgb.shape
    # error bounded by quantization coarseness; smooth content tighter
    max_err = np.abs(out.astype(int) - rgb.astype(int)).max()
    assert max_err <= 255  # always valid samples
    if smooth and quality >= 90 and mode == "4:4:4":
        assert max_err < 40


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    h=st.integers(min_value=9, max_value=48),
    w=st.integers(min_value=9, max_value=48),
    restart=st.integers(min_value=0, max_value=5),
    optimize=st.booleans(),
)
def test_encoder_options_never_change_pixels(seed, h, w, restart, optimize):
    """Restart markers and optimized tables alter bytes, never pixels."""
    rgb = random_rgb(seed, h, w, smooth=True)
    base = encode_jpeg(rgb, EncoderSettings(quality=80))
    variant = encode_jpeg(rgb, EncoderSettings(
        quality=80, restart_interval=restart, optimize_huffman=optimize))
    assert np.array_equal(decode_jpeg(base).rgb, decode_jpeg(variant).rgb)


#: Every component layout the decoder renders: YCbCr in each sampling
#: mode, grayscale, and Adobe YCCK with vertically subsampled chroma.
LAYOUTS = ([("ycbcr", mode) for mode in SUBSAMPLING_MODES]
           + [("gray", "4:4:4"), ("ycck", "4:2:0"), ("ycck", "4:4:0")])


@settings(max_examples=40, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    h=st.integers(min_value=17, max_value=56),
    w=st.integers(min_value=8, max_value=40),
    step=st.integers(min_value=1, max_value=4),
    progressive=st.booleans(),
)
def test_rowwise_always_equals_whole(layout, seed, h, w, step,
                                     progressive):
    """Bands of ``step`` MCU rows rendered one ``render_span`` call at a
    time stitch bit-identically to the whole frame: vertically
    subsampled chroma (4:2:0, 4:4:0) included, whose fancy upsampler
    reads across every band edge."""
    colorspace, mode = layout
    rgb = random_rgb(seed, h, w, smooth=True)
    data = encode_jpeg(rgb, EncoderSettings(
        quality=85, subsampling=mode, colorspace=colorspace,
        progressive=progressive))
    whole = decode_jpeg(data)
    info, geo = whole.info, whole.info.geometry
    quants = quant_tables_from_info(info)
    bands = [render_span(geo, whole.coefficients, quants, r,
                         min(r + step, geo.mcu_rows), DecodeOptions(),
                         info.adobe_transform)
             for r in range(0, geo.mcu_rows, step)]
    assert np.array_equal(np.vstack(bands), whole.rgb)


@pytest.fixture(scope="module")
def decoder():
    return HeterogeneousDecoder.for_platform(platforms.GTX560)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    h=st.integers(min_value=16, max_value=64),
    w=st.integers(min_value=16, max_value=64),
    mode=st.sampled_from(["4:4:4", "4:2:2"]),
)
def test_all_execution_modes_agree_on_arbitrary_images(decoder, seed, h, w,
                                                       mode):
    """The strongest invariant: six schedules, one pixel output."""
    rgb = random_rgb(seed, h, w, smooth=False)
    data = encode_jpeg(rgb, EncoderSettings(quality=75, subsampling=mode))
    prepared = PreparedImage.from_bytes(data)
    reference = decode_jpeg(data).rgb
    for exec_mode in DecodeMode:
        out = decoder.decode(prepared, exec_mode).rgb
        assert np.array_equal(out, reference), exec_mode
