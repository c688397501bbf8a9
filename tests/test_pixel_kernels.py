"""Cache-blocked pixel kernels against naive whole-array oracles.

``idct_samples`` (tiled, blocks-last), ``ycbcr_to_rgb_float`` (row
strips) and the banded fancy upsamplers change the *traversal* of the
pixel stages, never the arithmetic: each must reproduce, byte for byte,
the whole-array formulation written out below — the code the decoder ran
before the kernels were blocked.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.data import synthetic_photo, synthetic_smooth
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.jpeg.color import ycbcr_to_rgb_float
from repro.jpeg.decoder import quant_tables_from_info
from repro.jpeg.idct import TILE_BLOCKS, aan_scale_factors, idct_2d_aan, idct_samples
from repro.jpeg.sampling import (upsample_h1v2_fancy, upsample_h2v1_fancy,
                                 upsample_h2v2_fancy, upsample_h4v1_fancy)

CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "corpus"


# ---------------------------------------------------------------------------
# Oracles: the whole-array code the blocked kernels replaced.
# ---------------------------------------------------------------------------

def naive_ycbcr_to_rgb(y, cb, cr):
    """The six-line JFIF formula over whole arrays."""
    yf = y.astype(np.float64)
    cbf = cb.astype(np.float64) - 128.0
    crf = cr.astype(np.float64) - 128.0
    r = yf + 1.402 * crf
    g = yf - 0.34414 * cbf - 0.71414 * crf
    b = yf + 1.772 * cbf
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def naive_aan_pass(data):
    """jidctflt.c's 1D pass along axis -2 of an (n, 8, 8) batch."""
    in0, in1, in2, in3, in4, in5, in6, in7 = (data[..., i, :] for i in range(8))
    tmp10 = in0 + in4
    tmp11 = in0 - in4
    tmp13 = in2 + in6
    tmp12 = (in2 - in6) * 1.414213562 - tmp13
    e0, e3 = tmp10 + tmp13, tmp10 - tmp13
    e1, e2 = tmp11 + tmp12, tmp11 - tmp12
    z13, z10 = in5 + in3, in5 - in3
    z11, z12 = in1 + in7, in1 - in7
    o7 = z11 + z13
    t11 = (z11 - z13) * 1.414213562
    z5 = (z10 + z12) * 1.847759065
    t10 = 1.082392200 * z12 - z5
    t12 = -2.613125930 * z10 + z5
    o6 = t12 - o7
    o5 = t11 - o6
    o4 = t10 + o5
    out = np.empty_like(data)
    out[..., 0, :], out[..., 7, :] = e0 + o7, e0 - o7
    out[..., 1, :], out[..., 6, :] = e1 + o6, e1 - o6
    out[..., 2, :], out[..., 5, :] = e2 + o5, e2 - o5
    out[..., 4, :], out[..., 3, :] = e3 + o4, e3 - o4
    return out


def naive_idct_aan(deq):
    """Whole-batch AAN IDCT on the (n, 8, 8) layout, float64 out."""
    scaled = np.asarray(deq, dtype=np.float64) * aan_scale_factors()
    cols = naive_aan_pass(scaled)
    return naive_aan_pass(cols.swapaxes(-1, -2)).swapaxes(-1, -2)


def naive_idct_samples(coefs, quant):
    """dequantize -> IDCT -> ``rint(idct + 128)`` -> clip, whole batch."""
    deq = coefs.astype(np.int32) * quant.astype(np.int32)
    return np.clip(np.rint(naive_idct_aan(deq) + 128), 0, 255).astype(np.uint8)


def naive_h2v1(plane):
    """Algorithm 1 over the whole plane at uint32."""
    src = plane.astype(np.uint32)
    out = np.empty((src.shape[0], 2 * src.shape[1]), dtype=np.uint32)
    out[:, 2::2] = (3 * src[:, 1:] + src[:, :-1] + 1) >> 2
    out[:, 1:-1:2] = (3 * src[:, :-1] + src[:, 1:] + 2) >> 2
    out[:, 0], out[:, -1] = src[:, 0], src[:, -1]
    return out.astype(plane.dtype)


def naive_h2v2(plane):
    """jdsample.c's h2v2 fancy upsampler over the whole plane."""
    src = plane.astype(np.uint32)
    h, w = src.shape
    vert = np.empty((2 * h, w), dtype=np.uint32)
    vert[2::2] = 3 * src[1:] + src[:-1]
    vert[1:-1:2] = 3 * src[:-1] + src[1:]
    vert[0], vert[-1] = 4 * src[0], 4 * src[-1]
    out = np.empty((2 * h, 2 * w), dtype=np.uint32)
    out[:, 2::2] = (3 * vert[:, 1:] + vert[:, :-1] + 8) >> 4
    out[:, 1:-1:2] = (3 * vert[:, :-1] + vert[:, 1:] + 7) >> 4
    out[:, 0], out[:, -1] = (vert[:, 0] + 2) >> 2, (vert[:, -1] + 2) >> 2
    return out.astype(plane.dtype)


QUANT = (np.arange(64, dtype=np.uint16).reshape(8, 8) % 23 + 2)


def sparse_coefs(n, seed):
    """Quantized-looking blocks: mostly zero, a few large values."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(0, 60, (n, 8, 8))
    return (dense * (rng.random((n, 8, 8)) < 0.3)).astype(np.int16)


# ---------------------------------------------------------------------------
# Colour conversion.
# ---------------------------------------------------------------------------

class TestColourStrips:
    def test_all_2_pow_24_triples(self):
        """Every (Y, Cb, Cr), the rint half-to-even ties included
        (``1.772 * (cb - 128)`` at cb in {3, 253}; the G term at
        (cb, cr) in {(78, 178), (178, 78)}), in multi-strip calls."""
        v = np.arange(256, dtype=np.uint8)
        cb = np.broadcast_to(v[:, None], (256, 256))
        cr = np.broadcast_to(v[None, :], (256, 256))
        for luma in range(0, 256, 8):
            y = np.broadcast_to(
                np.arange(luma, luma + 8, dtype=np.uint8)[:, None, None],
                (8, 256, 256))
            assert np.array_equal(ycbcr_to_rgb_float(y, cb, cr),
                                  naive_ycbcr_to_rgb(y, cb, cr)), luma

    @pytest.mark.parametrize("shape", [
        (), (5,), (3, 8, 8), (2, 3, 4, 5), (1000, 7), (0, 4), (1, 1)])
    def test_any_rank(self, shape):
        rng = np.random.default_rng(len(shape))
        y, cb, cr = (rng.integers(0, 256, shape).astype(np.uint8)
                     for _ in range(3))
        out = ycbcr_to_rgb_float(y, cb, cr)
        assert out.dtype == np.uint8 and out.shape == shape + (3,)
        assert np.array_equal(out, naive_ycbcr_to_rgb(y, cb, cr))

    def test_broadcast_inputs(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 256, (40, 50)).astype(np.uint8)
        for cb, cr in ((y[:1], y[:, :1]), (np.uint8(3), np.uint8(253)),
                       (y, 200)):
            want = naive_ycbcr_to_rgb(
                *np.broadcast_arrays(y, np.asarray(cb), np.asarray(cr)))
            assert np.array_equal(ycbcr_to_rgb_float(y, cb, cr), want)

    def test_wider_integer_input(self):
        rng = np.random.default_rng(8)
        y, cb, cr = (rng.integers(-300, 600, (33, 9)) for _ in range(3))
        assert np.array_equal(ycbcr_to_rgb_float(y, cb, cr),
                              naive_ycbcr_to_rgb(y, cb, cr))


# ---------------------------------------------------------------------------
# Tiled dequantize + IDCT.
# ---------------------------------------------------------------------------

class TestIdctTiles:
    @pytest.mark.parametrize("n", [
        1, TILE_BLOCKS - 1, TILE_BLOCKS, TILE_BLOCKS + 1, 3 * TILE_BLOCKS + 7])
    def test_tile_boundaries(self, n):
        coefs = sparse_coefs(n, seed=n)
        out = idct_samples(coefs, QUANT)
        assert out.dtype == np.uint8 and out.shape == (n, 8, 8)
        assert np.array_equal(out, naive_idct_samples(coefs, QUANT))

    def test_zero_and_dc_only_blocks(self):
        coefs = np.zeros((TILE_BLOCKS + 3, 8, 8), dtype=np.int16)
        coefs[1::2, 0, 0] = np.arange(-60, -60 + len(coefs[1::2]))
        out = idct_samples(coefs, QUANT)
        assert np.array_equal(out, naive_idct_samples(coefs, QUANT))
        assert (out[0] == 128).all()
        assert (out[1] == out[1, 0, 0]).all()

    def test_clamps_both_sides(self):
        """+-2047 x quant 255 in every position overshoots [0, 255]."""
        quant = np.full((8, 8), 255, dtype=np.uint16)
        rng = np.random.default_rng(5)
        coefs = np.where(rng.random((TILE_BLOCKS + 9, 8, 8)) < 0.5,
                         2047, -2047).astype(np.int16)
        coefs[0], coefs[1] = 2047, -2047
        out = idct_samples(coefs, quant)
        assert np.array_equal(out, naive_idct_samples(coefs, quant))
        assert out.min() == 0 and out.max() == 255

    def test_float_primitive_unchanged(self):
        """``idct_2d_aan`` rides the same blocks-last pass and must
        still return the old layout's exact float64 values."""
        deq = sparse_coefs(70, seed=2).astype(np.int32) * QUANT.astype(np.int32)
        assert np.array_equal(idct_2d_aan(deq), naive_idct_aan(deq))
        assert np.array_equal(idct_2d_aan(deq[0]), naive_idct_aan(deq[:1])[0])

    @pytest.mark.parametrize("method", ["matrix", "islow"])
    def test_other_methods_are_tiling_invariant(self, method):
        """The non-default methods run their own transform per tile;
        the result may not depend on where the tile boundaries fall."""
        coefs = sparse_coefs(2 * TILE_BLOCKS + 5, seed=11)
        whole = idct_samples(coefs, QUANT, method)
        parts = [idct_samples(coefs[s:s + 37], QUANT, method)
                 for s in range(0, len(coefs), 37)]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            idct_samples(sparse_coefs(1, seed=0), QUANT, "nope")

    def test_every_committed_corpus_image(self):
        """Real coefficient planes: every component of every image the
        perf ledger times."""
        files = sorted(CORPUS.glob("*.jpg"))
        assert files
        for path in files:
            decoded = decode_jpeg(path.read_bytes())
            quants = quant_tables_from_info(decoded.info)
            for ci, (coefs, quant) in enumerate(
                    zip(decoded.coefficients.planes, quants)):
                assert np.array_equal(
                    idct_samples(coefs, quant),
                    naive_idct_samples(coefs, quant)), (path.name, ci)


# ---------------------------------------------------------------------------
# Banded fancy upsampling.
# ---------------------------------------------------------------------------

class TestUpsampleBands:
    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (480, 640), (77, 1031),
        (2000, 3)])
    def test_matches_whole_plane(self, shape):
        """Single-row and single-column planes, planes of one band and
        of many (the h2v2 halo crosses every band boundary)."""
        plane = np.random.default_rng(sum(shape)).integers(
            0, 256, shape).astype(np.uint8)
        assert np.array_equal(upsample_h2v1_fancy(plane), naive_h2v1(plane))
        assert np.array_equal(upsample_h2v2_fancy(plane), naive_h2v2(plane))
        assert np.array_equal(upsample_h4v1_fancy(plane),
                              naive_h2v1(naive_h2v1(plane)))
        assert np.array_equal(upsample_h1v2_fancy(plane),
                              naive_h2v1(plane.T).T)


# ---------------------------------------------------------------------------
# Concurrency: scratch belongs to the call, never to the module.
# ---------------------------------------------------------------------------

def test_concurrent_decodes_match_sequential():
    """Eight threads decoding images of different sizes at once return
    exactly the sequential results — a scratch buffer shared between
    calls would be overwritten mid-tile by a neighbour."""
    sizes = [(40, 56), (96, 144), (200, 312), (333, 257),
             (64, 64), (480, 352), (17, 23), (256, 400)]
    modes = ["4:2:0", "4:2:2", "4:4:4", "4:2:0"]
    jpegs = []
    for i, (h, w) in enumerate(sizes):
        make = synthetic_photo if i % 2 else synthetic_smooth
        jpegs.append(encode_jpeg(make(h, w, seed=i), EncoderSettings(
            quality=80, subsampling=modes[i % len(modes)])))
    expected = [decode_jpeg(data).rgb for data in jpegs]

    def work(i):
        return [decode_jpeg(jpegs[i]).rgb for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, i) for i in range(len(jpegs))]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(expected, results):
        for rgb in got:
            assert np.array_equal(rgb, want)
