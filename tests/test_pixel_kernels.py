"""Cache-blocked pixel kernels against naive whole-array oracles.

``idct_samples`` (tiled, blocks-last), ``ycbcr_to_rgb_float`` (row
strips) and the banded fancy upsamplers change the *traversal* of the
pixel stages, never the arithmetic: each must reproduce, byte for byte,
the whole-array formulation written out below — the code the decoder ran
before the kernels were blocked.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_photo, synthetic_smooth
from repro.jpeg import DecodeOptions, EncoderSettings, decode_jpeg, encode_jpeg
from repro.jpeg import idct
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
# The IDCT follows each tile's nonzero bounding box.
# ---------------------------------------------------------------------------

def boxed_coefs(n, r, c, seed, keep=0.7):
    """(n, 8, 8) blocks that are zero outside the top-left ``r x c``
    corner and zero at ``1 - keep`` of the positions inside it, with the
    corner's last row and column hit at least once so the box is
    exactly ``(r, c)``."""
    rng = np.random.default_rng(seed)
    coefs = np.zeros((n, 8, 8), dtype=np.int16)
    corner = rng.integers(-300, 301, (n, r, c))
    coefs[:, :r, :c] = corner * (rng.random((n, r, c)) < keep)
    coefs[n // 2, r - 1, 0] = coefs[0, 0, c - 1] = 7
    return coefs


def brute_box(coefs):
    """Bounding box of the nonzero positions, by looking at each."""
    live = (np.asarray(coefs) != 0).any(axis=0)
    rows, cols = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    return (int(rows[-1]) + 1, int(cols[-1]) + 1) if rows.size else (1, 1)


def tile_boxes_brute(coefs):
    """Per-tile bounding boxes of a plane, by looking at each position."""
    return [brute_box(coefs[s:s + TILE_BLOCKS])
            for s in range(0, len(coefs), TILE_BLOCKS)]


@pytest.fixture
def passes(monkeypatch):
    """Record ``(live, slab width)`` of every ``_aan_pass`` call."""
    calls = []
    real = idct._aan_pass

    def recording(src, dst, work, live=8):
        calls.append((live, dst.shape[1]))
        return real(src, dst, work, live)

    monkeypatch.setattr(idct, "_aan_pass", recording)
    return calls


class TestIdctBoxes:
    @pytest.mark.parametrize("r", range(1, 9))
    @pytest.mark.parametrize("c", range(1, 9))
    def test_every_box(self, r, c):
        """Every reduced form of both halves of the pass, as column pass
        (``live = r``) and as row pass (``live = c``), on one block, a
        ragged tile, a full tile and a full tile plus a ragged one."""
        for n in (1, 37, TILE_BLOCKS, TILE_BLOCKS + 188):
            coefs = boxed_coefs(n, r, c, seed=64 * r + 8 * c + n % 7)
            assert idct._tile_boxes(coefs)[0] == (r, c)
            assert np.array_equal(idct_samples(coefs, QUANT),
                                  naive_idct_samples(coefs, QUANT)), n

    @pytest.mark.parametrize("r,c", [(8, 8), (5, 8), (8, 3), (6, 6), (4, 4)])
    def test_zero_rows_and_columns_inside_the_box(self, r, c):
        """The box is an upper bound, not a promise that what is inside
        is nonzero: whole rows and columns of it may be zero."""
        coefs = boxed_coefs(TILE_BLOCKS + 5, r, c, seed=r * c)
        coefs[:, 1:r - 1] = 0
        assert np.array_equal(idct_samples(coefs, QUANT),
                              naive_idct_samples(coefs, QUANT))
        coefs = boxed_coefs(TILE_BLOCKS + 5, r, c, seed=r + c)
        coefs[:, :, 1:c - 1] = 0
        assert np.array_equal(idct_samples(coefs, QUANT),
                              naive_idct_samples(coefs, QUANT))

    def test_all_zero_tile(self, passes):
        coefs = np.zeros((TILE_BLOCKS + 40, 8, 8), dtype=np.int16)
        coefs[TILE_BLOCKS:] = boxed_coefs(40, 3, 5, seed=1)
        out = idct_samples(coefs, QUANT)
        assert (out[:TILE_BLOCKS] == 128).all()
        assert np.array_equal(out, naive_idct_samples(coefs, QUANT))
        assert passes == [(1, 1), (1, 8), (3, 5), (5, 8)]

    @pytest.mark.parametrize("r,c", [(1, 1), (2, 2), (3, 7), (4, 4), (7, 5)])
    def test_extremes_inside_a_box(self, r, c):
        """+-2047 x quant 255 in every live position: the largest
        intermediates the reduced forms can see."""
        quant = np.full((8, 8), 255, dtype=np.uint16)
        rng = np.random.default_rng(r * 8 + c)
        coefs = np.zeros((TILE_BLOCKS + 9, 8, 8), dtype=np.int16)
        coefs[:, :r, :c] = np.where(
            rng.random((len(coefs), r, c)) < 0.5, 2047, -2047)
        out = idct_samples(coefs, quant)
        assert np.array_equal(out, naive_idct_samples(coefs, quant))
        assert out.min() == 0 and out.max() == 255

    def test_dc_only_ties(self):
        """``dc * q / 8 + 128`` on exact ``.5`` ties (q = 4, dc odd):
        ``rint`` rounds half to even, and the DC-only form must hand it
        the same float64 the full flowgraph does."""
        quant = QUANT.copy()
        quant[0, 0] = 4
        coefs = np.zeros((TILE_BLOCKS + 31, 8, 8), dtype=np.int16)
        coefs[:, 0, 0] = np.arange(len(coefs)) * 2 - 255
        out = idct_samples(coefs, quant)
        assert np.array_equal(out, naive_idct_samples(coefs, quant))
        ties = coefs[:, 0, 0].astype(np.float64) * 4 / 8 + 128
        assert (ties % 1 == 0.5).all()
        assert np.array_equal(out[:, 0, 0],
                              np.clip(np.rint(ties), 0, 255).astype(np.uint8))

    def test_tiles_of_one_plane_have_their_own_boxes(self, passes):
        """A count that repeats exactly: the ``(live, slab width)`` each
        tile's column and row pass ran with."""
        boxes = [(8, 8), (2, 2), (1, 1), (3, 8), (8, 1), (5, 4)]
        coefs = np.concatenate(
            [boxed_coefs(TILE_BLOCKS, r, c, seed=i)
             for i, (r, c) in enumerate(boxes)] + [boxed_coefs(77, 4, 6, seed=9)])
        assert idct._tile_boxes(coefs) == boxes + [(4, 6)]
        assert np.array_equal(idct_samples(coefs, QUANT),
                              naive_idct_samples(coefs, QUANT))
        assert passes == [(8, 8), (8, 8), (2, 2), (2, 8), (1, 1), (1, 8),
                          (3, 8), (8, 8), (8, 1), (1, 8), (5, 4), (4, 8),
                          (4, 6), (6, 8)]

    def test_dense_and_sparse_tiles_run_the_forms_they_should(self, passes):
        idct_samples(sparse_coefs(TILE_BLOCKS, seed=3), QUANT)
        assert passes == [(8, 8), (8, 8)]
        del passes[:]
        idct_samples(boxed_coefs(TILE_BLOCKS, 2, 2, seed=3), QUANT)
        assert passes == [(2, 2), (2, 8)]
        del passes[:]
        idct_2d_aan(sparse_coefs(3, seed=1))        # the float primitive
        assert passes == [(8, 8), (8, 8)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_sparse_planes(self, data):
        n = data.draw(st.integers(1, TILE_BLOCKS + 70))
        density = data.draw(st.sampled_from([0.0, 0.002, 0.02, 0.2, 1.0]))
        r = data.draw(st.integers(1, 8))
        c = data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        coefs = np.zeros((n, 8, 8), dtype=np.int16)
        coefs[:, :r, :c] = rng.integers(-2047, 2048, (n, r, c)) \
            * (rng.random((n, r, c)) < density)
        assert idct._tile_boxes(coefs) == tile_boxes_brute(coefs)
        assert np.array_equal(idct_samples(coefs, QUANT),
                              naive_idct_samples(coefs, QUANT))

    def test_box_detector_against_brute_force(self):
        """One nonzero coefficient at each of the 64 positions, in any
        block of a ragged tile (every ``gcd(m, 8)`` row length), and
        negative values, whose high bits are all set."""
        for m in (1, 2, 3, 4, 12, 37, 40, TILE_BLOCKS):
            for k in range(64):
                coefs = np.zeros((m, 8, 8), dtype=np.int16)
                coefs[(k * 7) % m, k // 8, k % 8] = -1 if k % 2 else 1
                assert idct._tile_boxes(coefs) == [(k // 8 + 1, k % 8 + 1)]
        coefs = sparse_coefs(3 * TILE_BLOCKS + 100, seed=8)
        coefs[TILE_BLOCKS:2 * TILE_BLOCKS, 5:] = 0
        coefs[2 * TILE_BLOCKS:, :, 3:] = 0
        assert idct._tile_boxes(coefs) == tile_boxes_brute(coefs)

    def test_inputs_the_word_view_cannot_take(self):
        """A strided view, a wider dtype (values a cast to int16 would
        wrap to zero included), a read-only plane: scanned, and decoded
        to the same bytes as a plain int16 copy."""
        base = boxed_coefs(2 * TILE_BLOCKS + 60, 3, 5, seed=4)
        want = naive_idct_samples(base[::2], QUANT)
        assert not base[::2].flags.c_contiguous
        assert idct._tile_boxes(base[::2]) == tile_boxes_brute(base[::2])
        assert np.array_equal(idct_samples(base[::2], QUANT), want)

        wide = base.astype(np.int32)
        assert np.array_equal(idct_samples(wide, QUANT),
                              naive_idct_samples(base, QUANT))
        wide = np.zeros((9, 8, 8), dtype=np.int32)
        wide[4, 6, 2] = 1 << 16
        assert idct._tile_boxes(wide) == [(7, 3)]
        assert np.array_equal(idct_samples(wide, QUANT),
                              naive_idct_samples(wide, QUANT))
        swapped = base.astype(">i2")
        assert idct._tile_boxes(swapped) == tile_boxes_brute(base)
        assert np.array_equal(idct_samples(swapped, QUANT),
                              naive_idct_samples(base, QUANT))

        frozen = base.copy()
        frozen.setflags(write=False)
        assert np.array_equal(idct_samples(frozen, QUANT),
                              naive_idct_samples(base, QUANT))
        shared = np.frombuffer(base.tobytes(), dtype=np.int16).reshape(-1, 8, 8)
        assert not shared.flags.writeable
        assert np.array_equal(idct_samples(shared, QUANT),
                              naive_idct_samples(base, QUANT))

    def test_empty_plane(self):
        out = idct_samples(np.zeros((0, 8, 8), dtype=np.int16), QUANT)
        assert out.shape == (0, 8, 8) and out.dtype == np.uint8
        assert idct._tile_boxes(np.zeros((0, 8, 8), dtype=np.int16)) == []

    def test_ledger_corpus_pixels_match_the_manifest(self):
        """All 54 ledger files, both entropy engines, against the pixel
        digests pinned before the IDCT followed the coefficients."""
        pinned = json.loads((CORPUS / "manifest.json").read_text())["images"]
        assert len(pinned) == 54
        for name, entry in pinned.items():
            data = (CORPUS / f"{name}.jpg").read_bytes()
            for engine in ("fast", "reference"):
                rgb = decode_jpeg(
                    data, DecodeOptions(entropy_engine=engine)).rgb
                assert hashlib.sha256(rgb.tobytes()).hexdigest() == \
                    entry["out_sha256"], (name, engine)


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
