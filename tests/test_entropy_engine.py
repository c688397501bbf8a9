"""Property tests: fast entropy engine == reference oracle, bit for bit.

The fused fast-path engine (repro.jpeg.fast_entropy) must be
indistinguishable from the historical per-symbol decoder on *every*
stream: identical coefficient planes on valid data across randomized
images x subsampling modes x restart intervals, and identical exception
types and messages on adversarial streams (long codes > 8 bits, ZRL
runs, truncated payloads, tampered restart markers, stray markers).
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EntropyError, HuffmanError, JpegError
from repro.jpeg import (
    EncoderSettings,
    DecodeOptions,
    create_entropy_decoder,
    decode_jpeg,
    destuff_scan,
    encode_jpeg,
    parse_jpeg,
)
from repro.jpeg import constants as C
from repro.jpeg import fast_entropy
from repro.jpeg.bitstream import BitWriter
from repro.jpeg.blocks import ImageGeometry
from repro.jpeg.decoder import component_tables_from_info
from repro.jpeg.entropy import (
    CoefficientBuffers,
    ComponentTables,
    EntropyDecoder,
    EntropyEncoder,
)
from repro.jpeg.fast_entropy import (
    EOB_ADVANCE,
    PROBE_BITS,
    ZRL_ADVANCE,
    FastEntropyDecoder,
    fused_tables,
    head_probe,
)
from repro.jpeg.bitstream import HuffmanDecoder, HuffmanEncoder
from repro.jpeg.huffman import HuffmanSpec, extend, spec_from_frequencies
from repro.data import synthetic_photo

CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "corpus"


def parity_examples(count: int) -> settings:
    """Settings of an engine-parity property that runs *count* examples
    under the default hypothesis profile (100 per property) and as many
    times more as the loaded profile has: ``--hypothesis-profile=deep``
    (``tests/conftest.py``) runs it 20 times deeper."""
    return settings(max_examples=count * settings.default.max_examples // 100,
                    deadline=None)


def std_tables() -> list[ComponentTables]:
    dc_l = HuffmanSpec(C.STD_DC_LUMINANCE_BITS, C.STD_DC_LUMINANCE_VALUES)
    ac_l = HuffmanSpec(C.STD_AC_LUMINANCE_BITS, C.STD_AC_LUMINANCE_VALUES)
    dc_c = HuffmanSpec(C.STD_DC_CHROMINANCE_BITS, C.STD_DC_CHROMINANCE_VALUES)
    ac_c = HuffmanSpec(C.STD_AC_CHROMINANCE_BITS, C.STD_AC_CHROMINANCE_VALUES)
    return [ComponentTables(dc_l, ac_l), ComponentTables(dc_c, ac_c),
            ComponentTables(dc_c, ac_c)]


def random_coefficients(geo: ImageGeometry, seed: int, spread: int = 60,
                        density: float = 0.08) -> CoefficientBuffers:
    rng = np.random.default_rng(seed)
    coeffs = CoefficientBuffers.empty(geo)
    for plane in coeffs.planes:
        plane[:, 0, 0] = rng.integers(-spread, spread, plane.shape[0])
        mask = rng.random(plane.shape) < density
        vals = rng.integers(-30, 31, plane.shape).astype(np.int16)
        plane += (mask * vals).astype(np.int16)
    return coeffs


def decode_outcome(engine: str, geo: ImageGeometry,
                   tables: list[ComponentTables], restart_interval: int,
                   data: bytes):
    """Decode fully; return ("ok", planes) or ("err", type, message)."""
    dec = create_entropy_decoder(engine, geo, tables, restart_interval)
    try:
        dec.decode_all(data)
    except JpegError as exc:  # Bitstream/Huffman/EntropyError
        return ("err", type(exc), str(exc))
    return ("ok", dec.coefficients.planes)


def assert_engines_agree(geo, tables, restart_interval, data):
    ref = decode_outcome("reference", geo, tables, restart_interval, data)
    fast = decode_outcome("fast", geo, tables, restart_interval, data)
    assert ref[0] == fast[0], (ref, fast)
    if ref[0] == "ok":
        for a, b in zip(ref[1], fast[1]):
            assert np.array_equal(a, b)
    else:
        assert ref[1:] == fast[1:]


class TestBitExactnessRandomized:
    @pytest.mark.parametrize("mode", ["4:4:4", "4:2:2", "4:2:0"])
    @pytest.mark.parametrize("interval", [0, 1, 3, 7])
    def test_random_coefficients_roundtrip(self, mode, interval):
        geo = ImageGeometry(72, 56, mode)
        tables = std_tables()
        for seed in (1, 2, 3):
            coeffs = random_coefficients(geo, seed=seed)
            data = EntropyEncoder(geo, tables, interval).encode(coeffs)
            ref = EntropyDecoder(geo, tables, interval)
            ref.decode_all(data)
            fast = FastEntropyDecoder(geo, tables, interval)
            fast.decode_all(data)
            for orig, a, b in zip(coeffs.planes, ref.coefficients.planes,
                                  fast.coefficients.planes):
                assert np.array_equal(orig, a)
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["4:4:4", "4:2:2"])
    def test_real_jpegs_decode_identically(self, mode):
        rgb = synthetic_photo(88, 120, seed=31, detail=0.8)
        for interval in (0, 5):
            data = encode_jpeg(rgb, EncoderSettings(
                quality=90, subsampling=mode, restart_interval=interval))
            info = parse_jpeg(data)
            assert_engines_agree(info.geometry,
                                 component_tables_from_info(info),
                                 info.restart_interval, info.entropy_data)

    def test_decode_jpeg_engine_knob(self):
        rgb = synthetic_photo(40, 56, seed=5, detail=0.6)
        data = encode_jpeg(rgb, EncoderSettings(quality=85,
                                                subsampling="4:2:2"))
        fast = decode_jpeg(data, DecodeOptions(entropy_engine="fast"))
        ref = decode_jpeg(data, DecodeOptions(entropy_engine="reference"))
        assert np.array_equal(fast.rgb, ref.rgb)
        assert fast.row_byte_offsets[0] == 0
        assert all(b >= a for a, b in zip(fast.row_byte_offsets,
                                          fast.row_byte_offsets[1:]))
        assert fast.row_byte_offsets[-1] <= ref.row_byte_offsets[-1]

    def test_unknown_engine_rejected(self):
        geo = ImageGeometry(16, 16, "4:4:4")
        with pytest.raises(EntropyError):
            create_entropy_decoder("warp", geo, std_tables(), 0)


class TestAdversarialStreams:
    """Long codes, ZRL runs, magnitude widths beyond the fused window."""

    def _geometry(self):
        return ImageGeometry(32, 16, "4:4:4")

    def test_long_codes_and_wide_magnitudes(self):
        geo = self._geometry()
        tables = std_tables()
        coeffs = CoefficientBuffers.empty(geo)
        rng = np.random.default_rng(7)
        for plane in coeffs.planes:
            # category-10 ACs force 16-bit codes in the Annex-K tables,
            # far outside the 8-bit fused window
            plane[:, 0, 0] = rng.integers(-1000, 1000, plane.shape[0])
            plane[:, 7, 7] = rng.integers(-1000, 1000, plane.shape[0])
            plane[:, 3, 5] = rng.integers(-1000, 1000, plane.shape[0])
        data = EntropyEncoder(geo, tables).encode(coeffs)
        assert_engines_agree(geo, tables, 0, data)
        fast = FastEntropyDecoder(geo, tables)
        fast.decode_all(data)
        for orig, got in zip(coeffs.planes, fast.coefficients.planes):
            assert np.array_equal(orig, got)

    def test_zrl_runs(self):
        geo = self._geometry()
        tables = std_tables()
        coeffs = CoefficientBuffers.empty(geo)
        for plane in coeffs.planes:
            # zig-zag position 63 after 62 zeros: needs 3 ZRL escapes
            plane[:, 7, 7] = 5
            plane[:, 0, 0] = -3
        data = EntropyEncoder(geo, tables).encode(coeffs)
        assert_engines_agree(geo, tables, 0, data)
        fast = FastEntropyDecoder(geo, tables)
        fast.decode_all(data)
        for orig, got in zip(coeffs.planes, fast.coefficients.planes):
            assert np.array_equal(orig, got)

    def test_truncated_streams_raise_identically(self):
        geo = ImageGeometry(48, 48, "4:2:2")
        tables = std_tables()
        coeffs = random_coefficients(geo, seed=11, spread=200, density=0.2)
        data = EntropyEncoder(geo, tables).encode(coeffs)
        cuts = sorted(set(
            list(range(0, min(32, len(data))))
            + list(range(0, len(data), max(1, len(data) // 40)))
        ))
        for cut in cuts:
            assert_engines_agree(geo, tables, 0, data[:cut])

    def test_truncated_with_restarts_raise_identically(self):
        geo = ImageGeometry(48, 32, "4:2:2")
        tables = std_tables()
        coeffs = random_coefficients(geo, seed=13)
        data = EntropyEncoder(geo, tables, restart_interval=2).encode(coeffs)
        for cut in range(0, len(data), max(1, len(data) // 30)):
            assert_engines_agree(geo, tables, 2, data[:cut])

    def test_tampered_restart_sequence(self):
        geo = ImageGeometry(48, 32, "4:2:2")
        tables = std_tables()
        coeffs = random_coefficients(geo, seed=17)
        data = EntropyEncoder(geo, tables, restart_interval=2).encode(coeffs)
        markers = destuff_scan(data).marker_orig_offsets
        assert markers, "tampering test needs at least one RSTn"
        # flip RST0 -> RST5: both engines must report the same sequence error
        bad = bytearray(data)
        bad[markers[0] + 1] = 0xD5
        assert_engines_agree(geo, tables, 2, bytes(bad))
        # replace the RSTn with a non-restart marker (EOI)
        bad = bytearray(data)
        bad[markers[0] + 1] = 0xD9
        assert_engines_agree(geo, tables, 2, bytes(bad))

    def test_trailing_lone_ff(self):
        geo = ImageGeometry(48, 48, "4:2:2")
        tables = std_tables()
        coeffs = random_coefficients(geo, seed=19, spread=200, density=0.2)
        data = EntropyEncoder(geo, tables).encode(coeffs)
        for cut in (len(data) // 5, len(data) // 2):
            assert_engines_agree(geo, tables, 0, data[:cut] + b"\xff")

    def test_wide_ac_magnitudes_on_long_codes(self):
        """AC size up to 15 on a 16-bit code = 31 bits in one symbol.

        The refill threshold must cover it: the reference decoder
        accepts such tables (no AC size cap), so the fast engine has to
        decode — or fail — identically rather than underflow its bit
        buffer.  Regression test for a ValueError('negative shift
        count') found in review.
        """
        geo = ImageGeometry(8, 8, "4:4:4")
        dc = HuffmanSpec((0, 2) + (0,) * 14, (0, 4))
        # 2-bit EOB, then 16-bit codes for (0,1) and the size-15 symbol
        ac = HuffmanSpec((0, 1) + (0,) * 13 + (2,), (0x00, 0x01, 0x0F))
        tables = [ComponentTables(dc, ac)] * 3
        rng = np.random.default_rng(41)
        # 0x10007FFE: DC "00" (2 bits) then the 16-bit code 0x4001 for
        # the size-15 symbol with its magnitude cut short — with a
        # too-small refill threshold the fast engine underflowed nbits
        # (ValueError) where the reference raises BitstreamError
        streams = [bytes([0x10, 0x00, 0x7F, 0xFE]),
                   b"\x20\x00\x3f\xfe", b"\x00" * 8, b"\xff\x00" * 4]
        streams += [rng.bytes(int(n)) for n in rng.integers(1, 24, 30)]
        for data in streams:
            assert_engines_agree(geo, tables, 0, data)

    def test_random_streams_fuzz(self):
        """Arbitrary bytes: both engines agree on result or exact error."""
        geo = ImageGeometry(24, 16, "4:2:2")
        tables = std_tables()
        rng = np.random.default_rng(43)
        for _ in range(60):
            data = rng.bytes(int(rng.integers(0, 120)))
            assert_engines_agree(geo, tables, 0, data)
            assert_engines_agree(geo, tables, 2, data)

    def test_stray_marker_mid_stream(self):
        geo = ImageGeometry(48, 48, "4:2:2")
        tables = std_tables()
        coeffs = random_coefficients(geo, seed=23)
        data = EntropyEncoder(geo, tables).encode(coeffs)
        cut = len(data) // 3
        assert_engines_agree(geo, tables, 0,
                             data[:cut] + b"\xff\xd9" + data[cut:])

    def test_dc_predictor_leaving_int16(self):
        """Twenty blocks of DC difference +2047: the predictor passes
        32767 at the 17th.  Both engines used to leak numpy's bare
        ``OverflowError`` from the coefficient store; it is one named
        ``EntropyError`` now, and tolerant mode still wraps."""
        geo = ImageGeometry(160, 8, "4:4:4", ncomponents=1)
        tables = std_tables()[:1]
        dc_code = HuffmanEncoder(tables[0].dc).code_for(11)
        eob_code = HuffmanEncoder(tables[0].ac).code_for(C.EOB_SYMBOL)
        writer = BitWriter()
        writer.write_pairs([dc_code, (2047, 11), eob_code] * 20)
        writer.flush()
        data = writer.getvalue()
        assert_engines_agree(geo, tables, 0, data)
        assert decode_outcome("fast", geo, tables, 0, data) == (
            "err", EntropyError,
            "Python integer 34799 out of bounds for int16")
        spec = FastEntropyDecoder(geo, tables, tolerant=True)
        dc = spec.decode_all(data).planes[0][:, 0, 0]
        assert dc[15] == 16 * 2047 and dc[16] == 17 * 2047 - 65536

    def test_salvage_keeps_the_rows_before_the_dc_predictor_leaves_int16(
            self):
        """A 64x64 gray frame whose predictor leaves int16 in its sixth
        MCU row, reached through both DC paths: fifteen +2047 differences
        the careful path decodes, then +1 blocks whose head holds DC,
        coefficient and EOB, and +127 blocks whose DC fills the head.
        Pixels, error map and errors are the ones the decoder gave
        before the head probe existed (a digest of them)."""
        dc_codes = HuffmanEncoder(std_tables()[0].dc)
        blocks = []
        for b in range(64):
            diff, cat, mag = ((2047, 11, 1) if b < 15 else
                              (127, 7, 0) if b % 2 else (1, 1, 1))
            blocks.append([dc_codes.code_for(cat), (diff, cat)]
                          + ac_pairs(0x01, mag) + ac_pairs(C.EOB_SYMBOL))
        base = encode_jpeg(np.full((64, 64, 3), 128, dtype=np.uint8),
                           EncoderSettings(colorspace="gray"))
        header = base[:len(base) - len(parse_jpeg(base).entropy_data) - 2]
        out = decode_jpeg(header + gray_stream(blocks) + b"\xff\xd9",
                          DecodeOptions(salvage=True))
        assert out.errors == ["Python integer 32880 out of bounds for int16"]
        assert out.error_map.any(axis=1).tolist() == [False] * 5 + [True] * 3
        digest = hashlib.sha256(out.rgb.tobytes())
        digest.update(out.error_map.tobytes())
        digest.update("\n".join(out.errors).encode())
        assert digest.hexdigest() == (
            "219cf5a70d678667925c82abb7697c97"
            "90ee9aceb1c1eb8d85cadd9f9705118a")


class TestPrescan:
    def test_destuff_removes_stuffing_and_indexes_markers(self):
        raw = b"\x12\xff\x00\x34" + b"\xff\xd0" + b"\x56\xff\x00"
        scan = destuff_scan(raw)
        assert scan.payload == b"\x12\xff\x34\x56\xff"
        assert scan.marker_payload_offsets == [3]
        assert scan.marker_values == [0xD0]
        assert scan.marker_orig_offsets == [4]
        assert scan.terminator is None
        # payload offsets map back through stuffing and marker gaps
        assert scan.orig_offset(0) == 0
        assert scan.orig_offset(3) == 6   # just past the RST0 pair
        assert scan.orig_offset(5) == 9   # just past the final stuffed pair

    def test_terminating_marker_ends_payload(self):
        raw = b"\xaa\xbb\xff\xd9\xcc\xcc"
        scan = destuff_scan(raw)
        assert scan.payload == b"\xaa\xbb"
        assert scan.terminator == 0xD9

    def test_fused_tables_cover_short_codes(self):
        """What a probe entry *means* — bits consumed, zig-zag advance,
        EXTENDed value, for one symbol or two — for known windows."""
        spec = HuffmanSpec(C.STD_AC_LUMINANCE_BITS, C.STD_AC_LUMINANCE_VALUES)
        tab = fused_tables(spec, "ac")
        assert len(tab.probe) == 1 << PROBE_BITS
        assert all(e is None or len(e) == 6 for e in tab.probe)
        # nearly all of the probe space is one-shot, most of it two-shot
        assert sum(1 for e in tab.probe if e) > 0.95 * len(tab.probe)
        assert sum(1 for e in tab.probe if e and e[3]) > 0.7 * len(tab.probe)

        def windows(prefix: str):
            """Every window that starts with *prefix*."""
            pad = PROBE_BITS - len(prefix)
            first = int(prefix, 2) << pad
            return tab.probe[first:first + (1 << pad)]

        def first_for(prefix: str):
            """The first symbol every probe starting with *prefix* hits."""
            firsts = {e[:3] for e in windows(prefix)}
            assert len(firsts) == 1
            return firsts.pop()

        def entry_for(prefix: str):
            """The whole entry every probe starting with *prefix* hits."""
            entries = set(windows(prefix))
            assert len(entries) == 1
            return entries.pop()

        # (run 0, size 1) has the 2-bit code 00: with either magnitude
        # bit it is 3 bits, one coefficient, EXTEND(m, 1)
        assert first_for("000") == (3, 1, -1)
        assert first_for("001") == (3, 1, 1)
        # (run 1, size 1), code 1100: one zero, then the coefficient
        assert first_for("11001") == (5, 2, 1)
        # two symbols in one hit: +1, then (run 1, size 1) = -1 ...
        assert entry_for("001" "11000") == (3, 1, 1, 5, 2, -1)
        # ... or the EOB (1010) that ends the block
        assert entry_for("001" "1010") == (3, 1, 1, 4, EOB_ADVANCE, 0)
        # EOB ends any block from any k; nothing is stored and nothing
        # is paired behind it — what follows is the next block's DC
        bits, advance, value, *second = entry_for("1010")
        assert (bits, value) == (4, 0) and 1 + advance >= 64
        assert advance == EOB_ADVANCE and second == [0, 0, 0]
        # (run 0, size 5), code 11010 + 5 magnitude bits, leaves three
        # bits: room for a (run 0, size 1)
        assert entry_for("1101000000" "001") == (10, 1, -31, 3, 1, 1)
        # (run 0, size 6), code 1111000 + 6 bits, is the full window
        assert entry_for("1111000" "000000") == (13, 1, -63, 0, 0, 0)
        # (run 0, size 7), code 11111000: the magnitude falls outside
        # the window, so the probe does not resolve it
        assert set(windows("11111000")) == {None}
        # ZRL (11111111001) is sixteen zeros, nothing stored or paired
        assert entry_for("11111111001") == (11, ZRL_ADVANCE, 0, 0, 0, 0)
        # DC role: one symbol per entry; the value is the difference,
        # the advance is the DC coefficient itself; categories past 11
        # are left to the fallback, which raises the reference error
        dc = fused_tables(
            HuffmanSpec(C.STD_DC_LUMINANCE_BITS, C.STD_DC_LUMINANCE_VALUES),
            "dc")
        assert dc.probe[0] == (2, 1, 0)               # category 0: code 00
        assert dc.probe[int("01100", 2) << (PROBE_BITS - 5)] == (5, 1, -3)
        bad_dc = fused_tables(HuffmanSpec((0, 2) + (0,) * 14, (0, 12)), "dc")
        assert bad_dc.probe[int("01", 2) << (PROBE_BITS - 2)] is None


def unique_spec(i: int) -> HuffmanSpec:
    """A valid two-symbol table no other index shares."""
    return HuffmanSpec((2,) + (0,) * 15, (0x01 + (i % 10), 0x11 + i))


class TestTableCache:
    def test_a_baseline_decode_builds_heads_not_dc_probes(self):
        """A baseline block opens on its head, cached per (DC, AC) spec
        pair; the ``"dc"`` probe is left to progressive DC scans."""
        data = encode_jpeg(synthetic_photo(48, 64, seed=4), EncoderSettings(
            subsampling="4:2:0", optimize_huffman=True))
        decode_jpeg(data)
        for t in component_tables_from_info(parse_jpeg(data)):
            assert (t.dc, t.ac) in fast_entropy._TABLE_CACHE
            assert fused_tables(t.dc, "dc")._probe is None

    def test_lru_keeps_the_standard_tables_resident(self):
        """A hit refreshes its entry: a stream of per-image optimized
        specs (more than the cache holds) never evicts tables that are
        used in between — under the old FIFO order they were rebuilt
        every ``_TABLE_CACHE_MAX`` images."""
        std = std_tables()
        resident = [(t.dc, "dc", fused_tables(t.dc, "dc")) for t in std[:2]]
        resident += [(t.ac, "ac", fused_tables(t.ac, "ac")) for t in std[:2]]
        for i in range(fast_entropy._TABLE_CACHE_MAX + 6):
            fused_tables(unique_spec(i), "ac")
            for spec, role, tab in resident:
                assert fused_tables(spec, role) is tab
            assert len(fast_entropy._TABLE_CACHE) <= \
                fast_entropy._TABLE_CACHE_MAX
        # ... and the least recently used one is what goes
        assert (unique_spec(0), "ac") not in fast_entropy._TABLE_CACHE

    def test_concurrent_eviction_never_raises(self):
        """Eight threads on distinct specs, constantly evicting: the old
        ``pop(next(iter(cache)))`` raised KeyError when two of them
        picked the same victim."""
        errors: list[BaseException] = []
        deadline = time.monotonic() + 1.5

        def hammer(tid: int) -> None:
            i = 0
            try:
                while time.monotonic() < deadline:
                    spec = unique_spec(1000 * tid + i % 40)
                    tab = fused_tables(spec, "ac")
                    assert tab.values == spec.values
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(fast_entropy._TABLE_CACHE) <= fast_entropy._TABLE_CACHE_MAX


class TestCommittedCorpus:
    def test_engines_agree_on_every_corpus_image(self):
        """All 54 ledger inputs (read-only): identical planes from both
        engines; the fast engine's row offsets start at 0, never go
        back and end inside the scan."""
        paths = sorted(CORPUS.glob("*.jpg"))
        assert len(paths) == 54
        for path in paths:
            data = path.read_bytes()
            fast = decode_jpeg(data, DecodeOptions(entropy_engine="fast"))
            ref = decode_jpeg(data, DecodeOptions(entropy_engine="reference"))
            for a, b in zip(fast.coefficients.planes,
                            ref.coefficients.planes, strict=True):
                assert a.dtype == np.int16 and np.array_equal(a, b), path.name
            if fast.info.progressive:
                continue   # multi-scan: no per-row offsets to report
            offsets = fast.row_byte_offsets
            assert len(offsets) == fast.info.geometry.mcu_rows + 1, path.name
            assert offsets[0] == 0, path.name
            assert all(b >= a for a, b in zip(offsets, offsets[1:])), path.name
            assert 0 < offsets[-1] <= len(fast.info.entropy_data), path.name
            assert offsets[-1] <= ref.row_byte_offsets[-1], path.name


class TestCoefficientAllocation:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_buffers_allocated_by_start_only(self, engine):
        """The constructor used to build a zeroed whole-image buffer that
        ``start()`` immediately replaced; one allocation per decode, and
        a restarted decoder never hands out a previous decode's planes."""
        geo = ImageGeometry(48, 32, "4:2:0")
        tables = std_tables()
        data = EntropyEncoder(geo, tables).encode(random_coefficients(geo, 1))
        dec = create_entropy_decoder(engine, geo, tables)
        assert dec.coefficients is None
        with pytest.raises(EntropyError):
            dec.decode_mcu_rows(1)
        first = dec.decode_all(data)
        second = dec.decode_all(data)
        assert first is not second
        for a, b in zip(first.planes, second.planes):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)


# ---------------------------------------------------------------------------
# Two symbols per probe: what must not change at the pair boundary.
# ---------------------------------------------------------------------------

def ac_lum_codes():
    return HuffmanEncoder(std_tables()[0].ac)


def gray_stream(blocks) -> bytes:
    """A one-component scan written symbol by symbol: *blocks* is a list
    of blocks, each a list of ``(value, nbits)`` pairs (code words and
    magnitudes alike), flushed with the standard 1-padding."""
    writer = BitWriter()
    for pairs in blocks:
        writer.write_pairs(pairs)
    writer.flush()
    return writer.getvalue()


def ac_pairs(symbol: int, magnitude: int = 0):
    """Code word (and magnitude bits) of one AC luminance symbol."""
    pairs = [ac_lum_codes().code_for(symbol)]
    if symbol & 15:
        pairs.append((magnitude, symbol & 15))
    return pairs


DC_ZERO = [HuffmanEncoder(std_tables()[0].dc).code_for(0)]


def single_symbol_decoder(geo, tables, **kwargs) -> FastEntropyDecoder:
    """A fast decoder with every second symbol struck from its AC
    tables: what one-symbol-per-probe decoding would do."""
    dec = FastEntropyDecoder(geo, tables, **kwargs)
    for i, tab in enumerate(dec._ac_tables):
        single = dec._ac_tables[i] = copy.copy(tab)
        single._probe = [e and e[:3] + (0, 0, 0) for e in tab.probe]
    return dec


#: Two ordinary blocks: they keep whatever a test puts before them
#: away from the end of the data, where the careful helpers take over.
FILLER = 2 * [DC_ZERO + 4 * ac_pairs(0x01, 1) + ac_pairs(C.EOB_SYMBOL)]


class TestPairBoundaries:
    GEO = ImageGeometry(32, 8, "4:4:4", ncomponents=1)     # four blocks

    def tables(self):
        return std_tables()[:1]

    @pytest.mark.parametrize("lead", [
        [],                       # 63 x (0,1): the last is a *first* symbol
        [(0x06, 0b100000)],       # a 13-bit symbol shifts the pairing: the
                                  # last is a *second* symbol
    ], ids=["first-slot", "second-slot"])
    def test_coefficient_on_zigzag_63_leaves_the_next_dc_alone(self, lead):
        """A block whose last coefficient sits on zig-zag 63 has no EOB:
        the bits behind it are the next block's DC code, which look like
        a pairable AC symbol (DC category 0 is ``00``, then ``001`` is a
        whole (run 0, size 1) in the AC table)."""
        ones = [p for _ in range(63 - len(lead)) for p in ac_pairs(0x01, 1)]
        head = [p for sym, mag in lead for p in ac_pairs(sym, mag)]
        block_a = DC_ZERO + head + ones
        block_b = DC_ZERO + ac_pairs(0x01, 1) + ac_pairs(C.EOB_SYMBOL)
        data = gray_stream([block_a, block_b] + FILLER)
        assert_engines_agree(self.GEO, self.tables(), 0, data)
        fast = FastEntropyDecoder(self.GEO, self.tables())
        planes = fast.decode_all(data).planes[0].reshape(4, 64)
        assert np.count_nonzero(planes[0]) == 63
        assert planes[0][63] == 1                   # natural 63 = zig-zag 63
        assert np.count_nonzero(planes[1]) == 1 and planes[1][1] == 1

    def test_nothing_is_paired_after_eob_or_zrl(self):
        for t in std_tables()[:2]:
            for e in fused_tables(t.ac, "ac").probe:
                if e and not e[2]:
                    assert e[1] in (EOB_ADVANCE, ZRL_ADVANCE)
                    assert e[3:] == (0, 0, 0)

    def test_rejected_symbols_are_fused_in_neither_slot(self):
        """0x50 is a size-0 AC symbol that is neither EOB nor ZRL, 12 is
        no DC category: whatever code they get, no probe entry carries
        them — first or second — and the stream that holds them raises
        the reference's error."""
        ac = HuffmanSpec((0, 3) + (0,) * 14, (0x01, 0x50, C.EOB_SYMBOL))
        tab = fused_tables(ac, "ac")
        step = 1 << (PROBE_BITS - 2)
        assert set(tab.probe[step:2 * step]) == {None}      # code 01
        # behind a (0,1) coefficient (00 + one bit): never a second slot
        for m in (0, 1):
            at = (m << 2 | 0b01) << (PROBE_BITS - 5)
            assert {e[3:] for e in tab.probe[at:at + (1 << (PROBE_BITS - 5))]
                    } == {(0, 0, 0)}
        tables = [ComponentTables(std_tables()[0].dc, ac)]
        data = gray_stream([DC_ZERO + [(0b00, 2), (1, 1), (0b01, 2)]]
                           + 3 * [DC_ZERO + [(0b00, 2), (1, 1), (0b10, 2)]])
        assert_engines_agree(self.GEO, tables, 0, data)
        assert decode_outcome("fast", self.GEO, tables, 0, data) == (
            "err", EntropyError, "bad AC symbol 0x50")

    def overrun_stream(self):
        """A 13-bit coefficient that fills its probe, 30 probes of two
        coefficients, then one whose first symbol lands on zig-zag 62
        and whose second — (run 2, size 1) — overruns."""
        ones = [p for _ in range(61) for p in ac_pairs(0x01, 1)]
        block_a = (DC_ZERO + ac_pairs(0x06, 0b100000) + ones
                   + ac_pairs(0x21, 1))
        block_b = DC_ZERO + ac_pairs(C.EOB_SYMBOL)
        return gray_stream([block_a, block_b] + FILLER)

    def test_overrun_on_the_second_symbol_raises_the_reference_error(self):
        data = self.overrun_stream()
        assert_engines_agree(self.GEO, self.tables(), 0, data)
        assert decode_outcome("fast", self.GEO, self.tables(), 0, data) == (
            "err", EntropyError, "AC coefficient index overran the block")

    def test_tolerant_overrun_stands_where_single_symbol_decoding_does(self):
        data = self.overrun_stream()
        geo = self.GEO.mcu_strip(4)
        pair = FastEntropyDecoder(geo, self.tables(), tolerant=True)
        single = single_symbol_decoder(geo, self.tables(), tolerant=True)
        assert single._ac_tables[0].probe != pair._ac_tables[0].probe
        outcomes = []
        for dec in (pair, single):
            dec.start(data)
            dec.decode_run()
            outcomes.append((dec.bit_position, dec.run_positions,
                             dec.run_passed, dec.run_predictors,
                             [p.tobytes() for p in dec.coefficients.planes]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == [1] * 4      # passed over in the first MCU

    def test_overrun_found_by_the_careful_path(self):
        """61 coefficients, then (run 2, size 4): its 12-bit code and 4
        magnitude bits fit no probe, so ``_careful_ac`` meets the
        overrun.  A strict decode raises the reference error; a tolerant
        one passes over it once, ends the block, and decodes the next
        blocks as the strict path would have."""
        ones = [p for _ in range(61) for p in ac_pairs(0x01, 1)]
        block_a = DC_ZERO + ones + ac_pairs(0x24, 0b1010)
        block_b = DC_ZERO + ac_pairs(0x01, 1) + ac_pairs(C.EOB_SYMBOL)
        data = gray_stream([block_a, block_b] + FILLER)
        code, length = ac_lum_codes().code_for(0x24)
        shift = PROBE_BITS - length
        probe = fused_tables(self.tables()[0].ac, "ac").probe
        assert set(probe[code << shift:(code + 1) << shift]) == {None}
        assert_engines_agree(self.GEO, self.tables(), 0, data)
        assert decode_outcome("fast", self.GEO, self.tables(), 0, data) == (
            "err", EntropyError, "AC coefficient index overran the block")
        dec = FastEntropyDecoder(self.GEO.mcu_strip(4), self.tables(),
                                 tolerant=True)
        dec.start(data)
        assert dec.decode_run() == 4 and dec.run_passed == [1] * 4
        planes = dec.coefficients.planes[0].reshape(4, 64)
        assert np.count_nonzero(planes[0]) == 61
        assert np.count_nonzero(planes[1]) == 1 and planes[1][1] == 1


# ---------------------------------------------------------------------------
# The probe table is the composition of single-symbol decodes.
# ---------------------------------------------------------------------------

def one_symbol(spec: HuffmanSpec, role: str, window: int):
    """Independent single-symbol decode of a ``PROBE_BITS`` window:
    ``(bits, k_advance, value)``, or None when no acceptable symbol's
    code and magnitude fit the window."""
    enc = HuffmanEncoder(spec)
    by_code = {enc.code_for(sym)[::-1]: sym for sym in enc.symbols}
    for length in range(1, PROBE_BITS + 1):
        sym = by_code.get((length, window >> (PROBE_BITS - length)))
        if sym is None:
            continue
        if role == "dc":
            size, advance = sym, (1 if sym <= 11 else None)
        else:
            size = sym & 15
            advance = ((sym >> 4) + 1 if size else
                       {C.EOB_SYMBOL: EOB_ADVANCE,
                        C.ZRL_SYMBOL: ZRL_ADVANCE}.get(sym))
        if advance is None or length + size > PROBE_BITS:
            return None
        m = (window >> (PROBE_BITS - length - size)) & ((1 << size) - 1)
        return length + size, advance, extend(m, size)
    return None


def assert_table_is_composition(spec: HuffmanSpec, role: str) -> None:
    probe = fast_entropy.FusedDecodeTables(spec, role).probe
    assert len(probe) == 1 << PROBE_BITS
    single = [one_symbol(spec, role, w) for w in range(1 << PROBE_BITS)]
    mask = (1 << PROBE_BITS) - 1
    for w, (entry, first) in enumerate(zip(probe, single)):
        if first is None or role == "dc":
            assert entry == first, (w, entry, first)
            continue
        # the bits behind the first symbol, zero-filled: a second
        # symbol that fits what is left never sees the fill
        second = single[(w << first[0]) & mask] if first[2] else None
        if second is None or first[0] + second[0] > PROBE_BITS:
            second = (0, 0, 0)
        assert entry == first + second, (w, entry, first, second)


def careful_head(dc: HuffmanSpec, ac: HuffmanSpec, window: int):
    """The head entry a ``PROBE_BITS`` *window* implies, decoded one
    symbol at a time by the careful helpers (the bits past the window
    read as zero): None unless the DC symbol fits the window."""
    payload = (window << (16 - PROBE_BITS)).to_bytes(2, "big")
    at = (16, True, False, payload)     # seg_bits, zero_feed, trunc
    try:
        diff, p = fast_entropy._careful_dc(
            0, *at, fused_tables(dc, "dc"), None)
    except (EntropyError, HuffmanError):
        return None
    if p > PROBE_BITS:
        return None
    head = (p, diff, 1, 1, 0)
    for _ in range(2):      # the first AC symbol, then a closing EOB
        try:
            k, v, p = fast_entropy._careful_ac(
                head[2], p, *at, fused_tables(ac, "ac"), None)
        except (EntropyError, HuffmanError):
            break
        if p > PROBE_BITS or (head[4] and (v or k != EOB_ADVANCE)):
            break           # it does not fit, or is not a closing EOB
        i = fast_entropy._ZIGZAG_AFTER[k] if v else head[3]
        head = (p, diff, k, i, v or head[4])
        if not v:
            break           # EOB or ZRL: nothing closes behind it
    return head


def assert_head_is_composition(dc: HuffmanSpec, ac: HuffmanSpec) -> None:
    head = head_probe(dc, ac)
    dc_probe = fused_tables(dc, "dc").probe
    assert len(head) == 1 << PROBE_BITS
    for w, entry in enumerate(head):
        assert entry == careful_head(dc, ac, w), w
        assert (entry is None) == (dc_probe[w] is None), w


class TestProbeTableInvariant:
    @pytest.mark.parametrize("role,bits,values", [
        ("dc", C.STD_DC_LUMINANCE_BITS, C.STD_DC_LUMINANCE_VALUES),
        ("dc", C.STD_DC_CHROMINANCE_BITS, C.STD_DC_CHROMINANCE_VALUES),
        ("ac", C.STD_AC_LUMINANCE_BITS, C.STD_AC_LUMINANCE_VALUES),
        ("ac", C.STD_AC_CHROMINANCE_BITS, C.STD_AC_CHROMINANCE_VALUES),
    ])
    def test_annex_k_tables(self, role, bits, values):
        assert_table_is_composition(HuffmanSpec(bits, values), role)

    @parity_examples(25)
    @given(freqs=st.dictionaries(st.integers(0, 255),
                                 st.integers(1, 1 << 20),
                                 min_size=1, max_size=80),
           role=st.sampled_from(["dc", "ac"]))
    def test_optimized_tables(self, freqs, role):
        """Per-image optimized tables are what real traffic carries:
        any symbol set, code lengths up to 16, incomplete codes."""
        assert_table_is_composition(spec_from_frequencies(freqs), role)

    @pytest.mark.parametrize("pair", [0, 1], ids=["luma", "chroma"])
    def test_annex_k_heads(self, pair):
        t = std_tables()[pair]
        assert_head_is_composition(t.dc, t.ac)

    @parity_examples(25)
    @given(dc=st.dictionaries(st.integers(0, 15), st.integers(1, 1 << 20),
                              min_size=1, max_size=16),
           ac=st.dictionaries(st.integers(0, 255), st.integers(1, 1 << 20),
                              min_size=1, max_size=80))
    def test_optimized_heads(self, dc, ac):
        """DC categories past 11 are drawn too: no head carries them."""
        assert_head_is_composition(spec_from_frequencies(dc),
                                   spec_from_frequencies(ac))

    def test_first_level_lookup_matches_the_reference_decoder(self):
        for t in std_tables()[:2]:
            for spec, role in ((t.dc, "dc"), (t.ac, "ac")):
                assert fused_tables(spec, role).lookup == \
                    HuffmanDecoder(spec)._lookup.tolist()


# ---------------------------------------------------------------------------
# Segment tails and small restart intervals.
# ---------------------------------------------------------------------------

def tail_variants(data: bytes, cut: int):
    """*data* whole, and cut at *cut* three ways: the data just ends,
    a marker ends it (the reader zero-feeds), a lone 0xFF ends it."""
    return (data, data[:cut], data[:cut] + b"\xff\xd9", data[:cut] + b"\xff")


class TestSegmentTails:
    """The probe is exact only while the reference reader could neither
    pad nor raise inside its window; inside a scan a segment is followed
    by the next segment's bytes, not by zeros."""

    @parity_examples(40)
    @given(seed=st.integers(0, 2**31 - 1),
           interval=st.sampled_from([0, 1, 2, 3, 8]),
           mode=st.sampled_from(["4:2:0", "4:2:2", "4:4:4", "gray"]),
           density=st.sampled_from([0.01, 0.08, 0.6]),
           cut=st.floats(0.0, 1.0))
    def test_engines_agree_on_every_tail(self, seed, interval, mode,
                                         density, cut):
        if mode == "gray":
            geo = ImageGeometry(40, 24, "4:4:4", ncomponents=1)
        else:
            geo = ImageGeometry(40, 24, mode)
        tables = std_tables()[:len(geo.components)]
        coeffs = random_coefficients(geo, seed=seed, density=density)
        data = EntropyEncoder(geo, tables, interval).encode(coeffs)
        for stream in tail_variants(data, int(cut * len(data))):
            assert_engines_agree(geo, tables, interval, stream)

    def test_small_spans_roll_without_changing_anything(self, monkeypatch):
        """With 64-byte spans every stream crosses span boundaries —
        forwards inside a segment, and backwards when a decode that fed
        on zeros past a marker returns to the next segment."""
        monkeypatch.setattr(fast_entropy, "SPAN_BYTES", 64)
        geo = ImageGeometry(72, 56, "4:2:0")
        tables = std_tables()
        rng = np.random.default_rng(5)
        for interval in (0, 1, 5):
            coeffs = random_coefficients(geo, seed=interval, density=0.3)
            data = EntropyEncoder(geo, tables, interval).encode(coeffs)
            assert len(data) > 10 * 64
            for cut in rng.integers(0, len(data), 6).tolist():
                for stream in tail_variants(data, cut):
                    assert_engines_agree(geo, tables, interval, stream)
            # half a segment gone: the decoder feeds on zeros for the
            # rest of its MCUs (a zero-fed block never ends early), far
            # past the marker, then comes back for the next segment
            marks = destuff_scan(data).marker_orig_offsets
            if marks:
                short = data[:marks[0] // 2] + data[marks[0]:]
                assert_engines_agree(geo, tables, interval, short)


# ---------------------------------------------------------------------------
# What the reader allocates.
# ---------------------------------------------------------------------------

def long_gray_scan(rows: int):
    """A dense one-component scan of *rows* identical MCU rows, one
    restart segment each (the encoder runs once, on one row)."""
    width = 2048
    row_geo = ImageGeometry(width, 8, "4:4:4", ncomponents=1)
    tables = std_tables()[:1]
    row = random_coefficients(row_geo, seed=3, spread=300, density=0.9)
    segment = EntropyEncoder(row_geo, tables).encode(row)
    data = b"".join(segment + bytes([0xFF, 0xD0 + (i & 7)])
                    for i in range(rows - 1)) + segment
    geo = ImageGeometry(width, 8 * rows, "4:4:4", ncomponents=1)
    return geo, tables, data, row.planes[0]


class TestProbeWindows:
    def test_windows_are_the_payload_bits(self):
        rng = np.random.default_rng(9)
        raw = rng.bytes(300)
        scan = destuff_scan(raw.replace(b"\xff", b"\xfe"))
        _, win = scan.windows_at(0)
        bits = np.unpackbits(np.frombuffer(
            scan.payload + b"\0\0", dtype=np.uint8))
        assert len(win) == 8 * len(scan.payload)
        for p in (0, 1, 7, 8, 9, 1000, len(win) - PROBE_BITS, len(win) - 1):
            want = int("".join(map(str, bits[p:p + PROBE_BITS])), 2)
            assert win[p] == want, p

    def test_windows_are_zero_filled_at_restart_markers(self):
        scan = destuff_scan(b"\xab\xcd\xff\xd0\xff\xd1\xee\xff\xd2\x77")
        assert scan.marker_payload_offsets == [2, 2, 3]
        _, win = scan.windows_at(0)
        top = PROBE_BITS - 8
        assert win[8] == 0xCD << top          # not ... 0xEE
        assert win[12] == 0xD << (PROBE_BITS - 4)
        assert win[16] == 0xEE << top         # an empty segment before it
        assert win[24] == 0x77 << top

    def test_a_shared_prescan_builds_each_span_once(self, monkeypatch):
        built = []
        build = fast_entropy._probe_windows
        monkeypatch.setattr(
            fast_entropy, "_probe_windows",
            lambda scan, span: built.append(span) or build(scan, span))
        geo = ImageGeometry(48, 32, "4:2:0")
        tables = std_tables()
        data = EntropyEncoder(geo, tables).encode(random_coefficients(geo, 1))
        scan = destuff_scan(data)
        first = FastEntropyDecoder(geo, tables)
        first.start_prescanned(scan)
        assert built == []                    # not in start(): lazily
        first.decode_mcu_rows(1)
        first.decode_mcu_rows(geo.mcu_rows)
        second = FastEntropyDecoder(geo, tables)
        second.start_prescanned(scan)
        second.decode_mcu_rows(geo.mcu_rows)
        assert built == [0]
        for a, b in zip(first.coefficients.planes,
                        second.coefficients.planes):
            assert np.array_equal(a, b)

    def test_a_prescan_pickles_without_its_windows(self):
        scan = destuff_scan(b"\x12\x34\xff\xd0\x56")
        scan.windows_at(0)
        clone = pickle.loads(pickle.dumps(scan))
        assert vars(clone) == {**vars(scan), "_windows": None}
        assert list(clone.windows_at(0)[1]) == list(scan.windows_at(0)[1])

    def test_window_memory_does_not_grow_with_the_scan(self, monkeypatch):
        """Windows are 16 bytes per payload byte: built span by span,
        a decode holds a few spans' worth however long its scan.  Every
        span build runs under ``tracemalloc`` and is charged the windows
        still alive from earlier builds (tracing the decode loop itself,
        which makes an int per probe, would take a minute)."""
        build = fast_entropy._probe_windows
        alive, peaks = [], []

        def traced_build(scan, span):
            held = sum(a().nbytes for a in alive if a() is not None)
            tracemalloc.start()
            try:
                win = build(scan, span)
                peaks.append(held + tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            alive.append(weakref.ref(win.obj))
            return win

        monkeypatch.setattr(fast_entropy, "_probe_windows", traced_build)
        span_cost = 16 * fast_entropy.SPAN_BYTES
        worst = {}
        for rows in (10, 160):
            geo, tables, data, row = long_gray_scan(rows)
            dec = FastEntropyDecoder(geo, tables, geo.mcus_per_row)
            del peaks[:]
            planes = dec.decode_all(data).planes[0].reshape(rows, -1, 8, 8)
            assert all(np.array_equal(r, row) for r in planes)
            assert len(peaks) == -(-len(dec._scan.payload)
                                   // fast_entropy.SPAN_BYTES)
            worst[len(data)] = max(peaks)
        short, long_ = sorted(worst)
        assert short > 2 * fast_entropy.SPAN_BYTES and long_ >= 2 << 20
        assert long_ >= 4 * short
        assert span_cost < worst[long_] < 3.5 * span_cost
        assert worst[long_] < 1.05 * worst[short]
