"""Property tests: fast entropy engine == reference oracle, bit for bit.

The fused fast-path engine (repro.jpeg.fast_entropy) must be
indistinguishable from the historical per-symbol decoder on *every*
stream: identical coefficient planes on valid data across randomized
images x subsampling modes x restart intervals, and identical exception
types and messages on adversarial streams (long codes > 8 bits, ZRL
runs, truncated payloads, tampered restart markers, stray markers).
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import EntropyError, JpegError
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
    FUSED_BITS,
    ZRL_ADVANCE,
    FastEntropyDecoder,
    fused_tables,
)
from repro.jpeg.huffman import HuffmanEncoder, HuffmanSpec
from repro.data import synthetic_photo

CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "corpus"


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
        """What a fused entry *means* — bits consumed, zig-zag advance,
        EXTENDed value — for known prefixes, whatever its layout."""
        spec = HuffmanSpec(C.STD_AC_LUMINANCE_BITS, C.STD_AC_LUMINANCE_VALUES)
        tab = fused_tables(spec, "ac")
        assert len(tab.fused) == 1 << FUSED_BITS
        fused_hits = sum(1 for e in tab.fused if e)
        assert fused_hits > 128  # most of the probe space is one-shot

        def entry_for(prefix: str):
            """The entry every probe starting with *prefix* must hit."""
            pad = FUSED_BITS - len(prefix)
            first = int(prefix, 2) << pad
            entries = set(tab.fused[first:first + (1 << pad)])
            assert len(entries) == 1
            bits, advance, value = entries.pop()
            return bits, advance, value

        # (run 0, size 1) has the 2-bit code 00: with either magnitude
        # bit it is fused — 3 bits, one coefficient, EXTEND(m, 1)
        assert entry_for("000") == (3, 1, -1)
        assert entry_for("001") == (3, 1, 1)
        # (run 1, size 1), code 1100: one zero, then the coefficient
        assert entry_for("11001") == (5, 2, 1)
        # EOB (1010) ends any block from any k; nothing is stored
        bits, advance, value = entry_for("1010")
        assert (bits, value) == (4, 0) and 1 + advance >= 64
        assert advance == EOB_ADVANCE
        # (run 0, size 5), code 11010 + 5 magnitude bits = the full window
        assert entry_for("1101000000") == (10, 1, -31)
        # (run 0, size 6), code 1111000: magnitude falls outside the
        # window, so the probe does not resolve it
        assert tab.fused[int("1111000000", 2)] is None
        # ZRL is an 11-bit code in this table: never fused here, but a
        # table that gives it a short code fuses it as sixteen zeros
        short_zrl = fused_tables(
            HuffmanSpec((0, 2) + (0,) * 14, (C.EOB_SYMBOL, C.ZRL_SYMBOL)),
            "ac")
        assert short_zrl.fused[int("01", 2) << (FUSED_BITS - 2)] == (
            2, ZRL_ADVANCE, 0)
        # DC role: the value is the difference, the advance is the DC
        # coefficient itself; categories past 11 are left to the
        # fallback, which raises the reference error
        dc = fused_tables(
            HuffmanSpec(C.STD_DC_LUMINANCE_BITS, C.STD_DC_LUMINANCE_VALUES),
            "dc")
        assert dc.fused[0] == (2, 1, 0)               # category 0: code 00
        assert dc.fused[int("0110", 2) << 6] == (5, 1, -3)  # category 2
        bad_dc = fused_tables(HuffmanSpec((0, 2) + (0,) * 14, (0, 12)), "dc")
        assert bad_dc.fused[int("01", 2) << (FUSED_BITS - 2)] is None


def unique_spec(i: int) -> HuffmanSpec:
    """A valid two-symbol table no other index shares."""
    return HuffmanSpec((2,) + (0,) * 15, (0x01 + (i % 10), 0x11 + i))


class TestTableCache:
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
