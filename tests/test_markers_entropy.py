"""Marker parsing/serialization and scan entropy coding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EntropyError, JpegFormatError, JpegUnsupportedError
from repro.jpeg import EncoderSettings, encode_jpeg, parse_jpeg
from repro.jpeg import constants as C
from repro.jpeg.blocks import ImageGeometry
from repro.jpeg.entropy import (
    CoefficientBuffers,
    ComponentTables,
    EntropyDecoder,
    EntropyEncoder,
)
from repro.jpeg.huffman import HuffmanSpec
from repro.jpeg.encoder import build_dht, build_dqt, build_sos
from repro.jpeg.markers import (
    _find_scan_end,
    parse_dht_payload,
    parse_sof0_payload,
    parse_sos_payload,
)
from repro.data import synthetic_photo


def std_tables() -> list[ComponentTables]:
    dc_l = HuffmanSpec(C.STD_DC_LUMINANCE_BITS, C.STD_DC_LUMINANCE_VALUES)
    ac_l = HuffmanSpec(C.STD_AC_LUMINANCE_BITS, C.STD_AC_LUMINANCE_VALUES)
    dc_c = HuffmanSpec(C.STD_DC_CHROMINANCE_BITS, C.STD_DC_CHROMINANCE_VALUES)
    ac_c = HuffmanSpec(C.STD_AC_CHROMINANCE_BITS, C.STD_AC_CHROMINANCE_VALUES)
    return [ComponentTables(dc_l, ac_l), ComponentTables(dc_c, ac_c),
            ComponentTables(dc_c, ac_c)]


def random_coefficients(geo: ImageGeometry, seed: int,
                        spread: int = 60) -> CoefficientBuffers:
    rng = np.random.default_rng(seed)
    coeffs = CoefficientBuffers.empty(geo)
    for plane in coeffs.planes:
        # sparse, JPEG-like blocks: a DC plus a few low-frequency ACs
        plane[:, 0, 0] = rng.integers(-spread, spread, plane.shape[0])
        mask = rng.random(plane.shape) < 0.08
        vals = rng.integers(-30, 31, plane.shape).astype(np.int16)
        plane += (mask * vals).astype(np.int16)
    return coeffs


class TestMarkerParsing:
    def test_parse_roundtrip_via_encoder(self, small_rgb):
        data = encode_jpeg(small_rgb, EncoderSettings(quality=80,
                                                      subsampling="4:2:2"))
        info = parse_jpeg(data)
        assert (info.width, info.height) == (144, 96)
        assert info.subsampling_mode == "4:2:2"
        assert info.file_size == len(data)
        assert len(info.entropy_data) > 100
        assert set(info.quant_tables) == {0, 1}
        assert set(info.dc_tables) == {0, 1}
        assert 0 < info.file_density < 3

    def test_missing_soi(self):
        with pytest.raises(JpegFormatError):
            parse_jpeg(b"\x00\x00\x00\x00")

    def test_truncated_file(self, jpeg_422):
        with pytest.raises(JpegFormatError):
            parse_jpeg(jpeg_422[:40])

    def test_arithmetic_coding_rejected(self, jpeg_422):
        # flip the SOF0 marker byte to SOF9 (arithmetic sequential)
        idx = jpeg_422.find(bytes([0xFF, C.SOF0]))
        corrupted = bytearray(jpeg_422)
        corrupted[idx + 1] = C.SOF9
        with pytest.raises(JpegUnsupportedError, match="arithmetic coding"):
            parse_jpeg(bytes(corrupted))

    def test_comment_preserved(self, small_rgb):
        data = encode_jpeg(small_rgb, EncoderSettings(comment=b"hello paper"))
        info = parse_jpeg(data)
        assert info.comments == [b"hello paper"]

    def test_restart_interval_parsed(self, small_rgb):
        data = encode_jpeg(small_rgb, EncoderSettings(restart_interval=4))
        assert parse_jpeg(data).restart_interval == 4

    def test_sof0_validations(self):
        with pytest.raises(JpegFormatError):
            parse_sof0_payload(b"\x08")
        # 12-bit precision
        import struct
        payload = struct.pack(">BHHB", 12, 8, 8, 1) + bytes([1, 0x11, 0])
        with pytest.raises(JpegUnsupportedError):
            parse_sof0_payload(payload)
        payload = struct.pack(">BHHB", 8, 0, 8, 1) + bytes([1, 0x11, 0])
        with pytest.raises(JpegFormatError):
            parse_sof0_payload(payload)

    def test_sos_non_baseline_rejected(self):
        payload = bytes([1, 1, 0x00, 1, 63, 0])  # Ss=1: spectral selection
        with pytest.raises(JpegUnsupportedError):
            parse_sos_payload(payload)

    def test_dht_roundtrip(self):
        spec = HuffmanSpec(C.STD_DC_LUMINANCE_BITS, C.STD_DC_LUMINANCE_VALUES)
        seg = build_dht([(0, 1, spec)])
        assert parse_dht_payload(seg[4:]) == [(0, 1, spec)]

    def test_dht_truncated(self):
        with pytest.raises(JpegFormatError):
            parse_dht_payload(b"\x00\x01")


def find_scan_end_bytewise(data: bytes, start: int,
                           tolerant: bool = False) -> int:
    """The first scan-end walk ``markers._find_scan_end`` had, one
    Python iteration per byte, kept verbatim as an oracle for the regex
    search."""
    pos = start
    n = len(data)
    while pos < n - 1:
        if data[pos] == 0xFF:
            nxt = data[pos + 1]
            if nxt == 0x00 or C.is_rst(nxt):
                pos += 2
                continue
            return pos
        pos += 1
    if tolerant:
        return n
    raise JpegFormatError("entropy-coded data not terminated by a marker")


def find_scan_end_find_loop(data: bytes, start: int,
                            tolerant: bool = False) -> int:
    """The ``bytes.find`` loop that replaced the per-byte walk, and was
    in turn replaced by the one regex search, kept verbatim as the
    oracle for that search."""
    n = len(data)
    # One C-level search per 0xFF instead of one Python iteration per
    # byte: only the byte after each 0xFF is classified here.
    pos = data.find(b"\xff", start)
    while 0 <= pos < n - 1:
        nxt = data[pos + 1]
        if nxt != 0x00 and not C.is_rst(nxt):
            return pos
        pos = data.find(b"\xff", pos + 2)
    if tolerant:
        return n
    raise JpegFormatError("entropy-coded data not terminated by a marker")


#: What a scan is made of, as far as its end is concerned: plain bytes,
#: stuffed 0xFF, the eight RSTn, 0xFF fill, and markers that end it.
_SCAN_PIECES = st.one_of(
    st.binary(min_size=0, max_size=6),
    st.just(b"\xff\x00"),
    st.sampled_from([bytes([0xFF, 0xD0 + i]) for i in range(8)]),
    st.just(b"\xff\xff"),
    st.sampled_from([b"\xff\xd9", b"\xff\xc4", b"\xff\xda", b"\xff\x01",
                     b"\xff\xcf", b"\xff\xd8"]),
    st.just(b"\xff"),
)

#: Byte strings where most bytes are 0xFF or one of its neighbours in a
#: scan: every stuffing, RSTn, fill and marker boundary, back to back.
_FF_DENSE = st.lists(
    st.sampled_from([0xFF, 0xFF, 0xFF, 0x00, 0xD0, 0xD7, 0xD8, 0xD9,
                     0xCF, 0x01, 0x7F]),
    max_size=40).map(bytes)


def _expected_end(data: bytes, start: int, tolerant: bool):
    """Both oracles' answer: an index, or the error message."""
    answers = []
    for oracle in (find_scan_end_bytewise, find_scan_end_find_loop):
        try:
            answers.append(oracle(data, start, tolerant))
        except JpegFormatError as exc:
            answers.append(str(exc))
    assert answers[0] == answers[1]
    return answers[0]


def _actual_end(data, start: int, tolerant: bool):
    try:
        return _find_scan_end(data, start, tolerant=tolerant)
    except JpegFormatError as exc:
        return str(exc)


class TestFindScanEnd:
    @settings(max_examples=400, deadline=None)
    @given(pieces=st.lists(_SCAN_PIECES, max_size=12),
           lone_ff=st.booleans(), start=st.integers(0, 80),
           tolerant=st.booleans(), as_bytearray=st.booleans())
    def test_equals_the_bytewise_walk(self, pieces, lone_ff, start,
                                      tolerant, as_bytearray):
        data = b"".join(pieces) + (b"\xff" if lone_ff else b"")
        start = min(start, len(data) + 2)
        subject = bytearray(data) if as_bytearray else data
        assert _actual_end(subject, start, tolerant) == \
            _expected_end(data, start, tolerant)

    @settings(max_examples=400, deadline=None)
    @given(data=_FF_DENSE, start=st.integers(0, 44),
           tolerant=st.booleans())
    def test_equals_the_find_loop_on_ff_dense_bytes(self, data, start,
                                                    tolerant):
        assert _actual_end(data, start, tolerant) == \
            _expected_end(data, start, tolerant)

    @pytest.mark.parametrize("data, start, end", [
        (b"\x12\xff\x00\x34\xff\xd9", 0, 4),        # stuffing is data
        (b"\xff\xd0\xff\xd7\xff\xd8", 0, 4),        # RST0/RST7 in, SOI out
        (b"\x00\xff\xff\xd9", 0, 1),                 # FF FF: fill ends it
        (b"\xff\x00\xff\xd9", 1, 2),                 # start inside a pair
        (b"\xff\xd9", 0, 0),
    ])
    def test_known_ends(self, data, start, end):
        assert _find_scan_end(data, start) == end
        assert _find_scan_end(data, start, tolerant=True) == end

    @pytest.mark.parametrize("data", [b"", b"\xff", b"\x01\x02\xff",
                                      b"\xff\x00\xff\xd3", b"\xff\x00\xff"])
    def test_unterminated(self, data):
        with pytest.raises(JpegFormatError, match="not terminated"):
            _find_scan_end(data, 0)
        assert _find_scan_end(data, 0, tolerant=True) == len(data)


class TestEntropyRoundtrip:
    @pytest.mark.parametrize("mode", ["4:4:4", "4:2:2", "4:2:0"])
    def test_encode_decode_identity(self, mode):
        geo = ImageGeometry(48, 40, mode)
        coeffs = random_coefficients(geo, seed=9)
        enc = EntropyEncoder(geo, std_tables())
        data = enc.encode(coeffs)
        dec = EntropyDecoder(geo, std_tables())
        out = dec.decode_all(data)
        for a, b in zip(coeffs.planes, out.planes):
            assert (a == b).all()

    def test_restart_interval_roundtrip(self):
        geo = ImageGeometry(64, 48, "4:2:2")
        coeffs = random_coefficients(geo, seed=10)
        enc = EntropyEncoder(geo, std_tables(), restart_interval=3)
        data = enc.encode(coeffs)
        assert b"\xff\xd0" in data  # RST0 present
        dec = EntropyDecoder(geo, std_tables(), restart_interval=3)
        out = dec.decode_all(data)
        for a, b in zip(coeffs.planes, out.planes):
            assert (a == b).all()

    def test_wrong_restart_sequence_detected(self):
        geo = ImageGeometry(64, 48, "4:2:2")
        coeffs = random_coefficients(geo, seed=11)
        data = EntropyEncoder(geo, std_tables(), restart_interval=2).encode(coeffs)
        # corrupt the first restart marker's index
        mutated = bytearray(data)
        idx = mutated.find(b"\xff\xd0")
        mutated[idx + 1] = 0xD5
        dec = EntropyDecoder(geo, std_tables(), restart_interval=2)
        with pytest.raises(EntropyError):
            dec.decode_all(bytes(mutated))

    def test_incremental_equals_full(self):
        geo = ImageGeometry(48, 64, "4:2:2")
        coeffs = random_coefficients(geo, seed=12)
        data = EntropyEncoder(geo, std_tables()).encode(coeffs)
        full = EntropyDecoder(geo, std_tables())
        full.decode_all(data)
        step = EntropyDecoder(geo, std_tables())
        step.start(data)
        while not step.finished:
            step.decode_mcu_rows(2)
        for a, b in zip(full.coefficients.planes, step.coefficients.planes):
            assert (a == b).all()

    def test_row_byte_offsets_monotone(self):
        geo = ImageGeometry(48, 64, "4:2:2")
        coeffs = random_coefficients(geo, seed=13)
        data = EntropyEncoder(geo, std_tables()).encode(coeffs)
        dec = EntropyDecoder(geo, std_tables())
        dec.decode_all(data)
        offs = dec.row_byte_offsets
        assert len(offs) == geo.mcu_rows + 1
        assert offs[0] == 0
        assert all(b >= a for a, b in zip(offs, offs[1:]))
        assert offs[-1] <= len(data)

    def test_decode_without_start_raises(self):
        geo = ImageGeometry(16, 16, "4:4:4")
        dec = EntropyDecoder(geo, std_tables())
        with pytest.raises(EntropyError):
            dec.decode_mcu_rows(1)

    def test_table_count_mismatch(self):
        geo = ImageGeometry(16, 16, "4:4:4")
        with pytest.raises(EntropyError):
            EntropyDecoder(geo, std_tables()[:2])

    def test_truncated_scan_raises(self):
        geo = ImageGeometry(48, 48, "4:2:2")
        coeffs = random_coefficients(geo, seed=14)
        data = EntropyEncoder(geo, std_tables()).encode(coeffs)
        dec = EntropyDecoder(geo, std_tables())
        dec.start(data[: len(data) // 4])
        with pytest.raises(Exception):  # Bitstream/Huffman/EntropyError
            dec.decode_mcu_rows(geo.mcu_rows)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_roundtrip_property_random_blocks(self, seed):
        geo = ImageGeometry(32, 24, "4:4:4")
        coeffs = random_coefficients(geo, seed=seed, spread=200)
        data = EntropyEncoder(geo, std_tables()).encode(coeffs)
        out = EntropyDecoder(geo, std_tables()).decode_all(data)
        for a, b in zip(coeffs.planes, out.planes):
            assert (a == b).all()


class TestCoefficientBuffers:
    def test_rows_slice_is_view(self):
        geo = ImageGeometry(32, 32, "4:2:2")
        buf = CoefficientBuffers.empty(geo)
        sub = buf.rows_slice(1, 3)
        sub.planes[0][:] = 7
        assert (buf.planes[0][geo.components[0].blocks_wide:] == 7).any()

    def test_slice_shapes(self):
        geo = ImageGeometry(64, 48, "4:2:2")  # 4 mcus/row, 6 rows
        buf = CoefficientBuffers.empty(geo)
        sub = buf.rows_slice(2, 5)
        y, cb, cr = sub.planes
        assert y.shape[0] == 3 * geo.components[0].blocks_wide
        assert cb.shape[0] == 3 * geo.components[1].blocks_wide
