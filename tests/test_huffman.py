"""Canonical Huffman tables: construction, coding, magnitude categories."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HuffmanError
from repro.jpeg import constants as C
from repro.jpeg.bitstream import (BitReader, BitWriter, HuffmanDecoder,
                                  HuffmanEncoder)
from repro.jpeg.huffman import (
    HuffmanSpec,
    encode_magnitude,
    extend,
    magnitude_category,
    spec_from_frequencies,
)

STD_SPECS = [
    HuffmanSpec(C.STD_DC_LUMINANCE_BITS, C.STD_DC_LUMINANCE_VALUES),
    HuffmanSpec(C.STD_DC_CHROMINANCE_BITS, C.STD_DC_CHROMINANCE_VALUES),
    HuffmanSpec(C.STD_AC_LUMINANCE_BITS, C.STD_AC_LUMINANCE_VALUES),
    HuffmanSpec(C.STD_AC_CHROMINANCE_BITS, C.STD_AC_CHROMINANCE_VALUES),
]


class TestHuffmanSpec:
    def test_bits_must_have_16_entries(self):
        with pytest.raises(HuffmanError):
            HuffmanSpec(bits=(1,), values=(0,))

    def test_bits_values_count_mismatch(self):
        bits = (2,) + (0,) * 15
        with pytest.raises(HuffmanError):
            HuffmanSpec(bits=bits, values=(1, 2, 3))

    def test_empty_table_rejected(self):
        with pytest.raises(HuffmanError):
            HuffmanSpec(bits=(0,) * 16, values=())

    def test_duplicate_symbols_rejected(self):
        bits = (2,) + (0,) * 15
        with pytest.raises(HuffmanError):
            HuffmanSpec(bits=bits, values=(7, 7))

    def test_overfull_code_rejected(self):
        # 3 codes of length 1 violate Kraft
        bits = (3,) + (0,) * 15
        with pytest.raises(HuffmanError):
            HuffmanSpec(bits=bits, values=(0, 1, 2))

    @pytest.mark.parametrize("spec", STD_SPECS)
    def test_standard_tables_are_valid(self, spec):
        assert sum(spec.bits) == len(spec.values)


class TestCanonicalCodes:
    def test_code_lengths_follow_bits(self):
        spec = STD_SPECS[0]
        enc = HuffmanEncoder(spec)
        lengths = sorted(enc.code_length(s) for s in enc.symbols)
        expected = sorted(
            length
            for length, count in enumerate(spec.bits, start=1)
            for _ in range(count)
        )
        assert lengths == expected

    def test_codes_are_prefix_free(self):
        for spec in STD_SPECS:
            enc = HuffmanEncoder(spec)
            codes = [enc.code_for(s) for s in enc.symbols]
            as_bits = [format(c, f"0{n}b") for c, n in codes]
            for i, a in enumerate(as_bits):
                for j, b in enumerate(as_bits):
                    if i != j:
                        assert not b.startswith(a)

    def test_unknown_symbol_raises(self):
        enc = HuffmanEncoder(STD_SPECS[0])
        with pytest.raises(HuffmanError):
            enc.code_for(0xEE)

    def test_dc_luminance_known_code(self):
        # Annex K: DC luma category 0 codes as 00 (2 bits)
        enc = HuffmanEncoder(STD_SPECS[0])
        assert enc.code_for(0) == (0b00, 2)


class TestDecode:
    @pytest.mark.parametrize("spec", STD_SPECS)
    def test_roundtrip_all_symbols(self, spec):
        enc = HuffmanEncoder(spec)
        dec = HuffmanDecoder(spec)
        w = BitWriter()
        symbols = list(enc.symbols) * 3
        for s in symbols:
            enc.encode(w, s)
        w.flush()
        r = BitReader(w.getvalue())
        assert [dec.decode(r) for _ in symbols] == symbols

    def test_long_codes_use_slow_path(self):
        spec = STD_SPECS[2]  # AC luminance has 16-bit codes
        enc = HuffmanEncoder(spec)
        long_syms = [s for s in enc.symbols if enc.code_length(s) > 8]
        assert long_syms, "AC luma table should have >8-bit codes"
        dec = HuffmanDecoder(spec)
        w = BitWriter()
        for s in long_syms:
            enc.encode(w, s)
        w.flush()
        r = BitReader(w.getvalue())
        assert [dec.decode(r) for _ in long_syms] == long_syms

    def test_garbage_raises(self):
        # a one-symbol table: only '0' is valid; all-ones input after it
        spec = HuffmanSpec(bits=(1,) + (0,) * 15, values=(5,))
        dec = HuffmanDecoder(spec)
        r = BitReader(b"\xff\x00\xff\x00\xff\x00")
        with pytest.raises(HuffmanError):
            dec.decode(r)


class TestSpecFromFrequencies:
    def test_rejects_empty(self):
        with pytest.raises(HuffmanError):
            spec_from_frequencies({})

    def test_rejects_nonpositive(self):
        with pytest.raises(HuffmanError):
            spec_from_frequencies({1: 0})

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(HuffmanError):
            spec_from_frequencies({300: 1})

    def test_single_symbol(self):
        spec = spec_from_frequencies({9: 100})
        assert spec.values == (9,)
        enc = HuffmanEncoder(spec)
        assert enc.code_length(9) >= 1

    def test_frequent_symbols_get_short_codes(self):
        freqs = {0: 1000, 1: 500, 2: 100, 3: 10, 4: 1}
        enc = HuffmanEncoder(spec_from_frequencies(freqs))
        assert enc.code_length(0) <= enc.code_length(4)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=1, max_value=10_000),
        min_size=1, max_size=80,
    ))
    def test_generated_specs_roundtrip(self, freqs):
        spec = spec_from_frequencies(freqs)
        assert set(spec.values) == set(freqs)
        assert max(
            (length for length, n in enumerate(spec.bits, 1) if n), default=0
        ) <= 16
        enc = HuffmanEncoder(spec)
        dec = HuffmanDecoder(spec)
        w = BitWriter()
        syms = sorted(freqs)
        for s in syms:
            enc.encode(w, s)
        w.flush()
        r = BitReader(w.getvalue())
        assert [dec.decode(r) for _ in syms] == syms


class TestMagnitude:
    @pytest.mark.parametrize("value,cat", [
        (0, 0), (1, 1), (-1, 1), (2, 2), (3, 2), (-3, 2), (4, 3),
        (255, 8), (-255, 8), (1023, 10), (-1024, 11), (2047, 11),
    ])
    def test_category(self, value, cat):
        assert magnitude_category(value) == cat

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-2047, max_value=2047))
    def test_extend_inverts_encode(self, value):
        cat, bits, nbits = encode_magnitude(value)
        assert extend(bits, cat) == value
        assert nbits == cat == magnitude_category(value)

    def test_zero_has_no_bits(self):
        assert encode_magnitude(0) == (0, 0, 0)
