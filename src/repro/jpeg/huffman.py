"""Canonical Huffman coding for baseline JPEG.

A JPEG Huffman table is transmitted as a (BITS, HUFFVAL) pair: BITS[i]
counts the codes of length i+1, HUFFVAL lists symbol values by increasing
code length.  Codes are assigned canonically (numerically increasing
within a length, doubling between lengths).

This module holds the table form, the Annex-K table builder and the
magnitude coding both entropy engines share.  The code words
themselves are read and written bit by bit by
:class:`~repro.jpeg.bitstream.HuffmanDecoder` and
:class:`~repro.jpeg.bitstream.HuffmanEncoder`, beside the bit reader
and writer they drive: the fast decode path never loads them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import HuffmanError

#: Number of bits resolved by the first-level decode table.
LOOKUP_BITS = 8

#: Maximum JPEG Huffman code length.
MAX_CODE_LENGTH = 16


class _Table(NamedTuple):
    bits: tuple[int, ...]       # 16 counts, bits[i] = #codes of length i+1
    values: tuple[int, ...]     # symbols in canonical order


class HuffmanSpec(_Table):
    """Transmitted form of a Huffman table: (BITS, HUFFVAL), checked
    on construction; equal and hashed by value (it keys the fused
    decode-table cache)."""

    __slots__ = ()

    def __new__(cls, bits: tuple[int, ...],
                values: tuple[int, ...]) -> "HuffmanSpec":
        if len(bits) != MAX_CODE_LENGTH:
            raise HuffmanError("BITS must have exactly 16 entries")
        if sum(bits) != len(values):
            raise HuffmanError(
                f"BITS sums to {sum(bits)} but {len(values)} "
                "values supplied"
            )
        if sum(bits) == 0:
            raise HuffmanError("empty Huffman table")
        if len(set(values)) != len(values):
            raise HuffmanError("duplicate symbols in Huffman table")
        # Kraft inequality check: the canonical assignment must not overflow.
        code = 0
        for length in range(1, MAX_CODE_LENGTH + 1):
            code += bits[length - 1]
            if code > (1 << length):
                raise HuffmanError("BITS describes an over-full code")
            code <<= 1
        return super().__new__(cls, bits, values)


def spec_from_frequencies(freqs: dict[int, int]) -> HuffmanSpec:
    """Build a JPEG-legal Huffman spec from symbol frequencies.

    Follows the Annex-K procedure: build an optimal code, then limit code
    lengths to 16 bits by moving symbols up the tree.  JPEG additionally
    reserves the all-ones code, which the standard procedure guarantees by
    adding a pseudo-symbol with frequency 1.
    """
    if not freqs:
        raise HuffmanError("cannot build a table from no symbols")
    if any(f <= 0 for f in freqs.values()):
        raise HuffmanError("frequencies must be positive")

    # Work arrays per Annex K.2: 257 slots, 256 is the reserved pseudo-symbol.
    freq = np.zeros(257, dtype=np.int64)
    for sym, f in freqs.items():
        if not 0 <= sym <= 255:
            raise HuffmanError(f"symbol {sym} out of byte range")
        freq[sym] = f
    freq[256] = 1  # reserve the all-ones code

    codesize = np.zeros(257, dtype=np.int64)
    others = np.full(257, -1, dtype=np.int64)

    while True:
        nz = np.nonzero(freq)[0]
        if len(nz) == 1:
            break
        # find the two least-frequent symbols (ties -> larger index first,
        # matching libjpeg's "smallest value of code size" bias)
        order = nz[np.lexsort((-nz, freq[nz]))]
        c1, c2 = int(order[0]), int(order[1])
        freq[c1] += freq[c2]
        freq[c2] = 0
        codesize[c1] += 1
        while others[c1] >= 0:
            c1 = int(others[c1])
            codesize[c1] += 1
        others[c1] = c2
        codesize[c2] += 1
        while others[c2] >= 0:
            c2 = int(others[c2])
            codesize[c2] += 1

    bits = np.zeros(33, dtype=np.int64)
    for size in codesize[codesize > 0]:
        bits[min(int(size), 32)] += 1

    # Limit code lengths to 16 bits (Annex K.3 adjustment).
    for i in range(32, 16, -1):
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1

    # Remove the reserved pseudo-symbol from the longest non-empty length.
    for i in range(16, 0, -1):
        if bits[i] > 0:
            bits[i] -= 1
            break

    # Sort symbols by (code size, symbol value); drop the pseudo-symbol.
    syms = [s for s in range(256) if codesize[s] > 0]
    syms.sort(key=lambda s: (codesize[s], s))
    return HuffmanSpec(bits=tuple(int(b) for b in bits[1:17]), values=tuple(syms))


# ---------------------------------------------------------------------------
# Magnitude ("EXTEND") coding of DC differences and AC coefficients.
# ---------------------------------------------------------------------------

def magnitude_category(value: int) -> int:
    """Return the JPEG size category SSSS of *value* (0 for 0)."""
    return int(abs(value)).bit_length()


def encode_magnitude(value: int) -> tuple[int, int, int]:
    """Return (category, bits, nbits) for coding *value*'s magnitude.

    Negative values are stored as the one's complement of their absolute
    value over *category* bits, per the EXTEND procedure of the standard.
    """
    cat = magnitude_category(value)
    if cat == 0:
        return 0, 0, 0
    if value < 0:
        bits = value + (1 << cat) - 1
    else:
        bits = value
    return cat, bits, cat


def extend(bits: int, cat: int) -> int:
    """Inverse of :func:`encode_magnitude` (the EXTEND procedure)."""
    if cat == 0:
        return 0
    if bits < (1 << (cat - 1)):
        return bits - (1 << cat) + 1
    return bits

