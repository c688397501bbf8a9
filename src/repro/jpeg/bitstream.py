"""Bit-level I/O for JPEG entropy-coded segments.

JPEG writes entropy-coded data MSB-first and *byte-stuffs* the output: a
literal 0xFF data byte is followed by a 0x00 so decoders can distinguish
data from markers.  :class:`BitWriter` applies stuffing, :class:`BitReader`
removes it and stops cleanly at a marker boundary.

:class:`BitReader` keeps a small Python-int bit buffer and destuffs
incrementally — simple and exactly specified, which is why it anchors
the *reference* entropy engine.  The default decode path instead rides
:mod:`repro.jpeg.fast_entropy`, which destuffs once up front and reads
precomputed bit windows; this module remains the correctness oracle
(and the writer used by the encoder).

:class:`HuffmanEncoder` / :class:`HuffmanDecoder` turn a
:class:`~repro.jpeg.huffman.HuffmanSpec` into code words written to a
:class:`BitWriter` and read from a :class:`BitReader`.  Decoding uses
the classic two-level strategy libjpeg uses: a dense lookup table
indexed by the next ``LOOKUP_BITS`` bits resolves short codes in one
step; longer codes fall back to the MINCODE/MAXCODE walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import BitstreamError, HuffmanError
from .huffman import LOOKUP_BITS, MAX_CODE_LENGTH, HuffmanSpec


class BitWriter:
    """Accumulates bits MSB-first into a byte-stuffed JPEG bitstream."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0          # bit accumulator, left-aligned within _nbits
        self._nbits = 0        # number of valid bits in _acc
        self._marker_bytes = 0  # raw markers emitted via emit_marker

    def write_bits(self, value: int, nbits: int) -> None:
        """Append the *nbits* low-order bits of *value*, MSB first."""
        if nbits < 0 or nbits > 32:
            raise BitstreamError(f"cannot write {nbits} bits at once")
        if nbits == 0:
            return
        if value < 0 or value >= (1 << nbits):
            raise BitstreamError(
                f"value {value} does not fit in {nbits} bits"
            )
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            byte = (self._acc >> self._nbits) & 0xFF
            self._bytes.append(byte)
            if byte == 0xFF:
                self._bytes.append(0x00)  # byte stuffing
        self._acc &= (1 << self._nbits) - 1

    def write_pairs(self, pairs) -> None:
        """Append an iterable of ``(value, nbits)`` pairs in one call.

        Fast path for the vectorized entropy encoder: the accumulator
        and the stuffing loop run once per batch instead of paying a
        method call (and argument validation) per symbol.  The emitted
        bytes are identical to repeated :meth:`write_bits` calls.
        """
        acc = self._acc
        nbits = self._nbits
        out = self._bytes
        for value, n in pairs:
            acc = (acc << n) | value
            nbits += n
            while nbits >= 8:
                nbits -= 8
                byte = (acc >> nbits) & 0xFF
                out.append(byte)
                if byte == 0xFF:
                    out.append(0x00)  # byte stuffing
        self._acc = acc & ((1 << nbits) - 1)
        self._nbits = nbits

    def flush(self) -> None:
        """Pad the final partial byte with 1-bits (per the standard)."""
        if self._nbits:
            pad = 8 - self._nbits
            self.write_bits((1 << pad) - 1, pad)

    def emit_marker(self, marker: int) -> None:
        """Flush to a byte boundary, then append a raw ``FF xx`` marker.

        Used by the entropy encoder to interleave RSTn markers without
        allocating a fresh writer per restart interval.  Marker bytes
        are not entropy payload and are excluded from :attr:`bit_length`.
        """
        if not 0xD0 <= marker <= 0xD7:
            raise BitstreamError(f"marker 0x{marker:02X} is not RSTn")
        self.flush()
        self._bytes.append(0xFF)
        self._bytes.append(marker)
        self._marker_bytes += 1

    def getvalue(self) -> bytes:
        """Return the stuffed bitstream written so far (without flushing)."""
        return bytes(self._bytes)

    @property
    def bit_length(self) -> int:
        """Total number of bits written (excluding stuffed 0x00 bytes
        and raw RSTn markers)."""
        stuffed = self._bytes.count(0xFF)
        return (len(self._bytes) - stuffed - self._marker_bytes) * 8 + self._nbits


class BitReader:
    """Reads bits MSB-first from a byte-stuffed entropy-coded segment.

    The reader operates on a ``bytes``/``memoryview``/ndarray-of-uint8 and
    treats any 0xFF byte followed by something other than 0x00 as a marker
    boundary: reading past it raises :class:`BitstreamError` unless it is
    a restart marker the caller explicitly consumes via
    :meth:`skip_to_marker`.
    """

    def __init__(self, data: bytes | bytearray | memoryview | np.ndarray) -> None:
        if isinstance(data, np.ndarray):
            if data.dtype != np.uint8:
                raise BitstreamError("ndarray bitstream must be uint8")
            data = data.tobytes()
        self._data = bytes(data)
        self._pos = 0          # next byte index
        self._acc = 0          # bit accumulator
        self._nbits = 0        # bits available in accumulator
        self._at_marker = False

    # -- internal -----------------------------------------------------

    def _fill(self, need: int) -> None:
        """Pull bytes into the accumulator until *need* bits available."""
        while self._nbits < need:
            if self._pos >= len(self._data):
                raise BitstreamError("bitstream exhausted")
            byte = self._data[self._pos]
            if byte == 0xFF:
                nxt = self._data[self._pos + 1] if self._pos + 1 < len(self._data) else None
                if nxt == 0x00:
                    self._pos += 2  # stuffed byte: 0xFF is data
                elif nxt is None:
                    raise BitstreamError("truncated stream after 0xFF")
                else:
                    # A real marker. Per libjpeg behaviour, feed 0 bits so
                    # a decoder that over-reads slightly still terminates;
                    # record the condition for callers that care.
                    self._at_marker = True
                    self._acc = self._acc << 8
                    self._nbits += 8
                    continue
            else:
                self._pos += 1
            self._acc = (self._acc << 8) | byte
            self._nbits += 8

    # -- public -------------------------------------------------------

    def read_bits(self, nbits: int) -> int:
        """Read and return *nbits* bits MSB-first as a non-negative int."""
        if nbits < 0 or nbits > 32:
            raise BitstreamError(f"cannot read {nbits} bits at once")
        if nbits == 0:
            return 0
        self._fill(nbits)
        self._nbits -= nbits
        value = (self._acc >> self._nbits) & ((1 << nbits) - 1)
        self._acc &= (1 << self._nbits) - 1
        return value

    def peek_bits(self, nbits: int) -> int:
        """Return the next *nbits* bits without consuming them.

        Short streams are zero-padded on the right, matching the behaviour
        required for table-driven Huffman decoding at end of stream.
        """
        try:
            self._fill(nbits)
        except BitstreamError:
            # zero-pad: decoder will consume only valid prefix bits
            self._acc <<= max(0, nbits - self._nbits)
            self._nbits = max(self._nbits, nbits)
        return (self._acc >> (self._nbits - nbits)) & ((1 << nbits) - 1)

    def skip_bits(self, nbits: int) -> None:
        """Discard *nbits* bits (they must already be buffered by peek)."""
        if nbits > self._nbits:
            raise BitstreamError("skip beyond buffered bits")
        self._nbits -= nbits
        self._acc &= (1 << self._nbits) - 1

    @property
    def hit_marker(self) -> bool:
        """True once the reader has zero-fed past a marker boundary."""
        return self._at_marker

    @property
    def byte_position(self) -> int:
        """Index of the next unread byte in the underlying buffer
        (not counting bits still in the accumulator)."""
        return self._pos

    def find_restart_marker(self) -> int:
        """Byte-align, then consume an RSTn marker and return ``n``.

        Raises :class:`BitstreamError` if the next marker is not RSTn.
        """
        # Drop buffered bits: restart markers are byte-aligned in the raw
        # stream, and everything in the accumulator before them is padding.
        self._acc = 0
        self._nbits = 0
        self._at_marker = False
        data, n = self._data, len(self._data)
        pos = self._pos
        while pos + 1 < n:
            if data[pos] == 0xFF and data[pos + 1] != 0x00:
                marker = data[pos + 1]
                if 0xD0 <= marker <= 0xD7:
                    self._pos = pos + 2
                    return marker - 0xD0
                raise BitstreamError(
                    f"expected restart marker, found 0xFF{marker:02X}"
                )
            pos += 1
        raise BitstreamError("no restart marker before end of stream")


@dataclass
class HuffmanEncoder:
    """Symbol -> (code, length) mapping derived from a spec."""

    spec: HuffmanSpec
    _codes: dict[int, tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._codes = {}
        code = 0
        k = 0
        for length in range(1, MAX_CODE_LENGTH + 1):
            for _ in range(self.spec.bits[length - 1]):
                self._codes[self.spec.values[k]] = (code, length)
                code += 1
                k += 1
            code <<= 1

    def encode(self, writer: BitWriter, symbol: int) -> None:
        """Write the code for *symbol* to *writer*."""
        try:
            code, length = self._codes[symbol]
        except KeyError:
            raise HuffmanError(f"symbol {symbol:#x} not in table") from None
        writer.write_bits(code, length)

    def code_for(self, symbol: int) -> tuple[int, int]:
        """Return (code, length) for *symbol* (for tests/inspection)."""
        if symbol not in self._codes:
            raise HuffmanError(f"symbol {symbol:#x} not in table")
        return self._codes[symbol]

    def code_length(self, symbol: int) -> int:
        """Length in bits of the code for *symbol*."""
        return self.code_for(symbol)[1]

    def code_arrays(self) -> tuple[list[int], list[int]]:
        """Dense symbol-indexed ``(codes, lengths)`` lists (256 entries).

        A zero length marks a symbol absent from the table.  This is the
        precomputed form the vectorized :class:`~repro.jpeg.entropy.
        EntropyEncoder` indexes in its hot loop instead of paying a dict
        lookup and a method call per symbol.
        """
        codes = [0] * 256
        lengths = [0] * 256
        for sym, (code, length) in self._codes.items():
            codes[sym] = code
            lengths[sym] = length
        return codes, lengths

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self._codes)


class HuffmanDecoder:
    """Table-driven decoder for one Huffman table.

    ``lookup[p]`` for an 8-bit prefix p packs (length << 8 | symbol) when a
    complete code of length <= 8 starts with p, else 0.  Longer codes use
    MINCODE/MAXCODE/VALPTR arrays (F.2.2.3 of the standard).
    """

    def __init__(self, spec: HuffmanSpec) -> None:
        self.spec = spec
        enc = HuffmanEncoder(spec)

        self._mincode = np.zeros(MAX_CODE_LENGTH + 1, dtype=np.int64)
        self._maxcode = np.full(MAX_CODE_LENGTH + 1, -1, dtype=np.int64)
        self._valptr = np.zeros(MAX_CODE_LENGTH + 1, dtype=np.int64)

        code = 0
        k = 0
        for length in range(1, MAX_CODE_LENGTH + 1):
            count = spec.bits[length - 1]
            if count:
                self._valptr[length] = k
                self._mincode[length] = code
                code += count
                k += count
                self._maxcode[length] = code - 1
            code <<= 1

        self._lookup = np.zeros(1 << LOOKUP_BITS, dtype=np.int32)
        for symbol in enc.symbols:
            c, length = enc.code_for(symbol)
            if length <= LOOKUP_BITS:
                shift = LOOKUP_BITS - length
                base = c << shift
                packed = (length << 8) | symbol
                self._lookup[base: base + (1 << shift)] = packed

    def decode(self, reader: BitReader) -> int:
        """Decode and return the next symbol from *reader*."""
        prefix = reader.peek_bits(LOOKUP_BITS)
        packed = int(self._lookup[prefix])
        if packed:
            reader.skip_bits(packed >> 8)
            return packed & 0xFF
        # slow path: walk code lengths > LOOKUP_BITS
        code = reader.read_bits(LOOKUP_BITS)
        for length in range(LOOKUP_BITS + 1, MAX_CODE_LENGTH + 1):
            code = (code << 1) | reader.read_bits(1)
            if code <= self._maxcode[length]:
                idx = self._valptr[length] + code - self._mincode[length]
                return int(self.spec.values[int(idx)])
        raise HuffmanError("undecodable Huffman code")
