"""Fused fast-path entropy engine — the default Huffman decode path.

The paper's whole pipeline is gated by sequential Huffman decoding
(Section 1), and in this reproduction that stage was the slowest code in
the tree: :class:`~repro.jpeg.bitstream.BitReader` destuffed one byte at
a time, every symbol paid a method call plus three bitstream calls, and
the block loop dispatched per coefficient.  This module applies the
standard libjpeg/GPU-decoder remedy in pure Python:

1. **Destuffing prescan** (:func:`destuff_scan`): one vectorized pass
   converts the byte-stuffed scan into a contiguous marker-free payload
   plus a restart-marker offset index, so the inner loop never tests for
   ``0xFF``.
2. **Word-buffered bit reader**: a Python-int accumulator refilled up
   to eight bytes at a time (``jdhuff`` style) replaces per-byte
   ``_fill`` traffic; the hot loop touches the buffer once per symbol.
3. **Fused decode tables** (:class:`FusedDecodeTables`): the 8-bit
   first-level lookup is extended so that one probe yields
   ``(total_bits_consumed, run, EXTENDed value)`` — symbol decode,
   magnitude read and EXTEND collapsed into a single table hit.  Codes
   longer than 8 bits fall back to the MINCODE/MAXCODE walk over the
   already-buffered bits.
4. **Flattened hot loop**: :meth:`FastEntropyDecoder.decode_mcu_rows`
   binds every table to a local and fills the coefficient planes without
   per-block method dispatch.

:class:`FastEntropyDecoder` is bit-exact with
:class:`~repro.jpeg.entropy.EntropyDecoder` (the retained ``reference``
oracle): identical coefficient planes on valid streams, and identical
exception types *and messages* on adversarial ones (truncated payloads,
bad restart sequences, undecodable codes) — property-tested in
``tests/test_entropy_engine.py``.  Select an engine by name through
:func:`create_entropy_decoder` (the ``entropy_engine=`` knob on
:class:`~repro.jpeg.decoder.DecodeOptions`,
:class:`~repro.core.decoder.HeterogeneousDecoder` and the CLI).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..errors import BitstreamError, EntropyError, HuffmanError
from .blocks import ImageGeometry
from .constants import ZIGZAG_ORDER
from .entropy import CoefficientBuffers, ComponentTables, EntropyDecoder
from .huffman import (
    LOOKUP_BITS,
    MAX_CODE_LENGTH,
    HuffmanEncoder,
    HuffmanSpec,
    extend,
)

#: Sentinel for a scan that ends in a lone 0xFF (truncated stuffing pair).
TRUNCATED_FF = -1

#: Zig-zag order as a plain tuple — tuple indexing is the fastest
#: per-coefficient lookup available to the hot loop.
_ZIGZAG = tuple(int(i) for i in ZIGZAG_ORDER)

#: Width of the fused single-probe window.  Wider than the 8-bit
#: first-level ``lookup`` so that code + magnitude pairs up to 10 bits
#: resolve in one table hit.
FUSED_BITS = 10

#: The hot loop tops up the accumulator whenever fewer than this many
#: bits are buffered; 32 covers the worst fast-path consumption of one
#: symbol (16-bit code + 15-bit AC magnitude = 31 bits).
_REFILL_THRESHOLD = 32


# ---------------------------------------------------------------------------
# Destuffing prescan.
# ---------------------------------------------------------------------------

@dataclass
class ScanPrescan:
    """One-pass digest of a byte-stuffed entropy-coded segment.

    ``payload`` holds the scan bytes with stuffing zeros and marker pairs
    removed — a contiguous buffer the bit reader can consume without any
    0xFF tests.  The marker index records every RSTn boundary (payload
    offset, marker byte, original-stream offset), and the piece tables
    map payload offsets back to original-stream offsets (for the
    row-byte-offset bookkeeping that drives Eq. 16/17).
    """

    payload: bytes
    marker_payload_offsets: list[int] = field(default_factory=list)
    marker_values: list[int] = field(default_factory=list)
    marker_orig_offsets: list[int] = field(default_factory=list)
    #: First non-RST event: a marker byte, TRUNCATED_FF, or None (clean
    #: end of data).  Nothing past it is ever decodable.
    terminator: int | None = None
    piece_payload_starts: list[int] = field(default_factory=lambda: [0])
    piece_orig_starts: list[int] = field(default_factory=lambda: [0])

    def orig_offset(self, payload_pos: int) -> int:
        """Original-stream byte offset equivalent to *payload_pos*."""
        j = bisect_right(self.piece_payload_starts, payload_pos) - 1
        return self.piece_orig_starts[j] + (
            payload_pos - self.piece_payload_starts[j])

    @property
    def restart_count(self) -> int:
        """Number of RSTn markers indexed by the prescan."""
        return len(self.marker_payload_offsets)


def destuff_scan(data: bytes | bytearray | memoryview | np.ndarray) -> ScanPrescan:
    """Destuff a scan in one prescan pass and index its restart markers.

    The 0xFF positions are located vectorized (numpy); only those few
    positions are then classified in Python: ``FF 00`` keeps the 0xFF
    data byte and drops the zero, ``FF D0..D7`` records a restart
    boundary, and any other marker (or a trailing lone 0xFF) terminates
    the payload — per the standard, no entropy data can follow it.
    """
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise BitstreamError("ndarray bitstream must be uint8")
        data = data.tobytes()
    else:
        data = bytes(data)
    n = len(data)
    arr = np.frombuffer(data, dtype=np.uint8)
    scan = ScanPrescan(payload=b"")
    chunks: list[bytes] = []
    pay_len = 0
    prev = 0
    terminated = False
    for pos in np.flatnonzero(arr == 0xFF).tolist():
        if pos < prev:
            continue  # consumed by a previous stuffing/marker skip
        nxt = data[pos + 1] if pos + 1 < n else None
        if nxt == 0x00:
            chunks.append(data[prev:pos + 1])  # 0xFF is data; drop the 0x00
            pay_len += pos + 1 - prev
            prev = pos + 2
        elif nxt is None:
            chunks.append(data[prev:pos])
            pay_len += pos - prev
            scan.terminator = TRUNCATED_FF
            terminated = True
            break
        elif 0xD0 <= nxt <= 0xD7:
            chunks.append(data[prev:pos])
            pay_len += pos - prev
            scan.marker_payload_offsets.append(pay_len)
            scan.marker_values.append(nxt)
            scan.marker_orig_offsets.append(pos)
            prev = pos + 2
        else:
            chunks.append(data[prev:pos])
            pay_len += pos - prev
            scan.terminator = nxt
            terminated = True
            break
        scan.piece_payload_starts.append(pay_len)
        scan.piece_orig_starts.append(prev)
    if not terminated:
        chunks.append(data[prev:n])
    scan.payload = b"".join(chunks)
    return scan


# ---------------------------------------------------------------------------
# Fused decode tables.
# ---------------------------------------------------------------------------

class FusedDecodeTables:
    """Per-(spec, role) decode tables for the fast path.

    ``fused[p]`` for a ``FUSED_BITS``-wide prefix *p* packs the complete
    outcome of decoding one symbol whose code *and* magnitude bits both
    fit in the prefix: ``(total_bits << 16) | (run << 12) | (value + 2048)``.
    A zero entry means "not fully resolvable in one probe" and falls back
    to ``lookup`` (code resolved, magnitude read separately) and then to
    the MINCODE/MAXCODE walk for codes longer than 8 bits.

    For the DC role ``run`` is 0 and ``value`` is the EXTENDed
    difference; for the AC role ``value == 0`` can only mean EOB
    (``run == 0``) or ZRL (``run == 15``) since EXTEND never produces 0
    for a non-zero size.  Symbols the reference decoder would reject
    (DC category > 11, AC size-0 symbols other than EOB/ZRL) are never
    fused, so the fallback path raises the exact reference errors.
    """

    __slots__ = ("fused", "lookup", "mincode", "maxcode", "valptr", "values")

    def __init__(self, spec: HuffmanSpec, role: str) -> None:
        """Build all decode tables for *spec* acting as *role* ("dc"/"ac")."""
        enc = HuffmanEncoder(spec)
        self.fused = [0] * (1 << FUSED_BITS)
        self.lookup = [0] * (1 << LOOKUP_BITS)
        self.mincode = [0] * (MAX_CODE_LENGTH + 1)
        self.maxcode = [-1] * (MAX_CODE_LENGTH + 1)
        self.valptr = [0] * (MAX_CODE_LENGTH + 1)
        self.values = tuple(int(v) for v in spec.values)

        code = 0
        k = 0
        for length in range(1, MAX_CODE_LENGTH + 1):
            count = spec.bits[length - 1]
            if count:
                self.valptr[length] = k
                self.mincode[length] = code
                code += count
                k += count
                self.maxcode[length] = code - 1
            code <<= 1

        for symbol in enc.symbols:
            c, length = enc.code_for(symbol)
            if length > LOOKUP_BITS:
                continue
            shift = LOOKUP_BITS - length
            packed = (length << 8) | symbol
            for p in range(c << shift, (c + 1) << shift):
                self.lookup[p] = packed
            if role == "dc":
                run, size, valid = 0, symbol, symbol <= 11
            else:
                run, size = symbol >> 4, symbol & 0x0F
                valid = size > 0 or symbol in (0x00, 0xF0)
            if not valid or length + size > FUSED_BITS:
                continue
            total = length + size
            shift = FUSED_BITS - total
            for m in range(1 << size):
                entry = (total << 16) | (run << 12) | (extend(m, size) + 2048)
                base = ((c << size) | m) << shift
                for p in range(base, base + (1 << shift)):
                    self.fused[p] = entry


_TABLE_CACHE: dict[tuple[HuffmanSpec, str], FusedDecodeTables] = {}

#: Cache bound: per-image optimized tables would otherwise accumulate
#: without limit in a long-running decode service.
_TABLE_CACHE_MAX = 64


def fused_tables(spec: HuffmanSpec, role: str) -> FusedDecodeTables:
    """Build (or fetch cached) fused tables for *spec* in *role*.

    The cache is FIFO-bounded at ``_TABLE_CACHE_MAX`` entries so unique
    per-image optimized Huffman tables cannot leak memory in long-lived
    processes; the Annex-K standard tables stay resident in practice
    because they are re-inserted on reuse after any eviction.
    """
    key = (spec, role)
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        while len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
        tab = _TABLE_CACHE[key] = FusedDecodeTables(spec, role)
    return tab


# ---------------------------------------------------------------------------
# Careful (end-of-payload) helpers.
#
# The fast loop only runs while >= _REFILL_THRESHOLD real bits are
# buffered, where the reference reader can neither pad nor raise.  Near
# the end of a segment these helpers emulate BitReader's exact
# peek/read/zero-feed semantics so adversarial streams fail with the
# same exceptions in both engines.
# ---------------------------------------------------------------------------

def _careful_symbol(acc: int, nbits: int, pos: int, seg_end: int,
                    zero_feed: bool, trunc: bool, payload: bytes,
                    tab: FusedDecodeTables):
    """Decode one symbol with reference peek/pad semantics.

    Returns ``(symbol, acc, nbits, pos)``.
    """
    # Drop stale consumed bits so the accumulator stays bounded even
    # when every symbol of a long zero-padded tail passes through here.
    acc &= (1 << nbits) - 1
    # peek_bits(LOOKUP_BITS): fill from payload, zero-feed past a marker,
    # or zero-pad on exhaustion (reference peek catches BitstreamError).
    while nbits < LOOKUP_BITS:
        if pos < seg_end:
            acc = (acc << 8) | payload[pos]
            pos += 1
            nbits += 8
        elif zero_feed:
            acc <<= 8
            nbits += 8
        else:
            acc <<= LOOKUP_BITS - nbits
            nbits = LOOKUP_BITS
            break
    packed = tab.lookup[(acc >> (nbits - LOOKUP_BITS)) & 0xFF]
    if packed:
        return packed & 0xFF, acc, nbits - (packed >> 8), pos
    # slow path: consume the 8 peeked bits, then walk one bit at a time
    code = (acc >> (nbits - LOOKUP_BITS)) & 0xFF
    nbits -= LOOKUP_BITS
    maxcode = tab.maxcode
    for length in range(LOOKUP_BITS + 1, MAX_CODE_LENGTH + 1):
        while nbits < 1:  # read_bits(1) semantics: may raise
            if pos < seg_end:
                acc = (acc << 8) | payload[pos]
                pos += 1
                nbits += 8
            elif zero_feed:
                acc <<= 8
                nbits += 8
            elif trunc:
                raise BitstreamError("truncated stream after 0xFF")
            else:
                raise BitstreamError("bitstream exhausted")
        nbits -= 1
        code = (code << 1) | ((acc >> nbits) & 1)
        if code <= maxcode[length]:
            sym = tab.values[tab.valptr[length] + code - tab.mincode[length]]
            return sym, acc, nbits, pos
    raise HuffmanError("undecodable Huffman code")


def _careful_read_bits(n: int, acc: int, nbits: int, pos: int, seg_end: int,
                       zero_feed: bool, trunc: bool, payload: bytes):
    """read_bits(n) with reference refill/exhaustion semantics.

    Returns ``(value, acc, nbits, pos)``.
    """
    acc &= (1 << nbits) - 1
    while nbits < n:
        if pos < seg_end:
            acc = (acc << 8) | payload[pos]
            pos += 1
            nbits += 8
        elif zero_feed:
            acc <<= 8
            nbits += 8
        elif trunc:
            raise BitstreamError("truncated stream after 0xFF")
        else:
            raise BitstreamError("bitstream exhausted")
    nbits -= n
    return (acc >> nbits) & ((1 << n) - 1), acc, nbits, pos


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------

class FastEntropyDecoder:
    """Drop-in fast replacement for :class:`EntropyDecoder`.

    Same constructor, lifecycle and outputs as the reference engine; the
    only intentional difference is that :attr:`row_byte_offsets` reports
    the *minimal* original-stream byte count covering the bits consumed
    (the reference reports its internal fill position, which can run a
    byte or two ahead) — both satisfy the monotonicity and end-of-scan
    bounds the partitioner relies on.
    """

    def __init__(
        self,
        geometry: ImageGeometry,
        tables: list[ComponentTables],
        restart_interval: int = 0,
        *,
        tolerant: bool = False,
    ) -> None:
        """Bind fused tables for *tables* and allocate decode state
        (same signature as the reference :class:`EntropyDecoder`).

        *tolerant* relaxes structural checks for speculative decoding
        (:mod:`~repro.jpeg.speculative`): a mid-stream guess parses
        garbage until it self-synchronizes, and that garbage routinely
        overruns blocks or overflows the int16 DC range.  Tolerant mode
        clamps instead of raising — AC overruns and bad AC symbols end
        the block, out-of-range DC categories decode as empty, and DC
        stores wrap modulo 2**16 (the stitcher's DC-delta patch is also
        modular, so wrapped speculative values still patch to the exact
        sequential result).  Undecodable Huffman codes still raise:
        with no codeword length there is nothing to skip.
        """
        if len(tables) != len(geometry.components):
            raise EntropyError(
                f"{len(geometry.components)} components but "
                f"{len(tables)} table pairs"
            )
        self.geometry = geometry
        self.restart_interval = restart_interval
        self.tolerant = tolerant
        self._dc_tables = [fused_tables(t.dc, "dc") for t in tables]
        self._ac_tables = [fused_tables(t.ac, "ac") for t in tables]
        self._scan: ScanPrescan | None = None
        self._payload = b""
        self._acc = 0
        self._nbits = 0
        self._pos = 0
        #: Phantom (zero-fed) bits currently counted in ``_nbits``: the
        #: reference reader pads past a marker with zeros, and those
        #: bits must not be mistaken for consumed payload when mapping
        #: the reader position back to original-stream offsets.
        self._phantom = 0
        self._seg_end = 0
        self._seg_zero_feed = False
        self._seg_trunc = False
        self._rst_idx = 0
        self._preds = [0] * len(tables)
        self._mcus_done = 0
        self._next_rst = 0
        self._rows_done = 0
        self._row_byte_offsets: list[int] = [0]
        #: Allocated by :meth:`start` / :meth:`start_prescanned`, once
        #: per decode.
        self.coefficients: CoefficientBuffers | None = None
        self._flat_planes: list[np.ndarray] = []

    # -- lifecycle ------------------------------------------------------

    def start(self, entropy_data: bytes) -> None:
        """Prescan the raw scan bytes and reset all decoding state."""
        self._scan = destuff_scan(entropy_data)
        self._payload = self._scan.payload
        self._acc = 0
        self._nbits = 0
        self._pos = 0
        self._phantom = 0
        self._rst_idx = 0
        self._set_segment_bounds()
        self._preds = [0] * len(self._preds)
        self._mcus_done = 0
        self._next_rst = 0
        self._rows_done = 0
        self._row_byte_offsets = [0]
        self.coefficients = CoefficientBuffers.empty(self.geometry)
        self._flat_planes = [p.reshape(-1) for p in self.coefficients.planes]

    def start_prescanned(self, scan: ScanPrescan, bit_offset: int = 0) -> None:
        """Attach an existing prescan and start decoding at *bit_offset*.

        The speculative engine (:mod:`repro.jpeg.speculative`) shares one
        destuffing prescan across many chunk decoders; feeding a payload
        back through :meth:`start` would destuff it a second time and
        misread destuffed 0xFF data bytes as markers.  *bit_offset* is an
        absolute bit position into ``scan.payload`` — sub-byte offsets
        prime the accumulator with the tail bits of the containing byte,
        so :attr:`bit_position` equals *bit_offset* exactly.  Restart
        sequencing (``RST0..RST7`` modulo checks) is only meaningful from
        offset 0; speculative starts target marker-free scans.
        """
        payload = scan.payload
        if not 0 <= bit_offset <= len(payload) * 8:
            raise EntropyError(
                f"bit offset {bit_offset} outside the "
                f"{len(payload)}-byte payload")
        self._scan = scan
        self._payload = payload
        byte, rem = bit_offset >> 3, bit_offset & 7
        if rem:
            self._acc = payload[byte] & ((1 << (8 - rem)) - 1)
            self._nbits = 8 - rem
            self._pos = byte + 1
        else:
            self._acc = 0
            self._nbits = 0
            self._pos = byte
        self._phantom = 0
        self._rst_idx = 0
        while (self._rst_idx < scan.restart_count
               and scan.marker_payload_offsets[self._rst_idx] * 8
               <= bit_offset):
            self._rst_idx += 1
        self._set_segment_bounds()
        self._preds = [0] * len(self._preds)
        self._mcus_done = 0
        self._next_rst = self._rst_idx & 7
        self._rows_done = 0
        self._row_byte_offsets = [scan.orig_offset(byte)]
        self.coefficients = CoefficientBuffers.empty(self.geometry)
        self._flat_planes = [p.reshape(-1) for p in self.coefficients.planes]

    def _set_segment_bounds(self) -> None:
        """Derive the current segment's end and end-of-segment behavior."""
        scan = self._scan
        if self._rst_idx < scan.restart_count:
            self._seg_end = scan.marker_payload_offsets[self._rst_idx]
            self._seg_zero_feed = True   # reference zero-feeds at a marker
            self._seg_trunc = False
        else:
            self._seg_end = len(self._payload)
            self._seg_zero_feed = (
                scan.terminator is not None and scan.terminator != TRUNCATED_FF
            )
            self._seg_trunc = scan.terminator == TRUNCATED_FF

    @property
    def rows_decoded(self) -> int:
        """Number of complete MCU rows decoded so far."""
        return self._rows_done

    @property
    def finished(self) -> bool:
        """True once every MCU row of the image has been decoded."""
        return self._rows_done >= self.geometry.mcu_rows

    @property
    def row_byte_offsets(self) -> list[int]:
        """``row_byte_offsets[r]`` = compressed bytes consumed after *r*
        complete MCU rows (original-stream units)."""
        return list(self._row_byte_offsets)

    @property
    def bit_position(self) -> int:
        """Exact destuffed-payload bit offset consumed so far.

        Phantom zero-fed bits (marker padding) are excluded, so two
        decoders standing at the same :attr:`bit_position` are in the
        same bitstream state — the convergence predicate the speculative
        engine matches on.
        """
        real = self._nbits - self._phantom
        if real < 0:
            real = 0
        return self._pos * 8 - real

    @property
    def dc_predictors(self) -> tuple[int, ...]:
        """Current per-component DC predictor values.

        The speculative stitcher snapshots these at every MCU boundary:
        after two decoders converge, their predictor difference is the
        constant per-component delta patched onto the speculative
        chunk's DC coefficients.
        """
        return tuple(self._preds)

    # -- core decode ----------------------------------------------------

    def decode_mcu_rows(self, nrows: int) -> int:
        """Decode up to *nrows* further MCU rows; return rows decoded.

        One flat loop: all tables and reader state live in locals, each
        symbol costs one fused probe in the common case, and coefficient
        planes are written through pre-flattened views.
        """
        if self._scan is None:
            raise EntropyError("start() must be called before decoding")
        geo = self.geometry
        target = min(self._rows_done + nrows, geo.mcu_rows)
        interval = self.restart_interval
        scan = self._scan
        payload = self._payload
        zz = _ZIGZAG
        from_bytes = int.from_bytes

        # Reader state -> locals.
        tolerant = self.tolerant
        acc = self._acc
        nbits = self._nbits
        pos = self._pos
        phantom = self._phantom
        seg_end = self._seg_end
        zero_feed = self._seg_zero_feed
        trunc = self._seg_trunc
        rst_idx = self._rst_idx
        next_rst = self._next_rst
        mcus_done = self._mcus_done
        preds = self._preds
        rows_done = self._rows_done
        mcus_per_row = geo.mcus_per_row
        marker_pay = scan.marker_payload_offsets
        marker_val = scan.marker_values
        n_markers = len(marker_pay)

        # Per-component decode plan (tables + plane views bound once).
        plan = [
            (ci, comp.v_factor, comp.h_factor, comp.blocks_wide,
             self._flat_planes[ci], self._dc_tables[ci], self._ac_tables[ci])
            for ci, comp in enumerate(geo.components)
        ]

        while rows_done < target:
            mrow = rows_done
            for mcol in range(mcus_per_row):
                if interval and mcus_done and mcus_done % interval == 0:
                    # --- restart: byte-align, consume RSTn, reset DC ---
                    if rst_idx >= n_markers:
                        term = scan.terminator
                        if term is not None and term != TRUNCATED_FF:
                            raise BitstreamError(
                                f"expected restart marker, found 0xFF{term:02X}"
                            )
                        raise BitstreamError(
                            "no restart marker before end of stream")
                    rst_n = marker_val[rst_idx] - 0xD0
                    if rst_n != next_rst:
                        raise EntropyError(
                            f"restart marker out of sequence: RST{rst_n}, "
                            f"expected RST{next_rst}"
                        )
                    pos = marker_pay[rst_idx]
                    rst_idx += 1
                    acc = 0
                    nbits = 0
                    phantom = 0
                    if rst_idx < n_markers:
                        seg_end = marker_pay[rst_idx]
                        zero_feed, trunc = True, False
                    else:
                        seg_end = len(payload)
                        zero_feed = (scan.terminator is not None
                                     and scan.terminator != TRUNCATED_FF)
                        trunc = scan.terminator == TRUNCATED_FF
                    next_rst = (next_rst + 1) & 7
                    for ci in range(len(preds)):
                        preds[ci] = 0
                for ci, vf, hf, bw, flat, dct, act in plan:
                    pred = preds[ci]
                    d_fused, d_lookup = dct.fused, dct.lookup
                    a_fused, a_lookup = act.fused, act.lookup
                    for v in range(vf):
                        rowbase = (mrow * vf + v) * bw + mcol * hf
                        for h in range(hf):
                            base = (rowbase + h) << 6

                            # ---------------- DC ----------------
                            if nbits < _REFILL_THRESHOLD:
                                while nbits < _REFILL_THRESHOLD and pos < seg_end:
                                    take = seg_end - pos
                                    if take > 8:
                                        take = 8
                                    acc = ((acc & ((1 << nbits) - 1))
                                           << (take << 3)) | from_bytes(
                                               payload[pos:pos + take], "big")
                                    nbits += take << 3
                                    pos += take
                                if nbits < _REFILL_THRESHOLD and zero_feed:
                                    # a marker ends this segment: the
                                    # reference zero-feeds there, so the
                                    # fast path may too (masking keeps
                                    # the accumulator bounded)
                                    acc = (acc & ((1 << nbits) - 1)) << 32
                                    nbits += 32
                                    phantom += 32
                            if nbits >= _REFILL_THRESHOLD:
                                e = d_fused[(acc >> (nbits - 10)) & 0x3FF]
                                if e:
                                    nbits -= e >> 16
                                    pred += (e & 0xFFF) - 2048
                                else:
                                    p2 = d_lookup[(acc >> (nbits - 8)) & 0xFF]
                                    if p2:
                                        nbits -= p2 >> 8
                                        s = p2 & 0xFF
                                    else:
                                        code = (acc >> (nbits - 16)) & 0xFFFF
                                        dmax = dct.maxcode
                                        for ln in range(9, 17):
                                            c = code >> (16 - ln)
                                            if c <= dmax[ln]:
                                                nbits -= ln
                                                s = dct.values[
                                                    dct.valptr[ln] + c
                                                    - dct.mincode[ln]]
                                                break
                                        else:
                                            raise HuffmanError(
                                                "undecodable Huffman code")
                                    if s > 11:
                                        if tolerant:
                                            s = 0
                                        else:
                                            raise EntropyError(
                                                f"DC category {s} out of range")
                                    if s:
                                        nbits -= s
                                        m = (acc >> nbits) & ((1 << s) - 1)
                                        pred += (m - (1 << s) + 1
                                                 if m < (1 << (s - 1)) else m)
                            else:
                                s, acc, nbits, pos = _careful_symbol(
                                    acc, nbits, pos, seg_end, zero_feed,
                                    trunc, payload, dct)
                                if s > 11:
                                    if tolerant:
                                        s = 0
                                    else:
                                        raise EntropyError(
                                            f"DC category {s} out of range")
                                if s:
                                    m, acc, nbits, pos = _careful_read_bits(
                                        s, acc, nbits, pos, seg_end,
                                        zero_feed, trunc, payload)
                                    pred += (m - (1 << s) + 1
                                             if m < (1 << (s - 1)) else m)
                            if tolerant:
                                # Garbage prefixes drift the predictor
                                # past int16; wrap like the modular
                                # DC-delta patch does.
                                flat[base] = ((pred + 0x8000) & 0xFFFF) - 0x8000
                            else:
                                flat[base] = pred

                            # ---------------- AC ----------------
                            k = 1
                            while k < 64:
                                if nbits < _REFILL_THRESHOLD:
                                    while (nbits < _REFILL_THRESHOLD
                                           and pos < seg_end):
                                        take = seg_end - pos
                                        if take > 8:
                                            take = 8
                                        acc = ((acc & ((1 << nbits) - 1))
                                               << (take << 3)) | from_bytes(
                                                   payload[pos:pos + take],
                                                   "big")
                                        nbits += take << 3
                                        pos += take
                                    if nbits < _REFILL_THRESHOLD and zero_feed:
                                        acc = ((acc & ((1 << nbits) - 1))
                                               << 32)
                                        nbits += 32
                                        phantom += 32
                                    if nbits < _REFILL_THRESHOLD:
                                        # careful tail path, one symbol
                                        sym, acc, nbits, pos = _careful_symbol(
                                            acc, nbits, pos, seg_end,
                                            zero_feed, trunc, payload, act)
                                        run, size = sym >> 4, sym & 0x0F
                                        if size == 0:
                                            if sym == 0x00:
                                                break
                                            if sym == 0xF0:
                                                k += 16
                                                continue
                                            if tolerant:
                                                break
                                            raise EntropyError(
                                                f"bad AC symbol {sym:#x}")
                                        k += run
                                        if k > 63:
                                            if tolerant:
                                                _, acc, nbits, pos = \
                                                    _careful_read_bits(
                                                        size, acc, nbits, pos,
                                                        seg_end, zero_feed,
                                                        trunc, payload)
                                                break
                                            raise EntropyError(
                                                "AC coefficient index overran "
                                                "the block")
                                        m, acc, nbits, pos = _careful_read_bits(
                                            size, acc, nbits, pos, seg_end,
                                            zero_feed, trunc, payload)
                                        flat[base + zz[k]] = (
                                            m - (1 << size) + 1
                                            if m < (1 << (size - 1)) else m)
                                        k += 1
                                        continue
                                e = a_fused[(acc >> (nbits - 10)) & 0x3FF]
                                if e:
                                    nbits -= e >> 16
                                    val = (e & 0xFFF) - 2048
                                    if val:
                                        k += (e >> 12) & 0xF
                                        if k > 63:
                                            if tolerant:
                                                break
                                            raise EntropyError(
                                                "AC coefficient index overran "
                                                "the block")
                                        flat[base + zz[k]] = val
                                        k += 1
                                    elif e & 0xF000:   # ZRL (run 15, size 0)
                                        k += 16
                                    else:              # EOB
                                        break
                                    continue
                                p2 = a_lookup[(acc >> (nbits - 8)) & 0xFF]
                                if p2:
                                    nbits -= p2 >> 8
                                    sym = p2 & 0xFF
                                else:
                                    code = (acc >> (nbits - 16)) & 0xFFFF
                                    amax = act.maxcode
                                    for ln in range(9, 17):
                                        c = code >> (16 - ln)
                                        if c <= amax[ln]:
                                            nbits -= ln
                                            sym = act.values[
                                                act.valptr[ln] + c
                                                - act.mincode[ln]]
                                            break
                                    else:
                                        raise HuffmanError(
                                            "undecodable Huffman code")
                                run, size = sym >> 4, sym & 0x0F
                                if size == 0:
                                    if sym == 0x00:
                                        break
                                    if sym == 0xF0:
                                        k += 16
                                        continue
                                    if tolerant:
                                        break
                                    raise EntropyError(
                                        f"bad AC symbol {sym:#x}")
                                k += run
                                if k > 63:
                                    if tolerant:
                                        nbits -= size
                                        break
                                    raise EntropyError(
                                        "AC coefficient index overran the "
                                        "block")
                                nbits -= size
                                m = (acc >> nbits) & ((1 << size) - 1)
                                flat[base + zz[k]] = (
                                    m - (1 << size) + 1
                                    if m < (1 << (size - 1)) else m)
                                k += 1
                    preds[ci] = pred
                mcus_done += 1
            rows_done += 1
            # Only real buffered bits roll the position back: phantom
            # zero-fed padding is not payload, and subtracting it used
            # to under-report rows ending at a restart marker by the
            # padding width (landing mid-tail instead of just past the
            # RSTn pair).
            real = nbits - phantom
            if real < 0:
                real = 0
            off = scan.orig_offset(max(0, pos - (real >> 3)))
            last = self._row_byte_offsets[-1]
            self._row_byte_offsets.append(off if off > last else last)

        # Locals -> state.
        self._acc = acc
        self._nbits = nbits
        self._pos = pos
        self._phantom = phantom
        self._seg_end = seg_end
        self._seg_zero_feed = zero_feed
        self._seg_trunc = trunc
        self._rst_idx = rst_idx
        self._next_rst = next_rst
        self._mcus_done = mcus_done
        self._rows_done = rows_done
        return rows_done

    def decode_all(self, entropy_data: bytes) -> CoefficientBuffers:
        """Convenience: start + decode every MCU row."""
        self.start(entropy_data)
        self.decode_mcu_rows(self.geometry.mcu_rows)
        return self.coefficients


# ---------------------------------------------------------------------------
# Engine selection.
# ---------------------------------------------------------------------------

#: Engine registry: ``fast`` is the default everywhere; ``reference`` is
#: the retained oracle the property tests compare against.
ENTROPY_ENGINES = {
    "fast": FastEntropyDecoder,
    "reference": EntropyDecoder,
}


def create_entropy_decoder(
    engine: str,
    geometry: ImageGeometry,
    tables: list[ComponentTables],
    restart_interval: int = 0,
):
    """Instantiate the entropy engine named *engine*."""
    try:
        cls = ENTROPY_ENGINES[engine]
    except KeyError:
        raise EntropyError(
            f"unknown entropy engine {engine!r} "
            f"(choose from {sorted(ENTROPY_ENGINES)})"
        ) from None
    return cls(geometry, tables, restart_interval)
