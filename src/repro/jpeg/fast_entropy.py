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
3. **Fused decode tables** (:class:`FusedDecodeTables`): a
   ``FUSED_BITS``-wide probe yields a ready-to-use tuple
   ``(bits, k_advance, value)`` — symbol decode, magnitude read and
   EXTEND collapsed into a single table hit, with the run (or EOB / ZRL)
   already expressed as the zig-zag advance it causes.  CPython charges
   per bytecode, so one ``UNPACK_SEQUENCE`` beats the five
   shift/mask/subtract operations a packed integer costs.  Codes the
   probe cannot resolve fall back to the ``LOOKUP_BITS`` first-level
   ``lookup`` and then to the MINCODE/MAXCODE walk over the
   already-buffered bits.
4. **Flattened hot loop**: :meth:`FastEntropyDecoder.decode_mcu_rows`
   binds every table to a local, walks a per-MCU block plan computed
   once per decode, and stores coefficients through a typed
   ``memoryview`` of each int16 plane (half the cost of a numpy scalar
   ``__setitem__``; figures in ``docs/architecture.md``).  Restart
   handling, the end-of-segment careful symbols and the long-code walk
   are module-level helpers called only on their rare paths.
5. **One bounded run** (:meth:`FastEntropyDecoder.decode_run`): the
   same loop over an MCU-strip geometry, stopped at an MCU count or a
   bit limit and optionally tracing ``(bit position, DC predictors)``
   per MCU — what restart runs, speculative chunks and the stitcher's
   repairs are made of (:mod:`~repro.jpeg.parallel_huffman`,
   :mod:`~repro.jpeg.speculative`).

:class:`FastEntropyDecoder` is bit-exact with
:class:`~repro.jpeg.entropy.EntropyDecoder` (the retained ``reference``
oracle): identical coefficient planes on valid streams, and identical
exception types *and messages* on adversarial ones (truncated payloads,
bad restart sequences, undecodable codes, a DC predictor leaving int16)
— property-tested in ``tests/test_entropy_engine.py``.  Select an engine
by name through :func:`create_entropy_decoder` (the ``entropy_engine=``
knob on :class:`~repro.jpeg.decoder.DecodeOptions`,
:class:`~repro.core.decoder.HeterogeneousDecoder` and the CLI).
"""

from __future__ import annotations

import struct
import threading
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..errors import BitstreamError, EntropyError, HuffmanError
from .blocks import ImageGeometry
from .constants import EOB_SYMBOL, ZIGZAG_ORDER, ZRL_SYMBOL
from .entropy import (
    CoefficientBuffers,
    ComponentTables,
    EntropyDecoder,
    dc_range_error,
)
from .huffman import (
    LOOKUP_BITS,
    MAX_CODE_LENGTH,
    HuffmanEncoder,
    HuffmanSpec,
    extend,
)

#: Sentinel for a scan that ends in a lone 0xFF (truncated stuffing pair).
TRUNCATED_FF = -1

#: Zig-zag order shifted by one: ``_ZIGZAG_AFTER[k]`` is the natural
#: index of zig-zag position ``k - 1``.  A fused entry advances ``k``
#: *past* the coefficient it carries, so the store looks its index up
#: after the advance and the loop needs no separate ``k += 1``.  (Tuple
#: indexing is the fastest per-coefficient lookup CPython offers.)
_ZIGZAG_AFTER = (0,) + tuple(int(i) for i in ZIGZAG_ORDER)

#: Width of the fused single-probe window.  Wider than the 8-bit
#: first-level ``lookup`` so that code + magnitude pairs up to 10 bits
#: resolve in one table hit.  (12-, 14- and 16-bit windows were measured
#: and gain nothing on any corpus image: the 10-bit probe already
#: resolves ~98 % of the symbols of the densest ones.)
FUSED_BITS = 10
_FUSED_MASK = (1 << FUSED_BITS) - 1

#: ``k_advance`` of a fused EOB entry: from any ``k`` it lands past the
#: last coefficient, which is what ends the block loop.
EOB_ADVANCE = 64
#: ``k_advance`` of a fused ZRL entry (sixteen zeros, nothing stored).
ZRL_ADVANCE = 16
#: The only AC symbols of size 0 the reference decoder accepts.
_SIZE0_ADVANCE = {EOB_SYMBOL: EOB_ADVANCE, ZRL_SYMBOL: ZRL_ADVANCE}

#: The hot loop tops up the accumulator whenever fewer than this many
#: bits are buffered; 32 covers the worst fast-path consumption of one
#: symbol (16-bit code + 15-bit AC magnitude = 31 bits).
_REFILL_THRESHOLD = 32

#: ``_LOW_MASKS[n] == (1 << n) - 1`` for every width the hot loop masks
#: to: stale accumulator bits below the refill threshold, and magnitude
#: fields (also EXTEND's offset: ``extend(m, s) == m - _LOW_MASKS[s]``
#: for the negative half).
_LOW_MASKS = tuple((1 << n) - 1 for n in range(_REFILL_THRESHOLD))

#: Bulk refill: eight payload bytes as one big-endian integer.
_READ8 = struct.Struct(">Q").unpack_from

_AC_OVERRUN = "AC coefficient index overran the block"


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

    ``fused[p]`` for a ``FUSED_BITS``-wide prefix *p* is the complete,
    ready-to-use outcome of decoding one symbol whose code *and*
    magnitude bits both fit in the prefix — a tuple
    ``(bits, k_advance, value)``:

    - ``bits``: code length plus magnitude width, what the reader
      consumes;
    - ``k_advance``: how far the zig-zag index moves.  A coefficient
      after ``run`` zeros advances ``run + 1`` (the store then indexes
      ``_ZIGZAG_AFTER``); ZRL advances :data:`ZRL_ADVANCE`; EOB advances
      :data:`EOB_ADVANCE`, past the end of any block.  In the DC role it
      is always 1 (the DC coefficient itself);
    - ``value``: the EXTENDed coefficient (DC role: the difference to
      the predictor).  In the AC role 0 can only mean EOB or ZRL, since
      EXTEND never produces 0 for a non-zero size.

    ``None`` means "not resolvable in one probe": the decoder falls
    back to ``lookup`` (``LOOKUP_BITS``-wide, ``(length << 8) | symbol``,
    magnitude read separately) and then to the MINCODE/MAXCODE walk for
    longer codes.  Symbols the reference decoder would reject (DC
    category > 11, AC size-0 symbols other than EOB/ZRL) are never
    fused, so the fallback path raises the exact reference errors.
    """

    __slots__ = ("fused", "lookup", "mincode", "maxcode", "valptr", "values")

    def __init__(self, spec: HuffmanSpec, role: str) -> None:
        """Build all decode tables for *spec* acting as *role* ("dc"/"ac")."""
        enc = HuffmanEncoder(spec)
        self.fused: list[tuple[int, int, int] | None] = (
            [None] * (1 << FUSED_BITS))
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
            if length <= LOOKUP_BITS:
                shift = LOOKUP_BITS - length
                self.lookup[c << shift:(c + 1) << shift] = (
                    [(length << 8) | symbol] * (1 << shift))
            if role == "dc":
                size, advance = symbol, (1 if symbol <= 11 else None)
            else:
                size = symbol & 0x0F
                advance = ((symbol >> 4) + 1 if size
                           else _SIZE0_ADVANCE.get(symbol))
            total = length + size
            if advance is None or total > FUSED_BITS:
                continue
            span = 1 << (FUSED_BITS - total)
            for m in range(1 << size):
                first = ((c << size) | m) * span
                self.fused[first:first + span] = (
                    [(total, advance, extend(m, size))] * span)


_TABLE_CACHE: dict[tuple[HuffmanSpec, str], FusedDecodeTables] = {}
_TABLE_CACHE_LOCK = threading.Lock()

#: Cache bound: per-image optimized tables would otherwise accumulate
#: without limit in a long-running decode service.
_TABLE_CACHE_MAX = 64


def fused_tables(spec: HuffmanSpec, role: str) -> FusedDecodeTables:
    """Build (or fetch cached) fused tables for *spec* in *role*.

    The cache is LRU-bounded at ``_TABLE_CACHE_MAX`` entries — a hit
    moves its entry to the young end of the (insertion-ordered) dict —
    so unique per-image optimized Huffman tables cannot leak memory in
    long-lived processes, and the Annex-K standard tables, which nearly
    every image uses, are never the ones evicted.  Lookup, refresh and
    eviction run under one lock (``thread``-backend workers share the
    cache); the table build itself runs outside it.
    """
    key = (spec, role)
    with _TABLE_CACHE_LOCK:
        tab = _TABLE_CACHE.pop(key, None)
        if tab is not None:
            _TABLE_CACHE[key] = tab
            return tab
    tab = FusedDecodeTables(spec, role)
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE[key] = tab
        while len(_TABLE_CACHE) > _TABLE_CACHE_MAX:
            del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
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


class _Passed:
    """Structural errors a tolerant decode has passed over so far."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


def _pass_or_raise(tolerant: "_Passed | None", message: str) -> None:
    """A structural error in the stream: a strict decode (*tolerant*
    None) raises it, a tolerant one counts it and carries on — the
    count is how the speculative stitcher learns that a chunk's parse
    went over an error after it had synchronised."""
    if tolerant is None:
        raise EntropyError(message)
    tolerant.count += 1


def _careful_dc(acc: int, nbits: int, pos: int, seg_end: int,
                zero_feed: bool, trunc: bool, payload: bytes,
                tab: FusedDecodeTables, tolerant: "_Passed | None"):
    """Decode one DC difference with reference semantics — the path of
    every DC symbol the fused probe does not resolve, anywhere in a
    segment.

    Returns ``(diff, acc, nbits, pos)``.
    """
    s, acc, nbits, pos = _careful_symbol(
        acc, nbits, pos, seg_end, zero_feed, trunc, payload, tab)
    if s > 11:
        _pass_or_raise(tolerant, f"DC category {s} out of range")
        s = 0
    if s == 0:
        return 0, acc, nbits, pos
    m, acc, nbits, pos = _careful_read_bits(
        s, acc, nbits, pos, seg_end, zero_feed, trunc, payload)
    return extend(m, s), acc, nbits, pos


def _careful_ac(k: int, acc: int, nbits: int, pos: int, seg_end: int,
                zero_feed: bool, trunc: bool, payload: bytes,
                tab: FusedDecodeTables, tolerant: "_Passed | None"):
    """Decode one AC symbol at zig-zag index *k* with reference
    semantics — the path of the last symbols of a segment, where the
    reader may have to pad or raise.

    Returns ``(k, value, acc, nbits, pos)`` with *k* advanced the way a
    fused entry advances it: past the coefficient when *value* is
    non-zero (store it at ``_ZIGZAG_AFTER[k]``), by 16 for ZRL, to
    :data:`EOB_ADVANCE` when the block ends here.
    """
    sym, acc, nbits, pos = _careful_symbol(
        acc, nbits, pos, seg_end, zero_feed, trunc, payload, tab)
    size = sym & 0x0F
    if size == 0:
        if sym == ZRL_SYMBOL:
            return k + ZRL_ADVANCE, 0, acc, nbits, pos
        if sym != EOB_SYMBOL:
            _pass_or_raise(tolerant, f"bad AC symbol {sym:#x}")
        return EOB_ADVANCE, 0, acc, nbits, pos
    k += (sym >> 4) + 1
    if k > 64:
        _pass_or_raise(tolerant, _AC_OVERRUN)
    m, acc, nbits, pos = _careful_read_bits(
        size, acc, nbits, pos, seg_end, zero_feed, trunc, payload)
    if k > 64:
        return EOB_ADVANCE, 0, acc, nbits, pos
    return k, extend(m, size), acc, nbits, pos


def _long_symbol(code: int, tab: FusedDecodeTables) -> tuple[int, int]:
    """Resolve a code longer than ``LOOKUP_BITS`` from *code*, the next
    ``MAX_CODE_LENGTH`` buffered bits (MINCODE/MAXCODE walk).

    Returns ``(symbol, code length)``.
    """
    maxcode = tab.maxcode
    for length in range(LOOKUP_BITS + 1, MAX_CODE_LENGTH + 1):
        c = code >> (MAX_CODE_LENGTH - length)
        if c <= maxcode[length]:
            return (tab.values[tab.valptr[length] + c - tab.mincode[length]],
                    length)
    raise HuffmanError("undecodable Huffman code")


def _refill_tail(acc: int, nbits: int, pos: int, seg_end: int,
                 zero_feed: bool, phantom: int, payload: bytes):
    """Top up the accumulator within eight bytes of the segment end.

    Takes whatever real bytes remain; when a marker ends the segment
    the reference reader zero-feeds there, so the fast path may too —
    32 phantom bits, counted in *phantom* so positions stay exact.
    Returns ``(acc, nbits, pos, phantom)``; ``nbits`` still below the
    refill threshold means the careful path has to take over.
    """
    acc &= _LOW_MASKS[nbits]
    take = seg_end - pos
    if take > 0:
        acc = (acc << (take << 3)) | int.from_bytes(
            payload[pos:seg_end], "big")
        nbits += take << 3
        pos = seg_end
    if nbits < _REFILL_THRESHOLD and zero_feed:
        acc <<= 32
        nbits += 32
        phantom += 32
    return acc, nbits, pos, phantom


def _segment_bounds(scan: ScanPrescan, rst_idx: int):
    """``(seg_end, zero_feed, trunc)`` of the segment that ends at
    restart marker *rst_idx* (or at the end of the payload): where it
    ends and how the reference reader behaves there — it zero-feeds at
    a marker and raises on exhaustion or a truncated ``0xFF`` pair."""
    if rst_idx < scan.restart_count:
        return scan.marker_payload_offsets[rst_idx], True, False
    term = scan.terminator
    return (len(scan.payload),
            term is not None and term != TRUNCATED_FF,
            term == TRUNCATED_FF)


def _next_segment(scan: ScanPrescan, rst_idx: int, first_restart: int):
    """Cross restart marker *rst_idx*: check it is there and in
    sequence, byte-align just past it.  *first_restart* is the position
    of the prescan's first marker in its scan's RST0..RST7 cycle (not 0
    for a run of restart segments cut out of a longer scan).

    Returns ``(pos, seg_end, zero_feed, trunc)`` of the segment behind
    the marker; the caller clears the bit buffer and the DC predictors.
    """
    if rst_idx >= scan.restart_count:
        term = scan.terminator
        if term is not None and term != TRUNCATED_FF:
            raise BitstreamError(
                f"expected restart marker, found 0xFF{term:02X}")
        raise BitstreamError("no restart marker before end of stream")
    found = scan.marker_values[rst_idx] - 0xD0
    expected = (first_restart + rst_idx) & 7
    if found != expected:
        raise EntropyError(
            f"restart marker out of sequence: RST{found}, "
            f"expected RST{expected}")
    return (scan.marker_payload_offsets[rst_idx],
            *_segment_bounds(scan, rst_idx + 1))


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
        the block and out-of-range DC categories decode as empty, each
        counted (:attr:`run_passed` says in which MCU of a bounded run:
        the same error *after* the guess has synchronised is the
        stream's own, and the sequential decoder raises it), and DC
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
        self._passed = _Passed() if tolerant else None
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
        self._first_restart = 0
        self._preds = [0] * len(tables)
        self._mcus_done = 0
        self._rows_done = 0
        self._row_byte_offsets: list[int] = [0]
        #: Allocated by :meth:`start` / :meth:`start_prescanned`, once
        #: per decode.
        self.coefficients: CoefficientBuffers | None = None
        #: Block plan of one MCU row and the coefficient distance
        #: between MCU rows, per component (see :meth:`_bind_planes`).
        self._row_plan: list[tuple] = []
        self._row_steps: list[int] = []
        #: Per-MCU-row hook of a bounded run (see :meth:`decode_run`);
        #: None keeps the row-offset bookkeeping of a whole-image decode.
        self._run_hook = None
        #: What the last :meth:`decode_run` recorded per MCU: the exact
        #: :attr:`bit_position` and :attr:`dc_predictors` after it.
        self.run_positions: list[int] = []
        self.run_predictors: list[tuple[int, ...]] = []
        #: Tolerant runs only: structural errors passed over so far,
        #: after each MCU of the last :meth:`decode_run`.
        self.run_passed: list[int] = []

    # -- lifecycle ------------------------------------------------------

    def start(self, entropy_data: bytes, first_restart: int = 0) -> None:
        """Prescan the raw scan bytes and reset all decoding state.

        *first_restart* is the index, within the whole scan, of the
        first restart marker in *entropy_data*: a run of restart
        segments cut out of a longer scan checks its RSTn sequence from
        there, so an out-of-sequence marker raises the sequential
        decoder's message."""
        self._scan = destuff_scan(entropy_data)
        self._first_restart = first_restart
        self._payload = self._scan.payload
        self._acc = 0
        self._nbits = 0
        self._pos = 0
        self._phantom = 0
        self._rst_idx = 0
        self._set_segment_bounds()
        self._preds = [0] * len(self._preds)
        self._mcus_done = 0
        self._rows_done = 0
        self._row_byte_offsets = [0]
        self._bind_planes()

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
        self._first_restart = 0
        while (self._rst_idx < scan.restart_count
               and scan.marker_payload_offsets[self._rst_idx] * 8
               <= bit_offset):
            self._rst_idx += 1
        self._set_segment_bounds()
        self._preds = [0] * len(self._preds)
        self._mcus_done = 0
        self._rows_done = 0
        self._row_byte_offsets = [scan.orig_offset(byte)]
        self._bind_planes()

    def _set_segment_bounds(self) -> None:
        """Derive the current segment's end and end-of-segment behavior."""
        self._seg_end, self._seg_zero_feed, self._seg_trunc = (
            _segment_bounds(self._scan, self._rst_idx))

    def _bind_planes(self) -> None:
        """Allocate the coefficient planes and lay out the block walk.

        ``_row_plan[mcol]`` lists the blocks of MCU column *mcol* in
        decode order as ``(component, offset, view, dc fused, ac fused,
        ac lookup, dc tables, ac tables)``: *offset* is the block's
        first coefficient relative to the start of its MCU row, *view*
        a typed ``memoryview`` of the flattened int16 plane.  Computed
        once per decode, so the hot loop pays one addition per block
        for addressing.
        """
        geo = self.geometry
        self.coefficients = CoefficientBuffers.empty(geo)
        views = [memoryview(p.reshape(-1)) for p in self.coefficients.planes]
        self._row_steps = [(c.v_factor * c.blocks_wide) << 6
                           for c in geo.components]
        self._row_plan = [
            tuple(
                (ci, ((v * c.blocks_wide + mcol * c.h_factor + h) << 6),
                 views[ci], dct.fused, act.fused, act.lookup, dct, act)
                for ci, (c, dct, act) in enumerate(zip(
                    geo.components, self._dc_tables, self._ac_tables))
                for v in range(c.v_factor)
                for h in range(c.h_factor))
            for mcol in range(geo.mcus_per_row)
        ]

    def _mark_row_end(self, pos: int, real_bits: int) -> None:
        """Record the original-stream offset reached after an MCU row.

        Only real buffered bits roll the position back: phantom zero-fed
        padding is not payload, and subtracting it would under-report a
        row ending at a restart marker by the padding width (landing
        mid-tail instead of just past the RSTn pair).
        """
        if real_bits < 0:
            real_bits = 0
        off = self._scan.orig_offset(max(0, pos - (real_bits >> 3)))
        self._row_byte_offsets.append(max(off, self._row_byte_offsets[-1]))

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

        One flat loop: tables and reader state live in locals, a symbol
        costs one fused probe and one tuple unpack in the common case,
        and coefficients are stored through typed ``memoryview``s of
        the planes.  Everything rare — a restart boundary, the last
        bytes of a segment, a code the probe cannot resolve in the DC
        position or beyond ``LOOKUP_BITS`` — is a call to a
        module-level helper.
        """
        if self._scan is None:
            raise EntropyError("start() must be called before decoding")
        target = min(self._rows_done + nrows, self.geometry.mcu_rows)
        interval = self.restart_interval
        scan = self._scan
        payload = self._payload
        tolerant = self._passed     # None = strict
        preds = self._preds
        row_steps = self._row_steps
        zz_after = _ZIGZAG_AFTER
        masks = _LOW_MASKS
        read8 = _READ8
        threshold = _REFILL_THRESHOLD
        fused_bits, fused_mask = FUSED_BITS, _FUSED_MASK

        # Reader state -> locals.
        acc, nbits, pos, phantom = (
            self._acc, self._nbits, self._pos, self._phantom)
        seg_end, zero_feed, trunc = (
            self._seg_end, self._seg_zero_feed, self._seg_trunc)
        bulk_end = seg_end - 7   # an 8-byte refill fits while pos < bulk_end
        rst_idx = self._rst_idx
        mcus_done = self._mcus_done
        rows_done = self._rows_done
        run_hook = self._run_hook

        while rows_done < target:
            origins = [rows_done * step for step in row_steps]
            for mcu in self._row_plan:
                if interval and mcus_done and mcus_done % interval == 0:
                    pos, seg_end, zero_feed, trunc = _next_segment(
                        scan, rst_idx, self._first_restart)
                    bulk_end = seg_end - 7
                    rst_idx += 1
                    acc = nbits = phantom = 0
                    preds[:] = [0] * len(preds)
                for ci, rel, out, d_fused, a_fused, a_lookup, dct, act in mcu:
                    base = origins[ci] + rel

                    # ---------------- DC ----------------
                    if nbits < threshold:
                        if pos < bulk_end:
                            acc = ((acc & masks[nbits]) << 64) | read8(
                                payload, pos)[0]
                            nbits += 64
                            pos += 8
                        else:
                            acc, nbits, pos, phantom = _refill_tail(
                                acc, nbits, pos, seg_end, zero_feed,
                                phantom, payload)
                    e = (d_fused[(acc >> (nbits - fused_bits)) & fused_mask]
                         if nbits >= threshold else None)
                    if e:
                        bits, _, diff = e
                        nbits -= bits
                    else:
                        diff, acc, nbits, pos = _careful_dc(
                            acc, nbits, pos, seg_end, zero_feed, trunc,
                            payload, dct, tolerant)
                    pred = preds[ci] = preds[ci] + diff
                    if -32768 <= pred <= 32767:
                        out[base] = pred
                    elif tolerant is not None:
                        # Garbage prefixes drift the predictor past
                        # int16; wrap like the modular DC-delta patch.
                        out[base] = ((pred + 32768) & 65535) - 32768
                    else:
                        raise dc_range_error(pred)

                    # ---------------- AC ----------------
                    k = 1
                    while k < 64:
                        if nbits < threshold:
                            if pos < bulk_end:
                                acc = ((acc & masks[nbits]) << 64) | read8(
                                    payload, pos)[0]
                                nbits += 64
                                pos += 8
                            else:
                                acc, nbits, pos, phantom = _refill_tail(
                                    acc, nbits, pos, seg_end, zero_feed,
                                    phantom, payload)
                                if nbits < threshold:
                                    k, val, acc, nbits, pos = _careful_ac(
                                        k, acc, nbits, pos, seg_end,
                                        zero_feed, trunc, payload, act,
                                        tolerant)
                                    if val:
                                        out[base + zz_after[k]] = val
                                    continue
                        e = a_fused[(acc >> (nbits - fused_bits))
                                    & fused_mask]
                        if e:
                            bits, advance, val = e
                            nbits -= bits
                            k += advance     # EOB: past 63; ZRL: 16
                            if val:
                                if k > 64:
                                    _pass_or_raise(tolerant, _AC_OVERRUN)
                                    break
                                out[base + zz_after[k]] = val
                            continue
                        p2 = a_lookup[(acc >> (nbits - LOOKUP_BITS)) & 255]
                        if p2:
                            nbits -= p2 >> 8
                            sym = p2 & 255
                        else:
                            sym, bits = _long_symbol(
                                (acc >> (nbits - MAX_CODE_LENGTH)) & 65535,
                                act)
                            nbits -= bits
                        size = sym & 15
                        if size == 0:
                            if sym == ZRL_SYMBOL:
                                k += ZRL_ADVANCE
                                continue
                            if sym != EOB_SYMBOL:
                                _pass_or_raise(
                                    tolerant, f"bad AC symbol {sym:#x}")
                            break
                        nbits -= size
                        k += (sym >> 4) + 1
                        if k > 64:
                            _pass_or_raise(tolerant, _AC_OVERRUN)
                            break
                        m = (acc >> nbits) & masks[size]
                        out[base + zz_after[k]] = (
                            m if m >> (size - 1) else m - masks[size])
                mcus_done += 1
            rows_done += 1
            if run_hook is None:
                self._mark_row_end(pos, nbits - phantom)
            elif run_hook(pos, nbits - phantom):
                break

        # Locals -> state.
        self._acc, self._nbits, self._pos, self._phantom = (
            acc, nbits, pos, phantom)
        self._seg_end, self._seg_zero_feed, self._seg_trunc = (
            seg_end, zero_feed, trunc)
        self._rst_idx = rst_idx
        self._mcus_done = mcus_done
        self._rows_done = rows_done
        return rows_done

    def decode_run(self, limit_bit: int | None = None,
                   record: bool = True) -> int:
        """Bounded run: decode MCUs of an
        :meth:`~repro.jpeg.blocks.ImageGeometry.mcu_strip` geometry
        from wherever :meth:`start` / :meth:`start_prescanned` put the
        reader; return how many.

        The run ends at the strip's MCU count, or after the first MCU
        that ends at or past *limit_bit* (a :attr:`bit_position`; every
        MCU that *starts* before the limit is decoded in full).  The
        pad bits of a payload's final byte are never consumed, so
        :attr:`bit_position` stops up to seven bits short of the payload
        end: a run that must not feed on zeros past the real data passes
        ``payload bits - 7``.  With *record*, :attr:`run_positions` and
        :attr:`run_predictors` (and :attr:`run_passed`, for a tolerant
        decoder) get one entry per MCU — the trace the speculative
        stitcher synchronises on.  Decode errors propagate;
        the record then holds the MCUs completed before the error (and
        the planes whatever was stored).

        This is :meth:`decode_mcu_rows` itself — a strip's MCU row is
        one MCU — with the stop rule and the record hooked into its
        per-row epilogue in place of the row-offset bookkeeping: a
        whole-image decode pays one ``is None`` test per MCU row for
        it, and a run pays one closure call per MCU instead of a call
        into the decoder with its state load and store.
        """
        positions = self.run_positions = []
        predictors = self.run_predictors = []
        passed_after = self.run_passed = []
        limit = float("inf") if limit_bit is None else limit_bit
        preds, passed = self._preds, self._passed

        def after_mcu(pos: int, real_bits: int) -> bool:
            bit = (pos << 3) - (real_bits if real_bits > 0 else 0)
            if record:
                positions.append(bit)
                predictors.append(tuple(preds))
                if passed is not None:
                    passed_after.append(passed.count)
            return bit >= limit

        self._run_hook = after_mcu
        try:
            return self.decode_mcu_rows(self.geometry.mcu_rows)
        finally:
            self._run_hook = None

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
