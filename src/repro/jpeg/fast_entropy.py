"""Fused fast-path entropy engine — the default Huffman decode path.

The paper's whole pipeline is gated by sequential Huffman decoding
(Section 1).  CPython charges per bytecode, so this module moves
everything it can out of the per-symbol loop and into tables built once:

1. **Destuffing prescan** (:func:`destuff_scan`): one vectorized pass
   converts the byte-stuffed scan into a contiguous marker-free payload
   plus a restart-marker offset index, so the inner loop never tests for
   ``0xFF``.
2. **The reader is one bit position.**  :meth:`ScanPrescan.windows_at`
   precomputes, with a dozen numpy passes per span of payload, the next
   ``PROBE_BITS`` bits at *every* bit offset (a ``uint16`` per bit).
   Reading is ``win[p]``, consuming is ``p += bits``: no accumulator,
   no refill test, no shift or mask in the loop.  Windows that reach
   past a restart marker are zero-filled there, which is exactly what
   the reference reader feeds past a marker, so the probe stays exact up
   to the last bit of a restart segment.
3. **One table hit carries several symbols**: ``probe[win[p]]``
   (:class:`FusedDecodeTables`) is a ready-to-use tuple — symbol decode,
   magnitude read and EXTEND of an AC coefficient, and of the symbol
   after it wherever both fit the window — and a block opens on one hit
   of its *head* (:func:`head_probe`): the DC difference, the first AC
   symbol where it fits behind, and an EOB closing that coefficient
   where that fits too.  A wider window alone buys nothing (a 10-bit one
   already resolved ~98 % of the symbols); what it buys is room for
   more symbols per hit, which cuts the number of loop iterations.
4. **Flattened hot loop**: :meth:`FastEntropyDecoder.decode_mcu_rows`
   binds every table to a local, walks a per-MCU block plan computed
   once per decode, and stores coefficients through a typed
   ``memoryview`` of each int16 plane.  Everything rare — a restart
   boundary, the last bits of a segment, a symbol the probe does not
   resolve — is a call to a module-level *careful* helper that reads
   its bits from the payload at ``p`` with the reference reader's exact
   pad / zero-feed / raise rules.
5. **One bounded run** (:meth:`FastEntropyDecoder.decode_run`): the
   same loop over an MCU-strip geometry, stopped at an MCU count or a
   bit limit and optionally tracing ``(bit position, DC predictors)``
   per MCU — what restart runs, speculative chunks and the stitcher's
   repairs are made of.

:class:`FastEntropyDecoder` is bit-exact with the ``reference`` oracle
:class:`~repro.jpeg.entropy.EntropyDecoder`: identical coefficient
planes on valid streams, and identical exception types *and messages*
on adversarial ones — property-tested in ``tests/test_entropy_engine.py``.
:func:`create_entropy_decoder` selects an engine by name
(``DecodeOptions.entropy_engine``).
"""

from __future__ import annotations

import threading
from bisect import bisect_right

import numpy as np

from ..errors import BitstreamError, EntropyError, HuffmanError
from .blocks import ImageGeometry
from .constants import EOB_SYMBOL, ZIGZAG_ORDER, ZRL_SYMBOL
from .coefficients import CoefficientBuffers, ComponentTables, dc_range_error
from .huffman import LOOKUP_BITS, MAX_CODE_LENGTH, HuffmanSpec, extend

#: Sentinel for a scan that ends in a lone 0xFF (truncated stuffing pair).
TRUNCATED_FF = -1

#: Zig-zag order shifted by one: ``_ZIGZAG_AFTER[k]`` is the natural
#: index of zig-zag position ``k - 1``.  A fused entry advances ``k``
#: *past* the coefficient it carries, so the store looks its index up
#: after the advance, with no separate ``k += 1``; a ``k`` past 64 (an
#: overrun) raises the lookup's IndexError.
_ZIGZAG_AFTER = (0,) + tuple(int(i) for i in ZIGZAG_ORDER)

#: Width of the probe window: ``win[p]`` is the next ``PROBE_BITS``
#: payload bits and indexes ``FusedDecodeTables.probe`` directly.  13
#: bits hold two code + magnitude pairs in 59-78 % of the Annex-K table
#: slots; 14 pairs a few more but doubles the tables and their cold
#: build for no measured gain, 16 thrashes the cache (figures in
#: ``docs/benchmarks.md``, "Measured constants").
PROBE_BITS = 13

#: Payload bytes per span of probe windows.  A window is two bytes per
#: payload *bit*, so a decode holds 512 KiB of them however long its
#: scan is, and the windows it reads are the ones it has just built.
SPAN_BYTES = 1 << 15
#: Windows built past the end of a span, so that a block which starts
#: inside a span can finish in it: one block is at most 64 symbols of at
#: most 31 bits (16-bit code + 15-bit magnitude) — under 256 bytes.
_SPAN_MARGIN = 256

#: ``k_advance`` of a fused EOB entry: from any ``k`` it lands past the
#: last coefficient, which is what ends the block loop.
EOB_ADVANCE = 64
#: ``k_advance`` of a fused ZRL entry (sixteen zeros, nothing stored).
ZRL_ADVANCE = 16

#: What a reader that zero-feeds past its segment may consume: no limit.
_UNBOUNDED = 1 << 62

_AC_OVERRUN = "AC coefficient index overran the block"

#: The sequential Huffman cost model (Figure 7's slope and per-pixel
#: base re-expressed per MCU) in closed form: Eq 4's ``THuff`` without
#: a profiled platform.
HUFFMAN_NS_PER_BYTE = 13.0
HUFFMAN_NS_PER_MCU = 70.0


def modeled_entropy_us(nbytes: int, mcus: int) -> float:
    """Modelled sequential entropy-decode time (us) of *mcus* MCUs coded
    in *nbytes* bytes."""
    return (nbytes * HUFFMAN_NS_PER_BYTE + mcus * HUFFMAN_NS_PER_MCU) / 1e3


# ---------------------------------------------------------------------------
# Destuffing prescan.
# ---------------------------------------------------------------------------

class ScanPrescan:
    """One-pass digest of a byte-stuffed entropy-coded segment.

    ``payload`` holds the scan bytes with stuffing zeros and marker pairs
    removed — a contiguous buffer the bit reader can consume without any
    0xFF tests.  The marker index records every RSTn boundary (payload
    offset, marker byte, original-stream offset), and the piece tables
    map payload offsets back to original-stream offsets (for the
    row-byte-offset bookkeeping that drives Eq. 16/17).
    """

    def __init__(self, payload: bytes, terminator: int | None = None) -> None:
        """A digest of *payload* with empty indexes (:func:`destuff_scan`
        fills them as it goes)."""
        self.payload = payload
        self.marker_payload_offsets: list[int] = []
        self.marker_values: list[int] = []
        self.marker_orig_offsets: list[int] = []
        #: First non-RST event: a marker byte, TRUNCATED_FF, or None
        #: (clean end of data).  Nothing past it is ever decodable.
        self.terminator = terminator
        self.piece_payload_starts = [0]
        self.piece_orig_starts = [0]
        #: ``(span, windows)`` of the span built last, see :meth:`windows_at`.
        self._windows: tuple[int, memoryview] | None = None

    def orig_offset(self, payload_pos: int) -> int:
        """Original-stream byte offset equivalent to *payload_pos*."""
        j = bisect_right(self.piece_payload_starts, payload_pos) - 1
        return self.piece_orig_starts[j] + (
            payload_pos - self.piece_payload_starts[j])

    @property
    def restart_count(self) -> int:
        """Number of RSTn markers indexed by the prescan."""
        return len(self.marker_payload_offsets)

    def windows_at(self, bit: int) -> tuple[int, memoryview]:
        """Probe windows of the payload span that holds bit position
        *bit*, as ``(win0, win)``: ``win[p]`` is the ``PROBE_BITS`` bits
        at payload bit ``win0 + p``, for every bit of the span
        (``SPAN_BYTES`` from ``win0``) and ``_SPAN_MARGIN`` bytes past
        it.  Bits past the payload, and past the restart marker that
        ends the segment a window starts in, read as zero.

        Built on first use and kept until another span is asked for, so
        decoders that share a prescan build a span once.
        """
        span = bit // (SPAN_BYTES << 3)
        cached = self._windows
        if cached is None or cached[0] != span:
            cached = self._windows = (span, _probe_windows(self, span))
        return span * (SPAN_BYTES << 3), cached[1]

    def __getstate__(self) -> dict:
        """Pickle the digest, not the windows derived from it."""
        return {**self.__dict__, "_windows": None}


def _probe_windows(scan: ScanPrescan, span: int) -> memoryview:
    """Build the windows of :meth:`ScanPrescan.windows_at` for payload
    bytes ``[span * SPAN_BYTES, (span + 1) * SPAN_BYTES)``."""
    payload = scan.payload
    start = span * SPAN_BYTES
    n = max(0, min(len(payload) - start, SPAN_BYTES + _SPAN_MARGIN))
    b = np.zeros(n + 2, dtype=np.uint32)
    raw = np.frombuffer(payload, dtype=np.uint8)[start:start + n + 2]
    b[:raw.size] = raw
    # 24 bits from each byte on; bit offset r of byte i keeps 16 of them.
    v = (b[:-2] << 16) | (b[1:-1] << 8) | b[2:]
    win = np.empty((n, 8), dtype=np.uint16)
    for r in range(8):
        np.right_shift(v, 8 - r, out=win[:, r], casting="unsafe")
    flat = win.reshape(-1)
    flat >>= 16 - PROBE_BITS
    # A window j < PROBE_BITS bits before a restart marker keeps its j
    # real bits; what follows is the next segment, not the zeros the
    # reference reader feeds there.
    marks = scan.marker_payload_offsets
    ends = (np.asarray(marks[bisect_right(marks, start):
                             bisect_right(marks, start + n + 1)],
                       dtype=np.int64) - start) << 3
    if ends.size:
        for j in range(1, PROBE_BITS):
            at = ends - j
            flat[at[(at >= 0) & (at < flat.size)]] &= (
                0xFFFF << (PROBE_BITS - j)) & 0xFFFF
    return memoryview(flat)


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

    ``probe[w]`` for a ``PROBE_BITS``-wide window *w* is the complete,
    ready-to-use outcome of decoding the symbol(s) whose code *and*
    magnitude bits fit in the window: per symbol a triple ``(bits,
    k_advance, value)``, the bits the reader consumes (code plus
    magnitude), how far the zig-zag index moves and the EXTENDed value.
    By role:

    - ``"ac"``, baseline AC: a coefficient after ``run`` zeros advances
      ``run + 1`` (the store then indexes ``_ZIGZAG_AFTER``), ZRL
      :data:`ZRL_ADVANCE` and EOB :data:`EOB_ADVANCE`, past any block; a
      value of 0 is EOB or ZRL (EXTEND never makes one).  A coefficient
      is followed by the triple of the symbol behind it where both fit,
      anything else by ``(0, 0, 0)``, which the loop applies blindly —
      but never behind zig-zag 63: those bits are the next block's DC.
    - ``"dc"``, progressive DC scans: ``(bits, 1, difference)``.  A
      baseline block opens on its :func:`head_probe` instead.
    - ``"ac_first"`` / ``"ac_refine"``, progressive AC scans
      (:mod:`~repro.jpeg.progressive`): one triple, as in ``"ac"`` (a
      refinement value is the new coefficient's sign; other sizes are
      not fused), or EOBn as ``(bits, 0, blocks)``: *bits* covers the
      code and its ``n`` run bits, *blocks* is how many blocks end here,
      this one included (``2**n`` plus the run bits), and the 0 advance
      tells it from a coefficient.

    ``None`` means "not resolvable in one probe": the decoder falls
    back to the careful helpers, which use ``lookup``
    (``LOOKUP_BITS``-wide, ``(length << 8) | symbol``, magnitude read
    separately) and the MINCODE/MAXCODE walk for longer codes.  Symbols
    the reference decoder would reject (DC category > 11, AC size-0
    symbols other than EOB/ZRL) are never fused in any slot, so the
    fallback path raises the exact reference errors.
    """

    __slots__ = ("spec", "role", "_probe", "lookup", "mincode", "maxcode",
                 "valptr", "values")

    def __init__(self, spec: HuffmanSpec, role: str) -> None:
        """Build the symbol-at-a-time tables for *spec* acting as *role*;
        :attr:`probe` is left to its first use."""
        self.spec = spec
        self.role = role
        self._probe: list | None = None
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
        lens, starts, syms = _canonical(spec)
        owner = _window_owners(starts, LOOKUP_BITS)
        self.lookup = np.where(
            lens[owner] <= LOOKUP_BITS, (lens[owner] << 8) | syms[owner], 0
        ).tolist()

    @property
    def probe(self) -> list:
        """The ``PROBE_BITS``-wide table, built on first use: it is the
        cold cost of a table (0.6-0.8 ms, 1.8-3.1 ms for the first one a
        process builds), and not every role of every DHT slot a stream
        defines is decoded through."""
        if self._probe is None:
            cols = list(_columns(self.spec, self.role))
            if self.role == "ac":   # pair each coefficient with what follows
                bits, adv, val = cols
                rest = _behind(bits)
                paired = (val != 0) & (bits[rest] > 0) & (
                    bits + bits[rest] <= PROBE_BITS)
                cols += [bits[rest] * paired, adv[rest] * paired,
                         val[rest] * paired]
            self._probe = _entries(cols)
        return self._probe


def _canonical(spec: HuffmanSpec):
    """``(lens, starts, syms)`` of *spec*'s symbols in canonical order.
    Canonical codes fill the code space in order, so symbol i owns the
    16-bit-aligned range ``[starts[i], starts[i + 1])``; whatever no
    code owns goes to a sentinel of length 17, too long for any window.
    """
    lens = np.repeat(np.arange(1, MAX_CODE_LENGTH + 2, dtype=np.int32),
                     spec.bits + (1,))
    starts = np.zeros(lens.size, dtype=np.int32)
    np.cumsum(1 << (MAX_CODE_LENGTH - lens[:-1]), out=starts[1:])
    return lens, starts, np.array(spec.values + (0,), dtype=np.int32)


def _window_owners(starts: np.ndarray, width: int) -> np.ndarray:
    """Index of the symbol whose code range holds each *width*-bit
    window (left-aligned to 16 bits), for all ``1 << width`` windows."""
    shift = MAX_CODE_LENGTH - width
    edges = (starts + ((1 << shift) - 1)) >> shift
    return np.repeat(np.arange(starts.size, dtype=np.int32),
                     np.diff(edges, append=1 << width))


def _columns(spec: HuffmanSpec, role: str):
    """Single-symbol decode of every ``PROBE_BITS`` window by *spec* in
    *role*, vectorised: arrays ``(bits, advance, value)`` over the
    windows, all 0 where no acceptable symbol fits the window."""
    lens, starts, syms = _canonical(spec)
    width = PROBE_BITS
    if role == "dc":
        size, advance = syms, (syms <= 11).astype(np.int32)
        fused = advance > 0
    else:
        size = syms & 15
        advance = np.where(size > 0, (syms >> 4) + 1, 0)
        advance[syms == ZRL_SYMBOL] = ZRL_ADVANCE
        if role == "ac":
            advance[syms == EOB_SYMBOL] = EOB_ADVANCE
            fused = advance > 0
        else:   # progressive: every size-0 symbol but ZRL is an EOBn
            fused = size <= (1 if role == "ac_refine" else 15)
    eobn = fused & (advance == 0)   # reads its run length, r raw bits
    size = np.where(eobn, syms >> 4, size)
    total = lens + size
    fused &= total <= width
    total, advance, size = total * fused, advance * fused, size * fused
    eobn &= fused
    full = (1 << size) - 1      # magnitude mask, and EXTEND's offset
    half = ((1 << size) >> 1) * ~eobn   # magnitudes below it are negative
    floor = eobn << size        # an EOBn run of r bits starts at 2**r

    owner = _window_owners(starts, width)
    bits, adv = total[owner], advance[owner]
    m = (np.arange(1 << width, dtype=np.int32) >> (width - bits)) & full[owner]
    return bits, adv, m - (m < half[owner]) * full[owner] + floor[owner]


def _behind(bits: np.ndarray) -> np.ndarray:
    """Each window shifted past its first *bits*, zero-filled."""
    return (np.arange(bits.size, dtype=np.int32) << bits) & (bits.size - 1)


def _entries(cols: list) -> list:
    """A probe table: the tuple of per-window *cols* for every window,
    one tuple per run of equal windows, and None where ``cols[0]``, the
    bits consumed, is 0."""
    change = np.zeros(cols[0].size, dtype=bool)
    change[0] = True
    for c in cols:
        change[1:] |= c[1:] != c[:-1]
    first = np.flatnonzero(change)
    entries = np.fromiter(zip(*(c[first].tolist() for c in cols)),
                          dtype=object, count=first.size)
    entries[cols[0][first] == 0] = None
    return np.repeat(entries, np.diff(first, append=change.size)).tolist()


_TABLE_CACHE: dict[tuple, FusedDecodeTables | list] = {}
_TABLE_CACHE_LOCK = threading.Lock()

#: Cache bound: per-image optimized tables would otherwise accumulate
#: without limit in a long-running decode service.
_TABLE_CACHE_MAX = 64


def _cached(key: tuple, build):
    """``build()``, kept in the table cache under *key*.  The cache is
    LRU-bounded at ``_TABLE_CACHE_MAX`` entries (a hit moves its entry
    to the young end of the dict), so per-image optimized tables cannot
    leak memory in long-lived processes and the Annex-K tables nearly
    every image uses are never the ones evicted.  Lookup, refresh and
    eviction run under one lock (``thread``-backend workers share the
    cache); the build itself runs outside it."""
    with _TABLE_CACHE_LOCK:
        tab = _TABLE_CACHE.pop(key, None)
        if tab is not None:
            _TABLE_CACHE[key] = tab
            return tab
    tab = build()
    with _TABLE_CACHE_LOCK:
        _TABLE_CACHE[key] = tab
        while len(_TABLE_CACHE) > _TABLE_CACHE_MAX:
            del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    return tab


def fused_tables(spec: HuffmanSpec, role: str) -> FusedDecodeTables:
    """Build (or fetch cached) fused tables for *spec* in *role*."""
    return _cached((spec, role), lambda: FusedDecodeTables(spec, role))


def head_probe(dc: HuffmanSpec, ac: HuffmanSpec) -> list:
    """Build (or fetch cached) the head probe of baseline blocks coded
    by *dc* and *ac*: ``head[w]`` is ``(bits, diff, k, i, v)``, the bits
    the reader consumes, the DC difference and the zig-zag index *k*
    after the head.  *k* is 1 when only the DC symbol fits the window;
    where the first AC symbol fits too, *k* is past it and a coefficient
    stores *v* at natural index *i*; where an EOB ends the block (that
    symbol, or one closing the coefficient) *k* is :data:`EOB_ADVANCE`.
    Without a coefficient *v* is 0 and *i* 1: the store is blind, and
    the plane is still zero there.  None where the DC symbol is not
    fused, as in the ``"dc"`` probe."""
    def build() -> list:
        bits, _, diff = _columns(dc, "dc")
        abits, adv, val = _columns(ac, "ac")
        rest = _behind(bits)
        fits = (bits > 0) & (abits[rest] > 0) & (
            bits + abits[rest] <= PROBE_BITS)
        bits, k, v = (bits + abits[rest] * fits, 1 + adv[rest] * fits,
                      val[rest] * fits)
        rest = _behind(bits)    # an EOB closes a coefficient, not a ZRL
        eob = (v != 0) & (adv[rest] == EOB_ADVANCE) & (
            bits + abits[rest] <= PROBE_BITS)
        i = np.where(v != 0, np.array(_ZIGZAG_AFTER)[np.minimum(k, 64)], 1)
        return _entries([bits + abits[rest] * eob, diff, np.where(
            eob, EOB_ADVANCE, np.minimum(k, EOB_ADVANCE)), i, v])
    return _cached((dc, ac), build)


# ---------------------------------------------------------------------------
# Careful helpers.
#
# The probe is exact only while the reference reader could neither pad
# nor raise inside its window.  Everything else — the last bits of a
# segment, a symbol the probe does not resolve — goes through these
# helpers, which read their few bits straight from the payload at bit
# position ``p`` and emulate BitReader's exact peek/read/zero-feed
# semantics, so adversarial streams fail with the same exceptions in
# both engines.  They are valid anywhere in a segment.
# ---------------------------------------------------------------------------

def _bits_at(payload: bytes, p: int, n: int, seg_bits: int) -> int:
    """The *n* (at most 32) bits at bit position *p* of *payload*.
    Bits at or past *seg_bits*, the (byte-aligned) end of the segment,
    read as zero: the reference reader's zero feed or pad."""
    i = p >> 3
    stop = i + 5
    if stop <= seg_bits >> 3:
        word = int.from_bytes(payload[i:stop], "big")
    elif p < seg_bits:
        word = int.from_bytes(payload[i:seg_bits >> 3], "big") << (
            (stop << 3) - seg_bits)
    else:
        return 0
    return (word >> (40 - (p & 7) - n)) & ((1 << n) - 1)


def _exhausted(trunc: bool) -> BitstreamError:
    """What the reference reader raises when asked for bits it has not."""
    return BitstreamError("truncated stream after 0xFF" if trunc
                          else "bitstream exhausted")


def _careful_symbol(p: int, seg_bits: int, zero_feed: bool, trunc: bool,
                    payload: bytes, tab: FusedDecodeTables):
    """Decode one symbol at *p* with reference peek/pad semantics.

    Returns ``(symbol, p, avail)``.  *avail* is the bit position up to
    which the reference reader holds bits after this symbol — it pads
    its ``LOOKUP_BITS`` peek with zeros at the end of the data, and
    reads behind the symbol may use up that padding before they raise:
    hand it to :func:`_careful_read_bits`.
    """
    if zero_feed:
        avail = _UNBOUNDED
    elif p + LOOKUP_BITS <= seg_bits:
        avail = seg_bits
    else:
        avail = p + LOOKUP_BITS     # the reference pads its peek
    code = _bits_at(payload, p, MAX_CODE_LENGTH, seg_bits)
    packed = tab.lookup[code >> (MAX_CODE_LENGTH - LOOKUP_BITS)]
    if packed:
        return packed & 0xFF, p + (packed >> 8), avail
    # slow path: the peeked bits are consumed, then one bit at a time
    maxcode = tab.maxcode
    for length in range(LOOKUP_BITS + 1, MAX_CODE_LENGTH + 1):
        if p + length > avail:
            raise _exhausted(trunc)
        c = code >> (MAX_CODE_LENGTH - length)
        if c <= maxcode[length]:
            sym = tab.values[tab.valptr[length] + c - tab.mincode[length]]
            return sym, p + length, avail
    raise HuffmanError("undecodable Huffman code")


def _careful_read_bits(n: int, p: int, avail: int, seg_bits: int,
                       trunc: bool, payload: bytes):
    """read_bits(n) at *p* with reference exhaustion semantics: raises
    when the read runs past *avail* (see :func:`_careful_symbol`; the
    end of the segment when no symbol was decoded in it yet).

    Returns ``(value, p)``.
    """
    if p + n > avail:
        raise _exhausted(trunc)
    return _bits_at(payload, p, n, seg_bits), p + n


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


def _careful_dc(p: int, seg_bits: int, zero_feed: bool, trunc: bool,
                payload: bytes, tab: FusedDecodeTables,
                tolerant: "_Passed | None"):
    """Decode one DC difference at *p* with reference semantics — the
    path of every DC symbol the probe does not resolve.

    Returns ``(diff, p)``.
    """
    s, p, avail = _careful_symbol(p, seg_bits, zero_feed, trunc, payload, tab)
    if s > 11:
        _pass_or_raise(tolerant, f"DC category {s} out of range")
        s = 0
    if s == 0:
        return 0, p
    m, p = _careful_read_bits(s, p, avail, seg_bits, trunc, payload)
    return extend(m, s), p


def _careful_ac(k: int, p: int, seg_bits: int, zero_feed: bool, trunc: bool,
                payload: bytes, tab: FusedDecodeTables,
                tolerant: "_Passed | None"):
    """Decode one AC symbol at *p*, zig-zag index *k*, with reference
    semantics — the path of the symbols the probe does not resolve and
    of the last ones of a segment, where the reader may pad or raise.

    Returns ``(k, value, p)`` with *k* advanced the way a fused entry
    advances it: past the coefficient when *value* is non-zero (store it
    at ``_ZIGZAG_AFTER[k]``), by 16 for ZRL, to :data:`EOB_ADVANCE` when
    the block ends here.
    """
    sym, p, avail = _careful_symbol(
        p, seg_bits, zero_feed, trunc, payload, tab)
    size = sym & 0x0F
    if size == 0:
        if sym == ZRL_SYMBOL:
            return k + ZRL_ADVANCE, 0, p
        if sym != EOB_SYMBOL:
            _pass_or_raise(tolerant, f"bad AC symbol {sym:#x}")
        return EOB_ADVANCE, 0, p
    k += (sym >> 4) + 1
    if k > 64:
        _pass_or_raise(tolerant, _AC_OVERRUN)
    m, p = _careful_read_bits(size, p, avail, seg_bits, trunc, payload)
    if k > 64:
        return EOB_ADVANCE, 0, p
    return k, extend(m, size), p


def _segment_bounds(scan: ScanPrescan, rst_idx: int):
    """``(seg_bits, zero_feed, trunc)`` of the segment that ends at
    restart marker *rst_idx* (or at the end of the payload): the bit
    position where it ends and how the reference reader behaves there —
    it zero-feeds at a marker and raises on exhaustion or a truncated
    ``0xFF`` pair."""
    if rst_idx < scan.restart_count:
        return scan.marker_payload_offsets[rst_idx] << 3, True, False
    term = scan.terminator
    return (len(scan.payload) << 3,
            term is not None and term != TRUNCATED_FF,
            term == TRUNCATED_FF)


def _next_segment(scan: ScanPrescan, rst_idx: int, first_restart: int):
    """Cross restart marker *rst_idx*: check it is there and in
    sequence, byte-align just past it.  *first_restart* is the position
    of the prescan's first marker in its scan's RST0..RST7 cycle (not 0
    for a run of restart segments cut out of a longer scan).

    Returns ``(p, seg_bits, zero_feed, trunc)`` of the segment behind
    the marker; the caller clears the DC predictors.
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
    return (scan.marker_payload_offsets[rst_idx] << 3,
            *_segment_bounds(scan, rst_idx + 1))


def _probe_end(seg_bits: int, zero_feed: bool) -> int:
    """Last bit position of a segment at which the probe is exact.  At
    a marker the windows are zero-filled like the reference's feed, so
    every real bit qualifies; where the data just ends the reference
    pads or raises, and only a window of real bits is safe."""
    return seg_bits - 1 if zero_feed else seg_bits - PROBE_BITS


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------

class FastEntropyDecoder:
    """Drop-in fast replacement for :class:`EntropyDecoder`.

    Same constructor, lifecycle and outputs as the reference engine, but
    :attr:`row_byte_offsets` reports the *minimal* byte count covering
    the bits consumed (the reference's fill position can run a byte or
    two ahead); both keep the bounds the partitioner relies on.
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

        *tolerant* is for speculative decoding: a mid-stream guess parses
        garbage until it self-synchronizes, and that garbage routinely
        overruns blocks or overflows the int16 DC range.  AC overruns and
        bad AC symbols then end the block and out-of-range DC categories
        decode as empty, each counted (:attr:`run_passed` says in which
        MCU of a run: after the guess has synchronised the error is the
        stream's own), and DC stores wrap modulo 2**16, as the
        stitcher's DC-delta patch does.  Undecodable codes still raise:
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
        self._heads = [head_probe(t.dc, t.ac) for t in tables]
        self._scan: ScanPrescan | None = None
        #: The reader: bits of the payload consumed so far.  It runs
        #: past ``_seg_bits`` when a decode consumes the zeros the
        #: reference reader feeds behind a marker.
        self._p = 0
        self._seg_bits = 0
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
        self._attach(destuff_scan(entropy_data), 0, 0, first_restart)

    def start_prescanned(self, scan: ScanPrescan, bit_offset: int = 0) -> None:
        """Attach an existing prescan and start decoding at *bit_offset*.

        The speculative engine shares one prescan across many chunk
        decoders (:meth:`start` would destuff a payload a second time and
        misread its 0xFF data bytes as markers).  *bit_offset* is an
        absolute bit position into ``scan.payload``, and
        :attr:`bit_position` starts out equal to it.  Restart sequencing
        is checked from offset 0 only; speculative starts target
        marker-free scans.
        """
        if not 0 <= bit_offset <= len(scan.payload) * 8:
            raise EntropyError(
                f"bit offset {bit_offset} outside the "
                f"{len(scan.payload)}-byte payload")
        self._attach(scan, bit_offset, bisect_right(
            scan.marker_payload_offsets, bit_offset >> 3), 0)

    def _attach(self, scan: ScanPrescan, bit_offset: int, rst_idx: int,
                first_restart: int) -> None:
        """Point the reader at *bit_offset* of *scan*, in the segment
        that restart marker *rst_idx* ends, and reset all decoding
        state.  The probe windows are left to the first decode call,
        which is what the ``entropy`` stage times."""
        self._scan = scan
        self._p = bit_offset
        self._first_restart = first_restart
        self._rst_idx = rst_idx
        self._seg_bits, self._seg_zero_feed, self._seg_trunc = (
            _segment_bounds(scan, self._rst_idx))
        self._preds = [0] * len(self._preds)
        self._mcus_done = 0
        self._rows_done = 0
        self._row_byte_offsets = [scan.orig_offset(bit_offset >> 3)]
        self._bind_planes()

    def _bind_planes(self) -> None:
        """Allocate the coefficient planes and lay out the block walk.

        ``_row_plan[mcol]`` lists the blocks of MCU column *mcol* in
        decode order as ``(component, offset, view, head probe, ac probe,
        dc tables, ac tables)``: *offset* is the block's first
        coefficient relative to the start of its MCU row, *view* a typed
        ``memoryview`` of the flattened int16 plane.  Computed once per
        decode, so the hot loop pays one addition per block for
        addressing.
        """
        geo = self.geometry
        self.coefficients = CoefficientBuffers.empty(geo)
        views = [memoryview(p.reshape(-1)) for p in self.coefficients.planes]
        self._row_steps = [(c.v_factor * c.blocks_wide) << 6
                           for c in geo.components]
        self._row_plan = [
            tuple(
                (ci, ((v * c.blocks_wide + mcol * c.h_factor + h) << 6),
                 views[ci], head, act.probe, dct, act)
                for ci, (c, head, dct, act) in enumerate(zip(
                    geo.components, self._heads, self._dc_tables,
                    self._ac_tables))
                for v in range(c.v_factor)
                for h in range(c.h_factor))
            for mcol in range(geo.mcus_per_row)
        ]

    def _mark_row_end(self, bit: int) -> None:
        """Record the original-stream offset reached after an MCU row:
        the bytes that cover the *bit* payload bits consumed."""
        off = self._scan.orig_offset((bit + 7) >> 3)
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

        Zeros fed behind a marker are not payload and are excluded, so
        two decoders standing at the same :attr:`bit_position` are in
        the same bitstream state — the convergence predicate the
        speculative engine matches on.
        """
        return min(self._p, self._seg_bits)

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

        One flat loop over locals: the reader is the bit position ``p``
        (relative to ``win0``, the first bit of the current span of
        probe windows), a block opens on one head probe and goes on in
        AC probes of up to two symbols, each one tuple unpack, and
        coefficients are stored through typed ``memoryview``s of the
        planes.  Everything rare is a call to a module-level helper.
        """
        if self._scan is None:
            raise EntropyError("start() must be called before decoding")
        target = min(self._rows_done + nrows, self.geometry.mcu_rows)
        interval = self.restart_interval
        scan = self._scan
        payload = scan.payload
        tolerant = self._passed     # None = strict
        preds = self._preds
        row_steps = self._row_steps
        zz_after = _ZIGZAG_AFTER
        span_bits = SPAN_BYTES << 3

        # Reader state -> locals.
        seg_bits, zero_feed, trunc = (
            self._seg_bits, self._seg_zero_feed, self._seg_trunc)
        win0, win = scan.windows_at(self._p)
        p = self._p - win0
        probe_end = _probe_end(seg_bits, zero_feed) - win0
        rst_idx = self._rst_idx
        mcus_done = self._mcus_done
        rows_done = self._rows_done
        run_hook = self._run_hook

        while rows_done < target:
            origins = [rows_done * step for step in row_steps]
            for mcu in self._row_plan:
                if interval and mcus_done and mcus_done % interval == 0:
                    p, seg_bits, zero_feed, trunc = _next_segment(
                        scan, rst_idx, self._first_restart)
                    rst_idx += 1
                    p -= win0
                    probe_end = _probe_end(seg_bits, zero_feed) - win0
                    preds[:] = [0] * len(preds)
                for ci, rel, out, h_probe, a_probe, dct, act in mcu:
                    base = origins[ci] + rel
                    if not 0 <= p < span_bits:
                        # The block starts in another span (a restart
                        # can also lead back, behind fed zeros): roll.
                        p += win0
                        win0, win = scan.windows_at(p)
                        p -= win0
                        probe_end = _probe_end(seg_bits, zero_feed) - win0

                    # ------- DC, and the AC symbols behind it -------
                    e = h_probe[win[p]] if p <= probe_end else None
                    if e is not None:
                        bits, diff, k, i, v = e
                        p += bits
                    else:
                        diff, p = _careful_dc(
                            win0 + p, seg_bits, zero_feed, trunc, payload,
                            dct, tolerant)
                        p -= win0
                        k, i, v = 1, 1, 0
                    pred = preds[ci] = preds[ci] + diff
                    if -32768 <= pred <= 32767:
                        out[base] = pred
                    elif tolerant is not None:
                        # Garbage prefixes drift the predictor past
                        # int16; wrap like the modular DC-delta patch.
                        out[base] = ((pred + 32768) & 65535) - 32768
                    else:
                        raise dc_range_error(pred)
                    out[base + i] = v

                    # ---------------- AC ----------------
                    while k < 64:
                        if p <= probe_end:
                            e = a_probe[win[p]]
                            if e is not None:
                                bits, advance, val, bits2, advance2, val2 = e
                                p += bits
                                k += advance     # EOB: past 63; ZRL: 16
                                if val:
                                    try:    # k past 64 overruns zz_after
                                        out[base + zz_after[k]] = val
                                        if k < 64:
                                            # Not the block's last: the
                                            # second symbol is an AC one.
                                            p += bits2
                                            k += advance2
                                            if val2:
                                                out[base + zz_after[k]] = val2
                                    except IndexError:
                                        _pass_or_raise(tolerant, _AC_OVERRUN)
                                        break
                                continue
                        k, val, p = _careful_ac(
                            k, win0 + p, seg_bits, zero_feed, trunc, payload,
                            act, tolerant)
                        p -= win0
                        if val:
                            out[base + zz_after[k]] = val
                mcus_done += 1
            rows_done += 1
            bit = min(win0 + p, seg_bits)   # fed zeros are not payload
            if run_hook is None:
                self._mark_row_end(bit)
            elif run_hook(bit):
                break

        # Locals -> state.
        self._p = win0 + p
        self._seg_bits, self._seg_zero_feed, self._seg_trunc = (
            seg_bits, zero_feed, trunc)
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
        stitcher synchronises on.  Decode errors propagate, the record
        holding the MCUs completed before the error.

        This is :meth:`decode_mcu_rows` itself — a strip's MCU row is
        one MCU — with the stop rule and the record hooked into its
        per-row epilogue: a run pays one closure call per MCU.
        """
        positions = self.run_positions = []
        predictors = self.run_predictors = []
        passed_after = self.run_passed = []
        limit = float("inf") if limit_bit is None else limit_bit
        preds, passed = self._preds, self._passed

        def after_mcu(bit: int) -> bool:
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

#: Engine names: ``fast`` is the default everywhere; ``reference`` is
#: the retained oracle the property tests compare against, loaded only
#: when it is asked for.
ENTROPY_ENGINES = ("fast", "reference")


def create_entropy_decoder(
    engine: str,
    geometry: ImageGeometry,
    tables: list[ComponentTables],
    restart_interval: int = 0,
):
    """Instantiate the entropy engine named *engine*."""
    if engine == "fast":
        return FastEntropyDecoder(geometry, tables, restart_interval)
    if engine == "reference":
        from .entropy import EntropyDecoder
        return EntropyDecoder(geometry, tables, restart_interval)
    raise EntropyError(
        f"unknown entropy engine {engine!r} "
        f"(choose from {sorted(ENTROPY_ENGINES)})")
