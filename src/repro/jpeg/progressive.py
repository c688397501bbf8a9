"""Progressive JPEG scan coding (ITU-T T.81 Annex G, Huffman path).

A progressive (SOF2) stream splits the coefficient data over many
scans: a DC scan per successive-approximation stage (interleaved over
components), and per-component AC scans covering a spectral band
[Ss, Se] at one approximation stage.  This module implements both
directions:

- :class:`ProgressiveDecoder` accumulates every scan of a parsed
  :class:`~repro.jpeg.markers.JpegImageInfo` into one
  :class:`~repro.jpeg.coefficients.CoefficientBuffers`.  The Huffman-coded
  scans are read the way the baseline engine reads its one scan: a bit
  position in a local over the probe windows of the destuffed payload,
  one table hit per symbol (:mod:`~repro.jpeg.fast_entropy`); AC
  refinement walks each block's history nonzeros instead of its band.
  DC refinement scans — one raw bit per block, no Huffman codes — are
  decoded fully vectorized over the coefficient planes.
- :func:`encode_progressive_scans` emits the inverse: a deterministic
  scan script (DC first, per-component spectral bands, then one
  refinement pass each) with per-scan optimized Huffman tables, so a
  progressive re-encode of any baseline image carries the *identical*
  quantized coefficients and decodes pixel-identical to its twin.

The algorithms follow the successive-approximation semantics of
libjpeg's jdphuff.c/jcphuff.c, which are the de-facto reading of
Annex G: refinement bits are appended to already-nonzero history
coefficients, EOB runs span up to 32767 blocks, and correction bits
buffered within a block are flushed after the next emitted symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BitstreamError, EntropyError, JpegFormatError
from .bitstream import BitWriter, HuffmanEncoder
from .blocks import ImageGeometry, ceil_div
from .constants import ZIGZAG_ORDER
from .coefficients import CoefficientBuffers
from .fast_entropy import (SPAN_BYTES, TRUNCATED_FF, ZRL_ADVANCE,
                           FusedDecodeTables, ScanPrescan, _AC_OVERRUN,
                           _UNBOUNDED, _ZIGZAG_AFTER, _careful_dc,
                           _careful_read_bits, _careful_symbol, _exhausted,
                           _probe_end, _segment_bounds, destuff_scan,
                           fused_tables)
from .huffman import (HuffmanSpec, encode_magnitude, extend,
                      spec_from_frequencies)
from .markers import JpegImageInfo, ScanComponent, ScanInfo

_ZIGZAG = tuple(int(i) for i in ZIGZAG_ORDER)

#: Largest EOB run one EOBn symbol can carry (T.81 G.1.2.2).
MAX_EOBRUN = 0x7FFF

#: Refinement correction bits buffered per scan before an EOB flush is
#: forced (libjpeg's MAX_CORR_BITS minus one block's worst case).
_MAX_CORR_BITS = 1000 - 64 + 1

#: Spectral bands of the default encoder scan script.  Two bands per
#: component exercise the band-selection logic without exploding the
#: scan count.
DEFAULT_BANDS = ((1, 5), (6, 63))

#: Successive-approximation depth of the default script: first passes
#: send coefficients down-shifted by this many bits, one refinement
#: pass restores them.
DEFAULT_POINT_TRANSFORM = 1


def _used_grid(cg) -> tuple[int, int]:
    """Blocks the standard actually codes in a non-interleaved scan:
    the component's own ceil(size/8) grid, which can be narrower than
    the MCU-padded plane."""
    return ceil_div(cg.width, 8), ceil_div(cg.height, 8)


def _scan_units(geo: ImageGeometry, comps: list[int]) -> int:
    """Units a scan over *comps* codes — what a restart interval
    counts: MCUs when interleaved, else the component's used blocks."""
    if len(comps) > 1:
        return geo.total_mcus
    uw, uh = _used_grid(geo.components[comps[0]])
    return uw * uh


def _block_order(geo: ImageGeometry,
                 comps: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Block emission order of a scan over *comps* as two arrays,
    ``(scan component index, flat block index)`` per block: MCU-major
    when interleaved, else raster order over the used grid."""
    if len(comps) == 1:
        cg = geo.components[comps[0]]
        uw, uh = _used_grid(cg)
        flat = np.arange(uh)[:, None] * cg.blocks_wide + np.arange(uw)
        return np.zeros(uw * uh, dtype=np.intp), flat.reshape(-1)
    mrow, mcol = np.divmod(np.arange(geo.total_mcus), geo.mcus_per_row)
    comp_of, flat_of = [], []
    for k, ci in enumerate(comps):
        cg = geo.components[ci]
        inside = (np.arange(cg.v_factor)[:, None] * cg.blocks_wide
                  + np.arange(cg.h_factor)).reshape(-1)
        origin = mrow * (cg.v_factor * cg.blocks_wide) + mcol * cg.h_factor
        flat_of.append(origin[:, None] + inside)
        comp_of.append(np.full(flat_of[-1].shape, k, dtype=np.intp))
    return (np.concatenate(comp_of, axis=1).reshape(-1),
            np.concatenate(flat_of, axis=1).reshape(-1))


def _restart_segments(units: int, interval: int) -> list[tuple[int, int]]:
    """``(first unit, stop unit)`` of each restart segment of a scan."""
    step = interval or max(units, 1)
    return [(u, min(u + step, units)) for u in range(0, units, step)]


# ---------------------------------------------------------------------------
# Decoder.
#
# The three Huffman-coded scan loops below follow the discipline of
# ``FastEntropyDecoder.decode_mcu_rows``: the reader is one bit position
# ``p`` held in a local (relative to ``win0``, the first bit of the
# current span of probe windows), a symbol is one ``probe[win[p]]`` hit,
# coefficients are stored through a typed ``memoryview`` of the flat
# plane, and every rare position — the last bits of a segment, a symbol
# the probe does not resolve — goes through the module-level careful
# helpers, which read the payload at ``p`` with the reference reader's
# pad / zero-feed / raise rules.
# ---------------------------------------------------------------------------

def _span(scan: ScanPrescan, p: int, seg_bits: int, zero_feed: bool):
    """The probe windows that hold absolute bit position *p*, as
    ``(win0, win, p - win0, probe_end)``: the reader's position and the
    last position at which the probe is exact, both relative to
    ``win0``.  The margin behind a span covers one block (or MCU), so a
    loop asks again per block, when ``p`` has left ``[0, span bits)``.
    """
    win0, win = scan.windows_at(p)
    return win0, win, p - win0, _probe_end(seg_bits, zero_feed) - win0


def _enter_segment(scan: ScanPrescan, seg: int):
    """Stand at the first bit of restart segment *seg* of *scan*.

    Returns ``(win0, win, p, probe_end, seg_bits, zero_feed, trunc)``:
    :func:`_span` of the segment's first bit, then how it ends.  A
    progressive scan only counts its markers, it does not check their
    RSTn sequence.
    """
    if seg > scan.restart_count:
        raise EntropyError("missing restart marker in progressive scan")
    p = scan.marker_payload_offsets[seg - 1] << 3 if seg else 0
    seg_bits, zero_feed, trunc = _segment_bounds(scan, seg)
    return (*_span(scan, p, seg_bits, zero_feed), seg_bits, zero_feed, trunc)


def _careful_ac_prog(refining: bool, k: int, last: int, p: int,
                     seg_bits: int, zero_feed: bool, trunc: bool,
                     payload: bytes, tab: FusedDecodeTables):
    """Decode one progressive AC symbol at *p* with reference semantics
    — the path of the symbols the probe does not resolve and of the
    last ones of a segment, where the reader may pad or raise.

    Returns ``(advance, value, p, avail)``, the first two as a fused
    ``ac_first`` / ``ac_refine`` entry has them; *avail* is how far raw
    reads behind this symbol may go (see ``_careful_symbol``).  In a
    first pass a coefficient that would land past zig-zag index
    ``last - 1`` from *k* raises before its magnitude is read.
    """
    sym, p, avail = _careful_symbol(p, seg_bits, zero_feed, trunc, payload,
                                    tab)
    r, s = sym >> 4, sym & 0x0F
    if s:
        if refining:
            if s != 1:
                raise EntropyError(f"bad AC refinement symbol {sym:#x}")
        elif k + r + 1 > last:
            raise EntropyError(_AC_OVERRUN)
        m, p = _careful_read_bits(s, p, avail, seg_bits, trunc, payload)
        return r + 1, extend(m, s), p, avail
    if r == 15:
        return ZRL_ADVANCE, 0, p, avail
    blocks = 1 << r
    if r:
        m, p = _careful_read_bits(r, p, avail, seg_bits, trunc, payload)
        blocks += m
    return 0, blocks, p, avail


#: Where a recorded correction bit points when the reader fed it a zero
#: (past a restart marker, or in the padding behind the last symbol).
_FED_ZERO = -(1 << 40)


def _careful_corrections(m: int, p: int, avail: int, seg_bits: int,
                         trunc: bool, starts: list, counts: list) -> int:
    """Record *m* correction bits at *p* where the segment may end
    before the last of them: what *m* one-bit reads would do.  Bits up
    to *avail* exist (real up to *seg_bits*, fed zeros behind), the
    first one past it raises.  Returns the position behind the bits.
    """
    ok = min(m, max(0, avail - p))
    real = max(0, min(ok, seg_bits - p))
    if real:
        starts.append(p)
        counts.append(real)
    if ok > real:
        starts.append(_FED_ZERO)
        counts.append(ok - real)
    if ok < m:
        raise _exhausted(trunc)
    return p + m


def _apply_corrections(plane: np.ndarray, elems: np.ndarray, starts: list,
                       counts: list, payload: bytes, al: int) -> None:
    """Refine the history coefficients a scan passed: the i-th bit
    recorded in *starts* / *counts* (runs of consecutive payload bit
    positions) belongs to ``plane[elems[i]]``, and a set bit moves a
    coefficient whose bit *al* is clear away from zero by ``1 << al``
    (int16 arithmetic: a hostile -32768 wraps like every other store).
    """
    raw = np.frombuffer(payload, dtype=np.uint8)
    if not starts or not raw.size:
        return
    counts = np.asarray(counts, dtype=np.int64)
    ends = counts.cumsum()
    pos = (np.repeat(np.asarray(starts, dtype=np.int64) - (ends - counts),
                     counts) + np.arange(ends[-1]))
    real = pos >= 0
    pos *= real
    hit = elems[:pos.size][
        ((raw[pos >> 3] >> (7 - (pos & 7))) & real).astype(bool)]
    coef = plane[hit]
    move = (coef & (1 << al)) == 0
    step = np.int16(1 << al)
    plane[hit[move]] = coef[move] + np.where(coef[move] >= 0, step, -step)


class ProgressiveDecoder:
    """Accumulate every scan of a SOF2 stream into coefficient planes.

    Tracks (scan index, units completed) progress so the salvage path
    can localize a failure to the first undone MCU row.
    """

    def __init__(self, info: JpegImageInfo) -> None:
        self.info = info
        self.geometry = info.geometry
        self.coefficients = CoefficientBuffers.empty(self.geometry)
        self.scans_done = 0
        self.units_done = 0
        self._comp_index = {
            c.component_id: i
            for i, c in enumerate(info.frame.components)
        }
        #: The flat planes as unsigned 16-bit views: a store of
        #: ``value & 0xFFFF`` wraps into int16 range, the deterministic
        #: path of hostile magnitudes.
        self._views = [memoryview(p.reshape(-1).view(np.uint16))
                       for p in self.coefficients.planes]
        #: Block emission order per component set, see :meth:`_order`.
        self._orders: dict[tuple[int, ...], tuple] = {}

    def decode(self) -> CoefficientBuffers:
        """Decode every scan in stream order; returns the coefficients."""
        for si in self.info.scans:
            self.units_done = 0
            self.decode_scan(si)
            self.scans_done += 1
        return self.coefficients

    # -- per-scan dispatch ----------------------------------------------

    def _scan_components(self, si: ScanInfo) -> list[int]:
        comps = []
        for sc in si.header.components:
            if sc.component_id not in self._comp_index:
                raise JpegFormatError(
                    f"scan references unknown component {sc.component_id}")
            comps.append(self._comp_index[sc.component_id])
        return comps

    def _order(self, comps: list[int]):
        """``(units, scan component index, first coefficient)`` of a
        scan over *comps*: its unit count and, per block in emission
        order, which of the scan's components it belongs to and where
        it starts in that component's flat plane.  Computed once per
        decoder and component set."""
        key = tuple(comps)
        order = self._orders.get(key)
        if order is None:
            comp_of, flat_of = _block_order(self.geometry, comps)
            order = self._orders[key] = (
                _scan_units(self.geometry, comps), comp_of, flat_of << 6)
        return order

    def decode_scan(self, si: ScanInfo) -> None:
        """Decode one scan into the accumulated coefficient planes."""
        h = si.header
        comps = self._scan_components(si)
        prescan = destuff_scan(si.entropy)
        if h.is_dc:
            decode = self._decode_dc_refine if h.refining \
                else self._decode_dc_first
            decode(si, comps, prescan)
        else:
            decode = self._decode_ac_refine if h.refining \
                else self._decode_ac_first
            decode(si, comps[0], prescan)

    def failed_mcu_row(self, si: ScanInfo, units_done: int) -> int:
        """First MCU row a failed scan did not complete (for salvage)."""
        geo = self.geometry
        comps = [self._comp_index.get(sc.component_id, 0)
                 for sc in si.header.components]
        if len(comps) > 1:
            return min(units_done // geo.mcus_per_row, geo.mcu_rows)
        cg = geo.components[comps[0]]
        uw, _ = _used_grid(cg)
        brow = units_done // max(1, uw)
        vmax = geo.luma_factors[1]
        pixel_row = brow * 8 * (vmax // cg.v_factor)
        return min(pixel_row // geo.mcu_height, geo.mcu_rows)

    # -- DC scans --------------------------------------------------------

    def _decode_dc_first(self, si: ScanInfo, comps: list[int],
                         scan: ScanPrescan) -> None:
        al = si.header.al
        tabs = [fused_tables(si.dc_tables[sc.dc_table_id], "dc")
                for sc in si.header.components]
        probes = [tab.probe for tab in tabs]
        outs = [self._views[ci] for ci in comps]
        units, comp_of, first = self._order(comps)
        blocks = list(zip(comp_of.tolist(), first.tolist()))
        per_unit = len(blocks) // units
        payload = scan.payload
        span_bits = SPAN_BYTES << 3
        unit = 0
        try:
            for seg, (unit, stop) in enumerate(
                    _restart_segments(units, si.restart_interval)):
                (win0, win, p, probe_end, seg_bits, zero_feed,
                 trunc) = _enter_segment(scan, seg)
                preds = [0] * len(comps)
                for unit in range(unit, stop):
                    if not 0 <= p < span_bits:
                        win0, win, p, probe_end = _span(
                            scan, win0 + p, seg_bits, zero_feed)
                    for k, base in blocks[unit * per_unit:
                                          (unit + 1) * per_unit]:
                        e = probes[k][win[p]] if p <= probe_end else None
                        if e is not None:
                            bits, _, diff = e
                            p += bits
                        else:
                            diff, p = _careful_dc(
                                win0 + p, seg_bits, zero_feed, trunc,
                                payload, tabs[k], None)
                            p -= win0
                        pred = preds[k] = preds[k] + diff
                        outs[k][base] = (pred << al) & 0xFFFF
            unit = units
        finally:
            self.units_done = unit

    def _decode_dc_refine(self, si: ScanInfo, comps: list[int],
                          prescan: ScanPrescan) -> None:
        """Vectorized DC refinement: one raw bit per block, no Huffman.

        The whole scan is a packed bit sequence (per restart segment),
        so the plane update is three numpy operations: unpack the
        segment bytes, gather the bits in block-emission order, and OR
        ``bit << Al`` into the DC coefficients (two's complement makes
        the OR correct for negative values too).
        """
        al = si.header.al
        total_units, comp_of, first = self._order(comps)
        per_unit = first.size // total_units
        seg_starts = [0] + list(prescan.marker_payload_offsets)
        seg_ends = list(prescan.marker_payload_offsets) \
            + [len(prescan.payload)]
        zero_feed_tail = prescan.terminator is not None \
            and prescan.terminator != TRUNCATED_FF

        chunks: list[np.ndarray] = []
        for seg, (unit, stop) in enumerate(
                _restart_segments(total_units, si.restart_interval)):
            if seg >= len(seg_starts):
                raise EntropyError(
                    "missing restart marker in progressive scan")
            need = (stop - unit) * per_unit
            raw = np.frombuffer(
                prescan.payload, dtype=np.uint8,
                count=seg_ends[seg] - seg_starts[seg],
                offset=seg_starts[seg])
            bits = np.unpackbits(raw)
            if len(bits) < need:
                last = seg == len(seg_starts) - 1
                self.units_done = unit + len(bits) // per_unit
                if not last or zero_feed_tail:
                    bits = np.concatenate(
                        [bits, np.zeros(need - len(bits), dtype=np.uint8)])
                elif prescan.terminator == TRUNCATED_FF:
                    raise BitstreamError("truncated stream after 0xFF")
                else:
                    raise BitstreamError("bitstream exhausted")
            chunks.append(bits[:need])
        seq = np.concatenate(chunks)

        for k, ci in enumerate(comps):
            mask = comp_of == k
            self.coefficients.planes[ci].reshape(-1)[first[mask]] |= (
                seq[mask].astype(np.int16) << al)
        self.units_done = total_units

    # -- AC scans --------------------------------------------------------

    def _decode_ac_first(self, si: ScanInfo, ci: int,
                         scan: ScanPrescan) -> None:
        h = si.header
        ss, se, al = h.ss, h.se, h.al
        last = se + 1
        tab = fused_tables(si.ac_tables[h.components[0].ac_table_id],
                           "ac_first")
        probe = tab.probe
        out = self._views[ci]
        units, _, first = self._order([ci])
        bases = first.tolist()
        payload = scan.payload
        zz_after = _ZIGZAG_AFTER
        span_bits = SPAN_BYTES << 3
        unit = 0
        try:
            for seg, (unit, stop) in enumerate(
                    _restart_segments(units, si.restart_interval)):
                (win0, win, p, probe_end, seg_bits, zero_feed,
                 trunc) = _enter_segment(scan, seg)
                while unit < stop:
                    if not 0 <= p < span_bits:
                        win0, win, p, probe_end = _span(
                            scan, win0 + p, seg_bits, zero_feed)
                    base = bases[unit]
                    k = ss
                    while k <= se:
                        e = probe[win[p]] if p <= probe_end else None
                        if e is not None:
                            bits, advance, val = e
                            p += bits
                        else:
                            advance, val, p, _ = _careful_ac_prog(
                                False, k, last, win0 + p, seg_bits,
                                zero_feed, trunc, payload, tab)
                            p -= win0
                        if not advance:
                            # EOBn: val blocks end here, this one
                            # included; a restart marker cuts the run.
                            unit = unit + val if unit + val < stop else stop
                            break
                        k += advance     # ZRL: 16, nothing stored
                        if val:
                            if k > last:
                                raise EntropyError(_AC_OVERRUN)
                            out[base + zz_after[k]] = (val << al) & 0xFFFF
                    else:
                        unit += 1
        finally:
            self.units_done = unit

    def _decode_ac_refine(self, si: ScanInfo, ci: int,
                          scan: ScanPrescan) -> None:
        """Refinement of one band: new coefficients of magnitude
        ``1 << Al`` between the history nonzeros, one correction bit
        for every history nonzero passed.

        The history — the band positions that were nonzero before this
        scan, in the order the scan passes them — is one ``np.nonzero``
        up front: a block is visited once per scan and the scan only
        moves forward in it, so the list cannot go stale.  A run of
        zeros is then arithmetic between consecutive history entries,
        and the correction bits, which sit in the stream in that same
        order, are only located here (``starts`` / ``counts``) and
        applied in one pass by :func:`_apply_corrections` when the scan
        ends, however it ends.
        """
        h = si.header
        tab = fused_tables(si.ac_tables[h.components[0].ac_table_id],
                           "ac_refine")
        units, _, first = self._order([ci])
        plane = self.coefficients.planes[ci].reshape(-1)
        zigzag = ZIGZAG_ORDER[h.ss:h.se + 1].astype(np.intp)
        u_idx, k_idx = plane[first[:, None] + zigzag].nonzero()
        cum = [0] * (units + 1)     # history entries before each block
        cum[1:] = np.bincount(u_idx, minlength=units).cumsum().tolist()
        starts: list[int] = []
        counts: list[int] = []
        try:
            self._refine_blocks(
                scan, tab, h, self._views[ci], first.tolist(),
                _restart_segments(units, si.restart_interval),
                cum, (k_idx + h.ss).tolist(), starts, counts)
        finally:
            _apply_corrections(plane, first[u_idx] + zigzag[k_idx],
                               starts, counts, scan.payload, h.al)

    def _refine_blocks(self, scan: ScanPrescan, tab: FusedDecodeTables, h,
                       out: memoryview, bases: list, segments: list,
                       cum: list, history: list, starts: list,
                       counts: list) -> None:
        """The block loop of :meth:`_decode_ac_refine`.  ``history[j]``
        is the zig-zag index of the j-th history nonzero of the scan,
        ``cum[u]`` how many lie in blocks before block *u*; *j* only
        moves forward."""
        ss, se, al = h.ss, h.se, h.al
        last = se + 1
        probe = tab.probe
        payload = scan.payload
        zz_after = _ZIGZAG_AFTER
        span_bits = SPAN_BYTES << 3
        unit = j = 0
        try:
            for seg, (unit, stop) in enumerate(segments):
                (win0, win, p, probe_end, seg_bits, zero_feed,
                 trunc) = _enter_segment(scan, seg)
                avail = _UNBOUNDED if zero_feed else seg_bits
                while unit < stop:
                    if not 0 <= p < span_bits:
                        win0, win, p, probe_end = _span(
                            scan, win0 + p, seg_bits, zero_feed)
                    base = bases[unit]
                    jend = cum[unit + 1]
                    k = ss
                    while k <= se:
                        e = probe[win[p]] if p <= probe_end else None
                        if e is not None:
                            bits, advance, val = e
                            p += bits
                        else:
                            advance, val, p, avail = _careful_ac_prog(
                                True, k, last, win0 + p, seg_bits,
                                zero_feed, trunc, payload, tab)
                            p -= win0
                        if not advance:
                            break       # EOBn: val blocks end here
                        # The advance counts zeros: step over the
                        # history nonzeros that lie before the last.
                        m = j
                        while j < jend:
                            zeros = history[j] - k
                            if advance <= zeros:
                                break
                            advance -= zeros
                            k += zeros + 1
                            j += 1
                        k += advance
                        m = j - m
                        if m:           # one correction bit each
                            if p + m - 1 <= probe_end:
                                starts.append(win0 + p)
                                counts.append(m)
                                p += m
                            else:
                                p = _careful_corrections(
                                    m, win0 + p, avail, seg_bits, trunc,
                                    starts, counts) - win0
                        if val:
                            if k > last:
                                raise EntropyError(_AC_OVERRUN)
                            out[base + zz_after[k]] = (val << al) & 0xFFFF
                    else:
                        val = 1
                    # val blocks end here (cut by a restart marker):
                    # what is left of their history gets its bits.
                    if val > stop - unit:
                        val = stop - unit
                    m = cum[unit + val] - j
                    if p + m - 1 <= probe_end:
                        if m:
                            starts.append(win0 + p)
                            counts.append(m)
                            p += m
                        j += m
                        unit += val
                        continue
                    while val:      # the segment may end first: by block
                        m = cum[unit + 1] - j
                        p = _careful_corrections(
                            m, win0 + p, avail, seg_bits, trunc, starts,
                            counts) - win0
                        j += m
                        unit += 1
                        val -= 1
        finally:
            self.units_done = unit


# ---------------------------------------------------------------------------
# Encoder.
# ---------------------------------------------------------------------------

class _ScanCounter:
    """Symbol-frequency sink for the table-optimization pass."""

    def __init__(self) -> None:
        self.freqs: dict[tuple[str, int], dict[int, int]] = {}

    def emit_symbol(self, key: tuple[str, int], sym: int) -> None:
        table = self.freqs.setdefault(key, {})
        table[sym] = table.get(sym, 0) + 1

    def emit_bits(self, value: int, n: int) -> None:
        pass

    def restart(self, index: int) -> None:
        pass


class _ScanEmitter:
    """Bit-emitting sink for the second (output) pass."""

    def __init__(self, encoders: dict[tuple[str, int], HuffmanEncoder]) -> None:
        self.writer = BitWriter()
        self.encoders = encoders

    def emit_symbol(self, key: tuple[str, int], sym: int) -> None:
        code, length = self.encoders[key].code_for(sym)
        self.writer.write_bits(code, length)

    def emit_bits(self, value: int, n: int) -> None:
        if n:
            self.writer.write_bits(value & ((1 << n) - 1), n)

    def restart(self, index: int) -> None:
        """Pad to a byte boundary and emit restart marker *index*."""
        self.writer.emit_marker(0xD0 + (index & 7))


class _AcScanState:
    """Per-scan EOB-run and buffered-correction-bit state (jcphuff)."""

    def __init__(self, sink, key: tuple[str, int]) -> None:
        self.sink = sink
        self.key = key
        self.eobrun = 0
        self.be_bits: list[int] = []

    def flush(self) -> None:
        """Emit any pending EOBn symbol plus its deferred correction bits."""
        if self.eobrun > 0:
            nbits = self.eobrun.bit_length() - 1
            self.sink.emit_symbol(self.key, nbits << 4)
            if nbits:
                self.sink.emit_bits(self.eobrun, nbits)
            self.eobrun = 0
            for b in self.be_bits:
                self.sink.emit_bits(b, 1)
            self.be_bits = []


def _scan_blocks(geo: ImageGeometry, comps: list[int],
                 restart_interval: int):
    """What an encoder pass walks: the ``(scan component, flat block)``
    pairs of the scan in emission order, cut into restart segments."""
    comp_of, flat_of = _block_order(geo, comps)
    order = list(zip(comp_of.tolist(), flat_of.tolist()))
    units = _scan_units(geo, comps)
    per_unit = len(order) // units
    return [order[u0 * per_unit:u1 * per_unit]
            for u0, u1 in _restart_segments(units, restart_interval)]


def _encode_dc_first(planes: list[np.ndarray], segments, slots: list[int],
                     al: int, sink) -> None:
    for seg, blocks in enumerate(segments):
        if seg:
            sink.restart(seg - 1)
        preds = [0] * len(planes)
        for k, flat in blocks:
            t = int(planes[k][flat, 0]) >> al
            diff = t - preds[k]
            preds[k] = t
            cat, bits, nbits = encode_magnitude(diff)
            sink.emit_symbol(("dc", slots[k]), cat)
            sink.emit_bits(bits, nbits)


def _encode_dc_refine(planes: list[np.ndarray], segments, al: int,
                      sink) -> None:
    for seg, blocks in enumerate(segments):
        if seg:
            sink.restart(seg - 1)
        for k, flat in blocks:
            sink.emit_bits((int(planes[k][flat, 0]) >> al) & 1, 1)


def _encode_ac(encode_block, plane: np.ndarray, segments, ss: int, se: int,
               al: int, state: _AcScanState) -> None:
    """One AC scan: *encode_block* (first pass or refinement) over the
    blocks of every restart segment."""
    for seg, blocks in enumerate(segments):
        if seg:
            state.flush()   # an EOB run never crosses a restart marker
            state.sink.restart(seg - 1)
        for _, flat in blocks:
            encode_block(plane[flat], ss, se, al, state)


def _encode_ac_first_block(block: np.ndarray, ss: int, se: int, al: int,
                           state: _AcScanState) -> None:
    sink = state.sink
    r = 0
    for k in range(ss, se + 1):
        temp = int(block[_ZIGZAG[k]])
        if temp < 0:
            temp = (-temp) >> al
            temp2 = ~temp
        else:
            temp >>= al
            temp2 = temp
        if temp == 0:
            r += 1
            continue
        state.flush()
        while r > 15:
            sink.emit_symbol(state.key, 0xF0)
            r -= 16
        nbits = temp.bit_length()
        sink.emit_symbol(state.key, (r << 4) | nbits)
        sink.emit_bits(temp2 & ((1 << nbits) - 1), nbits)
        r = 0
    if r > 0:
        state.eobrun += 1
        if state.eobrun == MAX_EOBRUN:
            state.flush()


def _encode_ac_refine_block(block: np.ndarray, ss: int, se: int, al: int,
                            state: _AcScanState) -> None:
    sink = state.sink
    absvals = {}
    eob = ss - 1  # index of the last newly-nonzero coefficient
    for k in range(ss, se + 1):
        t = abs(int(block[_ZIGZAG[k]])) >> al
        absvals[k] = t
        if t == 1:
            eob = k
    r = 0
    br: list[int] = []  # correction bits awaiting the next symbol
    for k in range(ss, se + 1):
        temp = absvals[k]
        if temp == 0:
            r += 1
            continue
        # ZRLs not foldable into the EOB run must flush eagerly.
        while r > 15 and k <= eob:
            state.flush()
            sink.emit_symbol(state.key, 0xF0)
            r -= 16
            for b in br:
                sink.emit_bits(b, 1)
            br = []
        if temp > 1:
            # History coefficient: contributes only a correction bit.
            br.append(temp & 1)
            continue
        state.flush()
        sink.emit_symbol(state.key, (r << 4) | 1)
        sink.emit_bits(1 if int(block[_ZIGZAG[k]]) >= 0 else 0, 1)
        for b in br:
            sink.emit_bits(b, 1)
        br = []
        r = 0
    if r > 0 or br:
        state.eobrun += 1
        state.be_bits.extend(br)
        if state.eobrun == MAX_EOBRUN \
                or len(state.be_bits) > _MAX_CORR_BITS:
            state.flush()


@dataclass(frozen=True)
class EncodedScan:
    """One emitted scan: SOS parameters, its DHT tables as
    ``(table_class, table_id, spec)`` triples, entropy bytes."""

    components: tuple[ScanComponent, ...]
    ss: int
    se: int
    ah: int
    al: int
    tables: tuple[tuple[int, int, HuffmanSpec], ...]
    data: bytes


def _run_scan(encode, keys) -> tuple[tuple, bytes]:
    """Two-pass scan emission: count symbols, optimize tables, emit.

    *encode* is called once with each sink; *keys* lists the
    ``("dc"/"ac", slot)`` table keys the scan may use.  Scans that emit
    no symbols at all (pure DC refinement) get no tables.
    """
    counter = _ScanCounter()
    encode(counter)
    encoders: dict[tuple[str, int], HuffmanEncoder] = {}
    tables: list[tuple[int, int, HuffmanSpec]] = []
    for key in keys:
        freqs = counter.freqs.get(key)
        if not freqs:
            continue
        spec = spec_from_frequencies(freqs)
        encoders[key] = HuffmanEncoder(spec)
        tables.append((0 if key[0] == "dc" else 1, key[1], spec))
    emitter = _ScanEmitter(encoders)
    encode(emitter)
    emitter.writer.flush()
    return tuple(tables), emitter.writer.getvalue()


def encode_progressive_scans(
    geometry: ImageGeometry,
    coefficients: CoefficientBuffers,
    bands: tuple[tuple[int, int], ...] = DEFAULT_BANDS,
    point_transform: int = DEFAULT_POINT_TRANSFORM,
    restart_interval: int = 0,
) -> list[EncodedScan]:
    """Encode quantized coefficients as a progressive scan sequence.

    The script is: one DC first scan (interleaved over every
    component), per-component AC first scans over *bands*, then the
    refinement passes (DC, then per-component AC per band) restoring
    the *point_transform* bits.  Every scan carries its own optimized
    Huffman tables — Annex-K tables lack the EOBn symbols progressive
    coding needs, and per-scan DHT segments exercise the parser's
    table-snapshot path.

    A non-zero *restart_interval* puts an RSTn marker after every that
    many units of each scan (MCUs of an interleaved scan, blocks of a
    single-component one): DC predictors and EOB runs start over there.
    """
    comps = list(range(len(geometry.components)))
    al = point_transform
    planes = [p.reshape(-1, 64) for p in coefficients.planes]
    # Slot assignment: Y and K share DC slot 0 (luma-like statistics),
    # Cb/Cr share DC slot 1; AC scans are single-component on slot 0.
    dc_slots = [0 if i in (0, 3) else 1 for i in comps]
    scan_comps = tuple(
        ScanComponent(component_id=geometry.components[i].component_id,
                      dc_table_id=dc_slots[i], ac_table_id=0)
        for i in comps)
    dc_keys = [("dc", s) for s in sorted(set(dc_slots))]
    dc_segments = _scan_blocks(geometry, comps, restart_interval)
    ac_segments = [_scan_blocks(geometry, [ci], restart_interval)
                   for ci in comps]
    scans: list[EncodedScan] = []

    def ac_scans(encode_block, ah: int, cur: int) -> None:
        """One AC scan per component and band at stage (*ah*, *cur*)."""
        for ci in comps:
            for (ss, se) in bands:
                def encode(sink, ci=ci, ss=ss, se=se):
                    state = _AcScanState(sink, ("ac", 0))
                    _encode_ac(encode_block, planes[ci], ac_segments[ci],
                               ss, se, cur, state)
                    state.flush()
                tables, data = _run_scan(encode, [("ac", 0)])
                scans.append(EncodedScan(
                    components=(scan_comps[ci],), ss=ss, se=se, ah=ah,
                    al=cur, tables=tables, data=data))

    # First passes (Al = point_transform): DC, then the AC bands.
    tables, data = _run_scan(
        lambda sink: _encode_dc_first(planes, dc_segments, dc_slots, al,
                                      sink),
        dc_keys)
    scans.append(EncodedScan(components=scan_comps, ss=0, se=0, ah=0,
                             al=al, tables=tables, data=data))
    ac_scans(_encode_ac_first_block, 0, al)

    # Refinement (Ah = Al+1 chain down to 0; one pass for al = 1).
    for cur in range(al - 1, -1, -1):
        emitter = _ScanEmitter({})
        _encode_dc_refine(planes, dc_segments, cur, emitter)
        emitter.writer.flush()
        scans.append(EncodedScan(
            components=scan_comps, ss=0, se=0, ah=cur + 1, al=cur,
            tables=(), data=emitter.writer.getvalue()))
        ac_scans(_encode_ac_refine_block, cur + 1, cur)
    return scans
