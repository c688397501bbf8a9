"""Progressive JPEG scan coding (ITU-T T.81 Annex G, Huffman path).

A progressive (SOF2) stream splits the coefficient data over many
scans: a DC scan per successive-approximation stage (interleaved over
components), and per-component AC scans covering a spectral band
[Ss, Se] at one approximation stage.  This module implements both
directions:

- :class:`ProgressiveDecoder` accumulates every scan of a parsed
  :class:`~repro.jpeg.markers.JpegImageInfo` into one
  :class:`~repro.jpeg.entropy.CoefficientBuffers`, reading each scan
  through :class:`~repro.jpeg.fast_entropy.SegmentedReader` (one bit
  position over the probe windows of a destuffed scan payload).  DC
  refinement scans — one raw bit per block, no Huffman codes — are
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
from .bitstream import BitWriter
from .blocks import ImageGeometry, ceil_div
from .constants import ZIGZAG_ORDER
from .entropy import CoefficientBuffers
from .fast_entropy import (TRUNCATED_FF, SegmentedReader, destuff_scan,
                           fused_tables)
from .huffman import (HuffmanEncoder, encode_magnitude, extend,
                      spec_from_frequencies)
from .markers import (HuffmanTableDef, JpegImageInfo, ScanComponent, ScanInfo)

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


def _wrap16(value: int) -> int:
    """Wrap *value* into int16 range (deterministic hostile-input path)."""
    return ((value + 0x8000) & 0xFFFF) - 0x8000


def _used_grid(cg) -> tuple[int, int]:
    """Blocks the standard actually codes in a non-interleaved scan:
    the component's own ceil(size/8) grid, which can be narrower than
    the MCU-padded plane."""
    return ceil_div(cg.width, 8), ceil_div(cg.height, 8)


def _interleaved_order(geo: ImageGeometry,
                       comps: list[int]) -> list[tuple[int, int]]:
    """Block emission order of an interleaved scan as
    ``(scan_component_index, flat_block_index)`` pairs, MCU-major."""
    order: list[tuple[int, int]] = []
    comp_geos = [geo.components[ci] for ci in comps]
    for mrow in range(geo.mcu_rows):
        for mcol in range(geo.mcus_per_row):
            for k, cg in enumerate(comp_geos):
                for v in range(cg.v_factor):
                    base = (mrow * cg.v_factor + v) * cg.blocks_wide \
                        + mcol * cg.h_factor
                    for h in range(cg.h_factor):
                        order.append((k, base + h))
    return order


def _noninterleaved_order(cg) -> list[int]:
    """Flat block indices of a single-component scan in raster order
    over the component's used grid."""
    uw, uh = _used_grid(cg)
    return [brow * cg.blocks_wide + bcol
            for brow in range(uh) for bcol in range(uw)]


# ---------------------------------------------------------------------------
# Decoder.
# ---------------------------------------------------------------------------

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

    def decode_scan(self, si: ScanInfo) -> None:
        """Decode one scan into the accumulated coefficient planes."""
        h = si.header
        comps = self._scan_components(si)
        prescan = destuff_scan(si.entropy)
        if h.is_dc and h.refining:
            self._decode_dc_refine(si, comps, prescan)
            return
        reader = SegmentedReader(prescan)
        if h.is_dc:
            self._decode_dc_first(si, comps, reader)
        elif h.refining:
            self._decode_ac_refine(si, comps, reader)
        else:
            self._decode_ac_first(si, comps, reader)

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
                         reader: SegmentedReader) -> None:
        h = si.header
        al = h.al
        geo = self.geometry
        planes = [self.coefficients.planes[ci].reshape(-1, 64)
                  for ci in comps]
        tabs = [fused_tables(si.dc_tables[sc.dc_table_id], "dc")
                for sc in h.components]
        ri = si.restart_interval
        preds = [0] * len(comps)
        if len(comps) > 1:
            order = _interleaved_order(geo, comps)
            per_unit = len(order) // geo.total_mcus
            for unit in range(geo.total_mcus):
                if ri and unit and unit % ri == 0:
                    reader.next_segment()
                    preds = [0] * len(comps)
                for k, flat in order[unit * per_unit:(unit + 1) * per_unit]:
                    s = reader.symbol(tabs[k])
                    if s > 11:
                        raise EntropyError(f"DC category {s} out of range")
                    if s:
                        preds[k] += extend(reader.bits(s), s)
                    planes[k][flat, 0] = _wrap16(preds[k] << al)
                self.units_done = unit + 1
        else:
            cg = geo.components[comps[0]]
            for unit, flat in enumerate(_noninterleaved_order(cg)):
                if ri and unit and unit % ri == 0:
                    reader.next_segment()
                    preds = [0]
                s = reader.symbol(tabs[0])
                if s > 11:
                    raise EntropyError(f"DC category {s} out of range")
                if s:
                    preds[0] += extend(reader.bits(s), s)
                planes[0][flat, 0] = _wrap16(preds[0] << al)
                self.units_done = unit + 1

    def _decode_dc_refine(self, si: ScanInfo, comps: list[int],
                          prescan) -> None:
        """Vectorized DC refinement: one raw bit per block, no Huffman.

        The whole scan is a packed bit sequence (per restart segment),
        so the plane update is three numpy operations: unpack the
        segment bytes, gather the bits in block-emission order, and OR
        ``bit << Al`` into the DC coefficients (two's complement makes
        the OR correct for negative values too).
        """
        geo = self.geometry
        al = si.header.al
        if len(comps) > 1:
            order = _interleaved_order(geo, comps)
            per_unit = len(order) // geo.total_mcus
            total_units = geo.total_mcus
        else:
            order = [(0, flat) for flat in
                     _noninterleaved_order(geo.components[comps[0]])]
            per_unit = 1
            total_units = len(order)

        ri = si.restart_interval
        seg_starts = [0] + list(prescan.marker_payload_offsets)
        seg_ends = list(prescan.marker_payload_offsets) \
            + [len(prescan.payload)]
        zero_feed_tail = prescan.terminator is not None \
            and prescan.terminator != TRUNCATED_FF

        chunks: list[np.ndarray] = []
        unit = 0
        seg = 0
        while unit < total_units:
            if seg >= len(seg_starts):
                raise EntropyError(
                    "missing restart marker in progressive scan")
            seg_units = min(ri, total_units - unit) if ri \
                else total_units - unit
            need = seg_units * per_unit
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
            unit += seg_units
            seg += 1
        seq = np.concatenate(chunks) if chunks else np.zeros(0, np.uint8)

        comp_of = np.array([k for k, _ in order], dtype=np.int64)
        flat_of = np.array([f for _, f in order], dtype=np.int64)
        for k, ci in enumerate(comps):
            plane = self.coefficients.planes[ci].reshape(-1, 64)
            mask = comp_of == k
            add = (seq[mask].astype(np.int16) << al)
            plane[flat_of[mask], 0] |= add
        self.units_done = total_units

    # -- AC scans --------------------------------------------------------

    def _decode_ac_first(self, si: ScanInfo, comps: list[int],
                         reader: SegmentedReader) -> None:
        h = si.header
        ss, se, al = h.ss, h.se, h.al
        cg = self.geometry.components[comps[0]]
        plane = self.coefficients.planes[comps[0]].reshape(-1, 64)
        tab = fused_tables(si.ac_tables[h.components[0].ac_table_id], "ac")
        ri = si.restart_interval
        eobrun = 0
        for unit, flat in enumerate(_noninterleaved_order(cg)):
            if ri and unit and unit % ri == 0:
                reader.next_segment()
                eobrun = 0
            if eobrun:
                eobrun -= 1
                self.units_done = unit + 1
                continue
            block = plane[flat]
            k = ss
            while k <= se:
                sym = reader.symbol(tab)
                r, s = sym >> 4, sym & 0x0F
                if s:
                    k += r
                    if k > se:
                        raise EntropyError(
                            "AC coefficient index overran the block")
                    block[_ZIGZAG[k]] = _wrap16(
                        extend(reader.bits(s), s) << al)
                    k += 1
                elif r != 15:
                    eobrun = (1 << r) - 1
                    if r:
                        eobrun += reader.bits(r)
                    break
                else:
                    k += 16  # ZRL
            self.units_done = unit + 1

    def _decode_ac_refine(self, si: ScanInfo, comps: list[int],
                          reader: SegmentedReader) -> None:
        h = si.header
        ss, se, al = h.ss, h.se, h.al
        p1 = 1 << al
        m1 = -p1
        cg = self.geometry.components[comps[0]]
        plane = self.coefficients.planes[comps[0]].reshape(-1, 64)
        tab = fused_tables(si.ac_tables[h.components[0].ac_table_id], "ac")
        ri = si.restart_interval
        eobrun = 0
        for unit, flat in enumerate(_noninterleaved_order(cg)):
            if ri and unit and unit % ri == 0:
                reader.next_segment()
                eobrun = 0
            block = plane[flat]
            k = ss
            if eobrun == 0:
                while k <= se:
                    sym = reader.symbol(tab)
                    r, s = sym >> 4, sym & 0x0F
                    newval = 0
                    if s:
                        if s != 1:
                            raise EntropyError(
                                f"bad AC refinement symbol {sym:#x}")
                        newval = p1 if reader.bits(1) else m1
                    elif r != 15:
                        eobrun = 1 << r
                        if r:
                            eobrun += reader.bits(r)
                        break  # rest of block handled by the EOB tail
                    # Advance over r zero-history coefficients, appending
                    # a correction bit to every nonzero one on the way.
                    while k <= se:
                        zz = _ZIGZAG[k]
                        coef = int(block[zz])
                        if coef != 0:
                            if reader.bits(1) and (coef & p1) == 0:
                                block[zz] = coef + (p1 if coef >= 0 else m1)
                        else:
                            r -= 1
                            if r < 0:
                                break
                        k += 1
                    if newval:
                        if k > se:
                            raise EntropyError(
                                "AC coefficient index overran the block")
                        block[_ZIGZAG[k]] = newval
                    k += 1
            if eobrun > 0:
                # EOB tail: correction bits for the remaining nonzero
                # history coefficients of this block.
                while k <= se:
                    zz = _ZIGZAG[k]
                    coef = int(block[zz])
                    if coef != 0:
                        if reader.bits(1) and (coef & p1) == 0:
                            block[zz] = coef + (p1 if coef >= 0 else m1)
                    k += 1
                eobrun -= 1
            self.units_done = unit + 1


def decode_progressive(info: JpegImageInfo) -> CoefficientBuffers:
    """Decode every scan of a parsed SOF2 stream into coefficients."""
    return ProgressiveDecoder(info).decode()


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


def _encode_dc_first(geo: ImageGeometry, coeffs: CoefficientBuffers,
                     comps: list[int], slots: list[int], al: int,
                     sink) -> None:
    planes = [coeffs.planes[ci].reshape(-1, 64) for ci in comps]
    preds = [0] * len(comps)
    if len(comps) > 1:
        order = _interleaved_order(geo, comps)
    else:
        order = [(0, f) for f in
                 _noninterleaved_order(geo.components[comps[0]])]
    for k, flat in order:
        t = int(planes[k][flat, 0]) >> al
        diff = t - preds[k]
        preds[k] = t
        cat, bits, nbits = encode_magnitude(diff)
        sink.emit_symbol(("dc", slots[k]), cat)
        sink.emit_bits(bits, nbits)


def _encode_dc_refine(geo: ImageGeometry, coeffs: CoefficientBuffers,
                      comps: list[int], al: int, sink) -> None:
    planes = [coeffs.planes[ci].reshape(-1, 64) for ci in comps]
    if len(comps) > 1:
        order = _interleaved_order(geo, comps)
    else:
        order = [(0, f) for f in
                 _noninterleaved_order(geo.components[comps[0]])]
    for k, flat in order:
        sink.emit_bits((int(planes[k][flat, 0]) >> al) & 1, 1)


def _encode_ac_first(cg, plane: np.ndarray, ss: int, se: int, al: int,
                     state: _AcScanState) -> None:
    sink = state.sink
    for flat in _noninterleaved_order(cg):
        block = plane[flat]
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


def _encode_ac_refine(cg, plane: np.ndarray, ss: int, se: int, al: int,
                      state: _AcScanState) -> None:
    sink = state.sink
    for flat in _noninterleaved_order(cg):
        block = plane[flat]
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
    """One emitted scan: SOS parameters, its DHT tables, entropy bytes."""

    components: tuple[ScanComponent, ...]
    ss: int
    se: int
    ah: int
    al: int
    tables: tuple[HuffmanTableDef, ...]
    data: bytes


def _run_scan(encode, keys) -> tuple[tuple[HuffmanTableDef, ...], bytes]:
    """Two-pass scan emission: count symbols, optimize tables, emit.

    *encode* is called once with each sink; *keys* lists the
    ``("dc"/"ac", slot)`` table keys the scan may use.  Scans that emit
    no symbols at all (pure DC refinement) get no tables.
    """
    counter = _ScanCounter()
    encode(counter)
    encoders: dict[tuple[str, int], HuffmanEncoder] = {}
    tables: list[HuffmanTableDef] = []
    for key in keys:
        freqs = counter.freqs.get(key)
        if not freqs:
            continue
        spec = spec_from_frequencies(freqs)
        encoders[key] = HuffmanEncoder(spec)
        tables.append(HuffmanTableDef(
            table_class=0 if key[0] == "dc" else 1,
            table_id=key[1], spec=spec))
    emitter = _ScanEmitter(encoders)
    encode(emitter)
    emitter.writer.flush()
    return tuple(tables), emitter.writer.getvalue()


def encode_progressive_scans(
    geometry: ImageGeometry,
    coefficients: CoefficientBuffers,
    bands: tuple[tuple[int, int], ...] = DEFAULT_BANDS,
    point_transform: int = DEFAULT_POINT_TRANSFORM,
) -> list[EncodedScan]:
    """Encode quantized coefficients as a progressive scan sequence.

    The script is: one DC first scan (interleaved over every
    component), per-component AC first scans over *bands*, then the
    refinement passes (DC, then per-component AC per band) restoring
    the *point_transform* bits.  Every scan carries its own optimized
    Huffman tables — Annex-K tables lack the EOBn symbols progressive
    coding needs, and per-scan DHT segments exercise the parser's
    table-snapshot path.

    Restart markers are not emitted in progressive mode: the decoder
    supports them, but multi-scan streams gain nothing from segment
    fan-out here (progressive images are routed whole-image).
    """
    comps = list(range(len(geometry.components)))
    al = point_transform
    # Slot assignment: Y and K share DC slot 0 (luma-like statistics),
    # Cb/Cr share DC slot 1; AC scans are single-component on slot 0.
    dc_slots = [0 if i in (0, 3) else 1 for i in comps]
    scan_comps = tuple(
        ScanComponent(component_id=geometry.components[i].component_id,
                      dc_table_id=dc_slots[i], ac_table_id=0)
        for i in comps)
    scans: list[EncodedScan] = []

    def dc_keys():
        return [("dc", s) for s in sorted(set(dc_slots))]

    # DC first scan (Al = point_transform).
    tables, data = _run_scan(
        lambda sink: _encode_dc_first(geometry, coefficients, comps,
                                      dc_slots, al, sink),
        dc_keys())
    scans.append(EncodedScan(components=scan_comps, ss=0, se=0, ah=0,
                             al=al, tables=tables, data=data))

    # Per-component AC first scans, one per spectral band.
    for ci in comps:
        cg = geometry.components[ci]
        plane = coefficients.planes[ci].reshape(-1, 64)
        for (ss, se) in bands:
            def encode(sink, cg=cg, plane=plane, ss=ss, se=se):
                state = _AcScanState(sink, ("ac", 0))
                _encode_ac_first(cg, plane, ss, se, al, state)
                state.flush()
            tables, data = _run_scan(encode, [("ac", 0)])
            scans.append(EncodedScan(
                components=(scan_comps[ci],), ss=ss, se=se, ah=0, al=al,
                tables=tables, data=data))

    if al == 0:
        return scans

    # DC refinement (Ah = Al+1 chain down to 0; one pass for al = 1).
    for cur in range(al - 1, -1, -1):
        emitter = _ScanEmitter({})
        _encode_dc_refine(geometry, coefficients, comps, cur, emitter)
        emitter.writer.flush()
        scans.append(EncodedScan(
            components=scan_comps, ss=0, se=0, ah=cur + 1, al=cur,
            tables=(), data=emitter.writer.getvalue()))

        # AC refinement per component and band at this stage.
        for ci in comps:
            cg = geometry.components[ci]
            plane = coefficients.planes[ci].reshape(-1, 64)
            for (ss, se) in bands:
                def encode(sink, cg=cg, plane=plane, ss=ss, se=se, cur=cur):
                    state = _AcScanState(sink, ("ac", 0))
                    _encode_ac_refine(cg, plane, ss, se, cur, state)
                    state.flush()
                tables, data = _run_scan(encode, [("ac", 0)])
                scans.append(EncodedScan(
                    components=(scan_comps[ci],), ss=ss, se=se,
                    ah=cur + 1, al=cur, tables=tables, data=data))
    return scans
