"""Baseline JPEG encoder (substrate for corpus generation).

The paper evaluates *decoding*; we still need real JFIF byte streams with
controllable entropy density, so this is a complete baseline encoder:
RGB -> YCbCr -> subsample -> blocks -> FDCT -> quantize -> Huffman scan ->
marker assembly.  Supports 4:4:4 / 4:2:2 / 4:2:0, quality scaling,
restart intervals and optionally per-image optimized Huffman tables.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import JpegError
from . import constants as C
from .blocks import ImageGeometry, plane_to_blocks
from .color import rgb_to_ycbcr_float, rgb_to_ycck
from .dct import fdct_2d_blocks
from .entropy import (
    CoefficientBuffers,
    ComponentTables,
    EntropyEncoder,
    collect_symbol_frequencies,
)
from .huffman import HuffmanSpec, spec_from_frequencies
from .markers import FrameComponent, ScanComponent
from .progressive import (DEFAULT_BANDS, DEFAULT_POINT_TRANSFORM,
                          encode_progressive_scans)
from .quantization import QuantTable, chrominance_table, luminance_table, quantize_blocks
from .sampling import downsample_plane

#: Supported encoder colorspaces and their component counts.
COLORSPACES = {"gray": 1, "ycbcr": 3, "ycck": 4}


@dataclass(frozen=True)
class EncoderSettings:
    """Encoder knobs, mirroring cjpeg's commonly used options.

    ``colorspace`` selects the component layout: ``"ycbcr"`` (3-component
    JFIF, default), ``"gray"`` (single luma component — any requested
    subsampling collapses to 4:4:4 as there is no chroma), or ``"ycck"``
    (4-component Adobe with APP14 transform 2, the inverted-CMYK print
    path).  ``progressive`` emits a SOF2 multi-scan stream carrying the
    *same* quantized coefficients as the baseline twin — spectral bands
    [1, 5] and [6, 63] per component plus one successive-approximation
    refinement pass, each scan with its own optimized Huffman tables;
    ``bands`` and ``point_transform`` change that script (a single
    ``(1, 63)`` band, ``Al`` = 0 for no refinement or 2 for two passes).
    In progressive mode ``restart_interval`` counts the units of each
    scan (MCUs of the interleaved DC scans, blocks of the AC ones) and
    ``optimize_huffman`` is ignored (per-scan tables are always
    optimized).
    """

    quality: int = 85
    subsampling: str = "4:2:2"
    restart_interval: int = 0          # MCUs between RSTn markers, 0 = off
    optimize_huffman: bool = False     # per-image tables vs Annex-K tables
    comment: bytes | None = None
    colorspace: str = "ycbcr"
    progressive: bool = False
    bands: tuple[tuple[int, int], ...] = DEFAULT_BANDS
    point_transform: int = DEFAULT_POINT_TRANSFORM


def _slot_of(ci: int) -> int:
    """Table/quant slot for component index: Y and K are luma-like (0),
    Cb/Cr share the chroma slot (1)."""
    return 0 if ci in (0, 3) else 1


def _standard_tables(ncomp: int = 3) -> list[ComponentTables]:
    """Annex-K "typical" tables: luma pair for Y (and K), chroma for Cb/Cr."""
    dc_l = HuffmanSpec(C.STD_DC_LUMINANCE_BITS, C.STD_DC_LUMINANCE_VALUES)
    ac_l = HuffmanSpec(C.STD_AC_LUMINANCE_BITS, C.STD_AC_LUMINANCE_VALUES)
    dc_c = HuffmanSpec(C.STD_DC_CHROMINANCE_BITS, C.STD_DC_CHROMINANCE_VALUES)
    ac_c = HuffmanSpec(C.STD_AC_CHROMINANCE_BITS, C.STD_AC_CHROMINANCE_VALUES)
    luma = ComponentTables(dc=dc_l, ac=ac_l)
    chroma = ComponentTables(dc=dc_c, ac=ac_c)
    return [luma if _slot_of(ci) == 0 else chroma for ci in range(ncomp)]


def encode_coefficients(rgb: np.ndarray, settings: EncoderSettings) -> tuple[
    ImageGeometry, CoefficientBuffers, QuantTable, QuantTable
]:
    """Front half of the encoder: RGB image -> quantized coefficients."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise JpegError(f"expected (h, w, 3) RGB input, got {rgb.shape}")
    if settings.colorspace not in COLORSPACES:
        raise JpegError(f"unknown colorspace {settings.colorspace!r}")
    h, w = rgb.shape[:2]
    ncomp = COLORSPACES[settings.colorspace]
    mode = "4:4:4" if ncomp == 1 else settings.subsampling
    geo = ImageGeometry(width=w, height=h, mode=mode, ncomponents=ncomp)

    lq = QuantTable(0, luminance_table(settings.quality))
    cq = QuantTable(1, chrominance_table(settings.quality))

    if ncomp == 1:
        planes = [rgb_to_ycbcr_float(rgb)[0]]
    elif ncomp == 3:
        y, cb, cr = rgb_to_ycbcr_float(rgb)
        planes = [y, downsample_plane(cb, mode), downsample_plane(cr, mode)]
    else:
        y, cb, cr, k = rgb_to_ycck(rgb)
        planes = [y, downsample_plane(cb, mode), downsample_plane(cr, mode), k]

    coeffs = CoefficientBuffers.empty(geo)
    for ci, plane in enumerate(planes):
        comp = geo.components[ci]
        qt = lq if _slot_of(ci) == 0 else cq
        blocks = plane_to_blocks(plane, comp.blocks_wide, comp.blocks_high)
        raw = fdct_2d_blocks(blocks)
        coeffs.planes[ci][:] = quantize_blocks(raw, qt.values)
    return geo, coeffs, lq, cq


def _optimized_tables(geo: ImageGeometry, coeffs: CoefficientBuffers,
                      restart_interval: int = 0) -> list[ComponentTables]:
    """Per-image Huffman tables; components sharing a slot share a pair."""
    dc_freqs, ac_freqs = collect_symbol_frequencies(geo, coeffs, restart_interval)
    ncomp = len(geo.components)
    # merge statistics per table slot (libjpeg convention for chroma)
    merged_dc: dict[int, dict[int, int]] = {}
    merged_ac: dict[int, dict[int, int]] = {}
    for ci in range(ncomp):
        slot = _slot_of(ci)
        for src, dst in ((dc_freqs[ci], merged_dc.setdefault(slot, {})),
                         (ac_freqs[ci], merged_ac.setdefault(slot, {}))):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    pairs = {
        slot: ComponentTables(
            dc=spec_from_frequencies(merged_dc[slot]),
            ac=spec_from_frequencies(merged_ac[slot]),
        )
        for slot in merged_dc
    }
    return [pairs[_slot_of(ci)] for ci in range(ncomp)]


def _frame_components(geo: ImageGeometry) -> list[FrameComponent]:
    return [
        FrameComponent(component_id=cg.component_id, h_factor=cg.h_factor,
                       v_factor=cg.v_factor, quant_table_id=_slot_of(ci))
        for ci, cg in enumerate(geo.components)
    ]


def _header_parts(geo: ImageGeometry, settings: EncoderSettings,
                  lq: QuantTable, cq: QuantTable) -> list[bytes]:
    """Markers common to both modes: SOI, APPn, COM, DQT."""
    ncomp = len(geo.components)
    # JFIF permits 1 or 3 components; 4-component files are Adobe-tagged
    # instead (transform 2 = YCCK, what our color path emits).
    app = build_app14_adobe(2) if ncomp == 4 else build_app0_jfif()
    parts = [bytes([0xFF, C.SOI]), app]
    if settings.comment:
        parts.append(build_com(settings.comment))
    parts.append(build_dqt([lq] if ncomp == 1 else [lq, cq]))
    return parts


def encode_jpeg(rgb: np.ndarray, settings: EncoderSettings | None = None) -> bytes:
    """Encode an (h, w, 3) uint8 RGB array to JFIF/Adobe JPEG bytes."""
    settings = settings or EncoderSettings()
    geo, coeffs, lq, cq = encode_coefficients(rgb, settings)
    ncomp = len(geo.components)

    if settings.progressive:
        parts = _header_parts(geo, settings, lq, cq)
        parts.append(build_sof0(geo.width, geo.height,
                                _frame_components(geo), progressive=True))
        if settings.restart_interval:
            parts.append(build_dri(settings.restart_interval))
        for scan in encode_progressive_scans(
                geo, coeffs, settings.bands, settings.point_transform,
                settings.restart_interval):
            if scan.tables:
                parts.append(build_dht(list(scan.tables)))
            parts.append(build_sos(list(scan.components),
                                   scan.ss, scan.se, scan.ah, scan.al))
            parts.append(scan.data)
        parts.append(bytes([0xFF, C.EOI]))
        return b"".join(parts)

    tables = (
        _optimized_tables(geo, coeffs, settings.restart_interval)
        if settings.optimize_huffman
        else _standard_tables(ncomp)
    )

    entropy = EntropyEncoder(geo, tables, settings.restart_interval)
    scan_bytes = entropy.encode(coeffs)

    # components sharing a slot share a DHT pair, optimized or not
    dht_tables = []
    for slot in sorted({_slot_of(ci) for ci in range(ncomp)}):
        ci = [c for c in range(ncomp) if _slot_of(c) == slot][0]
        dht_tables.append((0, slot, tables[ci].dc))
        dht_tables.append((1, slot, tables[ci].ac))
    scan_components = [
        ScanComponent(component_id=cg.component_id,
                      dc_table_id=_slot_of(ci), ac_table_id=_slot_of(ci))
        for ci, cg in enumerate(geo.components)
    ]

    parts = _header_parts(geo, settings, lq, cq)
    parts.append(build_sof0(geo.width, geo.height, _frame_components(geo)))
    parts.append(build_dht(dht_tables))
    if settings.restart_interval:
        parts.append(build_dri(settings.restart_interval))
    parts.append(build_sos(scan_components))
    parts.append(scan_bytes)
    parts.append(bytes([0xFF, C.EOI]))
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Marker-segment writers (the inverse of repro.jpeg.markers' parsers).
# ---------------------------------------------------------------------------

def _segment(marker: int, payload: bytes) -> bytes:
    return bytes([0xFF, marker]) + struct.pack(">H", len(payload) + 2) + payload


def build_app0_jfif() -> bytes:
    """Standard JFIF APP0 segment (version 1.1, no thumbnail)."""
    payload = b"JFIF\x00" + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + bytes([0, 0])
    return _segment(C.APP0, payload)


def build_dqt(tables: list[QuantTable]) -> bytes:
    payload = b"".join(t.to_dqt_payload() for t in tables)
    return _segment(C.DQT, payload)


def build_sof0(width: int, height: int,
               components: list[FrameComponent],
               progressive: bool = False) -> bytes:
    payload = struct.pack(">BHHB", 8, height, width, len(components))
    for comp in components:
        payload += bytes([
            comp.component_id,
            (comp.h_factor << 4) | comp.v_factor,
            comp.quant_table_id,
        ])
    return _segment(C.SOF2 if progressive else C.SOF0, payload)


def build_app14_adobe(transform: int) -> bytes:
    """Adobe APP14 segment carrying the color-transform code."""
    payload = b"Adobe" + struct.pack(">HHHB", 100, 0, 0, transform)
    return _segment(C.APP14, payload)


def build_dht(tables: list[tuple[int, int, HuffmanSpec]]) -> bytes:
    """One DHT segment of ``(table_class, table_id, spec)`` triples."""
    payload = b""
    for table_class, table_id, spec in tables:
        payload += bytes([(table_class << 4) | table_id])
        payload += bytes(spec.bits)
        payload += bytes(spec.values)
    return _segment(C.DHT, payload)


def build_dri(interval: int) -> bytes:
    return _segment(C.DRI, struct.pack(">H", interval))


def build_sos(components: list[ScanComponent], ss: int = 0, se: int = 63,
              ah: int = 0, al: int = 0) -> bytes:
    payload = bytes([len(components)])
    for sc in components:
        payload += bytes([sc.component_id, (sc.dc_table_id << 4) | sc.ac_table_id])
    payload += bytes([ss, se, (ah << 4) | al])
    return _segment(C.SOS, payload)


def build_com(text: bytes) -> bytes:
    return _segment(C.COM, text)
