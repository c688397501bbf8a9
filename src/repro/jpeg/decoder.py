"""Reference sequential JPEG decoder (the "libjpeg" baseline).

Mirrors the 2-tier structure of libjpeg-turbo (paper Figure 2): an
entropy engine fills the whole-image coefficient buffers introduced by
the re-engineering step (paper Section 3), and :func:`render_span` owns
everything downstream of them — dequantization + IDCT, upsampling,
color conversion — over any MCU-row span, bit-identical to the same
rows of the whole frame.

This module is the correctness oracle for every parallel execution mode:
all executors must produce bit-identical RGB output to
:func:`decode_jpeg`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from ..errors import JpegError
from .blocks import ImageGeometry, blocks_to_plane
from .color import (cmyk_inverted_to_rgb, gray_to_rgb, ycbcr_to_rgb_float,
                    ycck_to_rgb)
from .coefficients import CoefficientBuffers, ComponentTables
from .fast_entropy import create_entropy_decoder
from .idct import idct_samples
from .markers import JpegImageInfo, parse_jpeg
from .sampling import upsample_plane


class DecodeOptions(NamedTuple):
    """Decoder knobs (subset of libjpeg's djpeg options).

    ``entropy_engine`` selects the Huffman decode path: ``"fast"`` (the
    fused-table engine of :mod:`repro.jpeg.fast_entropy`, default) or
    ``"reference"`` (the historical per-symbol oracle) — both produce
    bit-identical coefficients.

    ``salvage`` turns hostile-input failures into best-effort output:
    instead of raising on a corrupt scan, the decoder keeps every
    coefficient decoded before the failure, renders the image anyway
    (undecoded blocks stay zero — mid-gray), and reports the damage in
    :attr:`DecodedImage.error_map` / :attr:`DecodedImage.errors`.

    ``stage_hook``, when set, is called as ``hook(stage, t0, t1)`` with
    ``perf_counter`` bounds at each pipeline stage boundary ("parse",
    "entropy", "idct" — dequantize included — "upsample", "color").
    This is the tracing tap of :mod:`repro.service.obs`; it is only
    ever set in-process (never pickled) and costs a single ``None``
    check per stage when unset.
    """

    fancy_upsampling: bool = True
    entropy_engine: str = "fast"
    salvage: bool = False
    stage_hook: Callable[[str, float, float], None] | None = None


class DecodedImage(NamedTuple):
    """Decoder output: pixels plus the metadata the partitioner consumes.

    ``error_map`` is only populated by salvage mode: a boolean
    ``(mcu_rows, mcus_per_row)`` grid, True where decoding failed (the
    failure point and everything after it — entropy state is lost from
    the first bad symbol onward).  ``errors`` lists the corresponding
    canonical error messages, one per failed scan.
    """

    rgb: np.ndarray                 # (h, w, 3) uint8
    info: JpegImageInfo
    coefficients: CoefficientBuffers | None = None
    row_byte_offsets: list[int] | tuple = ()
    error_map: np.ndarray | None = None
    errors: list[str] | tuple = ()

    @property
    def width(self) -> int:
        return self.info.width

    @property
    def height(self) -> int:
        return self.info.height

    @property
    def salvaged(self) -> bool:
        """True when salvage mode recovered from at least one error."""
        return bool(self.errors)


def component_tables_from_info(info: JpegImageInfo) -> list[ComponentTables]:
    """Resolve the scan's per-component Huffman table pairs."""
    tables = []
    for sc in info.scan.components:
        tables.append(
            ComponentTables(
                dc=info.dc_tables[sc.dc_table_id],
                ac=info.ac_tables[sc.ac_table_id],
            )
        )
    return tables


def quant_tables_from_info(info: JpegImageInfo) -> list[np.ndarray]:
    """Per-component quantization tables in frame-component order."""
    return [
        info.quant_tables[fc.quant_table_id].values
        for fc in info.frame.components
    ]


def render_span(geometry: ImageGeometry, coefficients: CoefficientBuffers,
                quants: list[np.ndarray], mcu_row_start: int,
                mcu_row_stop: int, options: DecodeOptions,
                adobe_transform: int | None = None) -> np.ndarray:
    """Tier 2: the pixel stages over MCU rows ``[start, stop)``.

    Per component dequantize + IDCT into a sample plane; upsample chroma
    to luma resolution; crop to the image; colour-convert.  Returns the
    span's ``(pixel_rows, width, 3)`` uint8 RGB, bit-identical to the
    same rows of the whole frame for any span.  When chroma is
    subsampled vertically (4:2:0, 4:4:0) the upsampler reads one chroma
    row across each span edge, so the span renders one MCU row of halo
    on either side (clipped to the frame) and returns only its own rows.
    Handles every supported component layout: 1 (grayscale), 3 (JFIF
    YCbCr), 4 (Adobe YCCK when *adobe_transform* is 2, inverted CMYK
    otherwise).  The one pixel path of the whole-image decode and the
    executors' CPU partition; emits the "idct", "upsample" and "color"
    stages on ``options.stage_hook``.
    """
    hook = options.stage_hook
    halo = int(geometry.ncomponents > 1 and geometry.luma_factors[1] > 1)
    lo = max(mcu_row_start - halo, 0)
    hi = min(mcu_row_stop + halo, geometry.mcu_rows)
    span = coefficients.rows_slice(lo, hi)
    width = geometry.width
    mcu_height = geometry.mcu_height
    rows = slice((mcu_row_start - lo) * mcu_height,
                 min(mcu_row_stop * mcu_height, geometry.height)
                 - lo * mcu_height)
    t0 = perf_counter() if hook else 0.0
    planes = [
        blocks_to_plane(idct_samples(coefs, quant),
                        comp.blocks_wide, (hi - lo) * comp.v_factor)
        for comp, coefs, quant in zip(geometry.components, span.planes, quants)
    ]
    if hook:
        hook("idct", t0, perf_counter())
    y = planes[0][rows, :width]
    if len(planes) > 1:
        t0 = perf_counter() if hook else 0.0
        cb, cr = (
            upsample_plane(plane, geometry.mode,
                           options.fancy_upsampling)[rows, :width]
            for plane in planes[1:3])
        if hook:
            hook("upsample", t0, perf_counter())
    t0 = perf_counter() if hook else 0.0
    if len(planes) == 1:
        rgb = gray_to_rgb(y)
    elif len(planes) == 3:
        rgb = ycbcr_to_rgb_float(y, cb, cr)
    else:
        k = planes[3][rows, :width]
        if adobe_transform == 2:
            rgb = ycck_to_rgb(y, cb, cr, k)
        else:
            rgb = cmyk_inverted_to_rgb(y, cb, cr, k)
    if hook:
        hook("color", t0, perf_counter())
    return rgb


def pixels_from_coefficients(
    info: JpegImageInfo,
    coefficients: CoefficientBuffers,
    options: DecodeOptions | None = None,
) -> np.ndarray:
    """Run the pixel stages over already-decoded coefficients.

    Dequantize + IDCT + upsample + color-convert — everything downstream
    of entropy decoding, producing the same RGB as :func:`decode_jpeg`.
    This is the merge point for callers that obtained the coefficient
    planes some other way (e.g. the batched decode service after
    restart-segment-parallel entropy decoding).
    """
    return render_span(info.geometry, coefficients,
                       quant_tables_from_info(info), 0,
                       info.geometry.mcu_rows, options or DecodeOptions(),
                       info.adobe_transform)


def _decode_progressive(info: JpegImageInfo,
                        options: DecodeOptions) -> DecodedImage:
    """Whole-image progressive decode, optionally salvaging bad scans."""
    from .progressive import ProgressiveDecoder

    dec = ProgressiveDecoder(info)
    geo = dec.geometry
    hook = options.stage_hook
    t_entropy = perf_counter() if hook else 0.0
    errors: list[str] = list(info.parse_errors)
    error_map = None
    if options.salvage:
        error_map = np.zeros((geo.mcu_rows, geo.mcus_per_row), dtype=bool)
        for si in info.scans:
            dec.units_done = 0
            try:
                dec.decode_scan(si)
            except JpegError as exc:
                errors.append(f"scan {dec.scans_done}: {exc}")
                row = dec.failed_mcu_row(si, dec.units_done)
                error_map[row:, :] = True
            else:
                if not si.terminated:
                    # The stream ended mid-scan but the zero-fed tail
                    # happened to decode (EOB-shaped padding).  The
                    # coefficients are only approximate from here on —
                    # record the fault; a truncated refinement scan
                    # degrades gracefully, so no region is condemned.
                    errors.append(f"scan {dec.scans_done}: entropy-coded "
                                  "data not terminated by a marker")
            dec.scans_done += 1
    else:
        dec.decode()
    if hook:
        hook("entropy", t_entropy, perf_counter())
    rgb = pixels_from_coefficients(info, dec.coefficients, options)
    return DecodedImage(
        rgb=rgb,
        info=info,
        coefficients=dec.coefficients,
        error_map=error_map,
        errors=errors,
    )


def _decode_baseline(info: JpegImageInfo,
                     options: DecodeOptions) -> DecodedImage:
    """Whole-image baseline decode.  Salvage steps one MCU row at a time
    and keeps every row decoded before a failure."""
    geo = info.geometry
    engine = create_entropy_decoder(
        options.entropy_engine, geo, component_tables_from_info(info),
        info.restart_interval)
    engine.start(info.entropy_data)
    hook = options.stage_hook
    t_entropy = perf_counter() if hook else 0.0
    error_map, errors = None, ()
    if not options.salvage:
        engine.decode_mcu_rows(geo.mcu_rows)
    else:
        error_map = np.zeros((geo.mcu_rows, geo.mcus_per_row), dtype=bool)
        errors = list(info.parse_errors)
        try:
            while not engine.finished:
                engine.decode_mcu_rows(1)
        except JpegError as exc:
            errors.append(str(exc))
            error_map[engine.rows_decoded:, :] = True
        else:
            if not info.scans[-1].terminated:
                # The truncated tail zero-fed through (EOB-shaped
                # padding): every row whose entropy ran to the cut is
                # reconstructed from padding, not data.  Condemn from
                # the first such row.
                errors.append("entropy-coded data not terminated by a marker")
                offsets = engine.row_byte_offsets
                end = len(info.entropy_data)
                first_bad = next((i - 1 for i in range(1, len(offsets))
                                  if offsets[i] >= end), geo.mcu_rows - 1)
                error_map[min(first_bad, geo.mcu_rows - 1):, :] = True
    if hook:
        hook("entropy", t_entropy, perf_counter())
    return DecodedImage(
        rgb=pixels_from_coefficients(info, engine.coefficients, options),
        info=info,
        coefficients=engine.coefficients,
        row_byte_offsets=engine.row_byte_offsets,
        error_map=error_map,
        errors=errors,
    )


def decode_jpeg(data: bytes, options: DecodeOptions | None = None) -> DecodedImage:
    """Decode JFIF bytes to RGB — whole image, sequential.

    Baseline (SOF0) streams entropy-decode into the coefficient buffers;
    progressive (SOF2) streams accumulate all scans through
    :class:`~repro.jpeg.progressive.ProgressiveDecoder`.  Both then run
    :func:`render_span` over the whole frame.
    """
    options = options or DecodeOptions()
    hook = options.stage_hook
    # Salvage parses tolerantly: a stream truncated mid-scan still
    # yields headers plus the partial entropy data to recover from.
    t0 = perf_counter() if hook else 0.0
    info = parse_jpeg(data, tolerant=options.salvage)
    if hook:
        hook("parse", t0, perf_counter())
    if info.progressive:
        return _decode_progressive(info, options)
    return _decode_baseline(info, options)
