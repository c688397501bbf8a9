"""Reference sequential JPEG decoder (the "libjpeg" baseline).

Mirrors the 2-tier structure of libjpeg-turbo (paper Figure 2): the
*coefficient controller* owns entropy decoding into the whole-image
coefficient buffers introduced by the re-engineering step (paper
Section 3), and :func:`render_span` owns everything downstream of them —
dequantization + IDCT, upsampling, color conversion — over any MCU-row
span, so row-granular access remains available for the legacy
row-by-row execution style.

This module is the correctness oracle for every parallel execution mode:
all executors must produce bit-identical RGB output to
:func:`decode_jpeg`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from ..errors import JpegError, JpegUnsupportedError
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


class CoefficientController:
    """Tier 1: entropy decoding of a baseline scan, in MCU-row steps."""

    def __init__(self, info: JpegImageInfo, options: DecodeOptions) -> None:
        if info.progressive:
            raise JpegUnsupportedError(
                "progressive streams use the progressive decode path"
            )
        self.info = info
        self.geometry = info.geometry
        self.options = options
        self.entropy = create_entropy_decoder(
            options.entropy_engine,
            self.geometry,
            component_tables_from_info(info),
            info.restart_interval,
        )
        self.entropy.start(info.entropy_data)

    def decode_rows(self, nrows: int) -> int:
        """Entropy-decode *nrows* more MCU rows; return total rows done."""
        return self.entropy.decode_mcu_rows(nrows)


def render_span(geometry: ImageGeometry, coefficients: CoefficientBuffers,
                quants: list[np.ndarray], mcu_row_start: int,
                mcu_row_stop: int, options: DecodeOptions,
                adobe_transform: int | None = None) -> np.ndarray:
    """Tier 2: the pixel stages over MCU rows ``[start, stop)``.

    Per component dequantize + IDCT into a sample plane; upsample chroma
    to luma resolution; crop to the image; colour-convert.  Returns the
    span's ``(pixel_rows, width, 3)`` uint8 RGB.  Handles every supported
    component layout: 1 (grayscale), 3 (JFIF YCbCr), 4 (Adobe YCCK when
    *adobe_transform* is 2, inverted CMYK otherwise).  The one pixel
    path of the whole-image decode, the row-wise decode and the
    executors' CPU partition; emits the "idct", "upsample" and "color"
    stages on ``options.stage_hook``.
    """
    hook = options.stage_hook
    nrows = mcu_row_stop - mcu_row_start
    span = coefficients.rows_slice(mcu_row_start, mcu_row_stop)
    width = geometry.width
    height = (min(mcu_row_stop * geometry.mcu_height, geometry.height)
              - mcu_row_start * geometry.mcu_height)
    t0 = perf_counter() if hook else 0.0
    planes = [
        blocks_to_plane(idct_samples(coefs, quant),
                        comp.blocks_wide, nrows * comp.v_factor)
        for comp, coefs, quant in zip(geometry.components, span.planes, quants)
    ]
    if hook:
        hook("idct", t0, perf_counter())
    y = planes[0][:height, :width]
    if len(planes) > 1:
        t0 = perf_counter() if hook else 0.0
        cb, cr = (
            upsample_plane(plane, geometry.mode,
                           options.fancy_upsampling)[:height, :width]
            for plane in planes[1:3])
        if hook:
            hook("upsample", t0, perf_counter())
    t0 = perf_counter() if hook else 0.0
    if len(planes) == 1:
        rgb = gray_to_rgb(y)
    elif len(planes) == 3:
        rgb = ycbcr_to_rgb_float(y, cb, cr)
    else:
        k = planes[3][:height, :width]
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


def _decode_baseline_salvage(info: JpegImageInfo,
                             options: DecodeOptions) -> DecodedImage:
    """Row-at-a-time baseline decode keeping everything before a failure."""
    coef = CoefficientController(info, options)
    geo = coef.geometry
    hook = options.stage_hook
    t_entropy = perf_counter() if hook else 0.0
    error_map = np.zeros((geo.mcu_rows, geo.mcus_per_row), dtype=bool)
    errors: list[str] = list(info.parse_errors)
    try:
        while not coef.entropy.finished:
            coef.decode_rows(1)
    except JpegError as exc:
        errors.append(str(exc))
        error_map[coef.entropy.rows_decoded:, :] = True
    else:
        if not info.scans[-1].terminated:
            # The truncated tail zero-fed through (EOB-shaped padding):
            # every row whose entropy ran to the cut is reconstructed
            # from padding, not data.  Condemn from the first such row.
            errors.append("entropy-coded data not terminated by a marker")
            offsets = coef.entropy.row_byte_offsets
            end = len(info.entropy_data)
            first_bad = geo.mcu_rows - 1
            for i in range(1, len(offsets)):
                if offsets[i] >= end:
                    first_bad = min(first_bad, i - 1)
                    break
            error_map[first_bad:, :] = True
    if hook:
        hook("entropy", t_entropy, perf_counter())
    rgb = pixels_from_coefficients(info, coef.entropy.coefficients, options)
    return DecodedImage(
        rgb=rgb,
        info=info,
        coefficients=coef.entropy.coefficients,
        row_byte_offsets=coef.entropy.row_byte_offsets,
        error_map=error_map,
        errors=errors,
    )


def decode_jpeg(data: bytes, options: DecodeOptions | None = None) -> DecodedImage:
    """Decode JFIF bytes to RGB — whole image, sequential.

    Baseline (SOF0) streams run the two-tier controller pipeline;
    progressive (SOF2) streams accumulate all scans through
    :class:`~repro.jpeg.progressive.ProgressiveDecoder` before the
    shared pixel stages.
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
    if options.salvage:
        return _decode_baseline_salvage(info, options)
    coef = CoefficientController(info, options)

    geo = coef.geometry
    t0 = perf_counter() if hook else 0.0
    coef.decode_rows(geo.mcu_rows)
    if hook:
        hook("entropy", t0, perf_counter())
    rgb = pixels_from_coefficients(info, coef.entropy.coefficients, options)
    return DecodedImage(
        rgb=rgb,
        info=info,
        coefficients=coef.entropy.coefficients,
        row_byte_offsets=coef.entropy.row_byte_offsets,
    )


def decode_jpeg_rowwise(data: bytes, options: DecodeOptions | None = None,
                        rows_per_step: int = 1) -> DecodedImage:
    """Decode in MCU-row steps, the legacy libjpeg-turbo execution style.

    Produces output identical to :func:`decode_jpeg`; exists to model (and
    test) the row-granular path whose extra dependencies the paper's
    Section 3 identifies as the obstacle to parallelism.  Emits the same
    five stages on ``stage_hook``, "entropy" and the pixel stages once
    per step.
    """
    options = options or DecodeOptions()
    hook = options.stage_hook
    t0 = perf_counter() if hook else 0.0
    info = parse_jpeg(data)
    if hook:
        hook("parse", t0, perf_counter())
    if info.progressive:
        raise JpegUnsupportedError(
            "progressive JPEGs decode whole-image; use decode_jpeg")
    coef = CoefficientController(info, options)
    geo = coef.geometry
    quants = quant_tables_from_info(info)

    rgb = np.empty((info.height, info.width, 3), dtype=np.uint8)
    done = 0
    while done < geo.mcu_rows:
        step = min(rows_per_step, geo.mcu_rows - done)
        t0 = perf_counter() if hook else 0.0
        coef.decode_rows(step)
        if hook:
            hook("entropy", t0, perf_counter())
        span = render_span(geo, coef.entropy.coefficients, quants,
                           done, done + step, options, info.adobe_transform)
        y0 = done * geo.mcu_height
        rgb[y0:y0 + len(span)] = span
        done += step
    return DecodedImage(
        rgb=rgb,
        info=info,
        coefficients=coef.entropy.coefficients,
        row_byte_offsets=coef.entropy.row_byte_offsets,
    )
