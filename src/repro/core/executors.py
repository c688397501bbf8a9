"""Execution engines for the six decode modes (paper Figures 5 and 8).

Every executor produces two things from one compressed image:

1. **Real pixels** — bit-identical to the reference sequential decoder
   (the math always runs through the same stage primitives, whether a
   span executes "on the CPU" or "on the GPU").
2. **A simulated timeline** — host clock + device command queue, priced
   by the calibrated platform model.  The host enqueues asynchronously
   and only pays dispatch overhead, exactly the OpenCL semantics the
   paper's schemes exploit.

Executors also run in *pricing mode* (PreparedImage.virtual or
coefficients=None): all scheduling logic executes, no pixel math — this
is what offline profiling and chunk-size selection use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import JpegUnsupportedError, PartitionError
from ..gpusim import calibrate
from ..gpusim.queue import CommandQueue
from ..jpeg.blocks import ImageGeometry
from ..jpeg.decoder import (
    DecodeOptions,
    component_tables_from_info,
    quant_tables_from_info,
    render_span,
)
from ..jpeg.entropy import CoefficientBuffers
from ..jpeg.fast_entropy import create_entropy_decoder
from ..jpeg.markers import JpegImageInfo, parse_jpeg
from ..kernels.program import GpuDecodeProgram, GpuProgramOptions
from .modes import DecodeMode
from .partition import (
    PartitionDecision,
    corrected_density,
    partition_pps,
    partition_sps,
    repartition_pps,
)
from .perfmodel import PerformanceModel
from .platform import Platform
from .timeline import Timeline


# ---------------------------------------------------------------------------
# Input wrapper.
# ---------------------------------------------------------------------------

@dataclass
class PreparedImage:
    """One image, entropy-decoded once and shared across executors.

    ``coefficients is None`` marks a *virtual* image used for pricing:
    scheduling runs, pixel math is skipped, density is uniform.
    """

    geometry: ImageGeometry
    density: float                       # entropy bytes / pixel (Eq 3 input)
    info: JpegImageInfo | None = None
    coefficients: CoefficientBuffers | None = None
    row_byte_offsets: list[int] = field(default_factory=list)
    quants: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def from_bytes(cls, data: bytes,
                   entropy_engine: str = "fast") -> "PreparedImage":
        """Parse + fully entropy-decode a real JPEG (the expensive step).

        *entropy_engine* selects the Huffman decode path ("fast" or
        "reference"); both are bit-exact, the fast engine is the default
        so every pipeline benchmark rides the fused decode tables.
        """
        info = parse_jpeg(data)
        if info.progressive:
            raise JpegUnsupportedError(
                "progressive streams are not supported by the simulated "
                "executors; decode on the reference path")
        if len(info.frame.components) != 3:
            raise JpegUnsupportedError(
                "simulated executors model 3-component YCbCr decoding "
                "only; decode on the reference path")
        geo = info.geometry
        dec = create_entropy_decoder(entropy_engine, geo,
                                     component_tables_from_info(info),
                                     info.restart_interval)
        dec.start(info.entropy_data)
        dec.decode_mcu_rows(geo.mcu_rows)
        return cls(
            geometry=geo,
            density=info.file_density,
            info=info,
            coefficients=dec.coefficients,
            row_byte_offsets=dec.row_byte_offsets,
            quants=quant_tables_from_info(info),
        )

    @classmethod
    def virtual(cls, width: int, height: int, mode: str,
                density: float) -> "PreparedImage":
        """A descriptor-only image for profiling/scheduling studies."""
        geo = ImageGeometry(width, height, mode)
        per_row = density * width * geo.mcu_height
        offsets = [int(round(per_row * r)) for r in range(geo.mcu_rows + 1)]
        return cls(geometry=geo, density=density, row_byte_offsets=offsets)

    @property
    def is_virtual(self) -> bool:
        return self.coefficients is None

    def as_virtual(self) -> "PreparedImage":
        """A pricing-only copy: same geometry/density/row offsets, no
        coefficient data.  Executors then skip all pixel math while
        producing *identical* simulated timings — the benchmark harness
        replays schedules through these."""
        return PreparedImage(
            geometry=self.geometry, density=self.density, info=self.info,
            coefficients=None, row_byte_offsets=list(self.row_byte_offsets),
            quants=list(self.quants),
        )

    def huff_row_us(self, platform: Platform) -> np.ndarray:
        """Simulated Huffman time per MCU row, from real byte deltas."""
        geo = self.geometry
        offsets = np.asarray(self.row_byte_offsets, dtype=np.float64)
        if len(offsets) != geo.mcu_rows + 1:
            raise PartitionError("row byte offsets do not match geometry")
        deltas = np.diff(offsets)
        row_px = np.full(geo.mcu_rows, geo.width * geo.mcu_height, dtype=np.float64)
        # bottom row may be partial in pixel terms; Huffman still decodes
        # the full MCU row of blocks, so no correction is applied
        ns = (calibrate.HUFFMAN_BASE_NS_PER_PIXEL * row_px
              + calibrate.HUFFMAN_SLOPE_NS_PER_BYTE * deltas)
        return ns / (1e3 * platform.cpu.speed_factor)


# ---------------------------------------------------------------------------
# Result type.
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    """Pixels + simulated performance record of one decode."""

    mode: DecodeMode
    rgb: np.ndarray | None
    geometry: ImageGeometry
    timeline: Timeline
    total_us: float
    breakdown: dict[str, float] = field(default_factory=dict)
    partition: PartitionDecision | None = None
    info: JpegImageInfo | None = None

    @property
    def total_time_ms(self) -> float:
        return self.total_us / 1e3

    def speedup_over(self, other: "DecodeResult") -> float:
        return other.total_us / self.total_us


# ---------------------------------------------------------------------------
# Shared configuration.
# ---------------------------------------------------------------------------

@dataclass
class ExecutionConfig:
    """Everything an executor needs besides the image."""

    platform: Platform
    model: PerformanceModel | None = None
    gpu_options: GpuProgramOptions = field(default_factory=GpuProgramOptions)
    chunk_mcu_rows: int | None = None   # pipeline chunk size; defaults to model's
    repartition: bool = True            # PPS re-partitioning (A6 ablation)
    fancy_upsampling: bool = True

    def resolve_chunk_rows(self) -> int:
        if self.chunk_mcu_rows is not None:
            return max(1, self.chunk_mcu_rows)
        if self.model is not None:
            return max(1, self.model.chunk_mcu_rows)
        return 8

    def require_model(self, mode: DecodeMode) -> PerformanceModel:
        if self.model is None:
            raise PartitionError(
                f"{mode.value} mode needs a fitted PerformanceModel "
                "(run repro.core.profiling.profile_platform first)"
            )
        return self.model


# ---------------------------------------------------------------------------
# CPU parallel phase (real math + simulated cost).
# ---------------------------------------------------------------------------

def cpu_parallel_span(geometry: ImageGeometry, coeffs: CoefficientBuffers,
                      quants: list[np.ndarray], mcu_row_start: int,
                      mcu_row_stop: int, fancy: bool = True) -> np.ndarray:
    """Dequant + IDCT + upsample + color for an MCU-row span, on the CPU.

    Identical primitives to the GPU program, so pixels match exactly.
    4:2:0's vertical fancy upsampling needs cross-span context, which the
    paper's partitioned modes never require (they cover 4:4:4/4:2:2);
    partial 4:2:0 spans are therefore rejected.
    """
    geo = geometry
    whole = mcu_row_start == 0 and mcu_row_stop == geo.mcu_rows
    if geo.mode == "4:2:0" and not whole:
        raise JpegUnsupportedError(
            "partial spans are not defined for 4:2:0 (no vertical context)"
        )
    return render_span(geo, coeffs, quants, mcu_row_start, mcu_row_stop,
                       DecodeOptions(fancy_upsampling=fancy))


def cpu_span_time_us(config: ExecutionConfig, geometry: ImageGeometry,
                     pixel_rows: int, simd: bool) -> float:
    """Simulated CPU time for the parallel phase over *pixel_rows*."""
    if pixel_rows <= 0:
        return 0.0
    return calibrate.cpu_parallel_time_us(
        geometry.width, pixel_rows, geometry.mode, config.platform.cpu, simd)


def _cpu_stage_spans(config: ExecutionConfig, geometry: ImageGeometry,
                     timeline: Timeline, t0: float, simd: bool) -> float:
    """Add per-stage CPU spans (idct, upsample, color) from t0; return end."""
    costs = calibrate.SIMD_COSTS if simd else calibrate.SEQUENTIAL_COSTS
    idct_samples, up_samples, pixels = calibrate.stage_counts(
        geometry.width, geometry.height, geometry.mode)
    speed = 1e3 * config.platform.cpu.speed_factor
    t = t0
    for label, units, cost in (
        ("idct", idct_samples, costs.idct_ns_per_sample),
        ("upsample", up_samples, costs.upsample_ns_per_sample),
        ("color", pixels, costs.color_ns_per_pixel),
    ):
        dur = units * cost / speed
        if dur > 0:
            timeline.add("cpu", label, "cpu-parallel", t, t + dur)
            t += dur
    return t


def _make_program(config: ExecutionConfig,
                  prepared: PreparedImage) -> tuple[GpuDecodeProgram, CommandQueue]:
    queue = CommandQueue(config.platform.gpu)
    quants = prepared.quants or [np.ones((8, 8), dtype=np.uint16)] * 3
    program = GpuDecodeProgram(queue, prepared.geometry, quants,
                               config.gpu_options)
    return program, queue


def _gpu_span(program: GpuDecodeProgram, prepared: PreparedImage,
              r0: int, r1: int, host: float):
    """Run (or price) one GPU span; returns (host', events, rgb|None)."""
    if prepared.is_virtual:
        host, events = program.price_span(r0, r1, host)
        return host, events, None
    host, res = program.run_span(prepared.coefficients, r0, r1, host)
    return host, res.events, res.rgb


# ---------------------------------------------------------------------------
# Mode executors.
# ---------------------------------------------------------------------------

def execute_cpu_only(config: ExecutionConfig, prepared: PreparedImage,
                     mode: DecodeMode) -> DecodeResult:
    """SEQUENTIAL and SIMD modes: Huffman then the CPU parallel phase."""
    if mode not in (DecodeMode.SEQUENTIAL, DecodeMode.SIMD):
        raise ValueError(f"not a CPU-only mode: {mode}")
    simd = mode is DecodeMode.SIMD
    geo = prepared.geometry
    timeline = Timeline()
    huff = prepared.huff_row_us(config.platform)
    t_h = float(huff.sum())
    timeline.add("cpu", "huffman", "huffman", 0.0, t_h)
    t_end = _cpu_stage_spans(config, geo, timeline, t_h, simd)

    rgb = None
    if not prepared.is_virtual:
        rgb = cpu_parallel_span(geo, prepared.coefficients, prepared.quants,
                                0, geo.mcu_rows, config.fancy_upsampling)
    return DecodeResult(
        mode=mode, rgb=rgb, geometry=geo, timeline=timeline,
        total_us=t_end, breakdown=timeline.stage_breakdown(),
        info=prepared.info,
    )


def execute_gpu(config: ExecutionConfig, prepared: PreparedImage) -> DecodeResult:
    """GPU mode: full Huffman on the CPU, one GPU pass (Figure 5a)."""
    geo = prepared.geometry
    program, queue = _make_program(config, prepared)
    timeline = Timeline()
    huff = prepared.huff_row_us(config.platform)
    t_h = float(huff.sum())
    timeline.add("cpu", "huffman", "huffman", 0.0, t_h)

    host, events, rgb = _gpu_span(program, prepared, 0, geo.mcu_rows, t_h)
    timeline.add("cpu", "dispatch", "dispatch", t_h, host)
    timeline.add_events(events)
    total = queue.finish(host)
    return DecodeResult(
        mode=DecodeMode.GPU, rgb=rgb, geometry=geo, timeline=timeline,
        total_us=total, breakdown=timeline.stage_breakdown(),
        info=prepared.info,
    )


def _chunk_spans(total_rows: int, chunk_rows: int) -> list[tuple[int, int]]:
    """Split [0, total_rows) into chunk-sized MCU-row spans."""
    spans = []
    r = 0
    while r < total_rows:
        spans.append((r, min(r + chunk_rows, total_rows)))
        r += chunk_rows
    return spans


def execute_pipeline(config: ExecutionConfig,
                     prepared: PreparedImage) -> DecodeResult:
    """Pipelined GPU mode (Section 4.5, Figure 5b): Huffman chunks
    stream to the GPU; kernels overlap subsequent Huffman decoding."""
    geo = prepared.geometry
    chunk_rows = config.resolve_chunk_rows()
    program, queue = _make_program(config, prepared)
    timeline = Timeline()
    huff = prepared.huff_row_us(config.platform)

    host = 0.0
    parts: list[np.ndarray] = []
    for (r0, r1) in _chunk_spans(geo.mcu_rows, chunk_rows):
        dt = float(huff[r0:r1].sum())
        timeline.add("cpu", f"huffman[{r0}:{r1}]", "huffman", host, host + dt)
        host += dt
        t_before = host
        host, events, rgb = _gpu_span(program, prepared, r0, r1, host)
        timeline.add("cpu", f"dispatch[{r0}:{r1}]", "dispatch", t_before, host)
        timeline.add_events(events)
        if rgb is not None:
            parts.append(rgb)
    total = queue.finish(host)
    out = np.vstack(parts) if parts else None
    return DecodeResult(
        mode=DecodeMode.PIPELINE, rgb=out, geometry=geo, timeline=timeline,
        total_us=total, breakdown=timeline.stage_breakdown(),
        info=prepared.info,
    )


def execute_sps(config: ExecutionConfig, prepared: PreparedImage) -> DecodeResult:
    """SPS (Section 5.2.1, Figure 8a): full Huffman, then the parallel
    phase split between GPU (top rows) and CPU (bottom rows)."""
    geo = prepared.geometry
    model = config.require_model(DecodeMode.SPS)
    timeline = Timeline()
    huff = prepared.huff_row_us(config.platform)
    t_h = float(huff.sum())
    timeline.add("cpu", "huffman", "huffman", 0.0, t_h)

    decision = partition_sps(model, geo.width, geo.height, geo.mcu_height)
    gpu_mcu_rows = geo.pixel_rows_to_mcu_rows(decision.gpu_rows)
    host = t_h
    parts: list[np.ndarray] = []

    queue = None
    if gpu_mcu_rows > 0:
        program, queue = _make_program(config, prepared)
        t_before = host
        host, events, rgb = _gpu_span(program, prepared, 0, gpu_mcu_rows, host)
        timeline.add("cpu", "dispatch", "dispatch", t_before, host)
        timeline.add_events(events)
        if rgb is not None:
            parts.append(rgb)

    cpu_pixel_rows = geo.height - min(gpu_mcu_rows * geo.mcu_height, geo.height)
    cpu_end = host
    if cpu_pixel_rows > 0:
        dt = cpu_span_time_us(config, geo, cpu_pixel_rows, simd=True)
        timeline.add("cpu", f"simd[{gpu_mcu_rows}:{geo.mcu_rows}]",
                     "cpu-parallel", host, host + dt)
        cpu_end = host + dt
        if not prepared.is_virtual:
            parts.append(cpu_parallel_span(
                geo, prepared.coefficients, prepared.quants,
                gpu_mcu_rows, geo.mcu_rows, config.fancy_upsampling))

    total = max(cpu_end, queue.finish(host) if queue is not None else cpu_end)
    out = np.vstack(parts) if parts and not prepared.is_virtual else None
    return DecodeResult(
        mode=DecodeMode.SPS, rgb=out, geometry=geo, timeline=timeline,
        total_us=total, breakdown=timeline.stage_breakdown(),
        partition=decision, info=prepared.info,
    )


def execute_pps(config: ExecutionConfig, prepared: PreparedImage) -> DecodeResult:
    """PPS (Section 5.2.2, Figure 8c): GPU chunks overlap Huffman; the
    split is re-solved before the last GPU chunk (Eq 16/17)."""
    geo = prepared.geometry
    model = config.require_model(DecodeMode.PPS)
    chunk_rows = config.resolve_chunk_rows()
    timeline = Timeline()
    huff = prepared.huff_row_us(config.platform)

    decision = partition_pps(
        model, geo.width, geo.height, prepared.density,
        chunk_rows * geo.mcu_height, geo.mcu_height)
    gpu_mcu_rows = geo.pixel_rows_to_mcu_rows(decision.gpu_rows)

    program, queue = (None, None)
    if gpu_mcu_rows > 0:
        program, queue = _make_program(config, prepared)

    spans = _chunk_spans(gpu_mcu_rows, chunk_rows)
    est_total_huff = model.t_huff(geo.width, geo.height, prepared.density)

    host = 0.0
    parts: list[np.ndarray] = []
    consumed_huff = 0.0
    final_decision = decision

    for i, (r0, r1) in enumerate(spans):
        is_last = i == len(spans) - 1
        if is_last and config.repartition:
            # Eq 16/17: one GPU chunk + the CPU partition remain
            remaining_mcu_rows = geo.mcu_rows - r0
            remaining_px = min(remaining_mcu_rows * geo.mcu_height,
                               geo.height - r0 * geo.mcu_height)
            d_corr = corrected_density(
                max(est_total_huff, 1e-9), consumed_huff,
                remaining_px, geo.height, prepared.density)
            backlog = max(0.0, queue.device_free_at - host) if queue else 0.0
            re_dec = repartition_pps(model, geo.width, remaining_px,
                                     d_corr, backlog, geo.mcu_height)
            new_gpu_px = re_dec.gpu_rows
            new_gpu_rows = geo.pixel_rows_to_mcu_rows(new_gpu_px)
            r1 = min(r0 + new_gpu_rows, geo.mcu_rows)
            gpu_mcu_rows = r1
            final_decision = PartitionDecision(
                cpu_rows=geo.height - min(r1 * geo.mcu_height, geo.height),
                gpu_rows=min(r1 * geo.mcu_height, geo.height),
                x_unrounded=re_dec.x_unrounded,
                iterations=decision.iterations + re_dec.iterations,
                converged=re_dec.converged,
                predicted_cpu_us=re_dec.predicted_cpu_us,
                predicted_gpu_us=re_dec.predicted_gpu_us,
            )
            if r1 <= r0:
                gpu_mcu_rows = r0
                break
        dt = float(huff[r0:r1].sum())
        timeline.add("cpu", f"huffman[{r0}:{r1}]", "huffman", host, host + dt)
        host += dt
        consumed_huff += dt
        t_before = host
        host, events, rgb = _gpu_span(program, prepared, r0, r1, host)
        timeline.add("cpu", f"dispatch[{r0}:{r1}]", "dispatch", t_before, host)
        timeline.add_events(events)
        if rgb is not None:
            parts.append(rgb)
        if is_last:
            break

    # CPU partition: Huffman for the remaining rows, then SIMD
    cpu_end = host
    if gpu_mcu_rows < geo.mcu_rows:
        dt_h = float(huff[gpu_mcu_rows:].sum())
        timeline.add("cpu", f"huffman[{gpu_mcu_rows}:{geo.mcu_rows}]",
                     "huffman", host, host + dt_h)
        host += dt_h
        cpu_px = geo.height - min(gpu_mcu_rows * geo.mcu_height, geo.height)
        dt_c = cpu_span_time_us(config, geo, cpu_px, simd=True)
        timeline.add("cpu", f"simd[{gpu_mcu_rows}:{geo.mcu_rows}]",
                     "cpu-parallel", host, host + dt_c)
        cpu_end = host + dt_c
        if not prepared.is_virtual:
            parts.append(cpu_parallel_span(
                geo, prepared.coefficients, prepared.quants,
                gpu_mcu_rows, geo.mcu_rows, config.fancy_upsampling))

    gpu_end = queue.finish(host) if queue is not None else cpu_end
    total = max(cpu_end, gpu_end)
    out = np.vstack(parts) if parts and not prepared.is_virtual else None
    return DecodeResult(
        mode=DecodeMode.PPS, rgb=out, geometry=geo, timeline=timeline,
        total_us=total, breakdown=timeline.stage_breakdown(),
        partition=final_decision, info=prepared.info,
    )


#: Dispatch table used by the public decoder facade.
EXECUTORS = {
    DecodeMode.SEQUENTIAL: lambda cfg, img: execute_cpu_only(cfg, img, DecodeMode.SEQUENTIAL),
    DecodeMode.SIMD: lambda cfg, img: execute_cpu_only(cfg, img, DecodeMode.SIMD),
    DecodeMode.GPU: execute_gpu,
    DecodeMode.PIPELINE: execute_pipeline,
    DecodeMode.SPS: execute_sps,
    DecodeMode.PPS: execute_pps,
}
