"""The executor for the six decode modes (paper Figures 5 and 8).

:func:`execute` produces two things from one compressed image:

1. **Real pixels** — bit-identical to the reference sequential decoder
   (the math always runs through the same stage primitives, whether a
   span executes "on the CPU" or "on the GPU").
2. **A simulated timeline** — host clock + device command queue, priced
   by the calibrated platform model.  The host enqueues asynchronously
   and only pays dispatch overhead, exactly the OpenCL semantics the
   paper's schemes exploit.

It also runs in *pricing mode* (PreparedImage.virtual or
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
from ..jpeg.coefficients import CoefficientBuffers
from ..jpeg.fast_entropy import FastEntropyDecoder
from ..jpeg.markers import JpegImageInfo, parse_jpeg
from ..kernels.options import GpuProgramOptions
from ..kernels.program import GpuDecodeProgram
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
    """One image, entropy-decoded once and shared across modes.

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
    def from_bytes(cls, data: bytes) -> "PreparedImage":
        """Parse + fully entropy-decode a real JPEG (the expensive step)."""
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
        dec = FastEntropyDecoder(geo, component_tables_from_info(info),
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
        coefficient data.  :func:`execute` then skips all pixel math while
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


# ---------------------------------------------------------------------------
# Shared configuration.
# ---------------------------------------------------------------------------

@dataclass
class ExecutionConfig:
    """Everything :func:`execute` needs besides the image and the mode."""

    platform: Platform
    model: PerformanceModel | None = None
    gpu_options: GpuProgramOptions = field(default_factory=GpuProgramOptions)
    chunk_mcu_rows: int | None = None   # pipeline chunk size; defaults to model's
    repartition: bool = True            # PPS re-partitioning (A6 ablation)

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
# The executor: one timeline, two switches.
# ---------------------------------------------------------------------------

def _chunk_spans(total_rows: int, chunk_rows: int) -> list[tuple[int, int]]:
    """Split [0, total_rows) into chunk-sized MCU-row spans."""
    return [(r, min(r + chunk_rows, total_rows))
            for r in range(0, total_rows, chunk_rows)]


def _gpu_share(config: ExecutionConfig, prepared: PreparedImage,
               mode: DecodeMode) -> tuple[int, PartitionDecision | None]:
    """MCU rows the GPU takes from the top: none (CPU-only), all (not
    partitioned), or what Eq 10 (SPS) / Eq 15 (PPS) balance out."""
    geo = prepared.geometry
    if not mode.uses_gpu:
        return 0, None
    if not mode.is_partitioned:
        return geo.mcu_rows, None
    model = config.require_model(mode)
    if mode.is_pipelined:
        decision = partition_pps(
            model, geo.width, geo.height, prepared.density,
            config.resolve_chunk_rows() * geo.mcu_height, geo.mcu_height)
    else:
        decision = partition_sps(model, geo.width, geo.height, geo.mcu_height)
    return geo.pixel_rows_to_mcu_rows(decision.gpu_rows), decision


def _resolve_last_chunk(config: ExecutionConfig, prepared: PreparedImage,
                        decision: PartitionDecision, r0: int,
                        consumed_huff: float, backlog: float
                        ) -> tuple[int, PartitionDecision]:
    """Eq 16/17: one GPU chunk + the CPU partition remain from MCU row
    *r0*; re-solve the split with the density the decoded chunks showed.
    Returns the GPU's new last row and the decision as finally taken."""
    geo, model = prepared.geometry, config.model
    remaining_px = min((geo.mcu_rows - r0) * geo.mcu_height,
                       geo.height - r0 * geo.mcu_height)
    est_total_huff = model.t_huff(geo.width, geo.height, prepared.density)
    d_corr = corrected_density(
        max(est_total_huff, 1e-9), consumed_huff,
        remaining_px, geo.height, prepared.density)
    re_dec = repartition_pps(model, geo.width, remaining_px,
                             d_corr, backlog, geo.mcu_height)
    r1 = min(r0 + geo.pixel_rows_to_mcu_rows(re_dec.gpu_rows), geo.mcu_rows)
    gpu_px = min(r1 * geo.mcu_height, geo.height)
    return r1, PartitionDecision(
        cpu_rows=geo.height - gpu_px,
        gpu_rows=gpu_px,
        x_unrounded=re_dec.x_unrounded,
        iterations=decision.iterations + re_dec.iterations,
        converged=re_dec.converged,
        predicted_cpu_us=re_dec.predicted_cpu_us,
        predicted_gpu_us=re_dec.predicted_gpu_us,
    )


def execute(config: ExecutionConfig, prepared: PreparedImage,
            mode: DecodeMode) -> DecodeResult:
    """Run (or price) one decode under any of the six modes.

    The modes are one timeline with two switches (plus CPU-only):
    *partitioned* decides how many MCU rows the GPU takes (Section 5.2,
    Figure 8a/8c), *pipelined* decides whether Huffman runs up front or
    chunk by chunk with each chunk dispatched as it lands (Section 4.5,
    Figure 5b/8c).  The CPU takes whatever rows are left.
    """
    geo = prepared.geometry
    n = geo.mcu_rows
    pipelined = mode.is_pipelined
    timeline = Timeline()
    huff = prepared.huff_row_us(config.platform)
    gpu_rows, decision = _gpu_share(config, prepared, mode)
    program, queue = (_make_program(config, prepared) if gpu_rows > 0
                      else (None, None))
    host = consumed_huff = 0.0
    decoded = 0                      # MCU rows Huffman has been through
    parts: list[np.ndarray] = []

    def huffman(r0: int, r1: int) -> float:
        dt = float(huff[r0:r1].sum())
        label = f"huffman[{r0}:{r1}]" if pipelined else "huffman"
        timeline.add("cpu", label, "huffman", host, host + dt)
        return dt

    if not pipelined:
        host += huffman(0, n)
        decoded = n
    spans = (_chunk_spans(gpu_rows, config.resolve_chunk_rows()) if pipelined
             else [(0, gpu_rows)] if gpu_rows > 0 else [])
    resolve_last = mode.is_partitioned and pipelined and config.repartition
    for i, (r0, r1) in enumerate(spans):
        if resolve_last and i == len(spans) - 1:
            r1, decision = _resolve_last_chunk(
                config, prepared, decision, r0, consumed_huff,
                max(0.0, queue.device_free_at - host))
            gpu_rows = r1
            if r1 == r0:
                break
        if pipelined:
            dt = huffman(r0, r1)
            host += dt
            consumed_huff += dt
            decoded = r1
        t_before = host
        host, events, rgb = _gpu_span(program, prepared, r0, r1, host)
        timeline.add("cpu", f"dispatch[{r0}:{r1}]" if pipelined else "dispatch",
                     "dispatch", t_before, host)
        timeline.add_events(events)
        if rgb is not None:
            parts.append(rgb)

    # the CPU takes the rows that are left
    if decoded < n:
        host += huffman(decoded, n)
    cpu_end = host
    if not mode.uses_gpu:
        cpu_end = _cpu_stage_spans(config, geo, timeline, host,
                                   simd=mode is DecodeMode.SIMD)
    elif gpu_rows < n:
        cpu_px = geo.height - min(gpu_rows * geo.mcu_height, geo.height)
        cpu_end = host + calibrate.cpu_parallel_time_us(
            geo.width, cpu_px, geo.mode, config.platform.cpu, simd=True)
        timeline.add("cpu", f"simd[{gpu_rows}:{n}]", "cpu-parallel",
                     host, cpu_end)
    if gpu_rows < n and not prepared.is_virtual:
        parts.append(render_span(geo, prepared.coefficients, prepared.quants,
                                 gpu_rows, n, DecodeOptions()))

    total = max(cpu_end, queue.finish(host)) if queue is not None else cpu_end
    # Each part is a fresh array of its own: a lone one is the frame.
    rgb = np.vstack(parts) if len(parts) > 1 else (parts[0] if parts else None)
    return DecodeResult(
        mode=mode, rgb=rgb, geometry=geo,
        timeline=timeline, total_us=total,
        breakdown=timeline.stage_breakdown(), partition=decision,
        info=prepared.info,
    )
