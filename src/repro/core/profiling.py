"""Offline profiling (paper Section 5.1).

Runs the instrumented decoder — in pricing mode, so no pixel math — over
a training corpus spanning the (width, height, density) space, collects
per-stage times for every mode, sweeps the OpenCL work-group size from
4 to 32 MCUs, selects the pipeline chunk size, and fits the polynomial
closed forms by AIC.  One call per CPU-GPU combination and subsampling,
exactly the paper's "required only once for a given CPU-GPU combination".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import KernelError, ProfilingError
from ..gpusim import calibrate
from ..gpusim.queue import CommandQueue
from ..jpeg.blocks import ImageGeometry
from ..kernels.options import KERNEL_SUBSAMPLINGS, GpuProgramOptions
from ..kernels.program import GpuDecodeProgram
from .chunking import profile_chunk_sizes
from .executors import PreparedImage
from .perfmodel import PerformanceModel
from .platform import Platform
from .regression import fit_best_polynomial

#: Paper sweep: "work-group sizes are alternated from 4 MCUs to 32 MCUs".
#: An MCU is 4 blocks in both 4:2:2 (2Y+Cb+Cr) and 4:4:4 (interleaved
#: batches of 4 for warp alignment), so candidates are in blocks.
WORKGROUP_CANDIDATES_MCUS = (4, 8, 16, 32)
BLOCKS_PER_MCU = 4


@dataclass(frozen=True)
class TrainingImage:
    """A virtual training-corpus member (the model only sees w, h, d)."""

    width: int
    height: int
    density: float


def default_training_grid(
    widths: tuple[int, ...] = (128, 192, 256, 384, 512, 768, 1024, 1536, 2048),
    heights: tuple[int, ...] = (128, 256, 384, 512, 768, 1024, 1536, 2048),
    densities: tuple[float, ...] = (0.05, 0.08, 0.12, 0.18, 0.25, 0.35, 0.45),
) -> list[TrainingImage]:
    """Cropped-grid corpus mirroring the paper's methodology: base
    images cropped to all width x height combinations (Section 5.1), at
    laptop scale.  Densities rotate across the grid so every dimension
    pair appears with several entropy levels."""
    images = []
    i = 0
    for w in widths:
        for h in heights:
            images.append(TrainingImage(w, h, densities[i % len(densities)]))
            i += 1
    return images


@dataclass
class ProfileRecord:
    """Raw per-image measurements collected during profiling."""

    width: int
    height: int
    density: float
    t_huff_us: float
    p_cpu_simd_us: float
    p_cpu_seq_us: float
    p_gpu_us: float
    t_disp_us: float


@dataclass
class ProfilingReport:
    """Everything profiling produced, for inspection and EXPERIMENTS.md."""

    model: PerformanceModel
    records: list[ProfileRecord] = field(default_factory=list)
    workgroup_sweep: dict[int, float] = field(default_factory=dict)
    chunk_sweep: list = field(default_factory=list)


def _price_gpu_full(platform: Platform, geo: ImageGeometry,
                    options: GpuProgramOptions) -> tuple[float, float]:
    """(PGPU, Tdisp) for a whole-image span: device span per Eq 7 and
    host-side dispatch cost."""
    queue = CommandQueue(platform.gpu)
    quants = [np.ones((8, 8), dtype=np.uint16)] * 3
    program = GpuDecodeProgram(queue, geo, quants, options)
    host_end, events = program.price_span(0, geo.mcu_rows, 0.0)
    p_gpu = events[-1].end - events[0].start
    return p_gpu, host_end


def profile_platform(
    platform: Platform,
    subsampling: str = "4:2:2",
    training: list[TrainingImage] | None = None,
    max_degree: int = 7,
    gpu_options: GpuProgramOptions | None = None,
    chunk_profile_sizes: tuple[tuple[int, int], ...] = ((1536, 1536), (2048, 2048)),
    full_report: bool = False,
) -> PerformanceModel | ProfilingReport:
    """Profile one platform and fit its :class:`PerformanceModel`.

    Set ``full_report=True`` to also get the raw records and sweeps.
    """
    if subsampling not in KERNEL_SUBSAMPLINGS:
        raise ProfilingError(
            f"profiling covers the paper's modes (4:4:4/4:2:2), not {subsampling}"
        )
    if training is not None and not training:
        raise ProfilingError("empty training corpus")
    if training is None:
        training = default_training_grid()
    base_options = gpu_options or GpuProgramOptions()

    # -- work-group size sweep (Section 5.1) -----------------------------
    # Candidates whose resource demand exceeds the device (the OpenCL
    # CL_OUT_OF_RESOURCES case) are observed as failures and skipped.
    sweep_geo = ImageGeometry(2048, 2048, subsampling)
    wg_sweep: dict[int, float] = {}
    for mcus in WORKGROUP_CANDIDATES_MCUS:
        opts = GpuProgramOptions(
            merge_kernels=base_options.merge_kernels,
            vectorized=base_options.vectorized,
            divergence_free=base_options.divergence_free,
            workgroup_blocks=mcus * BLOCKS_PER_MCU,
            workgroup_items=base_options.workgroup_items,
        )
        try:
            wg_sweep[mcus], _ = _price_gpu_full(platform, sweep_geo, opts)
        except KernelError:
            wg_sweep[mcus] = float("inf")
    best_mcus = min(wg_sweep, key=wg_sweep.get)
    if not np.isfinite(wg_sweep[best_mcus]):
        raise ProfilingError("no feasible work-group size for this device")
    options = GpuProgramOptions(
        merge_kernels=base_options.merge_kernels,
        vectorized=base_options.vectorized,
        divergence_free=base_options.divergence_free,
        workgroup_blocks=best_mcus * BLOCKS_PER_MCU,
        workgroup_items=base_options.workgroup_items,
    )

    # -- per-image stage measurements -------------------------------------
    records: list[ProfileRecord] = []
    for img in training:
        geo = ImageGeometry(img.width, img.height, subsampling)
        pixels = img.width * img.height
        entropy_bytes = int(img.density * pixels)
        t_huff = calibrate.huffman_time_us(pixels, entropy_bytes, platform.cpu)
        p_simd = calibrate.cpu_parallel_time_us(
            img.width, img.height, subsampling, platform.cpu, simd=True)
        p_seq = calibrate.cpu_parallel_time_us(
            img.width, img.height, subsampling, platform.cpu, simd=False)
        p_gpu, t_disp = _price_gpu_full(platform, geo, options)
        records.append(ProfileRecord(
            width=img.width, height=img.height, density=img.density,
            t_huff_us=t_huff, p_cpu_simd_us=p_simd, p_cpu_seq_us=p_seq,
            p_gpu_us=p_gpu, t_disp_us=t_disp))

    # -- regression fits (AIC-selected degree, Section 5.1) ----------------
    d = np.array([[r.density] for r in records])
    rate = np.array([r.t_huff_us / (r.width * r.height) for r in records])
    wh = np.array([[r.width, r.height] for r in records], dtype=np.float64)

    huff_fit = fit_best_polynomial(d, rate, max_degree=max_degree)
    cpu_simd_fit = fit_best_polynomial(
        wh, [r.p_cpu_simd_us for r in records], max_degree=max_degree)
    cpu_seq_fit = fit_best_polynomial(
        wh, [r.p_cpu_seq_us for r in records], max_degree=max_degree)
    gpu_fit = fit_best_polynomial(
        wh, [r.p_gpu_us for r in records], max_degree=max_degree)
    disp_fit = fit_best_polynomial(
        wh, [r.t_disp_us for r in records], max_degree=max_degree)

    model = PerformanceModel(
        platform_name=platform.name,
        subsampling=subsampling,
        huff_rate_fit=huff_fit,
        cpu_simd_fit=cpu_simd_fit,
        cpu_seq_fit=cpu_seq_fit,
        gpu_fit=gpu_fit,
        disp_fit=disp_fit,
        workgroup_blocks=best_mcus * BLOCKS_PER_MCU,
    )

    # -- chunk-size selection (Section 4.5) --------------------------------
    typical_density = float(np.median([r.density for r in records]))
    chunk_images = [
        PreparedImage.virtual(w, h, subsampling, typical_density)
        for (w, h) in chunk_profile_sizes
    ]
    chunk_rows, chunk_entries = profile_chunk_sizes(
        platform, chunk_images, gpu_options=options)
    model.chunk_mcu_rows = chunk_rows

    if full_report:
        return ProfilingReport(model=model, records=records,
                               workgroup_sweep=wg_sweep,
                               chunk_sweep=chunk_entries)
    return model
