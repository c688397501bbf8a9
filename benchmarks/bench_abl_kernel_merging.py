"""A1 — ablation: GPU kernel merging (paper Section 4.4).

Compares the GPU parallel phase with merged kernels (IDCT+color for
4:4:4, upsample+color for 4:2:2) against fully separate kernels, and
quantifies the occupancy penalty of the all-merged kernel the paper
rejects."""

import numpy as np

from repro.core import DecodeMode, ExecutionConfig, PreparedImage
from repro.core.executors import execute
from repro.evaluation import format_table, platforms
from repro.gpusim import GTX560TI, occupancy
from repro.kernels import GpuProgramOptions, MergedAllKernel, MergedIdctColorKernel
from repro.jpeg.quantization import luminance_table

from common import write_result

SIDES = (512, 1024, 2048)


def gpu_parallel_us(prep, merge: bool) -> float:
    cfg = ExecutionConfig(
        platform=platforms.GTX560,
        gpu_options=GpuProgramOptions(merge_kernels=merge))
    res = execute(cfg, prep, DecodeMode.GPU)
    b = res.breakdown
    return b.get("kernel", 0) + b.get("write", 0) + b.get("read", 0)


def render() -> str:
    rows = []
    for mode in ("4:4:4", "4:2:2"):
        for side in SIDES:
            prep = PreparedImage.virtual(side, side, mode, 0.2)
            merged = gpu_parallel_us(prep, True)
            separate = gpu_parallel_us(prep, False)
            rows.append([mode, str(side * side), f"{merged / 1e3:.3f}",
                         f"{separate / 1e3:.3f}",
                         f"{separate / merged:.2f}x"])
            assert merged < separate, (mode, side)
    # the rejected all-merged kernel: occupancy collapse
    coeffs = np.zeros((4096, 8, 8), dtype=np.int16)
    q = luminance_table(80)
    all_launch = MergedAllKernel().describe_launch(
        y_coeffs=coeffs, cb_coeffs=coeffs, cr_coeffs=coeffs, quants=[q] * 3)
    two_launch = MergedIdctColorKernel().describe_launch(
        y_coeffs=coeffs, cb_coeffs=coeffs, cr_coeffs=coeffs, quants=[q] * 3)
    occ_all = occupancy(all_launch.ndrange, GTX560TI,
                        all_launch.registers_per_item,
                        all_launch.traffic.local_bytes_per_group)
    occ_two = occupancy(two_launch.ndrange, GTX560TI,
                        two_launch.registers_per_item,
                        two_launch.traffic.local_bytes_per_group)
    assert occ_all < 0.6 * occ_two
    table = format_table(
        ["Subsampling", "Pixels", "Merged (ms)", "Separate (ms)", "Saving"],
        rows,
        title=("Ablation A1: kernel merging on the GPU parallel phase "
               f"(GTX 560).  All-merged kernel occupancy: {occ_all:.2f} vs "
               f"{occ_two:.2f} two-stage — the paper's rejection, measured."))
    return table


def test_abl_kernel_merging(benchmark):
    out = benchmark(render)
    write_result("abl_kernel_merging", out)
