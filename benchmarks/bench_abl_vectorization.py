"""A2 — ablation: vec4 stores and divergence-free work-item layout.

The paper vectorizes interleaved RGB output into 4-byte stores
(Figure 4, 4x fewer store transactions) and arranges upsampling
work-items so whole warsp take one branch (Section 4.2).  This bench
prices the GPU parallel phase with those optimizations disabled."""

from repro.core import DecodeMode, ExecutionConfig, PreparedImage
from repro.core.executors import execute
from repro.evaluation import format_table, platforms
from repro.kernels import GpuProgramOptions

from common import write_result

SIDES = (512, 1024, 2048)


def gpu_parallel_us(prep, vectorized: bool, divergence_free: bool) -> float:
    cfg = ExecutionConfig(
        platform=platforms.GTX560,
        gpu_options=GpuProgramOptions(vectorized=vectorized,
                                      divergence_free=divergence_free))
    b = execute(cfg, prep, DecodeMode.GPU).breakdown
    return b.get("kernel", 0) + b.get("write", 0) + b.get("read", 0)


def render() -> str:
    rows = []
    for side in SIDES:
        prep = PreparedImage.virtual(side, side, "4:2:2", 0.2)
        tuned = gpu_parallel_us(prep, True, True)
        no_vec = gpu_parallel_us(prep, False, True)
        divergent = gpu_parallel_us(prep, True, False)
        rows.append([str(side * side), f"{tuned / 1e3:.3f}",
                     f"{no_vec / 1e3:.3f}", f"{divergent / 1e3:.3f}"])
        assert tuned <= no_vec, side
        assert tuned <= divergent, side
    return format_table(
        ["Pixels", "Tuned (ms)", "Scalar stores (ms)", "Divergent (ms)"],
        rows,
        title=("Ablation A2: vec4 stores (Figure 4) and divergence-free "
               "upsampling (Section 4.2), GTX 560, 4:2:2"))


def test_abl_vectorization(benchmark):
    out = benchmark(render)
    write_result("abl_vectorization", out)
