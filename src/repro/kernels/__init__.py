"""The paper's GPU kernels: real math, modeled cost (Sections 4.1-4.4)."""

from .color_kernel import ColorConvertKernel
from .idct_kernel import IdctKernel
from .layout import (
    PlanarBlockLayout,
    deinterleave_rgb_vectors,
    interleave_rgb_vectors,
    pack_span,
)
from .merged import MergedAllKernel, MergedIdctColorKernel, MergedUpsampleColorKernel
from .program import (
    KERNEL_SUBSAMPLINGS,
    GpuDecodeProgram,
    GpuProgramOptions,
    SpanResult,
)
from .upsample_kernel import UpsampleKernel

__all__ = [
    "ColorConvertKernel",
    "GpuDecodeProgram",
    "GpuProgramOptions",
    "IdctKernel",
    "KERNEL_SUBSAMPLINGS",
    "MergedAllKernel",
    "MergedIdctColorKernel",
    "MergedUpsampleColorKernel",
    "PlanarBlockLayout",
    "SpanResult",
    "UpsampleKernel",
    "deinterleave_rgb_vectors",
    "interleave_rgb_vectors",
    "pack_span",
]
