"""The paper's GPU kernels: real math, modeled cost (Sections 4.1-4.4).

Names resolve lazily; :mod:`.options` (the kernels' scope and knobs)
imports no kernel, so pricing with a fitted model loads none."""

from .._lazy import lazy_exports

_EXPORTS = {
    "ColorConvertKernel": "color_kernel",
    "IdctKernel": "idct_kernel",
    "PlanarBlockLayout": "layout", "deinterleave_rgb_vectors": "layout",
    "interleave_rgb_vectors": "layout", "pack_span": "layout",
    "MergedAllKernel": "merged", "MergedIdctColorKernel": "merged",
    "MergedUpsampleColorKernel": "merged",
    "KERNEL_SUBSAMPLINGS": "options", "GpuProgramOptions": "options",
    "GpuDecodeProgram": "program", "SpanResult": "program",
    "UpsampleKernel": "upsample_kernel",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
