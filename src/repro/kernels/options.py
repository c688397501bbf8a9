"""The GPU kernels' scope and knobs, without the kernels: what a fitted
model is keyed by and which subsamplings it covers."""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's scope (Section 6): the subsamplings the GPU kernels — and
#: with them the fitted models and the GPU modes — cover.  Everything
#: else decodes on the CPU paths.
KERNEL_SUBSAMPLINGS = ("4:4:4", "4:2:2")


@dataclass(frozen=True)
class GpuProgramOptions:
    """Kernel-level knobs (the profiling sweep and the ablations).

    Frozen, so a set of options can key the fitted-model cache."""

    merge_kernels: bool = True
    vectorized: bool = True
    divergence_free: bool = True
    workgroup_blocks: int = 16       # IDCT work-group size, in blocks
    workgroup_items: int = 128       # upsample+color work-group size
