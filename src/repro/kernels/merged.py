"""Merged GPU kernels (paper Section 4.4).

Intermediate results stored to global memory between kernel invocations
are pure overhead, so the paper fuses stages:

- **4:4:4**: color conversion merges into the IDCT kernel.  Each
  work-item repeats the IDCT for all three components (3x compute) but
  converts its row from registers — the Y/Cb/Cr sample round-trip
  through global memory disappears.
- **4:2:2**: upsampling merges with color conversion (two work-items
  hold a full chroma row in registers after upsampling and only load the
  matching Y row).  A 128-item work-group processes two groups of four
  blocks, 16 output blocks, with all 16 items of a block taking the same
  branch — no divergence.

Merging everything (IDCT+upsample+color) is *not* done: register
pressure would cut active work-groups per SM (the paper's stated
reason), which the occupancy model here reproduces — see the A1 ablation
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from ..gpusim.kernel import KernelLaunch, SimKernel
from ..gpusim.memory import MemoryTraffic
from ..gpusim.ndrange import NDRange
from ..jpeg.color import ycbcr_to_rgb_float
from ..jpeg.idct import idct_samples
from ..jpeg.sampling import upsample_h2v1_fancy
from . import color_kernel, idct_kernel, upsample_kernel


@dataclass
class MergedIdctColorKernel(SimKernel):
    """IDCT + color conversion in one kernel — the 4:4:4 fusion.

    Work-items triple their IDCT work (Y, Cb, Cr) and keep rows in
    registers through Algorithm 2; intermediate global traffic vanishes.
    """

    workgroup_blocks: int = 16
    vectorized: bool = True
    name: str = "idct+color"

    def __post_init__(self) -> None:
        if self.workgroup_blocks <= 0 or self.workgroup_blocks % 4:
            raise KernelError("work-group must cover a multiple of 4 blocks")

    def describe_launch(self, *, y_coeffs: np.ndarray, cb_coeffs: np.ndarray,
                        cr_coeffs: np.ndarray, quants: list[np.ndarray]) -> KernelLaunch:
        n_blocks = y_coeffs.shape[0]  # items follow the Y grid; 3x work each
        if not (n_blocks == cb_coeffs.shape[0] == cr_coeffs.shape[0]):
            raise KernelError("4:4:4 components must have equal block counts")
        wg_blocks = min(self.workgroup_blocks, max(4, n_blocks - n_blocks % 4))
        items = -(-n_blocks // wg_blocks) * wg_blocks * idct_kernel.ITEMS_PER_BLOCK
        ndr = NDRange(global_size=items,
                      local_size=wg_blocks * idct_kernel.ITEMS_PER_BLOCK)
        write_txn_per_item = 6 if self.vectorized else 24
        traffic = MemoryTraffic(
            global_read_bytes=3 * n_blocks * 64 * 2,  # all three coefficient sets
            global_write_bytes=n_blocks * 64 * 3,     # interleaved RGB out
            local_bytes_per_group=wg_blocks * 64 * 4,
            read_transactions=3 * n_blocks * 64 * 2 // 128,
            write_transactions=n_blocks * idct_kernel.ITEMS_PER_BLOCK
            * write_txn_per_item,
            coalesced=True,
        )
        return KernelLaunch(
            ndrange=ndr,
            # 3x the IDCT work plus Algorithm 2 on an 8-pixel row
            flops_per_item=3 * idct_kernel.FLOPS_PER_ITEM + 12.0 * 8,
            traffic=traffic,
            registers_per_item=idct_kernel.REGISTERS_PER_ITEM + 14,
        )

    def execute(self, *, y_coeffs: np.ndarray, cb_coeffs: np.ndarray,
                cr_coeffs: np.ndarray, quants: list[np.ndarray]) -> np.ndarray:
        """Returns per-block RGB samples, (n, 8, 8, 3) uint8."""
        return ycbcr_to_rgb_float(*(
            idct_samples(coeffs, quant)
            for coeffs, quant in zip((y_coeffs, cb_coeffs, cr_coeffs), quants)))


@dataclass
class MergedUpsampleColorKernel(SimKernel):
    """Upsampling + color conversion in one kernel — the 4:2:2 fusion.

    128 work-items per group process two groups of four blocks; 16 items
    per block; upsampled chroma stays in registers, only the Y row is
    re-loaded from global memory.
    """

    workgroup_items: int = 128
    vectorized: bool = True
    divergence_free: bool = True
    name: str = "upsample+color"

    def __post_init__(self) -> None:
        if self.workgroup_items <= 0 or self.workgroup_items % 32:
            raise KernelError("work-group must be a positive warp multiple")

    def describe_launch(self, *, y_plane: np.ndarray, cb_plane: np.ndarray,
                        cr_plane: np.ndarray) -> KernelLaunch:
        if cb_plane.shape != cr_plane.shape:
            raise KernelError("chroma planes must share a shape")
        h, w = cb_plane.shape
        if y_plane.shape != (h, 2 * w):
            raise KernelError(
                "4:2:2 luma plane must be twice the chroma width"
            )
        n_blocks = (h // 8) * (w // 8)            # chroma blocks driving items
        items_needed = n_blocks * upsample_kernel.ITEMS_PER_BLOCK
        global_items = -(-items_needed // self.workgroup_items) * self.workgroup_items
        ndr = NDRange(global_size=global_items, local_size=self.workgroup_items)
        out_pixels = y_plane.size
        write_txn_per_row_item = 12 if self.vectorized else 48  # 16-px row out
        traffic = MemoryTraffic(
            global_read_bytes=y_plane.size + cb_plane.size + cr_plane.size,
            global_write_bytes=out_pixels * 3,
            read_transactions=(y_plane.size + 2 * cb_plane.size) // 128 + 1,
            write_transactions=items_needed * write_txn_per_row_item,
            coalesced=True,
        )
        return KernelLaunch(
            ndrange=ndr,
            # Algorithm 1 on both chroma rows (2 x 32) + Algorithm 2 on
            # a 16-pixel output row
            flops_per_item=2 * upsample_kernel.FLOPS_PER_ITEM + 12.0 * 16,
            traffic=traffic,
            registers_per_item=upsample_kernel.REGISTERS_PER_ITEM + 20,
        )

    def execute(self, *, y_plane: np.ndarray, cb_plane: np.ndarray,
                cr_plane: np.ndarray) -> np.ndarray:
        """Returns (h, 2w, 3) uint8 RGB."""
        cb_up = upsample_h2v1_fancy(cb_plane)
        cr_up = upsample_h2v1_fancy(cr_plane)
        return ycbcr_to_rgb_float(y_plane, cb_up, cr_up)


@dataclass
class MergedAllKernel(SimKernel):
    """IDCT + upsample + color in one kernel — the fusion the paper
    *rejects* (register pressure kills occupancy).  Exists for the A1
    ablation so the rejection is measurable, not asserted."""

    workgroup_blocks: int = 16
    name: str = "idct+upsample+color"

    def describe_launch(self, *, y_coeffs: np.ndarray, cb_coeffs: np.ndarray,
                        cr_coeffs: np.ndarray, quants: list[np.ndarray]) -> KernelLaunch:
        n_blocks = cb_coeffs.shape[0]
        wg_blocks = min(self.workgroup_blocks, max(4, n_blocks - n_blocks % 4))
        items = -(-n_blocks // wg_blocks) * wg_blocks * idct_kernel.ITEMS_PER_BLOCK
        ndr = NDRange(global_size=items,
                      local_size=wg_blocks * idct_kernel.ITEMS_PER_BLOCK)
        total_coef_bytes = (y_coeffs.shape[0] + 2 * n_blocks) * 64 * 2
        out_bytes = y_coeffs.shape[0] * 64 * 3
        traffic = MemoryTraffic(
            global_read_bytes=total_coef_bytes,
            global_write_bytes=out_bytes,
            local_bytes_per_group=wg_blocks * 64 * 4 * 3,
            read_transactions=total_coef_bytes // 128,
            write_transactions=items * 12,
            coalesced=True,
        )
        return KernelLaunch(
            ndrange=ndr,
            flops_per_item=4 * idct_kernel.FLOPS_PER_ITEM
            + 2 * upsample_kernel.FLOPS_PER_ITEM + 12.0 * 16,
            # the point of this kernel: register pressure tanks occupancy
            registers_per_item=63,
            traffic=traffic,
        )

    def execute(self, *, y_coeffs: np.ndarray, cb_coeffs: np.ndarray,
                cr_coeffs: np.ndarray, quants: list[np.ndarray]) -> None:
        raise NotImplementedError(
            "the all-merged kernel exists only for cost-model ablation"
        )
