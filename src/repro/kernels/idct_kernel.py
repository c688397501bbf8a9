"""GPU IDCT kernel (paper Section 4.1).

Eight work-items per block: each work-item owns one column through the
column pass (registers only), shares the intermediate through local
memory, then owns one row for the row pass and vectorizes its eight
8-bit results into two 4-byte stores.  Work-groups cover a multiple of
four blocks so the group size is a warp multiple.

The *math* delegates to the vectorized AAN implementation shared with
the CPU path — identical results by construction; the *cost* reflects
the kernel's per-item geometry above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from ..gpusim.kernel import KernelLaunch, SimKernel
from ..gpusim.memory import MemoryTraffic
from ..gpusim.ndrange import NDRange
from ..jpeg.idct import idct_samples

#: Work-items assigned per 8x8 block (one per column).
ITEMS_PER_BLOCK = 8

#: Flops one work-item spends: dequantize+prescale its column (16), AAN
#: column pass (~34), AAN row pass share (~34).
FLOPS_PER_ITEM = 84.0

#: Registers per work-item: 8 column values + temporaries.
REGISTERS_PER_ITEM = 20


@dataclass
class IdctKernel(SimKernel):
    """Dequantization + 2D IDCT over a batch of blocks.

    Parameters
    ----------
    workgroup_blocks : blocks per work-group; must be a multiple of 4 so
        the group is a warp multiple (paper Section 4.1).  The best value
        is platform-specific and found by offline profiling (Section 5).
    vectorized : model the two vec4 stores per item (True) or eight
        scalar byte stores (False) — the A2 ablation.
    """

    workgroup_blocks: int = 16
    vectorized: bool = True
    name: str = "idct"

    def __post_init__(self) -> None:
        if self.workgroup_blocks <= 0 or self.workgroup_blocks % 4:
            raise KernelError(
                "work-group must cover a positive multiple of 4 blocks"
            )

    def describe_launch(self, *, coeffs: np.ndarray,
                        quant: np.ndarray) -> KernelLaunch:
        n_blocks = coeffs.shape[0]
        if n_blocks == 0:
            raise KernelError("empty launch")
        wg_blocks = min(self.workgroup_blocks, max(4, n_blocks - n_blocks % 4))
        global_items = -(-n_blocks // wg_blocks) * wg_blocks * ITEMS_PER_BLOCK
        ndr = NDRange(global_size=global_items,
                      local_size=wg_blocks * ITEMS_PER_BLOCK)
        if self.vectorized:
            write_txn = n_blocks * ITEMS_PER_BLOCK * 2   # two vec4 per item
        else:
            write_txn = n_blocks * ITEMS_PER_BLOCK * 8   # scalar byte stores
        traffic = MemoryTraffic(
            global_read_bytes=n_blocks * 64 * 2,          # int16 coefficients
            global_write_bytes=n_blocks * 64,             # uint8 samples
            local_bytes_per_group=wg_blocks * 64 * 4,     # float intermediate
            read_transactions=n_blocks * 64 * 2 // 128,
            write_transactions=write_txn,
            coalesced=True,
        )
        return KernelLaunch(
            ndrange=ndr,
            flops_per_item=FLOPS_PER_ITEM,
            traffic=traffic,
            registers_per_item=REGISTERS_PER_ITEM,
        )

    def execute(self, *, coeffs: np.ndarray, quant: np.ndarray) -> np.ndarray:
        """Dequantize + AAN IDCT + level shift; returns (n, 8, 8) uint8."""
        return idct_samples(coeffs, quant)
