"""Block and MCU geometry (paper Section 2).

JPEG processes 8x8 blocks grouped into minimum coded units (MCUs).  For
4:4:4 an MCU is one block per component (8x8 pixels); for 4:2:2 it is two
luma blocks plus one Cb and one Cr block (16x8 pixels); for 4:2:0 four
luma blocks plus one of each chroma (16x16 pixels).

This module computes all derived geometry from (width, height, mode) and
converts between sample planes and block batches with edge-replication
padding, fully vectorized.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..errors import JpegError
from .constants import BLOCK_SIZE
from .sampling import sampling_factors


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative operands."""
    return -(-a // b)


class ComponentGeometry(NamedTuple):
    """Geometry of one color component within the MCU grid."""

    component_id: int          # 1 = Y, 2 = Cb, 3 = Cr (JFIF convention)
    h_factor: int              # horizontal sampling factor
    v_factor: int              # vertical sampling factor
    width: int                 # subsampled sample width (unpadded)
    height: int                # subsampled sample height (unpadded)
    blocks_wide: int           # padded width in blocks across the MCU grid
    blocks_high: int           # padded height in blocks across the MCU grid

    @property
    def padded_width(self) -> int:
        return self.blocks_wide * BLOCK_SIZE

    @property
    def padded_height(self) -> int:
        return self.blocks_high * BLOCK_SIZE

    @property
    def blocks_total(self) -> int:
        return self.blocks_wide * self.blocks_high

    @property
    def blocks_per_mcu(self) -> int:
        return self.h_factor * self.v_factor


class _ImageSize(NamedTuple):
    width: int
    height: int
    mode: str  # "4:4:4" | "4:2:2" | "4:2:0" | "4:1:1" | "4:4:0"
    #: Component count: 1 (grayscale), 3 (YCbCr), or 4 (YCCK/CMYK).
    #: Defaults to 3 so pickled ``(width, height, mode)`` geometry
    #: argument tuples from older workers keep constructing correctly.
    ncomponents: int = 3


class ImageGeometry(_ImageSize):
    """Full MCU-grid geometry for an image (the decoder's coordinate
    system): a validated ``(width, height, mode, ncomponents)`` tuple
    whose derived values are computed once per instance."""

    def __new__(cls, width: int, height: int, mode: str,
                ncomponents: int = 3) -> "ImageGeometry":
        if width <= 0 or height <= 0:
            raise JpegError(f"invalid image dimensions {width}x{height}")
        if ncomponents not in (1, 3, 4):
            raise JpegError(f"unsupported component count {ncomponents}")
        if ncomponents == 1 and mode != "4:4:4":
            raise JpegError(
                "grayscale images have no chroma to subsample; "
                "use mode '4:4:4'"
            )
        sampling_factors(mode)  # validates the mode string
        return super().__new__(cls, width, height, mode, ncomponents)

    @cached_property
    def luma_factors(self) -> tuple[int, int]:
        return sampling_factors(self.mode)

    @property
    def mcu_width(self) -> int:
        """MCU width in pixels (8 * Hmax)."""
        return BLOCK_SIZE * self.luma_factors[0]

    @property
    def mcu_height(self) -> int:
        """MCU height in pixels (8 * Vmax) — the row-partition granularity."""
        return BLOCK_SIZE * self.luma_factors[1]

    @property
    def mcus_per_row(self) -> int:
        return ceil_div(self.width, self.mcu_width)

    @property
    def mcu_rows(self) -> int:
        return ceil_div(self.height, self.mcu_height)

    @property
    def total_mcus(self) -> int:
        return self.mcus_per_row * self.mcu_rows

    @cached_property
    def components(self) -> tuple[ComponentGeometry, ...]:
        """Component geometries: (Y,), (Y, Cb, Cr), or (Y, Cb, Cr, K).

        The fourth (K) component of Adobe YCCK/CMYK streams shares the
        luma sampling factors — black carries edge detail just like
        luminance, which is the convention Adobe encoders follow.
        """
        hmax, vmax = self.luma_factors
        y = ComponentGeometry(
            component_id=1, h_factor=hmax, v_factor=vmax,
            width=self.width, height=self.height,
            blocks_wide=self.mcus_per_row * hmax,
            blocks_high=self.mcu_rows * vmax,
        )
        if self.ncomponents == 1:
            return (y,)
        cw = ceil_div(self.width, hmax)
        ch = ceil_div(self.height, vmax)
        cb = ComponentGeometry(
            component_id=2, h_factor=1, v_factor=1,
            width=cw, height=ch,
            blocks_wide=self.mcus_per_row, blocks_high=self.mcu_rows,
        )
        cr = ComponentGeometry(
            component_id=3, h_factor=1, v_factor=1,
            width=cw, height=ch,
            blocks_wide=self.mcus_per_row, blocks_high=self.mcu_rows,
        )
        if self.ncomponents == 3:
            return y, cb, cr
        k = ComponentGeometry(
            component_id=4, h_factor=hmax, v_factor=vmax,
            width=self.width, height=self.height,
            blocks_wide=self.mcus_per_row * hmax,
            blocks_high=self.mcu_rows * vmax,
        )
        return y, cb, cr, k

    @property
    def blocks_per_mcu(self) -> int:
        """Total blocks in one MCU across all components."""
        return sum(c.blocks_per_mcu for c in self.components)

    def mcu_strip(self, mcus: int) -> "ImageGeometry":
        """Virtual image one MCU wide and *mcus* MCUs tall, same
        sampling and component count: the coordinate system of a decode
        that covers a run of MCUs rather than whole MCU rows (restart
        runs, speculative chunks, gap repairs).  An MCU's block order is
        position-independent, so strip MCU *j* owns the contiguous
        blocks ``[j * bpm, (j + 1) * bpm)`` of each component plane
        (``bpm`` = the component's blocks per MCU) — the layout
        :func:`scatter_mcu_strip` places into the real grid."""
        return ImageGeometry(self.mcu_width, max(1, mcus) * self.mcu_height,
                             self.mode, self.ncomponents)

    def mcu_row_to_pixel_rows(self, mcu_row: int) -> tuple[int, int]:
        """Pixel-row span [start, stop) covered by *mcu_row* (clamped)."""
        start = mcu_row * self.mcu_height
        stop = min(start + self.mcu_height, self.height)
        return start, stop

    def pixel_rows_to_mcu_rows(self, rows: int) -> int:
        """Number of whole MCU rows needed to cover *rows* pixel rows."""
        return ceil_div(rows, self.mcu_height)


def plane_to_blocks(plane: np.ndarray, blocks_wide: int, blocks_high: int) -> np.ndarray:
    """Split a sample plane into a (n, 8, 8) block batch, row-major.

    The plane is padded to the full block grid by edge replication (the
    JPEG convention that avoids ringing at the borders).
    """
    plane = np.asarray(plane)
    h, w = plane.shape
    ph, pw = blocks_high * BLOCK_SIZE, blocks_wide * BLOCK_SIZE
    if h > ph or w > pw:
        raise JpegError(
            f"plane {h}x{w} exceeds block grid {ph}x{pw}"
        )
    if (h, w) != (ph, pw):
        plane = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    # (bh, 8, bw, 8) -> (bh, bw, 8, 8) -> (n, 8, 8); reshape keeps C order
    tiled = plane.reshape(blocks_high, BLOCK_SIZE, blocks_wide, BLOCK_SIZE)
    return tiled.transpose(0, 2, 1, 3).reshape(-1, BLOCK_SIZE, BLOCK_SIZE)


def blocks_to_plane(
    blocks: np.ndarray, blocks_wide: int, blocks_high: int,
    width: int | None = None, height: int | None = None,
) -> np.ndarray:
    """Reassemble a (n, 8, 8) block batch into a plane, cropping padding."""
    blocks = np.asarray(blocks)
    n = blocks_wide * blocks_high
    if blocks.shape[0] != n:
        raise JpegError(
            f"expected {n} blocks for a {blocks_high}x{blocks_wide} grid, "
            f"got {blocks.shape[0]}"
        )
    grid = blocks.reshape(blocks_high, blocks_wide, BLOCK_SIZE, BLOCK_SIZE)
    plane = grid.transpose(0, 2, 1, 3).reshape(
        blocks_high * BLOCK_SIZE, blocks_wide * BLOCK_SIZE
    )
    if height is not None or width is not None:
        plane = plane[: height or plane.shape[0], : width or plane.shape[1]]
    return plane


def scatter_mcu_strip(
    strip_planes: list[np.ndarray], first_local: int, first_global: int,
    count: int, geometry: ImageGeometry, out_planes: list[np.ndarray],
    dc_delta: "np.ndarray | None" = None,
) -> None:
    """Place *count* MCUs of an :meth:`ImageGeometry.mcu_strip` decode
    into the whole-image block grid.

    Strip MCUs ``first_local..first_local+count`` map onto global MCUs
    ``first_global..first_global+count`` of *geometry*.  *dc_delta*
    (per component) is added to every placed block's DC term — the
    speculative stitcher's predictor correction.  A tolerant decode
    stores DC modulo 2**16, so the patch is modular too: the delta is
    wrapped into int16 and the in-place add wraps again; the true value
    fits int16, so the residue *is* the exact sequential value.
    """
    if count <= 0:
        return
    g = np.arange(first_global, first_global + count)
    mrow, mcol = np.divmod(g, geometry.mcus_per_row)
    for ci, comp in enumerate(geometry.components):
        vf, hf = comp.v_factor, comp.h_factor
        bpm = vf * hf
        dest = (mrow[:, None] * vf + np.arange(vf)) * comp.blocks_wide
        dest = (dest[:, :, None]
                + (mcol[:, None, None] * hf + np.arange(hf))).reshape(-1)
        out_planes[ci][dest] = strip_planes[ci][
            first_local * bpm:(first_local + count) * bpm]
        d = 0 if dc_delta is None else \
            ((int(dc_delta[ci]) + 0x8000) & 0xFFFF) - 0x8000
        if d:
            out_planes[ci][dest, 0, 0] += np.int16(d)


def mcu_interleave_order(geometry: ImageGeometry) -> list[tuple[int, int]]:
    """Return the scan order of blocks within one MCU as
    (component_index, block_index_within_component) pairs.

    Per the standard, components are interleaved per MCU: all of component
    0's blocks (row-major within the MCU), then component 1's, etc.
    """
    order: list[tuple[int, int]] = []
    for ci, comp in enumerate(geometry.components):
        for b in range(comp.blocks_per_mcu):
            order.append((ci, b))
    return order
