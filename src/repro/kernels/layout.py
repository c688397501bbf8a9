"""Device buffer layouts (paper Sections 3-4, Figures 3-4).

The whole-image coefficient buffer sent to the GPU stores all Y blocks,
then all Cb blocks, then all Cr blocks — "this buffer layout avoids
interleaving block access, and thus, improves coalesced memory access"
(Section 4).  The color-conversion output switches from the block-based
pattern to the row-major pixel pattern (Figure 3), and interleaved RGB
bytes are grouped into vec4 stores (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..jpeg.blocks import ImageGeometry
from ..jpeg.coefficients import CoefficientBuffers


@dataclass(frozen=True)
class PlanarBlockLayout:
    """Describes the Y|Cb|Cr block ordering of a device buffer for a
    span of MCU rows."""

    geometry: ImageGeometry
    mcu_row_start: int
    mcu_row_stop: int

    @property
    def mcu_rows(self) -> int:
        return self.mcu_row_stop - self.mcu_row_start

    def component_block_counts(self) -> tuple[int, ...]:
        """Blocks per component within the span."""
        return tuple(
            c.blocks_wide * c.v_factor * self.mcu_rows
            for c in self.geometry.components
        )

    @property
    def total_blocks(self) -> int:
        return sum(self.component_block_counts())

    @property
    def total_samples(self) -> int:
        return self.total_blocks * 64

    @property
    def coefficient_nbytes(self) -> int:
        """Host->device transfer size: one int16 per coefficient."""
        return self.total_samples * 2

    def output_pixels(self) -> int:
        """Pixels the span contributes to the final image (unclamped
        bottom spans include block padding rows)."""
        geo = self.geometry
        row_px = geo.mcu_height
        start_px = self.mcu_row_start * row_px
        stop_px = min(self.mcu_row_stop * row_px, geo.height)
        return max(0, stop_px - start_px) * geo.width

    @property
    def rgb_nbytes(self) -> int:
        """Device->host transfer size: 3 bytes per output pixel."""
        return self.output_pixels() * 3


def pack_span(coeffs: CoefficientBuffers, mcu_row_start: int,
              mcu_row_stop: int) -> tuple[PlanarBlockLayout, list[np.ndarray]]:
    """Extract the Y|Cb|Cr per-component block views for an MCU-row span.

    Views, not copies: the "transfer" is priced by the layout's byte
    count while the kernel math reads the host arrays directly.
    """
    layout = PlanarBlockLayout(coeffs.geometry, mcu_row_start, mcu_row_stop)
    span = coeffs.rows_slice(mcu_row_start, mcu_row_stop)
    return layout, span.planes


def interleave_rgb_vectors(rgb_rows: np.ndarray) -> np.ndarray:
    """Regroup an (..., 8, 3) row of pixels into six 4-byte vectors
    (Figure 4).  Pure data-movement; exists so tests can check the
    vectorized store pattern is a bijection."""
    flat = np.ascontiguousarray(rgb_rows).reshape(*rgb_rows.shape[:-2], 24)
    return flat.reshape(*rgb_rows.shape[:-2], 6, 4)


def deinterleave_rgb_vectors(vectors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`interleave_rgb_vectors`."""
    flat = vectors.reshape(*vectors.shape[:-2], 24)
    return flat.reshape(*vectors.shape[:-2], 8, 3)
