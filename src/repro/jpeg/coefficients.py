"""The decode-side containers both entropy engines share.

:class:`ComponentTables` is what a scan hands an engine per component,
:class:`CoefficientBuffers` is what an engine fills, and
:func:`dc_range_error` is the one error both raise for a DC predictor
leaving int16.  They live apart from either engine so the fast path
(:mod:`repro.jpeg.fast_entropy`) loads without the per-symbol
reference engine (:mod:`repro.jpeg.entropy`) and its bit reader.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import EntropyError
from .blocks import ImageGeometry
from .huffman import HuffmanSpec


class ComponentTables(NamedTuple):
    """Huffman table pair assigned to one scan component."""

    dc: HuffmanSpec
    ac: HuffmanSpec


class CoefficientBuffers:
    """Per-component quantized coefficient batches in natural order.

    ``planes[ci]`` has shape (blocks_high * blocks_wide, 8, 8) int16 with
    blocks in row-major grid order — the layout of the whole-image buffer
    the re-engineered libjpeg-turbo keeps below its legacy hierarchy
    (paper Section 3).
    """

    __slots__ = ("geometry", "planes")

    def __init__(self, geometry: ImageGeometry,
                 planes: list[np.ndarray]) -> None:
        self.geometry = geometry
        self.planes = planes

    @classmethod
    def empty(cls, geometry: ImageGeometry) -> "CoefficientBuffers":
        planes = [
            np.zeros((c.blocks_total, 8, 8), dtype=np.int16)
            for c in geometry.components
        ]
        return cls(geometry=geometry, planes=planes)

    def rows_slice(self, mcu_row_start: int, mcu_row_stop: int) -> "CoefficientBuffers":
        """A view-based sub-buffer covering [mcu_row_start, mcu_row_stop)."""
        sub_geo = self.geometry
        planes = []
        for comp, plane in zip(sub_geo.components, self.planes):
            per_row = comp.blocks_wide * comp.v_factor
            planes.append(plane[mcu_row_start * per_row: mcu_row_stop * per_row])
        return CoefficientBuffers(geometry=sub_geo, planes=planes)


def dc_range_error(pred: int) -> EntropyError:
    """The error both entropy engines raise when a DC predictor leaves
    the int16 coefficient range (hostile DC differences: a valid 8-bit
    stream keeps it within +-2047).  The text is the one numpy's int16
    store used to leak as a bare ``OverflowError``, so only the type
    changed for anyone matching on it."""
    return EntropyError(f"Python integer {pred} out of bounds for int16")
