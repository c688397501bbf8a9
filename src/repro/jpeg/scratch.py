"""Scratch memory for the pixel kernels.

numpy's ufunc loops run a fifth faster over operands that start on a
cache line, and ``np.empty`` only promises 16 bytes: the tiled IDCT
(:mod:`~repro.jpeg.idct`) and the strip-wise colour conversion
(:mod:`~repro.jpeg.color`) both carve their reused float64 buffers out
of one allocation made here.
"""

from __future__ import annotations

import numpy as np

#: Alignment of :func:`aligned_float64`: one x86 cache line.
CACHE_LINE = 64


def aligned_float64(count: int) -> np.ndarray:
    """An uninitialised 1-D float64 array of *count* elements whose
    first element sits on a :data:`CACHE_LINE` boundary — so every
    piece of it that is a multiple of 8 elements long does too."""
    raw = np.empty(count + CACHE_LINE // 8 - 1)
    skip = -raw.ctypes.data % CACHE_LINE // 8
    return raw[skip:skip + count]
