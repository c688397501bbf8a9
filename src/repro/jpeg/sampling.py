"""Chroma subsampling and upsampling (paper Section 4.2, Algorithm 1).

The encoder downsamples chrominance; the decoder restores it.  The
decoder's "fancy" (triangular-filter) horizontal upsampler is exactly
Algorithm 1 of the paper: each input pixel expands to two outputs that
weight the pixel 3:1 against its left/right neighbour, with the two edge
pixels copied.  All paths are vectorized; the fancy upsamplers walk the
plane in row bands (integer arithmetic, so banding cannot change a bit).
"""

from __future__ import annotations

import numpy as np

from ..errors import JpegError

#: Supported subsampling modes, named after the JFIF convention.
SUBSAMPLING_MODES = ("4:4:4", "4:2:2", "4:2:0", "4:1:1", "4:4:0")


def sampling_factors(mode: str) -> tuple[int, int]:
    """Return (horizontal, vertical) luma sampling factors for *mode*.

    Chroma components always use factor (1, 1); the MCU geometry follows
    from the ratio, e.g. 4:2:2 -> (2, 1) -> 16x8-pixel MCUs.
    """
    if mode == "4:4:4":
        return 1, 1
    if mode == "4:2:2":
        return 2, 1
    if mode == "4:2:0":
        return 2, 2
    if mode == "4:1:1":
        return 4, 1
    if mode == "4:4:0":
        return 1, 2
    raise JpegError(f"unsupported subsampling mode {mode!r}")


def downsample_h2v1(plane: np.ndarray) -> np.ndarray:
    """Average horizontal pairs (4:2:2 encoder path).

    Odd-width planes replicate the final column first, matching libjpeg.
    """
    plane = np.asarray(plane)
    if plane.shape[1] % 2:
        plane = np.concatenate([plane, plane[:, -1:]], axis=1)
    pairs = plane.reshape(plane.shape[0], -1, 2).astype(np.uint16)
    return ((pairs[:, :, 0] + pairs[:, :, 1] + 1) // 2).astype(plane.dtype)


def downsample_h2v2(plane: np.ndarray) -> np.ndarray:
    """Average 2x2 neighbourhoods (4:2:0 encoder path)."""
    plane = np.asarray(plane)
    if plane.shape[0] % 2:
        plane = np.concatenate([plane, plane[-1:, :]], axis=0)
    if plane.shape[1] % 2:
        plane = np.concatenate([plane, plane[:, -1:]], axis=1)
    q = plane.astype(np.uint16)
    s = q[0::2, 0::2] + q[0::2, 1::2] + q[1::2, 0::2] + q[1::2, 1::2]
    return ((s + 2) // 4).astype(plane.dtype)


def downsample_h4v1(plane: np.ndarray) -> np.ndarray:
    """Average horizontal quads (4:1:1 encoder path).

    Widths not divisible by four replicate the final column, matching
    the pair-averaging edge policy of :func:`downsample_h2v1`.
    """
    plane = np.asarray(plane)
    pad = (-plane.shape[1]) % 4
    if pad:
        plane = np.concatenate([plane] + [plane[:, -1:]] * pad, axis=1)
    quads = plane.reshape(plane.shape[0], -1, 4).astype(np.uint16)
    return ((quads.sum(axis=2) + 2) // 4).astype(plane.dtype)


def downsample_h1v2(plane: np.ndarray) -> np.ndarray:
    """Average vertical pairs (4:4:0 encoder path)."""
    plane = np.asarray(plane)
    if plane.shape[0] % 2:
        plane = np.concatenate([plane, plane[-1:, :]], axis=0)
    pairs = plane.reshape(-1, 2, plane.shape[1]).astype(np.uint16)
    return ((pairs[:, 0] + pairs[:, 1] + 1) // 2).astype(plane.dtype)


#: Byte budget of the uint32 rows one band of a fancy upsampler works on:
#: band-sized temporaries are reused hot from the allocator, where
#: plane-sized ones were first touches of fresh pages on every call.
BAND_BYTES = 512 << 10


def _row_bands(rows: int, width: int):
    """Yield ``(start, stop)`` row bands of at most :data:`BAND_BYTES`
    of *width* uint32 samples each (at least one row)."""
    step = max(1, BAND_BYTES // max(1, 4 * width))
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def upsample_h2v1_fancy(plane: np.ndarray) -> np.ndarray:
    """Fancy 2x horizontal upsampling — Algorithm 1 vectorized.

    For input row ``In[0..w-1]`` the output row has ``2w`` pixels::

        Out[0]      = In[0]
        Out[2i]     = (3 In[i] + In[i-1] + 1) / 4     (i > 0)
        Out[2i+1]   = (3 In[i] + In[i+1] + 2) / 4     (i < w-1)
        Out[2w-1]   = In[w-1]

    which reproduces lines 1-16 of the paper's Algorithm 1 for w = 8.
    """
    plane = np.asarray(plane)
    h, w = plane.shape
    out = np.empty((h, 2 * w), dtype=plane.dtype)
    for r0, r1 in _row_bands(h, 2 * w):
        src = plane[r0:r1].astype(np.uint32)
        band = out[r0:r1]
        # even outputs: weight 3:1 with the left neighbour
        band[:, 2::2] = (3 * src[:, 1:] + src[:, :-1] + 1) >> 2
        # odd outputs: weight 3:1 with the right neighbour
        band[:, 1:-1:2] = (3 * src[:, :-1] + src[:, 1:] + 2) >> 2
        band[:, 0] = src[:, 0]
        band[:, -1] = src[:, -1]
    return out


def upsample_h2v1_simple(plane: np.ndarray) -> np.ndarray:
    """Pixel-replication 2x horizontal upsampling (non-fancy baseline)."""
    return np.repeat(np.asarray(plane), 2, axis=1)


def upsample_h2v2_fancy(plane: np.ndarray) -> np.ndarray:
    """Fancy 2x2 upsampling: triangular filter in both directions.

    Implemented as the separable composition libjpeg uses: a vertical
    3:1 expansion followed by the horizontal Algorithm-1 pass, with
    rounding matched to jdsample.c (vertical adds happen at 16x scale).
    """
    plane = np.asarray(plane)
    h, w = plane.shape
    out = np.empty((2 * h, 2 * w), dtype=plane.dtype)
    for r0, r1 in _row_bands(h, 4 * w):
        # the band plus its one-row halo; past the plane's edge the halo
        # repeats the edge row, and 3 s + s is the edge rule's 4 s
        halo = np.arange(r0 - 1, r1 + 1).clip(0, h - 1)
        src = plane[halo].astype(np.uint32)
        # vertical pass at 4x precision: rows weight 3:1 with up/down neighbour
        vert = np.empty((2 * (r1 - r0), w), dtype=np.uint32)
        vert[0::2] = 3 * src[1:-1] + src[:-2]
        vert[1::2] = 3 * src[1:-1] + src[2:]
        # horizontal pass consumes the 4x-scaled rows, total scale 16
        band = out[2 * r0:2 * r1]
        band[:, 2::2] = (3 * vert[:, 1:] + vert[:, :-1] + 8) >> 4
        band[:, 1:-1:2] = (3 * vert[:, :-1] + vert[:, 1:] + 7) >> 4
        band[:, 0] = (vert[:, 0] + 2) >> 2
        band[:, -1] = (vert[:, -1] + 2) >> 2
    return out


def upsample_h4v1_fancy(plane: np.ndarray) -> np.ndarray:
    """Fancy 4x horizontal upsampling: Algorithm 1 applied twice.

    Two triangular-filter doublings compose to the 4x expansion, the
    same cascade libjpeg's h2v1 upsampler performs when chained.
    """
    return upsample_h2v1_fancy(upsample_h2v1_fancy(plane))


def upsample_h1v2_fancy(plane: np.ndarray) -> np.ndarray:
    """Fancy 2x vertical upsampling: Algorithm 1 on the transpose."""
    return upsample_h2v1_fancy(np.asarray(plane).T).T


def upsample_plane(plane: np.ndarray, mode: str, fancy: bool = True) -> np.ndarray:
    """Upsample a chroma plane according to the subsampling *mode*."""
    if mode == "4:4:4":
        return np.asarray(plane)
    if mode == "4:2:2":
        return upsample_h2v1_fancy(plane) if fancy else upsample_h2v1_simple(plane)
    if mode == "4:2:0":
        if fancy:
            return upsample_h2v2_fancy(plane)
        return np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)
    if mode == "4:1:1":
        if fancy:
            return upsample_h4v1_fancy(plane)
        return np.repeat(np.asarray(plane), 4, axis=1)
    if mode == "4:4:0":
        if fancy:
            return upsample_h1v2_fancy(plane)
        return np.repeat(np.asarray(plane), 2, axis=0)
    raise JpegError(f"unsupported subsampling mode {mode!r}")


def downsample_plane(plane: np.ndarray, mode: str) -> np.ndarray:
    """Downsample a chroma plane according to the subsampling *mode*."""
    if mode == "4:4:4":
        return np.asarray(plane)
    if mode == "4:2:2":
        return downsample_h2v1(plane)
    if mode == "4:2:0":
        return downsample_h2v2(plane)
    if mode == "4:1:1":
        return downsample_h4v1(plane)
    if mode == "4:4:0":
        return downsample_h1v2(plane)
    raise JpegError(f"unsupported subsampling mode {mode!r}")
