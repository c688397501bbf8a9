"""Color-space conversion (paper Section 4.3, Algorithm 2).

YCbCr -> RGB per the JFIF equations::

    R = Y + 1.402   (Cr - 128)
    G = Y - 0.34414 (Cb - 128) - 0.71414 (Cr - 128)
    B = Y + 1.772   (Cb - 128)

plus the forward (RGB -> YCbCr) transform used by the encoder, both in
float64.  All functions are fully vectorized over arbitrary leading
axes.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import MAX_SAMPLE
from .scratch import aligned_float64

#: Byte budget of one float64 strip buffer of :func:`ycbcr_to_rgb_float`
#: (32 rows of a 1280-wide frame); five are live per call.  Measured at
#: 1280x960 and 800x600: 160-320 KB is the flat optimum, 40 KB and
#: 1 MB+ are a third slower.
STRIP_BYTES = 320 << 10


def _store_channel(acc: np.ndarray, out: np.ndarray) -> None:
    """Round and clamp one float64 channel strip in place, store as uint8."""
    np.rint(acc, out=acc)
    np.clip(acc, 0, MAX_SAMPLE, out=acc)
    out[...] = acc


def ycbcr_to_rgb_float(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Algorithm 2, float arithmetic.

    Inputs are broadcast-compatible sample arrays (typically uint8);
    returns an (..., 3) uint8 RGB array.

    Evaluated in strips along the leading axis through five reused
    float64 buffers, each channel stored straight into the uint8 result:
    per element the float64 operations and their order are exactly those
    of the formula in the module docstring followed by ``rint`` and a
    clip, so the bytes are too.  (A lookup table per term would not be:
    ``1.772 * (cb - 128)`` and the G chroma sum land on exact ``.5`` ties
    for some inputs, where ``rint`` rounds to even and the result
    depends on *y*.)
    """
    y, cb, cr = np.broadcast_arrays(y, cb, cr)
    out_shape = y.shape
    if not out_shape:
        y, cb, cr = y.reshape(1), cb.reshape(1), cr.reshape(1)
    length, inner = y.shape[0], y.shape[1:]
    rgb = np.empty((length,) + inner + (3,), dtype=np.uint8)
    step = max(1, STRIP_BYTES // (8 * max(1, math.prod(inner))))
    # Five buffers out of one allocation, each starting on a cache line:
    # the ufunc loops run 3-12 % slower at the offsets the heap hands out.
    size = min(step, length) * math.prod(inner)
    pitch = -(-size // 8) * 8
    bufs = aligned_float64(5 * pitch).reshape(5, pitch)[:, :size].reshape(
        (5, min(step, length)) + inner)
    for start in range(0, length, step):
        rows = slice(start, start + step)
        yf, cbf, crf, term, acc = bufs[:, :min(step, length - start)]
        np.copyto(yf, y[rows])
        np.subtract(cb[rows], 128.0, out=cbf, dtype=np.float64)
        np.subtract(cr[rows], 128.0, out=crf, dtype=np.float64)
        # R = Y + 1.402 Cr'
        np.add(yf, np.multiply(crf, 1.402, out=term), out=acc)
        _store_channel(acc, rgb[rows, ..., 0])
        # G = (Y - 0.34414 Cb') - 0.71414 Cr'
        np.subtract(yf, np.multiply(cbf, 0.34414, out=term), out=acc)
        np.subtract(acc, np.multiply(crf, 0.71414, out=term), out=acc)
        _store_channel(acc, rgb[rows, ..., 1])
        # B = Y + 1.772 Cb'
        np.add(yf, np.multiply(cbf, 1.772, out=term), out=acc)
        _store_channel(acc, rgb[rows, ..., 2])
    return rgb.reshape(out_shape + (3,))


def rgb_to_ycbcr_float(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward JFIF transform for the encoder; returns (Y, Cb, Cr) uint8."""
    f = rgb.astype(np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168735892 * r - 0.331264108 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418687589 * g - 0.081312411 * b
    out = np.stack([y, cb, cr], axis=-1)
    out = np.clip(np.rint(out), 0, MAX_SAMPLE).astype(np.uint8)
    return out[..., 0], out[..., 1], out[..., 2]


def gray_to_rgb(y: np.ndarray) -> np.ndarray:
    """Grayscale scan to RGB: replicate luma into all three channels."""
    y = np.asarray(y)
    return np.repeat(
        np.clip(y, 0, MAX_SAMPLE).astype(np.uint8)[..., None], 3, axis=-1)


def cmyk_inverted_to_rgb(c: np.ndarray, m: np.ndarray, y: np.ndarray,
                         k: np.ndarray) -> np.ndarray:
    """Adobe *inverted* CMYK (APP14 transform 0) to RGB.

    Adobe stores CMYK complemented, so the stored samples are already
    ``255 - ink``: ``R = C' * K' / 255`` with C' = stored cyan channel
    and K' = stored black channel (both inverted).
    """
    kf = k.astype(np.uint32)
    rgb = np.stack([
        (c.astype(np.uint32) * kf + 127) // 255,
        (m.astype(np.uint32) * kf + 127) // 255,
        (y.astype(np.uint32) * kf + 127) // 255,
    ], axis=-1)
    return np.clip(rgb, 0, MAX_SAMPLE).astype(np.uint8)


def ycck_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray,
                k: np.ndarray) -> np.ndarray:
    """Adobe YCCK (APP14 transform 2) to RGB.

    The first three channels are the YCbCr transform of the inverted
    CMY inks; converting them back yields (C', M', Y') which combine
    with the inverted K plane exactly like transform-0 CMYK.
    """
    cmy_inv = ycbcr_to_rgb_float(y, cb, cr)
    return cmyk_inverted_to_rgb(
        cmy_inv[..., 0], cmy_inv[..., 1], cmy_inv[..., 2], k)


def rgb_to_ycck(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    """Forward YCCK transform for the encoder's 4-component path.

    GCR with maximal ink preservation: ``K' = max(R, G, B)`` (inverted
    black), inks normalized by K' then YCbCr-transformed.  Chosen for
    determinism — the decoder inverts it exactly on smooth data, and
    the scenario oracles only require decode determinism, not fidelity
    to any particular printing profile.
    """
    f = rgb.astype(np.float64)
    k_inv = np.max(f, axis=-1)
    scale = 255.0 / np.maximum(k_inv, 1.0)
    cmy_inv = np.clip(np.rint(f * scale[..., None]), 0, MAX_SAMPLE)
    y, cb, cr = rgb_to_ycbcr_float(cmy_inv.astype(np.uint8))
    k = np.clip(np.rint(k_inv), 0, MAX_SAMPLE).astype(np.uint8)
    return y, cb, cr, k
