"""Inverse DCT implementations (paper Section 4.1).

The decoder runs one transform, AAN; the other two are its oracles:

``idct_2d_reference``
    Direct evaluation of the paper's Eq. (1) column pass and Eq. (2) row
    pass — the correctness oracle.

``idct_2d_blocks``
    Vectorized separable transform (``C.T @ X @ C``) over block batches.

``idct_2d_aan``
    The AAN fast scaled IDCT (Arai/Agui/Nakajima, reference [26] in the
    paper) exactly as structured in libjpeg's ``jidctflt.c``: dequantized
    coefficients are pre-scaled by the AAN factors, then a 5-multiply
    1D pass runs over columns and rows.

The transforms accept (n, 8, 8) coefficient batches and return float64
sample batches *without* level shift or clamping.  The decode path does
not call them block-batch-wide: :func:`idct_samples` runs dequantize ->
IDCT -> level shift -> clamp over tiles of :data:`TILE_BLOCKS` blocks, so
a tile's float64 intermediates stay cache-resident — the paper's kernels
stage work through local memory for the same reason.

Each tile's work follows its coefficients: :func:`_tile_boxes` finds the
``r x c`` corner outside which every coefficient of the tile is zero,
only that corner is dequantized and scaled, and :func:`_aan_pass` is
told how many of its eight inputs are live.  Output bytes are those of
the whole-batch formulation, by this argument.  Tiling changes the
traversal only.  A pass that knows an input is zero drops exactly the
operations that would combine a value with it — ``x + 0`` and ``x - 0``
are ``x``, ``c * 0`` is ``0``, ``0 - x`` is ``negative(x)`` — and runs
the flowgraph's remaining float64 operations on the same operands in
the same order, so every *nonzero* intermediate and result has the bit
pattern the full flowgraph computes; a zero may come out with the other
sign (``-0.0 + 0.0`` is ``+0.0``, the dropped addition would have said
so).  The two zeros are equal in every later operation, and the level
shift ``+ 128`` maps both to ``128.0``, so nothing of the difference
reaches ``rint``.  :func:`idct_2d_aan` returns floats and therefore
always runs the full pass.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import BLOCK_SIZE, LEVEL_SHIFT, MAX_SAMPLE
from .scratch import aligned_float64


def idct_1d_reference(coeffs: np.ndarray) -> np.ndarray:
    """1D IDCT of the paper's Eq. (1)/(2), on the last axis.

    ``f(x) = sum_u C_u F(u) cos((2x+1) u pi / 2N)`` with C_0 = 1/sqrt(2),
    C_u = 1 otherwise.  Note the paper's normalization omits the global
    sqrt(2/N); we include it so that a round trip with the orthonormal
    forward transform is the identity.
    """
    n = coeffs.shape[-1]
    u = np.arange(n)
    x = np.arange(n)
    cu = np.where(u == 0, 1.0 / np.sqrt(2.0), 1.0)
    basis = np.cos((2 * x[:, None] + 1) * u[None, :] * np.pi / (2 * n))
    return np.sqrt(2.0 / n) * (coeffs * cu) @ basis.T


def idct_2d_reference(block: np.ndarray) -> np.ndarray:
    """2D IDCT of one block: column pass (Eq. 1) then row pass (Eq. 2)."""
    block = np.asarray(block, dtype=np.float64)
    cols = idct_1d_reference(block.T).T   # Eq. (1): IDCT down each column
    return idct_1d_reference(cols)        # Eq. (2): IDCT along each row


def idct_2d_blocks(blocks: np.ndarray) -> np.ndarray:
    """Vectorized separable IDCT over (n, 8, 8) batches: C.T @ X @ C
    (a test oracle: the forward transform's module loads here only)."""
    from .dct import dct_matrix

    c = dct_matrix()
    blocks = np.asarray(blocks, dtype=np.float64)
    return np.einsum("xu,nuv,yv->nxy", c.T, blocks, c.T, optimize=True)


# ---------------------------------------------------------------------------
# AAN fast scaled IDCT (jidctflt.c structure, vectorized over batches).
# ---------------------------------------------------------------------------

def aan_scale_factors() -> np.ndarray:
    """Per-coefficient AAN pre-scale matrix ``s[u] * s[v] / 8``.

    libjpeg folds these into the dequantization table; we expose them so
    the GPU IDCT kernel and the CPU path share one definition.
    The 1D factors are ``s[0] = 1``, ``s[k] = cos(k pi / 16) * sqrt(2)``.
    """
    k = np.arange(BLOCK_SIZE)
    s = np.cos(k * np.pi / 16.0) * np.sqrt(2.0)
    s[0] = 1.0
    return np.outer(s, s) / 8.0


_AAN_SCALE = aan_scale_factors()

_SQRT2 = 1.414213562
_C2X2 = 1.847759065      # 2 * cos(pi/8)
_C2MC6 = 1.082392200     # 2 * (cos(pi/8) - cos(3pi/8))
_NC2PC6 = -2.613125930   # -2 * (cos(pi/8) + cos(3pi/8))


def _aan_pass(src: np.ndarray, dst: np.ndarray, work: np.ndarray,
              live: int = BLOCK_SIZE) -> None:
    """One AAN 1D IDCT pass along axis 0 of a blocks-last (8, w, n) slab.

    ``src[i]`` is the contiguous (w, n) slab holding input *i* of every
    column (or row) of every block, so each ufunc below is one long
    unit-stride loop.  Results go to ``dst[0..7]``; *work* is a
    (9, w, n) scratch whose slabs stand in for the flowgraph's
    temporaries (each name below is bound to the slab that holds it).
    The arithmetic is jidctflt.c's, one float64 operation per ufunc call
    in flowgraph order — ``out=`` only decides where a result lands.

    Inputs ``live..7`` are known to be zero and are never read: each
    operation that would combine a value with one of them is dropped
    and its other operand stands in for the result (``0 - in3`` is
    ``negative(in3)``).  The module docstring says why the uint8 output
    cannot tell.
    """
    in0, in1, in2, in3, in4, in5, in6, in7 = src
    if live == 1:                       # DC only: all eight outputs are in0
        dst[...] = in0
        return
    add, sub, mul = np.add, np.subtract, np.multiply
    a, b, c, d, e, f, g, h, i = work

    # even part (phases 3, 5-3, 2): in2 is live from 3, in4 from 5, in6 from 7
    if live > 4:
        tmp10, tmp11 = add(in0, in4, out=a), sub(in0, in4, out=b)
    else:
        tmp10 = tmp11 = in0
    if live > 2:
        if live > 6:
            tmp13, z2 = add(in2, in6, out=c), sub(in2, in6, out=d)
        else:
            tmp13 = z2 = in2
        tmp12 = sub(mul(z2, _SQRT2, out=d), tmp13, out=d)
        e0 = add(tmp10, tmp13, out=e)
        e3 = sub(tmp10, tmp13, out=a)
        e1 = add(tmp11, tmp12, out=c)
        e2 = sub(tmp11, tmp12, out=b)
    else:                               # tmp13 = tmp12 = 0
        e0 = e1 = e2 = e3 = in0

    # odd part (phases 6, 5, 2): in3 is live from 4, in5 from 6, in7 at 8
    if live > 7:
        z11, z12 = add(in1, in7, out=g), sub(in1, in7, out=h)
    else:
        z11 = z12 = in1
    if live > 3:
        if live > 5:
            z13, z10 = add(in5, in3, out=d), sub(in5, in3, out=f)
        else:
            z13, z10 = in3, np.negative(in3, out=f)
        o7 = add(z11, z13, out=i)
        t11 = mul(sub(z11, z13, out=g), _SQRT2, out=g)
        z5 = mul(add(z10, z12, out=d), _C2X2, out=d)
        t10 = sub(mul(_C2MC6, z12, out=h), z5, out=h)
        t12 = add(mul(_NC2PC6, z10, out=f), z5, out=f)
    else:                               # z13 = z10 = 0
        o7 = in1
        t11 = mul(in1, _SQRT2, out=g)
        z5 = t12 = mul(in1, _C2X2, out=d)
        t10 = sub(mul(_C2MC6, in1, out=h), z5, out=h)
    o6 = sub(t12, o7, out=f)
    o5 = sub(t11, o6, out=g)
    o4 = add(t10, o5, out=h)

    add(e0, o7, out=dst[0])
    sub(e0, o7, out=dst[7])
    add(e1, o6, out=dst[1])
    sub(e1, o6, out=dst[6])
    add(e2, o5, out=dst[2])
    sub(e2, o5, out=dst[5])
    add(e3, o4, out=dst[4])
    sub(e3, o4, out=dst[3])


def _aan_2d(cols: np.ndarray, rows: np.ndarray, work: np.ndarray,
            box: tuple[int, int] = (BLOCK_SIZE, BLOCK_SIZE)) -> None:
    """Column pass, transpose, row pass over pre-scaled blocks-last
    coefficients *cols* ``(u, v, n)``; leaves the spatial block in *rows*
    as ``(y, x, n)`` and clobbers *cols*.

    ``box = (r, c)`` promises that every coefficient with ``u >= r`` or
    ``v >= c`` is zero (those of *cols* are never read): the column pass
    then runs over the *c* live column slabs with ``live = r``, *c*
    slabs are transposed, and the row pass runs with ``live = c``.
    """
    r, c = box
    head = (cols, rows, work) if c == BLOCK_SIZE else (
        cols[:, :c], rows[:, :c], work[:, :c])
    _aan_pass(*head, live=r)                       # column pass, Eq. (1)
    np.copyto(cols[:c], head[1].transpose(1, 0, 2))
    _aan_pass(cols, rows, work, live=c)            # row pass, Eq. (2)


def idct_2d_aan(blocks: np.ndarray) -> np.ndarray:
    """AAN fast scaled IDCT over an (n, 8, 8) coefficient batch.

    Accepts *unscaled* dequantized coefficients; the AAN pre-scale is
    applied here.  Includes the sqrt(8)-per-axis normalization difference
    against the orthonormal convention, so results match
    :func:`idct_2d_blocks` to float precision.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    scaled = (blocks * _AAN_SCALE).reshape(-1, BLOCK_SIZE, BLOCK_SIZE)
    cols = np.ascontiguousarray(scaled.transpose(1, 2, 0))
    rows = np.empty_like(cols)
    _aan_2d(cols, rows, np.empty((9,) + cols.shape[1:]))
    return rows.transpose(2, 1, 0).reshape(blocks.shape)


def samples_from_idct(spatial: np.ndarray) -> np.ndarray:
    """Level-shift and clamp IDCT output to uint8 samples."""
    out = np.rint(spatial + LEVEL_SHIFT)
    return np.clip(out, 0, MAX_SAMPLE).astype(np.uint8)


# ---------------------------------------------------------------------------
# The decode path's entry point: tiled dequantize + IDCT + level shift.
# ---------------------------------------------------------------------------

#: Byte budget of one float64 (8, 8, tile) scratch slab.  With the two
#: slabs the passes ping-pong between, the pass temporaries and the
#: tile's own coefficients the working set is about 1 MB, the size of a
#: per-core L2.  Measured at 1280x960: tiles of 128 and of 4096 blocks
#: are both slower than 512.
TILE_BYTES = 256 << 10
TILE_BLOCKS = TILE_BYTES // (BLOCK_SIZE * BLOCK_SIZE * 8)


def _aan_scratch(m: int) -> tuple[np.ndarray, ...]:
    """Blocks-last scratch of :func:`_aan_tile` for tiles of *m* blocks:
    the int32 dequantized tile, the two float64 (8, 8, m) slabs the
    passes ping-pong between and the (9, 8, m) temporaries of
    :func:`_aan_pass`.

    The float64 slabs are one allocation whose first slab starts on a
    64-byte boundary (:func:`~repro.jpeg.scratch.aligned_float64`), so
    every (8, m) slab does (a slab is ``64 m`` bytes).  ``np.empty``
    only promises 16, and the ufunc loops over slabs that straddle
    cache lines run a full tile in 333 us against 260.
    """
    slabs = aligned_float64(25 * BLOCK_SIZE * m).reshape(25, BLOCK_SIZE, m)
    return (np.empty((BLOCK_SIZE, BLOCK_SIZE, m), dtype=np.int32),
            slabs[:8], slabs[8:16], slabs[16:])


_LE16, _LE64 = np.dtype("<i2"), np.dtype("<u8")
_BLOCK_WORDS = BLOCK_SIZE * BLOCK_SIZE * _LE16.itemsize // _LE64.itemsize
_COEF_BITS = 8 * _LE16.itemsize
_ROW_BITS, _BLOCK_BITS = _COEF_BITS * BLOCK_SIZE, _COEF_BITS * BLOCK_SIZE ** 2
_ROW_MASK, _BLOCK_MASK = (1 << _ROW_BITS) - 1, (1 << _BLOCK_BITS) - 1


def _tile_boxes(coefs: np.ndarray) -> list[tuple[int, int]]:
    """The nonzero bounding box ``(r, c)`` of each :data:`TILE_BLOCKS`
    tile of an (n, 8, 8) plane: every coefficient of the tile with
    ``u >= r`` or ``v >= c`` is zero (``1 <= r, c <= 8``; an all-zero
    tile is ``(1, 1)``).

    Per tile, one OR-reduce of the blocks as ``uint64`` words (16 per
    block, in rows of ``g = gcd(m, 8)`` blocks so the inner loop is
    long), then integer arithmetic on the result read as one
    little-endian number (coefficient ``8u + v`` of a block at bit
    ``16 (8u + v)`` and up): the *g* blocks are folded onto one, the top
    set bit of that gives *r*, and folding its eight 128-bit rows onto
    one gives *c*.  Only a C-contiguous little-endian ``int16`` plane
    can be viewed as words; anything else the decode path accepts
    (another integer dtype, a strided view) is scanned through a
    ``!= 0`` copy of that layout — a value cast could wrap a nonzero
    coefficient to zero.
    """
    if coefs.dtype != _LE16 or not coefs.flags.c_contiguous:
        coefs = (coefs != 0).astype(_LE16)
    words = coefs.reshape(-1).view(_LE64)
    boxes = []
    tile_words = _BLOCK_WORDS * TILE_BLOCKS
    for start in range(0, len(words), tile_words):
        tile = words[start:start + tile_words]
        g = math.gcd(len(tile) // _BLOCK_WORDS, BLOCK_SIZE)
        ored = int.from_bytes(np.bitwise_or.reduce(
            tile.reshape(-1, _BLOCK_WORDS * g), axis=0).tobytes(), "little")
        while g > 1:                    # fold the g blocks onto one
            g >>= 1
            ored |= ored >> g * _BLOCK_BITS
        ored &= _BLOCK_MASK
        r = -(-ored.bit_length() // _ROW_BITS)
        for rows in (4, 2, 1):          # fold its eight rows onto one
            ored |= ored >> rows * _ROW_BITS
        c = -(-(ored & _ROW_MASK).bit_length() // _COEF_BITS)
        boxes.append((max(r, 1), max(c, 1)))
    return boxes


def _aan_tile(coefs: np.ndarray, quant: np.ndarray, out: np.ndarray,
              scratch: tuple[np.ndarray, ...], box: tuple[int, int]) -> None:
    """Fused ``samples_from_idct(idct_2d_aan(dequantize_blocks(...)))``
    for one tile of blocks, stored into uint8 *out*.

    Runs blocks-last in *scratch* so nothing tile-sized is allocated:
    int32 dequant -> AAN scale -> column pass -> transpose -> row pass
    -> +128 -> rint -> clip, then one transposing store.  Only the
    ``r x c`` corner that *box* (the tile's entry of :func:`_tile_boxes`) says can
    be nonzero is dequantized and scaled, and the passes are told that
    what lies outside it is zero.
    """
    deq, cols, rows, work = scratch
    r, c = box
    scale, corner = _AAN_SCALE, cols
    if r < BLOCK_SIZE or c < BLOCK_SIZE:
        coefs, quant, scale = coefs[:, :r, :c], quant[:r, :c], scale[:r, :c]
        deq, corner = deq[:r, :c], cols[:r, :c]
    np.multiply(coefs.transpose(1, 2, 0), quant[:, :, None], out=deq)
    np.multiply(deq, scale[:, :, None], out=corner)
    _aan_2d(cols, rows, work, box)
    np.add(rows, LEVEL_SHIFT, out=rows)
    np.rint(rows, out=rows)
    np.clip(rows, 0, MAX_SAMPLE, out=rows)
    out[...] = rows.transpose(2, 1, 0)


def idct_samples(coefs: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """Dequantize + IDCT + level shift + clamp: quantized (n, 8, 8)
    coefficients in, (n, 8, 8) uint8 samples out.

    Equal, byte for byte, to ``samples_from_idct(idct_2d_aan(
    dequantize_blocks(coefs, quant)))`` but evaluated over tiles of
    :data:`TILE_BLOCKS` blocks by the fused blocks-last kernel
    :func:`_aan_tile`, whose work follows each tile's nonzero bounding
    box.  The scratch belongs to this call (one allocation, reused by
    every full tile), so concurrent calls — the ``thread`` backend —
    share nothing.
    """
    coefs = np.asarray(coefs)
    n = coefs.shape[0]
    out = np.empty((n, BLOCK_SIZE, BLOCK_SIZE), dtype=np.uint8)
    quant = quant.astype(np.int32)
    boxes = _tile_boxes(coefs)
    scratch_blocks = 0
    for start in range(0, n, TILE_BLOCKS):
        m = min(TILE_BLOCKS, n - start)
        if m != scratch_blocks:        # first tile, and a shorter last one
            scratch, scratch_blocks = _aan_scratch(m), m
        _aan_tile(coefs[start:start + m], quant, out[start:start + m],
                  scratch, boxes[start // TILE_BLOCKS])
    return out
