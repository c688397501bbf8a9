"""Quantization tables and (de)quantization.

Implements the IJG quality-scaling convention (quality 1..100 scales the
Annex-K tables), DQT segment payload encode/decode, and vectorized
quantize/dequantize over batches of blocks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import JpegFormatError
from .constants import (
    BLOCK_SAMPLES,
    STD_CHROMINANCE_QUANT,
    STD_LUMINANCE_QUANT,
    ZIGZAG_ORDER,
)


def scale_quant_table(base: np.ndarray, quality: int) -> np.ndarray:
    """Scale an Annex-K table to an IJG quality factor in [1, 100].

    Quality 50 returns the base table; higher is finer (smaller steps).
    """
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000 // quality
    else:
        scale = 200 - quality * 2
    table = (base.astype(np.int64) * scale + 50) // 100
    return np.clip(table, 1, 255).astype(np.uint16)


def luminance_table(quality: int) -> np.ndarray:
    """Quality-scaled luminance quantization table (8x8, uint16)."""
    return scale_quant_table(STD_LUMINANCE_QUANT, quality)


def chrominance_table(quality: int) -> np.ndarray:
    """Quality-scaled chrominance quantization table (8x8, uint16)."""
    return scale_quant_table(STD_CHROMINANCE_QUANT, quality)


class _Steps(NamedTuple):
    table_id: int
    values: np.ndarray  # (8, 8) uint16, natural order


class QuantTable(_Steps):
    """A quantization table with its DQT slot id (0..3), checked on
    construction."""

    __slots__ = ()

    def __new__(cls, table_id: int, values: np.ndarray) -> "QuantTable":
        if not 0 <= table_id <= 3:
            raise JpegFormatError(f"bad quant table id {table_id}")
        if values.shape != (8, 8):
            raise JpegFormatError("quant table must be 8x8")
        if np.any(values < 1):
            raise JpegFormatError("quant steps must be >= 1")
        return super().__new__(cls, table_id, values)

    def to_dqt_payload(self) -> bytes:
        """Serialize as one table of a DQT segment payload (8-bit precision)."""
        zz = self.values.reshape(-1)[ZIGZAG_ORDER]
        if np.any(zz > 255):
            raise JpegFormatError("8-bit DQT cannot hold steps > 255")
        return bytes([self.table_id]) + bytes(int(v) for v in zz)


def parse_dqt_payload(payload: bytes) -> list[QuantTable]:
    """Parse a DQT segment payload (may define several tables)."""
    tables: list[QuantTable] = []
    pos = 0
    while pos < len(payload):
        pq_tq = payload[pos]
        precision = pq_tq >> 4
        table_id = pq_tq & 0x0F
        pos += 1
        if precision == 0:
            if pos + 64 > len(payload):
                raise JpegFormatError("truncated 8-bit DQT")
            zz = np.frombuffer(payload[pos: pos + 64], dtype=np.uint8)
            pos += 64
        elif precision == 1:
            if pos + 128 > len(payload):
                raise JpegFormatError("truncated 16-bit DQT")
            zz = np.frombuffer(payload[pos: pos + 128], dtype=">u2")
            pos += 128
        else:
            raise JpegFormatError(f"bad DQT precision {precision}")
        natural = np.empty(BLOCK_SAMPLES, dtype=np.uint16)
        natural[ZIGZAG_ORDER] = zz
        tables.append(QuantTable(table_id=table_id, values=natural.reshape(8, 8)))
    return tables


def quantize_blocks(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Quantize a batch of DCT blocks.

    Parameters
    ----------
    coeffs : (n, 8, 8) float or int array of raw DCT coefficients.
    table : (8, 8) quantization steps.

    Returns
    -------
    (n, 8, 8) int16 quantized coefficients, rounded to nearest.
    """
    q = table.astype(np.float64)
    out = np.rint(coeffs.astype(np.float64) / q)
    return out.astype(np.int16)


def dequantize_blocks(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Dequantize a batch of quantized blocks to int32 DCT coefficients."""
    return coeffs.astype(np.int32) * table.astype(np.int32)
