#!/usr/bin/env python3
"""PPS re-partitioning on skewed entropy (paper Section 5.2.2).

The Huffman-time model assumes entropy is uniformly distributed over
the image (Eq 4).  This example builds an image whose detail is
concentrated in the bottom half, shows the per-chunk mismatch between
predicted and actual Huffman times, and demonstrates the Eq 16/17
correction shifting the CPU/GPU split.

Run:  python examples/skewed_entropy.py
"""

from __future__ import annotations

import numpy as np

from repro.core import DecodeMode, HeterogeneousDecoder, PreparedImage
from repro.core.executors import ExecutionConfig, execute
from repro.data import synthetic_skewed
from repro.evaluation import platforms
from repro.jpeg import EncoderSettings, encode_jpeg


def main() -> None:
    rgb = synthetic_skewed(448, 448, seed=11, dense_fraction=0.45)
    data = encode_jpeg(rgb, EncoderSettings(quality=85, subsampling="4:2:2"))
    decoder = HeterogeneousDecoder.for_platform(platforms.GTX560)
    prepared = decoder.prepare(data)
    plat = platforms.GTX560

    # per-MCU-row entropy profile
    huff = prepared.huff_row_us(plat)
    half = len(huff) // 2
    print(f"image: 448x448 4:2:2, {len(data)} bytes")
    print(f"Huffman time, top half:    {huff[:half].sum() / 1e3:8.3f} ms")
    print(f"Huffman time, bottom half: {huff[half:].sum() / 1e3:8.3f} ms")
    print(f"(uniform model would predict both halves equal — the skew is "
          f"{huff[half:].sum() / huff[:half].sum():.2f}x)")

    model = decoder.model_for("4:2:2")
    on, off = (execute(ExecutionConfig(platform=plat, model=model,
                                       repartition=rep),
                       prepared, DecodeMode.PPS) for rep in (True, False))

    print(f"\nPPS with re-partitioning:    {on.total_time_ms:8.3f} ms "
          f"(CPU rows: {on.partition.cpu_rows})")
    print(f"PPS without re-partitioning: {off.total_time_ms:8.3f} ms "
          f"(CPU rows: {off.partition.cpu_rows})")
    simd = decoder.decode(prepared, DecodeMode.SIMD)
    print(f"SIMD baseline:               {simd.total_time_ms:8.3f} ms")

    # pixels are identical either way
    assert np.array_equal(on.rgb, off.rgb)
    print("\npixel output identical with and without re-partitioning: OK")


if __name__ == "__main__":
    main()
