#!/usr/bin/env python3
"""Quickstart: encode a synthetic photo, decode it under every execution
mode on the simulated GTX 560 machine, and verify the pixels agree.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import DecodeMode, HeterogeneousDecoder
from repro.data import synthetic_photo
from repro.evaluation import platforms
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg


def main() -> None:
    # 1. Make a JPEG.  Any baseline 4:4:4/4:2:2/4:2:0 JPEG bytes work;
    #    we generate one so the example is self-contained.
    rgb = synthetic_photo(480, 640, seed=7, detail=0.6)
    data = encode_jpeg(rgb, EncoderSettings(quality=85, subsampling="4:2:2"))
    print(f"encoded {rgb.shape[1]}x{rgb.shape[0]} -> {len(data)} bytes "
          f"({len(data) / rgb[..., 0].size:.2f} B/px entropy density)")

    # 2. Build a decoder for a platform.  Its performance models were
    #    fitted in the offline profiling step (Section 5.1) and ship
    #    with the package; the first decode loads the one it needs.
    decoder = HeterogeneousDecoder.for_platform(platforms.GTX560)

    # 3. Decode once per mode; entropy decoding is shared via prepare().
    prepared = decoder.prepare(data)
    reference = decode_jpeg(data).rgb
    print(f"\n{'mode':<12} {'simulated time':>16} {'speedup vs SIMD':>16}")
    simd_us = None
    for mode in DecodeMode:
        result = decoder.decode(prepared, mode)
        assert np.array_equal(result.rgb, reference), "pixel mismatch!"
        if mode is DecodeMode.SIMD:
            simd_us = result.total_us
        speedup = f"{simd_us / result.total_us:.2f}x" if simd_us else "-"
        print(f"{mode.value:<12} {result.total_time_ms:>13.3f} ms {speedup:>16}")

    # 4. Or let the performance model pick the mode (the paper's runtime).
    auto = decoder.decode(prepared, "auto")
    print(f"\nauto mode chose: {auto.mode.value} "
          f"({auto.total_time_ms:.3f} ms)")
    if auto.partition:
        print(f"partition: {auto.partition.cpu_rows} rows -> CPU, "
              f"{auto.partition.gpu_rows} rows -> GPU")


if __name__ == "__main__":
    main()
