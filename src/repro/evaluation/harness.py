"""Experiment harness: runs decode modes over corpora and aggregates the
paper's metrics (speedups, coefficients of variation, Amdahl fractions,
load balance)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.decoder import HeterogeneousDecoder
from ..core.executors import DecodeResult, PreparedImage
from ..core.modes import EVALUATED_MODES, DecodeMode
from ..core.platform import Platform
from ..data.corpus import CorpusImage


@dataclass
class ImageMeasurement:
    """All-mode simulated timings for one image on one platform."""

    width: int
    height: int
    pixels: int
    density: float
    times_us: dict[DecodeMode, float]
    results: dict[DecodeMode, DecodeResult] = field(default_factory=dict)

    def speedup(self, mode: DecodeMode,
                baseline: DecodeMode = DecodeMode.SIMD) -> float:
        return self.times_us[baseline] / self.times_us[mode]


def prepare_corpus(images: list[CorpusImage]) -> list[PreparedImage]:
    """Entropy-decode every corpus image once (the expensive step)."""
    return [PreparedImage.from_bytes(img.data) for img in images]


def measure_corpus(
    platform: Platform,
    prepared: list[PreparedImage],
    modes: tuple[DecodeMode, ...] | None = None,
    keep_results: bool = False,
) -> list[ImageMeasurement]:
    """Run every mode over every prepared image; return per-image records."""
    modes = modes or tuple(DecodeMode)
    decoder = HeterogeneousDecoder.for_platform(platform)
    out = []
    for img in prepared:
        results = {m: decoder.decode(img, m) for m in modes}
        geo = img.geometry
        out.append(ImageMeasurement(
            width=geo.width, height=geo.height,
            pixels=geo.width * geo.height, density=img.density,
            times_us={m: r.total_us for m, r in results.items()},
            results=results if keep_results else {},
        ))
    return out


@dataclass(frozen=True)
class SpeedupSummary:
    """Average speedup +- coefficient of variation (Tables 2/3 cells)."""

    mode: DecodeMode
    mean: float
    cov_percent: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.cov_percent:.2f}%"


def summarize_speedups(
    measurements: list[ImageMeasurement],
    modes: tuple[DecodeMode, ...] = EVALUATED_MODES,
    baseline: DecodeMode = DecodeMode.SIMD,
) -> dict[DecodeMode, SpeedupSummary]:
    """Tables 2/3: mean speedup over the baseline with CoV."""
    out = {}
    for mode in modes:
        s = np.array([m.speedup(mode, baseline) for m in measurements])
        mean = float(s.mean())
        cov = float(100.0 * s.std() / mean) if mean > 0 else float("nan")
        out[mode] = SpeedupSummary(mode=mode, mean=mean, cov_percent=cov,
                                   n=len(s))
    return out


def amdahl_series(
    platform: Platform,
    prepared: list[PreparedImage],
    mode: DecodeMode = DecodeMode.PPS,
) -> list[tuple[int, float]]:
    """Figure 11: percent of the theoretical max speedup vs. pixels.

    Max speedup = Ttotal(SIMD) / THuff (Eq 19); both from the simulated
    execution of the same image.
    """
    decoder = HeterogeneousDecoder.for_platform(platform)
    series = []
    for img in sorted(prepared, key=lambda p: p.geometry.width * p.geometry.height):
        simd = decoder.decode(img, DecodeMode.SIMD)
        target = decoder.decode(img, mode)
        t_huff = simd.breakdown.get("huffman", 0.0)
        bound = simd.total_us / t_huff
        achieved = simd.total_us / target.total_us
        series.append((img.geometry.width * img.geometry.height,
                       100.0 * achieved / bound))
    return series


def balance_series(
    platform: Platform,
    prepared: list[PreparedImage],
    modes: tuple[DecodeMode, ...] = (DecodeMode.SPS, DecodeMode.PPS),
) -> dict[DecodeMode, list[tuple[int, float, float]]]:
    """Figure 12: (pixels, CPU parallel time, GPU time) per mode.

    CPU time counts only the parallel-phase spans (entropy decoding is
    omitted, as the paper does); GPU time counts transfers + kernels.
    """
    decoder = HeterogeneousDecoder.for_platform(platform)
    out: dict[DecodeMode, list[tuple[int, float, float]]] = {m: [] for m in modes}
    for img in sorted(prepared, key=lambda p: p.geometry.width * p.geometry.height):
        for mode in modes:
            res = decoder.decode(img, mode)
            cpu_us, gpu_us = res.timeline.parallel_exec_times()
            out[mode].append(
                (img.geometry.width * img.geometry.height, cpu_us, gpu_us))
    return out

