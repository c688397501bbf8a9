"""Corpus builders mirroring the paper's methodology at laptop scale.

The paper crops base images into width x height grids: 19 bases -> 4449
training images, 17 bases -> 3597 test images, up to 25 MP.  Pure-Python
entropy decoding makes 25 MP impractical per-image, so the default grids
cap around 1-2 MP — the evaluated phenomena are ratio-shaped, not
absolute-size-shaped (DESIGN.md §5).

Encoded corpora are cached in-process keyed by their full parameter
tuple; building is deterministic (seeded).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..jpeg.encoder import EncoderSettings, encode_jpeg
from .synth import GENERATORS


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of a generated corpus."""

    kind: str = "photo"             # GENERATORS key
    sizes: tuple[tuple[int, int], ...] = (
        (256, 256), (384, 256), (512, 384), (512, 512), (768, 512),
        (1024, 768),
    )
    subsampling: str = "4:2:2"
    quality: int = 85
    seeds: tuple[int, ...] = (11,)
    detail_levels: tuple[float, ...] = (0.5,)


@dataclass(frozen=True)
class CorpusImage:
    """One encoded corpus member."""

    data: bytes
    width: int
    height: int
    subsampling: str
    seed: int
    kind: str

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def density(self) -> float:
        return len(self.data) / self.pixels


def _generate_one(kind: str, width: int, height: int, seed: int,
                  detail: float, subsampling: str, quality: int) -> CorpusImage:
    gen = GENERATORS[kind]
    if kind == "photo":
        rgb = gen(height, width, seed=seed, detail=detail)
    else:
        rgb = gen(height, width, seed=seed)
    data = encode_jpeg(rgb, EncoderSettings(quality=quality,
                                            subsampling=subsampling))
    return CorpusImage(data=data, width=width, height=height,
                       subsampling=subsampling, seed=seed, kind=kind)


@lru_cache(maxsize=32)
def _build_cached(spec_key: tuple) -> tuple[CorpusImage, ...]:
    (kind, sizes, subsampling, quality, seeds, details) = spec_key
    images = []
    for (w, h) in sizes:
        for seed in seeds:
            for detail in details:
                images.append(_generate_one(
                    kind, w, h, seed, detail, subsampling, quality))
    return tuple(images)


def build_corpus(spec: CorpusSpec) -> list[CorpusImage]:
    """Build (or fetch from cache) the corpus described by *spec*."""
    key = (spec.kind, tuple(spec.sizes), spec.subsampling, spec.quality,
           tuple(spec.seeds), tuple(spec.detail_levels))
    return list(_build_cached(key))
