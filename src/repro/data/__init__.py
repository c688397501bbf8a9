"""Deterministic synthetic corpora (DESIGN.md substitution for the
paper's photo corpora)."""

from .corpus import CorpusImage, CorpusSpec, build_corpus
from .synth import (
    GENERATORS,
    marker_free_corpus,
    scenario_corpus,
    synthetic_detail,
    synthetic_photo,
    synthetic_skewed,
    synthetic_smooth,
)

__all__ = [
    "CorpusImage",
    "CorpusSpec",
    "GENERATORS",
    "build_corpus",
    "marker_free_corpus",
    "scenario_corpus",
    "synthetic_detail",
    "synthetic_photo",
    "synthetic_skewed",
    "synthetic_smooth",
]
