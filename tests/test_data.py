"""Synthetic image generators and corpus builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.data import (
    CorpusSpec,
    build_corpus,
    synthetic_detail,
    synthetic_photo,
    synthetic_skewed,
    synthetic_smooth,
)
from repro.jpeg import parse_jpeg


class TestGenerators:
    def test_deterministic(self):
        a = synthetic_photo(32, 48, seed=5)
        b = synthetic_photo(32, 48, seed=5)
        assert np.array_equal(a, b)

    def test_seed_changes_content(self):
        a = synthetic_photo(32, 48, seed=5)
        b = synthetic_photo(32, 48, seed=6)
        assert not np.array_equal(a, b)

    def test_shapes_and_dtype(self):
        for gen in (synthetic_photo, synthetic_smooth, synthetic_detail,
                    synthetic_skewed):
            img = gen(33, 47, seed=1)
            assert img.shape == (33, 47, 3)
            assert img.dtype == np.uint8

    def test_invalid_args(self):
        with pytest.raises(ReproError):
            synthetic_photo(0, 10)
        with pytest.raises(ReproError):
            synthetic_photo(10, 10, detail=1.5)
        with pytest.raises(ReproError):
            synthetic_skewed(10, 10, dense_fraction=0.0)

    def test_entropy_ordering(self):
        """smooth < photo < detail in compressed density."""
        from repro.jpeg import EncoderSettings, encode_jpeg
        s = EncoderSettings(quality=85, subsampling="4:2:2")
        h = w = 128
        sizes = [len(encode_jpeg(g(h, w, seed=2), s))
                 for g in (synthetic_smooth, synthetic_photo, synthetic_detail)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_detail_knob_monotone(self):
        from repro.jpeg import EncoderSettings, encode_jpeg
        s = EncoderSettings(quality=85)
        low = len(encode_jpeg(synthetic_photo(96, 96, seed=3, detail=0.1), s))
        high = len(encode_jpeg(synthetic_photo(96, 96, seed=3, detail=0.9), s))
        assert low < high

    def test_skewed_is_denser_at_bottom(self):
        """Bottom-half entropy must exceed top-half entropy — the PPS
        re-partitioning scenario."""
        from repro.core import PreparedImage
        from repro.jpeg import EncoderSettings, encode_jpeg
        img = synthetic_skewed(160, 160, seed=4, dense_fraction=0.5)
        data = encode_jpeg(img, EncoderSettings(quality=85,
                                                subsampling="4:2:2"))
        prep = PreparedImage.from_bytes(data)
        offs = prep.row_byte_offsets
        mid = len(offs) // 2
        top = offs[mid] - offs[0]
        bottom = offs[-1] - offs[mid]
        assert bottom > 1.5 * top


class TestCorpora:
    def test_build_matches_spec(self):
        spec = CorpusSpec(sizes=((64, 48), (96, 64)), seeds=(1, 2),
                          detail_levels=(0.5,))
        corpus = build_corpus(spec)
        assert len(corpus) == 4
        assert {(c.width, c.height) for c in corpus} == {(64, 48), (96, 64)}

    def test_images_are_valid_jpegs(self):
        spec = CorpusSpec(sizes=((64, 48),), seeds=(1,))
        for img in build_corpus(spec):
            info = parse_jpeg(img.data)
            assert (info.width, info.height) == (img.width, img.height)
            assert info.subsampling_mode == img.subsampling

    def test_caching_returns_same_objects(self):
        spec = CorpusSpec(sizes=((64, 48),), seeds=(1,))
        a = build_corpus(spec)
        b = build_corpus(spec)
        assert a[0].data is b[0].data

    def test_density_property(self):
        spec = CorpusSpec(sizes=((64, 64),), seeds=(1,))
        img = build_corpus(spec)[0]
        assert img.density == pytest.approx(len(img.data) / (64 * 64))
