"""Evaluation harness: corpus measurement, summaries, figure series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DecodeMode, PreparedImage
from repro.data import CorpusSpec, build_corpus
from repro.evaluation import (
    amdahl_series,
    balance_series,
    format_table,
    measure_corpus,
    prepare_corpus,
    summarize_speedups,
    platforms,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    spec = CorpusSpec(sizes=((64, 64), (128, 96)), seeds=(21,),
                      detail_levels=(0.5,))
    return prepare_corpus(build_corpus(spec))


@pytest.fixture(scope="module")
def measurements(tiny_corpus):
    # pricing-mode replays keep this fast
    virt = [p.as_virtual() for p in tiny_corpus]
    return measure_corpus(platforms.GTX560, virt)


class TestMeasurement:
    def test_all_modes_measured(self, measurements):
        for m in measurements:
            assert set(m.times_us) == set(DecodeMode)
            assert all(t > 0 for t in m.times_us.values())

    def test_speedup_definition(self, measurements):
        m = measurements[0]
        assert m.speedup(DecodeMode.SIMD) == pytest.approx(1.0)
        assert m.speedup(DecodeMode.SEQUENTIAL) < 1.0


class TestSummaries:
    def test_summary_stats(self, measurements):
        summaries = summarize_speedups(measurements)
        pps = summaries[DecodeMode.PPS]
        assert pps.n == len(measurements)
        assert pps.mean > 0
        assert np.isfinite(pps.cov_percent)
        assert "±" in str(pps)


class TestFigureSeries:
    def test_amdahl_series_bounded(self, tiny_corpus):
        series = amdahl_series(platforms.GTX680,
                               [p.as_virtual() for p in tiny_corpus])
        assert all(0 < pct <= 100.0 + 1e-6 for _, pct in series)

    def test_balance_series_shape(self, tiny_corpus):
        series = balance_series(platforms.GTX560,
                                [p.as_virtual() for p in tiny_corpus])
        assert set(series) == {DecodeMode.SPS, DecodeMode.PPS}
        for pts in series.values():
            for px, cpu_us, gpu_us in pts:
                assert px > 0 and cpu_us >= 0 and gpu_us >= 0


class TestFormatting:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])
