"""Extension: restart-marker segment runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EntropyError
from repro.data import synthetic_photo
from repro.jpeg import (EncoderSettings, create_entropy_decoder, encode_jpeg,
                        parse_jpeg)
from repro.jpeg.decoder import component_tables_from_info
from repro.jpeg.blocks import scatter_mcu_strip
from repro.jpeg.coefficients import CoefficientBuffers
from repro.jpeg.fast_entropy import FastEntropyDecoder
from repro.jpeg.parallel_huffman import (
    decode_segment_coefficients,
    merge_segment_runs,
    segment_plane_nbytes,
    split_restart_segments,
)


@pytest.fixture(scope="module")
def restart_jpeg():
    rgb = synthetic_photo(80, 112, seed=17, detail=0.6)
    data = encode_jpeg(rgb, EncoderSettings(quality=85, subsampling="4:2:2",
                                            restart_interval=3))
    return data


class TestSplitSegments:
    def test_segments_cover_all_mcus(self, restart_jpeg):
        info = parse_jpeg(restart_jpeg)
        geo = info.geometry
        segs = split_restart_segments(info.entropy_data, geo.total_mcus,
                                      info.restart_interval)
        assert sum(s.mcu_count for s in segs) == geo.total_mcus
        assert segs[0].byte_start == 0
        assert segs[-1].byte_stop == len(info.entropy_data)
        for a, b in zip(segs, segs[1:]):
            assert b.byte_start >= a.byte_stop + 2  # the RSTn marker gap
            assert b.mcu_start == a.mcu_start + a.mcu_count

    def test_interval_mcu_counts(self, restart_jpeg):
        info = parse_jpeg(restart_jpeg)
        segs = split_restart_segments(info.entropy_data,
                                      info.geometry.total_mcus, 3)
        assert all(s.mcu_count == 3 for s in segs[:-1])
        assert 1 <= segs[-1].mcu_count <= 3

    def test_requires_interval(self, restart_jpeg):
        info = parse_jpeg(restart_jpeg)
        with pytest.raises(EntropyError):
            split_restart_segments(info.entropy_data, 10, 0)


def sequential_outcome(info):
    """The fast engine's whole-scan decode: its coefficient buffers, or
    the ``(type, message)`` of the error it raises."""
    decoder = FastEntropyDecoder(
        info.geometry, component_tables_from_info(info),
        info.restart_interval)
    try:
        return decoder.decode_all(info.entropy_data)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestSegmentRuns:
    """Restart segments ship as runs: one bounded decode per run of
    consecutive segments, RSTn sequence checked from the run's own
    first index."""

    def _segments(self, info):
        return split_restart_segments(
            info.entropy_data, info.geometry.total_mcus,
            info.restart_interval)

    def _decode_runs(self, info, runs):
        geo = info.geometry
        out = CoefficientBuffers.empty(geo)
        for run in runs:
            planes = decode_segment_coefficients(
                run, info.entropy_data[run.byte_start:run.byte_stop + 2],
                geo, component_tables_from_info(info), info.restart_interval)
            assert [p.nbytes for p in planes] == \
                segment_plane_nbytes(run, geo)
            scatter_mcu_strip(planes, 0, run.mcu_start, run.mcu_count,
                              geo, out.planes)
        return out

    @pytest.mark.parametrize("run_count", [1, 2, 5, 1000])
    def test_run_counts_tile_the_scan(self, restart_jpeg, run_count):
        info = parse_jpeg(restart_jpeg)
        segs = self._segments(info)
        runs = merge_segment_runs(segs, run_count)
        # One run, one per worker, and never more runs than segments.
        assert len(runs) == min(run_count, len(segs))
        assert runs[0].byte_start == 0 and runs[0].mcu_start == 0
        assert runs[-1].byte_stop == len(info.entropy_data)
        assert sum(r.mcu_count for r in runs) == info.geometry.total_mcus
        starts = {s.index: s for s in segs}
        for a, b in zip(runs, runs[1:]):
            assert b.mcu_start == a.mcu_start + a.mcu_count
            # A run begins where one of the segments begins.
            assert b.byte_start == starts[b.index].byte_start
            assert b.byte_start == a.byte_stop + 2

    def test_runs_are_balanced_by_compressed_bytes(self, restart_jpeg):
        info = parse_jpeg(restart_jpeg)
        segs = self._segments(info)
        runs = merge_segment_runs(segs, 3)
        share = sum(s.nbytes for s in segs) / 3
        biggest = max(s.nbytes for s in segs)
        assert all(abs(r.nbytes - share) <= 2 * biggest for r in runs)

    @pytest.mark.parametrize("oracle", ["fast", "reference"])
    @pytest.mark.parametrize("run_count", [1, 2, 5, 1000])
    def test_runs_decode_bit_identically(self, restart_jpeg, run_count,
                                         oracle):
        """The runs, decoded apart, equal the whole-scan decode of
        either engine."""
        info = parse_jpeg(restart_jpeg)
        runs = merge_segment_runs(self._segments(info), run_count)
        if run_count == 2:
            # 24 segments in 2 runs: the second starts mid-way through
            # the RST0..RST7 cycle and runs across its wrap-around.
            assert runs[1].index % 8 and runs[1].mcu_count > 8 * 3
        got = self._decode_runs(info, runs)
        want = create_entropy_decoder(
            oracle, info.geometry, component_tables_from_info(info),
            info.restart_interval).decode_all(info.entropy_data)
        for g, w in zip(got.planes, want.planes):
            assert np.array_equal(g, w)

    def test_out_of_sequence_marker_inside_a_run(self, restart_jpeg):
        """A wrong RSTn number raises the sequential decoder's message,
        from the run that crosses it and from the split that feeds a
        fan-out."""
        info = parse_jpeg(restart_jpeg)
        segs = self._segments(info)
        runs = merge_segment_runs(segs, 2)
        inner = runs[1].index + 2          # a marker inside run 1
        offset = segs[inner].byte_start - 2
        data = bytearray(info.entropy_data)
        assert data[offset] == 0xFF and data[offset + 1] == 0xD0 + (
            (inner - 1) & 7)
        data[offset + 1] = 0xD0 + ((inner + 3) & 7)
        bad = parse_jpeg(restart_jpeg.replace(info.entropy_data, bytes(data)))
        want = sequential_outcome(bad)
        assert want[0] == "EntropyError" and "out of sequence" in want[1]
        with pytest.raises(EntropyError) as from_run:
            self._decode_runs(bad, runs[1:])
        assert str(from_run.value) == want[1]
        with pytest.raises(EntropyError) as from_split:
            self._segments(bad)
        assert str(from_split.value) == want[1]
        # Run 0 does not contain the marker and still decodes.
        self._decode_runs(bad, runs[:1])

