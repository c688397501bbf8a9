"""Execution modes: pixel identity, schedule semantics, pricing parity."""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from repro.errors import JpegUnsupportedError
from repro.core import DecodeMode, HeterogeneousDecoder, PreparedImage
from repro.core.chunking import candidate_chunk_rows
from repro.core.executors import ExecutionConfig, cpu_parallel_span, execute
from repro.data import synthetic_photo, synthetic_skewed
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.evaluation import platforms
from repro.kernels import GpuProgramOptions

ALL_MODES = tuple(DecodeMode)


@pytest.fixture(scope="module")
def prep422(jpeg_422):
    return PreparedImage.from_bytes(jpeg_422)


@pytest.fixture(scope="module")
def prep444(jpeg_444):
    return PreparedImage.from_bytes(jpeg_444)


class TestPixelIdentity:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_all_modes_match_reference_422(self, gtx560_decoder, prep422,
                                           ref_rgb_422, mode):
        result = gtx560_decoder.decode(prep422, mode)
        assert np.array_equal(result.rgb, ref_rgb_422)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_all_modes_match_reference_444(self, gtx560_decoder, prep444,
                                           ref_rgb_444, mode):
        result = gtx560_decoder.decode(prep444, mode)
        assert np.array_equal(result.rgb, ref_rgb_444)

    @pytest.mark.parametrize("mode", (DecodeMode.SPS, DecodeMode.PPS))
    def test_partitioned_modes_on_weak_gpu(self, gt430_decoder, prep422,
                                           ref_rgb_422, mode):
        result = gt430_decoder.decode(prep422, mode)
        assert np.array_equal(result.rgb, ref_rgb_422)

    def test_a_lone_part_is_the_frame_not_a_copy(self, gtx560_decoder,
                                                 prep422, monkeypatch):
        """A CPU-only mode renders the frame as one part, and that array
        is the result's pixels: no frame-sized copy on the way out."""
        from repro.core import executors

        rendered = []
        real = executors.cpu_parallel_span
        monkeypatch.setattr(
            executors, "cpu_parallel_span",
            lambda *a, **k: rendered.append(real(*a, **k)) or rendered[-1])
        result = gtx560_decoder.decode(prep422, DecodeMode.SIMD)
        assert len(rendered) == 1 and result.rgb is rendered[0]

    def test_skewed_image_pps_pixels_correct(self, gtx680_decoder):
        rgb = synthetic_skewed(128, 160, seed=5)
        data = encode_jpeg(rgb, EncoderSettings(quality=85, subsampling="4:2:2"))
        ref = decode_jpeg(data).rgb
        res = gtx680_decoder.decode(data, DecodeMode.PPS)
        assert np.array_equal(res.rgb, ref)


class TestScheduleSemantics:
    def test_huffman_always_first_and_sequential(self, gtx560_decoder, prep422):
        res = gtx560_decoder.decode(prep422, DecodeMode.PPS)
        huff = sorted((s for s in res.timeline.spans if s.kind == "huffman"),
                      key=lambda s: s.start)
        assert huff[0].start == 0.0
        for a, b in zip(huff, huff[1:]):
            assert b.start >= a.end - 1e-9  # strictly sequential on the CPU

    def test_gpu_events_in_order(self, gtx560_decoder, prep422):
        res = gtx560_decoder.decode(prep422, DecodeMode.PIPELINE)
        gpu = [s for s in res.timeline.spans if s.resource == "gpu"]
        for a, b in zip(gpu, gpu[1:]):
            assert b.start >= a.end - 1e-9

    def test_pipeline_overlaps_huffman_with_gpu(self, gtx560_decoder, prep422):
        # force chunks smaller than the image so the pipeline has >1 stage
        cfg = ExecutionConfig(platform=platforms.GTX560,
                              model=gtx560_decoder.model_for("4:2:2"),
                              chunk_mcu_rows=2)
        res = execute(cfg, prep422, DecodeMode.PIPELINE)
        gpu_spans = [s for s in res.timeline.spans if s.resource == "gpu"]
        huff_end = max(s.end for s in res.timeline.spans if s.kind == "huffman")
        assert min(s.start for s in gpu_spans) < huff_end

    def test_gpu_mode_starts_after_full_huffman(self, gtx560_decoder, prep422):
        res = gtx560_decoder.decode(prep422, DecodeMode.GPU)
        huff_end = max(s.end for s in res.timeline.spans if s.kind == "huffman")
        gpu_start = min(s.start for s in res.timeline.spans
                        if s.resource == "gpu")
        assert gpu_start >= huff_end

    def test_total_is_makespan(self, gtx560_decoder, prep422):
        for mode in ALL_MODES:
            res = gtx560_decoder.decode(prep422, mode)
            assert res.total_us == pytest.approx(res.timeline.makespan)

    def test_breakdown_sums_to_busy_time(self, gtx560_decoder, prep422):
        res = gtx560_decoder.decode(prep422, DecodeMode.SIMD)
        assert sum(res.breakdown.values()) == pytest.approx(
            sum(s.duration for s in res.timeline.spans))

    def test_partition_rows_cover_image(self, gt430_decoder, prep422):
        for mode in (DecodeMode.SPS, DecodeMode.PPS):
            res = gt430_decoder.decode(prep422, mode)
            assert res.partition is not None
            assert (res.partition.cpu_rows + res.partition.gpu_rows
                    == prep422.geometry.height)


class TestPricingParity:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_virtual_replay_times_match(self, gtx560_decoder, prep422, mode):
        """as_virtual() replays produce identical simulated times with no
        pixel math — the benchmark harness depends on this."""
        real = gtx560_decoder.decode(prep422, mode)
        virt = gtx560_decoder.decode(prep422.as_virtual(), mode)
        assert virt.rgb is None
        assert virt.total_us == pytest.approx(real.total_us, rel=1e-9)

    def test_virtual_image_runs_all_modes(self, gtx560_decoder):
        prep = PreparedImage.virtual(512, 384, "4:2:2", 0.2)
        for mode in ALL_MODES:
            res = gtx560_decoder.decode(prep, mode)
            assert res.total_us > 0 and res.rgb is None


#: The pinned matrix: per subsampling, 6 sizes x 3 densities priced
#: virtually plus two real (pixel-producing) images.
MATRIX_SIZES = ((64, 48), (200, 120), (512, 384), (1024, 768),
                (1600, 1200), (333, 517))
MATRIX_DENSITIES = (0.05, 0.2, 0.45)
TIMELINE_DIGESTS = Path(__file__).parent / "data" / "executor_timelines.json"


def _matrix_images(subsampling: str) -> list[PreparedImage]:
    settings = EncoderSettings(quality=85, subsampling=subsampling)
    return [PreparedImage.virtual(w, h, subsampling, d)
            for w, h in MATRIX_SIZES for d in MATRIX_DENSITIES] + [
        PreparedImage.from_bytes(encode_jpeg(rgb, settings))
        for rgb in (synthetic_photo(72, 104, seed=7, detail=0.7),
                    synthetic_skewed(96, 64, seed=5))]


def _result_record(res) -> tuple:
    """Everything a decode reports, floats spelled to the last bit."""
    def hx(v):
        return float.hex(v) if isinstance(v, float) else v
    return (
        hx(res.total_us),
        sorted((k, hx(v)) for k, v in res.breakdown.items()),
        res.partition and tuple(map(hx, astuple(res.partition))),
        [(s.resource, s.label, s.kind, hx(s.start), hx(s.end))
         for s in res.timeline.spans],
        res.rgb is not None and hashlib.sha1(res.rgb.tobytes()).hexdigest(),
    )


def timeline_digests(platform, run) -> dict[str, str]:
    """One sha1 per mode over the whole matrix x chunk {model's, 1, 3}
    x ``repartition`` on/off, decoded by ``run(config, prepared, mode)``.

    ``tests/data/executor_timelines.json`` holds what this returned at
    the commit before the five per-mode executors became ``execute``
    (there, *run* looked the mode up in that commit's dispatch table).
    """
    decoder = HeterogeneousDecoder.for_platform(platform)
    hashes = {mode: hashlib.sha1() for mode in DecodeMode}
    for subsampling in ("4:4:4", "4:2:2"):
        for prep in _matrix_images(subsampling):
            base = decoder._config(prep)
            for chunk in (None, 1, 3):
                for repartition in (True, False):
                    cfg = replace(base, chunk_mcu_rows=chunk,
                                  repartition=repartition)
                    for mode, h in hashes.items():
                        h.update(repr(_result_record(
                            run(cfg, prep, mode))).encode())
    return {mode.value: h.hexdigest() for mode, h in hashes.items()}


class TestOneExecutor:
    @pytest.mark.parametrize("platform", platforms.ALL_PLATFORMS,
                             ids=lambda p: p.name)
    def test_timelines_identical_to_the_per_mode_executors(self, platform):
        pinned = json.loads(TIMELINE_DIGESTS.read_text())[platform.name]
        assert timeline_digests(platform, execute) == pinned

    def test_modes_are_the_square_plus_cpu_only(self, gtx560_decoder):
        """The four GPU modes are the corners of partitioned x pipelined,
        the two CPU-only modes sit outside it (they differ in SIMD only),
        and ``execute`` takes every one of the six."""
        gpu_modes = [m for m in DecodeMode if m.uses_gpu]
        assert sorted((m.is_partitioned, m.is_pipelined) for m in gpu_modes) \
            == [(False, False), (False, True), (True, False), (True, True)]
        cpu_modes = [m for m in DecodeMode if not m.uses_gpu]
        assert cpu_modes == [DecodeMode.SEQUENTIAL, DecodeMode.SIMD]
        assert not any(m.is_partitioned or m.is_pipelined for m in cpu_modes)
        prep = PreparedImage.virtual(200, 120, "4:2:2", 0.2)
        cfg = gtx560_decoder._config(prep)
        for mode in DecodeMode:
            assert execute(cfg, prep, mode).mode is mode


def gpu_parallel_us(prep, options):
    """GPU-mode transfers + kernels on the GTX 560 under *options*."""
    b = execute(ExecutionConfig(platform=platforms.GTX560,
                                gpu_options=options),
                prep, DecodeMode.GPU).breakdown
    return b.get("kernel", 0) + b.get("write", 0) + b.get("read", 0)


class TestPerformanceShapes:
    def test_simd_faster_than_sequential(self, gtx560_decoder, prep422):
        seq = gtx560_decoder.decode(prep422, DecodeMode.SEQUENTIAL)
        simd = gtx560_decoder.decode(prep422, DecodeMode.SIMD)
        assert 1.5 < seq.total_us / simd.total_us < 3.0

    def test_pps_at_least_as_fast_as_pipeline(self, gtx560_decoder, prep422):
        pps = gtx560_decoder.decode(prep422, DecodeMode.PPS)
        pipe = gtx560_decoder.decode(prep422, DecodeMode.PIPELINE)
        assert pps.total_us <= pipe.total_us * 1.02

    def test_pipeline_not_slower_than_gpu(self, gtx560_decoder, prep422):
        pipe = gtx560_decoder.decode(prep422, DecodeMode.PIPELINE)
        gpu = gtx560_decoder.decode(prep422, DecodeMode.GPU)
        assert pipe.total_us <= gpu.total_us * 1.02

    def test_heterogeneous_beats_simd_on_weak_gpu(self, gt430_decoder):
        """The paper's headline claim for GT 430: SPS/PPS still beat SIMD
        even though GPU-only mode loses to it (at representative sizes —
        tiny images drown in fixed PCIe/launch overhead, Figure 10)."""
        prep = PreparedImage.virtual(1600, 1200, "4:2:2", 0.20)
        simd = gt430_decoder.decode(prep, DecodeMode.SIMD)
        gpu = gt430_decoder.decode(prep, DecodeMode.GPU)
        pps = gt430_decoder.decode(prep, DecodeMode.PPS)
        assert gpu.total_us > simd.total_us          # GPU-only loses
        assert pps.total_us < simd.total_us          # PPS still wins

    def test_repartition_helps_on_skewed_images(self, gtx560_decoder):
        """A6: on back- or front-loaded entropy, re-partitioning must
        not hurt."""
        model = gtx560_decoder.model_for("4:2:2")
        for dense_at_top in (False, True):
            rgb = synthetic_skewed(256, 256, seed=9, dense_fraction=0.5,
                                   dense_at_top=dense_at_top)
            data = encode_jpeg(rgb, EncoderSettings(quality=85,
                                                    subsampling="4:2:2"))
            prep = PreparedImage.from_bytes(data).as_virtual()
            on, off = (execute(ExecutionConfig(platform=platforms.GTX560,
                                               model=model, repartition=rep),
                               prep, DecodeMode.PPS) for rep in (True, False))
            assert on.total_us <= off.total_us * 1.05, dense_at_top

    @pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:2"])
    def test_merged_kernels_beat_separate(self, subsampling):
        """Section 4.4: merging IDCT+color (4:4:4) or upsample+color
        (4:2:2) shortens the GPU parallel phase at every size."""
        for side in (512, 1024, 2048):
            prep = PreparedImage.virtual(side, side, subsampling, 0.2)
            merged, separate = (
                gpu_parallel_us(prep, GpuProgramOptions(merge_kernels=m))
                for m in (True, False))
            assert merged < separate, side

    def test_tuned_kernels_beat_scalar_stores_and_divergence(self):
        """Figure 4's vec4 stores and Section 4.2's divergence-free
        upsampling: turning either off never shortens the GPU parallel
        phase (GTX 560, 4:2:2)."""
        for side in (512, 1024, 2048):
            prep = PreparedImage.virtual(side, side, "4:2:2", 0.2)
            tuned = gpu_parallel_us(prep, GpuProgramOptions())
            assert tuned <= gpu_parallel_us(
                prep, GpuProgramOptions(vectorized=False)), side
            assert tuned <= gpu_parallel_us(
                prep, GpuProgramOptions(divergence_free=False)), side

    def test_best_pipeline_chunk_is_shorter_than_the_frame(self):
        """Section 4.5: more chunks decode faster until the GPU starves,
        so the best chunk of the halving ladder (1536x1536 4:2:2,
        GTX 560) is not the full-height one."""
        prep = PreparedImage.virtual(1536, 1536, "4:2:2", 0.2)
        rows = prep.geometry.mcu_rows
        times = {c: execute(ExecutionConfig(platform=platforms.GTX560,
                                            chunk_mcu_rows=c),
                            prep, DecodeMode.PIPELINE).total_us
                 for c in candidate_chunk_rows(rows)}
        assert min(times, key=times.get) < rows


class TestCpuParallelSpan:
    def test_partial_420_rejected(self):
        rgb = synthetic_photo(64, 64, seed=3)
        data = encode_jpeg(rgb, EncoderSettings(subsampling="4:2:0"))
        prep = PreparedImage.from_bytes(data)
        with pytest.raises(JpegUnsupportedError):
            cpu_parallel_span(prep.geometry, prep.coefficients, prep.quants,
                              0, 1)

    def test_whole_420_supported(self):
        rgb = synthetic_photo(64, 64, seed=3)
        data = encode_jpeg(rgb, EncoderSettings(subsampling="4:2:0"))
        prep = PreparedImage.from_bytes(data)
        ref = decode_jpeg(data).rgb
        out = cpu_parallel_span(prep.geometry, prep.coefficients, prep.quants,
                                0, prep.geometry.mcu_rows)
        assert np.array_equal(out, ref)

    def test_spans_stitch_to_whole(self, prep422, ref_rgb_422):
        geo = prep422.geometry
        mid = geo.mcu_rows // 2
        top = cpu_parallel_span(geo, prep422.coefficients, prep422.quants,
                                0, mid)
        bottom = cpu_parallel_span(geo, prep422.coefficients, prep422.quants,
                                   mid, geo.mcu_rows)
        assert np.array_equal(np.vstack([top, bottom]), ref_rgb_422)
