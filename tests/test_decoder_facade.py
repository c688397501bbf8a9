"""HeterogeneousDecoder facade: model caching, auto mode, guard rails."""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.errors import JpegUnsupportedError
from repro.core import (
    DecodeMode,
    HeterogeneousDecoder,
    PreparedImage,
    clear_model_cache,
)
from repro.data import synthetic_photo
from repro.jpeg import (DecodeOptions, EncoderSettings, decode_jpeg,
                        decode_jpeg_rowwise, encode_jpeg)
from repro.evaluation import platforms


class TestFacade:
    def test_decode_from_bytes(self, gtx560_decoder, jpeg_422, ref_rgb_422):
        res = gtx560_decoder.decode(jpeg_422, DecodeMode.SIMD)
        assert np.array_equal(res.rgb, ref_rgb_422)
        assert res.info is not None

    def test_model_cached_across_decoders(self, jpeg_422):
        d1 = HeterogeneousDecoder.for_platform(platforms.GTX560)
        m1 = d1.model_for("4:2:2")
        d2 = HeterogeneousDecoder.for_platform(platforms.GTX560)
        assert d2.model_for("4:2:2") is m1

    def test_auto_picks_reasonable_mode(self, gtx560_decoder, jpeg_422):
        prep = gtx560_decoder.prepare(jpeg_422)
        auto = gtx560_decoder.decode(prep, "auto")
        # auto must not be slower than the worst explicit mode
        worst = max(
            gtx560_decoder.decode(prep, m).total_us for m in DecodeMode)
        assert auto.total_us <= worst

    def test_auto_on_weak_gpu_avoids_pure_gpu(self, gt430_decoder):
        prep = PreparedImage.virtual(1600, 1200, "4:2:2", 0.2)
        mode = gt430_decoder.choose_mode(prep)
        assert mode != DecodeMode.GPU

    def test_420_falls_back_to_cpu_paths(self, gtx560_decoder):
        rgb = synthetic_photo(48, 64, seed=8)
        data = encode_jpeg(rgb, EncoderSettings(subsampling="4:2:0"))
        prep = gtx560_decoder.prepare(data)
        assert gtx560_decoder.choose_mode(prep) == DecodeMode.SIMD
        res = gtx560_decoder.decode(prep, "auto")
        assert np.array_equal(res.rgb, decode_jpeg(data).rgb)
        with pytest.raises(JpegUnsupportedError):
            gtx560_decoder.decode(prep, DecodeMode.PPS)

    def test_decode_all_modes_shares_prepare(self, gtx560_decoder, jpeg_422,
                                             ref_rgb_422):
        results = gtx560_decoder.decode_all_modes(jpeg_422)
        assert set(results) == set(DecodeMode)
        for res in results.values():
            assert np.array_equal(res.rgb, ref_rgb_422)

    def test_workgroup_from_model_applied(self, gtx560_decoder, jpeg_422):
        prep = gtx560_decoder.prepare(jpeg_422)
        cfg = gtx560_decoder._config(prep)
        assert (cfg.gpu_options.workgroup_blocks
                == gtx560_decoder.model_for("4:2:2").workgroup_blocks)

    def test_clear_model_cache(self):
        d = HeterogeneousDecoder.for_platform(platforms.GTX560)
        m1 = d.model_for("4:2:2")
        clear_model_cache()
        d2 = HeterogeneousDecoder.for_platform(platforms.GTX560)
        m2 = d2.model_for("4:2:2")
        assert m2 is not m1
        # refit should be equivalent
        assert m2.p_cpu(512, 512) == pytest.approx(m1.p_cpu(512, 512))


class TestRepr:
    def test_platform_str(self):
        s = str(platforms.GTX560)
        assert "GTX 560" in s and "i7-2600K" in s

    def test_table1_rows(self):
        rows = platforms.table1_rows()
        assert len(rows) == 3
        assert rows[2]["GPU model"] == "NVIDIA GTX 680"
        assert rows[0]["No. of GPU cores"] == "96"


STAGES = {"parse", "entropy", "idct", "upsample", "color"}


class TestStageSpans:
    """``stage_hook`` must account for a whole decode on both the
    whole-image and the row-wise path: the same five stages, in order,
    nothing overlapping, and together (nearly) the call's wall time."""

    @pytest.fixture(scope="class")
    def frame(self):
        rgb = synthetic_photo(256, 384, seed=5)
        return encode_jpeg(rgb, EncoderSettings(subsampling="4:2:2"))

    @staticmethod
    def traced(decode, data):
        spans = []
        t0 = perf_counter()
        out = decode(data, DecodeOptions(
            stage_hook=lambda stage, a, b: spans.append((stage, a, b))))
        return out.rgb, spans, t0, perf_counter()

    @pytest.mark.parametrize("decode", [
        decode_jpeg,
        lambda data, options: decode_jpeg_rowwise(data, options,
                                                  rows_per_step=4),
    ], ids=["whole", "rowwise"])
    def test_five_stages_close(self, frame, decode):
        closures = []
        # best of three: a host hiccup between two spans is not a gap
        for _ in range(3):
            rgb, spans, t0, t1 = self.traced(decode, frame)
            assert {stage for stage, _, _ in spans} == STAGES
            assert spans[0][0] == "parse"
            bounds = [t for _, a, b in spans for t in (a, b)]
            assert bounds == sorted(bounds) and t0 <= bounds[0]
            assert bounds[-1] <= t1
            closures.append(sum(b - a for _, a, b in spans) / (t1 - t0))
        assert 0.95 <= max(closures) <= 1.0
        assert np.array_equal(rgb, decode_jpeg(frame).rgb)

    def test_rowwise_emits_per_step(self, frame):
        _, spans, _, _ = self.traced(
            lambda data, options: decode_jpeg_rowwise(data, options,
                                                      rows_per_step=4), frame)
        steps = 256 // 8 // 4
        stages = [stage for stage, _, _ in spans]
        assert stages.count("parse") == 1
        for stage in STAGES - {"parse"}:
            assert stages.count(stage) == steps
