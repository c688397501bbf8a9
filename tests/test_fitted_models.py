"""The shipped fitted models: the table matches a fresh fit, the lookup
serves it only for what it was fitted for, and no process fits a
built-in platform."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.core.decoder
import repro.core.profiling
from repro.core import HeterogeneousDecoder, clear_model_cache
from repro.core.perfmodel import FITTED_MODELS, fitted_for, fitted_model
from repro.core.perfmodel import PerformanceModel
from repro.core.profiling import profile_platform
from repro.evaluation import platforms
from repro.jpeg import decode_jpeg
from repro.kernels.program import KERNEL_SUBSAMPLINGS, GpuProgramOptions
from repro.service import DecodeSession

CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "corpus"

REFIT = "the shipped table is stale: rerun `python tools/fit_models.py`"

BUILT_IN = [(p, sub) for p in platforms.ALL_PLATFORMS
            for sub in KERNEL_SUBSAMPLINGS]

#: Fields a refit must reproduce exactly (the AIC picks and the sweeps).
EXACT = ("platform_name", "subsampling", "chunk_mcu_rows",
         "workgroup_blocks", "scan_pass_factor")
FITS = ("huff_rate_fit", "cpu_simd_fit", "cpu_seq_fit", "gpu_fit",
        "disp_fit")


def _shipped(platform, subsampling) -> PerformanceModel:
    key = fitted_for(platform, subsampling, GpuProgramOptions())
    entries = [e["model"] for e in json.loads(FITTED_MODELS.read_text())
               if e["fitted_for"] == key]
    assert len(entries) == 1, f"{platform.name} {subsampling}: {REFIT}"
    return PerformanceModel.from_dict(entries[0])


class TestShippedTable:
    def test_one_entry_per_built_in_platform_and_subsampling(self):
        entries = json.loads(FITTED_MODELS.read_text())
        assert len(entries) == len(BUILT_IN), REFIT

    @pytest.mark.parametrize("platform, subsampling", BUILT_IN,
                             ids=[f"{p.name}-{s}" for p, s in BUILT_IN])
    def test_table_matches_a_fresh_fit(self, platform, subsampling):
        shipped = _shipped(platform, subsampling)
        fresh = profile_platform(platform, subsampling)
        for name in EXACT:
            assert getattr(shipped, name) == getattr(fresh, name), \
                f"{name}: {REFIT}"
        for name in FITS:
            a, b = getattr(shipped, name), getattr(fresh, name)
            assert (a.degree, a.exponents) == (b.degree, b.exponents), \
                f"{name}: {REFIT}"
        # lstsq may differ in the last ulp across BLAS builds: compare
        # predictions, not coefficients.
        for w in (64, 640, 1920):
            for h in (48, 480, 1080):
                for kind in ("simd", "seq", "gpu"):
                    for d in (0.05, 0.2, 0.5):
                        assert shipped.price(kind, w, h, d) == pytest.approx(
                            fresh.price(kind, w, h, d), rel=1e-9), REFIT


class TestCacheKey:
    def test_gpu_options_get_their_own_model(self):
        clear_model_cache()
        HeterogeneousDecoder.for_platform(platforms.GTX560).model_for("4:2:2")
        options = GpuProgramOptions(merge_kernels=False, vectorized=False)
        model = HeterogeneousDecoder.for_platform(
            platforms.GTX560, gpu_options=options).model_for("4:2:2")
        own = profile_platform(platforms.GTX560, "4:2:2",
                               gpu_options=options)
        assert model.p_gpu(1024, 1024) == own.p_gpu(1024, 1024)
        assert model.chunk_mcu_rows == own.chunk_mcu_rows == 16

    def test_custom_platform_with_a_built_in_name_is_profiled(self):
        clear_model_cache()
        fitted_model(platforms.GTX560, "4:2:2")
        custom = replace(platforms.GTX560, gpu=platforms.GT430.gpu)
        model = fitted_model(custom, "4:2:2")
        assert model.p_gpu(1024, 1024) \
            == profile_platform(custom, "4:2:2").p_gpu(1024, 1024)
        assert model.p_gpu(1024, 1024) \
            != fitted_model(platforms.GTX560, "4:2:2").p_gpu(1024, 1024)


class TestNoFitAtRuntime:
    @pytest.fixture()
    def no_profiling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a built-in platform was profiled")

        # fitted_model imports the profiler on a miss, from its module.
        monkeypatch.setattr(repro.core.profiling, "profile_platform", refuse)
        clear_model_cache()
        yield
        clear_model_cache()

    def test_scheduled_session_decodes_every_subsampling(self, no_profiling):
        # small00 is 4:2:0, small04 4:2:2, small08 4:4:4
        blobs = [(CORPUS / f"small{i:02d}.jpg").read_bytes()
                 for i in (0, 4, 8)]
        with DecodeSession(workers=2, backend="thread",
                           scheduler="model") as sess:
            handles = [sess.submit(b) for b in blobs]
            results = [h.result(timeout=60) for h in handles]
        for res, blob in zip(results, blobs):
            assert res.ok, f"{res.error_type}: {res.error}"
            assert np.array_equal(res.rgb, decode_jpeg(blob).rgb)

    def test_gpu_decode_of_a_444_file(self, no_profiling):
        blob = (CORPUS / "small08.jpg").read_bytes()
        result = HeterogeneousDecoder.for_platform(
            platforms.GTX560).decode(blob, "gpu")
        assert np.array_equal(result.rgb, decode_jpeg(blob).rgb)
