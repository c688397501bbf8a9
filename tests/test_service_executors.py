"""Lane-bound executor pools: layout parsing, registry construction,
per-lane dispatch, and the real wall-clock feedback loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.evaluation import platforms
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import (
    BatchDecoder,
    DecodeSession,
    ExecutorRegistry,
    ImageRequest,
    ModelScheduler,
    TraceContext,
    default_executors,
    parse_lane_pools,
)


@pytest.fixture(scope="module")
def corpus(small_rgb, tiny_rgb):
    """Two schedulable images (4:2:2 + 4:4:4, both GPU-eligible)."""
    return [
        encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:2:2")),
        encode_jpeg(tiny_rgb, EncoderSettings(
            quality=85, subsampling="4:4:4")),
    ]


@pytest.fixture(scope="module")
def sequential_rgbs(corpus):
    """Oracle decodes of the corpus."""
    return [decode_jpeg(b).rgb for b in corpus]


class TestParseLanePools:
    def test_empty_and_auto_mean_default_layout(self):
        assert parse_lane_pools("") == {}
        assert parse_lane_pools("auto") == {}

    def test_workers_only(self):
        assert parse_lane_pools("gpu=1,simd=3") == {
            "gpu": (None, 1), "simd": (None, 3)}

    def test_backend_and_workers(self):
        assert parse_lane_pools("gpu=process:1,cpu=thread:2") == {
            "gpu": ("process", 1), "cpu": ("thread", 2)}

    @pytest.mark.parametrize("bad", [
        "turbo=1",              # unknown kind
        "gpu",                  # missing =workers
        "gpu=fast:1",           # unknown backend
        "gpu=zero",             # non-integer workers
        "gpu=0",                # non-positive workers
        "gpu=1,gpu=2",          # duplicate kind
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ServiceError):
            parse_lane_pools(bad)


class TestExecutorRegistry:
    def test_default_layout_binds_gpu_alone(self):
        lanes = default_executors(platforms.GTX560)
        with ExecutorRegistry(lanes, backend="thread") as reg:
            gpu = next(ln for ln in lanes if ln.kind == "gpu")
            simd = next(ln for ln in lanes if ln.kind == "simd")
            assert reg.pool_for(gpu.name) is not reg.pool_for(simd.name)
            assert reg.pool_for(gpu.name).workers == 1
            assert reg.pool_for("unknown-lane") is None
            desc = reg.describe()
            assert desc[gpu.name]["pool"] == gpu.name
            assert desc[simd.name]["pool"] == "cpu"
            assert reg.total_workers == sum(
                p.workers for p in reg.pools.values())
            assert reg.backends == {"thread"}

    def test_layout_spec_sizes_pools(self):
        lanes = default_executors(platforms.GTX560)
        with ExecutorRegistry(lanes, layout="gpu=thread:1,cpu=thread:3") as reg:
            assert reg.pools["cpu"].workers == 3
            assert reg.pools["cpu"].backend == "thread"

    def test_cpu_lanes_share_one_pool(self):
        lanes = (*default_executors(platforms.GTX560),
                 *default_executors(platforms.GTX680))
        with ExecutorRegistry(lanes, backend="thread") as reg:
            cpu_lanes = [ln for ln in lanes if ln.kind != "gpu"]
            pools = {reg.pool_for(ln.name) for ln in cpu_lanes}
            assert len(pools) == 1
            gpu_lanes = [ln for ln in lanes if ln.kind == "gpu"]
            assert len({id(reg.pool_for(ln.name))
                        for ln in gpu_lanes}) == len(gpu_lanes)

    def test_empty_lane_set_rejected(self):
        with pytest.raises(ServiceError):
            ExecutorRegistry(())

    def test_conflicting_cpu_kinds_rejected(self):
        """Naming two CPU kinds would silently drop one (all CPU lanes
        share a single pool) — the registry must refuse instead."""
        lanes = default_executors(platforms.GTX560)
        with pytest.raises(ServiceError):
            ExecutorRegistry(lanes, layout="cpu=2,simd=8")


class TestLaneBoundDispatch:
    def test_lane_pools_require_scheduler(self):
        with pytest.raises(ServiceError):
            BatchDecoder(backend="serial", lane_pools="auto")

    def test_placed_images_run_on_their_lane_pool(self, corpus,
                                                  sequential_rgbs):
        """Thread-named pools prove each placement executed on the pool
        bound to its lane: a traced request's ``decode`` span names the
        worker that ran it (worker names carry the pool prefix)."""
        scheduler = ModelScheduler(policy="model")
        requests = [ImageRequest(data=b, trace=TraceContext.new_root())
                    for b in corpus]
        with ExecutorRegistry(scheduler.executors,
                              layout="gpu=thread:1,cpu=thread:2") as registry, \
                BatchDecoder(backend="serial", scheduler=scheduler,
                             lane_pools=registry) as dec:
            batch = dec.decode_batch(requests)
        assert batch.ok
        assert batch.schedule.wall_time
        by_index = {a.index: a for a in batch.schedule.assignments}
        pool_of_lane = {name: entry["pool"]
                        for name, entry in batch.lane_pools.items()}
        for i, result in enumerate(batch.results):
            assert np.array_equal(result.rgb, sequential_rgbs[i])
            a = by_index[i]
            if a.executor is None:
                continue
            expected_prefix = f"{pool_of_lane[a.executor.name]}-worker"
            (decode,) = [s for s in result.trace_spans if s.name == "decode"]
            assert decode.resource.startswith(expected_prefix), (
                f"image {i} on lane {a.executor.name} ran on "
                f"{decode.resource}")

    def test_wall_clock_feedback_reaches_scheduler(self, corpus):
        """Through the service loop, lane-bound batches feed *wall*
        observations: the EWMA scale becomes observed-wall/predicted-sim,
        which is far from the 1.0 a fresh feedback starts at."""
        scheduler = ModelScheduler(policy="model")
        with ExecutorRegistry(scheduler.executors,
                              layout="gpu=thread:1,cpu=thread:1") as registry, \
                DecodeSession(max_batch=4, backend="serial",
                              scheduler=scheduler, lane_pools=registry,
                              pump=False) as svc:
            for blob in corpus:
                svc.submit(blob)
            results = []
            while svc.pending:
                results.append(svc.run_once())
            assert all(b.ok for b in results)
            assert svc.stats.per_executor, "lane usage must be recorded"
            for usage in svc.stats.per_executor.values():
                assert usage.busy_s > 0
                assert usage.pool_workers >= 1
        assert scheduler.feedback.observations > 0
        scales = scheduler.feedback.scales()
        assert scales and all(s > 0 for s in scales.values())

    def test_wall_us_populated_only_with_results(self, corpus):
        """Every decoded result carries its real worker busy time."""
        with BatchDecoder(backend="thread", workers=2) as dec:
            batch = dec.decode_batch(corpus)
        for result in batch:
            assert result.wall_us is not None and result.wall_us > 0

    def test_default_layout_via_string(self, corpus, sequential_rgbs):
        """`lane_pools="auto"` builds the default registry in place."""
        with BatchDecoder(backend="serial", scheduler="model",
                          lane_pools="auto") as dec:
            assert dec.registry is not None
            batch = dec.decode_batch(corpus)
        assert batch.ok
        for result, want in zip(batch, sequential_rgbs):
            assert np.array_equal(result.rgb, want)
