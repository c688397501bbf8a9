"""Cross-image batch scheduler: pricing, LPT vs round-robin placement
of whole images, throughput feedback, and bit-identity of scheduled
decodes (ISSUE 3 tentpole + edge-case satellite).  Whether an image
fans out is not the scheduler's question (ISSUE 23): the decision
table is ``tests/test_speculative_service.py::TestOneFanoutDecision``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.decoder import fitted_model
from repro.data import synthetic_photo
from repro.errors import ModelError, ServiceError
from repro.evaluation import platforms
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import BatchDecoder, DecodeSession, ModelScheduler
from repro.service.scheduler import (
    ExecutorLane,
    ImagePricing,
    ThroughputFeedback,
    default_executors,
    schedule_lpt,
    schedule_roundrobin,
)


def encode(w, h, sub="4:2:2", dri=0, seed=7, detail=0.6, quality=85):
    rgb = synthetic_photo(h, w, seed=seed, detail=detail)
    return encode_jpeg(rgb, EncoderSettings(
        quality=quality, subsampling=sub, restart_interval=dri))


def fake_pricing(index, costs, w=64, h=64):
    return ImagePricing(
        index=index, width=w, height=h, density=0.2,
        subsampling="4:2:2", costs=dict(costs))


def lanes(*names):
    return tuple(ExecutorLane(name=n, kind="simd", platform=platforms.GTX560)
                 for n in names)


# ---------------------------------------------------------------------------
# Pure scheduling logic (no profiling, synthetic costs).
# ---------------------------------------------------------------------------

class TestLptPlacement:
    def test_single_image_goes_to_cheapest_lane(self):
        ex = lanes("a", "b")
        sched = schedule_lpt(
            [fake_pricing(0, {"a": 100.0, "b": 40.0})], ex)
        (a,) = sched.assignments
        assert a.executor.name == "b"
        assert a.predicted_us == 40.0
        assert sched.makespan_us == 40.0

    def test_identical_images_balance_across_ties(self):
        ex = lanes("a", "b")
        pricings = [fake_pricing(i, {"a": 50.0, "b": 50.0})
                    for i in range(4)]
        sched = schedule_lpt(pricings, ex)
        assert sched.loads == {"a": 100.0, "b": 100.0}
        # Deterministic: replanning the same batch gives the same result.
        again = schedule_lpt(pricings, ex)
        assert [a.executor.name for a in again.assignments] \
            == [a.executor.name for a in sched.assignments]

    def test_lpt_beats_roundrobin_on_skewed_costs(self):
        ex = lanes("a", "b")
        # Round-robin alternates blindly: both heavy images land on "a".
        pricings = [
            fake_pricing(0, {"a": 100.0, "b": 100.0}),
            fake_pricing(1, {"a": 10.0, "b": 10.0}),
            fake_pricing(2, {"a": 100.0, "b": 100.0}),
            fake_pricing(3, {"a": 10.0, "b": 10.0}),
        ]
        lpt = schedule_lpt(pricings, ex)
        rr = schedule_roundrobin(pricings, ex)
        assert lpt.makespan_us == 110.0
        assert rr.makespan_us == 200.0

    def test_ineligible_lane_never_assigned(self):
        ex = lanes("cpu", "gpu")
        pricings = [fake_pricing(i, {"cpu": 10.0, "gpu": math.inf})
                    for i in range(3)]
        sched = schedule_lpt(pricings, ex)
        assert all(a.executor.name == "cpu" for a in sched.assignments)
        assert sched.loads["gpu"] == 0.0

    def test_near_zero_throughput_lane_is_starved(self):
        # A lane whose model predicts ~zero throughput (astronomic cost
        # per image) must never win a placement over a healthy lane.
        ex = lanes("healthy", "stalled")
        pricings = [fake_pricing(i, {"healthy": 50.0, "stalled": 1e12})
                    for i in range(5)]
        sched = schedule_lpt(pricings, ex)
        assert sched.loads["stalled"] == 0.0
        assert sched.loads["healthy"] == 250.0

    def test_roundrobin_skips_ineligible_lanes(self):
        ex = lanes("a", "b")
        pricings = [
            fake_pricing(0, {"a": 10.0, "b": math.inf}),
            fake_pricing(1, {"a": 10.0, "b": 10.0}),
        ]
        rr = schedule_roundrobin(pricings, ex)
        assert rr.assignments[0].executor.name == "a"
        assert rr.assignments[1].executor.name == "b"

    def test_empty_batch(self):
        sched = schedule_lpt([], lanes("a"))
        assert sched.assignments == [] and sched.makespan_us == 0.0

    def test_feedback_scales_sort_and_dominance(self):
        # Lane "a" learned a 100x slowdown; the image whose unscaled
        # best (5) is the batch's smallest must be treated as its
        # biggest job (scaled best 500) and head the LPT order.
        ex = lanes("a", "b")
        fb = ThroughputFeedback()
        fb.observe("a", 10.0, 1000.0)  # first observation: scale 100
        pricings = [
            fake_pricing(0, {"a": 5.0, "b": 500.0}),
            fake_pricing(1, {"a": 6.0, "b": 300.0}),
            fake_pricing(2, {"a": 6.0, "b": 300.0}),
        ]
        sched = schedule_lpt(pricings, ex, feedback=fb)
        # Placed first it takes "a" (500 either way, earlier lane) and
        # the other two share "b"; placed last, as the unscaled order
        # would have it, it lands on "b" behind one of them (800).
        assert sched.assignments[0].executor.name == "a"
        assert sched.assignments[0].predicted_us == pytest.approx(500.0)
        assert sched.makespan_us == pytest.approx(600.0)

    def test_lane_subset_leaves_unpriceable_image_unassigned(self):
        # Pricings priced against lanes not in the executor set must not
        # crash the greedy; the image comes back unassigned.
        (only,) = lanes("other")
        sched = schedule_lpt(
            [fake_pricing(0, {"a": 10.0, "b": 20.0})], (only,))
        (a,) = sched.assignments
        assert a.executor is None


class TestFeedback:
    def test_ewma_converges_toward_observed_ratio(self, monkeypatch):
        fb = ThroughputFeedback()
        assert fb.scale("lane") == 1.0
        fb.observe("lane", 100.0, 200.0)
        assert fb.scale("lane") == pytest.approx(2.0)
        fb.observe("lane", 100.0, 100.0)
        assert fb.scale("lane") == pytest.approx(0.7 * 2.0 + 0.3 * 1.0)
        monkeypatch.setattr("repro.service.scheduler.FEEDBACK_ALPHA", 1.0)
        fb.observe("lane", 100.0, 400.0)
        assert fb.scale("lane") == pytest.approx(4.0)
        assert fb.observations == 3

    def test_degenerate_observations_ignored(self):
        fb = ThroughputFeedback()
        fb.observe("lane", 0.0, 50.0)
        fb.observe("lane", 50.0, 0.0)
        fb.observe("lane", math.inf, 50.0)
        assert fb.scale("lane") == 1.0 and fb.observations == 0

    def test_feedback_redirects_schedule(self):
        # After observing that lane "a" runs 100x slower than predicted,
        # the scheduler routes the next batch to "b".
        ex = lanes("a", "b")
        fb = ThroughputFeedback()
        pricings = [fake_pricing(i, {"a": 10.0, "b": 15.0})
                    for i in range(4)]
        before = schedule_lpt(pricings, ex, feedback=fb)
        assert any(a.executor.name == "a" for a in before.assignments)
        fb.observe("a", 10.0, 1000.0)
        after = schedule_lpt(pricings, ex, feedback=fb)
        assert all(a.executor.name == "b" for a in after.assignments)


# ---------------------------------------------------------------------------
# Pricing through the fitted models.
# ---------------------------------------------------------------------------

class TestPricing:
    def test_perfmodel_price_kinds(self):
        model = fitted_model(platforms.GTX560, "4:2:2")
        w, h, d = 640, 480, 0.2
        assert model.price("simd", w, h, d) == pytest.approx(
            model.total_cpu(w, h, d, simd=True))
        assert model.price("seq", w, h, d) == pytest.approx(
            model.total_cpu(w, h, d, simd=False))
        assert model.price("gpu", w, h, d) == pytest.approx(
            model.total_gpu(w, h, d) + model.t_dispatch(w, h))
        with pytest.raises(ModelError):
            model.price("fpga", w, h, d)

    def test_mixed_batch_makespan_lpt_vs_roundrobin(self):
        """The cross-image claim on a real mixed batch, priced from its
        headers on the GTX 560's SIMD + GPU lanes: two large frames,
        a mid tier and a tail of small images (4:2:0 ones fit only the
        CPU lane).  LPT's makespan is pinned and round-robin's is at
        least 1.10x of it."""
        batch = ((21, 1024, 768, "4:2:2", 16), (22, 768, 576, "4:4:4", 0),
                 (23, 512, 384, "4:2:2", 0), (24, 448, 336, "4:4:4", 8),
                 (25, 320, 240, "4:2:0", 0), (26, 256, 192, "4:2:2", 0),
                 (27, 192, 144, "4:2:0", 0), (28, 160, 120, "4:2:2", 0),
                 (29, 160, 120, "4:4:4", 0), (30, 128, 128, "4:2:2", 8))
        blobs = [encode(w, h, sub, dri, seed=seed)
                 for seed, w, h, sub, dri in batch]
        scheduler = ModelScheduler(policy="model", platform=platforms.GTX560)
        pricings = scheduler.price(blobs)
        lpt = schedule_lpt(pricings, scheduler.executors)
        rr = schedule_roundrobin(pricings, scheduler.executors)
        assert lpt.makespan_us == pytest.approx(7235, rel=1e-3)
        assert rr.makespan_us == pytest.approx(9476, rel=1e-3)
        assert rr.makespan_us / lpt.makespan_us >= 1.10

    def test_price_batch_matches_scalar(self):
        model = fitted_model(platforms.GTX560, "4:2:2")
        images = [(640, 480, 0.2), (128, 128, 0.35)]
        assert model.price_batch("gpu", images) == [
            model.price("gpu", w, h, d) for (w, h, d) in images]

    def test_gpu_lane_ineligible_for_420(self):
        sched = ModelScheduler(platform=platforms.GTX560)
        blob = encode(96, 96, sub="4:2:0")
        (p,) = sched.price([blob])
        gpu = next(l for l in sched.executors if l.kind == "gpu")
        simd = next(l for l in sched.executors if l.kind == "simd")
        assert math.isinf(p.costs[gpu.name])
        assert math.isfinite(p.costs[simd.name])

    def test_progressive_scan_surcharge(self):
        model = fitted_model(platforms.GTX560, "4:2:2")
        w, h, d = 640, 480, 0.2
        base = model.price("simd", w, h, d)
        for scans in (6, 14, 18):
            assert model.price("simd", w, h, d, scans=scans) == \
                pytest.approx(base + (scans - 1) * model.scan_pass_factor
                              * model.t_huff(w, h, d))
        prices = [model.price("simd", w, h, d, scans=scans)
                  for scans in (1, 6, 14, 18)]
        assert prices == sorted(set(prices)) and prices[0] == base

    def test_progressive_priced_with_scans_not_splittable(self):
        rgb = synthetic_photo(96, 96, seed=7, detail=0.6)
        prog = encode_jpeg(rgb, EncoderSettings(
            quality=85, subsampling="4:2:2", progressive=True))
        sched = ModelScheduler(platform=platforms.GTX560)
        p_base, p_prog = sched.price([encode(96, 96), prog])
        # Whole-image only: no lane models it, nothing fans it out (so
        # the per-scan surcharge above never reaches an ImagePricing).
        assert all(math.isinf(c) for c in p_prog.costs.values())
        simd = next(l for l in sched.executors if l.kind == "simd")
        assert p_prog.costs[simd.name] > p_base.costs[simd.name]

    def test_default_executors_shape(self):
        ex = default_executors(platforms.GTX680)
        assert [l.kind for l in ex] == ["simd", "gpu"]
        assert all(l.platform is platforms.GTX680 for l in ex)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ServiceError):
            ModelScheduler(policy="fifo")
        with pytest.raises(ServiceError):
            ModelScheduler(executors=())


# ---------------------------------------------------------------------------
# The decoder's speculative policy under a scheduler.
# ---------------------------------------------------------------------------

class TestSpeculativeSplittability:
    def test_speculative_off_restores_dri_gate(self):
        # The policy is the decoder's, not the scheduler's: "off" keeps
        # a lone marker-free frame whole (placed on a lane) while a lone
        # DRI frame still fans out by restart segments.
        free, dri = encode(640, 480, seed=6), encode(640, 480, dri=16, seed=6)
        with BatchDecoder(backend="thread", workers=2, scheduler="model",
                          speculative="off") as dec:
            (whole,) = dec.decode_batch([free]).results
            (runs,) = dec.decode_batch([dri]).results
        assert whole.ok and whole.segments == 1
        assert runs.ok and runs.segments > 1 and not runs.speculative
        assert np.array_equal(whole.rgb, decode_jpeg(free).rgb)
        assert np.array_equal(runs.rgb, decode_jpeg(dri).rgb)


# ---------------------------------------------------------------------------
# End-to-end scheduled decodes.
# ---------------------------------------------------------------------------

class TestScheduledDecode:
    def _mixed_blobs(self):
        return [
            encode(320, 240, "4:2:2", seed=1),
            encode(96, 96, "4:2:0", seed=2),
            encode(160, 160, "4:4:4", seed=3),
            encode(128, 96, "4:2:2", dri=8, seed=4),
        ]

    @pytest.mark.parametrize("policy", ["model", "roundrobin"])
    def test_bit_identity_vs_sequential(self, policy):
        blobs = self._mixed_blobs()
        with BatchDecoder(backend="thread", workers=2,
                          scheduler=policy) as dec:
            batch = dec.decode_batch(blobs)
        assert batch.schedule is not None
        assert batch.schedule.policy == policy
        for i, res in enumerate(batch):
            assert res.ok, res.error
            assert np.array_equal(res.rgb, decode_jpeg(blobs[i]).rgb)

    def test_single_image_batch(self):
        blob = encode(160, 120, seed=5)
        with BatchDecoder(backend="serial", scheduler="model") as dec:
            batch = dec.decode_batch([blob])
        (res,) = batch.results
        assert res.ok
        assert np.array_equal(res.rgb, decode_jpeg(blob).rgb)
        assert len(batch.schedule.assignments) == 1
        assert batch.schedule.assignments[0].executor is not None

    def test_batch_larger_than_worker_count(self):
        blobs = [encode(96 + 16 * i, 96, seed=i) for i in range(6)]
        with BatchDecoder(backend="thread", workers=2,
                          scheduler="model") as dec:
            batch = dec.decode_batch(blobs)
        assert len(batch) == 6 and batch.ok
        assert [r.request_id for r in batch] == list(range(6))
        for i, res in enumerate(batch):
            assert np.array_equal(res.rgb, decode_jpeg(blobs[i]).rgb)

    def test_lane_placed_images_report_wall_time(self):
        # A scheduled local decoder has one lane, and what it places
        # decodes for real: it is observed by measured busy time.
        blobs = self._mixed_blobs()
        with BatchDecoder(backend="serial", scheduler="model") as dec:
            batch = dec.decode_batch(blobs)
        assert [l.name for l in dec.scheduler.executors] == ["local"]
        placed = [res for a, res in zip(batch.schedule.assignments,
                                        batch.results)
                  if a.executor is not None]
        assert len(placed) == len(blobs)
        assert all(res.wall_us is not None and res.wall_us > 0
                   for res in placed)

    def test_dominant_dri_image_runs_split(self):
        # One large DRI image plus one tiny image on a pool the two
        # cannot fill: the large one fans out by restart segments
        # (reference path) before placement, bit-exactly; the schedule
        # never places it and keeps the group's indices for the rest.
        blobs = [encode(640, 480, dri=16, seed=6), encode(64, 64, seed=7)]
        with BatchDecoder(backend="thread", workers=3,
                          scheduler="model") as dec:
            batch = dec.decode_batch(blobs)
        big, tiny = batch.results
        assert big.ok and big.segments > 1 and not big.speculative
        assert np.array_equal(big.rgb, decode_jpeg(blobs[0]).rgb)
        assert tiny.ok and tiny.segments == 1
        assert [a.index for a in batch.schedule.assignments] == [0, 1]
        assert batch.schedule.assignments[0].executor is None
        assert batch.schedule.assignments[1].executor is not None
        assert len(batch.schedule.pricings) == 1

    def test_corrupt_image_fails_alone(self):
        blobs = [encode(128, 96, seed=8), b"\xff\xd8garbage"]
        with BatchDecoder(backend="serial", scheduler="model") as dec:
            batch = dec.decode_batch(blobs)
        assert batch.results[0].ok
        assert not batch.results[1].ok
        assert batch.results[1].error_type is not None


class TestServiceFeedbackLoop:
    def test_session_feeds_observations_and_stats(self):
        blobs = [encode(160, 120, seed=i) for i in range(3)]
        sched = ModelScheduler(policy="model", platform=platforms.GTX560)
        with DecodeSession(backend="serial", scheduler=sched) as svc:
            handles = [svc.submit(b) for b in blobs]
            assert all(h.result(timeout=30).ok for h in handles)
        assert sched.feedback.observations == 3
        assert sum(u.images for u in svc.stats.per_executor.values()) == 3
        for usage in svc.stats.per_executor.values():
            assert usage.predicted_us > 0 and usage.observed_us > 0
            assert usage.bias > 0
        assert "scheduled placements" in svc.stats.format()

    def test_fanned_out_image_is_counted_and_teaches_nothing(self):
        # The group's index space survives the scheduler seeing a
        # subset: the whole image's observation lands on its own lane,
        # the fanned-out one is counted by what it did, not by a mark.
        # The group is one decode_batch; its fold is the session's.
        blobs = [encode(640, 480, dri=16, seed=6), encode(160, 120, seed=1)]
        sched = ModelScheduler(policy="model", platform=platforms.GTX560)
        with BatchDecoder(backend="thread", workers=3,
                          scheduler=sched) as dec:
            result = dec.decode_batch(blobs)
        assert result.results[0].segments > 1
        sched.observe(result.schedule, result.results)
        dec.stats.record_schedule(result.schedule, result.results)
        placed = result.schedule.assignments[1]
        assert sched.feedback.observations == 1
        assert sched.feedback.scale(placed.executor.name) != 1.0
        assert {n: u.images for n, u in dec.stats.per_executor.items()} \
            == {placed.executor.name: 1}
        assert dec.stats.as_dict()["images_split"] == 1
        assert "fanned out: 1" in dec.stats.format()

    def test_unscheduled_sessions_count_fan_out_too(self):
        with DecodeSession(backend="thread", workers=2) as svc:
            svc.submit(encode(640, 480, dri=16, seed=6)).result(timeout=30)
            assert svc.stats_snapshot()["images_split"] == 1
        assert "fanned out: 1" in svc.stats.format()

    def test_scales_adapt_across_batches(self):
        blobs = [encode(160, 120, seed=i) for i in range(3)]
        sched = ModelScheduler(policy="model", platform=platforms.GTX560)
        with DecodeSession(backend="serial", scheduler=sched) as svc:
            for _ in range(2):
                handles = [svc.submit(b) for b in blobs]
                assert all(h.result(timeout=30).ok for h in handles)
                assert sched.feedback.scales()  # at least one lane observed
        assert sched.feedback.observations == 6

    def test_roundrobin_rotation_persists_across_batches(self):
        # A stream of single-image batches must still cycle the lanes.
        blob = encode(128, 96, seed=10)
        sched = ModelScheduler(policy="roundrobin",
                               platform=platforms.GTX560)
        with BatchDecoder(backend="serial", scheduler=sched) as dec:
            names = []
            for _ in range(4):
                (a,) = dec.decode_batch([blob]).schedule.assignments
                names.append(a.executor.name)
        assert len(set(names)) == 2  # both lanes saw traffic
