"""Cross-image batch scheduler: pricing, LPT placement of whole images
from the work each lane holds (against a cost-blind cyclic baseline),
throughput feedback, and bit-identity of scheduled decodes.  Whether an image
fans out is not the scheduler's question (ISSUE 23): the decision
table is ``tests/test_speculative_service.py::TestOneFanoutDecision``."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.core.decoder import fitted_model
from repro.data import synthetic_photo
from repro.errors import ModelError, ServiceClosedError, ServiceError
from repro.evaluation import platforms
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import BatchDecoder, DecodeSession, ModelScheduler
from repro.service.scheduler import (
    ExecutorLane,
    ImagePricing,
    ThroughputFeedback,
    schedule_lpt,
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


def cyclic_makespan(pricings, executors):
    """The cost-blind baseline LPT is measured against: each image on
    the next lane in turn that can take it."""
    loads, turn = [0.0] * len(executors), 0
    for pricing in pricings:
        costs = [pricing.costs[lane.name] for lane in executors]
        while math.isinf(costs[turn % len(costs)]):
            turn += 1
        loads[turn % len(costs)] += costs[turn % len(costs)]
        turn += 1
    return max(loads)


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
        assert lpt.makespan_us == 110.0
        assert cyclic_makespan(pricings, ex) == 200.0

    def test_held_work_moves_a_placement(self):
        # Empty lanes send the image to the cheaper "a"; 100 us still
        # held on "a" makes "b" finish it first.
        ex = lanes("a", "b")
        pricings = [fake_pricing(0, {"a": 40.0, "b": 60.0})]
        assert schedule_lpt(pricings, ex).assignments[0].executor.name \
            == "a"
        sched = schedule_lpt(pricings, ex, held={"a": 100.0})
        assert sched.assignments[0].executor.name == "b"
        assert sched.assignments[0].predicted_us == 60.0
        assert sched.loads == {"a": 100.0, "b": 60.0}

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

    def test_empty_batch(self):
        sched = schedule_lpt([], lanes("a"))
        assert sched.assignments == [] and sched.makespan_us == 0.0

    def test_feedback_scales_sort_and_dominance(self, monkeypatch):
        # Lane "a" learned a 100x slowdown; the image whose unscaled
        # best (5) is the batch's smallest must be treated as its
        # biggest job (scaled best 500) and head the LPT order.
        ex = lanes("a", "b")
        fb = ThroughputFeedback()
        monkeypatch.setattr("repro.service.scheduler.FEEDBACK_ALPHA", 1.0)
        for _ in range(7):      # each observation at most doubles it
            fb.observe("a", 10.0, 1000.0)
        assert fb.scale("a") == 100.0
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
        fb.observe("lane", 100.0, 300.0)
        assert fb.scale("lane") == pytest.approx(3.0)
        fb.observe("lane", 100.0, 100.0)
        assert fb.scale("lane") == pytest.approx(1.0)
        assert fb.observations == 4

    def test_a_rise_is_capped_per_observation(self):
        # A host's cold first decode (here 100x its price) lifts its
        # scale only to 2, so it keeps drawing the placements that
        # re-measure it; a fall is taken whole.
        fb = ThroughputFeedback()
        fb.observe("cold", 10.0, 1000.0)
        assert fb.scale("cold") == 2.0
        fb.observe("cold", 10.0, 1000.0)
        assert fb.scale("cold") == pytest.approx(0.7 * 2.0 + 0.3 * 4.0)
        fb.observe("cold", 10.0, 1.0)
        assert fb.scale("cold") == pytest.approx(0.7 * 2.6 + 0.3 * 0.1)
        pricings = [fake_pricing(i, {"cold": 10.0, "warm": 10.0})
                    for i in range(4)]
        fb = ThroughputFeedback()
        fb.observe("cold", 10.0, 1000.0)
        sched = schedule_lpt(pricings, lanes("cold", "warm"), feedback=fb)
        assert sched.loads == {"cold": 20.0, "warm": 30.0}

    def test_degenerate_observations_ignored(self):
        fb = ThroughputFeedback()
        fb.observe("lane", 0.0, 50.0)
        fb.observe("lane", 50.0, 0.0)
        fb.observe("lane", math.inf, 50.0)
        assert fb.scale("lane") == 1.0 and fb.observations == 0

    def test_feedback_redirects_schedule(self):
        # After observing that lane "a" keeps running 100x slower than
        # predicted, the scheduler routes the next batch to "b".
        ex = lanes("a", "b")
        fb = ThroughputFeedback()
        pricings = [fake_pricing(i, {"a": 10.0, "b": 15.0})
                    for i in range(4)]
        before = schedule_lpt(pricings, ex, feedback=fb)
        assert any(a.executor.name == "a" for a in before.assignments)
        for _ in range(10):
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

    def test_mixed_batch_makespan_lpt_vs_roundrobin(self, device_lanes):
        """The cross-image claim on a real mixed batch, priced from its
        headers on the GTX 560's SIMD + GPU lanes: two large frames,
        a mid tier and a tail of small images (4:2:0 ones fit only the
        CPU lane).  LPT's makespan is pinned and the cost-blind cyclic
        placement's is at least 1.10x of it."""
        batch = ((21, 1024, 768, "4:2:2", 16), (22, 768, 576, "4:4:4", 0),
                 (23, 512, 384, "4:2:2", 0), (24, 448, 336, "4:4:4", 8),
                 (25, 320, 240, "4:2:0", 0), (26, 256, 192, "4:2:2", 0),
                 (27, 192, 144, "4:2:0", 0), (28, 160, 120, "4:2:2", 0),
                 (29, 160, 120, "4:4:4", 0), (30, 128, 128, "4:2:2", 8))
        blobs = [encode(w, h, sub, dri, seed=seed)
                 for seed, w, h, sub, dri in batch]
        pricings = ModelScheduler(executors=device_lanes).price(blobs)
        lpt = schedule_lpt(pricings, device_lanes)
        cyclic = cyclic_makespan(pricings, device_lanes)
        assert lpt.makespan_us == pytest.approx(7235, rel=1e-3)
        assert cyclic == pytest.approx(9476, rel=1e-3)
        assert cyclic / lpt.makespan_us >= 1.10

    def test_price_batch_matches_scalar(self):
        model = fitted_model(platforms.GTX560, "4:2:2")
        images = [(640, 480, 0.2), (128, 128, 0.35)]
        assert model.price_batch("gpu", images) == [
            model.price("gpu", w, h, d) for (w, h, d) in images]

    def test_gpu_lane_ineligible_for_420(self, device_lanes):
        sched = ModelScheduler(executors=device_lanes)
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

    def test_progressive_priced_with_scans_not_splittable(self,
                                                           device_lanes):
        rgb = synthetic_photo(96, 96, seed=7, detail=0.6)
        prog = encode_jpeg(rgb, EncoderSettings(
            quality=85, subsampling="4:2:2", progressive=True))
        sched = ModelScheduler(executors=device_lanes)
        p_base, p_prog = sched.price([encode(96, 96), prog])
        # Whole-image only: no lane models it, nothing fans it out (so
        # the per-scan surcharge above never reaches an ImagePricing).
        assert all(math.isinf(c) for c in p_prog.costs.values())
        simd = next(l for l in sched.executors if l.kind == "simd")
        assert p_prog.costs[simd.name] > p_base.costs[simd.name]

    def test_unknown_policy_rejected(self):
        for policy in ("fifo", "roundrobin"):
            with pytest.raises(ServiceError):
                ModelScheduler(policy=policy)
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

    @pytest.mark.parametrize("policy", ["model"])
    def test_bit_identity_vs_sequential(self, policy):
        blobs = self._mixed_blobs()
        with BatchDecoder(backend="thread", workers=2,
                          scheduler=policy) as dec:
            batch = dec.decode_batch(blobs)
        assert batch.schedule is not None
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
    def test_session_feeds_observations_and_stats(self, device_lanes):
        blobs = [encode(160, 120, seed=i) for i in range(3)]
        sched = ModelScheduler(executors=device_lanes)
        with DecodeSession(backend="serial", scheduler=sched) as svc:
            handles = [svc.submit(b) for b in blobs]
            assert all(h.result(timeout=30).ok for h in handles)
        assert sched.feedback.observations == 3
        assert sum(u.images for u in svc.stats.per_executor.values()) == 3
        for usage in svc.stats.per_executor.values():
            assert usage.predicted_us > 0 and usage.observed_us > 0
            assert usage.bias > 0
        assert "scheduled placements" in svc.stats.format()

    def test_fanned_out_image_is_counted_and_teaches_nothing(self, device_lanes):
        # The group's index space survives the scheduler seeing a
        # subset: the whole image's observation lands on its own lane,
        # the fanned-out one is counted by what it did, not by a mark.
        # The group is one decode_batch; its fold is the session's.
        blobs = [encode(640, 480, dri=16, seed=6), encode(160, 120, seed=1)]
        sched = ModelScheduler(executors=device_lanes)
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

    def test_scales_adapt_across_batches(self, device_lanes):
        blobs = [encode(160, 120, seed=i) for i in range(3)]
        sched = ModelScheduler(executors=device_lanes)
        with DecodeSession(backend="serial", scheduler=sched) as svc:
            for _ in range(2):
                handles = [svc.submit(b) for b in blobs]
                assert all(h.result(timeout=30).ok for h in handles)
                assert sched.feedback.scales()  # at least one lane observed
        assert sched.feedback.observations == 6

    def test_overlapping_single_image_groups_share_the_lanes(self):
        # A stream of one-image groups admitted on top of each other
        # cycles the lanes: each lane starts from the work it holds.
        blob = encode(128, 96, seed=10)
        sched = ModelScheduler(executors=lanes("a", "b"))
        with BatchDecoder(backend="serial", scheduler=sched) as dec:
            groups = [dec.admit([blob]) for _ in range(4)]
            names = [g.schedule.assignments[0].executor.name
                     for g in groups]
            held = dec.held_us()
            assert held["a"] == held["b"] > 0
            while any(g.open for g in groups):
                dec.wake.wait(1.0)
                dec.wake.clear()
                for _ in dec.gather():
                    pass
        assert names == ["a", "b", "a", "b"]

    def test_held_work_is_released(self):
        """Whatever drives a group — ``decode_batch``, a session's pump
        or an abort — a lane stops holding an image's price once it
        lands or is dropped."""
        blob = encode(128, 96, seed=10)
        idle = {"a": 0.0, "b": 0.0}
        sched = ModelScheduler(executors=lanes("a", "b"))
        with DecodeSession(backend="thread", workers=2,
                           scheduler=sched) as svc:
            assert all(h.result(timeout=30).ok
                       for h in [svc.submit(blob) for _ in range(6)])
        assert svc.decoder.held_us() == idle
        with BatchDecoder(backend="serial", scheduler=sched) as dec:
            assert dec.decode_batch([blob] * 3).ok
            assert dec.held_us() == idle
            # The pool closes after the group's first dispatch: the
            # second fails and the group aborts, dropping the first.
            submit, calls = dec.pool.submit, itertools.count()

            def close_after_first(*args):
                if next(calls):
                    dec.pool.close()
                return submit(*args)

            dec.pool.submit = close_after_first
            group = dec.admit([blob, blob])
            assert isinstance(group.error, ServiceClosedError)
            assert dec.held_us() == idle
