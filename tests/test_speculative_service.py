"""Speculative chunk fan-out through the batch service: bit-identity
across backends and transports, the decoder's policy knob, the one
fan-out decision (the same with and without a scheduler), fault
injection, and hostile-input error identity."""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.data.synth import GENERATORS, marker_free_corpus
from repro.jpeg import (
    DecodeOptions,
    EncoderSettings,
    decode_jpeg,
    encode_jpeg,
    parse_jpeg,
)
from repro.service import (
    BatchDecoder,
    FaultPlan,
    ImageRequest,
    LaneBreakerBoard,
    ModelScheduler,
)
from repro.service.transport import shm_available
from repro.service.scheduler import FANOUT_FIXED_US, fanout_pays


def encode(rgb, sub="4:2:0", quality=85, dri=0) -> bytes:
    return encode_jpeg(rgb, EncoderSettings(
        quality=quality, subsampling=sub, restart_interval=dri))


def shm_files(prefix: str = "repro-") -> list[str]:
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith(prefix))
    except FileNotFoundError:
        return []


@pytest.fixture(scope="module")
def blobs():
    """Marker-free images: the speculative path's targets."""
    return [data for _, data in marker_free_corpus(
        sizes=((96, 80), (160, 120)), kinds=("photo", "smooth"))]


@pytest.fixture(scope="module")
def oracles(blobs):
    return [decode_jpeg(b).rgb for b in blobs]


@pytest.fixture(scope="module")
def frame_mf() -> bytes:
    """A 640x480 marker-free frame: big enough for fan-out to pay."""
    return encode(GENERATORS["photo"](480, 640, seed=6), quality=90)


@pytest.fixture(scope="module")
def frame_dri() -> bytes:
    """An 800x600 frame with restart markers."""
    return encode(GENERATORS["photo"](600, 800, seed=8), sub="4:2:2",
                  quality=80, dri=50)


@pytest.fixture(scope="module")
def thumbnail() -> bytes:
    """A 256x192 marker-free thumbnail: fan-out cannot pay for it."""
    return encode(GENERATORS["photo"](192, 256, seed=9), quality=80)


class TestSpeculativeBatches:
    def test_thread_backend_identity(self, blobs, oracles):
        with BatchDecoder(workers=4, backend="thread",
                          speculative="on") as dec:
            batch = dec.decode_batch(
                [ImageRequest(data=b) for b in blobs])
        assert batch.ok
        for res, want in zip(batch.results, oracles):
            assert res.ok, (res.error_type, res.error)
            assert res.segments > 1, "speculative fan-out never engaged"
            assert res.speculative or res.misspeculated >= 0
            assert np.array_equal(res.rgb, want)

    def test_serial_backend_never_speculates(self, blobs, oracles):
        # Serial pools gain nothing from chunking; policy "on" must not
        # override physics.
        with BatchDecoder(backend="serial", speculative="on") as dec:
            batch = dec.decode_batch([ImageRequest(data=blobs[0])])
        res = batch.results[0]
        assert res.ok and res.segments == 1 and not res.speculative
        assert np.array_equal(res.rgb, oracles[0])

    def test_auto_policy_defers_to_batch_pressure(self, blobs, frame_mf):
        # A batch that already fills the pool keeps whole-image tasks;
        # a lone frame fans out.
        with BatchDecoder(workers=2, backend="thread",
                          speculative="auto") as dec:
            full = dec.decode_batch(
                [ImageRequest(data=b) for b in [frame_mf] + blobs[:3]])
            lone = dec.decode_batch([ImageRequest(data=frame_mf)])
        assert all(r.segments == 1 for r in full.results)
        assert lone.results[0].segments > 1

    def test_one_chunk_per_worker(self, blobs, oracles):
        with BatchDecoder(workers=5, backend="thread",
                          speculative="on") as dec:
            batch = dec.decode_batch([ImageRequest(data=blobs[1])])
        res = batch.results[0]
        assert res.ok and res.segments == 5
        assert np.array_equal(res.rgb, oracles[1])

    def test_dri_image_not_speculated(self, small_rgb, fanout_never):
        # "on" forces marker-free chunks only; a restart stream follows
        # the price, which says no here.
        data = encode(small_rgb, dri=4)
        with BatchDecoder(workers=4, backend="thread",
                          speculative="on") as dec:
            batch = dec.decode_batch([ImageRequest(data=data)])
        res = batch.results[0]
        assert res.ok and not res.speculative and res.segments == 1
        assert np.array_equal(res.rgb, decode_jpeg(data).rgb)

    def test_invalid_policy_rejected(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            BatchDecoder(speculative="sometimes")


class TestPricedDecision:
    """Under ``"auto"`` an image fans out only when that is predicted
    to finish sooner than decoding it whole."""

    def test_predicate(self):
        assert not fanout_pays(10 * FANOUT_FIXED_US, 1)
        assert not fanout_pays(2 * FANOUT_FIXED_US, 2)
        assert fanout_pays(2 * FANOUT_FIXED_US + 1, 2)
        assert fanout_pays(1.5 * FANOUT_FIXED_US + 1, 3)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_lone_thumbnail_decodes_whole(self, thumbnail, backend):
        with BatchDecoder(workers=2, backend=backend) as dec:
            (res,) = dec.decode_batch([thumbnail]).results
        assert res.ok and res.segments == 1 and not res.speculative
        assert np.array_equal(res.rgb, decode_jpeg(thumbnail).rgb)

    def test_thumbnail_heading_a_short_batch_decodes_whole(self, thumbnail,
                                                           blobs):
        # It outweighs its batch, and the two fill the pool.
        with BatchDecoder(workers=2, backend="thread",
                          scheduler="model") as dec:
            batch = dec.decode_batch([thumbnail, blobs[0]])
        assert batch.ok
        assert [r.segments for r in batch.results] == [1, 1]
        assert all(a.executor is not None
                   for a in batch.schedule.assignments)

    def test_lone_frames_fan_out(self, frame_mf, frame_dri):
        with BatchDecoder(workers=2, backend="thread") as dec:
            (mf,) = dec.decode_batch([frame_mf]).results
            (dri,) = dec.decode_batch([frame_dri]).results
        assert mf.ok and mf.speculative and mf.segments == 2
        assert dri.ok and not dri.speculative and 1 < dri.segments <= 4
        assert np.array_equal(mf.rgb, decode_jpeg(frame_mf).rgb)
        assert np.array_equal(dri.rgb, decode_jpeg(frame_dri).rgb)

    def test_policies_and_overrides_ignore_the_price(self, thumbnail,
                                                     frame_mf, monkeypatch):
        """The policy overrides the price for marker-free scans only:
        "on" fans out a thumbnail no fan-out pays for, beside a restart
        stream that, with room to spare, follows the price; "off" keeps
        a lone frame whole that every fan-out would pay for."""
        small_dri = encode(GENERATORS["photo"](64, 80, seed=3), dri=4)
        monkeypatch.setattr("repro.service.scheduler.FANOUT_FIXED_US",
                            math.inf)
        with BatchDecoder(workers=3, backend="thread",
                          speculative="on") as dec:
            on = dec.decode_batch([thumbnail, small_dri])
        assert [r.segments > 1 for r in on.results] == [True, False]
        monkeypatch.setattr("repro.service.scheduler.FANOUT_FIXED_US", 0.0)
        with BatchDecoder(workers=2, backend="thread",
                          speculative="off") as dec:
            off = dec.decode_batch([frame_mf])
        assert off.results[0].segments == 1

    def test_plan_prices_from_the_header_alone(self, frame_mf, frame_dri,
                                               thumbnail, monkeypatch):
        """What ``scheduler.plan`` costs per image does not grow with
        the pricing: one header walk, no prescan, no pass over the
        entropy data."""
        import repro.service.tasks as tasks_module

        sched = ModelScheduler(policy="model")
        batch = [ImageRequest(data=b)
                 for b in (frame_mf, frame_dri, thumbnail)]
        sched.plan(batch)               # profiles the lanes' models
        walks = []
        real_walk = tasks_module.walk_header
        monkeypatch.setattr(
            tasks_module, "walk_header",
            lambda data: walks.append(1) or real_walk(data))
        import repro.jpeg.fast_entropy as fast_entropy

        def no_prescan(data):
            raise AssertionError("plan must not touch the entropy data")

        monkeypatch.setattr(fast_entropy, "destuff_scan", no_prescan)
        schedule = sched.plan(batch)
        assert len(walks) == len(batch)
        assert all(math.isfinite(min(p.costs.values()))
                   for p in schedule.pricings)


class TestDispatchingPool:
    """The fan-out decision and the unit count come from the pool the
    units run on — the decoder's default pool — never from a lane's."""

    def test_default_pool_decides_and_sizes(self, frame_mf, frame_dri):
        with BatchDecoder(workers=3, backend="thread",
                          scheduler="model") as dec:
            (spec,) = dec.decode_batch([frame_mf]).results
            (runs,) = dec.decode_batch([frame_dri]).results
        assert spec.speculative and spec.segments == 3
        assert not runs.speculative and runs.segments == 6
        # A serial default pool decides "whole", whatever lanes the
        # scheduler names.
        with BatchDecoder(backend="serial", scheduler="model") as dec:
            (whole,) = dec.decode_batch([frame_mf]).results
        assert whole.ok and whole.segments == 1


class TestComponentLayouts:
    """Fan-out of every component layout, with and without restart
    markers, where every fan-out pays: the units' MCU strips keep the
    component count."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("dri", [0, 4])
    @pytest.mark.parametrize("colorspace", ["gray", "ycbcr", "ycck"])
    def test_forced_fanout_is_bit_identical(self, colorspace, dri, backend,
                                            fanout_always):
        rgb = GENERATORS["photo"](64, 96, seed=5)
        data = encode_jpeg(rgb, EncoderSettings(
            quality=85, colorspace=colorspace, restart_interval=dri,
            subsampling="4:4:4" if colorspace == "gray" else "4:2:0"))
        want = decode_jpeg(data).rgb
        with BatchDecoder(workers=2, backend=backend) as dec:
            (res,) = dec.decode_batch([data]).results
        assert res.ok, (res.error_type, res.error)
        assert res.segments > 1
        assert res.speculative == (dri == 0)
        assert res.misspeculated == 0
        assert np.array_equal(res.rgb, want)

    @pytest.mark.parametrize("colorspace", ["gray", "ycck"])
    def test_default_policy_decodes_restart_streams(self, colorspace):
        # The reported failure: ok=False, "3 components but 1 table
        # pairs" from a lone DRI image under the default policy.
        rgb = GENERATORS["photo"](480, 640, seed=5)
        data = encode_jpeg(rgb, EncoderSettings(
            quality=85, colorspace=colorspace, restart_interval=4,
            subsampling="4:4:4"))
        with BatchDecoder(workers=2, backend="thread") as dec:
            (res,) = dec.decode_batch([data]).results
        assert res.ok, (res.error_type, res.error)
        assert res.segments > 1
        assert np.array_equal(res.rgb, decode_jpeg(data).rgb)


@pytest.mark.skipif(not shm_available(),
                    reason="POSIX shared memory unavailable")
class TestSpeculativeShm:
    def test_process_shm_identity_and_no_leak(self, blobs, oracles,
                                              shm_floor_zero):
        before = shm_files()
        with BatchDecoder(workers=2, backend="process",
                          speculative="on") as dec:
            batch = dec.decode_batch(
                [ImageRequest(data=b) for b in blobs[:2]])
            assert batch.ok
            assert dec.stats.bytes_shm > 0, \
                "chunk planes never rode shared memory"
            for res, want in zip(batch.results, oracles):
                assert res.segments > 1
                assert np.array_equal(res.rgb, want)
        assert shm_files() == before, "leaked /dev/shm segments"


@pytest.mark.usefixtures("no_backoff")
class TestSpeculativeFaults:
    def test_killed_chunk_is_retried(self, blobs, oracles):
        plan = FaultPlan(kill_at={1})
        with BatchDecoder(workers=4, backend="thread", speculative="on",
                          faults=plan) as dec:
            batch = dec.decode_batch([ImageRequest(data=blobs[0])])
        res = batch.results[0]
        assert res.ok and dec.stats.retries >= 1
        assert np.array_equal(res.rgb, oracles[0])

    def test_lost_chunk_heals_as_misspeculation(self, blobs, oracles):
        # Past the retry budget a dead chunk is one more misspeculated
        # boundary: the stitch repairs it, the image never fails.
        plan = FaultPlan(kill_at={1, 2})
        with BatchDecoder(workers=4, backend="thread", speculative="on",
                          retry_budget=0, faults=plan) as dec:
            batch = dec.decode_batch([ImageRequest(data=blobs[0])])
        res = batch.results[0]
        assert res.ok, (res.error_type, res.error)
        assert res.misspeculated >= 1
        assert np.array_equal(res.rgb, oracles[0])

    def test_decode_exception_in_chunk_heals(self, blobs, oracles):
        plan = FaultPlan(exception_at={2})
        with BatchDecoder(workers=4, backend="thread", speculative="on",
                          faults=plan) as dec:
            batch = dec.decode_batch([ImageRequest(data=blobs[0])])
        res = batch.results[0]
        assert res.ok
        assert np.array_equal(res.rgb, oracles[0])
        assert plan.injected["exception"] == 1

    def test_total_chunk_loss_is_infra_failure(self, blobs):
        plan = FaultPlan(kill_every=1)
        with BatchDecoder(workers=2, backend="thread", speculative="on",
                          retry_budget=0, faults=plan) as dec:
            batch = dec.decode_batch([ImageRequest(data=blobs[0])])
        res = batch.results[0]
        assert not res.ok and res.infra_failure
        assert res.error_type == "WorkerCrashError"


class TestHostileThroughService:
    def _hostile(self):
        base = encode(GENERATORS["photo"](64, 80, seed=11), quality=80)
        info = parse_jpeg(base)
        from repro.jpeg.fast_entropy import destuff_scan

        scan = destuff_scan(info.entropy_data)
        hostile = scan.payload[:len(scan.payload) // 2] + b"\xff\xd9"
        return base.replace(info.entropy_data, hostile)

    def test_corrupt_scan_reports_oracle_error(self):
        blob = self._hostile()
        try:
            decode_jpeg(blob, DecodeOptions(entropy_engine="fast"))
            want = None
        except Exception as exc:
            want = (type(exc).__name__, str(exc))
        assert want is not None, "fixture failed to corrupt the scan"
        with BatchDecoder(workers=4, backend="thread",
                          speculative="on") as dec:
            batch = dec.decode_batch([ImageRequest(data=blob)])
        res = batch.results[0]
        assert not res.ok and not res.infra_failure
        assert (res.error_type, res.error) == want


class TestSchedulerRouting:
    def test_dominant_marker_free_image_speculates(self, frame_mf):
        """End to end under a scheduler: a big DRI=0 image heading a
        group the pool has room beside is not serialized on a lane — it
        fans out speculatively before placement, bit-identically, and
        the small one is placed."""
        big = frame_mf
        small = encode(GENERATORS["smooth"](64, 64, seed=7))
        assert parse_jpeg(big).restart_interval == 0
        with BatchDecoder(workers=3, backend="thread",
                          scheduler="model") as dec:
            batch = dec.decode_batch([big, small])
        res = batch.results[0]
        assert res.ok and res.segments > 1 and res.speculative
        assert np.array_equal(res.rgb, decode_jpeg(big).rgb)
        assert [a.executor is not None
                for a in batch.schedule.assignments] == [False, True]

    def test_scheduler_speculative_off_serializes_again(self, frame_mf):
        # The decoder's policy is the only switch: "off" under a
        # scheduler places the frame whole on a lane.
        with BatchDecoder(workers=3, backend="thread", scheduler="model",
                          speculative="off") as dec:
            batch = dec.decode_batch([frame_mf])
        (res,) = batch.results
        assert res.ok and res.segments == 1
        assert batch.schedule.assignments[0].executor is not None
        assert np.array_equal(res.rgb, decode_jpeg(frame_mf).rgb)

    def test_breaker_limits_survive_with_speculation(self):
        # LaneBreakerBoard caps still constrain placement: with every
        # lane open nothing is placed, the image decodes as submitted.
        board = LaneBreakerBoard(threshold=1, cooldown_s=3600.0)
        sched = ModelScheduler(policy="model", breakers=board)
        lane_names = [ln.name for ln in sched.executors]
        for name in lane_names:
            board.record(name, ok=False)
        limits = board.limits(lane_names)
        assert all(v == 0 for v in limits.values())
        blob = encode(GENERATORS["photo"](96, 96, seed=2))
        schedule = sched.plan([ImageRequest(data=blob)])
        (a,) = schedule.assignments
        assert a.executor is None


# ---------------------------------------------------------------------------
# The one fan-out decision (ISSUE 23): asked once per image, before any
# placement, so every scheduler column answers the same.
# ---------------------------------------------------------------------------

def _photo(h, w, seed, **settings) -> bytes:
    return encode_jpeg(GENERATORS["photo"](h, w, seed=seed),
                       EncoderSettings(quality=85, **settings))


_IMAGES = {
    "frame": dict(h=480, w=640, seed=6, subsampling="4:2:0"),
    "dri": dict(h=480, w=640, seed=6, subsampling="4:2:2",
                restart_interval=8),
    "gray": dict(h=480, w=640, seed=6, colorspace="gray",
                 subsampling="4:4:4"),
    "thumb": dict(h=192, w=256, seed=9, subsampling="4:2:0"),
    "prog": dict(h=480, w=640, seed=6, subsampling="4:2:2",
                 progressive=True),
}

_THREADS = dict(workers=2, backend="thread")
_SPEC, _RUNS, _WHOLE = (True, True), (True, False), (False, False)

#: ``name -> (decoder kwargs, [(image, request fields)], [(fans out,
#: speculative)])`` — what each group does on a 2-worker pool,
#: scheduler or not.
_CELLS = {
    "lone-marker-free-frame": (_THREADS, [("frame", {})], [_SPEC]),
    "lone-dri-frame": (_THREADS, [("dri", {})], [_RUNS]),
    "lone-gray-frame": (_THREADS, [("gray", {})], [_SPEC]),
    "frame-and-thumbnail": (_THREADS, [("frame", {}), ("thumb", {})],
                            [_WHOLE, _WHOLE]),
    "lone-thumbnail": (_THREADS, [("thumb", {})], [_WHOLE]),
    "progressive-frame": (_THREADS, [("prog", {})], [_WHOLE]),
    "salvage-frame": (_THREADS, [("frame", dict(salvage=True))], [_WHOLE]),
    "serial-backend": (dict(backend="serial"), [("frame", {})], [_WHOLE]),
    "policy-on": ({**_THREADS, "speculative": "on"},
                  [("thumb", {}), ("thumb", {})], [_SPEC, _SPEC]),
    "policy-off": ({**_THREADS, "speculative": "off"}, [("frame", {})],
                   [_WHOLE]),
}


@pytest.fixture(scope="module")
def images() -> dict[str, bytes]:
    return {name: _photo(**recipe) for name, recipe in _IMAGES.items()}


class TestOneFanoutDecision:
    @pytest.mark.parametrize("scheduler", [None, "model", "roundrobin"])
    @pytest.mark.parametrize("cell", sorted(_CELLS))
    def test_decision_table(self, cell, scheduler, images):
        kwargs, group, want = _CELLS[cell]
        requests = [ImageRequest(data=images[name], **knobs)
                    for name, knobs in group]
        with BatchDecoder(scheduler=scheduler, **kwargs) as dec:
            batch = dec.decode_batch(requests)
        assert [(r.segments > 1, r.speculative) for r in batch.results] \
            == want
        for req, res in zip(requests, batch.results):
            assert res.ok, (res.error_type, res.error)
            assert np.array_equal(res.rgb, decode_jpeg(req.data).rgb)
        if scheduler is not None:
            # What fanned out was never placed; what stayed whole and
            # has a modelled lane was.
            placed = [a.executor is not None
                      for a in batch.schedule.assignments]
            modelled = cell not in ("lone-gray-frame", "progressive-frame",
                                    "salvage-frame")
            assert placed == [modelled and not fanned for fanned, _ in want]

    @pytest.mark.parametrize("dri", [0, 8])
    def test_lone_frame_fans_out_on_a_scheduled_process_pool(self, dri):
        frame = _photo(600, 800, 8, subsampling="4:2:2",
                       restart_interval=dri)
        with BatchDecoder(workers=2, backend="process",
                          scheduler="model") as dec:
            (res,) = dec.decode_batch([frame]).results
        assert res.ok and res.segments > 1
        assert res.speculative == (dri == 0)
        assert np.array_equal(res.rgb, decode_jpeg(frame).rgb)

    def test_unreadable_sampling_fails_alone_under_a_scheduler(self):
        # Chroma sampled 2x1: the header parses, no geometry exists.
        # The decision and the pricing both skip it; the worker names
        # the error and the rest of the group decodes.
        good = _photo(64, 64, 1, subsampling="4:2:2")
        bad = bytearray(good)
        chroma = bad.find(b"\xff\xc0") + 10 + 4
        bad[chroma] = 0x21
        with BatchDecoder(workers=2, backend="thread",
                          scheduler="model") as dec:
            batch = dec.decode_batch([bytes(bad), good])
        assert batch.results[0].error_type == "JpegUnsupportedError"
        assert batch.results[1].ok

    def test_fanout_pays_has_one_call_site(self):
        """Source guard: the price of fanning out is asked in one
        place (``BatchDecoder._fans_out``); a second call site is a
        second decision."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        calls = [f"{path.relative_to(src)}:{n}"
                 for path in sorted(src.rglob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\bfanout_pays\(", line)
                 and "def fanout_pays" not in line]
        assert len(calls) == 1 and calls[0].startswith("service/batch.py"), \
            calls
