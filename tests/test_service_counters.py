"""The counter contract: each counter the decoder keeps is bumped once,
where its event happens, so ``/stats`` reads exactly the events a
caller can count from the results — here through a process pool whose
replies ride shared memory, a worker crash (retried, or with no budget
lost), and a fan-out (every one pays; the progressive thumbnails decode
whole regardless)."""

from __future__ import annotations

import time

import pytest

from repro.jpeg import EncoderSettings, encode_jpeg, parse_jpeg
from repro.jpeg.coefficients import CoefficientBuffers
from repro.service import DecodeSession, FaultPlan, ImageRequest
from repro.service.obs import TraceContext
from repro.service.transport import shm_available
from repro.service.fanout import SegmentPlan


@pytest.mark.skipif(not shm_available(),
                    reason="POSIX shared memory unavailable")
@pytest.mark.usefixtures("shm_floor_zero", "no_backoff", "fanout_always")
@pytest.mark.parametrize("budget", [2, 0])
def test_stats_count_what_the_results_show(small_rgb, tiny_rgb, monkeypatch,
                                           budget):
    dri = encode_jpeg(small_rgb, EncoderSettings(
        quality=85, subsampling="4:2:2", restart_interval=4))
    thumb = encode_jpeg(tiny_rgb, EncoderSettings(quality=75,
                                                  progressive=True))
    busy = []       # busy seconds of each reply the fan-out accepted
    accept = SegmentPlan.accept

    def spy(plan, unit, reply, arrays):
        busy.append(reply.busy_s)
        accept(plan, unit, reply, arrays)

    monkeypatch.setattr(SegmentPlan, "accept", spy)
    faults = FaultPlan(kill_at={1})     # a run of the fan-out dies
    requests = [ImageRequest(data=dri, trace=TraceContext.new_root())]
    requests += [ImageRequest(data=thumb) for _ in range(3)]
    # One image per group (each submit waits for the previous one's
    # admission): the frame has the pool to itself to fan out.
    with DecodeSession(workers=2, backend="process", faults=faults,
                       retry_budget=budget) as session:
        handles = []
        for r in requests:
            handles.append(session.submit(r))
            while session.pending:
                time.sleep(0.001)
        results = [h.result(timeout=120) for h in handles]
        snap = session.stats_snapshot()
        leaked = session.decoder.arena.leaked()

    units = sum(r.segments for r in results)
    lost = sum(not r.ok and r.infra_failure for r in results)
    assert snap["faults"]["retries"] == faults.dispatches - units
    assert snap["faults"]["infra_failures"] == lost
    assert snap["images_split"] == sum(r.segments > 1 for r in results) == 1
    assert snap["batches"] == len(requests) == 4
    assert leaked == []
    if not budget:
        assert snap["faults"]["retries"] == 0 and lost >= 1
        return
    assert snap["faults"]["retries"] >= 1 and lost == 0
    # Every unit's reply rode shared memory exactly once: the whole
    # images' pixels, the fan-out's coefficient grid in runs.
    grid = CoefficientBuffers.empty(parse_jpeg(dri).geometry).planes
    assert snap["transport"]["shm_bytes"] == sum(
        r.rgb.nbytes if r.segments == 1 else sum(p.nbytes for p in grid)
        for r in results)
    assert snap["transport"]["pickle_bytes"] == 0
    # A fan-out's busy time is its units' plus the parent's merge.
    fanned = results[0]
    (merge,) = [s for s in fanned.trace_spans if s.name == "merge"]
    assert len(busy) == fanned.segments
    assert fanned.wall_us == pytest.approx(
        (sum(busy) + merge.duration_s) * 1e6, rel=1e-9)
