"""Fault tolerance (PR 6): fault-injection plans, self-healing worker
pools with bounded retry, lane circuit breakers, per-request deadlines
with EDF batch forming, and the end-to-end recovery contracts through
:class:`~repro.service.session.DecodeSession`, the HTTP front end and
the ``repro serve`` CLI's graceful SIGTERM drain."""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ServiceError,
    WorkerCrashError,
)
from repro.evaluation import platforms
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg, parse_jpeg
from repro.service import (
    BatchDecoder,
    DecodeHTTPServer,
    DecodeSession,
    FaultPlan,
    ImageRequest,
    LaneBreakerBoard,
    ModelScheduler,
)
from repro.service.faults import FaultDirective, apply_dispatch_fault
from repro.service.scheduler import schedule_lpt, schedule_roundrobin
from repro.service.transport import shm_available
from repro.service.batch import SEGMENT_RUNS_PER_WORKER, ImageResult

REPO_ROOT = Path(__file__).resolve().parent.parent


def shm_files(prefix: str = "repro-") -> list[str]:
    """Residual /dev/shm entries created by this subsystem."""
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith(prefix))
    except FileNotFoundError:  # non-Linux: nothing to check
        return []


@pytest.fixture(scope="module")
def blob(small_rgb):
    return encode_jpeg(small_rgb, EncoderSettings(
        quality=85, subsampling="4:2:2"))


@pytest.fixture(scope="module")
def oracle(blob):
    return decode_jpeg(blob).rgb


# ---------------------------------------------------------------------------
# FaultPlan: the parent-side decision table.
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ServiceError):
            FaultPlan(kill_every=0)
        with pytest.raises(ServiceError):
            FaultPlan(exception_every=-3)
        with pytest.raises(ServiceError):
            FaultPlan(kill_rate=1.5)

    def test_at_ordinals_fire_exactly_once(self):
        plan = FaultPlan(kill_at={1}, exception_at={3})
        kinds = [getattr(plan.next_directive(), "kind", None)
                 for _ in range(5)]
        assert kinds == [None, "kill", None, "exception", None]
        assert plan.dispatches == 5
        assert plan.injected["kill"] == 1
        assert plan.injected["exception"] == 1

    def test_every_period(self):
        plan = FaultPlan(shm_fail_every=3)
        kinds = [getattr(plan.next_directive(), "kind", None)
                 for _ in range(9)]
        assert kinds == [None, None, "shm_fail"] * 3

    def test_severity_order_kill_wins(self):
        plan = FaultPlan(kill_at={0}, exception_at={0}, shm_fail_at={0})
        assert plan.next_directive().kind == "kill"

    def test_lane_delay_needs_a_lane(self):
        plan = FaultPlan(delay_lanes={"gtx560-gpu": 0.25})
        assert plan.next_directive() is None
        assert plan.next_directive(lane="gtx560-simd") is None
        directive = plan.next_directive(lane="gtx560-gpu")
        assert directive.kind == "delay"
        assert directive.delay_s == 0.25

    def test_kill_rate_is_seed_deterministic(self):
        draw = lambda seed: [  # noqa: E731 - tiny local helper
            getattr(FaultPlan(kill_rate=0.3, seed=seed).next_directive(),
                    "kind", None)]
        runs = [[getattr(p.next_directive(), "kind", None)
                 for _ in range(50)]
                for p in (FaultPlan(kill_rate=0.3, seed=7),
                          FaultPlan(kill_rate=0.3, seed=7))]
        assert runs[0] == runs[1]
        assert "kill" in runs[0]
        assert draw(0) is not None  # exercise the helper; lint appeasement

    def test_snapshot(self):
        plan = FaultPlan(kill_at={0})
        plan.next_directive()
        snap = plan.snapshot()
        assert snap["dispatches"] == 1
        assert snap["injected"]["kill"] == 1

    def test_apply_in_main_process_raises_crash_error(self):
        """Thread/serial backends simulate the kill as an exception on
        the future's infrastructure path, never a real SIGKILL."""
        with pytest.raises(WorkerCrashError):
            apply_dispatch_fault(FaultDirective(kind="kill"))
        apply_dispatch_fault(None)  # no directive, no effect
        apply_dispatch_fault(FaultDirective(kind="exception"))  # deeper scope


# ---------------------------------------------------------------------------
# LaneBreakerBoard: the three-state machine, on a fake clock.
# ---------------------------------------------------------------------------

class FakeClock:
    """Steppable monotonic clock for deterministic cooldown tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestLaneBreakerBoard:
    def test_validation(self):
        with pytest.raises(ServiceError):
            LaneBreakerBoard(threshold=0)
        with pytest.raises(ServiceError):
            LaneBreakerBoard(cooldown_s=-1)

    def test_trip_after_threshold_consecutive_failures(self):
        board = LaneBreakerBoard(threshold=3, clock=FakeClock())
        assert board.record("gpu", ok=False) is False
        assert board.record("gpu", ok=False) is False
        assert board.record("gpu", ok=True) is False   # success resets
        assert board.record("gpu", ok=False) is False
        assert board.record("gpu", ok=False) is False
        assert board.record("gpu", ok=False) is True   # the trip edge
        assert board.state("gpu") == "open"
        assert board.limit("gpu") == 0
        assert board.trips() == 1

    def test_cooldown_half_open_canary_and_recovery(self):
        clock = FakeClock()
        board = LaneBreakerBoard(threshold=1, cooldown_s=5.0, clock=clock)
        assert board.record("gpu", ok=False) is True
        assert board.limit("gpu") == 0            # still cooling
        clock.now += 5.0
        assert board.limit("gpu") == 1            # half-open probe
        assert board.state("gpu") == "half_open"
        board.record("gpu", ok=True)              # canary succeeds
        assert board.state("gpu") == "closed"
        assert board.limit("gpu") is None
        assert board.snapshot()["gpu"]["recoveries"] == 1

    def test_half_open_failure_retrips(self):
        clock = FakeClock()
        board = LaneBreakerBoard(threshold=1, cooldown_s=5.0, clock=clock)
        board.record("gpu", ok=False)
        clock.now += 5.0
        assert board.limit("gpu") == 1
        assert board.record("gpu", ok=False) is True   # canary dies
        assert board.state("gpu") == "open"
        assert board.limit("gpu") == 0                 # fresh cooldown
        assert board.trips() == 2

    def test_untracked_lane_is_closed_and_unlimited(self):
        board = LaneBreakerBoard()
        assert board.state("never-seen") == "closed"
        assert board.limit("never-seen") is None
        assert board.limits(["a", "b"]) == {"a": None, "b": None}

    def test_snapshot_shows_cooldown_remaining(self):
        clock = FakeClock()
        board = LaneBreakerBoard(threshold=1, cooldown_s=10.0, clock=clock)
        board.record("gpu", ok=False)
        clock.now += 4.0
        snap = board.snapshot()["gpu"]
        assert snap["state"] == "open"
        assert snap["cooldown_remaining_s"] == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# Breaker caps inside the placement policies.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scheduler_and_pricings(small_rgb):
    """A model scheduler over the GTX 560's SIMD + GPU lanes plus priced
    images for placement tests."""
    sched = ModelScheduler(policy="model", platform=platforms.GTX560)
    blobs = [encode_jpeg(small_rgb, EncoderSettings(
        quality=q, subsampling="4:2:2")) for q in (70, 80, 90)]
    return sched, sched.price(blobs)


class TestBreakerAwarePlacement:
    def test_open_lane_excluded_from_lpt(self, scheduler_and_pricings):
        sched, pricings = scheduler_and_pricings
        gpu = next(l.name for l in sched.executors if l.kind == "gpu")
        simd = next(l.name for l in sched.executors if l.kind == "simd")
        schedule = schedule_lpt(pricings, sched.executors,
                                lane_limits={gpu: 0})
        placed = [a.executor.name for a in schedule.assignments
                  if a.executor is not None]
        assert placed and all(name == simd for name in placed)
        assert schedule.lane_limits == {gpu: 0}

    def test_half_open_lane_gets_exactly_one_canary(
            self, scheduler_and_pricings):
        sched, pricings = scheduler_and_pricings
        gpu = next(l.name for l in sched.executors if l.kind == "gpu")
        schedule = schedule_lpt(pricings, sched.executors,
                                lane_limits={gpu: 1})
        on_gpu = [a for a in schedule.assignments
                  if a.executor is not None and a.executor.name == gpu]
        assert len(on_gpu) <= 1
        assert len([a for a in schedule.assignments
                    if a.executor is not None]) == len(pricings)

    def test_all_lanes_open_degrades_to_unassigned(
            self, scheduler_and_pricings):
        sched, pricings = scheduler_and_pricings
        limits = {l.name: 0 for l in sched.executors}
        schedule = schedule_lpt(pricings, sched.executors,
                                lane_limits=limits)
        assert all(a.executor is None for a in schedule.assignments)

    def test_roundrobin_skips_capped_lanes(self, scheduler_and_pricings):
        sched, pricings = scheduler_and_pricings
        gpu = next(l.name for l in sched.executors if l.kind == "gpu")
        schedule = schedule_roundrobin(pricings, sched.executors,
                                       lane_limits={gpu: 0})
        placed = [a.executor.name for a in schedule.assignments
                  if a.executor is not None]
        assert placed and gpu not in placed

    def test_observe_trips_breaker_and_resets_feedback(self, small_rgb):
        """Consecutive infra failures on one lane trip its breaker via
        ModelScheduler.observe, which also wipes the lane's EWMA scale;
        completed decode *errors* never count against the lane."""
        clock = FakeClock()
        sched = ModelScheduler(
            policy="model",
            breakers=LaneBreakerBoard(threshold=2, cooldown_s=5.0,
                                      clock=clock))
        blobs = [encode_jpeg(small_rgb, EncoderSettings(
            quality=q, subsampling="4:2:2")) for q in (70, 90)]
        schedule = sched.plan([ImageRequest(data=b) for b in blobs])
        lanes = [a.executor.name for a in schedule.assignments
                 if a.executor is not None]
        assert lanes
        victim = lanes[0]
        sched.feedback.observe(victim, 100.0, 150.0)  # learned scale
        crash = [ImageResult(request_id=i, ok=False,
                             error_type="WorkerCrashError",
                             error="boom", infra_failure=True)
                 for i in range(len(blobs))]
        # A plain decode error keeps the breaker closed.
        bad_bytes = [ImageResult(request_id=i, ok=False,
                                 error_type="JpegError", error="corrupt")
                     for i in range(len(blobs))]
        sched.observe(schedule, bad_bytes)
        assert sched.breakers.state(victim) == "closed"
        # Infra failures trip it and reset the learned scale.
        rounds = 0
        while sched.breakers.state(victim) != "open":
            sched.observe(schedule, crash)
            rounds += 1
            assert rounds <= 4
        assert sched.feedback.scale(victim) == 1.0
        assert sched.snapshot()["breakers"][victim]["state"] == "open"
        # Next plan excludes the tripped lane entirely.
        replanned = sched.plan([ImageRequest(data=b) for b in blobs])
        assert victim not in [a.executor.name
                              for a in replanned.assignments
                              if a.executor is not None]
        assert replanned.lane_limits[victim] == 0
        # After the cooldown the lane is probed again (half-open cap 1).
        clock.now += 5.0
        probed = sched.plan([ImageRequest(data=b) for b in blobs])
        assert probed.lane_limits[victim] == 1


# ---------------------------------------------------------------------------
# Self-healing + retry through BatchDecoder.
# ---------------------------------------------------------------------------

class TestSelfHealingRetry:
    def test_validation(self):
        with pytest.raises(ServiceError):
            BatchDecoder(backend="serial", retry_budget=-1)

    def test_injected_kill_is_retried_and_healed(self, blob, oracle,
                                                 no_backoff):
        """A kill on the first dispatch surfaces as an infrastructure
        failure; the retry decodes bit-identically on attempt 2."""
        plan = FaultPlan(kill_at={0})
        with BatchDecoder(workers=2, backend="thread",
                          faults=plan) as dec:
            batch = dec.decode_batch([blob, blob])
        assert batch.ok, [(r.error_type, r.error) for r in batch]
        assert dec.stats.retries >= 1
        assert plan.injected["kill"] == 1
        attempts = sorted(r.attempts for r in batch.results)
        assert attempts[-1] == 2
        for r in batch.results:
            assert np.array_equal(r.rgb, oracle)

    def test_process_pool_is_rebuilt_in_place(self, blob, oracle,
                                              no_backoff):
        """A real SIGKILL breaks the whole process pool; the decoder
        rebuilds it and the batch still completes without a restart."""
        plan = FaultPlan(kill_at={0})
        with BatchDecoder(workers=1, backend="process",
                          faults=plan) as dec:
            batch = dec.decode_batch([blob])
            assert batch.ok, [(r.error_type, r.error) for r in batch]
            assert dec.rebuilds >= 1
            assert np.array_equal(batch.results[0].rgb, oracle)
            # The healed pool keeps serving: a fault-free second batch.
            again = dec.decode_batch([blob])
            assert again.ok
            assert np.array_equal(again.results[0].rgb, oracle)

    def test_budget_exhaustion_is_a_terminal_infra_failure(self, blob):
        """With no retry budget a crashed dispatch resolves ok=False /
        infra_failure=True — it never raises out of decode_batch and
        never masquerades as a decode error."""
        plan = FaultPlan(kill_every=1)  # every dispatch dies
        with BatchDecoder(workers=2, backend="thread", retry_budget=0,
                          faults=plan) as dec:
            batch = dec.decode_batch([blob])
        result = batch.results[0]
        assert not result.ok
        assert result.infra_failure
        assert result.error_type == "WorkerCrashError"
        assert dec.stats.retries == 0

    def test_decode_exceptions_are_isolated_and_never_retried(self, blob,
                                                              oracle):
        """An arbitrary exception inside the decode stays on that
        image's result (broadened catch) and consumes no retry budget —
        decode errors are properties of the bytes."""
        plan = FaultPlan(exception_at={0})
        with BatchDecoder(workers=2, backend="thread",
                          faults=plan) as dec:
            batch = dec.decode_batch([blob, blob])
        failed = [r for r in batch.results if not r.ok]
        assert len(failed) == 1
        assert failed[0].error_type == "RuntimeError"
        assert not failed[0].infra_failure
        assert dec.stats.retries == 0
        survivor = next(r for r in batch.results if r.ok)
        assert np.array_equal(survivor.rgb, oracle)

    def test_garbage_bytes_resolve_not_raise(self):
        """The broadened catch: any input, however hostile, resolves as
        an ok=False result with the failure's type recorded."""
        with BatchDecoder(workers=2, backend="thread") as dec:
            batch = dec.decode_batch(
                [b"", b"\x00" * 64, b"\xff\xd8\xff\xd9"])
        assert all(not r.ok for r in batch.results)
        assert all(r.error_type for r in batch.results)
        assert all(not r.infra_failure for r in batch.results)


# ---------------------------------------------------------------------------
# The uniform dispatch/gather loop: every plan kind x every fault kind.
# ---------------------------------------------------------------------------

class DelayFirstDispatch:
    """FaultPlan stand-in: a ``delay`` directive on the first dispatch.
    (FaultPlan only delays by scheduler lane; these cells run
    unscheduled so the three plan kinds share one decoder shape.)"""

    DELAY_S = 0.05

    def __init__(self):
        self.dispatches = 0

    def next_directive(self, lane=None):
        self.dispatches += 1
        if self.dispatches == 1:
            return FaultDirective(kind="delay", delay_s=self.DELAY_S)
        return None


#: fault name -> (plan factory, retry budget).
MATRIX_FAULTS = {
    "kill": (lambda: FaultPlan(kill_at={0}), 2),
    "kill_no_budget": (lambda: FaultPlan(kill_at={0}), 0),
    "exception": (lambda: FaultPlan(exception_at={0}), 2),
    "shm_fail": (lambda: FaultPlan(shm_fail_every=1), 2),
    "delay": (DelayFirstDispatch, 2),
}


@pytest.mark.skipif(not shm_available(),
                    reason="POSIX shared memory unavailable")
@pytest.mark.usefixtures("shm_floor_zero", "no_backoff")
class TestUniformFaultMatrix:
    """One dispatch and one gather loop serve every plan, so every
    (plan kind, fault kind) cell must hold the same invariants: the
    documented outcome, attempts/retries as injected, no leaked slot,
    no /dev/shm residue.  Every reply rides shared memory, and a
    speculative image splits into one chunk per worker.  The faulted
    image is alone on the pool, so it has room to fan out: the whole
    cell prices every fan-out out, the others price it in."""

    WORKERS = 2

    @pytest.fixture(autouse=True)
    def fanout_price(self, kind, monkeypatch):
        """The fan-out price of one *kind* of cell."""
        monkeypatch.setattr("repro.service.scheduler.FANOUT_FIXED_US",
                            math.inf if kind == "whole" else 0.0)

    @pytest.fixture(scope="class")
    def cells(self, small_rgb, blob):
        """kind -> (request, the plan's subtask count)."""
        dri = encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:2:2", restart_interval=4))
        info = parse_jpeg(dri)
        n_segments = -(-info.geometry.total_mcus // info.restart_interval)
        # Segments ship as runs: SEGMENT_RUNS_PER_WORKER per worker.
        n_runs = SEGMENT_RUNS_PER_WORKER * self.WORKERS
        assert n_segments > n_runs
        return {
            "whole": (ImageRequest(data=blob), 1),
            "segment": (ImageRequest(data=dri), n_runs),
            "spec": (ImageRequest(data=blob), self.WORKERS),
        }

    @pytest.mark.parametrize("fault", list(MATRIX_FAULTS))
    @pytest.mark.parametrize("kind", ["whole", "segment", "spec"])
    def test_cell(self, cells, kind, fault):
        make_plan, budget = MATRIX_FAULTS[fault]
        request, units = cells[kind]
        want = decode_jpeg(request.data).rgb
        t0 = time.perf_counter()
        with BatchDecoder(workers=self.WORKERS, backend="process",
                          retry_budget=budget, faults=make_plan()) as dec:
            batch = dec.decode_batch([request])
            leaked = dec.arena.leaked()
        elapsed = time.perf_counter() - t0
        (res,) = batch.results
        # Success or failure, a result reports its plan's subtask count.
        assert res.segments == units

        if fault == "kill_no_budget" and kind == "spec" and res.ok:
            # A sibling chunk outran the pool teardown: partial loss
            # heals as misspeculation (total loss is terminal, below).
            assert res.misspeculated >= 1
            assert np.array_equal(res.rgb, want)
        elif fault == "kill_no_budget":
            # The killed task is gone for good (and a real SIGKILL
            # breaks the whole process pool under its siblings).
            assert not res.ok and res.infra_failure
            assert res.error_type == "WorkerCrashError"
        elif fault == "exception" and kind != "spec":
            # A decode exception is the image's own error, never retried
            # (a speculative chunk's heals as misspeculation instead).
            assert not res.ok and not res.infra_failure
            assert res.error_type == "RuntimeError"
        else:
            assert res.ok, (res.error_type, res.error)
            assert np.array_equal(res.rgb, want)

        if fault == "kill":
            # The killed dispatch retried once; siblings that were in
            # flight on the broken pool retried with it.
            assert res.attempts == 2
            assert 1 <= dec.stats.retries <= units
            assert dec.rebuilds >= 1
        else:
            assert res.attempts == 1
            assert dec.stats.retries == 0
        if fault == "shm_fail":
            # Every publish failed over to the pickle pipe.
            assert dec.stats.bytes_shm == 0
            assert dec.stats.bytes_pickle > 0
        elif res.ok:
            assert dec.stats.bytes_shm > 0
        if fault == "delay":
            assert elapsed >= DelayFirstDispatch.DELAY_S

        assert leaked == []
        assert not shm_files()

    @pytest.mark.parametrize("fault", list(MATRIX_FAULTS))
    @pytest.mark.parametrize("kind", ["whole", "segment", "spec"])
    def test_cell_through_the_rolling_pump(self, cells, kind, fault,
                                           tiny_rgb):
        """The same 15 cells through a pumped session, with three
        thumbnails admitted behind the faulted image in groups of their
        own (each submit waits for the previous one's admission): the
        fault is the faulted image's business — its siblings resolve
        (retried with it only when a real SIGKILL broke the pool under
        them), every handle resolves exactly once, and no slot outlives
        the run.  The thumbnails are progressive, so they
        decode whole at any fan-out price."""
        make_plan, budget = MATRIX_FAULTS[fault]
        request, units = cells[kind]
        want = decode_jpeg(request.data).rgb
        thumb = encode_jpeg(tiny_rgb, EncoderSettings(quality=75,
                                                      progressive=True))
        thumb_rgb = decode_jpeg(thumb).rgb
        order: list[int] = []
        with DecodeSession(workers=self.WORKERS, backend="process",
                           retry_budget=budget,
                           faults=make_plan()) as session:
            handles = []
            for item in [request] + [thumb] * 3:
                handles.append(session.submit(item))
                while session.pending:
                    time.sleep(0.001)
            for i, h in enumerate(handles):
                h.add_done_callback(lambda _h, i=i: order.append(i))
            res, *siblings = [h.result(timeout=120) for h in handles]
            batches = session.stats_snapshot()["batches"]
            leaked = session.decoder.arena.leaked()
        assert sorted(order) == [0, 1, 2, 3]        # each exactly once
        assert batches == 4                         # four groups
        assert res.segments == units
        if fault == "kill_no_budget":
            # No budget anywhere: whatever was in flight on the broken
            # pool is lost with it, terminally and as infrastructure.
            for r in [res] + siblings:
                assert r.ok or (r.infra_failure
                                and r.error_type == "WorkerCrashError")
        else:
            for r in siblings:
                assert r.ok, (r.error_type, r.error)
                assert np.array_equal(r.rgb, thumb_rgb)
            if fault == "exception" and kind != "spec":
                assert not res.ok and not res.infra_failure
                assert res.error_type == "RuntimeError"
            else:
                assert res.ok, (res.error_type, res.error)
                assert np.array_equal(res.rgb, want)
        if fault == "kill":
            assert res.attempts == 2
        elif fault == "delay" and kind == "whole":
            # The delayed image held one worker; the other answered
            # its siblings meanwhile.
            assert order[-1] == 0
        assert leaked == []
        assert not shm_files()


# ---------------------------------------------------------------------------
# Deadlines: validation, shedding, EDF ordering.
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_validation(self):
        with pytest.raises(ServiceError):
            DecodeSession(backend="serial", default_deadline_ms=0)
        with DecodeSession(backend="serial") as svc:
            with pytest.raises(ServiceError):
                svc.submit(ImageRequest(data=b"x", deadline_ms=-5))

    def test_expired_request_is_shed_with_deadline_error(self, blob,
                                                         oracle,
                                                         held_session):
        """A request whose deadline passes while it queues behind a held
        window resolves with DeadlineExceededError; fresh requests
        still decode."""
        session, _ = held_session(blob)
        with session:
            doomed = session.submit(ImageRequest(data=blob, deadline_ms=5))
            fresh = session.submit(blob)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
            result = fresh.result(timeout=30)
            assert result.ok
            assert np.array_equal(result.rgb, oracle)
            snap = session.stats_snapshot()
            assert snap["faults"]["deadline_expired"] == 1

    def test_default_deadline_applies_to_bare_bytes(self, blob,
                                                    held_session):
        session, _ = held_session(ImageRequest(data=blob,
                                               deadline_ms=60_000),
                                  default_deadline_ms=5)
        with session:
            handle = session.submit(blob)
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=30)
            assert session.stats.deadline_expired == 1

    def test_batches_form_earliest_deadline_first(self, blob, held_session):
        """Tightest deadline decodes first; deadline-free requests keep
        FIFO order after every deadlined one.  One worker decodes in
        admission order, so the completion order is the admission's."""
        session, _ = held_session(blob)
        order = []
        with session:
            loose = session.submit(
                ImageRequest(data=blob, deadline_ms=60_000))
            bare = session.submit(blob)
            tight = session.submit(
                ImageRequest(data=blob, deadline_ms=5_000))
            for h in (loose, bare, tight):
                h.add_done_callback(lambda h: order.append(h.request_id))
            results = [h.result(timeout=30) for h in (loose, bare, tight)]
        assert order == [tight.request_id, loose.request_id,
                         bare.request_id]
        assert all(r.ok for r in results)


# ---------------------------------------------------------------------------
# End-to-end recovery through the session and HTTP front ends.
# ---------------------------------------------------------------------------

class TestEndToEndRecovery:
    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_killed_worker_mid_batch_all_handles_resolve_once(
            self, blob, oracle, shm_floor_zero, no_backoff):
        """The chaos regression contract: kill a process worker
        mid-batch through the pumped session — every handle resolves
        exactly once with a successful, bit-identical result, the pool
        is rebuilt without a service restart, and /dev/shm is clean."""
        plan = FaultPlan(kill_at={1})
        resolved: dict[int, int] = {}
        lock = threading.Lock()

        def count(handle):
            with lock:
                resolved[handle.request_id] = \
                    resolved.get(handle.request_id, 0) + 1

        with DecodeSession(workers=2, backend="process",
                           faults=plan) as session:
            handles = [session.submit(blob) for _ in range(4)]
            for h in handles:
                h.add_done_callback(count)
            results = [h.result(timeout=120) for h in handles]
            for r in results:
                assert r.ok, (r.error_type, r.error)
                assert np.array_equal(r.rgb, oracle)
            assert session.decoder.rebuilds >= 1
            snap = session.stats_snapshot()
            assert snap["faults"]["retries"] >= 1
            assert snap["faults"]["pool_rebuilds"] >= 1
            assert snap["faults"]["infra_failures"] == 0
            # The healed pool serves the next batch bit-identically.
            again = session.submit(blob).result(timeout=120)
            assert again.ok and np.array_equal(again.rgb, oracle)
            assert session.decoder.arena.leaked() == []
        time.sleep(0.05)  # done callbacks ran on resolution; settle
        assert sorted(resolved) == sorted(h.request_id for h in handles)
        assert all(n == 1 for n in resolved.values())
        assert not shm_files()

    def test_http_recovers_from_killed_worker(self, blob, oracle,
                                              no_backoff):
        """The same contract over a socket: the response of a request
        whose first dispatch died is still 200 and bit-identical."""
        plan = FaultPlan(kill_at={0})
        srv = DecodeHTTPServer(port=0, backend="process", workers=1,
                               faults=plan)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            req = urllib.request.Request(srv.url + "/decode", data=blob,
                                         method="POST")
            with urllib.request.urlopen(req, timeout=120) as resp:
                assert resp.status == 200
                body = resp.read()
            magic, dims, maxval, pixels = body.split(b"\n", 3)
            h, w = oracle.shape[:2]
            assert dims == b"%d %d" % (w, h)
            assert np.array_equal(
                np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3),
                oracle)
            with urllib.request.urlopen(srv.url + "/stats",
                                        timeout=30) as resp:
                stats = json.load(resp)
            assert stats["faults"]["retries"] >= 1
            assert stats["faults"]["pool_rebuilds"] >= 1
            assert stats["retry_budget"] >= 1
        finally:
            srv.shutdown()
            thread.join(timeout=30)
            srv.close()

    def test_http_deadline_maps_to_504(self, blob):
        """X-Deadline-Ms: an already-expired deadline answers 504 with
        Retry-After; an invalid header answers 400."""
        srv = DecodeHTTPServer(port=0, backend="thread", workers=2)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            req = urllib.request.Request(
                srv.url + "/decode", data=blob, method="POST",
                headers={"X-Deadline-Ms": "0.0001"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=60)
            assert excinfo.value.code == 504
            assert excinfo.value.headers["Retry-After"] == "1"
            body = json.load(excinfo.value)
            assert "deadline" in body["error"]

            bad = urllib.request.Request(
                srv.url + "/decode", data=blob, method="POST",
                headers={"X-Deadline-Ms": "soon"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=60)
            assert excinfo.value.code == 400

            ok = urllib.request.Request(
                srv.url + "/decode?format=json", data=blob, method="POST",
                headers={"X-Deadline-Ms": "60000"})
            with urllib.request.urlopen(ok, timeout=60) as resp:
                assert resp.status == 200
                assert json.load(resp)["ok"] is True
        finally:
            srv.shutdown()
            thread.join(timeout=30)
            srv.close()


# ---------------------------------------------------------------------------
# Graceful drain of the serve CLI.
# ---------------------------------------------------------------------------

class TestServeGracefulDrain:
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
    def test_signal_drains_and_exits_zero(self, blob, sig):
        """SIGTERM/SIGINT stop the accept loop, drain accepted work and
        exit 0 with the summary printed."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--backend", "thread", "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, banner
            url = f"http://127.0.0.1:{match.group(1)}"
            proc.stdout.readline()  # endpoints line
            req = urllib.request.Request(url + "/decode", data=blob,
                                         method="POST")
            with urllib.request.urlopen(req, timeout=60) as resp:
                assert resp.status == 200
            proc.send_signal(sig)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        out, err = proc.stdout.read(), proc.stderr.read()
        assert rc == 0, (rc, out, err)
        assert "draining" in err
        assert "summary:" in out
