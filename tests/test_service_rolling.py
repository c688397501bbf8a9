"""The rolling dispatch loop: a handle resolves when its own image is
done, the window bounds what is in flight, admission order is decided
at the last moment, close/abort resolve every handle exactly once, no
wake-up is lost, busy time is the union of overlapping groups, and the
pumped session and ``decode_batch`` run on one admit/gather core."""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.data import synthetic_photo
from repro.errors import DeadlineExceededError, ServiceClosedError
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    BatchDecoder,
    DecodeSession,
    FaultPlan,
    ImageRequest,
)
from repro.service.faults import FaultDirective
from repro.service.stats import ServiceStats
from repro.service.session import DISPATCH_DEPTH


@pytest.fixture(scope="module")
def thumb():
    """A 160x120 thumbnail."""
    return encode_jpeg(synthetic_photo(120, 160, seed=5, detail=0.5),
                       EncoderSettings(quality=80, subsampling="4:2:0"))


@pytest.fixture(scope="module")
def frame():
    """An 800x600 frame: tens of thumbnails' worth of decode."""
    return encode_jpeg(synthetic_photo(600, 800, seed=6, detail=0.6),
                       EncoderSettings(quality=85, subsampling="4:2:2"))


class Hook:
    """FaultPlan stand-in consulted at every dispatch: records how many
    subtasks were already in flight, and delays the first *slow*
    dispatches so the window stays full while the test acts."""

    def __init__(self, slow: int = 0, delay_s: float = 0.15):
        self.session: DecodeSession | None = None
        self.slow, self.delay_s = slow, delay_s
        self.dispatches = 0
        self.in_flight_seen: list[int] = []

    def next_directive(self, lane=None):
        self.dispatches += 1
        if self.session is not None:
            self.in_flight_seen.append(len(self.session.decoder._pending))
        if self.dispatches <= self.slow:
            return FaultDirective(kind="delay", delay_s=self.delay_s)
        return None


def hooked_session(hook: Hook, **kwargs) -> DecodeSession:
    """A session whose dispatches consult *hook*.  Its thumbnails never
    fan out: their modeled entropy decode is far below what a fan-out
    must save to pay (``scheduler.fanout_pays``)."""
    session = DecodeSession(faults=hook, **kwargs)
    hook.session = session
    return session


class TestResolutionOrder:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_thumbnail_overtakes_the_frame_it_followed(self, backend,
                                                       thumb, frame,
                                                       fanout_never):
        """No batch barrier: the thumbnail submitted right after a frame
        is answered while the frame still decodes."""
        order: list[str] = []
        with DecodeSession(workers=2, backend=backend) as session:
            # Warm the pool so neither request pays worker start-up.
            assert session.submit(thumb).result(timeout=120).ok
            # Alone on an idle pool the frame would fan out; no fan-out
            # pays here, so it decodes whole.
            big = session.submit(frame)
            big.add_done_callback(lambda _h: order.append("frame"))
            small = session.submit(thumb)
            small.add_done_callback(lambda _h: order.append("thumb"))
            results = big.result(timeout=120), small.result(timeout=120)
        assert order == ["thumb", "frame"]
        for res, data in zip(results, (frame, thumb)):
            assert res.ok
            assert np.array_equal(res.rgb, decode_jpeg(data).rgb)


class TestWindow:
    def test_window_bounds_in_flight_and_the_pool_never_starves(self, thumb):
        hook = Hook()
        starved: list[tuple[int, int]] = []
        with hooked_session(hook, workers=2, backend="thread") as session:
            window = DISPATCH_DEPTH * 2

            def on_done(_handle):
                # Runs on the pump thread at resolution: with requests
                # still pending, something must still be decoding.
                if session.pending and not session.decoder.in_flight:
                    starved.append((session.pending,
                                    session.decoder.in_flight))

            handles = [session.submit(thumb) for _ in range(16)]
            for h in handles:
                h.add_done_callback(on_done)
            assert all(h.result(timeout=60).ok for h in handles)
            assert session.stats_snapshot()["in_flight"] == 0
        assert hook.dispatches == 16
        # Whole-image tasks: one subtask each, counted before the submit.
        assert max(hook.in_flight_seen) <= window - 1
        assert max(hook.in_flight_seen) >= 2   # the window was used
        assert starved == []

    def test_idle_pump_burns_no_cpu_and_is_one_thread(self, thumb):
        before = threading.active_count()
        with DecodeSession(workers=2, backend="serial") as session:
            assert threading.active_count() == before + 1
            assert session.submit(thumb).result(timeout=30).ok
            time.sleep(0.05)
            t0 = time.process_time()
            time.sleep(1.0)
            assert time.process_time() - t0 < 0.005

    def test_thread_count_does_not_grow_with_requests(self, tiny_rgb):
        blob = encode_jpeg(tiny_rgb, EncoderSettings(quality=75))
        with DecodeSession(workers=2, backend="thread",
                           queue_capacity=64) as session:
            def burst(n):
                handles = [session.submit(blob, timeout=None)
                           for _ in range(n)]
                assert all(h.result(timeout=60).ok for h in handles)
                return threading.active_count()

            after_10 = burst(10)
            assert burst(1000) == after_10


class TestLastMomentAdmission:
    def test_high_priority_overtakes_and_expired_is_never_dispatched(
            self, thumb):
        """While two slow decodes fill a one-worker window, later
        arrivals wait in the backlog: the high-priority one is admitted
        first, and the one whose deadline passes there is shed without
        ever reaching a worker."""
        hook = Hook(slow=2)
        order: list[str] = []
        with hooked_session(hook, workers=1, backend="thread") as session:
            def tagged(name, **kwargs):
                handle = session.submit(ImageRequest(data=thumb, **kwargs))
                handle.add_done_callback(lambda _h: order.append(name))
                return handle

            blockers = [tagged(f"block{i}") for i in range(2)]
            time.sleep(0.02)        # both admitted: the window is full
            lows = [tagged(f"low{i}", priority=PRIORITY_LOW)
                    for i in range(3)]
            doomed = tagged("doomed", deadline_ms=20)
            high = tagged("high", priority=PRIORITY_HIGH)
            for h in blockers + lows + [high]:
                assert h.result(timeout=60).ok
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=60)
            assert session.stats.deadline_expired == 1
        assert order.index("high") < min(order.index(f"low{i}")
                                         for i in range(3))
        assert order.index("high") > order.index("block0")
        assert hook.dispatches == 6      # everything but the doomed one


class TestCloseAndAbort:
    def _counted(self, handles):
        calls: Counter = Counter()
        for i, h in enumerate(handles):
            h.add_done_callback(lambda _h, i=i: calls.update([i]))
        return calls

    def test_close_without_drain_cancels_backlog_resolves_in_flight(
            self, thumb):
        hook = Hook(slow=2)
        session = hooked_session(hook, workers=1, backend="thread")
        handles = [session.submit(thumb) for _ in range(6)]
        calls = self._counted(handles)
        time.sleep(0.02)
        session.close(drain=False)
        assert [h.result(timeout=0).ok for h in handles[:2]] == [True, True]
        for h in handles[2:]:
            assert h.cancelled()
            with pytest.raises(CancelledError):
                h.result(timeout=0)
        assert hook.dispatches == 2
        assert calls == Counter(range(6))

    def test_close_with_drain_resolves_everything(self, thumb):
        hook = Hook(slow=2, delay_s=0.05)
        session = hooked_session(hook, workers=1, backend="thread")
        handles = [session.submit(thumb) for _ in range(6)]
        calls = self._counted(handles)
        session.close(drain=True)
        assert all(h.result(timeout=0).ok for h in handles)
        assert calls == Counter(range(6))

    def test_closed_pool_fails_each_handle_once(self, thumb):
        """Infrastructure dying under the pump: what was in flight
        still lands, every group admitted afterwards fails its handles
        with the pool's exception, and the pump survives to close."""
        hook = Hook(slow=2, delay_s=0.05)
        session = hooked_session(hook, workers=1, backend="thread")
        handles = [session.submit(thumb) for _ in range(6)]
        calls = self._counted(handles)
        time.sleep(0.02)
        session.decoder.pool.close()    # waits for the two in flight
        assert all(h.result(timeout=30).ok for h in handles[:2])
        for h in handles[2:]:
            assert isinstance(h.exception(timeout=30), ServiceClosedError)
        session.close()
        assert calls == Counter(range(6))
        assert session.decoder.in_flight == 0


class TestNoLostWakeup:
    def test_eight_producers_against_a_busy_pump(self, tiny_rgb):
        blob = encode_jpeg(tiny_rgb, EncoderSettings(quality=75))
        want = decode_jpeg(blob).rgb
        per_thread = 25
        handles: list[list] = [[] for _ in range(8)]
        with DecodeSession(workers=2, backend="thread",
                           queue_capacity=8) as session:
            def produce(k):
                for _ in range(per_thread):
                    handles[k].append(session.submit(blob, timeout=None))

            threads = [threading.Thread(target=produce, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            deadline = time.perf_counter() + 30
            for h in (h for per in handles for h in per):
                res = h.result(timeout=max(0.1,
                                           deadline - time.perf_counter()))
                assert res.ok and np.array_equal(res.rgb, want)
            assert session.stats.images_ok == 8 * per_thread


class TestRetryBackOff:
    def test_a_back_off_does_not_freeze_the_pump(self, monkeypatch, thumb):
        """A crashed task's re-dispatch waits out its back-off without
        the pump: the other image resolves meanwhile, and the killed
        one resolves on its second attempt once the back-off is over."""
        monkeypatch.setattr("repro.service.batch.RETRY_BACKOFF_S", 0.5)
        with DecodeSession(workers=2, backend="thread",
                           faults=FaultPlan(kill_at={0})) as session:
            killed = session.submit(thumb)
            other = session.submit(thumb)
            assert other.result(timeout=30).latency_s < 0.25
            assert session.decoder.in_flight == 1    # the deferred retry
            result = killed.result(timeout=30)
        assert result.ok and result.attempts == 2
        assert result.latency_s >= 0.5
        assert session.stats.retries == 1

    def test_close_with_drain_waits_for_a_deferred_retry(self, monkeypatch,
                                                        thumb):
        monkeypatch.setattr("repro.service.batch.RETRY_BACKOFF_S", 0.2)
        session = DecodeSession(workers=2, backend="thread",
                                faults=FaultPlan(kill_at={0}))
        handle = session.submit(thumb)
        session.close(drain=True)
        result = handle.result(timeout=0)
        assert result.ok and result.attempts == 2

    def test_an_aborted_group_drops_its_deferred_retries(self, monkeypatch,
                                                         thumb):
        """Both images of a group crash and wait out their back-off;
        the first re-dispatch fails on the closed pool, which aborts the
        group: the second retry is dropped with it, and nothing is left
        in flight."""
        monkeypatch.setattr("repro.service.batch.RETRY_BACKOFF_S", 0.05)
        decoder = BatchDecoder(workers=2, backend="thread",
                               faults=FaultPlan(kill_at={0, 1}))
        group = decoder.admit([thumb, thumb])
        while len(decoder._deferred) < 2:
            decoder.wake.wait(5)
            decoder.wake.clear()
            assert list(decoder.gather()) == []
        assert decoder.in_flight == 2 and group.open == 2
        decoder.pool.close()
        time.sleep(decoder.next_due_s())
        (failed,) = decoder.gather()
        assert failed.group is group and group.error is not None
        assert decoder.in_flight == 0 and group.open == 0
        assert not decoder._pending
        decoder.close()


class TestBusyTimeIsAUnion:
    def test_overlapping_groups_do_not_double_count(self):
        """Two 1 s groups of 10 images, overlapping by half: 20 images
        in 1.5 busy seconds, not in 2."""
        stats = ServiceStats()
        stats.mark_busy(100.0)      # group A admitted
        stats.mark_busy(100.5)      # group B admitted while A runs
        for _ in range(20):
            stats.record_image(True, 0.1)
        stats.mark_idle(101.5)      # B's last plan lands
        assert stats.total_wall_s == pytest.approx(1.5)
        assert stats.images_per_sec == pytest.approx(20 / 1.5)
        stats.mark_idle(102.0)      # idle already: no-op
        assert stats.total_wall_s == pytest.approx(1.5)

    def test_session_rate_matches_elapsed_and_retry_after_holds(
            self, thumb, monkeypatch):
        """Overlapping single-image groups through a live pump: the
        reported rate is images over elapsed (a sum of group walls
        would read about half of it on two workers), and the
        Retry-After estimate does not grow with the overlap."""
        hook = Hook(slow=10**6, delay_s=0.05)
        with hooked_session(hook, workers=2, backend="thread",
                            queue_capacity=64) as session:
            t0 = time.perf_counter()
            handles = [session.submit(thumb) for _ in range(24)]
            assert all(h.result(timeout=60).ok for h in handles)
            elapsed = time.perf_counter() - t0
            snap = session.stats_snapshot()
            assert snap["batches"] > 6          # groups did overlap
            assert snap["throughput"]["images_per_sec"] == pytest.approx(
                24 / elapsed, rel=0.10)
            assert snap["throughput"]["total_wall_s"] <= elapsed
            # 24 waiting at ~35 img/s is under a second of backlog.
            with monkeypatch.context() as patch:
                patch.setattr(DecodeSession, "pending",
                              property(lambda self: 24))
                assert session.retry_after_s() == 1


class TestOneCore:
    def test_pump_and_decode_batch_share_admit_and_gather_one(
            self, thumb, monkeypatch):
        calls: Counter = Counter()
        for name in ("admit", "gather_one"):
            original = getattr(BatchDecoder, name)

            def counting(self, *args, _name=name, _orig=original):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(BatchDecoder, name, counting)

        with BatchDecoder(workers=2, backend="thread") as decoder:
            assert decoder.decode_batch([thumb] * 3).ok
        assert calls == {"admit": 1, "gather_one": 3}

        calls.clear()
        with DecodeSession(workers=2, backend="thread") as session:
            handles = [session.submit(thumb) for _ in range(5)]
            assert all(h.result(timeout=60).ok for h in handles)
        assert calls["gather_one"] == 5
        assert 1 <= calls["admit"] <= 5


    def test_fanout_reads_batch_as_what_is_in_flight(self, frame):
        """The auto rule fans a lone frame out over an idle pool and
        decodes it whole when the pool is already busy."""
        with DecodeSession(workers=4, backend="thread") as session:
            alone = session.submit(frame).result(timeout=120)
            crowd = [session.submit(frame) for _ in range(4)]
            crowded = [h.result(timeout=120) for h in crowd]
        assert alone.ok and alone.segments > 1
        assert all(r.ok for r in crowded)
        assert crowded[-1].segments == 1
        assert np.array_equal(alone.rgb, crowded[-1].rgb)
