"""Futures-based decode sessions: handle resolution and bit-identity
across engines/backends/schedulers, lifecycle edges (cancel on
``close(drain=False)``, result timeouts, exactly-once callbacks,
idempotent close), and the N-producer stress contract of the bounded
submission queue."""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.errors import QueueFullError, ServiceClosedError, ServiceError
from repro.jpeg import DecodeOptions, EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import DecodeHandle, DecodeSession, ImageRequest
from repro.service.queue import SubmissionQueue


@pytest.fixture(scope="module")
def corpus(small_rgb, tiny_rgb):
    """Mixed-subsampling corpus, with and without restart markers."""
    return [
        encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:2:2")),
        encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:4:4", restart_interval=4)),
        encode_jpeg(tiny_rgb, EncoderSettings(
            quality=75, subsampling="4:2:0", restart_interval=2)),
        encode_jpeg(tiny_rgb, EncoderSettings(
            quality=90, subsampling="4:2:2")),
    ]


@pytest.fixture(scope="module")
def sequential_rgbs(corpus):
    """Oracle: single-image sequential decodes of the corpus."""
    return [decode_jpeg(b).rgb for b in corpus]


class TestHandleBitIdentity:
    """The acceptance matrix: a pumped session's handles resolve to
    results bit-identical to decode_jpeg for every engine/backend/
    scheduler combination."""

    @pytest.mark.parametrize("scheduler", [None, "model"])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_matrix(self, corpus, engine, backend, scheduler):
        """The session's pixels are each entropy engine's oracle's."""
        oracles = [decode_jpeg(b, DecodeOptions(entropy_engine=engine)).rgb
                   for b in corpus]
        with DecodeSession(workers=2,
                           backend=backend, scheduler=scheduler) as sess:
            handles = [sess.submit(b) for b in corpus]
            results = [h.result(timeout=60) for h in handles]
        for res, oracle in zip(results, oracles):
            assert res.ok, f"{res.error_type}: {res.error}"
            assert np.array_equal(res.rgb, oracle)
        assert all(h.done() and not h.cancelled() for h in handles)

    def test_process_backend(self, corpus, sequential_rgbs):
        with DecodeSession(workers=2,
                           backend="process") as sess:
            handles = [sess.submit(b) for b in corpus]
            results = [h.result(timeout=120) for h in handles]
        for res, oracle in zip(results, sequential_rgbs):
            assert res.ok
            assert np.array_equal(res.rgb, oracle)

    def test_error_isolation_resolves_not_raises(self, corpus,
                                                 sequential_rgbs):
        """A corrupt image resolves its own handle with ok=False; the
        good neighbor's handle is untouched."""
        with DecodeSession(backend="thread",
                           workers=2) as sess:
            good = sess.submit(corpus[0])
            bad = sess.submit(b"not a jpeg at all")
            bad_res = bad.result(timeout=30)
            good_res = good.result(timeout=30)
        assert good_res.ok
        assert np.array_equal(good_res.rgb, sequential_rgbs[0])
        assert not bad_res.ok
        assert bad.exception(timeout=0) is None     # resolved, not raised
        assert bad_res.error_type and bad_res.error

    def test_latency_measured_from_submit(self, corpus, held_session):
        """Session latency covers queue wait, not just batch wall: the
        request queues behind two stalled decodes on one worker, so it
        finishes three stalls after its submit, two after admission."""
        sess, _ = held_session(corpus[3])
        stall_s = max(sess.decoder.faults.delay_lanes.values())
        try:
            res = sess.submit(corpus[3]).result(timeout=30)
        finally:
            sess.close()
        assert res.ok
        assert res.latency_s >= 2.8 * stall_s


class TestHandleApi:
    def test_request_ids_monotonic_and_echoed(self, corpus):
        with DecodeSession(backend="serial") as sess:
            handles = [sess.submit(corpus[3]) for _ in range(3)]
            assert [h.request_id for h in handles] == [0, 1, 2]
            results = [h.result(timeout=30) for h in handles]
        assert [r.request_id for r in results] == [0, 1, 2]

    def test_explicit_request_id_preserved(self, corpus):
        req = ImageRequest(data=corpus[3], request_id="user-7")
        with DecodeSession(backend="serial") as sess:
            handle = sess.submit(req)
            assert handle.request_id == "user-7"
            assert handle.result(timeout=30).request_id == "user-7"

    def test_result_timeout_raises_timeouterror(self, corpus,
                                                held_session):
        """result(timeout) on a still-queued handle raises TimeoutError
        (stalled decodes hold the window)."""
        sess, _ = held_session(corpus[3])
        try:
            handle = sess.submit(corpus[3])
            assert not handle.done()
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.05)
        finally:
            sess.close(drain=True)
        assert handle.result(timeout=0).ok   # drain resolved it after all

    def test_callbacks_fire_exactly_once(self, corpus):
        calls: list[DecodeHandle] = []
        with DecodeSession(backend="thread",
                           workers=2) as sess:
            h = sess.submit(corpus[3])
            h.add_done_callback(calls.append)
            h.result(timeout=30)
        # Registering after completion fires immediately, still once.
        h.add_done_callback(calls.append)
        assert calls == [h, h]
        assert all(c is h for c in calls)

    def test_callback_exception_does_not_kill_pump(self, corpus):
        with DecodeSession(backend="serial") as sess:
            h1 = sess.submit(corpus[3])
            h1.add_done_callback(
                lambda _h: (_ for _ in ()).throw(RuntimeError("boom")))
            h1.result(timeout=30)
            # The pump survived the callback: a second submit resolves.
            assert sess.submit(corpus[3]).result(timeout=30).ok


class TestSessionLifecycle:
    def test_close_drain_false_cancels_pending(self, corpus, held_session):
        """Queued handles are cancelled, not decoded; what is in flight
        still resolves."""
        sess, blockers = held_session(corpus[3])
        handles = [sess.submit(corpus[3]) for _ in range(3)]
        sess.close(drain=False)
        for h in handles:
            assert h.cancelled()
            with pytest.raises(CancelledError):
                h.result(timeout=1)
        assert all(b.result(timeout=0).ok for b in blockers)
        assert sess.stats.images_ok == len(blockers)

    def test_close_drain_true_completes_pending(self, corpus,
                                                sequential_rgbs,
                                                held_session):
        sess, _ = held_session(corpus[3])
        handles = [sess.submit(corpus[3]) for _ in range(3)]
        sess.close(drain=True)
        for h in handles:
            assert np.array_equal(h.result(timeout=0).rgb,
                                  sequential_rgbs[3])

    def test_submit_after_close_raises(self, corpus):
        sess = DecodeSession(backend="serial")
        sess.close()
        assert sess.closed
        with pytest.raises(ServiceClosedError):
            sess.submit(corpus[3])

    def test_double_close_is_idempotent(self, corpus):
        sess = DecodeSession(backend="serial")
        sess.submit(corpus[3])
        sess.close(drain=True)
        sess.close(drain=True)      # second close: no-op, no error
        sess.close(drain=False)     # mixed-mode close after close: no-op
        assert sess.closed

    def test_cancelled_callback_fires(self, corpus, held_session):
        sess, _ = held_session(corpus[3])
        seen = []
        h = sess.submit(corpus[3])
        h.add_done_callback(lambda hh: seen.append(hh.cancelled()))
        sess.close(drain=False)
        assert seen == [True]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ServiceError):
            DecodeSession(default_deadline_ms=0, backend="serial")

    def test_stats_snapshot_shape(self, corpus):
        with DecodeSession(backend="serial",
                           scheduler="model") as sess:
            sess.submit(corpus[0]).result(timeout=60)
            snap = sess.stats_snapshot()
        assert snap["images_ok"] == 1
        assert snap["pending"] == 0
        assert snap["queue_capacity"] == 32
        assert snap["queue_space"] == 32
        assert snap["latency_ms"]["p50"] > 0
        assert snap["scheduler"]["executors"] == ["local"]
        assert "scales" in snap["scheduler"]["feedback"]
        import json
        json.dumps(snap)   # must be JSON-serializable end to end


class TestPullMode:
    """The shape ``repro serve-batch`` drives: the owner submits its
    work, then pulls each result off its handle while the pump decodes."""

    def test_close_without_drain_does_not_decode_leftovers(
            self, corpus, held_session):
        sess, blockers = held_session(corpus[0])
        handle = sess.submit(corpus[0])
        sess.close(drain=False)
        assert handle.cancelled()
        assert sess.pending == 0 and not sess.decoder.in_flight
        assert sess.stats.images_ok + sess.stats.images_failed \
            == len(blockers)
        assert sess.stats.batches <= len(blockers)


class TestQueueStress:
    """The satellite contract: N producer threads racing the pump lose
    and duplicate nothing; QueueFullError only exists in fail-fast mode."""

    N_PRODUCERS = 8
    PER_PRODUCER = 50

    def _run_producers(self, queue: SubmissionQueue, timeout,
                       errors: list) -> list[threading.Thread]:
        def produce(pid: int) -> None:
            for k in range(self.PER_PRODUCER):
                try:
                    queue.put((pid, k), timeout=timeout)
                except QueueFullError:
                    errors.append((pid, k))
        threads = [threading.Thread(target=produce, args=(pid,))
                   for pid in range(self.N_PRODUCERS)]
        for t in threads:
            t.start()
        return threads

    @staticmethod
    def _take(queue: SubmissionQueue, max_items: int,
              arrived: threading.Event) -> list:
        """Consume the way the session pump does: sleep on the queue's
        ``on_change`` wake-up (cleared before the look, so no arrival
        is slept through), then take in arrival order."""
        arrived.wait(0.01)
        arrived.clear()
        taken, _ = queue.take(max_items, key=lambda item: 0,
                              expired=lambda item: False)
        return taken

    def test_blocking_producers_lose_nothing(self):
        arrived = threading.Event()
        queue = SubmissionQueue(capacity=4, on_change=arrived.set)
        drained: list = []
        stop = threading.Event()

        def pump() -> None:
            while not stop.is_set() or len(queue):
                drained.extend(self._take(queue, 3, arrived))

        consumer = threading.Thread(target=pump)
        consumer.start()
        errors: list = []
        producers = self._run_producers(queue, timeout=None, errors=errors)
        for t in producers:
            t.join()
        stop.set()
        consumer.join()
        assert errors == []      # blocking mode never raises QueueFullError
        expected = {(pid, k) for pid in range(self.N_PRODUCERS)
                    for k in range(self.PER_PRODUCER)}
        assert len(drained) == len(expected)      # nothing lost...
        assert set(drained) == expected           # ...nothing duplicated
        # FIFO per producer: each producer's items drained in order.
        for pid in range(self.N_PRODUCERS):
            ks = [k for p, k in drained if p == pid]
            assert ks == sorted(ks)

    def test_failfast_producers_see_queuefull_only(self):
        """With timeout=0 and a slow consumer, some puts are rejected —
        but every accepted item still comes out exactly once."""
        arrived = threading.Event()
        queue = SubmissionQueue(capacity=2, on_change=arrived.set)
        drained: list = []
        stop = threading.Event()

        def pump() -> None:
            while not stop.is_set() or len(queue):
                drained.extend(self._take(queue, 1, arrived))

        consumer = threading.Thread(target=pump)
        consumer.start()
        errors: list = []
        producers = self._run_producers(queue, timeout=0, errors=errors)
        for t in producers:
            t.join()
        stop.set()
        consumer.join()
        expected = {(pid, k) for pid in range(self.N_PRODUCERS)
                    for k in range(self.PER_PRODUCER)}
        assert set(drained) | set(errors) == expected
        assert len(drained) + len(errors) == len(expected)
        assert not set(drained) & set(errors)

    def test_session_under_concurrent_producers(self, corpus,
                                                sequential_rgbs):
        """End-to-end stress: producer threads submit real JPEGs with
        blocking backpressure against a live pump; every handle resolves
        bit-identically and ids are unique."""
        n_producers, per_producer = 4, 3
        all_handles: list[list[DecodeHandle]] = [[] for _ in
                                                 range(n_producers)]
        with DecodeSession(queue_capacity=4, backend="thread",
                           workers=2) as sess:
            def produce(pid: int) -> None:
                for _ in range(per_producer):
                    all_handles[pid].append(
                        sess.submit(corpus[3], timeout=None))

            threads = [threading.Thread(target=produce, args=(pid,))
                       for pid in range(n_producers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            flat = [h for per in all_handles for h in per]
            results = [h.result(timeout=120) for h in flat]
        assert len({h.request_id for h in flat}) == len(flat)
        for res in results:
            assert res.ok
            assert np.array_equal(res.rgb, sequential_rgbs[3])
        assert sess.stats.images_ok == n_producers * per_producer
