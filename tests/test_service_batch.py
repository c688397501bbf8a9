"""Batched decode service: bit-identity with sequential decodes,
backpressure/queue-full behavior, and per-image error isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from repro.jpeg import DecodeOptions, EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import (
    BatchDecoder,
    DecodeSession,
    ImageRequest,
    WorkerPool,
    percentile,
)
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


def _oracles(corpus, engine):
    """Single-image decodes of *corpus* on the given entropy engine."""
    return [decode_jpeg(b, DecodeOptions(entropy_engine=engine)).rgb
            for b in corpus]


class TestBatchBitIdentity:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_matches_sequential(self, corpus, engine, backend):
        """The service's pixels are each entropy engine's oracle's."""
        with BatchDecoder(workers=2, backend=backend) as dec:
            batch = dec.decode_batch(corpus)
        assert batch.ok
        assert len(batch) == len(corpus)
        for res, oracle in zip(batch, _oracles(corpus, engine)):
            assert res.ok
            assert np.array_equal(res.rgb, oracle)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_split_segments_bit_identical(self, corpus, engine,
                                          fanout_always):
        """Restart-segment fan-out must not change a single bit."""
        with BatchDecoder(workers=5, backend="thread",
                          speculative="off") as dec:
            batch = dec.decode_batch(corpus)
        assert batch.ok
        split_counts = [r.segments for r in batch]
        # Corpus images 1 and 2 carry DRI; they must actually have split.
        assert split_counts[1] > 1 and split_counts[2] > 1
        assert split_counts[0] == 1 and split_counts[3] == 1
        for res, oracle in zip(batch, _oracles(corpus, engine)):
            assert np.array_equal(res.rgb, oracle)

    def test_process_backend_matches_sequential(self, corpus,
                                                sequential_rgbs):
        with BatchDecoder(workers=2, backend="process") as dec:
            batch = dec.decode_batch(corpus)
        assert batch.ok
        for res, oracle in zip(batch, sequential_rgbs):
            assert np.array_equal(res.rgb, oracle)


class TestErrorIsolation:
    def test_corrupt_image_fails_alone(self, corpus, sequential_rgbs):
        bad = corpus[0][:len(corpus[0]) // 2]   # truncated scan
        items = [corpus[0], bad, corpus[3], b"not a jpeg at all"]
        with BatchDecoder(workers=2, backend="thread") as dec:
            batch = dec.decode_batch(items)
        oks = [r.ok for r in batch]
        assert oks == [True, False, True, False]
        assert np.array_equal(batch.results[0].rgb, sequential_rgbs[0])
        assert np.array_equal(batch.results[2].rgb, sequential_rgbs[3])
        for res in (batch.results[1], batch.results[3]):
            assert res.rgb is None
            assert res.error_type and res.error

    def test_corrupt_segment_fails_only_its_image(self, corpus,
                                                  sequential_rgbs,
                                                  fanout_always):
        """A truncated DRI image under forced splitting fails in
        isolation — the marker-structure validation refuses to fan out
        a scan whose RSTn count no longer matches the DRI interval."""
        dri = corpus[1]
        # Truncate the scan but keep the EOI so headers still parse.
        bad = dri[: len(dri) // 2] + dri[-2:]
        with BatchDecoder(workers=4, backend="thread",
                          speculative="off") as dec:
            batch = dec.decode_batch([dri, bad, corpus[0]])
        assert [r.ok for r in batch] == [True, False, True]
        assert batch.results[1].error_type == "EntropyError"
        assert "segments" in batch.results[1].error
        assert np.array_equal(batch.results[0].rgb, sequential_rgbs[1])

    def test_segment_worker_failure_is_captured(self, corpus):
        """decode_segment_task reports failures on its TaskReply
        instead of raising (the contract the gather loop relies on)."""
        from repro.jpeg import parse_jpeg
        from repro.jpeg.decoder import component_tables_from_info
        from repro.jpeg.parallel_huffman import RestartSegment
        from repro.service.fanout import decode_segment_task
        from repro.service.tasks import TaskReply

        info = parse_jpeg(corpus[1])
        seg = RestartSegment(index=0, byte_start=0, byte_stop=1,
                             mcu_start=0,
                             mcu_count=info.restart_interval)
        # Invalid geometry makes the task fail before any bit is read.
        reply = decode_segment_task(
            seg, b"\x00", (0, 16, "4:2:2"),
            component_tables_from_info(info))
        assert isinstance(reply, TaskReply)
        assert reply.value is None and reply.planes is None
        assert reply.error_type == "JpegError"
        assert "invalid image dimensions" in reply.error
        assert reply.busy_s >= 0

    def test_failed_split_reports_the_plans_segment_count(self, corpus,
                                                          fanout_always):
        """A split image that fails reports how many segments it was
        split into — the plan's subtask count, same as on success —
        not how many happened to decode."""
        from repro.service import FaultPlan

        req = ImageRequest(data=corpus[1])
        with BatchDecoder(workers=2, backend="thread") as dec:
            total = dec.decode_batch([req]).results[0].segments
        assert total > 2
        with BatchDecoder(workers=2, backend="thread",
                          faults=FaultPlan(exception_at={1})) as dec:
            res = dec.decode_batch([req]).results[0]
        assert not res.ok and res.error_type == "RuntimeError"
        assert res.segments == total


def _drain(q: SubmissionQueue, max_items: int) -> list:
    """Take up to *max_items* in arrival order, nothing expired."""
    taken, expired = q.take(max_items, key=lambda item: 0,
                            expired=lambda item: False)
    assert expired == []
    return taken


class TestQueueBackpressure:
    def test_nonblocking_put_raises_when_full(self):
        q = SubmissionQueue(capacity=2)
        q.put("a", timeout=0)
        q.put("b", timeout=0)
        with pytest.raises(QueueFullError):
            q.put("c", timeout=0)
        assert len(q) == 2

    def test_timed_put_raises_after_deadline(self):
        q = SubmissionQueue(capacity=1)
        q.put("a")
        with pytest.raises(QueueFullError, match="timed out"):
            q.put("b", timeout=0.05)

    def test_put_unblocks_after_drain(self):
        q = SubmissionQueue(capacity=1)
        q.put("a", timeout=0)
        assert _drain(q, 1) == ["a"]
        q.put("b", timeout=0)   # space freed: accepted again
        assert _drain(q, 8) == ["b"]
        assert _drain(q, 8) == []

    def test_closed_queue_rejects_puts_but_drains(self):
        q = SubmissionQueue(capacity=4)
        q.put("a")
        q.close()
        with pytest.raises(ServiceClosedError):
            q.put("b")
        assert _drain(q, 4) == ["a"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServiceError):
            SubmissionQueue(capacity=0)

    def test_service_backpressure_and_drain(self, corpus, sequential_rgbs,
                                            held_session):
        svc, blockers = held_session(corpus[0], queue_capacity=2)
        with svc:
            handles = [svc.submit(corpus[0]), svc.submit(corpus[1])]
            with pytest.raises(QueueFullError):
                svc.submit(corpus[2])     # full: backpressure surfaces
            assert svc.pending == 2
            # Waits until the pump frees a slot, then is accepted.
            handles.append(svc.submit(corpus[2], timeout=None))
            results = [h.result(timeout=30) for h in handles]
        # Ids are unique and monotonic; the rejected submission's id (4)
        # is skipped, never reissued.
        assert [b.request_id for b in blockers] == [0, 1]
        assert [r.request_id for r in results] == [2, 3, 5]
        for res, oracle in zip(results, sequential_rgbs):
            assert np.array_equal(res.rgb, oracle)
        assert svc.stats.images_ok == 5

    def test_closed_service_rejects_submissions(self, corpus):
        svc = DecodeSession(backend="serial")
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(corpus[0])


class TestStats:
    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([5.0], 99) == 5.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_wall_us_populated_only_with_results(self, corpus):
        """Every decoded result carries its real worker busy time."""
        with BatchDecoder(backend="thread", workers=2) as dec:
            batch = dec.decode_batch(corpus)
        for result in batch:
            assert result.wall_us is not None and result.wall_us > 0


class TestWorkerPool:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError):
            WorkerPool(backend="gpu-cluster")

    def test_zero_workers_rejected(self):
        with pytest.raises(ServiceError):
            WorkerPool(workers=0, backend="thread")

    def test_serial_submit_resolves_inline(self):
        with WorkerPool(backend="serial") as pool:
            assert pool.submit(lambda x: x + 1, 41).result() == 42

    def test_closed_pool_rejects_submissions(self):
        pool = WorkerPool(backend="serial")
        pool.close()
        with pytest.raises(ServiceClosedError):
            pool.submit(lambda: None)


# ---------------------------------------------------------------------------
# One look at the bytes: the parent walks each request's header once
# (``tasks.read_header`` → ``markers.walk_header``; a session does it at
# submit, on the caller's thread), and parses one in full only for a
# fan-out candidate, whose plan needs the tables and the scan.
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, name: str) -> list[str]:
    """Every call of ``repro.jpeg.markers.<name>`` made in this process,
    as the name of the calling module.  Process-pool workers run in
    their own processes and never show up here; serial/thread "workers"
    do, under ``repro.jpeg.*``."""
    import sys

    from repro.jpeg import markers

    callers: list[str] = []
    real = getattr(markers, name)

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("repro.") \
                and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return callers


@pytest.fixture
def parent_parses(monkeypatch):
    """Every ``parse_jpeg`` call, by calling module."""
    return _count_calls(monkeypatch, "parse_jpeg")


@pytest.fixture
def parent_walks(monkeypatch):
    """Every ``walk_header`` call, by calling module."""
    return _count_calls(monkeypatch, "walk_header")


class TestOneHeaderRead:
    ONE_EACH = ["repro.service.tasks"] * 4

    def test_scheduled_batch_walks_each_request_once(self, corpus,
                                                     parent_parses,
                                                     parent_walks):
        with BatchDecoder(workers=2, backend="process",
                          scheduler="model") as dec:
            parent_parses.clear()       # construction profiles the lanes
            batch = dec.decode_batch(corpus)
        assert batch.ok
        assert parent_walks == self.ONE_EACH
        assert parent_parses == []

    @pytest.mark.parametrize("scheduled", [False, True])
    def test_forced_fanout_parses_each_request_once(self, tiny_rgb,
                                                    scheduled,
                                                    parent_parses,
                                                    parent_walks,
                                                    fanout_always):
        """Segment and speculative plans are built from the one full
        parse a fan-out candidate gets — also behind a scheduler."""
        from repro.evaluation import platforms
        from repro.service import ModelScheduler
        from repro.service.scheduler import ExecutorLane

        blobs = [encode_jpeg(tiny_rgb, EncoderSettings(
            quality=85, subsampling="4:2:0", restart_interval=dri))
            for dri in (2, 0)]
        scheduler = ModelScheduler(executors=(
            ExecutorLane("gpu", "gpu", platforms.GTX560),)) \
            if scheduled else None
        with BatchDecoder(workers=3, backend="process",
                          scheduler=scheduler) as dec:
            parent_parses.clear()
            batch = dec.decode_batch(blobs)
        assert parent_walks == ["repro.service.tasks"] * 2
        assert parent_parses == ["repro.service.batch"] * 2
        segmented, speculated = batch.results
        assert segmented.segments > 1 and not segmented.speculative
        assert speculated.segments > 1 and speculated.speculative
        for res, blob in zip(batch, blobs):
            assert np.array_equal(res.rgb, decode_jpeg(blob).rgb)

    def test_pumped_session_walks_each_request_once(self, corpus,
                                                    sequential_rgbs,
                                                    parent_parses,
                                                    parent_walks):
        with DecodeSession(workers=2, backend="process",
                           scheduler="model") as sess:
            parent_parses.clear()
            handles = [sess.submit(b, timeout=None) for b in corpus]
            results = [h.result(timeout=60) for h in handles]
        assert parent_walks == self.ONE_EACH
        assert parent_parses == []
        for res, oracle in zip(results, sequential_rgbs):
            assert np.array_equal(res.rgb, oracle)

    def test_session_walks_at_submit_not_at_admission(self, corpus,
                                                      parent_walks,
                                                      held_session):
        """The header rides the queue entry: ``submit`` walks on the
        caller's thread, admission reads nothing."""
        sess, _ = held_session(corpus[0])
        with sess:
            parent_walks.clear()
            handles = [sess.submit(b) for b in corpus]
            assert sess.pending == len(corpus)
            assert parent_walks == self.ONE_EACH
            assert all(h.result(timeout=60).ok for h in handles)
            assert parent_walks == self.ONE_EACH

    def test_lease_alone_costs_one_walk(self, corpus, parent_parses,
                                        parent_walks, shm_floor_zero):
        with BatchDecoder(workers=2, backend="process") as dec:
            if dec.arena is None:
                pytest.skip("POSIX shared memory unavailable")
            batch = dec.decode_batch(corpus)
        assert batch.ok and dec.stats.bytes_shm > 0
        assert parent_walks == self.ONE_EACH
        assert parent_parses == []

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_nothing_to_decide_costs_no_parse(self, corpus, backend,
                                              parent_parses, parent_walks):
        """No scheduler, no lease, enough whole images to fill the pool:
        one walk each, and the only parses are the decodes' own."""
        with BatchDecoder(workers=2, backend=backend) as dec:
            batch = dec.decode_batch(corpus)
        assert batch.ok
        assert parent_walks == self.ONE_EACH
        assert parent_parses == ["repro.jpeg.decoder"] * 4
