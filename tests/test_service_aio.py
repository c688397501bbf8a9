"""Asyncio front end: async submit, future resolution on the loop,
completion streaming, backpressure off the event loop, lifecycle."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import QueueFullError, ServiceError
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.evaluation import platforms
from repro.service import (
    AsyncDecodeSession,
    FaultPlan,
    ImageRequest,
    default_executors,
)

#: Seconds each dispatch on a browned-out lane sleeps first.
STALL_S = 0.5


@pytest.fixture(scope="module")
def corpus(small_rgb, tiny_rgb):
    """Mixed-subsampling corpus (one DRI image for the split path)."""
    return [
        encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:2:2")),
        encode_jpeg(tiny_rgb, EncoderSettings(
            quality=75, subsampling="4:2:0", restart_interval=2)),
        encode_jpeg(tiny_rgb, EncoderSettings(
            quality=90, subsampling="4:4:4")),
    ]


@pytest.fixture(scope="module")
def sequential_rgbs(corpus):
    """Oracle: single-image sequential decodes of the corpus."""
    return [decode_jpeg(b).rgb for b in corpus]


def test_async_submit_resolves_bit_identical(corpus, sequential_rgbs):
    async def main():
        async with AsyncDecodeSession(max_batch=2, backend="thread",
                                      workers=2) as sess:
            futures = [await sess.submit(b) for b in corpus]
            return await asyncio.gather(*futures)

    results = asyncio.run(main())
    for res, oracle in zip(results, sequential_rgbs):
        assert res.ok
        assert np.array_equal(res.rgb, oracle)


def test_completion_stream_overlaps_producer(corpus, sequential_rgbs):
    """An asyncio producer submits while the consumer iterates the
    completion stream — the overlap DecodeService could never offer."""
    total = 2 * len(corpus)

    async def main():
        async with AsyncDecodeSession(max_batch=2, backend="thread",
                                      workers=2) as sess:
            async def produce():
                for blob in 2 * corpus:
                    await sess.submit(blob)
                    await asyncio.sleep(0.002)

            producer = asyncio.create_task(produce())
            got = [res async for res in sess.completed(count=total)]
            await producer
            return got

    got = asyncio.run(main())
    assert len(got) == total
    # Ids are assigned in submission order; completion order is
    # arbitrary, so map each result back to its oracle by id.
    for res in got:
        assert res.ok
        oracle = sequential_rgbs[res.request_id % len(corpus)]
        assert np.array_equal(res.rgb, oracle)


def test_unbounded_stream_ends_when_idle(corpus):
    async def main():
        async with AsyncDecodeSession(max_batch=4, backend="thread",
                                      workers=2) as sess:
            for blob in corpus:
                await sess.submit(blob)
            return [res async for res in sess]

    results = asyncio.run(main())
    assert len(results) == len(corpus)
    assert all(r.ok for r in results)


def test_decode_failure_resolves_future(corpus):
    async def main():
        async with AsyncDecodeSession(max_batch=2, backend="serial") as sess:
            fut = await sess.submit(b"definitely not a jpeg")
            return await fut

    res = asyncio.run(main())
    assert not res.ok
    assert res.error_type and res.error


def _stalled_session(**session_kwargs) -> AsyncDecodeSession:
    """A one-worker scheduled session whose every lane is browned out:
    the first two requests fill its in-flight window (one per
    ``DISPATCH_DEPTH`` slot) for about a second, and what is submitted
    after them stays queued."""
    lanes = {lane.name: STALL_S
             for lane in default_executors(platforms.GTX560)}
    return AsyncDecodeSession(workers=1, backend="thread",
                              scheduler="model",
                              faults=FaultPlan(delay_lanes=lanes),
                              **session_kwargs)


async def _fill_window(sess: AsyncDecodeSession, blob: bytes) -> list:
    """Submit the two stalled requests and wait until both are
    admitted, so the queue is empty and the window full."""
    blockers = [await sess.submit(blob) for _ in range(2)]
    for _ in range(1000):
        if sess.pending == 0:
            return blockers
        await asyncio.sleep(0.005)
    raise AssertionError("the pump never admitted the stalled requests")


def test_failfast_submit_raises_queuefull(corpus):
    """timeout=0 surfaces QueueFullError directly on the awaiting
    coroutine once the bounded queue fills (nothing drains while the
    window is held by stalled decodes)."""
    async def main():
        sess = _stalled_session(queue_capacity=2)
        try:
            await _fill_window(sess, corpus[0])
            await sess.submit(corpus[0], timeout=0)
            await sess.submit(corpus[0], timeout=0)
            with pytest.raises(QueueFullError):
                await sess.submit(corpus[0], timeout=0)
        finally:
            await sess.close(drain=False)

    asyncio.run(main())


def test_close_drain_false_cancels_futures(corpus):
    async def main():
        sess = _stalled_session()
        blockers = await _fill_window(sess, corpus[0])
        futures = [await sess.submit(corpus[0]) for _ in range(3)]
        await sess.close(drain=False)
        # Give call_soon_threadsafe deliveries a tick to land.
        await asyncio.sleep(0.05)
        return blockers, futures

    blockers, futures = asyncio.run(main())
    assert all(f.cancelled() for f in futures)
    # What was in flight still resolved.
    assert all(f.result().ok for f in blockers)


def test_second_loop_rejected(corpus):
    sess_holder = []

    async def first():
        sess = AsyncDecodeSession(backend="serial")
        sess_holder.append(sess)
        await sess.submit(corpus[2])

    async def second():
        with pytest.raises(ServiceError, match="different event loop"):
            await sess_holder[0].submit(corpus[2])
        await asyncio.get_running_loop().run_in_executor(
            None, sess_holder[0]._session.close)

    asyncio.run(first())
    asyncio.run(second())


def test_image_request_passthrough(corpus, sequential_rgbs):
    async def main():
        async with AsyncDecodeSession(max_batch=2, backend="serial") as sess:
            fut = await sess.submit(ImageRequest(
                data=corpus[0], request_id="tagged"))
            return await fut

    res = asyncio.run(main())
    assert res.request_id == "tagged"
    assert np.array_equal(res.rgb, sequential_rgbs[0])


def test_stats_snapshot_reachable(corpus):
    async def main():
        async with AsyncDecodeSession(max_batch=2, backend="serial") as sess:
            await (await sess.submit(corpus[2]))
            assert sess.pending == 0
            assert not sess.closed
            return sess.stats_snapshot()

    snap = asyncio.run(main())
    assert snap["images_ok"] == 1
