"""asyncio over a plain session, spelled with the standard library: a
handle is a ``concurrent.futures.Future``, so ``asyncio.wrap_future``
awaits it on any loop and ``asyncio.to_thread`` keeps blocking calls
(backpressure, close) off the loop."""

from __future__ import annotations

import asyncio
import concurrent.futures
from time import perf_counter

import numpy as np
import pytest

from repro.errors import QueueFullError
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import DecodeSession, ImageRequest


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
        with DecodeSession(backend="thread",
                           workers=2) as sess:
            return await asyncio.gather(
                *(asyncio.wrap_future(sess.submit(b)) for b in corpus))

    results = asyncio.run(main())
    for res, oracle in zip(results, sequential_rgbs):
        assert res.ok
        assert np.array_equal(res.rgb, oracle)


def test_completion_stream_overlaps_producer(corpus, sequential_rgbs):
    """An asyncio producer submits while the consumer reads results in
    completion order from a queue the wrapped futures' done callbacks
    feed."""
    total = 2 * len(corpus)

    async def main():
        with DecodeSession(backend="thread",
                           workers=2) as sess:
            completions: asyncio.Queue = asyncio.Queue()

            async def produce():
                for blob in 2 * corpus:
                    asyncio.wrap_future(sess.submit(blob)).add_done_callback(
                        completions.put_nowait)
                    await asyncio.sleep(0.002)

            producer = asyncio.create_task(produce())
            got = [(await completions.get()).result() for _ in range(total)]
            await producer
            return got

    got = asyncio.run(main())
    assert len(got) == total
    # Ids are assigned in submission order; completion order is
    # arbitrary, so map each result back to its oracle by id.
    assert sorted(res.request_id for res in got) == list(range(total))
    for res in got:
        assert res.ok
        oracle = sequential_rgbs[res.request_id % len(corpus)]
        assert np.array_equal(res.rgb, oracle)


def test_unbounded_stream_ends_when_idle(corpus):
    """``asyncio.as_completed`` over the submitted handles yields each
    result once and ends when the last one is in."""
    async def main():
        with DecodeSession(backend="thread",
                           workers=2) as sess:
            futures = [asyncio.wrap_future(sess.submit(b)) for b in corpus]
            return [await f for f in asyncio.as_completed(futures)]

    results = asyncio.run(main())
    assert len(results) == len(corpus)
    assert all(r.ok for r in results)


def test_decode_failure_resolves_future():
    async def main():
        with DecodeSession(backend="serial") as sess:
            return await asyncio.wrap_future(
                sess.submit(b"definitely not a jpeg"))

    res = asyncio.run(main())
    assert not res.ok
    assert res.error_type and res.error


def test_one_handle_awaited_from_two_loops(corpus, sequential_rgbs):
    """A handle belongs to no event loop: successive ``asyncio.run``
    loops each await the same one."""
    with DecodeSession(backend="serial") as sess:
        handle = sess.submit(corpus[2])
        assert isinstance(handle, concurrent.futures.Future)
        first = asyncio.run(_await(handle))
        second = asyncio.run(_await(handle))
    assert first is second
    assert np.array_equal(first.rgb, sequential_rgbs[2])


async def _await(handle):
    """Await *handle* on the running loop."""
    return await asyncio.wrap_future(handle)


def test_cancelling_the_wrapped_future_cancels_the_handle(corpus,
                                                         held_session):
    sess, _ = held_session(corpus[2])
    handle = sess.submit(corpus[2])

    async def main():
        future = asyncio.wrap_future(handle)
        future.cancel()
        await asyncio.sleep(0)

    asyncio.run(main())
    sess.close(drain=False)
    assert handle.cancelled()


async def _fill_window(sess: DecodeSession, blob: bytes) -> list:
    """Submit two requests to a ``stalled_session`` (one per
    ``DISPATCH_DEPTH`` slot of its one worker) and wait until both are
    admitted, so the queue is empty and the window full for about a
    second; what is submitted next stays queued."""
    blockers = [asyncio.wrap_future(sess.submit(blob)) for _ in range(2)]
    for _ in range(1000):
        if sess.pending == 0:
            return blockers
        await asyncio.sleep(0.005)
    raise AssertionError("the pump never admitted the stalled requests")


def test_failfast_submit_raises_queuefull(corpus, stalled_session):
    """``timeout=0`` never blocks, so it runs on the loop itself and
    raises QueueFullError once the bounded queue fills (nothing drains
    while the window is held by stalled decodes)."""
    async def main():
        sess = stalled_session(queue_capacity=2)
        try:
            await _fill_window(sess, corpus[0])
            sess.submit(corpus[0], timeout=0)
            sess.submit(corpus[0], timeout=0)
            with pytest.raises(QueueFullError):
                sess.submit(corpus[0], timeout=0)
        finally:
            await asyncio.to_thread(sess.close, False)

    asyncio.run(main())


def test_close_drain_false_cancels_futures(corpus, stalled_session):
    async def main():
        sess = stalled_session()
        blockers = await _fill_window(sess, corpus[0])
        queued = [asyncio.wrap_future(sess.submit(corpus[0]))
                  for _ in range(3)]
        await asyncio.to_thread(sess.close, False)
        await asyncio.wait(queued, timeout=5)
        return [await f for f in blockers], queued

    in_flight, queued = asyncio.run(main())
    assert all(f.cancelled() for f in queued)
    # What was in flight still resolved.
    assert all(res.ok for res in in_flight)


def test_blocking_submit_off_the_loop_overlaps_consumer(corpus,
                                                        sequential_rgbs,
                                                        stalled_session):
    """A producer whose submits wait for queue space in a thread keeps
    the loop free: the consumer receives the first result while the
    producer is still blocked on a later submit."""
    blobs = [corpus[0]] * 5

    async def main():
        sess = stalled_session(queue_capacity=1)
        pending: asyncio.Queue = asyncio.Queue()
        received: list[float] = []

        async def produce():
            try:
                for blob in blobs:
                    handle = await asyncio.to_thread(sess.submit, blob, None)
                    await pending.put(asyncio.wrap_future(handle))
                return perf_counter()
            finally:
                await pending.put(None)

        producer = asyncio.create_task(produce())
        got = []
        while (future := await pending.get()) is not None:
            got.append(await future)
            received.append(perf_counter())
        produced_at = await producer
        await asyncio.to_thread(sess.close, True)
        return got, received, produced_at

    got, received, produced_at = asyncio.run(main())
    # One worker, a window of two and one queue slot: the fifth submit
    # waits for the second decode, a full stall after the first.
    assert received[0] < produced_at
    assert [res.request_id for res in got] == list(range(len(blobs)))
    for res in got:
        assert res.ok
        assert np.array_equal(res.rgb, sequential_rgbs[0])


def test_image_request_passthrough(corpus, sequential_rgbs):
    async def main():
        with DecodeSession(backend="serial") as sess:
            return await asyncio.wrap_future(sess.submit(ImageRequest(
                data=corpus[0], request_id="tagged")))

    res = asyncio.run(main())
    assert res.request_id == "tagged"
    assert np.array_equal(res.rgb, sequential_rgbs[0])


def test_stats_snapshot_reachable(corpus):
    async def main():
        with DecodeSession(backend="serial") as sess:
            await asyncio.wrap_future(sess.submit(corpus[2]))
            assert sess.pending == 0
            assert not sess.closed
            return sess.stats_snapshot()

    snap = asyncio.run(main())
    assert snap["images_ok"] == 1
