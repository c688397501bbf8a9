"""Asyncio front end over :class:`~repro.service.session.DecodeSession`.

:class:`AsyncDecodeSession` adapts the thread-world session to an
asyncio application without adding any decoding machinery of its own:

- ``await submit(...)`` returns an :class:`asyncio.Future` resolving to
  an :class:`~repro.service.batch.ImageResult`.  Blocking submission
  (``timeout=None`` or positive — the backpressure path) runs in the
  loop's default executor so the event loop never stalls on a full
  queue; the fail-fast mode (``timeout=0``) submits inline and raises
  :class:`~repro.errors.QueueFullError` immediately.
- Completions cross from the pump thread into the loop via
  ``loop.call_soon_threadsafe`` — the only sanctioned way to touch an
  asyncio loop from another thread.
- ``async for result in session.completed(count=n)`` streams results in
  *completion* order (not submission order), which is how an asyncio
  producer overlaps submission with consumption.

One session binds to one running event loop (the loop of the first
``submit``); using it from a second loop raises.  Lifecycle mirrors the
sync session: ``await close(drain=...)`` (the blocking close runs in
the executor), ``async with`` drains on exit.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, AsyncIterator

from ..errors import ServiceError
from .batch import ImageRequest, ImageResult
from .session import DecodeHandle, DecodeSession


class AsyncDecodeSession:
    """Asyncio adapter: async submit, asyncio futures, completion stream.

    Constructor keyword arguments are forwarded verbatim to
    :class:`~repro.service.session.DecodeSession` (``max_batch``,
    ``queue_capacity``, ``workers``, ``backend``, ``scheduler``, ...) —
    the pump thread always runs; a pull-driven async session would
    defeat the point.
    """

    def __init__(self, **session_kwargs: Any) -> None:
        """Create the underlying pumped session; no loop is bound yet."""
        session_kwargs.pop("pump", None)
        self._session = DecodeSession(pump=True, **session_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._done_q: asyncio.Queue | None = None
        self._submitted = 0
        self._delivered = 0

    # -- loop binding ---------------------------------------------------

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        """Bind to (and validate against) the running event loop."""
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._done_q = asyncio.Queue()
        elif self._loop is not loop:
            raise ServiceError(
                "AsyncDecodeSession is bound to a different event loop")
        return loop

    # -- submission -----------------------------------------------------

    async def submit(self, item: bytes | ImageRequest,
                     timeout: float | None = None) -> "asyncio.Future[ImageResult]":
        """Submit one image; returns an asyncio future for its result.

        *timeout* is the queue-space timeout: ``None`` (default) applies
        backpressure by waiting — in the loop's default executor, so
        other coroutines keep running — until the bounded queue has
        space; ``0`` fails fast with
        :class:`~repro.errors.QueueFullError`.  The returned future
        resolves to the :class:`~repro.service.batch.ImageResult`
        (``ok=False`` results resolve normally, matching the sync
        session's error-isolation contract) and is cancelled when the
        session closes with ``drain=False``.
        """
        loop = self._bind_loop()
        if timeout == 0:
            handle = self._session.submit(item, timeout=0)
        else:
            handle = await loop.run_in_executor(
                None, partial(self._session.submit, item, timeout))
        future: asyncio.Future[ImageResult] = loop.create_future()
        self._submitted += 1
        handle.add_done_callback(partial(self._on_done, loop, future))
        return future

    def _on_done(self, loop: asyncio.AbstractEventLoop,
                 future: "asyncio.Future[ImageResult]",
                 handle: DecodeHandle) -> None:
        """Pump-thread side: marshal one completion onto the loop."""
        loop.call_soon_threadsafe(self._deliver, future, handle)

    def _deliver(self, future: "asyncio.Future[ImageResult]",
                 handle: DecodeHandle) -> None:
        """Loop side: resolve the asyncio future and feed the stream."""
        self._delivered += 1
        if handle.cancelled():
            if not future.done():
                future.cancel()
            self._done_q.put_nowait(None)
            return
        exc = handle.exception(timeout=0)
        if exc is not None:
            if not future.done():
                future.set_exception(exc)
            self._done_q.put_nowait(None)
            return
        result = handle.result(timeout=0)
        if not future.done():
            future.set_result(result)
        self._done_q.put_nowait(result)

    # -- completion stream ----------------------------------------------

    async def completed(self, count: int | None = None
                        ) -> AsyncIterator[ImageResult]:
        """Stream results in completion order.

        Yields each successfully *resolved*
        :class:`~repro.service.batch.ImageResult` (including
        ``ok=False`` decode failures) as it arrives.  *count* bounds the
        number of **completions** consumed — cancellations and
        infrastructure failures count toward it but are not yielded, so
        a producer/consumer pair can run concurrently with a known
        request total.  With ``count=None`` the stream ends once every
        request submitted so far has completed and the session is idle.
        """
        self._bind_loop()
        consumed = 0
        while True:
            if count is not None:
                if consumed >= count:
                    return
            elif self._delivered >= self._submitted and self._done_q.empty():
                return
            item = await self._done_q.get()
            consumed += 1
            if item is not None:
                yield item

    def __aiter__(self) -> AsyncIterator[ImageResult]:
        """``async for result in session`` — the unbounded stream."""
        return self.completed()

    # -- observability ---------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests accepted but not yet admitted to the pool."""
        return self._session.pending

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        return self._session.closed

    def stats_snapshot(self) -> dict:
        """JSON-ready statistics snapshot (see
        :meth:`~repro.service.session.DecodeSession.stats_snapshot`)."""
        return self._session.stats_snapshot()

    # -- lifecycle -------------------------------------------------------

    async def close(self, drain: bool = True) -> None:
        """Close the underlying session without blocking the loop.

        ``drain=True`` completes all accepted work first;
        ``drain=False`` cancels pending handles (their asyncio futures
        are cancelled too).  Idempotent.
        """
        loop = self._bind_loop()
        await loop.run_in_executor(
            None, partial(self._session.close, drain))

    async def __aenter__(self) -> "AsyncDecodeSession":
        """Async context-manager entry: the session itself."""
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        """Async context-manager exit: close with a full drain."""
        await self.close(drain=True)
