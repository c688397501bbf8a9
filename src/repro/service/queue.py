"""Bounded submission queue with backpressure.

The service's ingress: producers :meth:`~SubmissionQueue.put` requests
and a consumer — the :class:`~repro.service.session.DecodeSession`
pump thread — drains them with :meth:`~SubmissionQueue.take`, most
urgent first: requests stay queued, and count against the capacity,
until the moment a worker has room for them.  Both ends are safe under concurrency: any number of
producer threads may block in ``put`` while the consumer drains (one
condition variable serializes slot claims, so no request is ever lost
or duplicated).  Capacity is a hard bound —
when the queue is full, ``put`` either blocks (bounded by *timeout*) or
fails fast with :class:`~repro.errors.QueueFullError`, which is the
backpressure signal a front end propagates to its clients (HTTP 429,
drop, retry-after).

Implemented on a ``collections.deque`` + ``threading.Condition`` rather
than ``queue.Queue`` so that close semantics and batch draining are
first-class: closing wakes all blocked producers, and ``take`` sheds
and dequeues in one lock acquisition.  The consumer never blocks here:
it sleeps on something else as well (the session pump waits on "a
request arrived *or* a decode finished") and passes *on_change*, which
is called after every ``put`` and after ``close``, once the item is
visible to ``take``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from ..errors import QueueFullError, ServiceClosedError, ServiceError


class SubmissionQueue:
    """Thread-safe bounded FIFO of pending decode requests."""

    def __init__(self, capacity: int = 32,
                 on_change: Callable[[], None] | None = None) -> None:
        """Create a queue holding at most *capacity* pending requests;
        *on_change* is the consumer's arrival/close wake-up."""
        if capacity <= 0:
            raise ServiceError(
                f"queue capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._on_change = on_change
        self._items: deque[Any] = deque()
        self._cond = threading.Condition()
        self._closed = False

    @property
    def capacity(self) -> int:
        """Maximum number of pending requests."""
        return self._capacity

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    @property
    def space(self) -> int:
        """Free request slots (advisory under concurrent producers —
        another thread may claim a slot between reading this and
        :meth:`put`; the ``put`` return path is the authority)."""
        with self._cond:
            return max(0, self._capacity - len(self._items))

    def __len__(self) -> int:
        """Number of requests currently pending."""
        return len(self._items)

    def put(self, item: Any, timeout: float | None = None,
            limit: int | None = None) -> None:
        """Enqueue *item*, applying backpressure when full.

        ``timeout=None`` blocks until space frees up (or the queue
        closes); ``timeout=0`` never blocks; a positive timeout blocks at
        most that long.  Raises :class:`QueueFullError` when the bound
        holds at the deadline and :class:`ServiceClosedError` when the
        queue is (or becomes) closed.

        *limit*, when given, caps this ``put``'s view of the capacity at
        ``min(capacity, limit)`` — the weighted-shedding hook: a
        low-priority producer admitting only into half the queue starts
        seeing :class:`QueueFullError` while higher classes still have
        headroom.
        """
        capacity = self._capacity if limit is None \
            else max(1, min(self._capacity, limit))
        with self._cond:
            if timeout == 0:
                if self._closed:
                    raise ServiceClosedError("submission queue is closed")
                if len(self._items) >= capacity:
                    raise QueueFullError(
                        f"submission queue full ({capacity} pending)")
            else:
                ok = self._cond.wait_for(
                    lambda: self._closed
                    or len(self._items) < capacity,
                    timeout=timeout,
                )
                if self._closed:
                    raise ServiceClosedError("submission queue is closed")
                if not ok:
                    raise QueueFullError(
                        f"submission queue full ({capacity} pending, "
                        f"timed out after {timeout}s)")
            self._items.append(item)
        if self._on_change is not None:
            self._on_change()

    def take(self, max_items: int, key: Callable[[Any], Any],
             expired: Callable[[Any], bool]) -> tuple[list[Any], list[Any]]:
        """Dequeue out of arrival order: every request *expired* says
        has run out of time, and of the rest the *max_items* most
        urgent (smallest *key*).  Returns ``(taken, expired)``; what
        stays keeps its arrival order.  Never blocks."""
        with self._cond:
            dead, live = [], []
            for item in self._items:
                (dead if expired(item) else live).append(item)
            taken = sorted(live, key=key)[:max_items]
            if dead or taken:
                gone = {id(item) for item in dead + taken}
                self._items = deque(item for item in self._items
                                    if id(item) not in gone)
                self._cond.notify_all()
            return taken, dead

    def close(self) -> None:
        """Refuse further ``put`` calls and wake every blocked waiter.

        Already-queued requests remain drainable via :meth:`take`.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._on_change is not None:
            self._on_change()
