"""Futures-based decode sessions: per-request handles over a rolling
dispatch loop.

A bare :class:`~repro.service.batch.BatchDecoder` is pull-driven — the
caller forms each batch and blocks for it, so submission can never
overlap completion.  :class:`DecodeSession` inverts that: ``submit``
returns a :class:`DecodeHandle` (a :class:`concurrent.futures.Future`)
and one background **pump thread** runs a continuous admit → dispatch →
gather loop over the decoder's in-flight table:

- **window** — at most :data:`DISPATCH_DEPTH` images per worker are in
  flight; the rest wait in the queue, where backpressure applies;
- **admission group** — whenever the window has room the pump takes the
  most urgent pending requests that fit (priority, then earliest
  deadline, then age; expired ones are shed), at most
  :data:`MAX_GROUP` of them, and admits them together: one schedule,
  one feedback observation.  Nothing is held back for company: no worker waits for
  a batch to end, so an idle one gains nothing from waiting;
- **per-plan resolution** — a handle resolves as soon as its own image
  is done, never when a batch is; stats and trace spans fold in first,
  so a completion observer (done callback, ``GET /stats`` right after a
  response) always sees itself counted.

The pump is the session's one driver.  It sleeps on one wake-up — a
decode finished *or* a request arrived — or until a crashed task's
retry falls due, and burns no CPU while idle.  It is also the one
sequential resource left: planning, dispatch and a fanned-out frame's
stitch + pixel stages all run on it.  Everything the batch
layer guarantees (bit-identity with ``decode_jpeg``, per-image error
isolation, fan-out) holds unchanged; a failed decode *resolves* its
handle with an ``ok=False`` result rather than raising, exactly like
the batch API.

Sessions are context managers (see :meth:`DecodeSession.close` for
drain vs cancel).  The HTTP shim (:mod:`repro.service.http`) layers on
this class, asyncio code awaits a handle with :func:`asyncio.wrap_future`,
and ``repro serve-batch`` submits its files to one and reports each
handle as it resolves.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import Future, InvalidStateError
from contextlib import suppress
from time import perf_counter, time
from typing import Any

from ..errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from ..jpeg.markers import FrameInfo
from .batch import BatchDecoder, ImageRequest, ImageResult
from .obs import ObsHub, child_span, make_span
from .queue import SubmissionQueue
from .scheduler import ModelScheduler
from .tasks import read_header

#: Weighted-shedding admission fractions by priority class: the share
#: of the submission queue each class may fill.  Low-priority requests
#: (class 0) only admit into half the queue, normal (class 1) into 90%;
#: high (class 2) and any higher class use the full capacity — so under
#: overload the low classes shed first and high-priority latency is
#: preserved.
DEFAULT_SHED_FRACTIONS: dict[int, float] = {0: 0.5, 1: 0.9}

#: Images the pump keeps in flight per worker: one running and one
#: queued behind it, which hides the 0.3-0.7 ms dispatch round trip
#: (``workers.dispatch_rtt_ms``) between a worker finishing and its next
#: task arriving.  Deeper only lets requests age inside the pool, where
#: neither priority, deadline nor ``close(drain=False)`` can reach them.
DISPATCH_DEPTH = 2

#: Most pending requests admitted as one group (one schedule, one
#: feedback observation).  It binds only where the window exceeds it —
#: a sharded front tier of many deep links.
MAX_GROUP = 8


class DecodeHandle(Future):
    """The :class:`concurrent.futures.Future` of one submitted decode.

    It resolves to an :class:`~repro.service.batch.ImageResult`, also
    when the decode failed (``ok=False``); only infrastructure faults
    (a dead worker pool) raise, and ``close(drain=False)`` cancels.
    ``cancel()`` is best-effort: it succeeds until the handle resolves,
    and the decode may still run.  From asyncio, on any loop: ``await
    asyncio.wrap_future(session.submit(x))`` (cancelling it cancels the
    handle); ``await asyncio.to_thread(session.submit, x, None)`` waits
    for queue space off the loop; ``asyncio.as_completed`` yields in
    completion order; ``await asyncio.to_thread(session.close, drain)``.
    """

    def __init__(self, request: ImageRequest,
                 header: FrameInfo | None) -> None:
        """A pending handle for *request*; it rides the queue to admission
        with *header*, the request's :func:`read_header` at submit."""
        super().__init__()
        self.request_id = request.request_id
        self.request, self.header = request, header
        #: perf_counter at submission; the pump's age deadline and the
        #: submit-to-completion latency both measure from here.
        self.submitted_at = perf_counter()
        #: Absolute ``perf_counter`` instant the request expires (None =
        #: no deadline): submission time plus ``deadline_ms``.
        self.deadline_at = None if request.deadline_ms is None \
            else self.submitted_at + request.deadline_ms / 1e3

    @property
    def edf_key(self) -> tuple[float, float, float]:
        """Admission sort key: priority class first (higher
        classes dispatch ahead of lower ones), then earliest deadline,
        then FIFO age; deadline-free requests sort after every
        deadlined one of their class."""
        return (-self.request.priority,
                self.deadline_at if self.deadline_at is not None
                else math.inf, self.submitted_at)

    def _set_result(self, result: ImageResult) -> None:
        """Resolve with *result*; a lost race against cancel (or an
        earlier resolution) is a no-op."""
        with suppress(InvalidStateError):
            self.set_result(result)

    def _set_exception(self, exc: BaseException) -> None:
        """Fail with an infrastructure error; same no-op rule."""
        with suppress(InvalidStateError):
            self.set_exception(exc)


class DecodeSession:
    """Push-driven decode front end: futures in, a rolling window of
    decodes underneath.

    ``submit`` enqueues a request and immediately returns its
    :class:`DecodeHandle`; the background pump thread admits requests
    whenever a worker has room and resolves each handle as its image
    finishes.
    """

    def __init__(self, queue_capacity: int = 32,
                 workers: int | None = None, backend: str | None = None,
                 scheduler: ModelScheduler | str | None = None,
                 retry_budget: int | None = None,
                 faults: "object | None" = None,
                 default_deadline_ms: float | None = None,
                 tracing: str = "off", trace_sample: float = 0.1,
                 trace_log: "str | None" = None) -> None:
        """Build queue, decoder and the pump; pending requests are
        admitted as soon as the window has room.

        *default_deadline_ms* applies to every request that does not
        carry its own ``deadline_ms`` (None = no default deadline);
        admission orders pending requests earliest-deadline-first
        and requests whose deadline passes before their decode starts
        resolve with :class:`~repro.errors.DeadlineExceededError`.
        *retry_budget*/*faults* forward to
        :class:`~repro.service.batch.BatchDecoder` (worker-crash retry
        policy and chaos injection); the remaining knobs are those of
        :class:`~repro.service.batch.BatchDecoder` /
        :class:`~repro.service.queue.SubmissionQueue`.  Fan-out follows
        the decoder's ``"auto"`` policy.

        *tracing* (``"off"``/``"on"``/``"sample"``)
        gates whether :meth:`submit` creates a root
        :class:`~repro.service.obs.TraceContext` for requests that do
        not already carry one — a request submitted *with* a context
        (a remote host replaying a client's trace) is always honored
        regardless of the local mode.  *trace_sample* is the sampled
        fraction in ``sample`` mode, *trace_log* a JSON-lines span log.
        """
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ServiceError(
                f"default_deadline_ms must be positive, "
                f"got {default_deadline_ms}")
        self.default_deadline_ms = default_deadline_ms
        # One wake-up for the pump: arrivals and completions both set it.
        self.queue = SubmissionQueue(
            capacity=queue_capacity,
            on_change=lambda: self.decoder.wake.set())
        self.decoder = BatchDecoder(
            workers=workers, backend=backend, scheduler=scheduler,
            faults=faults,
            **({} if retry_budget is None
               else {"retry_budget": retry_budget}))
        self._window = DISPATCH_DEPTH * self.decoder.workers
        self.obs = ObsHub(mode=tracing, sample_rate=trace_sample,
                          log_path=trace_log)
        #: The decoder's one record, to which the session adds only what
        #: it alone sees: sheds, deadline drops, latency, busy intervals.
        self.stats = self.decoder.stats
        self._stats_lock = threading.Lock()
        self._ids = itertools.count()     # next() is atomic
        self._closed = False
        self._close_lock = threading.Lock()
        self._cancel_pending = False
        self._pump_thread = threading.Thread(
            target=self._pump_loop, name="decode-session-pump", daemon=True)
        self._pump_thread.start()

    # -- submission -----------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        return self._closed

    @property
    def pending(self) -> int:
        """Requests accepted but not yet admitted to the pool."""
        return len(self.queue)

    def submit(self, item: bytes | ImageRequest,
               timeout: float | None = 0) -> DecodeHandle:
        """Enqueue one image; returns its :class:`DecodeHandle`.

        ``timeout=0`` (default) fails fast with
        :class:`~repro.errors.QueueFullError` when the queue is at
        capacity — the backpressure signal front ends propagate (HTTP
        429); ``timeout=None`` blocks until space frees up, a positive
        timeout blocks at most that long.  Raises
        :class:`~repro.errors.ServiceClosedError` after :meth:`close`.

        Auto-assigned request ids are unique and monotonically
        increasing even under concurrent producers; an id is skipped
        (never reissued) when the queue rejects its submission.  The
        request's header is read here, on the caller's thread (for HTTP,
        the handler threads), and rides the handle to admission.
        """
        if self._closed:
            raise ServiceClosedError("decode session is closed")
        req = item if isinstance(item, ImageRequest) \
            else ImageRequest(data=bytes(item))
        if req.deadline_ms is None and self.default_deadline_ms is not None:
            req = req._replace(deadline_ms=self.default_deadline_ms)
        if req.deadline_ms is not None and req.deadline_ms <= 0:
            raise ServiceError(
                f"deadline_ms must be positive, got {req.deadline_ms}")
        if not isinstance(req.priority, int) or isinstance(req.priority, bool) \
                or req.priority < 0:
            raise ServiceError(
                f"priority must be a non-negative integer, "
                f"got {req.priority!r}")
        if req.request_id is None:
            req = req._replace(request_id=next(self._ids))
        if req.trace is None:
            # Mode gate applies only to trace *creation*; a propagated
            # context (remote host replaying a client trace) is always
            # honored, so hosts need no tracing configuration.
            ctx = self.obs.maybe_start_trace()
            if ctx is not None:
                req = req._replace(trace=ctx)
        handle = DecodeHandle(req, read_header(req))
        # ceil, so a fraction never shrinks a tiny queue below what an
        # unweighted session would admit (0.9 of capacity 2 is still 2).
        fraction = DEFAULT_SHED_FRACTIONS.get(req.priority)
        limit = (None if fraction is None
                 else max(1, math.ceil(self.queue.capacity * fraction)))
        try:
            self.queue.put(handle, timeout=timeout, limit=limit)
        except QueueFullError:
            with self._stats_lock:
                self.stats.record_shed(req.priority)
            raise
        return handle

    # -- the pump -------------------------------------------------------

    def _form_batch(self, limit: int) -> list[DecodeHandle]:
        """Shed expired requests, then take the *limit* most urgent off
        the queue — called when a worker has room, so the order is
        decided at the last moment.

        Expired requests (deadline passed before a decode slot arrived)
        resolve with :class:`~repro.errors.DeadlineExceededError` —
        shed *before* dispatch, so under overload workers are spent only
        on requests whose clients still wait.  The survivors go
        earliest-deadline-first, the order that minimizes deadline
        misses for one shared resource; deadline-free requests keep
        FIFO order after every deadlined one.
        """
        now = perf_counter()
        batch, expired = self.queue.take(
            limit, key=lambda e: e.edf_key,
            expired=lambda e: e.deadline_at is not None
            and now >= e.deadline_at)
        for e in expired:
            e._set_exception(DeadlineExceededError(
                f"request {e.request_id} missed its "
                f"{e.request.deadline_ms:g} ms deadline before decode"))
        self.stats.deadline_expired += len(expired)
        return batch

    def _pump_loop(self) -> None:
        """Land what finished, admit what fits, sleep until a decode
        finishes, a request arrives or a retry falls due — until the
        session is closed and nothing is pending or in flight.  Clearing
        the wake-up *before* looking means an event between the look and
        the sleep leaves it set: none is slept through."""
        decoder = self.decoder
        while True:
            decoder.wake.clear()
            self._settle_all(decoder.gather())
            self._admit_pending()
            if self.queue.closed and not decoder.in_flight \
                    and not self.pending:
                return
            decoder.wake.wait(decoder.next_due_s())

    def _admit_pending(self) -> None:
        """Admit pending requests, most urgent first, in groups of up to
        :data:`MAX_GROUP` while the window has room."""
        while len(self.queue):
            if self._cancel_pending:
                for e in self._form_batch(self.queue.capacity):
                    e.cancel()
                continue
            room = self._window - self.decoder.in_flight
            if room <= 0:
                return
            entries = self._form_batch(min(room, MAX_GROUP))
            if entries:
                self._admit(entries)

    def _admit(self, handles: list[DecodeHandle]) -> None:
        """Admit the requests of *handles* as one group."""
        with self._stats_lock:
            self.stats.mark_busy(perf_counter())
        group = self.decoder.admit([h.request for h in handles],
                                   [h.header for h in handles])
        group.tag = handles
        if group.error is not None:
            self._fail(group)

    def _fail(self, group) -> None:
        """Infrastructure failed under *group* (closed pool): fail every
        handle it has not resolved, never silently drop one."""
        for e in group.tag:
            e._set_exception(group.error)
        with self._stats_lock:
            if not self.decoder.in_flight:
                self.stats.mark_idle(perf_counter())

    def _settle_all(self, plans) -> None:
        """Settle each plan the decoder hands back, as it lands."""
        for plan in plans:
            try:
                if plan.group.error is not None:
                    self._fail(plan.group)
                else:
                    self._settle(plan.group, plan.index)
            except Exception as exc:    # a fold failed, not the decode:
                plan.group.tag[plan.index]._set_exception(exc)

    def _settle(self, group, index: int) -> None:
        """One image is done: stamp latency, count it, fold feedback and
        spans, *then* resolve its handle — so a completion observer
        always sees itself counted.  The per-group folds (one
        ``scheduler.observe``, one per-lane placement record) ride on
        the image that completes its group."""
        handle, result = group.tag[index], group.results[index]
        now = perf_counter()
        # True submit-to-completion latency (the dispatch core only
        # measured from admission).
        result.latency_s = now - handle.submitted_at
        ctx = handle.request.trace
        if ctx is not None:
            # Root span carries the context's own identity; the queue
            # span covers submit -> admission.  Prepended so the root
            # leads — downstream consumers (remote host wire encoding,
            # the trace log) see one self-contained span list.
            result.trace_spans = [
                make_span(ctx, "request", "session", "dispatch",
                          handle.submitted_at, now,
                          request_id=str(handle.request_id),
                          ok=result.ok),
                child_span(ctx, "queue", "session", "dispatch",
                           handle.submitted_at, group.admitted_at,
                           priority=handle.request.priority),
            ] + result.trace_spans
            self.obs.record_spans(result.trace_spans)
        scheduler = self.decoder.scheduler
        with self._stats_lock:
            self.stats.record_image(result.ok, result.latency_s)
            if not group.open and group.schedule is not None \
                    and scheduler is not None:
                scheduler.observe(group.schedule, group.results,
                                  lane_failures=group.lane_failures)
                self.stats.record_schedule(group.schedule, group.results)
            if not self.decoder.in_flight:
                self.stats.mark_idle(now)
        handle._set_result(result)

    # -- observability --------------------------------------------------

    def retry_after_s(self) -> int:
        """Suggested client back-off in whole seconds, scaled to the
        current backlog: pending requests over the observed service
        rate (images per busy second), clamped to [1, 30].  Before any
        image has completed the rate is unknown and the estimate assumes
        one :data:`MAX_GROUP` drains per second.  This is what HTTP
        429/503/504 responses put in ``Retry-After``."""
        backlog = self.pending
        with self._stats_lock:
            rate = self.stats.images_per_sec
        if rate <= 0:
            rate = float(MAX_GROUP)
        return int(min(30, max(1, math.ceil(backlog / rate))))

    def stats_snapshot(self) -> dict:
        """JSON-ready snapshot of the running service statistics plus
        queue occupancy, (when scheduled) per-lane feedback state, and
        (when sharded) per-host link health.  A read: nothing it
        reports is written back into :attr:`stats`."""
        with self._stats_lock:
            snap = self.stats.as_dict(pool_rebuilds=self.decoder.rebuilds)
        snap["pending"] = len(self.queue)
        snap["in_flight"] = self.decoder.in_flight
        snap["queue_capacity"] = self.queue.capacity
        snap["queue_space"] = self.queue.space
        snap["default_deadline_ms"] = self.default_deadline_ms
        snap["retry_budget"] = self.decoder.retry_budget
        snap["closed"] = self._closed
        snap["tracing"] = {"mode": self.obs.mode, **self.obs.counters()}
        snap["uptime_s"] = max(0.0, time() - self.obs.started_at)
        snap["transport"]["mode"] = self.decoder.transport
        if self.decoder.scheduler is not None:
            snap["scheduler"] = self.decoder.scheduler.snapshot()
        # The distributed mirror of per_executor: each host link's wire
        # counters (its lane's breaker is in the scheduler section).
        snap["per_host"] = {
            name: link.describe()
            for name, link in sorted(self.decoder.links.items())}
        return snap

    # -- lifecycle ------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut the session down; idempotent.

        ``drain=True`` decodes every request already accepted (the pump
        finishes the queue), then closes the pool.  ``drain=False``
        cancels every request not yet admitted — what is in flight still
        resolves.
        Either way, subsequent :meth:`submit` calls raise
        :class:`~repro.errors.ServiceClosedError`.
        """
        with self._close_lock:
            if self._closed:
                return
            self._cancel_pending = not drain
            self._closed = True
            self.queue.close()   # refuse new puts, wake the pump
        self._pump_thread.join()
        self.decoder.close()

    def __enter__(self) -> "DecodeSession":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close with a full drain."""
        self.close(drain=True)
