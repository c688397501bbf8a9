"""Futures-based decode sessions: per-request handles over a pumped
batch loop.

A bare :class:`~repro.service.batch.BatchDecoder` is pull-driven — the
caller forms each batch and blocks for it, so submission can never
overlap completion.  :class:`DecodeSession` inverts that: ``submit``
returns a :class:`DecodeHandle` (future-like — ``done()``,
``result(timeout)``, ``add_done_callback()``) and a background **pump
thread** forms batches on its own, by size or age:

- a batch dispatches as soon as ``max_batch`` requests are pending, or
- when the *oldest* pending request has waited ``max_delay_ms`` — the
  latency bound that keeps a trickle of traffic from waiting forever
  for a full batch.

Formed batches run through the ordinary
:class:`~repro.service.batch.BatchDecoder` (and therefore through the
model-guided :class:`~repro.service.scheduler.ModelScheduler` when one
is attached), so everything the batch layer guarantees — bit-identity
with :func:`repro.jpeg.decoder.decode_jpeg`, per-image error isolation,
restart-segment fan-out — holds unchanged; a failed decode *resolves*
its handle with an ``ok=False`` :class:`~repro.service.batch.ImageResult`
rather than raising, exactly like the batch API.  Scheduler feedback
(:meth:`~repro.service.scheduler.ModelScheduler.observe`) and
:class:`~repro.service.stats.ServiceStats` accumulation both happen
inside the pump loop, under the session's stats lock, so concurrent
readers (``GET /stats`` in :mod:`repro.service.http`) always see a
consistent snapshot.

Lifecycle: sessions are context managers.  ``close(drain=True)`` (the
default) decodes everything already accepted, then shuts the pool down;
``close(drain=False)`` cancels every pending handle instead
(``handle.cancelled()`` turns true, ``result()`` raises
``CancelledError``).  After close, ``submit`` raises
:class:`~repro.errors.ServiceClosedError`.  Close is idempotent.

The async front end (:mod:`repro.service.aio`) and the HTTP shim
(:mod:`repro.service.http`) both layer on this class; ``repro
serve-batch`` drives a pump-less session (``pump=False``) through
:meth:`DecodeSession.run_once`.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable

from ..errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from .batch import BatchDecoder, BatchResult, ImageRequest, ImageResult
from .obs import ObsHub, child_span, make_span
from .queue import SubmissionQueue
from .scheduler import ModelScheduler
from .stats import ServiceStats

#: Weighted-shedding admission fractions by priority class: the share
#: of the submission queue each class may fill.  Low-priority requests
#: (class 0) only admit into half the queue, normal (class 1) into 90%;
#: high (class 2) and any higher class use the full capacity — so under
#: overload the low classes shed first and high-priority latency is
#: preserved.  Override per session via ``shed_fractions=``.
DEFAULT_SHED_FRACTIONS: dict[int, float] = {0: 0.5, 1: 0.9}


class DecodeHandle:
    """Future-like handle for one submitted decode request.

    Thin, thread-safe wrapper over :class:`concurrent.futures.Future`
    that resolves to an :class:`~repro.service.batch.ImageResult`.
    Decode *failures* still resolve the handle (with ``ok=False`` on the
    result) — only infrastructure faults (a dead worker pool) surface as
    exceptions, and cancellation (``close(drain=False)``) as
    ``CancelledError``.
    """

    def __init__(self, request_id: Any) -> None:
        """Create a pending handle echoing *request_id*."""
        self.request_id = request_id
        #: perf_counter at submission; the pump's age deadline and the
        #: submit-to-completion latency both measure from here.
        self.submitted_at = perf_counter()
        self._future: Future = Future()

    def done(self) -> bool:
        """True once resolved or cancelled."""
        return self._future.done()

    def cancelled(self) -> bool:
        """True when the request was cancelled before it decoded."""
        return self._future.cancelled()

    def cancel(self) -> bool:
        """Best-effort cancel; returns True when the handle was still
        pending.  The decode may still run — only the resolution is
        dropped."""
        return self._future.cancel()

    def result(self, timeout: float | None = None) -> ImageResult:
        """Block up to *timeout* seconds for the decode outcome.

        Raises ``TimeoutError`` at the deadline, ``CancelledError`` when
        the handle was cancelled, and re-raises infrastructure failures.
        """
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The infrastructure exception, or None when the decode
        resolved normally (even with ``ok=False``)."""
        return self._future.exception(timeout)

    def add_done_callback(self, fn: Callable[["DecodeHandle"], None]) -> None:
        """Call ``fn(handle)`` exactly once when the handle completes
        (immediately when already done); exceptions from *fn* are
        swallowed by the Future machinery, never propagated into the
        pump."""
        self._future.add_done_callback(lambda _fut: fn(self))

    # -- resolution (session-internal) ---------------------------------

    def _set_result(self, result: ImageResult) -> None:
        """Resolve with *result*; a lost race against cancel is a no-op."""
        try:
            self._future.set_result(result)
        except InvalidStateError:
            pass

    def _set_exception(self, exc: BaseException) -> None:
        """Fail with an infrastructure error; no-op when cancelled."""
        try:
            self._future.set_exception(exc)
        except InvalidStateError:
            pass


@dataclass
class _Entry:
    """One queued request and the handle that will carry its outcome."""

    request: ImageRequest
    handle: DecodeHandle
    #: Absolute ``perf_counter`` instant the request expires (None = no
    #: deadline): submission time plus ``deadline_ms``.
    deadline_at: float | None = None
    #: Load-shedding priority class (mirrors the request's; see
    #: :data:`DEFAULT_SHED_FRACTIONS`).
    priority: int = 1

    @property
    def edf_key(self) -> tuple[float, float, float]:
        """Batch-forming sort key: priority class first (higher
        classes dispatch ahead of lower ones), then earliest deadline,
        then FIFO age; deadline-free requests sort after every
        deadlined one of their class."""
        return (-self.priority,
                self.deadline_at if self.deadline_at is not None
                else math.inf, self.handle.submitted_at)


class DecodeSession:
    """Push-driven decode front end: futures in, batches underneath.

    ``submit`` enqueues a request and immediately returns its
    :class:`DecodeHandle`; the background pump thread forms batches by
    size (``max_batch``) or age (``max_delay_ms``) and resolves handles
    as results complete.  Construct with ``pump=False`` for the
    pull-driven mode (no thread; the caller drives :meth:`run_once`) —
    that is how ``repro serve-batch`` runs, and the deterministic
    choice for lifecycle tests.
    """

    def __init__(self, max_batch: int = 8, max_delay_ms: float = 2.0,
                 queue_capacity: int = 32,
                 workers: int | None = None, backend: str | None = None,
                 defaults: ImageRequest | None = None,
                 scheduler: ModelScheduler | str | None = None,
                 transport: str = "auto",
                 lane_pools: "object | str | bool | None" = None,
                 shm_min_bytes: int | None = None,
                 retry_budget: int | None = None,
                 retry_backoff_s: float | None = None,
                 faults: "object | None" = None,
                 default_deadline_ms: float | None = None,
                 speculative: str | None = None,
                 shed_fractions: "dict[int, float] | None" = None,
                 tracing: str = "off", trace_sample: float = 0.1,
                 trace_log: "str | None" = None,
                 trace_capacity: int | None = None,
                 pump: bool = True) -> None:
        """Build queue, decoder and (unless ``pump=False``) the pump.

        *shed_fractions* maps priority classes to the share of the
        queue each may fill (weighted shedding; default
        :data:`DEFAULT_SHED_FRACTIONS`).  Classes absent from the map
        admit into the full capacity.

        *max_batch* caps one dispatched batch; *max_delay_ms* bounds how
        long the oldest pending request may wait for the batch to fill.
        *default_deadline_ms* applies to every request that does not
        carry its own ``deadline_ms`` (None = no default deadline);
        batch forming orders pending requests earliest-deadline-first
        and requests whose deadline passes before their decode starts
        resolve with :class:`~repro.errors.DeadlineExceededError`.
        *retry_budget*/*retry_backoff_s*/*faults* forward to
        :class:`~repro.service.batch.BatchDecoder` (worker-crash retry
        policy and chaos injection), as does *speculative*
        (``"auto"``/``"on"``/``"off"`` — the marker-free speculative
        chunk fan-out policy); the remaining knobs are those of
        :class:`~repro.service.batch.BatchDecoder` (including the
        shared-memory *transport* selection and lane-bound executor
        *lane_pools*) / :class:`~repro.service.queue.SubmissionQueue`.

        *tracing* (``"off"``/``"on"``/``"sample"``/``"unobserved"``)
        gates whether :meth:`submit` creates a root
        :class:`~repro.service.obs.TraceContext` for requests that do
        not already carry one — a request submitted *with* a context
        (a remote host replaying a client's trace) is always honored
        regardless of the local mode.  *trace_sample* is the sampled
        fraction in ``sample`` mode, *trace_log* an optional JSON-lines
        span log path, *trace_capacity* the in-memory trace retention.
        """
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(
                f"max_delay_ms must be non-negative, got {max_delay_ms}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ServiceError(
                f"default_deadline_ms must be positive, "
                f"got {default_deadline_ms}")
        self.max_batch = max_batch
        self.max_delay_ms = max_delay_ms
        self.default_deadline_ms = default_deadline_ms
        self.shed_fractions = dict(DEFAULT_SHED_FRACTIONS
                                   if shed_fractions is None
                                   else shed_fractions)
        for priority, fraction in self.shed_fractions.items():
            if not 0.0 < fraction <= 1.0:
                raise ServiceError(
                    f"shed fraction for priority {priority} must be in "
                    f"(0, 1], got {fraction}")
        self.queue = SubmissionQueue(capacity=queue_capacity)
        decoder_kwargs = {}
        if shm_min_bytes is not None:
            decoder_kwargs["shm_min_bytes"] = shm_min_bytes
        if retry_budget is not None:
            decoder_kwargs["retry_budget"] = retry_budget
        if retry_backoff_s is not None:
            decoder_kwargs["retry_backoff_s"] = retry_backoff_s
        if faults is not None:
            decoder_kwargs["faults"] = faults
        if speculative is not None:
            decoder_kwargs["speculative"] = speculative
        self.decoder = BatchDecoder(workers=workers, backend=backend,
                                    defaults=defaults, scheduler=scheduler,
                                    transport=transport,
                                    lane_pools=lane_pools, **decoder_kwargs)
        obs_kwargs = {"mode": tracing, "sample_rate": trace_sample,
                      "log_path": trace_log}
        if trace_capacity is not None:
            obs_kwargs["trace_capacity"] = trace_capacity
        self.obs = ObsHub(**obs_kwargs)
        self.stats = ServiceStats()
        self._stats_lock = threading.Lock()
        #: EDF window: entries pulled off the queue but not yet
        #: dispatched (bounded by the queue capacity, so backpressure
        #: semantics are unchanged).
        self._backlog: list[_Entry] = []
        self._backlog_lock = threading.Lock()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._cancel_pending = False
        self._pump_thread: threading.Thread | None = None
        if pump:
            self._pump_thread = threading.Thread(
                target=self._pump_loop, name="decode-session-pump",
                daemon=True)
            self._pump_thread.start()

    # -- submission -----------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        return self._closed

    @property
    def pending(self) -> int:
        """Requests accepted but not yet dispatched to a batch
        (queued plus buffered in the EDF window)."""
        with self._backlog_lock:
            return len(self.queue) + len(self._backlog)

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
        (never reissued) when the queue rejects its submission.
        """
        if self._closed:
            raise ServiceClosedError("decode session is closed")
        if isinstance(item, ImageRequest):
            req = item
        else:
            req = replace(self.decoder.defaults, data=bytes(item))
        if req.deadline_ms is None and self.default_deadline_ms is not None:
            req = replace(req, deadline_ms=self.default_deadline_ms)
        if req.deadline_ms is not None and req.deadline_ms <= 0:
            raise ServiceError(
                f"deadline_ms must be positive, got {req.deadline_ms}")
        if not isinstance(req.priority, int) or isinstance(req.priority, bool) \
                or req.priority < 0:
            raise ServiceError(
                f"priority must be a non-negative integer, "
                f"got {req.priority!r}")
        if req.request_id is None:
            with self._id_lock:
                assigned = self._next_id
                self._next_id += 1
            req = replace(req, request_id=assigned)
        if req.trace is None:
            # Mode gate applies only to trace *creation*; a propagated
            # context (remote host replaying a client trace) is always
            # honored, so hosts need no tracing configuration.
            ctx = self.obs.maybe_start_trace()
            if ctx is not None:
                req = replace(req, trace=ctx)
        handle = DecodeHandle(req.request_id)
        deadline_at = (handle.submitted_at + req.deadline_ms / 1e3
                       if req.deadline_ms is not None else None)
        # ceil, so a fraction never shrinks a tiny queue below what an
        # unweighted session would admit (0.9 of capacity 2 is still 2).
        fraction = self.shed_fractions.get(req.priority)
        limit = (None if fraction is None
                 else max(1, math.ceil(self.queue.capacity * fraction)))
        try:
            self.queue.put(_Entry(request=req, handle=handle,
                                  deadline_at=deadline_at,
                                  priority=req.priority),
                           timeout=timeout, limit=limit)
        except QueueFullError:
            with self._stats_lock:
                self.stats.record_shed(req.priority)
            raise
        return handle

    # -- the pump -------------------------------------------------------

    def _collect(self) -> list[_Entry]:
        """Block for the first pending entry, then fill the window until
        ``max_batch`` or the oldest entry's age deadline; returns the
        formed batch in earliest-deadline-first order."""
        with self._backlog_lock:
            buffered = len(self._backlog)
        if buffered == 0:
            first = self.queue.get_batch(self.max_batch, timeout=None)
            if not first:
                return []
            with self._backlog_lock:
                self._backlog.extend(first)
                buffered = len(self._backlog)
        with self._backlog_lock:
            oldest = min(e.handle.submitted_at for e in self._backlog)
        age_deadline = oldest + self.max_delay_ms / 1e3
        while buffered < self.max_batch and not self._closed:
            remaining = age_deadline - perf_counter()
            if remaining <= 0:
                break
            more = self.queue.get_batch(
                self.max_batch - buffered, timeout=remaining)
            if more:
                with self._backlog_lock:
                    self._backlog.extend(more)
                    buffered = len(self._backlog)
            elif self.queue.closed:
                break
        return self._form_batch()

    def _form_batch(self) -> list[_Entry]:
        """Shed expired entries, then take the ``max_batch`` most urgent
        from the EDF window.

        Expired entries (their absolute deadline passed before a decode
        slot arrived) resolve with
        :class:`~repro.errors.DeadlineExceededError` — shedding them
        here, *before* dispatch, is the point: under overload the
        service spends workers only on requests whose clients are still
        waiting.  The survivors dispatch earliest-deadline-first, the
        order that minimizes deadline misses for a single shared
        resource; deadline-free requests keep FIFO order after every
        deadlined one.
        """
        now = perf_counter()
        expired: list[_Entry] = []
        with self._backlog_lock:
            live: list[_Entry] = []
            for e in self._backlog:
                if e.deadline_at is not None and now >= e.deadline_at:
                    expired.append(e)
                else:
                    live.append(e)
            live.sort(key=lambda e: e.edf_key)
            batch = live[:self.max_batch]
            self._backlog = live[self.max_batch:]
        for e in expired:
            e.handle._set_exception(DeadlineExceededError(
                f"request {e.handle.request_id} missed its "
                f"{e.request.deadline_ms:g} ms deadline before decode"))
        if expired:
            with self._stats_lock:
                self.stats.record_faults(deadline_expired=len(expired))
        return batch

    def _pump_loop(self) -> None:
        """Form and decode batches until the session closes and (in
        drain mode) the queue is empty."""
        while True:
            entries = self._collect()
            if not entries:
                if self.queue.closed:
                    return
                continue
            if self._cancel_pending:
                for e in entries:
                    e.handle.cancel()
                continue
            try:
                self._decode_entries(entries)
            except Exception:
                # The batch's handles already carry the exception; keep
                # pumping so later submissions are not stranded pending.
                continue

    def _decode_entries(self, entries: list[_Entry]) -> BatchResult | None:
        """Decode one formed batch, resolve its handles, fold stats and
        scheduler feedback.  Returns the batch result (pull-mode callers
        surface it; the pump discards it)."""
        requests = [e.request for e in entries]
        t_dispatch = perf_counter()
        try:
            batch = self.decoder.decode_batch(requests)
        except BaseException as exc:
            # Infrastructure failure (closed pool, interpreter teardown):
            # fail every handle of the batch, never silently drop one.
            for e in entries:
                e.handle._set_exception(exc)
            raise
        now = perf_counter()
        for entry, result in zip(entries, batch.results):
            # True submit-to-completion latency (the batch loop only
            # measured from dispatch).
            result.latency_s = now - entry.handle.submitted_at
            self.obs.observe_latency(result.latency_s)
            ctx = entry.request.trace
            if ctx is not None:
                # Root span carries the context's own identity; the
                # queue span covers submit -> batch dispatch.  Prepended
                # so the root leads the batch — downstream consumers
                # (remote host wire encoding, the trace store) see one
                # self-contained span list per result.
                result.trace_spans = [
                    make_span(ctx, "request", "session", "dispatch",
                              entry.handle.submitted_at, now,
                              request_id=str(entry.request.request_id),
                              ok=result.ok),
                    child_span(ctx, "queue", "session", "dispatch",
                               entry.handle.submitted_at, t_dispatch,
                               priority=entry.priority),
                ] + result.trace_spans
                self.obs.record_spans(result.trace_spans)
        # Stats and scheduler feedback fold in *before* handles resolve,
        # so a completion observer (done callback, HTTP /stats poll
        # right after a response) always sees its own batch counted.
        with self._stats_lock:
            self.stats.record(batch.stats,
                              [r.latency_s for r in batch.results])
            self.stats.record_faults(
                retries=batch.retries,
                infra_failures=sum(1 for r in batch.results
                                   if not r.ok and r.infra_failure),
                pool_rebuilds=self.decoder.rebuilds)
            if batch.schedule is not None and self.decoder.scheduler is not None:
                self.decoder.scheduler.observe(
                    batch.schedule, batch.results,
                    lane_failures=batch.lane_failures)
                self.stats.record_schedule(batch.schedule, batch.results,
                                           lane_pools=batch.lane_pools)
        for entry, result in zip(entries, batch.results):
            entry.handle._set_result(result)
        return batch

    # -- pull mode ------------------------------------------------------

    def run_once(self) -> BatchResult | None:
        """Pull-mode step: decode one batch of queued requests (None
        when nothing is pending, or when every pending request had
        already expired and was shed — :attr:`pending` tells the two
        apart).  Scheduled batches fold their observed per-image times
        into the scheduler's per-lane feedback and per-lane placement
        counts into :attr:`stats`, exactly as pumped ones do.  With the
        pump running it is also safe (the queue hands each entry to
        exactly one consumer) but normally unnecessary."""
        entries = self.queue.get_batch(self.max_batch, timeout=0)
        with self._backlog_lock:
            self._backlog.extend(entries)
            buffered = len(self._backlog)
        if buffered == 0:
            return None
        batch = self._form_batch()
        if not batch:
            return None
        return self._decode_entries(batch)

    # -- observability --------------------------------------------------

    def retry_after_s(self) -> int:
        """Suggested client back-off in whole seconds, scaled to the
        current backlog: pending requests over the observed service
        rate (images/s), clamped to [1, 30].  Before any batch has
        completed the rate is unknown and the estimate assumes one
        ``max_batch`` drains per second.  This is what HTTP 429/503/504
        responses put in ``Retry-After``."""
        backlog = self.pending
        with self._stats_lock:
            rate = self.stats.images_per_sec
        if rate <= 0:
            rate = float(self.max_batch)
        return int(min(30, max(1, math.ceil(backlog / rate))))

    def stats_snapshot(self) -> dict:
        """JSON-ready snapshot of the running service statistics plus
        queue occupancy, (when scheduled) per-lane feedback state, and
        (when sharded) per-host link health."""
        registry = self.decoder.registry
        if registry is not None and hasattr(registry, "hosts_snapshot"):
            scheduler = self.decoder.scheduler
            hosts = registry.hosts_snapshot(
                scheduler.breakers if scheduler is not None else None)
            with self._stats_lock:
                self.stats.record_hosts(hosts)
        with self._stats_lock:
            snap = self.stats.as_dict()
        snap["pending"] = len(self.queue)
        snap["queue_capacity"] = self.queue.capacity
        snap["queue_space"] = self.queue.space
        snap["max_batch"] = self.max_batch
        snap["max_delay_ms"] = self.max_delay_ms
        snap["default_deadline_ms"] = self.default_deadline_ms
        snap["retry_budget"] = self.decoder.retry_budget
        snap["closed"] = self._closed
        snap["tracing"] = {"mode": self.obs.mode, **self.obs.counters()}
        snap["transport"]["mode"] = self.decoder.transport
        if self.decoder.scheduler is not None:
            snap["scheduler"] = self.decoder.scheduler.snapshot()
        if self.decoder.registry is not None:
            snap["lane_pools"] = self.decoder.registry.describe()
        return snap

    # -- lifecycle ------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut the session down; idempotent.

        ``drain=True`` decodes every request already accepted (the pump
        finishes the queue; in pull mode the remaining batches run
        inline here), then closes the pool.  ``drain=False`` cancels
        every pending handle instead — in-flight batches still resolve.
        Either way, subsequent :meth:`submit` calls raise
        :class:`~repro.errors.ServiceClosedError`.
        """
        with self._close_lock:
            if self._closed:
                return
            self._cancel_pending = not drain
            self._closed = True
            self.queue.close()   # refuse new puts, wake the pump
        if self._pump_thread is not None:
            self._pump_thread.join()
        # Pull mode (and the pump's post-close leftovers, which there
        # are none of once the thread joined): finish or cancel what is
        # still queued or buffered in the EDF window.
        while True:
            entries = self.queue.get_batch(self.max_batch, timeout=0)
            with self._backlog_lock:
                self._backlog.extend(entries)
                buffered = len(self._backlog)
            if buffered == 0:
                break
            batch = self._form_batch()
            if drain:
                if batch:
                    self._decode_entries(batch)
            else:
                for e in batch:
                    e.handle.cancel()
        self.decoder.close()

    def __enter__(self) -> "DecodeSession":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close with a full drain."""
        self.close(drain=True)
