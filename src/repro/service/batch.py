"""Batched multi-image decoding: :class:`BatchDecoder`.

The paper keeps one image's Huffman decode sequential and fills the
hardware with the *pixel* stages; a decode service amortizes the other
way too — across images.  :class:`BatchDecoder` fans a batch of JPEG
requests out over a :class:`~repro.service.workers.WorkerPool` in
three steps that are the same for every image:

- **plan** — each image becomes one
  :class:`~repro.service.tasks.DecodePlan`: a whole-image task (the
  common case), one task per run of restart segments (DRI images, when
  whole images cannot fill the pool *and* the fan-out is predicted to
  finish sooner than the whole-image task), or one task per
  speculative chunk (marker-free scans under the same conditions) —
  one decision, :meth:`BatchDecoder._fans_out`, asked before a
  scheduler places what stayed whole;
- **dispatch** — one place leases the shared-memory slot, draws the
  fault directive, opens the attempt trace context and submits;
- **gather** — one body (:meth:`BatchDecoder.gather_one`, per completed
  future) owns retry/back-off, slot quarantine, remote failover,
  lane-failure charging, attempt spans and slot release, hands replies
  to their plan, and finishes each plan into its
  :class:`~repro.service.tasks.ImageResult`.

:meth:`BatchDecoder.admit` plans and dispatches a group of requests
into one long-lived in-flight table and returns at once; completed
futures set :attr:`BatchDecoder.wake` and :meth:`BatchDecoder.gather`
lands them.  One driver at a time owns the two halves: ``decode_batch``
(admit all, gather until that group is done) or the rolling pump of
:class:`~repro.service.session.DecodeSession` (admit whenever a worker
has room, resolve each image as its plan finishes).

Every image decodes with :func:`~repro.jpeg.decoder.decode_jpeg`'s
defaults — the fast entropy engine, AAN IDCT and fancy upsampling —
wherever it runs.  Failures are isolated: a corrupt JPEG fails its own
result and never the batch.  The futures front end over this class is
:class:`~repro.service.session.DecodeSession`.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from concurrent.futures import Future
from time import perf_counter
from typing import Any, Iterator, NamedTuple, Sequence

from ..errors import ReproError, ServiceError
from ..jpeg.markers import FrameInfo, JpegImageInfo, parse_jpeg
from ..jpeg.fast_entropy import modeled_entropy_us
from .faults import FaultPlan
from .obs import SpanRecord, TraceContext, child_span, make_span
from .scheduler import (
    BatchSchedule,
    ModelScheduler,
    fanout_pays,
    whole_image_only,
)
from .stats import ServiceStats
from .tasks import (
    DecodePlan,
    ImageRequest,
    ImageResult,
    Subtask,
    TaskReply,
    WholeImagePlan,
    read_header,
)
from .transport import (
    SHM_MIN_BYTES,
    PlaneArena,
    PlaneSlot,
    resolve_transport,
)
from .workers import WorkerPool

#: Restart-segment runs planned per worker of the dispatching pool.
#: Runs are balanced by compressed bytes, which tracks decode time only
#: roughly (a smooth region packs more MCUs per byte than a busy one);
#: two per worker halve what the slower run of a pair can hold the
#: image up by, for one more ~0.5 ms dispatch each.
SEGMENT_RUNS_PER_WORKER = 2

#: Base of the exponential back-off a re-dispatch after a worker crash
#: waits out, doubled per attempt (0.01, 0.02, 0.04 s, ...).
RETRY_BACKOFF_S = 0.01

class BatchResult:
    """One group :meth:`BatchDecoder.admit` planned and dispatched
    together (one schedule, one feedback observation); once its last
    plan lands (:attr:`open` is 0), the batch's results in request
    order and what they ran under."""

    #: The cross-image schedule this batch ran under (None when the
    #: decoder has no scheduler attached).
    schedule: BatchSchedule | None = None
    #: ``perf_counter`` when dispatch began (the group-relative latency
    #: origin).
    t0 = 0.0
    #: Plans dispatched and not yet finished.
    open = 0
    #: The infrastructure failure that aborted the group, if one did.
    error: BaseException | None = None
    #: The admitting driver's per-image records (a session's handles).
    tag: Any = None

    def __init__(self, size: int, transport: str) -> None:
        """An open group of *size* requests, admitted now."""
        self.results: list[ImageResult | None] = [None] * size
        #: Result transport the batch used (``"shm"`` or ``"pickle"``).
        self.transport = transport
        #: ``perf_counter`` at admission.
        self.admitted_at = perf_counter()
        #: Per-lane count of failed dispatches to another machine
        #: (connection refused/lost/timeout), counted even when a
        #: failover redispatch saved every image — the scheduler
        #: charges them to the lane breakers, so a dying host trips
        #: while siblings absorb it.
        self.lane_failures: dict[str, int] = {}
        #: Parent-side spans per index for traced requests (schedule
        #: placement, dispatch attempts, breaker exclusions).
        self.trace_parent: dict[int, list[SpanRecord]] = {}

    def __iter__(self):
        """Iterate results in request order."""
        return iter(self.results)

    def __len__(self) -> int:
        """Number of images in the batch."""
        return len(self.results)

    @property
    def ok(self) -> bool:
        """True when every image in the batch decoded successfully."""
        return all(r.ok for r in self.results)


class _InFlight(NamedTuple):
    """One dispatched subtask: what the gather loop needs to hand its
    reply to the plan, or to requeue it after its worker dies (a fresh
    slot is leased on redispatch — the old one is quarantined, the dead
    worker may still hold a view into it)."""

    plan: DecodePlan
    unit: Subtask
    #: Pool this attempt ran on (a retry targets the same, healed, pool
    #: unless a failed link has a sibling to fail over to).
    pool: WorkerPool
    #: Dispatch attempts so far (1 = first try).
    attempts: int
    #: Shared-memory slot leased to this dispatch, if any.
    slot: PlaneSlot | None
    #: Attempt trace context (``request.trace.child()``) when the image
    #: is traced — each dispatch records under its own span, so
    #: redispatches appear as sibling attempt spans.
    ctx: TraceContext | None
    #: ``perf_counter`` at dispatch: the attempt span's start.
    dispatched_at: float


class BatchDecoder:
    """Decode batches of JPEG requests across a worker pool."""

    def __init__(self, workers: int | None = None,
                 backend: str | None = None,
                 scheduler: ModelScheduler | str | None = None,
                 retry_budget: int = 2,
                 faults: FaultPlan | None = None,
                 speculative: str = "auto") -> None:
        """Create the pool (see :class:`~repro.service.workers.WorkerPool`
        for backend semantics).  Raw bytes submitted in place of an
        :class:`ImageRequest` decode with the request defaults.

        *scheduler* enables cross-image batch scheduling: a
        :class:`~repro.service.scheduler.ModelScheduler`, or its policy
        name ``"model"`` to build one with the default lane set, the one
        local lane.  It places the whole images of a group — the ones
        :meth:`_fans_out` did not fan out first — from the work each
        lane still holds (:meth:`held_us`).  Every local lane runs on
        the one pool; a lane that lives on another machine opens its
        own link
        (:meth:`~repro.service.scheduler.ExecutorLane.open_pool`), kept
        in :attr:`links` and closed with the decoder.

        Process-pool workers return decoded planes through shared
        memory wherever a process pool and working memfd shared memory
        exist (:func:`~repro.service.transport.resolve_transport`), and
        through the pickle result pipe everywhere else — nothing
        crosses a process boundary on serial/thread backends.  Payloads
        under :data:`~repro.service.transport.SHM_MIN_BYTES` pickle
        anyway (slot churn costs more than pickling a few KB).

        *retry_budget* bounds how many times one task is re-dispatched
        after an *infrastructure* failure (its worker died and the pool
        was rebuilt) — decode is pure, so a retried decode is
        bit-identical.  Decode errors (``ok=False`` results) are never
        retried: they are deterministic properties of the bytes.  Each
        re-dispatch falls due :data:`RETRY_BACKOFF_S` later, doubled per
        attempt; the driver lands and admits other work meanwhile.
        *faults* attaches a :class:`~repro.service.faults.FaultPlan` for
        chaos testing.

        *speculative* governs the marker-free fan-out
        (:mod:`repro.jpeg.speculative`): ``"auto"`` (default) splits a
        DRI=0 scan into speculative chunks — one per worker of the
        default pool — under the same conditions as restart segments:
        whole images cannot fill the pool, and the fan-out is predicted
        to pay (:meth:`_fans_out`, the one decision, with or without a
        scheduler); ``"on"`` fans out every eligible image regardless,
        ``"off"`` disables the path.
        """
        # Validate everything cheap *before* any pool exists, so a
        # bad configuration never leaks live worker processes.
        if speculative not in ("auto", "on", "off"):
            raise ServiceError(
                f"speculative must be 'auto', 'on' or 'off', "
                f"got {speculative!r}")
        self.speculative = speculative
        if retry_budget < 0:
            raise ServiceError(
                f"retry_budget must be >= 0, got {retry_budget}")
        self.retry_budget = retry_budget
        self.faults = faults
        #: The one record of what this decoder did: each counter is
        #: bumped where its event happens, on the driver's thread (a
        #: session shares it and adds what only the session sees).
        self.stats = ServiceStats()
        if isinstance(scheduler, str):
            scheduler = ModelScheduler(policy=scheduler)
        self.scheduler = scheduler
        self.pool = WorkerPool(workers=workers, backend=backend)
        #: Lane name -> the link to the machine that lane lives on.
        self.links: dict[str, WorkerPool] = {}
        self._failover_turn = itertools.count()     # next() is atomic
        try:
            for lane in scheduler.executors if scheduler is not None else ():
                link = lane.open_pool()
                if link is not None:
                    self.links[lane.name] = link
        except BaseException:
            for pool in self._pools():
                pool.close()
            raise
        # Only the local pool can be process-backed: links are threads
        # waiting on sockets.
        self.transport = resolve_transport({self.pool.backend})
        self.arena = PlaneArena() if self.transport == "shm" else None
        #: The in-flight table: every dispatched subtask of every group.
        self._pending: dict[Future, _InFlight] = {}
        #: Images (plans) admitted and not yet finished.
        self.in_flight = 0
        #: Completed futures not yet gathered, and the one wake-up a
        #: driver blocks on: set by every future's done-callback (and,
        #: under a session, by every arrival on its queue).
        self._landed: deque[Future] = deque()
        self.wake = threading.Event()
        #: Crashed subtasks waiting out their back-off, as (due
        #: ``perf_counter``, key) pairs: each stays in the in-flight
        #: table under its key, a future that never runs, so its plan
        #: stays open and an aborted group drops it.
        self._deferred: list[tuple[float, Future]] = []

    def _pools(self) -> list[WorkerPool]:
        """The local pool and every link."""
        return [self.pool, *self.links.values()]

    @property
    def workers(self) -> int:
        """Workers across every pool."""
        return sum(p.workers for p in self._pools())

    @property
    def rebuilds(self) -> int:
        """Worker-pool rebuilds across every pool — the self-healing
        activity counter."""
        return sum(p.rebuilds for p in self._pools())

    def _failover(self, lane: str | None) -> WorkerPool | None:
        """A sibling link to redispatch to after *lane*'s link failed a
        task, round-robin over the others.  None for a local lane (its
        pool heals in place and the task retries on it) and for the
        only link."""
        others = [name for name in self.links if name != lane]
        if lane not in self.links or not others:
            return None
        return self.links[others[next(self._failover_turn) % len(others)]]

    # -- plan -----------------------------------------------------------

    def _normalize(self, items: Sequence[bytes | ImageRequest]
                   ) -> list[ImageRequest]:
        """Coerce raw bytes to requests and fill in missing ids."""
        requests = []
        for i, item in enumerate(items):
            req = item if isinstance(item, ImageRequest) \
                else ImageRequest(data=bytes(item))
            if req.request_id is None:
                req = req._replace(request_id=i)
            requests.append(req)
        return requests

    def _fans_out(self, req: ImageRequest, crowd: int,
                  header: FrameInfo | None) -> JpegImageInfo | None:
        """The one fan-out decision, asked once per image before any
        placement: does *req* decode as parallel units on the default
        pool (restart-segment runs, or speculative chunks of a
        marker-free scan) instead of as one whole-image task?  Returns
        the full parse its fan-out plan is built from, or None: the
        image decodes whole.

        Each verdict short-circuits the next: whole images already fill
        the pool — *crowd* counts those in flight plus the group being
        admitted — or the pool is serial, and the image stays whole;
        else a progressive or salvage decode stays whole
        (:func:`~repro.service.scheduler.whole_image_only`, on the
        request's *header*); else the fan-out must be predicted to pay
        (:func:`~repro.service.scheduler.fanout_pays`).  The speculative
        policy is the one override, for marker-free scans only: ``"on"``
        forces their fan-out on a parallel pool, ``"off"`` forbids it.
        ``None`` below reads "if it pays".  Only a candidate left
        standing by the header is parsed in full — the plan needs its
        tables and scan, the price its entropy bytes — and one the
        parse refuses stays whole, for its worker to report."""
        pool = self.pool
        parallel = pool.backend != "serial"
        split = None if parallel and crowd < pool.workers else False
        spec = {"off": False, "on": parallel,
                "auto": split}[self.speculative]
        # A decoder with a lane on another machine ships whole images:
        # each host's own session decides any fan-out.
        if (split is False and spec is False) or self.links \
                or header is None or whole_image_only(header, req.salvage):
            return None
        try:
            info = parse_jpeg(req.data)
        except (ReproError, ValueError):
            return None
        want = split if info.restart_interval > 0 else spec
        if want is None:
            want = fanout_pays(
                modeled_entropy_us(len(info.entropy_data),
                                   info.geometry.total_mcus),
                pool.workers)
        return info if want else None

    def _schedule(self, requests: list[ImageRequest],
                  headers: "list[FrameInfo | None]",
                  parsed: "list[JpegImageInfo | None]",
                  group: BatchResult) -> dict[int, str]:
        """Price and place the group's whole images from their headers
        (an image with a fan-out parse is kept from the scheduler: no
        header, no placement): returns each placed image's lane name."""
        t_plan0 = perf_counter()
        schedule = group.schedule = self.scheduler.plan(
            requests, [None if info is not None else header
                       for header, info in zip(headers, parsed)],
            held=self.held_us())
        t_plan1 = perf_counter()
        lane_of = {a.index: a.executor.name for a in schedule.assignments
                   if a.executor is not None}
        for i, req in enumerate(requests):
            if req.trace is None or parsed[i] is not None:
                continue
            spans = group.trace_parent.setdefault(i, [])
            spans.append(child_span(
                req.trace, "schedule", "scheduler", "dispatch",
                t_plan0, t_plan1, lane=lane_of.get(i, "")))
            for lane in schedule.excluded:
                spans.append(child_span(
                    req.trace, "lane_excluded", lane, "dispatch",
                    t_plan1, t_plan1, lane=lane, reason="breaker_open"))
        return lane_of

    def held_us(self) -> dict[str, float]:
        """Predicted us each scheduler lane holds: the feedback-scaled
        price (``Assignment.predicted_us``) of every placed image in the
        in-flight table, a deferred retry included, counted on the lane
        whose pool has it now — a failed-over image on the sibling it
        moved to.  Read afresh from the table, so whatever lands or is
        aborted stops counting, however the group is driven."""
        held = {lane.name: 0.0 for lane in self.scheduler.executors}
        for task in self._pending.values():
            plan = task.plan
            if plan.lane is not None:
                lane = plan.lane if task.pool is self.pool \
                    else task.pool.name
                held[lane] += \
                    plan.group.schedule.assignments[plan.index].predicted_us
        return held

    def _plan(self, index: int, req: ImageRequest, lane: str | None,
              header: FrameInfo | None, info: JpegImageInfo | None
              ) -> DecodePlan:
        """Build *req*'s decode plan: the fan-out of the parse
        :meth:`_fans_out` returned as *info*, else one whole-image task
        whose reply slot *header* sizes.  Fan-out units are sized from
        the default pool, the pool they run on.  Raises the structure
        error of an image that cannot be planned — the caller fails
        that image alone."""
        if info is None:
            return WholeImagePlan(index, req, lane, header)
        from .fanout import SegmentPlan, SpeculativePlan
        if info.restart_interval > 0:
            return SegmentPlan(index, req, lane, info,
                               SEGMENT_RUNS_PER_WORKER * self.pool.workers)
        plan = SpeculativePlan.build(index, req, lane, info,
                                     self.pool.workers)
        return plan or WholeImagePlan(index, req, lane, header)

    # -- transport slots ------------------------------------------------

    def _rides_shm(self, pool: WorkerPool) -> bool:
        """True when *pool*'s replies can ride shared memory."""
        return self.arena is not None and pool.backend == "process"

    def _lease(self, nbytes: int, pool: WorkerPool) -> PlaneSlot | None:
        """Lease a shm slot for a reply of *nbytes*, if the transport
        applies to *pool* and the payload is worth a slot."""
        if not self._rides_shm(pool) \
                or nbytes <= 0 or nbytes < SHM_MIN_BYTES:
            return None
        try:
            return self.arena.lease(nbytes)
        except ServiceError:
            return None

    def _release_slot(self, slot: PlaneSlot | None) -> None:
        """Return one slot to the arena ring."""
        if slot is not None and self.arena is not None:
            self.arena.release(slot)

    def _quarantine_slot(self, slot: PlaneSlot | None) -> None:
        """Close a failed dispatch's slot without recycling it: the
        dead (or killed) worker may have been mid-memcpy into it, so
        it must never be leased again."""
        if slot is not None and self.arena is not None:
            self.arena.discard(slot)

    # -- admit: plan and dispatch ---------------------------------------

    def admit(self, items: Sequence[bytes | ImageRequest],
              headers: "Sequence[FrameInfo | None] | None" = None
              ) -> BatchResult:
        """Schedule, plan and dispatch *items* as one group, on top of
        whatever is already in flight, and return without waiting.
        *headers* are the items' :func:`read_header` values where the
        caller read them (a session does, at submit), else read here.
        An infrastructure failure (closed pool) aborts the group and
        rides back as ``group.error``."""
        requests = self._normalize(items)
        group = BatchResult(len(requests), self.transport)
        try:
            # The parent's one look at each request's bytes, then the
            # one fan-out decision, then placement of what stayed whole.
            if headers is None:
                headers = [read_header(req) for req in requests]
            crowd = self.in_flight + len(requests)
            parsed = [self._fans_out(req, crowd, header)
                      for req, header in zip(requests, headers)]
            lanes = {}
            if self.scheduler is not None and requests:
                lanes = self._schedule(requests, headers, parsed, group)
            group.t0 = perf_counter()
            for i, req in enumerate(requests):
                lane = lanes.get(i)
                pool = self.links.get(lane, self.pool)
                group.open += 1
                self.in_flight += 1
                try:
                    plan = self._plan(i, req, lane, headers[i], parsed[i])
                except (ReproError, ValueError) as exc:
                    # Cannot be planned: the image fails alone, as the
                    # reply of a task that was never sent.
                    plan, lost = WholeImagePlan(i, req, lane, None), Future()
                    plan.group = group
                    lost.set_result(TaskReply(
                        error_type=type(exc).__name__, error=str(exc)))
                    self._track(lost, _InFlight(
                        plan, plan.units[0], pool, 1, None, None, 0.0))
                    continue
                plan.group = group
                for unit in plan.units:
                    self._dispatch(plan, unit, pool)
        except BaseException as exc:
            self._abort(group, exc)
        return group

    def _dispatch(self, plan: DecodePlan, unit: Subtask,
                  pool: WorkerPool, attempts: int = 1) -> None:
        """(Re)dispatch one subtask: lease its slot, draw its fault
        directive, open its attempt context, submit, register."""
        root = plan.request.trace
        ctx = root.child() if root is not None else None
        t_disp = perf_counter()
        slot = self._lease(unit.slot_bytes, pool)
        fault = (self.faults.next_directive(plan.lane)
                 if self.faults is not None else None)
        try:
            fut = pool.submit(unit.fn, *plan.task_args(unit, ctx),
                              slot, fault)
        except BaseException:
            # Never submitted: nobody can be writing into the slot.
            self._release_slot(slot)
            raise
        self._track(fut, _InFlight(plan, unit, pool, attempts, slot,
                                   ctx, t_disp))

    def _track(self, fut: Future, task: _InFlight) -> None:
        """File *task* in the in-flight table; *fut* wakes the driver."""
        self._pending[fut] = task
        fut.add_done_callback(self._on_done)

    def _on_done(self, fut: Future) -> None:
        """Future done-callback (any thread): queue it, wake the driver."""
        self._landed.append(fut)
        self.wake.set()

    def _abort(self, group: BatchResult, exc: BaseException) -> None:
        """Infrastructure failed under *group*: forget its in-flight
        subtasks and record *exc*."""
        for fut, task in list(self._pending.items()):
            if task.plan.group is group:
                del self._pending[fut]
                self._forget(task)
        self.in_flight -= group.open
        group.open = 0
        group.error = exc

    def _forget(self, task: _InFlight) -> None:
        """Quarantine every slot an abandoned subtask's plan holds: a
        worker may still be writing into its lease, so the slots are
        closed, never returned to the ring."""
        self._quarantine_slot(task.slot)
        while task.plan.slots:
            self._quarantine_slot(task.plan.slots.pop())

    # -- gather ---------------------------------------------------------

    def _recover(self, task: _InFlight) -> bool:
        """Clean up after a dispatch whose worker died; True when the
        subtask's re-dispatch was deferred, False when its budget is
        spent."""
        # The dead worker may still hold a view into its slot —
        # quarantine, never recycle.
        self._quarantine_slot(task.slot)
        task.pool.heal()
        pool, group = task.pool, task.plan.group
        if pool is not self.pool:
            # Nothing here can heal a link, so its lane answers for the
            # failure: the lane whose link actually failed (the
            # failover target when the rescue dispatch failed too; a
            # link carries its lane's name), and before the budget
            # check — every failed dispatch counts, even the one that
            # exhausts the budget.
            group.lane_failures[pool.name] = \
                group.lane_failures.get(pool.name, 0) + 1
        if task.attempts > self.retry_budget:
            return False
        self.stats.retries += 1
        # Due later: the driver keeps landing replies and admitting
        # requests while the back-off runs.
        key = Future()
        self._pending[key] = task._replace(slot=None)
        self._deferred.append((perf_counter() + RETRY_BACKOFF_S
                               * (2 ** (task.attempts - 1)), key))
        return True

    def _redispatch_due(self) -> Iterator[DecodePlan]:
        """Re-dispatch every deferred subtask whose back-off has run
        out, yielding the plan of one whose dispatch failed (its group
        aborted, as :meth:`gather_one` does)."""
        now = perf_counter()
        due = [key for at, key in self._deferred if at <= now]
        self._deferred = [(at, key) for at, key in self._deferred
                          if at > now]
        for key in due:
            task = self._pending.pop(key, None)
            if task is None:
                continue    # its group was aborted meanwhile
            plan, pool = task.plan, task.pool
            # Prefer a surviving sibling over hammering what just failed.
            alt = self._failover(plan.lane)
            if alt is not None:
                pool, plan.failed_over = alt, True
            try:
                self._dispatch(plan, task.unit, pool, task.attempts + 1)
            except BaseException as exc:
                self._forget(task)
                self._abort(plan.group, exc)
                yield plan

    def next_due_s(self) -> float | None:
        """Seconds until the earliest deferred re-dispatch falls due (0
        when one is overdue), None when none waits: the longest a driver
        may sleep on :attr:`wake`."""
        if not self._deferred:
            return None
        return max(0.0, min(at for at, _ in self._deferred) - perf_counter())

    def _planes(self, task: _InFlight, reply: TaskReply) -> "list | None":
        """Resolve a reply's heavy payload into arrays, accounting the
        bytes to the transport that carried them."""
        planes = reply.planes
        if isinstance(planes, tuple):
            # Shared-memory refs: zero-copy views; the slot stays
            # leased until the plan has merged (or copied) them.
            self.stats.bytes_shm += sum(r.nbytes for r in planes)
            task.plan.slots.append(task.slot)
            return [self.arena.resolve(r, copy=False) for r in planes]
        # Nothing rode the slot (none leased, or the publish fell back
        # to pickle) and its worker is done with it: recycle it now.
        self._release_slot(task.slot)
        if planes and task.pool.backend == "process":
            self.stats.bytes_pickle += sum(p.nbytes for p in planes)
        return planes

    def gather_one(self, fut: Future) -> DecodePlan | None:
        """Land one completed future: defer its retry if its worker
        crashed, else hand its reply to its plan.  Returns the plan when
        that was its last subtask (its result is in
        ``plan.group.results``), or when infrastructure failed under it
        (``plan.group.error``)."""
        task = self._pending.pop(fut, None)
        if task is None:
            return None     # a straggler of an aborted group
        try:
            return self._land(task, fut)
        except BaseException as exc:
            self._forget(task)
            self._abort(task.plan.group, exc)
            return task.plan

    def _land(self, task: _InFlight, fut: Future) -> DecodePlan | None:
        """The gather body: one completed subtask, first to last."""
        plan = task.plan
        try:
            reply, failure = fut.result(), None
        except BaseException as exc:
            # The task shell catches everything, so a raising future
            # means infrastructure died under it: BrokenProcessPool
            # (worker SIGKILLed/OOMed), a remote host error or an
            # injected WorkerCrashError.
            reply, failure = None, exc
        if task.ctx is not None:
            # The attempt span uses the child context's OWN identity so
            # worker stage spans (parented on that same context) nest
            # under it; retries of one request become sibling attempt
            # spans under the shared request span.
            plan.group.trace_parent.setdefault(plan.index, []).append(
                make_span(
                    task.ctx, "attempt",
                    plan.lane or task.pool.backend, "cpu-parallel",
                    task.dispatched_at, perf_counter(),
                    attempt=task.attempts, task=plan.task_name,
                    outcome="ok" if failure is None else "crashed"))
        if failure is None:
            arrays = self._planes(task, reply)
        elif self._recover(task):
            return None
        else:
            # Budget spent: write the reply the dead worker never could.
            plan.infra = True
            arrays, reply = None, TaskReply(
                error_type="WorkerCrashError",
                error=f"worker crashed after {task.attempts} "
                      f"attempt(s): {type(failure).__name__}: {failure}")
        plan.busy_s += reply.busy_s
        plan.trace_spans.extend(reply.trace_spans)
        plan.accept(task.unit, reply, arrays)
        plan.attempts = max(plan.attempts, task.attempts)
        plan.pending -= 1
        if plan.pending:
            return None
        self._finish(plan)
        return plan

    def _finish(self, plan: DecodePlan) -> None:
        """Finish *plan* into its result, release its slots, stamp the
        per-image bookkeeping the plan cannot know and count what the
        image did."""
        group, stats = plan.group, self.stats
        result = plan.finish()
        while plan.slots:
            self._release_slot(plan.slots.pop())
        result.trace_spans = plan.trace_spans
        result.attempts = plan.attempts
        result.failed_over = plan.failed_over
        result.wall_us = plan.busy_s * 1e6 or None
        result.latency_s = perf_counter() - group.t0
        extra = group.trace_parent.pop(plan.index, None)
        if extra:
            # Parent-side spans (schedule, lane_excluded, attempts) ride
            # in front of the worker-side ones.
            result.trace_spans = extra + result.trace_spans
        stats.images_split += result.segments > 1
        stats.infra_failures += not result.ok and result.infra_failure
        group.results[plan.index] = result
        group.open -= 1
        self.in_flight -= 1
        if not group.open:
            stats.batches += 1

    def gather(self) -> Iterator[DecodePlan]:
        """Re-dispatch the retries that fell due, then land every future
        completed so far, yielding each plan as :meth:`gather_one`
        returns it."""
        yield from self._redispatch_due()
        while self._landed:
            plan = self.gather_one(self._landed.popleft())
            if plan is not None:
                yield plan

    def decode_batch(self, items: Sequence[bytes | ImageRequest]
                     ) -> BatchResult:
        """Decode *items* concurrently — admit them all as one group,
        gather until it is done; results come back in order.

        Raises only on infrastructure failure (closed pool); per-image
        decode errors are reported on the individual results.  With a
        scheduler attached the schedule the group ran under rides back
        on ``BatchResult.schedule``.  Every leased shared-memory slot
        is released (or closed at :meth:`close`) even when a worker
        dies mid-batch.  Clear before gather: a completion between the
        two leaves :attr:`wake` set, so none is slept through.
        """
        group = self.admit(items)
        while group.open:
            self.wake.wait(self.next_due_s())
            self.wake.clear()
            for _ in self.gather():
                pass
        if group.error is not None:
            raise group.error
        return group

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the pool and the links down (waits for in-flight
        tasks), then close every shared-memory slot the arena still
        holds — including slots a crashed worker never returned."""
        for pool in self._pools():
            pool.close()
        if self.arena is not None:
            self.arena.close()

    def __enter__(self) -> "BatchDecoder":
        """Context-manager entry: the decoder itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close the pool."""
        self.close()
