"""The dispatch core's one task model: requests, replies, decode plans.

The paper's run-time scheme is one idea — partition a decode into
units, place them, merge — and this module states it once.  A
:class:`DecodePlan` partitions one image's decode into
:class:`Subtask`\\ s ``(worker fn, args, slot bytes)``, takes each
subtask's :class:`TaskReply` (or its loss to a dead worker), and
finishes into one :class:`ImageResult`.  :class:`WholeImagePlan` is one
task per image (the common case): the destuffing prescan, fused
fast-path entropy decode and numpy pixel stages all run inside the
worker (or on a remote host).  The fan-out plans, one task per run of
restart segments or per speculative chunk, are
:mod:`repro.service.fanout`'s.  Every worker task runs in one shell,
:func:`run_task`; what drives the plans — slot leasing, retry,
failover, tracing — lives in :mod:`repro.service.batch`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, NamedTuple

import numpy as np

from ..errors import ReproError, ServiceError
from ..jpeg.decoder import DecodeOptions, decode_jpeg
from ..jpeg.markers import FrameInfo, walk_header
from .faults import FaultDirective, apply_dispatch_fault
from .obs import SpanRecord, TraceContext, child_span
from .transport import PlaneSlot, publish_planes
from .workers import worker_name

#: The three load-shedding priority classes (higher = more important).
PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH = 0, 1, 2

#: Named spellings accepted by :func:`parse_priority` (and the HTTP
#: ``X-Priority`` header).
PRIORITIES = {"low": PRIORITY_LOW, "normal": PRIORITY_NORMAL,
              "high": PRIORITY_HIGH}


def parse_priority(value: "str | int") -> int:
    """Normalize a priority spelling — ``"low"``/``"normal"``/``"high"``
    or a non-negative integer (as int or digit string) — to its class
    number; raises :class:`~repro.errors.ServiceError` otherwise."""
    if isinstance(value, bool):
        raise ServiceError(f"invalid priority {value!r} "
                           f"(want low/normal/high or an integer >= 0)")
    if isinstance(value, int):
        priority = value
    else:
        text = str(value).strip().lower()
        if text in PRIORITIES:
            return PRIORITIES[text]
        try:
            priority = int(text)
        except ValueError:
            raise ServiceError(
                f"invalid priority {value!r} "
                f"(want low/normal/high or an integer >= 0)")
    if priority < 0:
        raise ServiceError(f"priority must be >= 0, got {priority}")
    return priority


class ImageRequest(NamedTuple):
    """One image to decode, with its per-image knobs.  Every image
    decodes with the :class:`~repro.jpeg.decoder.DecodeOptions`
    defaults: the fast entropy engine, AAN IDCT, fancy upsampling.
    Whether it fans out is the batch decoder's one decision
    (:meth:`~repro.service.batch.BatchDecoder._fans_out`), not the
    request's."""

    #: Raw JFIF bytes.
    data: bytes
    #: Caller-chosen identity, echoed on the result (assigned by the
    #: service when submitted as raw bytes).
    request_id: Any = None
    #: Relative deadline in milliseconds from submission; ``None``
    #: means no deadline.  A request whose deadline passes before its
    #: decode starts is shed with
    #: :class:`~repro.errors.DeadlineExceededError` (HTTP 504) instead
    #: of being decoded (enforced when the session admits requests).
    deadline_ms: float | None = None
    #: Best-effort decode of hostile bytes: instead of ``ok=False`` on a
    #: corrupt scan, return the pixels decoded before the failure with
    #: :attr:`ImageResult.error_regions` marking the damage.  Salvage
    #: requests decode whole-image (no segment or speculative fan-out —
    #: the error map needs one decoder's view).
    salvage: bool = False
    #: Load-shedding priority class: 0 = low, 1 = normal (default),
    #: 2 = high.  Under overload the session sheds low classes first
    #: (each class only admits into a fraction of the queue; see
    #: :data:`repro.service.session.DEFAULT_SHED_FRACTIONS`) and batch
    #: forming orders higher classes first at equal deadlines.
    priority: int = PRIORITY_NORMAL
    #: Tracing context: set by ``DecodeSession.submit`` when
    #: the request is sampled for tracing.  ``None`` (the default)
    #: keeps every observability hook dormant — the entire tracing
    #: layer hangs off this single attribute check.
    trace: TraceContext | None = None


class ImageResult:
    """Outcome of one image's decode inside a batch: ``ImageResult(
    request_id, ok, **fields)`` sets any field below by keyword, the
    rest keep their class defaults."""

    request_id: Any
    ok: bool
    rgb: np.ndarray | None = None
    width: int = 0
    height: int = 0
    #: Exception class name when ``ok`` is False (e.g. "JpegFormatError").
    error_type: str | None = None
    #: Human-readable failure message when ``ok`` is False.
    error: str | None = None
    #: Number of independently decoded restart-segment runs or
    #: speculative chunks (1 = whole scan).
    segments: int = 1
    #: True when the image's coefficients came from the *stitched*
    #: speculative chunk fan-out (False for the whole-scan fallback —
    #: the result is bit-identical either way, this records which path
    #: produced it).
    speculative: bool = False
    #: Speculative chunk boundaries that failed to converge and were
    #: healed by sequential gap repair (0 on a clean stitch).
    misspeculated: int = 0
    #: Submit-to-completion latency, seconds (filled by the batch loop).
    latency_s: float = 0.0
    #: Real busy time in microseconds: the plan's tasks' plus any
    #: parent-side merge (None when nothing ran) — what the scheduler
    #: observes a lane by.
    wall_us: float | None = None
    #: Decode attempts this image consumed (> 1 after a worker-crash
    #: retry; decode is pure, so a retried success is bit-identical).
    attempts: int = 1
    #: True when ``ok=False`` came from infrastructure (a dead worker
    #: after the retry budget) rather than the image's own bytes — the
    #: failure class lane circuit breakers count, since a corrupt JPEG
    #: fails on *any* lane but a crashing lane fails every image.
    infra_failure: bool = False
    #: True when the image was redispatched onto a *different* pool
    #: than its scheduled lane (a remote host failed and a sibling
    #: absorbed the work).  Such results are excluded from the original
    #: lane's feedback and breaker credit — the lane that was priced is
    #: not the lane that decoded.
    failed_over: bool = False
    #: True when salvage mode recovered this image from corrupt bytes
    #: (``ok`` stays True; the pixels are best-effort).
    salvaged: bool = False
    #: Salvage damage map: boolean ``(mcu_rows, mcus_per_row)`` grid,
    #: True where decoding failed.  None for clean decodes and
    #: non-salvage requests.
    error_regions: np.ndarray | None = None
    #: Canonical decode errors salvage mode recovered from (one per
    #: failed scan), empty otherwise.
    salvage_errors: list[str]
    #: Trace spans for this image: worker-side stage spans
    #: shipped back piggybacked on the result, plus parent-side
    #: schedule/attempt spans.  Empty when the request was not traced.
    trace_spans: list[SpanRecord]

    def __init__(self, request_id: Any, ok: bool, **fields: Any) -> None:
        """The outcome *ok* of request *request_id*, with *fields*."""
        self.request_id, self.ok = request_id, ok
        self.salvage_errors, self.trace_spans = [], []
        _set_fields(self, fields)


def _set_fields(record: Any, fields: dict) -> None:
    """Set keyword *fields* on *record*: only names its class declares."""
    for name, value in fields.items():
        if name not in type(record).__annotations__:
            raise TypeError(f"{type(record).__name__} has no field {name!r}")
        setattr(record, name, value)


# ---------------------------------------------------------------------------
# Worker side: one reply type, one task shell, three task functions
# (module-level: the process backend pickles them by reference).
# ---------------------------------------------------------------------------

class TaskReply:
    """What every worker task sends back, whatever it decoded.

    ``error_type`` set means the task's own work failed (corrupt bytes,
    an unexpected exception — captured, never raised).  A task whose
    worker died never replies; past the retry budget the gather loop
    writes the reply for it (``WorkerCrashError``) and flags the plan
    :attr:`~DecodePlan.infra`, so plans see one shape for both.
    ``TaskReply(**fields)`` takes any field below by keyword.
    """

    #: The light part of the outcome, pickled as is: the pixel-less
    #: :class:`ImageResult` (whole image) or the plane-stripped
    #: ``ChunkTrace`` (speculative chunk); None otherwise.
    value: Any = None
    #: The heavy part: a list of arrays on the pickle path, or a tuple
    #: of :class:`~repro.service.transport.PlaneRef` descriptors when
    #: they were packed into the leased shared-memory slot instead.
    planes: "list | tuple | None" = None
    error_type: str | None = None
    error: str | None = None
    #: Seconds the task ran, set by :func:`run_task`.
    busy_s: float = 0.0
    #: The worker-side trace spans the task recorded (traced only).
    trace_spans: list[SpanRecord]

    def __init__(self, **fields: Any) -> None:
        """A reply with *fields* set."""
        self.trace_spans = []
        _set_fields(self, fields)


#: Decoder stage name → Timeline glyph kind for worker stage spans.
_STAGE_KINDS = {"parse": "dispatch", "entropy": "huffman",
                "idct": "kernel", "upsample": "cpu-parallel",
                "color": "cpu-parallel", "shm_publish": "write"}


def _stage_recorder(ctx: TraceContext, resource: str,
                    spans: list[SpanRecord]):
    """A :attr:`DecodeOptions.stage_hook` that records each decode
    stage into *spans*, the list its task's reply carries back."""
    def hook(stage: str, t0: float, t1: float) -> None:
        """Record one completed decoder stage as a child span."""
        spans.append(child_span(
            ctx, stage, resource, _STAGE_KINDS.get(stage, "dispatch"),
            t0, t1))
    return hook


def run_task(body: Callable[[list[SpanRecord]], tuple],
             slot: PlaneSlot | None, fault: FaultDirective | None,
             ctx: TraceContext | None = None) -> TaskReply:
    """The shell every worker task runs in; never raises (except by
    injected crash faults, which model a worker that never returns).

    *body* takes the reply's trace span list (a traced body appends its
    stage spans to it) and returns ``(value, planes)``.  *Any* failure
    inside it —
    malformed bytes, truncated scan, unsupported feature, but also the
    unexpected (``MemoryError``, numpy shape errors) — is captured on
    the reply, so one bad task cannot poison its batch.  With a
    transport *slot* the planes are packed into the leased slot and
    only descriptors ride the result pipe; if publishing fails for any
    reason they fall back to the pickle path rather than failing the
    decode.  *fault* is an injected chaos directive: ``kill``/``delay``
    apply at entry, ``exception`` raises inside the body's scope,
    ``shm_fail`` fails the publish.  *ctx* (traced whole-image tasks)
    records the publish as a span too.
    """
    apply_dispatch_fault(fault)
    t0 = perf_counter()
    reply = TaskReply()
    try:
        if fault is not None and fault.kind == "exception":
            raise RuntimeError(fault.message)
        reply.value, reply.planes = body(reply.trace_spans)
    except Exception as exc:  # ANY failure stays on this task's reply
        reply.error_type = type(exc).__name__
        # KeyError.__str__ repr-quotes its message; report the text.
        reply.error = str(exc.args[0] if isinstance(exc, KeyError)
                          and exc.args else exc)
    if slot is not None and reply.planes:
        try:
            if fault is not None and fault.kind == "shm_fail":
                raise ServiceError(fault.message)
            t_pub = perf_counter()
            refs = publish_planes(slot, reply.planes)
            if ctx is not None:
                reply.trace_spans.append(child_span(
                    ctx, "shm_publish", worker_name(), "write", t_pub,
                    perf_counter(), nbytes=sum(r.nbytes for r in refs)))
            reply.planes = refs
        except Exception:
            pass  # slot too small / file gone: pickle the arrays
    reply.busy_s = perf_counter() - t0
    return reply


def _decode_image(request: ImageRequest,
                  spans: list[SpanRecord]) -> tuple[ImageResult, list]:
    """Whole-image task body: :func:`~repro.jpeg.decoder.decode_jpeg`,
    recording its stage spans into *spans* when it is traced."""
    hook = (_stage_recorder(request.trace, worker_name(), spans)
            if request.trace is not None else None)
    decoded = decode_jpeg(request.data, DecodeOptions(
        salvage=request.salvage, stage_hook=hook))
    rgb = decoded.rgb
    result = ImageResult(request_id=request.request_id, ok=True)
    if request.salvage:
        result.salvaged = decoded.salvaged
        result.error_regions = decoded.error_map
        result.salvage_errors = list(decoded.errors)
    result.height, result.width = rgb.shape[:2]
    return result, [rgb]


def decode_image_task(request: ImageRequest,
                      slot: PlaneSlot | None = None,
                      fault: FaultDirective | None = None) -> TaskReply:
    """Decode one whole image inside a worker (see :func:`run_task`):
    ``value`` is the :class:`ImageResult` without pixels, ``planes``
    the one RGB array (or its shared-memory ref)."""
    return run_task(lambda spans: _decode_image(request, spans), slot,
                    fault, request.trace)


# ---------------------------------------------------------------------------
# Parent side: the one header read, the decode-plan protocol and its
# three implementations.
# ---------------------------------------------------------------------------

def read_header(request: ImageRequest) -> FrameInfo | None:
    """The parent's one look at *request*'s bytes, read by pricing, the
    fan-out decision and the slot lease alike: the header walk
    (:func:`~repro.jpeg.markers.walk_header`), or None when it raises or
    the frame's sampling has no geometry — the worker reports the
    precise error, and a stream nobody could read is leased nothing.
    Damage the walk does not reach (a table, the scan) fails in the
    worker, after the request was priced and leased like any other."""
    try:
        header = walk_header(request.data)
        header.geometry   # raises for sampling factors nothing decodes
    except (ReproError, ValueError):
        return None
    return header


class Subtask(NamedTuple):
    """One unit of a plan's fan-out, everything a (re)dispatch needs."""

    #: Module-level worker function, called as
    #: ``fn(*args, slot, fault)`` and returning a :class:`TaskReply`.
    fn: Callable[..., TaskReply]
    #: The task's own positional arguments (picklable).
    args: tuple
    #: Bytes the reply's planes need in a shared-memory slot (0 when
    #: unknown: the dispatch then leases nothing and the planes pickle).
    slot_bytes: int


class DecodePlan:
    """One image's decode as the dispatch core sees it: subtasks out,
    replies (or losses) in, one :class:`ImageResult` at the end.

    The gather loop calls :meth:`accept` once per subtask (a subtask
    lost to a dead worker arrives as a ``WorkerCrashError`` reply),
    then :meth:`finish`.  Arrays handed to :meth:`accept` may be
    zero-copy views into the slots listed in :attr:`slots`; the loop
    releases those right after :meth:`finish` returns, so ``finish``
    must not let a view escape on the result.
    """

    #: The ``task=`` label on this plan's attempt trace spans.
    task_name = ""

    def __init__(self, index: int, request: ImageRequest,
                 lane: str | None, units: list[Subtask]) -> None:
        """Bind the plan to batch slot *index* and its *units*."""
        self.index = index
        self.request = request
        #: The admission group the dispatch core filed the plan under.
        self.group: Any = None
        #: Scheduler lane the image was placed on (fault-plan
        #: targeting, failover lookup, attempt-span resource).
        self.lane = lane
        self.units = units
        #: Subtasks not yet accepted or lost.
        self.pending = len(units)
        #: Busy seconds and worker trace spans of accepted replies (plus
        #: the plan's own parent-side merge); the gather loop collects
        #: them and stamps them onto the finished result.
        self.busy_s = 0.0
        self.trace_spans: list[SpanRecord] = []
        #: Leased slots whose planes this plan still references.
        self.slots: list[PlaneSlot] = []
        #: Max dispatch attempts any subtask consumed.
        self.attempts = 1
        #: True once a subtask was lost to infrastructure (worker crash
        #: past the retry budget) rather than to the image's bytes; set
        #: by the gather loop.
        self.infra = False
        #: True once a subtask was redispatched onto a sibling pool.
        self.failed_over = False

    def task_args(self, unit: Subtask, ctx: TraceContext | None) -> tuple:
        """Positional arguments for one dispatch of *unit* under the
        attempt trace context *ctx* (None when untraced)."""
        return unit.args

    def accept(self, unit: Subtask, reply: TaskReply,
               arrays: "list | None") -> None:
        """Take *unit*'s reply; *arrays* are its resolved planes."""
        raise NotImplementedError

    def finish(self) -> ImageResult:
        """Merge what was accepted into the image's result."""
        raise NotImplementedError

    def _failed(self, error_type: str | None, error: str | None,
                **fields: Any) -> ImageResult:
        """An ``ok=False`` result reporting the plan's subtask count."""
        return ImageResult(
            request_id=self.request.request_id, ok=False,
            error_type=error_type, error=error, segments=len(self.units),
            infra_failure=self.infra, **fields)


class WholeImagePlan(DecodePlan):
    """One task: the whole image decodes inside a worker (or on a
    remote host, whose own session decides any fan-out)."""

    task_name = "whole"

    def __init__(self, index: int, request: ImageRequest,
                 lane: str | None, header: FrameInfo | None) -> None:
        """The reply's slot is the decoded frame of *header*; with none
        readable the reply pickles."""
        super().__init__(index, request, lane, [Subtask(
            decode_image_task, (request,),
            header.width * header.height * 3 if header is not None else 0)])
        self.result: ImageResult | None = None

    def task_args(self, unit: Subtask, ctx: TraceContext | None) -> tuple:
        """Ship the request under the attempt's own context, so worker
        stage spans nest under that attempt."""
        if ctx is None:
            return unit.args
        return (self.request._replace(trace=ctx),)

    def accept(self, unit: Subtask, reply: TaskReply,
               arrays: "list | None") -> None:
        """The reply *is* the image: a result shell plus its pixels."""
        if reply.error_type is not None:
            self.result = self._failed(reply.error_type, reply.error)
            return
        self.result = reply.value
        if arrays:
            self.result.rgb = arrays[0]

    def finish(self) -> ImageResult:
        """Hand the result over, copied out of shared memory."""
        if self.slots:
            self.result.rgb = self.result.rgb.copy()
        return self.result
