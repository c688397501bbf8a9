"""The dispatch core's one task model: requests, replies, decode plans.

The paper's run-time scheme is one idea — partition a decode into
units, place them, merge — and this module states it once.  A
:class:`DecodePlan` partitions one image's decode into
:class:`Subtask`\\ s ``(worker fn, args, slot bytes)``, takes each
subtask's :class:`TaskReply` (or its loss to a dead worker), and
finishes into one :class:`ImageResult`:

- :class:`WholeImagePlan` — one task per image (the common case): the
  destuffing prescan + fused fast-path entropy decode and the numpy
  pixel stages all run inside the worker (or on a remote host);
- :class:`SegmentPlan` — one task per *run of restart segments* of a
  DRI image (a couple of runs per worker of the pool, balanced by
  compressed bytes), merged into a whole-image coefficient grid;
- :class:`SpeculativePlan` — one task per *speculative chunk* of a
  marker-free scan: optimistic decoders started at guessed byte
  offsets, stitched back by bit-position convergence with sequential
  repair of misspeculated gaps.

All three are bit-identical to the sequential oracle.  The worker-side
task functions share one shell, :func:`run_task`.  What drives the
plans — slot leasing, retry, failover, tracing — lives in
:mod:`repro.service.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..errors import EntropyError, ReproError, ServiceError
from ..jpeg.blocks import ImageGeometry, scatter_mcu_strip
from ..jpeg.decoder import (
    DecodeOptions,
    component_tables_from_info,
    decode_jpeg,
    pixels_from_coefficients,
)
from ..jpeg.coefficients import CoefficientBuffers, ComponentTables
from ..jpeg.fast_entropy import ScanPrescan, destuff_scan
from ..jpeg.markers import FrameInfo, JpegImageInfo, walk_header
from ..jpeg.parallel_huffman import (
    RestartSegment,
    decode_segment_coefficients,
    merge_segment_runs,
    segment_plane_nbytes,
    split_restart_segments,
)
from .faults import FaultDirective, apply_dispatch_fault
from .obs import SpanRecord, TraceContext, child_span
from .transport import PlaneSlot, packed_nbytes, publish_planes
from .workers import worker_name

if TYPE_CHECKING:  # pragma: no cover - the speculative coder loads when
    # a marker-free scan first fans out
    from ..jpeg.speculative import SpeculativeChunk

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


@dataclass
class ImageRequest:
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


@dataclass
class ImageResult:
    """Outcome of one image's decode inside a batch."""

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
    salvage_errors: list[str] = field(default_factory=list)
    #: Trace spans for this image: worker-side stage spans
    #: shipped back piggybacked on the result, plus parent-side
    #: schedule/attempt spans.  Empty when the request was not traced.
    trace_spans: list[SpanRecord] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Worker side: one reply type, one task shell, three task functions
# (module-level: the process backend pickles them by reference).
# ---------------------------------------------------------------------------

@dataclass
class TaskReply:
    """What every worker task sends back, whatever it decoded.

    ``error_type`` set means the task's own work failed (corrupt bytes,
    an unexpected exception — captured, never raised).  A task whose
    worker died never replies; past the retry budget the gather loop
    writes the reply for it (``WorkerCrashError``) and flags the plan
    :attr:`~DecodePlan.infra`, so plans see one shape for both.
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
    trace_spans: list[SpanRecord] = field(default_factory=list)


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
    options = DecodeOptions(salvage=request.salvage)
    if request.trace is not None:
        options.stage_hook = _stage_recorder(request.trace, worker_name(),
                                             spans)
    decoded = decode_jpeg(request.data, options)
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


def decode_segment_task(
    seg: RestartSegment,
    segment_bytes: bytes,
    geometry_args: tuple,
    tables: list[ComponentTables],
    restart_interval: int = 0,
    slot: PlaneSlot | None = None,
    fault: FaultDirective | None = None,
) -> TaskReply:
    """Decode one run of restart segments inside a worker (see
    :func:`run_task`): ``planes`` are its coefficient planes.
    *geometry_args* is the pickled-down ``ImageGeometry`` of the full
    image."""
    return run_task(
        lambda _spans: (None, decode_segment_coefficients(
            seg, segment_bytes, ImageGeometry(*geometry_args), tables,
            restart_interval=restart_interval)),
        slot, fault)


def _decode_chunk(chunk, slice_bytes, geometry_args, tables, terminator):
    """Speculative-chunk task body: the trace rides the pickle pipe
    with its coefficient planes stripped out as the heavy payload (the
    gather loop reattaches them)."""
    from ..jpeg.speculative import decode_speculative_chunk

    trace = decode_speculative_chunk(
        chunk, slice_bytes, geometry_args, tables, "fast", terminator)
    planes, trace.planes = trace.planes, None
    return trace, planes


def decode_speculative_chunk_task(
    chunk: SpeculativeChunk,
    slice_bytes: bytes,
    geometry_args: tuple[int, int, str],
    tables: list[ComponentTables],
    terminator: int | None,
    slot: PlaneSlot | None = None,
    fault: FaultDirective | None = None,
) -> TaskReply:
    """Speculatively decode one chunk inside a worker (see
    :func:`run_task`).

    Decode errors inside the chunk are *not* task errors — the
    optimistic decoder records them on the trace and the stitcher
    decides whether they matter (misspeculation repairs sequentially,
    a hostile stream falls back to the oracle).  ``error_type`` is set
    only when the task itself failed structurally.
    """
    return run_task(
        lambda _spans: _decode_chunk(chunk, slice_bytes, geometry_args,
                                     tables, terminator),
        slot, fault)


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


@dataclass(frozen=True)
class Subtask:
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

    def _rendered(self, info: JpegImageInfo, coeffs: CoefficientBuffers,
                  t0: float, span_name: str, span_attrs: dict,
                  **fields: Any) -> ImageResult:
        """Run the pixel stages over the merged *coeffs* (here, in the
        parent) and wrap them; *t0* is when the merge began."""
        req = self.request
        rgb = pixels_from_coefficients(info, coeffs, DecodeOptions())
        t1 = perf_counter()
        self.busy_s += t1 - t0
        if req.trace is not None:
            self.trace_spans.append(child_span(
                req.trace, span_name, worker_name(), "cpu-parallel",
                t0, t1, **span_attrs))
        return ImageResult(
            request_id=req.request_id, ok=True, rgb=rgb,
            width=info.width, height=info.height,
            segments=len(self.units), **fields)


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
        return (replace(self.request, trace=ctx),)

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


class SegmentPlan(DecodePlan):
    """One task per run of restart segments of a DRI image."""

    task_name = "segment"

    def __init__(self, index: int, request: ImageRequest,
                 lane: str | None, info: JpegImageInfo,
                 run_count: int) -> None:
        """Split *info*'s scan at its RSTn markers into at most
        *run_count* runs of consecutive segments.

        Validates the marker structure before fanning out: a truncated
        or corrupt scan has fewer RSTn boundaries than the DRI interval
        demands, and isolated segments would then zero-pad their way to
        silent garbage where the sequential decoder raises.
        """
        geo = info.geometry
        expected = -(-geo.total_mcus // info.restart_interval)
        segments = split_restart_segments(
            info.entropy_data, geo.total_mcus, info.restart_interval)
        if len(segments) != expected:
            raise EntropyError(
                f"restart marker structure inconsistent: expected "
                f"{expected} segments, found {len(segments)} "
                f"(truncated or corrupt scan)")
        tables = component_tables_from_info(info)
        geo_args = (geo.width, geo.height, geo.mode, geo.ncomponents)
        units = [
            Subtask(
                decode_segment_task,
                # + 2: the run's trailing RSTn rides along, so its last
                # segment ends at a marker as it does in the whole scan.
                (run, info.entropy_data[run.byte_start:run.byte_stop + 2],
                 geo_args, tables, info.restart_interval),
                packed_nbytes(segment_plane_nbytes(run, geo)))
            for run in merge_segment_runs(segments, run_count)]
        super().__init__(index, request, lane, units)
        self.info = info
        self.planes: list[tuple[RestartSegment, list]] = []
        #: The failed (or lost) run earliest in the scan, if any.
        self.failure: tuple[int, TaskReply] | None = None

    def accept(self, unit: Subtask, reply: TaskReply,
               arrays: "list | None") -> None:
        """Keep the run's planes for the merge, or its error (no
        sibling can cover a failed run; of several failures the one
        earliest in the scan wins — the sequential decoder's)."""
        run = unit.args[0]
        if reply.error_type is None:
            self.planes.append((run, arrays))
        elif self.failure is None or run.index < self.failure[0]:
            self.failure = run.index, reply

    def finish(self) -> ImageResult:
        """Scatter the runs into one coefficient grid and run the
        pixel stages."""
        if self.failure is not None:
            reply = self.failure[1]
            return self._failed(reply.error_type, reply.error)
        t0 = perf_counter()
        geo = self.info.geometry
        merged = CoefficientBuffers.empty(geo)
        for run, planes in self.planes:
            scatter_mcu_strip(planes, 0, run.mcu_start, run.mcu_count,
                              geo, merged.planes)
        return self._rendered(self.info, merged, t0, "merge",
                              {"segments": len(self.planes)})


class SpeculativePlan(DecodePlan):
    """One task per speculative chunk of a marker-free scan."""

    task_name = "spec"

    @classmethod
    def build(cls, index: int, request: ImageRequest, lane: str | None,
              info: JpegImageInfo, n_chunks: int
              ) -> "SpeculativePlan | None":
        """Plan *n_chunks* speculative chunks over *info*'s scan, or
        None when the scan does not qualify (the image then decodes
        whole)."""
        from ..jpeg.speculative import (
            DEFAULT_OVERLAP_BYTES,
            plan_chunks,
            speculative_eligible,
        )

        try:
            scan = destuff_scan(info.entropy_data)
        except (ReproError, ValueError):
            # Malformed scan structure: the whole-image worker reports
            # the precise decode error.
            return None
        if not speculative_eligible(info.restart_interval, scan):
            return None
        chunks = plan_chunks(len(scan.payload), n_chunks,
                             DEFAULT_OVERLAP_BYTES)
        if len(chunks) < 2:
            # One chunk degenerates to the sequential decode — a
            # whole-image task without the stitch tax.
            return None
        return cls(index, request, lane, info, scan, chunks)

    def __init__(self, index: int, request: ImageRequest,
                 lane: str | None, info: JpegImageInfo,
                 scan: ScanPrescan, chunks: list[SpeculativeChunk]) -> None:
        """Slice the destuffed *scan* into one task per chunk."""
        from ..jpeg.speculative import chunk_mcu_budget

        geo = info.geometry
        self.info = info
        #: The destuffed scan — sliced for the chunk tasks, and the
        #: substrate the stitcher's gap repair (and the whole-scan
        #: fallback) decode.
        self.scan = scan
        self.chunks = chunks
        self.tables = component_tables_from_info(info)
        #: Traces by chunk index; None marks a chunk whose task failed
        #: or whose worker crashed past the retry budget — the stitcher
        #: treats both as misspeculation (repair or fall back), never
        #: as an image error.
        self.traces: list = [None] * len(chunks)
        geo_args = (geo.width, geo.height, geo.mode, geo.ncomponents)
        bpms = [c.h_factor * c.v_factor for c in geo.components]
        payload = scan.payload
        units = []
        for chunk in chunks:
            budget = chunk_mcu_budget(chunk, geo)
            units.append(Subtask(
                decode_speculative_chunk_task,
                (chunk, payload[chunk.start:chunk.slice_stop], geo_args,
                 self.tables,
                 scan.terminator if chunk.slice_stop == len(payload)
                 else None),
                # int16 coefficient blocks: 64 * 2 bytes each.
                packed_nbytes([budget * bpm * 128 for bpm in bpms])))
        super().__init__(index, request, lane, units)

    def accept(self, unit: Subtask, reply: TaskReply,
               arrays: "list | None") -> None:
        """Reattach the chunk's planes to its trace.  A failed or lost
        task leaves the chunk None — one more misspeculated chunk,
        never an image error (the stitch repairs or falls back)."""
        if reply.error_type is None:
            reply.value.planes = arrays
            self.traces[unit.args[0].index] = reply.value

    def finish(self) -> ImageResult:
        """Stitch the chunk traces and run the pixel stages.

        Misspeculated boundaries (and chunks lost to crashed workers)
        are healed by sequential gap repair inside the stitch; only
        when coverage cannot be established at all does the whole scan
        re-decode sequentially — which also reproduces the oracle's
        exact error for hostile streams.  Either way the coefficients
        are bit-identical to the sequential decode.
        """
        from ..jpeg.speculative import (
            _sequential,
            make_repairer,
            stitch_chunks,
        )

        geo = self.info.geometry
        t0 = perf_counter()
        if self.infra and not any(t is not None for t in self.traces):
            # Every chunk died on infrastructure: the pool is gone, and
            # quietly serializing the whole decode in the parent would
            # mask it.  Partial loss heals below; total loss is terminal.
            self.busy_s += perf_counter() - t0
            return self._failed(
                "WorkerCrashError",
                "all speculative chunks lost to worker crashes",
                misspeculated=len(self.chunks))
        coeffs, report = stitch_chunks(
            self.traces, self.chunks, geo,
            repair=make_repairer(self.scan, geo, self.tables))
        if coeffs is None:
            try:
                coeffs = _sequential(
                    self.scan, geo, self.tables,
                    self.info.restart_interval)
            except Exception as exc:
                self.busy_s += perf_counter() - t0
                return self._failed(
                    type(exc).__name__, str(exc),
                    misspeculated=len(report.misspeculated))
        return self._rendered(
            self.info, coeffs, t0, "stitch",
            {"chunks": len(self.chunks),
             "misspeculated": len(report.misspeculated)},
            speculative=report.ok,
            misspeculated=len(report.misspeculated))
