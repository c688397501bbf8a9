"""Fan-out decode plans: one image as several worker tasks.

- :class:`SegmentPlan` — one task per *run of restart segments* of a
  DRI image (a couple of runs per worker of the pool, balanced by
  compressed bytes), merged into a whole-image coefficient grid;
- :class:`SpeculativePlan` — one task per *speculative chunk* of a
  marker-free scan: optimistic decoders started at guessed byte
  offsets, stitched back by bit-position convergence with sequential
  repair of misspeculated gaps.

Both are bit-identical to the sequential oracle and share the task
model of :mod:`repro.service.tasks`.  The batch decoder imports this
module the first time an image fans out, so a cold start whose images
decode whole never compiles it.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..errors import EntropyError, ReproError
from ..jpeg.blocks import ImageGeometry, scatter_mcu_strip
from ..jpeg.coefficients import CoefficientBuffers, ComponentTables
from ..jpeg.decoder import (DecodeOptions, component_tables_from_info,
                            pixels_from_coefficients)
from ..jpeg.fast_entropy import ScanPrescan, destuff_scan
from ..jpeg.markers import JpegImageInfo
from ..jpeg.parallel_huffman import (RestartSegment,
                                     decode_segment_coefficients,
                                     merge_segment_runs, segment_plane_nbytes,
                                     split_restart_segments)
from .faults import FaultDirective
from .obs import child_span
from .tasks import (DecodePlan, ImageRequest, ImageResult, Subtask,
                    TaskReply, run_task)
from .transport import PlaneSlot, packed_nbytes
from .workers import worker_name

if TYPE_CHECKING:  # pragma: no cover - loaded by the first speculative plan
    from ..jpeg.speculative import SpeculativeChunk


# Worker side: module-level, the process backend pickles them by name.

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


# Parent side.

def _rendered(plan: DecodePlan, info: JpegImageInfo,
              coeffs: CoefficientBuffers, t0: float, span_name: str,
              span_attrs: dict, **fields: Any) -> ImageResult:
    """Run the pixel stages over *plan*'s merged *coeffs* (here, in the
    parent) and wrap them; *t0* is when the merge began."""
    req = plan.request
    rgb = pixels_from_coefficients(info, coeffs, DecodeOptions())
    t1 = perf_counter()
    plan.busy_s += t1 - t0
    if req.trace is not None:
        plan.trace_spans.append(child_span(
            req.trace, span_name, worker_name(), "cpu-parallel",
            t0, t1, **span_attrs))
    return ImageResult(
        request_id=req.request_id, ok=True, rgb=rgb,
        width=info.width, height=info.height,
        segments=len(plan.units), **fields)


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
        return _rendered(self, self.info, merged, t0, "merge",
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
        return _rendered(
            self, self.info, coeffs, t0, "stitch",
            {"chunks": len(self.chunks),
             "misspeculated": len(report.misspeculated)},
            speculative=report.ok,
            misspeculated=len(report.misspeculated))
