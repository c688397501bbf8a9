"""Speculative self-synchronizing parallel Huffman decode (extension).

Restart-marker fan-out (:mod:`repro.jpeg.parallel_huffman`) only helps
images whose encoder emitted DRI segments; a marker-free scan — the
common case in the wild — decodes sequentially and defines its batch's
finish line.  Weißenberger & Schmidt (*Accelerating JPEG Decompression
on GPUs*, arXiv 2111.09219) show the escape hatch: Huffman streams
self-synchronize, so a decoder started at a *guessed* bit offset almost
always converges onto the true codeword boundaries within a short
overlap.  The PIM-JPEG port applies the same idea across DPU tasklets
(``synchronise_tasklets`` with per-MCU ``INDEX_OFFSET`` /
``DC_COEFF_OFFSET`` bookkeeping — SNIPPETS.md).

The pipeline here:

1. :func:`plan_chunks` cuts the *destuffed* payload
   (:class:`~repro.jpeg.fast_entropy.ScanPrescan`) into byte-aligned
   chunks, each extended by an overlap window into its successor.
2. :func:`decode_speculative_chunk` runs an optimistic
   :class:`~repro.jpeg.fast_entropy.FastEntropyDecoder` from each chunk
   start (chunk 0 starts at the true origin, so its prefix is exact) as
   one *bounded run* (:func:`traced_run`) over an MCU-strip geometry:
   it records the exact payload **bit position** and per-component DC
   predictors after every MCU — the trace convergence is detected on —
   and ends with the MCU that crosses the overlap window, or at the
   last real payload bit.
3. :func:`stitch_chunks` finds, per adjacent pair, the first common bit
   position inside the overlap window.  Equal bit positions mean equal
   decoder state from there on (Huffman decode is deterministic), so
   everything a chunk decodes past its synchronization point is the
   true stream modulo a constant per-component DC offset — the
   predecessor chain supplies the true predictors and the delta is
   patched onto the chunk's DC coefficients during scatter.
4. Convergence can legitimately fail (overlap too small, decode error
   in the overlap, hostile bytes): the stitcher repairs the gap with a
   sequential bounded run from its trusted frontier, and likewise the
   MCUs a truncated scan owes past its real data.  When coverage still
   cannot be established it reports ``fallback`` and
   :func:`decode_coefficients_speculative` re-decodes the scan
   sequentially — the retained sequential path stays the bit-identity
   (and error-identity) oracle.

The service integration (:class:`~repro.service.batch.BatchDecoder`)
ships :func:`decode_speculative_chunk` to worker processes as a third
fan-out mode next to whole-image and restart-segment tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import EntropyError
from .blocks import ImageGeometry, scatter_mcu_strip
from .coefficients import CoefficientBuffers, ComponentTables
from .fast_entropy import FastEntropyDecoder, ScanPrescan, destuff_scan

#: Chunks shorter than this are not worth a task dispatch; the planner
#: lowers the chunk count until every chunk clears it.
MIN_CHUNK_BYTES = 64

#: Default overlap window (payload bytes).  Weißenberger & Schmidt
#: observe synchronization within a few dozen codewords; 512 bytes is
#: hundreds of codewords of slack.
DEFAULT_OVERLAP_BYTES = 512

#: Extra payload shipped past the window so the last MCU *started*
#: inside the window can finish: a worst-case baseline MCU (six fully
#: populated blocks) stays under ~8 KB of code+magnitude bits.
TAIL_SLACK_BYTES = 8192

#: Lower bound on one block's bit cost (1-bit DC code + 1-bit EOB with
#: degenerate optimized tables) — bounds how many MCUs a window can
#: possibly contain, which caps the virtual decode geometry.
_MIN_BITS_PER_BLOCK = 2


@dataclass(frozen=True)
class SpeculativeChunk:
    """One speculative decode unit over the destuffed payload."""

    index: int
    #: Payload byte offset the decoder starts at (byte-aligned guess;
    #: exact for chunk 0).
    start: int
    #: Nominal chunk end — the next chunk's ``start``.
    stop: int
    #: End of the convergence window: ``stop`` + overlap (the region
    #: where the *successor* must meet this chunk's trace).
    window_stop: int
    #: End of the payload slice shipped to the worker (window + slack).
    slice_stop: int
    #: True for the final chunk (decodes through the scan terminator).
    last: bool


@dataclass
class ChunkTrace:
    """What one speculative chunk decode observed.

    ``positions[j]`` is the absolute payload *bit* offset after decoding
    local MCU *j*; ``dc_trace[j]`` the per-component DC predictors at
    that point.  ``planes[ci]`` holds the chunk's decoded blocks in
    MCU-strip order (:meth:`~repro.jpeg.blocks.ImageGeometry.mcu_strip`):
    local MCU *j* owns the contiguous block range
    ``[j * bpm, (j + 1) * bpm)`` of component *ci* where ``bpm`` is the
    component's blocks per MCU.  A decode error inside the chunk is
    *recorded*, never raised — whether it matters depends on whether
    the error fell inside the MCU range the stitcher needs.
    """

    start_bit: int
    mcus: int
    positions: np.ndarray
    dc_trace: np.ndarray
    planes: list[np.ndarray] | None
    error_type: str | None = None
    error: str | None = None
    #: Local index of the last MCU in which a tolerant decode passed
    #: over a structural error (-1: none).  Before the chunk's sync
    #: point that is the guess parsing garbage; after it, the stream's
    #: own error, which the sequential decoder raises.
    last_passed: int = -1


@dataclass
class SpeculativeReport:
    """Outcome of one speculative decode attempt."""

    #: Chunks the plan fanned out (1 = effectively sequential).
    chunks: int
    #: Chunk boundaries that converged onto their predecessor's trace.
    converged: int = 0
    #: Chunk indices that failed to converge or cover their MCU range.
    misspeculated: list[int] = field(default_factory=list)
    #: Misspeculated gaps healed by a sequential repair decode (the
    #: rest of the stitch still lands in parallel).
    repaired: int = 0
    #: True when the whole scan fell back to the sequential path.
    fallback: bool = False
    #: Human-readable fallback cause (None when the stitch succeeded).
    reason: str | None = None

    @property
    def ok(self) -> bool:
        """True when the stitched result was used (no fallback)."""
        return not self.fallback


def plan_chunks(payload_len: int, chunk_count: int,
                overlap: int = DEFAULT_OVERLAP_BYTES
                ) -> list[SpeculativeChunk]:
    """Cut a destuffed payload into speculative chunks.

    The count is lowered until every chunk clears ``MIN_CHUNK_BYTES``;
    the overlap is clamped below the chunk stride so chunk *k*'s
    convergence window always ends before chunk *k+1*'s does (the
    stitcher's ordering invariant).  Always returns at least one chunk
    (which degenerates to an exact sequential decode).
    """
    if chunk_count < 1:
        raise EntropyError(f"chunk count must be >= 1, got {chunk_count}")
    n = payload_len
    count = max(1, min(int(chunk_count), n // MIN_CHUNK_BYTES or 1))
    stride = n // count if count else n
    overlap = max(8, min(int(overlap), max(1, stride - 1)))
    bounds = [n * i // count for i in range(count + 1)]
    chunks = []
    for i in range(count):
        last = i == count - 1
        start, stop = bounds[i], bounds[i + 1]
        window_stop = n if last else min(stop + overlap, n)
        slice_stop = n if last else min(window_stop + TAIL_SLACK_BYTES, n)
        chunks.append(SpeculativeChunk(
            index=i, start=start, stop=stop,
            window_stop=window_stop, slice_stop=slice_stop, last=last))
    return chunks


def chunk_mcu_budget(chunk: SpeculativeChunk,
                     geometry: ImageGeometry) -> int:
    """Upper bound on MCUs one chunk decode can usefully produce.

    A true decode never exceeds the image's MCU total, and a window of
    *b* bits cannot contain more than ``b / (2 * blocks_per_mcu)`` MCUs
    even with degenerate 1-bit Huffman codes; the smaller bound sizes
    the chunk's virtual geometry (and so its plane allocation).
    """
    cap = geometry.total_mcus + 2
    if not chunk.last:
        window_bits = (chunk.window_stop - chunk.start) * 8
        cap = min(cap, window_bits // (
            _MIN_BITS_PER_BLOCK * geometry.blocks_per_mcu) + 2)
    return max(1, cap)


#: Retry budget for chunks whose speculative parse hits an
#: unrecoverable symbol (undecodable Huffman code): each retry restarts
#: just before the misparse point, so the scan makes forward progress.
MAX_RESTARTS = 64

#: Bits to back off from a misparse point when restarting — the wrong
#: codeword began at most one max-length code plus magnitude earlier.
_RESTART_BACKOFF_BITS = 24


def traced_run(geometry: ImageGeometry, tables: list[ComponentTables],
               scan: ScanPrescan, start_bit: int, max_mcus: int,
               limit_bit: int | None, tolerant: bool = False) -> ChunkTrace:
    """One bounded run of the fast engine over *scan*, as a trace.

    Decodes from *start_bit* for at most *max_mcus* MCUs or until an
    MCU ends at or past *limit_bit*
    (:meth:`~repro.jpeg.fast_entropy.FastEntropyDecoder.decode_run`
    over an MCU-strip geometry — one call, not one per MCU).  A decode
    error ends the trace and is *recorded* on it, never raised; the
    MCUs completed before it stand.  Both the speculative chunks and
    the stitcher's sequential repairs are this function.
    """
    decoder = FastEntropyDecoder(geometry.mcu_strip(max_mcus), tables, 0,
                                 tolerant=tolerant)
    decoder.start_prescanned(scan, start_bit)
    err_type = err_msg = None
    try:
        decoder.decode_run(limit_bit)
    except Exception as exc:  # the stitcher decides whether it matters
        err_type, err_msg = type(exc).__name__, str(exc)
    mcus = len(decoder.run_positions)
    passed = np.flatnonzero(np.diff(decoder.run_passed, prepend=0))
    return ChunkTrace(
        start_bit=start_bit, mcus=mcus,
        positions=np.asarray(decoder.run_positions, dtype=np.int64),
        dc_trace=np.asarray(decoder.run_predictors, dtype=np.int64
                            ).reshape(mcus, len(geometry.components)),
        planes=[np.array(plane[:mcus * comp.blocks_per_mcu])
                for plane, comp in zip(decoder.coefficients.planes,
                                       geometry.components)],
        error_type=err_type, error=err_msg,
        last_passed=int(passed[-1]) if len(passed) else -1)


def decode_speculative_chunk(
    chunk: SpeculativeChunk,
    slice_bytes: bytes,
    geometry_args: tuple,
    tables: list[ComponentTables],
    engine: str = "fast",
    terminator: int | None = None,
) -> ChunkTrace:
    """Optimistically decode one chunk; never raises on decode errors.

    *slice_bytes* is ``payload[chunk.start:chunk.slice_stop]`` — already
    destuffed, so it attaches via
    :meth:`~repro.jpeg.fast_entropy.FastEntropyDecoder.start_prescanned`
    (re-destuffing would corrupt 0xFF data bytes).  *geometry_args* are
    the whole image's ``ImageGeometry`` arguments.  *terminator* is the
    original scan's terminator when the slice reaches the payload end
    and None otherwise (running off the slack raises, which is recorded
    as a chunk error).  The chunk is one :func:`traced_run`: it stops
    after the MCU that crosses the window end, at the MCU budget, at a
    decode error — or once fewer than eight real payload bits remain.
    No MCU is decoded that would begin in the final byte's pad bits or
    feed on zeros past them; whatever the image still owes after the
    real data (a truncated scan) comes from the stitcher's tail repair,
    which decodes with the sequential oracle's own semantics.

    Chunk 0 starts at the true stream origin and decodes *strictly*
    (its prefix is the oracle's own parse; errors there are real).
    Later chunks decode tolerantly — garbage before the sync point
    routinely overruns blocks — and an unrecoverable symbol restarts
    the attempt just before the misparse point.  Discarding the failed
    attempt's trace loses nothing: a recorded position that matched the
    predecessor would have pinned the suffix to the true parse, which
    cannot hit a structural error — so no discarded position could
    ever have been a sync point.
    """
    if engine != "fast":
        raise EntropyError(
            f"speculative decode requires the 'fast' engine, got {engine!r}"
            " (it alone exposes exact bit positions)")
    geometry = ImageGeometry(*geometry_args)
    budget = chunk_mcu_budget(chunk, geometry)
    local = ScanPrescan(payload=bytes(slice_bytes), terminator=terminator)
    payload_bits = len(local.payload) * 8
    limit_bits = min((chunk.window_stop - chunk.start) * 8, payload_bits - 7)
    exact = chunk.index == 0
    attempt_bit = 0
    restarts = 0 if exact else MAX_RESTARTS
    while True:
        trace = traced_run(geometry, tables, local, attempt_bit, budget,
                           limit_bits, tolerant=not exact)
        if trace.error_type is None:
            break
        failed_at = int(trace.positions[-1]) if trace.mcus else attempt_bit
        if not exact and payload_bits - failed_at < 64:
            # Ran off the end of the real payload — the MCU budget
            # exceeds what the slice truly holds; not misspeculation.
            # (The last recorded position is where the MCU that ran
            # off the end began, a few real bits short of it.)
            trace.error_type = trace.error = None
            break
        nxt = max(attempt_bit + 1, failed_at - _RESTART_BACKOFF_BITS)
        if restarts == 0 or nxt >= limit_bits:
            break
        restarts -= 1
        attempt_bit = nxt
    trace.start_bit += chunk.start * 8
    trace.positions += chunk.start * 8
    return trace


def _find_sync(prev: ChunkTrace, prev_sync: int, cur: ChunkTrace,
               lo: int, hi: int) -> tuple[int, int] | None:
    """Earliest common bit position of two traces inside ``[lo, hi]``.

    Returns ``(j_prev, i_cur)`` — the predecessor trace index whose MCU
    ends at the sync position, and the successor's *extended*-trace
    index (0 = the successor's own attempt start, i = after its local
    MCU ``i - 1``).  Only predecessor positions at or past its own
    trusted region (*prev_sync*) qualify; ambiguous (non-increasing)
    windows return None.
    """
    p = prev.positions
    # The chunk's own (possibly restarted) attempt start is a candidate
    # sync point too (index 0 in the extended trace = "no MCUs decoded
    # yet, predictors 0").
    q = np.concatenate(([np.int64(cur.start_bit)], cur.positions))
    pw = p[np.searchsorted(p, lo, "left"):np.searchsorted(p, hi, "right")]
    qw = q[np.searchsorted(q, lo, "left"):np.searchsorted(q, hi, "right")]
    if np.any(np.diff(pw) <= 0) or np.any(np.diff(qw) <= 0):
        # Repeated positions (zero-feed inside a window) make the trace
        # index ambiguous — treat as non-convergence.
        return None
    for cand in np.intersect1d(pw, qw):
        j_prev = int(np.searchsorted(p, cand, "left"))
        if j_prev >= prev_sync:
            return j_prev, int(np.searchsorted(q, cand, "left"))
    return None


@dataclass
class _Trusted:
    """The stitcher's frontier: *trace* follows the true parse from its
    local MCU *sync* on, which is global MCU *base*; *delta* (per
    component) turns its DC predictors into the true ones."""

    trace: ChunkTrace
    sync: int
    base: int
    delta: np.ndarray

    @property
    def mcus(self) -> int:
        """Trusted MCUs the trace holds."""
        return self.trace.mcus - self.sync

    def emit(self, count: int, emissions: list) -> None:
        """Queue the first *count* trusted MCUs for the scatter."""
        emissions.append(
            (self.trace, self.sync, self.base, count, self.delta))

    def after(self, count: int) -> tuple[int, np.ndarray]:
        """Bit position and true predictors after *count* trusted MCUs."""
        j = self.sync + count - 1
        if j >= 0:
            return (int(self.trace.positions[j]),
                    self.delta + self.trace.dc_trace[j])
        return self.trace.start_bit, self.delta

    def resumable(self, count: int, end_bit: int) -> int | None:
        """The most trusted MCUs, at most *count*, after which a fresh
        decoder can take over; None when there is no such point.

        A position inside the payload's final byte (*end_bit* is the
        payload's length) is not one: an MCU that ends there may have
        fed on padding zeros, which the bit position does not show —
        the decoder that did it carries on correctly, one restarted
        from the position would read the last real bits twice.  Every
        earlier MCU end had more than seven real bits ahead of it.
        """
        clean = int(np.searchsorted(self.trace.positions, end_bit - 7, "left"))
        ext = min(self.sync + count, clean)
        return ext - self.sync if ext >= self.sync else None


def _error_note(trace: ChunkTrace) -> str:
    """`` (Type: message)`` of the error that ended *trace*, or nothing."""
    return f" ({trace.error_type}: {trace.error})" if trace.error_type else ""


_NO_FRONTIER = "the trusted trace has no frontier a repair can resume from"


def _walk_syncs(T: _Trusted, traces, chunks, total: int, repair,
                emissions: list, report: SpeculativeReport):
    """Chain chunks ``1..n-1`` onto the trusted frontier *T*.

    A chunk that shares a bit position with the frontier inside its
    overlap becomes the new frontier (its DC correction chains the
    predecessor's); one that does not — or whose tolerant parse went
    over a structural error past that position — is repaired
    sequentially from the frontier.  Returns ``(T, reason)``: the final
    frontier (None once the emissions already reach the last MCU) and
    the failure reason (None unless the stitch must fall back).
    """
    for k in range(1, len(chunks)):
        cur = traces[k]
        sync = None
        if cur is not None and T.mcus > 0:
            sync = _find_sync(T.trace, T.sync, cur, chunks[k].start * 8,
                              int(T.trace.positions[-1]))
        if sync is not None and cur.last_passed >= sync[1]:
            # The chunk passed over a structural error *after* this
            # point: the stream's own.  The strict repair stops at it.
            sync = None
        if sync is not None:
            j_prev, i_cur = sync
            count = j_prev - T.sync + 1
            T.emit(count, emissions)
            cur_dc = cur.dc_trace[i_cur - 1] if i_cur > 0 else 0
            T = _Trusted(cur, i_cur, T.base + count,
                         T.delta + T.trace.dc_trace[j_prev] - cur_dc)
            report.converged += 1
            continue
        report.misspeculated.append(k)
        if repair is None:
            return T, f"chunk {k} never converged in its overlap"
        count = min(T.mcus, total - T.base)
        if T.base + count >= total:
            T.emit(count, emissions)
            return None, None
        count = T.resumable(count, chunks[-1].slice_stop * 8)
        if count is None:
            return T, _NO_FRONTIER
        T.emit(count, emissions)
        frontier_mcu = T.base + count
        frontier_bit, frontier_preds = T.after(count)
        R = repair(frontier_bit, total - frontier_mcu,
                   chunks[k].window_stop * 8)
        if R.mcus == 0:
            return T, (f"repair of chunk {k} made no progress"
                       + _error_note(R))
        report.repaired += 1
        T = _Trusted(R, 0, frontier_mcu, frontier_preds)
    return T, None


def _cover_tail(T: _Trusted, total: int, last: SpeculativeChunk, repair,
                emissions: list, report: SpeculativeReport) -> str | None:
    """Emit the frontier through the last MCU, repairing sequentially
    whatever the final chunk (*last*) left undecoded — a scan whose
    real data ends before its MCUs do.  Returns the failure reason, or
    None when coverage is complete."""
    if total - T.base <= T.mcus:
        T.emit(total - T.base, emissions)
        return None
    if last.index not in report.misspeculated:
        report.misspeculated.append(last.index)
    if repair is None:
        return (f"final chunk covers {T.mcus} MCUs of the "
                f"{total - T.base} it owns" + _error_note(T.trace))
    have = T.resumable(T.mcus, last.slice_stop * 8)
    if have is None:
        return _NO_FRONTIER
    T.emit(have, emissions)
    missing = total - T.base - have
    frontier_bit, frontier_preds = T.after(have)
    R = repair(frontier_bit, missing, None)
    if R.mcus < missing:
        return (f"tail repair covers {R.mcus} MCUs of the "
                f"{missing} missing" + _error_note(R))
    report.repaired += 1
    _Trusted(R, 0, total - missing, frontier_preds).emit(missing, emissions)
    return None


def stitch_chunks(
    traces: list[ChunkTrace | None],
    chunks: list[SpeculativeChunk],
    geometry: ImageGeometry,
    repair=None,
) -> tuple[CoefficientBuffers | None, SpeculativeReport]:
    """Verify convergence and merge chunk traces into the global grid.

    Walks the chunks front to back maintaining a *trusted* trace:
    chunk 0 is exact by construction; each later chunk must share a bit
    position with the trusted trace inside the overlap window.  A match
    fixes the chunk's global MCU base and its per-component DC delta
    (trusted predictors minus speculative predictors at the sync
    point), and the chunk becomes the new trusted trace.

    A chunk that never converges (or is missing, e.g. a crashed worker)
    is *repaired* when a ``repair(start_bit, max_mcus, limit_bit)``
    callback is given: the callback decodes sequentially from the
    trusted frontier — a true MCU boundary — through the failed chunk's
    span, and the walk resumes syncing the next chunk against that
    repair trace.  Misspeculation then costs one chunk's sequential
    decode, not the scan's.  The same callback covers the tail: chunks
    stop at the end of the real payload, so the MCUs a truncated scan
    still owes are decoded from the last frontier.  Without a callback,
    or when coverage still cannot be established, the stitch fails —
    ``(None, report)`` with ``fallback`` set — and the caller re-decodes
    the whole scan sequentially.  On success the returned buffers are
    bit-identical to the sequential decode.
    """
    total = geometry.total_mcus
    report = SpeculativeReport(chunks=len(chunks))
    # (trace, first_local, first_global, count, delta) to scatter.
    emissions: list[tuple[ChunkTrace, int, int, int, np.ndarray]] = []
    if traces[0] is None:
        report.misspeculated.append(0)
        reason = "chunk 0 produced no trace"
    else:
        T = _Trusted(traces[0], 0, 0,
                     np.zeros(len(geometry.components), dtype=np.int64))
        T, reason = _walk_syncs(T, traces, chunks, total, repair,
                                emissions, report)
        if reason is None and T is not None:
            reason = _cover_tail(T, total, chunks[-1], repair,
                                 emissions, report)
    if reason is not None:
        report.fallback = True
        report.reason = reason
        return None, report
    out = CoefficientBuffers.empty(geometry)
    for trace, first_local, first_global, count, delta in emissions:
        scatter_mcu_strip(trace.planes, first_local, first_global, count,
                          geometry, out.planes, delta)
    return out, report


def speculative_eligible(restart_interval: int,
                         prescan: ScanPrescan) -> bool:
    """True when a scan can take the speculative path.

    Restart-marker scans already have exact parallel decomposition
    (:mod:`~repro.jpeg.parallel_huffman`), and stray RSTn markers in a
    DRI=0 scan would shift every speculative bit offset — both route
    to their existing paths instead.
    """
    return restart_interval == 0 and prescan.restart_count == 0


def decode_coefficients_speculative(
    info,
    chunk_count: int,
    overlap: int = DEFAULT_OVERLAP_BYTES,
    engine: str = "fast",
    prescan: ScanPrescan | None = None,
) -> tuple[CoefficientBuffers, SpeculativeReport]:
    """Speculatively decode a whole scan's coefficients: chunk, decode
    each chunk in turn, stitch.

    *info* is a parsed :class:`~repro.jpeg.markers.JpegImageInfo`.
    Misspeculated boundaries are healed by sequential gap repair; only
    when the stitch cannot establish coverage at all is the whole scan
    re-decoded sequentially.  Either way the result is bit-identical to
    the sequential oracle and hostile streams raise the oracle's exact
    errors; the report says which path ran.  (The batched service fans
    the same chunk decodes out over a worker pool instead.)
    """
    from .decoder import component_tables_from_info

    geometry = info.geometry
    tables = component_tables_from_info(info)
    scan = prescan if prescan is not None else destuff_scan(info.entropy_data)
    if speculative_eligible(info.restart_interval, scan) and engine == "fast":
        chunks = plan_chunks(len(scan.payload), chunk_count, overlap)
        geo_args = (geometry.width, geometry.height, geometry.mode,
                    geometry.ncomponents)
        payload = scan.payload
        traces = [
            decode_speculative_chunk(
                c, payload[c.start:c.slice_stop], geo_args, tables, "fast",
                scan.terminator if c.slice_stop == len(payload) else None)
            for c in chunks
        ]
        out, report = stitch_chunks(
            traces, chunks, geometry,
            repair=make_repairer(scan, geometry, tables))
    else:
        out, report = None, SpeculativeReport(
            chunks=1, fallback=True, reason="scan not speculative-eligible")
    if out is None:
        out = _sequential(scan, geometry, tables, info.restart_interval)
    return out, report


def make_repairer(scan: ScanPrescan, geometry: ImageGeometry,
                  tables: list[ComponentTables]):
    """Build the sequential gap-repair callback for :func:`stitch_chunks`.

    The returned ``repair(start_bit, max_mcus, limit_bit)`` is a strict
    :func:`traced_run` over the full prescan from *start_bit* — always
    a true MCU boundary handed over by the stitcher — for at most
    *max_mcus* MCUs or until *limit_bit* (None = decode all *max_mcus*,
    feeding on zeros past the real data exactly as the sequential
    decoder would).  DC predictors start at zero like any chunk; the
    stitcher patches the frontier predictors back in as the repair
    trace's delta.  Decode errors end the trace (a short repair fails
    coverage and falls back to the sequential oracle, which reproduces
    the error for hostile streams).
    """
    return partial(traced_run, geometry, tables, scan)


def _sequential(scan: ScanPrescan, geometry: ImageGeometry,
                tables: list[ComponentTables],
                restart_interval: int) -> CoefficientBuffers:
    """The sequential oracle path over an existing prescan.

    Raises the sequential decoder's natural errors — the error-identity
    contract for hostile streams routed through the speculative API.
    """
    decoder = FastEntropyDecoder(geometry, tables, restart_interval)
    decoder.start_prescanned(scan, 0)
    decoder.decode_mcu_rows(geometry.mcu_rows)
    return decoder.coefficients
