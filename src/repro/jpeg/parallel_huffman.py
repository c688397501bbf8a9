"""Restart-marker-based parallel Huffman decoding (extension).

The paper keeps Huffman decoding strictly sequential because standard
JPEG code words are not self-synchronizing (Section 1, citing Klein &
Wiseman).  There is one standards-compliant escape hatch it leaves on
the table: **restart markers**.  When the encoder emits a DRI interval,
the scan splits into byte-aligned, independently decodable segments
(DC predictions reset at each RSTn) — so a multi-core CPU can entropy-
decode segments in parallel.

This module implements that extension:

- :func:`split_restart_segments` scans the entropy data for RSTn
  boundaries and returns the byte spans;
- :func:`merge_segment_runs` groups consecutive segments into runs of
  about equal compressed size and :func:`decode_segment_coefficients`
  decodes one run in isolation into an MCU strip
  (:func:`~repro.jpeg.blocks.scatter_mcu_strip` places it into the
  global grid; the runs' result is bit-identical to the sequential
  decoder's) — the unit of work :mod:`repro.service` fans out across a
  real worker pool.

The executors do not use it — the paper's pipeline relies on *in-order*
row availability, which parallel segment decoding breaks — but the
batched decode service (:mod:`repro.service`) exploits it for real
wall-clock parallelism across processes.  Marker-free scans fan out by
speculative self-synchronizing decode instead
(:mod:`repro.jpeg.speculative`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import EntropyError
from .blocks import ImageGeometry
from .coefficients import ComponentTables
from .fast_entropy import FastEntropyDecoder, destuff_scan


class RestartSegment(NamedTuple):
    """One independently decodable span of the entropy-coded data: a
    restart segment, or a *run* of consecutive ones
    (:func:`merge_segment_runs`) — ``index`` is then the run's first
    segment and ``byte_stop`` its last segment's end."""

    index: int
    byte_start: int       # offset of the segment's first payload byte
    byte_stop: int        # offset just past the segment (before its RSTn)
    mcu_start: int        # first MCU index covered
    mcu_count: int        # MCUs in this segment

    @property
    def nbytes(self) -> int:
        """Compressed size of the span in bytes (trailing RSTn excluded)."""
        return self.byte_stop - self.byte_start


def split_restart_segments(entropy_data: bytes, total_mcus: int,
                           restart_interval: int) -> list[RestartSegment]:
    """Locate RSTn boundaries and derive the per-segment MCU spans.

    Reuses the fast engine's destuffing prescan
    (:func:`repro.jpeg.fast_entropy.destuff_scan`) instead of a
    duplicate byte-at-a-time 0xFF scan: the prescan's marker index
    already holds the original-stream offset of every RSTn pair.  The
    markers must count RST0..RST7 cyclically: segments decode apart, so
    the one place that sees every marker checks the sequence, with the
    sequential decoder's message.
    """
    if restart_interval <= 0:
        raise EntropyError("parallel Huffman decoding needs a DRI interval")
    prescan = destuff_scan(entropy_data)
    for i, value in enumerate(prescan.marker_values):
        if value - 0xD0 != i & 7:
            raise EntropyError(
                f"restart marker out of sequence: RST{value - 0xD0}, "
                f"expected RST{i & 7}")
    boundaries = prescan.marker_orig_offsets

    segments: list[RestartSegment] = []
    start = 0
    mcu_start = 0
    for i, b in enumerate(boundaries):
        segments.append(RestartSegment(
            index=i, byte_start=start, byte_stop=b,
            mcu_start=mcu_start, mcu_count=restart_interval))
        start = b + 2
        mcu_start += restart_interval
    last_count = total_mcus - mcu_start
    if last_count <= 0:
        raise EntropyError("restart markers exceed the MCU count")
    segments.append(RestartSegment(
        index=len(boundaries), byte_start=start, byte_stop=len(entropy_data),
        mcu_start=mcu_start, mcu_count=last_count))
    return segments


def merge_segment_runs(segments: list[RestartSegment],
                       run_count: int) -> list[RestartSegment]:
    """Merge consecutive segments into at most *run_count* runs of about
    equal compressed size — the unit a worker pool is handed: a task per
    segment costs a dispatch, a pickled table set and a transport lease
    each, for work a worker can do in one pass over adjacent bytes.

    A run closes at the segment boundary nearest its share of the bytes
    so far (run *k* of *n* aims at ``k / n`` of the total), so one run
    per segment comes out exactly and an oversized segment yields fewer
    runs.
    """
    count = max(1, min(run_count, len(segments)))
    total = sum(seg.nbytes for seg in segments)
    runs: list[RestartSegment] = []
    first, done = 0, 0
    for i, seg in enumerate(segments):
        done += seg.nbytes
        last = i == len(segments) - 1
        if last or (2 * done + segments[i + 1].nbytes) * count \
                > 2 * total * (len(runs) + 1):
            head = segments[first]
            runs.append(RestartSegment(
                index=head.index, byte_start=head.byte_start,
                byte_stop=seg.byte_stop, mcu_start=head.mcu_start,
                mcu_count=seg.mcu_start + seg.mcu_count - head.mcu_start))
            first = i + 1
    return runs


def decode_segment_coefficients(
    seg: RestartSegment,
    segment_bytes: bytes,
    geometry: ImageGeometry,
    tables: list[ComponentTables],
    restart_interval: int = 0,
) -> list[np.ndarray]:
    """Entropy-decode one restart segment, or one run of them, in
    complete isolation.

    Restart segments are byte-aligned and reset their DC predictions, so
    a run decodes with a fresh sequential decoder over the MCU strip
    (:meth:`~repro.jpeg.blocks.ImageGeometry.mcu_strip`) covering
    exactly its MCUs.  *segment_bytes* starts at the run's first byte;
    a run of several segments carries its interior RSTn markers (and
    *restart_interval*), whose sequence is checked from ``seg.index``,
    and should carry its trailing marker too so the last segment ends
    the way it does in the whole scan.  The strip's MCU count is the
    run's only bound, decoded as one untraced
    :meth:`~repro.jpeg.fast_entropy.FastEntropyDecoder.decode_run`
    (which drops the per-row offset bookkeeping, ~1.5 us per MCU of a
    strip).  Returns the strip's coefficient planes, ready for
    :func:`~repro.jpeg.blocks.scatter_mcu_strip`.

    This function is self-contained and picklable-argument-only on
    purpose: the batched decode service ships it to process-pool
    workers.
    """
    strip = geometry.mcu_strip(seg.mcu_count)
    vdec = FastEntropyDecoder(strip, tables, restart_interval)
    vdec.start(segment_bytes, first_restart=seg.index)
    vdec.decode_run(record=False)
    return vdec.coefficients.planes


def segment_plane_nbytes(seg: RestartSegment,
                         geometry: ImageGeometry) -> list[int]:
    """Byte sizes of the planes :func:`decode_segment_coefficients`
    returns for *seg*, in order: one int16 8x8 block per block of the
    run's MCU strip.  Derived from the same strip geometry the decode
    uses, so a caller sizing a transport buffer (the batched service's
    shared-memory lease) cannot drift out of step with the payload."""
    block_nbytes = 8 * 8 * np.dtype(np.int16).itemsize
    return [c.blocks_total * block_nbytes
            for c in geometry.mcu_strip(seg.mcu_count).components]
