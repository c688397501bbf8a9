"""Low-overhead observability for the decode service.

Three pieces, all stdlib-only:

1. **Trace spans** — a :class:`TraceContext` (trace id + span id) is
   created at ``DecodeSession.submit`` and rides the
   :class:`~repro.service.batch.ImageRequest` through queue wait,
   scheduler placement, lane dispatch, the worker-side decode stages
   (entropy / IDCT / upsample / color, the same boundaries
   ``core/profiling`` instruments), shm publish and — across the
   sharded tier's TCP wire — remote worker hosts, whose spans are
   mapped back into the client's clock domain.  A worker task collects the
   :class:`SpanRecord`\\ s it records in its own list and returns them
   on its reply, so the hot path never blocks on I/O and no span
   outlives the task that recorded it.

2. **Metrics** — :class:`Histogram` (explicit buckets, kept by
   :class:`~repro.service.stats.ServiceStats`), which the HTTP
   server's :func:`~repro.service.http.render_prometheus` exposes at
   ``GET /metrics``.

3. **Timeline reconstruction** — :func:`spans_to_timeline` replays
   collected spans through the simulated-schedule
   :class:`~repro.core.timeline.Timeline` ASCII-Gantt renderer
   (the paper's Figure 5/8 view, measured instead of simulated; loaded
   only when a chart is drawn), and
   :func:`read_trace_log` feeds it from the rotation-safe JSON-lines
   event log (``--trace-log``).

The whole layer is gated on ``request.trace is not None``: with
tracing off (the default) the per-image cost is a single attribute
check (the perf ledger reports it as ``decoder.trace_overhead``).
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_right
from collections import OrderedDict
from pathlib import Path
from time import perf_counter, time
from typing import TYPE_CHECKING, NamedTuple

from ..errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - loaded when a chart is drawn
    from ..core.timeline import Timeline

#: Trace modes accepted by :class:`ObsHub` / ``DecodeSession(tracing=...)``.
#: ``off`` records nothing; ``on`` traces every request; ``sample``
#: traces a deterministic 1-in-N subset.
TRACE_MODES = ("off", "on", "sample")

#: Explicit latency histogram buckets (seconds), Prometheus-style.
LATENCY_BUCKETS_S = (0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                     0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def parse_trace_mode(mode: str) -> str:
    """Validate a tracing mode string, returning it normalized."""
    normalized = str(mode).strip().lower()
    if normalized not in TRACE_MODES:
        raise ServiceError(
            f"unknown tracing mode {mode!r}; expected one of {TRACE_MODES}")
    return normalized


def _new_id(nbytes: int = 8) -> str:
    """A random lowercase-hex identifier (*nbytes* bytes of entropy)."""
    return os.urandom(nbytes).hex()


class TraceContext(NamedTuple):
    """Identity of one span within one trace, propagated on requests.

    Frozen, picklable and JSON-friendly: it crosses process-pool
    pickling and the sharded tier's TCP header unchanged.  ``child()`` derives
    the context a sub-operation should record under.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def new_root(cls) -> "TraceContext":
        """Start a fresh trace (new trace id, root span, no parent)."""
        return cls(trace_id=_new_id(), span_id=_new_id(), parent_id=None)

    def child(self) -> "TraceContext":
        """A context for a sub-operation parented to this span."""
        return TraceContext(trace_id=self.trace_id, span_id=_new_id(),
                            parent_id=self.span_id)

    def to_dict(self) -> dict:
        """JSON-safe form for the remote wire header."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        """Rebuild a context from :meth:`to_dict` output."""
        return cls(trace_id=str(payload["trace_id"]),
                   span_id=str(payload["span_id"]),
                   parent_id=(None if payload.get("parent_id") is None
                              else str(payload["parent_id"])))


class SpanRecord(NamedTuple):
    """One completed operation inside a trace.

    Timestamps are ``time.perf_counter()`` seconds — system-wide
    monotonic on Linux, so spans recorded by forked pool workers are
    directly comparable with the parent's; spans from *remote* hosts
    live in a foreign clock domain until
    :func:`map_remote_spans` shifts them into the client's.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str          # "request", "queue", "entropy", "shm_publish", ...
    resource: str      # "client", lane name, worker name, endpoint/worker
    kind: str          # a Timeline glyph kind: huffman/dispatch/...
    start: float       # perf_counter seconds (client clock domain)
    end: float
    attrs: dict

    @property
    def duration_s(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-safe form (one object per line in the trace log)."""
        out = {"trace_id": self.trace_id, "span_id": self.span_id,
               "parent_id": self.parent_id, "name": self.name,
               "resource": self.resource, "kind": self.kind,
               "start": self.start, "end": self.end}
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(trace_id=str(payload["trace_id"]),
                   span_id=str(payload["span_id"]),
                   parent_id=payload.get("parent_id"),
                   name=str(payload["name"]),
                   resource=str(payload.get("resource", "?")),
                   kind=str(payload.get("kind", "dispatch")),
                   start=float(payload["start"]),
                   end=float(payload["end"]),
                   attrs=dict(payload.get("attrs") or {}))


def make_span(ctx: TraceContext, name: str, resource: str, kind: str,
              start: float, end: float, **attrs) -> SpanRecord:
    """Build a :class:`SpanRecord` carrying *ctx*'s own span identity."""
    return SpanRecord(trace_id=ctx.trace_id, span_id=ctx.span_id,
                      parent_id=ctx.parent_id, name=name, resource=resource,
                      kind=kind, start=start, end=end, attrs=attrs)


def child_span(ctx: TraceContext, name: str, resource: str, kind: str,
               start: float, end: float, **attrs) -> SpanRecord:
    """Build a span for a sub-operation parented to *ctx*'s span."""
    return SpanRecord(trace_id=ctx.trace_id, span_id=_new_id(),
                      parent_id=ctx.span_id, name=name, resource=resource,
                      kind=kind, start=start, end=end, attrs=attrs)


class Histogram:
    """Prometheus-style histogram over :data:`LATENCY_BUCKETS_S`
    (``+Inf`` implied).

    ``observe`` is a bisect plus two adds; its owner serializes the
    calls (a session records under its stats lock).  ``snapshot``
    returns *cumulative* bucket counts, ready for text exposition.
    """

    def __init__(self) -> None:
        """An empty histogram; one count per bucket plus ``+Inf``."""
        self._counts = [0] * (len(LATENCY_BUCKETS_S) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect_right(LATENCY_BUCKETS_S, value)] += 1
        self._sum += value
        self._count += 1

    def snapshot(self) -> dict:
        """Cumulative ``{le: count}`` buckets plus sum and count."""
        cumulative: list[tuple[str, int]] = []
        running = 0
        for bound, count in zip(LATENCY_BUCKETS_S, self._counts):
            running += count
            cumulative.append((repr(bound), running))
        cumulative.append(("+Inf", self._count))
        return {"buckets": cumulative, "sum": self._sum,
                "count": self._count}


class TraceLog:
    """Rotation-safe JSON-lines span log (one object per span).

    Every flush reopens the file in append mode, so an external
    ``mv`` + recreate rotation is picked up on the next batch without
    signal handling, and concurrent writers interleave whole lines
    (O_APPEND semantics).
    """

    def __init__(self, path: str | Path):
        """Append spans to *path* (created on first write)."""
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, spans: list[SpanRecord]) -> None:
        """Serialize and append *spans*, one JSON object per line."""
        if not spans:
            return
        payload = "".join(
            json.dumps(s.to_dict(), separators=(",", ":")) + "\n"
            for s in spans)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(payload)


def read_trace_log(path: str | Path) -> "OrderedDict[str, list[SpanRecord]]":
    """Parse a :class:`TraceLog` file into ``trace_id -> spans``.

    Tolerates a torn final line (a writer mid-append or mid-rotation):
    undecodable lines are skipped, never fatal.
    """
    traces: OrderedDict[str, list[SpanRecord]] = OrderedDict()
    log_path = Path(path)
    if not log_path.exists():
        return traces
    with open(log_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                span = SpanRecord.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue
            traces.setdefault(span.trace_id, []).append(span)
    return traces


class ObsHub:
    """Per-session observability root: sampler, counters and trace log.

    Owned by ``DecodeSession``.  ``maybe_start_trace`` implements the
    mode gate (``off`` / ``on`` / ``sample``); ``record_spans`` counts
    completed spans and, when configured, appends them to the
    JSON-lines :class:`TraceLog`.
    """

    def __init__(self, mode: str = "off", sample_rate: float = 0.1,
                 log_path: str | Path | None = None):
        """Configure the hub; *sample_rate* applies to ``sample`` mode."""
        self.mode = parse_trace_mode(mode)
        if not (0.0 < sample_rate <= 1.0):
            raise ServiceError(
                f"trace sample rate must be in (0, 1], got {sample_rate}")
        self.sample_period = max(1, round(1.0 / sample_rate))
        self.log = TraceLog(log_path) if log_path else None
        self.started_at = time()
        self._seq = 0
        self._lock = threading.Lock()
        self._counters = {"traces_started": 0, "spans_recorded": 0}

    def maybe_start_trace(self) -> TraceContext | None:
        """A fresh root context per the mode gate, or ``None``.

        ``sample`` mode uses a deterministic 1-in-N counter (not a
        PRNG) so benchmark span counts reconcile exactly.
        """
        if self.mode == "on":
            return self.start_trace()
        if self.mode == "sample":
            with self._lock:
                seq = self._seq
                self._seq += 1
            if seq % self.sample_period == 0:
                return self.start_trace()
        return None

    def start_trace(self) -> TraceContext:
        """Unconditionally start a trace (e.g. HTTP ``X-Trace: 1``)."""
        with self._lock:
            self._counters["traces_started"] += 1
        return TraceContext.new_root()

    def record_spans(self, spans: list[SpanRecord]) -> None:
        """Count completed spans and append them to the optional log."""
        if not spans:
            return
        if self.log is not None:
            self.log.append(spans)
        with self._lock:
            self._counters["spans_recorded"] += len(spans)

    def counters(self) -> dict:
        """Current counter values (copied)."""
        with self._lock:
            return dict(self._counters)


def map_remote_spans(spans: list[SpanRecord], endpoint: str,
                     t0: float, t1: float, host_recv: float,
                     host_send: float) -> list[SpanRecord]:
    """Shift remote-host spans into the client's clock domain.

    The offset is estimated from the request/response pair the same
    way NTP does: the midpoint of the client window ``[t0, t1]`` is
    assumed simultaneous with the midpoint of the host's
    ``[host_recv, host_send]`` service window.  Mapped timestamps are
    then clamped into ``[t0, t1]`` so a skewed host clock can never
    make a stitched timeline show negative queue waits.  Resources are
    prefixed with ``endpoint/`` so Gantt rows name the host.
    """
    offset = ((t0 + t1) / 2.0) - ((host_recv + host_send) / 2.0)
    mapped = []
    for span in spans:
        start = min(max(span.start + offset, t0), t1)
        end = min(max(span.end + offset, start), t1)
        mapped.append(SpanRecord(
            trace_id=span.trace_id, span_id=span.span_id,
            parent_id=span.parent_id, name=span.name,
            resource=f"{endpoint}/{span.resource}", kind=span.kind,
            start=start, end=end,
            attrs={**span.attrs, "clock_offset_s": offset}))
    return mapped


# ---------------------------------------------------------------------------
# Timeline reconstruction (the measured Figure 5/8 view).
# ---------------------------------------------------------------------------

def spans_to_timeline(spans: list[SpanRecord]) -> Timeline:
    """Replay collected spans through the ASCII-Gantt renderer.

    Times are normalized to the trace start and expressed in
    microseconds, matching :class:`~repro.core.timeline.Timeline`'s
    simulated-time units so its renderer and metrics apply unchanged.
    """
    from ..core.timeline import Timeline

    timeline = Timeline()
    if not spans:
        return timeline
    origin = min(s.start for s in spans)
    for span in sorted(spans, key=lambda s: s.start):
        start_us = (span.start - origin) * 1e6
        end_us = max(start_us, (span.end - origin) * 1e6)
        timeline.add(span.resource, span.name, span.kind, start_us, end_us)
    return timeline


def format_trace(trace_id: str, spans: list[SpanRecord],
                 width: int = 78) -> str:
    """Render one trace: Gantt chart plus an indented span tree."""
    if not spans:
        return f"trace {trace_id}: no spans"
    lines = [f"trace {trace_id} — {len(spans)} span(s), "
             f"{(max(s.end for s in spans) - min(s.start for s in spans)) * 1e3:.2f} ms",
             "", spans_to_timeline(spans).render(width=width), ""]
    by_parent: dict[str | None, list[SpanRecord]] = {}
    known = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        by_parent.setdefault(parent, []).append(span)
    origin = min(s.start for s in spans)

    def walk(parent: str | None, depth: int) -> None:
        """Append one tree level, sorted by start time."""
        for span in sorted(by_parent.get(parent, ()), key=lambda s: s.start):
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items()
                             if k != "clock_offset_s")
            lines.append(
                f"  {'  ' * depth}{span.name:<14} "
                f"+{(span.start - origin) * 1e3:8.2f} ms "
                f"{span.duration_s * 1e3:8.2f} ms  "
                f"[{span.resource}]{'  ' + attrs if attrs else ''}")
            walk(span.span_id, depth + 1)

    walk(None, 0)
    return "\n".join(lines)


#: Re-exported so worker tasks can stamp spans without importing time.
now = perf_counter
