"""Low-overhead observability for the decode service.

Two pieces, both stdlib-only:

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
   outlives the task that recorded it.  With ``--trace-log`` every
   completed span is appended to a rotation-safe JSON-lines
   :class:`TraceLog`, which :func:`read_trace_log` reads back for
   ``repro trace`` / ``repro timeline``.

2. **Metrics** — :class:`Histogram` (explicit buckets, kept by
   :class:`~repro.service.stats.ServiceStats`), which the HTTP
   server's :func:`~repro.service.http.render_prometheus` exposes at
   ``GET /metrics``.

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
from time import time
from typing import NamedTuple

from ..errors import ServiceError

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
    :func:`~repro.service.remote.map_remote_spans` shifts them into the
    client's.
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
