"""Stdlib-only HTTP shim over the futures-based decode session.

:class:`DecodeHTTPServer` turns a
:class:`~repro.service.session.DecodeSession` into a network service
(``repro serve`` on the CLI) using nothing beyond
:mod:`http.server` — no framework, no event loop, one handler thread
per connection (``ThreadingHTTPServer``), each blocking on its own
:class:`~repro.service.session.DecodeHandle` while the shared pump
forms cross-request batches underneath.  That is the serving shape the
ROADMAP's "async/streaming front end" item asks for: concurrent
producers exercising the bounded queue for real.

Endpoints:

- ``POST /decode`` — body is one JPEG; responds ``200`` with the
  decoded image as binary PPM (``image/x-portable-pixmap``) plus
  ``X-Request-Id``/``X-Width``/``X-Height``/``X-Segments``/
  ``X-Latency-Ms`` headers.  ``POST /decode?format=json`` responds with
  the metadata only (no pixels).  Malformed images answer ``400`` with
  a JSON error body (per-request isolation: one bad upload never
  disturbs another request's decode).
- ``GET /stats`` — JSON snapshot of the running
  :class:`~repro.service.stats.ServiceStats` (plus queue occupancy and
  scheduler feedback when attached).
- ``GET /metrics`` — the same state in Prometheus text exposition
  format (``text/plain; version=0.0.4``), rendered by
  :func:`render_prometheus`: queue depth, shed /
  retry / deadline counters, per-lane EWMA scale and breaker state,
  per-host link counters, and the decode-latency histogram.
- ``GET /healthz`` — liveness probe.

Tracing: an ``X-Trace: 1`` request header forces a trace for that
request regardless of the session's sampling mode; traced responses
carry the trace id in an ``X-Trace-Id`` header (feed it to
``repro trace <id>``).

Backpressure: a full submission queue maps to ``429 Too Many
Requests`` with a ``Retry-After`` header — the HTTP spelling of
:class:`~repro.errors.QueueFullError`; a closed session maps to
``503``.  ``Retry-After`` on 429/503/504 scales with the current
backlog (pending requests over observed throughput, clamped to
[1, 30] s) instead of a fixed constant.  Priorities: an ``X-Priority``
request header (``low``/``normal``/``high`` or an integer class)
selects the request's load-shedding class — under overload low
classes are shed (429) while the queue still admits higher ones
(weighted shedding; see
:data:`~repro.service.session.DEFAULT_SHED_FRACTIONS`).  Deadlines:
an ``X-Deadline-Ms`` request header bounds how long the request may
wait before its decode starts; a request shed at its deadline
(:class:`~repro.errors.DeadlineExceededError`) answers ``504`` with
``Retry-After`` — the client should back off, the service is
load-shedding.  Salvage: an ``X-Salvage: 1`` request header asks for
best-effort decode of corrupt streams — the response carries
``X-Salvaged: 1`` (and ``salvaged``/``salvage_errors``/``damaged_mcus``
in JSON metadata) when rows were recovered past an error.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import CancelledError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import time
from typing import Any
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from .tasks import ImageRequest, ImageResult, parse_priority
from .session import DecodeSession

#: Seconds a connection may stay silent — idle between requests, or
#: stalled mid-body — before its handler drops it.  Handler threads are
#: joined at close, so without a bound one silent client would hold up
#: shutdown and the SIGTERM drain.
IDLE_TIMEOUT_S = 30.0

#: Seconds a handler waits for its decode before answering 504.
RESULT_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# Prometheus text exposition (dependency-free).
# ---------------------------------------------------------------------------

def _escape_label(value: object) -> str:
    """Escape a label value per the exposition format."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _at(node: object, *path: str, default: object = 0) -> object:
    """``node[path[0]][path[1]]...``, or *default* where a key is absent
    (an unscheduled session has no ``scheduler`` section)."""
    for key in path:
        node = (node or {}).get(key)
    return default if node is None else node


def _one(*path: str):
    """A family that is the single unlabelled number at *path* (no
    sample when the snapshot has no such key)."""
    def samples(snapshot: dict):
        value = _at(snapshot, *path, default=None)
        return [] if value is None else [(None, value)]
    return samples


def _each(label: str, *path: str, field: str | None = None):
    """A family with one sample per entry of the dict at *path*, in key
    order, labelled ``label=key``: the entry, or the entry's *field*."""
    def samples(snapshot: dict):
        for key, entry in sorted(_at(snapshot, *path, default={}).items()):
            yield {label: key}, entry if field is None else entry[field]
    return samples


def _per_host(*fields: tuple[str, dict]):
    """A family over the remote host links, labelled by endpoint; each
    of *fields* is ``(link counter, extra labels)``."""
    def samples(snapshot: dict):
        for _, link in sorted(_at(snapshot, "per_host", default={}).items()):
            for counter, extra in fields:
                yield {"host": link["endpoint"], **extra}, link[counter]
    return samples


def _breaker_states(snapshot: dict):
    """1 for the state each lane's breaker is in, 0 for the other two."""
    breakers = _at(snapshot, "scheduler", "breakers", default={})
    for lane, breaker in sorted(breakers.items()):
        for state in ("closed", "open", "half_open"):
            yield ({"lane": lane, "state": state},
                   1 if breaker["state"] == state else 0)


def _latency_histogram(snapshot: dict):
    """Cumulative buckets, then ``_sum`` and ``_count`` (no sample when
    the snapshot carries no histogram)."""
    hist = snapshot.get("latency_histogram")
    if hist is None:
        return
    for le, count in hist["buckets"]:
        yield {"le": le}, count, "_bucket"
    yield None, hist["sum"], "_sum"
    yield None, hist["count"], "_count"


#: Stamped at import so repeated scrapes expose a stable start marker.
_PROCESS_EPOCH = time()

#: ``/metrics`` as data: ``(name, type, help, samples)`` per family, in
#: exposition order.  ``samples(source)`` yields ``(labels | None,
#: value)`` — plus a name suffix for histogram series.  One header, then
#: all of a family's samples: the format forbids reopening a family.
_SNAPSHOT_FAMILIES = (
    ("repro_images_total", "counter", "Images decoded (lifetime).",
     lambda s: [({"outcome": o}, _at(s, f"images_{o}"))
                for o in ("ok", "failed", "split")]),
    ("repro_batches_total", "counter", "Batches decoded (lifetime).",
     _one("batches")),
    ("repro_queue_depth", "gauge", "Requests waiting in the queue.",
     _one("pending")),
    ("repro_queue_capacity", "gauge", "Bounded queue capacity.",
     _one("queue_capacity")),
    ("repro_retries_total", "counter", "Per-image dispatch retries.",
     _one("faults", "retries")),
    ("repro_infra_failures_total", "counter",
     "Worker crashes / infrastructure failures.",
     _one("faults", "infra_failures")),
    ("repro_deadline_expired_total", "counter", "Requests shed by deadline.",
     _one("faults", "deadline_expired")),
    ("repro_pool_rebuilds_total", "counter",
     "Broken worker pools rebuilt in place.",
     _one("faults", "pool_rebuilds")),
    ("repro_shed_total", "counter", "Admissions refused, by priority class.",
     _each("priority", "faults", "shed_by_priority")),
    ("repro_transport_bytes_total", "counter",
     "Result plane bytes by transport mode.",
     lambda s: [({"mode": m}, _at(s, "transport", f"{m}_bytes"))
                for m in ("shm", "pickle")]),
    ("repro_lane_images_total", "counter", "Images decoded per executor lane.",
     _each("lane", "per_executor", field="images")),
    ("repro_lane_busy_seconds_total", "counter",
     "Busy wall-clock per executor lane.",
     _each("lane", "per_executor", field="busy_s")),
    ("repro_lane_ewma_scale", "gauge",
     "EWMA feedback scale per scheduler lane.",
     _each("lane", "scheduler", "feedback", "scales")),
    ("repro_lane_breaker_state", "gauge",
     "Circuit breaker state per lane (1 = in this state).", _breaker_states),
    ("repro_host_requests_total", "counter",
     "Requests dispatched per remote host.", _per_host(("requests", {}))),
    ("repro_host_failures_total", "counter",
     "Failed dispatches per remote host.", _per_host(("failures", {}))),
    ("repro_host_bytes_total", "counter",
     "Wire bytes per remote host, by direction.",
     _per_host(("bytes_tx", {"direction": "tx"}),
               ("bytes_rx", {"direction": "rx"}))),
    ("repro_process_start_unixtime", "gauge",
     "Unix time this process's exporter first rendered.",
     lambda _: [(None, _PROCESS_EPOCH)]),
    ("repro_decode_latency_seconds", "histogram",
     "End-to-end decode latency (submit to result).", _latency_histogram),
    ("repro_traces_started_total", "counter",
     "Trace contexts created by the sampler gate.",
     _one("tracing", "traces_started")),
    ("repro_spans_recorded_total", "counter",
     "Spans recorded by traced requests.", _one("tracing", "spans_recorded")),
    ("repro_obs_uptime_seconds", "gauge",
     "Seconds since the observability hub started.", _one("uptime_s")),
)


def render_prometheus(snapshot: dict) -> str:
    """Render a session ``stats_snapshot()`` as Prometheus text:
    counters (``_total``), gauges and the decode-latency histogram with
    explicit buckets; per-lane and per-host series carry ``lane`` /
    ``host`` labels.  The snapshot is the only input."""
    lines: list[str] = []
    for name, kind, help_text, samples in _SNAPSHOT_FAMILIES:
        lines += [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
        for labels, value, *suffix in samples(snapshot):
            body = ",".join(f'{k}="{_escape_label(v)}"'
                            for k, v in (labels or {}).items())
            lines.append(f"{name}{''.join(suffix)}"
                         f"{'{' + body + '}' if body else ''} "
                         f"{float(value):g}")
    return "\n".join(lines) + "\n"


def ppm_parts(rgb: np.ndarray) -> tuple[bytes, np.ndarray]:
    """A binary PPM (P6) of an ``(h, w, 3)`` uint8 array as its header
    and the pixels behind it: contiguous, not copied."""
    h, w = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h), np.ascontiguousarray(rgb)


def ppm_bytes(rgb: np.ndarray) -> bytes:
    """:func:`ppm_parts` joined into one ``bytes``: one frame-sized copy."""
    return b"".join(ppm_parts(rgb))


def result_metadata(result: ImageResult) -> dict:
    """JSON-ready metadata of one decode outcome (no pixel payload)."""
    meta = {
        "request_id": result.request_id,
        "ok": result.ok,
        "width": result.width,
        "height": result.height,
        "segments": result.segments,
        "latency_ms": round(result.latency_s * 1e3, 3),
        "error_type": result.error_type,
        "error": result.error,
    }
    if result.salvaged:
        meta["salvaged"] = True
        meta["salvage_errors"] = list(result.salvage_errors)
        if result.error_regions is not None:
            meta["damaged_mcus"] = int(result.error_regions.sum())
    if result.trace_spans:
        meta["trace_id"] = result.trace_spans[0].trace_id
    return meta


def _flag(value: str) -> bool:
    """An on/off header value: on unless empty, ``0``, ``false``, ``no``."""
    return value.strip().lower() not in ("", "0", "false", "no")


#: Request headers that override a per-request knob: header name ->
#: (:class:`~repro.service.tasks.ImageRequest` field, value parser).
_HEADER_KNOBS = {
    "X-Deadline-Ms": ("deadline_ms", float),
    "X-Salvage": ("salvage", _flag),
    "X-Priority": ("priority", parse_priority),
}


class _DecodeRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request: submit to the shared session, await the handle."""

    server: "_SessionHTTPServer"

    # -- plumbing -------------------------------------------------------

    @property
    def timeout(self) -> float:
        """The connection's socket timeout (:data:`IDLE_TIMEOUT_S`); the
        stdlib turns its expiry into a closed connection."""
        return IDLE_TIMEOUT_S

    def log_message(self, format: str, *args: Any) -> None:
        """Suppress the stdlib's per-request stderr chatter."""

    def _send(self, status: int, body: "bytes | tuple", content_type: str,
              extra_headers: dict[str, str] | None = None) -> None:
        """Write one complete response; a tuple *body* is written part
        by part, each from its own memory (no joined copy)."""
        parts = body if isinstance(body, tuple) else (body,)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length",
                         str(sum(memoryview(p).nbytes for p in parts)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        for part in parts:
            self.wfile.write(part)

    def _send_json(self, status: int, payload: dict,
                   extra_headers: dict[str, str] | None = None) -> None:
        """Write a JSON response."""
        self._send(status, json.dumps(payload, indent=2).encode() + b"\n",
                   "application/json", extra_headers)

    def _retry_after(self) -> str:
        """``Retry-After`` value, scaled to the session's backlog."""
        return str(self.server.session.retry_after_s())

    # -- endpoints ------------------------------------------------------

    def do_GET(self) -> None:
        """``/stats``, ``/metrics`` and ``/healthz``."""
        path = urlparse(self.path).path
        if path == "/stats":
            self._send_json(200, self.server.session.stats_snapshot())
        elif path == "/metrics":
            body = render_prometheus(self.server.session.stats_snapshot())
            self._send(200, body.encode(),
                       "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            self._send_json(200, {"status": "ok",
                                  "closed": self.server.session.closed})
        else:
            self._send_json(404, {"error": f"no such resource: {path}"})

    def do_POST(self) -> None:
        """``/decode``: body in, PPM (or metadata JSON) out."""
        url = urlparse(self.path)
        if url.path != "/decode":
            self._send_json(404, {"error": f"no such resource: {url.path}"})
            return
        item = self._read_request()
        result = self._decode(item) if item is not None else None
        if result is None:
            return
        meta = result_metadata(result)
        fmt = parse_qs(url.query).get("format", ["ppm"])[0]
        if not result.ok or fmt == "json":
            self._send_json(200 if result.ok else 400, meta)
            return
        headers = {
            "X-Request-Id": str(result.request_id),
            "X-Width": str(result.width),
            "X-Height": str(result.height),
            "X-Segments": str(result.segments),
            "X-Latency-Ms": f"{result.latency_s * 1e3:.3f}",
        }
        if result.salvaged:
            headers["X-Salvaged"] = "1"
        if result.trace_spans:
            headers["X-Trace-Id"] = result.trace_spans[0].trace_id
        self._send(200, ppm_parts(result.rgb), "image/x-portable-pixmap",
                   headers)

    def _read_request(self) -> "bytes | ImageRequest | None":
        """The POSTed JPEG as a submittable item: the raw bytes, or an
        :class:`~repro.service.tasks.ImageRequest` when request headers
        override per-request knobs.  A malformed header answers 400."""
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw or 0)
        except ValueError:
            self._send_json(400, {
                "error": f"invalid Content-Length header: {raw!r}"})
            return None
        if length <= 0:
            self._send_json(400, {"error": "empty request body "
                                           "(POST the JPEG bytes)"})
            return None
        data = self.rfile.read(length)
        overrides: dict[str, Any] = {}
        for name, (knob, parse) in _HEADER_KNOBS.items():
            raw = self.headers.get(name)
            if raw is None:
                continue
            try:
                overrides[knob] = parse(raw)
            except (ValueError, ServiceError) as exc:
                self._send_json(400, {
                    "error": f"invalid {name} header: {raw!r} ({exc})"})
                return None
        if _flag(self.headers.get("X-Trace", "")):
            # Force a trace for this request, bypassing the sampler.
            overrides["trace"] = self.server.session.obs.start_trace()
        if not overrides:
            return data
        return ImageRequest(data=data, **overrides)

    def _decode(self, item: "bytes | ImageRequest") -> ImageResult | None:
        """Submit *item* without blocking and wait for its result; a
        refused submission answers 429 / 503 / 400, a request that
        never decoded 504 / 503 / 500."""
        try:
            handle = self.server.session.submit(item, timeout=0)
        except (QueueFullError, ServiceClosedError) as exc:
            # Retry-After scales with the actual backlog: a client told
            # to come back in N seconds should find queue space then.
            self._send_json(429 if isinstance(exc, QueueFullError) else 503,
                            {"error": str(exc)},
                            {"Retry-After": self._retry_after()})
            return None
        except ServiceError as exc:
            # Invalid per-request knob (e.g. non-positive deadline).
            self._send_json(400, {"error": str(exc)})
            return None
        extra = None
        try:
            return handle.result(timeout=RESULT_TIMEOUT_S)
        except DeadlineExceededError as exc:
            # The request expired before a worker picked it up: the
            # service is shedding load, tell the client to back off.
            status, error = 504, str(exc)
            extra = {"Retry-After": self._retry_after()}
        except TimeoutError:
            status, error = 504, ("decode did not complete within "
                                  f"{RESULT_TIMEOUT_S}s")
        except CancelledError:
            # The session closed with drain=False under this request
            # (externally-owned session); answer, don't drop the socket.
            status, error = 503, "request cancelled: session closing"
        except Exception as exc:
            # Infrastructure failure (dead pool): 500 beats a handler
            # traceback and a reset connection.
            status, error = 500, f"{type(exc).__name__}: {exc}"
        self._send_json(status, {"error": error,
                                 "request_id": handle.request_id}, extra)
        return None


class _SessionHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared session reference."""

    #: Non-daemon handler threads: ``server_close`` then joins every
    #: in-flight request before the session shuts down, so a response
    #: already being decoded can never observe a closed session.
    daemon_threads = False

    #: Listen backlog.  The stdlib default of 5 makes the kernel drop
    #: the SYN of a sixth simultaneous connection, and its client then
    #: stalls for the 1 s retransmit timer.
    request_queue_size = 128

    session: DecodeSession

    #: Connections accepted so far (bounded serve_forever counts these,
    #: not accept-timeout ticks).
    handled = 0

    def process_request(self, request: Any, client_address: Any) -> None:
        """Count the accepted connection, then dispatch as usual."""
        self.handled += 1
        super().process_request(request, client_address)


class DecodeHTTPServer:
    """The decode session, served over HTTP.

    Either wrap an existing session (``DecodeHTTPServer(session=s)``)
    or pass :class:`~repro.service.session.DecodeSession` keyword
    arguments and let the server own one (closed with the server).
    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.
    """

    def __init__(self, session: DecodeSession | None = None,
                 host: str = "127.0.0.1", port: int = 8077,
                 **session_kwargs: Any) -> None:
        """Bind the listening socket and attach (or build) the session."""
        self._owns_session = session is None
        # _stopping ends either loop; _looping says whether the stdlib's
        # unbounded loop runs — the only one BaseServer.shutdown can wait
        # for.  One lock orders the two flags.
        self._stopping = False
        self._looping = False
        self._loop_lock = threading.Lock()
        self.session = session or DecodeSession(**session_kwargs)
        self._httpd = _SessionHTTPServer((host, port), _DecodeRequestHandler)
        self._httpd.session = self.session

    @property
    def host(self) -> str:
        """Bound interface."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the ephemeral one when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients target."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self, max_requests: int | None = None) -> None:
        """Serve until :meth:`shutdown` (``max_requests=None``) or until
        *max_requests* connections have been accepted — the bounded mode
        tests and demos use so the call returns on its own."""
        if max_requests is None:
            with self._loop_lock:
                if self._stopping:
                    return
                self._looping = True
            try:
                self._httpd.serve_forever(poll_interval=0.05)
            finally:
                self._looping = False
        else:
            # Short accept timeout so a shutdown() from another thread
            # (the graceful-drain signal path) stops this loop too.
            self._httpd.timeout = 0.05
            target = self._httpd.handled + max_requests
            while not self._stopping and self._httpd.handled < target:
                self._httpd.handle_request()

    def shutdown(self) -> None:
        """Stop a :meth:`serve_forever` loop running in another thread;
        returns at once when none is."""
        with self._loop_lock:
            self._stopping = True
            looping = self._looping
        if looping:
            self._httpd.shutdown()

    def close(self) -> None:
        """Close the socket; drain and close the session if owned."""
        self._httpd.server_close()
        if self._owns_session:
            self.session.close(drain=True)

    def __enter__(self) -> "DecodeHTTPServer":
        """Context-manager entry: the server itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close socket (and owned session)."""
        self.close()
