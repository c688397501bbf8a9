"""Sharded serving tier: scheduler lanes that live across a socket.

A decoder runs its local scheduler lanes on its one worker pool; this
module supplies the lane that opens a pool of its own, whose other end
is another machine, so the same Eq 5/6 pricing + per-lane EWMA
feedback machinery places whole images onto worker hosts.  Three pieces:

- :class:`DecodeWorkerHost` — a lightweight worker host (``repro
  serve-worker``) wrapping one :class:`~repro.service.session.\
  DecodeSession` behind a length-prefixed TCP protocol.  Requests and
  results travel as one JSON header plus raw binary blobs; decoded
  planes ride the existing :class:`~repro.service.transport.PlaneRef`
  descriptor contract — ``{shape, dtype}`` plus a blob index — so the
  wire format is the byte-transport spelling of the shm descriptor.
- :class:`RemoteLane` / :class:`HostPool` — an
  :class:`~repro.service.scheduler.ExecutorLane` describing the link
  (endpoint, ``depth``, timeouts) and the
  :class:`~repro.service.workers.WorkerPool` it opens: ``depth``
  threads, one persistent connection each, answering with the same
  :class:`~repro.service.tasks.TaskReply` a local worker sends.  The
  scheduler prices and places onto it exactly like a local lane.
- :func:`sharded_session` — the front tier (``repro serve --hosts``):
  a plain session over :func:`remote_executors` lanes.  Remote
  ``wall_us`` folds into
  :class:`~repro.service.scheduler.ThroughputFeedback`, connection
  failures trip the :class:`~repro.service.scheduler.LaneBreakerBoard`
  (half-open canary = one probe request), and a failed dispatch fails
  over to a surviving host.

Wire format (all integers big-endian)::

    u32 header_len | header (JSON, UTF-8) | u32 nblobs
        | { u64 blob_len | blob bytes } * nblobs

A :class:`~repro.service.faults.FaultPlan` on the front tier injects
its faults *client-side*, in the host pool's threads (see
:mod:`repro.service.faults`).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from concurrent.futures import Future
from contextlib import suppress
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..errors import RemoteHostError, RemoteProtocolError, ServiceError
from .faults import FaultDirective, apply_dispatch_fault
from .obs import SpanRecord, TraceContext, child_span
from .scheduler import ExecutorLane, LaneBreakerBoard, ModelScheduler
from .session import DecodeSession
from .tasks import ImageRequest, ImageResult, TaskReply, decode_image_task
from .workers import WorkerPool

#: Refuse JSON headers beyond this size: a desynchronized or hostile
#: stream must fail fast, not allocate gigabytes.
MAX_HEADER_BYTES = 16 * 1024 * 1024

#: Refuse single blobs beyond this size (1 GiB covers any plausible
#: decoded plane; a corrupt length prefix must not OOM the host).
MAX_BLOB_BYTES = 1 << 30

#: ImageRequest fields carried verbatim in the decode header.  The
#: front tier owns deadlines (a shed request never reaches the wire)
#: and fan-out is the host's own policy, so ``deadline_ms`` stays home.
#: :func:`decode_request` ignores names not listed here, so a frame from
#: an older front tier carrying since-removed knobs (``mode``,
#: ``platform``) still decodes.
_REQUEST_FIELDS = ("request_id", "salvage", "priority")

#: Scalar ImageResult fields carried verbatim in the result header.
#: :func:`decode_result` reads only these, so an older host's
#: ``simulated_us`` is ignored.
_RESULT_FIELDS = (
    "request_id", "ok", "width", "height", "error_type", "error",
    "segments", "speculative", "misspeculated", "wall_us", "attempts",
    "infra_failure", "salvaged",
)


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------

def pack_frame(header: dict, blobs: Sequence[bytes] = ()) -> bytes:
    """One complete frame as it goes on the wire.

    The header is compact JSON; blobs follow as length-prefixed raw
    bytes (the byte-transport analog of shm
    :class:`~repro.service.transport.PlaneRef` payloads).
    """
    payload = json.dumps(header, separators=(",", ":")).encode()
    parts = [struct.pack(">I", len(payload)), payload,
             struct.pack(">I", len(blobs))]
    for blob in blobs:
        parts += [struct.pack(">Q", len(blob)), bytes(blob)]
    return b"".join(parts)


def send_frame(sock: socket.socket, header: dict,
               blobs: Sequence[bytes] = ()) -> int:
    """Write one complete frame; returns the exact bytes put on the wire."""
    data = pack_frame(header, blobs)
    sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, n: int,
                between_frames: bool = False) -> bytes | None:
    """Read exactly *n* bytes.  EOF raises
    :class:`~repro.errors.RemoteProtocolError` — except before the
    first byte of a read *between_frames*, a clean close: None."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(1 << 16, n - len(buf)))
        if not chunk:
            if between_frames and not buf:
                return None
            raise RemoteProtocolError(
                f"connection closed mid-frame ({len(buf)}/{n} bytes)")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket
               ) -> tuple[dict, list[bytes], int] | None:
    """Read one complete frame: its header, its blobs and the bytes it
    took on the wire; None on clean EOF at a frame boundary.

    Raises :class:`~repro.errors.RemoteProtocolError` on truncation
    mid-frame, an oversized header/blob, or undecodable header JSON.
    """
    head = _recv_exact(sock, 4, between_frames=True)
    if head is None:
        return None
    (header_len,) = struct.unpack(">I", head)
    if header_len > MAX_HEADER_BYTES:
        raise RemoteProtocolError(
            f"frame header of {header_len} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte limit")
    try:
        header = json.loads(_recv_exact(sock, header_len).decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise RemoteProtocolError(f"undecodable frame header: {exc}")
    if not isinstance(header, dict):
        raise RemoteProtocolError(
            f"frame header must be a JSON object, got "
            f"{type(header).__name__}")
    (nblobs,) = struct.unpack(">I", _recv_exact(sock, 4))
    blobs: list[bytes] = []
    nbytes = 8 + header_len
    for _ in range(nblobs):
        (blob_len,) = struct.unpack(">Q", _recv_exact(sock, 8))
        if blob_len > MAX_BLOB_BYTES:
            raise RemoteProtocolError(
                f"frame blob of {blob_len} bytes exceeds the "
                f"{MAX_BLOB_BYTES}-byte limit")
        blobs.append(_recv_exact(sock, blob_len))
        nbytes += 8 + blob_len
    return header, blobs, nbytes


# ---------------------------------------------------------------------------
# Request / result codecs.
# ---------------------------------------------------------------------------

def _wire_id(request_id: Any) -> Any:
    """A request id as the JSON header carries it: stringified when it
    is not a JSON scalar (the front tier keys results by batch
    position, so the echoed id is informational on the wire)."""
    if isinstance(request_id, (str, int, float, bool, type(None))):
        return request_id
    return str(request_id)


def _array_from_descriptor(descriptor: dict,
                           blobs: Sequence[bytes]) -> np.ndarray:
    """Rebuild the ndarray a ``PlaneRef``-style wire descriptor (see
    :func:`encode_result`) describes."""
    try:
        blob = blobs[int(descriptor["blob"])]
        array = np.frombuffer(blob, dtype=np.dtype(descriptor["dtype"]))
        return array.reshape(tuple(descriptor["shape"])).copy()
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise RemoteProtocolError(f"malformed plane descriptor: {exc}")


def encode_request(request: ImageRequest) -> tuple[dict, list[bytes]]:
    """Serialize one decode request: knobs in the header, JFIF bytes as
    the single blob."""
    fields = {name: getattr(request, name) for name in _REQUEST_FIELDS}
    fields["request_id"] = _wire_id(request.request_id)
    header: dict[str, Any] = {"op": "decode", "request": fields}
    if request.trace is not None:
        # The trace context rides the header so host-side spans stitch
        # into the client's trace (the host honors any propagated
        # context regardless of its own tracing mode).
        header["trace"] = request.trace.to_dict()
    return header, [bytes(request.data)]


def decode_request(header: dict, blobs: Sequence[bytes]) -> ImageRequest:
    """Rebuild the :class:`~repro.service.batch.ImageRequest` of one
    ``decode`` frame."""
    if not blobs:
        raise RemoteProtocolError("decode frame carries no JPEG blob")
    fields = header.get("request")
    if not isinstance(fields, dict):
        raise RemoteProtocolError("decode frame carries no request header")
    known = {name: fields[name] for name in _REQUEST_FIELDS
             if name in fields}
    trace = header.get("trace")
    if isinstance(trace, dict):
        try:
            known["trace"] = TraceContext.from_dict(trace)
        except (KeyError, TypeError, ValueError) as exc:
            raise RemoteProtocolError(f"malformed trace context: {exc}")
    try:
        return ImageRequest(data=blobs[0], **known)
    except TypeError as exc:
        raise RemoteProtocolError(f"malformed decode request: {exc}")


def encode_result(result: ImageResult) -> tuple[dict, list[bytes]]:
    """Serialize one decode outcome: scalars (busy time as ``wall_us``
    among them) and trace spans in the header, pixel plane (and salvage
    error map, when present) as blobs."""
    header: dict[str, Any] = {"op": "result"}
    for name in _RESULT_FIELDS:
        header[name] = getattr(result, name)
    header["request_id"] = _wire_id(result.request_id)
    header["salvage_errors"] = list(result.salvage_errors)
    if result.trace_spans:
        header["trace_spans"] = [s.to_dict() for s in result.trace_spans]
    blobs: list[bytes] = []
    for key, array in (("plane", result.rgb),
                       ("error_regions", result.error_regions)):
        if array is not None:
            # PlaneRef-style descriptor: shape + dtype here, pixels as
            # a blob.
            header[key] = {"shape": list(array.shape),
                           "dtype": str(array.dtype), "blob": len(blobs)}
            blobs.append(np.ascontiguousarray(array).tobytes())
    return header, blobs


def decode_result(header: dict, blobs: Sequence[bytes]) -> ImageResult:
    """Rebuild the :class:`~repro.service.batch.ImageResult` of one
    ``result`` frame (pixels bit-identical to the host's array).  An
    older host's frame also carries its busy time as ``spans`` triples;
    ``wall_us`` says the same, so they are not read."""
    known = {name: header[name] for name in _RESULT_FIELDS
             if name in header}
    try:
        result = ImageResult(**known)
    except TypeError as exc:
        raise RemoteProtocolError(f"malformed decode result: {exc}")
    result.salvage_errors = list(header.get("salvage_errors", ()))
    try:
        result.trace_spans = [SpanRecord.from_dict(d)
                              for d in header.get("trace_spans", ())]
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteProtocolError(f"malformed trace spans: {exc}")
    if "plane" in header:
        result.rgb = _array_from_descriptor(header["plane"], blobs)
    if "error_regions" in header:
        result.error_regions = _array_from_descriptor(
            header["error_regions"], blobs)
    return result


# ---------------------------------------------------------------------------
# Worker host.
# ---------------------------------------------------------------------------

class DecodeWorkerHost:
    """One shard: a :class:`~repro.service.session.DecodeSession` served
    over the length-prefixed TCP protocol (``repro serve-worker``).

    The host builds its session from the keyword arguments and closes
    it with itself.  ``port=0`` binds an ephemeral port; read
    :attr:`port` after construction.  One daemon thread per accepted
    connection; each connection serves frames sequentially (a host
    pool opens up to ``depth`` of them for ``depth``-way concurrency).

    Operations: ``decode`` (request in, result out), ``ping``
    (liveness), ``stats`` (the session's
    :meth:`~repro.service.session.DecodeSession.stats_snapshot`).
    Unknown or malformed frames answer an ``error`` frame; the
    connection survives.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 **session_kwargs: Any) -> None:
        """Bind the listening socket and build the session."""
        self.session = DecodeSession(**session_kwargs)
        try:
            self._sock = socket.create_server((host, port))
        except OSError:
            self.session.close(drain=False)
            raise
        self._sock.settimeout(0.2)
        self.host, self.port = self._sock.getsockname()[:2]
        self._stopping = False
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        #: Connections accepted so far.
        self.connections = 0
        #: Decode requests served so far.
        self.requests = 0
        #: Exact frame bytes received / sent over all connections.
        self.bytes_rx = 0
        self.bytes_tx = 0

    @property
    def endpoint(self) -> str:
        """``host:port`` of the bound listening socket."""
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` (or :meth:`close`)."""
        while not self._stopping:
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break   # listening socket closed under us
            with self._lock:
                if self._stopping:
                    conn.close()
                    break
                self.connections += 1
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
                name=f"repro-host-{self.port}-conn{self.connections}")
            thread.start()
            # Forget the threads of connections that have ended.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one connection's frames until EOF or a socket error."""
        try:
            with conn:
                while (frame := recv_frame(conn)) is not None:
                    header, blobs, received = frame
                    with self._lock:
                        self.bytes_rx += received
                    try:
                        reply, out_blobs = self._dispatch(header, blobs)
                    except Exception as exc:   # answer, don't drop
                        reply, out_blobs = {
                            "op": "error",
                            "error_type": type(exc).__name__,
                            "error": str(exc)}, []
                    data = pack_frame(reply, out_blobs)
                    # Counted before the send: the client may read the
                    # counter the instant its recv returns.
                    with self._lock:
                        self.bytes_tx += len(data)
                    conn.sendall(data)
        except (RemoteProtocolError, OSError):
            pass    # the peer is gone, or what it sends is not frames
        finally:
            with self._lock:
                self._conns.discard(conn)

    def _dispatch(self, header: dict,
                  blobs: Sequence[bytes]) -> tuple[dict, list[bytes]]:
        """Execute one operation frame; returns the reply frame."""
        op = header.get("op")
        if op == "ping":
            return {"op": "pong", "endpoint": self.endpoint}, []
        if op == "stats":
            return {"op": "stats", "endpoint": self.endpoint,
                    "requests": self.requests,
                    "stats": self.session.stats_snapshot()}, []
        if op == "decode":
            host_recv = perf_counter()
            request = decode_request(header, blobs)
            if request.trace is not None:
                # Fork a child context so the host's own "request" span
                # nests under the client's attempt span instead of
                # reusing its span identity.
                request = request._replace(trace=request.trace.child())
            handle = self.session.submit(request, timeout=None)
            result = handle.result()
            with self._lock:
                self.requests += 1
            reply, out_blobs = encode_result(result)
            # Host-clock receive/send stamps: the client estimates the
            # clock offset from these plus its own request/response
            # window (NTP-style midpoints) to stitch host spans into
            # its trace without negative queue waits.
            reply["clock"] = {"recv": host_recv, "send": perf_counter()}
            return reply, out_blobs
        raise RemoteProtocolError(f"unknown operation {op!r}")

    def shutdown(self) -> None:
        """Stop a :meth:`serve_forever` loop running in another thread."""
        self._stopping = True

    def close(self) -> None:
        """Stop accepting, sever live connections, close the session.
        Idempotent."""
        self.shutdown()
        with suppress(OSError):
            self._sock.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with suppress(OSError):
                conn.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self.session.close(drain=False)


# ---------------------------------------------------------------------------
# Remote lanes.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemoteLane:
    """An :class:`~repro.service.scheduler.ExecutorLane` that lives
    across a socket, and the description of the link to it: the lane's
    ``name``, ``kind`` and ``platform`` plus the link's settings.

    ``kind="simd"`` keys Eq 5/6 pricing — hosts start priced as the
    platform's parallel CPU path and the per-lane EWMA feedback learns
    each host's real throughput from observed ``wall_us``.  The host's
    own session picks any further fan-out.
    """

    name: str
    kind: str
    platform: Any
    host: str = ""
    port: int = 0
    #: Requests on the wire to this host at once; further placements
    #: wait in the lane (bounded by the session's dispatch window).
    depth: int = 2
    #: Socket timeouts: opening a connection, and one request's reply.
    connect_timeout_s: float = 5.0
    request_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ServiceError(
                f"shard depth must be positive, got {self.depth}")

    eligible = ExecutorLane.eligible

    @property
    def endpoint(self) -> str:
        """``host:port`` this lane dispatches to."""
        return f"{self.host}:{self.port}"

    def open_pool(self) -> "HostPool":
        """The link to this lane's host: where the decoder sends the
        images placed on this lane."""
        return HostPool(self)


def parse_hosts(spec: "str | Iterable[Any]") -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or an iterable of ``host:port``
    strings / ``(host, port)`` pairs) into ``(host, port)`` tuples."""
    hosts: list[tuple[str, int]] = []
    for entry in spec.split(",") if isinstance(spec, str) else spec:
        if isinstance(entry, tuple):
            host, port = entry
        elif entry.strip():
            host, _, port = entry.strip().rpartition(":")
            if host.startswith("["):    # "[::1]:9077": an IPv6 literal
                host = host[1:-1] if host.endswith("]") else ""
        else:
            continue    # "a:1,b:2," — a trailing comma names no host
        if not host or not str(port).isdigit() \
                or not 0 < int(port) < 65536:
            raise ServiceError(f"malformed host spec {entry!r} "
                               f"(want host:port, port 1-65535)")
        hosts.append((str(host), int(port)))
    if not hosts:
        raise ServiceError("no worker hosts given (want host:port,...)")
    return hosts


def remote_executors(hosts: "str | Iterable[Any]",
                     **link: Any) -> tuple[RemoteLane, ...]:
    """One :class:`RemoteLane` per ``host:port`` entry of *hosts*;
    *link* sets the lanes' ``depth`` / ``connect_timeout_s`` /
    ``request_timeout_s`` (defaults: :class:`RemoteLane`'s).

    All lanes share one pricing platform
    (:data:`~repro.evaluation.platforms.GTX560` unless *link* names
    another): pricing only needs a consistent relative cost surface,
    and the per-lane EWMA feedback learns each host's absolute speed
    from observed wall time.
    """
    from ..evaluation import platforms
    link.setdefault("platform", platforms.GTX560)
    lanes = tuple(
        RemoteLane(name=f"remote-{host}:{port}", kind="simd",
                   host=host, port=port, **link)
        for host, port in parse_hosts(hosts))
    if len({lane.name for lane in lanes}) != len(lanes):
        raise ServiceError("duplicate worker host endpoints")
    return lanes


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


class HostPool(WorkerPool):
    """The pool a :class:`RemoteLane` opens: a TCP client of one worker
    host behind the :class:`~repro.service.workers.WorkerPool` surface
    (futures, close and refusal after close are the base class's).

    ``lane.depth`` pool threads each own one persistent connection
    (opened on first use, reopened after a failure — a reconnect counts
    as a :attr:`rebuilds`) and round-trip one request at a time, so at
    most ``depth`` requests are on the wire.  :meth:`submit` never
    blocks: further requests wait in the pool's queue, which the
    session's dispatch window bounds.

    A round trip answers with the :class:`~repro.service.tasks.\
    TaskReply` a local ``decode_image_task`` sends — the host's result
    without its pixels as ``value``, the RGB plane as ``planes``.
    Socket-level failures (refused, reset, timeout) raise
    :class:`~repro.errors.RemoteHostError` through the future; the
    gather loop treats that like a worker crash — retry (on a sibling
    host where the decoder has one) and charge the lane's breaker.
    """

    def __init__(self, lane: RemoteLane) -> None:
        """A pool of ``lane.depth`` threads targeting ``lane.endpoint``.

        No connection is attempted here — hosts may start after the
        front tier; a thread's first request connects.
        """
        super().__init__(workers=lane.depth, backend="thread",
                         name=lane.name)
        #: What stats and spans call this pool: its threads only wait on
        #: a socket, the decode runs on the host.
        self.backend = "remote"
        self.lane = lane
        self._lock = threading.Lock()
        self._local = threading.local()     # .sock: this thread's link
        self._socks: set[socket.socket] = set()
        #: Lifetime counters (exported by :meth:`describe`).
        self.requests = self.failures = self.in_flight = 0
        self.bytes_tx = self.bytes_rx = 0

    def submit(self, fn: Callable, request: ImageRequest, slot: Any = None,
               fault: FaultDirective | None = None) -> Future:
        """Queue one whole-image decode for the host; never blocks.

        The dispatch core's one call shape, ``submit(unit.fn, *args,
        slot, fault)``: *fn* names the work the host runs (only
        whole-image plans reach a link: a decoder with one fans nothing
        out) and no shm *slot* is leased for replies that cross a
        socket.
        """
        return super().submit(self._serve, request, fault)

    def _serve(self, request: ImageRequest,
               fault: FaultDirective | None) -> TaskReply:
        """One request on a pool thread: client-side fault injection
        (no directive crosses the wire; see :mod:`repro.service.faults`),
        then the round trip."""
        try:
            apply_dispatch_fault(fault)
            if fault is not None and fault.kind == "exception":
                reply = TaskReply(error_type="RuntimeError",
                                  error=fault.message)
            else:
                reply = self._roundtrip(self._connection(), request)
        except Exception as exc:
            self._drop_connection()
            with self._lock:
                self.failures += 1
            if isinstance(exc, ServiceError):
                raise
            # Refused, reset, timed out: one infrastructure error type.
            raise RemoteHostError(f"host {self.lane.endpoint}: "
                                  f"{type(exc).__name__}: {exc}") from exc
        with self._lock:
            self.requests += 1
        return reply

    def _connection(self) -> socket.socket:
        """This thread's persistent connection, (re)opened on demand."""
        local, lane = self._local, self.lane
        sock = getattr(local, "sock", None)
        if sock is None:
            sock = socket.create_connection(
                (lane.host, lane.port), timeout=lane.connect_timeout_s)
            sock.settimeout(lane.request_timeout_s)
            with self._lock:
                self._socks.add(sock)
                if getattr(local, "reopening", False):
                    self.rebuilds += 1
            # Whatever this thread opens next is a reconnect.
            local.sock, local.reopening = sock, True
        return sock

    def _drop_connection(self) -> None:
        """Close this thread's connection after a failed request: the
        stream may be mid-frame, so the next request reconnects."""
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            self._local.sock = None
            with self._lock:
                self._socks.discard(sock)
            with suppress(OSError):
                sock.close()

    def _roundtrip(self, sock: socket.socket,
                   request: ImageRequest) -> TaskReply:
        """Send one decode request, receive its result and rebuild the
        reply a local whole-image task would have sent."""
        endpoint = self.lane.endpoint
        header, blobs = encode_request(request)
        with self._lock:
            self.in_flight += 1
        t0 = perf_counter()
        try:
            sent = send_frame(sock, header, blobs)
            frame = recv_frame(sock)
        finally:
            with self._lock:
                self.in_flight -= 1
        if frame is None:
            raise RemoteHostError(f"host {endpoint} closed the connection")
        t1 = perf_counter()
        reply, reply_blobs, received = frame
        with self._lock:
            self.bytes_tx += sent
            self.bytes_rx += received
        if reply.get("op") == "error":
            raise RemoteHostError(
                f"host {endpoint} refused the request: "
                f"{reply.get('error_type')}: {reply.get('error')}")
        result = decode_result(reply, reply_blobs)
        trace_spans = result.trace_spans
        if trace_spans:
            clock = reply.get("clock") or {}
            trace_spans = map_remote_spans(
                trace_spans, endpoint, t0, t1,
                host_recv=float(clock.get("recv", t0)),
                host_send=float(clock.get("send", t1)))
        if request.trace is not None:
            trace_spans.append(child_span(
                request.trace, "remote_roundtrip", endpoint, "read",
                t0, t1, bytes_tx=sent, bytes_rx=received))
        rgb, result.rgb = result.rgb, None
        return TaskReply(
            value=result, planes=None if rgb is None else [rgb],
            # The host's own busy time, as its plan measured it.
            busy_s=(result.wall_us or 0.0) / 1e6,
            trace_spans=trace_spans)

    def describe(self) -> dict:
        """The wire and health counters of this host (its entry in the
        ``per_host`` section of ``/stats``)."""
        with self._lock:
            return {
                "endpoint": self.lane.endpoint,
                "depth": self.workers,
                "in_flight": self.in_flight,
                "connected": len(self._socks),
                "requests": self.requests,
                "failures": self.failures,
                "reconnects": self.rebuilds,
                "bytes_tx": self.bytes_tx,
                "bytes_rx": self.bytes_rx,
            }

    def close(self) -> None:
        """Finish queued requests and stop the threads (the base
        class), then close their connections.  Idempotent."""
        super().close()
        with self._lock:
            while self._socks:
                with suppress(OSError):
                    self._socks.pop().close()


def sharded_session(lanes: Sequence[ExecutorLane],
                    breakers: LaneBreakerBoard | None = None,
                    **session_kwargs: Any) -> DecodeSession:
    """The front tier (``repro serve --hosts``): a plain
    :class:`~repro.service.session.DecodeSession` whose scheduler lanes
    are *lanes* (:func:`remote_executors`), each dispatching to the
    :class:`HostPool` it opens.

    Fan-out stays host-side: a decoder with a lane on another machine
    ships whole images, requests as submitted, and each host's own
    session decides any split.  Images no lane prices finitely
    (progressive, grayscale, exotic sampling — and every image once all
    hosts are down) decode on the session's local fallback pool: one
    serial worker, unless *session_kwargs* say otherwise.
    """
    scheduler = ModelScheduler(executors=lanes, breakers=breakers)
    return DecodeSession(scheduler=scheduler,
                         **{"backend": "serial", "workers": 1,
                            **session_kwargs})
