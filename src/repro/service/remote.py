"""Sharded serving tier: scheduler lanes that live across a socket.

The executor registry binds every scheduler lane to a *local* worker
pool; this module promotes the lane abstraction over TCP so the same
Eq 5/6 pricing + per-lane EWMA feedback machinery places whole images
onto other machines.  Three pieces:

- :class:`DecodeWorkerHost` — a lightweight worker host (``repro
  serve-worker``) wrapping one :class:`~repro.service.session.\
  DecodeSession` behind a length-prefixed TCP protocol.  Requests and
  results travel as one JSON header plus raw binary blobs; decoded
  planes ride the existing :class:`~repro.service.transport.PlaneRef`
  descriptor contract — ``{shape, dtype}`` plus a blob index — so the
  wire format is the byte-transport spelling of the shm descriptor.
- :class:`RemoteLane` / :class:`RemoteLanePool` — an
  :class:`~repro.service.scheduler.ExecutorLane` whose "pool" is a
  bounded-depth TCP client.  The scheduler prices and places onto it
  exactly like a local lane; the pool's bounded in-flight depth makes
  a slow host backpressure placement directly (``submit`` blocks once
  ``depth`` requests are outstanding).
- :class:`ShardRegistry` / :class:`ShardedDecodeSession` — the front
  tier (``repro serve --hosts``).  Batches shard across hosts via LPT,
  remote ``wall_us`` folds into
  :class:`~repro.service.scheduler.ThroughputFeedback`, connection
  failures trip the :class:`~repro.service.scheduler.LaneBreakerBoard`
  (half-open canary = one probe request), and a failed dispatch fails
  over to a surviving host mid-batch.

Wire format (all integers big-endian)::

    u32 header_len | header (JSON, UTF-8) | u32 nblobs
        | { u64 blob_len | blob bytes } * nblobs

Fault semantics: a :class:`~repro.service.faults.FaultPlan` attached to
the front tier's decoder injects faults *client-side* in the lane
pool's I/O threads — ``kill`` raises
:class:`~repro.errors.WorkerCrashError` before the request is sent
(modeling a host that dies mid-request), ``delay`` sleeps, and
``exception`` synthesizes a decode-error result; ``shm_fail`` is
ignored because no shared memory crosses the wire.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import queue as queue_module
from concurrent.futures import Future
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..errors import (
    RemoteHostError,
    RemoteProtocolError,
    ServiceClosedError,
    ServiceError,
)
from .batch import ImageRequest, ImageResult, decode_image_task
from .executors import ExecutorRegistry
from .faults import FaultDirective, apply_dispatch_fault
from .obs import SpanRecord, TraceContext, child_span, map_remote_spans
from .scheduler import ExecutorLane, LaneBreakerBoard, ModelScheduler
from .session import DecodeSession
from .stats import WorkSpan

#: Refuse JSON headers beyond this size: a desynchronized or hostile
#: stream must fail fast, not allocate gigabytes.
MAX_HEADER_BYTES = 16 * 1024 * 1024

#: Refuse single blobs beyond this size (1 GiB covers any plausible
#: decoded plane; a corrupt length prefix must not OOM the host).
MAX_BLOB_BYTES = 1 << 30

#: Default bounded in-flight depth per remote lane: how many requests
#: may be outstanding on one host before placement blocks on it.
DEFAULT_DEPTH = 2

#: ImageRequest fields carried verbatim in the decode header.  The
#: front tier owns deadlines (a shed request never reaches the wire)
#: and fan-out is the host's own policy, so ``deadline_ms`` stays home.
_REQUEST_FIELDS = (
    "request_id", "entropy_engine", "mode", "platform", "idct_method",
    "fancy_upsampling", "split_segments", "speculative", "salvage",
    "priority",
)

#: Scalar ImageResult fields carried verbatim in the result header.
_RESULT_FIELDS = (
    "request_id", "ok", "width", "height", "error_type", "error",
    "segments", "speculative", "misspeculated", "simulated_us",
    "wall_us", "attempts", "infra_failure", "salvaged",
)


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------

def send_frame(sock: socket.socket, header: dict,
               blobs: Sequence[bytes] = ()) -> int:
    """Write one complete frame; returns the exact bytes put on the wire.

    The header is compact JSON; blobs follow as length-prefixed raw
    bytes (the byte-transport analog of shm
    :class:`~repro.service.transport.PlaneRef` payloads).
    """
    payload = json.dumps(header, separators=(",", ":")).encode()
    parts = [struct.pack(">I", len(payload)), payload,
             struct.pack(">I", len(blobs))]
    for blob in blobs:
        parts.append(struct.pack(">Q", len(blob)))
        parts.append(bytes(blob))
    data = b"".join(parts)
    sock.sendall(data)
    return len(data)


def frame_nbytes(header: dict, blobs: Sequence[bytes] = ()) -> int:
    """Exact wire size of the frame :func:`send_frame` would emit for
    *header* + *blobs* (used for receive-side byte accounting)."""
    payload = json.dumps(header, separators=(",", ":")).encode()
    return 4 + len(payload) + 4 + sum(8 + len(b) for b in blobs)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly *n* bytes; None on clean EOF *before any byte*,
    :class:`~repro.errors.RemoteProtocolError` on EOF mid-read."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(1 << 16, n - len(buf)))
        if not chunk:
            if not buf:
                return None
            raise RemoteProtocolError(
                f"connection closed mid-frame ({len(buf)}/{n} bytes)")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> tuple[dict, list[bytes]] | None:
    """Read one complete frame; None on clean EOF at a frame boundary.

    Raises :class:`~repro.errors.RemoteProtocolError` on truncation
    mid-frame, an oversized header/blob, or undecodable header JSON.
    """
    head = _recv_exact(sock, 4)
    if head is None:
        return None

    def need(n: int) -> bytes:
        """Read *n* bytes that MUST arrive (we are inside a frame)."""
        data = _recv_exact(sock, n)
        if data is None:
            raise RemoteProtocolError("connection closed mid-frame")
        return data

    (header_len,) = struct.unpack(">I", head)
    if header_len > MAX_HEADER_BYTES:
        raise RemoteProtocolError(
            f"frame header of {header_len} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte limit")
    try:
        header = json.loads(need(header_len).decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise RemoteProtocolError(f"undecodable frame header: {exc}")
    if not isinstance(header, dict):
        raise RemoteProtocolError(
            f"frame header must be a JSON object, got "
            f"{type(header).__name__}")
    (nblobs,) = struct.unpack(">I", need(4))
    blobs: list[bytes] = []
    for _ in range(nblobs):
        (blob_len,) = struct.unpack(">Q", need(8))
        if blob_len > MAX_BLOB_BYTES:
            raise RemoteProtocolError(
                f"frame blob of {blob_len} bytes exceeds the "
                f"{MAX_BLOB_BYTES}-byte limit")
        blobs.append(need(blob_len) if blob_len else b"")
    return header, blobs


# ---------------------------------------------------------------------------
# Request / result codecs.
# ---------------------------------------------------------------------------

def _array_descriptor(array: np.ndarray, blob_index: int) -> dict:
    """The ``PlaneRef``-style wire descriptor of one ndarray: shape +
    dtype in the header, pixels as blob *blob_index*."""
    return {"shape": list(array.shape), "dtype": str(array.dtype),
            "blob": blob_index}


def _array_from_descriptor(descriptor: dict,
                           blobs: Sequence[bytes]) -> np.ndarray:
    """Rebuild the ndarray a :func:`_array_descriptor` describes."""
    try:
        blob = blobs[int(descriptor["blob"])]
        array = np.frombuffer(blob, dtype=np.dtype(descriptor["dtype"]))
        return array.reshape(tuple(descriptor["shape"])).copy()
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise RemoteProtocolError(f"malformed plane descriptor: {exc}")


def encode_request(request: ImageRequest) -> tuple[dict, list[bytes]]:
    """Serialize one decode request: knobs in the header, JFIF bytes as
    the single blob.  ``request_id`` is stringified when it is not a
    JSON scalar (the front tier keys results by batch position, so the
    echoed id is informational on the wire)."""
    fields: dict[str, Any] = {}
    for name in _REQUEST_FIELDS:
        value = getattr(request, name)
        if name == "request_id" \
                and not isinstance(value, (str, int, float, bool,
                                           type(None))):
            value = str(value)
        fields[name] = value
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
    """Serialize one decode outcome: scalars + spans in the header,
    pixel plane (and salvage error map, when present) as blobs."""
    header: dict[str, Any] = {"op": "result"}
    for name in _RESULT_FIELDS:
        value = getattr(result, name)
        if name == "request_id" \
                and not isinstance(value, (str, int, float, bool,
                                           type(None))):
            value = str(value)
        header[name] = value
    header["salvage_errors"] = list(result.salvage_errors)
    header["spans"] = [[s.worker, s.started, s.finished]
                       for s in result.spans]
    if result.trace_spans:
        header["trace_spans"] = [s.to_dict() for s in result.trace_spans]
    blobs: list[bytes] = []
    if result.rgb is not None:
        header["plane"] = _array_descriptor(result.rgb, len(blobs))
        blobs.append(np.ascontiguousarray(result.rgb).tobytes())
    if result.error_regions is not None:
        header["error_regions"] = _array_descriptor(
            result.error_regions, len(blobs))
        blobs.append(np.ascontiguousarray(result.error_regions).tobytes())
    return header, blobs


def decode_result(header: dict, blobs: Sequence[bytes]) -> ImageResult:
    """Rebuild the :class:`~repro.service.batch.ImageResult` of one
    ``result`` frame (pixels bit-identical to the host's array)."""
    known = {name: header[name] for name in _RESULT_FIELDS
             if name in header}
    try:
        result = ImageResult(**known)
    except TypeError as exc:
        raise RemoteProtocolError(f"malformed decode result: {exc}")
    result.salvage_errors = list(header.get("salvage_errors", ()))
    result.spans = [WorkSpan(worker=str(w), started=float(a),
                             finished=float(b))
                    for w, a, b in header.get("spans", ())]
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

    Either wrap an existing session (``DecodeWorkerHost(session=s)``)
    or pass session keyword arguments and let the host own one (closed
    with the host).  ``port=0`` binds an ephemeral port; read
    :attr:`port` after construction.  One daemon thread per accepted
    connection; each connection serves frames sequentially (the lane
    pool opens ``depth`` connections to get ``depth``-way concurrency).

    Operations: ``decode`` (request in, result out), ``ping``
    (liveness), ``stats`` (the session's
    :meth:`~repro.service.session.DecodeSession.stats_snapshot`).
    Unknown or malformed frames answer an ``error`` frame; the
    connection survives.
    """

    def __init__(self, session: DecodeSession | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 **session_kwargs: Any) -> None:
        """Bind the listening socket and attach (or build) the session."""
        self._owns_session = session is None
        self.session = session or DecodeSession(**session_kwargs)
        try:
            self._sock = socket.create_server((host, port))
        except OSError:
            if self._owns_session:
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
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one connection's frames until EOF or a socket error."""
        try:
            with conn:
                while True:
                    try:
                        frame = recv_frame(conn)
                    except (RemoteProtocolError, OSError):
                        return
                    if frame is None:
                        return
                    header, blobs = frame
                    with self._lock:
                        self.bytes_rx += frame_nbytes(header, blobs)
                    try:
                        reply, out_blobs = self._dispatch(header, blobs)
                    except Exception as exc:   # answer, don't drop
                        reply, out_blobs = {
                            "op": "error",
                            "error_type": type(exc).__name__,
                            "error": str(exc)}, []
                    # Counted before the send: the client may read the
                    # counter the instant its recv returns.
                    with self._lock:
                        self.bytes_tx += frame_nbytes(reply, out_blobs)
                    try:
                        send_frame(conn, reply, out_blobs)
                    except OSError:
                        return
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
                request = replace(request, trace=request.trace.child())
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
        """Stop accepting, sever live connections, close the owned
        session.  Idempotent."""
        self.shutdown()
        try:
            self._sock.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._owns_session:
            self.session.close(drain=False)

    def __enter__(self) -> "DecodeWorkerHost":
        """Context-manager entry: the host itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close socket, connections, session."""
        self.close()


# ---------------------------------------------------------------------------
# Remote lanes.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemoteLane(ExecutorLane):
    """An :class:`~repro.service.scheduler.ExecutorLane` that lives
    across a socket.

    ``kind="simd"`` keys Eq 5/6 pricing — hosts start priced as the
    platform's parallel CPU path and the per-lane EWMA feedback learns
    each host's real throughput from observed ``wall_us``.  The
    :attr:`mode` override keeps remote requests on the *reference*
    decode path (the host runs real decodes; its own session picks any
    further fan-out), where the inherited mapping would pin the
    simulated SIMD executor.
    """

    host: str = ""
    port: int = 0

    @property
    def mode(self) -> str:
        """Remote images decode for real: always ``"reference"``."""
        return "reference"

    @property
    def endpoint(self) -> str:
        """``host:port`` this lane dispatches to."""
        return f"{self.host}:{self.port}"


def parse_hosts(spec: "str | Iterable[str]") -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or an iterable of ``host:port``
    strings / ``(host, port)`` pairs) into ``(host, port)`` tuples."""
    if isinstance(spec, str):
        entries: Iterable[Any] = [s for s in spec.split(",") if s.strip()]
    else:
        entries = spec
    hosts: list[tuple[str, int]] = []
    for entry in entries:
        if isinstance(entry, tuple):
            host, port = entry
        else:
            host, _, port = str(entry).strip().rpartition(":")
            if not host:
                raise ServiceError(
                    f"malformed host spec {entry!r} (want host:port)")
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ServiceError(
                f"malformed host port in {entry!r} (want an integer)")
        if not 0 < port < 65536:
            raise ServiceError(f"host port out of range in {entry!r}")
        hosts.append((str(host), port))
    if not hosts:
        raise ServiceError("no worker hosts given (want host:port,...)")
    return hosts


def remote_executors(hosts: "str | Iterable[Any]",
                     platform: "object | None" = None
                     ) -> tuple[RemoteLane, ...]:
    """One :class:`RemoteLane` per ``host:port`` entry of *hosts*.

    All lanes share one pricing *platform* (default
    :data:`~repro.evaluation.platforms.GTX560`): pricing only needs a
    consistent relative cost surface, and the per-lane EWMA feedback
    learns each host's absolute speed from observed wall time.
    """
    if platform is None:
        from ..evaluation import platforms
        platform = platforms.GTX560
    lanes = tuple(
        RemoteLane(name=f"remote-{host}:{port}", kind="simd",
                   platform=platform, host=host, port=port)
        for host, port in parse_hosts(hosts))
    if len({lane.name for lane in lanes}) != len(lanes):
        raise ServiceError("duplicate worker host endpoints")
    return lanes


class RemoteLanePool:
    """The worker-pool face of one remote host: a bounded-depth TCP
    client with the :class:`~repro.service.workers.WorkerPool` submit
    surface (``backend="remote"``).

    ``depth`` I/O threads each own one persistent connection to the
    host (opened lazily, reconnected on failure — reconnects count as
    :attr:`rebuilds`, the remote analog of a pool rebuild).
    :meth:`submit` *blocks* once ``depth`` requests are in flight:
    that bounded depth is the backpressure contract — a slow host
    stalls further placement onto it instead of queueing unboundedly.

    Socket-level failures (refused, reset, timeout) resolve the
    request's future with :class:`~repro.errors.RemoteHostError`; the
    batch decoder's gather loop treats that like a worker crash —
    retry (failing over to a sibling host when the registry offers
    one) and charge the lane's breaker.
    """

    def __init__(self, host: str, port: int, depth: int = DEFAULT_DEPTH,
                 name: str | None = None, connect_timeout_s: float = 5.0,
                 request_timeout_s: float = 120.0) -> None:
        """Start *depth* I/O threads targeting ``host:port``.

        No connection is attempted here — hosts may start after the
        front tier; the first submit connects.
        """
        if depth < 1:
            raise ServiceError(f"lane depth must be >= 1, got {depth}")
        self.host, self.port = host, int(port)
        self.name = name or f"remote-{host}:{port}"
        #: Pool-surface attributes the decoder/registry read.
        self.backend = "remote"
        self.workers = depth
        self.depth = depth
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self._closed = False
        self._lock = threading.Lock()
        self._permits = threading.Semaphore(depth)
        self._tasks: "queue_module.Queue[tuple | None]" = \
            queue_module.Queue()
        #: Lifetime counters (exported by :meth:`snapshot`).
        self.requests = 0
        self.failures = 0
        self.reconnects = 0
        self.in_flight = 0
        self.connected = 0
        self.bytes_tx = 0
        self.bytes_rx = 0
        self._threads = [
            threading.Thread(target=self._io_loop, daemon=True,
                             name=f"{self.name}-io{i}")
            for i in range(depth)]
        for thread in self._threads:
            thread.start()

    @property
    def endpoint(self) -> str:
        """``host:port`` this pool dispatches to."""
        return f"{self.host}:{self.port}"

    @property
    def rebuilds(self) -> int:
        """Reconnects after a broken connection — the remote analog of
        a local pool rebuild (summed into the decoder's fault stats)."""
        return self.reconnects

    # -- submit surface -------------------------------------------------

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Future:
        """Queue one whole-image decode; blocks while ``depth``
        requests are already in flight (bounded-depth backpressure).

        The positional contract is the batch decoder's one dispatch:
        ``submit(subtask.fn, *args, slot, fault)``.  Remote lanes run
        whole-image plans only, so *fn* must be ``decode_image_task``
        and no shm slot crosses the wire; anything else is a caller
        bug.  Where a local worker answers with a
        :class:`~repro.service.tasks.TaskReply`, the future here
        resolves with the host's *finished*
        :class:`~repro.service.batch.ImageResult` — its own session
        already ran plan → gather — which the gather loop wraps.
        """
        if fn is not decode_image_task:
            raise ServiceError(
                f"remote lane pools execute whole-image decode tasks "
                f"only, got {getattr(fn, '__name__', fn)!r}")
        if not args:
            raise ServiceError("remote submit needs an ImageRequest")
        request = args[0]
        slot = args[1] if len(args) > 1 else kwargs.get("slot")
        fault = args[2] if len(args) > 2 else kwargs.get("fault")
        if slot is not None:
            raise ServiceError("remote lane pools take no shm slot")
        if self._closed:
            raise ServiceClosedError(f"remote lane pool {self.name} "
                                     f"is closed")
        self._permits.acquire()
        if self._closed:
            self._permits.release()
            raise ServiceClosedError(f"remote lane pool {self.name} "
                                     f"is closed")
        with self._lock:
            self.in_flight += 1
        future: Future = Future()
        self._tasks.put((future, request, fault))
        return future

    def heal(self) -> bool:
        """Nothing to rebuild locally — reconnection is lazy inside the
        I/O threads; always False."""
        return False

    # -- I/O threads ----------------------------------------------------

    def _io_loop(self) -> None:
        """One I/O thread: take queued requests, round-trip them over a
        persistent (lazily reconnected) connection."""
        sock: socket.socket | None = None
        ever_connected = False
        try:
            while True:
                item = self._tasks.get()
                if item is None:
                    return
                future, request, fault = item
                try:
                    if fault is not None:
                        # Client-side injection: kill raises
                        # WorkerCrashError here (the I/O thread is no
                        # worker process), delay sleeps.
                        apply_dispatch_fault(fault)
                    if fault is not None and fault.kind == "exception":
                        result = ImageResult(
                            request_id=request.request_id, ok=False,
                            error_type="RuntimeError",
                            error=fault.message)
                    else:
                        if sock is None:
                            sock = self._connect(ever_connected)
                            ever_connected = True
                        result = self._roundtrip(sock, request)
                    with self._lock:
                        self.requests += 1
                    future.set_result(result)
                except BaseException as exc:
                    if sock is not None:
                        try:
                            sock.close()
                        except OSError:
                            pass
                        sock = None
                        with self._lock:
                            self.connected -= 1
                    with self._lock:
                        self.failures += 1
                    if not isinstance(exc, ServiceError):
                        exc = RemoteHostError(
                            f"host {self.endpoint}: "
                            f"{type(exc).__name__}: {exc}")
                    future.set_exception(exc)
                finally:
                    with self._lock:
                        self.in_flight -= 1
                    self._permits.release()
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
                with self._lock:
                    self.connected -= 1

    def _connect(self, reconnecting: bool) -> socket.socket:
        """Open this thread's persistent connection; count reconnects."""
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s)
        except OSError as exc:
            raise RemoteHostError(
                f"cannot connect to host {self.endpoint}: {exc}")
        sock.settimeout(self.request_timeout_s)
        with self._lock:
            self.connected += 1
            if reconnecting:
                self.reconnects += 1
        return sock

    def _roundtrip(self, sock: socket.socket,
                   request: ImageRequest) -> ImageResult:
        """Send one decode request, receive and rebuild its result."""
        header, blobs = encode_request(request)
        t0 = perf_counter()
        try:
            sent = send_frame(sock, header, blobs)
            frame = recv_frame(sock)
        except socket.timeout:
            raise RemoteHostError(
                f"host {self.endpoint}: no reply within "
                f"{self.request_timeout_s}s")
        except OSError as exc:
            raise RemoteHostError(f"host {self.endpoint}: {exc}")
        with self._lock:
            self.bytes_tx += sent
        if frame is None:
            raise RemoteHostError(
                f"host {self.endpoint} closed the connection")
        reply, reply_blobs = frame
        with self._lock:
            self.bytes_rx += frame_nbytes(reply, reply_blobs)
        if reply.get("op") == "error":
            raise RemoteHostError(
                f"host {self.endpoint} refused the request: "
                f"{reply.get('error_type')}: {reply.get('error')}")
        t1 = perf_counter()
        result = decode_result(reply, reply_blobs)
        # Attribute busy spans to the host so utilization math and the
        # stats per-worker view name where the time was really spent.
        result.spans = [replace(s, worker=f"{self.endpoint}/{s.worker}")
                        for s in result.spans]
        if result.trace_spans:
            clock = reply.get("clock") or {}
            result.trace_spans = map_remote_spans(
                result.trace_spans, self.endpoint, t0, t1,
                host_recv=float(clock.get("recv", t0)),
                host_send=float(clock.get("send", t1)))
        if request.trace is not None:
            result.trace_spans.append(child_span(
                request.trace, "remote_roundtrip", self.endpoint, "read",
                t0, t1, bytes_tx=sent,
                bytes_rx=frame_nbytes(reply, reply_blobs)))
        return result

    # -- lifecycle ------------------------------------------------------

    def snapshot(self) -> dict:
        """Wire/health counters of this host link (per-host stats)."""
        with self._lock:
            return {
                "endpoint": self.endpoint,
                "depth": self.depth,
                "in_flight": self.in_flight,
                "connected": self.connected,
                "requests": self.requests,
                "failures": self.failures,
                "reconnects": self.reconnects,
                "bytes_tx": self.bytes_tx,
                "bytes_rx": self.bytes_rx,
            }

    def close(self) -> None:
        """Drain queued requests, stop the I/O threads.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join(timeout=10.0)

    def __enter__(self) -> "RemoteLanePool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close the pool."""
        self.close()


class ShardRegistry(ExecutorRegistry):
    """Lane→pool registry whose pools are :class:`RemoteLanePool` TCP
    clients — the distributed drop-in for
    :class:`~repro.service.executors.ExecutorRegistry`.

    The batch decoder adopts it through the same ``lane_pools=``
    parameter; every inherited accessor (``pool_for``, ``backends``,
    ``describe``, ``rebuilds``...) works unchanged because the remote
    pools speak the worker-pool surface.
    """

    def __init__(self, lanes: Sequence[RemoteLane],
                 depth: int = DEFAULT_DEPTH,
                 connect_timeout_s: float = 5.0,
                 request_timeout_s: float = 120.0) -> None:
        """Bind one :class:`RemoteLanePool` (of *depth*) per lane."""
        if not lanes:
            raise ServiceError("shard registry needs at least one lane")
        self.executors = tuple(lanes)
        self._pools: dict[str, RemoteLanePool] = {}
        self._pool_of: dict[str, str] = {}
        for lane in self.executors:
            self._pools[lane.name] = RemoteLanePool(
                lane.host, lane.port, depth=depth, name=lane.name,
                connect_timeout_s=connect_timeout_s,
                request_timeout_s=request_timeout_s)
            self._pool_of[lane.name] = lane.name
        self._closed = False
        self._failover_lock = threading.Lock()
        self._failover_cursor = 0

    def failover_pool(self, lane_name: str) -> "RemoteLanePool | None":
        """A sibling host's pool for redispatch after *lane_name*
        failed a request (round-robin over the others; None when this
        is the only host)."""
        others = [name for name in self._pool_of if name != lane_name]
        if not others:
            return None
        with self._failover_lock:
            cursor = self._failover_cursor
            self._failover_cursor += 1
        return self._pools[others[cursor % len(others)]]

    def hosts_snapshot(self,
                       breakers: LaneBreakerBoard | None = None) -> dict:
        """Per-host wire/health counters, plus each lane's breaker
        state when a board is given (the ``per_host`` stats section)."""
        snapshot = {}
        for lane in self.executors:
            entry = self._pools[lane.name].snapshot()
            if breakers is not None:
                entry["breaker"] = breakers.state(lane.name)
            snapshot[lane.name] = entry
        return snapshot


class ShardedDecodeSession(DecodeSession):
    """The front tier: a :class:`~repro.service.session.DecodeSession`
    whose scheduler lanes are remote worker hosts.

    Placement is the same Eq 5/6 + LPT machinery as a local lane-bound
    session; observed remote wall time folds into the per-lane EWMA
    feedback, connection failures fail over to surviving hosts and
    trip the lane's breaker (half-open canary re-admits a recovered
    host with one probe request).  Images no lane prices finitely
    (progressive, grayscale, exotic sampling — and every image once
    all hosts are down) decode on the session's local fallback pool.

    Fan-out stays host-side: the front tier ships whole images
    (``split_dominant=False, speculative=False`` in its scheduler) and
    each host's own session decides any segment/speculative split.
    """

    def __init__(self, hosts: "str | Iterable[Any]",
                 policy: str = "model", depth: int = DEFAULT_DEPTH,
                 breakers: LaneBreakerBoard | None = None,
                 platform: "object | None" = None,
                 connect_timeout_s: float = 5.0,
                 request_timeout_s: float = 120.0,
                 **session_kwargs: Any) -> None:
        """Build remote lanes + shard registry, then the session over
        them.  *hosts* is ``"host:port,..."`` (or pairs); remaining
        keywords are :class:`~repro.service.session.DecodeSession`'s.
        """
        lanes = remote_executors(hosts, platform=platform)
        registry = ShardRegistry(
            lanes, depth=depth, connect_timeout_s=connect_timeout_s,
            request_timeout_s=request_timeout_s)
        scheduler = ModelScheduler(
            policy=policy, executors=lanes, split_dominant=False,
            speculative=False, breakers=breakers)
        session_kwargs.setdefault("backend", "serial")
        session_kwargs.setdefault("workers", 1)
        try:
            super().__init__(scheduler=scheduler, lane_pools=registry,
                             **session_kwargs)
        except BaseException:
            registry.close()
            raise
        self._shard_registry = registry

    @property
    def hosts(self) -> tuple[str, ...]:
        """Endpoints this front tier shards across."""
        return tuple(pool.endpoint
                     for pool in self._shard_registry.pools.values())

    def close(self, drain: bool = True) -> None:
        """Close the session, then the registry's host links."""
        try:
            super().close(drain=drain)
        finally:
            self._shard_registry.close()
