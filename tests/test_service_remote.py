"""Sharded serving (PR 9, one stack since PR 18): the length-prefixed
wire protocol, the TCP worker host, the host pool a remote lane opens
(non-blocking submit, at most ``depth`` requests on the wire), the
sharded front tier's bit-identity / failover / breaker-canary contracts
(including a SIGKILL'd subprocess host) and per-handle resolution on a
saturated host, priority-class weighted shedding and backlog-scaled
``Retry-After``."""

from __future__ import annotations

import copy
import itertools
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (
    QueueFullError,
    RemoteHostError,
    RemoteProtocolError,
    ServiceClosedError,
    ServiceError,
    WorkerCrashError,
)
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    DecodeHTTPServer,
    DecodeSession,
    BatchDecoder,
    DecodeWorkerHost,
    ImageRequest,
    LaneBreakerBoard,
    ModelScheduler,
    remote_executors,
    sharded_session,
)
from repro.service.faults import FaultDirective
from repro.service.http import render_prometheus
from repro.service.obs import read_trace_log
from repro.service.remote import (
    MAX_HEADER_BYTES,
    HostPool,
    decode_request,
    decode_result,
    encode_request,
    encode_result,
    parse_hosts,
    recv_frame,
    send_frame,
)
from repro.service.tasks import ImageResult, decode_image_task, parse_priority

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_prom_format  # noqa: E402


def shm_files(prefix: str = "repro-") -> list[str]:
    """Residual /dev/shm entries created by this subsystem."""
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith(prefix))
    except FileNotFoundError:  # non-Linux: nothing to check
        return []


def by_value(obj):
    """*obj* with every nested record (stats, histogram, per-lane usage)
    unfolded into its attributes, so two states compare by value."""
    if isinstance(obj, dict):
        return {k: by_value(v) for k, v in obj.items()}
    return by_value(vars(obj)) if hasattr(obj, "__dict__") else obj


@contextmanager
def running_host(port: int = 0, **session_kwargs):
    """An in-process :class:`DecodeWorkerHost` with its accept loop
    running on a daemon thread."""
    session_kwargs.setdefault("backend", "serial")
    host = DecodeWorkerHost(port=port, **session_kwargs)
    thread = threading.Thread(target=host.serve_forever, daemon=True)
    thread.start()
    try:
        yield host
    finally:
        host.close()
        thread.join(timeout=10)


def host_pool(host: str, port: int, **link) -> HostPool:
    """The link a lane for ``host:port`` opens."""
    (lane,) = remote_executors([(host, port)], **link)
    return lane.open_pool()


def front_tier(hosts, **kwargs) -> DecodeSession:
    """A sharded session over *hosts* (``(host, port)`` pairs or worker
    hosts); link keywords go to the lanes, the rest to the session."""
    link = {k: kwargs.pop(k) for k in ("depth", "connect_timeout_s",
                                       "request_timeout_s") if k in kwargs}
    pairs = [(h.host, h.port) if isinstance(h, DecodeWorkerHost) else h
             for h in hosts]
    return sharded_session(remote_executors(pairs, **link), **kwargs)


def gate_decodes(host: DecodeWorkerHost, held: set) -> threading.Event:
    """Make *host* hold its n-th decode request (n in *held*, counted
    from 0) until the returned event is set."""
    gate, ordinal, real = threading.Event(), itertools.count(), host._dispatch

    def gated(header, blobs):
        if header.get("op") == "decode" and next(ordinal) in held:
            assert gate.wait(timeout=60)
        return real(header, blobs)

    host._dispatch = gated
    return gate


def wait_until(predicate, timeout: float = 30.0) -> bool:
    """Poll *predicate* until it holds or *timeout* passes."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture(scope="module")
def blob(small_rgb):
    return encode_jpeg(small_rgb, EncoderSettings(
        quality=85, subsampling="4:2:2"))


@pytest.fixture(scope="module")
def oracle(blob):
    return decode_jpeg(blob).rgb


# ---------------------------------------------------------------------------
# Wire framing.
# ---------------------------------------------------------------------------

class TestFraming:
    def test_roundtrip_and_exact_byte_accounting(self):
        a, b = socket.socketpair()
        try:
            header = {"op": "decode", "n": 7}
            blobs = [b"\x00\x01\x02", b"", b"payload"]
            sent = send_frame(a, header, blobs)
            got_header, got_blobs, received = recv_frame(b)
            assert got_header == header
            assert got_blobs == blobs
            assert received == sent
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises_protocol_error(self):
        a, b = socket.socketpair()
        try:
            payload = json.dumps({"op": "ping"}).encode()
            a.sendall(struct.pack(">I", len(payload)) + payload[:3])
            a.close()
            with pytest.raises(RemoteProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_header_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_HEADER_BYTES + 1))
            with pytest.raises(RemoteProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# Request / result codecs.
# ---------------------------------------------------------------------------

class TestCodecs:
    def test_request_roundtrip(self, blob):
        req = ImageRequest(data=blob, request_id="img-1", salvage=True,
                           priority=PRIORITY_HIGH)
        header, blobs = encode_request(req)
        assert set(header["request"]) == {
            "request_id", "salvage", "priority"}
        rebuilt = decode_request(header, blobs)
        assert bytes(rebuilt.data) == bytes(blob)
        assert rebuilt.request_id == "img-1"
        assert rebuilt.salvage is True
        assert rebuilt.priority == PRIORITY_HIGH

    def test_request_frame_from_an_older_front_tier_decodes(
            self, worker_host, blob, oracle):
        """A front tier from before lanes were real still sends the
        request's ``mode`` / ``platform``: the host ignores both and
        decodes the image bit-identically."""
        header, blobs = encode_request(ImageRequest(data=blob,
                                                    request_id=4))
        header["request"].update(mode="simd", platform="GT 430")
        with _connect(worker_host) as sock:
            send_frame(sock, header, blobs)
            result = decode_result(*recv_frame(sock)[:2])
        assert result.ok, (result.error_type, result.error)
        assert result.request_id == 4
        assert np.array_equal(result.rgb, oracle)

    def test_non_scalar_request_id_stringified(self, blob):
        req = ImageRequest(data=blob, request_id=("batch", 3))
        rebuilt = decode_request(*encode_request(req))
        assert rebuilt.request_id == str(("batch", 3))

    def test_request_without_blob_rejected(self):
        with pytest.raises(RemoteProtocolError):
            decode_request({"op": "decode", "request": {}}, [])

    def test_ok_result_roundtrip_bit_identical(self, oracle):
        result = ImageResult(
            request_id=5, ok=True, rgb=oracle.copy(),
            width=oracle.shape[1], height=oracle.shape[0],
            wall_us=1234.5, attempts=1)
        header, blobs = encode_result(result)
        assert "spans" not in header
        rebuilt = decode_result(header, blobs)
        assert rebuilt.ok
        assert np.array_equal(rebuilt.rgb, oracle)
        assert rebuilt.wall_us == 1234.5

    def test_result_frame_from_an_older_host_decodes(self, oracle):
        """A host from before busy time became one number also sends it
        as ``spans`` triples beside ``wall_us``: the front tier reads
        ``wall_us`` and decodes the frame as if the triples were not
        there."""
        header, blobs = encode_result(ImageResult(
            request_id=5, ok=True, rgb=oracle.copy(),
            width=oracle.shape[1], height=oracle.shape[0], wall_us=1000.0))
        old = dict(header, spans=[["pid-7", 0.5, 0.5005],
                                  ["pid-7", 0.6, 0.6005]])
        rebuilt = decode_result(old, blobs)
        assert rebuilt.ok and rebuilt.wall_us == 1000.0
        assert np.array_equal(rebuilt.rgb, oracle)

    def test_result_header_with_simulated_time_decodes(self, oracle):
        """A host from before lanes were real also sends
        ``simulated_us``: the front tier reads the frame without it."""
        header, blobs = encode_result(ImageResult(
            request_id=6, ok=True, rgb=oracle.copy(),
            width=oracle.shape[1], height=oracle.shape[0], wall_us=900.0))
        assert "simulated_us" not in header
        rebuilt = decode_result(dict(header, simulated_us=None), blobs)
        assert rebuilt.ok and rebuilt.wall_us == 900.0
        assert not hasattr(rebuilt, "simulated_us")
        rebuilt = decode_result(dict(header, simulated_us=512.0), blobs)
        assert rebuilt.ok and np.array_equal(rebuilt.rgb, oracle)

    def test_error_result_roundtrip(self):
        result = ImageResult(request_id="bad", ok=False,
                             error_type="CorruptBitstreamError",
                             error="truncated scan", attempts=3,
                             infra_failure=False)
        rebuilt = decode_result(*encode_result(result))
        assert not rebuilt.ok
        assert rebuilt.rgb is None
        assert rebuilt.error_type == "CorruptBitstreamError"
        assert rebuilt.error == "truncated scan"
        assert rebuilt.attempts == 3

    def test_salvage_error_regions_roundtrip(self, oracle):
        regions = np.zeros(oracle.shape[:2], dtype=bool)
        regions[4:, :] = True
        result = ImageResult(request_id=0, ok=True, rgb=oracle.copy(),
                             salvaged=True)
        result.error_regions = regions
        result.salvage_errors = ["marker lost at MCU 12"]
        rebuilt = decode_result(*encode_result(result))
        assert rebuilt.salvaged
        assert np.array_equal(rebuilt.error_regions, regions)
        assert rebuilt.salvage_errors == ["marker lost at MCU 12"]


# ---------------------------------------------------------------------------
# Host endpoint parsing.
# ---------------------------------------------------------------------------

class TestParseHosts:
    def test_string_and_pairs(self):
        assert parse_hosts("a:1, b:2,") == [("a", 1), ("b", 2)]
        assert parse_hosts([("a", 1), "b:2"]) == [("a", 1), ("b", 2)]

    def test_invalid(self):
        with pytest.raises(ServiceError):
            parse_hosts("")
        with pytest.raises(ServiceError):
            parse_hosts("nocolon")
        with pytest.raises(ServiceError):
            parse_hosts("a:notaport")

    def test_bracketed_ipv6_literal(self):
        """The brackets only delimit the literal: getaddrinfo refuses
        "[::1]", and an unclosed bracket names no host."""
        assert parse_hosts("[::1]:9077, [fe80::2]:1") == [
            ("::1", 9077), ("fe80::2", 1)]
        host, port = parse_hosts("[::1]:9077")[0]
        assert socket.getaddrinfo(host, port, type=socket.SOCK_STREAM,
                                  flags=socket.AI_NUMERICHOST)
        for spec in ("[::1:9077", "[]:9077", "[:9077"):
            with pytest.raises(ServiceError):
                parse_hosts(spec)

    def test_duplicate_hosts_rejected(self):
        with pytest.raises(ServiceError):
            remote_executors("a:1,a:1")


# ---------------------------------------------------------------------------
# The worker host, spoken to over a raw socket.
# ---------------------------------------------------------------------------

@pytest.fixture()
def worker_host():
    with running_host() as host:
        yield host


def _connect(host: DecodeWorkerHost) -> socket.socket:
    return socket.create_connection((host.host, host.port), timeout=10)


class TestDecodeWorkerHost:
    def test_ping_and_stats_ops(self, worker_host):
        with _connect(worker_host) as sock:
            send_frame(sock, {"op": "ping"})
            reply, _, _ = recv_frame(sock)
            assert reply["op"] == "pong"
            send_frame(sock, {"op": "stats"})
            reply, _, _ = recv_frame(sock)
            assert reply["op"] == "stats"
            assert "batches" in reply["stats"]

    def test_decode_bit_identical(self, worker_host, blob, oracle):
        with _connect(worker_host) as sock:
            req = ImageRequest(data=blob, request_id=1)
            send_frame(sock, *encode_request(req))
            reply, blobs, _ = recv_frame(sock)
            result = decode_result(reply, blobs)
        assert result.ok
        assert np.array_equal(result.rgb, oracle)
        assert worker_host.requests == 1
        assert worker_host.bytes_rx > len(blob)
        assert worker_host.bytes_tx > oracle.nbytes

    def test_unknown_op_answers_error_and_connection_survives(
            self, worker_host):
        with _connect(worker_host) as sock:
            send_frame(sock, {"op": "bogus"})
            reply, _, _ = recv_frame(sock)
            assert reply["op"] == "error"
            assert "bogus" in reply["error"]
            send_frame(sock, {"op": "ping"})
            reply, _, _ = recv_frame(sock)
            assert reply["op"] == "pong"

    def test_thread_list_holds_live_connections_only(self, worker_host):
        """A long-lived host keeps no record of connections that ended:
        each accept forgets the threads whose connection is gone."""
        for _ in range(20):
            with _connect(worker_host) as sock:
                send_frame(sock, {"op": "ping"})
                assert recv_frame(sock)[0]["op"] == "pong"
            assert wait_until(lambda: not any(
                t.is_alive() for t in worker_host._threads))
        assert worker_host.connections == 20
        assert len(worker_host._threads) <= len(worker_host._conns) + 1

    def test_frame_from_an_older_front_tier_decodes(self, worker_host,
                                                    blob, oracle):
        """A front tier from before the service dropped its per-request
        engine, IDCT and upsampling knobs, or its fan-out pair, still
        sends them: the host ignores the names and decodes the same
        pixels as without."""
        header, blobs = encode_request(ImageRequest(data=blob,
                                                    request_id=3))
        frames = [header]
        for removed in (dict(entropy_engine="reference",
                             idct_method="islow", fancy_upsampling=False),
                        dict(split_segments=True, speculative=False)):
            old = copy.deepcopy(header)
            old["request"].update(removed)
            frames.append(old)
        results = []
        with _connect(worker_host) as sock:
            for frame in frames:
                send_frame(sock, frame, blobs)
                results.append(decode_result(*recv_frame(sock)[:2]))
        for result in results:
            assert result.ok, (result.error_type, result.error)
            assert result.request_id == 3
            assert np.array_equal(result.rgb, oracle)

    def test_decode_error_travels_as_result(self, worker_host):
        with _connect(worker_host) as sock:
            req = ImageRequest(data=b"not a jpeg", request_id=9)
            send_frame(sock, *encode_request(req))
            reply, blobs, _ = recv_frame(sock)
            result = decode_result(reply, blobs)
        assert not result.ok
        assert result.error_type
        assert result.request_id == 9


# ---------------------------------------------------------------------------
# Host pools: what a remote lane opens.
# ---------------------------------------------------------------------------

class TestRemoteLanePool:
    def test_submit_roundtrip_and_counters(self, worker_host, blob, oracle):
        with host_pool(worker_host.host, worker_host.port) as pool:
            future = pool.submit(decode_image_task,
                                 ImageRequest(data=blob, request_id=0),
                                 None, None)
            reply = future.result(timeout=60)
            # The TaskReply a local decode_image_task sends: a result
            # shell without pixels, the RGB plane as the heavy part.
            assert reply.error_type is None
            assert reply.value.ok and reply.value.rgb is None
            assert np.array_equal(reply.planes[0], oracle)
            # The host's busy time is the reply's.
            assert reply.value.wall_us > 0
            assert reply.busy_s == pytest.approx(reply.value.wall_us / 1e6)
            assert pool.backend == "remote"
            link = pool.describe()
            assert link["endpoint"] == worker_host.endpoint
            assert link["depth"] == pool.workers == 2
            assert link["requests"] == 1
            assert link["failures"] == 0
            assert link["in_flight"] == 0
            assert link["bytes_tx"] > len(blob)
            assert link["bytes_rx"] > oracle.nbytes

    def test_host_and_link_count_the_same_bytes(self, worker_host, blob):
        """Both ends count what crossed the wire, each from the frame it
        read or wrote: after N round trips the host received what the
        link sent and sent what the link received."""
        with host_pool(worker_host.host, worker_host.port, depth=1) as pool:
            for i in range(3):
                reply = pool.submit(decode_image_task,
                                    ImageRequest(data=blob, request_id=i),
                                    None, None).result(timeout=60)
                assert reply.value.ok
            link = pool.describe()
        assert worker_host.bytes_rx == link["bytes_tx"] > 3 * len(blob)
        assert worker_host.bytes_tx == link["bytes_rx"]

    def test_only_whole_image_plans_reach_a_remote_lane(self, worker_host):
        """The contract that replaced sniffing ``fn`` at submit: the
        dispatch core asks the pool, and fans nothing out onto a link —
        not even under a policy that forces every eligible image."""
        from repro.data import synthetic_photo
        frame = encode_jpeg(synthetic_photo(240, 320, seed=3, detail=0.6),
                            EncoderSettings(quality=85, subsampling="4:2:2"))
        lanes = remote_executors([(worker_host.host, worker_host.port)])
        with BatchDecoder(backend="thread", workers=2, speculative="on",
                          scheduler=ModelScheduler(executors=lanes)) as decoder:
            assert list(decoder.links) == [lanes[0].name]
            (result,) = decoder.decode_batch([frame])
        assert result.ok and not result.speculative
        assert result.segments == 1
        assert np.array_equal(result.rgb, decode_jpeg(frame).rgb)
        assert worker_host.requests == 1

    def test_a_scheduled_remote_lane_opens_uses_and_closes_its_link(
            self, worker_host, blob, oracle):
        """Naming a remote lane in the scheduler is all it takes: the
        decoder opens the lane's link, sends the lane's images down it
        and closes it with itself."""
        (lane,) = remote_executors([(worker_host.host, worker_host.port)])
        with BatchDecoder(backend="serial",
                          scheduler=ModelScheduler(executors=[lane])) as dec:
            link = dec.links[lane.name]
            assert type(link) is HostPool and link.lane is lane
            (result,) = dec.decode_batch([blob])
            assert np.array_equal(result.rgb, oracle)
            assert link.requests == worker_host.requests == 1
        with pytest.raises(ServiceClosedError):
            link.submit(decode_image_task, ImageRequest(data=blob),
                        None, None)

    def test_submit_never_blocks_and_wire_depth_is_bounded(
            self, worker_host, blob):
        """At most ``depth`` requests are on the wire; the rest wait in
        the pool without blocking whoever submits them."""
        gate = gate_decodes(worker_host, held={0})
        with host_pool(worker_host.host, worker_host.port, depth=1) as pool:
            futures = [pool.submit(decode_image_task,
                                   ImageRequest(data=blob, request_id=i),
                                   None, None) for i in range(3)]
            # All three were accepted while the host holds the first.
            assert wait_until(
                lambda: pool.describe()["in_flight"] == 1)
            assert not any(f.done() for f in futures)
            assert pool.describe()["connected"] == 1
            gate.set()
            assert all(f.result(timeout=60).value.ok for f in futures)
            assert pool.describe()["requests"] == 3

    def test_connection_refused_is_remote_host_error(self, blob):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        with host_pool("127.0.0.1", port, depth=1,
                       connect_timeout_s=2.0) as pool:
            future = pool.submit(decode_image_task,
                                 ImageRequest(data=blob), None, None)
            with pytest.raises(RemoteHostError):
                future.result(timeout=30)
            assert pool.describe()["failures"] == 1

    def test_client_side_fault_injection(self, worker_host, blob):
        with host_pool(worker_host.host, worker_host.port,
                       depth=1) as pool:
            kill = pool.submit(decode_image_task, ImageRequest(data=blob),
                               None, FaultDirective(kind="kill"))
            with pytest.raises(WorkerCrashError):
                kill.result(timeout=30)
            boom = pool.submit(
                decode_image_task, ImageRequest(data=blob, request_id=4),
                None, FaultDirective(kind="exception", message="chaos"))
            reply = boom.result(timeout=30)
            assert reply.error_type == "RuntimeError"
            assert reply.error == "chaos"
            t0 = time.perf_counter()
            slow = pool.submit(
                decode_image_task, ImageRequest(data=blob), None,
                FaultDirective(kind="delay", delay_s=0.05))
            assert slow.result(timeout=30).value.ok
            assert time.perf_counter() - t0 >= 0.05
            assert worker_host.requests == 1    # only the delayed one

    def test_closed_pool_refuses_submits(self, blob):
        pool = host_pool("127.0.0.1", 1, depth=1)
        pool.close()
        with pytest.raises(ServiceClosedError):
            pool.submit(decode_image_task, ImageRequest(data=blob),
                        None, None)

    def test_link_is_declared_on_the_lane(self):
        (lane,) = remote_executors("a:1", depth=3, request_timeout_s=9.0)
        assert (lane.depth, lane.request_timeout_s) == (3, 9.0)
        assert lane.connect_timeout_s == 5.0
        with pytest.raises(ServiceError):
            remote_executors("a:1", depth=0)[0].open_pool()
        # A local lane opens nothing: it runs on the decoder's pool.
        local = ModelScheduler().executors[0]
        assert local.open_pool() is None


# ---------------------------------------------------------------------------
# The sharded front tier.
# ---------------------------------------------------------------------------

class TestShardedSession:
    def test_two_hosts_bit_identical_and_both_served(self, blob, oracle):
        with running_host() as h1, running_host() as h2:
            session = front_tier([h1, h2], policy="roundrobin")
            try:
                assert type(session) is DecodeSession
                assert list(session.decoder.links) == [
                    lane.name for lane in session.decoder.scheduler.executors]
                handles = [session.submit(blob) for _ in range(8)]
                for handle in handles:
                    result = handle.result(timeout=60)
                    assert result.ok
                    assert np.array_equal(result.rgb, oracle)
                assert h1.requests > 0 and h2.requests > 0
                assert h1.requests + h2.requests == 8
            finally:
                session.close(drain=False)

    def test_front_tier_wall_us_is_the_hosts(self, blob, monkeypatch):
        """The front tier's busy time for a remote image is the one the
        host measured and sent as ``wall_us``."""
        from repro.service import remote

        sent, encode = [], remote.encode_result
        monkeypatch.setattr(remote, "encode_result",
                            lambda r: sent.append(r.wall_us) or encode(r))
        with running_host() as host, \
                front_tier([host]) as session:
            handle = session.submit(blob)
            result = handle.result(timeout=60)
        (host_wall_us,) = sent
        assert host_wall_us > 0
        assert result.wall_us == pytest.approx(host_wall_us, rel=1e-12)

    def test_nothing_fans_out_on_the_front_tier(self, fanout_always):
        """The sharded cell of the fan-out decision table: a decoder
        with a lane on another machine ships whole images — a lone
        frame with or without a parallel fallback pool, even where every
        fan-out pays — and the host's own session decides: a serial
        host keeps the frame whole, a parallel one fans it out."""
        from repro.data import synthetic_photo
        frame = encode_jpeg(
            synthetic_photo(480, 640, seed=3, detail=0.6),
            EncoderSettings(quality=85, subsampling="4:2:2",
                            restart_interval=8))
        oracle = decode_jpeg(frame).rgb
        parallel = {"backend": "thread", "workers": 2}
        for pool, fans_out in (({}, False), (parallel, True)):
            with running_host(**pool) as host:
                for fallback in ({}, parallel):
                    before = host.requests
                    session = front_tier([host], **fallback)
                    try:
                        handle = session.submit(frame)
                        result = handle.result(60)
                    finally:
                        session.close(drain=False)
                    assert host.requests == before + 1
                    assert np.array_equal(result.rgb, oracle)
                    assert (result.segments > 1) == fans_out

    def test_per_host_stats_section(self, blob):
        with running_host() as host:
            session = front_tier([host], breakers=LaneBreakerBoard())
            try:
                session.submit(blob).result(timeout=60)
                snapshot = session.stats_snapshot()
                metrics = render_prometheus(snapshot)
            finally:
                session.close(drain=False)
        ((lane, entry),) = snapshot["per_host"].items()
        assert entry["endpoint"] == f"{host.host}:{host.port}"
        assert entry["requests"] == 1
        assert snapshot["scheduler"]["breakers"][lane]["state"] == "closed"
        assert entry["bytes_tx"] > 0
        # The /metrics host series render from the same snapshot.
        assert check_prom_format.validate(metrics) == []
        samples, _ = check_prom_format.parse_samples(metrics)
        by_key = {(s.name, tuple(sorted(s.labels.items()))): s.value
                  for s in samples}
        endpoint = (("host", host.endpoint),)
        assert by_key[("repro_host_requests_total", endpoint)] == 1
        assert by_key[("repro_host_failures_total", endpoint)] == 0
        assert by_key[("repro_host_bytes_total",
                       (("direction", "rx"),) + endpoint)] > 0

    def test_saturated_host_does_not_delay_other_handles(self):
        """PR 17's contract on a remote lane: with the host holding its
        second request, the first image's handle resolves on its own —
        the pump is never parked inside ``submit``."""
        from repro.data import synthetic_photo
        frame = encode_jpeg(synthetic_photo(480, 640, seed=1, detail=0.6),
                            EncoderSettings(quality=85, subsampling="4:2:2"))
        expected = decode_jpeg(frame).rgb
        with running_host() as host:
            gate = gate_decodes(host, held={1})
            resolved = []
            with front_tier([host], depth=1) as session:
                (lane,) = session.decoder.scheduler.executors
                depth_seen = []

                def on_wire() -> int:
                    link = session.stats_snapshot()["per_host"][lane.name]
                    depth_seen.append(link["in_flight"])
                    return link["in_flight"]

                handles = [session.submit(frame) for _ in range(4)]
                for i, handle in enumerate(handles):
                    handle.add_done_callback(lambda _h, i=i:
                                             resolved.append(i))
                assert wait_until(handles[0].done)
                assert np.array_equal(handles[0].result().rgb, expected)
                # The second request is held on the host, the other two
                # wait in the lane: none of them is done, none blocks.
                assert wait_until(lambda: on_wire() == 1)
                assert not any(h.done() for h in handles[1:])
                assert session.stats_snapshot()["in_flight"] == 3
                gate.set()
                for handle in handles:
                    assert np.array_equal(handle.result(timeout=60).rgb,
                                          expected)
                    on_wire()
            assert sorted(resolved) == [0, 1, 2, 3]     # exactly once
            assert max(depth_seen) <= lane.depth
            assert host.requests == 4

    def test_thread_count_does_not_grow_with_requests(self, tiny_rgb):
        tiny = encode_jpeg(tiny_rgb, EncoderSettings(quality=75))
        with running_host() as host:
            # Hold the first two requests so that both pool threads
            # (and both host connections) exist before counting.
            gate = gate_decodes(host, held={0, 1})
            with front_tier([host], depth=2, queue_capacity=64) as session:
                (lane,) = session.decoder.scheduler.executors

                def burst(n):
                    handles = [session.submit(tiny, timeout=None)
                               for _ in range(n)]
                    if not gate.is_set():
                        assert wait_until(
                            lambda: session.stats_snapshot()["per_host"]
                            [lane.name]["in_flight"] == 2)
                        gate.set()
                    assert all(h.result(timeout=60).ok for h in handles)
                    return threading.active_count()

                after_10 = burst(10)
                assert burst(200) == after_10

    def test_stats_poll_is_a_read(self, blob):
        """Concurrent ``/stats`` polls during a sharded run see whole,
        monotone per-host entries and write nothing into the session's
        ``ServiceStats``."""
        keys = {"endpoint", "depth", "in_flight", "connected", "requests",
                "failures", "reconnects", "bytes_tx", "bytes_rx"}
        with running_host() as host, \
                front_tier([host], depth=2, queue_capacity=64) as session:
            polls: list[list[dict]] = [[], []]
            running = threading.Event()
            running.set()

            def poll(seen):
                while running.is_set():
                    (entry,) = session.stats_snapshot()["per_host"].values()
                    seen.append(entry)

            pollers = [threading.Thread(target=poll, args=(seen,))
                       for seen in polls]
            for thread in pollers:
                thread.start()
            handles = [session.submit(blob, timeout=None)
                       for _ in range(24)]
            assert all(h.result(timeout=60).ok for h in handles)
            running.clear()
            for thread in pollers:
                thread.join(timeout=30)
                assert not thread.is_alive()
            for seen in polls:
                assert seen
                assert all(set(entry) == keys for entry in seen)
                assert all(0 <= e["in_flight"] <= e["depth"] for e in seen)
                counts = [e["requests"] for e in seen]
                assert counts == sorted(counts)
            # Idle now: polling again leaves every stats field as it was.
            before = copy.deepcopy(by_value(session.stats))
            final = [session.stats_snapshot() for _ in range(2)]
            assert by_value(session.stats) == before
            assert not hasattr(session.stats, "per_host")
            assert final[0]["per_host"] == final[1]["per_host"]
            (entry,) = final[0]["per_host"].values()
            assert entry["requests"] == 24 and entry["in_flight"] == 0

    def test_local_and_remote_lanes_mix_in_one_session(self, blob, oracle):
        """A host is a lane like any other: the same lane list can name
        local lanes, and each answers for its own failures."""
        with running_host() as host:
            (remote,) = remote_executors([(host.host, host.port)])
            local = ModelScheduler().executors[0]
            assert local.kind == "simd"
            breakers = LaneBreakerBoard(threshold=1, cooldown_s=60.0)
            scheduler = ModelScheduler(policy="roundrobin",
                                       executors=[local, remote],
                                       breakers=breakers)
            with BatchDecoder(scheduler=scheduler,
                              backend="serial") as decoder:
                batch = decoder.decode_batch([blob] * 4)
                for result in batch.results:
                    assert np.array_equal(result.rgb, oracle)
                assert host.requests == 2
                # Only the host opens a link (the per-host stats keys).
                assert list(decoder.links) == [remote.name]
                # Its only sibling is local: nothing to fail over to.
                assert decoder._failover(remote.name) is None
                assert decoder._failover(local.name) is None
            # One group, both kinds of failure: the host is charged per
            # dispatch, the local lane per image.
            on_local = {a.index for a in batch.schedule.assignments
                        if a.executor is local}
            results = [ImageResult(request_id=i, ok=i not in on_local,
                                   infra_failure=i in on_local)
                       for i in range(4)]
            scheduler.observe(batch.schedule, results,
                              lane_failures={remote.name: 1})
            assert breakers.state(remote.name) == "open"
            assert breakers.state(local.name) == "open"

    def test_every_lane_is_observed_by_wall_time(self, blob):
        """In one session, the local lane and a host both decode for
        real, and each learns from its images' measured busy time."""
        with running_host() as host:
            (remote,) = remote_executors([(host.host, host.port)])
            local = ModelScheduler().executors[0]
            scheduler = ModelScheduler(policy="roundrobin",
                                       executors=[local, remote])
            with DecodeSession(scheduler=scheduler,
                               backend="serial") as session:
                handles = [session.submit(blob) for _ in range(4)]
                results = [h.result(timeout=60) for h in handles]
            per_executor = session.stats_snapshot()["per_executor"]
        # Round-robin alternates the lanes.
        assert host.requests == 2
        assert [per_executor[lane.name]["images"]
                for lane in (local, remote)] == [2, 2]
        assert all(r.ok and r.wall_us > 0 for r in results)
        assert per_executor[local.name]["observed_us"] \
            + per_executor[remote.name]["observed_us"] \
            == pytest.approx(sum(r.wall_us for r in results))

    def test_one_breaker_story_per_stats_read(self):
        """``/stats`` reports a lane's breaker once, in the scheduler
        section (the per-host entry holds only the link's counters),
        and the read moves no breaker — not even one whose cooldown
        has run out."""
        now = [0.0]
        breakers = LaneBreakerBoard(threshold=1, cooldown_s=5.0,
                                    clock=lambda: now[0])
        session = front_tier([("127.0.0.1", 1)],
                             breakers=breakers)    # connects to nothing
        try:
            (lane,) = session.decoder.scheduler.executors
            assert breakers.record(lane.name, ok=False)     # tripped open
            now[0] = 6.0                                    # cooled down
            snapshot = session.stats_snapshot()
        finally:
            session.close(drain=False)
        assert snapshot["scheduler"]["breakers"][lane.name]["state"] \
            == "open"
        assert "breaker" not in snapshot["per_host"][lane.name]
        assert breakers.snapshot()[lane.name]["state"] == "open"

    def test_dead_host_fails_over_and_trips_breaker(self, blob, oracle):
        dead = DecodeWorkerHost(port=0, backend="serial")
        dead_port = dead.port
        dead.close()  # breaker target: nothing listens here
        with running_host() as alive:
            breakers = LaneBreakerBoard(threshold=2, cooldown_s=60.0)
            session = front_tier(
                [alive, ("127.0.0.1", dead_port)],
                policy="roundrobin", breakers=breakers,
                connect_timeout_s=2.0)
            try:
                handles = [session.submit(blob) for _ in range(8)]
                results = [h.result(timeout=60) for h in handles]
                assert all(r.ok for r in results)
                assert all(np.array_equal(r.rgb, oracle) for r in results)
                assert any(r.failed_over for r in results)
                dead_lane = f"remote-127.0.0.1:{dead_port}"
                assert breakers.state(dead_lane) == "open"
                snapshot = session.stats_snapshot()
                assert snapshot["per_host"][dead_lane]["failures"] > 0
                assert snapshot["scheduler"]["breakers"][dead_lane][
                    "state"] == "open"
            finally:
                session.close(drain=False)

    def test_every_host_down_falls_back_to_the_local_pool(
            self, blob, oracle):
        dead = DecodeWorkerHost(port=0, backend="serial")
        dead_port = dead.port
        dead.close()
        breakers = LaneBreakerBoard(threshold=1, cooldown_s=60.0)
        session = front_tier([("127.0.0.1", dead_port)], breakers=breakers,
                             connect_timeout_s=2.0, retry_budget=0)
        try:
            lost = session.submit(blob)
            # The only host is gone and has no sibling: the image fails
            # on infrastructure and the lane's breaker opens ...
            assert lost.result(timeout=60).infra_failure
            assert breakers.state(f"remote-127.0.0.1:{dead_port}") == "open"
            # ... so the next one is placed nowhere and decodes here.
            result = session.submit(blob).result(timeout=60)
            assert result.ok and np.array_equal(result.rgb, oracle)
            assert not result.failed_over
        finally:
            session.close(drain=False)

    def test_half_open_canary_readmits_restarted_host(self, blob, oracle):
        victim = DecodeWorkerHost(port=0, backend="serial")
        port = victim.port
        victim.close()
        with running_host() as alive:
            breakers = LaneBreakerBoard(threshold=1, cooldown_s=0.2)
            session = front_tier(
                [alive, ("127.0.0.1", port)],
                policy="roundrobin", breakers=breakers,
                connect_timeout_s=2.0)
            try:
                handles = [session.submit(blob) for _ in range(4)]
                assert all(h.result(timeout=60).ok for h in handles)
                lane = f"remote-127.0.0.1:{port}"
                assert breakers.state(lane) == "open"

                with running_host(port=port) as revived:
                    time.sleep(0.3)  # past the cooldown: probe half-opens
                    for _ in range(3):
                        handles = [session.submit(blob) for _ in range(4)]
                        assert all(h.result(timeout=60).ok
                                   for h in handles)
                    assert breakers.state(lane) == "closed"
                    assert revived.requests > 0
            finally:
                session.close(drain=False)


# ---------------------------------------------------------------------------
# Kill a real host process mid-batch.
# ---------------------------------------------------------------------------

def _spawn_worker(port: int = 0) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve-worker`` as a subprocess; return it and the
    bound port parsed from its startup line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-worker", "--port", str(port),
         "--backend", "serial"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    assert match, f"no listening line from serve-worker: {line!r}"
    return proc, int(match.group(1))


class TestKillHostMidBatch:
    def test_sigkill_recovery_and_canary_readmission(self, blob, oracle):
        victim, victim_port = _spawn_worker()
        survivor, survivor_port = _spawn_worker()
        breakers = LaneBreakerBoard(threshold=1, cooldown_s=0.2)
        session = sharded_session(
            remote_executors(
                f"127.0.0.1:{victim_port},127.0.0.1:{survivor_port}",
                connect_timeout_s=2.0, request_timeout_s=30.0),
            policy="roundrobin", breakers=breakers)
        restarted = None
        victim_lane = f"remote-127.0.0.1:{victim_port}"
        try:
            handles = [session.submit(blob) for _ in range(8)]
            # SIGKILL the victim mid-batch: whether the kill lands
            # before or during its dispatches, every image must still
            # come back ok (failover onto the survivor) and the
            # victim's breaker must trip.
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)
            results = [h.result(timeout=60) for h in handles]
            assert all(r.ok for r in results)
            assert all(np.array_equal(r.rgb, oracle) for r in results)
            assert breakers.state(victim_lane) == "open"
            assert session.stats_snapshot()["per_host"][victim_lane][
                "failures"] > 0

            # Restart on the same port; the half-open canary re-admits.
            restarted, _ = _spawn_worker(port=victim_port)
            time.sleep(0.3)
            for _ in range(3):
                handles = [session.submit(blob) for _ in range(4)]
                assert all(h.result(timeout=60).ok for h in handles)
            assert breakers.state(victim_lane) == "closed"
        finally:
            session.close(drain=False)
            for proc in (victim, survivor, restarted):
                if proc is None:
                    continue
                if proc.poll() is None:
                    proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)
                proc.stdout.close()
        assert shm_files() == []


# ---------------------------------------------------------------------------
# Priority classes and weighted shedding.
# ---------------------------------------------------------------------------

class TestPriority:
    def test_parse_priority(self):
        assert parse_priority("low") == PRIORITY_LOW
        assert parse_priority("NORMAL") == PRIORITY_NORMAL
        assert parse_priority("high") == PRIORITY_HIGH
        assert parse_priority("2") == 2
        assert parse_priority(7) == 7
        for bad in ("urgent", "-1", -1, 1.5, True, None):
            with pytest.raises(ServiceError):
                parse_priority(bad)

    def test_weighted_shedding_by_class(self, blob, held_session):
        session, _ = held_session(blob, queue_capacity=10)
        try:
            def fill(priority: int) -> int:
                admitted = 0
                while True:
                    try:
                        session.submit(ImageRequest(data=blob,
                                                    priority=priority))
                    except QueueFullError:
                        return admitted
                    admitted += 1

            # Low sees half the queue, normal 90%, high all of it.
            assert fill(PRIORITY_LOW) == 5
            assert fill(PRIORITY_NORMAL) == 4   # up to 9 total
            assert fill(PRIORITY_HIGH) == 1     # up to 10 total
            shed = session.stats_snapshot()["faults"]["shed_by_priority"]
            assert shed == {"0": 1, "1": 1, "2": 1}
        finally:
            session.close(drain=False)

    def test_high_priority_dispatches_first(self, blob, held_session):
        """Queued behind a held window, the classes are admitted high
        first; one worker decodes in admission order."""
        session, _ = held_session(blob)
        order = []
        with session:
            for name, priority in (("low", PRIORITY_LOW),
                                   ("high", PRIORITY_HIGH),
                                   ("normal", PRIORITY_NORMAL)):
                session.submit(ImageRequest(
                    data=blob, request_id=name, priority=priority,
                )).add_done_callback(lambda h: order.append(h.request_id))
        assert order == ["high", "normal", "low"]

    def test_invalid_priority_rejected_at_submit(self, blob):
        with DecodeSession() as session:
            with pytest.raises(ServiceError):
                session.submit(ImageRequest(data=blob, priority=-2))
            with pytest.raises(ServiceError):
                session.submit(ImageRequest(data=blob, priority=True))


# ---------------------------------------------------------------------------
# HTTP: X-Priority and backlog-scaled Retry-After.
# ---------------------------------------------------------------------------

@contextmanager
def serving(server: DecodeHTTPServer):
    """Run *server*'s accept loop on a daemon thread for the block."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=30)
        server.close()


class TestHTTPPriorityAndRetryAfter:
    def test_x_priority_accepted_and_invalid_rejected(self, blob):
        with serving(DecodeHTTPServer(port=0, backend="serial")) as server:
            req = urllib.request.Request(
                server.url + "/decode", data=blob,
                headers={"X-Priority": "high"})
            with urllib.request.urlopen(req, timeout=30) as resp:
                assert resp.status == 200
            bad = urllib.request.Request(
                server.url + "/decode", data=blob,
                headers={"X-Priority": "urgent"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=30)
            assert excinfo.value.code == 400
            assert "X-Priority" in json.loads(
                excinfo.value.read())["error"]

    def test_retry_after_scales_with_backlog(self, blob, held_session):
        session, _ = held_session(blob, queue_capacity=16)
        try:
            assert session.retry_after_s() == 1  # empty: floor
            with serving(DecodeHTTPServer(session=session,
                                          port=0)) as server:
                for _ in range(16):
                    session.submit(ImageRequest(data=blob,
                                                priority=PRIORITY_HIGH))
                req = urllib.request.Request(server.url + "/decode",
                                             data=blob)
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(req, timeout=30)
                assert excinfo.value.code == 429
                retry_after = int(excinfo.value.headers["Retry-After"])
                assert 1 <= retry_after <= 30
                # 16 pending at the nominal MAX_GROUP img/s before any
                # decode completed, or at the held window's observed
                # rate: the hint must exceed the empty-queue floor.
                assert retry_after >= 2
        finally:
            session.close(drain=False)


class TestTraceStitching:
    """PR 10 satellite: remote-host spans must land on the client's
    clock — offsets estimated from the request/response pair — so the
    stitched timeline is monotonic and never shows negative waits."""

    def test_remote_spans_are_client_clock_mapped(self, blob):
        with running_host() as host:
            session = front_tier([host], tracing="on")
            try:
                handle = session.submit(blob)
                result = handle.result(timeout=60)
            finally:
                session.close(drain=False)
        assert result.ok
        spans = result.trace_spans
        assert spans
        assert len({s.trace_id for s in spans}) == 1
        by_name: dict[str, list] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        # The client-side skeleton plus the host-side decode stages all
        # stitch into one trace.
        for name in ("request", "queue", "attempt", "remote_roundtrip",
                     "parse", "entropy", "idct", "upsample", "color"):
            assert name in by_name, sorted(by_name)
        endpoint = f"{host.host}:{host.port}"
        remote = [s for s in spans if s.resource.startswith(endpoint)]
        assert remote, "no spans attributed to the remote host"
        # Every span — local or clock-mapped remote — has non-negative
        # duration and stays inside the client's root request window.
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "request"
        for span in spans:
            assert span.end >= span.start, span.name
            assert span.start >= root.start - 1e-6, span.name
            assert span.end <= root.end + 1e-6, span.name
        # Host-side spans sit inside the client's measured round-trip.
        (trip,) = by_name["remote_roundtrip"]
        for span in remote:
            assert span.start >= trip.start - 1e-6, span.name
            assert span.end <= trip.end + 1e-6, span.name
        # No negative queue waits anywhere in the stitched trace: each
        # queue span starts at/after its submission parent started.
        ids = {s.span_id: s for s in spans}
        for queue_span in by_name["queue"]:
            assert queue_span.duration_s >= 0.0
            parent = ids[queue_span.parent_id]
            assert queue_span.start >= parent.start - 1e-6

    def test_remote_spans_ride_result_and_land_in_client_store(
            self, blob, tmp_path):
        """The host's spans come back on the result and the client
        records them in its trace log with its own."""
        log = tmp_path / "spans.jsonl"
        with running_host() as host:
            session = front_tier([host], tracing="on", trace_log=str(log))
            try:
                handle = session.submit(blob)
                result = handle.result(timeout=60)
                trace_id = result.trace_spans[0].trace_id
            finally:
                session.close(drain=False)
        stored = read_trace_log(log)[trace_id]
        assert {s.span_id for s in stored} == {
            s.span_id for s in result.trace_spans}
        trip = next(s for s in stored if s.name == "remote_roundtrip")
        assert trip.attrs["bytes_tx"] > 0
        assert trip.attrs["bytes_rx"] > 0
