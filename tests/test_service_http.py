"""HTTP shim: real socket round-trips against DecodeHTTPServer —
PPM/metadata decode responses, stats endpoint, backpressure as 429,
error mapping, and the ``repro serve`` CLI driving the same stack."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import DecodeHTTPServer, DecodeSession
from repro.service.http import ppm_bytes


@pytest.fixture(scope="module")
def blob(small_rgb):
    return encode_jpeg(small_rgb, EncoderSettings(
        quality=85, subsampling="4:2:2"))


@pytest.fixture(scope="module")
def oracle(blob):
    return decode_jpeg(blob).rgb


@pytest.fixture()
def server():
    """A live server on an ephemeral port, torn down after the test."""
    srv = DecodeHTTPServer(port=0, backend="thread", workers=2)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=30)
    srv.close()


def _post(url: str, data: bytes, timeout: float = 60):
    req = urllib.request.Request(url, data=data, method="POST")
    return urllib.request.urlopen(req, timeout=timeout)


def _parse_ppm(body: bytes) -> np.ndarray:
    magic, dims, maxval, pixels = body.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = map(int, dims.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


class TestDecodeEndpoint:
    def test_post_decode_returns_bit_identical_ppm(self, server, blob,
                                                   oracle):
        with _post(server.url + "/decode", blob) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "image/x-portable-pixmap"
            assert resp.headers["X-Width"] == str(oracle.shape[1])
            assert resp.headers["X-Height"] == str(oracle.shape[0])
            assert float(resp.headers["X-Latency-Ms"]) > 0
            body = resp.read()
        assert body == ppm_bytes(oracle)
        assert np.array_equal(_parse_ppm(body), oracle)

    def test_metadata_format(self, server, blob, oracle):
        with _post(server.url + "/decode?format=json", blob) as resp:
            assert resp.status == 200
            meta = json.loads(resp.read())
        assert meta["ok"] is True
        assert (meta["width"], meta["height"]) == (oracle.shape[1],
                                                   oracle.shape[0])
        assert meta["latency_ms"] > 0

    def test_concurrent_posts_batch_together(self, blob, oracle,
                                             stalled_session):
        """Concurrent POSTs pending together are admitted as one group:
        the pump is held inside a first request's done callback (the
        stall makes sure the callback is in place before it lands) until
        all four are queued; all answers are correct and /stats counts
        the first request's group and the four POSTs' one group."""
        session = stalled_session(workers=2)
        srv = DecodeHTTPServer(session=session, port=0)
        loop = threading.Thread(target=srv.serve_forever, daemon=True)
        loop.start()
        held, release = threading.Event(), threading.Event()

        def hold_pump(_handle) -> None:
            held.set()
            release.wait(timeout=30)

        bodies: list[bytes | None] = [None] * 4

        def fetch(i: int) -> None:
            with _post(srv.url + "/decode", blob) as resp:
                bodies[i] = resp.read()

        threads = [threading.Thread(target=fetch, args=(i,))
                   for i in range(4)]
        try:
            session.submit(blob).add_done_callback(hold_pump)
            assert held.wait(timeout=30), "the first request never landed"
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30
            while session.pending < 4:
                assert time.monotonic() < deadline, "posts never queued"
                time.sleep(0.01)
            release.set()
            for t in threads:
                t.join(timeout=60)
            with urllib.request.urlopen(srv.url + "/stats",
                                        timeout=30) as resp:
                stats = json.loads(resp.read())
        finally:
            release.set()
            srv.shutdown()
            loop.join(timeout=30)
            srv.close()
            session.close(drain=False)
        expected = ppm_bytes(oracle)
        assert all(b == expected for b in bodies)
        assert stats["images_ok"] == 5
        assert stats["batches"] == 2

    def test_malformed_jpeg_maps_to_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + "/decode", b"junk bytes, not a jpeg")
        assert err.value.code == 400
        meta = json.loads(err.value.read())
        assert meta["ok"] is False
        assert meta["error_type"]

    def test_empty_body_maps_to_400(self, server):
        req = urllib.request.Request(server.url + "/decode", data=b"",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_non_numeric_content_length_maps_to_400(self, server):
        """A Content-Length that is not a number is answered, not a
        handler traceback and a reset connection."""
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /decode HTTP/1.0\r\n"
                         b"Content-Length: abc\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]

    def test_salvage_header_survives_a_scheduler(self, small_rgb):
        """X-Salvage behind a ``"model"`` scheduler: the request is routed
        whole to the reference path, not placed on a lane whose
        executor ignores ``salvage``."""
        from repro.jpeg import DecodeOptions

        blob = encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:2:2", restart_interval=4))
        pos = blob.index(b"\xff\xd3")
        bad = blob[:pos] + b"\x12\x34" + blob[pos + 2:]
        want = decode_jpeg(bad, DecodeOptions(salvage=True))
        assert want.salvaged
        srv = DecodeHTTPServer(port=0, backend="thread", workers=2,
                               scheduler="model")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(srv.url + "/decode", bad)
            assert err.value.code == 400
            assert json.loads(err.value.read())["error_type"] \
                == "EntropyError"
            req = urllib.request.Request(
                srv.url + "/decode", data=bad, method="POST",
                headers={"X-Salvage": "1"})
            with urllib.request.urlopen(req, timeout=60) as resp:
                assert resp.status == 200
                assert resp.headers["X-Salvaged"] == "1"
                assert resp.read() == ppm_bytes(want.rgb)
        finally:
            srv.shutdown()
            thread.join(timeout=30)
            srv.close()

    def test_unknown_paths_404(self, server, blob):
        for method, path, data in (("GET", "/nope", None),
                                   ("POST", "/nope", blob)):
            req = urllib.request.Request(server.url + path, data=data,
                                         method=method)
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=30)
            assert err.value.code == 404


class TestBackpressureAndStats:
    def test_queue_full_maps_to_429(self, blob, held_session):
        """Nothing drains while stalled decodes hold the window, so
        capacity-1 fills after one direct submit; the HTTP submit then
        fails fast as 429."""
        session, _ = held_session(blob, queue_capacity=1)
        srv = DecodeHTTPServer(session=session, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            session.submit(blob)     # occupies the only slot
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(srv.url + "/decode", blob, timeout=30)
            assert err.value.code == 429
            assert err.value.headers["Retry-After"] == "1"
            assert "full" in json.loads(err.value.read())["error"]
        finally:
            srv.shutdown()
            thread.join(timeout=30)
            srv.close()
            session.close(drain=False)

    def test_cancelled_request_maps_to_503(self, blob, held_session):
        """Closing an externally-owned session with drain=False while a
        POST is waiting answers 503 — never a dropped connection."""
        session, _ = held_session(blob, queue_capacity=4)
        srv = DecodeHTTPServer(session=session, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        codes: list[int] = []

        def post() -> None:
            try:
                with _post(srv.url + "/decode", blob, timeout=60) as resp:
                    codes.append(resp.status)
            except urllib.error.HTTPError as err:
                codes.append(err.code)

        poster = threading.Thread(target=post)
        try:
            poster.start()
            # Wait for the handler to have submitted (queue non-empty),
            # then cancel everything pending.
            deadline = time.monotonic() + 30
            while session.pending == 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            session.close(drain=False)
            poster.join(timeout=60)
            assert codes == [503]
        finally:
            srv.shutdown()
            thread.join(timeout=30)
            srv.close()

    def test_stalled_upload_does_not_hold_up_close(self, blob, oracle,
                                                   monkeypatch):
        """A client that stops mid-body is dropped once its connection
        has been silent for the idle timeout, so ``close()`` — the
        SIGTERM drain path — returns; a well-formed request before it
        still gets its 200."""
        from repro.service import http
        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.5)
        srv = DecodeHTTPServer(port=0, backend="serial")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        stalled = socket.create_connection((srv.host, srv.port), timeout=30)
        try:
            with _post(srv.url + "/decode", blob, timeout=30) as resp:
                assert resp.status == 200
                assert resp.read() == ppm_bytes(oracle)
            stalled.sendall(b"POST /decode HTTP/1.1\r\nHost: x\r\n"
                            b"Content-Length: 1000\r\n\r\n" + b"\xff" * 10)
            deadline = time.monotonic() + 30
            while srv._httpd.handled < 2:   # both connections accepted
                assert time.monotonic() < deadline
                time.sleep(0.005)
            srv.shutdown()
            thread.join(timeout=30)
            closer = threading.Thread(target=srv.close, daemon=True)
            closer.start()
            closer.join(timeout=5)
            assert not closer.is_alive(), "close() waited on a stalled upload"
        finally:
            stalled.close()

    def test_stats_and_healthz(self, server, blob):
        with _post(server.url + "/decode", blob) as resp:
            resp.read()
        with urllib.request.urlopen(server.url + "/stats",
                                    timeout=30) as resp:
            stats = json.loads(resp.read())
        assert stats["images_ok"] >= 1
        assert stats["queue_capacity"] == 32
        assert stats["closed"] is False
        assert stats["latency_ms"]["p50"] > 0
        with urllib.request.urlopen(server.url + "/healthz",
                                    timeout=30) as resp:
            assert json.loads(resp.read())["status"] == "ok"


class TestShutdown:
    """``shutdown()`` stops whichever loop runs — the bounded one of
    ``repro serve --max-requests`` included — and returns at once when
    none does."""

    @staticmethod
    def _shutdown_returns(srv: DecodeHTTPServer) -> None:
        stopper = threading.Thread(target=srv.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=1)
        assert not stopper.is_alive(), "shutdown() blocked"

    def test_server_that_never_served(self):
        with DecodeHTTPServer(port=0, backend="serial") as srv:
            self._shutdown_returns(srv)

    def test_after_and_during_a_bounded_serve(self):
        with DecodeHTTPServer(port=0, backend="serial") as srv:
            loop = threading.Thread(
                target=srv.serve_forever, kwargs={"max_requests": 1},
                daemon=True)
            loop.start()
            with urllib.request.urlopen(srv.url + "/healthz",
                                        timeout=30) as resp:
                assert resp.status == 200
            loop.join(timeout=30)
            assert not loop.is_alive()
            self._shutdown_returns(srv)
        with DecodeHTTPServer(port=0, backend="serial") as srv:
            loop = threading.Thread(
                target=srv.serve_forever, kwargs={"max_requests": 100},
                daemon=True)
            loop.start()
            self._shutdown_returns(srv)
            loop.join(timeout=1)
            assert not loop.is_alive()


class TestServeCli:
    def test_serve_answers_real_http_round_trip(self, blob, oracle,
                                                capsys):
        """`repro serve` end to end: bounded to three connections so
        main() returns on its own, driven over a real socket."""
        from repro.cli import main

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        rc: list[int] = []
        thread = threading.Thread(target=lambda: rc.append(main(
            ["serve", "--port", str(port), "--backend", "thread",
             "--workers", "2", "--max-requests", "3"])))
        thread.start()
        base = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 30
        while True:       # connection #1: readiness probe
            try:
                with urllib.request.urlopen(base + "/healthz",
                                            timeout=1) as resp:
                    assert resp.status == 200
                break
            except OSError:
                assert time.monotonic() < deadline, "server never came up"
                time.sleep(0.02)
        with _post(base + "/decode", blob) as resp:           # 2
            assert resp.status == 200
            assert np.array_equal(_parse_ppm(resp.read()), oracle)
        with urllib.request.urlopen(base + "/stats",
                                    timeout=30) as resp:      # 3
            assert json.loads(resp.read())["images_ok"] == 1
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert rc == [0]
        out = capsys.readouterr().out
        assert "listening on" in out
        assert "summary:" in out


class TestRollingFrontEnd:
    """What the rolling pump changes at the socket: replies arrive
    sooner, so the accept queue and the counted-before-resolved rule
    are both leaned on harder."""

    def test_thirty_two_simultaneous_connections(self, tiny_rgb):
        """The listen backlog holds a burst: no connection is left to
        the kernel's 1 s SYN retransmit (the stdlib default of 5 drops
        the sixth simultaneous SYN)."""
        data = encode_jpeg(tiny_rgb, EncoderSettings(quality=75))
        srv = DecodeHTTPServer(port=0, backend="thread", workers=2,
                               queue_capacity=64)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        n = 32
        start = threading.Barrier(n)
        outcomes: list[tuple[int, float] | None] = [None] * n

        def fetch(i: int) -> None:
            start.wait(timeout=30)
            t0 = time.perf_counter()
            with _post(srv.url + "/decode", data) as resp:
                resp.read()
                outcomes[i] = (resp.status, time.perf_counter() - t0)

        try:
            clients = [threading.Thread(target=fetch, args=(i,))
                       for i in range(n)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=60)
        finally:
            srv.shutdown()
            thread.join(timeout=30)
            srv.close()
        assert all(o is not None and o[0] == 200 for o in outcomes)
        assert max(latency for _status, latency in outcomes) < 1.0

    def test_stats_right_after_a_response_counts_it(self, server, blob):
        """Stats fold in before the handle resolves, per image."""
        for done in range(1, 6):
            with _post(server.url + "/decode", blob) as resp:
                assert resp.status == 200
                resp.read()
            with urllib.request.urlopen(server.url + "/stats",
                                        timeout=30) as resp:
                stats = json.loads(resp.read())
            assert stats["images_ok"] == done
            assert stats["latency_ms"]["window_size"] == done
            assert stats["in_flight"] == 0
