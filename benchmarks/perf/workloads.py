"""The four systems under test, behind one small driving interface.

Each workload is used three ways — cold-start timing, the verified
warm-up pass, timed rounds — through ``start()``, ``run_pass(requests)``
and ``stop()``; ``pool_root()`` names the process whose descendants are
the pool workers (for CPU attribution).  A pass is a closed loop: every
caller waits for its reply before sending the next request.

``run_pass`` takes ``(jpeg_bytes, (height, width))`` pairs and returns
one :class:`Reply` per request, in request order, carrying the
caller-side latency and whatever the layer exposes for free (decoded
pixels, server-side latency, worker busy time).  Pixels are compared
against the oracle by the runner, not here.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).parent

#: Requests the session workload keeps in flight.
SESSION_IN_FLIGHT = 16

#: HTTP client threads per core.  With one connection per core every
#: reply left a worker idle until the next request arrived, and the run
#: measured the shared host's wake-up latency: throughput wandered
#: 15-25 % between identical runs.  Two per core keep a request waiting
#: for each worker (4-7 %).  Not more: the stdlib server's listen
#: backlog is 5, and beyond it each pass stalls on a 1 s SYN retransmit.
HTTP_CLIENTS_PER_CORE = 2

#: JPEG bytes and the (height, width) its reply must have.
Request = tuple[bytes, tuple[int, int]]


class WorkloadError(Exception):
    """The system under test could not be started or stopped cleanly."""


@dataclass
class Reply:
    """Outcome of one request as its caller saw it."""

    ok: bool
    latency_s: float
    pixels: np.ndarray | None = None
    #: Latency the service itself reported for the request, if any.
    service_ms: float | None = None
    #: Worker busy time the service reported for the request, if any.
    worker_ms: float | None = None


def session_kwargs(workers: int) -> dict:
    """The one session configuration both service workloads time."""
    return {"workers": workers, "backend": "process", "scheduler": "model"}


def live_stats(snapshot: dict, leaked: int) -> dict:
    """Layer metrics read from a session's own counters at shutdown."""
    batches = max(1, snapshot["batches"])
    images = snapshot["images_ok"] + snapshot["images_failed"]
    moved = snapshot["transport"]["shm_bytes"] + \
        snapshot["transport"]["pickle_bytes"]
    return {
        "session.batch_fill": images / batches,
        "scheduler.fanout_share":
            snapshot["images_split"] / images if images else 0.0,
        "workers.rebuilds": snapshot["faults"]["pool_rebuilds"],
        "transport.shm_share":
            snapshot["transport"]["shm_bytes"] / moved if moved else 0.0,
        "transport.leaked": leaked,
        "faults.retries": snapshot["faults"]["retries"],
        "faults.infra_failures": snapshot["faults"]["infra_failures"],
    }


class DirectWorkload:
    """In-process, single-thread ``decode_jpeg`` calls."""

    def __init__(self, workers: int) -> None:
        del workers   # one caller, no pool

    def start(self) -> None:
        from repro.jpeg import decode_jpeg
        self._decode = decode_jpeg

    def run_pass(self, requests: list[Request]) -> list[Reply]:
        replies = []
        for data, shape in requests:
            t0 = perf_counter()
            try:
                rgb = self._decode(data).rgb
            except Exception:   # a decode error is a failed operation
                replies.append(Reply(False, perf_counter() - t0))
                continue
            replies.append(Reply(rgb.shape[:2] == shape,
                                 perf_counter() - t0, rgb))
        return replies

    def pool_root(self) -> None:
        return None

    def stop(self) -> dict:
        return {}


class SessionWorkload:
    """``DecodeSession`` over a process pool; one submitting thread
    keeps :data:`SESSION_IN_FLIGHT` requests outstanding."""

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def start(self) -> None:
        from repro.service import DecodeSession
        self._session = DecodeSession(**session_kwargs(self.workers))

    def run_pass(self, requests: list[Request]) -> list[Reply]:
        gate = threading.Semaphore(SESSION_IN_FLIGHT)
        done_at = [0.0] * len(requests)
        sent_at = []
        handles = []

        def on_done(_handle, slot):
            done_at[slot] = perf_counter()
            gate.release()

        for slot, (data, _shape) in enumerate(requests):
            gate.acquire()
            sent_at.append(perf_counter())
            handle = self._session.submit(data, timeout=None)
            handle.add_done_callback(lambda h, slot=slot: on_done(h, slot))
            handles.append(handle)
        replies = []
        for slot, (handle, (_data, shape)) in enumerate(zip(handles, requests)):
            try:
                res = handle.result(timeout=120)
            except Exception:   # cancelled / infrastructure failure
                replies.append(Reply(False, 0.0))
                continue
            ok = res.ok and (res.height, res.width) == shape
            replies.append(Reply(
                ok, done_at[slot] - sent_at[slot], res.rgb,
                service_ms=res.latency_s * 1e3,
                worker_ms=None if res.wall_us is None else res.wall_us / 1e3))
        return replies

    def pool_root(self) -> int:
        """Pool workers are this process's children."""
        return os.getpid()

    def stop(self) -> dict:
        snapshot = self._session.stats_snapshot()
        arena = self._session.decoder.arena
        leaked = len(arena.leaked()) if arena is not None else 0
        self._session.close()
        return live_stats(snapshot, leaked)


class HttpWorkload:
    """``POST /decode`` over loopback against a server in its own
    process (started by ``_serve.py``), from
    :data:`HTTP_CLIENTS_PER_CORE` client threads per core.

    The server speaks HTTP/1.0, so every request is its own connection.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def start(self) -> None:
        self._server = subprocess.Popen(
            [sys.executable, str(HERE / "_serve.py"), str(self.workers)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True)     # so a hung server can be killed
                                        # together with its pool workers
        ready = self._server.stdout.readline()
        if not ready:
            raise WorkloadError("decode server exited before it was ready")
        self._port = json.loads(ready)["port"]
        self._clients = ThreadPoolExecutor(
            max_workers=HTTP_CLIENTS_PER_CORE * self.workers)

    def _post(self, request: Request) -> Reply:
        data, (height, width) = request
        t0 = perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=60)
        try:
            conn.request("POST", "/decode", body=data)
            resp = conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException):
            return Reply(False, perf_counter() - t0)
        finally:
            conn.close()
        latency = perf_counter() - t0
        header = b"P6\n%d %d\n255\n" % (width, height)
        ok = (resp.status == 200
              and resp.getheader("X-Width") == str(width)
              and resp.getheader("X-Height") == str(height)
              and len(body) == len(header) + height * width * 3
              and body.startswith(header))
        if not ok:
            return Reply(False, latency)
        pixels = np.frombuffer(body, dtype=np.uint8, offset=len(header))
        return Reply(True, latency, pixels.reshape(height, width, 3),
                     service_ms=float(resp.getheader("X-Latency-Ms")))

    def run_pass(self, requests: list[Request]) -> list[Reply]:
        return list(self._clients.map(self._post, requests))

    def pool_root(self) -> int:
        """Pool workers are the server process's children."""
        return self._server.pid

    def stop(self) -> dict:
        self._clients.shutdown()
        try:
            # Closing stdin asks the server to drain and report.
            report, _ = self._server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self._server.pid, signal.SIGKILL)
            self._server.communicate()
            raise WorkloadError("decode server did not shut down") from None
        if self._server.returncode != 0:
            raise WorkloadError("decode server exited with "
                                f"{self._server.returncode}")
        final = json.loads(report)
        return live_stats(final["stats"], final["leaked"])


WORKLOADS = {
    "direct_dense": DirectWorkload,
    "direct_smooth": DirectWorkload,
    "session_small": SessionWorkload,
    "http_mixed": HttpWorkload,
}


def worker_count() -> int:
    """Pool and client-thread count: one per core of this host."""
    return max(1, os.cpu_count() or 1)
