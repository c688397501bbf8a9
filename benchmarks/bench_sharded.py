"""S8 — sharded serving: aggregate throughput scaling across worker
hosts, and priority-class shedding under overload.

Spawns real ``repro serve-worker`` subprocesses on localhost (each its
own Python process, so host-side decode genuinely runs in parallel)
and drives them through :func:`repro.service.sharded_session` (a plain
``DecodeSession`` over :func:`repro.service.remote_executors` lanes):

1. **scaling** — the same cycled corpus decoded through 1 host, then
   through ``HOST_COUNT`` hosts, every image asserted bit-identical to
   the sequential oracle; reports aggregate img/s and p99 per tier
   width.
2. **shedding probe** — a one-host front tier with a small submission
   queue flooded with alternating low/high-priority requests at
   ``timeout=0``: weighted shedding must admit a larger share of the
   high class than the low class (low sees 50% of the queue, high all
   of it), and every admitted request still decodes.

Acceptance: aggregate throughput through ``HOST_COUNT`` hosts reaches
at least ``SHARDED_MIN_RATIO`` (default 1.5) times the one-host
throughput — skipped on hosts with fewer cores than worker processes,
where the "hosts" time-share CPUs — and the shed probe admits
proportionally more high- than low-priority traffic while high-class
p99 stays finite (admitted high requests complete).
"""

import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.data import synthetic_photo
from repro.errors import QueueFullError
from repro.evaluation import format_table
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    ImageRequest,
    percentile,
    remote_executors,
    sharded_session,
)

from common import write_result

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (seed, width, height, subsampling) of the cycled corpus images.
CORPUS = (
    (31, 192, 144, "4:2:2"),
    (32, 192, 144, "4:4:4"),
    (33, 256, 192, "4:2:2"),
    (34, 224, 160, "4:4:4"),
)

#: Total decode requests per scaling run (the corpus is cycled).
TOTAL_IMAGES = int(os.environ.get("SHARDED_BENCH_IMAGES", "48"))
BATCH_SIZE = 8

#: Worker-host processes in the wide tier.
HOST_COUNT = int(os.environ.get("SHARDED_BENCH_HOSTS", "3"))

#: N-host vs 1-host aggregate throughput acceptance floor.
MIN_RATIO = float(os.environ.get("SHARDED_MIN_RATIO", "1.5"))

#: Flooded submissions in the shedding probe.
FLOOD = 40
SHED_QUEUE = 8


def build_corpus() -> tuple[list[bytes], list[np.ndarray]]:
    """Encode the corpus and its bit-identity oracles."""
    blobs, oracles = [], []
    for seed, w, h, sub in CORPUS:
        rgb = synthetic_photo(h, w, seed=seed, detail=0.5)
        blob = encode_jpeg(rgb, EncoderSettings(quality=85, subsampling=sub))
        blobs.append(blob)
        oracles.append(decode_jpeg(blob).rgb)
    return blobs, oracles


def spawn_workers(count: int) -> list[tuple[subprocess.Popen, int]]:
    """Start *count* ``repro serve-worker`` subprocesses on ephemeral
    ports; returns (process, port) pairs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    workers = []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve-worker",
                 "--port", "0", "--backend", "serial"],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            line = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            assert match, f"no listening line from serve-worker: {line!r}"
            workers.append((proc, int(match.group(1))))
    except BaseException:
        stop_workers(workers)
        raise
    return workers


def stop_workers(workers) -> None:
    """Terminate the worker subprocesses (hard-kill stragglers)."""
    for proc, _port in workers:
        if proc.poll() is None:
            proc.terminate()
    for proc, _port in workers:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()


def run_tier(ports: list[int], blobs: list[bytes],
             oracles: list[np.ndarray]) -> dict:
    """Decode TOTAL_IMAGES cycled requests through the hosts at
    *ports*; every result must be ok and bit-identical."""
    stream = [i % len(blobs) for i in range(TOTAL_IMAGES)]
    latencies: list[float] = []
    session = sharded_session(
        remote_executors([("127.0.0.1", p) for p in ports]),
        policy="roundrobin", queue_capacity=max(32, BATCH_SIZE))
    try:
        # Warm every host link (connection + first-decode caches).
        warm = [session.submit(blobs[0]) for _ in range(len(ports))]
        assert all(h.result(timeout=120).ok for h in warm)
        t0 = perf_counter()
        for start in range(0, len(stream), BATCH_SIZE):
            chunk = stream[start:start + BATCH_SIZE]
            handles = [session.submit(blobs[i]) for i in chunk]
            for i, handle in zip(chunk, handles):
                res = handle.result(timeout=120)
                assert res.ok, (f"image {i} failed through the tier: "
                                f"{res.error_type}: {res.error}")
                assert np.array_equal(res.rgb, oracles[i]), (
                    f"image {i}: sharded output differs from "
                    f"sequential decode")
                latencies.append(res.latency_s)
        elapsed = perf_counter() - t0
    finally:
        session.close(drain=False)
    return {
        "ips": len(stream) / elapsed,
        "p99_ms": percentile([s * 1e3 for s in latencies], 99),
    }


def shed_probe(port: int, blobs: list[bytes]) -> dict:
    """Flood a small-queue one-host tier with alternating low/high
    requests; returns per-class admission counts and high-class p99."""
    session = sharded_session(
        remote_executors([("127.0.0.1", port)]), policy="roundrobin",
        queue_capacity=SHED_QUEUE)
    admitted = {PRIORITY_LOW: [], PRIORITY_HIGH: []}
    shed = {PRIORITY_LOW: 0, PRIORITY_HIGH: 0}
    try:
        for i in range(FLOOD):
            priority = PRIORITY_LOW if i % 2 == 0 else PRIORITY_HIGH
            try:
                admitted[priority].append(session.submit(
                    ImageRequest(data=blobs[i % len(blobs)],
                                 priority=priority)))
            except QueueFullError:
                shed[priority] += 1
        high_lat = [h.result(timeout=120).latency_s * 1e3
                    for h in admitted[PRIORITY_HIGH]]
        for h in admitted[PRIORITY_LOW]:
            assert h.result(timeout=120).ok
    finally:
        session.close(drain=True)
    return {
        "low_in": len(admitted[PRIORITY_LOW]),
        "low_shed": shed[PRIORITY_LOW],
        "high_in": len(admitted[PRIORITY_HIGH]),
        "high_shed": shed[PRIORITY_HIGH],
        "high_p99_ms": percentile(high_lat or [0.0], 99),
    }


def render() -> str:
    """Run the scaling tiers and the shed probe, assert acceptance,
    format the table."""
    cpus = os.cpu_count() or 1
    blobs, oracles = build_corpus()
    workers = spawn_workers(HOST_COUNT)
    try:
        ports = [port for _proc, port in workers]
        narrow = run_tier(ports[:1], blobs, oracles)
        wide = run_tier(ports, blobs, oracles)
        shed = shed_probe(ports[0], blobs)
    finally:
        stop_workers(workers)

    rows = [
        ["1 host", f"{narrow['ips']:.2f}", f"{narrow['p99_ms']:.1f}"],
        [f"{HOST_COUNT} hosts", f"{wide['ips']:.2f}",
         f"{wide['p99_ms']:.1f}"],
    ]
    ratio = wide["ips"] / narrow["ips"] if narrow["ips"] else 0.0
    note = (f"host cores: {cpus}; {TOTAL_IMAGES} images, "
            f"batch={BATCH_SIZE}; {HOST_COUNT}-host/1-host throughput "
            f"{ratio:.2f}x; shed probe: low {shed['low_in']} in / "
            f"{shed['low_shed']} shed, high {shed['high_in']} in / "
            f"{shed['high_shed']} shed, high p99 "
            f"{shed['high_p99_ms']:.1f} ms")

    # Weighted shedding must privilege the high class under overload.
    assert shed["low_shed"] > 0, "the flood never overloaded the queue"
    assert shed["high_in"] >= shed["low_in"], (
        f"high class admitted {shed['high_in']} <= low class "
        f"{shed['low_in']} under overload")

    if cpus >= HOST_COUNT:
        assert ratio >= MIN_RATIO, (
            f"{HOST_COUNT}-host aggregate throughput must reach >= "
            f"{MIN_RATIO}x one host; got {ratio:.2f}x "
            f"({wide['ips']:.2f} vs {narrow['ips']:.2f} img/s)")
        note += f" (floor {MIN_RATIO}x)"
    else:
        note += (f"; fewer cores than hosts - scaling assertion "
                 f"skipped")
    return format_table(
        ["Tier", "img/s", "p99 ms"], rows,
        title=f"S8: sharded serving scaling ({note})")


def test_sharded():
    """Pytest entry point: run the sharded probes and persist the
    table."""
    write_result("sharded", render())


if __name__ == "__main__":
    write_result("sharded", render())
