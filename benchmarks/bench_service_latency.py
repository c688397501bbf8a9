"""S3 — futures-based session latency under open-loop load: p50/p99
submit-to-completion latency vs offered arrival rate.

The perf ledger's ``session_small`` workload drives a session
*closed-loop* (a fixed number in flight).  This bench measures what a
serving front end actually exposes: an **open-loop** arrival process —
requests submitted on a fixed schedule regardless of completions, the
way independent clients hit ``repro serve`` — against a pumped
:class:`repro.service.DecodeSession`, reading each request's
submit-to-completion latency off its
:class:`~repro.service.session.DecodeHandle`.  As the offered rate
crosses the service's capacity, queueing delay (bounded by the
submission queue + blocking backpressure) shows up in p99 long before
p50 — the knee every latency-vs-load curve has.

Acceptance: on a multi-core host the session's *closed-loop* throughput
(submit everything, wait for all handles) must reach at least
``SERVICE_LATENCY_MIN_RATIO`` (default 1.05) times the sequential
decode loop — the pump and the futures layer must not eat the
process-parallel win.
A throughput floor alone passes a pump that resolves handles a batch at
a time, so the open-loop sweep carries a latency one too: at half the
sequential rate the service is mostly idle when a request arrives, and
the median request must come back within one sequential decode plus
:data:`LIGHT_LOAD_SLACK_MS` — one that waited for a batch to fill, or
for its batch-mates to finish, does not.  Each request is held against
its *own* decode time (the busy span its worker reported), not against
the in-process loop timed seconds earlier: on a shared host the speed
of a decode moves by more than the slack between the two phases, while
what the service adds on top of the decode does not.  Bit-identity of
every session output is asserted before any timing is trusted.  On a
single-core host the sweep reports but both floors are skipped.
"""

import os
from time import perf_counter, sleep

import numpy as np

from repro.data import synthetic_photo
from repro.evaluation import format_table
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import DecodeSession

from common import write_result

#: (seed, width, height, subsampling, restart_interval)
CORPUS = (
    (21, 320, 240, "4:2:2", 0),
    (22, 320, 240, "4:2:0", 8),
    (23, 256, 256, "4:4:4", 0),
    (24, 384, 256, "4:2:2", 8),
    (25, 256, 192, "4:2:0", 0),
    (26, 320, 320, "4:4:4", 0),
)

#: Offered load as multiples of the measured sequential rate.
LOAD_FACTORS = (0.5, 1.0, 2.0)

#: Requests per open-loop level (the corpus cycled).
REQUESTS_PER_LEVEL = 18

#: What a request may cost over one sequential decode at the lightest
#: load level (queue hop, dispatch round trip, result transport).
LIGHT_LOAD_SLACK_MS = 5.0

#: Closed-loop floor: session throughput vs the sequential loop.
MIN_RATIO = float(os.environ.get("SERVICE_LATENCY_MIN_RATIO", "1.05"))


def build_corpus() -> list[bytes]:
    """Encode the six-image synthetic corpus."""
    blobs = []
    for seed, w, h, sub, dri in CORPUS:
        rgb = synthetic_photo(h, w, seed=seed, detail=0.6)
        blobs.append(encode_jpeg(rgb, EncoderSettings(
            quality=85, subsampling=sub, restart_interval=dri)))
    return blobs


def time_sequential(blobs: list[bytes]) -> tuple[float, list[np.ndarray]]:
    """Sequential images/sec plus the bit-identity oracle."""
    outputs = [decode_jpeg(b).rgb for b in blobs]   # warm-up + oracle
    t0 = perf_counter()
    for b in blobs:
        decode_jpeg(b)
    return len(blobs) / (perf_counter() - t0), outputs


def _session(workers: int) -> DecodeSession:
    """The configuration under test: a pumped process-pool session."""
    return DecodeSession(queue_capacity=32, workers=workers,
                         backend="process")


def time_session_closed_loop(blobs: list[bytes],
                             oracle: list[np.ndarray],
                             workers: int, rounds: int = 3) -> float:
    """Closed-loop session throughput (img/s): submit all, await all."""
    with _session(workers) as sess:
        sess.submit(blobs[0]).result(timeout=120)   # warm the pool
        t0 = perf_counter()
        handles = [sess.submit(b, timeout=None)
                   for _ in range(rounds) for b in blobs]
        results = [h.result(timeout=300) for h in handles]
        wall = perf_counter() - t0
    for i, res in enumerate(results):
        assert res.ok, f"request {i}: {res.error}"
        assert np.array_equal(res.rgb, oracle[i % len(blobs)]), (
            f"request {i}: session output differs from sequential decode")
    return len(results) / wall


def run_open_loop(blobs: list[bytes], offered_ips: float,
                  workers: int) -> tuple[float, float, float, float]:
    """One open-loop level: submit on a fixed schedule, return
    (achieved img/s, p50 ms, p99 ms) of submit-to-completion latency
    and the p50 of what each request took beyond its own decode, ms."""
    from repro.service import percentile

    interarrival = 1.0 / offered_ips
    with _session(workers) as sess:
        # Warm every worker, not just the pool: a fresh interpreter
        # decodes its first images 2-3x slower than a settled one.
        for warm in [sess.submit(b, timeout=None) for b in blobs * 2]:
            warm.result(timeout=120)
        handles = []
        t0 = perf_counter()
        for i in range(REQUESTS_PER_LEVEL):
            target = t0 + i * interarrival
            delay = target - perf_counter()
            if delay > 0:
                sleep(delay)
            # Blocking put: when the service is saturated the *queue*
            # bounds memory and the producer absorbs the backpressure.
            handles.append(sess.submit(blobs[i % len(blobs)], timeout=None))
        results = [h.result(timeout=300) for h in handles]
        wall = perf_counter() - t0
    assert all(r.ok for r in results)
    lat_ms = [r.latency_s * 1e3 for r in results]
    return (len(results) / wall, percentile(lat_ms, 50),
            percentile(lat_ms, 99),
            percentile([r.latency_s * 1e3 - r.wall_us / 1e3
                        for r in results], 50))


def render() -> str:
    """Run floor check + open-loop sweep; format the table."""
    cpus = os.cpu_count() or 1
    workers = max(1, min(4, cpus))
    blobs = build_corpus()
    seq_ips, oracle = time_sequential(blobs)
    closed_ips = time_session_closed_loop(blobs, oracle, workers)

    rows = [["sequential loop", "closed", f"{seq_ips:.2f}", "-", "-"],
            ["session (all-at-once)", "closed",
             f"{closed_ips:.2f} ({closed_ips / seq_ips:.2f}x)", "-", "-"]]
    light_extra = None
    for factor in LOAD_FACTORS:
        offered = factor * seq_ips
        achieved, p50, p99, extra = run_open_loop(blobs, offered, workers)
        if light_extra is None:
            light_extra = extra
        rows.append([f"session @ {factor:.1f}x seq rate",
                     f"{offered:.2f} offered",
                     f"{achieved:.2f}", f"{p50:.1f}", f"{p99:.1f}"])

    note = f"host cores: {cpus}, workers: {workers}"
    if cpus >= 2:
        assert closed_ips >= MIN_RATIO * seq_ips, (
            f"batched session must reach >= {MIN_RATIO}x sequential "
            f"throughput on a {cpus}-core host; got {closed_ips:.2f} vs "
            f"{seq_ips:.2f} img/s")
        assert light_extra < LIGHT_LOAD_SLACK_MS, (
            f"at {LOAD_FACTORS[0]}x the sequential rate the median "
            f"request must come back within its own decode time + "
            f"{LIGHT_LOAD_SLACK_MS} ms; it took {light_extra:.1f} ms more")
        note += (f"; session {closed_ips / seq_ips:.2f}x sequential "
                 f"(floor {MIN_RATIO}x), light-load p50 latency "
                 f"{light_extra:.1f} ms over the decode itself "
                 f"(limit {LIGHT_LOAD_SLACK_MS} ms)")
    else:
        note += "; single-core host - ratio assertion skipped"
    return format_table(
        ["Config", "img/s in", "img/s out", "p50 ms", "p99 ms"], rows,
        title=(f"S3: open-loop session latency vs offered load, "
               f"{len(blobs)}-image mixed corpus x "
               f"{REQUESTS_PER_LEVEL} requests/level ({note})"))


def test_service_latency():
    """Pytest entry point: run the sweep and persist the table."""
    write_result("service_latency", render())


if __name__ == "__main__":
    write_result("service_latency", render())
