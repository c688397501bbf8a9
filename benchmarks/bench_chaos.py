"""S5 — chaos benchmark: decode service under injected worker crashes.

Measures what fault tolerance costs and what it buys.  Three runs over
the same synthetic corpus on a process pool:

1. **fault-free** — baseline throughput and p99 latency;
2. **1% crash rate** — every dispatch has a seeded 1% chance its
   worker is SIGKILLed (:class:`repro.service.FaultPlan`'s
   ``kill_rate``); the self-healing pool rebuilds and the retry budget
   redispatches, so *every* request must still decode bit-identically —
   the run reports the surviving throughput and p99;
3. **recovery probe** — one deterministic worker kill
   (``kill_at={0}``); the time to the batch's completion minus the
   fault-free single-batch time approximates the rebuild + back-off +
   redispatch recovery cost.

Acceptance: with crashes injected, all results are ok (the recovery
machinery hides the faults) and chaos throughput reaches at least
``CHAOS_MIN_RATIO`` (default 0.35) times the fault-free throughput —
pool rebuilds are expensive, but a 1% crash rate must degrade, not
collapse, the service.  Single-core hosts skip the ratio (the process
pool cannot amortize there).
"""

import os
from time import perf_counter

import numpy as np

from repro.data import synthetic_photo
from repro.evaluation import format_table
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import BatchDecoder, FaultPlan, percentile

from common import write_result

#: (seed, width, height, subsampling) of the cycled corpus images.
CORPUS = (
    (21, 192, 144, "4:2:2"),
    (22, 192, 144, "4:4:4"),
    (23, 256, 192, "4:2:2"),
    (24, 224, 160, "4:4:4"),
)

#: Total decode requests per run (the corpus is cycled).
TOTAL_IMAGES = int(os.environ.get("CHAOS_BENCH_IMAGES", "64"))
BATCH_SIZE = 8

#: Seeded so ~2 of the run's dispatches are killed (1% rate, seed 9
#: kills dispatch ordinals 4 and 49 within the first 96 draws).
CRASH_RATE, CRASH_SEED = 0.01, 9

#: Chaos-vs-fault-free throughput acceptance floor.
MIN_RATIO = float(os.environ.get("CHAOS_MIN_RATIO", "0.35"))


def build_corpus() -> tuple[list[bytes], list[np.ndarray]]:
    """Encode the corpus and its bit-identity oracles."""
    blobs, oracles = [], []
    for seed, w, h, sub in CORPUS:
        rgb = synthetic_photo(h, w, seed=seed, detail=0.5)
        blob = encode_jpeg(rgb, EncoderSettings(quality=85, subsampling=sub))
        blobs.append(blob)
        oracles.append(decode_jpeg(blob).rgb)
    return blobs, oracles


def run_trial(blobs: list[bytes], oracles: list[np.ndarray],
             workers: int, faults: FaultPlan | None) -> dict:
    """Decode TOTAL_IMAGES cycled requests; return run metrics.

    Every result must be ok and bit-identical to the sequential oracle
    — with faults injected that *is* the recovery contract.
    """
    stream = [i % len(blobs) for i in range(TOTAL_IMAGES)]
    latencies: list[float] = []
    with BatchDecoder(workers=workers, backend="process",
                      faults=faults) as dec:
        dec.decode_batch([blobs[0]])  # warm the pool (fork + imports)
        t0 = perf_counter()
        for start in range(0, len(stream), BATCH_SIZE):
            chunk = stream[start:start + BATCH_SIZE]
            batch = dec.decode_batch([blobs[i] for i in chunk])
            for i, res in zip(chunk, batch.results):
                assert res.ok, (
                    f"image {i} failed under chaos: "
                    f"{res.error_type}: {res.error}")
                assert np.array_equal(res.rgb, oracles[i]), (
                    f"image {i}: output differs from sequential decode")
                latencies.append(res.latency_s)
        elapsed = perf_counter() - t0
        return {
            "ips": len(stream) / elapsed,
            "p99_ms": percentile([s * 1e3 for s in latencies], 99),
            "retries": dec.stats.retries,
            "rebuilds": dec.rebuilds,
            "kills": faults.injected["kill"] if faults is not None else 0,
        }


def recovery_probe(blobs: list[bytes], workers: int) -> float:
    """Extra wall-clock one worker kill adds to a single batch: the
    rebuild + back-off + redispatch recovery time, in seconds."""
    with BatchDecoder(workers=workers, backend="process") as dec:
        dec.decode_batch([blobs[0]])
        t0 = perf_counter()
        dec.decode_batch([blobs[0]])
        clean = perf_counter() - t0
    plan = FaultPlan(kill_at={0})
    with BatchDecoder(workers=workers, backend="process",
                      faults=plan) as dec:
        # No warm-up decode: it would consume dispatch ordinal 0.  The
        # pool itself is started by the submit, like a fresh lane.
        t0 = perf_counter()
        batch = dec.decode_batch([blobs[0]])
        faulted = perf_counter() - t0
        assert batch.ok and dec.rebuilds >= 1
    return max(0.0, faulted - clean)


def render() -> str:
    """Run the three probes, assert acceptance, format the table."""
    cpus = os.cpu_count() or 1
    workers = min(4, cpus)
    blobs, oracles = build_corpus()

    clean = run_trial(blobs, oracles, workers, faults=None)
    chaos = run_trial(blobs, oracles, workers,
                     faults=FaultPlan(kill_rate=CRASH_RATE, seed=CRASH_SEED))
    recovery_s = recovery_probe(blobs, workers)

    assert chaos["kills"] >= 1, "the seeded crash rate injected no kills"
    assert chaos["retries"] >= chaos["kills"]
    assert chaos["rebuilds"] >= 1

    rows = [
        ["fault-free", f"{clean['ips']:.2f}", f"{clean['p99_ms']:.1f}",
         "0", "0", "0"],
        [f"{CRASH_RATE:.0%} crash rate", f"{chaos['ips']:.2f}",
         f"{chaos['p99_ms']:.1f}", str(chaos["kills"]),
         str(chaos["retries"]), str(chaos["rebuilds"])],
    ]
    ratio = chaos["ips"] / clean["ips"] if clean["ips"] else 0.0
    note = (f"host cores: {cpus}; {TOTAL_IMAGES} images, "
            f"batch={BATCH_SIZE}, workers={workers}; "
            f"chaos/clean throughput {ratio:.2f}x; "
            f"lane-kill recovery {recovery_s * 1e3:.0f} ms")
    if cpus >= 2:
        assert ratio >= MIN_RATIO, (
            f"chaos throughput must reach >= {MIN_RATIO}x fault-free; "
            f"got {ratio:.2f}x ({chaos['ips']:.2f} vs "
            f"{clean['ips']:.2f} img/s)")
        note += f" (floor {MIN_RATIO}x)"
    else:
        note += "; single-core host - ratio assertion skipped"
    return format_table(
        ["Run", "img/s", "p99 ms", "kills", "retries", "rebuilds"], rows,
        title=f"S5: decode service under injected worker crashes ({note})")


def test_chaos():
    """Pytest entry point: run the chaos probes and persist the table."""
    write_result("chaos", render())


if __name__ == "__main__":
    write_result("chaos", render())
