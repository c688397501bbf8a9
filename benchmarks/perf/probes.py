"""Layer probes: the traced pass of the perf ledger.

Every probe times calls into one layer's *public* functions on the
workload's own inputs, from outside the program — spans are recorded
here, in the benchmark's files, around the calls.  The decoder's stages
are read through the existing ``DecodeOptions.stage_hook`` tap.  Only
the probes of layers on a workload's request path run for it
(:data:`ON_PATH`); every other layer metric reads 0 there.  A probe
whose target has been renamed or removed is skipped (its metrics read
0 and its name is printed under ``probes_skipped``); the end-to-end
metrics never depend on a probe.

Times are raw here; the runner divides them by the host-speed factor
of the calibration bracket around the whole traced pass.  Names ending
in ``_share`` / ``_ratio`` / ``closure`` / ``overhead`` are ratios and
are left alone.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

STAGES = ("parse", "entropy", "idct", "upsample", "color")

#: Decodes of each input per arm (traced / untraced); arms alternate and
#: the fastest of each is kept, so one host hiccup cannot skew a share.
STAGE_REPEATS = 2


class ProbeError(Exception):
    """A probe ran and the layer gave a wrong answer."""


def _noop() -> None:
    """Task body for the dispatch round-trip probe."""


def decoder_stages(members, round_wall_s) -> dict[str, float]:
    """Stage breakdown of ``decode_jpeg`` via ``stage_hook``, plus the
    closure (do stages add up to the call?), the cost of tracing, and
    the untraced time of each input as ``decoder.ms.<image>``."""
    from repro.jpeg import DecodeOptions, decode_jpeg

    stage_s = dict.fromkeys(STAGES, 0.0)
    traced_s = untraced_s = 0.0
    out = {}
    for m in members:
        best_traced, best_spans, best_plain = float("inf"), {}, float("inf")
        for _ in range(STAGE_REPEATS):
            t0 = perf_counter()
            decode_jpeg(m.data)
            best_plain = min(best_plain, perf_counter() - t0)
            spans: dict[str, float] = {}

            def hook(stage, start, end, spans=spans):
                spans[stage] = spans.get(stage, 0.0) + (end - start)

            t0 = perf_counter()
            decode_jpeg(m.data, DecodeOptions(stage_hook=hook))
            wall = perf_counter() - t0
            if wall < best_traced:
                best_traced, best_spans = wall, spans
        for stage, seconds in best_spans.items():
            stage_s[stage] += seconds
        traced_s += best_traced
        untraced_s += best_plain
        out[f"decoder.ms.{m.recipe.name}"] = best_plain * 1e3

    mp = sum(m.megapixels for m in members)
    mb = sum(len(m.data) for m in members) / 1e6
    staged = sum(stage_s.values())
    out.update({
        "markers.parse_ms_per_mb": stage_s["parse"] * 1e3 / mb,
        "markers.parse_share": stage_s["parse"] / staged,
        "entropy.ms_per_mp": stage_s["entropy"] * 1e3 / mp,
        "entropy.mb_s": mb / stage_s["entropy"],
        "entropy.share": stage_s["entropy"] / staged,
        "decoder.stage_closure": staged / traced_s,
        "decoder.trace_overhead": traced_s / untraced_s,
    })
    for stage in ("idct", "upsample", "color"):
        out[f"{stage}.ms_per_mp"] = stage_s[stage] * 1e3 / mp
        out[f"{stage}.share"] = stage_s[stage] / staged
    return out


def scheduler_plan(members, round_wall_s) -> dict[str, float]:
    """Parent-side cost of pricing and placing the pass's requests —
    serial work no number of workers hides (the paper's Eq 19)."""
    from repro.service import ImageRequest, ModelScheduler

    scheduler = ModelScheduler("model")
    requests = [ImageRequest(data=m.data) for m in members]
    scheduler.plan(requests)            # lazily profiles the cost models
    t0 = perf_counter()
    scheduler.plan(requests)
    plan_s = perf_counter() - t0
    return {"scheduler.plan_ms_per_img": plan_s * 1e3 / len(members),
            "scheduler.plan_share": plan_s / round_wall_s}


def batch_overhead(members, round_wall_s) -> dict[str, float]:
    """What the batch layer adds around the same decodes, pool excluded."""
    from repro.jpeg import decode_jpeg
    from repro.service import BatchDecoder

    items = [m.data for m in members]
    decoder = BatchDecoder(backend="serial")
    try:
        decoder.decode_batch(items[:1])
        t0 = perf_counter()
        result = decoder.decode_batch(items)
        t1 = perf_counter()
        for data in items:
            decode_jpeg(data)
        t2 = perf_counter()
    finally:
        decoder.close()
    if not all(r.ok for r in result.results):
        raise ProbeError("serial batch decode failed")
    return {"batch.overhead_ratio": (t1 - t0) / (t2 - t1)}


def speculative_fanout(members, round_wall_s) -> dict[str, float]:
    """What the speculative chunk fan-out of the largest marker-free
    baseline input costs against decoding it whole: below 1 the fan-out
    pays, above 1 the caller would have been served sooner without."""
    from repro.jpeg import decode_jpeg
    from repro.service import BatchDecoder

    frame = max((m for m in members if not m.recipe.restart_interval
                 and not m.recipe.progressive), key=lambda m: m.megapixels)
    workers = max(2, os.cpu_count() or 2)
    whole_s = fanned_s = float("inf")
    with BatchDecoder(workers=workers, backend="process",
                      speculative="on") as decoder:
        decoder.decode_batch([frame.data])          # starts the pool
        for _ in range(STAGE_REPEATS):
            t0 = perf_counter()
            decode_jpeg(frame.data)
            t1 = perf_counter()
            result, = decoder.decode_batch([frame.data]).results
            fanned_s = min(fanned_s, perf_counter() - t1)
            whole_s = min(whole_s, t1 - t0)
    if not (result.ok and result.speculative):
        raise ProbeError(f"{frame.recipe.name} was not decoded speculatively")
    return {"speculative.cost_ratio": fanned_s / whole_s}


def worker_dispatch(members, round_wall_s) -> dict[str, float]:
    """Round trip of a no-op task through a process ``WorkerPool``."""
    from repro.service import WorkerPool

    with WorkerPool(workers=1, backend="process") as pool:
        pool.submit(_noop).result(timeout=60)
        trips = []
        for _ in range(50):
            t0 = perf_counter()
            pool.submit(_noop).result(timeout=60)
            trips.append(perf_counter() - t0)
    return {"workers.dispatch_rtt_ms": statistics.median(trips) * 1e3}


def transport_roundtrip(members, round_wall_s) -> dict[str, float]:
    """lease -> publish -> resolve(copy) -> release on frame-sized
    arrays: the shared-memory hop a decoded frame takes to the parent."""
    from repro.service.transport import PlaneArena, publish_plane

    nbytes = sum(m.pixels.nbytes for m in members)
    with PlaneArena() as arena:
        for attempt in range(2):        # first pass creates the segments
            t0 = perf_counter()
            for m in members:
                slot = arena.lease(m.pixels.nbytes)
                ref = publish_plane(slot, m.pixels)
                arena.resolve(ref, copy=True)
                arena.release(slot)
            wall = perf_counter() - t0
        if arena.leaked():
            raise ProbeError("transport probe leaked a slot")
    return {"transport.roundtrip_ms_per_mb": wall * 1e3 / (nbytes / 1e6)}


def http_serialize(members, round_wall_s) -> dict[str, float]:
    """``ppm_bytes``: the response body the HTTP shim builds per frame."""
    from repro.service.http import ppm_bytes

    t0 = perf_counter()
    nbytes = sum(len(ppm_bytes(m.pixels)) for m in members)
    wall = perf_counter() - t0
    return {"http.serialize_ms_per_mb": wall * 1e3 / (nbytes / 1e6)}


#: (probe, metrics it reports) — the names let a skipped probe still
#: report every metric it owns.
PROBES = (
    (decoder_stages, (
        "markers.parse_ms_per_mb", "markers.parse_share",
        "entropy.ms_per_mp", "entropy.mb_s", "entropy.share",
        "idct.ms_per_mp", "idct.share", "upsample.ms_per_mp",
        "upsample.share", "color.ms_per_mp", "color.share",
        "decoder.stage_closure", "decoder.trace_overhead")),
    (scheduler_plan, ("scheduler.plan_ms_per_img", "scheduler.plan_share")),
    (batch_overhead, ("batch.overhead_ratio",)),
    (speculative_fanout, ("speculative.cost_ratio",)),
    (worker_dispatch, ("workers.dispatch_rtt_ms",)),
    (transport_roundtrip, ("transport.roundtrip_ms_per_mb",)),
    (http_serialize, ("http.serialize_ms_per_mb",)),
)

#: Probe outputs that are times (divided by the host-speed factor) or
#: rates (multiplied by it); everything else is a ratio.
TIME_METRICS = frozenset({
    "markers.parse_ms_per_mb", "entropy.ms_per_mp", "idct.ms_per_mp",
    "upsample.ms_per_mp", "color.ms_per_mp", "scheduler.plan_ms_per_img",
    "workers.dispatch_rtt_ms", "transport.roundtrip_ms_per_mb",
    "http.serialize_ms_per_mb"})
RATE_METRICS = frozenset({"entropy.mb_s"})


def is_time_metric(name: str) -> bool:
    """True for probe outputs that scale with host speed (milliseconds)."""
    return name in TIME_METRICS or name.startswith("decoder.ms.")


#: workload -> the probes of the layers its requests pass through.  A
#: direct call is the decoder and nothing else; the session adds the
#: scheduler, the batch layer, the pool and the shm hop; HTTP adds the
#: response body - and is the one workload whose batches leave workers
#: idle, so that a dominant marker-free frame is fanned out.
_SESSION_PATH = (decoder_stages, scheduler_plan, batch_overhead,
                 worker_dispatch, transport_roundtrip)
ON_PATH = {
    "direct_dense": (decoder_stages,),
    "direct_smooth": (decoder_stages,),
    "session_small": _SESSION_PATH,
    "http_mixed": _SESSION_PATH + (speculative_fanout, http_serialize),
}


def run_probes(workload: str, members,
               round_wall_s: float) -> tuple[dict, list[str], list[str]]:
    """Run the probes on *workload*'s path over *members*; returns
    (metrics, skipped probes, probes whose layer answered wrongly).
    Metrics of every other probe read 0.  *round_wall_s* is the
    workload's median timed round, the base of ``scheduler.plan_share``."""
    metrics: dict[str, float] = {}
    skipped, wrong = [], []
    for probe, names in PROBES:
        metrics.update(dict.fromkeys(names, 0.0))
        if probe not in ON_PATH[workload]:
            continue
        try:
            metrics.update(probe(members, round_wall_s))
        except (ImportError, AttributeError, TypeError) as exc:
            skipped.append(f"{probe.__name__}: {type(exc).__name__}: {exc}")
        except ProbeError as exc:
            wrong.append(f"{probe.__name__}: {exc}")
    return metrics, skipped, wrong
