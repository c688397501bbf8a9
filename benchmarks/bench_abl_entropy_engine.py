"""A8 — ablation: fused fast-path entropy engine vs reference decoder.

The paper's pipeline is bounded by sequential Huffman decoding
(Section 1, Eq 19); every executor pays that stage for real.  This
bench measures actual wall-clock (not simulated time) of the two
entropy engines on the synthetic corpus — 4:2:2 and 4:4:4, with and
without restart markers, and two DRI = 1 images (every MCU its own
restart segment: the reader lives in segment tails) — and reports the
speedup delivered by the destuffing prescan + probe-window reader +
two-symbol fused tables.  It also prices the cold build of one AC
table, which every image with its own optimized Huffman tables pays.
"""

import os
from functools import lru_cache
from time import perf_counter

from repro.data import synthetic_photo
from repro.evaluation import format_table
from repro.jpeg import EncoderSettings, constants, encode_jpeg, parse_jpeg
from repro.jpeg.decoder import component_tables_from_info
from repro.jpeg.fast_entropy import FusedDecodeTables, create_entropy_decoder
from repro.jpeg.huffman import HuffmanSpec

from common import write_result

#: (label, subsampling, restart_interval, detail)
CONFIGS = (
    ("4:2:2 DRI=0", "4:2:2", 0, 0.7),
    ("4:2:2 DRI=8", "4:2:2", 8, 0.7),
    ("4:4:4 DRI=0", "4:4:4", 0, 0.7),
    ("4:4:4 DRI=8", "4:4:4", 8, 0.7),
    ("4:2:0 DRI=1 smooth", "4:2:0", 1, 0.05),
    ("4:4:4 DRI=1 dense", "4:4:4", 1, 0.9),
)

SIDE = 384
REPEATS = 5

#: Acceptance floor for the overall speedup.  3x on an unloaded machine;
#: shared CI runners can override with a looser smoke-test bound, e.g.
#: ``ENTROPY_BENCH_MIN_SPEEDUP=1.5``.
MIN_SPEEDUP = float(os.environ.get("ENTROPY_BENCH_MIN_SPEEDUP", "3.0"))

#: Ceiling on one cold ``(spec, "ac")`` table build.  The budget is 1 ms
#: on the ledger host (docs/benchmarks.md, "Measured constants"); the
#: assert leaves a runner room to be twice as slow.
MAX_COLD_BUILD_MS = 2.0


@lru_cache(maxsize=8)
def corpus_image(subsampling: str, restart_interval: int,
                 detail: float) -> bytes:
    rgb = synthetic_photo(SIDE, SIDE, seed=29, detail=detail)
    return encode_jpeg(rgb, EncoderSettings(
        quality=85, subsampling=subsampling,
        restart_interval=restart_interval))


def cold_build_ms() -> float:
    """Best-of-N ms to build the Annex-K luminance AC table from scratch
    (no cache): what an image with per-image optimized Huffman tables
    pays per table."""
    spec = HuffmanSpec(constants.STD_AC_LUMINANCE_BITS,
                       constants.STD_AC_LUMINANCE_VALUES)
    best = float("inf")
    for _ in range(20):
        t0 = perf_counter()
        FusedDecodeTables(spec, "ac").probe
        best = min(best, perf_counter() - t0)
    return best * 1e3


def time_engines(info) -> dict[str, float]:
    """Best-of-N wall-clock seconds per engine for one full decode.

    The engines are interleaved within each round so load/frequency
    drift during the measurement hits both equally instead of biasing
    whichever engine ran last.
    """
    tables = component_tables_from_info(info)
    decoders = {}
    for engine in ("reference", "fast"):
        dec = create_entropy_decoder(engine, info.geometry, tables,
                                     info.restart_interval)
        dec.decode_all(info.entropy_data)   # warm-up (table/cache build)
        decoders[engine] = dec
    best = {engine: float("inf") for engine in decoders}
    for _ in range(REPEATS):
        for engine, dec in decoders.items():
            t0 = perf_counter()
            dec.decode_all(info.entropy_data)
            best[engine] = min(best[engine], perf_counter() - t0)
    return best


def render() -> str:
    rows = []
    total_ref = total_fast = 0.0
    planes_checked = 0
    for label, subsampling, interval, detail in CONFIGS:
        info = parse_jpeg(corpus_image(subsampling, interval, detail))
        best = time_engines(info)
        t_ref, t_fast = best["reference"], best["fast"]
        total_ref += t_ref
        total_fast += t_fast
        planes_checked += 1
        rows.append([label, f"{len(info.entropy_data)}",
                     f"{t_ref * 1e3:.1f}", f"{t_fast * 1e3:.1f}",
                     f"{t_ref / t_fast:.2f}x"])
    overall = total_ref / total_fast
    rows.append(["overall", "-", f"{total_ref * 1e3:.1f}",
                 f"{total_fast * 1e3:.1f}", f"{overall:.2f}x"])
    assert planes_checked == len(CONFIGS)
    assert overall >= MIN_SPEEDUP, (
        f"fast engine must beat the reference by >= {MIN_SPEEDUP}x, "
        f"got {overall:.2f}x")
    build_ms = cold_build_ms()
    assert build_ms <= MAX_COLD_BUILD_MS, (
        f"a cold AC table build must stay under {MAX_COLD_BUILD_MS} ms, "
        f"got {build_ms:.2f} ms")
    table = format_table(
        ["Config", "Scan bytes", "Reference (ms)", "Fast (ms)", "Speedup"],
        rows,
        title=(f"Ablation A8: fused fast-path entropy engine, "
               f"{SIDE}x{SIDE} synthetic photo, q85 (real wall-clock)"))
    return (f"{table}\ncold build of one (spec, \"ac\") table: "
            f"{build_ms:.2f} ms")


def test_abl_entropy_engine():
    write_result("abl_entropy_engine", render())
