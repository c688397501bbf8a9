"""S6 — extension ablation: speculative marker-free parallel Huffman.

A7 showed restart markers recover the Amdahl ceiling — but most wild
JPEGs carry no markers, so PR-7's speculative self-synchronizing decode
(repro.jpeg.speculative) is the path that matters.  This bench sweeps
chunk count on a marker-free 4:2:2 image and reports the modeled
multi-core speedup (LPT makespan over per-chunk costs, misspeculated
chunks re-charged serially as repairs) plus the misspeculation rate —
and, beside the model, what the fan-out *measures* on this host: the
wall clock of the image fanned out over a process pool (forced, one
worker per chunk, so above the host's core count the workers
oversubscribe it) over the wall clock of
decoding it whole in-process.  The model prices the entropy decode
alone on cores that do not contend; the measurement includes the
parse, dispatch, stitch and the pixel stages, so it reads worse, and
on a host whose cores share an execution unit it cannot go below 1.

Every configuration is verified bit-identical to the sequential decode
before its row is emitted: the speedup is only worth reporting if the
answer is exact.

Env: SPECULATIVE_MIN_RATIO overrides the asserted 4-core speedup floor
(CI smoke uses a conservative value; the local default is 1.5x per the
PR acceptance bar).
"""

import os
from functools import lru_cache
from time import perf_counter

import numpy as np

from repro.data import synthetic_photo
from repro.evaluation import format_table
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg, parse_jpeg
from repro.jpeg.decoder import component_tables_from_info
from repro.jpeg.fast_entropy import FastEntropyDecoder
from repro.jpeg.parallel_huffman import SpeculativeEntropyDecoder
from repro.service import BatchDecoder

from common import write_result

MIN_RATIO = float(os.environ.get("SPECULATIVE_MIN_RATIO", "1.5"))


@lru_cache(maxsize=1)
def marker_free_image() -> bytes:
    rgb = synthetic_photo(256, 256, seed=41, detail=0.6)
    return encode_jpeg(rgb, EncoderSettings(
        quality=85, subsampling="4:2:2", restart_interval=0))


def sequential_planes(info):
    dec = FastEntropyDecoder(info.geometry,
                             component_tables_from_info(info), 0)
    dec.start(info.entropy_data)
    dec.decode_mcu_rows(info.geometry.mcu_rows)
    return dec.coefficients.planes


CHUNK_COUNTS = (1, 2, 4, 8, 16)

#: Alternated whole / fanned-out decodes per chunk count; the best of
#: each side is compared.
MEASURE_REPEATS = 7


@lru_cache(maxsize=1)
def measured_ratios() -> dict[int, float]:
    """Fanned-out over whole-image wall clock per chunk count (taken
    once, outside the benchmarked ``render``)."""
    data = marker_free_image()
    want = decode_jpeg(data).rgb
    ratios = {}
    for chunks in CHUNK_COUNTS[1:]:
        whole_s = fanned_s = float("inf")
        # A speculative image splits into one chunk per worker.
        with BatchDecoder(workers=chunks, backend="process",
                          speculative="on") as decoder:
            decoder.decode_batch([data])          # starts the pool
            for _ in range(MEASURE_REPEATS):
                t0 = perf_counter()
                decode_jpeg(data)
                t1 = perf_counter()
                result, = decoder.decode_batch([data]).results
                fanned_s = min(fanned_s, perf_counter() - t1)
                whole_s = min(whole_s, t1 - t0)
        assert result.ok and result.segments == chunks
        assert np.array_equal(result.rgb, want)
        ratios[chunks] = fanned_s / whole_s
    return ratios


def render() -> str:
    data = marker_free_image()
    info = parse_jpeg(data)
    assert info.restart_interval == 0
    oracle = sequential_planes(info)
    measured = measured_ratios()
    rows = []
    speedup_at = {}
    for chunks in CHUNK_COUNTS:
        dec = SpeculativeEntropyDecoder(
            info.geometry, component_tables_from_info(info),
            chunk_count=chunks)
        r = dec.decode(info.entropy_data, cores=min(chunks, 8))
        for got, want in zip(r.coefficients.planes, oracle):
            assert np.array_equal(got, want), \
                f"speculative decode diverged at chunks={chunks}"
        rep = r.report
        miss = len(rep.misspeculated)
        speedup_at[chunks] = r.speedup
        rows.append([
            str(chunks), str(r.cores),
            f"{r.sequential_us / 1e3:.3f}", f"{r.parallel_us / 1e3:.3f}",
            f"{r.speedup:.2f}x",
            f"{miss}/{max(1, rep.chunks - 1)}",
            "yes" if rep.fallback else "no",
            f"{measured[chunks]:.2f}x" if chunks in measured else "-",
        ])
    assert abs(speedup_at[1] - 1.0) < 1e-9
    assert speedup_at[4] >= MIN_RATIO, (
        f"4-chunk modeled speedup {speedup_at[4]:.2f}x below the "
        f"{MIN_RATIO:.2f}x floor")
    assert speedup_at[8] <= 8.0
    return format_table(
        ["Chunks", "Cores", "Sequential (ms)", "Parallel (ms)",
         "Speedup (model)", "Misspec", "Fallback",
         "Fanned/whole (measured)"],
        rows,
        title=("Ablation S6 (extension): speculative self-synchronizing "
               f"Huffman decode, 256x256 4:2:2, DRI=0, {os.cpu_count()} "
               "host core(s)"))


def test_abl_speculative(benchmark):
    out = benchmark(render)
    write_result("abl_speculative", out)
