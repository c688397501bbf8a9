"""A3 — ablation: pipeline chunk-size sweep (paper Section 4.5).

"The decoding speed tends to be faster as the number of chunks
increases.  However, as chunks become too small, GPU utilization
becomes low."  The sweep reproduces that U-shape and the selection
rule (largest per-image winner)."""

from repro.core import DecodeMode, ExecutionConfig, PreparedImage
from repro.core.chunking import candidate_chunk_rows, profile_chunk_sizes
from repro.core.executors import execute
from repro.evaluation import format_table, platforms

from common import decoder_for, write_result


def render() -> str:
    prep = PreparedImage.virtual(1536, 1536, "4:2:2", 0.2)
    rows_total = prep.geometry.mcu_rows
    records = []
    times = {}
    for c in candidate_chunk_rows(rows_total):
        cfg = ExecutionConfig(platform=platforms.GTX560, chunk_mcu_rows=c)
        t = execute(cfg, prep, DecodeMode.PIPELINE).total_us
        times[c] = t
        records.append([str(c), str(c * prep.geometry.mcu_height),
                        f"{t / 1e3:.3f}"])
    best = min(times, key=times.get)
    full = max(times)
    # the full-height "chunk" (plain GPU mode) must not be the winner
    assert best < rows_total
    # selection across two image sizes picks the largest winner
    selected, _ = profile_chunk_sizes(
        platforms.GTX560,
        [PreparedImage.virtual(1024, 1024, "4:2:2", 0.2),
         PreparedImage.virtual(1536, 1536, "4:2:2", 0.2)])
    table = format_table(
        ["Chunk (MCU rows)", "Chunk (px rows)", "Pipeline total (ms)"],
        records,
        title=(f"Ablation A3: chunk-size sweep, 1536x1536 4:2:2, GTX 560 "
               f"(best={best} rows; cross-image selection={selected} rows)"))
    return table


def test_abl_chunk_size(benchmark):
    out = benchmark(render)
    write_result("abl_chunk_size", out)
