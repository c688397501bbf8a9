"""Pipeline chunk-size selection (paper Section 4.5).

"The most efficient chunk size is determined through static profiling on
large images.  Chunk sizes are varied from the full height down to an
eight pixel stripe. ... The best sizes from each image are selected.
The final partition size is chosen as the largest size on the best list
to prevent from choosing a size that is too small wrt. GPU utilization."

Chunks are counted in MCU rows (8 or 16 pixel stripes depending on
subsampling); candidates halve from the full height down to one row.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProfilingError
from .executors import ExecutionConfig, PreparedImage, execute
from .modes import DecodeMode
from .platform import Platform


def candidate_chunk_rows(total_mcu_rows: int) -> list[int]:
    """Halving ladder from the full height down to a single MCU row."""
    if total_mcu_rows <= 0:
        raise ProfilingError("image has no MCU rows")
    sizes = []
    c = total_mcu_rows
    while c >= 1:
        sizes.append(c)
        if c == 1:
            break
        c //= 2
    return sizes


@dataclass(frozen=True)
class ChunkProfileEntry:
    """Result of one (image, chunk size) pipeline simulation."""

    width: int
    height: int
    chunk_mcu_rows: int
    total_us: float


def profile_chunk_sizes(
    platform: Platform,
    images: list[PreparedImage],
    gpu_options=None,
) -> tuple[int, list[ChunkProfileEntry]]:
    """Sweep candidate chunk sizes over *images*; return the selected
    chunk size (largest of the per-image winners) and the full record."""
    if not images:
        raise ProfilingError("chunk profiling needs at least one image")
    entries: list[ChunkProfileEntry] = []
    best_per_image: list[int] = []
    for img in images:
        rows = img.geometry.mcu_rows
        best_rows, best_time = None, float("inf")
        for c in candidate_chunk_rows(rows):
            cfg_kwargs = {"platform": platform, "chunk_mcu_rows": c}
            if gpu_options is not None:
                cfg_kwargs["gpu_options"] = gpu_options
            cfg = ExecutionConfig(**cfg_kwargs)
            result = execute(cfg, img, DecodeMode.PIPELINE)
            entries.append(ChunkProfileEntry(
                width=img.geometry.width, height=img.geometry.height,
                chunk_mcu_rows=c, total_us=result.total_us))
            if result.total_us < best_time:
                best_rows, best_time = c, result.total_us
        best_per_image.append(best_rows)
    # largest winner guards against starving the GPU on big images
    return max(best_per_image), entries
