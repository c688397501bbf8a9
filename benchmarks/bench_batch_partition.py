"""S2 — cross-image batch partitioning: model-guided (LPT) vs
round-robin makespan on a heterogeneous mixed batch.

The paper's models price a whole image on either device (Eq 5/6); the
cross-image scheduler (:mod:`repro.service.scheduler`) uses those
prices to place whole images across the platform's SIMD and GPU lanes.
This benchmark builds a deliberately mixed batch — small and large
images across 4:2:0 / 4:2:2 / 4:4:4, some carrying restart markers —
prices it once, and compares the predicted makespan of the two
policies.  Both makespans come from the same fitted model, so the
comparison is deterministic and machine-independent.

Acceptance: round-robin's makespan must exceed the model-guided one by
at least ``BATCH_PARTITION_MIN_RATIO`` (default 1.10, env-overridable).
Before any schedule is trusted, the whole batch is decoded through a
scheduler-attached :class:`~repro.service.BatchDecoder` and every
output asserted bit-identical to the sequential
:func:`repro.jpeg.decode_jpeg` result — placement must never change
pixels.
"""

import os

import numpy as np

from repro.data import synthetic_photo
from repro.evaluation import format_table, platforms
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg, parse_jpeg
from repro.service import BatchDecoder, ModelScheduler
from repro.service.scheduler import schedule_lpt, schedule_roundrobin

from common import write_result

#: (seed, width, height, subsampling, restart_interval) — a mixed batch:
#: two large images that want the GPU, a mid tier, and a tail of small
#: images (including 4:2:0, which only the CPU lane may take).
CORPUS = (
    (21, 1024, 768, "4:2:2", 16),
    (22, 768, 576, "4:4:4", 0),
    (23, 512, 384, "4:2:2", 0),
    (24, 448, 336, "4:4:4", 8),
    (25, 320, 240, "4:2:0", 0),
    (26, 256, 192, "4:2:2", 0),
    (27, 192, 144, "4:2:0", 0),
    (28, 160, 120, "4:2:2", 0),
    (29, 160, 120, "4:4:4", 0),
    (30, 128, 128, "4:2:2", 8),
)

#: Acceptance floor: round-robin makespan / model-guided makespan.
MIN_RATIO = float(os.environ.get("BATCH_PARTITION_MIN_RATIO", "1.10"))


def build_corpus() -> list[bytes]:
    """Encode the mixed synthetic batch."""
    blobs = []
    for seed, w, h, sub, dri in CORPUS:
        rgb = synthetic_photo(h, w, seed=seed, detail=0.6)
        blobs.append(encode_jpeg(rgb, EncoderSettings(
            quality=85, subsampling=sub, restart_interval=dri)))
    return blobs


def assert_bit_identity(blobs: list[bytes]) -> int:
    """Decode under the model scheduler; outputs must equal the
    sequential decoder's exactly.  Returns the fanned-out image count.

    Three groups run: the full mixed corpus (placed whole: it fills the
    pool), then the 1024x768 DRI frame and the 768x576 marker-free
    frame each alone — a lone frame at an idle pool fans out before
    placement (restart-segment runs, speculative chunks), scheduler or
    not.
    """
    scheduler = ModelScheduler(policy="model", platform=platforms.GTX560)
    fanned = 0
    with BatchDecoder(backend="thread", workers=2,
                      scheduler=scheduler) as dec:
        for batch_blobs in (blobs, blobs[:1], blobs[1:2]):
            batch = dec.decode_batch(batch_blobs)
            for i, res in enumerate(batch):
                assert res.ok, f"image {i}: {res.error_type}: {res.error}"
                assert np.array_equal(res.rgb,
                                      decode_jpeg(batch_blobs[i]).rgb), (
                    f"image {i}: scheduled decode differs from sequential")
            fanned += sum(r.segments > 1 for r in batch)
    assert fanned == 2, ("a lone DRI frame and a lone marker-free frame "
                         "fan out under the scheduler")
    return fanned


def render() -> str:
    """Price the batch, compare the two policies, format the table."""
    blobs = build_corpus()
    scheduler = ModelScheduler(policy="model", platform=platforms.GTX560)
    pricings = scheduler.price(blobs)

    # Makespan study on identical pricings, whole-image placements only.
    model = schedule_lpt(pricings, scheduler.executors)
    rr = schedule_roundrobin(pricings, scheduler.executors)
    lane_of = {a.index: a for a in model.assignments}
    rr_of = {a.index: a for a in rr.assignments}

    rows = []
    for p in pricings:
        m, r = lane_of[p.index], rr_of[p.index]
        rows.append([
            f"{p.width}x{p.height}", p.subsampling,
            "yes" if parse_jpeg(blobs[p.index]).restart_interval else "no",
            m.executor.kind if m.executor else "-",
            f"{m.predicted_us / 1e3:.2f}",
            r.executor.kind if r.executor else "-",
        ])

    ratio = rr.makespan_us / model.makespan_us
    assert ratio >= MIN_RATIO, (
        f"model-guided scheduling must beat round-robin makespan by "
        f">= {MIN_RATIO}x; got {ratio:.3f} "
        f"({model.makespan_us / 1e3:.2f}ms vs {rr.makespan_us / 1e3:.2f}ms)")

    fanned = assert_bit_identity(blobs)

    note = (
        f"makespan: model {model.makespan_us / 1e3:.2f}ms vs round-robin "
        f"{rr.makespan_us / 1e3:.2f}ms = {ratio:.2f}x (floor {MIN_RATIO}x); "
        f"bit-identity OK, {fanned} lone frame(s) fanned out")
    return format_table(
        ["Image", "Subsampling", "DRI", "LPT lane", "pred ms", "RR lane"],
        rows,
        title=(f"S2: cross-image batch partitioning on {platforms.GTX560.name} "
               f"(SIMD + GPU lanes)\n{note}"))


def test_batch_partition():
    """Pytest entry point: run the comparison and persist the table."""
    write_result("batch_partition", render())


if __name__ == "__main__":
    write_result("batch_partition", render())
