#!/usr/bin/env python3
"""Async gallery: an asyncio producer streaming a mixed-subsampling
corpus through a plain :class:`repro.service.DecodeSession`.

A handle is a :class:`concurrent.futures.Future`, so asyncio needs no
adapter: the producer coroutine submits JPEGs one by one (as a web
frontend would, requests trickling in) with ``asyncio.to_thread`` — a
full queue then waits in a thread, never on the loop — and wraps each
handle with ``asyncio.wrap_future``.  The consumer reads completions
concurrently, in *completion* order, from a queue the wrapped futures'
done callbacks feed; submission and completion overlap, which a
pull-driven batch loop could never do.  Underneath, the session's pump
thread keeps a rolling window of decodes in flight on the worker pool.

Run:  python examples/async_gallery.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.data import synthetic_photo
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import DecodeSession

#: (name, (height, width), subsampling, restart_interval)
GALLERY = [
    ("portrait-420", (120, 90), "4:2:0", 0),
    ("landscape-422", (90, 160), "4:2:2", 4),
    ("screenshot-444", (96, 96), "4:4:4", 0),
    ("banner-422", (64, 192), "4:2:2", 0),
    ("thumb-420", (48, 64), "4:2:0", 2),
    ("square-444", (80, 80), "4:4:4", 4),
]


def build_gallery() -> list[tuple[str, bytes]]:
    """Encode the mixed 4:2:0/4:2:2/4:4:4 corpus."""
    images = []
    for i, (name, (h, w), sub, dri) in enumerate(GALLERY):
        rgb = synthetic_photo(h, w, seed=i, detail=0.6)
        data = encode_jpeg(rgb, EncoderSettings(
            quality=85, subsampling=sub, restart_interval=dri))
        images.append((name, data))
        print(f"  {name:<16} {w}x{h} {sub:<6} dri={dri} "
              f"-> {len(data):>5} bytes")
    return images


async def main() -> None:
    print("building gallery:")
    gallery = build_gallery()
    oracle = {name: decode_jpeg(data).rgb for name, data in gallery}

    session = DecodeSession(backend="thread")
    completions: asyncio.Queue = asyncio.Queue()

    async def produce() -> None:
        # Trickle submissions in like live traffic; the pump admits
        # each as soon as a worker has room and resolves it when its
        # own image is done.
        for name, data in gallery:
            handle = await asyncio.to_thread(session.submit, data, None)
            asyncio.wrap_future(handle).add_done_callback(
                completions.put_nowait)
            print(f"  submitted {name}")
            await asyncio.sleep(0.003)

    async def consume() -> None:
        print("\ncompletions (in completion order):")
        for _ in gallery:
            result = (await completions.get()).result()
            name = GALLERY[result.request_id][0]
            assert result.ok, f"{name}: {result.error}"
            assert np.array_equal(result.rgb, oracle[name]), name
            print(f"  {name:<16} {result.width}x{result.height} "
                  f"in {result.latency_s * 1e3:6.1f} ms "
                  f"({result.segments} segment(s))")

    try:
        await asyncio.gather(produce(), consume())
    finally:
        await asyncio.to_thread(session.close, True)

    snap = session.stats_snapshot()
    print(f"\n{snap['batches']} batches for {snap['images_ok']} images "
          f"(pump batched {snap['images_ok'] / snap['batches']:.1f} "
          f"images/dispatch), "
          f"p50/p99 latency {snap['latency_ms']['p50']:.1f}/"
          f"{snap['latency_ms']['p99']:.1f} ms")
    print("all outputs bit-identical to decode_jpeg")


if __name__ == "__main__":
    asyncio.run(main())
