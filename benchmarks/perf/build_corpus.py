"""Regenerate the committed default-seed corpus and its manifest.

    python3 benchmarks/perf/build_corpus.py

Run this only in a change of its own: new bytes mean every earlier
ledger number was taken on different inputs, so the baseline has to be
measured again.  Every member is verified (reference engine, PSNR
floor) before anything is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import corpus  # noqa: E402


def main() -> int:
    images = {}
    blobs = {}
    for workload in corpus.RECIPES:
        members = corpus.generate(workload, corpus.DEFAULT_SEED)
        failures = corpus.verify(members)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        for m in members:
            images[m.recipe.name] = corpus.manifest_entry(m)
            blobs[m.recipe.name] = m.data
    corpus.CORPUS_DIR.mkdir(exist_ok=True)
    for stale in corpus.CORPUS_DIR.glob("*.jpg"):
        stale.unlink()
    for name, data in blobs.items():
        (corpus.CORPUS_DIR / f"{name}.jpg").write_bytes(data)
    corpus.MANIFEST_PATH.write_text(json.dumps(
        {"seed": corpus.DEFAULT_SEED, "images": images}, indent=1) + "\n")
    total = sum(len(d) for d in blobs.values())
    print(f"{len(blobs)} images, {total} bytes -> {corpus.CORPUS_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
