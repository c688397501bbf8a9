"""Shared benchmark infrastructure.

Each wall-clock benchmark here (A8 entropy engine, S3 session latency,
S5 chaos, S8 sharded serving) writes its table to
``benchmarks/results/<name>.txt``.  The paper's modelled figures and
tables are tier-1 tests, mapped claim by claim in
``docs/benchmarks.md`` ("Paper claim → tier-1 test").
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist one artifact's text output and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
