"""Arithmetic of the perf ledger: round records -> reported metrics.

Nothing here imports ``repro`` or touches a clock, so the harness tests
can feed it synthetic rounds.  The central rule is host-drift
compensation: each timed round is bracketed by two runs of the
calibration kernel (:mod:`calib`), and

    f = mean(calib_before, calib_after) / NOMINAL_MS

is how much slower than nominal the host ran during that round.
Throughput is multiplied by ``f``; latencies and CPU time are divided
by it.  Reported values are medians over rounds (latency: over all
requests), raw values ride along as ``host.*`` layer metrics.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Percentile ladder for the reported latency tail.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs this many samples beyond it to be reported.
TAIL_MIN_BEYOND = 10


def load_spec() -> dict:
    """``BENCHMARK.json`` from the checkout root."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@dataclass
class Round:
    """What one timed pass over a workload's request list produced."""

    megapixels: float            # output pixels of the successful requests
    wall_s: float
    cpu_s: float                 # process-tree CPU spent inside the round
    pool_cpu_s: float            # the part of it spent by pool workers
    latencies_s: list[float]     # one per successful request
    calib_before_ms: float
    calib_after_ms: float
    failed: int = 0
    #: Per-request layer observations the workload could read for free
    #: (server-side latency, worker busy time); used by the traced pass.
    extras: list[dict] = field(default_factory=list)

    def host_factor(self, nominal_ms: float) -> float:
        return (self.calib_before_ms + self.calib_after_ms) / 2 / nominal_ms


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = (len(sorted_values) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with >= TAIL_MIN_BEYOND samples beyond
    it; the median when the sample is too small for any tail."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        # rounded: 10_000 * (100 - 99.9) / 100 is 9.99999... in binary
        if round(count * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def iqr_share(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(rounds: list[Round], nominal_ms: float) -> dict[str, float]:
    """The gated metrics that come from timed rounds, at nominal host
    speed (``setup_s`` and ``peak_rss_mb`` are measured elsewhere).  A
    round in which every request failed decoded nothing and is left
    out; its failures are counted by the runner."""
    rounds = [r for r in rounds if r.latencies_s]
    if not rounds:
        raise ValueError("no timed round with a successful request")
    factors = [r.host_factor(nominal_ms) for r in rounds]
    latencies = [lat / f * 1e3 for r, f in zip(rounds, factors)
                 for lat in r.latencies_s]
    return {
        "throughput_mp_s": statistics.median(
            r.megapixels / r.wall_s * f for r, f in zip(rounds, factors)),
        "latency_p50_ms": statistics.median(latencies),
        "cpu_ms_per_mp": statistics.median(
            r.cpu_s * 1e3 / r.megapixels / f
            for r, f in zip(rounds, factors)),
    }


def host_metrics(rounds: list[Round]) -> dict[str, float]:
    """Raw, un-normalized view of the same rounds: what the host did."""
    rounds = [r for r in rounds if r.latencies_s]
    if not rounds:
        raise ValueError("no timed round with a successful request")
    calib = [c for r in rounds for c in (r.calib_before_ms, r.calib_after_ms)]
    raw_lat = sorted(lat * 1e3 for r in rounds for lat in r.latencies_s)
    tail_pct = tail_percentile(len(raw_lat))
    return {
        "host.calib_ms_p50": statistics.median(calib),
        "host.calib_spread": iqr_share(calib),
        "host.raw_throughput_mp_s": statistics.median(
            r.megapixels / r.wall_s for r in rounds),
        "host.raw_latency_p50_ms": statistics.median(raw_lat),
        "host.latency_tail_ms": percentile(raw_lat, tail_pct),
        "host.latency_tail_pct": tail_pct,
        "host.samples": float(len(raw_lat)),
        "host.cpu_util": (sum(r.cpu_s for r in rounds)
                          / sum(r.wall_s for r in rounds)),
        "host.rounds": float(len(rounds)),
    }


# -- process-tree accounting (Linux /proc) ---------------------------------

class ProcTable:
    """One scan of ``/proc``: every live process's parent and CPU time."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._cpu_ticks: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                text = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue            # exited during the scan
            # fields after the parenthesised command name, which may
            # itself contain spaces
            fields = text[text.rindex(")") + 2:].split()
            self._parent[int(entry)] = int(fields[1])
            self._cpu_ticks[int(entry)] = int(fields[11]) + int(fields[12])

    def descendants(self, root: int) -> list[int]:
        """Processes whose ancestry leads to *root* (root excluded)."""
        found = []
        for pid in self._parent:
            walk = pid
            while walk in self._parent and walk != root:
                walk = self._parent[walk]
            if walk == root and pid != root:
                found.append(pid)
        return found

    def cpu_s_below(self, root: int | None) -> float:
        """CPU seconds (user + system) consumed so far by every live
        descendant of *root*, at the kernel's tick resolution; 0 for
        no root."""
        if root is None:
            return 0.0
        return sum(self._cpu_ticks[pid] for pid in self.descendants(root)) \
            / os.sysconf("SC_CLK_TCK")


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Sum over this process and its live descendants of each one's
    peak resident set (``VmHWM``)."""
    pids = [os.getpid(), *ProcTable().descendants(os.getpid())]
    return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0


def reset_peak_rss() -> bool:
    """Restart this process's ``VmHWM`` from its current RSS, so the
    peak covers the system under test and not corpus generation.
    Returns False where the kernel does not allow it."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
        return True
    except OSError:
        return False
