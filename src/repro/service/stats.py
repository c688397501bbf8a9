"""Batch and service statistics: latency percentiles, throughput,
worker utilization.

Every decoded image carries a ``(worker, started, finished)`` span
measured with the shared monotonic clock (``time.perf_counter`` is
system-wide on Linux, so spans from process-pool workers are directly
comparable to the parent's wall-clock window).  :class:`BatchStats`
reduces one batch's spans into the numbers an operator watches —
images/sec, p50/p90/p99 latency, and busy-time utilization per worker —
and :class:`ServiceStats` accumulates those across the admission
groups a long-running :class:`~repro.service.session.DecodeSession`
processes.  Groups overlap under the rolling pump, so the service's
busy time is not the sum of their walls but the union of the intervals
during which anything was in flight (:meth:`ServiceStats.mark_busy` /
:meth:`ServiceStats.mark_idle`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

#: Sliding window of per-image latency samples retained for service
#: percentiles.  Counters (images, wall time, throughput) are exact
#: forever; latency percentiles cover the most recent window so a
#: long-running ``repro serve`` neither grows without bound nor pays
#: an O(N log N) sort per ``GET /stats`` after millions of requests.
LATENCY_WINDOW = 4096


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (q in [0, 100]) of *values*.

    Stdlib-only on purpose (the service layer must not pull numpy into
    its hot submission path); matches ``numpy.percentile``'s default
    "linear" method.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


@dataclass(frozen=True)
class WorkSpan:
    """One unit of worker-side busy time attributed to a named worker."""

    worker: str
    started: float      # perf_counter at task start (worker side)
    finished: float     # perf_counter at task end (worker side)

    @property
    def duration_s(self) -> float:
        """Busy seconds this span contributed."""
        return max(0.0, self.finished - self.started)


@dataclass
class BatchStats:
    """Reduced metrics for one decoded batch."""

    batch_size: int
    ok: int
    failed: int
    wall_s: float
    workers: int
    images_per_sec: float
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    #: Sum of worker busy seconds / (wall_s * workers) in [0, 1].
    worker_utilization: float
    #: Busy seconds keyed by worker name (thread name or "pid-<n>").
    per_worker_busy_s: dict[str, float] = field(default_factory=dict)
    #: Result bytes that crossed shared memory (descriptor transport).
    bytes_shm: int = 0
    #: Result bytes that crossed a process boundary pickled.
    bytes_pickle: int = 0

    @classmethod
    def from_spans(cls, *, batch_size: int, ok: int, failed: int,
                   wall_s: float, workers: int,
                   latencies_s: list[float],
                   spans: list[WorkSpan],
                   bytes_shm: int = 0,
                   bytes_pickle: int = 0) -> "BatchStats":
        """Reduce per-image latencies and worker spans into one record."""
        lat_ms = [s * 1e3 for s in latencies_s] or [0.0]
        busy: dict[str, float] = {}
        for span in spans:
            busy[span.worker] = busy.get(span.worker, 0.0) + span.duration_s
        denom = wall_s * max(1, workers)
        util = min(1.0, sum(busy.values()) / denom) if denom > 0 else 0.0
        return cls(
            batch_size=batch_size, ok=ok, failed=failed,
            wall_s=wall_s, workers=workers,
            images_per_sec=(ok + failed) / wall_s if wall_s > 0 else 0.0,
            latency_p50_ms=percentile(lat_ms, 50),
            latency_p90_ms=percentile(lat_ms, 90),
            latency_p99_ms=percentile(lat_ms, 99),
            latency_mean_ms=sum(lat_ms) / len(lat_ms),
            worker_utilization=util,
            per_worker_busy_s=busy,
            bytes_shm=bytes_shm,
            bytes_pickle=bytes_pickle,
        )

    def format(self) -> str:
        """One-paragraph human-readable summary (CLI/benchmark output)."""
        return (
            f"batch={self.batch_size} ok={self.ok} failed={self.failed} "
            f"wall={self.wall_s * 1e3:.1f}ms "
            f"throughput={self.images_per_sec:.2f} img/s "
            f"latency p50/p90/p99="
            f"{self.latency_p50_ms:.1f}/{self.latency_p90_ms:.1f}/"
            f"{self.latency_p99_ms:.1f}ms "
            f"util={self.worker_utilization * 100.0:.0f}% "
            f"({self.workers} workers)"
        )


@dataclass
class ExecutorUsage:
    """Running per-lane totals for scheduled batches."""

    images: int = 0
    predicted_us: float = 0.0
    observed_us: float = 0.0
    #: Real worker busy seconds spent on this lane's images (only
    #: meaningful once the lane runs on its own bound pool).
    busy_s: float = 0.0
    #: The lane's bound pool, when lane-bound execution is active.
    pool_backend: str = ""
    pool_workers: int = 0

    @property
    def bias(self) -> float:
        """Observed/predicted time ratio (1.0 = the model was exact).

        With lane-bound pools the observation is real wall-clock while
        the prediction stays in the model's simulated microseconds, so
        the bias is the lane's wall-per-simulated-us factor rather than
        a dimensionless error — still exactly what the feedback scale
        converges to.
        """
        if self.predicted_us <= 0:
            return 1.0
        return self.observed_us / self.predicted_us

    def utilization(self, total_wall_s: float) -> float:
        """Busy fraction of this lane's pool over *total_wall_s*."""
        if total_wall_s <= 0 or self.pool_workers <= 0:
            return 0.0
        return min(1.0, self.busy_s / (total_wall_s * self.pool_workers))


@dataclass
class ServiceStats:
    """Running totals across every group a service instance processed."""

    batches: int = 0
    images_ok: int = 0
    images_failed: int = 0
    #: Closed busy intervals, summed, and the start of the open one
    #: (None while idle).  See :attr:`total_wall_s`.
    _busy_s: float = 0.0
    _busy_from: float | None = None
    #: Images that fanned out (``ImageResult.segments > 1``: runs of
    #: restart segments or speculative chunks), scheduled or not.
    images_split: int = 0
    #: Scheduled batches only: per-lane placement and prediction totals.
    per_executor: dict[str, ExecutorUsage] = field(default_factory=dict)
    #: Result bytes moved through each transport across all batches.
    bytes_shm: int = 0
    bytes_pickle: int = 0
    #: Fault-tolerance counters: task re-dispatches after worker
    #: crashes, images failed on infrastructure (crash past the retry
    #: budget), requests shed at their deadline, and worker-pool
    #: rebuilds observed so far.
    retries: int = 0
    infra_failures: int = 0
    deadline_expired: int = 0
    pool_rebuilds: int = 0
    #: Requests refused at admission by weighted load shedding, counted
    #: per priority class (fills under overload; empty otherwise).
    shed_by_priority: dict = field(default_factory=dict)
    _latencies_s: deque = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    def record_image(self, ok: bool, latency_s: float) -> None:
        """Count one finished image and its submit-to-completion
        latency (folded per image, before its handle resolves)."""
        if ok:
            self.images_ok += 1
        else:
            self.images_failed += 1
        self._latencies_s.append(latency_s)

    def record(self, stats: BatchStats) -> None:
        """Fold one finished group's transport totals into the running
        totals (its images were counted one by one)."""
        self.batches += 1
        self.bytes_shm += stats.bytes_shm
        self.bytes_pickle += stats.bytes_pickle

    def mark_busy(self, now: float) -> None:
        """Something was admitted at *now*: a busy interval opens,
        unless one is open already."""
        if self._busy_from is None:
            self._busy_from = now

    def mark_idle(self, now: float) -> None:
        """Nothing is in flight any more: the open interval closes."""
        if self._busy_from is not None:
            self._busy_s += max(0.0, now - self._busy_from)
            self._busy_from = None

    @property
    def total_wall_s(self) -> float:
        """Seconds during which at least one image was in flight — the
        union of the groups' intervals, the open one counted up to now
        (overlapping groups would double-count in a sum of walls)."""
        if self._busy_from is None:
            return self._busy_s
        return self._busy_s + max(0.0, perf_counter() - self._busy_from)

    def record_faults(self, *, retries: int = 0, infra_failures: int = 0,
                      deadline_expired: int = 0,
                      pool_rebuilds: int | None = None) -> None:
        """Fold one batch's fault-tolerance activity into the totals.

        *pool_rebuilds* is the decoder's *cumulative* rebuild counter
        (it replaces rather than adds — pools heal outside the
        per-batch accounting); the other arguments are per-batch
        increments.
        """
        self.retries += retries
        self.infra_failures += infra_failures
        self.deadline_expired += deadline_expired
        if pool_rebuilds is not None:
            self.pool_rebuilds = pool_rebuilds

    def record_shed(self, priority: int) -> None:
        """Count one request refused at admission by weighted shedding."""
        self.shed_by_priority[priority] = \
            self.shed_by_priority.get(priority, 0) + 1

    def record_schedule(self, schedule, results,
                        lane_pools: dict | None = None) -> None:
        """Fold one scheduled batch's placements into per-lane totals.

        *schedule* is the batch's
        :class:`~repro.service.scheduler.BatchSchedule`; *results* the
        matching :class:`~repro.service.batch.ImageResult` list (same
        index space).  Per-lane observed/predicted totals use the same
        :func:`~repro.service.scheduler.lane_outcomes` extraction the
        feedback loop uses, so the reported bias always matches what
        the scheduler learned from.  *lane_pools* (the batch's
        lane→pool binding map, when it ran on lane-bound executor
        pools) attributes each lane's real busy seconds to its pool so
        :meth:`as_dict` can report per-lane pool utilization.
        """
        from .scheduler import lane_outcomes

        by_index = {a.index: a for a in schedule.assignments}
        for a, observed in lane_outcomes(schedule, results):
            usage = self.per_executor.setdefault(
                a.executor.name, ExecutorUsage())
            usage.images += 1
            usage.predicted_us += a.predicted_us
            usage.observed_us += observed
        if lane_pools:
            for i, result in enumerate(results):
                a = by_index.get(i)
                if a is None or a.executor is None:
                    continue
                pool = lane_pools.get(a.executor.name)
                if pool is None:
                    continue
                usage = self.per_executor.setdefault(
                    a.executor.name, ExecutorUsage())
                usage.busy_s += sum(s.duration_s for s in result.spans)
                usage.pool_backend = pool.get("backend", "")
                usage.pool_workers = pool.get("workers", 0)

    @property
    def images_per_sec(self) -> float:
        """Aggregate throughput: images over busy seconds."""
        total = self.images_ok + self.images_failed
        return total / self.total_wall_s if self.total_wall_s > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-serializable snapshot of the running totals.

        The shape the HTTP shim's ``GET /stats`` endpoint returns (via
        :meth:`~repro.service.session.DecodeSession.stats_snapshot`,
        which adds queue occupancy and scheduler feedback on top).
        Latency percentiles are 0.0 before the first image completes.

        The two time horizons are labeled explicitly so ``/stats`` and
        ``/metrics`` consumers can't silently mix them: latency
        percentiles cover only the most recent :data:`LATENCY_WINDOW`
        images (``latency_ms.horizon == "window"``), while the image
        counters and ``images_per_sec`` are exact lifetime totals
        (``throughput.horizon == "lifetime"``).
        """
        lat = [s * 1e3 for s in self._latencies_s] or [0.0]
        images = self.images_ok + self.images_failed
        total_wall_s = self.total_wall_s    # one reading of the clock
        rate = images / total_wall_s if total_wall_s > 0 else 0.0
        return {
            "batches": self.batches,
            "images_ok": self.images_ok,
            "images_failed": self.images_failed,
            "images_split": self.images_split,
            "total_wall_s": total_wall_s,
            "images_per_sec": rate,
            "throughput": {
                "horizon": "lifetime",
                "images_per_sec": rate,
                "images": images,
                "total_wall_s": total_wall_s,
            },
            "latency_ms": {
                "horizon": "window",
                "window_size": len(self._latencies_s),
                "window_capacity": LATENCY_WINDOW,
                "p50": percentile(lat, 50),
                "p90": percentile(lat, 90),
                "p99": percentile(lat, 99),
                "mean": sum(lat) / len(lat),
            },
            "transport": {
                "shm_bytes": self.bytes_shm,
                "pickle_bytes": self.bytes_pickle,
            },
            "faults": {
                "retries": self.retries,
                "infra_failures": self.infra_failures,
                "deadline_expired": self.deadline_expired,
                "pool_rebuilds": self.pool_rebuilds,
                "shed_by_priority": {
                    str(priority): count for priority, count
                    in sorted(self.shed_by_priority.items())
                },
            },
            "per_executor": {
                name: {
                    "images": u.images,
                    "predicted_us": u.predicted_us,
                    "observed_us": u.observed_us,
                    "bias": u.bias,
                    "busy_s": u.busy_s,
                    "pool": {
                        "backend": u.pool_backend,
                        "workers": u.pool_workers,
                    },
                    "utilization": u.utilization(total_wall_s),
                }
                for name, u in sorted(self.per_executor.items())
            },
        }

    def format(self) -> str:
        """Multi-batch closing summary (printed by ``repro serve-batch``)."""
        lat = [s * 1e3 for s in self._latencies_s] or [0.0]
        text = (
            f"{self.batches} batches, {self.images_ok} ok / "
            f"{self.images_failed} failed, "
            f"{self.images_per_sec:.2f} img/s overall, "
            f"latency p50/p99={percentile(lat, 50):.1f}/"
            f"{percentile(lat, 99):.1f}ms"
        )
        if self.per_executor:
            lanes = " ".join(
                f"{name}={u.images} (bias {u.bias:.2f})"
                for name, u in sorted(self.per_executor.items()))
            text += f"\nscheduled placements: {lanes}"
        if self.images_split:
            text += (f"\nfanned out: {self.images_split} "
                     f"(restart/speculative fan-out)")
        if (self.retries or self.infra_failures or self.deadline_expired
                or self.pool_rebuilds):
            text += (f"\nfaults: {self.retries} retries, "
                     f"{self.infra_failures} infra failures, "
                     f"{self.deadline_expired} deadline-expired, "
                     f"{self.pool_rebuilds} pool rebuilds")
        if self.shed_by_priority:
            shed = " ".join(
                f"p{priority}={count}" for priority, count
                in sorted(self.shed_by_priority.items()))
            text += f"\nshed by priority: {shed}"
        return text
