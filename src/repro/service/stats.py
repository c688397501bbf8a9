"""Service statistics: latency percentiles, throughput, fault and
transport counters, per-lane placement totals.

One :class:`ServiceStats` per :class:`~repro.service.batch.BatchDecoder`
(a :class:`~repro.service.session.DecodeSession` shares its decoder's)
records each fact once, where it happens: the decoder counts retries,
transport bytes, fan-outs, infrastructure failures and finished
groups; the session counts sheds, deadline drops and each image's
submit-to-completion latency.  Groups overlap under the rolling pump,
so the service's busy time is not the sum of their walls but the union
of the intervals during which anything was in flight
(:meth:`ServiceStats.mark_busy` / :meth:`ServiceStats.mark_idle`).
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

from .obs import Histogram

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


class ExecutorUsage:
    """Running per-lane totals for scheduled batches."""

    images: int = 0
    predicted_us: float = 0.0
    observed_us: float = 0.0
    #: Measured busy seconds spent on this lane's placed images.
    busy_s: float = 0.0

    @property
    def bias(self) -> float:
        """Observed/predicted time ratio (1.0 = the model was exact) —
        exactly what the lane's feedback scale converges to.  A lane on
        another machine is observed in measured time against a
        prediction in model microseconds, so its bias is that host's
        wall-per-model-us factor rather than a dimensionless error."""
        if self.predicted_us <= 0:
            return 1.0
        return self.observed_us / self.predicted_us


class ServiceStats:
    """Running totals across everything one decoder processed.

    Scalar counters are written on the one thread that drives the
    decoder; the dict-valued sections and the latency record only under
    the owning session's stats lock.  Counters start at their class
    defaults.
    """

    #: Admission groups whose last plan landed.
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
    per_executor: dict[str, ExecutorUsage]
    #: Result bytes moved through each transport across all batches.
    bytes_shm: int = 0
    bytes_pickle: int = 0
    #: Fault-tolerance counters: task re-dispatches after worker
    #: crashes, images failed on infrastructure (crash past the retry
    #: budget) and requests shed at their deadline.  Pool rebuilds are
    #: the pools' own counter, read when a report is made.
    retries: int = 0
    infra_failures: int = 0
    deadline_expired: int = 0
    #: Requests refused at admission by weighted load shedding, counted
    #: per priority class (fills under overload; empty otherwise).
    shed_by_priority: dict

    def __init__(self) -> None:
        """Nothing processed yet."""
        self.per_executor = {}
        self.shed_by_priority = {}
        self._latencies_s: deque = deque(maxlen=LATENCY_WINDOW)
        #: Every latency recorded, in the ``/metrics`` histogram's buckets.
        self._latency_buckets = Histogram()

    def record_image(self, ok: bool, latency_s: float) -> None:
        """Count one finished image and its submit-to-completion
        latency (folded per image, before its handle resolves)."""
        if ok:
            self.images_ok += 1
        else:
            self.images_failed += 1
        self._latencies_s.append(latency_s)
        self._latency_buckets.observe(latency_s)

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

    def record_shed(self, priority: int) -> None:
        """Count one request refused at admission by weighted shedding."""
        self.shed_by_priority[priority] = \
            self.shed_by_priority.get(priority, 0) + 1

    def record_schedule(self, schedule, results) -> None:
        """Fold one scheduled batch's placements into per-lane totals.

        *schedule* is the batch's
        :class:`~repro.service.scheduler.BatchSchedule`; *results* the
        matching :class:`~repro.service.batch.ImageResult` list (same
        index space).  Per-lane observed/predicted totals use the same
        :func:`~repro.service.scheduler.lane_outcomes` extraction the
        feedback loop uses, so the reported bias always matches what
        the scheduler learned from; every placed image adds its
        measured ``wall_us`` to its lane's ``busy_s``.
        """
        from .scheduler import lane_outcomes

        for a, observed in lane_outcomes(schedule, results):
            usage = self.per_executor.setdefault(
                a.executor.name, ExecutorUsage())
            usage.images += 1
            usage.predicted_us += a.predicted_us
            usage.observed_us += observed
        for a in schedule.assignments:
            if a.executor is not None:
                usage = self.per_executor.setdefault(
                    a.executor.name, ExecutorUsage())
                usage.busy_s += (results[a.index].wall_us or 0.0) / 1e6

    @property
    def images_per_sec(self) -> float:
        """Aggregate throughput: images over busy seconds."""
        total = self.images_ok + self.images_failed
        return total / self.total_wall_s if self.total_wall_s > 0 else 0.0

    def as_dict(self, pool_rebuilds: int = 0) -> dict:
        """JSON-serializable snapshot of the running totals, with the
        decoder's *pool_rebuilds* counter as it reads now.

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
            "latency_histogram": self._latency_buckets.snapshot(),
            "transport": {
                "shm_bytes": self.bytes_shm,
                "pickle_bytes": self.bytes_pickle,
            },
            "faults": {
                "retries": self.retries,
                "infra_failures": self.infra_failures,
                "deadline_expired": self.deadline_expired,
                "pool_rebuilds": pool_rebuilds,
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
                }
                for name, u in sorted(self.per_executor.items())
            },
        }

    def format(self, pool_rebuilds: int = 0) -> str:
        """Multi-batch closing summary (printed by ``repro serve-batch``),
        with the decoder's *pool_rebuilds* counter as it reads now."""
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
                or pool_rebuilds):
            text += (f"\nfaults: {self.retries} retries, "
                     f"{self.infra_failures} infra failures, "
                     f"{self.deadline_expired} deadline-expired, "
                     f"{pool_rebuilds} pool rebuilds")
        if self.shed_by_priority:
            shed = " ".join(
                f"p{priority}={count}" for priority, count
                in sorted(self.shed_by_priority.items()))
            text += f"\nshed by priority: {shed}"
        return text
