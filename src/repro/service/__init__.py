"""Batched multi-image decode service atop the fast entropy engine.

This package scales the single-image pipeline to traffic: batches of
JPEG bytes fan out across a process/thread worker pool, each image
riding the PR-1 fused fast-path entropy engine (restart-segment
parallelism via :mod:`repro.jpeg.parallel_huffman` where DRI permits,
speculative chunk fan-out via :mod:`repro.jpeg.speculative` for
marker-free scans, whole-scan tasks otherwise), with a bounded
submission queue for backpressure and per-batch statistics.

Public surface — what front ends construct and what the API returns;
every other name is imported from its own module:

- :class:`~repro.service.session.DecodeSession` — futures-based
  sessions: ``submit`` returns a
  :class:`~repro.service.session.DecodeHandle` (a ``Future``; asyncio
  awaits it via :func:`asyncio.wrap_future`), a background pump keeps a
  rolling window of decodes in flight and resolves each handle when
  its own image is done
- :class:`~repro.service.http.DecodeHTTPServer` — stdlib HTTP shim
  (``POST /decode``, ``GET /stats``, ``GET /metrics``, 429
  backpressure, ``X-Priority`` weighted shedding classes,
  backlog-scaled ``Retry-After``)
- the sharded serving tier of :mod:`~repro.service.remote`:
  :class:`~repro.service.remote.DecodeWorkerHost` (``repro
  serve-worker``, one session behind a length-prefixed TCP protocol),
  :func:`~repro.service.remote.remote_executors` (one remote lane per
  ``host:port``) and :func:`~repro.service.remote.sharded_session`
  (``repro serve --hosts``: a plain ``DecodeSession`` over remote lanes
  — Eq 5/6 + EWMA placement with failover and breaker-guarded
  re-admission)
- :class:`BatchDecoder` — decode one batch across a
  :class:`~repro.service.workers.WorkerPool` (serial, thread or
  self-healing process pool): every image becomes a
  :class:`~repro.service.tasks.DecodePlan` (whole image, restart
  segments or speculative chunks), one dispatch places its subtasks,
  one gather loop merges them
- :class:`ImageRequest` (with its ``PRIORITY_HIGH`` / ``_NORMAL`` /
  ``_LOW`` shedding classes) / :class:`ImageResult` /
  :class:`BatchResult`
- :class:`~repro.service.scheduler.ModelScheduler` — model-guided
  cross-image batch scheduling (LPT over per-lane predicted costs from
  the work each lane still holds, EWMA throughput feedback), guarded by
  :class:`~repro.service.scheduler.LaneBreakerBoard` per-lane circuit
  breakers (closed → open → half-open)
- :class:`~repro.service.faults.FaultPlan` — deterministic fault
  injection (worker kills, decode exceptions, shm-publish failures,
  lane delays) for chaos tests and ``benchmarks/bench_chaos.py``
- :func:`~repro.service.stats.percentile` — the latency percentile
  every report uses

CLI: ``repro serve`` (HTTP front end; ``--hosts`` schedules across
worker hosts) and ``repro serve-batch`` (files through a session, each
result reported as it resolves).  Benchmarks: the perf ledger's
``session_small`` and ``http_mixed`` workloads
(``benchmarks/perf/run.py``), ``benchmarks/bench_service_latency.py``
(open-loop latency vs offered load against a session); LPT's makespan
against a cost-blind cyclic placement is pinned by
``tests/test_scheduler.py::TestPricing``.
"""

from .._lazy import lazy_exports
from .batch import BatchDecoder, BatchResult
from .faults import FaultPlan
from .scheduler import LaneBreakerBoard, ModelScheduler
from .session import DecodeHandle, DecodeSession
from .stats import percentile
from .tasks import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ImageRequest,
    ImageResult,
)
from .workers import WorkerPool

# The HTTP front end and the sharded tier load on first use: a session
# that serves neither never compiles them.
__getattr__ = lazy_exports(__name__, {
    "DecodeHTTPServer": "http", "DecodeWorkerHost": "remote",
    "remote_executors": "remote", "sharded_session": "remote",
})

__all__ = [
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "BatchDecoder",
    "BatchResult",
    "DecodeHTTPServer",
    "DecodeHandle",
    "DecodeSession",
    "DecodeWorkerHost",
    "FaultPlan",
    "ImageRequest",
    "ImageResult",
    "LaneBreakerBoard",
    "ModelScheduler",
    "WorkerPool",
    "percentile",
    "remote_executors",
    "sharded_session",
]
