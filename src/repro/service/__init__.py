"""Batched multi-image decode service atop the fast entropy engine.

This package scales the single-image pipeline to traffic: batches of
JPEG bytes fan out across a process/thread worker pool, each image
riding the PR-1 fused fast-path entropy engine (restart-segment
parallelism via :mod:`repro.jpeg.parallel_huffman` where DRI permits,
speculative chunk fan-out via :mod:`repro.jpeg.speculative` for
marker-free scans, whole-scan tasks otherwise), with a bounded
submission queue for backpressure and per-batch statistics.

Public surface (serving front ends first — the recommended entry
points):

- :class:`~repro.service.session.DecodeSession` — futures-based
  sessions: ``submit`` returns a
  :class:`~repro.service.session.DecodeHandle` (a ``Future``; asyncio
  awaits it via :func:`asyncio.wrap_future`), a background pump keeps a
  rolling window of decodes in flight and resolves each handle when
  its own image is done
- :class:`~repro.service.http.DecodeHTTPServer` — stdlib HTTP shim
  (``POST /decode``, ``GET /stats``, 429 backpressure, ``X-Priority``
  weighted shedding classes, backlog-scaled ``Retry-After``)
- :mod:`~repro.service.remote` — the sharded serving tier:
  :class:`~repro.service.remote.DecodeWorkerHost` (``repro
  serve-worker``, one session behind a length-prefixed TCP protocol),
  :class:`~repro.service.remote.RemoteLane` /
  :class:`~repro.service.remote.HostPool` (a scheduler lane across a
  socket and the pool it opens: at most ``depth`` requests on the wire,
  the rest wait in the lane) and
  :func:`~repro.service.remote.sharded_session` (``repro serve
  --hosts``: a plain ``DecodeSession`` over remote lanes — Eq 5/6 +
  EWMA placement with failover and breaker-guarded re-admission)
- :class:`BatchDecoder` — decode one batch across a worker pool:
  every image becomes a :class:`~repro.service.tasks.DecodePlan`
  (whole image, restart segments or speculative chunks), one dispatch
  places its subtasks, one gather loop merges them
- :class:`ImageRequest` / :class:`ImageResult` / :class:`BatchResult`
- :class:`~repro.service.scheduler.ModelScheduler` — model-guided
  cross-image batch scheduling (LPT over per-lane predicted costs,
  round-robin baseline, EWMA throughput feedback)
- :class:`~repro.service.transport.PlaneArena` /
  :class:`~repro.service.transport.PlaneRef` — zero-copy shared-memory
  plane transport for process-backend results (Linux: memfd + /proc)
- :class:`~repro.service.queue.SubmissionQueue` — the backpressure ingress
- :class:`~repro.service.workers.WorkerPool` — serial/thread/process pools
  (self-healing: a broken process pool is rebuilt in place)
- :class:`~repro.service.faults.FaultPlan` — deterministic fault
  injection (worker kills, decode exceptions, shm-publish failures,
  lane delays) for chaos tests and ``benchmarks/bench_chaos.py``
- :class:`~repro.service.scheduler.LaneBreakerBoard` — per-lane circuit
  breakers (closed → open → half-open) feeding the scheduler
- :class:`~repro.service.stats.ServiceStats` — a decoder's one record:
  latency percentiles and histogram, images/sec, fault and transport
  counters, per-lane placement totals
- :mod:`~repro.service.obs` — the observability layer:
  :class:`~repro.service.obs.TraceContext` /
  :class:`~repro.service.obs.SpanRecord` per-request trace spans
  threaded submit → queue → scheduler → lane dispatch → worker stages
  (and across the TCP wire into remote hosts),
  :class:`~repro.service.obs.ObsHub` (sampler + span counters + JSON-lines
  log) and
  :func:`~repro.service.http.render_prometheus` behind ``GET /metrics``

CLI: ``repro serve`` (HTTP front end) and ``repro serve-batch``
(files through a session, each result reported as it resolves;
``--schedule model|roundrobin`` turns the scheduler on).  Benchmarks:
the perf ledger's ``session_small`` and ``http_mixed`` workloads (``benchmarks/perf/run.py``),
``benchmarks/bench_service_latency.py`` (open-loop latency vs offered
load against a session); model-guided vs round-robin makespan is
pinned by ``tests/test_scheduler.py::TestPricing::\
test_mixed_batch_makespan_lpt_vs_roundrobin``.
"""

from .._lazy import lazy_exports
from .batch import BatchDecoder, BatchResult
from .faults import FaultDirective, FaultPlan, apply_dispatch_fault
from .obs import (
    TRACE_MODES,
    ObsHub,
    SpanRecord,
    TraceContext,
    TraceLog,
    format_trace,
    map_remote_spans,
    read_trace_log,
    spans_to_timeline,
)
from .queue import SubmissionQueue
from .transport import (
    PlaneArena,
    PlaneRef,
    resolve_transport,
    shm_available,
)
from .scheduler import (
    BatchSchedule,
    ExecutorLane,
    LaneBreakerBoard,
    ModelScheduler,
    ThroughputFeedback,
    default_executors,
    schedule_lpt,
    schedule_roundrobin,
)
from .session import DecodeHandle, DecodeSession
from .stats import ExecutorUsage, ServiceStats, percentile
from .tasks import (
    PRIORITIES,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ImageRequest,
    ImageResult,
    parse_priority,
)
from .workers import BACKENDS, WorkerPool

# The HTTP front end and the sharded tier load on first use: a session
# that serves neither never compiles them.
__getattr__ = lazy_exports(__name__, {
    "DecodeHTTPServer": "http", "ppm_bytes": "http",
    "render_prometheus": "http",
    "DecodeWorkerHost": "remote", "HostPool": "remote",
    "RemoteLane": "remote", "parse_hosts": "remote",
    "remote_executors": "remote", "sharded_session": "remote",
})

__all__ = [
    "BACKENDS",
    "PRIORITIES",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "BatchDecoder",
    "BatchResult",
    "BatchSchedule",
    "DecodeHTTPServer",
    "DecodeHandle",
    "DecodeSession",
    "DecodeWorkerHost",
    "ExecutorLane",
    "ExecutorUsage",
    "FaultDirective",
    "FaultPlan",
    "HostPool",
    "ImageRequest",
    "ImageResult",
    "LaneBreakerBoard",
    "ModelScheduler",
    "ObsHub",
    "PlaneArena",
    "PlaneRef",
    "RemoteLane",
    "ServiceStats",
    "SpanRecord",
    "SubmissionQueue",
    "TRACE_MODES",
    "ThroughputFeedback",
    "TraceContext",
    "TraceLog",
    "WorkerPool",
    "apply_dispatch_fault",
    "default_executors",
    "format_trace",
    "map_remote_spans",
    "parse_hosts",
    "parse_priority",
    "percentile",
    "ppm_bytes",
    "read_trace_log",
    "remote_executors",
    "render_prometheus",
    "resolve_transport",
    "schedule_lpt",
    "schedule_roundrobin",
    "sharded_session",
    "shm_available",
    "spans_to_timeline",
]
