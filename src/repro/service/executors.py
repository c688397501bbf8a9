"""Lane-bound heterogeneous executor pools.

The scheduler (:mod:`repro.service.scheduler`) decides *where* each
image of a batch should run — a GPU lane, a SIMD CPU lane — but until
this module every placement funnelled into one undifferentiated worker
pool, so the predicted makespan win stayed simulated.
:class:`ExecutorRegistry` makes lanes physical: each
:class:`~repro.service.scheduler.ExecutorLane` is bound to its own
execution pool, mirroring the paper's premise that the GPU and the CPU
SIMD path are *separate* resources that fill concurrently:

- every ``gpu`` lane gets a dedicated pool (one worker by default —
  the simulated device executes one image at a time, like the real
  card's in-order queue);
- all CPU lanes (``simd``/``seq``) share one sized pool (default: the
  host's remaining cores).

:class:`~repro.service.batch.BatchDecoder` dispatches each placed
image to its lane's pool and gathers across all pools concurrently, so
the busiest lane — not the sum of lanes — sets the batch's wall-clock,
which is exactly the makespan objective Eq 15's partitioning minimizes
within one image.  Observed per-lane times then feed the scheduler's
EWMA correction (:class:`~repro.service.scheduler.ThroughputFeedback`)
with *real* heterogeneous wall-clock, the cross-batch analog of the
paper's Eq 16/17 runtime repartitioning.

Layouts are configurable per lane *kind* via :func:`parse_lane_pools`
(the CLI's ``--lane-pools``), e.g. ``"gpu=1,simd=process:3"``.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..errors import ServiceError
from .scheduler import ExecutorLane
from .workers import (
    BACKENDS,
    WorkerPool,
    default_backend,
    default_worker_count,
)

#: Lane-kind keys a layout spec may configure.  ``cpu`` addresses both
#: CPU kinds (``simd`` and ``seq``) at once.
LAYOUT_KINDS = ("gpu", "simd", "seq", "cpu")

#: Pool key the CPU lanes share in the registry.
CPU_POOL = "cpu"


def parse_lane_pools(spec: str) -> dict[str, tuple[str | None, int]]:
    """Parse a ``--lane-pools`` layout spec.

    Grammar: comma-separated ``kind=workers`` or
    ``kind=backend:workers`` entries, e.g. ``"gpu=1,simd=3"`` or
    ``"gpu=process:1,cpu=thread:2"``.  Returns
    ``{kind: (backend_or_None, workers)}``; an empty or ``"auto"`` spec
    returns ``{}`` (the default layout).
    """
    layout: dict[str, tuple[str | None, int]] = {}
    spec = (spec or "").strip()
    if spec in ("", "auto"):
        return layout
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ServiceError(
                f"bad lane-pool entry {entry!r} (want kind=workers or "
                f"kind=backend:workers)")
        kind, _, value = entry.partition("=")
        kind = kind.strip()
        if kind not in LAYOUT_KINDS:
            raise ServiceError(
                f"unknown lane kind {kind!r} in lane-pool spec "
                f"(choose from {list(LAYOUT_KINDS)})")
        backend: str | None = None
        if ":" in value:
            backend, _, value = value.partition(":")
            backend = backend.strip()
            if backend not in BACKENDS:
                raise ServiceError(
                    f"unknown backend {backend!r} in lane-pool spec "
                    f"(choose from {list(BACKENDS)})")
        try:
            workers = int(value.strip())
        except ValueError:
            raise ServiceError(
                f"bad worker count {value!r} in lane-pool spec") from None
        if workers <= 0:
            raise ServiceError(
                f"lane-pool workers must be positive, got {workers}")
        if kind in layout:
            raise ServiceError(f"duplicate lane kind {kind!r} in spec")
        layout[kind] = (backend, workers)
    return layout


class ExecutorRegistry:
    """Binds scheduler lanes to dedicated worker pools.

    Construct with the scheduler's lane set and an optional *layout*
    (a spec string for :func:`parse_lane_pools`, or its parsed dict).
    *backend* is the fallback pool backend for kinds the layout leaves
    unset (default: process on multi-core hosts, serial otherwise —
    the same heuristic as
    :func:`~repro.service.workers.default_backend`).

    A lane that opens its own pool
    (:meth:`~repro.service.scheduler.ExecutorLane.open_pool`: a remote
    lane's link to its host) is bound to it the way a ``gpu`` lane is
    to its dedicated pool; only this seam tells such lanes apart.
    """

    def __init__(self, executors: Sequence[ExecutorLane],
                 layout: "str | dict | None" = None,
                 backend: str | None = None) -> None:
        """Build one pool per GPU lane plus the shared CPU pool, and
        adopt the pool of every lane that opens its own."""
        if not executors:
            raise ServiceError("executor registry needs at least one lane")
        if isinstance(layout, str):
            layout = parse_lane_pools(layout)
        layout = dict(layout or {})
        fallback = backend or default_backend()
        self.executors = tuple(executors)
        self._pools: dict[str, WorkerPool] = {}
        self._pool_of: dict[str, str] = {}   # lane name -> pool key
        #: Lanes that opened their own pool, in lane order: each other's
        #: failover targets.
        self._links: list[str] = []
        self._failover_turn = itertools.count()     # next() is atomic
        self._closed = False

        cpu_keys = [k for k in ("cpu", "simd", "seq") if k in layout]
        if len(cpu_keys) > 1:
            raise ServiceError(
                f"lane-pool spec names multiple CPU kinds {cpu_keys} but "
                f"all CPU lanes share one pool — configure exactly one of "
                f"cpu/simd/seq")

        gpu_backend, gpu_workers = layout.get("gpu", (None, 1))
        gpu_lanes = 0
        for lane in self.executors:
            pool = lane.open_pool()
            if pool is not None:
                self._links.append(lane.name)
            elif lane.kind == "gpu":
                gpu_lanes += 1
                pool = WorkerPool(workers=gpu_workers,
                                  backend=gpu_backend or fallback,
                                  name=lane.name)
            else:
                self._pool_of[lane.name] = CPU_POOL
                continue
            self._pools[lane.name] = pool
            self._pool_of[lane.name] = lane.name
        if CPU_POOL in self._pool_of.values():
            cpu_backend, cpu_workers = layout[cpu_keys[0]] if cpu_keys \
                else (None, max(1, default_worker_count() - gpu_lanes))
            self._pools[CPU_POOL] = WorkerPool(
                workers=cpu_workers, backend=cpu_backend or fallback,
                name=CPU_POOL)

    # -- lookup ---------------------------------------------------------

    def pool_for(self, lane_name: str) -> "WorkerPool | None":
        """The pool bound to *lane_name* (None for unknown lanes)."""
        key = self._pool_of.get(lane_name)
        return self._pools.get(key) if key is not None else None

    def failover_pool(self, lane_name: str) -> "WorkerPool | None":
        """An alternative pool for redispatch after *lane_name*'s pool
        failed a task: a sibling host's, round-robin over the others,
        when the lane is a link to one.  None locally (and for the only
        host) — a crashed local pool heals in place and the task
        retries on it."""
        others = [name for name in self._links if name != lane_name]
        if lane_name not in self._links or not others:
            return None
        return self._pools[others[next(self._failover_turn) % len(others)]]

    @property
    def pools(self) -> dict[str, WorkerPool]:
        """Distinct pools keyed by pool name (the lane name of a
        dedicated pool, or "cpu")."""
        return dict(self._pools)

    @property
    def backends(self) -> set[str]:
        """Backend names across all pools (transport resolution input)."""
        return {pool.backend for pool in self._pools.values()}

    @property
    def total_workers(self) -> int:
        """Worker count summed over every pool."""
        return sum(pool.workers for pool in self._pools.values())

    def describe(self) -> dict:
        """JSON-ready lane→pool binding map (stats / ``GET /stats``):
        per lane, its pool key and kind plus what the pool says of
        itself — for a host link that includes its ``link`` health."""
        return {lane.name: {"pool": self._pool_of[lane.name],
                            "kind": lane.kind,
                            **self.pool_for(lane.name).describe()}
                for lane in self.executors}

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut every pool down (waits for in-flight tasks)."""
        if self._closed:
            return
        self._closed = True
        for pool in self._pools.values():
            pool.close()

    def __enter__(self) -> "ExecutorRegistry":
        """Context-manager entry: the registry itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close every pool."""
        self.close()
