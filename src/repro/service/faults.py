"""Fault injection for the decode service: declarative chaos plans.

Serving millions of users means worker processes die (OOM killer,
segfaults in native code, operator error), lanes brown out, and shared
memory fills up.  None of those failure modes can be provoked reliably
by waiting for them — this module makes them *schedulable*.  A
:class:`FaultPlan` is a parent-side, thread-safe decision table that
:class:`~repro.service.batch.BatchDecoder` consults once per task
dispatch; the chosen :class:`FaultDirective` (a tiny picklable record)
rides into the worker alongside the task and is applied there:

- ``kill`` — the worker SIGKILLs itself at task entry, exactly like a
  crashed/OOM-killed process (thread/serial backends raise
  :class:`~repro.errors.WorkerCrashError` instead, which travels the
  same infrastructure-failure path through the future).  This is what
  the self-healing pool + retry machinery is proven against.
- ``exception`` — an unexpected ``RuntimeError`` raised *inside* the
  decode (not a :class:`~repro.errors.ReproError`), proving the
  per-image isolation contract holds for arbitrary failures.
- ``delay`` — the worker sleeps before decoding: a browned-out lane,
  the signal the scheduler's EWMA feedback and the chaos benchmark's
  recovery measurement consume.
- ``shm_fail`` — the worker's shared-memory publish raises, forcing
  the pickle fallback path (the decode must still succeed).

Plans count *dispatches* (retries included, like real traffic), decide
deterministically from ordinals (``kill_at={3}``), periods
(``kill_every=100``) or a seeded rate (``kill_rate=0.01`` for the chaos
benchmark), and keep per-kind injection counters so tests can assert
exactly what was injected.

Remote lanes (:mod:`repro.service.remote`) apply directives
*client-side*, in the host pool's threads, because no directive can
ride a TCP frame into another process tree: ``kill`` raises
:class:`~repro.errors.WorkerCrashError` before the request is sent —
indistinguishable from a host dying mid-request, so it exercises the
failover + breaker path; ``delay`` sleeps in the pool thread (a slow
link/browned-out host); ``exception`` synthesizes the decode-error
reply a crashed decode would have produced; ``shm_fail`` is a no-op —
no shared memory crosses the wire.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from random import Random
from typing import NamedTuple

from ..errors import ServiceError, WorkerCrashError

#: Fault kinds a directive may carry.
FAULT_KINDS = ("kill", "exception", "delay", "shm_fail")


class FaultDirective(NamedTuple):
    """One injected fault, resolved parent-side, applied worker-side.

    Picklable and tiny: only the directive crosses the process
    boundary, never the plan.
    """

    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Sleep applied before decoding (``kind="delay"`` only).
    delay_s: float = 0.0
    #: Human-readable provenance, echoed in errors the fault causes.
    message: str = "injected fault"


def apply_dispatch_fault(fault: "FaultDirective | None") -> None:
    """Apply a crash/delay directive at worker task entry.

    ``kill`` directives SIGKILL the worker process — indistinguishable
    from a real crash, so the parent sees ``BrokenProcessPool`` — or,
    when the task runs in the submitting process (thread/serial
    backends), raise :class:`~repro.errors.WorkerCrashError` so the
    simulated crash still surfaces through the future as an
    infrastructure failure rather than a decode error.  ``delay``
    directives sleep.  ``exception``/``shm_fail`` directives are
    applied deeper inside the task (they must land in specific handler
    scopes) and are ignored here.
    """
    if fault is None:
        return
    if fault.kind == "kill":
        if multiprocessing.current_process().name != "MainProcess":
            os.kill(os.getpid(), signal.SIGKILL)
        raise WorkerCrashError(fault.message)
    if fault.kind == "delay" and fault.delay_s > 0:
        time.sleep(fault.delay_s)


class FaultPlan:
    """Thread-safe parent-side schedule of faults to inject.

    Construct with any combination of triggers; each task dispatch
    (retries included) advances one global ordinal and the first
    matching trigger wins, in severity order ``kill`` > ``exception`` >
    ``shm_fail`` > ``delay``:

    - ``kill_at`` / ``exception_at`` / ``shm_fail_at`` — exact dispatch
      ordinals (0-based) to fault.
    - ``kill_every=N`` — fault every Nth dispatch (ordinals N-1, 2N-1,
      ...); likewise ``exception_every`` / ``shm_fail_every``.
    - ``kill_rate`` — independent per-dispatch crash probability drawn
      from a seeded :class:`random.Random`, the chaos benchmark's
      "1% of decodes die" knob.  Deterministic for a given *seed*.
    - ``delay_lanes`` — ``{lane_name: seconds}``: every dispatch placed
      on that scheduler lane sleeps first (a browned-out device).

    The plan never crosses a process boundary; it hands out
    :class:`FaultDirective` records instead.  :attr:`injected` counts
    directives issued per kind, for test assertions.
    """

    def __init__(self, kill_at=(), kill_every: int | None = None,
                 kill_rate: float = 0.0,
                 exception_at=(), exception_every: int | None = None,
                 shm_fail_at=(), shm_fail_every: int | None = None,
                 delay_lanes: "dict[str, float] | None" = None,
                 seed: int = 0) -> None:
        """Build the decision table; see the class docstring for the
        trigger semantics."""
        for name, every in (("kill_every", kill_every),
                            ("exception_every", exception_every),
                            ("shm_fail_every", shm_fail_every)):
            if every is not None and every <= 0:
                raise ServiceError(f"{name} must be positive, got {every}")
        if not 0.0 <= kill_rate <= 1.0:
            raise ServiceError(f"kill_rate must be in [0, 1], got {kill_rate}")
        self.kill_at = frozenset(kill_at)
        self.kill_every = kill_every
        self.kill_rate = kill_rate
        self.exception_at = frozenset(exception_at)
        self.exception_every = exception_every
        self.shm_fail_at = frozenset(shm_fail_at)
        self.shm_fail_every = shm_fail_every
        self.delay_lanes = dict(delay_lanes or {})
        self._rng = Random(seed)
        self._lock = threading.Lock()
        #: Task dispatches the plan has seen (retries included).
        self.dispatches = 0
        #: Directives issued, counted per fault kind.
        self.injected: dict[str, int] = {k: 0 for k in FAULT_KINDS}

    def _matches(self, n: int, at: frozenset, every: int | None) -> bool:
        """True when ordinal *n* triggers an ``at``/``every`` rule."""
        if n in at:
            return True
        return every is not None and n % every == every - 1

    def next_directive(self, lane: str | None = None
                       ) -> FaultDirective | None:
        """Advance the dispatch ordinal; return the fault to inject.

        *lane* is the scheduler lane the task was placed on (None for
        unscheduled work); it selects ``delay_lanes`` brownouts.
        Returns None for the (common) unfaulted dispatch.
        """
        with self._lock:
            n = self.dispatches
            self.dispatches += 1
            if self._matches(n, self.kill_at, self.kill_every) or (
                    self.kill_rate > 0
                    and self._rng.random() < self.kill_rate):
                self.injected["kill"] += 1
                return FaultDirective(
                    kind="kill", message=f"injected worker kill "
                                         f"(dispatch {n})")
            if self._matches(n, self.exception_at, self.exception_every):
                self.injected["exception"] += 1
                return FaultDirective(
                    kind="exception", message=f"injected decode exception "
                                              f"(dispatch {n})")
            if self._matches(n, self.shm_fail_at, self.shm_fail_every):
                self.injected["shm_fail"] += 1
                return FaultDirective(
                    kind="shm_fail", message=f"injected shm publish failure "
                                             f"(dispatch {n})")
            delay = self.delay_lanes.get(lane) if lane is not None else None
            if delay:
                self.injected["delay"] += 1
                return FaultDirective(
                    kind="delay", delay_s=delay,
                    message=f"injected lane delay ({lane}, {delay}s)")
        return None

    def snapshot(self) -> dict:
        """JSON-ready view of the plan's activity (dispatches seen and
        directives issued per kind)."""
        with self._lock:
            return {"dispatches": self.dispatches,
                    "injected": dict(self.injected)}
