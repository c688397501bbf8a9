"""Worker-pool backends for the batched decode service.

Three interchangeable backends behind one ``submit``-shaped surface:

- ``"process"`` — ``concurrent.futures.ProcessPoolExecutor``.  The
  default on multi-core hosts: entropy decoding is pure-Python and
  GIL-bound, so real wall-clock scaling needs processes.
- ``"thread"`` — ``ThreadPoolExecutor``.  Lower task overhead, shares
  the fused-table cache, and still overlaps the numpy pixel stages
  (which release the GIL) with another image's entropy decode; also the
  deterministic choice for tests.
- ``"serial"`` — run the task inline on ``submit``.  Zero concurrency,
  zero overhead; the fallback on single-core hosts and the local pool
  of a sharded front tier.

Task functions submitted to the ``process`` backend must be module-level
(picklable) and take picklable arguments — see
:mod:`repro.service.tasks` for the task functions themselves.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable

from ..errors import ServiceClosedError, ServiceError

#: Recognized pool backend names.
BACKENDS = ("process", "thread", "serial")


def default_worker_count() -> int:
    """Worker count used when the caller does not pin one (all cores)."""
    return max(1, os.cpu_count() or 1)


def default_backend() -> str:
    """Pick the backend for this host: processes when the host has more
    than one core (entropy decode is GIL-bound), serial otherwise."""
    return "process" if default_worker_count() > 1 else "serial"


def worker_name() -> str:
    """Stable identity of the executing worker: the resource its trace
    spans name.

    Process-pool workers report ``pid-<os.getpid()>`` (detected via
    ``multiprocessing.current_process()``, which is start-method
    agnostic — fork and spawn both rename pool children); thread-pool
    workers report the executor thread name; the serial backend runs in
    the submitting thread and reports its name (``"main"`` for the main
    thread).
    """
    if multiprocessing.current_process().name != "MainProcess":
        return f"pid-{os.getpid()}"
    thread = threading.current_thread()
    return "main" if thread is threading.main_thread() else thread.name


class WorkerPool:
    """Uniform submit/close wrapper over the three pool backends."""

    def __init__(self, workers: int | None = None,
                 backend: str | None = None,
                 name: str | None = None) -> None:
        """Create a pool of *workers* workers on *backend*.

        ``workers=None`` uses every core; ``backend=None`` picks
        :func:`default_backend`.  *name* labels the pool (a link to
        another machine uses its lane's name) and prefixes its worker
        threads.
        """
        self.name = name or "decode"
        self.backend = backend or default_backend()
        if self.backend not in BACKENDS:
            raise ServiceError(
                f"unknown worker backend {self.backend!r} "
                f"(choose from {list(BACKENDS)})")
        self.workers = default_worker_count() if workers is None else workers
        if self.workers <= 0:
            raise ServiceError(
                f"worker count must be positive, got {self.workers}")
        self._closed = False
        #: Times a broken pool was rebuilt in place (see :meth:`heal`).
        self.rebuilds = 0
        self._heal_lock = threading.Lock()
        if self.backend == "process":
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        elif self.backend == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix=f"{self.name}-worker")
        else:
            self._pool = None
            self.workers = 1

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)``; always returns a Future.

        The serial backend runs the task inline and returns an
        already-resolved Future, so callers never branch on backend.
        A process pool found broken at submit time (an earlier worker
        crash poisoned it) is rebuilt in place and the submission
        retried once — a crashed worker never bricks the pool.
        """
        if self._closed:
            raise ServiceClosedError("worker pool is closed")
        if self._pool is not None:
            try:
                return self._pool.submit(fn, *args, **kwargs)
            except BrokenExecutor:
                if not self.heal():
                    raise
                return self._pool.submit(fn, *args, **kwargs)
        fut: Future = Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # propagate via the Future contract
            fut.set_exception(exc)
        return fut

    def heal(self) -> bool:
        """Rebuild a broken process pool in place; returns True when a
        rebuild happened.

        A ``ProcessPoolExecutor`` whose worker died (SIGKILL, OOM,
        segfault) is permanently broken: every pending and future
        submission raises ``BrokenProcessPool``.  Healing swaps in a
        fresh executor of the same size and discards the broken one
        (its workers are already dead; ``shutdown(wait=False)`` just
        reaps bookkeeping).  Thread and serial backends cannot break
        and always return False, as does a healthy or closed pool —
        callers may invoke this speculatively after any task failure.
        """
        if self._closed or self.backend != "process":
            return False
        with self._heal_lock:
            if self._closed or not getattr(self._pool, "_broken", False):
                return False
            old = self._pool
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self.rebuilds += 1
            try:
                old.shutdown(wait=False)
            except Exception:
                pass
            return True

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight tasks to finish."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close the pool."""
        self.close()
