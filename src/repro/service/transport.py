"""Zero-copy shared-memory plane transport for the decode service.

The paper's dispatch term ``Tdisp`` (Eq 5/6) prices moving decoded
planes between devices; the service's process backend pays the same
tax in a different currency — every worker pickles its full RGB array
back through the executor's result pipe.  This module removes the
serialization from that hop: workers write decoded planes into named
``multiprocessing.shared_memory`` segments and send back only a tiny
:class:`PlaneRef` descriptor ``(segment, offset, shape, dtype)``; the
parent maps the same physical pages and materializes the array with at
most one ``memcpy`` (or none, with ``copy=False``).

Three cooperating pieces:

- :class:`PlaneArena` — the parent-side segment manager: a ring of
  reusable named segments (``repro-<pid>-...``), leased per task and
  released on gather.  Every name the arena ever issued is tracked, so
  :meth:`PlaneArena.close` can unlink segments even when the worker
  that was filling one died mid-batch; :meth:`PlaneArena.leaked`
  reports the slots currently unaccounted for.
- :func:`publish_plane` / :func:`publish_planes` — the worker-side
  writers: attach to the leased segment by name (attachments are cached
  per process, so a reused ring slot costs no re-``mmap``), copy the
  array(s) in, return descriptors.
- :func:`resolve_transport` / :func:`shm_available` — policy: ``shm``
  engages only where it can win (a process-backend pool on a host with
  working POSIX shared memory); everywhere else the service keeps the
  plain pickle path, so serial/thread backends behave exactly as
  before.
"""

from __future__ import annotations

import os
import secrets
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import ServiceError

#: Segment capacities are rounded up to this granularity so a ring slot
#: leased for one image is reusable for the next similarly-sized one.
GRANULARITY = 256 * 1024

#: Free segments a :class:`PlaneArena` keeps parked for reuse; a
#: release beyond this unlinks the surplus segment instead of hoarding
#: ``/dev/shm`` space under shifting traffic.
MAX_FREE = 32

#: Plane offsets inside a packed segment are aligned to this many bytes.
ALIGNMENT = 64

#: Payloads below this size stay on the pickle path even when shm is
#: active: a segment lease + worker attach costs more than pickling a
#: few KB through the result pipe ever will.
SHM_MIN_BYTES = 32 * 1024

_shm_probe_result: bool | None = None


def _shared_memory_module():
    """Import guard: ``multiprocessing.shared_memory`` (3.8+)."""
    from multiprocessing import shared_memory
    return shared_memory


def shm_available() -> bool:
    """True when POSIX shared memory demonstrably works on this host.

    Probed once per process by creating and unlinking a tiny segment;
    any failure (missing ``/dev/shm``, sandboxed ``shm_open``, missing
    module) makes the service fall back to pickle transport.
    """
    global _shm_probe_result
    if _shm_probe_result is None:
        try:
            shared_memory = _shared_memory_module()
            probe = shared_memory.SharedMemory(
                create=True, size=GRANULARITY,
                name=f"repro-probe-{os.getpid()}-{secrets.token_hex(4)}")
            probe.close()
            probe.unlink()
            _shm_probe_result = True
        except Exception:
            _shm_probe_result = False
    return _shm_probe_result


def resolve_transport(backends) -> str:
    """The result transport of a decoder dispatching to pools of the
    given *backends* (worker-pool backend names).

    ``"shm"`` when at least one pool is process-backed and
    :func:`shm_available` holds; ``"pickle"`` otherwise — thread and
    serial workers share the parent's address space, so there is
    nothing to transport, and a host without POSIX shared memory keeps
    the result pipe rather than failing a decode.
    """
    if "process" in set(backends) and shm_available():
        return "shm"
    return "pickle"


# ---------------------------------------------------------------------------
# Descriptors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneRef:
    """Where one decoded plane lives inside a shared-memory segment.

    This is the only thing a worker sends back over the result pipe:
    a name, an offset, a shape and a dtype — a few hundred bytes no
    matter how large the plane is.
    """

    segment: str
    offset: int
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Payload size of the referenced plane in bytes."""
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n


@dataclass(frozen=True)
class PlaneSlot:
    """One leased ring segment a worker may write planes into."""

    name: str
    capacity: int


def _align(offset: int) -> int:
    """Round *offset* up to the packing alignment."""
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def packed_nbytes(sizes) -> int:
    """Capacity needed to pack planes of the given byte *sizes*.

    The parent uses this to lease a slot for a multi-plane payload with
    exactly the layout :func:`publish_planes` will write.
    """
    total = 0
    for nbytes in sizes:
        total = _align(total) + nbytes
    return total


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------

#: Per-process cache of attached segments; ring reuse makes the same
#: few names recur, so each worker pays the ``shm_open``/``mmap`` once.
#: Bounded: beyond this many entries the oldest attachment is closed,
#: so workers in a long-running service do not pin pages of segments
#: the arena has long since unlinked.
_ATTACH_CACHE_MAX = 32
_attached: dict[str, object] = {}
_attached_lock = threading.Lock()


def _attach(name: str):
    """Attach to segment *name*, cached, without tracker side effects.

    ``SharedMemory(name=...)`` registers the segment with the
    ``resource_tracker`` even when merely attaching.  The arena's
    parent owns the lifecycle, and under the fork start method parent
    and workers *share* one tracker process — an attach-side
    registration would collide with (and an unregister would cancel)
    the parent's own, producing bogus "leaked shared_memory" noise or
    tracker KeyErrors at shutdown (bpo-38119).  Python 3.13+ exposes
    ``track=False``; on older interpreters registration is suppressed
    around the constructor instead.
    """
    with _attached_lock:
        shm = _attached.get(name)
        if shm is not None:
            return shm
        shared_memory = _shared_memory_module()
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13
            from multiprocessing import resource_tracker
            original = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
        while len(_attached) >= _ATTACH_CACHE_MAX:
            # FIFO eviction; process-pool workers run one task at a
            # time, so nothing can be mid-write in an evicted segment.
            old = _attached.pop(next(iter(_attached)))
            try:
                old.close()
            except Exception:
                pass
        _attached[name] = shm
        return shm


def publish_plane(slot: PlaneSlot, array: np.ndarray,
                  offset: int = 0) -> PlaneRef:
    """Write *array* into *slot* at *offset*; return its descriptor.

    Worker-side: one ``memcpy`` into the shared pages, no
    serialization.  Raises :class:`~repro.errors.ServiceError` when the
    slot cannot hold the plane — callers fall back to pickling the
    array instead of failing the decode.
    """
    array = np.ascontiguousarray(array)
    if offset + array.nbytes > slot.capacity:
        raise ServiceError(
            f"plane ({array.nbytes} B at offset {offset}) exceeds slot "
            f"{slot.name} capacity ({slot.capacity} B)")
    shm = _attach(slot.name)
    dst = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf,
                     offset=offset)
    np.copyto(dst, array)
    return PlaneRef(segment=slot.name, offset=offset,
                    shape=tuple(array.shape), dtype=array.dtype.str)


def publish_planes(slot: PlaneSlot, arrays) -> tuple[PlaneRef, ...]:
    """Pack several planes into one slot (aligned); return descriptors.

    The layout matches :func:`packed_nbytes`, so a slot leased with
    that capacity always fits.
    """
    refs = []
    offset = 0
    for array in arrays:
        offset = _align(offset)
        refs.append(publish_plane(slot, array, offset=offset))
        offset += refs[-1].nbytes
    return tuple(refs)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------

class PlaneArena:
    """Parent-side ring of reusable shared-memory segments.

    Segments are created on demand (capacity rounded up to
    :data:`GRANULARITY`), leased to exactly one in-flight task at a
    time, and returned to the free ring on release.  The arena keeps
    its own handle to every segment it ever created, which makes
    cleanup unconditional: :meth:`close` unlinks each one whether it is
    free, still leased to a task whose worker died, or already gone.

    Thread-safe: the session pump, a
    :meth:`~repro.service.batch.BatchDecoder.decode_batch` caller and
    the gather loop may lease/release concurrently.
    """

    def __init__(self) -> None:
        """Create an empty arena."""
        self._lock = threading.Lock()
        self._segments: dict[str, object] = {}   # name -> SharedMemory
        self._free: list[str] = []               # names, LRU order
        self._leased: set[str] = set()
        self._prefix = f"repro-{os.getpid()}-{secrets.token_hex(4)}"
        self._counter = 0
        self._closed = False
        #: Cumulative counters (observability): segments created,
        #: leases served from the ring, bytes written through the arena.
        self.created = 0
        self.reused = 0

    # -- leasing --------------------------------------------------------

    def lease(self, nbytes: int) -> PlaneSlot:
        """Lease a slot holding at least *nbytes* bytes.

        Reuses the smallest adequate free segment, else creates a new
        one (capacity rounded up to the granularity).
        """
        if nbytes < 0:
            raise ServiceError(f"lease size must be >= 0, got {nbytes}")
        with self._lock:
            if self._closed:
                raise ServiceError("plane arena is closed")
            best = None
            for name in self._free:
                cap = self._segments[name].size
                if cap >= nbytes and (best is None
                                      or cap < self._segments[best].size):
                    best = name
            if best is not None:
                self._free.remove(best)
                self._leased.add(best)
                self.reused += 1
                return PlaneSlot(name=best, capacity=self._segments[best].size)
            capacity = max(
                GRANULARITY,
                (nbytes + GRANULARITY - 1) // GRANULARITY * GRANULARITY)
            shared_memory = _shared_memory_module()
            self._counter += 1
            name = f"{self._prefix}-{self._counter}"
            shm = shared_memory.SharedMemory(
                create=True, size=capacity, name=name)
            self._segments[name] = shm
            self._leased.add(name)
            self.created += 1
            return PlaneSlot(name=name, capacity=capacity)

    def release(self, slot: "PlaneSlot | str") -> None:
        """Return a leased slot to the free ring; idempotent.

        Releasing an unknown or already-free name is a no-op — the
        gather loop's error paths may race a blanket cleanup.  Beyond
        :data:`MAX_FREE` parked segments, the released one is unlinked.
        """
        name = slot.name if isinstance(slot, PlaneSlot) else slot
        with self._lock:
            if self._closed or name not in self._leased:
                return
            self._leased.discard(name)
            if len(self._free) >= MAX_FREE:
                self._unlink(name)
            else:
                self._free.append(name)

    def discard(self, slot: "PlaneSlot | str") -> None:
        """Unlink a leased slot *without* returning it to the ring.

        The quarantine path: when a batch aborts while workers may
        still be writing into their leased segments, recycling those
        names would let the *next* batch read a segment a stale worker
        is mid-``memcpy`` into.  Discarding unlinks the name instead —
        the stale worker's mapping stays valid until it drops its
        handle, and no future lease can collide with it.  Idempotent.
        """
        name = slot.name if isinstance(slot, PlaneSlot) else slot
        with self._lock:
            if self._closed or name not in self._leased:
                return
            self._leased.discard(name)
            self._unlink(name)

    def leaked(self) -> list[str]:
        """Names of slots leased but never released (in-flight or lost).

        Between batches this should be empty; a non-empty list after a
        batch completed means a code path dropped a slot (the killed-
        worker regression guards exactly that).  :meth:`close` unlinks
        these too.
        """
        with self._lock:
            return sorted(self._leased)

    # -- materialization ------------------------------------------------

    def resolve(self, ref: PlaneRef, copy: bool = True) -> np.ndarray:
        """Materialize the array a :class:`PlaneRef` points at.

        ``copy=True`` (the service default) returns an independent
        array — one ``memcpy``, after which the slot may be reused.
        ``copy=False`` returns a zero-copy view into the segment: valid
        only until the slot is released or the arena closed, the right
        choice when the caller immediately reduces the data (e.g.
        scattering segment planes into the merged grid).
        """
        with self._lock:
            shm = self._segments.get(ref.segment)
        if shm is None:
            raise ServiceError(
                f"plane ref names unknown segment {ref.segment!r}")
        view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                          buffer=shm.buf, offset=ref.offset)
        return view.copy() if copy else view

    # -- lifecycle ------------------------------------------------------

    @property
    def segments(self) -> int:
        """Segments currently backed by shared memory."""
        with self._lock:
            return len(self._segments)

    def _unlink(self, name: str) -> None:
        """Close and unlink one segment (lock held by caller)."""
        shm = self._segments.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass

    def close(self) -> None:
        """Unlink every segment — free, leased or orphaned; idempotent.

        Safe to call while workers that were filling slots have died:
        the arena's own handles are authoritative, no worker
        cooperation is needed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for name in list(self._segments):
                self._unlink(name)
            self._free.clear()
            self._leased.clear()

    def __del__(self) -> None:
        """Last-resort cleanup when the arena is garbage-collected."""
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "PlaneArena":
        """Context-manager entry: the arena itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: unlink everything."""
        self.close()

