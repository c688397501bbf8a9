"""Zero-copy shared-memory plane transport for the decode service.

The paper's dispatch term ``Tdisp`` (Eq 5/6) prices moving decoded
planes between devices; the service's process backend pays the same
tax in a different currency — every worker pickles its full RGB array
back through the executor's result pipe.  This module removes the
serialization from that hop: workers write decoded planes into
shared-memory files the parent owns and send back only a tiny
:class:`PlaneRef` descriptor ``(inode, offset, shape, dtype)``; the
parent maps the same physical pages and materializes the array with at
most one ``memcpy`` (or none, with ``copy=False``).

Each slot is one nameless ``memfd_create`` file the parent keeps open.
A :class:`PlaneSlot` carries the owner's pid, the fd number, the file's
inode and its capacity; a worker maps the slot by opening
``/proc/<owner pid>/fd/<fd>``, after ``fstat`` shows the slot's inode
(a closed slot's fd number may name a new file).  A file nothing names
goes with the last process holding it, so there is nothing to unlink,
no resource-tracker process is ever started, and a crash leaves no
residue.  Linux only: elsewhere :func:`shm_available` is false and
results ride the pickle pipe.

- :class:`PlaneArena` — the parent side: a ring of reusable slots,
  leased per task, released on gather, all closed by
  :meth:`PlaneArena.close` even when a worker died mid-batch.
- :func:`publish_plane` / :func:`publish_planes` — the worker side:
  map the slot (cached per process by inode), copy the array(s) in,
  return descriptors.
- :func:`resolve_transport` / :func:`shm_available` — policy: ``shm``
  for a process-backend pool on a host where it works, pickle
  everywhere else.
"""

from __future__ import annotations

import mmap
import os
import threading
from typing import NamedTuple

import numpy as np

from ..errors import ServiceError

#: Slot capacities are rounded up to this granularity so a ring slot
#: leased for one image is reusable for the next similarly-sized one.
GRANULARITY = 256 * 1024

#: Free slots a :class:`PlaneArena` keeps parked for reuse; a release
#: beyond this closes the surplus slot's file instead of hoarding
#: shared memory under shifting traffic.
MAX_FREE = 32

#: Plane offsets inside a packed slot are aligned to this many bytes.
ALIGNMENT = 64

#: Payloads below this size stay on the pickle path even when shm is
#: active: a slot lease + worker mapping costs more than pickling a
#: few KB through the result pipe ever will.
SHM_MIN_BYTES = 32 * 1024

_shm_probe_result: bool | None = None


def _create_file(capacity: int) -> tuple[int, int, mmap.mmap]:
    """A new nameless shared-memory file of *capacity* bytes:
    ``(fd, inode, mapping)``.  The fd is close-on-exec; forked workers
    inherit it, as they inherit every other open fd of the parent."""
    fd = os.memfd_create("repro-plane")
    try:
        os.ftruncate(fd, capacity)
        return fd, os.fstat(fd).st_ino, mmap.mmap(fd, capacity)
    except BaseException:
        os.close(fd)
        raise


def _map_slot(slot: "PlaneSlot") -> mmap.mmap:
    """Map the file *slot* names, through its owner's fd table.

    Raises :class:`~repro.errors.ServiceError` when the fd number now
    holds another file (the arena closed the slot and the number was
    reused): one with another inode, or one with a name — inode numbers
    are per file system, and a nameless file has no links.  ``OSError``
    when the owner or the fd is gone.
    """
    fd = os.open(f"/proc/{slot.owner}/fd/{slot.fd}",
                 os.O_RDWR | os.O_NOCTTY)
    try:
        st = os.fstat(fd)
        if st.st_ino != slot.inode or st.st_nlink:
            raise ServiceError(
                f"fd {slot.fd} of process {slot.owner} no longer holds "
                f"plane file {slot.inode}")
        return mmap.mmap(fd, slot.capacity)
    finally:
        os.close(fd)


def shm_available() -> bool:
    """True when nameless shared memory demonstrably works on this host.

    Probed once per process: create a ``memfd_create`` file, map it
    back through ``/proc/<pid>/fd`` as a worker would, and close it.
    Any failure (no ``memfd_create`` off Linux, no readable ``/proc``,
    a sandbox refusing either) makes the service fall back to pickle
    transport.
    """
    global _shm_probe_result
    if _shm_probe_result is None:
        try:
            fd, inode, mapping = _create_file(mmap.PAGESIZE)
            mapping.close()
            try:
                _map_slot(PlaneSlot(owner=os.getpid(), fd=fd, inode=inode,
                                    capacity=mmap.PAGESIZE)).close()
            finally:
                os.close(fd)
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
    nothing to transport, and a host without nameless shared memory
    keeps the result pipe rather than failing a decode.
    """
    if "process" in set(backends) and shm_available():
        return "shm"
    return "pickle"


# ---------------------------------------------------------------------------
# Descriptors.
# ---------------------------------------------------------------------------

class PlaneRef(NamedTuple):
    """Where one decoded plane lives inside a slot: all a worker sends
    back over the result pipe, a few hundred bytes whatever the plane's
    size."""

    inode: int
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


class PlaneSlot(NamedTuple):
    """One leased ring slot a worker may write planes into: file *fd*
    of process *owner*, whose inode is *inode*."""

    owner: int
    fd: int
    inode: int
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

#: Per-process cache of slot mappings by inode (ring reuse makes the
#: same few recur; a mapping keeps its file, so no other file can take
#: the inode).  Bounded, oldest closed first, so a long-lived worker
#: does not pin pages of files the arena has long since closed.
_ATTACH_CACHE_MAX = 32
_attached: dict[int, mmap.mmap] = {}
_attached_lock = threading.Lock()


def _attach(slot: PlaneSlot) -> mmap.mmap:
    """This process's mapping of *slot*, cached by inode."""
    with _attached_lock:
        mapping = _attached.get(slot.inode)
        if mapping is not None:
            return mapping
        mapping = _map_slot(slot)
        while len(_attached) >= _ATTACH_CACHE_MAX:
            # FIFO eviction; process-pool workers run one task at a
            # time, so nothing can be mid-write in an evicted mapping.
            old = _attached.pop(next(iter(_attached)))
            try:
                old.close()
            except BufferError:
                pass
        _attached[slot.inode] = mapping
        return mapping


def publish_plane(slot: PlaneSlot, array: np.ndarray,
                  offset: int = 0) -> PlaneRef:
    """Write *array* into *slot* at *offset*; return its descriptor.

    Worker-side: one ``memcpy`` into the shared pages, no
    serialization.  Raises :class:`~repro.errors.ServiceError` when the
    slot cannot hold the plane or its fd no longer names its file —
    callers fall back to pickling the array instead of failing the
    decode.
    """
    array = np.ascontiguousarray(array)
    if offset + array.nbytes > slot.capacity:
        raise ServiceError(
            f"plane ({array.nbytes} B at offset {offset}) exceeds slot "
            f"{slot.inode} capacity ({slot.capacity} B)")
    dst = np.ndarray(array.shape, dtype=array.dtype, buffer=_attach(slot),
                     offset=offset)
    np.copyto(dst, array)
    return PlaneRef(inode=slot.inode, offset=offset,
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
    """Parent-side ring of reusable shared-memory slots.

    Slots are created on demand (capacity rounded up to
    :data:`GRANULARITY`), leased to exactly one in-flight task at a
    time, and returned to the free ring on release.  The arena holds
    the fd and a mapping of every slot it has not closed, which makes
    cleanup unconditional: :meth:`close` closes each one whether it is
    free or still leased to a task whose worker died.

    Thread-safe: the session pump, a
    :meth:`~repro.service.batch.BatchDecoder.decode_batch` caller and
    the gather loop may lease/release concurrently.
    """

    def __init__(self) -> None:
        """Create an empty arena."""
        self._lock = threading.Lock()
        self._maps: dict[int, mmap.mmap] = {}    # inode -> mapping
        self._free: list[PlaneSlot] = []         # LRU order
        self._leased: set[PlaneSlot] = set()
        self._closed = False
        #: Cumulative counters (observability): slots created, leases
        #: served from the ring.
        self.created = 0
        self.reused = 0

    # -- leasing --------------------------------------------------------

    def lease(self, nbytes: int) -> PlaneSlot:
        """Lease a slot holding at least *nbytes* bytes.

        Reuses the smallest adequate free slot, else creates a new one
        (capacity rounded up to the granularity).
        """
        if nbytes < 0:
            raise ServiceError(f"lease size must be >= 0, got {nbytes}")
        with self._lock:
            if self._closed:
                raise ServiceError("plane arena is closed")
            fits = [s for s in self._free if s.capacity >= nbytes]
            if fits:
                slot = min(fits, key=lambda s: s.capacity)
                self._free.remove(slot)
                self.reused += 1
            else:
                capacity = max(
                    GRANULARITY,
                    (nbytes + GRANULARITY - 1) // GRANULARITY * GRANULARITY)
                fd, inode, mapping = _create_file(capacity)
                self._maps[inode] = mapping
                slot = PlaneSlot(owner=os.getpid(), fd=fd, inode=inode,
                                 capacity=capacity)
                self.created += 1
            self._leased.add(slot)
            return slot

    def release(self, slot: PlaneSlot) -> None:
        """Return a leased slot to the free ring; idempotent.

        Releasing an unknown or already-free slot is a no-op — the
        gather loop's error paths may race a blanket cleanup.  Beyond
        :data:`MAX_FREE` parked slots, the released one is closed.
        """
        with self._lock:
            if self._closed or slot not in self._leased:
                return
            self._leased.discard(slot)
            if len(self._free) >= MAX_FREE:
                self._drop(slot)
            else:
                self._free.append(slot)

    def discard(self, slot: PlaneSlot) -> None:
        """Close a leased slot *without* returning it to the ring.

        The quarantine path: when a batch aborts while workers may
        still be writing into their leased slots, recycling them would
        let the *next* batch read a file a stale worker is
        mid-``memcpy`` into.  Discarding closes the arena's fd and
        mapping instead — the stale worker's own mapping stays valid
        until it drops it, and no future lease can get that file
        (a reused fd number holds a new inode).  Idempotent.
        """
        with self._lock:
            if self._closed or slot not in self._leased:
                return
            self._leased.discard(slot)
            self._drop(slot)

    def leaked(self) -> list[PlaneSlot]:
        """Slots leased but never released (in-flight or lost).

        Between batches this should be empty; a non-empty list after a
        batch completed means a code path dropped a slot (the killed-
        worker regression guards exactly that).  :meth:`close` frees
        these too.
        """
        with self._lock:
            return sorted(self._leased, key=lambda s: s.inode)

    # -- materialization ------------------------------------------------

    def resolve(self, ref: PlaneRef, copy: bool = True) -> np.ndarray:
        """Materialize the array a :class:`PlaneRef` points at.

        ``copy=True`` (the service default) returns an independent
        array — one ``memcpy``, after which the slot may be reused.
        ``copy=False`` returns a zero-copy view into the slot: valid
        only until the slot is released or the arena closed, the right
        choice when the caller immediately reduces the data (e.g.
        scattering segment planes into the merged grid).
        """
        with self._lock:
            mapping = self._maps.get(ref.inode)
        if mapping is None:
            raise ServiceError(
                f"plane ref names no open slot (inode {ref.inode})")
        view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                          buffer=mapping, offset=ref.offset)
        return view.copy() if copy else view

    # -- lifecycle ------------------------------------------------------

    @property
    def segments(self) -> int:
        """Slots currently backed by an open shared-memory file."""
        with self._lock:
            return len(self._maps)

    def _drop(self, slot: PlaneSlot) -> None:
        """Close one slot's mapping and fd (lock held by caller).  A
        mapping a zero-copy view still exports stays mapped until the
        view is collected; the file goes with the last holder."""
        mapping = self._maps.pop(slot.inode)
        try:
            mapping.close()
        except BufferError:
            pass
        os.close(slot.fd)

    def close(self) -> None:
        """Close every slot — free, leased or orphaned; idempotent.

        Safe to call while workers that were filling slots have died:
        the arena's own fds are authoritative, no worker cooperation
        is needed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for slot in self._free + list(self._leased):
                self._drop(slot)
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
        """Context-manager exit: close every slot."""
        self.close()
