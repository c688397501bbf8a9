"""Shared-memory plane transport: arena lifecycle, leak accounting
(including a killed worker mid-batch), the inode check on a reused fd
number, no residue after a SIGKILLed session, bit-identity of
shm-transported results against both engines' oracles with and without
a scheduler, and the N-producer session stress with shm enabled."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.jpeg import DecodeOptions, EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import (
    BatchDecoder,
    DecodeSession,
    ModelScheduler,
    WorkerPool,
)
from repro.service.tasks import ImageRequest, decode_image_task
from repro.service.transport import (
    PlaneArena,
    PlaneRef,
    PlaneSlot,
    packed_nbytes,
    publish_plane,
    publish_planes,
    resolve_transport,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="memfd shared memory unavailable")

ROOT = Path(__file__).resolve().parents[1]


def shm_files(prefix: str = "repro-") -> list[str]:
    """Residual /dev/shm entries created by this subsystem."""
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith(prefix))
    except FileNotFoundError:  # non-Linux: nothing to check
        return []


def fd_closed(slot: PlaneSlot) -> bool:
    """The arena's fd of *slot* is closed: the number is free, or was
    reused for another file."""
    try:
        return os.fstat(slot.fd).st_ino != slot.inode
    except OSError:
        return True


@pytest.fixture(scope="module")
def corpus(small_rgb, tiny_rgb):
    """Mixed corpus: subsampling modes, a DRI image, a tiny image."""
    return [
        encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:2:2")),
        encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:4:4", restart_interval=4)),
        encode_jpeg(tiny_rgb, EncoderSettings(
            quality=75, subsampling="4:2:0")),
    ]


@pytest.fixture(scope="module")
def sequential_rgbs(corpus):
    """Oracle: single-image sequential decodes of the corpus."""
    return [decode_jpeg(b).rgb for b in corpus]


class TestPlaneArena:
    def test_lease_release_reuse(self):
        with PlaneArena() as arena:
            slot = arena.lease(1000)
            assert slot.capacity >= 1000
            assert arena.leaked() == [slot]
            arena.release(slot)
            assert arena.leaked() == []
            again = arena.lease(500)
            assert again == slot  # ring reuse, not a new file
            assert arena.created == 1 and arena.reused == 1

    def test_discard_quarantines_instead_of_recycling(self):
        """Discarded slots are closed, never returned to the ring —
        the aborted-batch path where a stale worker may still write."""
        with PlaneArena() as arena:
            slot = arena.lease(1024)
            arena.discard(slot)
            assert arena.leaked() == []
            assert fd_closed(slot) and arena.segments == 0
            arena.discard(slot)  # idempotent
            fresh = arena.lease(1024)
            assert fresh.inode != slot.inode  # the file was not reused

    def test_release_is_idempotent(self):
        with PlaneArena() as arena:
            slot = arena.lease(10)
            arena.release(slot)
            arena.release(slot)          # no-op
            arena.release(slot._replace(inode=-1))  # unknown
            assert arena.leaked() == []
            assert arena.segments == 1

    def test_close_unlinks_everything_even_leased(self):
        arena = PlaneArena()
        leased = arena.lease(1024)
        freed = arena.lease(1024)
        arena.release(freed)
        assert arena.segments == 2
        assert not fd_closed(leased) and not fd_closed(freed)
        arena.close()
        assert fd_closed(leased) and fd_closed(freed)
        assert arena.segments == 0
        arena.close()  # idempotent
        with pytest.raises(ServiceError):
            arena.lease(1)

    def test_max_free_bounds_the_ring(self, monkeypatch):
        monkeypatch.setattr("repro.service.transport.MAX_FREE", 1)
        with PlaneArena() as arena:
            slots = [arena.lease(10) for _ in range(3)]
            for slot in slots:
                arena.release(slot)
            # one parked slot, the surplus closed immediately
            assert arena.segments == 1

    def test_publish_and_resolve_roundtrip(self):
        rng = np.random.default_rng(7)
        arr = rng.integers(0, 255, size=(40, 30, 3), dtype=np.uint8)
        with PlaneArena() as arena:
            slot = arena.lease(arr.nbytes)
            ref = publish_plane(slot, arr)
            assert ref.nbytes == arr.nbytes
            copy = arena.resolve(ref)
            view = arena.resolve(ref, copy=False)
            assert np.array_equal(copy, arr)
            assert np.array_equal(view, arr)
            # the copy is independent of the segment, the view is not
            view[0, 0, 0] ^= 0xFF
            assert not np.array_equal(arena.resolve(ref), copy) or \
                copy[0, 0, 0] == arr[0, 0, 0]

    def test_publish_planes_packs_with_alignment(self):
        planes = [np.full((5, 8, 8), i, dtype=np.int16) for i in range(3)]
        nbytes = packed_nbytes(p.nbytes for p in planes)
        with PlaneArena() as arena:
            slot = arena.lease(nbytes)
            refs = publish_planes(slot, planes)
            assert all(r.offset % 64 == 0 for r in refs)
            for ref, plane in zip(refs, planes):
                assert np.array_equal(arena.resolve(ref), plane)

    def test_publish_overflow_raises(self, monkeypatch):
        monkeypatch.setattr("repro.service.transport.GRANULARITY", 4096)
        with PlaneArena() as arena:
            slot = arena.lease(16)
            with pytest.raises(ServiceError):
                publish_plane(slot, np.zeros(slot.capacity + 1,
                                             dtype=np.uint8))

    def test_resolve_unknown_segment_raises(self):
        """A ref into a slot the arena has closed names nothing."""
        with PlaneArena() as arena:
            slot = arena.lease(16)
            arena.discard(slot)
            ref = PlaneRef(inode=slot.inode, offset=0, shape=(1,),
                           dtype="|u1")
            with pytest.raises(ServiceError):
                arena.resolve(ref)

    def test_publish_from_the_arena_process_roundtrips(self):
        """The ledger's transport probe publishes into slots of its own
        arena, in its own process: the second pass reuses the ring."""
        rng = np.random.default_rng(3)
        frames = [rng.integers(0, 255, size=(h, 40, 3), dtype=np.uint8)
                  for h in (30, 2300, 60)]
        with PlaneArena() as arena:
            for _ in range(2):
                for frame in frames:
                    slot = arena.lease(frame.nbytes)
                    assert slot.owner == os.getpid()
                    ref = publish_plane(slot, frame)
                    assert np.array_equal(arena.resolve(ref, copy=True),
                                          frame)
                    arena.release(slot)
            assert arena.created == 2 and arena.reused == 4
            assert arena.leaked() == []

    def test_reused_fd_number_is_refused_by_inode(self, corpus,
                                                  sequential_rgbs):
        """A slot whose fd number now names another file is refused: the
        publish raises, and a worker's reply falls back to pickling the
        very same pixels."""
        with PlaneArena() as arena, \
                WorkerPool(workers=1, backend="process") as pool:
            old = arena.lease(1 << 20)
            arena.discard(old)
            new = arena.lease(1 << 20)
            stale = old._replace(fd=new.fd)
            assert stale.inode != new.inode
            with pytest.raises(ServiceError):
                publish_plane(stale, np.zeros(8, dtype=np.uint8))
            request = ImageRequest(data=corpus[0])
            for reply in (decode_image_task(request, stale),
                          pool.submit(decode_image_task, request,
                                      stale).result(timeout=60)):
                assert reply.error is None
                assert isinstance(reply.planes, list)   # pickled, not refs
                assert np.array_equal(reply.planes[0], sequential_rgbs[0])
            # The file that took the fd number was never written.
            assert not arena.resolve(PlaneRef(
                inode=new.inode, offset=0, shape=(1 << 20,),
                dtype="|u1")).any()
            arena.release(new)


class TestTransportResolution:
    def test_pickle_always_allowed(self, no_shm):
        """A host without memfd shared memory keeps the pickle pipe,
        process pools included."""
        assert resolve_transport({"process"}) == "pickle"
        with BatchDecoder(workers=1, backend="process") as dec:
            assert dec.transport == "pickle" and dec.arena is None

    def test_auto_uses_shm_only_with_process_pools(self):
        assert resolve_transport({"process"}) == "shm"
        assert resolve_transport({"thread"}) == "pickle"
        assert resolve_transport({"serial"}) == "pickle"
        assert resolve_transport({"serial", "process"}) == "shm"

    def test_bad_config_spawns_no_pools(self):
        """Constructor validation fires before any pool exists, so a
        misconfigured decoder cannot leak worker processes."""
        with pytest.raises(ServiceError):
            BatchDecoder(backend="process", speculative="sometimes")
        with pytest.raises(ServiceError):
            BatchDecoder(backend="process", retry_budget=-1)


# ---------------------------------------------------------------------------
# Leak accounting under worker death.
# ---------------------------------------------------------------------------

def _sigkill_self(slot=None):
    """Module-level task: die exactly like a crashed/OOM-killed worker."""
    os.kill(os.getpid(), signal.SIGKILL)


class TestCrashSafety:
    def test_killed_worker_slot_is_reclaimed_and_unlinked(self):
        """A worker that dies holding a leased slot must not leak its
        segment: the pool breaks, the caller releases, close unlinks."""
        arena = PlaneArena()
        pool = WorkerPool(workers=1, backend="process")
        slot = arena.lease(4096)
        fut = pool.submit(_sigkill_self, slot)
        with pytest.raises(BaseException):
            fut.result(timeout=60)
        assert arena.leaked() == [slot]       # accounting sees the loss
        arena.release(slot)                   # the error-path reclaim
        assert arena.leaked() == []
        arena.close()
        pool.close()
        assert fd_closed(slot) and arena.segments == 0

    def test_sigkilled_session_leaves_no_residue(self, corpus):
        """SIGKILL a session's whole process group — parent, workers and
        any helper — while a slot is leased: a nameless file goes with
        its last holder, so /dev/shm gets no entry to leak."""
        before = shm_files()
        script = (
            "import sys, time\n"
            "from repro.service import DecodeSession\n"
            "data = open(sys.argv[1], 'rb').read()\n"
            "s = DecodeSession(workers=1, backend='process')\n"
            "assert s.submit(data, timeout=None).result(timeout=60).ok\n"
            "s.decoder.arena.lease(1 << 20)\n"
            "print(s.decoder.transport, flush=True)\n"
            "time.sleep(120)\n")
        blob = ROOT / "benchmarks/perf/corpus/small00.jpg"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", script, str(blob)],
                                stdout=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            assert proc.stdout.readline().strip() == "shm"
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
            proc.stdout.close()
        assert shm_files() == before

    def test_worker_killed_mid_batch_heals_and_leaves_no_segments(
            self, corpus, sequential_rgbs, shm_floor_zero):
        """Kill the pool's worker while it decodes a shm-transported
        batch: the decoder quarantines the dead worker's slots, rebuilds
        the pool in place and redispatches, so the batch still succeeds
        bit-identically — and every slot is released, with close()
        freeing the arena without residue."""
        dec = BatchDecoder(workers=1, backend="process")
        # Warm the pool and the ring with a healthy batch first.
        batch = dec.decode_batch([corpus[0]])
        assert batch.ok
        assert np.array_equal(batch.results[0].rgb, sequential_rgbs[0])
        assert dec.arena.leaked() == []
        pid = dec.pool.submit(os.getpid).result(timeout=60)

        killer = threading.Timer(0.05, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            result = dec.decode_batch([corpus[0], corpus[1]])
        finally:
            killer.cancel()
        # Self-healing (PR 6): whether the kill landed mid-decode or
        # between batches, every request resolves successfully — a
        # crash shows up as retries/pool rebuilds, never as a failed
        # result or a leaked segment.
        assert result.ok, [(r.error_type, r.error) for r in result]
        for res, want in zip(result, sequential_rgbs[:2]):
            assert np.array_equal(res.rgb, want)
        assert dec.arena.leaked() == []
        dec.close()
        assert dec.arena.leaked() == []
        assert not shm_files()

    def test_batch_completion_releases_every_slot(self, corpus,
                                                  shm_floor_zero,
                                                  fanout_always):
        """After any successful shm batch the ring holds zero leases —
        a fanned-out image's (alone on the pool) and a whole batch's."""
        with BatchDecoder(workers=2, backend="process") as dec:
            for group in ([corpus[1]], corpus[:2]):
                batch = dec.decode_batch(group)
                assert batch.ok
                assert dec.arena.leaked() == []
            assert dec.stats.images_split == 1
        assert not shm_files()


# ---------------------------------------------------------------------------
# Bit-identity matrix: engines x schedulers.
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("shm_floor_zero")
class TestShmBitIdentity:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_unscheduled(self, corpus, engine, fanout_always):
        """The corpus, then its DRI image alone on the pool (where it
        fans out), against the single-image decodes of either entropy
        engine."""
        blobs = corpus + [corpus[1]]
        oracle = [decode_jpeg(b, DecodeOptions(entropy_engine=engine)).rgb
                  for b in blobs]
        with BatchDecoder(workers=2, backend="process") as dec:
            assert dec.transport == "shm"
            results = list(dec.decode_batch(corpus))
            results += dec.decode_batch([corpus[1]]).results
            assert all(r.ok for r in results), \
                [(r.error_type, r.error) for r in results]
            assert results[-1].segments > 1  # DRI fan-out ran
            assert dec.stats.bytes_shm > 0
            for res, want in zip(results, oracle):
                assert np.array_equal(res.rgb, want)
            assert dec.arena.leaked() == []

    @pytest.mark.parametrize("policy", ["model", "roundrobin"])
    @pytest.mark.parametrize("layout", [None])
    def test_scheduled_lane_layouts(self, corpus, sequential_rgbs,
                                    policy, layout):
        """Scheduled batches stay bit-identical with shm transport: every
        local lane runs on the decoder's one pool."""
        with BatchDecoder(workers=2, backend="process",
                          scheduler=ModelScheduler(policy=policy)) as dec:
            assert dec.links == {}
            batch = dec.decode_batch(corpus)
            assert batch.ok, [(r.error_type, r.error) for r in batch]
            assert batch.schedule is not None
            for res, want in zip(batch, sequential_rgbs):
                assert np.array_equal(res.rgb, want)
            assert dec.arena.leaked() == []
        assert not shm_files()


# ---------------------------------------------------------------------------
# Transport stats plumbing.
# ---------------------------------------------------------------------------

class TestTransportStats:
    def test_bytes_moved_counters(self, corpus, shm_floor_zero,
                                  monkeypatch):
        # Whole-image accounting: pin speculative fan-out off so the
        # counters see exactly one image's pixel planes.
        with BatchDecoder(workers=2, backend="process",
                          speculative="off") as shm_dec:
            shm_dec.decode_batch([corpus[0]])
        # The same pool on a host without memfd shared memory.
        monkeypatch.setattr("repro.service.transport.shm_available",
                            lambda: False)
        with BatchDecoder(workers=2, backend="process",
                          speculative="off") as pickle_dec:
            pickle_dec.decode_batch([corpus[0]])
        rgb_bytes = decode_jpeg(corpus[0]).rgb.nbytes
        assert shm_dec.stats.bytes_shm == rgb_bytes
        assert shm_dec.stats.bytes_pickle == 0
        assert pickle_dec.stats.bytes_pickle == rgb_bytes
        assert pickle_dec.stats.bytes_shm == 0

    def test_session_snapshot_has_transport_and_lane_detail(self, corpus):
        scheduler = ModelScheduler(policy="model")
        with DecodeSession(backend="serial", scheduler=scheduler) as s:
            handles = [s.submit(blob) for blob in corpus]
            assert all(h.result(timeout=60).ok for h in handles)
            snap = s.stats_snapshot()
        assert snap["transport"]["mode"] == "pickle"  # serial default pool
        assert snap["per_host"] == {}        # no lane on another machine
        lanes = snap["per_executor"]
        assert lanes, "scheduled batch must report lane usage"
        for entry in lanes.values():
            # A local session's lanes report their measured busy time.
            assert entry["busy_s"] > 0
            assert not {"pool", "utilization"} & set(entry)

    def test_http_stats_surface_transport(self, corpus):
        """GET /stats (repro serve) carries the new transport keys."""
        import json
        from urllib.request import urlopen

        from repro.service import DecodeHTTPServer

        with DecodeHTTPServer(port=0, backend="serial") as server:
            thread = threading.Thread(target=server.serve_forever,
                                      kwargs={"max_requests": 1},
                                      daemon=True)
            thread.start()
            with urlopen(f"{server.url}/stats", timeout=30) as resp:
                snap = json.loads(resp.read())
            thread.join(timeout=30)
        assert "transport" in snap
        assert {"mode", "shm_bytes", "pickle_bytes"} <= set(snap["transport"])


# ---------------------------------------------------------------------------
# N-producer session stress with shm transport enabled.
# ---------------------------------------------------------------------------

class TestSessionStressShm:
    def test_many_producers_blocking_mode(self, corpus, sequential_rgbs,
                                          shm_floor_zero):
        """Concurrent producers over a small queue, process pool + shm:
        nothing lost, nothing duplicated, everything bit-identical."""
        producers, per_producer = 4, 6
        session = DecodeSession(queue_capacity=8, workers=2,
                                backend="process")
        assert session.decoder.transport == "shm"
        handles: dict[int, list] = {i: [] for i in range(producers)}

        def produce(k: int) -> None:
            for j in range(per_producer):
                blob = corpus[(k + j) % len(corpus)]
                handles[k].append(
                    (session.submit(blob, timeout=None), (k + j) % len(corpus)))

        threads = [threading.Thread(target=produce, args=(k,))
                   for k in range(producers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seen = set()
        for k in range(producers):
            assert len(handles[k]) == per_producer
            for handle, oracle_idx in handles[k]:
                result = handle.result(timeout=120)
                assert result.ok, (result.error_type, result.error)
                assert np.array_equal(result.rgb, sequential_rgbs[oracle_idx])
                assert result.request_id not in seen
                seen.add(result.request_id)
        assert len(seen) == producers * per_producer
        assert session.stats.bytes_shm > 0
        session.close()
        assert session.decoder.arena.leaked() == []
        # allow the ring unlinks to settle, then check the filesystem
        time.sleep(0.05)
        assert not shm_files()
