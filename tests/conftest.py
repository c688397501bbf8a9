"""Shared fixtures: small deterministic images, encoded corpora and
profiled decoders, cached per session to keep the suite fast."""

from __future__ import annotations

import math
from time import perf_counter, sleep

import numpy as np
import pytest
from hypothesis import settings

from repro.core import HeterogeneousDecoder
from repro.data import synthetic_photo, synthetic_smooth
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.evaluation import platforms
from repro.service import (
    DecodeSession,
    FaultPlan,
    ImageRequest,
    ModelScheduler,
)
from repro.service.session import DISPATCH_DEPTH

#: ``pytest --hypothesis-profile=deep``: 20x the default profile's
#: examples per property (CI fuzzes the entropy engine's parity with it).
settings.register_profile("deep", max_examples=20 * 100)

#: Seconds each dispatch on a browned-out lane sleeps first.
STALL_S = 0.5


@pytest.fixture(scope="session")
def small_rgb() -> np.ndarray:
    """A 96x144 photo-like image (not block-aligned on purpose)."""
    return synthetic_photo(96, 144, seed=42, detail=0.6)


@pytest.fixture(scope="session")
def tiny_rgb() -> np.ndarray:
    """A 24x40 image for the cheapest end-to-end paths."""
    return synthetic_photo(24, 40, seed=1, detail=0.4)


@pytest.fixture(scope="session")
def smooth_rgb() -> np.ndarray:
    return synthetic_smooth(64, 64, seed=3)


@pytest.fixture(scope="session", params=["4:4:4", "4:2:2"])
def subsampling(request) -> str:
    """The two modes the paper evaluates."""
    return request.param


@pytest.fixture(scope="session")
def jpeg_422(small_rgb) -> bytes:
    return encode_jpeg(small_rgb, EncoderSettings(quality=85, subsampling="4:2:2"))


@pytest.fixture(scope="session")
def jpeg_444(small_rgb) -> bytes:
    return encode_jpeg(small_rgb, EncoderSettings(quality=85, subsampling="4:4:4"))


@pytest.fixture(scope="session")
def ref_rgb_422(jpeg_422) -> np.ndarray:
    return decode_jpeg(jpeg_422).rgb


@pytest.fixture(scope="session")
def ref_rgb_444(jpeg_444) -> np.ndarray:
    return decode_jpeg(jpeg_444).rgb


@pytest.fixture(scope="session")
def gtx560_decoder() -> HeterogeneousDecoder:
    """A profiled decoder on the mid-range platform (models cached
    process-wide, so this is cheap after first use)."""
    return HeterogeneousDecoder.for_platform(platforms.GTX560)


@pytest.fixture()
def shm_floor_zero(monkeypatch):
    """Every reply rides a shared-memory slot, however small (the
    service pickles payloads under ``SHM_MIN_BYTES`` otherwise)."""
    monkeypatch.setattr("repro.service.batch.SHM_MIN_BYTES", 0)


@pytest.fixture()
def no_backoff(monkeypatch):
    """Re-dispatch after a worker crash without the back-off sleep."""
    monkeypatch.setattr("repro.service.batch.RETRY_BACKOFF_S", 0.0)


@pytest.fixture()
def no_shm(monkeypatch):
    """A host without memfd shared memory: replies ride the pickle
    pipe even from process pools."""
    monkeypatch.setattr("repro.service.transport.shm_available",
                        lambda: False)


@pytest.fixture()
def fanout_always(monkeypatch):
    """Every fan-out candidate is predicted to pay.  The image still
    needs a parallel pool with room — more workers than whole images
    in flight — to fan out."""
    monkeypatch.setattr("repro.service.scheduler.FANOUT_FIXED_US", 0.0)


@pytest.fixture()
def fanout_never(monkeypatch):
    """No fan-out is predicted to pay: images decode whole unless the
    decoder's ``speculative="on"`` forces a marker-free scan's chunks."""
    monkeypatch.setattr("repro.service.scheduler.FANOUT_FIXED_US", math.inf)


def _stalled_session(workers: int = 1, **session_kwargs) -> DecodeSession:
    """A scheduled session (one worker by default) whose every lane is
    browned out: each dispatch sleeps :data:`STALL_S` before it decodes."""
    scheduler = ModelScheduler()
    lanes = {lane.name: STALL_S for lane in scheduler.executors}
    return DecodeSession(workers=workers, backend="thread",
                         scheduler=scheduler,
                         faults=FaultPlan(delay_lanes=lanes),
                         **session_kwargs)


def _held_session(blob: "bytes | ImageRequest", **session_kwargs):
    """A stalled session whose in-flight window is held: two requests
    for *blob* (one per ``DISPATCH_DEPTH`` slot of its one worker) are
    admitted and decode for about a second, so what is submitted next
    stays queued.  Returns ``(session, blockers)``."""
    session = _stalled_session(**session_kwargs)
    blockers = [session.submit(blob, timeout=None)
                for _ in range(DISPATCH_DEPTH)]
    give_up = perf_counter() + 10
    while session.pending:
        if perf_counter() > give_up:
            session.close(drain=False)
            raise AssertionError("the pump never admitted the blockers")
        sleep(0.005)
    return session, blockers


@pytest.fixture()
def stalled_session():
    """Factory of :func:`_stalled_session` (the caller closes it)."""
    return _stalled_session


@pytest.fixture()
def held_session():
    """Factory of :func:`_held_session` (the caller closes it)."""
    return _held_session


@pytest.fixture(scope="session")
def gt430_decoder() -> HeterogeneousDecoder:
    return HeterogeneousDecoder.for_platform(platforms.GT430)


@pytest.fixture(scope="session")
def gtx680_decoder() -> HeterogeneousDecoder:
    return HeterogeneousDecoder.for_platform(platforms.GTX680)
