"""The knob ratchet: how many values a caller can set on the batch
decoder, the session, a request, the CLI, the codec's decode options
and the paper-model decoder, plus how many names ``repro.service``
exports (one joins only when code outside the tests imports it).

The paper's runtime places work from what it can measure (the profiled
platform, the image's entropy and size) and asks the operator for
nothing.  A setting that no caller varies is not a knob but a constant,
so these counts only go down: a new one needs two callers outside the
tests that want different values, and removing one lowers its count
here (the same way CI's line ratchet holds ``src/repro/service``)."""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

import repro.cli
import repro.service
from repro.core import HeterogeneousDecoder
from repro.jpeg import DecodeOptions
from repro.service import BatchDecoder, DecodeSession, ImageRequest

RULE = ("a new knob needs two non-test callers that want different "
        "values; a removed one lowers this count")


def _parameters(fn) -> int:
    """Parameters of *fn*, ``self`` excluded."""
    return len(inspect.signature(fn).parameters) - 1


def _fields(record: type) -> int:
    """Fields a caller can set on *record*: its constructor's
    parameters, whatever its spelling (dataclass, named tuple or plain
    class)."""
    return len(inspect.signature(record).parameters)


#: What is counted -> (how to count it, the pinned count).
COUNTS = {
    "BatchDecoder.__init__ parameters":
        (lambda: _parameters(BatchDecoder.__init__), 6),
    "DecodeSession.__init__ parameters":
        (lambda: _parameters(DecodeSession.__init__), 10),
    "ImageRequest fields": (lambda: _fields(ImageRequest), 6),
    "cli.py add_argument calls":
        (lambda: Path(repro.cli.__file__).read_text().count(".add_argument("),
         50),
    "DecodeOptions fields": (lambda: _fields(DecodeOptions), 4),
    "HeterogeneousDecoder fields": (lambda: _fields(HeterogeneousDecoder), 4),
    # What front ends construct and what the API returns; every other
    # name is imported from its own module.
    "repro.service.__all__ names": (lambda: len(repro.service.__all__), 18),
}


@pytest.mark.parametrize("what", list(COUNTS))
def test_knob_count(what):
    count, pinned = COUNTS[what]
    got = count()
    assert got == pinned, f"{what}: {got}, pinned at {pinned}: {RULE}"
