"""The progressive decoder, pinned from outside (ISSUE 24).

``tests/data/progressive_outcomes.json`` holds what the functions below
returned at the commit *before* ``ProgressiveDecoder``'s three Huffman
scan loops were rewritten (the per-symbol ``SegmentedReader`` path):

- ``valid``: for every progressive cell of the scenario matrix, the
  perf ledger's progressive member and a grid of scan scripts the
  matrix lacks (restart interval 0 / 1 / 7, ``Al`` 0 / 1 / 2, one band
  or two, gray / YCbCr / YCCK, four samplings, a frame that is not a
  whole number of MCUs) — the sha1 of the stream, of the coefficient
  planes and of the pixels;
- ``hostile``: for two small streams (with and without restart
  markers) cut at every 7th byte and under 300 seeded single-bit
  flips — the strict outcome ``(ok | error type, message, units_done,
  scans_done)`` and the salvage result (pixels, ``error_map``,
  ``errors``), a short digest per case plus a readable histogram;
- ``foreign``: the one progressive JPEG on the box this repo's encoder
  did not write (``embedded-book/assets/f3.jpg`` of a rustup
  toolchain; skipped when absent, never committed).

The decoder under test must reproduce all of it.  Regenerate the file
(``python tests/test_progressive.py``) only at a commit whose
progressive decoder is trusted, and say so.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import scenario_corpus, synthetic_photo
from repro.errors import JpegError
from repro.jpeg import (DecodeOptions, EncoderSettings, decode_jpeg,
                        encode_jpeg, parse_jpeg)
from repro.jpeg.progressive import ProgressiveDecoder

REPO_ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).parent / "data" / "progressive_outcomes.json"
LEDGER_MEMBER = (REPO_ROOT / "benchmarks" / "perf" / "corpus"
                 / "http_progressive.jpg")
FOREIGN_GLOB = os.path.expanduser("~/.rustup/**/embedded-book/assets/f3.jpg")

LAYOUTS = (("gray", "4:4:4"), ("ycbcr", "4:4:4"), ("ycbcr", "4:2:2"),
           ("ycbcr", "4:2:0"), ("ycbcr", "4:1:1"), ("ycck", "4:2:0"))
SCRIPT_BANDS = {"1band": ((1, 63),), "2bands": ((1, 5), (6, 63))}


def sha1(*chunks: bytes) -> str:
    h = hashlib.sha1()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Valid streams.
# ---------------------------------------------------------------------------

def valid_streams() -> dict[str, bytes]:
    """Every valid progressive stream the pin covers, by name."""
    streams = {name: blob for name, blob in scenario_corpus(size=(96, 64))
               if name.startswith("progressive-")}
    streams["ledger-http_progressive"] = LEDGER_MEMBER.read_bytes()
    rgb = synthetic_photo(50, 77, seed=3)    # 77x50: no MCU multiple
    for cs, sub in LAYOUTS:
        for ri in (0, 1, 7):
            for al in (0, 1, 2):
                for tag, bands in SCRIPT_BANDS.items():
                    streams[f"script-{cs}-{sub}-ri{ri}-al{al}-{tag}"] = (
                        encode_jpeg(rgb, EncoderSettings(
                            subsampling=sub, colorspace=cs, progressive=True,
                            restart_interval=ri, point_transform=al,
                            bands=bands)))
    return streams


def valid_record(blob: bytes, engine: str = "fast") -> dict:
    """What a decode of a valid stream is pinned by."""
    out = decode_jpeg(blob, DecodeOptions(entropy_engine=engine))
    return {
        "stream": sha1(blob),
        "scans": len(out.info.scans),
        "planes": sha1(*(p.tobytes() for p in out.coefficients.planes)),
        "pixels": sha1(out.rgb.tobytes()),
    }


# ---------------------------------------------------------------------------
# Hostile streams.
# ---------------------------------------------------------------------------

def hostile_bases() -> dict[str, bytes]:
    """The two small streams the hostile cases are cut from: 56x40
    4:2:0 (luma's used grid 7x5 inside a padded 8x6), without and with
    restart markers."""
    rgb = synthetic_photo(40, 56, seed=11)
    return {
        "plain": encode_jpeg(rgb, EncoderSettings(
            subsampling="4:2:0", progressive=True)),
        "dri": encode_jpeg(rgb, EncoderSettings(
            subsampling="4:2:0", progressive=True, restart_interval=5)),
    }


def hostile_cases(blob: bytes):
    """``(case id, bytes for the strict decode, bytes for salvage)``:
    a cut at every 7th byte past the first SOS (the strict side gets an
    EOI appended so that it parses and the scan decoder sees the cut),
    then 300 seeded single-bit flips over the same range."""
    start = blob.index(b"\xff\xda")
    for cut in range(start + 14, len(blob) - 2, 7):
        yield f"cut{cut}", blob[:cut] + b"\xff\xd9", blob[:cut]
    rng = random.Random(24)
    for _ in range(300):
        bit = rng.randrange(start * 8, (len(blob) - 2) * 8)
        flipped = bytearray(blob)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        yield f"flip{bit}", bytes(flipped), bytes(flipped)


def strict_outcome(blob: bytes) -> tuple:
    """``(ok | error type, message | plane digest, units_done,
    scans_done)`` of a strict decode of *blob*."""
    try:
        info = parse_jpeg(blob)
    except JpegError as exc:
        return ("parse:" + type(exc).__name__, str(exc), 0, 0)
    if not info.progressive:
        return ("not-progressive", "", 0, 0)
    dec = ProgressiveDecoder(info)
    try:
        planes = dec.decode().planes
    except JpegError as exc:
        return (type(exc).__name__, str(exc), dec.units_done, dec.scans_done)
    return ("ok", sha1(*(p.tobytes() for p in planes)), dec.units_done,
            dec.scans_done)


def salvage_outcome(blob: bytes) -> tuple:
    """Digest of everything a salvage decode of *blob* reports."""
    try:
        out = decode_jpeg(blob, DecodeOptions(salvage=True))
    except JpegError as exc:
        return (type(exc).__name__, str(exc))
    if out.error_map is None:
        return ("no-map", sha1(out.rgb.tobytes()))
    return ("salvaged", sha1(out.rgb.tobytes(), out.error_map.tobytes(),
                             repr(out.errors).encode()))


def hostile_record(blob: bytes) -> dict:
    """Per-case digests of both outcomes, and how the strict ones
    spread over ``error type: message`` (readable, for a reviewer)."""
    cases, kinds = {}, {}
    for case, strict_bytes, salvage_bytes in hostile_cases(blob):
        strict = strict_outcome(strict_bytes)
        salvage = salvage_outcome(salvage_bytes)
        cases[case] = sha1(repr((strict, salvage)).encode())[:12]
        kind = strict[0] if strict[0] == "ok" else f"{strict[0]}: {strict[1]}"
        kinds[kind] = kinds.get(kind, 0) + 1
    return {"stream": sha1(blob), "cases": cases,
            "strict_kinds": dict(sorted(kinds.items()))}


# ---------------------------------------------------------------------------
# The foreign file.
# ---------------------------------------------------------------------------

def foreign_file() -> bytes | None:
    """``f3.jpg`` of the embedded book, from whichever rustup toolchain
    ships its docs; None when no toolchain on this box does."""
    for path in sorted(glob.glob(FOREIGN_GLOB, recursive=True)):
        return Path(path).read_bytes()
    return None


def foreign_record(blob: bytes, engine: str = "fast") -> dict:
    """A valid record plus the header facts this repo's encoder never
    produces: the frame size and the scan script."""
    info = parse_jpeg(blob)
    return {
        **valid_record(blob, engine),
        "size": [info.width, info.height],
        "script": [[len(si.header.components), si.header.ss, si.header.se,
                    si.header.ah, si.header.al] for si in info.scans],
    }


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


class TestPinnedOutcomes:
    def test_valid_streams_decode_to_the_pinned_planes_and_pixels(
            self, pinned):
        streams = valid_streams()
        assert sorted(streams) == sorted(pinned["valid"])
        for name, blob in streams.items():
            assert valid_record(blob) == pinned["valid"][name], name

    def test_hostile_streams_resolve_to_the_pinned_outcomes(self, pinned):
        for name, blob in hostile_bases().items():
            want = pinned["hostile"][name]
            got = hostile_record(blob)
            assert got["stream"] == want["stream"], \
                f"{name}: the encoder's output moved, the pin is void"
            wrong = [c for c in want["cases"]
                     if got["cases"].get(c) != want["cases"][c]]
            assert not wrong and len(got["cases"]) == len(want["cases"]), (
                name, wrong[:5],
                [(strict_outcome(s), salvage_outcome(v))
                 for c, s, v in hostile_cases(blob) if c in wrong[:2]])
            assert got["strict_kinds"] == want["strict_kinds"], name


class TestForeignFile:
    """ROADMAP "meet the outside world" (c), the progressive third: a
    stream with ``Al = 2`` first passes and a single ``1..63`` band."""

    @pytest.mark.parametrize("engine", ("fast", "reference"))
    def test_f3_matches_its_pinned_digest(self, pinned, engine):
        blob = foreign_file()
        if blob is None:
            pytest.skip("no rustup toolchain with the embedded book here")
        want = pinned["foreign"].get(sha1(blob))
        if want is None:
            pytest.skip("a different f3.jpg than the one pinned")
        assert want["size"] == [720, 477] and want["scans"] == 10
        assert foreign_record(blob, engine) == want


class TestInlineReader:
    def test_decode_makes_calls_per_scan_not_per_symbol(self):
        """The guard that cannot rot: under ``sys.setprofile`` a decode
        of the ledger's progressive member (14 scans, ~17 k symbols,
        ~20 k raw-bit reads) makes a few dozen Python-level calls per
        scan — table and window set-up, the careful symbols at the end
        of each scan — and none per symbol.  The per-symbol reader this
        replaced made 54,700."""
        info = parse_jpeg(LEDGER_MEMBER.read_bytes())
        ProgressiveDecoder(info).decode()      # tables and windows warm
        dec = ProgressiveDecoder(info)
        calls = []

        def count(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            dec.decode()
        finally:
            sys.setprofile(None)
        assert len(info.scans) == 14
        assert len(calls) <= 1000, sorted(
            {name: calls.count(name) for name in set(calls)}.items(),
            key=lambda kv: -kv[1])[:8]


class TestHostileArithmetic:
    def test_a_correction_below_int16_wraps(self):
        """The one outcome that differs from the pinned parent on
        purpose: a first pass can store -32768 (a size-15 magnitude
        shifted by ``Al``), and a correction bit then takes it one step
        further from zero.  The parent leaked numpy's ``OverflowError``
        out of ``decode_jpeg``; every other hostile store wraps, and so
        does this one."""
        from repro.jpeg.progressive import _apply_corrections

        plane = np.array([-32768, 5, -6, 0], dtype=np.int16)
        # bits 1, 1, 1 at payload bits 0..2: -32768 wraps, 5 already has
        # bit 0 set and stays, -6 moves away from zero.
        _apply_corrections(plane, np.array([0, 1, 2]), [0], [3],
                           bytes([0b1110_0000]), 0)
        assert plane.tolist() == [32767, 5, -7, 0]


def regenerate() -> None:
    """Rewrite the pin from the decoder in this checkout."""
    doc = {
        "valid": {name: valid_record(blob)
                  for name, blob in sorted(valid_streams().items())},
        "hostile": {name: hostile_record(blob)
                    for name, blob in hostile_bases().items()},
        "foreign": {},
    }
    blob = foreign_file()
    if blob is not None:
        doc["foreign"][sha1(blob)] = foreign_record(blob)
    PINNED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}: {len(doc['valid'])} valid streams, "
          f"{sum(len(h['cases']) for h in doc['hostile'].values())} "
          f"hostile cases, {len(doc['foreign'])} foreign file(s)")


if __name__ == "__main__":
    sys.exit(regenerate())
