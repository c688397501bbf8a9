"""The hostile-input scenario matrix (PR 8 headline).

A differential harness sweeping the full decode scenario space —
``{baseline, progressive} x {gray, 3-comp YCbCr, 4-comp YCCK} x
{4:4:4, 4:2:2, 4:2:0, 4:1:1, 4:4:0} x {valid, truncated, bit-flipped,
stray-marker}`` — across entropy engines, batch backends and the
salvage path, asserting:

- **valid** cells decode pixel-identically everywhere: progressive
  streams match their baseline twin (same quantized coefficients, so
  the reconstruction must agree bit-for-bit), both entropy engines
  agree, and the batch service reproduces the sequential oracle;
- **hostile** cells fail identically across engines (same exception
  type and message) or agree on the pixels — and under salvage resolve
  deterministically to a best-effort image plus an error-region map,
  never a hang, a worker crash, or a silent divergence.

Satellites live here too: the named unsupported-SOF matrix (one case
per marker 0xC0-0xCF), property tests of the parent's one header read
(``read_header``, a walk to the first SOS header: fuzzed bytes and
broken frame headers are ``None``, never an exception, and a readable
stream agrees with the full parse on every frame-level fact), the
lease every cell gets from that read, and salvage routed identically
with and without a scheduler.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import scenario_corpus
from repro.errors import (
    JpegError,
    JpegFormatError,
    JpegUnsupportedError,
    ReproError,
)
from repro.jpeg import (
    DecodeOptions,
    EncoderSettings,
    decode_jpeg,
    encode_jpeg,
    parse_jpeg,
)
from repro.jpeg import constants as C
from repro.jpeg.markers import walk_header
from repro.service import BatchDecoder, ImageRequest
from repro.service.transport import shm_available
from repro.service.tasks import read_header

# ---------------------------------------------------------------------------
# The corpus: every valid cell of the scenario space, plus hostile
# mutators applied per-cell.  96x64 keeps a full sweep cheap.
# ---------------------------------------------------------------------------

ENGINES = ("fast", "reference")
LEDGER_CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "perf" / "corpus"
HOSTILE_KINDS = ("truncated", "bit-flipped", "stray-marker")


@pytest.fixture(scope="module")
def corpus() -> dict[str, bytes]:
    return dict(scenario_corpus(size=(96, 64)))


@pytest.fixture(scope="module")
def oracles(corpus) -> dict[str, np.ndarray]:
    """Sequential fast-engine decode of every valid member."""
    return {name: decode_jpeg(blob).rgb for name, blob in corpus.items()}


def _entropy_start(blob: bytes) -> int:
    """Offset of the first entropy-coded byte (just past the first SOS)."""
    sos = blob.find(bytes([0xFF, C.SOS]))
    assert sos > 0
    length = struct.unpack(">H", blob[sos + 2:sos + 4])[0]
    return sos + 2 + length


def hostile_variant(blob: bytes, kind: str) -> bytes:
    """Deterministically corrupt *blob* inside its entropy-coded data."""
    start = _entropy_start(blob)
    if kind == "truncated":
        cut = start + (len(blob) - start) * 3 // 5
        return blob[:cut]
    if kind == "bit-flipped":
        pos = start + (len(blob) - start) // 3
        mutated = bytearray(blob)
        mutated[pos] ^= 0x40
        return bytes(mutated)
    if kind == "stray-marker":
        pos = start + (len(blob) - start) // 2
        return blob[:pos] + bytes([0xFF, 0xD3]) + blob[pos:]
    raise AssertionError(kind)


def outcome(blob: bytes, engine: str):
    """Decode result as comparable data: pixels or (type, message)."""
    try:
        return decode_jpeg(blob, DecodeOptions(entropy_engine=engine)).rgb
    except JpegError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_outcome(a, b, context: str) -> None:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        assert np.array_equal(a, b), f"pixel divergence: {context}"
    else:
        assert a == b, f"outcome divergence: {context}: {a} vs {b}"


# ---------------------------------------------------------------------------
# Valid cells.
# ---------------------------------------------------------------------------

class TestValidMatrix:
    def test_corpus_covers_the_matrix(self, corpus):
        """11 layout cells x 2 codings, with gray collapsed to 4:4:4."""
        assert len(corpus) == 22
        for coding in ("baseline", "progressive"):
            for cs, subs in (("gray", ["4:4:4"]),
                             ("ycbcr", ["4:4:4", "4:2:2", "4:2:0",
                                        "4:1:1", "4:4:0"]),
                             ("ycck", ["4:4:4", "4:2:2", "4:2:0",
                                       "4:1:1", "4:4:0"])):
                for sub in subs:
                    assert f"{coding}-{cs}-{sub}-96x64-q85" in corpus

    def test_header_facts_match_the_recipe(self, corpus):
        ncomp = {"gray": 1, "ycbcr": 3, "ycck": 4}
        for name, blob in corpus.items():
            coding, cs, sub = name.split("-")[:3]
            info = parse_jpeg(blob)
            assert info.progressive == (coding == "progressive"), name
            assert len(info.frame.components) == ncomp[cs], name
            assert info.subsampling_mode == sub, name
            assert len(info.scans) == (1 if coding == "baseline"
                                       else 2 + 4 * ncomp[cs]), name
            assert (info.width, info.height) == (96, 64), name

    def test_progressive_matches_baseline_twin(self, corpus, oracles):
        """The tentpole contract: a progressive re-encode carries the
        same quantized coefficients as its baseline twin, so the two
        decodes must agree on every pixel."""
        for name, rgb in oracles.items():
            if not name.startswith("progressive-"):
                continue
            twin = oracles["baseline" + name[len("progressive"):]]
            assert np.array_equal(rgb, twin), name

    def test_engine_parity(self, corpus, oracles):
        for name, blob in corpus.items():
            ref = decode_jpeg(
                blob, DecodeOptions(entropy_engine="reference")).rgb
            assert np.array_equal(ref, oracles[name]), name

    def test_salvage_is_a_no_op_on_valid_input(self, corpus, oracles):
        for name, blob in corpus.items():
            decoded = decode_jpeg(blob, DecodeOptions(salvage=True))
            assert not decoded.salvaged, name
            assert not decoded.errors, name
            assert np.array_equal(decoded.rgb, oracles[name]), name

    def test_batch_backends_reproduce_the_oracle(self, corpus, oracles):
        names = sorted(corpus)
        for backend in ("serial", "thread"):
            with BatchDecoder(workers=2, backend=backend) as dec:
                batch = dec.decode_batch(
                    [ImageRequest(data=corpus[n], request_id=n)
                     for n in names])
            for res in batch:
                assert res.ok, (backend, res.request_id, res.error)
                assert res.segments == 1  # nothing in the matrix splits
                assert np.array_equal(res.rgb, oracles[res.request_id]), \
                    (backend, res.request_id)

    def test_process_pool_with_transport(self, corpus, oracles):
        """One process-backed sweep over a cross-coding subset: the
        worker boundary (pickle or shm transport) must not disturb any
        scenario's pixels."""
        names = ["baseline-ycck-4:1:1-96x64-q85",
                 "progressive-ycck-4:1:1-96x64-q85",
                 "progressive-gray-4:4:4-96x64-q85",
                 "progressive-ycbcr-4:4:0-96x64-q85"]
        with BatchDecoder(workers=2, backend="process") as dec:
            batch = dec.decode_batch(
                [ImageRequest(data=corpus[n], request_id=n) for n in names])
        for res in batch:
            assert res.ok, (res.request_id, res.error)
            assert np.array_equal(res.rgb, oracles[res.request_id]), \
                res.request_id


# ---------------------------------------------------------------------------
# Hostile cells.
# ---------------------------------------------------------------------------

class TestHostileMatrix:
    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    def test_engines_agree_on_every_hostile_cell(self, corpus, kind):
        """Each hostile cell either fails with the identical exception
        in both engines or decodes to identical pixels."""
        for name, blob in corpus.items():
            bad = hostile_variant(blob, kind)
            assert_same_outcome(outcome(bad, "fast"),
                                outcome(bad, "reference"),
                                f"{name}/{kind}")

    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    def test_hostile_outcomes_are_deterministic(self, corpus, kind):
        for name, blob in corpus.items():
            bad = hostile_variant(blob, kind)
            assert_same_outcome(outcome(bad, "fast"), outcome(bad, "fast"),
                                f"{name}/{kind} (repeat)")

    def test_truncation_salvage_recovers_leading_rows(self, corpus):
        """Truncated streams strict-fail but salvage to a full-size
        image with a deterministic error report; the error map condemns
        a (possibly empty) trailing region, never the whole frame's
        leading rows."""
        for name, blob in corpus.items():
            bad = hostile_variant(blob, "truncated")
            with pytest.raises(JpegError):
                decode_jpeg(bad)
            first = decode_jpeg(bad, DecodeOptions(salvage=True))
            again = decode_jpeg(bad, DecodeOptions(salvage=True))
            info = parse_jpeg(blob)
            geo = info.geometry
            assert first.salvaged and first.errors, name
            assert first.rgb.shape == (64, 96, 3), name
            assert first.error_map.shape == (geo.mcu_rows,
                                             geo.mcus_per_row), name
            assert first.errors == again.errors, name
            assert np.array_equal(first.error_map, again.error_map), name
            assert np.array_equal(first.rgb, again.rgb), name

    @pytest.mark.parametrize("kind", ("bit-flipped", "stray-marker"))
    def test_salvage_never_raises_on_entropy_damage(self, corpus, kind):
        """In-scan corruption always resolves under salvage: full-size
        pixels plus either a clean map (the flip landed harmlessly) or
        recorded errors."""
        for name, blob in corpus.items():
            bad = hostile_variant(blob, kind)
            decoded = decode_jpeg(bad, DecodeOptions(salvage=True))
            assert decoded.rgb.shape == (64, 96, 3), name
            assert decoded.salvaged == bool(decoded.errors), name

    def test_forced_fanout_agrees_with_the_oracle(self, corpus,
                                                  fanout_always):
        """Every baseline cell, valid and hostile (plus a scan cut
        short with its EOI kept), through forced fan-out — each alone
        on the pool, where every fan-out pays: the sequential oracle's
        pixels, or its exact error."""
        cells = {name: blob for name, blob in corpus.items()
                 if name.startswith("baseline")}
        items = []
        for name, blob in cells.items():
            start = _entropy_start(blob)
            cut = start + (len(blob) - start) * 3 // 5
            variants = [blob, blob[:cut] + blob[-2:]]
            variants += [hostile_variant(blob, kind)
                         for kind in HOSTILE_KINDS]
            items += [(f"{name}/{i}", v) for i, v in enumerate(variants)]
        with BatchDecoder(workers=3, backend="thread") as dec:
            results = [dec.decode_batch([v]).results[0] for _, v in items]
        fanned = 0
        for (context, blob), res in zip(items, results):
            got = res.rgb if res.ok else (res.error_type, res.error)
            assert_same_outcome(got, outcome(blob, "fast"), context)
            fanned += res.segments > 1
        assert fanned >= 2 * len(cells), "fan-out never engaged"

    def test_hostile_cells_fail_alone_in_a_batch(self, corpus, oracles):
        """One corrupt member never disturbs its batchmates."""
        good = "baseline-ycbcr-4:2:0-96x64-q85"
        prog = "progressive-ycck-4:2:2-96x64-q85"
        bad = hostile_variant(corpus[prog], "truncated")
        with BatchDecoder(workers=2, backend="thread") as dec:
            batch = dec.decode_batch([
                ImageRequest(data=corpus[good], request_id="good"),
                ImageRequest(data=bad, request_id="bad"),
                ImageRequest(data=corpus[prog], request_id="prog"),
            ])
        by_id = {r.request_id: r for r in batch}
        assert by_id["good"].ok and by_id["prog"].ok
        assert not by_id["bad"].ok
        assert by_id["bad"].error_type and by_id["bad"].error
        assert not by_id["bad"].infra_failure  # bad bytes, not bad lanes
        assert np.array_equal(by_id["good"].rgb, oracles[good])
        assert np.array_equal(by_id["prog"].rgb, oracles[prog])


# ---------------------------------------------------------------------------
# Satellite: the named unsupported-SOF matrix, one case per 0xC0-0xCF.
# ---------------------------------------------------------------------------

def _with_sof_marker(blob: bytes, marker: int) -> bytes:
    idx = blob.find(bytes([0xFF, C.SOF0]))
    assert idx > 0
    mutated = bytearray(blob)
    mutated[idx + 1] = marker
    return bytes(mutated)


class TestSofMarkerMatrix:
    @pytest.fixture(scope="class")
    def baseline(self, tiny_rgb) -> bytes:
        return encode_jpeg(tiny_rgb, EncoderSettings(quality=80))

    def test_c0_baseline_accepted(self, baseline):
        assert parse_jpeg(baseline).progressive is False

    def test_c2_progressive_marker_demands_progressive_scans(self, baseline):
        """SOF2 is supported, but stamping it onto a baseline stream
        leaves an SOS whose spectral band is illegal for progressive."""
        with pytest.raises(JpegFormatError,
                           match="mixes DC and AC coefficients"):
            parse_jpeg(_with_sof_marker(baseline, C.SOF2))

    def test_c4_dht_in_sof_position_is_a_format_error(self, baseline):
        """0xC4 is DHT: the frame header bytes misparse as a Huffman
        table (or the stream ends frameless) — a format error, never an
        'unsupported mode' claim."""
        with pytest.raises(JpegFormatError):
            parse_jpeg(_with_sof_marker(baseline, C.DHT))

    def test_c8_jpg_reserved_marker_rejected(self, baseline):
        with pytest.raises(JpegFormatError, match="0xFFC8"):
            parse_jpeg(_with_sof_marker(baseline, C.JPG))

    def test_cc_dac_named_arithmetic_conditioning(self, baseline):
        with pytest.raises(JpegUnsupportedError,
                           match="arithmetic coding conditioning"):
            parse_jpeg(_with_sof_marker(baseline, C.DAC))

    @pytest.mark.parametrize("marker", sorted(C.UNSUPPORTED_SOF))
    def test_unsupported_sof_errors_are_named(self, baseline, marker):
        """Every refused SOF says *what* mode was refused and which
        marker carried it."""
        with pytest.raises(JpegUnsupportedError) as exc_info:
            parse_jpeg(_with_sof_marker(baseline, marker))
        message = str(exc_info.value)
        assert C.SOF_MODE_NAMES[marker] in message
        assert f"0xFF{marker:02X}" in message


# ---------------------------------------------------------------------------
# Satellite: the parent's one header read (``read_header``) over fuzzed
# bytes and broken frame headers — None, never an exception: the worker
# reports the precise error, nothing is priced, fanned out or leased.
# ---------------------------------------------------------------------------

SOF_MARKERS = sorted(frozenset(range(0xC0, 0xD0)) - {0xC4, 0xC8, 0xCC})


def _sof_segment(marker: int, width: int, height: int, ncomp: int) -> bytes:
    payload = struct.pack(">BHHB", 8, height, width, ncomp)
    for i in range(ncomp):
        payload += bytes([i + 1, 0x11, 0])
    return bytes([0xFF, marker]) + struct.pack(">H", 2 + len(payload)) \
        + payload


def _junk_segments(blobs: list[bytes]) -> bytes:
    """APPn/COM segments wrapping arbitrary payloads."""
    out = b""
    for i, payload in enumerate(blobs):
        marker = 0xE0 + (i % 16) if i % 2 else 0xFE  # APPn / COM
        out += bytes([0xFF, marker]) \
            + struct.pack(">H", 2 + len(payload)) + payload
    return out


class TestReadHeaderProperties:
    @settings(max_examples=40, deadline=None)
    @given(junk=st.lists(st.binary(max_size=64), max_size=4),
           salvage=st.booleans())
    def test_no_frame_means_none(self, junk, salvage):
        blob = b"\xff\xd8" + _junk_segments(junk) + b"\xff\xd9"
        assert read_header(ImageRequest(data=blob, salvage=salvage)) is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=256), salvage=st.booleans())
    def test_arbitrary_bytes_never_raise(self, data, salvage):
        for blob in (data, b"\xff\xd8" + data):
            info = read_header(ImageRequest(data=blob, salvage=salvage))
            assert info is None or (info.width > 0 and info.height > 0)

    @settings(max_examples=40, deadline=None)
    @given(marker=st.sampled_from(SOF_MARKERS), cut=st.integers(0, 16),
           junk=st.lists(st.binary(max_size=64), max_size=4))
    def test_truncated_header_is_none_not_an_exception(self, marker, cut,
                                                       junk):
        """A frame header with no scan behind it — whole or cut short,
        any SOF flavor — is a stream the parser rejects."""
        blob = b"\xff\xd8" + _junk_segments(junk) \
            + _sof_segment(marker, 96, 64, 3)
        assert read_header(ImageRequest(data=blob[:len(blob) - cut])) \
            is None

    def test_table_markers_are_not_frames(self):
        """0xC4/0xC8/0xCC carry tables, not frame headers: a stream
        holding only those has no header to read."""
        for marker in (0xC4, 0xC8, 0xCC):
            blob = b"\xff\xd8" + _sof_segment(marker, 96, 64, 3)
            assert read_header(ImageRequest(data=blob)) is None

    def test_garbage_returns_none(self, corpus):
        blob = corpus["baseline-ycbcr-4:2:0-96x64-q85"]
        for bad in (b"", b"\x00" * 64, blob[:8], b"\xff\xd8\xff\xd9"):
            assert read_header(ImageRequest(data=bad)) is None

    def test_reads_what_the_worker_will_parse(self, corpus):
        """The walk stops at the first SOS header, so a stream truncated
        inside its scan reads the same frame, strict or salvage: the
        damage is its worker's to report."""
        for name, blob in corpus.items():
            info = read_header(ImageRequest(data=blob))
            assert (info.width, info.height) == (96, 64), name
            cut = hostile_variant(blob, "truncated")
            for salvage in (False, True):
                assert read_header(ImageRequest(data=cut, salvage=salvage)) \
                    == info._replace(file_size=len(cut)), name

    def test_walk_agrees_with_the_full_parse(self, corpus):
        """Every frame-level fact the walk reads is the one ``parse_jpeg``
        reads, on every valid matrix cell and every ledger corpus file."""
        blobs = dict(corpus)
        blobs.update((p.name, p.read_bytes())
                     for p in sorted(LEDGER_CORPUS.glob("*.jpg")))
        assert len(blobs) == 22 + 54
        for name, blob in blobs.items():
            info, header = parse_jpeg(blob), walk_header(blob)
            assert header.frame == info.frame, name
            assert header.restart_interval \
                == info.scans[0].restart_interval == info.restart_interval
            assert header.file_size == info.file_size == len(blob), name
            assert header.adobe_transform == info.adobe_transform, name
            assert header.progressive == info.progressive, name
            assert header.geometry == info.geometry, name
            assert header.file_density == info.file_density, name


def _first_scan_offset(blob: bytes) -> int:
    """Offset just past the first SOS header of a valid, fill-free
    stream."""
    pos = 2
    while blob[pos + 1] != C.SOS:
        pos += 2 + struct.unpack_from(">H", blob, pos + 2)[0]
    return pos + 2 + struct.unpack_from(">H", blob, pos + 2)[0]


def _or_none(read, blob: bytes):
    """``read(blob)``, or None when it raises a ``ReproError``; any
    other exception propagates."""
    try:
        return read(blob)
    except ReproError:
        return None


@pytest.fixture(scope="module")
def undamaged(corpus) -> list[bytes]:
    """Every valid matrix cell, and two small ledger files whose frames
    carry a restart interval (no matrix cell does)."""
    return [blob for _, blob in sorted(corpus.items())] + [
        (LEDGER_CORPUS / name).read_bytes()
        for name in ("small05.jpg", "small20.jpg")]


EDITS = st.lists(st.tuples(st.sampled_from(("set", "insert", "delete", "cut")),
                           st.integers(0, 1 << 20), st.integers(0, 255)),
                 min_size=1, max_size=3)


class TestOneWalk:
    """``walk_header`` and ``parse_jpeg`` take the same segment walk, so
    on any damage to a valid stream's header they agree: a parse that
    succeeds (strict or tolerant) has a walk that reads its frame, a
    walk that raises has a parse that raises, and neither raises
    anything but a ``ReproError``.  The parse may fail where the walk
    does not: it decodes the DQT and DHT payloads the walk steps over."""

    @settings(max_examples=300, deadline=None)
    @given(pick=st.integers(0, 1 << 20), edits=EDITS)
    def test_mutated_headers(self, undamaged, pick, edits):
        blob = bytearray(undamaged[pick % len(undamaged)])
        span = _first_scan_offset(blob) + 8
        for op, at, byte in edits:
            at %= max(1, min(span, len(blob)))
            if op == "set" and blob:
                blob[at] = byte
            elif op == "insert":
                blob.insert(at, byte)
            elif op == "delete":
                del blob[at:at + 1]
            elif op == "cut":
                del blob[at:]
        blob = bytes(blob)
        header = _or_none(walk_header, blob)
        for tolerant in (False, True):
            info = _or_none(lambda b: parse_jpeg(b, tolerant=tolerant), blob)
            if header is None:
                assert info is None
            elif info is not None:
                assert header.frame == info.frame
                assert header.restart_interval \
                    == info.scans[0].restart_interval


# ---------------------------------------------------------------------------
# Satellite: every cell's lease comes from that one read.  Valid cells
# lease exactly their frame and their pixels ride shared memory; a
# stream whose header does not parse leases nothing; hostile cells come
# back with the error ``decode_jpeg`` raises directly.
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not shm_available(),
                    reason="POSIX shared memory unavailable")
class TestLeaseFromTheOneRead:
    def test_every_cell_leases_its_frame_or_nothing(self, corpus, oracles,
                                                    shm_floor_zero):
        """A cell whose header walks leases its frame — a hostile one
        too, whose worker then fails and hands the slot back unused."""
        cells = [(name, blob, oracles[name]) for name, blob in corpus.items()]
        for name, blob in corpus.items():
            for kind in HOSTILE_KINDS:
                bad = hostile_variant(blob, kind)
                cells.append((f"{name}/{kind}", bad, outcome(bad, "fast")))
        unused = 0
        with BatchDecoder(workers=2, backend="process") as dec:
            leased: list[int] = []
            lease = dec.arena.lease
            dec.arena.lease = lambda n: leased.append(n) or lease(n)
            for context, blob, expected in cells:
                del leased[:]
                shm_before = dec.stats.bytes_shm
                batch = dec.decode_batch([ImageRequest(data=blob)])
                (res,) = batch.results
                got = res.rgb if res.ok else (res.error_type, res.error)
                assert_same_outcome(got, expected, context)
                walks = read_header(ImageRequest(data=blob)) is not None
                assert leased == ([64 * 96 * 3] if walks else []), context
                assert (dec.stats.bytes_shm > shm_before) == res.ok, context
                assert dec.arena.leaked() == [], context
                unused += bool(leased) and not res.ok
        assert unused >= 22     # every truncated cell, at least


# ---------------------------------------------------------------------------
# Satellite: salvage is routed, not lost.  A salvage request whose
# header parses decodes whole on the reference path whatever scheduler
# is attached: same pixels, damage map and recovered errors as the
# direct salvage decode.
# ---------------------------------------------------------------------------

def _drop_restart_marker(blob: bytes) -> bytes:
    """Overwrite one RST3 with two data bytes: the header parses, the
    strict scan fails with a restart marker out of sequence."""
    pos = blob.index(bytes([0xFF, 0xD3]), _entropy_start(blob))
    return blob[:pos] + b"\x12\x34" + blob[pos + 2:]


class TestSalvageBehindAScheduler:
    @pytest.fixture(scope="class")
    def damaged(self, corpus) -> dict[str, bytes]:
        """Every hostile variant whose header still parses."""
        from repro.data import synthetic_photo

        cells = {f"{name}/{kind}": hostile_variant(blob, kind)
                 for name, blob in corpus.items()
                 for kind in ("bit-flipped", "stray-marker")}
        rgb = synthetic_photo(64, 96, seed=0)
        for cs, sub in (("gray", "4:4:4"), ("ycbcr", "4:2:2"),
                        ("ycbcr", "4:2:0"), ("ycck", "4:1:1")):
            blob = encode_jpeg(rgb, EncoderSettings(
                quality=85, subsampling=sub, colorspace=cs,
                restart_interval=2))
            cells[f"dri-{cs}-{sub}/dropped-rst"] = _drop_restart_marker(blob)
        return cells

    def test_dropped_restart_marker_fails_strict(self, damaged):
        for context, blob in damaged.items():
            if context.endswith("dropped-rst"):
                assert parse_jpeg(blob).restart_interval == 2
                assert outcome(blob, "fast") == (
                    "EntropyError",
                    "restart marker out of sequence: RST4, expected RST3")

    @pytest.mark.parametrize("scheduler", [None, "model", "roundrobin"])
    def test_salvage_matches_the_direct_decode(self, damaged, scheduler):
        with BatchDecoder(workers=2, backend="thread",
                          scheduler=scheduler) as dec:
            batch = dec.decode_batch([
                ImageRequest(data=blob, request_id=context, salvage=True)
                for context, blob in damaged.items()])
        for res in batch:
            want = decode_jpeg(damaged[res.request_id],
                               DecodeOptions(salvage=True))
            assert res.ok, (res.request_id, res.error)
            assert res.segments == 1, res.request_id
            assert np.array_equal(res.rgb, want.rgb), res.request_id
            assert res.salvaged == want.salvaged, res.request_id
            assert res.salvage_errors == list(want.errors), res.request_id
            assert np.array_equal(res.error_regions, want.error_map), \
                res.request_id


# ---------------------------------------------------------------------------
# Satellite: salvage under FaultPlan chaos.  A corrupt-but-salvageable
# image is a property of the *bytes*: it must resolve ok (with its
# error map) on the first attempt, consume no retry budget, and leave
# every lane breaker closed — while injected worker crashes around it
# still retry and recover as usual.
# ---------------------------------------------------------------------------

class TestSalvageUnderChaos:
    def test_salvage_result_is_not_an_infrastructure_failure(self, corpus):
        from repro.service import FaultPlan

        bad = hostile_variant(corpus["baseline-ycbcr-4:2:2-96x64-q85"],
                              "truncated")
        plan = FaultPlan(kill_at=(0,))  # first dispatch's worker "dies"
        requests = [
            ImageRequest(data=corpus["baseline-ycbcr-4:4:4-96x64-q85"],
                         request_id="victim"),
            ImageRequest(data=bad, request_id="salvage", salvage=True),
            ImageRequest(data=bad, request_id="strict"),
        ]
        with BatchDecoder(workers=2, backend="thread", faults=plan,
                          retry_budget=2) as dec:
            batch = dec.decode_batch(requests)
        by_id = {r.request_id: r for r in batch}

        salvaged = by_id["salvage"]
        assert salvaged.ok and salvaged.salvaged
        assert salvaged.error_regions is not None
        assert salvaged.error_regions.any()
        assert salvaged.salvage_errors
        assert salvaged.attempts == 1          # no retry budget burned
        assert not salvaged.infra_failure

        strict = by_id["strict"]               # same bytes, no salvage
        assert not strict.ok and not strict.infra_failure
        assert strict.attempts == 1            # decode errors never retry

        victim = by_id["victim"]               # the injected crash retried
        assert victim.ok and victim.attempts > 1
        assert plan.injected["kill"] == 1

    def test_breakers_stay_closed_for_salvage_results(self, corpus):
        from repro.evaluation import platforms
        from repro.service import LaneBreakerBoard, ModelScheduler

        board = LaneBreakerBoard(threshold=1)  # hair-trigger on purpose
        sched = ModelScheduler(policy="model", platform=platforms.GTX560,
                               breakers=board)
        bad = hostile_variant(corpus["baseline-ycbcr-4:2:2-96x64-q85"],
                              "truncated")
        requests = [
            ImageRequest(data=bad, request_id=f"salvage-{i}", salvage=True)
            for i in range(3)
        ] + [
            ImageRequest(data=corpus["baseline-ycbcr-4:2:2-96x64-q85"],
                         request_id="clean"),
        ]
        with BatchDecoder(workers=2, backend="thread",
                          scheduler=sched) as dec:
            batch = dec.decode_batch(requests)
        for res in batch:
            assert res.ok, (res.request_id, res.error)
        assert board.trips() == 0
        assert all(b["state"] == "closed"
                   for b in board.snapshot().values())
