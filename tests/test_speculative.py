"""Speculative self-synchronizing parallel Huffman decode: the
bit-identity + hostile-input proof matrix.

The speculative path (:mod:`repro.jpeg.speculative`) must be
*invisible* except for speed: every decode — converged, misspeculated
and repaired, or fully fallen back — returns coefficients bit-identical
to the sequential oracle, and hostile bytes raise the oracle's exact
error.  These tests prove that over a randomized image matrix
(generators x subsamplings x qualities x chunk counts), targeted
convergence-failure injection, and property-based hostile-input fuzzing
where the fast and reference engines must agree error-for-error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synth import GENERATORS, marker_free_corpus
from repro.jpeg import (
    DecodeOptions,
    EncoderSettings,
    decode_jpeg,
    encode_jpeg,
    parse_jpeg,
)
from repro.jpeg.decoder import component_tables_from_info
from repro.jpeg.fast_entropy import FastEntropyDecoder, destuff_scan
from repro.jpeg.speculative import (
    MIN_CHUNK_BYTES,
    SpeculativeChunk,
    chunk_mcu_budget,
    decode_coefficients_speculative,
    decode_speculative_chunk,
    make_repairer,
    plan_chunks,
    speculative_eligible,
    stitch_chunks,
    traced_run,
)


def encode(rgb, sub="4:2:0", quality=85, dri=0) -> bytes:
    return encode_jpeg(rgb, EncoderSettings(
        quality=quality, subsampling=sub, restart_interval=dri))


def oracle_coefficients(info):
    """The sequential fast-engine decode — the bit-identity reference."""
    decoder = FastEntropyDecoder(
        info.geometry, component_tables_from_info(info),
        info.restart_interval)
    decoder.start(info.entropy_data)
    decoder.decode_mcu_rows(info.geometry.mcu_rows)
    return decoder.coefficients


def assert_identical(got, want, context=""):
    for ci, (g, w) in enumerate(zip(got.planes, want.planes)):
        assert np.array_equal(g, w), (
            f"component {ci} diverges from the sequential oracle "
            f"({np.count_nonzero(np.any(g != w, axis=(1, 2)))} blocks) "
            f"{context}")


# ---------------------------------------------------------------------------
# Chunk planning invariants.
# ---------------------------------------------------------------------------

class TestPlanChunks:
    @given(n=st.integers(1, 50_000), count=st.integers(1, 32),
           overlap=st.integers(8, 4096))
    @settings(max_examples=150, deadline=None)
    def test_partition_invariants(self, n, count, overlap):
        chunks = plan_chunks(n, count, overlap)
        assert chunks[0].start == 0
        assert chunks[-1].stop == n
        assert chunks[-1].last and chunks[-1].slice_stop == n
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start, "chunks must tile the payload"
            assert not a.last
            # The stitcher's ordering invariant: chunk k's convergence
            # window closes before chunk k+1's does.
            assert a.window_stop <= b.window_stop
            assert a.stop <= a.window_stop <= a.slice_stop <= n
        if len(chunks) > 1:
            assert all(c.stop - c.start >= MIN_CHUNK_BYTES for c in chunks)

    def test_count_clamped_by_min_bytes(self):
        chunks = plan_chunks(MIN_CHUNK_BYTES * 3 + 1, 64)
        assert len(chunks) == 3

    def test_single_chunk_degenerates(self):
        (c,) = plan_chunks(10, 1)
        assert (c.start, c.stop, c.window_stop, c.slice_stop) == (0, 10, 10, 10)
        assert c.last

    def test_budget_bounds(self, jpeg_422):
        info = parse_jpeg(jpeg_422)
        total = info.geometry.total_mcus
        scan = destuff_scan(info.entropy_data)
        for chunk in plan_chunks(len(scan.payload), 4):
            budget = chunk_mcu_budget(chunk, info.geometry)
            assert 1 <= budget <= total + 2


# ---------------------------------------------------------------------------
# Eligibility gate.
# ---------------------------------------------------------------------------

class TestEligibility:
    def test_marker_free_eligible(self, small_rgb):
        info = parse_jpeg(encode(small_rgb))
        assert speculative_eligible(
            info.restart_interval, destuff_scan(info.entropy_data))

    def test_dri_scan_ineligible(self, small_rgb):
        info = parse_jpeg(encode(small_rgb, dri=4))
        assert not speculative_eligible(
            info.restart_interval, destuff_scan(info.entropy_data))

    def test_stray_rst_marker_ineligible(self):
        # A DRI=0 scan containing an RSTn byte pair would shift every
        # speculative offset: the prescan's marker index must veto it.
        scan = destuff_scan(b"\x12\x34\xff\xd0\x56\x78")
        assert scan.restart_count == 1
        assert not speculative_eligible(0, scan)

    def test_ineligible_falls_back(self, small_rgb):
        info = parse_jpeg(encode(small_rgb, dri=4))
        out, report = decode_coefficients_speculative(info, 4)
        assert report.fallback and report.chunks == 1
        assert_identical(out, oracle_coefficients(info))


# ---------------------------------------------------------------------------
# The bit-identity matrix.
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("kind", ["photo", "detail", "smooth", "gray"])
    @pytest.mark.parametrize("sub", ["4:2:0", "4:2:2", "4:4:4"])
    def test_generator_matrix(self, kind, sub):
        rgb = GENERATORS[kind](96, 80, seed=7)
        info = parse_jpeg(encode(rgb, sub=sub))
        want = oracle_coefficients(info)
        for chunk_count in (2, 3, 5, 9):
            out, report = decode_coefficients_speculative(info, chunk_count)
            assert_identical(out, want,
                            f"[{kind} {sub} chunks={chunk_count}]")

    def test_randomized_200_image_matrix(self):
        """The acceptance matrix: >= 200 randomized images, every one
        bit-identical at a randomized chunk count — misspeculations and
        whole-scan fallbacks included (they must be invisible)."""
        rng = np.random.default_rng(2014)
        kinds = list(GENERATORS)
        subs = ["4:2:0", "4:2:2", "4:4:4"]
        converged = misspeculated = fallbacks = 0
        for trial in range(200):
            kind = kinds[rng.integers(len(kinds))]
            h = 8 * int(rng.integers(4, 13))
            w = 8 * int(rng.integers(4, 13))
            rgb = GENERATORS[kind](h, w, seed=int(rng.integers(1 << 30)))
            data = encode(rgb, sub=subs[rng.integers(3)],
                          quality=int(rng.choice([70, 85, 95])))
            info = parse_jpeg(data)
            chunk_count = int(rng.integers(2, 9))
            # Occasionally starve the overlap to force misspeculation.
            overlap = int(rng.choice([24, 128, 512]))
            out, report = decode_coefficients_speculative(
                info, chunk_count, overlap=overlap)
            assert_identical(
                out, oracle_coefficients(info),
                f"[trial {trial} {kind} {h}x{w} chunks={chunk_count} "
                f"overlap={overlap}]")
            converged += report.converged
            misspeculated += len(report.misspeculated)
            fallbacks += report.fallback
        # The matrix must actually exercise all three outcomes.
        assert converged > 200, "speculation never converged — path dead"
        assert misspeculated > 0, "matrix never exercised a misspeculation"
        # Repairs keep fallbacks rare even with starved overlaps.
        assert fallbacks < 40

    def test_pixel_identity_through_facade(self, small_rgb):
        data = encode(small_rgb, sub="4:2:2")
        info = parse_jpeg(data)
        out, report = decode_coefficients_speculative(info, 5)
        assert report.ok
        from repro.jpeg.decoder import pixels_from_coefficients

        rgb = pixels_from_coefficients(info, out, DecodeOptions())
        assert np.array_equal(rgb, decode_jpeg(data).rgb)

    def test_marker_free_corpus_members(self):
        # The generated corpus is the speculative decoder's home turf:
        # every member DRI=0 and bit-identical under fan-out.
        for name, data in marker_free_corpus(sizes=((160, 120),)):
            info = parse_jpeg(data)
            assert info.restart_interval == 0, name
            out, _ = decode_coefficients_speculative(info, 4)
            assert_identical(out, oracle_coefficients(info), f"[{name}]")


# ---------------------------------------------------------------------------
# Convergence-failure injection: misspeculation must degrade, not break.
# ---------------------------------------------------------------------------

class TestConvergenceFailure:
    def _traces(self, info, chunk_count):
        scan = destuff_scan(info.entropy_data)
        chunks = plan_chunks(len(scan.payload), chunk_count)
        geo = info.geometry
        tables = component_tables_from_info(info)
        geo_args = (geo.width, geo.height, geo.mode)
        traces = [
            decode_speculative_chunk(
                c, scan.payload[c.start:c.slice_stop], geo_args, tables,
                "fast",
                scan.terminator if c.slice_stop == len(scan.payload)
                else None)
            for c in chunks
        ]
        return scan, chunks, geo, tables, traces

    def test_dead_chunk_is_repaired(self, small_rgb):
        # A missing trace (worker crashed past its retry budget) is
        # repaired sequentially from the trusted frontier.
        info = parse_jpeg(encode(small_rgb))
        scan, chunks, geo, tables, traces = self._traces(info, 5)
        traces[2] = None
        out, report = stitch_chunks(
            traces, chunks, geo, repair=make_repairer(scan, geo, tables))
        assert out is not None and 2 in report.misspeculated
        assert report.repaired >= 1
        assert_identical(out, oracle_coefficients(info))

    def test_dead_chunk_without_repair_falls_back(self, small_rgb):
        info = parse_jpeg(encode(small_rgb))
        scan, chunks, geo, tables, traces = self._traces(info, 5)
        traces[2] = None
        out, report = stitch_chunks(traces, chunks, geo, repair=None)
        assert out is None and report.fallback
        assert report.reason is not None

    def test_dead_first_chunk_falls_back(self, small_rgb):
        # Chunk 0 is the exactness anchor; without it there is no
        # trusted frontier to repair from.
        info = parse_jpeg(encode(small_rgb))
        scan, chunks, geo, tables, traces = self._traces(info, 4)
        traces[0] = None
        out, report = stitch_chunks(
            traces, chunks, geo, repair=make_repairer(scan, geo, tables))
        assert out is None and report.fallback and 0 in report.misspeculated

    def test_all_later_chunks_dead(self, small_rgb):
        # Worst case short of total loss: everything past chunk 0 is
        # repaired sequentially; identity still holds.
        info = parse_jpeg(encode(small_rgb))
        scan, chunks, geo, tables, traces = self._traces(info, 4)
        for k in range(1, len(traces)):
            traces[k] = None
        out, report = stitch_chunks(
            traces, chunks, geo, repair=make_repairer(scan, geo, tables))
        assert out is not None
        assert report.misspeculated == [1, 2, 3]
        assert_identical(out, oracle_coefficients(info))

    def test_facade_heals_misspeculation_without_error(self, small_rgb):
        # Starved overlap at the facade level: some boundary misses,
        # nothing raises, identity holds.
        info = parse_jpeg(encode(GENERATORS["detail"](96, 96, seed=3),
                                 quality=95))
        out, report = decode_coefficients_speculative(info, 6, overlap=16)
        assert_identical(out, oracle_coefficients(info))
        assert report.chunks == 6


# ---------------------------------------------------------------------------
# Bounded work: what a chunk decodes, counted in MCUs (never timed).
# ---------------------------------------------------------------------------

def _pad_bit_sweep():
    """One marker-free image per pad-bit count (0..7) of its payload's
    final byte: the bits a decoder never consumes, which is what the
    last chunk's stop rule has to see past."""
    by_pad = {}
    for seed in range(80):
        rgb = GENERATORS["photo"](64, 80, seed=seed)
        info = parse_jpeg(encode(rgb, sub=["4:2:0", "4:2:2", "4:4:4"][
            seed % 3]))
        # Bit positions next to a marker are exact (padding is counted
        # as phantom); at a bare end of data the last one can read up to
        # seven bits short.
        scan = destuff_scan(info.entropy_data + b"\xff\xd9")
        oracle = traced_run(info.geometry, component_tables_from_info(info),
                            scan, 0, info.geometry.total_mcus, None)
        pad = len(scan.payload) * 8 - int(oracle.positions[-1])
        by_pad.setdefault(pad, info)
        if len(by_pad) == 8:
            break
    return by_pad


class TestBoundedWork:
    @pytest.fixture(scope="class")
    def sweep(self):
        by_pad = _pad_bit_sweep()
        assert sorted(by_pad) == list(range(8)), \
            "seed sweep no longer covers every pad-bit count"
        return by_pad

    @pytest.mark.parametrize("terminator", [None, 0xD9])
    @pytest.mark.parametrize("chunk_count", [2, 3])
    def test_no_chunk_decodes_past_its_share(self, sweep, chunk_count,
                                             terminator):
        """Every chunk decodes the MCUs it owns, those that start inside
        its overlap window, one more that crosses the window's end and
        whatever it parsed before synchronising — and nothing else: no
        MCU that begins in the final byte's pad bits or after them."""
        for pad, info in sweep.items():
            geo = info.geometry
            tables = component_tables_from_info(info)
            scan = destuff_scan(
                info.entropy_data
                + (b"" if terminator is None else bytes([0xFF, terminator])))
            assert scan.terminator == terminator
            total = geo.total_mcus
            payload_bits = len(scan.payload) * 8
            ends = traced_run(geo, tables, scan, 0, total, None).positions
            starts = np.concatenate(([0], ends[:-1]))
            geo_args = (geo.width, geo.height, geo.mode, geo.ncomponents)
            decoded = allowed = 0
            for c in plan_chunks(len(scan.payload), chunk_count):
                trace = decode_speculative_chunk(
                    c, scan.payload[c.start:c.slice_stop], geo_args, tables,
                    "fast", scan.terminator
                    if c.slice_stop == len(scan.payload) else None)
                assert trace.error_type is None
                owned = np.count_nonzero(
                    (starts >= c.start * 8) & (starts < c.stop * 8))
                overlap = 0 if c.last else np.count_nonzero(
                    (starts >= c.stop * 8) & (starts < c.window_stop * 8))
                # MCUs parsed before the chunk first stands on a true
                # MCU boundary (0 for chunk 0).
                on_trace = np.flatnonzero(np.isin(
                    np.concatenate(([trace.start_bit], trace.positions)),
                    starts))
                presync = int(on_trace[0]) if len(on_trace) else trace.mcus
                context = f"[pad={pad} chunk {c.index}/{chunk_count}]"
                assert trace.mcus <= owned + overlap + 1 + presync, context
                # No MCU began at or past the stop rule's limit.
                limit = min(c.window_stop * 8, payload_bits - 7)
                if trace.mcus > 1:
                    assert trace.positions[-2] < limit, context
                decoded += trace.mcus
                allowed += overlap + 1 + presync
            assert decoded <= total + allowed, f"[pad={pad}]"

    def test_truncated_scan_is_finished_by_tail_repair(self):
        """A marker-free stream cut before its last MCU rows (EOI kept):
        the chunks stop at the last real bit and the stitcher's tail
        repair decodes what the image still owes, with the sequential
        decoder's own semantics — its coefficients, or its exact
        error."""
        base = encode(GENERATORS["photo"](64, 80, seed=11), quality=80)
        info = parse_jpeg(base)
        repaired = failed = 0
        for keep in range(40, 91, 3):
            cut = info.entropy_data[:len(info.entropy_data) * keep // 100]
            blob_info = parse_jpeg(base.replace(info.entropy_data, cut))
            try:
                want = oracle_coefficients(blob_info)
            except Exception as exc:
                want = (type(exc).__name__, str(exc))
            try:
                got, report = decode_coefficients_speculative(blob_info, 3)
            except Exception as exc:
                assert (type(exc).__name__, str(exc)) == want, f"[{keep}%]"
                failed += 1
                continue
            assert_identical(got, want, f"[{keep}%]")
            assert report.ok and report.repaired >= 1, f"[{keep}%]"
            repaired += 1
        assert repaired and failed, "sweep must hit both outcomes"


# ---------------------------------------------------------------------------
# Hostile inputs: error identity with the sequential oracle.
# ---------------------------------------------------------------------------

def _outcome(data, engine):
    """(error_type, error) of a decode, or None when it succeeds."""
    try:
        decode_jpeg(data, DecodeOptions(entropy_engine=engine))
        return None
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def hostile_base() -> bytes:
    return encode(GENERATORS["photo"](64, 80, seed=11), quality=80)


class TestHostileInputs:
    """Property-based hostile-input matrix (satellite: the fast engine
    — and the speculative path above it — must raise the *reference*
    engine's exact error type and message, or agree on the pixels)."""

    @given(cut=st.integers(2, 2000), keep_eoi=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_truncated_scans_error_parity(self, hostile_base, cut,
                                          keep_eoi):
        data = hostile_base
        blob = data[:max(2, len(data) - 2 - cut % (len(data) - 4))]
        if keep_eoi:
            blob += data[-2:]
        fast, ref = _outcome(blob, "fast"), _outcome(blob, "reference")
        assert fast == ref, (
            f"engines disagree on truncated scan: fast={fast} ref={ref}")

    @given(pos=st.integers(0, 1 << 30), bits=st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_flipped_bytes_error_parity(self, hostile_base, pos, bits):
        data = bytearray(hostile_base)
        # Mutate inside the back half (the entropy-coded segment).
        pos = len(data) // 2 + pos % (len(data) // 2 - 2)
        data[pos] ^= bits
        blob = bytes(data)
        fast, ref = _outcome(blob, "fast"), _outcome(blob, "reference")
        if fast is None and ref is None:
            assert np.array_equal(
                decode_jpeg(blob, DecodeOptions(entropy_engine="fast")).rgb,
                decode_jpeg(blob,
                            DecodeOptions(entropy_engine="reference")).rgb)
        else:
            assert fast == ref, (
                f"engines disagree on corrupt byte at {pos}: "
                f"fast={fast} ref={ref}")

    @given(cut_mcus=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_speculative_error_identity(self, hostile_base, cut_mcus):
        """A hostile stream routed through the speculative API raises
        the sequential oracle's exact error (mid-MCU endings included:
        arbitrary truncation usually lands inside an MCU)."""
        info = parse_jpeg(hostile_base)
        scan = destuff_scan(info.entropy_data)
        cut = max(8, len(scan.payload) - 7 * cut_mcus)
        hostile = scan.payload[:cut] + b"\xff\xd9"
        try:
            blob_info = parse_jpeg(
                hostile_base.replace(info.entropy_data, hostile))
        except Exception:
            return  # truncation broke the container: nothing to compare
        try:
            oracle_coefficients(blob_info)
            want = None
        except Exception as exc:
            want = (type(exc).__name__, str(exc))
        try:
            out, report = decode_coefficients_speculative(blob_info, 4)
            got = None
        except Exception as exc:
            got = (type(exc).__name__, str(exc))
        assert got == want, (
            f"speculative path diverges from oracle: got={got} want={want}")
        if want is None:
            assert_identical(out, oracle_coefficients(blob_info))

    @given(pos=st.integers(0, 1 << 30), bits=st.integers(1, 255),
           chunk_count=st.integers(2, 5))
    @settings(max_examples=80, deadline=None)
    def test_speculative_flipped_bytes_identity(self, hostile_base, pos,
                                                bits, chunk_count):
        """A corrupt byte anywhere in the scan: a later chunk parses it
        tolerantly, but an error it passes over after synchronising is
        the stream's own, and the stitch must not hide it."""
        info = parse_jpeg(hostile_base)
        data = bytearray(info.entropy_data)
        data[pos % len(data)] ^= bits
        try:
            blob_info = parse_jpeg(
                hostile_base.replace(info.entropy_data, bytes(data)))
        except Exception:
            return  # the flip made a marker: the container broke
        try:
            want = oracle_coefficients(blob_info)
        except Exception as exc:
            want = (type(exc).__name__, str(exc))
        try:
            got, _ = decode_coefficients_speculative(blob_info, chunk_count)
        except Exception as exc:
            got = (type(exc).__name__, str(exc))
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
        else:
            assert_identical(got, want)

    def test_stuffed_bytes_at_chunk_boundaries(self):
        """Chunk boundaries are planned on the *destuffed* payload, so
        no boundary can split an FF00 pair; an image dense in stuffed
        bytes must stay bit-identical at every chunk count."""
        rgb = GENERATORS["detail"](96, 96, seed=9)
        data = encode(rgb, quality=97)
        info = parse_jpeg(data)
        assert b"\xff\x00" in info.entropy_data, "fixture lost its 0xFFs"
        scan = destuff_scan(info.entropy_data)
        want = oracle_coefficients(info)
        for chunk_count in range(2, 9):
            for chunk in plan_chunks(len(scan.payload), chunk_count):
                # Boundary positions index destuffed bytes: each maps to
                # a real data byte of the original stream, never to a
                # stuffing zero or marker byte.
                if chunk.start < len(scan.payload):
                    orig = scan.orig_offset(chunk.start)
                    assert info.entropy_data[orig] == \
                        scan.payload[chunk.start]
            out, _ = decode_coefficients_speculative(info, chunk_count)
            assert_identical(out, want, f"[chunks={chunk_count}]")

    def test_eob_runs_spanning_chunks(self):
        """Smooth images are EOB-dominated: long runs of near-empty
        blocks cross every chunk boundary and must still converge (or
        repair) to identity."""
        rgb = GENERATORS["smooth"](120, 120, seed=4)
        info = parse_jpeg(encode(rgb, quality=60))
        want = oracle_coefficients(info)
        for chunk_count in (2, 4, 7):
            out, _ = decode_coefficients_speculative(info, chunk_count)
            assert_identical(out, want, f"[smooth chunks={chunk_count}]")


# ---------------------------------------------------------------------------
# Prescan offset round-tripping (restart markers + stuffing).
# ---------------------------------------------------------------------------

class TestOrigOffsetRoundTrip:
    def test_payload_positions_map_to_real_bytes(self, small_rgb):
        """Every destuffed payload byte round-trips to the identical
        original-stream byte — across restart markers and FF00 pairs —
        so no speculative start offset can land inside a stuffing pair
        or an RSTn marker."""
        data = encode(small_rgb, quality=95, dri=3)
        info = parse_jpeg(data)
        raw = info.entropy_data
        assert b"\xff\x00" in raw
        scan = destuff_scan(raw)
        assert scan.restart_count > 0
        offs = [scan.orig_offset(p) for p in range(len(scan.payload))]
        assert all(a < b for a, b in zip(offs, offs[1:])), \
            "payload->original mapping must be strictly increasing"
        for p, o in enumerate(offs):
            assert raw[o] == scan.payload[p], f"payload byte {p} diverges"
            # Never the dropped 0x00 of a stuffing pair.
            assert not (raw[o] == 0x00 and o > 0 and raw[o - 1] == 0xFF)

    def test_marker_offsets_bracket_the_markers(self, small_rgb):
        data = encode(small_rgb, dri=4)
        info = parse_jpeg(data)
        raw = info.entropy_data
        scan = destuff_scan(raw)
        for pay_off, val, orig_off in zip(scan.marker_payload_offsets,
                                          scan.marker_values,
                                          scan.marker_orig_offsets):
            assert raw[orig_off] == 0xFF and raw[orig_off + 1] == val
            # The payload position at the marker maps to the byte
            # *after* the two-byte RSTn, never inside it.
            if pay_off < len(scan.payload):
                assert scan.orig_offset(pay_off) >= orig_off + 2

    def test_decoder_bit_positions_round_trip(self, small_rgb):
        """Exact MCU-end bit positions (the speculative sync currency)
        map back through ``orig_offset`` onto real scan bytes."""
        data = encode(small_rgb)
        info = parse_jpeg(data)
        scan = destuff_scan(info.entropy_data)
        geo = info.geometry
        decoder = FastEntropyDecoder(
            geo, component_tables_from_info(info), 0)
        decoder.start_prescanned(scan, 0)
        last = -1
        for _ in range(geo.mcu_rows):
            decoder.decode_mcu_rows(1)
            bit = decoder.bit_position
            assert bit > last, "bit positions must advance"
            last = bit
            byte = bit // 8
            if byte < len(scan.payload):
                orig = scan.orig_offset(byte)
                assert info.entropy_data[orig] == scan.payload[byte]
        assert last <= len(scan.payload) * 8
