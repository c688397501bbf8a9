"""Observability layer (PR 10): trace contexts and span records,
stage spans riding their task's reply, the deterministic sampler,
Prometheus rendering
(validated by ``tools/check_prom_format.py``), end-to-end traced
decodes through a session, trace propagation under injected faults
(retry attempts, breaker-excluded lanes), the JSON-lines trace log,
the ``repro trace`` / ``repro timeline`` CLI, and ``GET /metrics`` /
``X-Trace`` over a live HTTP server."""

from __future__ import annotations

import json
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.data import synthetic_photo
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg
from repro.service import (
    BatchDecoder,
    DecodeHTTPServer,
    DecodeSession,
    FaultPlan,
    ImageRequest,
    LaneBreakerBoard,
    ModelScheduler,
)
from repro.cli import format_trace, spans_to_timeline
from repro.errors import ServiceError
from repro.service.http import render_prometheus
from repro.service.obs import (
    LATENCY_BUCKETS_S,
    Histogram,
    ObsHub,
    SpanRecord,
    TraceContext,
    child_span,
    make_span,
    read_trace_log,
)
from repro.service.remote import map_remote_spans

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_prom_format  # noqa: E402


@pytest.fixture(scope="module")
def blob(small_rgb):
    return encode_jpeg(small_rgb, EncoderSettings(
        quality=85, subsampling="4:2:2"))


def _span(ctx, name="work", start=1.0, end=2.0, **attrs):
    return child_span(ctx, name, "res", "cpu-parallel", start, end, **attrs)


# ---------------------------------------------------------------------------
# TraceContext / SpanRecord primitives.
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_new_roots_are_unique(self):
        a, b = TraceContext.new_root(), TraceContext.new_root()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id
        assert a.parent_id is None

    def test_child_keeps_trace_and_parents_on_span(self):
        root = TraceContext.new_root()
        kid = root.child()
        assert kid.trace_id == root.trace_id
        assert kid.parent_id == root.span_id
        assert kid.span_id != root.span_id

    def test_wire_roundtrip(self):
        ctx = TraceContext.new_root().child()
        back = TraceContext.from_dict(ctx.to_dict())
        assert back == ctx
        assert json.loads(json.dumps(ctx.to_dict())) == ctx.to_dict()

    def test_make_span_uses_own_identity_child_span_forks(self):
        ctx = TraceContext.new_root()
        own = make_span(ctx, "attempt", "lane", "cpu-parallel", 0.0, 1.0)
        assert own.span_id == ctx.span_id
        assert own.parent_id == ctx.parent_id
        kid = child_span(ctx, "stage", "lane", "kernel", 0.0, 1.0)
        assert kid.parent_id == ctx.span_id
        assert kid.span_id != ctx.span_id


class TestSpanRecord:
    def test_roundtrip_preserves_attrs(self):
        ctx = TraceContext.new_root()
        span = _span(ctx, attempt=2, outcome="ok")
        back = SpanRecord.from_dict(json.loads(json.dumps(span.to_dict())))
        assert back == span
        assert back.attrs == {"attempt": 2, "outcome": "ok"}
        assert back.duration_s == pytest.approx(1.0)


class TestHistogram:
    def test_buckets_are_cumulative_with_inf(self):
        hist = Histogram()
        for value in (0.001, 0.03, 0.3, 20.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert [le for le, _ in snap["buckets"]] \
            == [repr(b) for b in LATENCY_BUCKETS_S] + ["+Inf"]
        counts = [count for _, count in snap["buckets"]]
        assert counts == [1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 4]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(20.331)


# ---------------------------------------------------------------------------
# ObsHub: mode gate, deterministic sampler, counters.
# ---------------------------------------------------------------------------


class TestObsHub:
    def test_off_never_starts(self):
        hub = ObsHub(mode="off")
        assert all(hub.maybe_start_trace() is None for _ in range(20))
        assert hub.counters()["traces_started"] == 0

    def test_on_always_starts(self):
        hub = ObsHub(mode="on")
        assert all(hub.maybe_start_trace() is not None for _ in range(5))
        assert hub.counters()["traces_started"] == 5

    def test_sampler_is_deterministic_1_in_n(self):
        hub = ObsHub(mode="sample", sample_rate=0.25)
        hits = [hub.maybe_start_trace() is not None for _ in range(12)]
        assert hits == [i % 4 == 0 for i in range(12)]
        assert hub.counters()["traces_started"] == 3

    def test_bad_inputs_raise(self):
        with pytest.raises(ServiceError):
            ObsHub(mode="loud")
        with pytest.raises(ServiceError):
            ObsHub(mode="sample", sample_rate=0.0)


class TestMapRemoteSpans:
    def test_offset_clamps_into_client_window(self):
        ctx = TraceContext.new_root()
        # Host clock runs 100 s ahead of the client's.
        host = [_span(ctx, name="decode", start=1100.0, end=1100.5)]
        mapped = map_remote_spans(host, "h:1", t0=1.0, t1=2.0,
                                  host_recv=1100.0, host_send=1100.6)
        (span,) = mapped
        assert span.resource == "h:1/res"
        assert 1.0 - 1e-6 <= span.start <= span.end <= 2.0 + 1e-6
        assert span.duration_s == pytest.approx(0.5, abs=1e-6)


class TestFormatTrace:
    def test_stitched_remote_trace_renders_the_pinned_text(self):
        """A trace whose host spans were mapped into the client's clock
        (each carries ``clock_offset_s``) renders to this exact text:
        the offset stays out of the span tree and the host rows are
        named ``endpoint/resource``."""
        root = TraceContext("feedc0de", "root", None)
        attempt = TraceContext("feedc0de", "att1", "root")
        # The host's clock runs 490 s ahead of the client's.
        host = [
            SpanRecord("feedc0de", "hreq", "att1", "request", "client",
                       "dispatch", 500.0, 500.006, {}),
            SpanRecord("feedc0de", "hent", "hreq", "entropy", "w0",
                       "huffman", 500.001, 500.004, {"segments": 3}),
        ]
        spans = [
            make_span(root, "request", "client", "dispatch", 10.0, 10.012),
            make_span(attempt, "attempt", "remote-h:1", "dispatch",
                      10.001, 10.011, attempt=1),
            SpanRecord("feedc0de", "rt", "att1", "remote_roundtrip", "h:1",
                       "read", 10.002, 10.010,
                       {"bytes_tx": 100, "bytes_rx": 5000}),
            *map_remote_spans(host, "h:1", t0=10.002, t1=10.010,
                              host_recv=500.0, host_send=500.0065),
        ]
        assert all("clock_offset_s" in s.attrs for s in spans[3:])
        assert format_trace("feedc0de", spans, width=60) == "\n".join((
            "trace feedc0de — 5 span(s), 12.00 ms",
            "",
            "    client |" + "d" * 58 + "  |",
            "       h:1 |" + " " * 9 + "r" * 40 + " " * 11 + "|",
            "h:1/client |" + " " * 13 + "d" * 30 + " " * 17 + "|",
            "    h:1/w0 |" + " " * 18 + "H" * 15 + " " * 27 + "|",
            "remote-h:1 |    " + "d" * 50 + "      |",
            "           0 " + "-" * 46 + " 12.00 ms",
            "           [H=huffman  d=dispatch  C=cpu-parallel  w=write  "
            "K=kernel  r=read]",
            "",
            "  request              +    0.00 ms    12.00 ms  [client]",
            "    attempt            +    1.00 ms    10.00 ms  [remote-h:1]  "
            "attempt=1",
            "      remote_roundtrip +    2.00 ms     8.00 ms  [h:1]  "
            "bytes_tx=100 bytes_rx=5000",
            "      request          +    2.75 ms     6.00 ms  [h:1/client]",
            "        entropy        +    3.75 ms     3.00 ms  [h:1/w0]  "
            "segments=3",
        ))

    def test_gantt_rows_start_in_one_column(self):
        """Resource labels of any length: every bar row opens in one
        column, and the axis's 0 stands in it."""
        ctx = TraceContext("0ddba11", "root", None)
        spans = [
            make_span(ctx, "request", "client", "dispatch", 0.0, 0.004),
            make_span(ctx, "attempt", "remote-h:1", "dispatch", 0.001, 0.003),
            make_span(ctx, "entropy", "127.0.0.1:35017/serial", "huffman",
                      0.001, 0.002),
        ]
        gantt = format_trace("0ddba11", spans).split("\n\n")[1].splitlines()
        assert [line.index("|") for line in gantt[:3]] == [23] * 3
        assert gantt[3].index("0") == 23


# ---------------------------------------------------------------------------
# Prometheus rendering, validated by the in-repo parser.
# ---------------------------------------------------------------------------


class TestPrometheus:
    def test_live_session_render_is_valid_exposition(self, blob):
        session = DecodeSession(backend="serial", scheduler="model",
                                tracing="on")
        try:
            handles = [session.submit(blob) for _ in range(3)]
            for handle in handles:
                assert handle.result(timeout=60).ok
            text = render_prometheus(session.stats_snapshot())
        finally:
            session.close(drain=False)
        violations = check_prom_format.validate(text)
        assert violations == []
        samples, _ = check_prom_format.parse_samples(text)
        names = {s.name for s in samples}
        assert "repro_images_total" in names
        assert "repro_queue_depth" in names
        assert "repro_decode_latency_seconds_bucket" in names
        assert "repro_traces_started_total" in names
        by_key = {(s.name, tuple(sorted(s.labels.items()))): s.value
                  for s in samples}
        assert by_key[("repro_images_total",
                       (("outcome", "ok"),))] == 3

    def test_fixed_snapshot_renders_the_pinned_sample_set(self):
        """``tests/data/metrics_samples.json``: a full-shape snapshot (and
        its unscheduled twin, which carries no latency histogram, trace
        counters or uptime) with the samples the hand-written renderer
        produced for them, before it became the family table."""
        pinned = json.loads(
            (REPO_ROOT / "tests/data/metrics_samples.json").read_text())
        clocks = ("repro_obs_uptime_seconds", "repro_process_start_unixtime")
        for text, expected in (
                (render_prometheus(pinned["snapshot"]), pinned["samples"]),
                (render_prometheus(pinned["unscheduled"]),
                 pinned["unscheduled_samples"])):
            samples, violations = check_prom_format.parse_samples(text)
            assert violations == []
            assert sorted(
                (s.name, sorted(s.labels.items()),
                 s.name in clocks or s.value) for s in samples) == sorted(
                (name, sorted(labels.items()), name in clocks or value)
                for name, labels, value in expected)

    def test_checker_rejects_bad_documents(self):
        assert check_prom_format.validate(
            "# TYPE a counter\na 1\n")  # counter w/o _total
        assert check_prom_format.validate(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n")  # no +Inf
        assert check_prom_format.validate(
            "x 1\ny 2\nx 3\n")  # family reopened
        assert check_prom_format.validate("foo{bar=baz} 1\n")


# ---------------------------------------------------------------------------
# End-to-end traced decode through a session.
# ---------------------------------------------------------------------------


def _trace_of(result):
    spans = result.trace_spans
    assert spans, "traced result carries no spans"
    trace_ids = {s.trace_id for s in spans}
    assert len(trace_ids) == 1
    return spans


class TestEndToEndTrace:
    def test_reference_decode_emits_stage_hierarchy(self, blob):
        session = DecodeSession(backend="serial", tracing="on")
        try:
            handle = session.submit(ImageRequest(data=blob))
            result = handle.result(timeout=60)
        finally:
            session.close(drain=False)
        assert result.ok
        spans = _trace_of(result)
        names = {s.name for s in spans}
        assert {"request", "queue", "attempt", "parse", "entropy",
                "idct", "upsample", "color"} <= names
        by_name = {s.name: s for s in spans}
        root = by_name["request"]
        assert root.parent_id is None
        # Every non-root span parents onto a span in the same trace.
        ids = {s.span_id for s in spans}
        for span in spans:
            assert span.end >= span.start
            if span is not root:
                assert span.parent_id in ids
        # Queue wait precedes the attempt; nothing outruns the root.
        assert by_name["queue"].start <= by_name["attempt"].start + 1e-9
        for span in spans:
            assert span.start >= root.start - 1e-6
            assert span.end <= root.end + 1e-6

    def test_scheduled_session_records_stage_spans(self, blob):
        """A traced request placed by the scheduler on a process-pool
        session decodes for real on its lane: the trace shows where the
        time went, stage by stage, nested under the attempt."""
        with DecodeSession(workers=2, backend="process", scheduler="model",
                           tracing="on") as session:
            result = session.submit(blob).result(timeout=60)
        assert result.ok
        spans = _trace_of(result)
        (schedule,) = [s for s in spans if s.name == "schedule"]
        assert schedule.attrs["lane"] == "local"
        (attempt,) = [s for s in spans if s.name == "attempt"]
        stages = {s.name for s in spans if s.parent_id == attempt.span_id}
        assert {"parse", "entropy", "idct", "upsample", "color"} <= stages
        assert "decode" not in {s.name for s in spans}

    def test_concurrent_tasks_return_only_their_own_stage_spans(self, blob):
        """Stage spans are the return value of the task that recorded
        them: eight traced requests decoding at once on one thread pool
        each get exactly their own five stages, parented on their own
        attempt span."""
        ctxs = [TraceContext.new_root() for _ in range(8)]
        with BatchDecoder(workers=8, backend="thread",
                          speculative="off") as dec:
            batch = dec.decode_batch(
                [ImageRequest(data=blob, trace=ctx) for ctx in ctxs])
        for ctx, result in zip(ctxs, batch.results):
            assert result.ok
            assert {s.trace_id for s in result.trace_spans} == {ctx.trace_id}
            (attempt,) = [s for s in result.trace_spans
                          if s.name == "attempt"]
            assert attempt.parent_id == ctx.span_id
            stages = [s for s in result.trace_spans if s is not attempt]
            assert sorted(s.name for s in stages) == [
                "color", "entropy", "idct", "parse", "upsample"]
            assert {s.parent_id for s in stages} == {attempt.span_id}

    def test_trace_lands_in_store_and_renders(self, blob, tmp_path):
        """A traced request's spans land in the trace log, which
        renders them."""
        log = tmp_path / "spans.jsonl"
        session = DecodeSession(backend="serial", tracing="on",
                                trace_log=str(log))
        try:
            handle = session.submit(blob)
            result = handle.result(timeout=60)
            trace_id = result.trace_spans[0].trace_id
        finally:
            session.close(drain=False)
        stored = read_trace_log(log)[trace_id]
        assert [s.to_dict() for s in stored] \
            == [s.to_dict() for s in result.trace_spans]
        text = format_trace(trace_id, stored)
        assert trace_id in text
        assert "request" in text and "attempt" in text
        timeline = spans_to_timeline(stored)
        assert timeline.render()

    def test_untraced_requests_carry_no_spans(self, blob):
        session = DecodeSession(backend="serial", tracing="off")
        try:
            handle = session.submit(blob)
            result = handle.result(timeout=60)
        finally:
            session.close(drain=False)
        assert result.ok
        assert result.trace_spans == []

    def test_sampled_session_reconciles_exactly(self, blob):
        """The deterministic 1-in-N gate, through a whole session: the
        trace count is exact, each trace has at least its request span,
        and a traced decode has the pixels of an untraced one."""
        oracle = decode_jpeg(blob).rgb
        session = DecodeSession(backend="serial", tracing="sample",
                                trace_sample=0.5)
        try:
            handles = [session.submit(blob) for _ in range(5)]
            results = [h.result(timeout=60) for h in handles]
            counters = session.obs.counters()
        finally:
            session.close(drain=False)
        assert all(np.array_equal(r.rgb, oracle) for r in results)
        assert [bool(r.trace_spans) for r in results] \
            == [True, False, True, False, True]
        assert counters["traces_started"] == 3
        assert counters["spans_recorded"] >= 3


# ---------------------------------------------------------------------------
# Satellite 3: trace propagation under faults.
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("no_backoff")
class TestTraceUnderFaults:
    def test_killed_dispatch_yields_sibling_attempt_spans(self, blob):
        """A FaultPlan kill on attempt 1 must surface as two ``attempt``
        child spans of the same request trace, attempt=1 crashed and
        attempt=2 ok."""
        plan = FaultPlan(kill_at={0})
        ctx = TraceContext.new_root()
        with BatchDecoder(workers=2, backend="thread", faults=plan,
                          speculative="off") as dec:
            batch = dec.decode_batch(
                [ImageRequest(data=blob, trace=ctx)])
        (result,) = batch.results
        assert result.ok and result.attempts == 2
        attempts = sorted(
            (s for s in result.trace_spans if s.name == "attempt"),
            key=lambda s: s.attrs["attempt"])
        assert [s.attrs["attempt"] for s in attempts] == [1, 2]
        assert [s.attrs["outcome"] for s in attempts] == ["crashed", "ok"]
        # Siblings: both parent directly on the request context.
        assert {s.parent_id for s in attempts} == {ctx.span_id}
        assert attempts[0].trace_id == attempts[1].trace_id == ctx.trace_id
        assert attempts[1].start >= attempts[0].start

    @pytest.mark.parametrize("kind", ["whole", "segment", "spec"])
    def test_every_plan_kind_traces_one_attempt_per_dispatch(
            self, small_rgb, blob, kind, fanout_always):
        """The one dispatch opens an attempt context for every subtask
        of every plan: one ``attempt`` span per dispatch carrying
        ``attempt=`` and ``task=``, all siblings under the request
        span, the killed subtask's retry among them.  Every fan-out
        pays; the policy keeps the marker-free image whole or forces
        its chunks."""
        dri = encode_jpeg(small_rgb, EncoderSettings(
            quality=85, subsampling="4:2:2", restart_interval=4))
        request = ImageRequest(data=dri if kind == "segment" else blob)
        plan = FaultPlan(kill_at={0})
        ctx = TraceContext.new_root()
        with BatchDecoder(workers=2, backend="thread", faults=plan,
                          speculative="on" if kind == "spec"
                          else "off") as dec:
            batch = dec.decode_batch([request._replace(trace=ctx)])
        (result,) = batch.results
        assert result.ok and dec.stats.retries == 1
        assert np.array_equal(result.rgb, decode_jpeg(request.data).rgb)
        attempts = [s for s in result.trace_spans if s.name == "attempt"]
        # One span per dispatch: every subtask once, the killed one twice.
        assert len(attempts) == plan.dispatches == result.segments + 1
        assert {s.attrs["task"] for s in attempts} == {kind}
        assert {s.parent_id for s in attempts} == {ctx.span_id}
        assert {s.trace_id for s in attempts} == {ctx.trace_id}
        assert len({s.span_id for s in attempts}) == len(attempts)
        outcomes = sorted((s.attrs["attempt"], s.attrs["outcome"])
                          for s in attempts)
        assert outcomes == ([(1, "crashed")]
                            + [(1, "ok")] * (result.segments - 1)
                            + [(2, "ok")])

    def test_fanned_out_request_has_no_schedule_span(self, blob):
        """Fanned out before placement, a traced request was never
        scheduled: it reads request -> queue -> one attempt per
        subtask, while the whole image beside it keeps its schedule
        span.  The pool has room for both; only the 640x480 frame's
        fan-out pays."""
        dri = encode_jpeg(synthetic_photo(480, 640, seed=6, detail=0.6),
                          EncoderSettings(quality=85, subsampling="4:2:2",
                                          restart_interval=8))
        with DecodeSession(backend="thread", workers=3, scheduler="model",
                           tracing="on") as session:
            handles = [session.submit(dri), session.submit(blob)]
            fanned, whole = (h.result(timeout=60) for h in handles)
        names = [s.name for s in fanned.trace_spans]
        assert fanned.segments > 1
        assert names[:2] == ["request", "queue"]
        assert names.count("attempt") == fanned.segments
        assert "schedule" not in names and "lane_excluded" not in names
        assert [s.name for s in whole.trace_spans][:3] \
            == ["request", "queue", "schedule"]

    def test_breaker_open_lane_emits_lane_excluded_event(self, blob):
        """An open circuit breaker excludes its lane from the plan and
        the traced batch records a zero-length ``lane_excluded`` event
        naming it."""
        board = LaneBreakerBoard(threshold=1, cooldown_s=60.0)
        sched = ModelScheduler(policy="model", breakers=board)
        victim = sched.executors[0].name
        board.record(victim, ok=False)
        assert board.state(victim) == "open"
        ctx = TraceContext.new_root()
        with BatchDecoder(backend="serial", scheduler=sched) as dec:
            batch = dec.decode_batch([ImageRequest(data=blob, trace=ctx)])
        (result,) = batch.results
        assert result.ok
        excluded = [s for s in result.trace_spans
                    if s.name == "lane_excluded"]
        assert excluded, [s.name for s in result.trace_spans]
        (event,) = excluded
        assert event.resource == victim
        assert event.attrs["reason"] == "breaker_open"
        assert event.duration_s == 0.0
        # And no attempt ran on the excluded lane.
        lanes = [s.resource for s in result.trace_spans
                 if s.name == "attempt"]
        assert victim not in lanes


# ---------------------------------------------------------------------------
# Trace log file + CLI reconstruction.
# ---------------------------------------------------------------------------


class TestTraceLogAndCLI:
    def _decode_with_log(self, blob, path, n=2):
        session = DecodeSession(backend="serial", tracing="on",
                                trace_log=str(path))
        try:
            handles = [session.submit(blob) for _ in range(n)]
            return [h.result(timeout=60) for h in handles]
        finally:
            session.close(drain=False)

    def test_log_is_one_json_object_per_span(self, blob, tmp_path):
        path = tmp_path / "traces.jsonl"
        results = self._decode_with_log(blob, path)
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            payload = json.loads(line)
            assert {"trace_id", "span_id", "name", "start",
                    "end"} <= payload.keys()
        total = sum(len(r.trace_spans) for r in results)
        assert len(lines) == total

    def test_read_trace_log_groups_by_trace(self, blob, tmp_path):
        path = tmp_path / "traces.jsonl"
        results = self._decode_with_log(blob, path)
        traces = read_trace_log(path)
        assert len(traces) == len(results)
        for result in results:
            trace_id = result.trace_spans[0].trace_id
            assert trace_id in traces

    def test_cli_trace_and_timeline(self, blob, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "traces.jsonl"
        results = self._decode_with_log(blob, path)
        trace_id = results[0].trace_spans[0].trace_id
        assert main(["trace", trace_id, "--trace-log", str(path)]) == 0
        out = capsys.readouterr().out
        assert trace_id in out and "attempt" in out
        # Unique-prefix match resolves too.
        assert main(["trace", trace_id[:8],
                     "--trace-log", str(path)]) == 0
        capsys.readouterr()
        assert main(["timeline", "--last", "2",
                     "--trace-log", str(path)]) == 0
        out = capsys.readouterr().out
        for result in results:
            assert result.trace_spans[0].trace_id in out

    def test_cli_trace_unknown_id_fails(self, blob, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "traces.jsonl"
        self._decode_with_log(blob, path, n=1)
        assert main(["trace", "ffffffffffffffff",
                     "--trace-log", str(path)]) == 2
        assert main(["trace", "deadbeef",
                     "--trace-log", str(tmp_path / "absent.jsonl")]) == 2


# ---------------------------------------------------------------------------
# /metrics and X-Trace over a live HTTP server.
# ---------------------------------------------------------------------------


class TestHTTPObservability:
    @pytest.fixture()
    def server(self, tmp_path):
        srv = DecodeHTTPServer(port=0, backend="thread", workers=2,
                               tracing="off",
                               trace_log=str(tmp_path / "spans.jsonl"))
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        thread.join(timeout=30)
        srv.close()

    def test_metrics_endpoint_is_valid_prometheus(self, server, blob):
        req = urllib.request.Request(server.url + "/decode", data=blob,
                                     method="POST")
        with urllib.request.urlopen(req, timeout=60) as resp:
            assert resp.status == 200
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=30) as resp:
            assert resp.status == 200
            ctype = resp.headers["Content-Type"]
            body = resp.read().decode()
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        assert check_prom_format.validate(body) == []
        samples, _ = check_prom_format.parse_samples(body)
        by_key = {(s.name, tuple(sorted(s.labels.items()))): s.value
                  for s in samples}
        assert by_key[("repro_images_total",
                       (("outcome", "ok"),))] >= 1

    def test_x_trace_header_forces_a_trace(self, server, blob):
        req = urllib.request.Request(
            server.url + "/decode", data=blob, method="POST",
            headers={"X-Trace": "1"})
        with urllib.request.urlopen(req, timeout=60) as resp:
            assert resp.status == 200
            trace_id = resp.headers["X-Trace-Id"]
        assert trace_id
        spans = read_trace_log(server.session.obs.log.path)[trace_id]
        assert {"request", "queue", "attempt"} <= {s.name for s in spans}

    def test_untraced_decode_has_no_trace_header(self, server, blob):
        req = urllib.request.Request(server.url + "/decode", data=blob,
                                     method="POST")
        with urllib.request.urlopen(req, timeout=60) as resp:
            assert resp.status == 200
            assert resp.headers.get("X-Trace-Id") is None
