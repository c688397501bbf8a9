"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflows the library supports:

- ``info FILE.jpg``            — parse and print header facts + density
- ``decode FILE.jpg OUT.ppm``  — decode to a binary PPM (P6)
- ``synth OUT.jpg``            — generate + encode a synthetic image
- ``profile``                  — run offline profiling, save model JSON
- ``evaluate``                 — all-mode simulated timings for one file
- ``serve-batch FILE...``      — decode files through a
  :class:`~repro.service.session.DecodeSession` over a worker pool,
  reporting each result as it completes (see :mod:`repro.service`)
- ``serve --port N``           — HTTP decode service over a futures-based
  :class:`~repro.service.session.DecodeSession` (``POST /decode`` →
  PPM/metadata, ``GET /stats``, 429 on backpressure; see
  :mod:`repro.service.http`); with ``--hosts host:port,...`` the
  session's scheduler lanes are remote worker hosts (see
  :mod:`repro.service.remote`)
- ``serve-worker --port N``    — one shard of the sharded serving tier:
  a decode session behind the length-prefixed TCP protocol the front
  tier's remote lanes speak
- ``trace TRACE_ID``           — render one collected trace from a
  ``--trace-log`` JSON-lines file as an ASCII Gantt + span tree (the
  measured counterpart of the paper's Figure 5/8 timelines)
- ``timeline --last N``        — render the N most recent traces from a
  ``--trace-log`` file

The serving commands (``serve``, ``serve-worker``, ``serve-batch``)
share the tracing flags: ``--tracing off|on|sample`` gates per-request
trace spans, ``--trace-sample`` sets the sampled fraction, and
``--trace-log FILE`` appends every completed span as one JSON object
per line (rotation-safe) for ``repro trace`` / ``repro timeline``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core.modes import DecodeMode
from .errors import DeadlineExceededError, ReproError
from .kernels.options import KERNEL_SUBSAMPLINGS

if TYPE_CHECKING:  # pragma: no cover - the viewer loads them on use
    from .core.timeline import Timeline
    from .service.obs import SpanRecord


def _cmd_info(args: argparse.Namespace) -> int:
    from .jpeg import parse_jpeg

    info = parse_jpeg(Path(args.file).read_bytes())
    coding = ("progressive" if info.progressive else "baseline")
    print(f"file:          {args.file}")
    print(f"dimensions:    {info.width} x {info.height}")
    print(f"coding:        {coding}, {len(info.scans)} scan(s), "
          f"{len(info.frame.components)} component(s)")
    print(f"subsampling:   {info.subsampling_mode}")
    print(f"file size:     {info.file_size} bytes")
    print(f"entropy data:  {len(info.entropy_data)} bytes")
    print(f"density (Eq3): {info.file_density:.4f} bytes/pixel")
    print(f"restart intvl: {info.restart_interval or 'none'}")
    geo = info.geometry
    print(f"MCU grid:      {geo.mcus_per_row} x {geo.mcu_rows} "
          f"({geo.mcu_width}x{geo.mcu_height} px each)")
    return 0


def _write_ppm(path: Path, rgb: np.ndarray) -> None:
    # Deliberately not repro.service.http.ppm_bytes: the basic decode
    # path must not drag the whole service package into its imports.
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(np.ascontiguousarray(rgb).tobytes())


def _cmd_decode(args: argparse.Namespace) -> int:
    data = Path(args.file).read_bytes()
    if args.mode == "reference":
        from .jpeg import DecodeOptions, decode_jpeg

        decoded = decode_jpeg(data, DecodeOptions(salvage=args.salvage))
        rgb = decoded.rgb
        if decoded.salvaged:
            bad = int(decoded.error_map.sum())
            print(f"salvaged decode: {bad} damaged MCU(s); "
                  + "; ".join(decoded.errors), file=sys.stderr)
    else:
        from .core import HeterogeneousDecoder
        from .evaluation import platforms

        plat = {p.name: p for p in platforms.ALL_PLATFORMS}[args.platform]
        decoder = HeterogeneousDecoder.for_platform(plat)
        result = decoder.decode(data, args.mode)
        rgb = result.rgb
        print(f"simulated {result.mode.value} decode: "
              f"{result.total_time_ms:.3f} ms")
    _write_ppm(Path(args.output), rgb)
    print(f"wrote {args.output} ({rgb.shape[1]}x{rgb.shape[0]})")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .data import GENERATORS
    from .jpeg import EncoderSettings, encode_jpeg

    gen = GENERATORS[args.kind]
    kwargs = {"detail": args.detail} if args.kind == "photo" else {}
    rgb = gen(args.height, args.width, seed=args.seed, **kwargs)
    data = encode_jpeg(rgb, EncoderSettings(
        quality=args.quality, subsampling=args.subsampling,
        restart_interval=args.restart_interval,
        colorspace=args.colorspace, progressive=args.progressive))
    Path(args.output).write_bytes(data)
    coding = "progressive " if args.progressive else ""
    print(f"wrote {args.output}: {coding}{args.colorspace} "
          f"{args.width}x{args.height} "
          f"{args.subsampling} q{args.quality}, {len(data)} bytes")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core.profiling import profile_platform
    from .evaluation import platforms

    plat = {p.name: p for p in platforms.ALL_PLATFORMS}[args.platform]
    model = profile_platform(plat, args.subsampling)
    model.save(args.output)
    print(f"profiled {plat.name} ({args.subsampling}); model -> {args.output}")
    print(f"  work-group: {model.workgroup_blocks} blocks, "
          f"chunk: {model.chunk_mcu_rows} MCU rows")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .core import HeterogeneousDecoder
    from .evaluation import platforms

    data = Path(args.file).read_bytes()
    plat = {p.name: p for p in platforms.ALL_PLATFORMS}[args.platform]
    decoder = HeterogeneousDecoder.for_platform(plat)
    prepared = decoder.prepare(data)
    gpu_ok = prepared.geometry.mode in KERNEL_SUBSAMPLINGS
    totals = {mode: decoder.decode(prepared, mode).total_us
              for mode in DecodeMode if gpu_ok or not mode.uses_gpu}
    print(f"{args.file} on {plat}:")
    for mode in DecodeMode:
        if mode not in totals:
            print(f"  {mode.value:<10} n/a (GPU kernels cover "
                  f"{'/'.join(KERNEL_SUBSAMPLINGS)})")
            continue
        speed = totals[DecodeMode.SIMD] / totals[mode]
        print(f"  {mode.value:<10} {totals[mode] / 1e3:9.3f} ms  "
              f"{speed:5.2f}x")
    return 0


def _batch_inputs(args: argparse.Namespace) -> list[tuple[str, bytes]]:
    """serve-batch's input set: named files, plus --synth images."""
    from .data import synthetic_photo
    from .jpeg import EncoderSettings, encode_jpeg

    blobs = [(f, Path(f).read_bytes()) for f in args.files]
    for i in range(args.synth):
        rgb = synthetic_photo(480, 640, seed=i, detail=0.6)
        blobs.append((f"synth-{i}", encode_jpeg(rgb, EncoderSettings(
            quality=85, subsampling="4:2:2",
            restart_interval=8 if i % 2 else 0))))
    return blobs


def _report(handle, out_dir: Path | None) -> bool:
    """Report one resolved serve-batch handle (its PPM under *out_dir*);
    True when the image failed, a missed deadline included."""
    try:
        r = handle.result()
    except DeadlineExceededError as exc:
        print(f"    FAIL {handle.request_id}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return True
    if not r.ok:
        print(f"    FAIL {r.request_id}: {r.error_type}: {r.error}",
              file=sys.stderr)
        return True
    if r.salvaged:
        print(f"    SALVAGED {r.request_id}: "
              + "; ".join(r.salvage_errors), file=sys.stderr)
    if out_dir is not None:
        name = str(r.request_id).replace("/", "_")
        _write_ppm(out_dir / f"{name}.ppm", r.rgb)
    return False


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from queue import SimpleQueue

    from .service import DecodeSession, ImageRequest

    blobs = _batch_inputs(args)
    if not blobs:
        print("no inputs: pass JPEG files and/or --synth N", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    with DecodeSession(**_session_kwargs(args)) as svc:
        print(f"serve-batch: {len(blobs)} inputs x{args.repeat}, "
              f"{_describe_session(args, svc)}")
        resolved: SimpleQueue = SimpleQueue()
        for k in range(args.repeat):
            for name, data in blobs:
                req = ImageRequest(
                    data=data, request_id=f"{name}@{k}" if args.repeat > 1
                    else name,
                    salvage=args.salvage)
                # Waits while the queue is full: backpressure.
                svc.submit(req, timeout=None).add_done_callback(resolved.put)
        failures = sum(_report(resolved.get(), out_dir)
                       for _ in range(len(blobs) * args.repeat))
        print(f"summary: {svc.stats.format(svc.decoder.rebuilds)}")
    return 1 if failures else 0


def _breakers(threshold: int | None):
    """The lane circuit-breaker board ``--breaker-threshold`` tunes
    (consecutive infrastructure failures before a lane trips open);
    None keeps the :class:`~repro.service.scheduler.LaneBreakerBoard`
    defaults."""
    if threshold is None:
        return None
    from .service import LaneBreakerBoard
    return LaneBreakerBoard(threshold=threshold)


def _pricing_platform(args: argparse.Namespace):
    """The platform ``--platform`` names: the prior every scheduler
    lane, local or remote, is priced at."""
    from .evaluation import platforms

    return {p.name: p for p in platforms.ALL_PLATFORMS}[args.platform]


def _session_kwargs(args: argparse.Namespace,
                    local_lanes: bool = True) -> dict:
    """:class:`~repro.service.session.DecodeSession` keywords from the
    shared session flags (see :func:`_add_session_args`).  Without
    *local_lanes* the flags that size and schedule local pools are left
    out: on a sharded front tier they describe the worker hosts."""
    kwargs = dict(
        queue_capacity=args.queue_capacity,
        retry_budget=args.retry_budget,
        # serve-worker has no such flag: the front tier owns deadlines.
        default_deadline_ms=getattr(args, "default_deadline_ms", None),
        tracing=args.tracing, trace_sample=args.trace_sample,
        trace_log=args.trace_log)
    if not local_lanes:
        return kwargs
    scheduler = None
    if args.schedule != "none":
        from .service import ModelScheduler
        from .service.scheduler import local_lane

        scheduler = ModelScheduler(
            policy=args.schedule,
            executors=(local_lane(_pricing_platform(args)),),
            breakers=_breakers(args.breaker_threshold))
    return dict(kwargs, workers=args.workers, backend=args.backend,
                scheduler=scheduler)


def _describe_session(args: argparse.Namespace, session) -> str:
    """The configuration half of a serving command's startup line."""
    decoder = session.decoder
    text = (f"queue={args.queue_capacity}, {decoder.pool.workers} x "
            f"{decoder.pool.backend} workers, transport={decoder.transport}")
    if decoder.scheduler is not None:
        text += f", schedule={decoder.scheduler.policy}"
    return text


def _serve_until_signalled(serve, stop, accepting: str) -> None:
    """Run *serve* with a graceful drain on SIGTERM/SIGINT: the first
    signal calls *stop* and the caller's ``finally`` closes (decoding
    everything already accepted) on the way out.  *stop* runs on a
    helper thread — the handler runs on the main thread, which is
    inside *serve*, and a stop that blocks until that loop exits
    (``HTTPServer.shutdown``) would deadlock inline."""
    import signal
    import threading

    draining = threading.Event()

    def _graceful(signum: int, frame: object) -> None:
        if draining.is_set():
            return
        draining.set()
        print(f"received {signal.Signals(signum).name}: draining, "
              f"no longer accepting {accepting}", file=sys.stderr, flush=True)
        threading.Thread(target=stop, daemon=True).start()

    previous: dict[int, object] = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _graceful)
        except ValueError:
            pass  # not the main thread (embedded use): no signal hooks
    try:
        serve()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _serve_session(args: argparse.Namespace):
    """The session ``repro serve`` fronts: a local one, or with
    ``--hosts`` the sharded front tier — the same class over remote
    lanes."""
    from .service import DecodeSession, remote_executors, sharded_session

    if not args.hosts:
        return DecodeSession(**_session_kwargs(args))
    policy = "roundrobin" if args.schedule == "roundrobin" else "model"
    link = {"platform": _pricing_platform(args)}
    if args.shard_depth is not None:
        link["depth"] = args.shard_depth
    return sharded_session(
        remote_executors(args.hosts, **link), policy=policy,
        breakers=_breakers(args.breaker_threshold),
        **_session_kwargs(args, local_lanes=False))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import DecodeHTTPServer

    session = _serve_session(args)
    try:
        server = DecodeHTTPServer(session=session, host=args.host,
                                  port=args.port)
    except BaseException:
        session.close(drain=False)
        raise
    sharded = ""
    if args.hosts:
        lanes = session.decoder.scheduler.executors
        sharded = (f", sharded across {len(lanes)} hosts "
                   f"[{', '.join(lane.endpoint for lane in lanes)}], "
                   f"depth={lanes[0].depth}")
    print(f"serve: listening on {server.url} "
          f"({_describe_session(args, session)}{sharded})", flush=True)
    print("endpoints: POST /decode (JPEG in, PPM out; ?format=json for "
          "metadata), GET /stats, GET /metrics, GET /healthz", flush=True)
    try:
        _serve_until_signalled(
            lambda: server.serve_forever(max_requests=args.max_requests),
            server.shutdown, "requests")
    finally:
        # The session is external to the server, so it is drained here:
        # every accepted request's handle resolves before the pools
        # shut down.
        server.close()
        session.close(drain=True)
        print(f"summary: {session.stats.format(session.decoder.rebuilds)}")
    return 0


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    from .service import DecodeWorkerHost

    host = DecodeWorkerHost(host=args.host, port=args.port,
                            **_session_kwargs(args))
    print(f"serve-worker: listening on {host.endpoint} "
          f"({_describe_session(args, host.session)})", flush=True)
    try:
        _serve_until_signalled(host.serve_forever, host.shutdown,
                               "connections")
    finally:
        # close() severs live connections and drains the owned session.
        host.close()
        session = host.session
        print(f"summary: {session.stats.format(session.decoder.rebuilds)}")
    return 0


def spans_to_timeline(spans: list[SpanRecord]) -> Timeline:
    """Replay collected spans through the ASCII-Gantt renderer.

    Times are normalized to the trace start and expressed in
    microseconds, matching :class:`~repro.core.timeline.Timeline`'s
    simulated-time units so its renderer and metrics apply unchanged.
    """
    from .core.timeline import Timeline

    timeline = Timeline()
    if not spans:
        return timeline
    origin = min(s.start for s in spans)
    for span in sorted(spans, key=lambda s: s.start):
        start_us = (span.start - origin) * 1e6
        end_us = max(start_us, (span.end - origin) * 1e6)
        timeline.add(span.resource, span.name, span.kind, start_us, end_us)
    return timeline


def format_trace(trace_id: str, spans: list[SpanRecord],
                 width: int = 78) -> str:
    """Render one trace: Gantt chart plus an indented span tree (the
    measured counterpart of the paper's Figure 5/8 timelines)."""
    if not spans:
        return f"trace {trace_id}: no spans"
    lines = [f"trace {trace_id} — {len(spans)} span(s), "
             f"{(max(s.end for s in spans) - min(s.start for s in spans)) * 1e3:.2f} ms",
             "", spans_to_timeline(spans).render(width=width), ""]
    by_parent: dict[str | None, list[SpanRecord]] = {}
    known = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        by_parent.setdefault(parent, []).append(span)
    origin = min(s.start for s in spans)
    tree: list[tuple[str, SpanRecord]] = []

    def walk(parent: str | None, indent: str) -> None:
        """Append one tree level, sorted by start time."""
        for span in sorted(by_parent.get(parent, ()), key=lambda s: s.start):
            tree.append((indent + span.name, span))
            walk(span.span_id, indent + "  ")

    walk(None, "")
    pad = max(len(name) for name, _ in tree)    # the columns line up
    for name, span in tree:
        attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items()
                         if k != "clock_offset_s")
        lines.append(
            f"  {name:<{pad}} +{(span.start - origin) * 1e3:8.2f} ms "
            f"{span.duration_s * 1e3:8.2f} ms  "
            f"[{span.resource}]{'  ' + attrs if attrs else ''}")
    return "\n".join(lines)


def _read_traces(path: Path) -> dict[str, list[SpanRecord]] | None:
    """The span log at *path* as ``trace_id -> spans``, or ``None``
    (reported on stderr) when no serving command has written it."""
    from .service.obs import read_trace_log

    if not path.exists():
        print(f"no trace log at {path} (run a serving command with "
              f"--trace-log {path})", file=sys.stderr)
        return None
    return read_trace_log(path)


def _cmd_trace(args: argparse.Namespace) -> int:
    traces = _read_traces(args.trace_log)
    if traces is None:
        return 2
    spans = traces.get(args.trace_id)
    if not spans:
        # Prefix match, so operators can paste a truncated id.
        matches = [tid for tid in traces if tid.startswith(args.trace_id)]
        if len(matches) == 1:
            spans = traces[matches[0]]
        elif matches:
            print(f"ambiguous trace id {args.trace_id!r}: "
                  + ", ".join(matches), file=sys.stderr)
            return 2
    if not spans:
        print(f"trace {args.trace_id!r} not found in {args.trace_log} "
              f"({len(traces)} trace(s) logged)", file=sys.stderr)
        return 2
    _print_clipped(format_trace(spans[0].trace_id, spans,
                                width=args.width))
    return 0


def _print_clipped(text: str) -> None:
    """Print, tolerating a downstream pager/head closing the pipe."""
    try:
        print(text)
    except BrokenPipeError:
        # The reader (e.g. `| head`) closed stdout; silence the late
        # flush at interpreter shutdown and stop emitting.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)


def _cmd_timeline(args: argparse.Namespace) -> int:
    path = args.trace_log
    traces = _read_traces(path)
    if traces is None:
        return 2
    if not traces:
        print(f"{path} holds no complete spans yet", file=sys.stderr)
        return 2
    recent = list(traces.items())[-args.last:]
    _print_clipped(f"{len(traces)} trace(s) in {path}; "
                   f"showing last {len(recent)}")
    for trace_id, spans in recent:
        _print_clipped("\n" + format_trace(trace_id, spans,
                                           width=args.width))
    return 0


_PLATFORMS = ["GT 430", "GTX 560", "GTX 680"]
_MODES = ["reference", *(m.value for m in DecodeMode), "auto"]


def _add_tracing_args(p: argparse.ArgumentParser) -> None:
    """The shared tracing flags of serve / serve-worker / serve-batch."""
    p.add_argument("--tracing", default="off",
                   choices=["off", "on", "sample"],
                   help="per-request trace spans: 'on' traces every "
                        "request, 'sample' a deterministic 1-in-N "
                        "fraction (--trace-sample), 'off' keeps the "
                        "no-op fast path (default)")
    p.add_argument("--trace-sample", type=float, default=0.1,
                   help="sampled fraction for --tracing sample "
                        "(default: 0.1)")
    p.add_argument("--trace-log", default=None,
                   help="append completed spans to this JSON-lines file "
                        "(one object per span, rotation-safe; feeds "
                        "'repro trace' and 'repro timeline')")


def _add_session_args(p: argparse.ArgumentParser) -> None:
    """The session flags serve-batch / serve / serve-worker share, each
    declared once (:func:`_session_kwargs` reads them back)."""
    p.add_argument("--queue-capacity", type=int, default=32,
                   help="bounded submission queue (serve: full = HTTP 429)")
    p.add_argument("--workers", type=int, default=None,
                   help="pool size (default: all cores)")
    p.add_argument("--backend", default=None,
                   choices=["process", "thread", "serial"],
                   help="worker pool backend (default: process on "
                        "multi-core hosts, serial otherwise)")
    p.add_argument("--schedule", default="none",
                   choices=["none", "model", "roundrobin"],
                   help="cross-image batch scheduling: price each image "
                        "with the fitted performance model, corrected by "
                        "each lane's measured wall time, and place whole "
                        "images (LPT for 'model', cyclic for "
                        "'roundrobin')")
    p.add_argument("--platform", default="GTX 560", choices=_PLATFORMS,
                   help="pricing prior of a scheduler's lanes: the "
                        "platform whose fitted SIMD rate prices them "
                        "before wall-time feedback corrects it")
    p.add_argument("--retry-budget", type=int, default=None,
                   help="redispatches per image after a worker crash "
                        "before the request fails (default: 2)")
    p.add_argument("--breaker-threshold", type=int, default=None,
                   help="consecutive infrastructure failures before a "
                        "scheduler lane's circuit breaker trips open "
                        "(requires --schedule; default: 3)")
    _add_tracing_args(p)


def _add_file_parsers(sub) -> None:
    """info / decode / synth / profile / evaluate."""
    p = sub.add_parser("info", help="print JPEG header facts")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("decode", help="decode a JPEG to PPM")
    p.add_argument("file")
    p.add_argument("output")
    p.add_argument("--mode", default="reference", choices=_MODES)
    p.add_argument("--platform", default="GTX 560", choices=_PLATFORMS)
    p.add_argument("--salvage", action="store_true",
                   help="best-effort decode of corrupt streams (reference "
                        "mode): return the rows decoded before the error "
                        "plus an error-region report instead of failing")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("synth", help="generate a synthetic JPEG")
    p.add_argument("output")
    p.add_argument("--kind", default="photo",
                   choices=["photo", "smooth", "detail", "skewed", "gray"])
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--quality", type=int, default=85)
    p.add_argument("--subsampling", default="4:2:2",
                   choices=["4:4:4", "4:2:2", "4:2:0", "4:1:1", "4:4:0"])
    p.add_argument("--colorspace", default="ycbcr",
                   choices=["gray", "ycbcr", "ycck"],
                   help="encoded layout: 1-component grayscale, "
                        "3-component YCbCr, or 4-component Adobe YCCK")
    p.add_argument("--progressive", action="store_true",
                   help="emit a progressive (SOF2) multi-scan stream "
                        "instead of a baseline one")
    p.add_argument("--detail", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restart-interval", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("profile", help="offline-profile a platform")
    p.add_argument("--platform", default="GTX 560", choices=_PLATFORMS)
    p.add_argument("--subsampling", default="4:2:2",
                   choices=KERNEL_SUBSAMPLINGS)
    p.add_argument("--output", default="model.json")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("evaluate", help="all-mode simulated timings")
    p.add_argument("file")
    p.add_argument("--platform", default="GTX 560", choices=_PLATFORMS)
    p.set_defaults(func=_cmd_evaluate)


def _add_serving_parsers(sub) -> None:
    """serve-batch / serve / serve-worker: :func:`_add_session_args`
    plus what only one of them takes."""
    p = sub.add_parser(
        "serve-batch",
        help="batched decode service: queue + worker pool + stats")
    p.add_argument("files", nargs="*",
                   help="JPEG files to decode (may be empty with --synth)")
    p.add_argument("--synth", type=int, default=0,
                   help="also generate N synthetic 640x480 JPEGs")
    _add_session_args(p)
    p.add_argument("--repeat", type=int, default=1,
                   help="feed the input set N times (soak/throughput)")
    p.add_argument("--out-dir", default=None,
                   help="write decoded PPMs into this directory")
    p.add_argument("--default-deadline-ms", type=float, default=None,
                   help="queueing deadline applied to requests that do "
                        "not carry one; expired requests are shed "
                        "before decode (default: none)")
    p.add_argument("--salvage", action="store_true",
                   help="best-effort decode of corrupt streams: damaged "
                        "images resolve ok with an error-region map "
                        "instead of failing the request")
    p.set_defaults(func=_cmd_serve_batch)

    p = sub.add_parser(
        "serve",
        help="HTTP decode service over a futures-based session "
             "(POST /decode, GET /stats)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8077,
                   help="listening port (0 = ephemeral, printed at start)")
    _add_session_args(p)
    p.add_argument("--max-requests", type=int, default=None,
                   help="exit after N connections (smoke tests/demos; "
                        "default: serve forever)")
    p.add_argument("--default-deadline-ms", type=float, default=None,
                   help="queueing deadline applied to requests without "
                        "an X-Deadline-Ms header; expired requests "
                        "answer 504 (default: none)")
    p.add_argument("--hosts", default=None,
                   help="shard decode across worker hosts "
                        "('host:port,host:port', see serve-worker); "
                        "--workers/--backend "
                        "then apply to the hosts, not this process")
    p.add_argument("--shard-depth", type=int, default=None,
                   help="requests on the wire per worker host; further "
                        "placements wait in the host's lane (default: "
                        "RemoteLane.depth, 2)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "serve-worker",
        help="one shard of the sharded serving tier: a decode session "
             "behind the length-prefixed TCP protocol that "
             "'serve --hosts' fronts")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9077,
                   help="listening port (0 = ephemeral, printed at start)")
    _add_session_args(p)
    p.set_defaults(func=_cmd_serve_worker)


def _add_trace_parsers(sub) -> None:
    """trace / timeline."""
    p = sub.add_parser(
        "trace",
        help="render one collected trace as an ASCII Gantt + span tree")
    p.add_argument("trace_id",
                   help="trace id (or unique prefix) from an X-Trace-Id "
                        "response header or the trace log")
    p.set_defaults(func=_cmd_trace)
    q = sub.add_parser(
        "timeline",
        help="render the most recent collected traces as ASCII Gantts")
    q.add_argument("--last", type=int, default=5,
                   help="how many of the most recent traces to render "
                        "(default: 5)")
    q.set_defaults(func=_cmd_timeline)
    for reader in (p, q):
        reader.add_argument("--trace-log", type=Path,
                            default="traces.jsonl",
                            help="JSON-lines span log a serving command "
                                 "wrote (default: traces.jsonl)")
        reader.add_argument("--width", type=int, default=78,
                            help="Gantt chart width in characters "
                                 "(default: 78)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous JPEG decompression (PMAM'14 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_file_parsers(sub)
    _add_serving_parsers(sub)
    _add_trace_parsers(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A refused configuration or an unreadable input: one line and
        # argparse's exit status, not a traceback.
        print(f"{parser.prog}: error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
