"""Perf-ledger runner: one workload, one run, every metric by name.

    python3 benchmarks/perf/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE]

A run is: load (or generate) the workload's pinned inputs -> verify
them against the reference engine, the PSNR floor and (default seed)
the committed digests -> cold starts in fresh interpreters (``setup_s``)
-> start the system under test -> one verified warm-up pass -> timed
rounds for ``--seconds``, each bracketed by the calibration kernel ->
stop.  ``--trace 1`` swaps the cold starts for the traced pass (layer
probes) and reports the per-layer metrics instead of the end-to-end
ones.  The last stdout line is the result as one JSON object.

See README.md in this directory for what each metric means and which
layer should move which of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

if __name__ == "__main__":
    # One BLAS/OpenMP thread per process: pool workers are the
    # parallelism under test.  Has to happen before numpy is first
    # imported; every child inherits it.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO_ROOT / "src")]

import numpy as np  # noqa: E402

import calib  # noqa: E402
import corpus  # noqa: E402
import ledger  # noqa: E402
import probes  # noqa: E402
from workloads import (WORKLOADS, HttpWorkload, WorkloadError,  # noqa: E402
                       worker_count)

COLD_STARTS = 5
SMOKE_ROUNDS = 3


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy result."""


def require_program() -> None:
    """Refuse to run against anything but this checkout's ``repro``."""
    try:
        import repro
    except ImportError as exc:
        raise BenchmarkError(f"cannot import the program: {exc}") from exc
    if REPO_ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise BenchmarkError(
            f"'repro' resolved to {repro.__file__}, outside this checkout")


def cold_starts(name: str, member, workers: int,
                count: int) -> tuple[float, set[int]]:
    """Median start-up seconds over *count* fresh interpreters, each
    scaled by the calibration it ran itself; and the processes that
    owned shared memory on the way (for :func:`leftovers`)."""
    header = json.dumps({
        "bytes": len(member.data), "height": member.recipe.height,
        "width": member.recipe.width,
        "out_sha256": corpus.sha256(member.pixels.tobytes())}).encode()
    values, owners = [], set()
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "_coldstart.py"), name, str(workers)],
            input=header + b"\n" + member.data, stdout=subprocess.PIPE,
            timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"cold start of {name} failed "
                                 f"(exit {proc.returncode})")
        report = json.loads(proc.stdout.splitlines()[-1])
        values.append(report["setup_s"]
                      / (report["calib_ms"] / calib.NOMINAL_MS))
        owners.update(report["pids"])
    return statistics.median(values), owners


def wrong_replies(replies, members) -> int:
    """Replies that failed or whose pixels are not the oracle's."""
    return sum(1 for reply, member in zip(replies, members)
               if not reply.ok
               or not np.array_equal(reply.pixels, member.pixels))


def timed_rounds(workload, members, seconds: float,
                 max_rounds: int | None) -> list[ledger.Round]:
    """Closed-loop passes until *seconds* have elapsed (or *max_rounds*),
    each between two runs of the calibration kernel.  Every pass sends
    the members in list order: with a handful of requests of very
    unequal size, a shuffled order changes which requests share a batch
    and the makespan of the pass, and the run would measure its seed."""
    requests = [(m.data, (m.recipe.height, m.recipe.width)) for m in members]
    rounds = []
    started = perf_counter()
    calib_ms = calib.calibrate()
    while True:
        before = ledger.ProcTable()
        own0 = process_time()
        t0 = perf_counter()
        replies = workload.run_pass(requests)
        wall = perf_counter() - t0
        own_s = process_time() - own0
        after = ledger.ProcTable()
        me, pool = os.getpid(), workload.pool_root()
        cpu_s = own_s + after.cpu_s_below(me) - before.cpu_s_below(me)
        pool_s = after.cpu_s_below(pool) - before.cpu_s_below(pool)
        after_ms = calib.calibrate()
        good = [(r, m) for r, m in zip(replies, members) if r.ok]
        rounds.append(ledger.Round(
            megapixels=sum(m.megapixels for _, m in good),
            wall_s=wall,
            cpu_s=cpu_s, pool_cpu_s=pool_s,
            latencies_s=[r.latency_s for r, _ in good],
            calib_before_ms=calib_ms, calib_after_ms=after_ms,
            failed=len(replies) - len(good),
            extras=[{"latency_ms": r.latency_s * 1e3,
                     "service_ms": r.service_ms, "worker_ms": r.worker_ms}
                    for r, _ in good]))
        calib_ms = after_ms
        if max_rounds is not None:
            if len(rounds) >= max_rounds:
                return rounds
        elif perf_counter() - started >= seconds:
            return rounds


def leftovers(owners: set[int]) -> list[str]:
    """Child processes still alive, and shared-memory segments created
    by this run's processes (*owners*) and still present.  The arena
    names its segments ``repro-<pid>-...``, so segments of anything else
    on the host are not this run's business."""
    # multiprocessing's shared-memory bookkeeping process would otherwise
    # live until this interpreter exits; end it and wait for it.
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()
    shm = Path("/dev/shm")
    segments = []
    for name in sorted(os.listdir(shm)) if shm.is_dir() else []:
        owner = re.match(r"repro-(?:probe-)?(\d+)-", name)
        if owner and int(owner.group(1)) in owners:
            segments.append(f"/dev/shm/{name}")
    return ([f"child process {pid}"
             for pid in ledger.ProcTable().descendants(os.getpid())]
            + segments)


def load_verified(workload: str, seed: int) -> list:
    """The workload's inputs, checked; raises if any is wrong."""
    members = corpus.load(workload, seed)
    for m in members:
        print(f"# input {m.recipe.name} {m.recipe.width}x{m.recipe.height} "
              f"{m.recipe.subsampling} {m.bpp:.2f}bpp "
              f"sha256 {corpus.sha256(m.data)[:16]}"
              f"{' (committed)' if m.source is None else ''}")
    failures = corpus.verify(members)
    for failure in failures:
        print(f"# WRONG {failure}")
    if failures:
        raise BenchmarkError("inputs failed verification; nothing timed")
    return members


def layer_metrics(workload: str, members, rounds: list[ledger.Round],
                  live: dict, workers: int) -> tuple[dict[str, float], list]:
    """Everything ``--trace 1`` reports except the failure counts: the
    probes at nominal host speed, what replies and the session exposed
    during the timed rounds, and the raw host view; and the probes whose
    layer answered wrongly.  A layer that is not on the workload's
    request path reads 0."""
    before_ms = calib.calibrate()
    probed, skipped, wrong = probes.run_probes(
        workload, members, statistics.median(r.wall_s for r in rounds))
    factor = (before_ms + calib.calibrate()) / 2 / calib.NOMINAL_MS
    for entry in skipped:
        print(f"# probes_skipped {entry}")
    for name, value in probed.items():
        if probes.is_time_metric(name):
            probed[name] = value / factor
        elif name in probes.RATE_METRICS:
            probed[name] = value * factor

    extras = [e for r in rounds for e in r.extras]
    session_waits = [e["service_ms"] - e["worker_ms"] for e in extras
                     if e["worker_ms"] is not None]
    http_overheads = [e["latency_ms"] - e["service_ms"] for e in extras
                      if e["service_ms"] is not None
                      and e["worker_ms"] is None]
    return {
        "session.batch_fill": 0.0, "scheduler.fanout_share": 0.0,
        "workers.rebuilds": 0.0,
        "transport.shm_share": 0.0, "transport.leaked": 0.0,
        "faults.retries": 0.0, "faults.infra_failures": 0.0,
        **live,
        **probed,
        **ledger.host_metrics(rounds),
        "session.wait_ms_p50":
            statistics.median(session_waits) if session_waits else 0.0,
        "http.overhead_ms_p50":
            statistics.median(http_overheads) if http_overheads else 0.0,
        "workers.utilization":
            sum(r.pool_cpu_s for r in rounds)
            / (sum(r.wall_s for r in rounds) * workers),
    }, wrong


def run(args) -> tuple[dict, dict]:
    """One run; returns the result object and the raw host view of the
    timed rounds (recorded beside it by ``--out``)."""
    spec = ledger.load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchmarkError(f"unknown workload {args.workload!r}")
    require_program()
    workers = worker_count()
    # Smoke mode walks every path of both modes and reports --trace's.
    do_setup = args.smoke or not args.trace
    do_probes = args.smoke or args.trace

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  seconds {args.seconds:g}  cores {workers}"
          f"  python {platform.python_version()}  numpy {np.__version__}")
    members = load_verified(args.workload, args.seed)
    attempted, failed = len(members), 0
    #: what makes the run incorrect besides failed operations
    problems: list[str] = []
    #: processes whose shared-memory segments are this run's
    owners = {os.getpid()}

    metrics: dict[str, float] = {}
    if do_setup:
        metrics["setup_s"], started = cold_starts(
            args.workload, members[0], workers,
            1 if args.smoke else COLD_STARTS)
        owners |= started

    rss_reset = ledger.reset_peak_rss()
    workload = WORKLOADS[args.workload](workers)
    workload.start()
    owners.add(workload.pool_root() or os.getpid())
    warm, rounds, live = [], [], {}
    try:
        warm = workload.run_pass([(m.data, (m.recipe.height, m.recipe.width))
                                  for m in members])
        if wrong_replies(warm, members):
            raise BenchmarkError("warm-up pass returned wrong pixels")
        rounds = timed_rounds(workload, members, args.seconds,
                              SMOKE_ROUNDS if args.smoke else None)
        peak_rss_mb = ledger.tree_peak_rss_mb()
    finally:
        try:
            live = workload.stop()
        except WorkloadError as exc:
            problems.append(str(exc))
    attempted += len(warm) + sum(len(r.latencies_s) + r.failed
                                 for r in rounds)
    failed += sum(r.failed for r in rounds)

    if any(r.latencies_s for r in rounds):
        if do_probes:
            layer, wrong = layer_metrics(args.workload, members, rounds,
                                         live, workers)
            metrics.update(layer)
            problems += [f"probe {entry}" for entry in wrong]
            metrics["ops_attempted"] = float(attempted)
            metrics["ops_failed"] = float(failed)
            metrics["http.non_200"] = float(failed) if isinstance(
                workload, HttpWorkload) else 0.0
            closure = metrics["decoder.stage_closure"]
            if args.workload.startswith("direct_") and closure \
                    and not args.smoke and not 0.95 <= closure <= 1.05:
                problems.append(
                    f"decoder stages add up to {closure:.3f} of the call; "
                    "the stage attribution cannot be trusted")
        host = ledger.host_metrics(rounds)
        if do_setup:
            metrics.update(ledger.end_to_end(rounds, calib.NOMINAL_MS))
            metrics["peak_rss_mb"] = peak_rss_mb
            print(f"# rounds {len(rounds)}  "
                  f"samples {int(host['host.samples'])}  "
                  f"calib p50 {host['host.calib_ms_p50']:.1f} ms  "
                  f"raw throughput {host['host.raw_throughput_mp_s']:.3f}"
                  f" MP/s  tail p{host['host.latency_tail_pct']:g} "
                  f"{host['host.latency_tail_ms']:.1f} ms (raw)"
                  f"{'' if rss_reset else '  (peak RSS not reset)'}")
    else:
        # Nothing to take a median of: report the counts and no metric.
        problems.append("no request of the timed rounds succeeded")
        metrics, host = {}, {}

    problems += [f"left behind: {item}" for item in leftovers(owners)]
    if live.get("transport.leaked"):
        problems.append(
            f"leaked {live['transport.leaked']} shared-memory slot(s)")
    for problem in problems:
        print(f"# WRONG {problem}")

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units.get(name, 'ms')}")
    reported = spec["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in reported if m["name"] in metrics},
    }, host


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=ledger.load_spec()["run_seconds"],
                        help="length of the timed window; the benchmark's "
                             "driver passes run_seconds of BENCHMARK.json, "
                             "which is also the default.  Recorded by --out: "
                             "compare.py refuses sets timed differently")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ROUNDS} rounds and one cold start: "
                             "checks the harness, measures nothing")
    parser.add_argument("--out", help="append the result, with workload, "
                        "seed, window and the raw host.* view of the "
                        "rounds, to this JSON-lines file (compare.py's "
                        "input)")
    args = parser.parse_args()
    try:
        result, host = run(args)
    except (BenchmarkError, corpus.CorpusError, WorkloadError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload,
                                 "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds,
                                 **result, "host": host}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
