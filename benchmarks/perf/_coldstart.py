"""One cold start of a workload's system, timed in a fresh interpreter.

``python _coldstart.py WORKLOAD WORKERS`` reads a JSON header line
(``{"bytes": N, "height": H, "width": W, "out_sha256": ...}``) and then
N bytes of JPEG from stdin.  It times ``import repro`` + constructing
the system under test + the first result, checks that result's pixels
against the digest, then runs the calibration kernel in the same
process so the runner can express the start-up time at nominal host
speed.  Prints one JSON line (with the processes that could own
shared-memory segments, for the runner's leak check); exits non-zero
if anything went wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]


def main() -> None:
    name, workers = sys.argv[1], int(sys.argv[2])
    header = json.loads(sys.stdin.buffer.readline())
    data = sys.stdin.buffer.read(header["bytes"])
    shape = (header["height"], header["width"])

    t0 = perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[name](workers)
    workload.start()
    reply, = workload.run_pass([(data, shape)])
    setup_s = perf_counter() - t0

    ok = reply.ok and hashlib.sha256(
        reply.pixels.tobytes()).hexdigest() == header["out_sha256"]
    pids = [os.getpid(), workload.pool_root() or os.getpid()]
    workload.stop()
    import calib
    calib_ms = statistics.median(calib.calibrate() for _ in range(3))
    print(json.dumps({"ok": ok, "setup_s": setup_s, "calib_ms": calib_ms,
                      "pids": pids}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
