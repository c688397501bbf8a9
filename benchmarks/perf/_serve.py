"""Benchmark-owned launcher for the HTTP workload's server process.

``python _serve.py WORKERS`` binds ``DecodeHTTPServer`` to an ephemeral
loopback port over the same session configuration ``session_small``
uses, prints ``{"port": N}`` on stdout, and serves until its stdin
reaches end of file (the runner closing the pipe, or the runner dying).
It then drains, prints one line with the session's final statistics and
the count of leaked shared-memory slots, and exits 0.  No ``repro`` CLI
flag is involved, so CLI changes cannot change the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]


def main() -> None:
    from repro.service import DecodeHTTPServer

    from workloads import session_kwargs

    workers = int(sys.argv[1])
    server = DecodeHTTPServer(port=0, **session_kwargs(workers))
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(json.dumps({"port": server.port}), flush=True)
    # Raw reads, not sys.stdin.read(): a blocked buffered read holds the
    # stream's lock, and the pool's forked workers close sys.stdin on
    # start-up - they would inherit the held lock and hang.
    while os.read(0, 4096):
        pass
    server.shutdown()
    thread.join()
    snapshot = server.session.stats_snapshot()
    arena = server.session.decoder.arena
    leaked = len(arena.leaked()) if arena is not None else 0
    server.close()
    print(json.dumps({"stats": snapshot, "leaked": leaked}), flush=True)


if __name__ == "__main__":
    main()
