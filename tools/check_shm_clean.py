#!/usr/bin/env python3
"""Fail when a ``repro-*`` shared-memory segment is left in ``/dev/shm``.

The transport arena (``repro.service.transport.PlaneArena``) no longer
names its slots: each is a nameless ``memfd_create`` file that goes with
the last process holding it, so it cannot leave anything in
``/dev/shm``.  The check stays as a guard: a ``repro-*`` entry after a
test suite or a benchmark has exited means some code path went back to
named shared memory and leaked it.  CI runs this after every job that
touches the arena.

Usage::

    python tools/check_shm_clean.py

Exit status 0 when ``/dev/shm`` holds no such segment (or does not exist
on this platform), 1 with one line per leftover otherwise.
"""

from __future__ import annotations

import os
import sys

SHM_DIR = "/dev/shm"
PREFIX = "repro-"


def leftovers(shm_dir: str = SHM_DIR) -> list[str]:
    """Names of the ``repro-*`` segments currently in *shm_dir*."""
    try:
        return sorted(f for f in os.listdir(shm_dir) if f.startswith(PREFIX))
    except FileNotFoundError:
        return []


def main() -> int:
    """CLI entry: list leftovers and exit 1 when there are any."""
    leaked = leftovers()
    if leaked:
        print("leaked shared-memory segments:", file=sys.stderr)
        for name in leaked:
            print(name, file=sys.stderr)
        return 1
    print("OK: no repro-* segments in", SHM_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
