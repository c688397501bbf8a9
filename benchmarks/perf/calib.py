"""Host-speed calibration kernel for the perf ledger.

A fixed amount of work shaped like the decoder's two cost centres and
owned by the benchmark (it imports nothing from ``repro``, so no change
to the program can change it):

- :func:`interp_half` — a pure-Python integer / bit-twiddle /
  list-index loop, interpreter-bound like the Huffman decode loop of
  ``repro.jpeg.fast_entropy``;
- :func:`numpy_half` — elementwise float multiply-add -> clip -> uint8
  passes over a 384x512 plane, memory-bound like the IDCT / colour
  stages.

The runner times the kernel before and after every round.  The ratio of
that time to the pinned nominal time is the round's host-speed factor:
a round measured while the shared host ran 1.3x slow has its timings
divided by 1.3.  The nominal constant is a unit scale only; it cancels
in every parent-versus-change ratio.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Iterations of the interpreter-bound half (~25 ms on the reference host).
INTERP_ITERS = 86_000

#: Passes of the numpy half over the plane (~25 ms on the reference host).
NUMPY_PASSES = 144

#: Kernel time at "nominal host speed".  Only a unit scale: every gated
#: metric of parent and change is divided by the same constant.
NOMINAL_MS = 50.0

_TABLE = [(i * 2654435761) & 0xFFFF for i in range(1024)]
_PLANE = (np.arange(384 * 512, dtype=np.float32).reshape(384, 512)
          % 251.0)


def interp_half(iters: int = INTERP_ITERS) -> int:
    """Shift/mask/table-lookup loop; returns a checksum so the work
    cannot be skipped."""
    table = _TABLE
    acc = 0x9E3779B9
    bits = 0
    total = 0
    for i in range(iters):
        acc = ((acc << 5) ^ (acc >> 3) ^ i) & 0xFFFFFFFF
        code = table[acc & 1023]
        bits = (bits + (code & 15)) & 63
        total += (code >> (bits & 7)) & 0xFF
    return total


def numpy_half(passes: int = NUMPY_PASSES) -> int:
    """Float multiply-add, clip and narrow to uint8, *passes* times."""
    plane = _PLANE
    total = 0
    for k in range(passes):
        out = plane * 1.402 + (k - 128.0)
        np.clip(out, 0.0, 255.0, out=out)
        total += int(out.astype(np.uint8)[k, k])
    return total


def calibrate() -> float:
    """Run both halves once; return the elapsed milliseconds.

    The total, not a robust statistic of slices: interference comes in
    bursts, a round of real work suffers their average, and so must the
    kernel.  (A median-of-five-slices variant ignored the bursts and
    doubled the run-to-run spread of the direct workloads.)"""
    t0 = perf_counter()
    interp_half()
    numpy_half()
    return (perf_counter() - t0) * 1e3
