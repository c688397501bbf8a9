"""Kernel abstraction and launch cost model.

A :class:`SimKernel` bundles the *real computation* (vectorized NumPy over
whole buffers — results are bit-exact against the reference decoder) with
a *launch description*: NDRange geometry, per-item flop count, memory
traffic and divergence.  :func:`kernel_time_us` converts a description
into simulated microseconds using the device's calibrated throughputs:

``t = launch_overhead + max(compute_time, memory_time)``

with compute throttled by occupancy and warp divergence, and memory
throttled by coalescing and per-transaction overhead.  The overlap-max
follows the usual roofline argument: a kernel is bound by whichever
pipe saturates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from ..errors import KernelError
from .device import GPUDeviceSpec
from .memory import MemoryTraffic
from .ndrange import NDRange, occupancy

#: Fixed cost per memory transaction (us); penalizes scalar stores.
TRANSACTION_OVERHEAD_US = 2.0e-4

#: Bandwidth penalty applied to non-coalesced access patterns.
UNCOALESCED_PENALTY = 4.0


@dataclass(frozen=True)
class KernelLaunch:
    """Everything the cost model needs to price one launch."""

    ndrange: NDRange
    flops_per_item: float
    traffic: MemoryTraffic
    registers_per_item: int = 16
    divergence_factor: float = 1.0   # >= 1; 2.0 = half the warp idles

    def __post_init__(self) -> None:
        if self.flops_per_item < 0:
            raise KernelError("negative flops per item")
        if self.divergence_factor < 1.0:
            raise KernelError("divergence factor must be >= 1")


def kernel_time_us(launch: KernelLaunch, device: GPUDeviceSpec) -> float:
    """Simulated execution time of one kernel launch in microseconds."""
    occ = occupancy(
        launch.ndrange, device,
        launch.registers_per_item, launch.traffic.local_bytes_per_group,
    )
    # occupancy below ~50% stops hiding latency; above that extra warps
    # give diminishing returns.  Standard piecewise-linear approximation.
    throughput_scale = min(1.0, occ / 0.5)

    total_flops = launch.ndrange.global_size * launch.flops_per_item
    compute_us = (
        launch.divergence_factor * total_flops
        / (device.effective_gflops * throughput_scale * 1e3)
    )

    bw = device.effective_bandwidth_gbps * 1e3  # bytes / us
    if not launch.traffic.coalesced:
        bw /= UNCOALESCED_PENALTY
    memory_us = launch.traffic.total_bytes / bw
    memory_us += (
        launch.traffic.read_transactions + launch.traffic.write_transactions
    ) * TRANSACTION_OVERHEAD_US

    return device.kernel_launch_us + max(compute_us, memory_us)


class SimKernel(ABC):
    """Base class for simulated GPU kernels.

    Subclasses implement :meth:`execute` (the real math, whole-buffer
    NumPy) and :meth:`describe_launch` (geometry + cost inputs).  The
    command queue calls both: execute for data, describe_launch for time.
    """

    #: Human-readable kernel name (appears in timelines/profiles).
    name: str = "kernel"

    @abstractmethod
    def describe_launch(self, **args: Any) -> KernelLaunch:
        """Return the launch description for the given arguments."""

    @abstractmethod
    def execute(self, **args: Any) -> Any:
        """Run the kernel's computation and return its outputs."""
