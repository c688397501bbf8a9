"""OpenCL-style simulated GPU substrate.

Real math on NumPy buffers, simulated time from a calibrated cost model.
See DESIGN.md §2 for why this substitution preserves the paper's
scheduling behaviour.  Names resolve lazily: the device specs a
platform is made of load without the queue and kernel model.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "SEQUENTIAL_COSTS": "calibrate", "SIMD_COSTS": "calibrate",
    "cpu_parallel_time_us": "calibrate", "huffman_time_us": "calibrate",
    "GT430": "device", "GTX560TI": "device", "GTX680": "device",
    "INTEL_I7_2600K": "device", "INTEL_I7_3770K": "device",
    "CPUDeviceSpec": "device", "GPUDeviceSpec": "device",
    "KernelLaunch": "kernel", "SimKernel": "kernel",
    "kernel_time_us": "kernel",
    "DeviceBuffer": "memory", "MemoryTraffic": "memory",
    "PinnedHostBuffer": "memory",
    "NDRange": "ndrange", "occupancy": "ndrange",
    "DISPATCH_OVERHEAD_US": "queue", "CommandQueue": "queue",
    "Event": "queue",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
