"""Device specifications for the simulated heterogeneous platform.

The three GPU presets follow Table 1 of the paper exactly (core counts,
clock frequencies, memory sizes, compute capabilities); throughput
*efficiency* factors are calibration constants documented in
:mod:`repro.gpusim.calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeviceError


@dataclass(frozen=True)
class GPUDeviceSpec:
    """Static description of one simulated OpenCL GPU device."""

    name: str
    cores: int                     # scalar processors ("CUDA cores")
    core_clock_mhz: float
    sm_count: int                  # multiprocessors
    memory_mb: int
    compute_capability: tuple[int, int]
    mem_bandwidth_gbps: float      # device-global memory
    pcie_bandwidth_gbps: float     # host <-> device, pinned buffers
    pcie_latency_us: float = 10.0
    kernel_launch_us: float = 8.0
    warp_size: int = 32
    max_workgroup_size: int = 1024
    local_mem_per_sm_kb: float = 48.0
    registers_per_sm: int = 32768
    compute_efficiency: float = 0.4   # fraction of peak flops sustained
    memory_efficiency: float = 0.6    # fraction of peak bandwidth sustained

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.sm_count <= 0:
            raise DeviceError("core/SM counts must be positive")
        if self.cores % self.sm_count:
            raise DeviceError("cores must divide evenly among SMs")
        if not 0 < self.compute_efficiency <= 1:
            raise DeviceError("compute_efficiency must be in (0, 1]")
        if not 0 < self.memory_efficiency <= 1:
            raise DeviceError("memory_efficiency must be in (0, 1]")

    @property
    def peak_gflops(self) -> float:
        """Peak single-precision throughput at 1 op/core/clock."""
        return self.cores * self.core_clock_mhz / 1e3

    @property
    def effective_gflops(self) -> float:
        return self.peak_gflops * self.compute_efficiency

    @property
    def effective_bandwidth_gbps(self) -> float:
        return self.mem_bandwidth_gbps * self.memory_efficiency

    def transfer_time_us(self, nbytes: int, pinned: bool = True) -> float:
        """PCIe transfer time in microseconds (paper Eq. 7's Ow/Or).

        Pageable buffers pay an extra staging copy; the paper pins its
        whole-image buffers, so pinned is the default.
        """
        if nbytes < 0:
            raise DeviceError("negative transfer size")
        bandwidth = self.pcie_bandwidth_gbps * (1.0 if pinned else 0.55)
        return self.pcie_latency_us + nbytes / (bandwidth * 1e3)


@dataclass(frozen=True)
class CPUDeviceSpec:
    """Static description of the host CPU.

    ``speed_factor`` scales every calibrated per-pixel cost; 1.0 is the
    i7-2600K baseline of the paper's first two machines.
    """

    name: str
    cores: int
    clock_ghz: float
    simd_width_bits: int = 128      # SSE2, what libjpeg-turbo uses
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise DeviceError("CPU must have at least one core")
        if self.speed_factor <= 0:
            raise DeviceError("speed_factor must be positive")


# ---------------------------------------------------------------------------
# Table 1 presets.
# ---------------------------------------------------------------------------

INTEL_I7_2600K = CPUDeviceSpec(
    name="Intel i7-2600K", cores=4, clock_ghz=3.4, speed_factor=1.0,
)

INTEL_I7_3770K = CPUDeviceSpec(
    name="Intel i7-3770K", cores=4, clock_ghz=3.5, speed_factor=1.06,
)

GT430 = GPUDeviceSpec(
    name="NVIDIA GT 430",
    cores=96, core_clock_mhz=700.0, sm_count=2, memory_mb=1024,
    compute_capability=(2, 1),
    mem_bandwidth_gbps=28.8, pcie_bandwidth_gbps=5.0,
    compute_efficiency=0.15, memory_efficiency=0.50,
)

GTX560TI = GPUDeviceSpec(
    name="NVIDIA GTX 560Ti",
    cores=384, core_clock_mhz=822.0, sm_count=8, memory_mb=1024,
    compute_capability=(2, 1),
    mem_bandwidth_gbps=128.0, pcie_bandwidth_gbps=8.0,
    compute_efficiency=0.45, memory_efficiency=0.60,
)

GTX680 = GPUDeviceSpec(
    name="NVIDIA GTX 680",
    cores=1536, core_clock_mhz=1006.0, sm_count=8, memory_mb=2048,
    compute_capability=(3, 0),
    mem_bandwidth_gbps=192.3, pcie_bandwidth_gbps=12.0,
    compute_efficiency=0.20, memory_efficiency=0.60,
    registers_per_sm=65536, local_mem_per_sm_kb=48.0,
)
