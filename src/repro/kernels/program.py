"""GPU decode program: the parallel phase of one MCU-row span on the GPU.

Chains write -> kernel(s) -> read on a simulated command queue, following
the paper's buffer layout (Y|Cb|Cr blocks in, row-major RGB out) and the
kernel-merging strategy of Section 4.4:

- 4:4:4: one fused IDCT+color kernel (or IDCT then color when merging is
  disabled for ablation);
- 4:2:2: IDCT kernel, then fused upsample+color (or three separate
  kernels when merging is disabled).

Everything is asynchronous: the caller's host clock only pays dispatch
overheads, and the returned events carry the device timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import JpegUnsupportedError
from ..gpusim.queue import CommandQueue, Event
from ..jpeg.blocks import ImageGeometry, blocks_to_plane
from ..jpeg.coefficients import CoefficientBuffers
from .color_kernel import ColorConvertKernel
from .idct_kernel import IdctKernel
from .layout import PlanarBlockLayout, pack_span
from .merged import MergedIdctColorKernel, MergedUpsampleColorKernel
from .options import KERNEL_SUBSAMPLINGS, GpuProgramOptions
from .upsample_kernel import UpsampleKernel


@dataclass
class SpanResult:
    """Output of one span's GPU execution."""

    rgb: np.ndarray                  # (rows, width, 3) uint8, cropped
    pixel_row_start: int
    pixel_row_stop: int
    events: list[Event] = field(default_factory=list)

    @property
    def done_at(self) -> float:
        return self.events[-1].end if self.events else 0.0


class GpuDecodeProgram:
    """Executes parallel-phase spans for one image on one queue."""

    def __init__(self, queue: CommandQueue, geometry: ImageGeometry,
                 quants: list[np.ndarray],
                 options: GpuProgramOptions | None = None) -> None:
        if geometry.mode not in KERNEL_SUBSAMPLINGS:
            raise JpegUnsupportedError(
                f"GPU kernels cover 4:4:4 and 4:2:2; {geometry.mode} "
                "decodes via the CPU paths (the paper's scope, Section 6)"
            )
        self.queue = queue
        self.geometry = geometry
        self.quants = quants
        self.options = options or GpuProgramOptions()
        o = self.options
        self._idct = IdctKernel(workgroup_blocks=o.workgroup_blocks,
                                vectorized=o.vectorized)
        self._color = ColorConvertKernel(workgroup_items=o.workgroup_items,
                                         vectorized=o.vectorized)
        self._upsample = UpsampleKernel(divergence_free=o.divergence_free)
        self._merged_ic = MergedIdctColorKernel(
            workgroup_blocks=o.workgroup_blocks, vectorized=o.vectorized)
        self._merged_uc = MergedUpsampleColorKernel(
            workgroup_items=o.workgroup_items, vectorized=o.vectorized,
            divergence_free=o.divergence_free)

    # -- helpers ----------------------------------------------------------

    def _span_planes(self, samples: list[np.ndarray], layout: PlanarBlockLayout
                     ) -> list[np.ndarray]:
        """Assemble per-component sample planes from block batches."""
        planes = []
        for comp, blocks in zip(self.geometry.components, samples):
            rows = layout.mcu_rows * comp.v_factor
            planes.append(blocks_to_plane(blocks, comp.blocks_wide, rows))
        return planes

    # -- main entry point --------------------------------------------------

    def run_span(self, coeffs: CoefficientBuffers, mcu_row_start: int,
                 mcu_row_stop: int, host_time: float,
                 label: str = "") -> tuple[float, SpanResult]:
        """Enqueue the full parallel phase for the span; returns the new
        host time and the (already computed) span result.

        The RGB array is the *final* data; its availability time on the
        host is the last event's ``end``.
        """
        geo = self.geometry
        layout, comp_blocks = pack_span(coeffs, mcu_row_start, mcu_row_stop)
        tag = label or f"rows[{mcu_row_start}:{mcu_row_stop}]"
        events: list[Event] = []

        host_time, ev = self.queue.enqueue_write(
            f"write {tag}", layout.coefficient_nbytes, host_time)
        events.append(ev)

        if geo.mode == "4:4:4":
            rgb_blocks, host_time, kevents = self._run_444(comp_blocks, host_time, tag)
        else:
            rgb_blocks, host_time, kevents = self._run_422(
                comp_blocks, layout, host_time, tag)
        events.extend(kevents)

        host_time, ev = self.queue.enqueue_read(
            f"read {tag}", layout.rgb_nbytes, host_time)
        events.append(ev)

        # crop the block-padded output to real image rows/columns
        px0 = mcu_row_start * geo.mcu_height
        px1 = min(mcu_row_stop * geo.mcu_height, geo.height)
        rgb = rgb_blocks[: px1 - px0, : geo.width]
        return host_time, SpanResult(
            rgb=rgb, pixel_row_start=px0, pixel_row_stop=px1, events=events)

    def price_span(self, mcu_row_start: int, mcu_row_stop: int,
                   host_time: float, label: str = "") -> tuple[float, list[Event]]:
        """Enqueue the span's commands *without executing any math*.

        Used by offline profiling and the schedule simulators: kernel
        cost depends only on launch geometry, so shape-only arrays
        suffice.  Timing is identical to :meth:`run_span`.
        """
        geo = self.geometry
        layout = PlanarBlockLayout(geo, mcu_row_start, mcu_row_stop)
        tag = label or f"rows[{mcu_row_start}:{mcu_row_stop}]"
        nrows = layout.mcu_rows
        events: list[Event] = []

        host_time, ev = self.queue.enqueue_write(
            f"write {tag}", layout.coefficient_nbytes, host_time)
        events.append(ev)

        comps = geo.components
        shapes = [
            np.empty((c.blocks_wide * c.v_factor * nrows, 8, 8), dtype=np.int16)
            for c in comps
        ]
        if geo.mode == "4:4:4":
            if self.options.merge_kernels:
                host_time, ev, _ = self.queue.enqueue_kernel(
                    self._merged_ic, host_time, execute=False,
                    label=f"idct+color {tag}", y_coeffs=shapes[0],
                    cb_coeffs=shapes[1], cr_coeffs=shapes[2],
                    quants=self.quants)
                events.append(ev)
            else:
                for name, arr, quant in zip("Y Cb Cr".split(), shapes, self.quants):
                    host_time, ev, _ = self.queue.enqueue_kernel(
                        self._idct, host_time, execute=False,
                        label=f"idct[{name}] {tag}", coeffs=arr, quant=quant)
                    events.append(ev)
                plane = np.empty((nrows * geo.mcu_height, comps[0].blocks_wide * 8),
                                 dtype=np.uint8)
                host_time, ev, _ = self.queue.enqueue_kernel(
                    self._color, host_time, execute=False,
                    label=f"color {tag}", y=plane, cb=plane, cr=plane)
                events.append(ev)
        else:  # 4:2:2
            for name, arr, quant in zip("Y Cb Cr".split(), shapes, self.quants):
                host_time, ev, _ = self.queue.enqueue_kernel(
                    self._idct, host_time, execute=False,
                    label=f"idct[{name}] {tag}", coeffs=arr, quant=quant)
                events.append(ev)
            y_plane = np.empty((nrows * geo.mcu_height, comps[0].blocks_wide * 8),
                               dtype=np.uint8)
            c_plane = np.empty((nrows * geo.mcu_height, comps[1].blocks_wide * 8),
                               dtype=np.uint8)
            if self.options.merge_kernels:
                host_time, ev, _ = self.queue.enqueue_kernel(
                    self._merged_uc, host_time, execute=False,
                    label=f"upsample+color {tag}", y_plane=y_plane,
                    cb_plane=c_plane, cr_plane=c_plane)
                events.append(ev)
            else:
                for name in ("Cb", "Cr"):
                    host_time, ev, _ = self.queue.enqueue_kernel(
                        self._upsample, host_time, execute=False,
                        label=f"upsample[{name}] {tag}", plane=c_plane)
                    events.append(ev)
                host_time, ev, _ = self.queue.enqueue_kernel(
                    self._color, host_time, execute=False,
                    label=f"color {tag}", y=y_plane, cb=y_plane, cr=y_plane)
                events.append(ev)

        host_time, ev = self.queue.enqueue_read(
            f"read {tag}", layout.rgb_nbytes, host_time)
        events.append(ev)
        return host_time, events

    # -- per-mode kernel chains ---------------------------------------------

    def _run_444(self, comp_blocks: list[np.ndarray], host_time: float,
                 tag: str) -> tuple[np.ndarray, float, list[Event]]:
        events: list[Event] = []
        yb, cbb, crb = comp_blocks
        layout_rows = None
        if self.options.merge_kernels:
            host_time, ev, rgb_blocks = self.queue.enqueue_kernel(
                self._merged_ic, host_time, label=f"idct+color {tag}",
                y_coeffs=yb, cb_coeffs=cbb, cr_coeffs=crb,
                quants=[self.quants[0], self.quants[1], self.quants[2]])
            events.append(ev)
            samples = None
            rgb_plane = self._assemble_rgb_blocks(rgb_blocks)
            return rgb_plane, host_time, events
        samples = []
        for name, blocks, quant in (
            ("Y", yb, self.quants[0]),
            ("Cb", cbb, self.quants[1]),
            ("Cr", crb, self.quants[2]),
        ):
            host_time, ev, out = self.queue.enqueue_kernel(
                self._idct, host_time, label=f"idct[{name}] {tag}",
                coeffs=blocks, quant=quant)
            events.append(ev)
            samples.append(out)
        comp0 = self.geometry.components[0]
        rows = samples[0].shape[0] // comp0.blocks_wide
        planes = [
            blocks_to_plane(s, c.blocks_wide, s.shape[0] // c.blocks_wide)
            for s, c in zip(samples, self.geometry.components)
        ]
        host_time, ev, rgb = self.queue.enqueue_kernel(
            self._color, host_time, label=f"color {tag}",
            y=planes[0], cb=planes[1], cr=planes[2])
        events.append(ev)
        return rgb, host_time, events

    def _assemble_rgb_blocks(self, rgb_blocks: np.ndarray) -> np.ndarray:
        """(n, 8, 8, 3) block batch -> (rows, cols, 3) plane."""
        comp = self.geometry.components[0]
        n = rgb_blocks.shape[0]
        bh = n // comp.blocks_wide
        grid = rgb_blocks.reshape(bh, comp.blocks_wide, 8, 8, 3)
        return grid.transpose(0, 2, 1, 3, 4).reshape(bh * 8, comp.blocks_wide * 8, 3)

    def _run_422(self, comp_blocks: list[np.ndarray], layout: PlanarBlockLayout,
                 host_time: float, tag: str) -> tuple[np.ndarray, float, list[Event]]:
        events: list[Event] = []
        samples = []
        for name, blocks, quant in (
            ("Y", comp_blocks[0], self.quants[0]),
            ("Cb", comp_blocks[1], self.quants[1]),
            ("Cr", comp_blocks[2], self.quants[2]),
        ):
            host_time, ev, out = self.queue.enqueue_kernel(
                self._idct, host_time, label=f"idct[{name}] {tag}",
                coeffs=blocks, quant=quant)
            events.append(ev)
            samples.append(out)
        planes = self._span_planes(samples, layout)

        if self.options.merge_kernels:
            host_time, ev, rgb = self.queue.enqueue_kernel(
                self._merged_uc, host_time, label=f"upsample+color {tag}",
                y_plane=planes[0], cb_plane=planes[1], cr_plane=planes[2])
            events.append(ev)
            return rgb, host_time, events

        ups = []
        for name, plane in (("Cb", planes[1]), ("Cr", planes[2])):
            host_time, ev, up = self.queue.enqueue_kernel(
                self._upsample, host_time, label=f"upsample[{name}] {tag}",
                plane=plane)
            events.append(ev)
            ups.append(up)
        host_time, ev, rgb = self.queue.enqueue_kernel(
            self._color, host_time, label=f"color {tag}",
            y=planes[0], cb=ups[0], cr=ups[1])
        events.append(ev)
        return rgb, host_time, events
