"""Public decoder facade: :class:`HeterogeneousDecoder`.

Ties the whole system together the way the paper's runtime does: given a
platform (CPU + GPU), it looks up the platform's performance model per
subsampling mode (fitted offline, once), then decodes images under any
of the six execution modes — or picks the predicted-fastest mode
automatically from the fitted closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..errors import JpegUnsupportedError
from ..kernels.options import KERNEL_SUBSAMPLINGS, GpuProgramOptions
from .modes import DecodeMode
from .perfmodel import PerformanceModel, fitted_model
from .platform import Platform

if TYPE_CHECKING:  # pragma: no cover - the executors load on first decode
    from .executors import DecodeResult, ExecutionConfig, PreparedImage

@dataclass
class HeterogeneousDecoder:
    """JPEG decoder for one CPU-GPU platform.

    Parameters
    ----------
    platform : the CPU+GPU pair to decode on.
    gpu_options : kernel-level knobs (merging, vectorization, work-group
        size); profiling may override the work-group size with its sweep
        winner.
    models : pre-fitted performance models keyed by subsampling; missing
        entries come from :func:`fitted_model`.
    repartition : let PPS re-solve its split before the last GPU chunk
        with the corrected density (Eq. 16; the A6 ablation turns it
        off).

    The CPU rows of a partitioned frame run the same IDCT, fancy
    upsampling and colour conversion as the GPU kernels, so the frame
    equals :func:`~repro.jpeg.decode_jpeg`'s in every mode.
    """

    platform: Platform
    gpu_options: GpuProgramOptions = field(default_factory=GpuProgramOptions)
    models: dict[str, PerformanceModel] = field(default_factory=dict)
    repartition: bool = True

    @classmethod
    def for_platform(cls, platform: Platform, **kwargs) -> "HeterogeneousDecoder":
        """Construct with default options for *platform*."""
        return cls(platform=platform, **kwargs)

    # -- model management --------------------------------------------------

    def model_for(self, subsampling: str) -> PerformanceModel:
        """The performance model for a mode (see :func:`fitted_model`)."""
        if subsampling not in self.models:
            self.models[subsampling] = fitted_model(
                self.platform, subsampling, self.gpu_options)
        return self.models[subsampling]

    # -- decoding ------------------------------------------------------------

    def prepare(self, data: bytes) -> PreparedImage:
        """Parse and entropy-decode once; reusable across modes."""
        from .executors import PreparedImage

        return PreparedImage.from_bytes(data)

    def _config(self, prepared: PreparedImage) -> ExecutionConfig:
        from .executors import ExecutionConfig

        mode = prepared.geometry.mode
        model = None
        if mode in KERNEL_SUBSAMPLINGS:
            model = self.model_for(mode)
            options = replace(self.gpu_options,
                              workgroup_blocks=model.workgroup_blocks)
        else:
            options = self.gpu_options
        return ExecutionConfig(
            platform=self.platform, model=model, gpu_options=options,
            repartition=self.repartition,
        )

    def choose_mode(self, prepared: PreparedImage) -> DecodeMode:
        """Pick the predicted-fastest mode from the closed forms."""
        geo = prepared.geometry
        if geo.mode not in KERNEL_SUBSAMPLINGS:
            return DecodeMode.SIMD
        model = self.model_for(geo.mode)
        w, h, d = geo.width, geo.height, prepared.density
        t_huff = model.t_huff(w, h, d)
        predictions = {
            DecodeMode.SIMD: t_huff + model.p_cpu(w, h),
            DecodeMode.GPU: t_huff + model.p_gpu(w, h) + model.t_dispatch(w, h),
            # pipelined GPU hides kernels behind Huffman except the last chunk
            DecodeMode.PIPELINE: t_huff + model.p_gpu(
                w, min(h, model.chunk_mcu_rows * geo.mcu_height)),
        }
        # PPS is bounded below by the Huffman time plus the balanced tail;
        # predict via the PPS balance equation's CPU side.
        from .partition import partition_pps

        decision = partition_pps(model, w, h, d,
                                 model.chunk_mcu_rows * geo.mcu_height,
                                 geo.mcu_height)
        predictions[DecodeMode.PPS] = (
            t_huff + model.p_cpu(w, decision.cpu_rows)
            + model.t_dispatch(w, decision.gpu_rows))
        return min(predictions, key=predictions.get)

    def decode(self, data: bytes | PreparedImage,
               mode: DecodeMode | str = "auto") -> DecodeResult:
        """Decode under *mode* ("auto" picks the predicted-fastest).

        Returns a :class:`DecodeResult` with real pixels, the simulated
        timeline, and the partition decision for SPS/PPS.
        """
        from .executors import PreparedImage, execute

        prepared = data if isinstance(data, PreparedImage) else self.prepare(data)
        if mode == "auto":
            mode = self.choose_mode(prepared)
        mode = DecodeMode(mode)
        if mode.uses_gpu and prepared.geometry.mode not in KERNEL_SUBSAMPLINGS:
            raise JpegUnsupportedError(
                f"{mode.value} mode supports 4:4:4/4:2:2 (the paper's "
                f"scope); got {prepared.geometry.mode}"
            )
        return execute(self._config(prepared), prepared, mode)

    def decode_all_modes(self, data: bytes | PreparedImage,
                         modes: tuple[DecodeMode, ...] | None = None
                         ) -> dict[DecodeMode, DecodeResult]:
        """Decode once per mode, sharing the entropy-decode work."""
        from .executors import PreparedImage

        prepared = data if isinstance(data, PreparedImage) else self.prepare(data)
        modes = modes or tuple(DecodeMode)
        return {m: self.decode(prepared, m) for m in modes}
