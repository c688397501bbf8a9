"""The performance model (paper Section 5.1, Equations 3-7).

Closed forms, fitted offline per CPU-GPU combination and subsampling
mode, with image width, height and entropy density as the only inputs:

- ``THuffPerPixel(d)``: Huffman decoding rate (us/pixel) vs. density —
  the Figure 7 relationship; ``THuff = THuffPerPixel(d) * w * h`` (Eq 4).
- ``PCPU(w, h)``: CPU parallel phase (SIMD path), Figure 6 left.
- ``PCPUseq(w, h)``: same for the plain sequential path.
- ``PGPU(w, h)``: GPU parallel phase *including* both PCIe transfers
  (Eq 7: ``PGPU = Ow + Tkernel + Or``), Figure 6 right.
- ``Tdisp(w, h)``: host-side OpenCL dispatch overhead.

All polynomials are evaluated in Horner form at run time (Section 5.1's
optimization); density uses Eq 3: ``d = file_size / (w * h)``.

:func:`fitted_model` serves a platform's model: the built-in platforms'
shipped fits, or a profile made on first use for anything else.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import ModelError
from ..kernels.options import GpuProgramOptions
from .horner import HornerPolynomial
from .regression import PolynomialModel

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .platform import Platform

#: Executor kinds the batch-pricing API understands.  Each kind maps one
#: whole image onto one device lane: ``"simd"``/``"seq"`` run Huffman
#: plus the CPU parallel phase (Eq 5), ``"gpu"`` runs Huffman plus the
#: GPU pass with transfers and dispatch overhead (Eq 6 + Tdisp).
EXECUTOR_KINDS = ("simd", "seq", "gpu")


@dataclass
class PerformanceModel:
    """Fitted closed forms for one (platform, subsampling) pair."""

    platform_name: str
    subsampling: str
    huff_rate_fit: PolynomialModel    # f(density) -> us/pixel
    cpu_simd_fit: PolynomialModel             # f(w, h) -> us
    cpu_seq_fit: PolynomialModel              # f(w, h) -> us
    gpu_fit: PolynomialModel                  # f(w, h) -> us (Ow + kernel + Or)
    disp_fit: PolynomialModel                 # f(w, h) -> us
    chunk_mcu_rows: int = 8                 # Section 4.5 profiling output
    workgroup_blocks: int = 16              # Section 5.1 WG-size sweep output
    #: Per-extra-scan Huffman surcharge for progressive (SOF2) streams,
    #: as a fraction of the single-scan ``THuff``.  A progressive image
    #: re-walks its entropy data once per scan; each pass is cheaper
    #: than a full baseline decode (one spectral band, no IDCT), so the
    #: surcharge is fractional.  Outside the paper's fitted scope —
    #: a fixed coefficient, not a profiled polynomial.
    scan_pass_factor: float = 0.35
    _horner: dict = field(default_factory=dict, repr=False)

    def _h(self, name: str, model: PolynomialModel) -> HornerPolynomial:
        if name not in self._horner:
            self._horner[name] = HornerPolynomial(model)
        return self._horner[name]

    # -- closed-form evaluations (all return simulated microseconds) -------

    def t_huff(self, width: int, height: int, density: float) -> float:
        """Eq 4: whole-image (or sub-image) Huffman decode time."""
        if height <= 0 or width <= 0:
            return 0.0
        rate = self._h("huff", self.huff_rate_fit).evaluate(density)
        return max(0.0, rate * width * height)

    def p_cpu(self, width: int, rows: int, simd: bool = True) -> float:
        """CPU parallel phase over *rows* pixel rows."""
        if rows <= 0:
            return 0.0
        model = self.cpu_simd_fit if simd else self.cpu_seq_fit
        name = "cpu_simd" if simd else "cpu_seq"
        return max(0.0, self._h(name, model).evaluate(width, rows))

    def p_gpu(self, width: int, rows: int) -> float:
        """GPU parallel phase (transfers included) over *rows* pixel rows."""
        if rows <= 0:
            return 0.0
        return max(0.0, self._h("gpu", self.gpu_fit).evaluate(width, rows))

    def t_dispatch(self, width: int, rows: int) -> float:
        """Host-side dispatch overhead for a GPU execution of *rows*."""
        if rows <= 0:
            return 0.0
        return max(0.0, self._h("disp", self.disp_fit).evaluate(width, rows))

    # -- totals (Eq 5, Eq 6) -------------------------------------------------

    def total_cpu(self, width: int, height: int, density: float,
                  simd: bool = True) -> float:
        """Eq 5: Ttotal = THuff + PCPU."""
        return self.t_huff(width, height, density) + self.p_cpu(width, height, simd)

    def total_gpu(self, width: int, height: int, density: float) -> float:
        """Eq 6: Ttotal = THuff + PGPU."""
        return self.t_huff(width, height, density) + self.p_gpu(width, height)

    # -- batch pricing (cross-image scheduler input) -------------------------

    def price(self, kind: str, width: int, height: int,
              density: float, scans: int = 1) -> float:
        """Predicted whole-image decode time (us) on one executor kind.

        This is the cross-image scheduler's cost function: the same
        closed forms the paper uses to split a *single* image's pixel
        stage (Eq 5/6), evaluated for a whole image routed to one lane.

        - ``"simd"``: Eq 5 with the SIMD parallel-phase fit.
        - ``"seq"``: Eq 5 with the plain sequential fit.
        - ``"gpu"``: Eq 6 plus the host dispatch overhead ``Tdisp`` —
          a lone image on the GPU lane cannot hide the dispatch behind
          another image's Huffman decode, so it pays it in full.

        *scans* > 1 (progressive streams) surcharges the Huffman term:
        each extra scan re-walks entropy data for one spectral band,
        priced at ``scan_pass_factor * THuff`` on top of the base cost.
        """
        if kind == "simd":
            base = self.total_cpu(width, height, density, simd=True)
        elif kind == "seq":
            base = self.total_cpu(width, height, density, simd=False)
        elif kind == "gpu":
            base = (self.total_gpu(width, height, density)
                    + self.t_dispatch(width, height))
        else:
            raise ModelError(
                f"unknown executor kind {kind!r} "
                f"(choose from {EXECUTOR_KINDS})")
        if scans > 1:
            base += (scans - 1) * self.scan_pass_factor \
                * self.t_huff(width, height, density)
        return base

    def price_batch(self, kind: str,
                    images: "list[tuple[int, int, float]]") -> list[float]:
        """Vector form of :meth:`price` over ``(width, height, density)``
        triples — one predicted time per image, same order."""
        return [self.price(kind, w, h, d) for (w, h, d) in images]

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form of the fitted model (see :meth:`save`)."""
        return {
            "platform_name": self.platform_name,
            "subsampling": self.subsampling,
            "huff_rate_fit": self.huff_rate_fit.to_dict(),
            "cpu_simd_fit": self.cpu_simd_fit.to_dict(),
            "cpu_seq_fit": self.cpu_seq_fit.to_dict(),
            "gpu_fit": self.gpu_fit.to_dict(),
            "disp_fit": self.disp_fit.to_dict(),
            "chunk_mcu_rows": self.chunk_mcu_rows,
            "workgroup_blocks": self.workgroup_blocks,
            "scan_pass_factor": self.scan_pass_factor,
        }

    def save(self, path: str | Path) -> None:
        """Write the fitted model to *path* as indented JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def from_dict(cls, d: dict) -> "PerformanceModel":
        """Rebuild a model from :meth:`to_dict` output; raises
        :class:`~repro.errors.ModelError` on missing fields."""
        try:
            return cls(
                platform_name=d["platform_name"],
                subsampling=d["subsampling"],
                huff_rate_fit=PolynomialModel.from_dict(d["huff_rate_fit"]),
                cpu_simd_fit=PolynomialModel.from_dict(d["cpu_simd_fit"]),
                cpu_seq_fit=PolynomialModel.from_dict(d["cpu_seq_fit"]),
                gpu_fit=PolynomialModel.from_dict(d["gpu_fit"]),
                disp_fit=PolynomialModel.from_dict(d["disp_fit"]),
                chunk_mcu_rows=int(d.get("chunk_mcu_rows", 8)),
                workgroup_blocks=int(d.get("workgroup_blocks", 16)),
                scan_pass_factor=float(d.get("scan_pass_factor", 0.35)),
            )
        except KeyError as exc:
            raise ModelError(f"missing field in model file: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "PerformanceModel":
        """Read a model previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


#: The built-in platforms' models, fitted offline by ``profile_platform``
#: and written by ``tools/fit_models.py`` (its only writer): profiling is
#: "required only once for a given CPU-GPU combination" (Section 5).
FITTED_MODELS = Path(__file__).with_name("fitted_models.json")

#: Process-wide model cache, keyed by what a fit depends on: the
#: platform's value, the subsampling and the GPU options.
_MODEL_CACHE: dict[tuple[Platform, str, GpuProgramOptions],
                   PerformanceModel] = {}


def clear_model_cache() -> None:
    """Drop all cached performance models (tests use this)."""
    _MODEL_CACHE.clear()


def fitted_for(platform: Platform, subsampling: str,
               gpu_options: GpuProgramOptions) -> dict:
    """What one fit depends on, in the JSON form ``fitted_models.json``
    records beside each model."""
    return json.loads(json.dumps({
        "platform": asdict(platform), "subsampling": subsampling,
        "gpu_options": asdict(gpu_options)}))


def _shipped_model(platform: Platform, subsampling: str,
                   gpu_options: GpuProgramOptions) -> PerformanceModel | None:
    """The shipped model fitted for exactly these inputs, if any."""
    key = fitted_for(platform, subsampling, gpu_options)
    for entry in json.loads(FITTED_MODELS.read_text()):
        if entry["fitted_for"] == key:
            return PerformanceModel.from_dict(entry["model"])
    return None


def fitted_model(platform: Platform, subsampling: str,
                 gpu_options: GpuProgramOptions = GpuProgramOptions()
                 ) -> PerformanceModel:
    """The performance model of *platform* for one subsampling mode.

    A built-in platform at default options gets its shipped fit; any
    other combination (a custom :class:`Platform`, non-default options)
    is profiled on first use — the only case that loads the simulated
    executors and the profiler.  Either way the model is cached for the
    process.
    """
    key = (platform, subsampling, gpu_options)
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = _shipped_model(platform, subsampling, gpu_options)
        if model is None:
            from .profiling import profile_platform

            model = profile_platform(platform, subsampling,
                                     gpu_options=gpu_options)
        _MODEL_CACHE[key] = model
    return model
