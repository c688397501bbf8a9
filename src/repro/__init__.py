"""repro — Dynamic partitioning-based JPEG decompression on heterogeneous
multicore architectures.

A production-quality Python reproduction of Sodsong et al. (PMAM/PPoPP
2014).  The package bundles:

- :mod:`repro.jpeg` — a complete baseline JPEG codec (the libjpeg-turbo
  substrate),
- :mod:`repro.gpusim` — an OpenCL-style simulated GPU with asynchronous
  command queues and a calibrated cost model,
- :mod:`repro.kernels` — the paper's GPU kernels (IDCT, upsampling, color
  conversion, merged variants) with real math + modeled cost,
- :mod:`repro.core` — the contribution: offline profiling, polynomial
  performance models, Newton-based dynamic partitioning (SPS/PPS) and the
  pipelined heterogeneous executors,
- :mod:`repro.data` — deterministic synthetic corpora,
- :mod:`repro.evaluation` — the experiment harness regenerating every
  table and figure of the paper.

Quickstart::

    from repro import HeterogeneousDecoder, DecodeMode, platforms
    from repro.data import synthetic_photo
    from repro.jpeg import encode_jpeg

    data = encode_jpeg(synthetic_photo(512, 512, seed=7))
    dec = HeterogeneousDecoder.for_platform(platforms.GTX560)
    result = dec.decode(data, mode=DecodeMode.PPS)
    print(result.total_time_ms, result.rgb.shape)
"""

from .version import __version__

__all__ = ["__version__"]


def __getattr__(name):  # lazy top-level API to keep import light
    if name in {"HeterogeneousDecoder", "DecodeMode", "DecodeResult"}:
        from . import core

        return getattr(core, name)
    if name == "platforms":
        from .evaluation import platforms

        return platforms
    if name in {"BatchDecoder", "DecodeHTTPServer", "DecodeSession",
                "ImageRequest"}:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
