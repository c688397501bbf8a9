"""Baseline JPEG codec substrate (the reproduction's libjpeg-turbo analog).

Public surface:

- :func:`repro.jpeg.encode_jpeg` / :class:`repro.jpeg.EncoderSettings`
- :func:`repro.jpeg.decode_jpeg` / :class:`repro.jpeg.DecodeOptions`
- :func:`repro.jpeg.parse_jpeg` for header-only inspection
- :func:`repro.jpeg.decoder.render_span` — the one pixel path:
  IDCT, upsampling and colour over any MCU-row span, bit-identical to
  the same rows of :func:`decode_jpeg`'s frame
- :data:`repro.jpeg.ENTROPY_ENGINES` / the ``entropy_engine=`` knob on
  :class:`DecodeOptions` select the Huffman decode path ("fast" fused
  engine by default, "reference" per-symbol oracle)
- :func:`repro.jpeg.speculative.decode_coefficients_speculative` /
  :class:`repro.jpeg.speculative.SpeculativeReport` — speculative
  self-synchronizing parallel Huffman decode for marker-free scans
- :class:`repro.jpeg.progressive.ProgressiveDecoder` /
  :func:`repro.jpeg.progressive.encode_progressive_scans` — the
  progressive (SOF2) multi-scan coder behind ``decode_jpeg`` and
  ``EncoderSettings(progressive=True)``
- submodules for each decoding stage (bitstream, huffman, quantization,
  dct/idct, sampling, color, blocks, entropy, fast_entropy, markers)

The decode path loads with the package; the encoder and the
speculative coder load on first use, so a process that only decodes
never compiles them.
"""

from .._lazy import lazy_exports
from .blocks import ImageGeometry
from .decoder import DecodedImage, DecodeOptions, decode_jpeg
from .fast_entropy import (
    ENTROPY_ENGINES,
    FastEntropyDecoder,
    create_entropy_decoder,
    destuff_scan,
)
from .markers import JpegImageInfo, parse_jpeg

__getattr__ = lazy_exports(__name__, {
    "EncoderSettings": "encoder", "encode_jpeg": "encoder",
    "SpeculativeReport": "speculative",
    "decode_coefficients_speculative": "speculative",
    "plan_chunks": "speculative", "speculative_eligible": "speculative",
})

__all__ = [
    "DecodeOptions",
    "DecodedImage",
    "ENTROPY_ENGINES",
    "EncoderSettings",
    "FastEntropyDecoder",
    "ImageGeometry",
    "JpegImageInfo",
    "SpeculativeReport",
    "create_entropy_decoder",
    "decode_coefficients_speculative",
    "decode_jpeg",
    "destuff_scan",
    "encode_jpeg",
    "parse_jpeg",
    "plan_chunks",
    "speculative_eligible",
]
