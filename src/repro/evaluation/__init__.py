"""Experiment harness behind the paper's tables and figures.

The three machines of Table 1 (:mod:`.platforms`) and the measurements
its figures and tables are made of: all-mode timings over a corpus and
their mean speedups (Tables 2, 3), the Figure 11 Amdahl series and the
Figure 12 balance.  The claims they support are checked in
``tests/test_calibration_anchors.py``.  Names resolve lazily, so
reading a platform does not load the harness.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "platforms": "platforms",
    "ALL_PLATFORMS": "platforms", "GT430": "platforms",
    "GTX560": "platforms", "GTX680": "platforms",
    "table1_rows": "platforms",
    "ImageMeasurement": "harness", "SpeedupSummary": "harness",
    "amdahl_series": "harness", "balance_series": "harness",
    "measure_corpus": "harness", "prepare_corpus": "harness",
    "summarize_speedups": "harness",
    "format_table": "tables",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
