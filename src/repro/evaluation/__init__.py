"""Experiment harness behind the paper's tables and figures.

The three machines of Table 1 (:mod:`.platforms`) and the measurements
its figures and tables are made of: all-mode timings over a corpus and
their mean speedups (Tables 2, 3), the Figure 11 Amdahl series and the
Figure 12 balance.  The claims they support are checked in
``tests/test_calibration_anchors.py``.
"""

from . import platforms
from .harness import (
    ImageMeasurement,
    SpeedupSummary,
    amdahl_series,
    balance_series,
    measure_corpus,
    prepare_corpus,
    summarize_speedups,
)
from .platforms import ALL_PLATFORMS, GT430, GTX560, GTX680, table1_rows
from .tables import format_table

__all__ = [
    "ALL_PLATFORMS",
    "GT430",
    "GTX560",
    "GTX680",
    "ImageMeasurement",
    "SpeedupSummary",
    "amdahl_series",
    "balance_series",
    "format_table",
    "measure_corpus",
    "platforms",
    "prepare_corpus",
    "summarize_speedups",
    "table1_rows",
]
