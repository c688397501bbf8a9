#!/usr/bin/env python3
"""Refit the built-in platforms' performance models and ship them.

The paper profiles each CPU-GPU combination once, offline (Section 5).
This is that step for the three Table 1 platforms: it runs
``profile_platform`` for each platform and kernel subsampling at default
GPU options, and writes the six fitted models, each beside what it was
fitted for, to ``src/repro/core/fitted_models.json`` — the table
``repro.core.perfmodel.fitted_model`` serves instead of profiling at
first use.  It is the table's only writer; rerun it after a change that
moves a fit (the device specs, the calibration, the training grid or
the regression); ``tests/test_fitted_models.py`` fails until you do.

Usage::

    python tools/fit_models.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.perfmodel import FITTED_MODELS, fitted_for  # noqa: E402
from repro.core.profiling import profile_platform  # noqa: E402
from repro.evaluation import platforms  # noqa: E402
from repro.kernels.program import (  # noqa: E402
    KERNEL_SUBSAMPLINGS,
    GpuProgramOptions,
)


def main() -> int:
    """CLI entry: refit the six models and rewrite the shipped table,
    one entry per line."""
    options = GpuProgramOptions()
    table = [{"fitted_for": fitted_for(platform, sub, options),
              "model": profile_platform(platform, sub,
                                        gpu_options=options).to_dict()}
             for platform in platforms.ALL_PLATFORMS
             for sub in KERNEL_SUBSAMPLINGS]
    FITTED_MODELS.write_text(
        "[\n" + ",\n".join(json.dumps(entry) for entry in table) + "\n]\n")
    print(f"wrote {len(table)} models to {FITTED_MODELS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
