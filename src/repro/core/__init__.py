"""The paper's contribution: performance model, dynamic partitioning and
pipelined heterogeneous execution.

Names resolve lazily: a caller that only prices images with a fitted
model (the decode service) never loads the simulated executors."""

from .._lazy import lazy_exports

_EXPORTS = {
    "max_speedup": "amdahl", "parallel_fraction": "amdahl",
    "percent_of_max": "amdahl",
    "HeterogeneousDecoder": "decoder", "clear_model_cache": "perfmodel",
    "DecodeResult": "executors", "ExecutionConfig": "executors",
    "PreparedImage": "executors",
    "HornerPolynomial": "horner", "naive_evaluate": "horner",
    "EVALUATED_MODES": "modes", "DecodeMode": "modes",
    "newton_solve": "newton", "round_rows_to_mcu": "newton",
    "PartitionDecision": "partition", "corrected_density": "partition",
    "partition_pps": "partition", "partition_sps": "partition",
    "repartition_pps": "partition",
    "PerformanceModel": "perfmodel",
    "Platform": "platform",
    "ProfilingReport": "profiling", "TrainingImage": "profiling",
    "default_training_grid": "profiling", "profile_platform": "profiling",
    "PolynomialModel": "regression", "fit_best_polynomial": "regression",
    "fit_polynomial": "regression",
    "Span": "timeline", "Timeline": "timeline",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
