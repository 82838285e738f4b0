"""tsnorm: time-series normalization schemes and a zero-shot MASE benchmark harness.

The library provides

* six channel-wise normalization methods, fitted on a dataset's train rows
  or on a context window (`tsnorm.norm`),
* seven normalization schemes, each a placement of those methods (dataset
  step, instance step, or both for hybrid) with the clip decision it implies,
  and linear toy forecasters for the three loss families whose scale behavior
  differs (point MSE/MAE, Gaussian NLL, token cross-entropy) with analytic
  gradients and a deterministic SGD trainer (`tsnorm.models`),
* MASE scoring against a seasonal-naive baseline (`tsnorm.metrics`),
* a leave-one-dataset-out zero-shot / in-domain benchmark protocol with
  inference-time statistic substitution (`tsnorm.harness`),
* CSV ingestion, a reproducible synthetic multi-scale corpus and instance
  sampling into array-backed batches (`tsnorm.data`),
* a CLI (`tsnorm synth|run|report`).
"""

from .core import (
    Dataset,
    EvalEntry,
    EvalReport,
    Forecast,
    ForecastKind,
    Method,
    NormStats,
    Scope,
    Setting,
    TsnormError,
    raw_stats,
    validate_dataset,
)
from .data import (
    InstanceBatch,
    SyntheticSpec,
    export_csv,
    generate_synthetic,
    load_csv,
    sample_instances,
)
from .harness import (
    AccessLog,
    ExperimentPlan,
    assemble_report,
    evaluate,
    horizon_for_frequency,
    run_plan,
    run_variant,
)
from .metrics import improvement, mase, naive_mae
from .models import (
    LinearForecaster,
    LossKind,
    Scheme,
    TokenizerSpec,
    TrainTrace,
    detokenize,
    forecast,
    loss_gaussian_nll,
    loss_mae,
    loss_mse,
    loss_token_ce,
    read_checkpoint,
    tokenize,
    train,
)
from .norm import denormalize, fit_dataset_stats, fit_inference_stats, normalize

__version__ = "0.1.0"

__all__ = [
    "AccessLog",
    "Dataset",
    "EvalEntry",
    "EvalReport",
    "ExperimentPlan",
    "Forecast",
    "ForecastKind",
    "InstanceBatch",
    "LinearForecaster",
    "LossKind",
    "Method",
    "NormStats",
    "Scheme",
    "Scope",
    "Setting",
    "SyntheticSpec",
    "TokenizerSpec",
    "TrainTrace",
    "TsnormError",
    "assemble_report",
    "denormalize",
    "detokenize",
    "evaluate",
    "export_csv",
    "fit_dataset_stats",
    "fit_inference_stats",
    "forecast",
    "generate_synthetic",
    "horizon_for_frequency",
    "improvement",
    "load_csv",
    "loss_gaussian_nll",
    "loss_mae",
    "loss_mse",
    "loss_token_ce",
    "mase",
    "naive_mae",
    "normalize",
    "raw_stats",
    "read_checkpoint",
    "run_plan",
    "run_variant",
    "sample_instances",
    "tokenize",
    "train",
    "validate_dataset",
]
