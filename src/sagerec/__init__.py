"""Slate-policy optimization with adaptive gradient bounds.

Submodules split by concern: ``policy`` (the toy autoregressive slate
policy), ``signals`` (ratios and advantage normalization), ``bounds``
(adaptive and baseline gradient coefficients), ``simenv`` (synthetic
interaction world), ``metrics`` (ranking and diversity evaluation),
``trainer`` (the optimization loop), ``config`` (experiment files) and
``cli`` (the operator surface).
"""

from __future__ import annotations

from .bounds import (
    BoundConfig,
    EntropyTracker,
    boundary_curve,
    entropy_penalty_scale,
    gbpo_coefficients,
    grpo_clip_coefficients,
    list_entropy,
    sage_coefficients,
    update_entropy_ema,
)
from .config import ConfigError, ExperimentConfig, MetricConfig, load_experiment_config
from .metrics import (
    RankedRecommendation,
    cold_recall,
    entropy_at_k,
    evaluate_rankings,
    ild,
    ndcg_at_k,
    recall_at_k,
)
from .policy import (
    PolicyGradient,
    PolicyParams,
    init_policy,
    load_checkpoint,
    save_checkpoint,
    slate_log_prob,
    snapshot,
)
from .signals import (
    batch_normalize,
    decoupled_advantage,
    group_normalize,
    log_ratio,
    naive_advantage,
)
from .simenv import Catalog, World, WorldConfig, build_world
from .trainer import (
    ExperimentReport,
    StepBatch,
    StepRecord,
    TrainConfig,
    TrainResult,
    collect_batch,
    compute_gradient,
    evaluate_policy,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BoundConfig",
    "Catalog",
    "ConfigError",
    "EntropyTracker",
    "ExperimentConfig",
    "ExperimentReport",
    "MetricConfig",
    "PolicyGradient",
    "PolicyParams",
    "RankedRecommendation",
    "StepBatch",
    "StepRecord",
    "TrainConfig",
    "TrainResult",
    "World",
    "WorldConfig",
    "batch_normalize",
    "boundary_curve",
    "build_world",
    "cold_recall",
    "collect_batch",
    "compute_gradient",
    "decoupled_advantage",
    "entropy_at_k",
    "entropy_penalty_scale",
    "evaluate_policy",
    "evaluate_rankings",
    "gbpo_coefficients",
    "group_normalize",
    "grpo_clip_coefficients",
    "ild",
    "init_policy",
    "list_entropy",
    "load_checkpoint",
    "load_experiment_config",
    "log_ratio",
    "naive_advantage",
    "ndcg_at_k",
    "recall_at_k",
    "sage_coefficients",
    "save_checkpoint",
    "slate_log_prob",
    "snapshot",
    "train",
    "update_entropy_ema",
]
