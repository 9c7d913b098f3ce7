"""Experiment harness: configs, training/eval loops, CLI, acceptance suites."""

from .config import (
    ConfigError,
    EvalSettings,
    ExperimentConfig,
    FeSettings,
    load_config,
    parse_config,
    serialize_config,
)
from .run import (
    canonical_records,
    evaluate,
    load_checkpoint,
    pretrain_fe,
    run_episode,
    save_checkpoint,
    train,
)

__all__ = [
    "ConfigError",
    "EvalSettings",
    "ExperimentConfig",
    "FeSettings",
    "canonical_records",
    "evaluate",
    "load_checkpoint",
    "load_config",
    "parse_config",
    "pretrain_fe",
    "run_episode",
    "save_checkpoint",
    "serialize_config",
    "train",
]
