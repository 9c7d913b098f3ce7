"""Experiment configuration: typed dataclasses plus a flat text format.

Config files are line-oriented ``key = value`` pairs where the key prefix
selects a section (``env.dt = 0.1``, ``train.alpha = 0.5``); keys without a
dot configure the experiment itself.  Parsing is strict: unknown keys are
rejected, values are typed from the dataclass defaults, and
``parse -> serialize -> parse`` is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ..env import EnvConfig
from ..shield import ShieldConfig
from ..sro import TrainConfig


class ConfigError(ValueError):
    """Malformed config text, unknown key, or inconsistent settings."""


@dataclass
class FeSettings:
    """Function-encoder pretraining and online-inference settings."""

    k: int = 3
    hidden: tuple[int, ...] = (64, 64)
    epochs: int = 300
    lr: float = 1e-3
    batch: int = 512
    ridge: float = 1e-6
    reg_weight: float = 1.0
    refresh_period: int = 10
    pretrain_episodes: int = 200
    heldout_fraction: float = 0.2
    context_samples: int = 100  # per-episode samples used for held-out scoring

    def __post_init__(self) -> None:
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")


@dataclass
class AcpSettings:
    delta: float = 0.02
    eta_scale: float = 0.05
    warmup_len: int = 100
    min_scores: int = 5

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.warmup_len < 1:
            raise ValueError("warmup_len must be >= 1")


@dataclass
class EvalSettings:
    episodes: int = 100
    ood_intervals: tuple[tuple[float, float], ...] = ((0.15, 0.3), (1.7, 2.5))
    ood_extra_obstacles: int = 2


@dataclass
class ExperimentConfig:
    task: str = "navigation"
    seed: int = 0
    total_steps: int = 200_000
    sro_enabled: bool = True
    shield_enabled: bool = True
    oracle_phi: bool = False
    fe_context: bool = True
    env: EnvConfig = field(default_factory=EnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    shield: ShieldConfig = field(default_factory=ShieldConfig)
    fe: FeSettings = field(default_factory=FeSettings)
    acp: AcpSettings = field(default_factory=AcpSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)

    @property
    def context_dim(self) -> int:
        """Width of the policy's dynamics-context input."""
        from ..env import PARAM_DIM

        return PARAM_DIM if self.oracle_phi else self.fe.k

    def validate(self) -> "ExperimentConfig":
        """Cross-field consistency checks; returns self for chaining."""
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")
        if self.oracle_phi and self.fe_context:
            raise ConfigError("oracle_phi and fe_context are mutually exclusive contexts")
        if self.task != self.env.task:
            self.env = replace(self.env, task=self.task)
        if self.shield_enabled:
            bound = self.env.max_feature_step()
            if self.shield.pre_safety_margin <= bound:
                raise ConfigError(
                    f"shield.pre_safety_margin ({self.shield.pre_safety_margin}) must exceed "
                    f"the per-step feature bound dt*v_max = {bound}"
                )
        for lo, hi in self.eval.ood_intervals:
            if not (0 < lo <= hi):
                raise ConfigError(f"bad OOD interval [{lo}, {hi}]")
        return self


_SECTIONS = ("env", "train", "shield", "fe", "acp", "eval")
# env.task mirrors the top-level task and is not independently settable.
_HIDDEN_KEYS = {("env", "task")}


def _section_fields(obj) -> list:
    return [f for f in fields(obj) if f.init]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{lo:g}:{hi:g}" for lo, hi in value)
        return ",".join(str(v) for v in value)
    raise ConfigError(f"cannot serialize value {value!r}")


def _parse_value(key: str, template, text: str):
    text = text.strip()
    try:
        if isinstance(template, bool):
            if text not in ("true", "false"):
                raise ValueError("expected 'true' or 'false'")
            return text == "true"
        if isinstance(template, int):
            return int(text)
        if isinstance(template, float):
            return float(text)
        if isinstance(template, str):
            return text
        if isinstance(template, tuple):
            if ":" in text:
                pairs = []
                for part in text.split(","):
                    lo, hi = part.split(":")
                    pairs.append((float(lo), float(hi)))
                return tuple(pairs)
            return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
    raise ConfigError(f"unsupported type for key {key!r}")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical flat text form (stable key order, comment headers)."""
    lines = ["# experiment"]
    for f in _section_fields(cfg):
        if f.name in _SECTIONS:
            continue
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        lines.append(f"# {section}")
        for f in _section_fields(obj):
            if (section, f.name) in _HIDDEN_KEYS:
                continue
            lines.append(f"{section}.{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: ExperimentConfig, pairs: dict[str, str]) -> ExperimentConfig:
    """Apply ``key -> value-text`` overrides (CLI ``--set``) onto a config."""
    top_names = {f.name for f in _section_fields(cfg) if f.name not in _SECTIONS}
    for key, text in pairs.items():
        if "." in key:
            section, _, name = key.partition(".")
            if section not in _SECTIONS or (section, name) in _HIDDEN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            obj = getattr(cfg, section)
            names = {f.name for f in _section_fields(obj)}
            if name not in names:
                raise ConfigError(f"unknown config key {key!r}")
            value = _parse_value(key, getattr(obj, name), text)
            try:
                setattr(cfg, section, replace(obj, **{name: value}))
            except ValueError as exc:  # the section's own range checks
                raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
        else:
            if key not in top_names:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, _parse_value(key, getattr(cfg, key), text))
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat text into a validated ``ExperimentConfig``."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    cfg = ExperimentConfig()
    apply_overrides(cfg, pairs)
    return cfg.validate()


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(serialize_config(cfg))
