"""Experiment configuration: typed dataclasses plus a flat text format.

Config files are line-oriented ``key = value`` pairs where the key prefix
selects a section (``env.dt = 0.1``, ``train.alpha = 0.5``); keys without a
dot configure the experiment itself.  Parsing is strict: unknown keys are
rejected, values are typed from the dataclass defaults, and
``parse -> serialize -> parse`` is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ..conformal import AcpConfig
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
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if self.pretrain_episodes < 3:  # at least one held-out and two fitted draws
            raise ValueError("pretrain_episodes must be >= 3")
        if self.batch < 1 or self.context_samples < 1:
            raise ValueError("batch and context_samples must be >= 1")
        if self.epochs < 0 or self.ridge < 0 or self.reg_weight < 0:
            raise ValueError("epochs, ridge and reg_weight must be >= 0")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        # infinite values would fail only the fit's first ridge solve, after data collection
        if not all(map(math.isfinite, (self.lr, self.ridge, self.reg_weight))):
            raise ValueError("lr, ridge and reg_weight must be finite")
        if not (0 <= self.heldout_fraction < 1):
            raise ValueError("heldout_fraction must lie in [0, 1)")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden layer sizes must be >= 1")


@dataclass
class EvalSettings:
    episodes: int = 100
    ood_intervals: tuple[tuple[float, float], ...] = ((0.15, 0.3), (1.7, 2.5))
    ood_extra_obstacles: int = 2

    def __post_init__(self) -> None:
        if self.episodes < 0 or self.ood_extra_obstacles < 0:
            raise ValueError("episodes and ood_extra_obstacles must be >= 0")


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
    acp: AcpConfig = field(default_factory=AcpConfig)
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
        # Checked with the shield off too: evaluate(shield=True) runs it on any config.
        bound = self.env.max_feature_step()
        l_nu, margin = self.shield.l_nu, self.shield.pre_safety_margin
        if l_nu * margin <= bound:
            raise ConfigError(
                f"'shield.l_nu' * 'shield.pre_safety_margin' ({l_nu} * {margin}) must exceed "
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


def _float(text: str) -> float:
    """A float that is a number: infinities parse, NaN does not."""
    value = float(text)
    if math.isnan(value):
        raise ValueError("NaN is not allowed")
    return value


def _parse_value(key: str, template, text: str):
    """``text`` as a value of ``template``'s type; an interval key takes ``lo:hi`` pairs."""
    text = text.strip()
    try:
        if isinstance(template, bool):
            if text not in ("true", "false"):
                raise ValueError("expected 'true' or 'false'")
            return text == "true"
        if isinstance(template, int):
            return int(text)
        if isinstance(template, float):
            return _float(text)
        if isinstance(template, str):
            return text
        if isinstance(template, tuple):
            if template and isinstance(template[0], tuple):
                pairs = [part.split(":") for part in text.split(",")]
                if any(len(pair) != 2 for pair in pairs):
                    raise ValueError("expected comma-separated lo:hi pairs")
                return tuple((_float(lo), _float(hi)) for lo, hi in pairs)
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
    """Apply ``key -> value-text`` overrides (CLI ``--set``) onto a config.

    A section's range checks run once, after all of its keys are applied,
    so dependent values (``shield.top_k`` and ``shield.n_candidates``) may
    come in either order.
    """
    top_names = {f.name for f in _section_fields(cfg) if f.name not in _SECTIONS}
    sections: dict[str, dict[str, object]] = {}
    for key, text in pairs.items():
        if "." in key:
            section, _, name = key.partition(".")
            if section not in _SECTIONS or (section, name) in _HIDDEN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            obj = getattr(cfg, section)
            if name not in {f.name for f in _section_fields(obj)}:
                raise ConfigError(f"unknown config key {key!r}")
            sections.setdefault(section, {})[name] = _parse_value(key, getattr(obj, name), text)
        else:
            if key not in top_names:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, _parse_value(key, getattr(cfg, key), text))
    for section, values in sections.items():
        try:
            setattr(cfg, section, replace(getattr(cfg, section), **values))
        except ValueError as exc:  # the section's own range checks
            keys = [f"{section}.{name}" for name in values]
            if len(keys) == 1:
                raise ConfigError(
                    f"bad value for {keys[0]!r}: {pairs[keys[0]]!r} ({exc})"
                ) from exc
            raise ConfigError(
                f"bad values for {', '.join(map(repr, keys))} ({exc})"
            ) from exc
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
