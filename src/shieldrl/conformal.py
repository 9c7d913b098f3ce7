"""Adaptive conformal radius for one-step prediction error.

Tracks a radius ``gamma`` such that the event
``||s_next - predicted|| > gamma`` (a *miss*) occurs at a target rate
``delta`` in the long run, without distributional assumptions:

  * Warm-up: the first ``warmup_len`` scores of an episode are collected as
    a calibration set; the initial radius is their conservative split
    quantile of level ``1 - delta``.
  * Online: afterwards every score nudges the radius,
    ``gamma <- max(0, gamma + eta * (miss - delta))``, growing it after a
    miss and shrinking it slowly otherwise, which tracks drifting error
    scales.

Before the warm-up completes the radius is the running quantile of the
scores seen so far, or ``+inf`` while fewer than ``min_scores`` are
available -- maximally conservative defaults for consumers that cannot wait.
Calibration is episode-scoped: each episode starts from a fresh radius.

An ``AcpState`` calibrates a batch of episodes rolled out in lockstep: it
takes one score per episode per step and keeps one radius per episode (a
single stream is a batch of one).  The episodes of a batch reach each stage
on the same step, so the stage bookkeeping is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AcpConfig:
    """Calibration settings: target miss rate, step scale and warm-up lengths."""

    delta: float = 0.02
    eta_scale: float = 0.05
    warmup_len: int = 100
    min_scores: int = 5

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.warmup_len < 1:
            raise ValueError("warmup_len must be >= 1")
        if self.min_scores < 1:
            raise ValueError("min_scores must be >= 1")
        if not self.eta_scale > 0.0:  # a negative step reverses the adaptation, zero freezes it
            raise ValueError(f"eta_scale must be positive, got {self.eta_scale}")


def score(prediction: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Nonconformity score: Euclidean norm of the prediction error (last axis)."""
    if prediction.shape != actual.shape:
        raise ValueError(f"shape mismatch: prediction {prediction.shape} vs actual {actual.shape}")
    return np.linalg.norm(actual - prediction, axis=-1)


def warmup_quantile(scores, delta: float):
    """Conservative split-conformal quantile of a non-empty calibration set.

    Returns the ``q``-th order statistic with ``q = ceil((n+1)(1-delta))``
    clamped to ``n``, so small calibration sets err on the large side.
    ``scores`` lists one score, or one array of scores per batch episode,
    per step; the quantile is taken per episode.
    """
    values = np.sort(np.asarray(list(scores), dtype=np.float64), axis=0)
    n = values.shape[0]
    q = min(n, math.ceil((n + 1) * (1.0 - delta)))
    return values[q - 1]


@dataclass
class AcpState:
    """Per-episode radii and miss counts, and the batch's shared warm-up bookkeeping.

    ``gamma`` (the radius in use, ``+inf`` at first), ``eta`` and
    ``miss_count`` are ``(episodes,)`` arrays; ``calibration`` holds one
    ``(episodes,)`` score array per warm-up step.  Updates replace these
    arrays rather than write into them, so a caller may hold one across an
    :func:`observe`.
    """

    config: AcpConfig
    episodes: int
    gamma: np.ndarray = field(init=False)
    eta: np.ndarray = field(init=False)  # eta_scale times the warm-up radius
    miss_count: np.ndarray = field(init=False)
    warmed_up: bool = field(init=False, default=False)
    calibration: list = field(init=False, default_factory=list)
    update_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.gamma = np.full(self.episodes, math.inf)
        self.eta = np.zeros(self.episodes)
        self.miss_count = np.zeros(self.episodes, dtype=np.int64)


def current_gamma(state: AcpState) -> np.ndarray:
    """Every episode's radius to use right now (finite only once enough evidence exists)."""
    return state.gamma


def observe(state: AcpState, scores) -> None:
    """Feed one score per episode: calibrates during warm-up, adapts afterwards.

    During warm-up the radius is the quantile of the scores so far once
    ``min_scores`` have arrived.  Completing the warm-up seeds ``gamma``
    with the calibration quantile and scales the step size to the data as
    ``eta = eta_scale * gamma`` (so adaptation speed is unit-free).
    Afterwards each score is judged against the current radius: a miss
    grows it, a covered score shrinks it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    cfg = state.config
    if state.warmed_up:
        miss = scores > state.gamma
        state.gamma = np.maximum(0.0, state.gamma + state.eta * (miss - cfg.delta))
        state.miss_count = state.miss_count + miss
        state.update_count += 1
        return
    state.calibration.append(scores)
    seen = len(state.calibration)
    if seen >= min(cfg.min_scores, cfg.warmup_len):
        state.gamma = warmup_quantile(state.calibration, cfg.delta)
    if seen >= cfg.warmup_len:
        state.eta = cfg.eta_scale * state.gamma
        state.warmed_up = True
