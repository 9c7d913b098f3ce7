"""Adaptive conformal radius for one-step prediction error.

Tracks a scalar radius ``gamma`` such that the event
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
Calibration is episode-scoped: each episode starts from a fresh ``AcpState``.

Every quantity broadcasts.  Fed one score per step, a state tracks one
radius; fed an array of scores, one per episode of a batch rolled out in
lockstep, it tracks one radius per episode.  The episodes of a batch reach
each stage on the same step, so the stage bookkeeping is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NotWarmedUpError(RuntimeError):
    """``acp_update`` was called before the warm-up calibration finished."""


def score(prediction: np.ndarray, actual: np.ndarray):
    """Nonconformity score: Euclidean norm of the prediction error (last axis)."""
    p = np.asarray(prediction, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape:
        raise ValueError(f"shape mismatch: prediction {p.shape} vs actual {a.shape}")
    return np.linalg.norm(a - p, axis=-1)


def warmup_quantile(scores, delta: float):
    """Conservative split-conformal quantile of a finite calibration set.

    Returns the ``q``-th order statistic with ``q = ceil((n+1)(1-delta))``
    clamped to ``n``, so small calibration sets err on the large side.
    ``scores`` lists one score, or one array of scores per batch episode,
    per step; the quantile is taken per episode.
    """
    values = np.sort(np.asarray(list(scores), dtype=np.float64), axis=0)
    n = values.shape[0]
    if n == 0:
        raise ValueError("need at least one score")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    q = min(n, math.ceil((n + 1) * (1.0 - delta)))
    return values[q - 1]


@dataclass
class AcpState:
    """Radius, calibration buffer, and miss bookkeeping for one episode or a batch.

    ``gamma``, ``eta`` and ``miss_count`` become per-episode arrays once a
    batch's scores arrive; ``update_count`` counts steps and is shared.
    """

    delta: float = 0.02
    eta: float | np.ndarray | None = None  # derived from the warm-up quantile when None
    eta_scale: float = 0.05
    warmup_len: int = 100
    min_scores: int = 5
    gamma: float | np.ndarray = 0.0
    warmed_up: bool = False
    calibration: list = field(default_factory=list)
    miss_count: int | np.ndarray = 0
    update_count: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.warmup_len < 1:
            raise ValueError("warmup_len must be >= 1")

    @property
    def miss_rate(self):
        return self.miss_count / self.update_count if self.update_count else 0.0


def current_gamma(state: AcpState):
    """Radius to use right now (finite only once enough evidence exists)."""
    if state.warmed_up:
        return state.gamma
    if len(state.calibration) >= state.min_scores:
        return warmup_quantile(state.calibration, state.delta)
    return math.inf


def acp_update(state: AcpState, new_score) -> AcpState:
    """One online radius update; the miss is judged against the current radius."""
    if not state.warmed_up:
        raise NotWarmedUpError("adaptive updates require a completed warm-up")
    miss = np.greater(new_score, state.gamma)
    state.gamma = np.maximum(0.0, state.gamma + state.eta * (miss - state.delta))
    state.miss_count = state.miss_count + miss.astype(np.int64)
    state.update_count += 1
    return state


def observe(state: AcpState, new_score) -> AcpState:
    """Feed one score (or one per batch episode): calibrates during warm-up,
    adapts afterwards.

    Completing the warm-up seeds ``gamma`` with the calibration quantile and,
    if ``eta`` was not set explicitly, scales the step size to the data as
    ``eta = eta_scale * gamma`` (so adaptation speed is unit-free).
    """
    if state.warmed_up:
        return acp_update(state, new_score)
    state.calibration.append(np.asarray(new_score, dtype=np.float64))
    if len(state.calibration) >= state.warmup_len:
        state.gamma = warmup_quantile(state.calibration, state.delta)
        if state.eta is None:
            state.eta = state.eta_scale * state.gamma
        state.warmed_up = True
    return state
