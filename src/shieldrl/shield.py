"""Runtime action shield: verify candidate actions against predicted margins.

Per decision the shield runs five steps:

  1. *Pre-safety check.*  If the current safety margin exceeds the largest
     possible one-step feature change (``nu > l_nu * pre_safety_margin``
     with the margin chosen above the environment's per-step bound), every
     action is safe for one step and the policy acts unfiltered.
  2. *Candidate sampling.*  Otherwise the candidates are the policy's
     action and ``n_candidates - 1`` further i.i.d. policy samples.
  3. *Transition prediction.*  Predict each candidate's next state with the
     identified dynamics model.
  4. *Safety scoring.*  Score each candidate by the margin of its predicted
     position against the (static, world-frame) obstacles, discounted by
     twice the conformal radius: ``score = nu(pos_hat, E) - 2 * l_nu * gamma``.
  5. *Selection.*  If any score is positive, pick uniformly among the
     ``top_k`` best-scoring positive candidates; otherwise fall back to the
     least-unsafe candidate and flag the safe set as empty.

A state is a state vector in ``env``'s layout, read through its slice
names.  It may be cut to the nearest obstacles a policy was built for
(``run._state_view``): the sorted sensor keeps the nearest obstacle first.
The shield is stateless: an episode's inputs (its predictor, conformal
radius and RNG) arrive as arguments of each decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from . import env as envmod
from . import function_encoder as fe


@dataclass
class ShieldConfig:
    n_candidates: int = 10
    top_k: int = 5
    l_nu: float = 1.0
    pre_safety_margin: float = 0.275

    def __post_init__(self) -> None:
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if not (1 <= self.top_k <= self.n_candidates):
            raise ValueError(
                f"top_k must lie in [1, n_candidates], got {self.top_k} vs {self.n_candidates}"
            )
        if self.pre_safety_margin <= 0 or self.l_nu <= 0:
            raise ValueError("pre_safety_margin and l_nu must be positive")
        if math.isinf(self.l_nu):  # every score would be NaN or -inf: no action certifies
            raise ValueError("l_nu must be finite")


@dataclass
class ShieldDecision:
    action: np.ndarray
    intervened: bool
    safe_set_empty: bool
    scores: np.ndarray | None
    chosen_index: int | None = None


class Predictor(Protocol):
    """One-step dynamics model over raw state vectors."""

    def predict_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray: ...


@dataclass
class FePredictor:
    """Basis-function dynamics model bound to the current coefficients.

    ``b`` is one ``(k,)`` coefficient vector for every state, or ``(N, k)``
    with one vector per state (one per episode of a lockstep batch).
    Actions are commanded forces; like the environment itself the model
    responds to the per-axis clipped command, so the basis networks only
    ever see actions inside the actuation box they were trained on.
    """

    basis: fe.BasisSet
    b: np.ndarray

    def predict_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        X = np.hstack([states, np.clip(actions, -1.0, 1.0)])
        return states + fe.combine(self.b, self.basis.evaluate(X))

    def predict(self, states: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Next states of executed steps, and the basis rows they were built from.

        The ``(N, k, state_dim)`` rows are the basis at each ``(s, clip(a))``,
        the input the online identification needs for the same transitions.
        Bypasses ``predict_batch``, whose trace counts scoring only.
        """
        X = np.hstack([states, np.clip(actions, -1.0, 1.0)])
        Phi = self.basis.evaluate(X)
        return states + fe.combine(self.b, Phi), Phi


@dataclass
class GroundTruthPredictor:
    """Exact dynamics of one episode: ``env.step`` under its hidden parameters."""

    phi: envmod.HiddenParams
    config: envmod.EnvConfig

    def predict_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return np.array([
            envmod.step(s, a, self.phi, self.config)[0] for s, a in zip(states, actions)
        ])


class DynamicsModel(Protocol):
    """A rollout's dynamics model, one row per episode of its batch (see ``run.run_episode``)."""

    context: np.ndarray
    solve_failures: np.ndarray

    def predict(self, states: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, object]: ...
    def observe(self, evidence, deltas: np.ndarray) -> None: ...
    def predictor(self, j: int) -> Predictor: ...


class FeModel(fe.OnlineCoefficients):
    """The function encoder: its evidence is the executed steps' basis rows,
    its context the batch coefficients ``b``."""

    @property
    def context(self) -> np.ndarray:
        return self.b

    def predict(self, states: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return FePredictor(self.basis, self.b).predict(states, actions)

    def predictor(self, j: int) -> FePredictor:
        return FePredictor(self.basis, self.b[j])


@dataclass
class ExactModel:
    """Each episode's exact dynamics, the zero-model-error limit: every conformal
    score is 0, nothing is identified, and the context is the hidden parameters."""

    phis: list[envmod.HiddenParams]
    config: envmod.EnvConfig

    def __post_init__(self) -> None:
        self.context = np.array([phi.as_array() for phi in self.phis])
        self.solve_failures = np.zeros(len(self.phis), dtype=np.int64)

    def predict(self, states: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, None]:
        steps = zip(states, actions, self.phis)
        return np.array([envmod.step(s, a, phi, self.config)[0] for s, a, phi in steps]), None

    def observe(self, evidence, deltas: np.ndarray) -> None:
        pass

    def predictor(self, j: int) -> GroundTruthPredictor:
        return GroundTruthPredictor(self.phis[j], self.config)


def pre_safety_check(
    state: np.ndarray, config: ShieldConfig, env_config: envmod.EnvConfig
) -> bool:
    """True when the current margin certifies one-step safety for any action."""
    if env_config.task == "navigation":
        # The sensor is sorted by distance: its first offset is the nearest obstacle.
        nearest = state[envmod.NEAREST_OBSTACLE].tolist()
        if not nearest:
            margin = math.inf
        else:
            x, y = nearest
            margin = math.sqrt(x * x + y * y) - env_config.safe_distance
    else:
        position = state[None, envmod.POSITION]
        margin = float(envmod.nu_batch(position, envmod.world_obstacles(state), env_config)[0])
    return margin > config.l_nu * config.pre_safety_margin


def select_action(
    action: np.ndarray,
    resample: Callable[[int], np.ndarray],
    state: np.ndarray,
    predictor: Predictor,
    gamma: float,
    rng: np.random.Generator,
    config: ShieldConfig,
    env_config: envmod.EnvConfig,
) -> ShieldDecision:
    """Full shield decision for one step of an episode.

    ``action`` is the policy's sample at ``state``; ``resample(m)`` must
    return ``m`` further i.i.d. policy samples as an ``(m, action_dim)``
    array.  ``predictor``, ``gamma`` and ``rng`` are the episode's dynamics
    model, conformal radius and shield stream; ``resample`` is called
    before the top-k pick reads ``rng``, so a ``resample`` that draws from
    the same stream (as ``run.run_episode``'s does) draws in a fixed
    order.  When intervening, the returned action is always one of the
    candidates, the policy's action first; ranking ties are broken by
    candidate index so decisions are deterministic given ``rng``.
    """
    if pre_safety_check(state, config, env_config):
        return ShieldDecision(action=action, intervened=False, safe_set_empty=False, scores=None)
    candidates = np.vstack([action, resample(config.n_candidates - 1)])
    if candidates.shape[0] != config.n_candidates:
        raise ValueError(
            f"resample returned {candidates.shape[0] - 1} samples, "
            f"expected {config.n_candidates - 1}"
        )
    predicted = predictor.predict_batch(
        np.repeat(state[None, :], config.n_candidates, axis=0), candidates
    )
    margins = envmod.nu_batch(
        predicted[:, envmod.POSITION], envmod.world_obstacles(state), env_config
    )
    scores = margins - 2.0 * config.l_nu * gamma
    positive = np.flatnonzero(scores > 0.0)
    if positive.size > 0:
        # Rank positives by descending score, ties by candidate index.
        ranked = positive[np.lexsort((positive, -scores[positive]))]
        pool = ranked[: config.top_k]
        chosen = int(pool[int(rng.integers(pool.size))])
        empty = False
    else:
        # Least-unsafe fallback: the raw margin ranking equals the score
        # ranking for any finite gamma and stays well defined at gamma=inf.
        chosen = int(np.argmax(margins))
        empty = True
    return ShieldDecision(
        action=candidates[chosen],
        intervened=True,
        safe_set_empty=empty,
        scores=scores,
        chosen_index=chosen,
    )
