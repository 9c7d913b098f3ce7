"""Runtime action shield: verify candidate actions against predicted margins.

Per decision the shield runs five steps:

  1. *Pre-safety check.*  If the current safety margin exceeds the largest
     possible one-step feature change (``nu > l_nu * pre_safety_margin``
     with the margin chosen above the environment's per-step bound), every
     action is safe for one step and the policy acts unfiltered.
  2. *Candidate sampling.*  Otherwise draw ``n_candidates`` i.i.d. actions
     from the policy.
  3. *Transition prediction.*  Predict each candidate's next state with the
     identified dynamics model.
  4. *Safety scoring.*  Score each candidate by the margin of its predicted
     position against the (static, world-frame) obstacles, discounted by
     twice the conformal radius: ``score = nu(pos_hat, E) - 2 * l_nu * gamma``.
  5. *Selection.*  If any score is positive, pick uniformly among the
     ``top_k`` best-scoring positive candidates; otherwise fall back to the
     least-unsafe candidate and flag the safe set as empty.

The shield is stateless: everything episode-specific (predictor,
conformal radius, RNG) arrives through a ``ShieldContext``.
"""

from __future__ import annotations

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

    Actions are commanded forces; like the environment itself the model
    responds to the per-axis clipped command, so the basis networks only
    ever see actions inside the actuation box they were trained on.
    """

    basis: fe.BasisSet
    b: np.ndarray

    def predict_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return fe.predict_next_batch(self.basis, self.b, states, np.clip(actions, -1.0, 1.0))

    def predict(self, state_vec: np.ndarray, action: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Next state of one executed step, and the basis row it was built from.

        The ``(k, state_dim)`` row is the basis at ``(s, clip(a))``, the
        input the online identification needs for the same transition.
        Bypasses ``predict_batch``, whose trace counts scoring only.
        """
        x = np.concatenate([state_vec, np.clip(action, -1.0, 1.0)])
        Phi = self.basis.evaluate(x[None, :])
        return state_vec + fe.combine(self.b, Phi)[0], Phi[0]


@dataclass
class GroundTruthPredictor:
    """Exact dynamics oracle (testing aid: the zero-model-error limit)."""

    phi: envmod.HiddenParams
    config: envmod.EnvConfig

    def predict_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        out = np.empty_like(states)
        for i in range(states.shape[0]):
            st = envmod.EnvState.from_vector(states[i])
            out[i] = envmod.step(st, actions[i], self.phi, self.config).next_state.as_vector()
        return out


@dataclass
class ShieldContext:
    """Episode-scoped inputs: model, radius, randomness."""

    predictor: Predictor
    env_config: envmod.EnvConfig
    gamma: float
    rng: np.random.Generator


def pre_safety_check(
    state: envmod.EnvState, config: ShieldConfig, env_config: envmod.EnvConfig
) -> bool:
    """True when the current margin certifies one-step safety for any action."""
    margin = envmod.nu(state.position, envmod.world_obstacles(state), env_config)
    return margin > config.l_nu * config.pre_safety_margin


def select_action(
    policy_sampler: Callable[[int], np.ndarray],
    state: envmod.EnvState,
    context: ShieldContext,
    config: ShieldConfig,
) -> ShieldDecision:
    """Full shield decision for one step.

    ``policy_sampler(n)`` must return ``n`` i.i.d. policy samples as an
    ``(n, action_dim)`` array.  When intervening, the returned action is
    always one of the sampled candidates; ranking ties are broken by
    candidate index so decisions are deterministic given the context RNG.
    """
    if config.n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    if pre_safety_check(state, config, context.env_config):
        action = np.asarray(policy_sampler(1))[0]
        return ShieldDecision(
            action=action,
            intervened=False,
            safe_set_empty=False,
            scores=None,
        )
    candidates = np.asarray(policy_sampler(config.n_candidates), dtype=np.float64)
    if candidates.shape[0] != config.n_candidates:
        raise ValueError(
            f"policy_sampler returned {candidates.shape[0]} candidates, expected {config.n_candidates}"
        )
    predicted = context.predictor.predict_batch(
        np.repeat(state.as_vector()[None, :], config.n_candidates, axis=0), candidates
    )
    margins = envmod.nu_batch(
        predicted[:, envmod.POSITION_SLICE], envmod.world_obstacles(state), context.env_config
    )
    scores = margins - 2.0 * config.l_nu * context.gamma
    positive = np.flatnonzero(scores > 0.0)
    if positive.size > 0:
        # Rank positives by descending score, ties by candidate index.
        ranked = positive[np.lexsort((positive, -scores[positive]))]
        pool = ranked[: config.top_k]
        chosen = int(pool[int(context.rng.integers(pool.size))])
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
