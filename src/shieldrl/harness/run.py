"""Training, evaluation, and dynamics-pretraining entry points.

Everything here is deterministic given the experiment seed: randomness is
drawn from named per-purpose streams, metrics are JSON lines with sorted
keys, and artifacts (basis sets, checkpoints) serialize to byte-identical
files across runs.  Wall-clock fields are the only nondeterministic values
and are stripped by :func:`canonical_records` before stream comparison.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import reprlib
import time
import typing
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .. import conformal
from .. import env as envmod
from .. import function_encoder as fe
from .. import shield as shieldmod
from .. import sro
from ..numerics import Adam, Mlp, adam_step, normalization_stats
from ..seeding import rng_for
from .config import ExperimentConfig, parse_config, serialize_config

CHECKPOINT_FORMAT = "checkpoint"
CHECKPOINT_VERSION = 6
# Top-level keys of a checkpoint besides format and version, and the JSON
# types their values take (see ``build_checkpoint``).
_SECTION = (dict, type(None))
_CHECKPOINT_TYPES = {
    "config": str, "epoch": int, "steps_done": int, "episode_index": int,
    "lambda": (int, float), "policy": dict, "critics": _SECTION, "policy_opt": _SECTION,
    "critic_opt": _SECTION, "rng_states": _SECTION, "basis": _SECTION,
}

# Fields excluded when comparing metric streams for determinism.
NONDETERMINISTIC_FIELDS = ("wall_clock_seconds", "phase_seconds")

# Shared training streams; rollout and shield draws come from per-episode
# streams (see ``_episode_streams``), which the episode index determines.
_TRAIN_STREAMS = ("env", "update", "qsafe")

# The timed parts of a training epoch, in order: an epoch record's
# ``phase_seconds`` holds the seconds of each.  The checkpoint save follows
# the record, so it is not one of them.
_PHASES = ("rollout", "finalize", "critic", "policy")


def _jsonify(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def canonical_records(records: list[dict]) -> list[str]:
    """Stable one-line JSON per record, wall-clock fields removed."""
    out = []
    for rec in records:
        trimmed = {k: v for k, v in rec.items() if k not in NONDETERMINISTIC_FIELDS}
        out.append(json.dumps(_jsonify(trimmed), sort_keys=True))
    return out


class MetricsWriter:
    """Collects records in memory and optionally streams them to a JSONL file."""

    def __init__(self, path: str | Path | None = None):
        self.records: list[dict] = []
        self._fh = open(path, "w") if path is not None else None

    def write(self, record: dict) -> None:
        record = _jsonify(record)
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# Episode rollout (shared by training and evaluation)
# ---------------------------------------------------------------------------


def episode_record(index: int, epoch: int, fields: dict) -> dict:
    """The metrics record of episode ``index``: its ``run_episode`` fields."""
    return {"kind": "episode", "episode": index, "epoch": epoch, **fields}


def _state_view(vec: np.ndarray, view_dim: int) -> np.ndarray:
    """Restrict state vectors (last axis) to the nearest obstacles the policy was built for.

    The sensor block is sorted by distance, so truncation keeps the closest
    obstacles and preserves the minimum-distance margin at the current
    position.  A shorter vector cannot be widened.
    """
    if vec.shape[-1] < view_dim:
        raise ValueError(f"state dim {vec.shape[-1]} smaller than policy view {view_dim}")
    return vec[..., :view_dim]


def _episode_streams(
    seed: int, rollout: tuple[str, int], shield: tuple[str, int], first: int, count: int
) -> list[tuple[np.random.Generator, np.random.Generator]]:
    """Own ``(rollout, shield)`` generators for episodes ``first .. first + count - 1``."""
    return [
        (rng_for(seed, *rollout, episode=i), rng_for(seed, *shield, episode=i))
        for i in range(first, first + count)
    ]


def fe_dynamics(basis: fe.BasisSet, settings) -> typing.Callable[..., shieldmod.FeModel]:
    """The function encoder's ``run_episode`` builder, with ``settings`` (the
    config's ``fe``) giving its refresh period and ridge."""
    return lambda phis, env_cfg: shieldmod.FeModel(
        basis, len(phis), settings.refresh_period, settings.ridge
    )


def run_episode(
    policy: sro.GaussianPolicy,
    cfg: ExperimentConfig,
    env_cfg: envmod.EnvConfig,
    env_rng: np.random.Generator,
    streams: list[tuple[np.random.Generator, np.random.Generator]],
    *,
    shield_on: bool,
    dynamics: typing.Callable[..., shieldmod.DynamicsModel] | None = None,
    record: bool = False,
) -> tuple[list[dict | None], sro.RolloutBuffer | None]:
    """Roll a batch of full episodes in lockstep, one per entry of ``streams``.

    Every episode runs the fixed horizon, so the batch advances one step at
    a time together.  Per lockstep step the policy mean is evaluated once
    over all episodes' ``(state ++ context)`` rows, the dynamics model
    predicts the executed steps once (the prediction feeds the conformal
    score; its evidence, with the observed ``s_next - s``, the model's
    identification), and the conformal radii update together.  ``env.step``
    and the shield's decision run per episode; decision ``j`` takes the
    model's ``predictor(j)``, its current radius and its own shield stream.
    The policy's context is ``cfg.context``'s: the model's identified
    ``context`` (``"fe"``), each episode's true hidden parameters
    (``"oracle"``) or ``cfg.fe.k`` zeros (``"none"``).

    ``dynamics(phis, env_cfg)`` builds the rollout's
    :class:`shield.DynamicsModel` from the placed episodes' hidden
    parameters when ``cfg.needs_basis(shield_on)``, and ``ValueError``
    is raised without it: :func:`fe_dynamics` gives the function encoder,
    ``shield.ExactModel`` the exact dynamics.

    Every action is a ``policy.sample_n`` of standard-normal noise.  Each
    placed episode draws its policy noise once, as one ``(horizon,
    action_dim)`` draw from its rollout stream, and step ``t`` samples all
    episodes at once from row ``t``.  A shield that scores candidates draws
    episode ``j``'s further ones from its shield stream, which then also
    breaks the top-k tie, so the shield moves no policy noise: a shielded
    and an unshielded rollout of one episode read the same rows.  A
    non-finite policy mean raises ``ValueError``.

    States are ``env``'s read-only vectors; ``env.step`` takes and returns
    the full ones.  Their one truncation, :func:`_state_view`, makes the
    ``(episodes, state)`` array ``S`` that the policy, the basis, the
    conformal score and the shield (row ``S[j]``) all read.

    Resets draw each episode's hidden parameters and layout from
    ``env_rng`` in batch order; ``streams[i]`` holds episode ``i``'s own
    ``(rollout, shield)`` generators, so its draws do not depend on the
    batch size.  An episode whose layout cannot be placed is dropped.  If no
    episode of a non-empty batch can be placed, the last
    ``env.PlacementError`` propagates.

    ``shield_on`` runs every step through the shield.  A fresh hidden-parameter
    draw, layout, model estimate, and conformal radius are used for every
    episode.  ``env_cfg`` may carry more obstacles than the policy was
    trained with; all learned components then operate on the truncated
    nearest-obstacle view of the state.

    Returns ``(records, buffer)``.  ``records[i]`` holds episode ``i``'s
    record fields (see :func:`episode_record`), or ``None`` for a dropped
    episode; its ``certified_collisions`` counts the steps with cost whose
    decision was not an empty-set fallback (0 when unshielded).  With
    ``record`` the placed episodes' steps are kept as one ``(episodes,
    horizon)`` :class:`sro.RolloutBuffer` block, in batch order; otherwise
    ``buffer`` is ``None``.
    """
    track = cfg.needs_basis(shield_on)
    if track and dynamics is None:
        rollout = "shielded rollout" if shield_on else "rollout with the FE context"
        raise ValueError(f"a {rollout} requires a dynamics model")
    t0 = time.perf_counter()
    view_dim = cfg.env.state_dim

    records: list[dict | None] = [None] * len(streams)
    live, phis, states = [], [], []
    for i in range(len(streams)):
        phi = envmod.sample_phi(env_rng, env_cfg.param_intervals)
        try:
            states.append(envmod.reset(env_cfg, phi, env_rng))
        except envmod.PlacementError as exc:
            failure = exc
            continue
        live.append(i)
        phis.append(phi)
    if not live:
        if streams:
            raise failure
        return records, None
    n = len(live)
    horizon, action_dim = env_cfg.horizon, env_cfg.action_dim
    noise = np.array([streams[i][0].standard_normal((horizon, action_dim)) for i in live])
    shield_rngs = [streams[i][1] for i in live]

    model = dynamics(phis, env_cfg) if track else None
    acp = conformal.AcpState(cfg.acp, n)  # observed only when shielded

    if cfg.context == "oracle":
        fixed = np.array([phi.as_array() for phi in phis])
    else:
        fixed = np.zeros((n, cfg.fe.k))

    def contexts() -> np.ndarray:
        return model.context if cfg.context == "fe" else fixed

    S = _state_view(np.array(states), view_dim)
    returns, ep_costs = np.zeros(n), np.zeros(n)
    if record:
        inputs = np.empty((n, horizon, policy.mean_net.input_dim))
        taken = np.empty((n, horizon, action_dim))
        step_rewards, step_costs = np.empty((n, horizon)), np.empty((n, horizon))
    triggers, empties, certified = [0] * n, [0] * n, np.zeros(n, dtype=np.int64)
    gamma_sum, gamma_count = np.zeros(n), np.zeros(n, dtype=np.int64)

    def resample(j: int, m: int) -> np.ndarray:
        return policy.sample_n(mu[j], shield_rngs[j].standard_normal((m, action_dim)))

    for t in range(horizon):
        X = np.hstack([S, contexts()])
        mu = policy.mean_batch(X)
        if not np.isfinite(mu).all():
            bad = np.argmin(np.isfinite(mu).all(axis=1))
            raise ValueError(f"policy mean is not finite: {mu[bad]}")
        # The action when the shield is off or passes the step, else its first candidate.
        sampled = policy.sample_n(mu, noise[:, t])

        if shield_on:
            gammas = conformal.current_gamma(acp)
            finite = np.isfinite(gammas)
            gamma_sum[finite] += gammas[finite]
            gamma_count += finite
            acts, fallback = [], []  # fallback: this step's empty-set fallbacks
            for j, (state, gamma, rng) in enumerate(zip(S, gammas.tolist(), shield_rngs)):
                decision = shieldmod.select_action(
                    sampled[j], partial(resample, j), state, model.predictor(j), gamma, rng,
                    cfg.shield, env_cfg,
                )
                acts.append(decision.action)
                fallback.append(decision.safe_set_empty)
                if decision.intervened:
                    triggers[j] += 1
                    empties[j] += decision.safe_set_empty
            actions = np.array(acts)
        else:
            acts = actions = sampled
        if model is not None:
            predicted, evidence = model.predict(S, actions)

        states, rewards, costs = zip(
            *[envmod.step(st, a, phi, env_cfg) for st, a, phi in zip(states, acts, phis)]
        )
        S_next = _state_view(np.array(states), view_dim)
        returns += rewards
        ep_costs += costs

        if record:
            inputs[:, t], taken[:, t] = X, actions
            step_rewards[:, t], step_costs[:, t] = rewards, costs
        if shield_on:
            conformal.observe(acp, conformal.score(predicted, S_next))
            if any(costs):
                certified += np.not_equal(costs, 0) & ~np.array(fallback)
        if model is not None:
            model.observe(evidence, S_next - S)
        S = S_next

    boot = np.hstack([S, contexts()])
    buffer = sro.RolloutBuffer(inputs, taken, step_rewards, step_costs, boot) if record else None
    wall = (time.perf_counter() - t0) / n
    miss_rates = acp.miss_count / max(acp.update_count, 1)  # 0 before any update
    for j, i in enumerate(live):
        records[i] = {
            "steps": horizon,
            "return": float(returns[j]),
            "cost_rate": float(ep_costs[j]) / horizon,
            "shield_trigger_rate": triggers[j] / horizon,
            "safe_set_empty_rate": empties[j] / horizon,
            "certified_collisions": int(certified[j]),
            "acp_miss_rate": float(miss_rates[j]),
            "mean_gamma": float(gamma_sum[j]) / int(gamma_count[j]) if gamma_count[j] else 0.0,
            "fe_solve_failures": int(model.solve_failures[j]) if model is not None else 0,
            "wall_clock_seconds": wall,
        }
    return records, buffer


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def build_checkpoint(
    cfg: ExperimentConfig,
    policy: sro.GaussianPolicy,
    critics: sro.CriticSet | None = None,
    policy_opt: sro.PolicyOptimizer | None = None,
    critic_opt: sro.CriticOptimizer | None = None,
    lam: float = 0.0,
    epoch: int = 0,
    steps_done: int = 0,
    rngs: dict[str, np.random.Generator] | None = None,
    basis: fe.BasisSet | None = None,
    episode_index: int = 0,
) -> dict:
    """The checkpoint dict of a policy and, from training, the rest of its state.

    It holds copies of the state and nothing the config fixes: ``policy`` is
    ``{mean_net, log_std}`` (the mean network's ``params``), ``critics`` each
    critic's ``params``, and ``policy_opt`` and ``critic_opt`` the ``{step,
    m, v}`` of each of those vectors' ``Adam``.  A section not given is
    ``None``.  ``episode_index`` is the next episode training would run.
    The copies are made by the restore's rule: each section is loaded into
    the state a fresh run of ``cfg`` builds (:func:`_load`), so state that
    does not fit ``cfg`` raises ``ValueError`` naming its path, and resume
    and :func:`evaluate` accept every checkpoint built here.
    """
    fresh, fresh_critics, fresh_policy_opt, fresh_critic_opt = _new_state(cfg)
    policy_vectors, critic_vectors = _policy_vectors(fresh), _critic_vectors(fresh_critics)
    _load(_policy_vectors(policy), policy_vectors, "policy")
    policy_state = critic_state = None
    if critics is not None:
        _load(_critic_vectors(critics), critic_vectors, "critics")
    if policy_opt is not None:
        _load(_adam_states(policy_opt, policy_vectors), policy_vectors, "policy_opt",
              fresh_policy_opt)
        policy_state = _adam_states(fresh_policy_opt, policy_vectors)
    if critic_opt is not None:
        _load(_adam_states(critic_opt, critic_vectors), critic_vectors, "critic_opt",
              fresh_critic_opt)
        critic_state = _adam_states(fresh_critic_opt, critic_vectors)
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": serialize_config(cfg),
        "epoch": epoch,
        "steps_done": steps_done,
        "episode_index": episode_index,
        "lambda": lam,
        "policy": policy_vectors,
        "critics": None if critics is None else critic_vectors,
        "policy_opt": policy_state,
        "critic_opt": critic_state,
        "rng_states": None if rngs is None else {
            name: rngs[name].bit_generator.state for name in _TRAIN_STREAMS
        },
        "basis": fe.basis_to_record(basis) if basis is not None else None,
    }


# The vectors of the policy and of the critics by their keys in a checkpoint,
# which also name the ``Adam``s of the optimizers that update them.
def _policy_vectors(policy: sro.GaussianPolicy) -> dict[str, np.ndarray]:
    return {"mean_net": policy.mean_net.params, "log_std": policy.log_std}


def _critic_vectors(critics: sro.CriticSet) -> dict[str, np.ndarray]:
    return {name: getattr(critics, name).params for name in ("v_r", "v_c", "q_c")}


def _adam_states(opt, vectors: dict[str, np.ndarray]) -> dict[str, dict]:
    """The ``{step, m, v}`` of the ``Adam`` of ``opt`` that updates each of ``vectors``."""
    adams = {name: getattr(opt, name) for name in vectors}
    return {name: {"step": a.step, "m": a.m, "v": a.v} for name, a in adams.items()}


# Key of an encoded array in a checkpoint, by its dtype: the little-endian
# numpy type code of its bytes.
_ARRAY_CODES = {np.dtype(np.float64): "f8", np.dtype(np.float32): "f4"}


def _encode_numpy(value):
    """JSON form of the numpy values a checkpoint holds (the encoder's fallback).

    A float64 or float32 array becomes ``{"f8" or "f4": <base64 of its
    little-endian bytes>, "shape": [...]}``, which keeps every bit (NaN,
    infinities, -0.0, subnormals) and its precision.
    """
    code = _ARRAY_CODES.get(value.dtype) if isinstance(value, np.ndarray) else None
    if code is not None:
        raw = np.ascontiguousarray(value, dtype=f"<{code}").tobytes()
        return {code: base64.b64encode(raw).decode("ascii"), "shape": list(value.shape)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _decoded(value, path: str = ""):
    """Parsed JSON ``value``, at the dotted ``path``, with its encoded arrays decoded."""
    if isinstance(value, list):
        return [_decoded(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if not isinstance(value, dict):
        return value
    for code in _ARRAY_CODES.values():
        if value.keys() == {code, "shape"}:
            return _decode_array(value[code], value["shape"], code, path)
    return {k: _decoded(v, f"{path}.{k}" if path else k) for k, v in value.items()}


def _decode_array(payload, shape, code: str, path: str) -> np.ndarray:
    """The read-only array that ``{code: payload, "shape": shape}`` at the dotted
    ``path`` encodes; ``ValueError`` naming ``path`` unless ``payload`` is
    base64 text and ``shape`` a list of integers >= 0 that fits its bytes."""
    where = f"checkpoint {path}"
    if not isinstance(payload, str):
        raise ValueError(f"{where}: {code} must be base64 text, got {reprlib.repr(payload)}")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{where}: shape must be a list of integers >= 0, got {shape!r}")
    try:
        raw = base64.b64decode(payload, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{where}: {code} is not base64 ({exc})") from None
    if len(raw) != math.prod(shape) * np.dtype(code).itemsize:
        raise ValueError(f"{where}: shape {shape} does not fit its {len(raw)} bytes of {code}")
    return np.frombuffer(raw, dtype=f"<{code}").reshape(shape)


def save_checkpoint(ck: dict, path: str | Path) -> None:
    """Write ``ck`` (from :func:`build_checkpoint`) as one JSON file, format version 6.

    Arrays are encoded by :func:`_encode_numpy`, the rest stays readable
    JSON.  It is encoded straight into a file beside ``path``, then moved over
    it, so a process killed mid-save leaves the previous checkpoint intact.
    """
    fe.write_atomic(path, partial(json.dump, ck, sort_keys=True, default=_encode_numpy))


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint written by :func:`save_checkpoint`, its arrays
    read-only and of their stored precision.  ``ValueError`` for a file of
    another format or version (1-5 among them), one that is not a JSON
    object, lacks a key :func:`build_checkpoint` writes or holds a value of
    another JSON type there (``true`` and ``false`` are not numbers), or an
    array that does not decode (:func:`_decode_array`)."""
    return _checked(_decoded(json.loads(Path(path).read_text())))


def _checked(ck) -> dict:
    """``ck`` if it is a checkpoint object of this version with every key; else ``ValueError``."""
    if not isinstance(ck, dict):
        raise ValueError(f"checkpoint is not a JSON object (got {type(ck).__name__})")
    if ck.get("format") != CHECKPOINT_FORMAT or ck.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint (format={ck.get('format')!r}, "
            f"version={ck.get('version')!r}); this release reads version {CHECKPOINT_VERSION}"
        )
    missing = [key for key in _CHECKPOINT_TYPES if key not in ck]
    if missing:
        raise ValueError(f"checkpoint is missing keys {missing}")
    # ``bool`` is an ``int`` to ``isinstance``: JSON true/false would pass as numbers.
    wrong = [key for key, kind in _CHECKPOINT_TYPES.items()
             if isinstance(ck[key], bool) or not isinstance(ck[key], kind)]
    if wrong:
        raise ValueError(f"checkpoint values of the wrong JSON type: {wrong}")
    return ck


def _object(section, keys, path: str) -> dict:
    """``section``, the checkpoint's value at the dotted ``path``, if it is an
    object with exactly ``keys``; else ``ValueError`` naming ``path``."""
    if not isinstance(section, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    if section.keys() != set(keys):
        raise ValueError(f"checkpoint {path}: missing keys {sorted(set(keys) - section.keys())}, "
                         f"unexpected keys {sorted(section.keys() - set(keys))}")
    return section


def _copy_into(vector: np.ndarray, value, path: str) -> None:
    """Copy ``value``, the checkpoint's array at ``path``, into ``vector``."""
    array = isinstance(value, np.ndarray)
    if not (array and (value.dtype, value.shape) == (vector.dtype, vector.shape)):
        got = f"a {value.dtype} array of shape {value.shape}" if array else reprlib.repr(value)
        raise ValueError(
            f"checkpoint {path} must be a {vector.dtype} array of shape {vector.shape}, got {got}"
        )
    vector[...] = value


def _load(section, vectors: dict[str, np.ndarray], path: str, opt=None) -> None:
    """Copy ``section``, the checkpoint's object at the dotted ``path``, into
    freshly built state: each stored array into the vector of ``vectors``
    under its key or, with ``opt``, each stored ``{step, m, v}`` into the
    ``Adam`` of ``opt`` that updates that vector.  An array must have its
    vector's dtype and shape, a step must be an integer >= 0, and step 0
    goes with null moments; else ``ValueError`` names the path."""
    section = _object(section, vectors, path)
    for name, vector in vectors.items():
        where = f"{path}.{name}"
        if opt is None:
            _copy_into(vector, section[name], where)
            continue
        state = _object(section[name], ("step", "m", "v"), where)
        step = state["step"]
        if type(step) is not int:
            raise ValueError(f"checkpoint {where}.step must be of type int, got {step!r}")
        if step < 0:
            raise ValueError(f"checkpoint {where}.step must be >= 0, got {step}")
        if step == 0:
            if state["m"] is not None or state["v"] is not None:
                raise ValueError(f"checkpoint {where}: step 0 goes with null moments")
            continue
        adam = getattr(opt, name)
        adam.step, adam.m, adam.v = step, np.empty_like(vector), np.empty_like(vector)
        _copy_into(adam.m, state["m"], f"{where}.m")
        _copy_into(adam.v, state["v"], f"{where}.v")


def new_policy(cfg: ExperimentConfig, rng: np.random.Generator) -> sro.GaussianPolicy:
    """The policy a fresh run of ``cfg`` starts from, drawn from ``rng``."""
    return sro.GaussianPolicy.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, cfg.train.hidden, rng
    )


def _new_state(
    cfg: ExperimentConfig,
) -> tuple[sro.GaussianPolicy, sro.CriticSet, sro.PolicyOptimizer, sro.CriticOptimizer]:
    """The policy, critics and optimizers a fresh run of ``cfg`` starts from,
    the networks drawn from its ``init`` stream."""
    init_rng = rng_for(cfg.seed, "init")
    policy = new_policy(cfg, init_rng)
    critics = sro.CriticSet.create(
        cfg.env.state_dim, cfg.context_dim, cfg.env.action_dim, cfg.train.hidden, init_rng
    )
    return (policy, critics, sro.PolicyOptimizer.create(cfg.train.policy_lr),
            sro.CriticOptimizer.create(cfg.train.critic_lr))


def policy_from_checkpoint(ck: dict) -> sro.GaussianPolicy:
    """The checkpoint's policy: built from its config as a fresh run builds
    it, with the stored vectors copied in (see :func:`_load`)."""
    cfg = parse_config(ck["config"])
    policy = new_policy(cfg, rng_for(cfg.seed, "init"))
    _load(ck["policy"], _policy_vectors(policy), "policy")
    return policy


def _basis_bits(basis: fe.BasisSet | None) -> list | None:
    """The layout, shapes and bytes of a basis's networks and normalization.

    ``meta`` is left out: it records how the networks were fit, and an
    artifact written before the pooled baseline left it still carries that
    baseline there.
    """
    if basis is None:
        return None
    arrays = (basis.norm_mean, basis.norm_std, *basis.weights, *basis.biases)
    return [basis.layer_sizes, *((a.shape, a.tobytes()) for a in arrays)]


def _check_basis(basis, cfg: ExperimentConfig, shield_on: bool, what: str) -> None:
    """``ValueError`` unless ``basis`` (``what``) is given if ``cfg.needs_basis(shield_on)``
    and, if given, maps ``cfg.env``'s state and action to its state and, under
    the FE context, has ``cfg.fe.k`` functions."""
    if basis is None:
        if cfg.needs_basis(shield_on):
            raise ValueError(f"shield or FE context requires {what}")
        return
    want = [cfg.env.state_dim + cfg.env.action_dim, cfg.env.state_dim]
    got = [basis.layer_sizes[0], basis.layer_sizes[-1]]
    if got != want:
        raise ValueError(f"basis maps width {got[0]} to {got[1]}, but the config's env needs "
                         f"{want[0]} (state + action) to {want[1]} (state)")
    if cfg.context == "fe" and basis.k != cfg.fe.k:
        raise ValueError(f"basis has k = {basis.k} functions; the FE context needs {cfg.fe.k}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint: dict
    records: list[dict] = field(default_factory=list)
    epochs_run: int = 0


def train(
    cfg: ExperimentConfig,
    basis: fe.BasisSet | None = None,
    out_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    resume: dict | str | Path | None = None,
) -> TrainResult:
    """Run the full training loop: rollouts, critic fits, policy ascent.

    Epoch count is ``total_steps // steps_per_epoch`` (at least one when any
    steps are requested; zero total steps emits the header only).  When
    ``out_path`` is given a resumable checkpoint is rewritten after every
    epoch (see :func:`build_checkpoint`).  The policy, critics and
    optimizers are always built from ``cfg`` and its ``init`` stream;
    ``resume`` copies a checkpoint's vectors, Adam state, dual variable
    and random streams into the run, so it continues the original one
    bit-for-bit, provided it runs with the same BLAS thread count: OpenBLAS
    splits products between threads at count-dependent points, and the
    checkpoint does not record the count.  A checkpoint whose config
    differs from ``cfg`` in anything but ``total_steps`` raises
    ``ValueError`` naming the differing keys, and so does one whose basis
    differs from ``basis`` in its networks or normalization, bit for bit
    (no basis matches only no basis), whose ``rng_states`` is not exactly
    one generator state per training stream, whose ``lambda`` is not a
    finite number >= 0, whose ``epoch``, ``steps_done`` or
    ``episode_index`` is negative, or whose stored state does not fit the
    built objects (see :func:`_load`); so does a missing ``basis`` the run
    needs or one that does not fit ``cfg`` (:func:`_check_basis`).  Each
    epoch record times the epoch's phases in ``phase_seconds``.
    Each epoch rolls its ``ceil(steps_per_epoch / horizon)``
    episodes as one lockstep batch.  An episode whose layout cannot be
    placed is dropped and counted in the epoch's ``placement_failures``.  A
    ``ValueError`` inside an epoch, or an epoch in which no episode can be
    placed, writes an abort record and the checkpoint of the last finished
    epoch (the start state if none finished), taken before the failed epoch
    changed anything, then propagates; resuming from it continues the
    uninterrupted run.  The metrics file is closed however the run ends.
    """
    cfg.validate()
    _check_basis(basis, cfg, cfg.shield_enabled, "a pretrained basis artifact")

    env_cfg = cfg.env
    steps_per_epoch = cfg.train.steps_per_epoch
    batch = math.ceil(steps_per_epoch / env_cfg.horizon)
    epochs = cfg.total_steps // steps_per_epoch
    if cfg.total_steps > 0 and epochs == 0:
        epochs = 1

    rngs = {name: rng_for(cfg.seed, name) for name in _TRAIN_STREAMS}
    policy, critics, policy_opt, critic_opt = _new_state(cfg)
    lam, start_epoch, steps_done, episode_index = 0.0, 0, 0, 0

    if resume is not None:
        ck = _checked(resume) if isinstance(resume, dict) else load_checkpoint(resume)
        if any(ck[key] is None for key in ("critics", "policy_opt", "critic_opt", "rng_states")):
            raise ValueError("checkpoint was not saved from training; cannot resume")
        saved = serialize_config(parse_config(ck["config"])).splitlines()
        changed = [
            line for line, now in zip(saved, serialize_config(cfg).splitlines())
            if line != now and not line.startswith("total_steps ")
        ]
        if changed:
            raise ValueError(f"checkpoint config differs from this run's: {', '.join(changed)}")
        ck_basis = fe.basis_from_record(ck["basis"]) if ck["basis"] else None
        if _basis_bits(basis) != _basis_bits(ck_basis):
            raise ValueError("basis differs from the checkpoint's (networks or normalization)")
        if not (math.isfinite(ck["lambda"]) and ck["lambda"] >= 0):
            raise ValueError(f"checkpoint lambda must be a finite number >= 0, got {ck['lambda']}")
        for key in ("epoch", "steps_done", "episode_index"):
            if ck[key] < 0:
                raise ValueError(f"checkpoint {key} must be >= 0, got {ck[key]}")
        states = ck["rng_states"]
        if states.keys() != set(_TRAIN_STREAMS):
            raise ValueError(
                f"checkpoint rng_states must name exactly the streams {list(_TRAIN_STREAMS)}, "
                f"got {sorted(states)}"
            )
        for name in _TRAIN_STREAMS:
            try:
                rngs[name].bit_generator.state = states[name]
            except (TypeError, KeyError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"checkpoint rng_states[{name!r}] is not a generator state: {exc}"
                ) from None
        _load(ck["policy"], _policy_vectors(policy), "policy")
        _load(ck["critics"], _critic_vectors(critics), "critics")
        _load(ck["policy_opt"], _policy_vectors(policy), "policy_opt", policy_opt)
        _load(ck["critic_opt"], _critic_vectors(critics), "critic_opt", critic_opt)
        lam = float(ck["lambda"])
        start_epoch, steps_done, episode_index = ck["epoch"], ck["steps_done"], ck["episode_index"]

    def checkpoint_now(epoch_done: int) -> dict:
        return build_checkpoint(cfg, policy, critics, policy_opt, critic_opt, lam, epoch_done,
                                steps_done, rngs, basis, episode_index)

    def save(ck: dict) -> None:
        if out_path is not None:
            save_checkpoint(ck, out_path)

    dynamics = fe_dynamics(basis, cfg.fe) if basis is not None else None
    # The state at the last epoch boundary: an epoch that fails has already
    # moved the parameters, the optimizers and the streams.
    ck = checkpoint_now(start_epoch)
    epochs_run = 0
    # Opened once the resume is accepted: a rejected one leaves the file alone.
    writer = MetricsWriter(metrics_path)
    try:
        writer.write({"kind": "header", "version": 1, "config": serialize_config(cfg)})
        for epoch in range(start_epoch, epochs):
            marks = [time.perf_counter()]  # the start, then the end of each of _PHASES
            streams = _episode_streams(
                cfg.seed, ("rollout", 0), ("shield", 0), episode_index, batch
            )
            results, buffer = run_episode(
                policy, cfg, env_cfg, rngs["env"], streams,
                shield_on=cfg.shield_enabled, dynamics=dynamics, record=True,
            )
            marks.append(time.perf_counter())
            ran = [(episode_index + i, rec) for i, rec in enumerate(results) if rec is not None]
            for index, rec in ran:
                writer.write(episode_record(index, epoch, rec))
            episode_index += batch
            buffer.finalize(policy, critics, cfg.train.gamma, cfg.train.gae_lambda)
            marks.append(time.perf_counter())

            closs = {}
            for _ in range(cfg.train.critic_iters):
                closs = sro.critic_update(buffer, critics, cfg.train, rngs["update"], critic_opt)
            marks.append(time.perf_counter())
            pdiag = sro.policy_update(
                buffer,
                policy,
                critics,
                lam,
                cfg.train,
                rngs["qsafe"],
                policy_opt,
                sro_enabled=cfg.sro_enabled,
            )
            marks.append(time.perf_counter())
            lam = sro.lagrangian_update(
                lam,
                float(np.mean(buffer.episode_cost_totals())),
                cfg.train.cost_limit,
                cfg.train.lagrangian_lr,
            )
            steps_done += len(buffer)
            epochs_run += 1
            writer.write(
                {
                    "kind": "epoch",
                    "epoch": epoch,
                    "steps": len(buffer),
                    "steps_total": steps_done,
                    "lambda": lam,
                    "mean_return": float(np.mean([rec["return"] for _, rec in ran])),
                    "mean_cost_rate": float(np.mean([rec["cost_rate"] for _, rec in ran])),
                    "mean_episode_cost": float(np.mean(buffer.episode_cost_totals())),
                    "loss_v_r": closs.get("v_r", 0.0),
                    "loss_v_c": closs.get("v_c", 0.0),
                    "loss_q_c": closs.get("q_c", 0.0),
                    "policy_loss": pdiag["policy_loss"],
                    "kl": pdiag["kl"],
                    "clip_fraction": pdiag["clip_fraction"],
                    "mean_q_safe": pdiag["mean_q_safe"],
                    "early_stop": pdiag["early_stop"],
                    "aborted": pdiag["aborted"],
                    "placement_failures": len(results) - len(ran),
                    "phase_seconds": {
                        phase: end - start for phase, start, end in zip(_PHASES, marks, marks[1:])
                    },
                    "wall_clock_seconds": time.perf_counter() - marks[0],
                }
            )
            if pdiag["aborted"]:
                writer.write(
                    {
                        "kind": "abort",
                        "epoch": epoch,
                        "reason": "non-finite policy gradient; parameters restored",
                    }
                )
            ck = checkpoint_now(epoch + 1)
            save(ck)
    except (ValueError, envmod.PlacementError) as exc:
        writer.write({"kind": "abort", "epoch": ck["epoch"], "reason": str(exc)})
        save(ck)
        raise
    finally:
        writer.close()

    if epochs_run == 0:  # zero steps, or resumed at the last epoch: nothing saved yet
        save(ck)
    return TrainResult(checkpoint=ck, records=writer.records, epochs_run=epochs_run)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(
    ckpt: dict | str | Path,
    episodes: int | None = None,
    ood: bool = False,
    seed: int | None = None,
    metrics_path: str | Path | None = None,
    shield: bool | None = None,
) -> dict:
    """Roll a trained policy for ``episodes`` fresh hidden-parameter draws.

    ``ood`` switches the parameter draws to the out-of-distribution
    intervals and adds extra obstacles; learned components then see the
    nearest-obstacle truncation of the wider state.  ``shield`` overrides
    the config's shield toggle (useful for overhead comparisons).  All
    episodes run as one lockstep batch; episode ``i`` draws its actions and
    shield choices from its own streams, so its record does not depend on
    ``episodes``.  An episode whose layout cannot be placed is left out of
    the records and counted in the summary's ``placement_failures``.
    ``metrics_path`` is opened only after the rollout, so an evaluation that
    raises leaves an existing file as it was.  A negative count, and a basis
    missing or not fitting the config, are refused before the policy is restored.
    """
    ck = _checked(ckpt) if isinstance(ckpt, dict) else load_checkpoint(ckpt)
    cfg = parse_config(ck["config"])
    basis = fe.basis_from_record(ck["basis"]) if ck["basis"] else None

    if episodes is None:
        episodes = cfg.eval.episodes
    if episodes < 0:
        raise ValueError(f"episodes must be >= 0, got {episodes}")
    if seed is None:
        seed = cfg.seed
    shield_on = cfg.shield_enabled if shield is None else shield
    _check_basis(basis, cfg, shield_on, "a basis artifact in the checkpoint")
    policy = policy_from_checkpoint(ck)

    if ood:
        env_cfg = replace(
            cfg.env,
            obstacle_count=cfg.env.obstacle_count + cfg.eval.ood_extra_obstacles,
            param_intervals=cfg.eval.ood_intervals,
        )
    else:
        env_cfg = cfg.env

    outcomes, _ = run_episode(
        policy,
        cfg,
        env_cfg,
        rng_for(seed, "eval", 0),
        _episode_streams(seed, ("eval", 1), ("eval", 2), 0, episodes),
        shield_on=shield_on,
        dynamics=fe_dynamics(basis, cfg.fe) if basis is not None else None,
    )
    results = [rec for rec in outcomes if rec is not None]
    # Opened once the rollout is done: a failed one leaves the file alone.
    writer = MetricsWriter(metrics_path)
    for i, rec in enumerate(outcomes):
        if rec is not None:
            writer.write(episode_record(i, 0, rec))

    def agg(values: list[float]) -> tuple[float | None, float | None]:
        if not values:
            return None, None
        arr = np.asarray(values)
        return float(arr.mean()), float(arr.std())

    ret_mean, ret_std = agg([r["return"] for r in results])
    cost_mean, cost_std = agg([r["cost_rate"] for r in results])
    trig_mean, _ = agg([r["shield_trigger_rate"] for r in results])
    empty_mean, _ = agg([r["safe_set_empty_rate"] for r in results])
    miss_mean, _ = agg([r["acp_miss_rate"] for r in results])
    wall_mean, _ = agg([r["wall_clock_seconds"] for r in results])
    summary = {
        "kind": "summary",
        "episodes": episodes,
        "ood": ood,
        "seed": seed,
        "obstacle_count": env_cfg.obstacle_count,
        "param_intervals": [list(iv) for iv in env_cfg.param_intervals],
        "shield_enabled": shield_on,
        "return_mean": ret_mean,
        "return_std": ret_std,
        "cost_rate_mean": cost_mean,
        "cost_rate_std": cost_std,
        "shield_trigger_rate_mean": trig_mean,
        "safe_set_empty_rate_mean": empty_mean,
        "acp_miss_rate_mean": miss_mean,
        "placement_failures": len(outcomes) - len(results),
        "wall_clock_per_episode": wall_mean,
    }
    writer.write(summary)
    writer.close()
    summary["records"] = writer.records[:-1]
    return summary


# ---------------------------------------------------------------------------
# Dynamics pretraining
# ---------------------------------------------------------------------------


def train_pooled(
    datasets: list[fe.TransitionDataset],
    hidden: tuple[int, ...],
    epochs: int,
    lr: float,
    batch: int,
    rng: np.random.Generator,
) -> fe.BasisSet:
    """Fit one regression network on the pooled transitions of all draws.

    The result is the context-free baseline as a basis of that one network,
    to be combined with the fixed coefficient ``np.ones(1)``.  Like
    :func:`fe.train_basis`, the fit runs a float32 network and returns a
    float64 basis: the stacked inputs are normalized in place in float64
    and only their float32 copy is kept, and the targets are stacked only
    after that, so the fit holds one copy of the inputs.  The error
    against the float64 targets is formed in float64.
    """
    Xn = np.vstack([ds.inputs for ds in datasets])
    norm_mean, norm_std = normalization_stats(Xn)
    Xn -= norm_mean
    Xn /= norm_std
    Xn = Xn.astype(np.float32)
    targets = np.vstack([ds.targets for ds in datasets])
    net = Mlp.create([Xn.shape[1], *hidden, targets.shape[1]], rng, np.float32)
    opt = Adam(lr)
    n = Xn.shape[0]
    for _ in range(epochs):
        idx = rng.choice(n, size=min(batch * len(datasets), n), replace=False)
        for lo in range(0, idx.shape[0], batch):
            sel = idx[lo : lo + batch]
            out, cache = net.forward_cached(Xn[sel])
            err = out - targets[sel]
            adam_step(net, opt, net.backward_cached(cache, (2.0 / sel.shape[0]) * err))
    return fe.BasisSet.from_nets([net], norm_mean, norm_std)


@dataclass
class PretrainResult:
    basis: fe.BasisSet
    pooled: fe.BasisSet
    header: dict
    heldout: list[fe.TransitionDataset] = field(default_factory=list)


def collect_random_episodes(
    env_cfg: envmod.EnvConfig,
    episodes: int,
    rng: np.random.Generator,
    intervals: tuple[tuple[float, float], ...] | None = None,
) -> tuple[list[fe.TransitionDataset], list[envmod.HiddenParams]]:
    """Roll uniformly random actions; one transition dataset per parameter draw."""
    if intervals is None:
        intervals = env_cfg.param_intervals
    datasets, draws = [], []
    for _ in range(episodes):
        phi = envmod.sample_phi(rng, intervals)
        S = np.empty((env_cfg.horizon + 1, env_cfg.state_dim))
        S[0] = envmod.reset(env_cfg, phi, rng)
        # Stepping draws nothing, so one draw gives every step's action.
        A = rng.uniform(-1.0, 1.0, size=(env_cfg.horizon, env_cfg.action_dim))
        for t in range(env_cfg.horizon):
            S[t + 1] = envmod.step(S[t], A[t], phi, env_cfg)[0]
        datasets.append(fe.TransitionDataset.from_arrays(S[:-1], A, S[1:]))
        draws.append(phi)
    return datasets, draws


def score_heldout(
    basis: fe.BasisSet,
    pooled: fe.BasisSet,
    heldout: list[fe.TransitionDataset],
    context_samples: int,
    ridge: float,
) -> tuple[float, float]:
    """Mean held-out MSE of the adapted basis model vs the pooled baseline.

    Coefficients are identified from each episode's leading transitions and
    scored on the remainder, which the pooled model also never saw.  The
    pooled model is a one-network basis at the fixed coefficient 1.
    """
    fe_mses, pooled_mses = [], []
    for ds in heldout:
        ctx_n = min(context_samples, len(ds) // 2)
        ident = fe.TransitionDataset(ds.inputs[:ctx_n], ds.targets[:ctx_n])
        rest = fe.TransitionDataset(ds.inputs[ctx_n:], ds.targets[ctx_n:])
        b = fe.compute_coefficients(basis, ident, ridge)
        fe_mses.append(fe.dataset_mse(basis, b, rest))
        pooled_mses.append(fe.dataset_mse(pooled, np.ones(1), rest))
    return float(np.mean(fe_mses)), float(np.mean(pooled_mses))


def pretrain_fe(cfg: ExperimentConfig, out_path: str | Path | None = None) -> PretrainResult:
    """Collect exploration data across parameter draws and fit the basis set.

    The artifact's metadata records the draw history and the held-out MSE
    of the basis and of the pooled baseline (:func:`train_pooled`), whose
    network is returned in the result but not written to the artifact.  The
    file bytes are identical across runs with the same config.
    """
    cfg.validate()
    env_cfg = cfg.env
    data_rng = rng_for(cfg.seed, "fe", 0)
    basis_rng = rng_for(cfg.seed, "fe", 1)
    pooled_rng = rng_for(cfg.seed, "fe", 2)

    datasets, draws = collect_random_episodes(env_cfg, cfg.fe.pretrain_episodes, data_rng)
    n_held = int(round(cfg.fe.heldout_fraction * len(datasets)))
    n_held = min(max(n_held, 1), len(datasets) - 2)
    train_sets, heldout = datasets[:-n_held], datasets[-n_held:]

    basis = fe.train_basis(
        train_sets,
        cfg.fe.k,
        cfg.fe.epochs,
        cfg.fe.lr,
        basis_rng,
        hidden=cfg.fe.hidden,
        batch=cfg.fe.batch,
        ridge=cfg.fe.ridge,
        reg_weight=cfg.fe.reg_weight,
    )
    pooled = train_pooled(
        train_sets, cfg.fe.hidden, cfg.fe.epochs, cfg.fe.lr, cfg.fe.batch, pooled_rng
    )
    fe_mse, pooled_mse = score_heldout(
        basis, pooled, heldout, cfg.fe.context_samples, cfg.fe.ridge
    )
    header = {
        "task": cfg.env.task,
        "seed": cfg.seed,
        "episodes": len(datasets),
        "heldout_episodes": len(heldout),
        "fe_heldout_mse": fe_mse,
        "pooled_heldout_mse": pooled_mse,
        "phi_draws": [phi.as_array().tolist() for phi in draws],
    }
    basis.meta.update(header)
    if out_path is not None:
        fe.save_basis(basis, out_path)
    return PretrainResult(basis=basis, pooled=pooled, header=header, heldout=heldout)
