"""Training, evaluation, and dynamics-pretraining entry points.

Everything here is deterministic given the experiment seed: randomness is
drawn from named per-purpose streams, metrics are JSON lines with sorted
keys, and artifacts (basis sets, checkpoints) serialize to byte-identical
files across runs.  Wall-clock fields are the only nondeterministic values
and are stripped by :func:`canonical_records` before stream comparison.
"""

from __future__ import annotations

import base64
import copy
import json
import math
import time
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
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
CHECKPOINT_VERSION = 4
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


# Rows of action noise an episode draws from its rollout stream at a time.
# Any length gives the same actions; a short block keeps a rollout's memory flat.
_NOISE_BLOCK = 64


class _ActionNoise:
    """Standard-normal action noise, drawn from each episode's rollout stream in blocks.

    A rollout reads its rollout streams only through
    ``Generator.standard_normal``, which fills values one after another: a
    block of rows holds exactly the values that one draw per sample would
    give, in the same order.  Keep those streams to that one method, or the
    block length starts to matter.  ``cursor[j]`` is episode ``j``'s next
    unused row; only :meth:`next` and :meth:`take` move it.
    """

    def __init__(self, rngs: list[np.random.Generator], action_dim: int):
        self.rngs = rngs
        self.block = np.empty((len(rngs), _NOISE_BLOCK, action_dim))
        self.cursor = np.full(len(rngs), _NOISE_BLOCK)
        self.episodes = np.arange(len(rngs))

    def next(self) -> np.ndarray:
        """Consume every episode's next row, ``(episodes, action_dim)``."""
        for j in np.flatnonzero(self.cursor == self.block.shape[1]):
            self.rngs[j].standard_normal(out=self.block[j])
            self.cursor[j] = 0
        rows = self.block[self.episodes, self.cursor]
        self.cursor += 1
        return rows

    def take(self, j: int, m: int) -> np.ndarray:
        """Consume episode ``j``'s next ``m`` rows, ``(m, action_dim)``.

        Rows past the end of the block come straight from the stream; the
        next :meth:`next` then starts a new block.
        """
        start = self.cursor[j]
        rows = self.block[j, start : start + m]
        if rows.shape[0] < m:
            extra = self.rngs[j].standard_normal((m - rows.shape[0], self.block.shape[2]))
            rows = np.concatenate([rows, extra])
        self.cursor[j] = min(start + m, self.block.shape[1])
        return rows


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
    The model's ``context`` is the policy's when ``cfg.fe_context``.

    ``dynamics(phis, env_cfg)`` builds the rollout's
    :class:`shield.DynamicsModel` from the placed episodes' hidden
    parameters when the shield is on or the context is learned:
    :func:`fe_dynamics` gives the function encoder, ``shield.ExactModel``
    the exact dynamics.

    Every action is a ``policy.sample_n`` of block-drawn noise
    (:class:`_ActionNoise`), with the values of one draw per sample: each
    step samples all episodes at once from their next noise rows, and a
    shield that scores candidates resamples episode ``j`` from its rows
    after that one.  A non-finite policy mean raises ``ValueError``.

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

    ``shield_on`` runs every step through the shield, which needs
    ``dynamics`` (``ValueError`` without it).  A fresh hidden-parameter
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
    if shield_on and dynamics is None:
        raise ValueError("a shielded rollout requires a dynamics model")
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
    rollout_rngs = [streams[i][0] for i in live]
    shield_rngs = [streams[i][1] for i in live]

    track = dynamics is not None and (shield_on or cfg.fe_context)
    model = dynamics(phis, env_cfg) if track else None
    acp = conformal.AcpState(cfg.acp, n)  # observed only when shielded

    oracle = np.array([phi.as_array() for phi in phis]) if cfg.oracle_phi else None

    def contexts() -> np.ndarray:
        if oracle is not None:
            return oracle
        if cfg.fe_context and model is not None:
            return model.context
        return np.zeros((n, cfg.fe.k))

    horizon = env_cfg.horizon
    S = _state_view(np.array(states), view_dim)
    returns, ep_costs = np.zeros(n), np.zeros(n)
    if record:
        inputs = np.empty((n, horizon, policy.mean_net.input_dim))
        taken = np.empty((n, horizon, env_cfg.action_dim))
        step_rewards, step_costs = np.empty((n, horizon)), np.empty((n, horizon))
    triggers, empties, certified = [0] * n, [0] * n, np.zeros(n, dtype=np.int64)
    gamma_sum, gamma_count = np.zeros(n), np.zeros(n, dtype=np.int64)
    noise = _ActionNoise(rollout_rngs, env_cfg.action_dim)

    def resample(j: int, m: int) -> np.ndarray:
        return policy.sample_n(mu[j], noise.take(j, m))

    for t in range(horizon):
        X = np.hstack([S, contexts()])
        mu = policy.mean_batch(X)
        if not np.isfinite(mu).all():
            bad = np.argmin(np.isfinite(mu).all(axis=1))
            raise ValueError(f"policy mean is not finite: {mu[bad]}")
        # The action when the shield is off or passes the step, else its first candidate.
        sampled = policy.sample_n(mu, noise.next())

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

    Each training-state section is ``asdict`` of the object it stores (its
    fields, arrays copied); a section not given is ``None``.
    ``episode_index`` is the index of the next episode training would run.
    """

    def section(obj) -> dict | None:
        return None if obj is None else asdict(obj)

    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": serialize_config(cfg),
        "epoch": epoch,
        "steps_done": steps_done,
        "episode_index": episode_index,
        "lambda": lam,
        "policy": asdict(policy),
        "critics": section(critics),
        "policy_opt": section(policy_opt),
        "critic_opt": section(critic_opt),
        "rng_states": None if rngs is None else {
            name: rngs[name].bit_generator.state for name in _TRAIN_STREAMS
        },
        "basis": fe.basis_to_record(basis) if basis is not None else None,
    }


# Key of an encoded array in a checkpoint, by its dtype: the little-endian
# numpy type code of its bytes.
_ARRAY_CODES = {np.dtype(np.float64): "f8", np.dtype(np.float32): "f4"}


def _encode_numpy(value):
    """JSON form of the numpy values a checkpoint holds (the encoder's fallback).

    A float64 array becomes ``{"f8": <base64 of its little-endian <f8
    bytes>, "shape": [...]}`` and a float32 array (a float32 network's
    weights and Adam moments) ``{"f4": <base64 of its <f4 bytes>, "shape":
    [...]}``.  Either round-trips every bit (NaN, infinities, -0.0,
    subnormals) and keeps its precision; :func:`_decode_array` reverses it.
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


def _decode_array(obj: dict):
    """``object_hook`` of :func:`load_checkpoint`: an encoded array back to a
    read-only float64 (``f8``) or float32 (``f4``) array over the decoded
    bytes; other objects unchanged."""
    for code in _ARRAY_CODES.values():
        if obj.keys() == {code, "shape"}:
            raw = base64.b64decode(obj[code])
            return np.frombuffer(raw, dtype=f"<{code}").reshape(obj["shape"])
    return obj


def save_checkpoint(ck: dict, path: str | Path) -> None:
    """Write ``ck`` (from :func:`build_checkpoint`) as one JSON file, format version 4.

    Config, epoch, dual variable, step and episode counters and RNG states
    stay readable JSON; every array (network weights, optimizer moments,
    log-std, basis weights) is an object holding its ``shape`` and the
    base64 of its little-endian bytes, under ``"f8"`` for a float64 array
    and ``"f4"`` for a float32 one (see :func:`_encode_numpy`).  The file
    is encoded straight into a file beside ``path``, which is then moved
    over it, so a process killed mid-save leaves the previous checkpoint
    intact.
    """
    fe.write_atomic(path, partial(json.dump, ck, sort_keys=True, default=_encode_numpy))


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Arrays come back as read-only arrays of their stored precision, float64
    or float32; restoring a section (:func:`policy_from_checkpoint`,
    ``train(resume=...)``) copies them.  Files of any other format or
    version, including version 1 (arrays as decimal lists), version 2
    (per-layer optimizer moments) and version 3 (float64 arrays only), and files
    that are not a JSON object, lack a key :func:`build_checkpoint` writes
    or hold a value of another JSON type there (``true`` and ``false`` are
    not numbers) raise ``ValueError``.
    """
    return _checked(json.loads(Path(path).read_text(), object_hook=_decode_array))


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


def _restore(cls, section: dict, path: str):
    """The ``cls`` object that ``asdict`` turned into ``section``, the
    checkpoint's section at the dotted ``path`` (``critics``).

    Nested dataclass fields (``Mlp``, ``Adam``) are restored the same way,
    at ``path`` and their field name (``critics.q_c``).
    Values are deep copies (an ``Mlp`` copies its weights and biases into
    its one ``params`` vector), so the object is writable and shares no
    memory with ``section``.  Array fields keep a float32 array's precision
    and make anything else float64, so a float32 network resumes as one.
    A missing or unexpected key, or a section that is not an object, raises
    ``ValueError``; so does a section whose arrays mix float32 and float64
    (an ``Mlp`` would promote them all to float64, and an ``Adam`` would
    update in another precision), and ``Mlp`` weights or biases whose shapes
    do not match its ``layer_sizes``.  The first three messages name the
    section by its ``path``.
    """
    where = f"checkpoint {path}: {cls.__name__} section"
    if not isinstance(section, dict):
        raise ValueError(f"{where} is not a JSON object")
    names = {f.name for f in fields(cls)}
    if section.keys() != names:
        raise ValueError(
            f"{where}: missing keys {sorted(names - section.keys())}, "
            f"unexpected keys {sorted(section.keys() - names)}"
        )
    values, arrays = {}, []
    for name, hint in typing.get_type_hints(cls).items():
        value = section[name]
        if is_dataclass(hint):
            values[name] = _restore(hint, value, f"{path}.{name}")
        elif hint == list[np.ndarray]:
            values[name] = [_float_array(v) for v in value]
            arrays += values[name]
        elif value is not None and np.ndarray in (hint, *typing.get_args(hint)):
            values[name] = _float_array(value)
            arrays.append(values[name])
        else:
            values[name] = copy.deepcopy(value)
    if len({a.dtype for a in arrays}) > 1:
        raise ValueError(f"{where} mixes float32 and float64 arrays")
    return cls(**values)


def _float_array(value) -> np.ndarray:
    """A writable copy of ``value``: float32 if it is a float32 array, else float64."""
    f32 = isinstance(value, np.ndarray) and value.dtype == np.float32
    return np.array(value, dtype=np.float32 if f32 else np.float64)


def policy_from_checkpoint(ck: dict) -> sro.GaussianPolicy:
    return _restore(sro.GaussianPolicy, ck["policy"], "policy")


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


def _check_moment_dtypes(
    policy: sro.GaussianPolicy,
    critics: sro.CriticSet,
    policy_opt: sro.PolicyOptimizer,
    critic_opt: sro.CriticOptimizer,
) -> None:
    """``ValueError`` naming the first optimizer section whose moments are of
    another dtype than the parameters it updates: Adam would go on in the
    moments' precision, which no uninterrupted run does."""
    pairs = [
        ("policy_opt.mean_net", policy_opt.mean_net, policy.mean_net.params),
        ("policy_opt.log_std", policy_opt.log_std, policy.log_std),
        *((f"critic_opt.{name}", getattr(critic_opt, name), getattr(critics, name).params)
          for name in ("v_r", "v_c", "q_c")),
    ]
    for name, opt, param in pairs:
        for moment in (opt.m, opt.v):
            if moment is not None and moment.dtype != param.dtype:
                raise ValueError(
                    f"checkpoint {name} moments are {moment.dtype}, "
                    f"but the parameters they update are {param.dtype}"
                )


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
    epoch (see :func:`build_checkpoint`: its sections are the policy's,
    critics' and optimizers' dataclass fields).  ``resume`` restores
    parameters, optimizers, the dual variable, and all random streams, so a
    resumed run continues the original one bit-for-bit, provided it runs
    with the same BLAS thread count: OpenBLAS splits products between
    threads at count-dependent points, and the checkpoint does not record
    the count.  A checkpoint whose config differs from ``cfg`` in anything
    but ``total_steps`` raises ``ValueError`` naming the differing keys,
    and so does one whose basis differs from ``basis`` in its networks or
    normalization, bit for bit (no basis matches only no basis), whose
    ``rng_states`` is not exactly one generator state per training stream,
    whose ``lambda`` is not a finite number >= 0, whose ``epoch``,
    ``steps_done`` or ``episode_index`` is negative, or whose optimizer
    moments differ in dtype from the parameters they update.  A fresh run
    trains float32 critics beside a float64 policy; a checkpoint keeps each
    network's precision, and a resumed run keeps it too.  Each epoch record
    times the epoch's phases in ``phase_seconds`` (see ``_PHASES``).
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
    if (cfg.shield_enabled or cfg.fe_context) and basis is None:
        raise ValueError("shield or learned context requires a pretrained basis artifact")

    env_cfg = cfg.env
    steps_per_epoch = cfg.train.steps_per_epoch
    batch = math.ceil(steps_per_epoch / env_cfg.horizon)
    epochs = cfg.total_steps // steps_per_epoch
    if cfg.total_steps > 0 and epochs == 0:
        epochs = 1

    rngs = {name: rng_for(cfg.seed, name) for name in _TRAIN_STREAMS}

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
        policy = policy_from_checkpoint(ck)
        critics = _restore(sro.CriticSet, ck["critics"], "critics")
        policy_opt = _restore(sro.PolicyOptimizer, ck["policy_opt"], "policy_opt")
        critic_opt = _restore(sro.CriticOptimizer, ck["critic_opt"], "critic_opt")
        _check_moment_dtypes(policy, critics, policy_opt, critic_opt)
        lam = float(ck["lambda"])
        start_epoch = int(ck["epoch"])
        steps_done = int(ck["steps_done"])
        episode_index = int(ck["episode_index"])
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
    else:
        init_rng = rng_for(cfg.seed, "init")
        policy = sro.GaussianPolicy.create(
            cfg.env.state_dim, cfg.context_dim, env_cfg.action_dim, cfg.train.hidden, init_rng
        )
        critics = sro.CriticSet.create(
            cfg.env.state_dim, cfg.context_dim, env_cfg.action_dim, cfg.train.hidden, init_rng
        )
        policy_opt = sro.PolicyOptimizer.create(cfg.train.policy_lr)
        critic_opt = sro.CriticOptimizer.create(cfg.train.critic_lr)
        lam = 0.0
        start_epoch = 0
        steps_done = 0
        episode_index = 0

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
    raises leaves an existing file as it was.
    """
    ck = _checked(ckpt) if isinstance(ckpt, dict) else load_checkpoint(ckpt)
    cfg = parse_config(ck["config"])
    policy = policy_from_checkpoint(ck)
    basis = fe.basis_from_record(ck["basis"]) if ck["basis"] else None

    if episodes is None:
        episodes = cfg.eval.episodes
    if episodes < 0:
        raise ValueError(f"episodes must be >= 0, got {episodes}")
    if seed is None:
        seed = cfg.seed
    shield_on = cfg.shield_enabled if shield is None else shield
    if shield_on and basis is None:
        raise ValueError("shielded evaluation requires a basis artifact in the checkpoint")

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
        "task": cfg.task,
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
