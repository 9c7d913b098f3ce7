"""Training, evaluation, and dynamics-pretraining entry points.

Everything here is deterministic given the experiment seed: randomness is
drawn from named per-purpose streams, metrics are JSON lines with sorted
keys, and artifacts (basis sets, checkpoints) serialize to byte-identical
files across runs.  Wall-clock fields are the only nondeterministic values
and are stripped by :func:`canonical_records` before stream comparison.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .. import conformal
from .. import env as envmod
from .. import function_encoder as fe
from .. import shield as shieldmod
from .. import sro
from ..numerics import AdamState, Mlp, adam_step
from ..seeding import rng_for
from .config import ExperimentConfig, parse_config, serialize_config

CHECKPOINT_FORMAT = "checkpoint"
CHECKPOINT_VERSION = 1

# Fields excluded when comparing metric streams for determinism.
NONDETERMINISTIC_FIELDS = ("wall_clock_seconds",)

_TRAIN_STREAMS = ("env", "rollout", "shield", "update", "qsafe")


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


@dataclass
class EpisodeResult:
    steps: int = 0
    ep_return: float = 0.0
    ep_cost: float = 0.0
    triggers: int = 0
    safe_set_empty: int = 0
    acp_misses: int = 0
    acp_updates: int = 0
    gamma_sum: float = 0.0
    gamma_count: int = 0
    fe_solve_failures: int = 0
    wall_clock: float = 0.0

    @property
    def cost_rate(self) -> float:
        return self.ep_cost / self.steps if self.steps else 0.0

    @property
    def trigger_rate(self) -> float:
        return self.triggers / self.steps if self.steps else 0.0

    @property
    def empty_rate(self) -> float:
        return self.safe_set_empty / self.steps if self.steps else 0.0

    @property
    def acp_miss_rate(self) -> float:
        return self.acp_misses / self.acp_updates if self.acp_updates else 0.0

    @property
    def mean_gamma(self) -> float:
        return self.gamma_sum / self.gamma_count if self.gamma_count else 0.0


def episode_record(index: int, epoch: int, res: EpisodeResult) -> dict:
    return {
        "kind": "episode",
        "episode": index,
        "epoch": epoch,
        "steps": res.steps,
        "return": res.ep_return,
        "cost_rate": res.cost_rate,
        "shield_trigger_rate": res.trigger_rate,
        "safe_set_empty_rate": res.empty_rate,
        "acp_miss_rate": res.acp_miss_rate,
        "mean_gamma": res.mean_gamma,
        "fe_solve_failures": res.fe_solve_failures,
        "wall_clock_seconds": res.wall_clock,
    }


def _state_view(vec: np.ndarray, view_dim: int) -> np.ndarray:
    """Restrict a state vector to the nearest obstacles the policy was built for.

    The sensor block is sorted by distance, so truncation keeps the closest
    obstacles and preserves the minimum-distance margin at the current
    position.  A shorter vector cannot be widened.
    """
    if vec.shape[0] == view_dim:
        return vec
    if vec.shape[0] < view_dim:
        raise ValueError(f"state dim {vec.shape[0]} smaller than policy view {view_dim}")
    return vec[:view_dim]


def run_episode(
    policy: sro.GaussianPolicy,
    cfg: ExperimentConfig,
    env_cfg: envmod.EnvConfig,
    rngs: dict[str, np.random.Generator],
    *,
    basis: fe.BasisSet | None = None,
    buffer: sro.RolloutBuffer | None = None,
    shield_on: bool | None = None,
) -> EpisodeResult:
    """Roll one full episode; records its transitions in ``buffer`` when given.

    A fresh hidden-parameter draw, layout, online coefficient estimate, and
    conformal state are used each call.  ``env_cfg`` may carry more obstacles
    than the policy was trained with; all learned components then operate on
    the truncated nearest-obstacle view of the state.
    """
    t0 = time.perf_counter()
    view_dim = cfg.env.state_dim
    if shield_on is None:
        shield_on = cfg.shield_enabled
    shield_on = shield_on and basis is not None
    track_context = basis is not None and (shield_on or cfg.fe_context)

    phi = envmod.sample_phi(rngs["env"], env_cfg.param_intervals)
    state = envmod.reset(env_cfg, phi, rngs["env"])
    online = (
        fe.OnlineCoefficients(basis, cfg.fe.refresh_period, cfg.fe.ridge)
        if track_context
        else None
    )
    acp = (
        conformal.AcpState(
            delta=cfg.acp.delta,
            eta_scale=cfg.acp.eta_scale,
            warmup_len=cfg.acp.warmup_len,
            min_scores=cfg.acp.min_scores,
        )
        if shield_on
        else None
    )

    def context_vec() -> np.ndarray:
        if cfg.oracle_phi:
            return phi.as_array()
        if cfg.fe_context and online is not None:
            return online.b
        return np.zeros(cfg.fe.k)

    res = EpisodeResult()
    for _ in range(env_cfg.horizon):
        svec = state.as_vector()
        sview = _state_view(svec, view_dim)
        context = context_vec()

        if shield_on:
            predictor = shieldmod.FePredictor(basis, online.b)
            gamma = conformal.current_gamma(acp)
            view_state = envmod.EnvState.from_vector(sview, state.step_index)
            sctx = shieldmod.ShieldContext(predictor, env_cfg, gamma, rngs["shield"])
            decision = shieldmod.select_action(
                lambda n: policy.sample_n(sview, context, n, rngs["rollout"]),
                view_state,
                sctx,
                cfg.shield,
            )
            action = decision.action
            res.triggers += int(decision.intervened)
            res.safe_set_empty += int(decision.safe_set_empty)
            if np.isfinite(gamma):
                res.gamma_sum += gamma
                res.gamma_count += 1
            predicted, basis_row = predictor.predict(sview, action)
        else:
            action = policy.sample_n(sview, context, 1, rngs["rollout"])[0]
            predicted = basis_row = None

        tr = envmod.step(state, action, phi, env_cfg)
        next_view = _state_view(tr.next_state.as_vector(), view_dim)

        if buffer is not None:
            buffer.add(sview, context, action, tr.reward, tr.cost)
        if shield_on:
            conformal.observe(acp, conformal.score(predicted, next_view))
        if online is not None:
            online.observe(sview, tr.action, next_view, basis_row)

        res.ep_return += tr.reward
        res.ep_cost += tr.cost
        res.steps += 1
        state = tr.next_state

    if buffer is not None:
        buffer.end_episode(_state_view(state.as_vector(), view_dim), context_vec())
    if shield_on:
        res.acp_misses = acp.miss_count
        res.acp_updates = acp.update_count
    if online is not None:
        res.fe_solve_failures = online.solve_failures
    res.wall_clock = time.perf_counter() - t0
    return res


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
) -> dict:
    ck = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": serialize_config(cfg),
        "epoch": epoch,
        "steps_done": steps_done,
        "lambda": lam,
        "policy": {
            "mean_net": sro.mlp_to_dict(policy.mean_net),
            "log_std": policy.log_std.tolist(),
            "log_std_low": policy.log_std_low,
            "log_std_high": policy.log_std_high,
        },
        "critics": None,
        "policy_opt": None,
        "critic_opt": None,
        "rng_states": None,
        "basis": fe.basis_to_record(basis) if basis is not None else None,
    }
    if critics is not None:
        ck["critics"] = {
            "v_r": sro.mlp_to_dict(critics.v_r),
            "v_c": sro.mlp_to_dict(critics.v_c),
            "q_c": sro.mlp_to_dict(critics.q_c),
        }
    if policy_opt is not None:
        ck["policy_opt"] = {
            "mean_net": sro.adam_to_dict(policy_opt.mean_net),
            "log_std": sro.adam_vector_to_dict(policy_opt.log_std),
        }
    if critic_opt is not None:
        ck["critic_opt"] = {
            "v_r": sro.adam_to_dict(critic_opt.v_r),
            "v_c": sro.adam_to_dict(critic_opt.v_c),
            "q_c": sro.adam_to_dict(critic_opt.q_c),
        }
    if rngs is not None:
        ck["rng_states"] = {name: rngs[name].bit_generator.state for name in _TRAIN_STREAMS}
    return ck


def save_checkpoint(ck: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_jsonify(ck), sort_keys=True))


def load_checkpoint(path: str | Path) -> dict:
    ck = json.loads(Path(path).read_text())
    if ck.get("format") != CHECKPOINT_FORMAT or ck.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint (format={ck.get('format')!r}, "
            f"version={ck.get('version')!r})"
        )
    return ck


def policy_from_checkpoint(ck: dict) -> sro.GaussianPolicy:
    pol = ck["policy"]
    return sro.GaussianPolicy(
        mean_net=sro.mlp_from_dict(pol["mean_net"]),
        log_std=np.asarray(pol["log_std"], dtype=np.float64),
        log_std_low=pol["log_std_low"],
        log_std_high=pol["log_std_high"],
    )


def _critics_from_checkpoint(ck: dict) -> sro.CriticSet:
    data = ck["critics"]
    return sro.CriticSet(
        v_r=sro.mlp_from_dict(data["v_r"]),
        v_c=sro.mlp_from_dict(data["v_c"]),
        q_c=sro.mlp_from_dict(data["q_c"]),
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
    epoch; ``resume`` restores parameters, optimizers, the dual variable,
    and all random streams, so a resumed run continues the original one
    bit-for-bit.  A ``ValueError`` or ``env.PlacementError`` inside an epoch
    writes an abort record and the checkpoint of the finished epochs, then
    propagates.
    """
    cfg.validate()
    if (cfg.shield_enabled or cfg.fe_context) and basis is None:
        raise ValueError("shield or learned context requires a pretrained basis artifact")

    env_cfg = cfg.env
    steps_per_epoch = cfg.train.steps_per_epoch
    epochs = cfg.total_steps // steps_per_epoch
    if cfg.total_steps > 0 and epochs == 0:
        epochs = 1

    rngs = {name: rng_for(cfg.seed, name) for name in _TRAIN_STREAMS}
    writer = MetricsWriter(metrics_path)
    writer.write({"kind": "header", "version": 1, "config": serialize_config(cfg)})

    if resume is not None:
        ck = resume if isinstance(resume, dict) else load_checkpoint(resume)
        if ck["critics"] is None or ck["policy_opt"] is None or ck["rng_states"] is None:
            raise ValueError("checkpoint was not saved from training; cannot resume")
        policy = policy_from_checkpoint(ck)
        critics = _critics_from_checkpoint(ck)
        policy_opt = sro.PolicyOptimizer(
            sro.adam_from_dict(ck["policy_opt"]["mean_net"]),
            sro.adam_vector_from_dict(ck["policy_opt"]["log_std"]),
        )
        critic_opt = sro.CriticOptimizer(
            sro.adam_from_dict(ck["critic_opt"]["v_r"]),
            sro.adam_from_dict(ck["critic_opt"]["v_c"]),
            sro.adam_from_dict(ck["critic_opt"]["q_c"]),
        )
        lam = float(ck["lambda"])
        start_epoch = int(ck["epoch"])
        steps_done = int(ck["steps_done"])
        episode_index = int(ck.get("episode_index", 0))
        for name in _TRAIN_STREAMS:
            rngs[name].bit_generator.state = ck["rng_states"][name]
    else:
        init_rng = rng_for(cfg.seed, "init")
        policy = sro.GaussianPolicy.create(
            cfg.env.state_dim, cfg.context_dim, env_cfg.action_dim, cfg.train.hidden, init_rng
        )
        critics = sro.CriticSet.create(
            cfg.env.state_dim, cfg.context_dim, env_cfg.action_dim, cfg.train.hidden, init_rng
        )
        policy_opt = sro.PolicyOptimizer.create(policy, cfg.train.policy_lr)
        critic_opt = sro.CriticOptimizer.create(critics, cfg.train.critic_lr)
        lam = 0.0
        start_epoch = 0
        steps_done = 0
        episode_index = 0

    def checkpoint_now(epoch_done: int) -> dict:
        ck = build_checkpoint(
            cfg,
            policy,
            critics,
            policy_opt,
            critic_opt,
            lam,
            epoch_done,
            steps_done,
            rngs,
            basis,
        )
        ck["episode_index"] = episode_index
        if out_path is not None:
            save_checkpoint(ck, out_path)
        return ck

    epochs_run = 0
    try:
        for epoch in range(start_epoch, epochs):
            t0 = time.perf_counter()
            buffer = sro.RolloutBuffer()
            ep_returns: list[float] = []
            ep_cost_rates: list[float] = []
            while len(buffer) < steps_per_epoch:
                res = run_episode(policy, cfg, env_cfg, rngs, basis=basis, buffer=buffer)
                writer.write(episode_record(episode_index, epoch, res))
                episode_index += 1
                ep_returns.append(res.ep_return)
                ep_cost_rates.append(res.cost_rate)
            buffer.finalize(policy, critics, cfg.train.gamma, cfg.train.gae_lambda)

            closs = {}
            for _ in range(cfg.train.critic_iters):
                closs = sro.critic_update(buffer, critics, cfg.train, rngs["update"], critic_opt)
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
                    "mean_return": float(np.mean(ep_returns)),
                    "mean_cost_rate": float(np.mean(ep_cost_rates)),
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
                    "wall_clock_seconds": time.perf_counter() - t0,
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
    except (ValueError, envmod.PlacementError) as exc:
        writer.write({"kind": "abort", "epoch": epochs_run + start_epoch, "reason": str(exc)})
        checkpoint_now(epochs_run + start_epoch)
        writer.close()
        raise

    if epochs_run == 0:  # zero steps, or resumed at the last epoch: nothing saved yet
        ck = checkpoint_now(start_epoch)
    writer.close()
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
    the config's shield toggle (useful for overhead comparisons).
    """
    ck = ckpt if isinstance(ckpt, dict) else load_checkpoint(ckpt)
    cfg = parse_config(ck["config"])
    policy = policy_from_checkpoint(ck)
    basis = fe.basis_from_record(ck["basis"]) if ck.get("basis") else None

    if episodes is None:
        episodes = cfg.eval.episodes
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

    rngs = {
        "env": rng_for(seed, "eval", 0),
        "rollout": rng_for(seed, "eval", 1),
        "shield": rng_for(seed, "eval", 2),
    }
    writer = MetricsWriter(metrics_path)
    results: list[EpisodeResult] = []
    for i in range(episodes):
        res = run_episode(policy, cfg, env_cfg, rngs, basis=basis, shield_on=shield_on)
        writer.write(episode_record(i, 0, res))
        results.append(res)

    def agg(values: list[float]) -> tuple[float | None, float | None]:
        if not values:
            return None, None
        arr = np.asarray(values)
        return float(arr.mean()), float(arr.std())

    ret_mean, ret_std = agg([r.ep_return for r in results])
    cost_mean, cost_std = agg([r.cost_rate for r in results])
    trig_mean, _ = agg([r.trigger_rate for r in results])
    empty_mean, _ = agg([r.empty_rate for r in results])
    miss_mean, _ = agg([r.acp_miss_rate for r in results])
    wall_mean, _ = agg([r.wall_clock for r in results])
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
        "wall_clock_per_episode": wall_mean,
    }
    writer.write(summary)
    writer.close()
    summary["records"] = writer.records[:-1]
    return summary


# ---------------------------------------------------------------------------
# Dynamics pretraining
# ---------------------------------------------------------------------------


@dataclass
class PooledRegressor:
    """Single network fit across all parameter draws (the context-free baseline)."""

    net: Mlp
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def predict_delta_batch(self, X: np.ndarray) -> np.ndarray:
        return self.net.forward_batch((X - self.norm_mean) / self.norm_std)

    def dataset_mse(self, ds: fe.TransitionDataset) -> float:
        err = self.predict_delta_batch(ds.inputs) - ds.targets
        return float(np.mean(np.sum(err**2, axis=1)))


def train_pooled(
    datasets: list[fe.TransitionDataset],
    hidden: tuple[int, ...],
    epochs: int,
    lr: float,
    batch: int,
    rng: np.random.Generator,
) -> PooledRegressor:
    """Fit one regression network on the pooled transitions of all draws."""
    inputs = np.vstack([ds.inputs for ds in datasets])
    targets = np.vstack([ds.targets for ds in datasets])
    norm_mean = inputs.mean(axis=0)
    norm_std = np.maximum(inputs.std(axis=0), 1e-8)
    Xn = (inputs - norm_mean) / norm_std
    net = Mlp.create([inputs.shape[1], *hidden, targets.shape[1]], rng)
    opt = AdamState.for_net(net, lr)
    n = Xn.shape[0]
    for _ in range(epochs):
        idx = rng.choice(n, size=min(batch * len(datasets), n), replace=False)
        for lo in range(0, idx.shape[0], batch):
            sel = idx[lo : lo + batch]
            out, cache = net.forward_cached(Xn[sel])
            err = out - targets[sel]
            grads, _ = net.backward_cached(cache, (2.0 / sel.shape[0]) * err)
            adam_step(net, opt, grads)
    return PooledRegressor(net, norm_mean, norm_std)


def pooled_to_dict(model: PooledRegressor) -> dict:
    return {
        "net": sro.mlp_to_dict(model.net),
        "norm_mean": model.norm_mean.tolist(),
        "norm_std": model.norm_std.tolist(),
    }


def pooled_from_dict(data: dict) -> PooledRegressor:
    return PooledRegressor(
        sro.mlp_from_dict(data["net"]),
        np.asarray(data["norm_mean"], dtype=np.float64),
        np.asarray(data["norm_std"], dtype=np.float64),
    )


@dataclass
class PretrainResult:
    basis: fe.BasisSet
    pooled: PooledRegressor
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
        state = envmod.reset(env_cfg, phi, rng)
        states, actions, nexts = [], [], []
        for _ in range(env_cfg.horizon):
            a = rng.uniform(-1.0, 1.0, size=env_cfg.action_dim)
            tr = envmod.step(state, a, phi, env_cfg)
            states.append(state.as_vector())
            actions.append(a)
            nexts.append(tr.next_state.as_vector())
            state = tr.next_state
        datasets.append(
            fe.TransitionDataset.from_arrays(
                np.asarray(states), np.asarray(actions), np.asarray(nexts)
            )
        )
        draws.append(phi)
    return datasets, draws


def score_heldout(
    basis: fe.BasisSet,
    pooled: PooledRegressor,
    heldout: list[fe.TransitionDataset],
    context_samples: int,
    ridge: float,
) -> tuple[float, float]:
    """Mean held-out MSE of the adapted basis model vs the pooled baseline.

    Coefficients are identified from each episode's leading transitions and
    scored on the remainder, which the pooled model also never saw.
    """
    fe_mses, pooled_mses = [], []
    for ds in heldout:
        ctx_n = min(context_samples, len(ds) // 2)
        ident = fe.TransitionDataset(ds.inputs[:ctx_n], ds.targets[:ctx_n])
        rest = fe.TransitionDataset(ds.inputs[ctx_n:], ds.targets[ctx_n:])
        b = fe.compute_coefficients(basis, ident, ridge)
        fe_mses.append(fe.dataset_mse(basis, b, rest))
        pooled_mses.append(pooled.dataset_mse(rest))
    return float(np.mean(fe_mses)), float(np.mean(pooled_mses))


def pretrain_fe(cfg: ExperimentConfig, out_path: str | Path | None = None) -> PretrainResult:
    """Collect exploration data across parameter draws and fit the basis set.

    The artifact's metadata records the draw history and the held-out
    comparison against a pooled single-network baseline, and the file bytes
    are identical across runs with the same config.
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
    basis.meta["pooled_model"] = pooled_to_dict(pooled)
    if out_path is not None:
        fe.save_basis(basis, out_path)
    return PretrainResult(basis=basis, pooled=pooled, header=header, heldout=heldout)
