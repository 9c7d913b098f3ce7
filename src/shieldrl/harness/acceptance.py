"""Acceptance suites: machine-checkable claims about the whole system.

Each suite measures one property end to end and reports the measured value,
the threshold it is held to, and a pass flag.  Suites that need a trained
dynamics basis share one cached artifact (built on first use inside the
given working directory) so the full run stays within a desk-scale budget.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .. import conformal
from .. import function_encoder as fe
from .. import shield as shieldmod
from .. import sro
from ..numerics import Mlp
from ..seeding import rng_for
from .config import ExperimentConfig
from .run import (
    _episode_streams,
    build_checkpoint,
    canonical_records,
    collect_random_episodes,
    evaluate,
    new_policy,
    pretrain_fe,
    run_episode,
    score_heldout,
    train,
    train_pooled,
)


@dataclass
class CriterionResult:
    criterion: int
    suite: str
    passed: bool
    threshold: str
    measured: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0


class Workspace:
    """Artifact cache shared across suites: the basis set and the pooled baseline.

    Both are pretrained once by :func:`pretrain_fe` and cached in ``root`` as
    two basis artifacts, ``acceptance_basis.json`` and
    ``acceptance_pooled.json``; unless both files exist, they are fit again.
    """

    BASIS_SEED = 2024

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else Path(tempfile.mkdtemp(prefix="accept-"))
        self.root.mkdir(parents=True, exist_ok=True)
        self._models = None

    def fe_config(self) -> ExperimentConfig:
        cfg = ExperimentConfig(seed=self.BASIS_SEED)
        cfg.fe = replace(cfg.fe, pretrain_episodes=120, epochs=200)
        return cfg.validate()

    def ensure_basis(self) -> tuple[fe.BasisSet, fe.BasisSet]:
        """The basis set and the pooled baseline, fit or loaded on first use."""
        if self._models is None:
            paths = (self.root / "acceptance_basis.json", self.root / "acceptance_pooled.json")
            if not all(path.exists() for path in paths):
                result = pretrain_fe(self.fe_config(), out_path=paths[0])
                fe.save_basis(result.pooled, paths[1])
            self._models = tuple(fe.load_basis(path) for path in paths)
        return self._models


# ---------------------------------------------------------------------------
# 1. Safety-regularizer range
# ---------------------------------------------------------------------------


def check_qsafe_bound(ws: Workspace) -> CriterionResult:
    """q_safe stays in (-1, 0] over >= 1e5 random (state, action, critic) draws."""
    rng = rng_for(111, "qsafe")
    cfg = sro.TrainConfig(n_qsafe=8)
    state_dim, ctx_dim, act_dim = 6, 3, 2
    draws = 0
    violations = 0
    worst = (0.0, 0.0)
    for _ in range(50):
        policy = sro.GaussianPolicy.create(state_dim, ctx_dim, act_dim, (16, 16), rng)
        policy.log_std = rng.uniform(-5.0, 1.0, size=act_dim)
        q_c = Mlp.create([state_dim + ctx_dim + act_dim, 16, 16, 1], rng)
        n = 2000
        states = rng.uniform(-3.0, 3.0, size=(n, state_dim))
        contexts = rng.uniform(-3.0, 3.0, size=(n, ctx_dim))
        actions = rng.uniform(-2.0, 2.0, size=(n, act_dim))
        v_c = rng.normal(scale=3.0, size=n)
        X = np.hstack([states, contexts])
        q = sro.q_safe_batch(X, actions, policy.mean_batch(X), policy, q_c, v_c, cfg, rng)
        draws += n
        bad = ~((q > -1.0) & (q <= 0.0) & np.isfinite(q))
        violations += int(bad.sum())
        worst = (min(worst[0], float(q.min())), max(worst[1], float(q.max())))
    return CriterionResult(
        criterion=1,
        suite="qsafe-bound",
        passed=(violations == 0 and draws >= 100_000),
        threshold="0 violations of (-1, 0] over >= 1e5 draws",
        measured={"draws": draws, "violations": violations, "min": worst[0], "max": worst[1]},
    )


# ---------------------------------------------------------------------------
# 2. Zero-violation reward consistency by enumeration
# ---------------------------------------------------------------------------

_TAB_GAMMA = 0.95
_TAB_HORIZON = 10
_TAB_EPS = 1e-3
# Two hidden dynamics: action selects the next state, or its complement.
_TAB_T = ((0, 1), (0, 1)), ((1, 0), (1, 0))  # T[phi][s][a] -> s'
_TAB_R = ((1.0, 2.0), (0.2, 3.0))  # R[s][a]
_TAB_C = ((0, 0), (0, 1))  # C[s][a]; only (s=1, a=1) is unsafe


def _tab_values(policy: tuple[int, int], phi: int):
    """Finite-horizon cost value/Q tables under a deterministic policy."""
    V = [[0.0, 0.0] for _ in range(_TAB_HORIZON + 1)]
    Q = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(_TAB_HORIZON)]
    for t in range(_TAB_HORIZON - 1, -1, -1):
        for s in (0, 1):
            for a in (0, 1):
                Q[t][s][a] = _TAB_C[s][a] + _TAB_GAMMA * V[t + 1][_TAB_T[phi][s][a]]
            V[t][s] = Q[t][s][policy[s]]
    return V, Q


def _tab_objectives(policy: tuple[int, int], alpha: float):
    """(J_R, J_C, J_aug) averaged over the two hidden parameters."""
    j_r = j_c = j_aug = 0.0
    for phi in (0, 1):
        V, Q = _tab_values(policy, phi)
        s = 0
        disc = 1.0
        for t in range(_TAB_HORIZON):
            a = policy[s]
            numer = max(Q[t][s][a], 0.0)  # deterministic policy: one-hot expectation
            qs = -numer / (max(V[t][s], 0.0) + _TAB_EPS)
            qs = min(max(qs, -1.0 + 1e-6), 0.0)
            j_r += disc * _TAB_R[s][a] / 2.0
            j_c += disc * _TAB_C[s][a] / 2.0
            j_aug += disc * (_TAB_R[s][a] + alpha * qs) / 2.0
            s = _TAB_T[phi][s][a]
            disc *= _TAB_GAMMA
    return j_r, j_c, j_aug


def check_reward_consistency(ws: Workspace) -> CriterionResult:
    """Within the zero-cost policy subclass the augmented objective preserves
    the reward-optimal policy exactly, for every regularizer weight."""
    policies = [(0, 0), (0, 1), (1, 0), (1, 1)]
    safe = [p for p in policies if _tab_objectives(p, 0.0)[1] == 0.0]
    unsafe_costs = [_tab_objectives(p, 0.0)[1] for p in policies if p not in safe]
    details: dict = {
        "safe_policies": [list(p) for p in safe],
        "unsafe_cost_min": min(unsafe_costs) if unsafe_costs else None,
    }
    ok = len(safe) == 2 and all(c > 0 for c in unsafe_costs)
    for alpha in (0.0, 0.5, 1.0, 10.0):
        j_r = [_tab_objectives(p, alpha)[0] for p in safe]
        j_aug = [_tab_objectives(p, alpha)[2] for p in safe]
        exact = all(a == r for a, r in zip(j_aug, j_r))
        same_argmax = int(np.argmax(j_r)) == int(np.argmax(j_aug))
        details[f"alpha_{alpha}"] = {
            "j_r": j_r,
            "j_aug": j_aug,
            "exact_match": exact,
            "same_argmax": same_argmax,
        }
        ok = ok and exact and same_argmax
    # Non-vacuity: the regularizer must actually bite for an unsafe policy.
    penalized = _tab_objectives((1, 1), 10.0)
    details["unsafe_gap_alpha10"] = penalized[0] - penalized[2]
    ok = ok and details["unsafe_gap_alpha10"] > 0
    return CriterionResult(
        criterion=2,
        suite="reward-consistency",
        passed=ok,
        threshold="exact J_aug == J_R and identical argmax on the zero-cost subclass, alpha in {0, 0.5, 1, 10}",
        measured=details,
    )


# ---------------------------------------------------------------------------
# 3. Conformal coverage (pure synthetic streams, no policy involved)
# ---------------------------------------------------------------------------


def check_conformal(ws: Workspace) -> CriterionResult:
    rng = rng_for(333, "eval")
    acp = conformal.AcpConfig(delta=0.05, warmup_len=100)

    st = conformal.AcpState(acp, 1)  # one stream: a batch of one episode
    for _ in range(100):
        conformal.observe(st, [rng.uniform(0.0, 1.0)])
    for _ in range(10_000):
        conformal.observe(st, [rng.uniform(0.0, 1.0)])
    stationary_miss = st.miss_count[0] / st.update_count

    st2 = conformal.AcpState(acp, 1)
    shift_at, total, window_start = 5000, 10_000, 7000
    window_miss = window_n = 0
    for i in range(total):
        scale = 1.0 if i < shift_at else 2.0
        before = st2.miss_count
        conformal.observe(st2, [rng.uniform(0.0, scale)])
        if i >= window_start and st2.warmed_up:
            window_miss += st2.miss_count[0] - before[0]
            window_n += 1
    drift_miss = window_miss / window_n

    # numpy rates: a numpy bool would not serialize as a JSON result line
    ok = bool(0.03 <= stationary_miss <= 0.07 and 0.0 <= drift_miss <= 0.10)
    return CriterionResult(
        criterion=3,
        suite="conformal",
        passed=ok,
        threshold="stationary miss in [0.03, 0.07]; post-shift windowed miss in [0, 0.10]",
        measured={
            "stationary_miss_rate": stationary_miss,
            "stationary_updates": st.update_count,
            "drift_window_miss_rate": drift_miss,
            "drift_window_steps": window_n,
        },
    )


# ---------------------------------------------------------------------------
# 4. Shield soundness in the exact-model limit
# ---------------------------------------------------------------------------


def _soundness_episodes(count: int):
    """Criterion 4's first ``count`` episodes: shielded with the exact model, at seed 404.

    The radius is conformal's warm-up on exact scores: ``+inf`` for the
    first ``acp.min_scores`` steps (a triggered decision then falls back),
    then exactly 0.  Returns the records and the episodes' streams.
    """
    cfg = ExperimentConfig(seed=404, sro_enabled=False, context="none").validate()
    policy = new_policy(cfg, rng_for(404, "init"))
    streams = _episode_streams(404, ("rollout", 0), ("shield", 0), 0, count)
    records, _ = run_episode(
        policy, cfg, cfg.env, rng_for(404, "env"), streams,
        shield_on=True, dynamics=shieldmod.ExactModel,
    )
    return records, streams


def check_shield_soundness(ws: Workspace) -> CriterionResult:
    episodes = 250  # 1e5 shielded steps in total
    placed = [rec for rec in _soundness_episodes(episodes)[0] if rec is not None]
    qualified = [rec for rec in placed if rec["safe_set_empty_rate"] == 0]

    def total(records: list[dict], key: str) -> int:
        return sum(round(rec[key] * rec["steps"]) for rec in records)

    measured = {
        "steps": sum(rec["steps"] for rec in placed),
        "interventions": total(placed, "shield_trigger_rate"),
        "empty": total(placed, "safe_set_empty_rate"),
        "collisions": total(placed, "cost_rate"),
        "certified_collisions": sum(rec["certified_collisions"] for rec in placed),
        "episodes": episodes,
        "qualified_episodes": len(qualified),
        "qualified_collisions": total(qualified, "cost_rate"),
    }
    return CriterionResult(
        criterion=4,
        suite="shield-soundness",
        passed=(
            measured["qualified_episodes"] >= 100
            and measured["qualified_collisions"] == 0
            and measured["certified_collisions"] == 0
            and measured["steps"] >= 100_000
        ),
        threshold=">= 100 episodes with never-empty safe sets and 0 collisions; "
        "0 collisions after any certified step over >= 1e5 steps",
        measured=measured,
    )


# ---------------------------------------------------------------------------
# 5. Empirical cost-rate bound with the learned predictor
# ---------------------------------------------------------------------------


def check_cost_rate_bound(ws: Workspace) -> CriterionResult:
    basis, _ = ws.ensure_basis()
    cfg = ExperimentConfig(seed=505).validate()
    policy = new_policy(cfg, rng_for(505, "init"))
    ck = build_checkpoint(cfg, policy, basis=basis)
    summary = evaluate(ck, episodes=100, seed=505)
    cost_rate = summary["cost_rate_mean"]
    eps_hat = summary["safe_set_empty_rate_mean"]
    delta = cfg.acp.delta
    bound = delta + eps_hat * (1.0 - delta) + 0.02
    return CriterionResult(
        criterion=5,
        suite="cost-rate-bound",
        passed=cost_rate <= bound,
        threshold="cost rate <= delta + eps_hat*(1-delta) + 0.02 over 100 episodes",
        measured={
            "cost_rate": cost_rate,
            "empty_rate": eps_hat,
            "delta": delta,
            "bound": bound,
            "trigger_rate": summary["shield_trigger_rate_mean"],
            "acp_miss_rate": summary["acp_miss_rate_mean"],
        },
    )


# ---------------------------------------------------------------------------
# 6. Function-encoder exactness and advantage
# ---------------------------------------------------------------------------


def _linear_net(row: list[float]) -> Mlp:
    w = np.asarray([row], dtype=np.float64)
    return Mlp([len(row), 1], [w], [np.zeros(1)])


def _exact_span_case() -> dict:
    basis = fe.BasisSet.from_nets(
        [_linear_net([1.0, 0.0]), _linear_net([0.0, 1.0])],
        norm_mean=np.zeros(2),
        norm_std=np.ones(2),
    )
    rng = rng_for(606, "fe")
    X = rng.standard_normal((200, 2))
    targets = (2.0 * X[:, 0] - 1.0 * X[:, 1])[:, None]
    samples = fe.TransitionDataset(X, targets)
    b = fe.compute_coefficients(basis, samples, ridge=0.0)
    return {
        "coeff_error": float(np.max(np.abs(b - np.array([2.0, -1.0])))),
        "residual": fe.dataset_mse(basis, b, samples),
    }


def _synthetic_family_case() -> dict:
    """FE vs a parameter-informed network on an analytic one-dimensional family."""
    rng = rng_for(607, "fe")

    def make_task(w: float, n: int) -> tuple[fe.TransitionDataset, fe.TransitionDataset]:
        s = rng.uniform(-2.0, 2.0, size=n)
        a = rng.uniform(-2.0, 2.0, size=n)
        delta = w * np.tanh(a) + 0.3 * (2.0 - w) * np.sin(s)
        X = np.column_stack([s, a])
        Xw = np.column_stack([s, a, np.full(n, w)])
        return fe.TransitionDataset(X, delta[:, None]), fe.TransitionDataset(Xw, delta[:, None])

    train_w = rng.uniform(0.5, 2.0, size=16)
    fe_train, oracle_train = zip(*(make_task(w, 400) for w in train_w))
    # The low-dimensional family rewards a long training tail with a light
    # unit-norm penalty; the parameter-informed baseline converges much faster.
    basis = fe.train_basis(list(fe_train), k=3, epochs=1200, lr=2e-3, rng=rng,
                           hidden=(64, 64), batch=512, reg_weight=0.05)
    oracle = train_pooled(list(oracle_train), (64, 64), 400, 1e-3, 256, rng)

    fe_mses, oracle_mses = [], []
    for w in rng.uniform(0.5, 2.0, size=8):
        ident_fe, _ = make_task(w, 100)
        test_fe, test_oracle = make_task(w, 300)
        b = fe.compute_coefficients(basis, ident_fe)
        fe_mses.append(fe.dataset_mse(basis, b, test_fe))
        oracle_mses.append(fe.dataset_mse(oracle, np.ones(1), test_oracle))
    return {"fe_mse": float(np.mean(fe_mses)), "oracle_mse": float(np.mean(oracle_mses))}


def _env_advantage_case(ws: Workspace) -> dict:
    basis, pooled = ws.ensure_basis()
    cfg = ws.fe_config()
    out = {}
    for label, intervals in (
        ("id", cfg.env.param_intervals),
        ("ood", cfg.eval.ood_intervals),
    ):
        episodes, _ = collect_random_episodes(
            cfg.env, 24, rng_for(608, "fe", 0 if label == "id" else 1), intervals
        )
        fe_mse, pooled_mse = score_heldout(
            basis, pooled, episodes, cfg.fe.context_samples, cfg.fe.ridge
        )
        out[label] = {"episodes": len(episodes), "fe_mse": fe_mse, "pooled_mse": pooled_mse}
    return out


def check_function_encoder(ws: Workspace) -> CriterionResult:
    exact = _exact_span_case()
    synth = _synthetic_family_case()
    env_adv = _env_advantage_case(ws)
    ok = (
        exact["coeff_error"] < 1e-6
        and exact["residual"] < 1e-8
        and env_adv["id"]["fe_mse"] < env_adv["id"]["pooled_mse"]
        and env_adv["ood"]["fe_mse"] < env_adv["ood"]["pooled_mse"]
        and env_adv["id"]["episodes"] >= 20
        and env_adv["ood"]["episodes"] >= 20
        and synth["fe_mse"] <= 1.5 * synth["oracle_mse"]
    )
    return CriterionResult(
        criterion=6,
        suite="function-encoder",
        passed=ok,
        threshold="coeff err < 1e-6, residual < 1e-8; FE < pooled MSE on >= 20 episodes "
        "(ID and OOD); FE <= 1.5x parameter-informed MSE on the synthetic family",
        measured={"exact_span": exact, "synthetic_family": synth, "env": env_adv},
    )


# ---------------------------------------------------------------------------
# 7. Gradient correctness
# ---------------------------------------------------------------------------


def _fd_max_rel_error(pairs, loss, step: float, floor: float) -> float:
    """Max relative error of analytic gradients against central differences of ``loss``.

    ``pairs`` holds ``(param, grad)`` arrays; each entry of ``param`` is
    perturbed in place and restored.  Entries whose larger gradient
    magnitude is at most ``floor`` are skipped.
    """
    worst = 0.0
    for arr, g in pairs:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss()
            arr[idx] = orig - step
            down = loss()
            arr[idx] = orig
            fd = (up - down) / (2 * step)
            denom = max(abs(fd), abs(g[idx]))
            if denom > floor:
                worst = max(worst, abs(fd - g[idx]) / denom)
    return worst


def _gae_brute_force(rewards, values, gamma, lam, bootstrap):
    n = len(rewards)
    ext = np.append(values, bootstrap)
    deltas = rewards + gamma * ext[1:] - ext[:-1]
    adv = np.zeros(n)
    for t in range(n):
        adv[t] = sum((gamma * lam) ** (k - t) * deltas[k] for k in range(t, n))
    return adv


def check_gradients(ws: Workspace) -> CriterionResult:
    rng = rng_for(707, "init")
    worst_net = 0.0
    for sizes in ([4, 8, 3], [3, 16, 16, 2], [5, 4, 1]):
        net = Mlp.create(sizes, rng)
        X = rng.standard_normal((3, sizes[0]))
        R = rng.standard_normal((3, sizes[-1]))
        _, cache = net.forward_cached(X)
        pairs = ((net.params, net.backward_cached(cache, R)),)

        def loss() -> float:
            return float(np.sum(net.forward_batch(X) * R))

        worst_net = max(worst_net, _fd_max_rel_error(pairs, loss, 1e-5, 1e-7))

    # Clipped-surrogate gradient, checked away from the clip kinks.
    policy = sro.GaussianPolicy.create(5, 2, 2, (8, 8), rng)
    n = 16
    X = rng.standard_normal((n, 7))
    A = rng.standard_normal((n, 2))
    logp_old = policy.log_prob_batch(X, A) + rng.uniform(-0.05, 0.05, size=n)
    adv = rng.standard_normal(n)
    _, grads, grad_ls, _, _ = sro.surrogate_loss_and_grads(policy, X, A, logp_old, adv, 0.2)

    def surrogate() -> float:
        loss, *_ = sro.surrogate_loss_and_grads(policy, X, A, logp_old, adv, 0.2)
        return loss

    pairs = ((policy.mean_net.params, grads), (policy.log_std, grad_ls))
    worst_pol = _fd_max_rel_error(pairs, surrogate, 1e-6, 1e-6)

    worst_gae = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 60))
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        gamma = float(rng.uniform(0.8, 0.999))
        lam = float(rng.uniform(0.0, 1.0))
        boot = float(rng.standard_normal())
        adv, _ = sro.gae(rewards, values, gamma, lam, boot)
        ref = _gae_brute_force(rewards, values, gamma, lam, boot)
        worst_gae = max(worst_gae, float(np.max(np.abs(adv - ref))))

    ok = worst_net < 1e-4 and worst_pol < 1e-4 and worst_gae < 1e-10
    return CriterionResult(
        criterion=7,
        suite="gradients",
        passed=ok,
        threshold="net and surrogate grads: rel err < 1e-4 vs central differences; "
        "recursive advantage estimate == brute force within 1e-10",
        measured={
            "net_grad_max_rel_err": worst_net,
            "surrogate_grad_max_rel_err": worst_pol,
            "gae_max_abs_err": worst_gae,
        },
    )


# ---------------------------------------------------------------------------
# 8. Directional safety effect at full desk-scale budget
# ---------------------------------------------------------------------------


def _directional_config(seed: int, full: bool) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed, total_steps=200_000, sro_enabled=full, shield_enabled=full,
        context="fe" if full else "none",
    ).validate()


def _return_kept(full_ret: float, base_ret: float) -> bool:
    """Whether the full method keeps the plain agents' return: ``full >= 0.6 * base``.

    For a non-negative plain return this allows a loss of at most 40% of it.
    For a negative one, ``0.6 * base`` is ``base + 0.4 * |base|``: the full
    method must beat the plain return by 40% of its size, which is stricter
    than allowing it to lose that much (``base - 0.4 * |base|``).
    """
    return full_ret >= 0.6 * base_ret


def check_directional(ws: Workspace) -> CriterionResult:
    basis, _ = ws.ensure_basis()
    seeds = (101, 202, 303)
    results = {"base": [], "full": []}
    for seed in seeds:
        for label, full in (("base", False), ("full", True)):
            cfg = _directional_config(seed, full)
            out = train(cfg, basis=basis if full else None)
            summary = evaluate(out.checkpoint, episodes=50, seed=seed + 1000)
            results[label].append(
                {
                    "seed": seed,
                    "return": summary["return_mean"],
                    "cost_rate": summary["cost_rate_mean"],
                    "trigger_rate": summary["shield_trigger_rate_mean"],
                }
            )
    base_cost = float(np.mean([r["cost_rate"] for r in results["base"]]))
    full_cost = float(np.mean([r["cost_rate"] for r in results["full"]]))
    base_ret = float(np.mean([r["return"] for r in results["base"]]))
    full_ret = float(np.mean([r["return"] for r in results["full"]]))
    ok = full_cost < base_cost and _return_kept(full_ret, base_ret)
    return CriterionResult(
        criterion=8,
        suite="directional",
        passed=ok,
        threshold="mean eval cost rate (regularized+shielded) < plain Lagrangian; "
        "return >= 0.6x plain, 3 seeds x 200k steps",
        measured={
            "base_cost_rate": base_cost,
            "full_cost_rate": full_cost,
            "base_return": base_ret,
            "full_return": full_ret,
            "per_seed": results,
        },
    )


# ---------------------------------------------------------------------------
# 9. Shield overhead
# ---------------------------------------------------------------------------


def check_overhead(ws: Workspace) -> CriterionResult:
    """CPU-time cost of the shield on top of the otherwise identical agent.

    Both runs keep the online coefficient estimate (the policy consumes it
    either way); only the candidate scoring and the conformal radius are
    unique to the shielded run.  The ratio compares the process CPU time of
    the two whole ``evaluate`` calls, which other processes on the host do
    not inflate the way they inflate wall-clock time.
    """
    basis, _ = ws.ensure_basis()
    shielded_cfg = ExperimentConfig(seed=909).validate()
    plain_cfg = ExperimentConfig(seed=909, shield_enabled=False).validate()
    policy = new_policy(shielded_cfg, rng_for(909, "init"))
    episodes = 25

    def cpu_timed(cfg: ExperimentConfig) -> tuple[float, dict]:
        t0 = time.process_time()
        summary = evaluate(build_checkpoint(cfg, policy, basis=basis), episodes=episodes, seed=909)
        return time.process_time() - t0, summary

    shielded_s, shielded = cpu_timed(shielded_cfg)
    plain_s, _ = cpu_timed(plain_cfg)
    ratio = shielded_s / plain_s
    return CriterionResult(
        criterion=9,
        suite="overhead",
        passed=ratio <= 2.5,
        threshold="shielded evaluate CPU time <= 2.5x unshielded",
        measured={
            "ratio": float(ratio),
            "shielded_cpu_seconds": shielded_s,
            "plain_cpu_seconds": plain_s,
            "trigger_rate": shielded["shield_trigger_rate_mean"],
            "episodes": episodes,
        },
    )


# ---------------------------------------------------------------------------
# 10. Reduction regression
# ---------------------------------------------------------------------------


def check_reduction(ws: Workspace) -> CriterionResult:
    """alpha=0 with the shield off must walk the plain trainer's exact path.

    Streams are compared after dropping the header record (which echoes the
    differing mode flags) and wall-clock fields; every episode and epoch
    metric must match bit for bit.
    """
    def run(sro_on: bool, alpha: float) -> list[str]:
        cfg = ExperimentConfig(
            seed=1010, total_steps=8000, sro_enabled=sro_on,
            shield_enabled=False, context="none",
        )
        cfg.train = replace(cfg.train, alpha=alpha)
        out = train(cfg.validate())
        return canonical_records([r for r in out.records if r.get("kind") != "header"])

    plain = run(False, 0.1)
    reduced = run(True, 0.0)
    identical = plain == reduced
    first_diff = None
    if not identical:
        for i, (a, b) in enumerate(zip(plain, reduced)):
            if a != b:
                first_diff = i
                break
    return CriterionResult(
        criterion=10,
        suite="reduction",
        passed=identical and len(plain) > 2,
        threshold="bit-identical metric streams (header/wall-clock excluded)",
        measured={
            "records": len(plain),
            "identical": identical,
            "first_difference_index": first_diff,
        },
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES = {
    "qsafe-bound": check_qsafe_bound,
    "reward-consistency": check_reward_consistency,
    "conformal": check_conformal,
    "shield-soundness": check_shield_soundness,
    "cost-rate-bound": check_cost_rate_bound,
    "function-encoder": check_function_encoder,
    "gradients": check_gradients,
    "directional": check_directional,
    "overhead": check_overhead,
    "reduction": check_reduction,
}


def run_suites(name: str = "all", workdir: str | Path | None = None) -> list[CriterionResult]:
    """Run one suite (or all, in criterion order) and return the results."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: all, {', '.join(SUITES)}")
    ws = Workspace(workdir)
    names = list(SUITES) if name == "all" else [name]
    results = []
    for suite in names:
        t0 = time.perf_counter()
        res = SUITES[suite](ws)
        res.runtime_seconds = time.perf_counter() - t0
        results.append(res)
    return results
