"""Safety-regularized actor-critic on a Lagrangian constrained base.

The actor is a Gaussian policy conditioned on the identified dynamics
coefficients.  Alongside the usual reward advantage it ascends a bounded
safety regularizer: for each visited (state, action) pair a local
cost-sensitivity score

    q_safe = clamp( - E_eps[ pi(a + eps | s, b) * max(Q_C(s, a + eps, b), 0) ]
                      / (max(V_C(s, b), 0) + eps_num),  -1 + 1e-6,  0 ]

is estimated by Monte Carlo over Gaussian action perturbations and added to
the (normalized) reward advantage with weight ``alpha``.  The score is a
constant in the policy loss -- no gradient flows through the critics or the
density -- so it reweights the policy gradient without reshaping it.  By
construction it vanishes wherever the local cost landscape is zero, which
is what keeps reward optimization unbiased among zero-violation policies.

Cost pressure enters twice: the multiplier ``lambda`` scales the raw
(unnormalized) cost advantage in the surrogate, and is itself adapted from
observed episode costs against the cost limit.

The policy and the critics stay frozen while an epoch's episodes are rolled
out.  A rollout therefore only samples actions, through
:meth:`GaussianPolicy.sample_n` from each episode's own block-drawn noise,
and hands the epoch over as one ``(episodes, horizon)``
:class:`RolloutBuffer` block; ``RolloutBuffer.finalize`` evaluates the
behaviour means, log-probabilities and value estimates in one batch per
epoch, runs GAE along each episode's row, and the critic and policy updates
read the flattened arrays; the safety score's density reads the kept means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Adam, Mlp, adam_step

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class TrainConfig:
    alpha: float = 0.1
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    kl_max: float = 0.02
    policy_lr: float = 3e-4
    critic_lr: float = 1e-3
    lagrangian_lr: float = 0.035
    cost_limit: float = 0.0
    steps_per_epoch: int = 4000
    minibatch: int = 256
    policy_iters: int = 4
    critic_iters: int = 4
    n_qsafe: int = 10
    sigma_qsafe: float = 0.1  # 0.1 x action half-range
    eps_num: float = 1e-3
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ValueError("gae_lambda must lie in [0, 1]")
        if self.minibatch < 1 or self.steps_per_epoch < 1:
            raise ValueError("minibatch and steps_per_epoch must be positive")
        if self.n_qsafe < 1:
            raise ValueError("n_qsafe must be >= 1")
        if self.sigma_qsafe < 0:
            raise ValueError("sigma_qsafe must be >= 0")
        if not (self.clip_ratio > 0.0 and self.eps_num > 0.0 and self.kl_max > 0.0):
            raise ValueError("clip_ratio, eps_num and kl_max must be positive")
        if not (self.policy_lr > 0.0 and self.critic_lr > 0.0 and self.lagrangian_lr >= 0.0):
            raise ValueError("policy_lr and critic_lr must be positive, lagrangian_lr >= 0")
        if self.policy_iters < 0 or self.critic_iters < 0:
            raise ValueError("policy_iters and critic_iters must be >= 0")
        self.hidden = tuple(int(h) for h in self.hidden)
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden layer sizes must be >= 1")


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


@dataclass
class GaussianPolicy:
    """Diagonal Gaussian over actions; mean conditioned on (state ++ context)."""

    mean_net: Mlp
    log_std: np.ndarray
    log_std_low: float = -5.0
    log_std_high: float = 1.0

    @classmethod
    def create(
        cls,
        state_dim: int,
        context_dim: int,
        action_dim: int,
        hidden: tuple[int, ...],
        rng: np.random.Generator,
        init_log_std: float = -0.5,
    ) -> "GaussianPolicy":
        net = Mlp.create([state_dim + context_dim, *hidden, action_dim], rng)
        return cls(net, np.full(action_dim, float(init_log_std)))

    @property
    def action_dim(self) -> int:
        return self.mean_net.output_dim

    def clamp_log_std(self) -> None:
        np.clip(self.log_std, self.log_std_low, self.log_std_high, out=self.log_std)

    def std(self) -> np.ndarray:
        return np.exp(self.log_std)

    def mean_batch(self, X: np.ndarray) -> np.ndarray:
        return self.mean_net.forward_batch(X)

    def sample_n(self, mu: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Policy samples ``mu + std * noise`` from standard-normal ``noise``.

        ``mu`` holds rows of :meth:`mean_batch`, so sampling never
        re-evaluates the network; one mean row broadcasts over ``(m,
        action_dim)`` noise.  A rollout forms every action here: each step's
        samples for all episodes at once, and the shield's further
        candidates for one episode.
        """
        return mu + self.std() * noise

    def log_prob_batch(self, X: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Log-density of actions ``A`` at the ``n`` inputs ``X``."""
        return self.log_prob_at(self.mean_batch(X), A)

    def log_prob_at(self, mu: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Log-density of actions ``A`` around the ``(n, action_dim)`` means ``mu``.

        ``mu`` is :meth:`mean_batch` of the inputs, so a caller that already
        holds the means never runs the network again.  ``A`` is
        ``(n, action_dim)``, one action per input, or ``(n, m, action_dim)``,
        ``m`` actions per input.
        """
        if A.ndim == 3:
            mu = mu[:, None, :]
        z = (A - mu) / self.std()
        return (
            -0.5 * np.sum(z**2, axis=-1)
            - np.sum(self.log_std)
            - 0.5 * self.action_dim * LOG_2PI
        )


# ---------------------------------------------------------------------------
# Critics
# ---------------------------------------------------------------------------


@dataclass
class CriticSet:
    """Reward value net, cost value net, and cost action-value net.

    The nets are float32: a net computes in its weights' dtype and ``Adam``
    keeps its moments in it, while the values written into the epoch's
    arrays, and every target, advantage and loss formed from them, are
    float64.
    """

    v_r: Mlp
    v_c: Mlp
    q_c: Mlp

    @classmethod
    def create(
        cls,
        state_dim: int,
        context_dim: int,
        action_dim: int,
        hidden: tuple[int, ...],
        rng: np.random.Generator,
    ) -> "CriticSet":
        """Three fresh float32 nets: the float64 draws of :meth:`Mlp.create`,
        rounded, so ``rng`` advances as it would for float64 nets."""
        sc = state_dim + context_dim
        return cls(
            v_r=Mlp.create([sc, *hidden, 1], rng, np.float32),
            v_c=Mlp.create([sc, *hidden, 1], rng, np.float32),
            q_c=Mlp.create([sc + action_dim, *hidden, 1], rng, np.float32),
        )

    def v_r_values(self, X: np.ndarray) -> np.ndarray:
        return self.v_r.forward_batch(X)[:, 0]

    def v_c_values(self, X: np.ndarray) -> np.ndarray:
        return self.v_c.forward_batch(X)[:, 0]


@dataclass
class CriticOptimizer:
    v_r: Adam
    v_c: Adam
    q_c: Adam

    @classmethod
    def create(cls, lr: float) -> "CriticOptimizer":
        return cls(Adam(lr), Adam(lr), Adam(lr))


@dataclass
class PolicyOptimizer:
    mean_net: Adam
    log_std: Adam

    @classmethod
    def create(cls, lr: float) -> "PolicyOptimizer":
        return cls(Adam(lr), Adam(lr))


# ---------------------------------------------------------------------------
# Advantage estimation
# ---------------------------------------------------------------------------


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    gamma: float,
    lam: float,
    bootstrap_value: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation along the last (time) axis.

    ``rewards`` and ``values`` are one episode's ``(T,)`` arrays or a block
    of equal-length episodes, ``(E, T)``; rows are independent, so each row
    of a block gets exactly the values a 1-D call on it would.
    ``bootstrap_value`` is the value estimate of the state after the last
    step, one per episode (zero for true terminations).  Targets are
    ``advantages + values``.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if r.shape != v.shape or r.ndim not in (1, 2):
        raise ValueError(f"rewards {r.shape} and values {v.shape} must match, 1-D or 2-D")
    adv = np.zeros_like(r)
    next_value = np.broadcast_to(np.asarray(bootstrap_value, dtype=np.float64), r.shape[:-1])
    running = np.zeros(r.shape[:-1])
    for t in range(r.shape[-1] - 1, -1, -1):
        delta = r[..., t] + gamma * next_value - v[..., t]
        running = delta + gamma * lam * running
        adv[..., t] = running
        next_value = v[..., t]
    return adv, adv + v


@dataclass
class RolloutBuffer:
    """One training epoch of experience as an ``(episodes, horizon)`` block.

    The rollout records only what happened, one row per episode and one
    column per step: the policy input (state ++ context), the action, the
    reward and the cost, plus each episode's bootstrap input, the state and
    context after its last step.  The policy and critics stay frozen while
    an epoch is collected, so :meth:`finalize` evaluates the behaviour
    log-probabilities and both value heads once over the whole block.
    """

    inputs: np.ndarray  # (E, T, state ++ context)
    actions: np.ndarray  # (E, T, action)
    rewards: np.ndarray  # (E, T)
    costs: np.ndarray  # (E, T)
    boot_inputs: np.ndarray  # (E, state ++ context)
    # populated by finalize(): one flat row per step, episode-major
    X: np.ndarray | None = None
    A: np.ndarray | None = None
    means: np.ndarray | None = None
    log_probs: np.ndarray | None = None
    adv_r: np.ndarray | None = None
    adv_r_norm: np.ndarray | None = None
    adv_c: np.ndarray | None = None
    ret_r: np.ndarray | None = None
    ret_c: np.ndarray | None = None

    def __len__(self) -> int:
        return self.rewards.size

    def finalize(
        self, policy: GaussianPolicy, critics: CriticSet, gamma: float, lam: float
    ) -> None:
        """Evaluate log-probs and values, then advantages and targets.

        The block is flattened episode-major.  The policy runs once over the
        epoch's rows; its behaviour means stay in ``means``, which the
        policy update's safety score reads instead of running the policy
        again (the policy does not change between the two).  Each value
        head runs once over the epoch's rows plus the bootstrap rows;
        advantages run along each episode's row of the block.  Only the
        reward advantage is normalized.  The network passes run in row
        blocks (see :func:`_in_row_blocks`).
        """
        n = len(self)
        if n == 0:
            raise ValueError("empty buffer")
        shape = self.rewards.shape
        self.X = self.inputs.reshape(n, -1)
        self.A = self.actions.reshape(n, -1)
        self.means = _in_row_blocks(policy.mean_batch, self.X, np.empty((n, policy.action_dim)))
        self.log_probs = policy.log_prob_at(self.means, self.A)
        X_all = np.vstack([self.X, self.boot_inputs])
        v_r = _in_row_blocks(critics.v_r_values, X_all, np.empty(len(X_all)))
        v_c = _in_row_blocks(critics.v_c_values, X_all, np.empty(len(X_all)))
        adv_r, ret_r = gae(self.rewards, v_r[:n].reshape(shape), gamma, lam, v_r[n:])
        adv_c, ret_c = gae(self.costs, v_c[:n].reshape(shape), gamma, lam, v_c[n:])
        self.adv_r, self.ret_r = adv_r.reshape(n), ret_r.reshape(n)
        self.adv_c, self.ret_c = adv_c.reshape(n), ret_c.reshape(n)
        # Cost advantages keep their scale: the Lagrange multiplier prices
        # real cost units, so only the reward advantage is standardized.
        std = float(self.adv_r.std())
        self.adv_r_norm = (self.adv_r - self.adv_r.mean()) / (std + 1e-8)

    def episode_cost_totals(self) -> np.ndarray:
        return self.costs.sum(axis=1)


# ---------------------------------------------------------------------------
# Safety regularizer
# ---------------------------------------------------------------------------


# Network input rows per block in every epoch-sized pass: ``finalize``'s
# policy and value passes, ``policy_update``'s cost-value pass and
# ``q_safe_batch``'s cost-critic pass over perturbed rows.  A pass then holds
# one block's 64-wide hidden activations (about 0.5 MB a layer), not an
# epoch's.  Keep it at 1,000: with the OpenBLAS that numpy 2.4 bundles, 250-
# and 500-row blocks rounded differently from the one-pass product for some
# layer shapes, while 1,000- and 2,000-row blocks matched it.
_BLOCK_ROWS = 1000


def _row_blocks(n: int, step: int):
    """``(lo, hi)`` ranges of ``step`` rows covering ``n`` rows.

    The last range takes the remainder, so it holds ``step`` to ``2 * step
    - 1`` rows (all ``n`` when ``n < step``): a handful of rows would go
    through BLAS's small-matrix paths, which round differently from the
    one-pass product.
    """
    starts = range(0, max(n - step, 0) + 1, step)
    return zip(starts, [*starts[1:], n])


def _in_row_blocks(fn, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``fn(X)`` written into ``out``, with ``fn`` run on blocks of
    ``_BLOCK_ROWS`` rows.

    ``fn`` maps rows to rows independently (a network pass), so ``out``
    holds what one pass over ``X`` would return, bit for bit, while no
    epoch-sized activation is built.
    """
    for lo, hi in _row_blocks(X.shape[0], _BLOCK_ROWS):
        out[lo:hi] = fn(X[lo:hi])
    return out


def q_safe_batch(
    X: np.ndarray,
    actions: np.ndarray,
    means: np.ndarray,
    policy: GaussianPolicy,
    q_c_net: Mlp,
    v_c_values: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized safety score for ``n`` (state ++ context, action) pairs.

    ``means`` is ``policy.mean_batch(X)``; training passes the behaviour
    means that :meth:`RolloutBuffer.finalize` kept, so the policy does not
    run again.  The work runs over blocks of whole rows: each block draws
    its ``rows x n_qsafe`` perturbations, forms their density and runs the
    cost critic over those perturbed rows (about ``_BLOCK_ROWS``), so
    no epoch-sized ``n x n_qsafe`` array is ever built.  Consecutive draws
    give the values, and leave ``rng`` in the state, of one draw of all
    ``n x n_qsafe`` perturbations.  The perturbed rows are written straight
    into a block of ``q_c_net``'s dtype, so a float32 critic casts no copy;
    the perturbations, the density and the score stay float64.  All inputs
    are constants for the policy update: the estimate never carries
    gradients.
    """
    n, da = actions.shape
    if X.shape[0] != n or means.shape != (n, da) or np.shape(v_c_values) != (n,):
        raise ValueError(
            f"q_safe_batch needs {n} rows everywhere: X {X.shape}, means {means.shape}, "
            f"v_c_values {np.shape(v_c_values)}"
        )
    m, dx = cfg.n_qsafe, X.shape[1]
    step = max(1, _BLOCK_ROWS // m)  # whole buffer rows per block
    m_hat = np.empty(n)
    block = np.empty((min(n, 2 * step), m, dx + da), dtype=q_c_net.params.dtype)
    for lo, hi in _row_blocks(n, step):
        eps = cfg.sigma_qsafe * rng.standard_normal((hi - lo, m, da))
        perturbed = actions[lo:hi, None, :] + eps
        density = np.exp(policy.log_prob_at(means[lo:hi], perturbed))
        rows = block[: hi - lo]
        rows[:, :, :dx] = X[lo:hi, None, :]
        rows[:, :, dx:] = perturbed
        q_vals = q_c_net.forward_batch(rows.reshape(-1, dx + da)).reshape(hi - lo, m)
        m_hat[lo:hi] = np.mean(density * np.maximum(q_vals, 0.0), axis=1)
    denom = np.maximum(v_c_values, 0.0) + cfg.eps_num
    return np.clip(-m_hat / denom, -1.0 + 1e-6, 0.0)


def augmented_advantage(a_r, q_safe, alpha: float):
    """Reward advantage plus the weighted safety score: ``a_r + alpha * q_safe``."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return a_r + alpha * q_safe


def lagrangian_update(lam: float, episode_cost_mean: float, cost_limit: float, lr: float) -> float:
    """Projected ascent on the multiplier; never returns a negative value."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return max(0.0, lam + lr * (episode_cost_mean - cost_limit))


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------


def surrogate_loss_and_grads(
    policy: GaussianPolicy,
    X: np.ndarray,
    A: np.ndarray,
    logp_old: np.ndarray,
    adv: np.ndarray,
    clip_ratio: float,
):
    """Clipped-surrogate loss with analytic gradients.

    Returns ``(loss, mean_net_grad, log_std_grad, kl, clip_frac)`` where
    ``loss`` is the negative surrogate (so minimizing ascends the objective),
    ``mean_net_grad`` is a vector in the layout of ``policy.mean_net.params``
    and ``kl`` is the usual ``mean(logp_old - logp_new)`` drift estimate.
    """
    n = X.shape[0]
    mu, cache = policy.mean_net.forward_cached(X)
    std = policy.std()
    z = (A - mu) / std
    logp = -0.5 * np.sum(z**2, axis=1) - np.sum(policy.log_std) - 0.5 * policy.action_dim * LOG_2PI
    ratio = np.exp(logp - logp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * adv
    objective = np.minimum(unclipped, clipped)
    loss = -float(np.mean(objective))
    # Gradient flows only where the unclipped branch attains the minimum.
    active = unclipped <= clipped
    dloss_dlogp = -(ratio * adv * active) / n
    upstream_mu = dloss_dlogp[:, None] * (z / std)
    grads = policy.mean_net.backward_cached(cache, upstream_mu)
    grad_log_std = np.sum(dloss_dlogp[:, None] * (z**2 - 1.0), axis=0)
    kl = float(np.mean(logp_old - logp))
    clip_frac = float(np.mean(np.abs(ratio - 1.0) > clip_ratio))
    return loss, grads, grad_log_std, kl, clip_frac


def policy_update(
    buffer: RolloutBuffer,
    policy: GaussianPolicy,
    critics: CriticSet,
    lam: float,
    cfg: TrainConfig,
    rng: np.random.Generator,
    opt: PolicyOptimizer,
    sro_enabled: bool = True,
) -> dict:
    """Minibatch clipped-surrogate ascent on ``adv_r_norm + alpha*q_safe - lam*adv_c``.

    Early-stops once the estimated KL drift exceeds ``kl_max``.  A non-finite
    loss or gradient aborts the whole update and restores the incoming
    parameters.  The safety scores are computed once per update (with the
    current critics and the behaviour means ``finalize`` kept) and enter as
    constants; with ``alpha == 0`` or SRO disabled they are identically zero
    and no perturbation noise is drawn, so both configurations follow the
    identical plain-Lagrangian path.
    """
    X, A, logp_old = buffer.X, buffer.A, buffer.log_probs
    if sro_enabled and cfg.alpha > 0:
        v_c = _in_row_blocks(critics.v_c_values, X, np.empty(len(X)))
        q_safe = q_safe_batch(X, A, buffer.means, policy, critics.q_c, v_c, cfg, rng)
    else:
        q_safe = np.zeros(len(buffer))
    adv = augmented_advantage(buffer.adv_r_norm, q_safe, cfg.alpha) - lam * buffer.adv_c

    snapshot = (policy.mean_net.copy(), policy.log_std.copy())
    n = X.shape[0]
    diag = {
        "mean_q_safe": float(q_safe.mean()),
        "kl": 0.0,
        "clip_fraction": 0.0,
        "policy_loss": 0.0,
        "early_stop": False,
        "aborted": False,
        "minibatches": 0,
    }
    done = False
    for _ in range(cfg.policy_iters):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.minibatch):
            idx = perm[lo : lo + cfg.minibatch]
            loss, grads, grad_ls, kl, clip_frac = surrogate_loss_and_grads(
                policy, X[idx], A[idx], logp_old[idx], adv[idx], cfg.clip_ratio
            )
            diag["kl"] = kl
            if kl > cfg.kl_max:
                diag["early_stop"] = True
                done = True
                break
            if not (np.isfinite(loss) and np.isfinite(grads).all() and np.isfinite(grad_ls).all()):
                policy.mean_net = snapshot[0]
                policy.log_std = snapshot[1]
                diag["aborted"] = True
                return diag
            adam_step(policy.mean_net, opt.mean_net, grads)
            opt.log_std.apply(policy.log_std, grad_ls)
            policy.clamp_log_std()
            diag["policy_loss"] = loss
            diag["clip_fraction"] = clip_frac
            diag["minibatches"] += 1
        if done:
            break
    return diag


def critic_update(
    buffer: RolloutBuffer,
    critics: CriticSet,
    cfg: TrainConfig,
    rng: np.random.Generator,
    opt: CriticOptimizer,
) -> dict:
    """One shuffled pass of Adam on the three quadratic critic losses.

    The cost Q-critic regresses onto ``stopgrad(V_C(s)) + A_C``; the cost
    value net's parameters never receive gradient from that loss.
    """
    X, A = buffer.X, buffer.A
    n = X.shape[0]
    losses = {"v_r": 0.0, "v_c": 0.0, "q_c": 0.0}
    batches = 0
    perm = rng.permutation(n)
    for lo in range(0, n, cfg.minibatch):
        idx = perm[lo : lo + cfg.minibatch]
        m = idx.shape[0]
        Xb = X[idx]
        losses["v_r"] += _value_step(critics.v_r, opt.v_r, Xb, buffer.ret_r[idx], m)
        losses["v_c"] += _value_step(critics.v_c, opt.v_c, Xb, buffer.ret_c[idx], m)
        # Fresh cost-value predictions, used as constants in the Q target.
        v_sg = critics.v_c.forward_batch(Xb)[:, 0]
        target = v_sg + buffer.adv_c[idx]
        losses["q_c"] += _value_step(critics.q_c, opt.q_c, np.hstack([Xb, A[idx]]), target, m)
        batches += 1
    out = {k: v / batches for k, v in losses.items()}
    if not all(np.isfinite(v) for v in out.values()):
        raise ValueError(f"non-finite critic loss: {out}")
    return out


def _value_step(net: Mlp, opt: Adam, X: np.ndarray, targets: np.ndarray, m: int) -> float:
    pred, cache = net.forward_cached(X)
    err = pred[:, 0] - targets
    loss = float(np.mean(err**2))
    grads = net.backward_cached(cache, (2.0 / m) * err[:, None])
    adam_step(net, opt, grads)
    return loss

