"""Policy optimization tests: densities, advantages, safety score, updates."""

import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldrl import sro
from shieldrl.numerics import Mlp


def small_policy(seed=0, state_dim=3, context_dim=2, action_dim=2, hidden=(8,)):
    rng = np.random.default_rng(seed)
    return sro.GaussianPolicy.create(state_dim, context_dim, action_dim, hidden, rng)


def float64_critics(state_dim, context_dim, action_dim, hidden, rng):
    """The float64 nets whose rounding ``CriticSet.create`` returns."""
    sc = state_dim + context_dim
    return sro.CriticSet(*(Mlp.create([d, *hidden, 1], rng) for d in (sc, sc, sc + action_dim)))


def small_critics(seed=0, state_dim=3, context_dim=2, action_dim=2, hidden=(8,),
                  dtype=np.float32):
    """Float32 critics as training builds them, or their float64 draw."""
    rng = np.random.default_rng(seed + 1)
    create = sro.CriticSet.create if dtype == np.float32 else float64_critics
    return create(state_dim, context_dim, action_dim, hidden, rng)


def constant_net(input_dim: int, value: float) -> Mlp:
    """Single linear layer with zero weights: outputs ``value`` everywhere."""
    return Mlp([input_dim, 1], [np.zeros((1, input_dim))], [np.array([value])])


def random_buffer(rng, n_episodes=3, ep_len=20, policy=None, critics=None):
    """A random ``(n_episodes, ep_len)`` block, finalized with ``policy`` and ``critics``.

    Draws step by step, each episode's bootstrap input after its steps.
    """
    inputs, actions = np.empty((n_episodes, ep_len, 5)), np.empty((n_episodes, ep_len, 2))
    rewards, costs = np.empty((n_episodes, ep_len)), np.empty((n_episodes, ep_len))
    boot_inputs = np.empty((n_episodes, 5))
    for e in range(n_episodes):
        for t in range(ep_len):
            inputs[e, t] = rng.standard_normal(5)
            actions[e, t] = rng.standard_normal(2)
            rewards[e, t] = rng.normal()
            costs[e, t] = rng.integers(0, 2)
        boot_inputs[e] = rng.standard_normal(5)
    buf = sro.RolloutBuffer(inputs, actions, rewards, costs, boot_inputs)
    policy = small_policy() if policy is None else policy
    critics = small_critics() if critics is None else critics
    buf.finalize(policy, critics, 0.99, 0.95)
    return buf


def zero_block(rewards, costs):
    """A buffer of the given ``(E, T)`` rewards and costs, with zero inputs and actions."""
    rewards, costs = np.asarray(rewards, dtype=np.float64), np.asarray(costs, dtype=np.float64)
    e, t = rewards.shape
    return sro.RolloutBuffer(
        np.zeros((e, t, 5)), np.zeros((e, t, 2)), rewards, costs, np.zeros((e, 5))
    )


def one_row_at_a_time(fn, X, *rest):
    """``fn`` applied to each row of ``X`` (and of ``rest``) as its own batch."""
    return np.array([fn(X[i : i + 1], *(r[i : i + 1] for r in rest))[0] for i in range(len(X))])


# ---------------------------------------------------------------------------
# Gaussian policy
# ---------------------------------------------------------------------------


def test_log_prob_matches_the_closed_form():
    policy = small_policy()
    policy.log_std = np.array([-0.3, 0.4])
    rng = np.random.default_rng(1)
    X = rng.standard_normal((16, 5))
    A = rng.standard_normal((16, 2))
    mu = policy.mean_batch(X)
    sigma = np.exp(policy.log_std)
    expected = np.array(
        [
            sum(
                -((a - m) ** 2) / (2 * s**2) - math.log(s) - 0.5 * math.log(2 * math.pi)
                for a, m, s in zip(A[i], mu[i], sigma)
            )
            for i in range(16)
        ]
    )
    np.testing.assert_allclose(policy.log_prob_batch(X, A), expected, atol=1e-12)
    np.testing.assert_array_equal(policy.log_prob_at(mu, A), policy.log_prob_batch(X, A))
    # m actions per input: each column is that action's own log-density
    A3 = np.stack([A, A[::-1]], axis=1)
    np.testing.assert_array_equal(policy.log_prob_at(mu, A3)[:, 0], policy.log_prob_at(mu, A))
    np.testing.assert_array_equal(
        policy.log_prob_at(mu, A3)[:, 1], policy.log_prob_at(mu, A[::-1])
    )


def test_mean_depends_on_the_context():
    policy = small_policy(seed=2)
    a, b = policy.mean_batch(np.array([[1.0, 1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, -1.0]]))
    assert not np.allclose(a, b)


def test_sample_n_statistics_and_determinism():
    policy = small_policy(seed=3)
    policy.log_std = np.array([-0.5, -1.0])
    mu = policy.mean_batch(np.array([[1.0, 1.0, 1.0, 0.0, 0.0]]))[0]
    noise = np.random.default_rng(4).standard_normal((20_000, 2))
    draws = policy.sample_n(mu, noise)
    assert draws.shape == (20_000, 2)
    np.testing.assert_allclose(draws.mean(axis=0), mu, atol=0.02)
    np.testing.assert_allclose(draws.std(axis=0), np.exp(policy.log_std), rtol=0.05)
    again = policy.sample_n(mu, np.random.default_rng(4).standard_normal((20_000, 2)))
    np.testing.assert_array_equal(draws, again)
    # a batch of means, one noise row each, gives each row's own samples
    means = np.stack([mu, -mu, 2.0 * mu])
    batch = policy.sample_n(means, noise[:3])
    for row, mean, z in zip(batch, means, noise[:3]):
        np.testing.assert_array_equal(row, policy.sample_n(mean, z[None, :])[0])


def test_act_returns_a_consistent_log_density():
    # the density of a sample is the standard-normal density of its own noise
    policy = small_policy(seed=5)
    s, c = np.ones(3), np.zeros(2)
    mu = policy.mean_batch(np.concatenate([s, c])[None, :])[0]
    action = policy.sample_n(mu, np.random.default_rng(6).standard_normal((1, 2)))[0]
    z = np.random.default_rng(6).standard_normal((1, 2))[0]
    logp = policy.log_prob_batch(np.concatenate([s, c])[None, :], action[None, :])[0]
    expected = -0.5 * np.sum(z**2) - np.sum(policy.log_std) - math.log(2 * math.pi)
    assert logp == pytest.approx(expected, abs=1e-12)


def test_log_std_clamping():
    policy = small_policy(seed=7)
    policy.log_std = np.array([-99.0, 99.0])
    policy.clamp_log_std()
    np.testing.assert_array_equal(policy.log_std, [-5.0, 1.0])


# ---------------------------------------------------------------------------
# Advantage estimation
# ---------------------------------------------------------------------------


def test_gae_single_step():
    adv, ret = sro.gae(np.array([2.0]), np.array([0.5]), 0.9, 0.8, bootstrap_value=1.0)
    assert adv[0] == pytest.approx(2.0 + 0.9 * 1.0 - 0.5)
    assert ret[0] == pytest.approx(adv[0] + 0.5)


def test_gae_lambda_zero_is_the_td_error():
    rng = np.random.default_rng(8)
    r, v = rng.standard_normal(12), rng.standard_normal(12)
    adv, _ = sro.gae(r, v, 0.97, 0.0, bootstrap_value=0.3)
    next_v = np.append(v[1:], 0.3)
    np.testing.assert_allclose(adv, r + 0.97 * next_v - v, atol=1e-12)


def test_gae_matches_brute_force_sum():
    # adv_t = sum_l (gamma*lam)^l * delta_{t+l}, computed the slow way
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        r, v = rng.standard_normal(n), rng.standard_normal(n)
        boot = float(rng.normal())
        gamma, lam = float(rng.uniform(0.8, 1.0)), float(rng.uniform(0.0, 1.0))
        next_v = np.append(v[1:], boot)
        delta = r + gamma * next_v - v
        expected = np.array(
            [
                sum((gamma * lam) ** l * delta[t + l] for l in range(n - t))
                for t in range(n)
            ]
        )
        adv, ret = sro.gae(r, v, gamma, lam, boot)
        np.testing.assert_allclose(adv, expected, atol=1e-10)
        np.testing.assert_allclose(ret, expected + v, atol=1e-10)


def test_gae_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        sro.gae(np.zeros(3), np.zeros(4), 0.9, 0.9)


def test_gae_over_a_block_equals_gae_row_by_row():
    rng = np.random.default_rng(12)
    r, v = rng.standard_normal((4, 30)), rng.standard_normal((4, 30))
    boot = rng.standard_normal(4)
    adv, ret = sro.gae(r, v, 0.97, 0.9, boot)
    for e in range(4):
        adv_e, ret_e = sro.gae(r[e], v[e], 0.97, 0.9, boot[e])
        np.testing.assert_array_equal(adv[e], adv_e)
        np.testing.assert_array_equal(ret[e], ret_e)


def test_buffer_finalize_is_per_episode():
    # batched log-probs, values and bootstraps agree with one-row evaluation,
    # the rows are episode-major, and each episode's advantages are that
    # episode's own GAE
    # float64 critics: in float32 a batched pass and one-row passes differ
    # by up to about 3e-7 relative, so agreement to 1e-12 is a float64 bound
    policy, critics = small_policy(seed=10), small_critics(seed=10, dtype=np.float64)
    buf = random_buffer(np.random.default_rng(10), n_episodes=2, ep_len=15,
                        policy=policy, critics=critics)
    np.testing.assert_array_equal(buf.X, np.vstack([buf.inputs[0], buf.inputs[1]]))
    np.testing.assert_array_equal(buf.A, np.vstack([buf.actions[0], buf.actions[1]]))
    np.testing.assert_array_equal(buf.means, policy.mean_batch(buf.X))
    np.testing.assert_allclose(
        buf.log_probs, one_row_at_a_time(policy.log_prob_batch, buf.X, buf.A), rtol=1e-12
    )
    v_r = one_row_at_a_time(critics.v_r_values, buf.X).reshape(2, 15)
    boot_r = one_row_at_a_time(critics.v_r_values, buf.boot_inputs)
    for e in range(2):
        adv, ret = sro.gae(buf.rewards[e], v_r[e], 0.99, 0.95, boot_r[e])
        rows = slice(15 * e, 15 * (e + 1))
        np.testing.assert_allclose(buf.adv_r[rows], adv, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(buf.ret_r[rows], ret, rtol=1e-12, atol=1e-14)


def test_buffer_normalizes_only_the_reward_advantage():
    # float64 critics: in float32 a batched pass and one-row passes differ
    # by up to about 3e-7 relative, so agreement to 1e-12 is a float64 bound
    critics = small_critics(seed=11, dtype=np.float64)
    buf = random_buffer(np.random.default_rng(11), critics=critics)
    assert buf.adv_r_norm.mean() == pytest.approx(0.0, abs=1e-9)
    assert buf.adv_r_norm.std() == pytest.approx(1.0, rel=1e-6)
    episodes, steps = buf.costs.shape
    v_c = one_row_at_a_time(critics.v_c_values, buf.X).reshape(episodes, steps)
    boot_c = one_row_at_a_time(critics.v_c_values, buf.boot_inputs)
    for e in range(episodes):
        adv_c, ret_c = sro.gae(buf.costs[e], v_c[e], 0.99, 0.95, boot_c[e])
        rows = slice(steps * e, steps * (e + 1))
        np.testing.assert_allclose(buf.adv_c[rows], adv_c, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(buf.ret_c[rows], ret_c, rtol=1e-12, atol=1e-14)


def test_buffer_guards():
    policy, critics = small_policy(), small_critics()
    with pytest.raises(ValueError):
        zero_block(np.zeros((0, 0)), np.zeros((0, 0))).finalize(policy, critics, 0.99, 0.95)
    buf = zero_block([[1.0]], [[0.0]])
    buf.finalize(policy, critics, 0.99, 0.95)
    assert len(buf) == 1
    np.testing.assert_array_equal(buf.episode_cost_totals(), [0.0])


def test_episode_cost_totals():
    buf = zero_block(np.zeros((2, 3)), [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    buf.finalize(small_policy(), small_critics(), 0.99, 0.95)
    np.testing.assert_array_equal(buf.episode_cost_totals(), [2.0, 0.0])


# ---------------------------------------------------------------------------
# Safety score
# ---------------------------------------------------------------------------


def test_q_safe_lies_in_the_half_open_unit_interval():
    policy = small_policy(seed=12)
    cfg = sro.TrainConfig(n_qsafe=8)
    rng = np.random.default_rng(13)
    q_c = Mlp.create([7, 8, 1], np.random.default_rng(14))
    X = rng.standard_normal((500, 5))
    out = sro.q_safe_batch(
        X,
        rng.standard_normal((500, 2)),
        policy.mean_batch(X),
        policy,
        q_c,
        rng.normal(scale=3.0, size=500),
        cfg,
        rng,
    )
    assert np.all(out <= 0.0)
    assert np.all(out > -1.0)


def test_q_safe_is_zero_when_cost_q_is_never_positive():
    policy = small_policy(seed=15)
    cfg = sro.TrainConfig(n_qsafe=16)
    rng = np.random.default_rng(16)
    q_c = constant_net(7, -1.0)  # max(Q, 0) = 0 everywhere
    X = rng.standard_normal((50, 5))
    out = sro.q_safe_batch(
        X,
        rng.standard_normal((50, 2)),
        policy.mean_batch(X),
        policy,
        q_c,
        np.ones(50),
        cfg,
        rng,
    )
    np.testing.assert_array_equal(out, np.zeros(50))


def test_q_safe_matches_the_gaussian_convolution_limit():
    # With a constant cost Q and a zero-mean policy the Monte-Carlo
    # estimate converges to  -Q0 * N(a; mu, (sigma_p^2 + sigma_s^2) I) / (v_c + eps).
    policy = sro.GaussianPolicy(constant_net(5, 0.0), np.array([-0.5, -0.5]))
    policy.mean_net = Mlp([5, 2], [np.zeros((2, 5))], [np.zeros(2)])
    q0, v_c = 0.5, 1.0
    cfg = sro.TrainConfig(n_qsafe=20_000, sigma_qsafe=0.1)
    var = math.exp(-1.0) + 0.1**2
    density = 1.0 / (2 * math.pi * var)  # N(0; 0, var*I) in 2-D
    expected = -q0 * density / (v_c + cfg.eps_num)
    got = sro.q_safe_batch(
        np.zeros((1, 5)),
        np.zeros((1, 2)),
        np.zeros((1, 2)),
        policy,
        constant_net(7, q0),
        np.array([v_c]),
        cfg,
        np.random.default_rng(17),
    )[0]
    assert got == pytest.approx(expected, rel=0.02)


def test_q_safe_clamps_at_minus_one():
    # tiny value denominator + large Q drives the raw ratio far below -1
    policy = sro.GaussianPolicy(Mlp([5, 2], [np.zeros((2, 5))], [np.zeros(2)]),
                                np.array([-0.5, -0.5]))
    cfg = sro.TrainConfig(n_qsafe=64)
    got = sro.q_safe_batch(
        np.zeros((1, 5)), np.zeros((1, 2)), np.zeros((1, 2)), policy,
        constant_net(7, 100.0), np.zeros(1), cfg, np.random.default_rng(18),
    )[0]
    assert got == -1.0 + 1e-6


def q_safe_case(n, n_qsafe, seed=0, hidden=(64, 64), critic_dtype=np.float64):
    """Policy, cost critic and ``n`` random inputs for the safety score."""
    rng = np.random.default_rng(seed)
    policy = sro.GaussianPolicy.create(16, 4, 2, hidden, rng)
    q_c = Mlp.create([22, *hidden, 1], rng, critic_dtype)
    q_c.biases[-1][:] = 0.3  # most perturbed rows score a positive cost
    X = rng.standard_normal((n, 20))
    A = 0.3 * rng.standard_normal((n, 2))
    v_c = np.abs(rng.standard_normal(n))
    return policy, q_c, X, A, v_c, sro.TrainConfig(n_qsafe=n_qsafe)


def unblocked_q_safe(X, actions, policy, q_c_net, v_c_values, cfg, rng):
    """The safety score as it was before blocking: the policy runs over
    ``X`` again and the cost critic runs once over all ``n x n_qsafe`` rows."""
    n, da = actions.shape
    eps = cfg.sigma_qsafe * rng.standard_normal((n, cfg.n_qsafe, da))
    perturbed = actions[:, None, :] + eps
    z = (perturbed - policy.mean_batch(X)[:, None, :]) / np.exp(policy.log_std)
    density = np.exp(
        -0.5 * np.sum(z**2, axis=-1) - np.sum(policy.log_std) - 0.5 * da * sro.LOG_2PI
    )
    flat_X = np.repeat(X, cfg.n_qsafe, axis=0)
    q_vals = q_c_net.forward_batch(np.hstack([flat_X, perturbed.reshape(-1, da)]))[:, 0]
    q_vals = np.maximum(q_vals.reshape(n, cfg.n_qsafe), 0.0)
    m = np.mean(density * q_vals, axis=1)
    denom = np.maximum(v_c_values, 0.0) + cfg.eps_num
    return np.clip(-m / denom, -1.0 + 1e-6, 0.0)


def blocked_q_safe_mismatches(critic_dtype=np.float64):
    """``(n_qsafe, n, differing scores)`` wherever the blocked score differs
    from :func:`unblocked_q_safe`, around one and two blocks of buffer rows."""
    found = []
    for n_qsafe in (10, 1):
        block = sro._BLOCK_ROWS // n_qsafe
        for n in (1, block - 1, block, block + 1, 2 * block + 3):
            policy, q_c, X, A, v_c, cfg = q_safe_case(n, n_qsafe, n, critic_dtype=critic_dtype)
            want = unblocked_q_safe(X, A, policy, q_c, v_c, cfg, np.random.default_rng(7))
            got = sro.q_safe_batch(
                X, A, policy.mean_batch(X), policy, q_c, v_c, cfg, np.random.default_rng(7)
            )
            assert 0 < np.count_nonzero(got) and got.shape == (n,)
            if not np.array_equal(got, want):
                found.append((n_qsafe, n, int(np.sum(got != want))))
    return found


def test_blocked_q_safe_equals_the_unblocked_formula_bit_for_bit():
    # Run with one BLAS thread, as the benchmark runs.  With more, OpenBLAS
    # splits a matrix product's rows between threads at a point set by the
    # row count, so the one-pass formula itself can move a row by an ulp
    # against any other split of the same rows.
    here = Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path[:0] = {[str(here.parent / 'src'), str(here)]!r}\n"
        "import test_sro; print(test_sro.blocked_q_safe_mismatches())"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_blocked_q_safe_of_a_float32_critic_equals_the_unblocked_formula_bit_for_bit():
    # the blocked rows are built in float32; the unblocked formula casts its float64 rows
    call = "test_sro.blocked_q_safe_mismatches(test_sro.np.float32)"
    assert run_with_one_blas_thread(call) == "[]"


def test_q_safe_peak_memory_does_not_scale_with_the_perturbed_rows():
    # One unblocked critic pass over 40,000 perturbed rows peaks near 90 MB.
    policy, q_c, X, A, v_c, cfg = q_safe_case(4000, 10)
    means = policy.mean_batch(X)
    tracemalloc.start()
    try:
        sro.q_safe_batch(X, A, means, policy, q_c, v_c, cfg, np.random.default_rng(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def epoch_case(episodes, horizon, seed=0, critic_dtype=np.float32):
    """Policy, critics and a random ``(episodes, horizon)`` block at the
    training shapes; float32 critics as training builds them, or their
    float64 draw."""
    rng = np.random.default_rng(seed)
    policy = sro.GaussianPolicy.create(16, 4, 2, (64, 64), rng)
    create = sro.CriticSet.create if critic_dtype == np.float32 else float64_critics
    critics = create(16, 4, 2, (64, 64), rng)
    buf = sro.RolloutBuffer(
        rng.standard_normal((episodes, horizon, 20)),
        0.3 * rng.standard_normal((episodes, horizon, 2)),
        rng.standard_normal((episodes, horizon)),
        rng.integers(0, 2, (episodes, horizon)).astype(np.float64),
        rng.standard_normal((episodes, 20)),
    )
    return policy, critics, buf


def blocked_pass_mismatches(critic_dtype=np.float64):
    """``(rows, output)`` wherever an output of ``finalize``, or the cost
    values ``policy_update`` scores with, differ from one pass over all rows."""
    found = []
    for episodes, horizon in ((27, 37), (10, 100), (7, 143), (1, 2003), (10, 401)):
        policy, critics, buf = epoch_case(episodes, horizon, horizon, critic_dtype)
        buf.finalize(policy, critics, 0.99, 0.95)
        n = len(buf)
        X_all = np.vstack([buf.X, buf.boot_inputs])
        means = policy.mean_batch(buf.X)
        v_r, v_c = critics.v_r_values(X_all), critics.v_c_values(X_all)
        adv_r, ret_r = sro.gae(buf.rewards, v_r[:n].reshape(episodes, horizon), 0.99, 0.95, v_r[n:])
        adv_c, ret_c = sro.gae(buf.costs, v_c[:n].reshape(episodes, horizon), 0.99, 0.95, v_c[n:])
        adv_r = adv_r.reshape(n)
        want = {
            "means": means,
            "log_probs": policy.log_prob_at(means, buf.A),
            "adv_r": adv_r, "ret_r": ret_r.reshape(n),
            "adv_c": adv_c.reshape(n), "ret_c": ret_c.reshape(n),
            "adv_r_norm": (adv_r - adv_r.mean()) / (float(adv_r.std()) + 1e-8),
        }
        found += [(n, name) for name, value in want.items()
                  if not np.array_equal(getattr(buf, name), value)]

        seen = []

        def scored(X, actions, means, policy, q_c_net, v_c_values, cfg, rng):
            seen.append(v_c_values)
            return np.zeros(len(X))

        real, sro.q_safe_batch = sro.q_safe_batch, scored
        try:
            cfg = sro.TrainConfig(policy_iters=1)
            sro.policy_update(buf, policy, critics, 0.0, cfg, np.random.default_rng(0),
                              sro.PolicyOptimizer.create(cfg.policy_lr))
        finally:
            sro.q_safe_batch = real
        if not np.array_equal(seen[0], critics.v_c_values(buf.X)):
            found.append((n, "policy_update v_c"))
    return found


def run_with_one_blas_thread(call: str) -> str:
    """``print(call)`` with ``test_sro`` imported, in a child process with one
    BLAS thread, as the benchmark runs.  With more, OpenBLAS splits a matrix
    product's rows between threads at a point set by the row count, so the
    one-pass formula itself can move a row by an ulp against any other
    split of the same rows."""
    here = Path(__file__).resolve().parent
    code = (
        f"import sys; sys.path[:0] = {[str(here.parent / 'src'), str(here)]!r}\n"
        f"import test_sro; print({call})"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_blocked_epoch_passes_equal_one_pass_bit_for_bit():
    # 999 to 4,010 rows: one block, exactly one, one plus a row, and several
    # blocks whose last one takes the remainder.
    assert run_with_one_blas_thread("test_sro.blocked_pass_mismatches()") == "[]"


def test_blocked_passes_of_float32_critics_equal_one_pass_bit_for_bit():
    # training's critics are float32: their sgemm passes must block the same way
    call = "test_sro.blocked_pass_mismatches(test_sro.np.float32)"
    assert run_with_one_blas_thread(call) == "[]"


def test_float32_critics_are_the_float64_draw_rounded():
    rng64, rng32 = np.random.default_rng(5), np.random.default_rng(5)
    critics64 = float64_critics(16, 4, 2, (64, 64), rng64)
    critics32 = sro.CriticSet.create(16, 4, 2, (64, 64), rng32)
    for name in ("v_r", "v_c", "q_c"):
        want, got = getattr(critics64, name).params, getattr(critics32, name).params
        assert want.dtype == np.float64 and got.dtype == np.float32
        assert np.array_equal(got, want.astype(np.float32))
    assert rng32.bit_generator.state == rng64.bit_generator.state


def test_q_safe_leaves_the_generator_where_one_draw_would():
    # Each block draws its own perturbations; together they are one draw.
    policy, q_c, X, A, v_c, cfg = q_safe_case(2003, 10)
    rng, one_draw = np.random.default_rng(4), np.random.default_rng(4)
    sro.q_safe_batch(X, A, policy.mean_batch(X), policy, q_c, v_c, cfg, rng)
    one_draw.standard_normal((2003, 10, 2))
    assert rng.bit_generator.state == one_draw.bit_generator.state


def peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_epoch_passes_peak_memory_stays_block_sized():
    # One-pass finalize and policy_update over a 4,000-step block peaked
    # near 8.6 and 7.9 MB; blocked, they peak near 1.8 and 1.5 MB.
    policy, critics, buf = epoch_case(10, 400)
    assert peak_traced_bytes(lambda: buf.finalize(policy, critics, 0.99, 0.95)) < 3 * 2**20
    cfg = sro.TrainConfig()
    opt = sro.PolicyOptimizer.create(cfg.policy_lr)
    peak = peak_traced_bytes(
        lambda: sro.policy_update(buf, policy, critics, 0.5, cfg, np.random.default_rng(1), opt)
    )
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "bad",
    [
        {"v_c": np.ones((6, 1))},  # used to broadcast to a (6, 6) score matrix
        {"v_c": np.ones(1)},  # used to broadcast one value over every row
        {"X": np.zeros((5, 20))},
        {"means": np.zeros((6, 3))},
    ],
)
def test_q_safe_rejects_inputs_without_one_row_per_action(bad):
    policy, q_c, X, A, v_c, cfg = q_safe_case(6, 4)
    args = {"X": X, "means": policy.mean_batch(X), "v_c": v_c, **bad}
    with pytest.raises(ValueError, match="rows"):
        sro.q_safe_batch(
            args["X"], A, args["means"], policy, q_c, args["v_c"], cfg, np.random.default_rng(9)
        )


def test_augmented_advantage_arithmetic():
    assert sro.augmented_advantage(0.5, -0.3, 10.0) == pytest.approx(-2.5)
    np.testing.assert_allclose(
        sro.augmented_advantage(np.array([1.0, -1.0]), np.array([0.0, -0.5]), 2.0),
        [1.0, -2.0],
    )
    with pytest.raises(ValueError):
        sro.augmented_advantage(0.0, 0.0, -1.0)


@settings(max_examples=100, deadline=None)
@given(
    a_r=st.floats(-10, 10),
    q=st.floats(-1, 0),
    alpha=st.floats(0, 5),
)
def test_augmented_advantage_is_a_bounded_shift(a_r, q, alpha):
    assert abs(sro.augmented_advantage(a_r, q, alpha)) <= abs(a_r) + alpha


# ---------------------------------------------------------------------------
# Lagrange multiplier
# ---------------------------------------------------------------------------


def test_lagrangian_ascends_on_cost():
    assert sro.lagrangian_update(0.1, 0.5, 0.0, 0.035) == pytest.approx(0.1175)
    assert sro.lagrangian_update(0.01, 0.0, 0.0, 0.035) == 0.01
    assert sro.lagrangian_update(0.0, -1.0, 0.0, 0.035) == 0.0  # projected
    assert sro.lagrangian_update(0.02, 0.1, 0.5, 0.035) == pytest.approx(
        max(0.0, 0.02 + 0.035 * (0.1 - 0.5))
    )
    with pytest.raises(ValueError):
        sro.lagrangian_update(-0.1, 0.0, 0.0, 0.035)


# ---------------------------------------------------------------------------
# Surrogate and updates
# ---------------------------------------------------------------------------


def test_surrogate_gradients_match_finite_differences():
    policy = small_policy(seed=19)
    rng = np.random.default_rng(20)
    X = rng.standard_normal((32, 5))
    A = rng.standard_normal((32, 2))
    logp_old = policy.log_prob_batch(X, A)  # ratio starts at 1: no kinks
    adv = rng.standard_normal(32)

    def loss_now():
        return sro.surrogate_loss_and_grads(policy, X, A, logp_old, adv, 0.2)[0]

    _, grads, grad_ls, kl, _ = sro.surrogate_loss_and_grads(policy, X, A, logp_old, adv, 0.2)
    assert kl == pytest.approx(0.0, abs=1e-12)
    h = 1e-6
    params = policy.mean_net.params  # every weight and bias, each checked
    assert grads.shape == params.shape
    for j in range(params.shape[0]):
        orig = params[j]
        params[j] = orig + h
        up = loss_now()
        params[j] = orig - h
        down = loss_now()
        params[j] = orig
        assert grads[j] == pytest.approx((up - down) / (2 * h), rel=1e-4, abs=1e-8)
    for j in range(2):
        orig = policy.log_std[j]
        policy.log_std[j] = orig + h
        up = loss_now()
        policy.log_std[j] = orig - h
        down = loss_now()
        policy.log_std[j] = orig
        assert grad_ls[j] == pytest.approx((up - down) / (2 * h), rel=1e-4, abs=1e-8)


def test_zero_advantage_gives_zero_gradients():
    policy = small_policy(seed=21)
    rng = np.random.default_rng(22)
    X, A = rng.standard_normal((16, 5)), rng.standard_normal((16, 2))
    logp_old = policy.log_prob_batch(X, A)
    loss, grads, grad_ls, _, _ = sro.surrogate_loss_and_grads(
        policy, X, A, logp_old, np.zeros(16), 0.2
    )
    assert loss == 0.0
    assert grads.shape == policy.mean_net.params.shape and np.all(grads == 0.0)
    np.testing.assert_array_equal(grad_ls, np.zeros(2))


def test_policy_update_weighted_safety_off_matches_plain_path_bitwise():
    # alpha=0 with the regularizer on must follow the identical code path
    # (and RNG stream) as alpha>0 with the regularizer disabled
    def run(alpha, sro_enabled):
        policy = small_policy(seed=23)
        critics = small_critics(seed=23)
        cfg = sro.TrainConfig(alpha=alpha, minibatch=16, policy_iters=2)
        opt = sro.PolicyOptimizer.create(cfg.policy_lr)
        buf = random_buffer(np.random.default_rng(24))
        diag = sro.policy_update(
            buf, policy, critics, 0.05, cfg, np.random.default_rng(25), opt,
            sro_enabled=sro_enabled,
        )
        return policy, diag

    p1, d1 = run(alpha=0.1, sro_enabled=False)
    p2, d2 = run(alpha=0.0, sro_enabled=True)
    for w1, w2 in zip(p1.mean_net.weights, p2.mean_net.weights):
        np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(p1.log_std, p2.log_std)
    assert d1 == d2
    assert d1["mean_q_safe"] == 0.0


def test_policy_update_early_stops_on_kl_drift():
    policy = small_policy(seed=26)
    critics = small_critics(seed=26)
    cfg = sro.TrainConfig(kl_max=1e-9, policy_lr=0.05, minibatch=8, policy_iters=4)
    opt = sro.PolicyOptimizer.create(cfg.policy_lr)
    buf = random_buffer(np.random.default_rng(27), policy=policy)
    diag = sro.policy_update(
        buf, policy, critics, 0.0, cfg, np.random.default_rng(28), opt
    )
    assert diag["early_stop"]
    assert diag["minibatches"] >= 1  # the drift came from actual steps
    assert diag["minibatches"] < 4 * math.ceil(len(buf) / 8)


def test_policy_update_aborts_and_restores_on_nonfinite_advantage():
    policy = small_policy(seed=29)
    before = copy.deepcopy(policy)
    critics = small_critics(seed=29)
    cfg = sro.TrainConfig(minibatch=16)
    opt = sro.PolicyOptimizer.create(cfg.policy_lr)
    buf = random_buffer(np.random.default_rng(30), policy=policy)
    buf.adv_r_norm = np.full(len(buf), np.inf)
    with np.errstate(invalid="ignore"):
        diag = sro.policy_update(
            buf, policy, critics, 0.0, cfg, np.random.default_rng(31), opt
        )
    assert diag["aborted"]
    for w1, w2 in zip(before.mean_net.weights, policy.mean_net.weights):
        np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(before.log_std, policy.log_std)


def test_policy_update_improves_the_surrogate():
    # One small full-batch step raises the clipped objective the update
    # ascends, for every buffer drawn: at lr 1e-5 Adam's first step follows
    # the gradient's sign, so first-order ascent holds whatever the draw.
    for seed in range(50):
        policy = small_policy(seed=32)
        critics = small_critics(seed=32)
        buf = random_buffer(np.random.default_rng(seed), n_episodes=4, ep_len=25)
        cfg = sro.TrainConfig(minibatch=len(buf), policy_iters=1, policy_lr=1e-5, kl_max=1e9)
        opt = sro.PolicyOptimizer.create(cfg.policy_lr)

        def objective():
            loss, *_ = sro.surrogate_loss_and_grads(
                policy, buf.X, buf.A, buf.log_probs, buf.adv_r_norm, cfg.clip_ratio
            )
            return -loss

        before = objective()
        sro.policy_update(buf, policy, critics, 0.0, cfg, np.random.default_rng(34), opt,
                          sro_enabled=False)
        assert objective() > before, f"buffer seed {seed}"


def test_critic_update_learns_a_constant_target():
    critics = small_critics(seed=35, hidden=(8,))
    cfg = sro.TrainConfig(minibatch=64, critic_lr=1e-2)
    opt = sro.CriticOptimizer.create(cfg.critic_lr)
    buf = random_buffer(np.random.default_rng(36), n_episodes=2, ep_len=32)
    buf.ret_r = np.full(len(buf), 3.0)
    rng = np.random.default_rng(37)
    for _ in range(150):
        losses = sro.critic_update(buf, critics, cfg, rng, opt)
    np.testing.assert_allclose(critics.v_r_values(buf.X), 3.0, atol=0.1)
    assert losses["v_r"] < 1e-2


def test_cost_q_target_does_not_backpropagate_into_the_value_net():
    critics = small_critics(seed=38)
    cfg = sro.TrainConfig(minibatch=32)
    opt = sro.CriticOptimizer.create(cfg.critic_lr)
    buf = random_buffer(np.random.default_rng(39), n_episodes=2, ep_len=16)
    # zero cost-value error and zero cost advantage: v_c must not move even
    # though q_c keeps training against v_c's (stop-gradient) predictions
    buf.ret_c = critics.v_c_values(buf.X).copy()
    buf.adv_c = np.zeros(len(buf))
    v_c_before = [w.copy() for w in critics.v_c.weights]
    q_c_before = [w.copy() for w in critics.q_c.weights]
    sro.critic_update(buf, critics, cfg, np.random.default_rng(40), opt)
    for w1, w2 in zip(v_c_before, critics.v_c.weights):
        np.testing.assert_array_equal(w1, w2)
    assert any(not np.array_equal(w1, w2) for w1, w2 in zip(q_c_before, critics.q_c.weights))


def test_train_config_validation():
    with pytest.raises(ValueError):
        sro.TrainConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        sro.TrainConfig(gamma=1.0)
    with pytest.raises(ValueError):
        sro.TrainConfig(gae_lambda=1.5)
    with pytest.raises(ValueError):
        sro.TrainConfig(minibatch=0)
    with pytest.raises(ValueError):
        sro.TrainConfig(n_qsafe=0)
