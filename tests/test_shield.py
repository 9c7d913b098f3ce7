"""Shield tests: pre-safety gate, scoring, selection, soundness."""

from dataclasses import replace

import numpy as np
import pytest

from shieldrl import env, shield
from shieldrl import function_encoder as fe
from shieldrl.numerics import Mlp


def nav_config(**kw):
    return env.EnvConfig(task="navigation", **kw)


def unit_phi():
    return env.HiddenParams(1.0, 1.0, 1.0, 1.0)


def make_state(position, velocity=(0.0, 0.0), goal=(1.8, 1.8), obstacles=()):
    p = np.asarray(position, dtype=np.float64)
    obs = np.asarray(obstacles, dtype=np.float64).reshape(-1, 2)
    rel = obs - p
    order = np.argsort(np.linalg.norm(rel, axis=1), kind="stable") if len(obs) else []
    sensor = rel[order].reshape(-1) if len(obs) else np.zeros(0)
    return np.concatenate([p, np.asarray(velocity, dtype=np.float64),
                           np.asarray(goal, dtype=np.float64) - p, sensor])


def margin_at(position, obstacles, cfg):
    """The safety margin of one position."""
    return float(env.nu_batch(np.asarray(position)[None], obstacles, cfg)[0])


def decide(sample, state, cfg, scfg=None, gamma=0.0, phi=None, rng=None):
    """A decision on the policy's ``(action, resample)`` with the exact model
    of ``phi`` (unit parameters by default)."""
    action, resample = sample
    return shield.select_action(
        action,
        resample,
        state,
        shield.GroundTruthPredictor(phi or unit_phi(), cfg),
        gamma,
        np.random.default_rng(0) if rng is None else rng,
        scfg or shield.ShieldConfig(),
        cfg,
    )


def fixed_sampler(candidates):
    """The first candidate as the policy's action, the rest as its resamples."""
    arr = np.asarray(candidates, dtype=np.float64)

    def resample(m):
        assert m == arr.shape[0] - 1
        return arr[1:]

    return arr[0], resample


def scored(action, state, cfg, scfg, gamma=0.0, phi=None):
    """Score of one candidate, from a decision forced past the pre-safety gate."""
    forced = replace(scfg, n_candidates=1, top_k=1, pre_safety_margin=np.inf)
    return decide(fixed_sampler([action]), state, cfg, forced, gamma, phi).scores[0]


# ---------------------------------------------------------------------------
# Pre-safety gate
# ---------------------------------------------------------------------------


def test_pre_safety_examples():
    cfg = nav_config()  # safe_distance 0.25
    scfg = shield.ShieldConfig()  # margin 0.275, l_nu 1.0
    roomy = make_state((0.0, 0.0), obstacles=[(0.75, 0.0)])  # margin 0.50
    tight = make_state((0.0, 0.0), obstacles=[(0.45, 0.0)])  # margin 0.20
    assert shield.pre_safety_check(roomy, scfg, cfg)
    assert not shield.pre_safety_check(tight, scfg, cfg)


def test_pre_safety_boundary_is_strict():
    cfg = nav_config()
    state = make_state((0.0, 0.0), obstacles=[(0.6, 0.0)])
    margin = margin_at(state[env.POSITION], env.world_obstacles(state), cfg)
    at = shield.ShieldConfig(pre_safety_margin=margin)
    below = shield.ShieldConfig(pre_safety_margin=np.nextafter(margin, 0.0))
    assert not shield.pre_safety_check(state, at, cfg)  # needs margin strictly above
    assert shield.pre_safety_check(state, below, cfg)


def circle_state(position, velocity=(0.0, 0.0), obstacles=()):
    """Hand-built circle-task state: zero goal offset, obstacles in world coordinates."""
    return make_state(position, velocity, goal=position, obstacles=obstacles)


def test_circle_pre_safety_examples():
    cfg = env.EnvConfig(task="circle")  # region_radius 1.5, region_margin 0.05
    scfg = shield.ShieldConfig()  # passes above a margin of 0.275
    # margin (1.5 - |p|) - 0.05: 0.45, 0.35, 0.25, 0.05, -0.05, -0.15
    passes = [shield.pre_safety_check(circle_state((x, 0.0)), scfg, cfg)
              for x in (1.0, 1.1, 1.2, 1.4, 1.5, 1.6)]
    assert passes == [True, True, False, False, False, False]
    # the circle margin ignores obstacles, however close
    assert shield.pre_safety_check(circle_state((0.0, 1.0), obstacles=[(0.0, 1.05)]), scfg, cfg)
    # strict at the boundary, as for navigation
    state = circle_state((0.0, -1.1))
    margin = margin_at(state[env.POSITION], env.world_obstacles(state), cfg)
    at = shield.ShieldConfig(pre_safety_margin=margin)
    below = shield.ShieldConfig(pre_safety_margin=np.nextafter(margin, 0.0))
    assert not shield.pre_safety_check(state, at, cfg)
    assert shield.pre_safety_check(state, below, cfg)


def test_pre_safety_margin_exceeds_one_step_reach():
    # the gate is only sound because nothing can move further than this in a step
    cfg = nav_config()
    scfg = shield.ShieldConfig()
    assert scfg.l_nu * scfg.pre_safety_margin > cfg.max_feature_step()


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def test_safety_score_frozen_example():
    # at rest with zero action the next position is unchanged:
    # score = (1.0 - 0.25) - 2 * 1.0 * 0.1 = 0.55
    cfg = nav_config()
    state = make_state((0.0, 0.0), obstacles=[(1.0, 0.0)])
    got = scored(np.zeros(2), state, cfg, shield.ShieldConfig(), gamma=0.1)
    assert got == pytest.approx(0.55, abs=1e-12)


def test_circle_safety_score_frozen_example():
    # from rest at (1, 0) the command (1, 0) gives v' = dt * a / m = 0.1 and
    # p' = (1.01, 0): margin (1.5 - 1.01) - 0.05 = 0.44, score 0.44 - 2 * 0.1
    cfg = env.EnvConfig(task="circle")
    state = circle_state((1.0, 0.0), obstacles=[(1.05, 0.0)])
    got = scored(np.array([1.0, 0.0]), state, cfg, shield.ShieldConfig(), gamma=0.1)
    assert got == pytest.approx(0.24, abs=1e-12)


def test_safety_score_decreases_linearly_with_radius():
    cfg = nav_config()
    state = make_state((0.0, 0.0), obstacles=[(1.0, 0.0)])
    scfg = shield.ShieldConfig(l_nu=1.5)
    a = scored(np.zeros(2), state, cfg, scfg, gamma=0.0)
    b = scored(np.zeros(2), state, cfg, scfg, gamma=0.3)
    assert a - b == pytest.approx(2.0 * 1.5 * 0.3, abs=1e-12)


def test_zero_radius_exact_model_scores_true_margin():
    cfg = nav_config()
    rng = np.random.default_rng(1)
    phi = env.sample_phi(rng, cfg.param_intervals)
    for _ in range(50):
        state = env.reset(cfg, phi, rng)
        action = rng.uniform(-1.0, 1.0, size=2)
        got = scored(action, state, cfg, shield.ShieldConfig(), phi=phi)
        nxt, _, _ = env.step(state, action, phi, cfg)
        true_margin = margin_at(nxt[env.POSITION], env.world_obstacles(state), cfg)
        assert got == true_margin


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def close_call_state():
    """Margin 0.15: inside the pre-safety band, so the shield must rank."""
    return make_state((0.0, 0.0), obstacles=[(0.4, 0.0)])


def test_pre_safety_pass_returns_the_policy_sample():
    cfg = nav_config()
    state = make_state((0.0, 0.0), obstacles=[(1.5, 0.0)])
    sample = np.array([[0.33, -0.66]])
    decision = decide(fixed_sampler(sample), state, cfg)
    assert not decision.intervened and not decision.safe_set_empty
    assert decision.scores is None and decision.chosen_index is None
    np.testing.assert_array_equal(decision.action, sample[0])


def test_single_positive_candidate_is_always_chosen():
    cfg = nav_config()
    state = close_call_state()
    # one candidate retreats (margin 0.16), the rest creep toward the
    # obstacle (margin 0.14); the radius puts the bar between the two
    candidates = np.array([[1.0, 0.0]] * 9 + [[-1.0, 0.0]])
    for seed in range(5):
        decision = decide(
            fixed_sampler(candidates), state, cfg, gamma=0.072, rng=np.random.default_rng(seed)
        )
        assert decision.intervened
        assert decision.chosen_index == 9
        np.testing.assert_array_equal(decision.action, candidates[9])
        assert decision.scores[9] > 0.0


def test_top_one_selection_is_argmax():
    cfg = nav_config()
    state = close_call_state()
    rng = np.random.default_rng(3)
    candidates = rng.uniform(-1, 1, size=(10, 2))
    scfg = shield.ShieldConfig(top_k=1)
    for seed in range(5):
        decision = decide(fixed_sampler(candidates), state, cfg, scfg,
                          rng=np.random.default_rng(seed))
        if decision.safe_set_empty:
            pytest.skip("layout produced no positive candidate")
        assert decision.chosen_index == int(np.argmax(decision.scores))


def test_intervention_picks_uniformly_among_the_best():
    cfg = nav_config()
    state = close_call_state()
    # all ten candidates are safe with distinct margins: the top five are
    # the strongest retreats, and each should be picked about equally often
    candidates = np.stack([np.linspace(-1.0, -0.1, 10), np.zeros(10)], axis=1)
    rng = np.random.default_rng(4)
    scores0 = decide(fixed_sampler(candidates), state, cfg).scores
    top5 = set(np.argsort(-scores0)[:5].tolist())

    counts = np.zeros(10)
    for _ in range(2000):
        d = decide(fixed_sampler(candidates), state, cfg, rng=rng)
        counts[d.chosen_index] += 1
    assert set(np.flatnonzero(counts).tolist()) == top5
    assert np.all((counts[list(top5)] / 2000 > 0.1) & (counts[list(top5)] / 2000 < 0.3))


def test_empty_safe_set_falls_back_to_least_unsafe():
    cfg = nav_config()
    state = close_call_state()
    rng = np.random.default_rng(5)
    candidates = rng.uniform(-1, 1, size=(10, 2))
    # an enormous radius disqualifies everything
    decision = decide(fixed_sampler(candidates), state, cfg, gamma=100.0)
    assert decision.intervened and decision.safe_set_empty
    assert np.all(decision.scores <= 0.0)
    margins = decision.scores + 2.0 * 100.0  # undo the radius discount
    assert decision.chosen_index == int(np.argmax(margins))
    np.testing.assert_array_equal(decision.action, candidates[decision.chosen_index])


def test_fallback_stays_well_defined_at_infinite_radius():
    cfg = nav_config()
    state = close_call_state()
    candidates = np.array([[1.0, 0.0]] * 9 + [[-1.0, 0.0]])
    decision = decide(fixed_sampler(candidates), state, cfg, gamma=np.inf)
    assert decision.safe_set_empty
    assert decision.chosen_index == 9  # still the least-unsafe candidate


def test_intervention_returns_a_sampled_candidate():
    cfg = nav_config()
    state = close_call_state()
    rng = np.random.default_rng(6)
    for seed in range(10):
        candidates = rng.uniform(-1, 1, size=(10, 2))
        decision = decide(fixed_sampler(candidates), state, cfg, rng=np.random.default_rng(seed))
        assert decision.intervened
        assert any(np.array_equal(decision.action, c) for c in candidates)
        assert decision.scores.shape == (10,)


def test_sampler_size_is_checked():
    cfg = nav_config()
    state = close_call_state()
    with pytest.raises(ValueError):
        decide((np.zeros(2), lambda m: np.zeros((3, 2))), state, cfg)


# ---------------------------------------------------------------------------
# Soundness (small-scale property; the acceptance suite scales this up)
# ---------------------------------------------------------------------------


def test_certified_decisions_never_step_into_cost():
    cfg = nav_config(horizon=50)
    rng = np.random.default_rng(7)
    scfg = shield.ShieldConfig()
    checked = 0
    for _ in range(80):
        phi = env.sample_phi(rng, ((0.15, 0.3), (0.3, 1.7), (1.7, 2.5)))
        state = env.reset(cfg, phi, rng)
        for _ in range(cfg.horizon):
            # the action is drawn first, then any resamples: the stream's order
            sample = (rng.uniform(-1.5, 1.5, size=2), lambda m: rng.uniform(-1.5, 1.5, size=(m, 2)))
            decision = decide(sample, state, cfg, scfg, phi=phi, rng=rng)
            state, _, cost = env.step(state, decision.action, phi, cfg)
            certified = not decision.intervened or not decision.safe_set_empty
            if certified:
                checked += 1
                assert cost == 0
    assert checked > 1000  # the property must actually have been exercised


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


def test_ground_truth_predictor_matches_the_environment():
    cfg = nav_config()
    rng = np.random.default_rng(8)
    phi = env.sample_phi(rng, cfg.param_intervals)
    state = env.reset(cfg, phi, rng)
    action = rng.uniform(-1, 1, size=2)
    pred = shield.GroundTruthPredictor(phi, cfg).predict_batch(state[None, :], action[None, :])
    np.testing.assert_array_equal(pred[0], env.step(state, action, phi, cfg)[0])


def test_fe_predictor_clips_commands_like_the_environment():
    # identity normalization, one linear basis over (state, action)
    net = Mlp([3, 1], [np.array([[0.0, 0.5, 0.5]])], [np.zeros(1)])
    basis = fe.BasisSet.from_nets([net], norm_mean=np.zeros(3), norm_std=np.ones(3))
    predictor = shield.FePredictor(basis, np.array([[1.0], [1.0]]))
    states = np.array([[0.0], [0.0]])
    predicted, rows = predictor.predict(states, np.array([[9.0, 9.0], [1.0, 1.0]]))
    np.testing.assert_array_equal(predicted[0], predicted[1])
    np.testing.assert_array_equal(rows[0], rows[1])
    scored = predictor.predict_batch(states, np.array([[9.0, 9.0], [1.0, 1.0]]))
    np.testing.assert_array_equal(scored, predicted)


def test_config_validation():
    with pytest.raises(ValueError):
        shield.ShieldConfig(n_candidates=0)
    with pytest.raises(ValueError):
        shield.ShieldConfig(top_k=11, n_candidates=10)
    with pytest.raises(ValueError):
        shield.ShieldConfig(pre_safety_margin=0.0)
