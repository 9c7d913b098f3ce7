"""Environment tests: dynamics, margins, and layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shieldrl import env


def nav_config(**kw):
    return env.EnvConfig(task="navigation", **kw)


def circle_config(**kw):
    return env.EnvConfig(task="circle", **kw)


def unit_phi():
    return env.HiddenParams(1.0, 1.0, 1.0, 1.0)


def make_state(position, velocity=(0.0, 0.0), goal=(1.0, 1.0), obstacles=()):
    """Hand-built navigation state (obstacles given in world coordinates)."""
    p = np.asarray(position, dtype=np.float64)
    obs = np.asarray(obstacles, dtype=np.float64).reshape(-1, 2)
    rel = obs - p
    order = np.argsort(np.linalg.norm(rel, axis=1), kind="stable") if len(obs) else []
    sensor = rel[order].reshape(-1) if len(obs) else np.zeros(0)
    return np.concatenate([p, np.asarray(velocity, dtype=np.float64),
                           np.asarray(goal, dtype=np.float64) - p, sensor])


# ---------------------------------------------------------------------------
# Point-mass dynamics
# ---------------------------------------------------------------------------


def test_equilibrium_zero_action_zero_velocity_holds_position():
    cfg = nav_config()
    state = make_state((0.3, -0.4), obstacles=[(1.5, 1.5)])
    nxt, _, _ = env.step(state, np.zeros(2), unit_phi(), cfg)
    np.testing.assert_array_equal(nxt[env.POSITION], state[env.POSITION])
    np.testing.assert_array_equal(nxt[env.VELOCITY], np.zeros(2))
    # static world, same position => identical sensor reading
    np.testing.assert_array_equal(nxt[env.SENSOR], state[env.SENSOR])


def test_mass_scale_halves_initial_acceleration():
    # From rest the damping and friction terms vanish, so the velocity
    # after one step is exactly dt * a / (mass * mass_scale).
    cfg = nav_config()
    state = make_state((0.0, 0.0), obstacles=[(1.5, 1.5)])
    action = np.array([0.8, -0.6])
    light = env.step(state, action, env.HiddenParams(1.0, 1.0, 1.0, 1.0), cfg)[0]
    heavy = env.step(state, action, env.HiddenParams(1.0, 2.0, 1.0, 1.0), cfg)[0]
    np.testing.assert_allclose(
        light[env.VELOCITY], 2.0 * heavy[env.VELOCITY], rtol=1e-15
    )
    expected = cfg.dt * action / cfg.mass
    np.testing.assert_allclose(light[env.VELOCITY], expected, rtol=1e-15)


def test_position_step_never_exceeds_velocity_cap():
    # 1e5 chained transitions under random actions and hidden parameters.
    cfg = nav_config(horizon=400)
    rng = np.random.default_rng(7)
    bound = cfg.max_feature_step()
    worst = 0.0
    for _ in range(250):
        phi = env.sample_phi(rng, ((0.15, 0.3), (0.3, 1.7), (1.7, 2.5)))
        state = env.reset(cfg, phi, rng)
        for _ in range(cfg.horizon):
            action = rng.uniform(-3.0, 3.0, size=2)
            nxt, _, _ = env.step(state, action, phi, cfg)
            moved = float(np.linalg.norm(nxt[env.POSITION] - state[env.POSITION]))
            worst = max(worst, moved)
            state = nxt
    assert worst <= bound + 1e-9


def test_speed_stays_capped_under_saturated_thrust():
    cfg = nav_config()
    phi = env.HiddenParams(0.3, 0.3, 0.3, 0.3)  # light and slippery
    state = make_state((0.0, 0.0), obstacles=[(1.9, 1.9)])
    for _ in range(200):
        state = env.step(state, np.array([1.0, 1.0]), phi, cfg)[0]
        assert np.linalg.norm(state[env.VELOCITY]) <= cfg.v_max + 1e-12


def test_step_clips_the_command():
    cfg = nav_config()
    state = make_state((0.0, 0.0), obstacles=[(1.5, 0.0)])
    wild = env.step(state, np.array([5.0, -3.0]), unit_phi(), cfg)
    tame = env.step(state, np.array([1.0, -1.0]), unit_phi(), cfg)
    assert wild[0].tobytes() == tame[0].tobytes()
    assert wild[1:] == tame[1:]


def test_step_is_deterministic():
    cfg = nav_config()
    rng = np.random.default_rng(11)
    phi = env.sample_phi(rng, cfg.param_intervals)
    state = env.reset(cfg, phi, rng)
    action = np.array([0.4, 0.9])
    a = env.step(state, action, phi, cfg)
    b = env.step(state, action, phi, cfg)
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1:] == b[1:]


def test_step_rejects_bad_input():
    cfg = nav_config()
    state = make_state((0.0, 0.0))
    with pytest.raises(ValueError):
        env.step(state, np.zeros(3), unit_phi(), cfg)
    with pytest.raises(ValueError):
        env.step(state, np.array([np.nan, 0.0]), unit_phi(), cfg)


# ---------------------------------------------------------------------------
# Hidden-parameter sampling
# ---------------------------------------------------------------------------


def test_sample_phi_degenerate_interval_is_exact():
    phi = env.sample_phi(np.random.default_rng(0), ((1.0, 1.0),))
    assert phi.gravity_scale == 1.0
    assert phi.mass_scale == 1.0
    assert phi.damping_scale == 1.0
    assert phi.friction_scale == 1.0


def test_sample_phi_stays_inside_interval():
    rng = np.random.default_rng(1)
    for _ in range(100):
        phi = env.sample_phi(rng, ((0.3, 1.7),))
        assert np.all((phi.as_array() >= 0.3) & (phi.as_array() <= 1.7))


def test_sample_phi_two_intervals_are_equally_likely():
    rng = np.random.default_rng(2)
    intervals = ((0.15, 0.3), (1.7, 2.5))
    values = np.concatenate(
        [env.sample_phi(rng, intervals).as_array() for _ in range(10_000)]
    )
    fraction_low = float(np.mean(values < 1.0))
    assert abs(fraction_low - 0.5) < 0.02


def test_sample_phi_requires_intervals():
    with pytest.raises(ValueError):
        env.sample_phi(np.random.default_rng(0), ())


# ---------------------------------------------------------------------------
# Cost indicator and safety margin
# ---------------------------------------------------------------------------


def test_cost_frozen_examples():
    cfg = nav_config()  # safe_distance = 0.25
    assert env.cost_fn(make_state((0.0, 0.0), obstacles=[(1.0, 0.0)]), cfg) == 0
    assert env.cost_fn(make_state((0.0, 0.0), obstacles=[(0.2, 0.0)]), cfg) == 1
    assert env.cost_fn(make_state((0.0, 0.0), obstacles=[]), cfg) == 0


def margin_at(position, obstacles, cfg):
    """The safety margin of one position."""
    return float(env.nu_batch(np.asarray(position)[None], obstacles, cfg)[0])


def test_margin_frozen_examples():
    cfg = nav_config()
    wall = np.array([[1.0, 0.0]])
    assert margin_at(np.array([0.0, 0.0]), wall, cfg) == 0.75
    assert margin_at(np.array([1.0, 0.0]), wall, cfg) == -0.25
    ring = circle_config()  # region_radius 1.5, region_margin 0.05
    assert margin_at(np.array([0.0, 0.0]), np.zeros((0, 2)), ring) == pytest.approx(1.45)
    assert margin_at(np.array([1.6, 0.0]), np.zeros((0, 2)), ring) < 0.0


def test_margin_sign_matches_cost_indicator():
    rng = np.random.default_rng(3)
    nav = nav_config()
    ring = circle_config()
    for _ in range(10_000):
        p = rng.uniform(-2.0, 2.0, size=2)
        obstacles = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 5)), 2))
        state = make_state(p, obstacles=obstacles)
        assert (margin_at(p, obstacles, nav) <= 0.0) == bool(env.cost_fn(state, nav))
        ring_state = np.concatenate([p, np.zeros(4)])
        assert (margin_at(p, obstacles, ring) <= 0.0) == bool(env.cost_fn(ring_state, ring))


@settings(max_examples=200, deadline=None)
@given(
    px=st.floats(-2, 2), py=st.floats(-2, 2),
    dx=st.floats(-0.5, 0.5), dy=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2**32 - 1),
    task=st.sampled_from(["navigation", "circle"]),
)
def test_margin_is_lipschitz_in_position(px, py, dx, dy, seed, task):
    cfg = env.EnvConfig(task=task)
    obstacles = np.random.default_rng(seed).uniform(-2, 2, size=(3, 2))
    p = np.array([px, py])
    d = np.array([dx, dy])
    gap = abs(margin_at(p + d, obstacles, cfg) - margin_at(p, obstacles, cfg))
    assert gap <= np.linalg.norm(d) + 1e-9


def test_nu_batch_matches_scalar():
    cfg = nav_config()
    rng = np.random.default_rng(4)
    P = rng.uniform(-2, 2, size=(64, 2))
    obstacles = rng.uniform(-2, 2, size=(4, 2))
    batch = env.nu_batch(P, obstacles, cfg)
    for i in range(P.shape[0]):  # each row's margin, as if it were the only row
        assert batch[i] == env.nu_batch(P[i : i + 1], obstacles, cfg)[0]
    with pytest.raises(ValueError):
        env.nu_batch(P.reshape(-1), obstacles, cfg)


def test_nu_batch_no_obstacles_is_unbounded():
    cfg = nav_config()
    out = env.nu_batch(np.zeros((3, 2)), np.zeros((0, 2)), cfg)
    assert np.all(np.isinf(out))


# ---------------------------------------------------------------------------
# Reset / layout
# ---------------------------------------------------------------------------


def test_reset_layout_has_clearance():
    cfg = nav_config()
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = env.reset(cfg, env.sample_phi(rng, cfg.param_intervals), rng)
        np.testing.assert_array_equal(state[env.VELOCITY], np.zeros(2))
        position = state[env.POSITION]
        points = np.vstack(
            [position[None, :], (position + state[env.GOAL_REL])[None, :],
             env.world_obstacles(state)]
        )
        diffs = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        off_diag = diffs[~np.eye(len(points), dtype=bool)]
        assert off_diag.min() > 2.0 * cfg.safe_distance
        assert env.cost_fn(state, cfg) == 0
        dists = np.linalg.norm(state[env.SENSOR].reshape(-1, 2), axis=1)
        assert np.all(np.diff(dists) >= 0)  # sensor sorted nearest-first


def test_reset_zero_obstacles():
    cfg = nav_config(obstacle_count=0)
    state = env.reset(cfg, unit_phi(), np.random.default_rng(6))
    assert state.shape == (6,)
    assert env.cost_fn(state, cfg) == 0


def test_reset_is_reproducible():
    cfg = nav_config()
    a = env.reset(cfg, unit_phi(), np.random.default_rng(42))
    b = env.reset(cfg, unit_phi(), np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    c = env.reset(cfg, unit_phi(), np.random.default_rng(43))
    assert not np.array_equal(a, c)


def test_reset_raises_when_arena_is_too_crowded():
    cfg = nav_config(obstacle_count=500)
    with pytest.raises(env.PlacementError):
        env.reset(cfg, unit_phi(), np.random.default_rng(8))


def test_circle_reset_starts_safe():
    cfg = circle_config(obstacle_count=2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = env.reset(cfg, unit_phi(), rng)
        assert env.cost_fn(state, cfg) == 0
        assert np.linalg.norm(state[env.POSITION]) < cfg.region_radius - cfg.region_margin


def test_sensor_stays_sorted_along_trajectory():
    cfg = nav_config()
    rng = np.random.default_rng(10)
    phi = env.sample_phi(rng, cfg.param_intervals)
    state = env.reset(cfg, phi, rng)
    for _ in range(100):
        state = env.step(state, rng.uniform(-1, 1, size=2), phi, cfg)[0]
        dists = np.linalg.norm(state[env.SENSOR].reshape(-1, 2), axis=1)
        assert np.all(np.diff(dists) >= 0)


def test_world_obstacles_are_static_along_trajectory():
    cfg = nav_config()
    rng = np.random.default_rng(12)
    phi = env.sample_phi(rng, cfg.param_intervals)
    state = env.reset(cfg, phi, rng)
    initial = np.sort(env.world_obstacles(state), axis=0)
    for _ in range(50):
        state = env.step(state, rng.uniform(-1, 1, size=2), phi, cfg)[0]
        np.testing.assert_allclose(
            np.sort(env.world_obstacles(state), axis=0), initial, atol=1e-12
        )


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------


def test_navigation_goal_bonus():
    cfg = nav_config()
    near = make_state((0.0, 0.0), goal=(0.25, 0.0), obstacles=[(1.5, 1.5)])
    far = make_state((0.0, 0.0), goal=(1.0, 0.0), obstacles=[(1.5, 1.5)])
    # zero action from rest holds position: progress term is 0 either way,
    # and only the near state sits inside the goal radius
    assert env.step(near, np.zeros(2), unit_phi(), cfg)[1] == 1.0
    assert env.step(far, np.zeros(2), unit_phi(), cfg)[1] == 0.0


def test_navigation_reward_is_progress():
    cfg = nav_config()
    state = make_state((0.0, 0.0), velocity=(1.0, 0.0), goal=(2.0, 0.0), obstacles=[(0, 1.9)])
    nxt, reward, _ = env.step(state, np.zeros(2), unit_phi(), cfg)
    goal = state[env.POSITION] + state[env.GOAL_REL]
    dist_prev = np.linalg.norm(state[env.GOAL_REL])
    dist_next = np.linalg.norm(goal - nxt[env.POSITION])
    assert reward == pytest.approx(dist_prev - dist_next)
    assert reward > 0


def test_circle_reward_prefers_counterclockwise_motion():
    cfg = circle_config()
    fwd = np.array([1.0, 0.0, 0.0, 0.5, 0.0, 0.0])
    back = np.array([1.0, 0.0, 0.0, -0.5, 0.0, 0.0])
    r_fwd = env.step(fwd, np.zeros(2), unit_phi(), cfg)[1]
    r_back = env.step(back, np.zeros(2), unit_phi(), cfg)[1]
    assert r_fwd > r_back


# ---------------------------------------------------------------------------
# State vectors and replay
# ---------------------------------------------------------------------------


def test_step_rejects_a_malformed_state():
    cfg = nav_config(obstacle_count=0)
    for bad in (np.zeros(5), np.zeros(7), np.zeros((1, 6))):
        with pytest.raises(ValueError, match="6 \\+ 2M"):
            env.step(bad, np.zeros(2), unit_phi(), cfg)


def test_state_vector_is_stored_read_only():
    cfg = nav_config(obstacle_count=2)
    state = env.reset(cfg, unit_phi(), np.random.default_rng(14))
    nxt, _, _ = env.step(state, np.zeros(2), unit_phi(), cfg)
    for vec in (state, nxt):
        assert vec.shape == (cfg.state_dim,) and vec.dtype == np.float64
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0
    source = np.arange(10.0)
    nxt, _, _ = env.step(source, np.zeros(2), unit_phi(), cfg)
    np.testing.assert_array_equal(source, np.arange(10.0))  # the input is left alone
    assert not nxt.flags.writeable


def reference_step(state, action, phi, cfg):
    """The numpy formulation of one step, kept to pin ``env.step`` bit for bit.

    Returns ``(next state vector, reward, cost)``.
    """
    a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    p, v, goal_rel, sensor = state[0:2], state[2:4], state[4:6], state[6:]
    mass = cfg.mass * phi.mass_scale
    damping = cfg.damping * phi.damping_scale
    friction = cfg.friction * phi.friction_scale * cfg.gravity * phi.gravity_scale
    v_next = v + cfg.dt * (a / mass - damping * v - friction * np.tanh(v / cfg.v_eps))
    speed = np.linalg.norm(v_next)
    if speed > cfg.v_max:
        v_next = v_next * (cfg.v_max / speed)
    p_next = p + cfg.dt * v_next
    rel = (p + sensor.reshape(-1, 2)) - p_next
    dists = np.linalg.norm(rel, axis=1)
    sensor_next = rel[np.argsort(dists, kind="stable")].reshape(-1)
    if cfg.task == "navigation":
        cost = int(dists.size > 0 and dists.min() <= cfg.safe_distance)
        goal_next = (p + goal_rel) - p_next
        dist_next = np.linalg.norm(goal_next)
        reward = np.linalg.norm(goal_rel) - dist_next
        if dist_next < cfg.goal_radius:
            reward += 1.0
    else:
        goal_next = np.zeros(2)
        radius = np.linalg.norm(p_next)
        tangent = np.array([-p_next[1], p_next[0]]) / radius
        reward = float(v_next @ tangent) - abs(radius - cfg.circle_radius)
        cost = int(radius >= cfg.region_radius - cfg.region_margin)
    return np.concatenate([p_next, v_next, goal_next, sensor_next]), float(reward), cost


@pytest.mark.parametrize(
    "task, obstacles", [("navigation", 0), ("navigation", 4), ("navigation", 6), ("circle", 0),
                        ("circle", 3)]
)
def test_step_matches_the_numpy_formulation_bit_for_bit(task, obstacles):
    cfg = env.EnvConfig(task=task, obstacle_count=obstacles)
    rng = np.random.default_rng(17 + obstacles)
    clipped = 0
    for i in range(2000):
        phi = env.sample_phi(rng, ((0.15, 0.3), (0.3, 1.7), (1.7, 2.5)))
        # speeds from rest to past the cap, commands inside and outside the box
        state = np.concatenate([
            rng.uniform(-1.5, 1.5, 2),
            rng.uniform(-1.0, 1.0, 2) * rng.choice([0.01, 1.0, 2.5]),
            rng.uniform(-2.0, 2.0, 2) if task == "navigation" else np.zeros(2),
            rng.uniform(-2.0, 2.0, 2 * obstacles),
        ])
        action = rng.uniform(-2.0, 2.0, 2)
        # two chained steps: the second starts from a state ``step`` made,
        # whose goal distance ``step`` measures again
        for _ in range(2):
            nxt, reward, cost = env.step(state, action, phi, cfg)
            expected, expected_reward, expected_cost = reference_step(state, action, phi, cfg)
            np.testing.assert_array_equal(nxt, expected)
            assert reward == expected_reward and cost == expected_cost
            clipped += np.linalg.norm(nxt[env.VELOCITY]) == cfg.v_max
            state = nxt
    assert clipped > 100  # the speed cap was active in many cases


def test_step_orders_equidistant_obstacles_by_index():
    # Offsets in binary fractions keep every difference exact: three
    # obstacles at distance 0.5 from a point at rest, listed in each order.
    cfg = nav_config(obstacle_count=3)
    offsets = [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5)]
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        sensor = np.array([offsets[i] for i in order]).reshape(-1)
        state = np.concatenate([[0.25, 0.5], np.zeros(2), [1.0, 1.0], sensor])
        nxt, reward, cost = env.step(state, np.zeros(2), unit_phi(), cfg)
        np.testing.assert_array_equal(nxt[env.SENSOR], sensor)
        expected, expected_reward, expected_cost = reference_step(
            state, np.zeros(2), unit_phi(), cfg
        )
        np.testing.assert_array_equal(nxt, expected)
        assert reward == expected_reward and cost == expected_cost


def test_config_validation():
    with pytest.raises(ValueError):
        env.EnvConfig(task="maze")
    with pytest.raises(ValueError):
        env.EnvConfig(obstacle_count=-1)
    with pytest.raises(ValueError):
        env.EnvConfig(param_intervals=((0.0, 1.0),))
    with pytest.raises(ValueError):
        env.EnvConfig(param_intervals=((1.5, 0.5),))
    assert nav_config(obstacle_count=3).state_dim == 12
