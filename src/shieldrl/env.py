"""Desk-scale 2D point-mass environments with hidden dynamics parameters.

A single rigid point is driven by a force action in ``[-1, 1]^2``.  Four
hidden multipliers (gravity, mass, damping, friction) rescale the base
dynamics per episode, so the transition function is only identified up to
the episode's parameter draw.  Integration is semi-implicit Euler:

    v' = v + dt * ( a / (m * mass_scale)
                    - c * damping_scale * v
                    - mu * friction_scale * g * gravity_scale * tanh(v / v_eps) )
    p' = p + dt * v'

with the speed ``|v'|`` capped at ``v_max`` before the position update, so a
single step can never move the point farther than ``dt * v_max``.

Two tasks share the dynamics:

  * ``navigation``: reach a goal while keeping clear of ``M`` static disc
    obstacles.  A step is unsafe (cost 1) when the point is within
    ``safe_distance`` of any obstacle center.
  * ``circle``: track a circular path at speed while staying inside a safe
    disc; a step is unsafe when the point leaves the disc shrunk by
    ``region_margin``.

The safety margin ``nu`` is a 1-Lipschitz function of the point's position
with ``nu > 0`` exactly when the state is cost-free, which is what the
runtime shield verifies against.

A state is one read-only float64 vector of ``6 + 2M`` entries, everything
the agent (and the shield) can see: the position, the velocity, the goal
offset ``goal - position`` (zero for the circle task), then the obstacle
offsets ``X_i - position`` sorted by ascending distance (``POSITION``,
``VELOCITY``, ``GOAL_REL``, ``SENSOR``).  World coordinates of obstacles
and goal are recoverable from the state, which keeps ``step`` a pure
function.  Because the sensor is sorted and last, the first ``6 + 2m``
entries are the state of the ``m`` nearest obstacles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class PlacementError(RuntimeError):
    """Rejection sampling could not place the layout with enough clearance."""


@dataclass(frozen=True)
class HiddenParams:
    """Per-episode multipliers applied to the base dynamics constants."""

    gravity_scale: float
    mass_scale: float
    damping_scale: float
    friction_scale: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.gravity_scale, self.mass_scale, self.damping_scale, self.friction_scale]
        )


# Number of hidden multipliers (a planar point mass has no rotational
# inertia, so no inertia multiplier is exposed).
PARAM_DIM = 4


@dataclass
class EnvConfig:
    task: str = "navigation"
    obstacle_count: int = 4
    safe_distance: float = 0.25
    dt: float = 0.1
    horizon: int = 400
    mass: float = 1.0
    damping: float = 1.0
    friction: float = 0.05
    gravity: float = 9.81
    v_max: float = 2.0
    v_eps: float = 0.05
    arena_half: float = 2.0
    goal_radius: float = 0.3
    region_radius: float = 1.5
    region_margin: float = 0.05
    circle_radius: float = 1.0
    param_intervals: tuple[tuple[float, float], ...] = ((0.3, 1.7),)

    def __post_init__(self) -> None:
        if self.task not in ("navigation", "circle"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.obstacle_count < 0:
            raise ValueError("obstacle_count must be >= 0")
        if min(self.dt, self.horizon, self.mass, self.v_max, self.v_eps) <= 0:
            raise ValueError("dt, horizon, mass, v_max and v_eps must be positive")
        if self.safe_distance <= 0 or self.arena_half <= 0:
            raise ValueError("safe_distance and arena_half must be positive")
        if min(self.damping, self.friction, self.gravity) < 0:  # drag would add energy
            raise ValueError("damping, friction and gravity must be >= 0")
        self.param_intervals = tuple(
            (float(lo), float(hi)) for lo, hi in self.param_intervals
        )
        for lo, hi in self.param_intervals:
            if not (0 < lo <= hi):
                raise ValueError(f"bad parameter interval [{lo}, {hi}]")

    @property
    def state_dim(self) -> int:
        return 6 + 2 * self.obstacle_count

    @property
    def action_dim(self) -> int:
        return 2

    def max_feature_step(self) -> float:
        """Largest possible per-step change of the point's position."""
        return self.dt * self.v_max


# The state layout: slices of the state vector.
POSITION = slice(0, 2)
VELOCITY = slice(2, 4)
GOAL_REL = slice(4, 6)
SENSOR = slice(6, None)
NEAREST_OBSTACLE = slice(6, 8)  # the sensor's first offset


def sample_phi(
    rng: np.random.Generator, intervals: tuple[tuple[float, float], ...]
) -> HiddenParams:
    """Draw one multiplier per dynamics constant.

    When several intervals are given, each draw first picks an interval
    uniformly at random and then samples uniformly inside it (degenerate
    intervals like ``[1, 1]`` yield the value exactly).
    """
    if not intervals:
        raise ValueError("at least one sampling interval is required")
    values = []
    for _ in range(PARAM_DIM):
        lo, hi = intervals[int(rng.integers(len(intervals)))]
        values.append(float(rng.uniform(lo, hi)))
    return HiddenParams(*values)


def reset(config: EnvConfig, phi: HiddenParams, rng: np.random.Generator) -> np.ndarray:
    """Place a fresh layout and return the initial state vector (zero velocity).

    Placements are rejection-sampled with pairwise clearance greater than
    ``2 * safe_distance`` so the start is always cost-free; more than 1000
    failed attempts raise ``PlacementError``.
    """
    del phi  # layout geometry does not depend on the dynamics draw
    pad = config.safe_distance
    lo, hi = -config.arena_half + pad, config.arena_half - pad
    clearance = 2.0 * config.safe_distance
    attempts = 0

    def place(existing: list[np.ndarray]) -> np.ndarray:
        nonlocal attempts
        while True:
            attempts += 1
            if attempts > 1000:
                raise PlacementError(
                    f"could not place layout after 1000 attempts (task={config.task})"
                )
            candidate = rng.uniform(lo, hi, size=2)
            if config.task == "circle":
                # keep the start strictly inside the shrunken safe disc
                if existing == [] and np.linalg.norm(candidate) > (
                    config.region_radius - config.region_margin - config.safe_distance
                ):
                    continue
            if all(np.linalg.norm(candidate - p) > clearance for p in existing):
                return candidate

    agent = place([])
    placed = [agent]
    if config.task == "navigation":
        goal = place(placed)
        placed.append(goal)
        goal_rel = goal - agent
    else:
        goal_rel = np.zeros(2)
    obstacles = []
    for _ in range(config.obstacle_count):
        obstacles.append(place(placed))
        placed.append(obstacles[-1])
    rel = np.array(obstacles).reshape(-1, 2) - agent
    sensor = rel[np.argsort(np.linalg.norm(rel, axis=1), kind="stable")].reshape(-1)
    state = np.concatenate([agent, np.zeros(2), goal_rel, sensor])
    state.setflags(write=False)
    return state


def world_obstacles(state: np.ndarray) -> np.ndarray:
    """Absolute obstacle positions ``(M, 2)`` recovered from the sensor."""
    return state[POSITION] + state[SENSOR].reshape(-1, 2)


def step(
    state: np.ndarray, action: np.ndarray, phi: HiddenParams, config: EnvConfig
) -> tuple[np.ndarray, float, int]:
    """Advance one control step; returns ``(next state, reward, cost)``.

    Deterministic given (state, action, phi); the next state is a new
    read-only vector.  Everything runs in Python float arithmetic, in the
    operation order of a numpy evaluation of the equations above, so the
    result matches that evaluation bit for bit.  ``np.tanh`` and
    ``ndarray.dot`` are kept where the float equivalents could round
    differently.  Obstacle distances are computed once: they order the
    sensor (ties by obstacle index, as a stable ``argsort`` would) and give
    the navigation cost.
    """
    vec = np.asarray(state, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] < 6 or vec.shape[0] % 2:
        raise ValueError(f"state must be a vector of length 6 + 2M, got shape {vec.shape}")
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (2,):
        raise ValueError(f"action must have shape (2,), got {a.shape}")
    ax, ay = a.tolist()
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise ValueError(f"action must be finite, got {a}")
    ax = -1.0 if ax < -1.0 else 1.0 if ax > 1.0 else ax
    ay = -1.0 if ay < -1.0 else 1.0 if ay > 1.0 else ay

    px, py, vx, vy, gx, gy, *sensor = vec.tolist()
    tx, ty = np.tanh([vx / config.v_eps, vy / config.v_eps]).tolist()
    mass = config.mass * phi.mass_scale
    damping = config.damping * phi.damping_scale
    friction = config.friction * phi.friction_scale * config.gravity * phi.gravity_scale
    dt = config.dt
    vnx = vx + dt * (ax / mass - damping * vx - friction * tx)
    vny = vy + dt * (ay / mass - damping * vy - friction * ty)
    # The cap compares the speed as numpy's norm computes it, through
    # ndarray.dot; x*x + y*y lies within a few ulps of that, so the exact
    # speed is needed only near the cap.
    if vnx * vnx + vny * vny > config.v_max * config.v_max * (1.0 - 1e-9):
        v_next = np.array([vnx, vny])
        speed = math.sqrt(v_next.dot(v_next))
        if speed > config.v_max:
            scale = config.v_max / speed
            vnx, vny = vnx * scale, vny * scale
    pnx, pny = px + dt * vnx, py + dt * vny

    # (distance, index, offset): sorting orders by distance, ties by index.
    seen = []
    offsets = iter(sensor)
    for i, (sx, sy) in enumerate(zip(offsets, offsets)):
        rx = (px + sx) - pnx
        ry = (py + sy) - pny
        seen.append((math.sqrt(rx * rx + ry * ry), i, rx, ry))
    seen.sort()

    navigation = config.task == "navigation"
    if navigation:
        values = [pnx, pny, vnx, vny, (px + gx) - pnx, (py + gy) - pny]
    else:
        values = [pnx, pny, vnx, vny, 0.0, 0.0]
    for _, _, rx, ry in seen:
        values += (rx, ry)
    vec_next = np.array(values)
    vec_next.setflags(write=False)

    if navigation:
        cost = int(seen[0][0] <= config.safe_distance) if seen else 0
        # |goal_rel| as numpy's norm computes it, through ndarray.dot.
        goal_rel, goal_rel_next = vec[GOAL_REL], vec_next[GOAL_REL]
        dist_next = math.sqrt(goal_rel_next.dot(goal_rel_next))
        reward = math.sqrt(goal_rel.dot(goal_rel)) - dist_next
        if dist_next < config.goal_radius:
            reward += 1.0
    else:
        radius = float(np.linalg.norm(vec_next[POSITION]))
        if radius > 0.0:
            tangent = np.array([-pny, pnx]) / radius
            tangential_speed = float(vec_next[VELOCITY] @ tangent)
        else:
            tangential_speed = 0.0
        reward = tangential_speed - abs(radius - config.circle_radius)
        cost = cost_fn(vec_next, config)
    return vec_next, float(reward), cost


def cost_fn(state: np.ndarray, config: EnvConfig) -> int:
    """Unsafe-step indicator, computable from the observable state alone."""
    if config.task == "navigation":
        sensor = state[SENSOR]
        if sensor.size == 0:
            return 0
        dists = np.linalg.norm(sensor.reshape(-1, 2), axis=1)
        return int(dists.min() <= config.safe_distance)
    return int(
        np.linalg.norm(state[POSITION]) >= config.region_radius - config.region_margin
    )


def nu_batch(positions: np.ndarray, env_features: np.ndarray, config: EnvConfig) -> np.ndarray:
    """Signed safety margins ``nu`` of ``(B, 2)`` positions; positive exactly when cost-free.

    ``env_features`` holds the absolute obstacle positions ``(M, 2)``
    (ignored by the circle task).  Each margin is 1-Lipschitz in its
    position, which bounds how much a position error of size ``r`` can
    change it.
    """
    P = np.asarray(positions, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != 2:
        raise ValueError(f"positions must have shape (B, 2), got {P.shape}")
    if config.task == "navigation":
        obstacles = np.asarray(env_features, dtype=np.float64).reshape(-1, 2)
        if obstacles.shape[0] == 0:
            return np.full(P.shape[0], np.inf)
        dists = np.linalg.norm(P[:, None, :] - obstacles[None, :, :], axis=2)
        return dists.min(axis=1) - config.safe_distance
    return (config.region_radius - np.linalg.norm(P, axis=1)) - config.region_margin

