"""Deterministic toy continuous-control environments.

Three small tasks with closed-form rewards and analytic termination
predicates: a pendulum swing-up (no termination), a 2-D point mass with a
goal region (success termination), and a continuous-action cart-pole with a
track-limit failure condition plus an alive bonus. Dynamics use semi-implicit
Euler with dt = 0.05 and are pure functions of (state, action).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DT = 0.05


class EnvDiverged(RuntimeError):
    """A non-finite state reached the stepper; the run must abort."""


@dataclass(frozen=True)
class EnvSpec:
    name: str
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    horizon: int
    gamma: float
    r_max: float
    # return range used for [0,1] feature normalization downstream
    return_lo: float
    return_hi: float


def _wrap_angle(theta):
    return (theta + np.pi) % (2.0 * np.pi) - np.pi


class Env:
    """Pure-function environment: all state is passed explicitly, as float64
    arrays of shape (..., d)."""

    spec: EnvSpec

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def dynamics(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reward(self, s: np.ndarray, a: np.ndarray):
        """Closed-form reward; vectorized over a leading batch axis."""
        raise NotImplementedError

    def terminal(self, s: np.ndarray):
        """Termination predicate on states (..., d): a bool array of shape (...)."""
        raise NotImplementedError

    def step(self, state: np.ndarray, action: np.ndarray) -> tuple:
        """One real step from `state`: (clipped action, reward, s', done)."""
        if not np.isfinite(state).all():
            raise EnvDiverged(f"{self.spec.name}: non-finite state {state}")
        a = np.clip(action, self.spec.action_low, self.spec.action_high)
        r = float(self.reward(state, a))
        s2 = self.dynamics(state, a)
        done = bool(self.terminal(s2))
        return a, r, s2, done


class Pendulum(Env):
    """Swing-up: s = (cos th, sin th, thdot), torque in [-2, 2], no termination."""

    G = 10.0
    M = 1.0
    L = 1.0
    MAX_SPEED = 8.0

    def __init__(self):
        self.spec = EnvSpec(
            name="pendulum", state_dim=3, action_dim=1,
            action_low=np.array([-2.0]), action_high=np.array([2.0]),
            horizon=200, gamma=0.99, r_max=17.0,
            return_lo=-1600.0, return_hi=0.0,
        )

    def reset(self, rng):
        theta = rng.uniform(-np.pi, np.pi)
        thdot = rng.uniform(-1.0, 1.0)
        return np.array([np.cos(theta), np.sin(theta), thdot])

    def dynamics(self, s, a):
        theta = np.arctan2(s[1], s[0])
        thdot = s[2]
        torque = a[0]
        thacc = 3.0 * self.G / (2.0 * self.L) * np.sin(theta) \
            + 3.0 / (self.M * self.L ** 2) * torque
        thdot = np.clip(thdot + thacc * DT, -self.MAX_SPEED, self.MAX_SPEED)
        theta = theta + thdot * DT
        return np.array([np.cos(theta), np.sin(theta), thdot])

    def reward(self, s, a):
        theta = _wrap_angle(np.arctan2(s[..., 1], s[..., 0]))
        thdot = s[..., 2]
        return -(theta ** 2 + 0.1 * thdot ** 2 + 0.001 * a[..., 0] ** 2)

    def terminal(self, s):
        return np.zeros(s.shape[:-1], dtype=bool)


class PointMass2D(Env):
    """Force-controlled point mass steering to a goal; terminates on arrival."""

    GOAL = np.array([0.5, 0.5])
    GOAL_RADIUS = 0.05
    POS_LIM = 2.0
    VEL_LIM = 2.0

    def __init__(self):
        self.spec = EnvSpec(
            name="pointmass2d", state_dim=4, action_dim=2,
            action_low=np.array([-1.0, -1.0]), action_high=np.array([1.0, 1.0]),
            horizon=200, gamma=0.99, r_max=3.7,
            return_lo=-400.0, return_hi=0.0,
        )

    def reset(self, rng):
        pos = rng.uniform(-0.1, 0.1, size=2)
        return np.array([pos[0], pos[1], 0.0, 0.0])

    def dynamics(self, s, a):
        vel = np.clip(s[2:4] + a * DT, -self.VEL_LIM, self.VEL_LIM)
        pos = np.clip(s[0:2] + vel * DT, -self.POS_LIM, self.POS_LIM)
        return np.concatenate([pos, vel])

    def reward(self, s, a):
        dist = np.linalg.norm(s[..., 0:2] - self.GOAL, axis=-1)
        return -dist - 0.001 * (a ** 2).sum(axis=-1)

    def terminal(self, s):
        dist = np.linalg.norm(s[..., 0:2] - self.GOAL, axis=-1)
        return dist < self.GOAL_RADIUS


class CartPoleSwingup(Env):
    """Continuous-force cart-pole: alive bonus + cart-velocity reward,
    fails when the cart leaves the track (|x| > 2.4)."""

    G = 9.8
    M_CART = 1.0
    M_POLE = 0.1
    L = 0.5  # half pole length
    FORCE = 10.0
    X_FAIL = 2.4
    X_LIM = 3.0
    V_LIM = 10.0

    def __init__(self):
        self.spec = EnvSpec(
            name="cartpole", state_dim=5, action_dim=1,
            action_low=np.array([-1.0]), action_high=np.array([1.0]),
            horizon=200, gamma=0.99, r_max=11.1,
            return_lo=0.0, return_hi=300.0,
        )

    def reset(self, rng):
        x = rng.uniform(-0.05, 0.05)
        theta = np.pi + rng.uniform(-0.1, 0.1)  # hanging down
        thdot = rng.uniform(-0.05, 0.05)
        return np.array([x, 0.0, np.cos(theta), np.sin(theta), thdot])

    def dynamics(self, s, a):
        x, xdot = s[0], s[1]
        theta = np.arctan2(s[3], s[2])
        thdot = s[4]
        force = self.FORCE * a[0]
        total_m = self.M_CART + self.M_POLE
        pm_l = self.M_POLE * self.L
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        temp = (force + pm_l * thdot ** 2 * sin_t) / total_m
        thacc = (self.G * sin_t - cos_t * temp) / (
            self.L * (4.0 / 3.0 - self.M_POLE * cos_t ** 2 / total_m))
        xacc = temp - pm_l * thacc * cos_t / total_m
        xdot = np.clip(xdot + xacc * DT, -self.V_LIM, self.V_LIM)
        x = np.clip(x + xdot * DT, -self.X_LIM, self.X_LIM)
        thdot = np.clip(thdot + thacc * DT, -self.V_LIM, self.V_LIM)
        theta = theta + thdot * DT
        return np.array([x, xdot, np.cos(theta), np.sin(theta), thdot])

    def reward(self, s, a):
        return s[..., 1] - 0.001 * a[..., 0] ** 2 + 1.0

    def terminal(self, s):
        return np.abs(s[..., 0]) > self.X_FAIL


_REGISTRY = {
    "pendulum": Pendulum,
    "pointmass2d": PointMass2D,
    "cartpole": CartPoleSwingup,
}


def make_env(name: str) -> Env:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; choose from {sorted(_REGISTRY)}")


def evaluate_policy(env: Env, policy, n_episodes: int, rng: np.random.Generator) -> float:
    """Average undiscounted return of policy(state, rng) -> action over
    n_episodes (>= 1) episodes, each capped at the spec horizon."""
    total = 0.0
    for _ in range(n_episodes):
        s = env.reset(rng)
        ep = 0.0
        for _ in range(env.spec.horizon):
            _, r, s, done = env.step(s, policy(s, rng))
            ep += r
            if done:
                break
        total += ep
    return total / n_episodes
