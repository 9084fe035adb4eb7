import numpy as np
import pytest

from mbrlab import envs
from mbrlab.envs import DT, evaluate_policy, make_env


def test_pointmass_reset_region():
    env = make_env("pointmass2d")
    for seed in range(20):
        s = env.reset(np.random.default_rng(seed))
        assert np.all(np.abs(s[:2]) <= 0.1)
        assert np.all(s[2:] == 0.0)


def test_pendulum_reset_region():
    env = make_env("pendulum")
    for seed in range(20):
        s = env.reset(np.random.default_rng(seed))
        theta = np.arctan2(s[1], s[0])
        assert -np.pi <= theta <= np.pi
        assert -1.0 <= s[2] <= 1.0
        assert abs(np.hypot(s[0], s[1]) - 1.0) < 1e-12


def test_reset_deterministic_under_seed():
    for name in ("pendulum", "pointmass2d", "cartpole"):
        env = make_env(name)
        assert np.array_equal(env.reset(np.random.default_rng(5)),
                              env.reset(np.random.default_rng(5)))


def test_pointmass_reward_at_goal_zero_action():
    env = make_env("pointmass2d")
    s = np.array([0.5, 0.5, 0.0, 0.0])
    assert env.reward(s, np.zeros(2)) == 0.0


def test_pendulum_upright_equilibrium():
    # upright, zero velocity, zero torque: theta stays at 0 under the
    # documented semi-implicit Euler step (sin 0 = 0 -> no acceleration)
    env = make_env("pendulum")
    s = np.array([1.0, 0.0, 0.0])
    _, _, s2, _ = env.step(s, np.zeros(1))
    theta_next = np.arctan2(s2[1], s2[0])
    assert abs(theta_next) < 1e-6
    # hand-integrated comparison for a non-equilibrium state
    theta, thdot, torque = 0.3, -0.2, 0.5
    s = np.array([np.cos(theta), np.sin(theta), thdot])
    _, _, s2, _ = env.step(s, np.array([torque]))
    thacc = 3 * 10.0 / 2 * np.sin(theta) + 3 * torque
    thdot2 = thdot + thacc * DT
    theta2 = theta + thdot2 * DT
    assert abs(np.arctan2(s2[1], s2[0]) - theta2) < 1e-12
    assert abs(s2[2] - thdot2) < 1e-12


def test_cartpole_termination_predicate():
    env = make_env("cartpole")
    s = np.array([2.5, 0.0, 1.0, 0.0, 0.0])
    assert env.terminal(s)
    inside = np.array([2.3, 0.0, 1.0, 0.0, 0.0])
    assert not env.terminal(inside)


def test_step_is_pure_function():
    for name in ("pendulum", "pointmass2d", "cartpole"):
        env = make_env(name)
        s = env.reset(np.random.default_rng(0))
        a = env.spec.action_high * 0.37
        a1, r1, s2_1, done1 = env.step(s, a)
        a2, r2, s2_2, done2 = env.step(s, a)
        assert np.array_equal(a1, a2) and r1 == r2
        assert np.array_equal(s2_1, s2_2) and done1 == done2


def test_step_clips_action_to_bounds():
    env = make_env("pointmass2d")
    s = env.reset(np.random.default_rng(0))
    a, _, _, _ = env.step(s, np.array([10.0, -10.0]))
    assert np.array_equal(a, [1.0, -1.0])


def test_step_aborts_on_non_finite_state():
    env = make_env("pendulum")
    with pytest.raises(envs.EnvDiverged):
        env.step(np.array([np.nan, 0.0, 0.0]), np.zeros(1))


def test_done_implies_termination_predicate():
    env = make_env("pointmass2d")
    rng = np.random.default_rng(3)
    s = env.reset(rng)
    for _ in range(500):
        _, _, s2, done = env.step(s, rng.uniform(-1, 1, size=2))
        if done:
            assert env.terminal(s2)
            s = env.reset(rng)
        else:
            s = s2


def test_reward_bound_fuzz():
    # |r| <= r_max over 1e6 uniformly sampled state/action pairs per env
    n = 1_000_000
    rng = np.random.default_rng(17)
    env = make_env("pendulum")
    s = np.stack([np.cos(th := rng.uniform(-np.pi, np.pi, n)), np.sin(th),
                  rng.uniform(-8, 8, n)], axis=1)
    a = rng.uniform(-2, 2, (n, 1))
    assert np.all(np.abs(env.reward(s, a)) <= env.spec.r_max)

    env = make_env("pointmass2d")
    s = np.concatenate([rng.uniform(-2, 2, (n, 2)), rng.uniform(-2, 2, (n, 2))], axis=1)
    a = rng.uniform(-1, 1, (n, 2))
    assert np.all(np.abs(env.reward(s, a)) <= env.spec.r_max)

    env = make_env("cartpole")
    th = rng.uniform(-np.pi, np.pi, n)
    s = np.stack([rng.uniform(-3, 3, n), rng.uniform(-10, 10, n),
                  np.cos(th), np.sin(th), rng.uniform(-10, 10, n)], axis=1)
    a = rng.uniform(-1, 1, (n, 1))
    assert np.all(np.abs(env.reward(s, a)) <= env.spec.r_max)


def test_episode_never_exceeds_horizon():
    env = make_env("pendulum")
    rng = np.random.default_rng(1)
    steps = 0
    s = env.reset(rng)
    for _ in range(env.spec.horizon):
        _, _, s, done = env.step(s, rng.uniform(-2, 2, size=1))
        steps += 1
        if done:
            break
    assert steps <= env.spec.horizon


class _ZeroRewardEnv(envs.Env):
    """Trivial env for the evaluate_policy zero-reward contract."""

    def __init__(self):
        base = make_env("pointmass2d")
        self.spec = base.spec
        self._base = base

    def reset(self, rng):
        return self._base.reset(rng)

    def dynamics(self, s, a):
        return self._base.dynamics(s, a)

    def reward(self, s, a):
        return np.zeros(np.atleast_2d(s).shape[0]) if np.asarray(s).ndim > 1 else 0.0

    def terminal(self, s):
        return self._base.terminal(s)


def test_evaluate_policy_zero_reward_env():
    env = _ZeroRewardEnv()
    policy = lambda s, rng: rng.uniform(-1, 1, size=2)
    assert evaluate_policy(env, policy, 3, np.random.default_rng(0)) == 0.0


def test_evaluate_policy_deterministic_env_and_policy():
    env = make_env("pointmass2d")

    class PinnedResetEnv(envs.Env):
        def __init__(self):
            self.spec = env.spec

        def reset(self, rng):
            return np.array([0.1, -0.1, 0.0, 0.0])

        dynamics = staticmethod(env.dynamics)
        reward = staticmethod(env.reward)
        terminal = staticmethod(env.terminal)

    pinned = PinnedResetEnv()
    policy = lambda s, rng: np.array([0.5, 0.5])
    r1 = evaluate_policy(pinned, policy, 1, np.random.default_rng(0))
    r10 = evaluate_policy(pinned, policy, 10, np.random.default_rng(0))
    assert r1 == r10


def test_random_policy_on_pointmass_is_negative():
    env = make_env("pointmass2d")
    policy = lambda s, rng: rng.uniform(-1, 1, size=2)
    ret = evaluate_policy(env, policy, 5, np.random.default_rng(2))
    assert ret < 0.0


def test_evaluate_policy_requires_episode():
    env = make_env("pendulum")
    with pytest.raises(ValueError):
        evaluate_policy(env, lambda s, r: np.zeros(1), 0, np.random.default_rng(0))
