import hashlib

import numpy as np
import pytest

from mbrlab import nets, sac
from mbrlab.buffers import TransitionBuffer
from mbrlab.envs import make_env

from util import (AGENT_SETTINGS, actor_loss, assert_grads_close, critic_loss,
                  critic_targets, finite_difference, random_policy_columns)


def _agent(seed=0, state_dim=3, action_dim=1, hidden=(8,)):
    return sac.init_agent(np.random.default_rng(seed), state_dim, action_dim,
                          -np.ones(action_dim), np.ones(action_dim),
                          hidden=hidden, **AGENT_SETTINGS)


def _batch(seed, n, state_dim=3, action_dim=1, done=False):
    rng = np.random.default_rng(seed)
    return {
        "s": rng.normal(size=(n, state_dim)),
        "a": rng.uniform(-1, 1, size=(n, action_dim)),
        "r": rng.normal(size=n),
        "s2": rng.normal(size=(n, state_dim)),
        "done": np.full(n, done),
    }


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def _fill(buf, n, seed):
    rng = np.random.default_rng(seed)
    sd, ad = buf.s.shape[1], buf.a.shape[1]
    rows = [(rng.normal(size=sd), rng.uniform(-1, 1, size=ad), rng.normal(),
             rng.normal(size=sd)) for _ in range(n)]
    s, a, r, s2 = (np.array(column) for column in zip(*rows))
    buf.push_batch(s, a, r, s2, np.zeros(n, dtype=bool))


# ------------------------------------------------------ squashed Gaussian policy

def _constant_policy(mean, log_std, low=-1.0, high=1.0):
    """Zero weights, so every state maps to the last bias [mean, log_std]."""
    mean, log_std = np.atleast_1d(mean), np.atleast_1d(log_std)
    d = len(mean)
    net = nets.DenseNet([1, 2 * d], ["identity"])
    net.biases[0][:] = np.concatenate([mean, log_std])
    return sac.GaussianPolicy(net, np.full(d, float(low)), np.full(d, float(high)))


def test_gaussian_policy_degenerate_variance():
    policy = _constant_policy(0.7, nets.LOG_STD_MIN, low=-2.0, high=3.0)
    s = np.zeros((1, 1))
    a, _, _ = policy.sample(s, np.random.default_rng(0))
    a_det = policy.action(s, np.random.default_rng(0), deterministic=True)
    assert np.allclose(a, a_det, atol=1e-6)


def test_gaussian_policy_deterministic_mode():
    policy = _constant_policy([0.3, -1.0], [0.0, 0.0], low=-2.0, high=3.0)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    a = policy.action(np.zeros((1, 1)), rng, deterministic=True)
    assert rng.bit_generator.state == before  # no noise drawn
    assert np.allclose(a, policy.center + policy.scale * np.tanh([[0.3, -1.0]]))


def test_gaussian_policy_density_integrates_to_one():
    # quadrature over the action support (low, high) on a 1e5-point grid
    low, high = -2.0, 3.0
    policy = _constant_policy(0.4, -0.3, low=low, high=high)
    a = np.linspace(low + 1e-8, high - 1e-8, 100_000)[:, None]
    logp = policy.log_density(np.zeros((len(a), 1)), a)
    # numpy >= 2.0 has trapezoid and 2.4 dropped trapz; < 2.0 has only trapz
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    total = trapezoid(np.exp(logp), a[:, 0])
    assert abs(total - 1.0) < 1e-3


def test_gaussian_policy_samples_strictly_inside_bounds():
    low, high = -2.0, 3.0
    policy = _constant_policy(0.0, 0.0, low=low, high=high)
    a, _, _ = policy.sample(np.zeros((1000, 1)), np.random.default_rng(3))
    assert np.all(a > low) and np.all(a < high)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("deterministic", [False, True])
def test_action_is_samples_action_from_the_same_draw(rows, deterministic):
    agent = _agent(seed=5, state_dim=3, action_dim=2, hidden=(16, 16))
    policy = agent.actor
    # clamped log-stds at both ends, so the clip is inside the compared path
    policy.net.biases[-1][2:] = [nets.LOG_STD_MIN - 5.0, nets.LOG_STD_MAX + 5.0]
    s = np.random.default_rng(6).normal(size=(rows, 3))
    rng_a, rng_s = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):  # consecutive draws stay in step
        a = policy.action(s, rng_a, deterministic)
        if deterministic:  # the squashed mean, and no draw taken
            want = policy.center + policy.scale * np.tanh(nets.forward(policy.net, s)[:, :2])
        else:
            want, _, _ = policy.sample(s, rng_s)
        assert a.tobytes() == want.tobytes() and a.shape == (rows, 2)
        assert rng_a.bit_generator.state == rng_s.bit_generator.state
    # a single state is a batch of one row
    assert sac.act(agent, s[0], deterministic, rng_a).tobytes() == \
        policy.action(s[:1], rng_s, deterministic)[0].tobytes()
    assert rng_a.bit_generator.state == rng_s.bit_generator.state


def test_gaussian_policy_seed_reproducibility():
    policy = _constant_policy(np.zeros(4), np.zeros(4))
    s = np.zeros((1, 1))
    a1, logp1, c1 = policy.sample(s, np.random.default_rng(9))
    a2, logp2, c2 = policy.sample(s, np.random.default_rng(9))
    assert np.array_equal(a1, a2)
    assert np.array_equal(logp1, logp2)
    assert np.array_equal(c1["eps"], c2["eps"])


# ---------------------------------------------------------------- mixed batch

def test_mixed_batch_all_real_at_beta_one():
    d_env = TransitionBuffer(100, 3, 1)
    _fill(d_env, 50, 0)
    d_model = TransitionBuffer(100, 3, 1)  # empty, and never drawn from at beta 1
    batch = sac.sample_mixed_batch(d_env, d_model, 32, 1.0, np.random.default_rng(1))
    assert batch["n_real"] == 32 and len(batch["r"]) == 32


def test_mixed_batch_five_percent_split():
    # MBPO's default: 5% real of a 100-sample batch -> 5 real + 95 imaginary
    d_env = TransitionBuffer(100, 3, 1)
    d_model = TransitionBuffer(100, 3, 1)
    _fill(d_env, 50, 0)
    _fill(d_model, 50, 1)
    batch = sac.sample_mixed_batch(d_env, d_model, 100, 0.05, np.random.default_rng(2))
    assert batch["n_real"] == 5


def test_mixed_batch_split_is_exact_over_many_draws():
    d_env = TransitionBuffer(100, 3, 1)
    d_model = TransitionBuffer(100, 3, 1)
    _fill(d_env, 30, 0)
    _fill(d_model, 30, 1)
    rng = np.random.default_rng(3)
    fracs = {sac.sample_mixed_batch(d_env, d_model, 20, 0.3, rng)["n_real"]
             for _ in range(10_000)}
    assert fracs == {6}  # round(0.3*20) every single time


def test_mixed_batch_errors_when_the_model_part_is_empty():
    # beta < 1 draws imaginary rows; there is no silent all-real fallback
    d_env = TransitionBuffer(100, 3, 1)
    _fill(d_env, 30, 0)
    d_model = TransitionBuffer(100, 3, 1)
    with pytest.raises(ValueError, match="empty"):
        sac.sample_mixed_batch(d_env, d_model, 16, 0.25, np.random.default_rng(4))


@pytest.mark.parametrize("batch_size", [64, 128])
def test_n_real_equals_the_clipped_round(batch_size):
    # beta lies in [0, 1], where round(beta*B) needs no clip to lie in [0, B]
    d_env = TransitionBuffer(100, 3, 1)
    d_model = TransitionBuffer(100, 3, 1)
    _fill(d_env, 30, 0)
    _fill(d_model, 30, 1)
    halves = [(2 * k + 1) / (2 * batch_size) for k in range(batch_size)]  # beta*B = k + 0.5
    grid = list(np.linspace(0.0, 1.0, 201)) + halves + [0.0, 1.0]
    assert any(round(h * batch_size) % 2 == 0 for h in halves)  # ties round to even
    rng = np.random.default_rng(5)
    for beta in grid:
        batch = sac.sample_mixed_batch(d_env, d_model, batch_size, float(beta), rng)
        n_real = batch["n_real"]
        assert type(n_real) is int and len(batch["r"]) == batch_size
        assert n_real == int(np.clip(round(float(beta) * batch_size), 0, batch_size))
        # the first n_real rows are D_env's
        assert np.isin(batch["r"][:n_real], d_env.r[:30]).all()
        assert not np.isin(batch["r"][n_real:], d_env.r[:30]).any()


def test_mixed_batch_errors_when_both_empty():
    d_env = TransitionBuffer(10, 3, 1)
    d_model = TransitionBuffer(10, 3, 1)
    with pytest.raises(ValueError):
        sac.sample_mixed_batch(d_env, d_model, 256, 0.05, np.random.default_rng(0))


# ---------------------------------------------------------------- critic loss

def _zero_net(net):
    for i in range(net.n_layers):
        net.weights[i][:] = 0.0
        net.biases[i][:] = 0.0


def test_critic_loss_zero_case():
    agent = _agent()
    for net in (agent.critic1, agent.critic2, agent.target1, agent.target2):
        _zero_net(net)
    agent.alpha = 0.0
    batch = _batch(1, 8, done=True)
    batch["r"] = np.zeros(8)
    assert critic_loss(agent, batch, 0.99, np.random.default_rng(0)) == 0.0


def test_critic_target_no_bootstrap_on_done():
    agent = _agent(seed=2)
    batch = _batch(3, 6, done=True)
    y = critic_targets(agent, batch, 0.99, np.random.default_rng(1))
    assert np.array_equal(y, batch["r"])


def test_critic_loss_matches_hand_computation():
    # 1-D state/action, hand-set nets, deterministic actor at the clamp floor
    agent = _agent(seed=0, state_dim=1, action_dim=1, hidden=(1,))
    # actor: mean head = 0.5 (so a' = tanh(0.5)), log_std pinned at the floor
    _zero_net(agent.actor.net)
    agent.actor.net.biases[-1][:] = np.array([0.5, nets.LOG_STD_MIN - 1.0])
    # critics: Q(s, a) = s + 2a via identity-ish single relu layer? use linear:
    for net, w in ((agent.critic1, 1.0), (agent.critic2, 2.0)):
        net.weights[0][:] = w
        net.biases[0][:] = 0.0
        net.weights[1][:] = 1.0
        net.biases[1][:] = 0.0
    for tgt, src in ((agent.target1, agent.critic1), (agent.target2, agent.critic2)):
        tgt.theta[:] = src.theta
    agent.alpha = 0.0
    batch = {"s": np.array([[0.2]]), "a": np.array([[0.4]]), "r": np.array([1.0]),
             "s2": np.array([[0.3]]), "done": np.array([False])}
    gamma = 0.9
    # freeze the sampled a': same noise draw the loss consumes from seed 0
    eps = np.random.default_rng(0).normal(size=(1, 1))[0, 0]
    a2 = np.tanh(0.5 + np.exp(nets.LOG_STD_MIN) * eps)
    # relu trunk: h = relu(w*(s+a)); критик out = h
    q1t = max(1.0 * (0.3 + a2), 0.0)
    q2t = max(2.0 * (0.3 + a2), 0.0)
    y = 1.0 + gamma * min(q1t, q2t)
    q1 = max(1.0 * (0.2 + 0.4), 0.0)
    q2 = max(2.0 * (0.2 + 0.4), 0.0)
    expect = 0.5 * (q1 - y) ** 2 + 0.5 * (q2 - y) ** 2
    loss = critic_loss(agent, batch, gamma, np.random.default_rng(0))
    assert loss == pytest.approx(expect, rel=1e-12)


def test_critic_gradients_match_finite_differences():
    agent = _agent(seed=5, state_dim=2, action_dim=1, hidden=(8,))
    batch = _batch(6, 5, state_dim=2)

    def loss_fn(_):  # finite_difference perturbs both critic thetas in place
        return critic_loss(agent, batch, 0.99, np.random.default_rng(42))

    _, (g1, g2) = sac.critic_loss_and_grads(agent, batch, 0.99, np.random.default_rng(42))
    numeric = finite_difference(loss_fn, [agent.critic1.theta, agent.critic2.theta])
    assert_grads_close([g1, g2], numeric, rtol=1e-4)


# ----------------------------------------------------------------- actor loss

def test_actor_loss_zero_alpha_zero_critics():
    agent = _agent(seed=1)
    _zero_net(agent.critic1)
    _zero_net(agent.critic2)
    agent.alpha = 0.0
    batch = _batch(2, 8)
    loss, grads, _ = sac.actor_loss_and_grads(agent, batch, np.random.default_rng(0))
    assert loss == 0.0
    assert np.all(grads == 0)


def test_actor_loss_pure_entropy_pressure():
    agent = _agent(seed=1)
    _zero_net(agent.critic1)
    _zero_net(agent.critic2)
    agent.alpha = 0.7
    batch = _batch(2, 64)
    rng = np.random.default_rng(3)
    _, logp, _ = agent.actor.sample(batch["s"], np.random.default_rng(3))
    loss = actor_loss(agent, batch, np.random.default_rng(3))
    assert loss == pytest.approx(0.7 * float(logp.mean()), rel=1e-12)


def test_actor_gradients_match_finite_differences():
    agent = _agent(seed=7, state_dim=2, action_dim=2, hidden=(8,))
    batch = _batch(8, 4, state_dim=2, action_dim=2)

    def loss_fn(_):  # finite_difference perturbs the actor's theta in place
        return actor_loss(agent, batch, np.random.default_rng(11))

    _, grad, _ = sac.actor_loss_and_grads(agent, batch, np.random.default_rng(11))
    numeric = finite_difference(loss_fn, [agent.actor.net.theta])
    assert_grads_close([grad], numeric, rtol=1e-4)


# ------------------------------------------------------------------ sac_update

def test_polyak_one_keeps_targets():
    agent = _agent(seed=3)
    agent.polyak = 1.0
    before = agent.target1.theta.copy()
    batch = _batch(4, 16)
    sac.sac_update(agent, batch, 0.99, np.random.default_rng(1))
    assert np.array_equal(before, agent.target1.theta)


def test_polyak_zero_copies_critics():
    agent = _agent(seed=3)
    agent.polyak = 0.0
    batch = _batch(4, 16)
    sac.sac_update(agent, batch, 0.99, np.random.default_rng(1))
    assert np.array_equal(agent.target1.theta, agent.critic1.theta)


def _optimizer_state(agent):
    containers = (agent.actor.net, agent.critic1, agent.critic2, agent.target1, agent.target2)
    adams = (agent.actor_adam, agent.critic_adam)
    return ([net.theta.copy() for net in containers]
            + [a.m.copy() for a in adams] + [a.v.copy() for a in adams]
            + [a.t for a in adams])


@pytest.mark.parametrize("error", [FloatingPointError, nets.NonFiniteGradient, RuntimeError])
def test_sac_update_is_all_or_nothing(monkeypatch, error):
    agent = _agent(seed=4, hidden=(8, 8))
    batch = _batch(5, 16)
    rng = np.random.default_rng(6)
    for _ in range(3):  # non-trivial moments and counters
        sac.sac_update(agent, batch, 0.99, rng)
    before = _optimizer_state(agent)

    def failing_actor(*args, **kwargs):
        raise error("injected actor-side failure")

    monkeypatch.setattr(sac, "actor_loss_and_grads", failing_actor)
    with pytest.raises(error, match="injected"):
        sac.sac_update(agent, batch, 0.99, rng)
    after = _optimizer_state(agent)
    if error is RuntimeError:
        # only numeric failures are rolled back; other errors propagate as they are
        assert after[-2] == before[-2] and after[-1] == before[-1] + 1
        return
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_sac_update_pinned_bits():
    """20 updates on a fixed batch; values recorded before the parameters
    became one flat vector per net, so the refactor moved no bit."""
    agent = sac.init_agent(np.random.default_rng(21), 4, 2, -np.ones(2), np.ones(2),
                           hidden=(32, 32), **AGENT_SETTINGS)
    g = np.random.default_rng(22)
    batch = {"s": g.normal(size=(64, 4)), "a": g.uniform(-1, 1, (64, 2)),
             "r": g.normal(size=64), "s2": g.normal(size=(64, 4)),
             "done": g.uniform(size=64) < 0.1}
    rng = np.random.default_rng(23)
    for _ in range(20):
        c_loss, a_loss = sac.sac_update(agent, batch, 0.99, rng)
    assert (c_loss.hex(), a_loss.hex()) == ("0x1.f9c3256a23286p-1", "-0x1.1e22e0074e442p-3")
    assert {name: _sha(getattr(agent, name).theta)
            for name in ("critic1", "critic2", "target1", "target2")} == {
        "critic1": "d23ec0365cb88ae8106728262fdeedb7cd2843979099fde43df6263a71d0e650",
        "critic2": "ddae2097dc436dbaae3e6ab0f8b2c321d7cfdfe9a70ddf82ad2274cf781de8c9",
        "target1": "806e6a13a9e3068929960c1071f701386c2c5e539f80e35452d9aad6f162c1c0",
        "target2": "0d81a80eba23e9879e560cf2bb5e48f6858476834a02bdbdc4cc0d232f3cb99f"}
    assert _sha(agent.actor.net.theta) == \
        "0773213fcb07b82c0895b559312a7a0ebf58d987e3e1a61d2a20bf2b93ef9a76"
    assert agent.actor_adam.t == agent.critic_adam.t == 20


def test_act_respects_bounds_and_seed():
    env = make_env("pendulum")
    agent = sac.init_agent(np.random.default_rng(0), 3, 1,
                           env.spec.action_low, env.spec.action_high, hidden=(64, 64),
                           **AGENT_SETTINGS)
    s = env.reset(np.random.default_rng(1))
    a1 = sac.act(agent, s, False, np.random.default_rng(2))
    a2 = sac.act(agent, s, False, np.random.default_rng(2))
    assert np.array_equal(a1, a2)
    assert np.all(a1 >= env.spec.action_low) and np.all(a1 <= env.spec.action_high)
    d1 = sac.act(agent, s, True, np.random.default_rng(3))
    d2 = sac.act(agent, s, True, np.random.default_rng(4))
    assert np.array_equal(d1, d2)


def test_critic_loss_decreases_on_pointmass_real_data():
    # run-and-record threshold: 5k updates on beta=1 random-policy data
    env = make_env("pointmass2d")
    rng = np.random.default_rng(0)
    env_rng, agent_rng, upd_rng = rng.spawn(3)
    d_env = TransitionBuffer(20_000, 4, 2)
    d_env.push_batch(*random_policy_columns(env, env_rng, 5_000))
    agent = sac.init_agent(agent_rng, 4, 2, env.spec.action_low,
                           env.spec.action_high, hidden=(64, 64), **AGENT_SETTINGS)
    d_model = TransitionBuffer(1, 4, 2)  # empty, and never drawn from at beta 1
    losses = []
    for _ in range(5_000):
        batch = sac.sample_mixed_batch(d_env, d_model, 256, 1.0, upd_rng)
        c_loss, _ = sac.sac_update(agent, batch, env.spec.gamma, upd_rng)
        losses.append(c_loss)
    avg = np.convolve(losses, np.ones(100) / 100, mode="valid")
    assert avg[-1] < avg.max() / 10.0


def test_log_density_matches_sample_density():
    agent = _agent(seed=9, state_dim=2, action_dim=2)
    s = np.random.default_rng(1).normal(size=(16, 2))
    a, logp, _ = agent.actor.sample(s, np.random.default_rng(2))
    recomputed = agent.actor.log_density(s, a)
    assert np.allclose(recomputed, logp, atol=1e-6)


@pytest.mark.nightly
def test_gradients_finite_over_ten_thousand_updates():
    # smoke invariant: default desk config, 1e4 consecutive updates
    env = make_env("pointmass2d")
    rng = np.random.default_rng(0)
    env_rng, agent_rng, upd_rng = rng.spawn(3)
    d_env = TransitionBuffer(10_000, 4, 2)
    d_model = TransitionBuffer(10_000, 4, 2)
    columns = random_policy_columns(env, env_rng, 2_000)
    d_env.push_batch(*columns)
    d_model.push_batch(*columns)
    agent = sac.init_agent(agent_rng, 4, 2, env.spec.action_low,
                           env.spec.action_high, hidden=(32, 32), **AGENT_SETTINGS)
    for _ in range(10_000):
        batch = sac.sample_mixed_batch(d_env, d_model, 128, 0.05, upd_rng)
        c_loss, a_loss = sac.sac_update(agent, batch, env.spec.gamma, upd_rng)
        assert np.isfinite(c_loss) and np.isfinite(a_loss)
