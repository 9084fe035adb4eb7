import hashlib
import itertools
import json

import numpy as np
import pytest

from mbrlab import controller, hyper_mdp, mbpo, nets, sac
from mbrlab.controller import run_hyper_episode
from mbrlab.envs import EnvDiverged
from mbrlab.hyper_mdp import (FEATURE_NAMES, NEUTRAL_INDICES, HyperMdpConfig,
                              HyperParams, apply_action, extract_state,
                              hyper_reward, policy_change)


def _cfg(**kw):
    return HyperMdpConfig(**kw).for_env("pointmass2d")


def _tiny_run(seed=0, warmup=60):
    cfg = mbpo.MbpoConfig(warmup_steps=warmup, updates_start=64, batch_size=64,
                          n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=2).for_env("pointmass2d")
    return mbpo.init_run("pointmass2d", cfg, hc, seed), cfg, hc


def _features(state):
    return dict(zip(FEATURE_NAMES, state))


def _neutralise(idx, mask):
    """Masked heads get the neutral index, as controller_act gives them."""
    return tuple(i if m else n for i, m, n in zip(idx, mask, NEUTRAL_INDICES))


# --------------------------------------------------------------- extract_state

def test_state_at_start_of_training():
    run, _, hc = _tiny_run()
    st = _features(extract_state(run, hc.initial_params(), hc))
    assert st["n_real_frac"] == 0.0
    assert st["model_loss"] == 1.0   # no model yet: documented sentinel
    assert st["critic_loss"] == 1.0
    assert st["eval_return"] == 0.0
    assert st["policy_change"] == 0.0


def test_n_real_frac_saturates_at_training_horizon():
    run, _, hc = _tiny_run(warmup=60)
    for _ in range(hc.m_train):
        mbpo.run_target_episode(run, mbpo.default_schedule, hc)
    st = _features(extract_state(run, hc.initial_params(), hc))
    assert st["n_real_frac"] == 1.0
    # evaluation runs longer than the training horizon keep the feature at 1
    mbpo.run_target_episode(run, mbpo.default_schedule, hc)
    st = _features(extract_state(run, hc.initial_params(), hc))
    assert st["n_real_frac"] == 1.0


def test_beta_feature_log_transform():
    hc = _cfg(beta_min=0.01)
    run, _, _ = _tiny_run()
    st = _features(extract_state(run, HyperParams(beta=0.05, g=10, k=1), hc))
    # (log 0.05 - log 0.01) / (log 1 - log 0.01) = ln5 / ln100
    assert st["beta"] == pytest.approx(np.log(5.0) / np.log(100.0), abs=1e-12)
    assert st["beta"] == pytest.approx(0.34948500216800943, abs=1e-12)


def test_state_features_in_unit_interval_fuzz():
    run, _, hc = _tiny_run()
    rng = np.random.default_rng(1)
    mbpo.run_target_episode(run, mbpo.default_schedule, hc)
    for _ in range(300):
        run.n_real = int(rng.integers(0, 5000))
        run.critic_loss_avg = float(rng.uniform(0, 1e6))
        run.last_eval_return = float(rng.uniform(-1e4, 1e4))
        if run.model.trained:
            run.model.holdout_mse = float(rng.uniform(0, 1e9))
        params = HyperParams(beta=float(rng.uniform(hc.beta_min, 1.0)),
                             g=int(rng.integers(1, hc.g_max + 1)),
                             k=int(rng.integers(1, hc.k_max + 1)))
        vec = extract_state(run, params, hc)
        assert vec.shape == (8,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


def test_feature_mask_shrinks_vector():
    run, _, hc = _tiny_run()
    st = extract_state(run, hc.initial_params(), hc)
    mask = (False, False, True, True, True, True, True, True)  # SA ablation
    assert st[np.asarray(mask)].shape == (6,)


# -------------------------------------------------------------- policy_change

def test_policy_change_zero_when_policy_unchanged():
    run, _, hc = _tiny_run()
    # collect data whose stored behavior densities come from the current actor
    rows = []
    for _ in range(30):
        s = run.env.reset(run.rng_env)
        a, _, _ = run.agent.actor.sample(s[None, :], run.rng_act)
        logp = run.agent.actor.log_density(s[None, :], a)[0]
        rows.append((s, *run.env.step(s, a[0]), float(np.exp(logp))))
    run.d_env.push_batch(*(np.array(column) for column in zip(*rows)))
    eps = policy_change(run.d_env.recent(hc.policy_change_window), run.agent.actor)
    assert eps == 0.0


def test_policy_change_strictly_below_one():
    run, _, hc = _tiny_run()
    rng = np.random.default_rng(2)
    rows = []
    for _ in range(50):
        s = run.env.reset(rng)
        rows.append((s, *run.env.step(s, rng.uniform(-1, 1, size=2)),
                     float(rng.uniform(0, 100.0))))
    run.d_env.push_batch(*(np.array(column) for column in zip(*rows)))
    eps = policy_change(run.d_env.recent(hc.policy_change_window), run.agent.actor)
    assert 0.0 <= eps < 1.0


def test_policy_change_hand_computed_gaussian():
    # 1-D tanh-Gaussian with known mean/log_std evaluated at one stored point
    net = nets.DenseNet([4, 2], ["identity"])  # zero weights
    net.biases[0][:] = [0.3, -0.2]
    actor = sac.GaussianPolicy(net=net, action_low=np.array([-1.0]),
                               action_high=np.array([1.0]))
    s = np.zeros((1, 4))
    a = np.array([[0.5]])
    stored = 2.0
    logp = actor.log_density(s, a)  # hand-checkable closed form
    u = np.arctanh(0.5)
    hand = (-0.5 * np.log(2 * np.pi) - (-0.2) - 0.5 * ((u - 0.3) / np.exp(-0.2)) ** 2
            - np.log(1 - 0.5 ** 2))
    assert logp[0] == pytest.approx(hand, rel=1e-12)
    gap = abs(float(np.exp(logp[0])) - stored)
    recent = {"s": s, "a": a, "behavior_density": np.array([stored])}
    assert policy_change(recent, actor) == pytest.approx(gap / (1 + gap), rel=1e-12)


def test_policy_change_empty_window_is_zero():
    run, _, _ = _tiny_run()
    assert policy_change({"behavior_density": np.array([])}, run.agent.actor) == 0.0


# --------------------------------------------------------------- apply_action

def test_apply_action_ratio_multiplication():
    hc = _cfg(ratio_constant=1.2)
    p = apply_action(HyperParams(beta=0.05, g=10, k=1), (2, 1, 1, 1), hc)
    assert p.beta == pytest.approx(0.06, rel=1e-12)


def test_apply_action_clamps():
    hc = _cfg()
    p = apply_action(HyperParams(beta=0.05, g=20, k=1), (1, 1, 2, 1), hc)
    assert p.g == 20
    p = apply_action(HyperParams(beta=0.05, g=10, k=1), (1, 1, 1, 0), hc)
    assert p.k == 1
    p = apply_action(HyperParams(beta=1.0, g=10, k=1), (2, 1, 1, 1), hc)
    assert p.beta == 1.0


def test_apply_action_masked_heads_no_op():
    hc = _cfg()
    action = _neutralise((2, 1, 2, 2), (False, True, False, False))
    p = apply_action(HyperParams(beta=0.05, g=10, k=1), action, hc)
    assert p == HyperParams(beta=0.05, g=10, k=1)


def test_params_stay_in_bounds_under_random_actions_fuzz():
    hc = _cfg()
    rng = np.random.default_rng(3)
    p = hc.initial_params()
    for _ in range(100_000):
        a = (int(rng.integers(-1, 2)) + 1, int(rng.integers(0, 2)),
             int(rng.integers(-1, 2)) + 1, int(rng.integers(-1, 2)) + 1)
        p = apply_action(p, a, hc)
        assert hc.beta_min <= p.beta <= 1.0
        assert 1 <= p.g <= hc.g_max
        assert 1 <= p.k <= hc.k_max


def _reference_apply_action(params, idx, mask, config):
    """apply_action as it was while actions carried their own head mask:
    HyperAction.from_indices turned indices into ops and masked heads were
    skipped."""
    ops = (-1, 0, 1)
    idx = [i if m else n for i, m, n in zip(idx, mask, NEUTRAL_INDICES)]
    ratio_op, g_op, k_op = ops[idx[0]], ops[idx[2]], ops[idx[3]]
    beta, g, k = params.beta, params.g, params.k
    if mask[0]:
        beta = float(np.clip(beta * config.ratio_constant ** ratio_op,
                             config.beta_min, 1.0))
    if mask[2]:
        g = int(np.clip(g + g_op, 1, config.g_max))
    if mask[3]:
        k = int(np.clip(k + k_op, 1, config.k_max))
    return HyperParams(beta, g, k)


def test_apply_action_matches_masked_reference():
    # all 54 index tuples x 16 head masks, params at and inside the bounds
    hc = _cfg()
    grid = itertools.product((hc.beta_min, 0.05, 0.5, 1.0), (1, 10, hc.g_max),
                             (1, 5, hc.k_max))
    all_idx = list(itertools.product(range(3), range(2), range(3), range(3)))
    masks = list(itertools.product((False, True), repeat=4))
    for beta, g, k in grid:
        params = HyperParams(beta, g, k)
        for idx in all_idx:
            for mask in masks:
                new = apply_action(params, _neutralise(idx, mask), hc)
                assert new == _reference_apply_action(params, idx, mask, hc)


# --------------------------------------------------------------- hyper_reward

def test_hyper_reward_cases():
    hc = _cfg(model_train_penalty=0.1)
    assert hyper_reward(None, False, hc) == 0.0
    assert hyper_reward(None, True, hc) == -0.1
    assert hyper_reward(hc.r_norm, False, hc) == 1.0


# ----------------------------------------------------------- hyper episodes

def test_hyper_episode_transition_count():
    cfg = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                          n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=1, tau=50).for_env("pointmass2d")
    pol = controller.init_controller(np.random.default_rng(0), (True,) * 8)
    traj, _ = run_hyper_episode(pol, "pointmass2d", cfg, hc, seed=1, n_episodes=hc.m_train)
    assert len(traj) == 1 * 200 // 50 == 4
    assert traj.valid


@pytest.mark.parametrize("n_episodes", [0, -1])
def test_hyper_episode_rejects_fewer_than_one_episode(n_episodes):
    # the count is the caller's; 0 no longer stands for hyper.m_train
    cfg = mbpo.MbpoConfig(warmup_steps=60)
    hc = HyperMdpConfig(m_train=1).for_env("pointmass2d")
    pol = controller.init_controller(np.random.default_rng(0), (True,) * 8)
    with pytest.raises(ValueError, match="n_episodes"):
        run_hyper_episode(pol, "pointmass2d", cfg, hc, seed=1, n_episodes=n_episodes)


def test_hyper_episode_states_follow_the_policy_feature_mask():
    cfg = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                          n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=1).for_env("pointmass2d")
    mask = (False, False, True, True, True, True, True, True)  # SA ablation
    pol = controller.init_controller(np.random.default_rng(0), mask)
    traj, _ = run_hyper_episode(pol, "pointmass2d", cfg, hc, seed=1, n_episodes=hc.m_train)
    assert traj.valid and traj.states.shape == (4, 6)
    # the first state: nothing trained or evaluated yet, initial params
    run, _, _ = _tiny_run(seed=1)
    full = extract_state(run, hc.initial_params(), hc)
    assert np.array_equal(traj.states[0], full[np.asarray(mask)])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# recorded while the hyper-state was a dataclass and the action an object
_PINNED_HYPER_EPISODES = {
    False: {
        "states": "8fa193a72147f5df2a8dcd9ee9aa382beffa7e121b38e81fef7bc4c1ba9ed49c",
        "action_indices": "88647eb9d837cf3eb0569f22cc1b506c8be68b9c2bbcb658b0465ad75f693163",
        "log_probs": "bf15b5f1919ac70fe47e66c4b90344bf07f3ad7653e94a25175cc0402dff7aad",
        "rewards": "6a9a4f2bbc4ba2ca7199a24101733992256806b3bac4a254c4956de2d0721a65",
        "schedule_rows": "197fb33e92d4188fcf0eeff34170db238e1dcb7eed659b60454744841bc87236",
    },
    True: {
        "states": "ca8f3c103b666c2a99bc91b04a0fc1d2abad48f518ebdf0a783b63a74deceb99",
        "action_indices": "b18740d23b889d85355d0215a1b0aa64498318449ed8994a50ff574328c58484",
        "log_probs": "fdca22a2e31eab25ffd11bdd8779bcd0d7b35a4acf02c11e204d2fa1dda5fdea",
        "rewards": "fab1cf1094b037508e55c958c19e0808176f35dfd1bb1b5f163b33229082e12f",
        "schedule_rows": "5c14ccd08b0d5d5f4667d9fd65ae98b8b8b280293393474b5bd27a6fc2f66913",
    },
}


@pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
def test_hyper_episode_pinned_bits(greedy):
    cfg = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                          n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=2).for_env("pointmass2d")
    pol = controller.init_controller(np.random.default_rng(4))  # all four heads
    traj, log = controller.run_hyper_episode(pol, "pointmass2d", cfg, hc, seed=14,
                                             n_episodes=hc.m_train, greedy=greedy)
    rows = [[r["real_step"], r["beta"].hex(), r["g"], r["k"], r["model_trained"]]
            for r in log.schedule_rows]
    assert traj.valid
    assert {"states": _sha(traj.states.tobytes()),
            "action_indices": _sha(traj.action_indices.astype(np.int64).tobytes()),
            "log_probs": _sha(traj.log_probs.tobytes()),
            "rewards": _sha(traj.rewards.tobytes()),
            "schedule_rows": _sha(json.dumps(rows).encode())} == \
        _PINNED_HYPER_EPISODES[greedy]


def _crashing_hyper_episode(monkeypatch, exc):
    def crash(*args, **kwargs):
        raise exc
    monkeypatch.setattr(mbpo, "run_target_episode", crash)
    cfg = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                          n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=1).for_env("pointmass2d")
    pol = controller.init_controller(np.random.default_rng(0), (True,) * 8)
    traj, _ = run_hyper_episode(pol, "pointmass2d", cfg, hc, seed=1, n_episodes=hc.m_train)
    return traj


@pytest.mark.parametrize("exc", [FloatingPointError("non-finite"),
                                 EnvDiverged("non-finite state")],
                         ids=["FloatingPointError", "EnvDiverged"])
def test_hyper_episode_numeric_crash_is_flagged_invalid(monkeypatch, exc):
    traj = _crashing_hyper_episode(monkeypatch, exc)
    assert not traj.valid
    assert len(traj) == 0
    assert traj.error == {"type": type(exc).__name__, "message": str(exc), "n_real": 0}


def test_hyper_episode_programming_error_propagates(monkeypatch):
    with pytest.raises(TypeError, match="bad call"):
        _crashing_hyper_episode(monkeypatch, TypeError("bad call"))


def test_neutral_controller_reproduces_default_mbpo_bit_exactly():
    cfg = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                          n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=2).for_env("pointmass2d")
    log_default = mbpo.run_default_mbpo("pointmass2d", cfg, hc, 2, seed=12)
    pol = controller.init_controller(np.random.default_rng(5), (True,) * 8,
                                     head_mask=(False,) * 4)
    traj, log_ctrl = run_hyper_episode(pol, "pointmass2d", cfg, hc, seed=12,
                                       n_episodes=hc.m_train)
    assert np.array_equal(traj.rewards, np.array(log_default.hyper_rewards))
    assert log_ctrl.eval_rows == log_default.eval_rows
    assert log_ctrl.schedule_rows == log_default.schedule_rows


def test_reward_placement_within_trajectory():
    cfg = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                          n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=2).for_env("pointmass2d")
    pol = controller.init_controller(np.random.default_rng(2), (True,) * 8)
    traj, log = run_hyper_episode(pol, "pointmass2d", cfg, hc, seed=13, n_episodes=hc.m_train)
    n_b = 200 // hc.tau
    for i, r in enumerate(traj.rewards):
        if (i + 1) % n_b != 0:
            assert r in (0.0, -hc.model_train_penalty)
    eval_norms = [row["eval_return"] / hc.r_norm for row in log.eval_rows]
    for ep, ev in enumerate(eval_norms):
        idx = (ep + 1) * n_b - 1
        assert traj.rewards[idx] in (pytest.approx(ev, rel=1e-12),
                                     pytest.approx(ev - hc.model_train_penalty, rel=1e-12))


def test_neutral_action_constant():
    ratio, train, g, k = NEUTRAL_INDICES  # ops are index - 1
    assert ratio - 1 == 0
    assert train == 1
    assert g - 1 == 0 and k - 1 == 0


@pytest.mark.parametrize("field,value", [
    ("beta_init", 0.005), ("beta_init", 1.5), ("g_init", 0), ("g_init", 21),
    ("k_init", 0), ("k_init", 11)])
def test_initial_params_outside_bounds_rejected(field, value):
    hc = HyperMdpConfig(**{field: value}).for_env("pointmass2d")
    with pytest.raises(ValueError, match=field):
        mbpo.init_run("pointmass2d", mbpo.MbpoConfig(), hc, seed=0)


def test_tau_must_divide_horizon():
    hc = HyperMdpConfig(tau=33)
    with pytest.raises(ValueError):
        hc.validate(200)
