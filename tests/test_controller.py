import copy
import hashlib
import itertools
import json

import numpy as np
import pytest

from mbrlab import checkpoint, controller, mbpo, nets, workers
from mbrlab.controller import (BaselineCurve, PpoConfig, advantage,
                               controller_act, init_controller,
                               load_controller, ppo_loss_and_grads, ppo_update,
                               save_controller, train_controller)
from mbrlab.hyper_mdp import HEAD_SIZES, NEUTRAL_INDICES, HyperMdpConfig
from mbrlab.nets import AdamState

from util import (assert_grads_close, crash_hyper_episode_at, finite_difference,
                  joint_log_prob)


def _uniform_policy(seed=0, **kw):
    pol = init_controller(np.random.default_rng(seed), **kw)
    pol.net.weights[-1][:] = 0.0
    pol.net.biases[-1][:] = 0.0
    return pol


def test_uniform_logits_sample_each_ratio_op_one_third():
    pol = _uniform_policy()
    rng = np.random.default_rng(1)
    state = np.random.default_rng(2).uniform(size=8)
    counts = np.zeros(3)
    for _ in range(100_000):
        action, _ = controller_act(pol, state, rng)
        counts[action[0]] += 1
    assert np.all(np.abs(counts / 100_000 - 1 / 3) < 0.01)


def test_greedy_mode_is_deterministic():
    pol = init_controller(np.random.default_rng(3))
    state = np.random.default_rng(4).uniform(size=8)
    a1, lp1 = controller_act(pol, state, np.random.default_rng(5), greedy=True)
    a2, lp2 = controller_act(pol, state, np.random.default_rng(99), greedy=True)
    assert a1 == a2 and lp1 == lp2


def test_joint_log_prob_enumeration_oracle():
    # sum over all 3*2*3*3 = 54 joint actions of exp(joint logp) is 1
    pol = init_controller(np.random.default_rng(6))
    state = np.random.default_rng(7).uniform(size=8)[None, :]
    total = 0.0
    per_action = {}
    for idx in itertools.product(range(3), range(2), range(3), range(3)):
        lp = joint_log_prob(pol, state, np.array([idx]))[0]
        per_action[idx] = lp
        total += np.exp(lp)
    assert total == pytest.approx(1.0, abs=1e-10)
    # the sampled joint log-prob agrees with the enumerated table
    action, lp = controller_act(pol, state[0], np.random.default_rng(8))
    assert lp == pytest.approx(per_action[action], abs=1e-12)


def test_masked_heads_neutral_and_zero_logp():
    pol = init_controller(np.random.default_rng(9), head_mask=(True, False, False, True))
    state = np.random.default_rng(10).uniform(size=8)
    action, lp = controller_act(pol, state, np.random.default_rng(11))
    assert action[1] == NEUTRAL_INDICES[1] and action[2] == NEUTRAL_INDICES[2]
    tables = controller.head_log_probs(pol, state[None, :])
    expect = tables[0][0][action[0]] + tables[3][0][action[3]]
    assert lp == pytest.approx(float(expect), abs=1e-12)


# ------------------------------------------------------------------ advantage

def test_advantage_zero_when_rewards_equal_baseline():
    r = np.random.default_rng(0).normal(size=12)
    assert np.array_equal(advantage(r, r), np.zeros(12))


def test_advantage_constant_offset():
    base = np.random.default_rng(1).normal(size=9)
    adv = advantage(base + 1.0, base)
    assert np.allclose(adv, np.arange(9, 0, -1), atol=1e-12)


def test_advantage_matches_double_loop_oracle():
    # O(T^2) oracle: each suffix re-summed from scratch, accumulating from
    # the trajectory end (the suffix recurrence's association order)
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = int(rng.integers(1, 21))
        r = rng.normal(size=t)
        b = rng.normal(size=t)
        brute = np.empty(t)
        for start in range(t):
            acc = 0.0
            for i in range(t - 1, start - 1, -1):
                acc += r[i] - b[i]
            brute[start] = acc
        assert np.array_equal(advantage(r, b), brute)


def test_advantage_length_mismatch_errors():
    with pytest.raises(ValueError):
        advantage(np.ones(3), np.ones(4))


# ------------------------------------------------------------------------ PPO

def _ppo_batch(pol, n, seed):
    rng = np.random.default_rng(seed)
    states = rng.uniform(size=(n, pol.net.input_dim))
    idx = np.stack([rng.integers(0, s, size=n) for s in HEAD_SIZES], axis=1)
    old = joint_log_prob(pol, states, idx)
    adv = rng.normal(size=n)
    return states, idx, old, adv


def test_unit_ratio_objective_equals_mean_advantage():
    pol = init_controller(np.random.default_rng(12))
    states, idx, old, adv = _ppo_batch(pol, 32, 13)
    cfg = PpoConfig(entropy_coef=0.0)
    loss, _, diag = ppo_loss_and_grads(pol, states, idx, old, adv, cfg, cfg.entropy_coef)
    assert loss == pytest.approx(-float(adv.mean()), rel=1e-12)
    assert diag["mean_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_clipped_samples_contribute_zero_gradient():
    # single sample in the clipped-adverse regime: A>0 and ratio>1+eps
    pol = init_controller(np.random.default_rng(14))
    states, idx, old, _ = _ppo_batch(pol, 1, 15)
    old = old - 1.0  # ratio = e > 1.2
    adv = np.array([2.0])
    cfg = PpoConfig(entropy_coef=0.0)
    _, grads, diag = ppo_loss_and_grads(pol, states, idx, old, adv, cfg, cfg.entropy_coef)
    assert diag["clip_fraction"] == 1.0
    assert np.all(grads == 0.0)
    # A<0 and ratio<1-eps is also exactly clipped
    old2 = joint_log_prob(pol, states, idx) + 1.0  # ratio = 1/e < 0.8
    _, grads2, _ = ppo_loss_and_grads(pol, states, idx, old2, np.array([-2.0]), cfg,
                                        cfg.entropy_coef)
    assert np.all(grads2 == 0.0)


def test_ppo_gradient_matches_finite_differences():
    pol = init_controller(np.random.default_rng(16), hidden=16)
    states, idx, old, adv = _ppo_batch(pol, 1, 17)
    cfg = PpoConfig(entropy_coef=0.013)

    def loss_fn(_):  # finite_difference perturbs pol.net.theta in place
        return ppo_loss_and_grads(pol, states, idx, old, adv, cfg, cfg.entropy_coef)[0]

    _, grad, _ = ppo_loss_and_grads(pol, states, idx, old, adv, cfg, cfg.entropy_coef)
    numeric = finite_difference(loss_fn, [pol.net.theta])
    assert_grads_close([grad], numeric, rtol=1e-4)


def test_zero_advantage_zero_entropy_leaves_params_bit_unchanged():
    pol = init_controller(np.random.default_rng(18))
    states, idx, old, _ = _ppo_batch(pol, 16, 19)
    before = pol.net.theta.copy()
    batch = {"states": states, "action_indices": idx, "old_log_probs": old,
             "advantages": np.zeros(16)}
    cfg = PpoConfig(entropy_coef=0.0, entropy_decay=1.0)
    ppo_update(pol, batch, cfg, np.random.default_rng(20),
               AdamState.for_theta(pol.net.theta, cfg.lr), cfg.entropy_coef)
    assert np.array_equal(before, pol.net.theta)


def test_ppo_update_pinned_bits():
    """Values recorded before the parameters became one flat vector."""
    pol = init_controller(np.random.default_rng(27))
    g = np.random.default_rng(28)
    states = g.uniform(size=(24, 8))
    idx = np.stack([g.integers(0, k, size=24) for k in (3, 2, 3, 3)], axis=1)
    old = joint_log_prob(pol, states, idx) - g.uniform(-0.1, 0.1, 24)
    batch = {"states": states, "action_indices": idx, "old_log_probs": old,
             "advantages": g.normal(size=24)}
    cfg = PpoConfig(updates_per_round=6, minibatch=16)
    diag = ppo_update(pol, batch, cfg, np.random.default_rng(29),
                      AdamState.for_theta(pol.net.theta, cfg.lr), cfg.entropy_coef)
    assert diag["mean_ratio"].hex() == "0x1.067786f9c3b80p+0"
    assert diag["clip_fraction"] == 1 / 32
    assert hashlib.sha256(pol.net.theta.tobytes()).hexdigest() == \
        "b2c5a99d041fde8c4594def2c404f0cd0ade85ac2a8fad406ddb657d4e082f84"


def test_train_controller_single_episode_runs_thirty_updates():
    mc = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                         n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=1).for_env("pointmass2d")
    n_b = 200 // hc.tau
    baseline = BaselineCurve(values=np.zeros(n_b), n_seeds=1,
                             env_name="pointmass2d", config_hash="test")
    pol, history = train_controller("pointmass2d", mc, hc, PpoConfig(),
                                    baseline, n_hyper_episodes=1, seed=21, episodes_per_round=1)
    assert len(history["rounds"]) == 1
    assert history["rounds"][0]["updates"] == 30


@pytest.mark.parametrize("one_core", [False, True])
def test_train_controller_pinned_bits(monkeypatch, one_core):
    """Two rounds of two hyper-episodes, each drawing controller actions from
    its own seeded stream; recorded when the rounds went onto worker
    processes, and equal whether the episodes run on workers or inline."""
    if one_core:
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})
    mc = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                         n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=1).for_env("pointmass2d")
    baseline = BaselineCurve(values=np.zeros(200 // hc.tau), n_seeds=1,
                             env_name="pointmass2d", config_hash="test")
    pol, history = train_controller("pointmass2d", mc, hc, PpoConfig(), baseline,
                                    n_hyper_episodes=4, seed=21, episodes_per_round=2)
    assert history["invalid_count"] == 0 and len(history["rounds"]) == 2
    assert [r.hex() for r in history["episode_returns"]] == [
        "-0x1.168b5ca757e16p+0", "-0x1.0667ccd706548p+0",
        "-0x1.2527dc1ccb5c4p+0", "-0x1.9db6abb76e1c3p-1"]
    assert hashlib.sha256(pol.net.theta.tobytes()).hexdigest() == \
        "4eea03ffebcab7f632f9a3211270c38eac7a7b9bb0793edbe56657e73fba10cd"


def test_train_controller_records_invalid_hyper_episodes(monkeypatch):
    mc = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                         n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=1).for_env("pointmass2d")
    baseline = BaselineCurve(values=np.zeros(200 // hc.tau), n_seeds=1,
                             env_name="pointmass2d", config_hash="test")
    first_seed = int(np.random.default_rng(21).spawn(4)[3].integers(0, 2**31 - 1))
    crash_hyper_episode_at(monkeypatch, first_seed, 75)
    _, history = train_controller("pointmass2d", mc, hc, PpoConfig(), baseline,
                                  n_hyper_episodes=2, seed=21, episodes_per_round=2)
    assert history["invalid_count"] == 1
    assert history["invalid"] == [{"episode": 0, "seed": first_seed, "error": {
        "type": "FloatingPointError", "message": "injected at step 75", "n_real": 75}}]
    assert len(history["episode_returns"]) == 1 and len(history["rounds"]) == 1


# --------------------------------------------------------------- persistence

def test_save_load_roundtrip_bit_exact(tmp_path):
    pol = init_controller(np.random.default_rng(22), config_hash="abc123")
    path = tmp_path / "controller.json"
    save_controller(pol, path)
    loaded = load_controller(path)
    state = np.random.default_rng(23).uniform(size=8)
    a1, lp1 = controller_act(pol, state, np.random.default_rng(24))
    a2, lp2 = controller_act(loaded, state, np.random.default_rng(24))
    assert a1 == a2 and lp1 == lp2
    assert np.array_equal(pol.net.theta, loaded.net.theta)
    assert loaded.config_hash == "abc123"
    # format 2, the net stored as its one flat theta
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    assert doc["kind"] == "hyper-controller"
    assert list(doc["arrays"]) == ["theta"]


def test_load_controller_missing_tensor_is_a_checkpoint_error(tmp_path):
    pol = init_controller(np.random.default_rng(22), hidden=8)
    path = tmp_path / "controller.json"
    save_controller(pol, path)
    for table, name in (("arrays", "theta"), ("metadata", "hidden"),
                        ("metadata", "config_hash")):
        doc = json.loads(path.read_text())
        del doc[table][name]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(checkpoint.CheckpointError, match=name):
            load_controller(bad)


@pytest.mark.parametrize("name, mask", [("feature_mask", [True] * 8 + [False]),
                                        ("head_mask", [True, True])],
                         ids=["feature_mask", "head_mask"])
def test_load_controller_refuses_a_mask_of_the_wrong_length(tmp_path, name, mask):
    # a 9-entry feature mask with one False still fits theta's 8 inputs
    path = tmp_path / "controller.json"
    save_controller(init_controller(np.random.default_rng(22), hidden=8), path)
    doc = json.loads(path.read_text())
    doc["metadata"][name] = mask
    path.write_text(json.dumps(doc))
    with pytest.raises(checkpoint.CheckpointError, match="mask lengths"):
        load_controller(path)


def test_controller_roundtrip_keeps_masks_size_and_draws(tmp_path):
    feature_mask = (False, False, True, True, True, True, True, True)
    head_mask = (True, False, True, False)
    pol = init_controller(np.random.default_rng(40), feature_mask, head_mask, hidden=16,
                          config_hash="def456")
    path = tmp_path / "controller.json"
    save_controller(pol, path)
    loaded = load_controller(path)
    assert loaded.feature_mask == feature_mask and loaded.head_mask == head_mask
    assert loaded.config_hash == "def456"
    assert loaded.net.sizes == pol.net.sizes == (6, 16, sum(HEAD_SIZES))
    assert loaded.net.activations == pol.net.activations
    assert loaded.net.theta.tobytes() == pol.net.theta.tobytes()
    states = np.random.default_rng(41).uniform(size=(20, 6))
    draws = [[controller_act(p, s, np.random.default_rng(42)) for s in states]
             for p in (pol, loaded)]
    assert draws[0] == draws[1]


def test_transfer_warning_on_config_mismatch(tmp_path):
    pol = init_controller(np.random.default_rng(25), config_hash="hash-a")
    with pytest.warns(UserWarning, match="transfer"):
        ok = controller.check_transfer(pol, "hash-b")
    assert not ok
    assert controller.check_transfer(pol, "hash-a")


def test_checkpoint_distinguishes_trained_from_fresh(tmp_path):
    import hashlib
    pol = init_controller(np.random.default_rng(26))
    p1 = tmp_path / "fresh.json"
    save_controller(pol, p1)
    batch_pol = copy.deepcopy(pol)
    states, idx, old, adv = _ppo_batch(batch_pol, 32, 27)
    cfg = PpoConfig()
    ppo_update(batch_pol, {"states": states, "action_indices": idx,
                           "old_log_probs": old, "advantages": adv},
               cfg, np.random.default_rng(28),
               AdamState.for_theta(batch_pol.net.theta, cfg.lr), cfg.entropy_coef)
    p2 = tmp_path / "trained.json"
    save_controller(batch_pol, p2)
    h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
    assert h1 != h2


def test_load_corrupt_checkpoint_errors(tmp_path):
    from mbrlab.checkpoint import CheckpointError
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CheckpointError):
        load_controller(bad)
    noversion = tmp_path / "nv.json"
    noversion.write_text('{"tensors": []}')
    with pytest.raises(CheckpointError, match="format_version"):
        load_controller(noversion)
