import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mbrlab import config as run_config
from mbrlab import mbpo, nets, sac
from mbrlab.hyper_mdp import HyperMdpConfig, HyperParams


def _configs(env="pointmass2d", warmup=60, **kw):
    cfg = mbpo.MbpoConfig(warmup_steps=warmup, updates_start=64,
                          batch_size=64, n_members=2,
                          agent_hidden=(16, 16), model_hidden=(16, 16), **kw)
    return cfg, HyperMdpConfig(m_train=2).for_env(env)


def test_run_state_takes_its_schedule_start_from_init_run():
    # the hyper config is an argument of every episode, not a field of the run
    cfg, _ = _configs()
    hc = HyperMdpConfig(m_train=2, beta_init=0.2, g_init=3, k_init=4).for_env("pointmass2d")
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=0)
    assert "hyper_config" not in {f.name for f in dataclasses.fields(mbpo.MbpoRunState)}
    assert run.current_params == hc.initial_params() == HyperParams(0.2, 3, 4)


def test_warmup_contract_no_model_no_rollouts():
    cfg, hc = _configs()
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=0)
    params = hc.initial_params()
    for _ in range(20):
        report = mbpo.mbpo_step(run, params, train_model_now=True)
        assert report["model_trained"] is False
        assert report["rollouts_added"] == 0
    assert not run.model.trained
    assert len(run.d_model) == 0


def test_g_zero_is_clamped_to_one():
    cfg, hc = _configs(warmup=10)
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=1)
    for _ in range(cfg.updates_start):
        mbpo.mbpo_step(run, hc.initial_params(), False)
    report = mbpo.mbpo_step(run, HyperParams(beta=1.0, g=0, k=1), False)
    assert report["updates"] == 1


def test_rollout_growth_bound_per_step():
    cfg, hc = _configs(warmup=30, rollout_branches=10)
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=2)
    params = HyperParams(beta=0.5, g=1, k=1)
    for _ in range(40):
        mbpo.mbpo_step(run, params, False)
    before = len(run.d_model)
    report = mbpo.mbpo_step(run, params, train_model_now=True)
    assert report["model_trained"]
    assert report["rollouts_added"] <= 10
    assert len(run.d_model) - before <= 10


def test_exactly_one_real_step_per_call():
    cfg, hc = _configs()
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=3)
    for k in range(25):
        mbpo.mbpo_step(run, hc.initial_params(), False)
        assert run.n_real == k + 1
        assert len(run.d_env) == k + 1


def test_schedule_consultations_per_episode():
    cfg, hc = _configs()
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=4)
    calls = []

    def source(state, params):
        calls.append(run.n_real)
        return params, False

    records = mbpo.run_target_episode(run, source, hc)
    assert len(calls) == run.env.spec.horizon // hc.tau == 4
    assert len(records) == 4


def test_early_termination_still_runs_block_evaluation():
    # pointmass terminates at the goal; the H-step block still ends with an
    # evaluation row and a full set of tau boundaries
    cfg, hc = _configs(warmup=10)
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=5)
    records = mbpo.run_target_episode(run, mbpo.default_schedule, hc)
    assert run.log.eval_rows and run.log.eval_rows[-1]["episode"] == 1
    assert records[-1]["eval_return"] is not None
    assert run.n_real == run.env.spec.horizon


def test_default_run_one_episode_one_eval_row():
    cfg, hc = _configs()
    log = mbpo.run_default_mbpo("pointmass2d", cfg, hc, m_episodes=1, seed=6)
    assert len(log.eval_rows) == 1


def test_default_run_seed_reproducibility():
    cfg, hc = _configs()
    log1 = mbpo.run_default_mbpo("pointmass2d", cfg, hc, m_episodes=2, seed=7)
    log2 = mbpo.run_default_mbpo("pointmass2d", cfg, hc, m_episodes=2, seed=7)
    assert log1.eval_rows == log2.eval_rows
    assert log1.hyper_rewards == log2.hyper_rewards
    assert log1.schedule_rows == log2.schedule_rows


def test_n_real_accounting_is_exact():
    cfg, hc = _configs()
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=8)
    for _ in range(3):
        mbpo.run_target_episode(run, mbpo.default_schedule, hc)
    assert run.n_real == 3 * run.env.spec.horizon
    assert len(run.log.hyper_rewards) == 3 * run.env.spec.horizon // hc.tau


def test_hyper_reward_trace_structure():
    # zero reward at non-final boundaries (minus penalty when trained),
    # evaluation-based reward only at episode ends
    cfg, hc = _configs(warmup=10)
    log = mbpo.run_default_mbpo("pointmass2d", cfg, hc, m_episodes=1, seed=9)
    n_b = 200 // hc.tau
    rewards = log.hyper_rewards
    eval_norm = log.eval_rows[0]["eval_return"] / hc.r_norm
    for i, r in enumerate(rewards[:-1]):
        assert r in (0.0, -hc.model_train_penalty)
    trained_last = log.schedule_rows[n_b - 1]["model_trained"]
    expect_last = eval_norm - hc.model_train_penalty * trained_last
    assert rewards[-1] == pytest.approx(expect_last, rel=1e-12)


def test_file_schedule_replays_exported_schedule():
    cfg, hc = _configs(warmup=10)
    log = mbpo.run_default_mbpo("pointmass2d", cfg, hc, m_episodes=1, seed=10)
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=10)
    source = mbpo.make_file_schedule(log.schedule_rows)
    mbpo.run_target_episode(run, source, hc)
    assert run.log.eval_rows == log.eval_rows
    assert run.log.schedule_rows == log.schedule_rows


def test_sac_modes_via_config():
    # SAC(1)/SAC(20): beta=1, no model, G in {1, 20}; realized by a schedule
    # source that never trains the model
    cfg, hc = _configs(warmup=10)
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=11)
    source = lambda state, params: (HyperParams(beta=1.0, g=1, k=1), False)
    mbpo.run_target_episode(run, source, hc)
    assert not run.model.trained
    assert len(run.d_model) == 0


def _run_at_first_update(seed):
    """A run one real step short of its first SAC update."""
    cfg, hc = _configs(warmup=10)
    run = mbpo.init_run("pointmass2d", cfg, hc, seed=seed)
    for _ in range(cfg.updates_start - 1):
        mbpo.mbpo_step(run, hc.initial_params(), False)
    return run


def test_sac_contract_violation_propagates(monkeypatch):
    run = _run_at_first_update(seed=14)

    def broken(*args, **kwargs):
        raise nets.ContractViolation("shape bug")

    monkeypatch.setattr(sac, "sac_update", broken)
    with pytest.raises(nets.ContractViolation, match="shape bug"):
        mbpo.mbpo_step(run, HyperParams(beta=1.0, g=1, k=1), False)


def test_sac_floating_point_error_is_a_rejected_step(monkeypatch):
    run = _run_at_first_update(seed=15)

    def diverged(*args, **kwargs):
        raise FloatingPointError("non-finite critic loss")

    monkeypatch.setattr(sac, "sac_update", diverged)
    report = mbpo.mbpo_step(run, HyperParams(beta=1.0, g=1, k=1), False)
    assert report["updates"] == 0
    assert run.log.events[-1] == {"step": run.n_real, "event": "sac_step_rejected",
                                  "reason": "non-finite critic loss"}


def test_warmup_below_holdout_minimum_rejected():
    with pytest.raises(ValueError):
        mbpo.MbpoConfig(warmup_steps=2).validate()



@pytest.mark.parametrize("field", ["batch_size", "eval_episodes"])
def test_init_run_rejects_empty_batches_and_evaluations(monkeypatch, field):
    cfg, hc = _configs()
    cfg = dataclasses.replace(cfg, **{field: 0})

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the config was checked")

    monkeypatch.setattr(mbpo, "mbpo_step", no_step)
    with pytest.raises(ValueError, match=field):
        mbpo.init_run("pointmass2d", cfg, hc, seed=0)

def _buffer_sha(buf) -> str:
    h = hashlib.sha256()
    for name in ("s", "a", "r", "s2", "done", "behavior_density"):
        h.update(np.ascontiguousarray(getattr(buf, name)[:len(buf)]).tobytes())
    return h.hexdigest()


def test_buffer_contents_pinned_bits():
    # every column of D_env and D_model after one smoke-config episode, real
    # rows with their behavior densities and imaginary rows with density 0
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "configs" / "smoke.json").read_text())
    c = run_config.from_dict(doc)
    hc = c.resolved_hyper()
    run = mbpo.init_run(c.env_name, c.mbpo, hc, seed=0)
    mbpo.run_target_episode(run, mbpo.default_schedule, hc)
    assert (len(run.d_env), len(run.d_model)) == (200, 2000)
    assert _buffer_sha(run.d_env) == \
        "1b025692cd27486e0c78407ff41e98d46dbd8452f945d39dc61b2b0dd19ff70e"
    assert _buffer_sha(run.d_model) == \
        "7ae00002c794c89a13ee7af46eb9986a5678336874b6befdc1bb604910a27a85"


@pytest.mark.nightly
def test_default_run_beats_random_policy_pinned():
    # pinned from the first successful run (seed 0): final eval -25.8 vs
    # random-policy -260.7, margin 235; assert a conservative 200
    from mbrlab.envs import evaluate_policy, make_env
    cfg = mbpo.MbpoConfig()
    hc = HyperMdpConfig(m_train=30).for_env("pointmass2d")
    log = mbpo.run_default_mbpo("pointmass2d", cfg, hc, m_episodes=30, seed=0)
    env = make_env("pointmass2d")
    rand = evaluate_policy(env, lambda s, rng: rng.uniform(-1, 1, 2), 20,
                           np.random.default_rng(1))
    final = log.eval_rows[-1]["eval_return"]
    assert final - rand >= 200.0


@pytest.mark.nightly
def test_sac1_improves_on_pendulum_pinned():
    # pinned from the first successful run: final eval ~-512 vs random -1198
    from mbrlab.config import RunConfig
    from mbrlab.envs import evaluate_policy, make_env
    from mbrlab.harness import run_mbpo_mode
    cfg = RunConfig(env_name="pendulum", hyper=HyperMdpConfig(m_train=30))
    log = run_mbpo_mode(cfg, "sac1", 0)
    env = make_env("pendulum")
    rand = evaluate_policy(env, lambda s, rng: rng.uniform(-2, 2, 1), 20,
                           np.random.default_rng(2))
    assert log.eval_rows[-1]["eval_return"] - rand >= 300.0
