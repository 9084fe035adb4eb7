import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mbrlab import config as run_config
from mbrlab import harness, mbpo, nets, sac
from mbrlab.hyper_mdp import FEATURE_NAMES, HyperMdpConfig, HyperParams
from util import agent_fingerprint


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


def test_file_schedule_replays_exported_schedule(tmp_path):
    # default MBPO, and SAC(1)/SAC(20) at beta 1, the top of its range; each
    # replayed from its rows as the log holds them and as read back from CSV
    cfg, hc = _configs(warmup=10)

    def episode(source):
        run = mbpo.init_run("pointmass2d", cfg, hc, seed=10)
        mbpo.run_target_episode(run, source, hc)
        return run.log

    for mode in ("default", "sac1", "sac20"):
        log = episode(harness.TRAIN_MBPO_MODES[mode](None, hc.k_max))
        path = harness.write_csv(tmp_path / f"{mode}.csv", "schedule", log.schedule_rows)
        for rows in (log.schedule_rows, harness.read_csv(path)):
            replay = episode(mbpo.make_file_schedule(rows, hc.k_max))
            # through JSON, where the untrained SAC runs' NaN hold-out loss equals itself
            assert json.dumps(replay.eval_rows) == json.dumps(log.eval_rows)
            assert replay.schedule_rows == log.schedule_rows


SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.json"


def _smoke_run(seed, warmup_steps=None):
    """A run on configs/smoke.json, optionally with another warm-up length."""
    doc = json.loads(SMOKE.read_text())
    if warmup_steps is not None:
        doc["mbpo"]["warmup_steps"] = warmup_steps
    c = run_config.from_dict(doc)
    hc = c.resolved_hyper()
    return mbpo.init_run(c.env_name, c.mbpo, hc, seed), hc


def _episodes(run, hc, source, n):
    for _ in range(n):
        mbpo.run_target_episode(run, source, hc)
    return run


def _beta_one(state, params):
    """The default schedule with beta raised to 1: same G, k and training flag."""
    return dataclasses.replace(params, beta=1.0), True


def _eval_rows_but_beta(run):
    return json.dumps([{k: v for k, v in row.items() if k != "beta"}
                       for row in run.log.eval_rows])


@pytest.mark.parametrize("seed", [0, 1])
def test_schedules_differing_only_in_beta_agree_through_warmup(seed):
    # a warm-up of exactly one episode (H = 200): every SAC batch in it is
    # all real whatever the schedule's beta, so beta changes no bit
    runs = [_episodes(*_smoke_run(seed, warmup_steps=200), source, 1)
            for source in (mbpo.default_schedule, _beta_one)]
    assert agent_fingerprint(runs[0]) == agent_fingerprint(runs[1])
    assert _eval_rows_but_beta(runs[0]) == _eval_rows_but_beta(runs[1])


def test_schedules_differing_only_in_beta_split_after_warmup():
    # the check above can fail: with the warm-up ending mid-episode, the
    # second half of the episode trains on imaginary rows at beta 0.05
    runs = [_episodes(*_smoke_run(0, warmup_steps=150), source, 1)
            for source in (mbpo.default_schedule, _beta_one)]
    assert agent_fingerprint(runs[0]) != agent_fingerprint(runs[1])


def test_beta_one_with_model_training_equals_model_free_sac():
    # model training and rollouts draw from their own streams and a beta-1
    # batch draws no imaginary row, so training the model changes no SAC bit
    run, hc = _smoke_run(3, warmup_steps=200)
    g = hc.g_init
    trained = _episodes(run, hc, lambda state, params: (HyperParams(1.0, g, 1), True), 3)
    sac_g = _episodes(*_smoke_run(3, warmup_steps=200), harness._sac_schedule(g), 3)
    assert sum(row["model_trained"] for row in trained.log.schedule_rows) == 8
    assert len(trained.d_model) == 8_000
    assert agent_fingerprint(trained) == agent_fingerprint(sac_g)
    assert ([row["eval_return"] for row in trained.log.eval_rows]
            == [row["eval_return"] for row in sac_g.log.eval_rows])


def test_replayed_beta_zero_reads_as_the_beta_floor():
    # make_file_schedule accepts beta 0; the beta feature then reads its
    # floor, 0.0, and no log(0) is taken
    run, hc = _smoke_run(0)
    replay = mbpo.make_file_schedule(
        [{"beta": 0.0, "g": 10, "k": 1, "model_trained": 1}] * 4, hc.k_max)
    beta_feats = []

    def source(state, params):
        beta_feats.append(state[FEATURE_NAMES.index("beta")])
        return replay(state, params)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mbpo.run_target_episode(run, source, hc)
    assert beta_feats[1:] == [0.0, 0.0, 0.0]


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



@pytest.mark.parametrize("field", ["batch_size", "eval_episodes", "d_env_capacity",
                                   "n_members", "model_buffer_retain"])
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
