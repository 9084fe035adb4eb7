"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Statistical hours-scale checks (9-11) run in the nightly
job (MBRLAB_NIGHTLY=1); everything else runs per-commit."""

import functools
import itertools

import numpy as np
import pytest

from mbrlab import controller as ctrl
from mbrlab import fvi, harness, mbpo, nets, sac, workers, world_model as wm
from mbrlab.buffers import TransitionBuffer
from mbrlab.config import HarnessConfig, RunConfig
from mbrlab.controller import BaselineCurve, PpoConfig
from mbrlab.hyper_mdp import HyperMdpConfig
from mbrlab.mbpo import MbpoConfig
from mbrlab.stats import welch_t

from test_harness import PINNED_VECTORS, _welch_reference
from util import (actor_loss, assert_grads_close, critic_loss, finite_difference,
                  joint_log_prob)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def lineworld_oracle():
    mdp = fvi.line_world()
    return mdp, fvi.exact_vi(mdp)


def test_criterion_01_theory_trend(lineworld_oracle):
    # argmin beta non-decreasing in N_real in >= 15 of 20 bootstrap draws
    mdp, oracle = lineworld_oracle
    out = fvi.beta_sweep(
        mdp, [0.05, 0.1, 0.2, 0.4, 0.7, 1.0], [256, 1024, 4096],
        sigma=0.05, iterations=40, seeds=range(20),
        base=fvi.FviConfig(grid_size=48, n_eval=512),
        oracle=oracle, n_bootstrap=20, bootstrap_seed=0)
    monotone = round(out["bootstrap_monotone_frac"] * 20)
    _report(1, f"theory-trend (monotone {monotone}/20, argmin {out['argmin_beta']})",
            monotone >= 15)


def test_criterion_02_exact_model_degeneracy(lineworld_oracle):
    mdp, oracle = lineworld_oracle
    reference = None
    ok = True
    for beta in (0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
        discs = []
        for seed in (0, 1, 2):
            cfg = fvi.FviConfig(beta=beta, sigma=0.0, n_states=512,
                                iterations=20, grid_size=48, seed=seed)
            discs.append(fvi.run_fvi(mdp, cfg, oracle).discrepancy)
        if reference is None:
            reference = discs
        ok = ok and discs == reference
    _report(2, "exact-model degeneracy (bit-identical across beta)", ok)


def test_criterion_03_oracle_consistency(lineworld_oracle):
    mdp, oracle = lineworld_oracle
    cfg = fvi.FviConfig(beta=1.0, n_states=4096, iterations=60, grid_size=64, seed=0)
    d = fvi.run_fvi(mdp, cfg, oracle).discrepancy
    _report(3, f"oracle consistency (Dhat={d:.4f} < 1.0)", d < 0.05 * mdp.v_max)


def test_criterion_04_half_normal_sampler():
    sigma = 0.7
    out = fvi.error_histogram_check(sigma, 1_000_000, 50, np.random.default_rng(0))
    mean_ok = abs(out["mean"] - sigma * np.sqrt(2 / np.pi)) / (sigma * np.sqrt(2 / np.pi)) < 0.02
    ks_ok = out["ks_distance"] < 0.005
    _report(4, f"half-normal sampler (KS={out['ks_distance']:.4f})", mean_ok and ks_ok)


def test_criterion_05_gradient_suite():
    worst = 0.0

    # model NLL (with bound penalty), net <= 3x16
    model = wm.init_ensemble(np.random.default_rng(1), 2, 1, hidden=(16,), n_members=1)
    member = model.members[0]
    x = np.random.default_rng(2).normal(size=(6, 3))
    y = np.random.default_rng(3).normal(size=(6, 3))

    # finite_difference perturbs each flat theta in place; the loss reads it
    def nll_fn(_):
        per, _ = wm._nll_terms(member, x, y)
        return float(per.mean()) + wm.BOUND_PENALTY * float(
            member.max_logvar.sum() - member.min_logvar.sum())

    _, analytic = wm.model_nll_grads(member, x, y)
    worst = max(worst, assert_grads_close([analytic], finite_difference(nll_fn, [member.theta])))

    # SAC critic and actor
    agent = sac.init_agent(np.random.default_rng(4), 3, 2, -np.ones(2), np.ones(2),
                           hidden=(16, 16))
    rngb = np.random.default_rng(5)
    batch = {"s": rngb.normal(size=(5, 3)), "a": rngb.uniform(-1, 1, (5, 2)),
             "r": rngb.normal(size=5), "s2": rngb.normal(size=(5, 3)),
             "done": np.array([False, True, False, False, True])}

    def critic_fn(_):
        return critic_loss(agent, batch, 0.99, np.random.default_rng(6))

    _, (g1, g2) = sac.critic_loss_and_grads(agent, batch, 0.99, np.random.default_rng(6))
    numeric = finite_difference(critic_fn, [agent.critic1.theta, agent.critic2.theta])
    worst = max(worst, assert_grads_close([g1, g2], numeric))

    def actor_fn(_):
        return actor_loss(agent, batch, np.random.default_rng(7))

    _, agrad, _ = sac.actor_loss_and_grads(agent, batch, np.random.default_rng(7))
    numeric = finite_difference(actor_fn, [agent.actor.net.theta])
    worst = max(worst, assert_grads_close([agrad], numeric))

    # PPO surrogate (with entropy bonus)
    pol = ctrl.init_controller(np.random.default_rng(8), hidden=16)
    rngp = np.random.default_rng(9)
    states = rngp.uniform(size=(4, 8))
    idx = np.stack([rngp.integers(0, s, size=4) for s in (3, 2, 3, 3)], axis=1)
    old = joint_log_prob(pol, states, idx) - rngp.uniform(-0.1, 0.1, 4)
    adv = rngp.normal(size=4)
    pcfg = PpoConfig(entropy_coef=0.01)

    def ppo_fn(_):
        return ctrl.ppo_loss_and_grads(pol, states, idx, old, adv, pcfg, pcfg.entropy_coef)[0]

    _, pgrad, _ = ctrl.ppo_loss_and_grads(pol, states, idx, old, adv, pcfg, pcfg.entropy_coef)
    worst = max(worst, assert_grads_close([pgrad], finite_difference(ppo_fn, [pol.net.theta])))

    _report(5, f"gradient suite (worst rel err {worst:.2e} <= 1e-4)", worst <= 1e-4)


def test_criterion_06_degeneracy_chain():
    cfg = MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                     n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=2).for_env("pointmass2d")
    log_default = mbpo.run_default_mbpo("pointmass2d", cfg, hc, 2, seed=100)
    pol = ctrl.init_controller(np.random.default_rng(0), (True,) * 8,
                               head_mask=(False,) * 4)
    traj, log_ctrl = ctrl.run_hyper_episode(pol, "pointmass2d", cfg, hc, seed=100,
                                            n_episodes=hc.m_train)
    ok = (np.array_equal(traj.rewards, np.array(log_default.hyper_rewards))
          and log_ctrl.eval_rows == log_default.eval_rows
          and log_ctrl.schedule_rows == log_default.schedule_rows)
    _report(6, "degeneracy chain (neutral controller == default MBPO)", ok)


def test_criterion_07_advantage_oracle():
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(1000):
        t = int(rng.integers(1, 30))
        r = rng.normal(size=t)
        b = rng.normal(size=t)
        brute = np.empty(t)
        for start in range(t):
            acc = 0.0
            for i in range(t - 1, start - 1, -1):
                acc += r[i] - b[i]
            brute[start] = acc
        ok = ok and np.array_equal(ctrl.advantage(r, b), brute)
    _report(7, "advantage suffix-sum == O(T^2) brute force (1000 sequences)", ok)


def test_criterion_08_ppo_clipping_property():
    pol = ctrl.init_controller(np.random.default_rng(11), hidden=16)
    rng = np.random.default_rng(12)
    pcfg = PpoConfig(entropy_coef=0.0)
    ok = True
    checked = 0
    for _ in range(20):
        n = 500
        states = rng.uniform(size=(n, 8))
        idx = np.stack([rng.integers(0, s, size=n) for s in (3, 2, 3, 3)], axis=1)
        logp = joint_log_prob(pol, states, idx)
        sign = rng.integers(0, 2, size=n) * 2 - 1  # +1: A>0, r>1+eps; -1: mirrored
        # |log ratio| > -ln(1-eps) = 0.2231 puts every sample in the clipped
        # regime on both sides
        shift = rng.uniform(0.25, 2.0, size=n)
        old = logp - sign * shift
        adv = sign * rng.uniform(0.5, 3.0, size=n)
        _, grads, diag = ctrl.ppo_loss_and_grads(pol, states, idx, old, adv, pcfg,
                                                 pcfg.entropy_coef)
        ok = ok and bool(np.all(grads == 0.0))
        ok = ok and diag["clip_fraction"] == 1.0
        checked += n
    _report(8, f"PPO clipping kills gradients ({checked} samples)", ok)


def test_criterion_12_welch_oracle():
    ok = True
    for xs, ys in PINNED_VECTORS:
        t, p = welch_t(xs, ys)
        t_ref, p_ref = _welch_reference(xs, ys)
        ok = ok and abs(t - t_ref) < 1e-10 and abs(p - p_ref) < 1e-10
    _report(12, "Welch t vs quadrature reference (1e-10)", ok)


# ----------------------------------------------------------- nightly criteria

def _desk_config(tmp_path, seeds):
    return RunConfig(
        env_name="pointmass2d",
        mbpo=MbpoConfig(),
        hyper=HyperMdpConfig(m_train=5, m_eval=15),
        harness=HarnessConfig(seeds=tuple(seeds), output_dir=str(tmp_path),
                              n_baseline_seeds=5, n_hyper_episodes=40,
                              episodes_per_round=4),
    )


@pytest.fixture(scope="module")
def nightly_baseline(tmp_path_factory):
    cfg = _desk_config(tmp_path_factory.mktemp("nightly"), seeds=(0,))
    return cfg, harness.build_baseline(cfg)


@pytest.mark.nightly
def test_criterion_09_controller_improvement(nightly_baseline):
    cfg, baseline = nightly_baseline
    hc = cfg.resolved_hyper()
    wins = 0
    for seed in range(6):
        _, history = ctrl.train_controller(
            cfg.env_name, cfg.mbpo, hc, PpoConfig(), baseline,
            n_hyper_episodes=40, seed=seed, episodes_per_round=4)
        phases = history["phase_means"]
        if phases[-1] >= phases[0]:
            wins += 1
        print(f"  seed {seed}: phases {np.round(phases, 3)}", flush=True)
    _report(9, f"controller improvement ({wins}/6 seeds)", wins >= 4)


def _paired_eval_run(policy, cfg, hc, seed):
    _, log_c = ctrl.run_hyper_episode(policy, cfg.env_name, cfg.mbpo, hc, seed=seed,
                                      n_episodes=hc.m_eval, greedy=True)
    log_d = mbpo.run_default_mbpo(cfg.env_name, cfg.mbpo, hc, hc.m_eval, seed=seed)
    return log_c, log_d


@pytest.fixture(scope="module")
def nightly_eval_runs(nightly_baseline, tmp_path_factory):
    cfg, baseline = nightly_baseline
    hc = cfg.resolved_hyper()
    policy, _ = ctrl.train_controller(cfg.env_name, cfg.mbpo, hc, PpoConfig(),
                                      baseline, n_hyper_episodes=40, seed=0,
                                      episodes_per_round=4)
    return workers.map_units(functools.partial(_paired_eval_run, policy, cfg, hc),
                             [200 + seed for seed in range(10)])


@pytest.mark.nightly
def test_criterion_10_schedule_shape(nightly_eval_runs):
    positive = 0
    for log_c, _ in nightly_eval_runs:
        steps = np.array([r["real_step"] for r in log_c.schedule_rows], dtype=float)
        betas = np.array([r["beta"] for r in log_c.schedule_rows], dtype=float)
        slope = np.polyfit(steps, betas, 1)[0]
        positive += slope > 0
    _report(10, f"schedule shape (positive beta slope in {positive}/10 seeds)",
            positive > 5)


@pytest.mark.nightly
def test_criterion_11_controller_vs_default(nightly_eval_runs):
    finals_c = [lc.eval_rows[-1]["eval_return"] for lc, _ in nightly_eval_runs]
    finals_d = [ld.eval_rows[-1]["eval_return"] for _, ld in nightly_eval_runs]
    wins = sum(c >= d for c, d in zip(finals_c, finals_d))
    try:
        t, p = welch_t(finals_c, finals_d)
        print(f"  Welch t={t:.3f} p={p:.4f} controller={np.mean(finals_c):.1f} "
              f"default={np.mean(finals_d):.1f}", flush=True)
    except ValueError as exc:
        print(f"  Welch report unavailable: {exc}", flush=True)
    _report(11, f"controller vs default ({wins}/10 paired seeds)", wins >= 6)
