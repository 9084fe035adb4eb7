"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Statistical hours-scale checks (9-11) run in the nightly
job (MBRLAB_NIGHTLY=1); everything else runs per-commit."""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from mbrlab import controller as ctrl
from mbrlab import fvi, harness, mbpo, sac, world_model as wm
from mbrlab.config import HarnessConfig, RunConfig, from_dict
from mbrlab.controller import PpoConfig
from mbrlab.hyper_mdp import HyperMdpConfig
from mbrlab.mbpo import MbpoConfig
from mbrlab.stats import welch_t

from test_harness import PINNED_VECTORS, _welch_reference
from util import (AGENT_SETTINGS, actor_loss, assert_grads_close, critic_loss,
                  finite_difference, joint_log_prob)

ROOT = Path(__file__).resolve().parents[1]


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
                           hidden=(16, 16), **AGENT_SETTINGS)
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
# Criteria 9-11 run the lab's commands: build-baseline once, train-controller
# at seeds 0-5 against that baseline, and eval-controller of the seed-0
# controller at seeds 200-209. Each number is read from a command's summary or
# run directory; the directories stay under $MBRLAB_OUTDIR when it is set.

TRAIN_SEEDS = tuple(range(6))
EVAL_SEEDS = tuple(range(200, 210))


def _desk_config(output_dir):
    return RunConfig(
        env_name="pointmass2d",
        mbpo=MbpoConfig(),
        hyper=HyperMdpConfig(m_train=5, m_eval=15),
        harness=HarnessConfig(output_dir=str(output_dir), n_baseline_seeds=5,
                              n_hyper_episodes=40, episodes_per_round=4),
    )


def _at_seeds(cfg, seeds):
    return dataclasses.replace(cfg, harness=dataclasses.replace(cfg.harness,
                                                                seeds=tuple(seeds)))


def train_controllers(cfg, seeds) -> list:
    """build-baseline, then train-controller at each seed against that
    baseline: the train-controller summaries, in seed order."""
    baseline = harness.cmd_build_baseline(cfg)["baseline_path"]
    return [harness.cmd_train_controller(_at_seeds(cfg, (seed,)), baseline)
            for seed in seeds]


def beta_slopes(eval_dir) -> list:
    """Per controller run in schedule.csv, in seed order, the least-squares
    slope of the scheduled beta over the real step."""
    slopes = []
    rows = harness.read_csv(Path(eval_dir) / "schedule.csv")
    for _, run in itertools.groupby(rows, key=lambda row: row["run_id"]):
        run = list(run)
        steps = np.array([float(row["real_step"]) for row in run])
        betas = np.array([float(row["beta"]) for row in run])
        slopes.append(np.polyfit(steps, betas, 1)[0])
    return slopes


def paired_wins(eval_dir) -> int:
    """Seeds of comparison.csv whose controller final return is at least the
    default's; a seed left out as invalid is no win."""
    rows = harness.read_csv(Path(eval_dir) / "comparison.csv")
    return sum(float(row["improvement"]) >= 0 for row in rows)


@pytest.fixture(scope="module")
def nightly_controllers(nightly_outdir):
    cfg = _desk_config(nightly_outdir)
    return cfg, train_controllers(cfg, TRAIN_SEEDS)


@pytest.fixture(scope="module")
def nightly_evaluation(nightly_controllers):
    cfg, trained = nightly_controllers
    return harness.cmd_eval_controller(_at_seeds(cfg, EVAL_SEEDS),
                                       trained[0]["controller_path"])


@pytest.mark.nightly
def test_criterion_09_controller_improvement(nightly_controllers):
    _, trained = nightly_controllers
    wins = 0
    for seed, info in zip(TRAIN_SEEDS, trained):
        phases = info["phase_means"]
        if phases[-1] >= phases[0]:
            wins += 1
        print(f"  seed {seed}: phases {np.round(phases, 3)} in {info['directory']}", flush=True)
    _report(9, f"controller improvement ({wins}/{len(trained)} seeds)", wins >= 4)


@pytest.mark.nightly
def test_criterion_10_schedule_shape(nightly_evaluation):
    positive = sum(slope > 0 for slope in beta_slopes(nightly_evaluation["directory"]))
    _report(10, f"schedule shape (positive beta slope in {positive}/{len(EVAL_SEEDS)} seeds)",
            positive > 5)


@pytest.mark.nightly
def test_criterion_11_controller_vs_default(nightly_evaluation):
    directory = Path(nightly_evaluation["directory"])
    wins = paired_wins(directory)
    report = json.loads((directory / "report.json").read_text())
    if "welch_t" in report:
        print(f"  Welch t={report['welch_t']:.3f} p={report['welch_p']:.4f} "
              f"controller={report['mean_controller']:.1f} "
              f"default={report['mean_default']:.1f} in {directory}", flush=True)
    else:
        print(f"  Welch report unavailable: {report['welch_error']}", flush=True)
    _report(11, f"controller vs default ({wins}/{len(EVAL_SEEDS)} paired seeds)", wins >= 6)


def test_nightly_chain_and_readers_at_smoke_size(tmp_path):
    # criteria 9-11's commands and readers on the smoke config with 2 training
    # and 2 evaluation seeds, so that a change breaking them fails per commit
    cfg = from_dict(json.loads((ROOT / "configs" / "smoke.json").read_text()))
    cfg.hyper.m_train = cfg.hyper.m_eval = 1  # episodes per run: ~5 s for the chain
    cfg.harness.output_dir = str(tmp_path)
    cfg.harness.n_hyper_episodes = 5  # one per phase
    trained = train_controllers(cfg, (0, 1))
    assert [len(info["phase_means"]) for info in trained] == [5, 5]
    assert np.isfinite([info["phase_means"] for info in trained]).all()
    info = harness.cmd_eval_controller(_at_seeds(cfg, (200, 201)),
                                       trained[0]["controller_path"])
    assert info["config_match"] is True and not info["invalid"]
    slopes = beta_slopes(info["directory"])
    assert len(slopes) == 2 and np.isfinite(slopes).all()
    assert paired_wins(info["directory"]) == round(info["win_fraction"] * 2)
