import hashlib
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from dataclasses import replace
from scipy.special import erf

from mbrlab import fvi, workers

from util import greedy_actions


def _const_mdp(c=0.5, gamma=0.9):
    return fvi.FviMdp(
        name="const", dim=1, actions=0.05 * np.array([[-1.0], [0.0], [1.0]]),
        gamma=gamma, r_max=max(c, 1e-9),
        reward_fn=lambda s, a: np.full(np.atleast_2d(s).shape[0], c),
    )


# ------------------------------------------------------------------ exact VI

def test_exact_vi_constant_reward_geometric_series():
    mdp = _const_mdp(c=0.5, gamma=0.9)
    oracle = fvi.exact_vi(mdp, fine_grid_size=64, tol=1e-10)
    assert np.allclose(oracle.value_fn.values, 0.5 / (1 - 0.9), atol=1e-7)


def test_exact_vi_gamma_zero_is_myopic():
    mdp = replace(fvi.line_world(), gamma=1e-12)  # gamma must be < 1; ~0
    oracle = fvi.exact_vi(mdp, fine_grid_size=128, tol=1e-13)
    grid = np.linspace(0, 1, 128)[:, None]
    best_r = np.max([mdp.reward(grid, a) for a in range(3)], axis=0)
    assert np.allclose(oracle.value_fn(grid), best_r, atol=1e-6)


def test_exact_vi_lineworld_peak_dominates_far_end():
    oracle = fvi.exact_vi(fvi.line_world())
    v = oracle.value_fn
    assert v(np.array([[0.8]]))[0] > v(np.array([[0.05]]))[0]


# --------------------------------------------------------------- half-normal

def test_half_normal_sigma_zero():
    draws = fvi.half_normal(0.0, np.random.default_rng(0), size=1000)
    assert np.all(draws == 0.0)


def test_half_normal_mean():
    draws = fvi.half_normal(2.0, np.random.default_rng(1), size=1_000_000)
    expect = 2.0 * np.sqrt(2.0 / np.pi)
    assert abs(draws.mean() - expect) / expect < 0.02


def test_half_normal_cdf_at_sigma():
    draws = fvi.half_normal(1.5, np.random.default_rng(2), size=1_000_000)
    frac = (draws <= 1.5).mean()
    expect = erf(1.0 / np.sqrt(2.0))  # 2*Phi(1) - 1 ~ 0.6827
    assert abs(frac - expect) < 0.01


# -------------------------------------------------------------------- backup

def test_backup_beta_one_is_exact_bellman():
    mdp = fvi.line_world()
    v = fvi.ValueFn(1, 32, np.random.default_rng(0).uniform(0, 10, size=32), mdp.v_max)
    states = np.random.default_rng(1).uniform(size=(50, 1))
    targets = fvi.beta_mixture_backup(v, states, mdp, 0.3, 1.0, np.random.default_rng(2))
    expect = np.max([mdp.reward(states, a) + mdp.gamma * v(mdp.transition(states, a))
                     for a in range(3)], axis=0)
    assert np.array_equal(targets, np.clip(expect, 0, mdp.v_max))


def test_backup_sigma_zero_bit_identical_across_beta():
    mdp = fvi.line_world()
    v = fvi.ValueFn(1, 32, np.random.default_rng(3).uniform(0, 10, size=32), mdp.v_max)
    states = np.random.default_rng(4).uniform(size=(64, 1))
    outs = [fvi.beta_mixture_backup(v, states, mdp, 0.0, b, np.random.default_rng(9))
            for b in (0.0, 0.3, 1.0)]
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[1], outs[2])


def test_backup_computes_true_next_states_once_per_action(monkeypatch):
    mdp = fvi.grid_world_2d()
    v = fvi.ValueFn(2, 8, np.random.default_rng(10).uniform(0, 10, size=64), mdp.v_max)
    states = np.random.default_rng(11).uniform(size=(30, 2))
    calls = []
    real_transition = fvi.FviMdp.transition

    def counting(self, s, a_idx):
        calls.append(a_idx)
        return real_transition(self, s, a_idx)

    monkeypatch.setattr(fvi.FviMdp, "transition", counting)
    fvi.beta_mixture_backup(v, states, mdp, 0.2, 0.3, np.random.default_rng(12))
    # the corrupted model displaces the stacked true next states in place of
    # recomputing them
    assert calls == list(range(mdp.n_actions))


def test_backup_gamma_zero_is_reward_max():
    mdp = replace(fvi.line_world(), gamma=0.0)
    v = fvi.ValueFn(1, 16, np.ones(16) * 5.0, mdp.v_max if mdp.gamma else 1.0)
    states = np.random.default_rng(5).uniform(size=(40, 1))
    targets = fvi.beta_mixture_backup(v, states, mdp, 0.5, 0.3, np.random.default_rng(6))
    expect = np.max([mdp.reward(states, a) for a in range(3)], axis=0)
    assert np.allclose(targets, np.clip(expect, 0, v.v_max))


# ----------------------------------------------------------------------- fit

def test_fit_recovers_in_class_function():
    prev = fvi.ValueFn.zeros(1, 16, 20.0)
    truth = fvi.ValueFn(1, 16, np.random.default_rng(7).uniform(2, 18, size=16), 20.0)
    states = np.random.default_rng(8).uniform(size=(4096, 1))
    fitted = fvi.fit_value(states, truth(states), prev, p=2.0)
    assert np.max(np.abs(fitted.values - truth.values)) < 1e-8


def test_fit_single_sample_moves_only_supporting_knots():
    prev = fvi.ValueFn(1, 11, np.full(11, 3.0), 20.0)
    s = np.array([[0.52]])  # between knots 5 (0.5) and 6 (0.6)
    fitted = fvi.fit_value(s, np.array([7.0]), prev, p=2.0)
    changed = np.where(fitted.values != prev.values)[0]
    assert set(changed) <= {5, 6}


def test_fit_is_argmin_on_training_objective():
    prev = fvi.ValueFn(1, 16, np.random.default_rng(9).uniform(0, 10, size=16), 20.0)
    states = np.random.default_rng(10).uniform(size=(200, 1))
    targets = np.random.default_rng(11).uniform(0, 18, size=200)
    fitted = fvi.fit_value(states, targets, prev, p=2.0)
    obj_new = ((fitted(states) - targets) ** 2).sum()
    obj_old = ((prev(states) - targets) ** 2).sum()
    assert obj_new <= obj_old + 1e-9


def test_fit_p1_robust_to_outlier():
    prev = fvi.ValueFn.zeros(1, 8, 20.0)
    states = np.concatenate([np.random.default_rng(12).uniform(size=(200, 1))])
    targets = np.full(200, 5.0)
    targets[0] = 19.0  # single outlier
    fit1 = fvi.fit_value(states, targets, prev, p=1.0)
    fit2 = fvi.fit_value(states, targets, prev, p=2.0)
    # L1 fit hugs the median, L2 chases the outlier
    assert abs(fit1(np.array([[0.5]]))[0] - 5.0) <= abs(fit2(np.array([[0.5]]))[0] - 5.0)


def test_value_clipping_invariant():
    prev = fvi.ValueFn.zeros(1, 16, 10.0)
    states = np.random.default_rng(13).uniform(size=(100, 1))
    targets = np.random.default_rng(14).uniform(-50, 50, size=100)
    fitted = fvi.fit_value(states, targets, prev, p=2.0)
    grid = np.random.default_rng(15).uniform(size=(1000, 1))
    vals = fitted(grid)
    assert np.all(vals >= 0.0) and np.all(vals <= 10.0)


# -------------------------------------------------------------------- run_fvi

def test_run_fvi_k0_is_myopic():
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp)
    res = fvi.run_fvi(mdp, fvi.FviConfig(iterations=0, n_states=64, seed=0), oracle)
    assert np.all(res.value_fn.values == 0.0)
    states = np.random.default_rng(16).uniform(size=(20, 1))
    acts = greedy_actions(mdp, res.value_fn, states)
    myopic = np.argmax([mdp.reward(states, a) for a in range(3)], axis=0)
    assert np.array_equal(acts, myopic)


def test_run_fvi_seed_determinism():
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp)
    cfg = fvi.FviConfig(beta=0.4, sigma=0.1, n_states=256, iterations=10, seed=3)
    d1 = fvi.run_fvi(mdp, cfg, oracle).discrepancy
    d2 = fvi.run_fvi(mdp, cfg, oracle).discrepancy
    assert d1 == d2


def test_run_fvi_sigma_zero_bit_identity_across_beta():
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp)
    discs = []
    for beta in (0.05, 0.2, 0.7, 1.0):
        cfg = fvi.FviConfig(beta=beta, sigma=0.0, n_states=256, iterations=15,
                            grid_size=32, seed=11)
        discs.append(fvi.run_fvi(mdp, cfg, oracle).discrepancy)
    assert all(d == discs[0] for d in discs)


def test_run_fvi_oracle_consistency_lineworld():
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp)
    cfg = fvi.FviConfig(beta=1.0, n_states=4096, iterations=60, grid_size=64, seed=1)
    res = fvi.run_fvi(mdp, cfg, oracle)
    assert res.discrepancy < 0.05 * mdp.v_max


def test_monotone_sampling_benefit_at_beta_one():
    # mean discrepancy non-increasing over N in {64, 256, 1024}; 20-seed
    # means, allowing one inversion within one std
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp)
    means, stds = [], []
    for n in (64, 256, 1024):
        d = [fvi.run_fvi(mdp, fvi.FviConfig(beta=1.0, n_states=n, iterations=40,
                                            seed=s), oracle).discrepancy
             for s in range(20)]
        means.append(np.mean(d))
        stds.append(np.std(d))
    inversions = [(means[i + 1] - means[i], stds[i]) for i in range(2)
                  if means[i + 1] > means[i]]
    assert len(inversions) <= 1
    for gap, std in inversions:
        assert gap <= std


# ---------------------------------------------------------------- beta sweep

def test_states_per_iteration_inverts_n_real():
    assert fvi.states_per_iteration(1024, 1.0, 3) == 341
    assert fvi.states_per_iteration(1024, 0.05, 3) == 6827
    assert fvi.states_per_iteration(1, 1.0, 3) == 1


def test_beta_sweep_row_count_and_schema():
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp)
    out = fvi.beta_sweep(mdp, [0.5, 1.0], [64, 128], sigma=0.0, iterations=3,
                         seeds=range(2), base=fvi.FviConfig(grid_size=16, n_eval=32),
                         oracle=oracle, n_bootstrap=10)
    assert len(out["rows"]) == 2 * 2 * 2
    assert set(out["rows"][0]) == {"beta", "n_real", "sigma", "iterations",
                                   "seed", "discrepancy"}
    assert len(out["argmin_beta"]) == 2
    assert 0.0 <= out["bootstrap_monotone_frac"] <= 1.0



@pytest.mark.parametrize("sweep_args, bad", [
    ({"beta_grid": [0.5, 0.0]}, "beta 0.0"),
    ({"beta_grid": [0.5, 1.5]}, "beta 1.5"),
    ({"beta_grid": [0.5, -0.1]}, "beta -0.1"),
    ({"n_real_grid": [64, 0]}, "N_real 0"),
    ({"seeds": []}, "no seeds"),
    ({"n_bootstrap": 0}, "n_bootstrap 0"),
    ({"base": fvi.FviConfig(p=3.0)}, "p 3.0"),
    ({"base": fvi.FviConfig(grid_size=1)}, "grid_size 1"),
    ({"base": fvi.FviConfig(n_eval=0)}, "n_eval 0"),
], ids=["beta-zero", "beta-above-one", "beta-negative", "n-real-zero", "no-seeds",
        "no-bootstrap", "p-three", "grid-size-one", "n-eval-zero"])
def test_beta_sweep_checks_its_grids_before_any_work(monkeypatch, sweep_args, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran before checking its grids")

    monkeypatch.setattr(fvi, "exact_vi", no_work)
    monkeypatch.setattr(fvi, "_fit_and_score", no_work)
    monkeypatch.setattr(fvi, "_oracle_scores", no_work)
    kwargs = {"beta_grid": [0.5, 1.0], "n_real_grid": [64], "sigma": 0.0,
              "iterations": 3, "seeds": [0], "base": fvi.FviConfig(),
              "oracle": object(), "n_bootstrap": 5, **sweep_args}  # oracle never reached
    with pytest.raises(ValueError, match=bad):
        fvi.beta_sweep(fvi.line_world(), **kwargs)


# ----------------------------------------------------------------- histogram

def test_error_histogram_sums_to_one_and_ks():
    out = fvi.error_histogram_check(1.0, 1_000_000, 50, np.random.default_rng(0))
    assert out["freqs"].sum() == pytest.approx(1.0, abs=1e-12)
    assert out["ks_distance"] < 0.005


def test_error_histogram_sigma_zero_all_mass_at_zero():
    out = fvi.error_histogram_check(0.0, 1000, 10, np.random.default_rng(1))
    assert out["freqs"][0] == 1.0
    assert out["ks_distance"] == 0.0


def test_grid_world_2d_machinery():
    mdp = fvi.grid_world_2d()
    oracle = fvi.exact_vi(mdp, fine_grid_size=96, tol=1e-7, n_eval=128)
    # the reward bump's neighborhood dominates the far corner
    assert oracle.value_fn(np.array([[0.7, 0.3]]))[0] > \
        oracle.value_fn(np.array([[0.05, 0.95]]))[0]
    cfg = fvi.FviConfig(beta=1.0, n_states=2048, iterations=30, grid_size=24,
                        n_eval=128, seed=0)
    res = fvi.run_fvi(mdp, cfg, oracle)
    assert res.discrepancy < 0.1 * mdp.v_max


def test_fit_value_2d_recovery():
    prev = fvi.ValueFn.zeros(2, 8, 20.0)
    truth = fvi.ValueFn(2, 8, np.random.default_rng(20).uniform(2, 18, size=64), 20.0)
    states = np.random.default_rng(21).uniform(size=(8192, 2))
    fitted = fvi.fit_value(states, truth(states), prev, p=2.0)
    assert np.max(np.abs(fitted.values - truth.values)) < 1e-7


# ------------------------------------------------------------- pinned bits
# Reference outputs as float.hex strings (and sha256 of knot arrays): any change
# to the order of the arithmetic shows here. Recorded with numpy 2.4 on
# OpenBLAS; another LAPACK may round np.linalg.solve differently.

def _sha(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def test_beta_sweep_pinned_bits():
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp, fine_grid_size=96, n_eval=128)
    assert oracle.greedy_return.hex() == "0x1.fdcda3934d6e4p+3"
    assert _sha(oracle.value_fn.values) == \
        "7174ef2b9a7cb2326d9a39e4af9e37131f6acce647ee0316691d38f09784513b"
    out = fvi.beta_sweep(mdp, [0.2, 1.0], [256, 1024], sigma=0.05, iterations=10,
                         seeds=[0, 1], base=fvi.FviConfig(grid_size=48, n_eval=128),
                         oracle=oracle, n_bootstrap=20)
    assert [row["discrepancy"].hex() for row in out["rows"]] == [
        "0x1.ccb7d236a23c2p+0", "0x1.cd97322480e6dp+1",
        "0x1.678105f7e73f6p+2", "0x1.2300b24d63c13p+3",
        "0x1.7353c1b2b8e32p-4", "0x1.5c437f524c08bp-4",
        "0x1.d74199e213687p-5", "0x1.4b9904cb91559p-4"]
    assert out["argmin_beta"] == [0.2, 1.0]
    assert out["bootstrap_monotone_frac"] == 1.0


def test_grid_world_run_fvi_pinned_bits():
    mdp = fvi.grid_world_2d()
    oracle = fvi.exact_vi(mdp, fine_grid_size=48, tol=1e-7, n_eval=64)
    assert oracle.greedy_return.hex() == "0x1.9a4a7b8402766p+3"
    assert _sha(oracle.value_fn.values) == \
        "f77eb0e9f9bce0d0098a80bb1c4732f74c4fc9c862b0c49c783fda2db284acbf"
    cfg = fvi.FviConfig(beta=0.5, sigma=0.05, n_states=512, iterations=8,
                        grid_size=16, n_eval=64, seed=2)
    res = fvi.run_fvi(mdp, cfg, oracle)
    assert res.discrepancy.hex() == "0x1.6e347f5bd296dp+3"
    assert _sha(res.value_fn.values) == \
        "c72fc5063eb8c8de13b2c6bb048ee2211bb08b7f6d18d57e9368dce6e69d9406"


def test_p1_fit_pinned_bits():
    prev = fvi.ValueFn.zeros(1, 12, 20.0)
    states = np.random.default_rng(30).uniform(size=(300, 1))
    targets = np.random.default_rng(31).uniform(0, 18, size=300)
    fitted = fvi.fit_value(states, targets, prev, p=1.0)
    assert _sha(fitted.values) == \
        "919b3a07bbaa32b7561b4fecf7a22b3590e02d495227e294b2dbe57f9eaf7884"
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp, fine_grid_size=96, n_eval=128)
    cfg = fvi.FviConfig(beta=0.7, sigma=0.05, n_states=128, iterations=5,
                        grid_size=16, n_eval=64, p=1.0, seed=4)
    res = fvi.run_fvi(mdp, cfg, oracle)
    assert res.discrepancy.hex() == "0x1.4ca8ca4a01adcp+1"
    assert _sha(res.value_fn.values) == \
        "72abf3e02bd684adb572e557342ad54435c62c334ed7e7d0a66e7f11c7063e2e"


def test_run_fvi_above_the_backup_block_pinned_bits():
    # 4500 states per iteration: two scoring blocks of the backup plus a ragged 404
    assert 4500 // fvi.BACKUP_BLOCK == 2 and 4500 % fvi.BACKUP_BLOCK
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp, fine_grid_size=96, n_eval=128)
    cfg = fvi.FviConfig(beta=0.4, sigma=0.05, n_states=4500, iterations=6,
                        grid_size=48, n_eval=128, seed=3)
    res = fvi.run_fvi(mdp, cfg, oracle)
    assert res.discrepancy.hex() == "0x1.66a5679b6e8dep-4"
    assert _sha(res.value_fn.values) == \
        "b9cb8ef5c8f412938c030b0fea1da2c2d951a563324be88c9473850305352251"
    mdp = fvi.grid_world_2d()
    oracle = fvi.exact_vi(mdp, fine_grid_size=48, tol=1e-7, n_eval=64)
    cfg = fvi.FviConfig(beta=0.6, sigma=0.1, n_states=4500, iterations=4,
                        grid_size=16, n_eval=64, seed=5)
    res = fvi.run_fvi(mdp, cfg, oracle)
    assert res.discrepancy.hex() == "0x1.1f95bf0855530p+2"
    assert _sha(res.value_fn.values) == \
        "b34f72a9793abe5097e5943f351331e2f6b891ec1eb4505ce614351ae5739dab"


def _reference_value(value_fn, states):
    """Interpolation as one (N, 2^d) product summed over corners."""
    idx, wgt = value_fn.basis(states)
    return (value_fn.values[idx] * wgt).sum(axis=1)


def _reference_backup(value_fn, states, mdp, sigma, beta, rng):
    """The unblocked backup: every (action, state) scored in one lookahead."""
    n = states.shape[0]
    rewards = np.stack([mdp.reward(states, a) for a in range(mdp.n_actions)])
    nexts = np.concatenate([mdp.transition(states, a) for a in range(mdp.n_actions)])
    for slab in np.split(nexts, mdp.n_actions):
        use_model = rng.uniform(size=n) >= beta
        slab[use_model] = fvi.corrupt(slab, sigma, rng)[use_model]
    scores = rewards + mdp.gamma * _reference_value(value_fn, nexts).reshape(rewards.shape)
    return np.clip(scores.max(axis=0), 0.0, value_fn.v_max)


@pytest.mark.parametrize("mdp_fn,grid_size", [(fvi.line_world, 48), (fvi.grid_world_2d, 12)])
def test_blocked_backup_and_interpolation_match_unblocked_reference(mdp_fn, grid_size):
    mdp = mdp_fn()
    n = 2 * fvi.BACKUP_BLOCK + 777  # two full blocks and a ragged one
    v = fvi.ValueFn(mdp.dim, grid_size, np.random.default_rng(50).uniform(
        0, mdp.v_max, size=grid_size ** mdp.dim), mdp.v_max)
    states = np.random.default_rng(51).uniform(size=(n, mdp.dim))
    rngs = [np.random.default_rng(52), np.random.default_rng(52)]
    got = fvi.beta_mixture_backup(v, states, mdp, 0.2, 0.4, rngs[0])
    assert np.array_equal(got, _reference_backup(v, states, mdp, 0.2, 0.4, rngs[1]))
    assert rngs[0].uniform() == rngs[1].uniform()  # the same draws were consumed
    assert (got > 0.0).all() and np.unique(got).size > n // 2
    off_box = np.random.default_rng(53).uniform(-0.3, 1.3, size=(n, mdp.dim))
    for s in (states, off_box):
        assert np.array_equal(v(s), _reference_value(v, s))


# ------------------------------------------------------- sweep and basis shape

def test_beta_sweep_scores_oracle_once_per_seed(monkeypatch):
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp, fine_grid_size=64, n_eval=32)
    base = fvi.FviConfig(grid_size=16, n_eval=32)
    oracle_calls = []
    real_policy_return = fvi.policy_return

    def counting(mdp_, value_fn, states):
        # cells may run in forked workers, whose appends the test never sees:
        # a cell that scores the oracle raises there, and surfaces here
        if value_fn is oracle.value_fn:
            if multiprocessing.parent_process() is not None:
                raise AssertionError("a sweep cell scored the oracle")
            oracle_calls.append(states.shape[0])
        return real_policy_return(mdp_, value_fn, states)

    monkeypatch.setattr(fvi, "policy_return", counting)
    sweeps = [fvi.beta_sweep(mdp, [0.5, 1.0], [64, 128], sigma=0.1, iterations=3,
                             seeds=[3, 5, 7], base=base, oracle=oracle, n_bootstrap=5)
              for _ in range(2)]
    # 3 oracle scorings per sweep, all in this process; nothing carries over
    assert oracle_calls == [32] * (2 * 3)
    assert sweeps[0]["rows"] == sweeps[1]["rows"]
    for row in sweeps[0]["rows"]:
        cfg = replace(base, beta=row["beta"], sigma=row["sigma"], seed=row["seed"],
                      iterations=row["iterations"],
                      n_states=fvi.states_per_iteration(row["n_real"], row["beta"], 3))
        assert fvi.run_fvi(mdp, cfg, oracle).discrepancy == row["discrepancy"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable cores for worker processes")
def test_beta_sweep_on_workers_equals_inline_sweep(monkeypatch):
    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp, fine_grid_size=96, n_eval=64)

    def sweep():
        return fvi.beta_sweep(mdp, [0.1, 0.4, 1.0], [128, 512], sigma=0.05,
                              iterations=6, seeds=[0, 1, 2],
                              base=fvi.FviConfig(grid_size=24, n_eval=64),
                              oracle=oracle, n_bootstrap=20)

    cells_in = []
    real_fit_and_score = fvi._fit_and_score

    def noting_pid(*args):
        cells_in.append(os.getpid())
        return real_fit_and_score(*args)

    monkeypatch.setattr(fvi, "_fit_and_score", noting_pid)
    on_workers = sweep()
    assert cells_in == []  # every cell ran in a worker
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})
    inline = sweep()
    assert cells_in == [os.getpid()] * 18
    assert [r["discrepancy"].hex() for r in on_workers["rows"]] == \
        [r["discrepancy"].hex() for r in inline["rows"]]
    assert on_workers["rows"] == inline["rows"]
    for key in ("mean", "std"):
        assert on_workers[key].tobytes() == inline[key].tobytes()
    assert on_workers["argmin_beta"] == inline["argmin_beta"]
    assert on_workers["bootstrap_monotone_frac"] == inline["bootstrap_monotone_frac"]


@pytest.mark.parametrize("mdp_fn", [fvi.line_world, fvi.grid_world_2d])
def test_mdp_pickles_with_bit_equal_rewards(mdp_fn):
    mdp = mdp_fn()
    copy = pickle.loads(pickle.dumps(mdp))
    states = np.random.default_rng(60).uniform(size=(500, mdp.dim))
    for a in range(mdp.n_actions):
        assert copy.reward(states, a).tobytes() == mdp.reward(states, a).tobytes()
    assert copy.actions.tobytes() == mdp.actions.tobytes()


def _reference_basis(states, grid_size):
    """Per-state, per-corner loop over the multilinear basis."""
    g = grid_size
    n, dim = states.shape
    idx = np.zeros((n, 1 << dim), dtype=np.int64)
    wgt = np.zeros((n, 1 << dim))
    for i in range(n):
        for c in range(1 << dim):
            flat, w = 0, 1.0
            for d in range(dim):
                x = float(states[i, d]) * (g - 1)
                cell = min(max(int(np.floor(x)), 0), g - 2)
                frac = x - cell
                hi = (c >> d) & 1
                flat = flat * g + cell + hi
                w *= frac if hi else 1.0 - frac
            idx[i, c] = flat
            wgt[i, c] = w
    return idx, wgt


@pytest.mark.parametrize("dim,grid_size", [(1, 7), (2, 5)])
def test_basis_matches_per_corner_reference(dim, grid_size):
    states = np.random.default_rng(40).uniform(-0.3, 1.3, size=(200, dim))
    states[:4] = [[0.0] * dim, [1.0] * dim, [0.5] * dim, [-1e-3] * dim]
    vf = fvi.ValueFn.zeros(dim, grid_size, 1.0)
    idx, wgt = vf.basis(states)
    ref_idx, ref_wgt = _reference_basis(states, grid_size)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(wgt, ref_wgt)
    assert np.allclose(wgt.sum(axis=1), 1.0)



def _reference_policy_return(mdp, value_fn, states, horizon):
    """Per-step, per-action loop: greedy lookahead, then masked reward and move."""
    s = np.asarray(states, dtype=np.float64).copy()
    returns = np.zeros(s.shape[0])
    disc = 1.0
    for _ in range(horizon):
        scores = np.stack([mdp.reward(s, a) + mdp.gamma * value_fn(mdp.transition(s, a))
                           for a in range(mdp.n_actions)])
        acts = scores.argmax(axis=0)
        r = np.empty(s.shape[0])
        nxt = np.empty_like(s)
        for a in range(mdp.n_actions):
            mask = acts == a
            r[mask] = mdp.reward(s[mask], a)
            nxt[mask] = mdp.transition(s[mask], a)
        returns += disc * r
        disc *= mdp.gamma
        s = nxt
    return returns


@pytest.mark.parametrize("mdp_fn,grid_size", [(fvi.line_world, 48), (fvi.grid_world_2d, 12)])
def test_policy_return_matches_stepwise_reference(mdp_fn, grid_size):
    # greedy states climb V until none moves (by step 17 for the bump on
    # LineWorld); the truncation horizon runs past that
    mdp = mdp_fn()
    n_knots = grid_size ** mdp.dim
    bump = fvi.ValueFn.zeros(mdp.dim, grid_size, mdp.v_max)
    axes = [np.linspace(0.0, 1.0, grid_size)] * mdp.dim
    knots = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, mdp.dim)
    bump.values = mdp.reward(knots, 0) * mdp.v_max
    noisy = fvi.ValueFn(mdp.dim, grid_size,
                        np.random.default_rng(42).uniform(0, mdp.v_max, size=n_knots), mdp.v_max)
    states = np.random.default_rng(43).uniform(size=(64, mdp.dim))
    horizon = fvi._truncation_horizon(mdp)
    for vf in (bump, noisy):
        got = fvi.policy_return(mdp, vf, states)
        assert np.array_equal(got, _reference_policy_return(mdp, vf, states, horizon))


# -------------------------------------------------------- non-finite inputs

def test_exact_vi_non_finite_backup_raises():
    mdp = fvi.FviMdp(
        name="nan-reward", dim=1, actions=0.05 * np.array([[-1.0], [0.0], [1.0]]),
        gamma=0.9, r_max=1.0,
        reward_fn=lambda s, a: np.where(s[:, 0] > 0.5, np.nan, 0.5))
    with pytest.raises(FloatingPointError, match="sweep 0"):
        fvi.exact_vi(mdp, fine_grid_size=32)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_fit_value_rejects_non_finite_input(p):
    prev = fvi.ValueFn.zeros(1, 8, 20.0)
    states = np.random.default_rng(41).uniform(size=(50, 1))
    targets = np.full(50, 3.0)
    bad_targets = targets.copy()
    bad_targets[7] = np.nan
    with pytest.raises(FloatingPointError):
        fvi.fit_value(states, bad_targets, prev, p=p)
    bad_states = states.copy()
    bad_states[3, 0] = np.inf
    with pytest.raises(FloatingPointError):
        fvi.fit_value(bad_states, targets, prev, p=p)


