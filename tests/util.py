"""Shared test helpers: finite differences, gradient comparison, fault
injection, and the library views that only tests call."""

import hashlib

import numpy as np

from mbrlab import controller, fvi, mbpo, sac

# the SAC settings of the default MbpoConfig, for an agent built outside a run
AGENT_SETTINGS = {name: getattr(mbpo.MbpoConfig(), name) for name in ("lr", "alpha", "polyak")}


def finite_difference(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn(params) w.r.t. every entry.

    params is a list of arrays; returns matching arrays of numeric gradients.
    loss_fn must be a pure function of params (freeze any randomness).
    """
    grads = []
    for i, p in enumerate(params):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_fn(params)
            flat[j] = orig - h
            down = loss_fn(params)
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def crash_hyper_episode_at(monkeypatch, seed, n_real):
    """Make every MBPO run started with `seed` raise a FloatingPointError at
    real step `n_real`; runs at other seeds are left alone. The run is tagged
    where `mbpo.init_run` creates it, so the crash does not depend on the
    order in which runs start, which worker processes do not share."""
    real_init, real_step, tagged = mbpo.init_run, mbpo.mbpo_step, []

    def init_run(env_name, config, hyper_config, run_seed):
        run = real_init(env_name, config, hyper_config, run_seed)
        if run_seed == seed:
            tagged.append(run)
        return run

    def step(run, hyper, train_model_now):
        if run.n_real == n_real and any(run is t for t in tagged):
            raise FloatingPointError(f"injected at step {n_real}")
        return real_step(run, hyper, train_model_now)

    monkeypatch.setattr(mbpo, "init_run", init_run)
    monkeypatch.setattr(mbpo, "mbpo_step", step)


def _nan_reward_row(run):
    run.d_env.r[0] = np.nan


def _non_finite_state(run):
    run.cur_state = np.full_like(run.cur_state, np.nan)


def _inf_max_logvar(run):
    run.model.stack.max_logvar[:] = np.inf


# name -> (fault, the error it ends the run with, that error's message, and
# the real step it is raised at, after one warm 200-step episode)
FAULTS = {
    "nan-reward-row": (_nan_reward_row, "FloatingPointError", "non-finite model NLL", 201),
    "non-finite-state": (_non_finite_state, "EnvDiverged",
                         "pointmass2d: non-finite state [nan nan nan nan]", 200),
    "inf-max-logvar": (_inf_max_logvar, "FloatingPointError", "non-finite model NLL", 201),
}


def inject_fault_after_one_episode(monkeypatch, name) -> list:
    """Apply FAULTS[name] to every MBPO run as its second episode starts;
    returns the list the faulted runs are appended to."""
    fault, real, faulted = FAULTS[name][0], mbpo.run_target_episode, []

    def run_target_episode(run, source, hc):
        if run.episode == 1:
            fault(run)
            faulted.append(run)
        return real(run, source, hc)

    monkeypatch.setattr(mbpo, "run_target_episode", run_target_episode)
    return faulted


def random_policy_columns(env, rng, n):
    """n real steps of a uniformly random policy, resetting at termination,
    as the columns (s, a, r, s2, done) that TransitionBuffer.push_batch takes."""
    rows, s = [], env.reset(rng)
    for _ in range(n):
        a, r, s2, done = env.step(s, rng.uniform(-1, 1, size=env.spec.action_dim))
        rows.append((s, a, r, s2, done))
        s = env.reset(rng) if done else s2
    return tuple(np.array(column) for column in zip(*rows))


def assert_grads_close(analytic, numeric, rtol=1e-4, floor=1e-7):
    """Relative error <= rtol componentwise, with an absolute floor below
    which both gradients count as zero."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        assert a.shape == n.shape
        scale = np.maximum(np.abs(a), np.abs(n))
        mask = scale > floor
        if mask.any():
            rel = np.abs(a - n)[mask] / scale[mask]
            worst = max(worst, float(rel.max()))
    assert worst <= rtol, f"worst relative gradient error {worst:.3e} > {rtol}"
    return worst


def critic_targets(agent, batch, gamma, rng):
    """Bellman targets with a fresh actor sample at s'; no bootstrap on done."""
    return sac._critic_forward(agent, batch, gamma, rng)[0]


def critic_loss(agent, batch, gamma, rng) -> float:
    return sac.critic_loss_and_grads(agent, batch, gamma, rng)[0]


def actor_loss(agent, batch, rng) -> float:
    return sac.actor_loss_and_grads(agent, batch, rng)[0]


def greedy_actions(mdp, value_fn, states):
    """One-step lookahead through the true dynamics."""
    states = np.asarray(states, dtype=np.float64).reshape(-1, mdp.dim)
    return fvi._scores(mdp, value_fn, *fvi._action_stack(mdp, states)).argmax(axis=0)


def agent_fingerprint(run) -> str:
    h = hashlib.sha256()
    for net in (run.agent.actor.net, run.agent.critic1, run.agent.critic2):
        h.update(net.theta.tobytes())
    return h.hexdigest()


def joint_log_prob(policy, states, action_indices):
    """Joint log-prob of recorded head indices (active heads only), batched."""
    tables = controller.head_log_probs(policy, states)
    n = np.atleast_2d(states).shape[0]
    out = np.zeros(n)
    for h, (table, active) in enumerate(zip(tables, policy.head_mask)):
        if active:
            out += table[np.arange(n), action_indices[:, h]]
    return out


def reference_exact_vi(mdp, fine_grid_size=256, tol=1e-9, n_eval=256):
    """`fvi.exact_vi` as a plain loop that looks V up at the next states with
    `fvi._scores` every sweep, finding their knots and weights each time."""
    v = fvi.ValueFn.zeros(mdp.dim, fine_grid_size, mdp.v_max)
    axes = [np.linspace(0.0, 1.0, fine_grid_size)] * mdp.dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, mdp.dim)
    rewards, nexts = fvi._action_stack(mdp, mesh)
    while True:
        backed = fvi._scores(mdp, v, rewards, nexts).max(axis=0)
        delta = np.max(np.abs(backed - v.values))
        v.values = backed
        if delta < tol:
            break
    rho = np.random.default_rng(0).uniform(size=(n_eval, mdp.dim))
    return fvi.ExactOracle(value_fn=v,
                           greedy_return=float(fvi.policy_return(mdp, v, rho).mean()))


def reference_fit_value(states, targets, prev, p=2.0):
    """`fvi.fit_value` as it allocates: a fresh basis, knot-pair array and pair
    weights on every call and every IRLS step."""
    idx, wgt = prev.basis(states)
    n_knots = prev.grid_size ** prev.dim
    idx_c, wgt_c = idx.T, wgt.T
    pairs = (idx_c[:, None, :] * n_knots + idx_c[None, :, :]).ravel()

    def solve_weighted(sample_w):
        sw = sample_w * wgt_c
        a = np.bincount(pairs, (sw[:, None, :] * wgt_c[None, :, :]).ravel(),
                        minlength=n_knots * n_knots).reshape(n_knots, n_knots)
        b = np.bincount(idx_c.ravel(), (sw * targets).ravel(), minlength=n_knots)
        support = np.diag(a) > 0.0
        vals = prev.values.copy()
        sub = a[np.ix_(support, support)]
        sub[np.diag_indices_from(sub)] += 1e-8
        vals[support] = np.linalg.solve(sub, b[support])
        return vals

    vals = solve_weighted(np.ones(states.shape[0]))
    if p == 1.0:
        for _ in range(50):
            resid = np.abs(fvi._interpolate(vals, idx_c, wgt_c) - targets)
            new_vals = solve_weighted(1.0 / np.maximum(resid, 1e-6))
            converged = np.max(np.abs(new_vals - vals)) < 1e-10
            vals = new_vals
            if converged:
                break
    return fvi.ValueFn(prev.dim, prev.grid_size, np.clip(vals, 0.0, prev.v_max), prev.v_max)
