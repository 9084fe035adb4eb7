import copy
import hashlib
import pickle

import numpy as np
import pytest

from mbrlab import sac
from mbrlab import world_model as wm
from mbrlab.buffers import TransitionBuffer

from util import assert_grads_close, finite_difference


def _member(seed=0, in_dim=3, target_dim=2, hidden=(8,)):
    rng = np.random.default_rng(seed)
    model = wm.init_ensemble(rng, state_dim=target_dim - 1, action_dim=in_dim - (target_dim - 1),
                             hidden=hidden, n_members=1)
    return model.members[0]


def _member_with_unit_variance(in_dim, target_dim):
    """A member whose squashed log-variance is ~0 so Sigma = I."""
    m = _member(in_dim=in_dim, target_dim=target_dim)
    m.max_logvar[:] = 50.0
    m.min_logvar[:] = -50.0
    # force raw log-var head output to 0 via zero weights/bias on that slice
    m.net.weights[-1][target_dim:, :] = 0.0
    m.net.biases[-1][target_dim:] = 0.0
    return m


def test_nll_zero_for_exact_prediction_unit_variance():
    m = _member_with_unit_variance(3, 2)
    x = np.random.default_rng(1).normal(size=(5, 3))
    mean, lv, _ = m.heads(x)
    assert np.allclose(lv, 0.0, atol=1e-10)
    assert abs(wm.model_nll(m, x, mean)) < 1e-12


def test_nll_log_det_additivity():
    # doubling one diagonal variance entry with zero error adds log 2
    m = _member_with_unit_variance(3, 2)
    x = np.random.default_rng(2).normal(size=(4, 3))
    mean, _, _ = m.heads(x)
    base = wm.model_nll(m, x, mean)
    m.net.biases[-1][2] = np.log(2.0)  # raw log-var of dim 0 -> log 2
    mean2, lv2, _ = m.heads(x)
    assert np.allclose(lv2[:, 0], np.log(2.0), atol=1e-10)
    assert wm.model_nll(m, x, mean2) - base == pytest.approx(np.log(2.0), abs=1e-10)


def test_nll_matches_independent_gaussian_nll():
    m = _member(seed=3)
    x = np.random.default_rng(4).normal(size=(6, 3))
    y = np.random.default_rng(5).normal(size=(6, 2))
    mean, lv, _ = m.heads(x)
    # independent implementation: diagonal Gaussian NLL without the 2pi constant
    per = ((mean - y) ** 2 / np.exp(lv) + lv).sum(axis=1)
    assert wm.model_nll(m, x, y) == pytest.approx(float(per.mean()), rel=1e-12)


def test_nll_gradients_match_finite_differences():
    m = _member(seed=6, hidden=(8,))
    x = np.random.default_rng(7).normal(size=(5, 3))
    y = np.random.default_rng(8).normal(size=(5, 2))

    def loss_fn(_):  # finite_difference perturbs m.theta in place
        per, _ = wm._nll_terms(m, x, y)
        pen = wm.BOUND_PENALTY * float(m.max_logvar.sum() - m.min_logvar.sum())
        return float(per.mean()) + pen

    _, analytic = wm.model_nll_grads(m, x, y)
    assert analytic.shape == m.theta.shape
    numeric = finite_difference(loss_fn, [m.theta])
    assert_grads_close([analytic], numeric, rtol=1e-4)


def test_member_theta_holds_net_and_bounds():
    m = _member(seed=2, hidden=(8,))
    n = m.net.theta.size
    assert m.theta.shape == (n + 2 * m.target_dim,)
    assert np.array_equal(m.theta, np.concatenate([p.ravel() for p in m.params()]))
    assert np.array_equal(m.theta[n:], [0.5, 0.5, -10.0, -10.0])
    for view in [m.net.theta, m.max_logvar, m.min_logvar, *m.net.params()]:
        assert np.shares_memory(view, m.theta)
    m.theta[n] = 3.0
    assert m.max_logvar[0] == 3.0


def _linear_system_buffer(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    a_mat = np.array([[0.9, 0.1], [-0.05, 0.95]])
    b_mat = np.array([[0.1], [0.05]])
    bias = np.array([0.01, -0.02])
    buf = TransitionBuffer(n, 2, 1)
    s = rng.uniform(-1, 1, size=(n, 2))
    a = rng.uniform(-1, 1, size=(n, 1))
    s2 = s @ a_mat.T + a @ b_mat.T + bias
    r = (s ** 2).sum(axis=1)
    buf.push_batch(s, a, r, s2, np.zeros(n, dtype=bool))
    return buf, (a_mat, b_mat, bias)


def test_train_ensemble_learns_linear_dynamics():
    buf, (a_mat, b_mat, bias) = _linear_system_buffer()
    rng = np.random.default_rng(1)
    model = wm.init_ensemble(rng, 2, 1, hidden=(64, 64), n_members=2)
    cfg = wm.ModelTrainConfig(max_epochs=60, patience=8)
    holdout = wm.train_ensemble(model, buf, cfg, rng)
    assert holdout.shape == (2,)
    test_rng = np.random.default_rng(99)
    s = test_rng.uniform(-1, 1, size=(500, 2))
    a = test_rng.uniform(-1, 1, size=(500, 1))
    true_s2 = s @ a_mat.T + a @ b_mat.T + bias
    # every elite's mean head, which predict draws around
    for m_idx in model.elites:
        mean, _, _ = model.members[m_idx].heads(np.concatenate([s, a], axis=1))
        err = np.linalg.norm(s + mean[:, :-1] - true_s2, axis=1).mean()
        assert err < 0.01


class _FakeEnv:
    def reward(self, s, a):
        return np.zeros(np.atleast_2d(s).shape[0])

    def terminal(self, s):
        s = np.atleast_2d(s)
        return np.zeros(s.shape[0], dtype=bool)


def test_early_stopping_with_frozen_lr_stops_after_patience():
    buf, _ = _linear_system_buffer(n=200)
    rng = np.random.default_rng(2)
    model = wm.init_ensemble(rng, 2, 1, hidden=(8,), n_members=1)
    cfg = wm.ModelTrainConfig(patience=1, max_epochs=50, lr=0.0)
    wm.train_ensemble(model, buf, cfg, rng)
    assert model.last_epochs == [1 + cfg.patience]


def test_single_member_elite_set():
    buf, _ = _linear_system_buffer(n=200)
    rng = np.random.default_rng(3)
    model = wm.init_ensemble(rng, 2, 1, hidden=(8,), n_members=1)
    wm.train_ensemble(model, buf, wm.ModelTrainConfig(max_epochs=2), rng)
    assert model.elites == [0]


def test_train_requires_enough_data():
    buf = TransitionBuffer(10, 2, 1)
    buf.push_batch(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros(1), np.zeros((1, 2)),
                   np.zeros(1, dtype=bool))
    model = wm.init_ensemble(np.random.default_rng(0), 2, 1, hidden=(64, 64), n_members=1)
    with pytest.raises(wm.NotEnoughData):
        wm.train_ensemble(model, buf, wm.ModelTrainConfig(), np.random.default_rng(1))


def test_early_stopping_restores_best_holdout_params():
    buf, _ = _linear_system_buffer(n=1000)
    rng = np.random.default_rng(4)
    model = wm.init_ensemble(rng, 2, 1, hidden=(16,), n_members=1)
    cfg = wm.ModelTrainConfig(max_epochs=30, patience=3)
    holdout = wm.train_ensemble(model, buf, cfg, rng)
    # recompute hold-out loss at the restored parameters; train_ensemble split
    # the hold-out with its own rng, so rebuild it the same way
    assert np.isfinite(holdout[0])


def test_predict_deterministic_and_seeded():
    buf, _ = _linear_system_buffer(n=1000)
    rng = np.random.default_rng(5)
    model = wm.init_ensemble(rng, 2, 1, hidden=(16,), n_members=2)
    wm.train_ensemble(model, buf, wm.ModelTrainConfig(max_epochs=5), rng)
    s, a = np.zeros((3, 2)), np.zeros((3, 1))
    out1 = wm.predict(model, s, a, np.random.default_rng(7), _FakeEnv())
    out2 = wm.predict(model, s, a, np.random.default_rng(7), _FakeEnv())
    assert np.array_equal(out1[0], out2[0])
    # with variances pushed to the floor, each row collapses onto the mean
    # head of the elite it picked first from the stream
    for member in model.members:
        member.max_logvar[:] = -60.0
        member.min_logvar[:] = -80.0
    noisy = wm.predict(model, s, a, np.random.default_rng(8), _FakeEnv())
    pick = np.random.default_rng(8).integers(0, len(model.elites), len(s))
    x = np.concatenate([s, a], axis=1)
    mean = np.concatenate([model.members[model.elites[j]].heads(x[i:i + 1])[0]
                           for i, j in enumerate(pick)])
    assert np.allclose(noisy[0], s + mean[:, :-1], atol=1e-10)


def test_one_step_error_distribution_unimodal_near_zero():
    buf, (a_mat, b_mat, bias) = _linear_system_buffer()
    rng = np.random.default_rng(6)
    model = wm.init_ensemble(rng, 2, 1, hidden=(64, 64), n_members=2)
    wm.train_ensemble(model, buf, wm.ModelTrainConfig(max_epochs=40, patience=6), rng)
    test = buf.gather(np.arange(2000))
    edges, freqs = wm.model_error_histogram(model, test, 20)
    assert freqs.sum() == pytest.approx(1.0, abs=1e-12)
    mode = int(freqs.argmax())
    assert mode < len(freqs) // 4  # mode in the low-error range
    # soft half-normal shape check: non-increasing beyond the mode, allowing
    # small wiggles
    tail = freqs[mode:]
    assert np.all(np.diff(tail) <= 0.05)


def test_rollout_counts_without_termination():
    buf, _ = _linear_system_buffer(n=500)
    rng = np.random.default_rng(7)
    model = wm.init_ensemble(rng, 2, 1, hidden=(16,), n_members=2)
    wm.train_ensemble(model, buf, wm.ModelTrainConfig(max_epochs=3), rng)
    out = TransitionBuffer(10_000, 2, 1)
    act = lambda s, r: np.zeros((s.shape[0], 1))
    n = wm.generate_rollouts(model, act, buf, k=1, branches=7, rng=rng,
                             buffer=out, env=_FakeEnv())
    assert n == 7
    n = wm.generate_rollouts(model, act, buf, k=5, branches=10, rng=rng,
                             buffer=out, env=_FakeEnv())
    assert n == 50
    assert len(out) == 57


def test_rollout_skips_terminal_start_states():
    class AlwaysDone(_FakeEnv):
        def terminal(self, s):
            return np.ones(np.atleast_2d(s).shape[0], dtype=bool)

    buf, _ = _linear_system_buffer(n=300)
    rng = np.random.default_rng(8)
    model = wm.init_ensemble(rng, 2, 1, hidden=(8,), n_members=1)
    wm.train_ensemble(model, buf, wm.ModelTrainConfig(max_epochs=2), rng)
    out = TransitionBuffer(100, 2, 1)
    n = wm.generate_rollouts(model, lambda s, r: np.zeros((s.shape[0], 1)), buf,
                             k=3, branches=5, rng=rng, buffer=out, env=AlwaysDone())
    assert n == 0


def test_rollout_requires_trained_model():
    buf, _ = _linear_system_buffer(n=100)
    model = wm.init_ensemble(np.random.default_rng(0), 2, 1, hidden=(64, 64), n_members=1)
    out = TransitionBuffer(100, 2, 1)
    with pytest.raises(wm.UntrainedModel):
        wm.generate_rollouts(model, lambda s, r: np.zeros((s.shape[0], 1)), buf,
                             k=1, branches=1, rng=np.random.default_rng(1),
                             buffer=out, env=_FakeEnv())


def test_histogram_perfect_model_mass_in_first_bin():
    # hand-built exact predictor for s' = s dynamics: mean head outputs 0
    n = 400
    buf = TransitionBuffer(n, 1, 1)
    rng = np.random.default_rng(9)
    s = rng.uniform(-1, 1, size=(n, 1))
    buf.push_batch(s, np.zeros((n, 1)), np.zeros(n), s, np.zeros(n, dtype=bool))  # s' = s
    model = wm.init_ensemble(rng, 1, 1, hidden=(16,), n_members=1)
    member = model.members[0]
    member.net.weights[-1][:] = 0.0
    member.net.biases[-1][:] = 0.0
    model.trained = True
    model.elites = [0]
    test = buf.gather(np.arange(n))
    edges, freqs = wm.model_error_histogram(model, test, 10)
    assert freqs[0] == 1.0


def test_train_ensemble_pinned_bits():
    """One train_ensemble with early stopping and best-epoch restore; values
    recorded before the parameters became one flat vector per member."""
    model = wm.init_ensemble(np.random.default_rng(24), 4, 2, hidden=(32, 32), n_members=5)
    g = np.random.default_rng(25)
    n = 300
    d_env = TransitionBuffer(1000, 4, 2)
    s = g.normal(size=(n, 4))
    a = g.uniform(-1, 1, (n, 2))
    s2 = s + 0.1 * a.sum(axis=1, keepdims=True) + 0.01 * g.normal(size=(n, 4))
    d_env.push_batch(s, a, -(s2 ** 2).sum(axis=1), s2, np.zeros(n, dtype=bool))
    cfg = wm.ModelTrainConfig(max_epochs=40, patience=2, improvement_tol=0.05, minibatch=64)
    hold = wm.train_ensemble(model, d_env, cfg, np.random.default_rng(26))
    assert [h.hex() for h in hold] == [
        "-0x1.0965773851237p+2", "-0x1.7202f57cee01fp+1", "-0x1.cf5889c1a4496p-1",
        "-0x1.5fce1f2cf381cp+1", "-0x1.39763f58f8c97p+0"]
    assert model.elites == [0, 1] and model.last_epochs == [37, 31, 32, 37, 33]
    assert model.holdout_mse.hex() == "0x1.1b241f51e3a34p+3"
    assert [hashlib.sha256(m.theta.tobytes()).hexdigest() for m in model.members] == [
        "60daf789de9a64b147296efe64da26e42a90cc0b1af8e6e4e00bb0f1adc4bd77",
        "2befa6a93f47d0572152aa92946aa998923bed96af4815c764450bcb3dd3f893",
        "d98943b9fbd6204df02cf0f5a56437bc7982f69bff8a09661922bed62cf48a70",
        "22a97f6a08715fc64c0ae3d9e38f294a18e4f2a7d1b1b10018c2d78930ba1530",
        "fd36ce4fac531f216db06ca9138cff913862be7e26a390242d1b502318128695"]


# ------------------------------------------- stacked training vs the per-member loop

def _reference_train(model, d_env, config, rng):
    """The per-member epoch loop that one stacked step per minibatch
    replaced, kept as the reference. Returns each member's AdamState."""
    n = len(d_env)
    data = d_env.gather(np.arange(n))
    x_all, y_all = wm._inputs(data), wm._targets(data)
    perm = rng.permutation(n)
    n_hold = max(1, int(round(n * config.holdout_fraction)))
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    x_hold, y_hold = x_all[hold_idx], y_all[hold_idx]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    n_train = len(train_idx)
    holdout = np.zeros(model.n_members)
    epochs_run = [0] * model.n_members
    adams = []
    for m_idx, (member, mrng) in enumerate(zip(model.members, rng.spawn(model.n_members))):
        boot = mrng.integers(0, n_train, size=n_train)
        xb, yb = x_train[boot], y_train[boot]
        adam = wm.AdamState.for_theta(member.theta, lr=config.lr)
        adams.append(adam)
        best_loss = np.inf
        best = member.theta.copy()
        bad_epochs = 0
        for _ in range(config.max_epochs):
            epochs_run[m_idx] += 1
            order = mrng.permutation(n_train)
            for lo in range(0, n_train, config.minibatch):
                sel = order[lo:lo + config.minibatch]
                try:
                    _, grad = wm.model_nll_grads(member, xb[sel], yb[sel])
                    wm.adam_step(adam, member.theta, grad)
                except FloatingPointError:
                    pass
            hold_loss = wm.model_nll(member, x_hold, y_hold)
            if best_loss - hold_loss > config.improvement_tol:
                best_loss = hold_loss
                best[:] = member.theta
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    break
        member.theta[:] = best
        holdout[m_idx] = best_loss
    model.elites = [int(i) for i in np.argsort(holdout)[:min(2, model.n_members)]]
    model.holdout_losses = holdout
    model.last_epochs = epochs_run
    errs = [((model.members[i].heads(x_hold)[0] - y_hold) ** 2).sum(axis=1).mean()
            for i in model.elites]
    model.holdout_mse = float(np.mean(errs))
    return adams


def _training_data(n):
    g = np.random.default_rng(25)
    d_env = TransitionBuffer(1000, 4, 2)
    s = g.normal(size=(n, 4))
    a = g.uniform(-1, 1, (n, 2))
    s2 = s + 0.1 * a.sum(axis=1, keepdims=True) + 0.01 * g.normal(size=(n, 4))
    d_env.push_batch(s, a, -(s2 ** 2).sum(axis=1), s2, np.zeros(n, dtype=bool))
    return d_env


def _assert_same_training(model, ref):
    assert np.array_equal(model.stack.theta, ref.stack.theta)
    assert [h.hex() for h in model.holdout_losses] == [h.hex() for h in ref.holdout_losses]
    assert model.last_epochs == ref.last_epochs
    assert all(type(e) is int for e in model.last_epochs)
    assert model.elites == ref.elites
    assert model.holdout_mse.hex() == ref.holdout_mse.hex()


# (members, transitions, minibatch, patience, max_epochs): 300 transitions
# leave 240 training rows, so minibatches of 64 end on a short one of 48
@pytest.mark.parametrize("members,n,minibatch,patience,max_epochs", [
    (1, 300, 64, 2, 40),
    (2, 300, 64, 1, 40),
    (5, 300, 64, 1, 40),
    (5, 137, 32, 3, 25),
    (5, 300, 256, 2, 40),
    (5, 300, 64, 5, 1),
])
def test_stacked_training_matches_per_member_loop_bit_for_bit(members, n, minibatch,
                                                               patience, max_epochs):
    d_env = _training_data(n)
    cfg = wm.ModelTrainConfig(max_epochs=max_epochs, patience=patience,
                              improvement_tol=0.05, minibatch=minibatch)
    model, ref = (wm.init_ensemble(np.random.default_rng(24), 4, 2, hidden=(32, 32),
                                   n_members=members) for _ in range(2))
    hold = wm.train_ensemble(model, d_env, cfg, np.random.default_rng(26))
    _reference_train(ref, d_env, cfg, np.random.default_rng(26))
    assert hold is model.holdout_losses
    _assert_same_training(model, ref)
    if patience == 1 and members > 1:
        assert len(set(model.last_epochs)) > 1  # members stopped at different epochs
    for member, row in zip(model.members, model.stack.theta):
        assert np.shares_memory(member.theta, row)


def _poison_one_step(monkeypatch, member, step):
    """Wrap world_model.adam_step so that the `member`-th member's `step`-th
    step gets a NaN at entry 3 of its gradient row. An unstacked step's state
    is one member's, numbered in order of appearance; a stacked step's first
    state holds every member, one row each, so the NaN goes into row
    `member` of that state's `step`-th call. Returns the states in order of
    appearance and their call counts."""
    states, calls = [], []
    real_step = wm.adam_step

    def adam_step(state, theta, grad):
        if not any(state is s for s in states):
            states.append(state)
            calls.append(0)
        i = next(j for j, s in enumerate(states) if s is state)
        calls[i] += 1
        stacked = np.ndim(state.t) == 1
        if i == (0 if stacked else member) and calls[i] == step:
            grad = grad.copy()
            grad[(member, 3) if stacked else 3] = np.nan
        return real_step(state, theta, grad)

    monkeypatch.setattr(wm, "adam_step", adam_step)
    return states, calls


def _per_member(states, calls, last_epochs):
    """Each member's Adam step count and number of steps, from the stacked
    states train_ensemble stepped: it starts a new state when members stop,
    and a state's rows are the members still live, in order."""
    live_sets = []
    for epoch in range(1, max(last_epochs) + 1):
        live = [i for i, n in enumerate(last_epochs) if n >= epoch]
        if not live_sets or live != live_sets[-1]:
            live_sets.append(live)
    assert len(live_sets) == len(states)
    t, n_calls = [0] * len(last_epochs), [0] * len(last_epochs)
    for live, state, c in zip(live_sets, states, calls):
        assert len(state.t) == len(live)
        for row, i in enumerate(live):
            t[i] = int(state.t[row])
            n_calls[i] += c
    return t, n_calls


def test_non_finite_gradient_rejects_only_its_members_step(monkeypatch, caplog):
    d_env = _training_data(300)
    cfg = wm.ModelTrainConfig(max_epochs=40, patience=2, improvement_tol=0.05, minibatch=64)
    models = [wm.init_ensemble(np.random.default_rng(24), 4, 2, hidden=(32, 32), n_members=5)
              for _ in range(3)]
    clean, poisoned, ref = models
    wm.train_ensemble(clean, d_env, cfg, np.random.default_rng(26))

    states, calls = _poison_one_step(monkeypatch, member=2, step=3)
    with caplog.at_level("WARNING", logger=wm.__name__):
        wm.train_ensemble(poisoned, d_env, cfg, np.random.default_rng(26))
    rejected = [r for r in caplog.records if r.getMessage().startswith("model step rejected")]
    assert len(rejected) == 1 and "entry 3" in rejected[0].getMessage()
    assert poisoned.last_steps_rejected == [0, 0, 1, 0, 0]
    assert sum(poisoned.last_steps_rejected) == len(rejected)
    assert clean.last_steps_rejected == [0] * 5
    for copied in (copy.deepcopy(poisoned), pickle.loads(pickle.dumps(poisoned))):
        assert copied.last_steps_rejected == poisoned.last_steps_rejected
    t, n_calls = _per_member(states, calls, poisoned.last_epochs)
    assert t == [c - (i == 2) for i, c in enumerate(n_calls)]
    for i in (0, 1, 3, 4):
        assert np.array_equal(poisoned.stack.theta[i], clean.stack.theta[i])
        assert poisoned.holdout_losses[i] == clean.holdout_losses[i]
        assert poisoned.last_epochs[i] == clean.last_epochs[i]
    assert not np.array_equal(poisoned.stack.theta[2], clean.stack.theta[2])

    # the per-member loop under the same fault lands on the same bits
    monkeypatch.undo()
    _, ref_calls = _poison_one_step(monkeypatch, member=2, step=3)
    adams = _reference_train(ref, d_env, cfg, np.random.default_rng(26))
    _assert_same_training(poisoned, ref)
    assert [a.t for a in adams] == t and ref_calls == n_calls


# ------------------------------------------------ rollouts against the row-mask loop

def _reference_predict(model, s, a, rng, env):
    """predict as it was before the lean path: rng.choice over the elites,
    zeroed outputs, one masked heads call per distinct pick."""
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    n = s.shape[0]
    x = np.concatenate([s, a], axis=1)
    pick = rng.choice(model.elites, size=n)
    d = model.members[0].target_dim
    out_mean, out_lv = np.zeros((n, d)), np.zeros((n, d))
    for m_idx in set(pick.tolist()):
        mask = pick == m_idx
        out_mean[mask], out_lv[mask], _ = model.members[m_idx].heads(x[mask])
    noise = rng.normal(size=(n, d))
    draw = out_mean + np.exp(0.5 * out_lv) * noise
    s2 = s + draw[:, :-1]
    done = np.asarray(env.terminal(s2), dtype=bool)
    return s2, draw[:, -1], done


def _reference_rollouts(model, act_fn, d_env, k, branches, rng, buffer, env):
    """generate_rollouts as it was: every branch's row carried with an alive
    mask, and one push per step."""
    idx = d_env.sample_indices(branches, rng)
    s = d_env.s[idx].copy()
    alive = ~np.asarray(env.terminal(s), dtype=bool)
    added = 0
    for _ in range(k):
        if not alive.any():
            break
        cur = s[alive]
        a = act_fn(cur, rng)
        s2, r, done = _reference_predict(model, cur, a, rng, env)
        added += buffer.push_batch(cur, a, r, s2, done)
        nxt = s.copy()
        nxt[alive] = s2
        still = alive.copy()
        still[alive] = ~done
        s, alive = nxt, still
    return added


class _HashDone(_FakeEnv):
    """Terminal on about one state in five, as a pure function of the state."""

    def terminal(self, s):
        return np.floor(np.atleast_2d(s)[:, 0] * 1e4) % 5 == 0


class _AlwaysDone(_FakeEnv):
    def terminal(self, s):
        return np.ones(np.atleast_2d(s).shape[0], dtype=bool)


@pytest.fixture(scope="module")
def rollout_setup():
    buf, _ = _linear_system_buffer(n=400)
    rng = np.random.default_rng(11)
    model = wm.init_ensemble(rng, 2, 1, hidden=(16, 16), n_members=3)
    wm.train_ensemble(model, buf, wm.ModelTrainConfig(max_epochs=3), rng)
    policy = sac.init_agent(np.random.default_rng(12), 2, 1, np.array([-1.0]),
                            np.array([1.0]), hidden=(8,)).actor
    return buf, model, policy


def _buffer_state(buf):
    return ([getattr(buf, c).tobytes() for c in ("s", "a", "r", "s2", "done", "behavior_density")],
            buf.cursor, buf.size)


# (env, k, branches, capacity, prefill): a prefilled D_model whose cursor
# sits near its end wraps during the call; capacity 4 keeps only the last
# rows of one write, as the one-row-per-step pushes did
@pytest.mark.parametrize("env,k,branches,capacity,prefill", [
    (_AlwaysDone(), 10, 8, 100, 0),
    (_HashDone(), 10, 40, 1000, 0),
    (_HashDone(), 1, 40, 1000, 0),
    (_FakeEnv(), 10, 1, 100, 0),
    (_FakeEnv(), 1, 1, 100, 0),
    (_HashDone(), 10, 12, 50, 37),
    (_HashDone(), 10, 12, 4, 3),
], ids=["all-terminal", "die-mid-k10", "k1", "one-row-k10", "one-row-k1", "wraps",
        "longer-than-capacity"])
def test_rollouts_match_the_row_mask_loop_bit_for_bit(rollout_setup, env, k, branches,
                                                       capacity, prefill):
    buf, model, policy = rollout_setup
    assert len(model.elites) == 2
    outs, rngs = [], []
    for rollouts, act_fn in ((wm.generate_rollouts, policy.action),
                             (_reference_rollouts, lambda s, rng: policy.sample(s, rng)[0])):
        out = TransitionBuffer(capacity, 2, 1)
        if prefill:
            g = np.random.default_rng(13)
            out.push_batch(g.normal(size=(prefill, 2)), g.normal(size=(prefill, 1)),
                           g.normal(size=prefill), g.normal(size=(prefill, 2)),
                           np.zeros(prefill, dtype=bool), behavior_density=0.5)
        rng = np.random.default_rng(14)
        n = rollouts(model, act_fn, buf, k, branches, rng, out, env)
        outs.append((n, _buffer_state(out)))
        rngs.append(rng.bit_generator.state)
    assert outs[0] == outs[1]
    assert rngs[0] == rngs[1]
    n = outs[0][0]
    if isinstance(env, _AlwaysDone):
        assert n == 0
    elif isinstance(env, _HashDone):
        assert 0 < n < k * branches  # some branches stopped, at the start or later
    else:
        assert n == k * branches
    if prefill:
        assert prefill + n > capacity  # the write wrapped


def test_predict_matches_the_row_mask_loop_with_one_row_and_no_rows(rollout_setup):
    buf, model, _ = rollout_setup
    rows = []
    for member in model.members:
        member.heads = lambda x, ws=None, member=member: (
            rows.append(len(x)) or type(member).heads(member, x, ws))
    try:
        d = buf.gather(np.arange(64))
        for n, seed in [(1, 0), (1, 1), (2, 2), (3, 3), (64, 4)]:
            rngs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = wm.predict(model, d["s"][:n], d["a"][:n], rngs[0], _HashDone())
            want = _reference_predict(model, d["s"][:n], d["a"][:n], rngs[1], _HashDone())
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    finally:
        for member in model.members:
            del member.heads
    assert 1 in rows  # an elite drew exactly one row (and the other then none)
