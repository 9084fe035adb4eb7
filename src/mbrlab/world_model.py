"""Bootstrapped ensemble of probabilistic dynamics models.

Each member maps (s, a) to a diagonal Gaussian over (delta_s, r); members are
trained independently on bootstrap resamples with hold-out early stopping, and
the lowest-hold-out-loss members (elites) generate branched short rollouts.
Log-variances are squashed between learnable soft bounds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import nets
from .buffers import TransitionBuffer
from .envs import Env
from .nets import AdamState, DenseNet, adam_step
from .rng import SeededRng

logger = logging.getLogger(__name__)

BOUND_PENALTY = 0.01  # pull on the soft log-variance bounds


class NotEnoughData(RuntimeError):
    """D_env too small to carve out a hold-out set; caller should skip training."""


class UntrainedModel(RuntimeError):
    pass


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


class EnsembleMember:
    """A net (s, a) -> (mean(delta_s, r), raw log-var(delta_s, r)) with soft
    log-variance bounds. `theta` holds the net's theta followed by max_logvar
    and min_logvar; all three are views into it."""

    def __init__(self, net: DenseNet, max_logvar: np.ndarray, min_logvar: np.ndarray):
        n = net.theta.size
        self.theta = np.concatenate([net.theta, max_logvar, min_logvar])
        self.net = DenseNet(net.sizes, net.activations, self.theta[:n])
        self.max_logvar, self.min_logvar = self.theta[n:].reshape(2, -1)

    def __reduce__(self):
        # copies and pickles rebuild theta and its views from the three parts
        return EnsembleMember, (self.net, self.max_logvar, self.min_logvar)

    @property
    def target_dim(self):
        return self.net.output_dim // 2

    def params(self) -> list:
        return self.net.params() + [self.max_logvar, self.min_logvar]

    def heads(self, x: np.ndarray):
        """Mean and soft-bounded log-variance heads, plus the backward cache."""
        out, cache = nets.forward_cache(self.net, x)
        d = self.target_dim
        mean, raw_lv = out[:, :d], out[:, d:]
        lv1 = self.max_logvar - nets.softplus(self.max_logvar - raw_lv)
        lv = self.min_logvar + nets.softplus(lv1 - self.min_logvar)
        return mean, lv, (cache, raw_lv, lv1)


@dataclass
class ModelTrainConfig:
    holdout_fraction: float = 0.2
    patience: int = 5
    max_epochs: int = 60
    minibatch: int = 256
    improvement_tol: float = 1e-3
    lr: float = 1e-3

    def validate(self):
        if not 0.0 < self.holdout_fraction < 0.5:
            raise ValueError("holdout_fraction must be in (0, 0.5)")
        if self.patience < 1 or self.max_epochs < 1 or self.minibatch < 1:
            raise ValueError("patience/max_epochs/minibatch must be >= 1")


@dataclass
class EnsembleModel:
    members: list
    elites: list = field(default_factory=list)
    trained: bool = False
    holdout_losses: np.ndarray | None = None
    holdout_mse: float | None = None  # nonnegative validation error for features
    last_epochs: list = field(default_factory=list)

    @property
    def n_members(self):
        return len(self.members)


def init_ensemble(rng: SeededRng, state_dim: int, action_dim: int,
                  hidden: tuple = (64, 64), n_members: int = 5) -> EnsembleModel:
    target = state_dim + 1  # delta_s plus reward
    members = []
    for child in rng.split(n_members):
        net = nets.init_dense(child, [state_dim + action_dim, *hidden, 2 * target])
        members.append(EnsembleMember(
            net=net,
            max_logvar=np.full(target, 0.5),
            min_logvar=np.full(target, -10.0),
        ))
    return EnsembleModel(members=members)


def _nll_terms(member: EnsembleMember, x: np.ndarray, y: np.ndarray):
    mean, lv, aux = member.heads(x)
    err = mean - y
    inv_var = np.exp(-lv)
    # Mahalanobis + log-det per sample; the Gaussian constant is dropped
    per_sample = (err * err * inv_var + lv).sum(axis=1)
    return per_sample, (mean, lv, err, inv_var, aux)


def model_nll(member: EnsembleMember, x: np.ndarray, y: np.ndarray) -> float:
    """Batch-mean Gaussian NLL (Mahalanobis + log det, constant dropped)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    per_sample, _ = _nll_terms(member, x, y)
    loss = float(per_sample.mean())
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite model NLL")
    return loss


def model_nll_grads(member: EnsembleMember, x: np.ndarray, y: np.ndarray,
                    bound_penalty: float = BOUND_PENALTY):
    """Loss (incl. bound penalty) and its exact gradient, laid out like member.theta."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    b = x.shape[0]
    per_sample, (mean, lv, err, inv_var, aux) = _nll_terms(member, x, y)
    cache, raw_lv, lv1 = aux
    loss = float(per_sample.mean())
    loss += bound_penalty * float(member.max_logvar.sum() - member.min_logvar.sum())

    d_mean = 2.0 * err * inv_var / b
    d_lv = (1.0 - err * err * inv_var) / b
    # chain back through the two softplus squashes
    s_hi = _sigmoid(member.max_logvar - raw_lv)   # d lv1 / d raw_lv
    s_lo = _sigmoid(lv1 - member.min_logvar)      # d lv / d lv1
    d_lv1 = d_lv * s_lo
    d_raw = d_lv1 * s_hi
    d_max = (d_lv1 * (1.0 - s_hi)).sum(axis=0) + bound_penalty
    d_min = (d_lv * (1.0 - s_lo)).sum(axis=0) - bound_penalty
    upstream = np.concatenate([d_mean, d_raw], axis=1)
    net_grad, _ = nets.backward_from_cache(member.net, cache, upstream)
    return loss, np.concatenate([net_grad, d_max, d_min])


def _targets(d: dict) -> np.ndarray:
    return np.concatenate([d["s2"] - d["s"], d["r"][:, None]], axis=1)


def _inputs(d: dict) -> np.ndarray:
    return np.concatenate([d["s"], d["a"]], axis=1)


def train_ensemble(model: EnsembleModel, d_env: TransitionBuffer,
                   config: ModelTrainConfig, rng: SeededRng) -> np.ndarray:
    """Train every member on its own bootstrap resample with hold-out early
    stopping; returns per-member hold-out NLLs and sets the elite indices.

    Best-epoch parameters are restored, so the post-training hold-out loss is
    the minimum over logged epochs.
    """
    config.validate()
    n = len(d_env)
    if n < 2.0 / config.holdout_fraction:
        raise NotEnoughData(f"{n} transitions; need >= {2 / config.holdout_fraction:.0f}")
    data = d_env.gather(np.arange(n))
    x_all, y_all = _inputs(data), _targets(data)
    perm = rng.gen.permutation(n)
    n_hold = max(1, int(round(n * config.holdout_fraction)))
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    x_hold, y_hold = x_all[hold_idx], y_all[hold_idx]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    n_train = len(train_idx)

    holdout = np.zeros(model.n_members)
    epochs_run = [0] * model.n_members
    member_rngs = rng.split(model.n_members)
    for m_idx, (member, mrng) in enumerate(zip(model.members, member_rngs)):
        boot = mrng.integers(0, n_train, size=n_train)
        xb, yb = x_train[boot], y_train[boot]
        adam = AdamState.for_theta(member.theta, lr=config.lr)
        best_loss = np.inf
        best = member.theta.copy()
        bad_epochs = 0
        for _ in range(config.max_epochs):
            epochs_run[m_idx] += 1
            order = mrng.gen.permutation(n_train)
            for lo in range(0, n_train, config.minibatch):
                sel = order[lo:lo + config.minibatch]
                try:
                    _, grad = model_nll_grads(member, xb[sel], yb[sel])
                    adam_step(adam, member.theta, grad)
                except FloatingPointError as exc:
                    logger.warning("model step rejected: %s", exc)
            hold_loss = model_nll(member, x_hold, y_hold)
            if best_loss - hold_loss > config.improvement_tol:
                best_loss = hold_loss
                best[:] = member.theta
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    break
        member.theta[:] = best
        holdout[m_idx] = best_loss if np.isfinite(best_loss) else model_nll(member, x_hold, y_hold)

    n_elites = min(2, model.n_members)
    model.elites = [int(i) for i in np.argsort(holdout)[:n_elites]]
    model.holdout_losses = holdout
    model.last_epochs = epochs_run
    model.trained = True
    # nonnegative validation error on next-state prediction, for the hyper-state
    errs = []
    for m_idx in model.elites:
        mean, _, _ = model.members[m_idx].heads(x_hold)
        errs.append(((mean - y_hold) ** 2).sum(axis=1).mean())
    model.holdout_mse = float(np.mean(errs))
    return holdout


def predict(model: EnsembleModel, s: np.ndarray, a: np.ndarray, rng: SeededRng,
            env: Env, deterministic: bool = False):
    """One-step prediction: sample an elite uniformly, sample (delta_s, r)
    from its Gaussian, and apply the env's analytic termination to s'.

    Works on batches; returns (s2, r, done).
    """
    if not model.trained:
        raise UntrainedModel("train_ensemble must run before predict")
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    n = s.shape[0]
    x = np.concatenate([s, a], axis=1)
    pick = rng.gen.choice(model.elites, size=n)
    d = model.members[0].target_dim
    out_mean = np.zeros((n, d))
    out_lv = np.zeros((n, d))
    for m_idx in set(pick.tolist()):
        mask = pick == m_idx
        mean, lv, _ = model.members[m_idx].heads(x[mask])
        out_mean[mask] = mean
        out_lv[mask] = lv
    noise = rng.normal(size=(n, d))
    draw = out_mean if deterministic else out_mean + np.exp(0.5 * out_lv) * noise
    s2 = s + draw[:, :-1]
    done = np.asarray(env.terminal(s2), dtype=bool)
    return s2, draw[:, -1], done


def generate_rollouts(model: EnsembleModel, act_fn, d_env: TransitionBuffer,
                      k: int, branches: int, rng: SeededRng,
                      buffer: TransitionBuffer, env: Env) -> int:
    """Branch `branches` rollouts of length <= k from states sampled uniformly
    out of D_env, following act_fn(states, rng); truncate branches at predicted
    termination. Returns the number of imaginary transitions appended."""
    if k < 1 or branches < 1:
        raise ValueError("k and branches must be >= 1")
    if len(d_env) == 0:
        raise ValueError("D_env is empty")
    if not model.trained:
        raise UntrainedModel("ensemble not trained")
    idx = d_env.sample_indices(branches, rng)
    s = d_env.s[idx].copy()
    alive = ~np.asarray(env.terminal(s), dtype=bool)
    added = 0
    for _ in range(k):
        if not alive.any():
            break
        cur = s[alive]
        a = act_fn(cur, rng)
        s2, r, done = predict(model, cur, a, rng, env)
        added += buffer.push_batch(cur, a, r, s2, done)
        nxt = s.copy()
        nxt[alive] = s2
        still = alive.copy()
        still[alive] = ~done
        s, alive = nxt, still
    return added


def model_error_histogram(model: EnsembleModel, test: dict, n_bins: int) -> tuple:
    """Frequencies of the one-step error ||s2_hat - s2||_2 over a test set,
    using the mean head of the elite average. Frequencies sum to 1."""
    if not model.trained:
        raise UntrainedModel("ensemble not trained")
    x = _inputs(test)
    d = model.members[0].target_dim
    mean_pred = np.zeros((x.shape[0], d))
    for m_idx in model.elites:
        mean, _, _ = model.members[m_idx].heads(x)
        mean_pred += mean
    mean_pred /= len(model.elites)
    s2_hat = test["s"] + mean_pred[:, :-1]
    err = np.linalg.norm(s2_hat - test["s2"], axis=1)
    edges = np.linspace(0.0, max(float(err.max()), 1e-12), n_bins + 1)
    counts, edges = np.histogram(err, bins=edges)
    return edges, counts / counts.sum()
