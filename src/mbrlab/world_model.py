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
    and min_logvar; all three are views into it. A theta of shape (E, n + 2d)
    is a stack of E members run at once, as in `nets.forward_cache`;
    `member[i]` is a view of row i (a copy for an index array)."""

    def __init__(self, sizes, activations, theta: np.ndarray):
        d = sizes[-1] // 2
        self.theta = theta
        self.net = DenseNet(sizes, activations, theta[..., :-2 * d])
        self.max_logvar, self.min_logvar = theta[..., -2 * d:-d], theta[..., -d:]

    def __reduce__(self):
        return EnsembleMember, (self.net.sizes, self.net.activations, self.theta)

    def __getitem__(self, index) -> "EnsembleMember":
        return EnsembleMember(self.net.sizes, self.net.activations, self.theta[index])

    @property
    def target_dim(self):
        return self.net.output_dim // 2

    def params(self) -> list:
        return self.net.params() + [self.max_logvar, self.min_logvar]

    def heads(self, x: np.ndarray, ws: nets.Workspace | None = None):
        """Mean and soft-bounded log-variance heads, plus the backward cache
        (written into `ws` when given)."""
        out, cache = nets.forward_cache(self.net, x, ws)
        d = self.target_dim
        mean, raw_lv = out[..., :d], out[..., d:]
        hi, lo = self.max_logvar[..., None, :], self.min_logvar[..., None, :]
        lv1 = hi - nets.softplus(hi - raw_lv)
        lv = lo + nets.softplus(lv1 - lo)
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
    """The members as one stacked `EnsembleMember`; `members` are views of its
    rows, rebuilt on a copy's or a pickle's own stack."""

    stack: EnsembleMember
    elites: list = field(default_factory=list)
    trained: bool = False
    holdout_losses: np.ndarray | None = None
    holdout_mse: float | None = None  # nonnegative validation error for features
    last_epochs: list = field(default_factory=list)
    last_steps_rejected: list = field(default_factory=list)  # per member, as training runs

    def __post_init__(self):
        self.members = [self.stack[i] for i in range(self.n_members)]

    def __reduce__(self):
        return EnsembleModel, (self.stack, self.elites, self.trained, self.holdout_losses,
                               self.holdout_mse, self.last_epochs, self.last_steps_rejected)

    @property
    def n_members(self):
        return len(self.stack.theta)


def init_ensemble(rng: np.random.Generator, state_dim: int, action_dim: int,
                  hidden: tuple, n_members: int) -> EnsembleModel:
    target = state_dim + 1  # delta_s plus reward
    sizes = [state_dim + action_dim, *hidden, 2 * target]
    inits = [nets.init_dense(child, sizes) for child in rng.spawn(n_members)]
    theta = np.stack([np.concatenate([net.theta, np.full(target, 0.5), np.full(target, -10.0)])
                      for net in inits])
    return EnsembleModel(EnsembleMember(sizes, inits[0].activations, theta))


def _nll_terms(member: EnsembleMember, x: np.ndarray, y: np.ndarray,
               ws: nets.Workspace | None = None):
    mean, lv, aux = member.heads(x, ws)
    err = mean - y
    inv_var = np.exp(-lv)
    # Mahalanobis + log-det per sample; the Gaussian constant is dropped
    per_sample = (err * err * inv_var + lv).sum(axis=-1)
    return per_sample, (mean, lv, err, inv_var, aux)


def model_nll(member: EnsembleMember, x: np.ndarray, y: np.ndarray,
              ws: nets.Workspace | None = None):
    """Batch-mean Gaussian NLL (Mahalanobis + log det, constant dropped), one
    per member of a stack; the forward runs in `ws` when given."""
    if x.shape[-2] == 0:
        raise ValueError("batch must be non-empty")
    per_sample, _ = _nll_terms(member, x, y, ws)
    loss = per_sample.mean(axis=-1)
    if not np.isfinite(loss).all():
        raise FloatingPointError("non-finite model NLL")
    return loss


def model_nll_grads(member: EnsembleMember, x: np.ndarray, y: np.ndarray,
                    ws: nets.Workspace | None = None):
    """Loss (incl. bound penalty) and its exact gradient, laid out like
    member.theta; a stack takes a batch of shape (E, B, in) or a shared one.
    A workspace for the net at this batch's shape holds the per-layer
    temporaries."""
    b = x.shape[-2]
    per_sample, (mean, lv, err, inv_var, (cache, raw_lv, lv1)) = _nll_terms(member, x, y, ws)
    hi, lo = member.max_logvar[..., None, :], member.min_logvar[..., None, :]
    loss = per_sample.mean(axis=-1)
    loss += BOUND_PENALTY * (member.max_logvar.sum(axis=-1) - member.min_logvar.sum(axis=-1))

    d_mean = 2.0 * err * inv_var / b
    d_lv = (1.0 - err * err * inv_var) / b
    # chain back through the two softplus squashes
    s_hi = _sigmoid(hi - raw_lv)   # d lv1 / d raw_lv
    s_lo = _sigmoid(lv1 - lo)      # d lv / d lv1
    d_lv1 = d_lv * s_lo
    d_raw = d_lv1 * s_hi
    d_max = (d_lv1 * (1.0 - s_hi)).sum(axis=-2) + BOUND_PENALTY
    d_min = (d_lv * (1.0 - s_lo)).sum(axis=-2) - BOUND_PENALTY
    upstream = np.concatenate([d_mean, d_raw], axis=-1)
    net_grad, _ = nets.backward_from_cache(member.net, cache, upstream, ws=ws)
    return loss, np.concatenate([net_grad, d_max, d_min], axis=-1)


def _targets(d: dict) -> np.ndarray:
    return np.concatenate([d["s2"] - d["s"], d["r"][:, None]], axis=1)


def _inputs(d: dict) -> np.ndarray:
    return np.concatenate([d["s"], d["a"]], axis=1)


def train_ensemble(model: EnsembleModel, d_env: TransitionBuffer,
                   config: ModelTrainConfig, rng: np.random.Generator) -> np.ndarray:
    """Train every member on its own bootstrap resample with hold-out early
    stopping; returns per-member hold-out NLLs and sets the elite indices.

    The members still training run as one stack, one forward and backward
    per minibatch; each keeps its own bootstrap draw, permutation stream,
    Adam state and patience, and a non-finite gradient rejects only its own
    step. Best-epoch parameters are restored, so the post-training hold-out
    loss is the minimum over logged epochs.
    """
    model.last_steps_rejected = [0] * model.n_members
    n = len(d_env)
    if n < 2.0 / config.holdout_fraction:
        raise NotEnoughData(f"{n} transitions; need >= {2 / config.holdout_fraction:.0f}")
    data = d_env.gather(np.arange(n))
    x_all, y_all = _inputs(data), _targets(data)
    perm = rng.permutation(n)
    n_hold = max(1, int(round(n * config.holdout_fraction)))
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    x_hold, y_hold = x_all[hold_idx], y_all[hold_idx]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    n_train = len(train_idx)

    member_rngs = rng.spawn(model.n_members)
    boot = np.stack([mrng.integers(0, n_train, size=n_train) for mrng in member_rngs])
    adam = AdamState.for_theta(model.stack.theta, lr=config.lr, stacked=True)
    best = model.stack.theta.copy()
    best_loss = np.full(model.n_members, np.inf)
    epochs_run = np.zeros(model.n_members, dtype=int)
    live = np.arange(model.n_members)
    work, bad_epochs = model.stack[live], np.zeros_like(live)  # the live members' rows, copied
    # every forward of the call runs in one workspace, on its first rows
    # (live members, batch rows): a hold-out pass with its own temporaries
    # would add them to the workspace's memory at the peak
    ws = nets.Workspace.for_net(work.net, (len(live),),
                                max(min(config.minibatch, n_train), n_hold))
    for _ in range(config.max_epochs):
        epochs_run[live] += 1
        rows = np.stack([boot[i][member_rngs[i].permutation(n_train)] for i in live])
        for lo in range(0, n_train, config.minibatch):
            sel = rows[:, lo:lo + config.minibatch]
            _, grads = model_nll_grads(work, x_train[sel], y_train[sel],
                                       ws[:len(live), :sel.shape[1]])
            try:
                adam_step(adam, work.theta, grads)
            except nets.NonFiniteGradient as exc:
                for row in exc.rows:
                    model.last_steps_rejected[live[row]] += 1
                    logger.warning("model step rejected for member %d: %s", live[row], exc)
        hold_loss = model_nll(work, x_hold, y_hold, ws[:len(live), :n_hold])
        better = best_loss[live] - hold_loss > config.improvement_tol
        best_loss[live[better]] = hold_loss[better]
        best[live[better]] = work.theta[better]
        bad_epochs = np.where(better, 0, bad_epochs + 1)
        going = bad_epochs < config.patience
        if not going.all():
            live, work, bad_epochs = live[going], work[going], bad_epochs[going]
            adam = adam.rows(going)
        if not len(live):
            break
    model.stack.theta[:] = best

    model.elites = [int(i) for i in np.argsort(best_loss)[:min(2, model.n_members)]]
    model.holdout_losses = best_loss
    model.last_epochs = epochs_run.tolist()
    model.trained = True
    # nonnegative validation error on next-state prediction, for the hyper-state
    mean, _, _ = model.stack[model.elites].heads(x_hold, ws[:len(model.elites), :n_hold])
    model.holdout_mse = float(((mean - y_hold) ** 2).sum(axis=-1).mean(axis=-1).mean())
    return best_loss


def predict(model: EnsembleModel, s: np.ndarray, a: np.ndarray, rng: np.random.Generator,
            env: Env):
    """One-step prediction: sample an elite uniformly, sample (delta_s, r)
    from its Gaussian, and apply the env's analytic termination to s'.

    s and a are float64 batches of shape (B, .); returns (s2, r, done).
    """
    n = s.shape[0]
    x = np.concatenate([s, a], axis=1)
    # each elite runs on exactly its own rows: a gemm's row bits depend on
    # its row count, so one stacked pass over all rows would change them
    pick = rng.integers(0, len(model.elites), n)  # the draws of rng.choice(elites, n)
    d = model.members[0].target_dim
    out_mean, out_lv = np.empty((n, d)), np.empty((n, d))
    for j, m_idx in enumerate(model.elites):
        mask = pick == j
        if mask.any():
            out_mean[mask], out_lv[mask], _ = model.members[m_idx].heads(x[mask])
    noise = rng.normal(size=(n, d))
    draw = out_mean + np.exp(0.5 * out_lv) * noise
    s2 = s + draw[:, :-1]
    done = env.terminal(s2)
    return s2, draw[:, -1], done


def generate_rollouts(model: EnsembleModel, act_fn, d_env: TransitionBuffer,
                      k: int, branches: int, rng: np.random.Generator,
                      buffer: TransitionBuffer, env: Env) -> int:
    """Branch `branches` rollouts of length <= k from states sampled uniformly
    out of D_env, following act_fn(states, rng); truncate branches at predicted
    termination. Returns the number of imaginary transitions appended."""
    if not model.trained:
        raise UntrainedModel("ensemble not trained")
    idx = d_env.sample_indices(branches, rng)
    s = d_env.s[idx]
    s = s[~env.terminal(s)]  # only live rows are carried
    steps = []
    for _ in range(k):
        if not len(s):
            break
        a = act_fn(s, rng)
        s2, r, done = predict(model, s, a, rng, env)
        steps.append((s, a, r, s2, done))
        s = s2[~done]
    if not steps:
        return 0
    # one write, in step order: the same rows as a push per step
    return buffer.push_batch(*(np.concatenate(col) for col in zip(*steps)))


def model_error_histogram(model: EnsembleModel, test: dict, n_bins: int) -> tuple:
    """Frequencies of the one-step error ||s2_hat - s2||_2 over a test set,
    using the mean head of the elite average. Frequencies sum to 1."""
    if not model.trained:
        raise UntrainedModel("ensemble not trained")
    mean_pred = model.stack[model.elites].heads(_inputs(test))[0].mean(axis=0)
    s2_hat = test["s"] + mean_pred[:, :-1]
    err = np.linalg.norm(s2_hat - test["s2"], axis=1)
    edges = np.linspace(0.0, max(float(err.max()), 1e-12), n_bins + 1)
    counts, edges = np.histogram(err, bins=edges)
    return edges, counts / counts.sum()
