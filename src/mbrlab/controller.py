"""PPO policy over the hyper-MDP, and the hyper-episodes it acts in.

A one-hidden-layer trunk feeds four categorical heads (3/2/3/3 logits); the
policy owns the feature mask (which state features it reads) and the head
mask (which heads act; the others emit the neutral index). The joint
log-probability is the sum over active heads. Advantages are the
baseline-relative Monte-Carlo suffix sums, updated with the clipped surrogate
objective plus a decaying entropy bonus. The two artifacts a controller run
reads back, controller checkpoints and baseline curves, are written and read
here alone.
"""

from __future__ import annotations

import functools
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from . import checkpoint, mbpo, nets, workers
from .envs import EnvDiverged
from .hyper_mdp import (FEATURE_NAMES, HEAD_SIZES, NEUTRAL_INDICES, HyperMdpConfig,
                        apply_action, hyper_mdp_hash)
from .nets import AdamState, DenseNet, adam_step

logger = logging.getLogger(__name__)


@dataclass
class ControllerPolicy:
    net: DenseNet                   # input -> hidden(256) -> sum(HEAD_SIZES) logits
    head_mask: tuple = (True,) * 4
    feature_mask: tuple = (True,) * 8
    config_hash: str = ""

    def head_slices(self):
        out, lo = [], 0
        for size in HEAD_SIZES:
            out.append(slice(lo, lo + size))
            lo += size
        return out


def init_controller(rng: np.random.Generator, feature_mask=(True,) * 8,
                    head_mask=(True,) * 4, hidden: int = 256,
                    config_hash: str = "") -> ControllerPolicy:
    input_dim = int(np.sum(feature_mask))
    net = nets.init_dense(rng, [input_dim, hidden, sum(HEAD_SIZES)],
                          ["tanh", "identity"])
    return ControllerPolicy(net, tuple(head_mask), tuple(feature_mask), config_hash)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def head_log_probs(policy: ControllerPolicy, states: np.ndarray) -> list:
    """Per-head log-probability tables for a batch of states."""
    logits = nets.forward(policy.net, states)
    return [_log_softmax(logits[:, sl]) for sl in policy.head_slices()]


def controller_act(policy: ControllerPolicy, state: np.ndarray, rng: np.random.Generator,
                   greedy: bool = False) -> tuple:
    """Sample one factorized action as a tuple of head indices; masked heads
    emit the neutral index and contribute zero to the joint log-prob."""
    tables = head_log_probs(policy, state[None, :])
    idx, joint = [], 0.0
    for h, (table, active) in enumerate(zip(tables, policy.head_mask)):
        lp = table[0]
        if not active:
            idx.append(NEUTRAL_INDICES[h])
            continue
        if greedy:
            a = int(lp.argmax())
        else:
            a = int(rng.choice(len(lp), p=np.exp(lp)))
        idx.append(a)
        joint += float(lp[a])
    return tuple(idx), joint


def advantage(rewards: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """Suffix sums of (R_i - R'_i): the return improvement over the default
    configuration from index t onward."""
    if rewards.shape != baseline.shape:
        raise ValueError(f"rewards length {rewards.shape} != baseline {baseline.shape}")
    diff = rewards - baseline
    return np.cumsum(diff[::-1])[::-1].copy()


@dataclass
class PpoConfig:
    clip_eps: float = 0.2
    lr: float = 3e-4
    minibatch: int = 64
    updates_per_round: int = 30
    entropy_coef: float = 0.01
    entropy_decay: float = 0.95     # per PPO round

    def validate(self):
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip epsilon must lie in (0, 1)")
        if self.lr <= 0 or self.minibatch < 1 or self.updates_per_round < 1:
            raise ValueError("invalid PPO configuration")


def ppo_loss_and_grads(policy: ControllerPolicy, states, action_indices,
                       old_log_probs, advantages, config: PpoConfig,
                       entropy_coef: float):
    """Negative clipped surrogate (to minimize) with an entropy bonus of
    weight entropy_coef.

    Per-sample gradients vanish exactly in the clipped-and-worse regime;
    non-finite ratios drop the sample with a logged count. Returns
    (loss, gradient laid out like policy.net.theta, diagnostics).
    """
    n = states.shape[0]
    logits, cache = nets.forward_cache(policy.net, states)
    slices = policy.head_slices()
    # per active head, reused by the gradient and entropy loop below
    tables = {h: _log_softmax(logits[:, sl])
              for h, sl in enumerate(slices) if policy.head_mask[h]}
    logp = np.zeros(n)
    for h, table in tables.items():
        logp += table[np.arange(n), action_indices[:, h]]
    ratio = np.exp(logp - old_log_probs)
    bad = ~np.isfinite(ratio)
    if bad.any():
        logger.warning("dropping %d samples with non-finite ratios", int(bad.sum()))
        ratio = np.where(bad, 1.0, ratio)
        advantages = np.where(bad, 0.0, advantages)
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, 1.0 - config.clip_eps, 1.0 + config.clip_eps) * advantages
    objective = np.minimum(surr1, surr2)
    # gradient flows only where the unclipped branch realizes the min
    active = (surr1 <= surr2).astype(np.float64)
    d_logp = -(active * ratio * advantages) / n

    upstream = np.zeros_like(logits)
    entropy_total = 0.0
    for h, table in tables.items():
        sl = slices[h]
        probs = np.exp(table)
        onehot = np.zeros_like(probs)
        onehot[np.arange(n), action_indices[:, h]] = 1.0
        upstream[:, sl] += d_logp[:, None] * (onehot - probs)
        ent = -(probs * table).sum(axis=1)
        entropy_total += float(ent.mean())
        # d entropy / d logits = -p * (log p + H)
        d_ent = -probs * (table + ent[:, None])
        upstream[:, sl] += -(entropy_coef / n) * d_ent
    grad, _ = nets.backward_from_cache(policy.net, cache, upstream)
    loss = -float(objective.mean()) - entropy_coef * entropy_total
    diagnostics = {
        "mean_ratio": float(ratio.mean()),
        "clip_fraction": float((surr2 < surr1).mean()),
        "dropped": int(bad.sum()),
        "entropy": entropy_total,
    }
    return loss, grad, diagnostics


def ppo_update(policy: ControllerPolicy, batch: dict, config: PpoConfig,
               rng: np.random.Generator, adam: AdamState, entropy_coef: float) -> dict:
    """updates_per_round minibatch steps over a collected batch, each an
    Adam step on `adam` (its moments carry over between rounds); advantages
    are standardized across the batch first (left as they are when all equal)."""
    adv = batch["advantages"]
    if adv.std() > 0:
        adv = (adv - adv.mean()) / adv.std()
    states = batch["states"]
    n = states.shape[0]
    diags = []
    for _ in range(config.updates_per_round):
        sel = rng.integers(0, n, size=min(config.minibatch, n))
        loss, grad, d = ppo_loss_and_grads(
            policy, states[sel], batch["action_indices"][sel],
            batch["old_log_probs"][sel], adv[sel], config, entropy_coef)
        adam_step(adam, policy.net.theta, grad)
        d["loss"] = loss
        diags.append(d)
    return {"updates": len(diags),
            "mean_ratio": float(np.mean([d["mean_ratio"] for d in diags])),
            "clip_fraction": float(np.mean([d["clip_fraction"] for d in diags])),
            "dropped": int(np.sum([d["dropped"] for d in diags]))}


@dataclass
class HyperTrajectory:
    states: np.ndarray        # (T, n_features) feature vectors under the feature mask
    action_indices: np.ndarray  # (T, 4) head indices
    log_probs: np.ndarray     # (T,) joint log-probs recorded at sampling time
    rewards: np.ndarray       # (T,)
    error: dict | None = None  # type, message and real step of a numeric crash

    @property
    def valid(self) -> bool:
        return self.error is None


def run_hyper_episode(controller_policy: ControllerPolicy, env_name: str, mbpo_config,
                      hyper_config: HyperMdpConfig, seed: int, n_episodes: int,
                      greedy: bool = False):
    """One hyper-MDP episode: train an MBPO instance from scratch for
    n_episodes (>= 1) episodes while the controller adjusts its
    hyperparameters every tau steps. Returns (HyperTrajectory, MbpoLog).

    The controller draws its actions from its own stream, seeded by the
    episode's seed (seed + 777) and apart from the run's streams, so an
    all-masked (neutral) controller reproduces run_default_mbpo bit-exactly
    under the same seed, and the episode depends on nothing but its
    arguments. A numerically crashed inner run (FloatingPointError,
    EnvDiverged) yields a truncated trajectory flagged invalid, with the error
    recorded on it; any other exception propagates.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes {n_episodes} is below 1")
    crng = np.random.default_rng(seed + 777)
    run = mbpo.init_run(env_name, mbpo_config, hyper_config, seed)
    feature_mask = np.asarray(controller_policy.feature_mask, dtype=bool)
    states, actions, logps, rewards = [], [], [], []
    error = None

    def source(state: np.ndarray, params):
        vec = state[feature_mask]
        action, logp = controller_act(controller_policy, vec, crng, greedy=greedy)
        states.append(vec)
        actions.append(action)
        logps.append(logp)
        return apply_action(params, action, hyper_config), bool(action[1])

    try:
        for _ in range(n_episodes):
            records = mbpo.run_target_episode(run, source, hyper_config)
            rewards.extend(r["reward"] for r in records)
    except (FloatingPointError, EnvDiverged) as exc:  # numeric crash: flagged, not fatal
        error = {"type": type(exc).__name__, "message": str(exc), "n_real": run.n_real}
    t = min(len(rewards), len(states))
    traj = HyperTrajectory(
        states=np.asarray(states[:t]), action_indices=np.asarray(actions[:t]),
        log_probs=np.asarray(logps[:t]), rewards=np.asarray(rewards[:t]), error=error,
    )
    return traj, run.log


def _training_trajectory(policy: ControllerPolicy, env_name: str, mbpo_config,
                         hyper_config: HyperMdpConfig, seed: int) -> HyperTrajectory:
    """One sampled hyper-episode of a PPO round; its MbpoLog is not sent back."""
    return run_hyper_episode(policy, env_name, mbpo_config, hyper_config, seed,
                             hyper_config.m_train)[0]


@dataclass
class BaselineCurve:
    """Per-index average rewards of default-configuration MBPO runs."""

    values: np.ndarray
    n_seeds: int
    config_hash: str  # hyper_mdp_hash of the runs

    def __len__(self):
        return len(self.values)

    def check_fits(self, config_hash: str, n: int) -> None:
        """Raise ValueError unless the curve was built in the hyper-MDP hashed
        config_hash and holds its n = m_train * H / tau values."""
        if self.config_hash != config_hash or len(self) != n:
            raise ValueError(f"baseline of {len(self)} values under hyper-MDP "
                             f"{self.config_hash[:12]}; the run needs m_train * H / tau "
                             f"= {n} under {config_hash[:12]}")


def train_controller(env_name: str, mbpo_config, hyper_config: HyperMdpConfig,
                     ppo_config: PpoConfig, baseline: BaselineCurve,
                     n_hyper_episodes: int, seed: int, episodes_per_round: int,
                     feature_mask=(True,) * 8) -> tuple:
    """Train a fresh controller that reads the masked features, all heads
    active (heads are masked at evaluation): collect hyper-episodes
    in rounds, compute baseline-relative advantages, and run PPO updates
    after each round. A round draws its episode seeds first and then runs
    its hyper-episodes on worker processes; each one draws controller actions
    from its own seeded stream, so no episode depends on another.

    Returns (policy, history) where history holds one record per hyper-episode
    (its reward sum and baseline-relative improvement) plus per-round PPO
    diagnostics; crashed trajectories are excluded, counted, and listed in
    `invalid` with their index, seed and error. A baseline that does not fit
    the run (`BaselineCurve.check_fits`) raises ValueError before any episode.
    The controller is stamped with the run's `hyper_mdp_hash`.
    """
    ppo_config.validate()
    config_hash = hyper_mdp_hash(env_name, mbpo_config, hyper_config)
    baseline.check_fits(config_hash, hyper_config.train_hyper_steps(env_name))
    if episodes_per_round < 1:
        raise ValueError("episodes_per_round must be >= 1")
    root = np.random.default_rng(seed)
    # the second stream is unused; it keeps the spawn that fixes the others
    init_rng, _, upd_rng, seed_rng = root.spawn(4)
    policy = init_controller(init_rng, feature_mask, config_hash=config_hash)
    adam = AdamState.for_theta(policy.net.theta, ppo_config.lr)
    history = {"episode_returns": [], "improvements": [], "rounds": [],
               "invalid_count": 0, "invalid": []}
    ent_coef = ppo_config.entropy_coef
    collected = 0
    while collected < n_hyper_episodes:
        batch_eps = min(episodes_per_round, n_hyper_episodes - collected)
        ep_seeds = [int(seed_rng.integers(0, 2**31 - 1)) for _ in range(batch_eps)]
        unit = functools.partial(_training_trajectory, policy, env_name,
                                 mbpo_config, hyper_config)
        trajs = []
        for ep_seed, traj in zip(ep_seeds, workers.map_units(unit, ep_seeds)):
            collected += 1
            if traj.valid:
                trajs.append(traj)
                history["episode_returns"].append(float(traj.rewards.sum()))
                history["improvements"].append(
                    float((traj.rewards - baseline.values).sum()))
            else:
                history["invalid_count"] += 1
                history["invalid"].append(
                    {"episode": collected - 1, "seed": ep_seed, "error": traj.error})
        if not trajs:
            continue
        batch = {
            "states": np.concatenate([t.states for t in trajs]),
            "action_indices": np.concatenate([t.action_indices for t in trajs]),
            "old_log_probs": np.concatenate([t.log_probs for t in trajs]),
            "advantages": np.concatenate(
                [advantage(t.rewards, baseline.values) for t in trajs]),
        }
        diag = ppo_update(policy, batch, ppo_config, upd_rng, adam, ent_coef)
        ent_coef *= ppo_config.entropy_decay
        history["rounds"].append(diag)
    history["phase_means"] = phase_means(history["episode_returns"])
    return policy, history


def phase_means(returns) -> list:
    """Mean hyper-episode return per training phase (quintiles); None for a
    phase with no episode, so the summary stays JSON."""
    returns = list(returns)
    if not returns:
        return []
    edges = np.linspace(0, len(returns), 6).astype(int)
    return [float(np.mean(returns[lo:hi])) if hi > lo else None
            for lo, hi in zip(edges[:-1], edges[1:])]


def save_controller(policy: ControllerPolicy, path) -> None:
    checkpoint.save(path, "hyper-controller", {"theta": policy.net.theta}, {
        "hidden": policy.net.sizes[1], "head_mask": list(policy.head_mask),
        "feature_mask": list(policy.feature_mask), "config_hash": policy.config_hash})


def load_controller(path) -> ControllerPolicy:
    """A missing field, a mask of the wrong length or an unfitting theta is a CheckpointError."""
    arrays, meta = checkpoint.load(path, "hyper-controller")
    try:
        feature_mask = tuple(bool(b) for b in meta["feature_mask"])
        head_mask = tuple(bool(b) for b in meta["head_mask"])
        if (len(feature_mask), len(head_mask)) != (len(FEATURE_NAMES), len(HEAD_SIZES)):
            raise ValueError(f"mask lengths {len(feature_mask)} and {len(head_mask)}, "
                             f"not {len(FEATURE_NAMES)} and {len(HEAD_SIZES)}")
        net = DenseNet([sum(feature_mask), meta["hidden"], sum(HEAD_SIZES)],
                       ["tanh", "identity"], arrays["theta"])
        return ControllerPolicy(net, head_mask, feature_mask, meta["config_hash"])
    except (KeyError, TypeError, ValueError) as exc:
        raise checkpoint.CheckpointError(f"{path}: bad controller field {exc!r}") from exc


def save_baseline(curve: BaselineCurve, path) -> None:
    checkpoint.save(path, "baseline-curve", {"values": curve.values}, {
        "n_seeds": curve.n_seeds, "config_hash": curve.config_hash})


def load_baseline(path) -> BaselineCurve:
    """The saved curve; a missing field is a CheckpointError."""
    arrays, meta = checkpoint.load(path, "baseline-curve")
    try:
        return BaselineCurve(arrays["values"], meta["n_seeds"], meta["config_hash"])
    except KeyError as exc:
        raise checkpoint.CheckpointError(f"{path}: missing baseline field {exc}") from exc


def check_transfer(policy: ControllerPolicy, config_hash: str) -> bool:
    """Warn (not error) when a controller meets a different hyper-MDP config,
    so transfer experiments run but are visibly flagged; False on a mismatch,
    an unstamped controller included."""
    if policy.config_hash != config_hash:
        warnings.warn(
            f"controller trained under config {policy.config_hash[:12]} used "
            f"with config {config_hash[:12]}; transfer results are not "
            "directly comparable", stacklevel=2)
        return False
    return True
