"""The outer decision process that schedules MBPO's hyperparameters.

Every tau real steps a controller observes a normalized summary of the inner
training run (sample budget used, model/critic losses, policy drift, latest
evaluation return, current hyperparameter values) as one vector in
FEATURE_NAMES order, and emits a factorized discrete action as four head
indices: scale the real ratio, train the model or not, nudge the
policy-updates-per-step count, nudge the rollout length. Rewards are the
evaluation returns at inner-episode ends, minus a small charge per model
training.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .envs import make_env

FEATURE_NAMES = (
    "n_real_frac", "model_loss", "critic_loss", "policy_change",
    "eval_return", "beta", "g", "k",
)
# head indices (ratio, train, g, k); index - 1 is the op: beta times c**op,
# train the model when 1, G and k plus op
HEAD_SIZES = (3, 2, 3, 3)
NEUTRAL_INDICES = (1, 1, 1, 1)  # (x1, train=1, +0, +0): reproduces default MBPO


@dataclass(frozen=True)
class HyperParams:
    beta: float
    g: int
    k: int


@dataclass
class HyperMdpConfig:
    tau: int = 50                  # real steps per hyper-action
    m_train: int = 5               # inner episodes per hyper-episode (training)
    m_eval: int = 15               # inner episodes when evaluating a controller
    ratio_constant: float = 1.2    # c
    model_train_penalty: float = 0.1
    beta_min: float = 0.01
    g_max: int = 20
    k_max: int = 10
    beta_init: float = 0.05
    g_init: int = 10
    k_init: int = 1
    policy_change_window: int = 256
    return_lo: float = -400.0      # per-env feature normalization range
    return_hi: float = 0.0

    @property
    def r_norm(self) -> float:
        return max(abs(self.return_lo), abs(self.return_hi), 1.0)

    def initial_params(self) -> HyperParams:
        return HyperParams(self.beta_init, self.g_init, self.k_init)

    def validate(self, horizon: int) -> None:
        if self.tau < 1 or horizon % self.tau != 0:
            raise ValueError(f"tau={self.tau} must be >= 1 and divide the horizon {horizon}")
        if self.m_train < 1 or self.m_eval < 1:
            raise ValueError("m_train and m_eval must be >= 1")
        if self.ratio_constant <= 1.0:
            raise ValueError("ratio constant c must exceed 1")
        if not 0.0 < self.beta_min < 1.0:
            raise ValueError("beta_min must lie in (0, 1)")
        # a start outside the bounds would be clamped by the first active
        # head but kept by a masked one
        if not self.beta_min <= self.beta_init <= 1.0:
            raise ValueError("beta_init must lie in [beta_min, 1]")
        if not 1 <= self.g_init <= self.g_max or self.g_max < 2:  # features divide by max - 1
            raise ValueError("g_max must be >= 2, and g_init lie in [1, g_max]")
        if not 1 <= self.k_init <= self.k_max or self.k_max < 2:
            raise ValueError("k_max must be >= 2, and k_init lie in [1, k_max]")

    def train_hyper_steps(self, env_name: str) -> int:
        """m_train * H / tau: the length of a baseline curve or replayed schedule."""
        return self.m_train * make_env(env_name).spec.horizon // self.tau

    def for_env(self, env_name: str) -> "HyperMdpConfig":
        spec = make_env(env_name).spec
        return replace(self, return_lo=spec.return_lo, return_hi=spec.return_hi)


def hyper_mdp_hash(env_name: str, mbpo_config, hyper_config: HyperMdpConfig) -> str:
    """The key that matches a baseline or controller to the hyper-MDP it was
    made in: sha256 of the sorted JSON of the env, the MBPO settings and the
    resolved hyper settings a run uses, not of its seeds, outputs or PPO
    settings."""
    doc = {"env_name": env_name, "mbpo": asdict(mbpo_config), "hyper": asdict(hyper_config)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _squash(x: float) -> float:
    return float(x / (1.0 + x))


def policy_change(recent: dict, actor) -> float:
    """Mean absolute density gap between the current policy and the
    behavior policy on recently collected data, squashed into [0, 1); 0 for
    an empty window."""
    if len(recent["behavior_density"]) == 0:
        return 0.0
    logp = actor.log_density(recent["s"], recent["a"])
    cur = np.exp(np.minimum(logp, 500.0))
    gap = float(np.abs(cur - recent["behavior_density"]).mean())
    return _squash(gap)


def extract_state(run, params: HyperParams, config: HyperMdpConfig) -> np.ndarray:
    """Normalized features in FEATURE_NAMES order, all in [0, 1]; quantities
    that do not exist yet (no trained model, no evaluation) use the
    documented sentinels."""
    env_h = run.env.spec.horizon
    horizon_steps = env_h * config.m_train
    n_real_frac = min(1.0, run.n_real / horizon_steps)
    model_loss = _squash(run.model.holdout_mse) if run.model.trained else 1.0
    critic_loss = _squash(run.critic_loss_avg) if run.critic_loss_avg is not None else 1.0
    eps_pi = policy_change(run.d_env.recent(config.policy_change_window), run.agent.actor)
    if run.last_eval_return is None:
        ret_feat = 0.0
    else:
        span = config.return_hi - config.return_lo
        ret_feat = float(np.clip((run.last_eval_return - config.return_lo) / span, 0.0, 1.0))
    # a replayed beta below beta_min reads as the floor, not as log(0)
    beta_feat = float(np.log(max(params.beta, config.beta_min) / config.beta_min)
                      / np.log(1.0 / config.beta_min))
    g_feat = (params.g - 1) / (config.g_max - 1)
    k_feat = (params.k - 1) / (config.k_max - 1)
    return np.array([n_real_frac, model_loss, critic_loss, eps_pi, ret_feat,
                     beta_feat, g_feat, k_feat])


def apply_action(params: HyperParams, action, config: HyperMdpConfig) -> HyperParams:
    """Multiply/clamp beta, increment/clamp G and k by the head indices'
    ops; a neutral index leaves its in-bounds value as it is."""
    ratio, _, g, k = action
    return HyperParams(
        float(np.clip(params.beta * config.ratio_constant ** (ratio - 1),
                      config.beta_min, 1.0)),
        int(np.clip(params.g + (g - 1), 1, config.g_max)),
        int(np.clip(params.k + (k - 1), 1, config.k_max)))


def hyper_reward(eval_return, model_trained: bool, config: HyperMdpConfig) -> float:
    """Normalized evaluation return at inner-episode ends (0 elsewhere),
    minus the per-training penalty when a model training ran this interval."""
    r = 0.0 if eval_return is None else float(eval_return) / config.r_norm
    if model_trained:
        r -= config.model_train_penalty
    return r
