"""The outer decision process that schedules MBPO's hyperparameters.

Every tau real steps a controller observes a normalized summary of the inner
training run (sample budget used, model/critic losses, policy drift, latest
evaluation return, current hyperparameter values) and emits a factorized
discrete action: scale the real ratio, train the model or not, nudge the
policy-updates-per-step count, nudge the rollout length. Rewards are the
evaluation returns at inner-episode ends, minus a small charge per model
training.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .envs import EnvDiverged, make_env
from .rng import SeededRng

FEATURE_NAMES = (
    "n_real_frac", "model_loss", "critic_loss", "policy_change",
    "eval_return", "beta", "g", "k",
)
HEAD_NAMES = ("ratio", "train", "g", "k")
HEAD_SIZES = (3, 2, 3, 3)

# ratio head: multiply beta by c**op; g/k heads: add op
RATIO_OPS = (-1, 0, 1)
DELTA_OPS = (-1, 0, 1)
NEUTRAL_INDICES = (1, 1, 1, 1)  # (x1, train=1, +0, +0): reproduces default MBPO


@dataclass(frozen=True)
class HyperParams:
    beta: float = 0.05
    g: int = 10
    k: int = 1


@dataclass(frozen=True)
class HyperAction:
    ratio_op: int = 0      # exponent of c in {-1, 0, +1}
    train_model: int = 1
    g_op: int = 0
    k_op: int = 0
    mask: tuple = (True, True, True, True)  # active heads; masked heads neutral

    @classmethod
    def from_indices(cls, idx, mask=(True, True, True, True)) -> "HyperAction":
        idx = [i if m else n for i, m, n in zip(idx, mask, NEUTRAL_INDICES)]
        return cls(ratio_op=RATIO_OPS[idx[0]], train_model=int(idx[1]),
                   g_op=DELTA_OPS[idx[2]], k_op=DELTA_OPS[idx[3]], mask=tuple(mask))

    def indices(self) -> tuple:
        return (RATIO_OPS.index(self.ratio_op), int(self.train_model),
                DELTA_OPS.index(self.g_op), DELTA_OPS.index(self.k_op))


NEUTRAL_ACTION = HyperAction.from_indices(NEUTRAL_INDICES)


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
    feature_mask: tuple = (True,) * 8
    head_mask: tuple = (True,) * 4

    @property
    def r_norm(self) -> float:
        return max(abs(self.return_lo), abs(self.return_hi), 1.0)

    def initial_params(self) -> HyperParams:
        return HyperParams(self.beta_init, self.g_init, self.k_init)

    def validate(self, horizon: int) -> None:
        if horizon % self.tau != 0:
            raise ValueError(f"tau={self.tau} must divide the horizon {horizon}")
        if self.ratio_constant <= 1.0:
            raise ValueError("ratio constant c must exceed 1")
        if not 0.0 < self.beta_min < 1.0:
            raise ValueError("beta_min must lie in (0, 1)")

    def for_env(self, env_name: str) -> "HyperMdpConfig":
        spec = make_env(env_name).spec
        return replace(self, return_lo=spec.return_lo, return_hi=spec.return_hi)


@dataclass
class HyperState:
    n_real_frac: float
    model_loss: float
    critic_loss: float
    policy_change: float
    eval_return: float
    beta: float
    g: float
    k: float

    def vector(self, feature_mask=None) -> np.ndarray:
        full = np.array([self.n_real_frac, self.model_loss, self.critic_loss,
                         self.policy_change, self.eval_return, self.beta,
                         self.g, self.k])
        if feature_mask is None:
            return full
        return full[np.asarray(feature_mask, dtype=bool)]


def _squash(x: float) -> float:
    return float(x / (1.0 + x))


def policy_change(recent: dict, actor) -> float:
    """Mean absolute density gap between the current policy and the
    behavior policy on recently collected data, squashed into [0, 1)."""
    if len(recent.get("behavior_density", ())) == 0:
        return 0.0
    logp = actor.log_density(recent["s"], recent["a"])
    cur = np.exp(np.minimum(logp, 500.0))
    gap = float(np.abs(cur - recent["behavior_density"]).mean())
    return _squash(gap)


def extract_state(run, params: HyperParams, config: HyperMdpConfig) -> HyperState:
    """Normalized features, all in [0, 1]; quantities that do not exist yet
    (no trained model, no evaluation) use the documented sentinels."""
    env_h = run.env.spec.horizon
    horizon_steps = env_h * config.m_train
    n_real_frac = min(1.0, run.n_real / horizon_steps)
    model_loss = _squash(run.model.holdout_mse) if run.model.trained else 1.0
    critic_loss = _squash(run.critic_loss_avg) if run.critic_loss_avg is not None else 1.0
    eps_pi = policy_change(run.d_env.recent(config.policy_change_window),
                           run.agent.actor) if len(run.d_env) else 0.0
    if run.last_eval_return is None:
        ret_feat = 0.0
    else:
        span = config.return_hi - config.return_lo
        ret_feat = float(np.clip((run.last_eval_return - config.return_lo) / span, 0.0, 1.0))
    beta_feat = float(np.log(params.beta / config.beta_min) / np.log(1.0 / config.beta_min))
    g_feat = (params.g - 1) / (config.g_max - 1)
    k_feat = (params.k - 1) / (config.k_max - 1)
    return HyperState(n_real_frac, model_loss, critic_loss, eps_pi, ret_feat,
                      float(np.clip(beta_feat, 0.0, 1.0)), g_feat, k_feat)


def apply_action(params: HyperParams, action: HyperAction,
                 config: HyperMdpConfig) -> HyperParams:
    """Multiply/clamp beta, increment/clamp G and k; masked heads no-op."""
    beta, g, k = params.beta, params.g, params.k
    if action.mask[0]:
        beta = float(np.clip(beta * config.ratio_constant ** action.ratio_op,
                             config.beta_min, 1.0))
    if action.mask[2]:
        g = int(np.clip(g + action.g_op, 1, config.g_max))
    if action.mask[3]:
        k = int(np.clip(k + action.k_op, 1, config.k_max))
    return HyperParams(beta, g, k)


def hyper_reward(eval_return, model_trained: bool, config: HyperMdpConfig) -> float:
    """Normalized evaluation return at inner-episode ends (0 elsewhere),
    minus the per-training penalty when a model training ran this interval."""
    r = 0.0 if eval_return is None else float(eval_return) / config.r_norm
    if model_trained:
        r -= config.model_train_penalty
    return r


@dataclass
class HyperTrajectory:
    states: np.ndarray        # (T, n_features) masked feature vectors
    action_indices: np.ndarray  # (T, 4) head indices
    log_probs: np.ndarray     # (T,) joint log-probs recorded at sampling time
    rewards: np.ndarray       # (T,)
    valid: bool = True
    error: dict | None = None  # type, message and real step of a numeric crash

    def __len__(self):
        return len(self.rewards)


def run_hyper_episode(controller_policy, env_name: str, mbpo_config,
                      hyper_config: HyperMdpConfig, seed: int,
                      controller_rng: SeededRng | None = None,
                      n_episodes: int | None = None,
                      greedy: bool = False):
    """One hyper-MDP episode: train an MBPO instance from scratch for
    m episodes while the controller adjusts its hyperparameters every tau
    steps. Returns (HyperTrajectory, MbpoLog).

    The controller owns its own random stream, so an all-masked (neutral)
    controller reproduces run_default_mbpo bit-exactly under the same seed.
    A numerically crashed inner run (FloatingPointError, EnvDiverged) yields
    a truncated trajectory flagged invalid, with the error recorded on it; any
    other exception propagates.
    """
    from . import mbpo  # deferred: mbpo imports this module's types
    from .controller import controller_act

    m = n_episodes or hyper_config.m_train
    crng = controller_rng or SeededRng.from_seed(seed + 777)
    run = mbpo.init_run(env_name, mbpo_config, hyper_config, seed)
    states, actions, logps, rewards = [], [], [], []
    error = None

    def source(state: HyperState, params: HyperParams):
        vec = state.vector(hyper_config.feature_mask)
        action, logp = controller_act(controller_policy, vec, crng, greedy=greedy)
        states.append(vec)
        actions.append(action.indices())
        logps.append(logp)
        return apply_action(params, action, hyper_config), bool(action.train_model)

    try:
        for _ in range(m):
            records = mbpo.run_target_episode(run, source, hyper_config)
            rewards.extend(r["reward"] for r in records)
    except (FloatingPointError, EnvDiverged) as exc:  # numeric crash: flagged, not fatal
        error = {"type": type(exc).__name__, "message": str(exc), "n_real": run.n_real}
    t = min(len(rewards), len(states))
    traj = HyperTrajectory(
        states=np.asarray(states[:t]), action_indices=np.asarray(actions[:t]),
        log_probs=np.asarray(logps[:t]), rewards=np.asarray(rewards[:t]),
        valid=error is None and len(rewards) == m * run.env.spec.horizon // hyper_config.tau,
        error=error,
    )
    return traj, run.log
