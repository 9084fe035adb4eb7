"""Soft Actor-Critic on mixed real/imaginary minibatches.

Twin critics with min-backup, a fixed entropy temperature, polyak-averaged
target critics, and a tanh-squashed Gaussian actor whose reparameterized
gradient is written out layer by layer. The real ratio controls how each
minibatch is split between the environment buffer and the model buffer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import nets
from .buffers import TransitionBuffer
from .nets import AdamState, DenseNet, LOG_STD_MAX, LOG_STD_MIN, adam_step
from .rng import SeededRng

logger = logging.getLogger(__name__)

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GaussianPolicy:
    """Trunk MLP emitting (mean, log_std); actions are tanh-scaled to bounds."""

    net: DenseNet
    action_low: np.ndarray
    action_high: np.ndarray

    @property
    def action_dim(self):
        return self.net.output_dim // 2

    @property
    def scale(self):
        return (self.action_high - self.action_low) / 2.0

    @property
    def center(self):
        return (self.action_high + self.action_low) / 2.0

    def _heads(self, s: np.ndarray):
        h, cache = nets.forward_cache(self.net, np.atleast_2d(s))
        d = self.action_dim
        mean, raw_ls = h[:, :d], h[:, d:]
        log_std = np.clip(raw_ls, LOG_STD_MIN, LOG_STD_MAX)
        return mean, log_std, raw_ls, cache

    def _log_density(self, u: np.ndarray, z: np.ndarray, log_std: np.ndarray):
        """Env-space log density of a = center + scale*tanh(u), where
        z = (u - mean)/std is the standardized pre-squash value."""
        return (-0.5 * _LOG_2PI - log_std - 0.5 * z * z
                - nets.tanh_log_jacobian(u) - np.log(self.scale)).sum(axis=1)

    def sample(self, s: np.ndarray, rng: SeededRng, deterministic: bool = False):
        """Returns (env action, log density, cache for the actor backward)."""
        mean, log_std, raw_ls, cache = self._heads(s)
        std = np.exp(log_std)
        eps = np.zeros_like(mean) if deterministic else rng.normal(size=mean.shape)
        u = mean + std * eps
        unit = np.tanh(u)
        a = self.center + self.scale * unit
        logp = self._log_density(u, eps, log_std)
        return a, logp, {"mean": mean, "log_std": log_std, "raw_ls": raw_ls,
                         "eps": eps, "unit": unit, "cache": cache}

    def log_density(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Density of a stored env-space action under the current policy."""
        mean, log_std, _, _ = self._heads(s)
        unit = np.clip((np.atleast_2d(a) - self.center) / self.scale,
                       -1.0 + 1e-12, 1.0 - 1e-12)
        u = np.arctanh(unit)
        return self._log_density(u, (u - mean) / np.exp(log_std), log_std)

    def backward(self, sample_cache: dict, d_logp: np.ndarray, d_action: np.ndarray):
        """Gradient w.r.t. the trunk's theta of sum(d_logp * logp + d_action . a),
        holding the reparameterization noise fixed."""
        unit = sample_cache["unit"]
        eps = sample_cache["eps"]
        std = np.exp(sample_cache["log_std"])
        d_logp = d_logp[:, None]
        da_unit = d_action * self.scale
        # d logp / du = 2*tanh(u); d a_unit / du = 1 - tanh(u)^2
        d_u = d_logp * 2.0 * unit + da_unit * (1.0 - unit * unit)
        d_mean = d_u
        d_ls = d_u * std * eps - d_logp  # -1 from the explicit -log_std term
        clamp = ((sample_cache["raw_ls"] > LOG_STD_MIN)
                 & (sample_cache["raw_ls"] < LOG_STD_MAX)).astype(np.float64)
        upstream = np.concatenate([d_mean, d_ls * clamp], axis=1)
        grad, _ = nets.backward_from_cache(self.net, sample_cache["cache"], upstream)
        return grad


@dataclass
class MixedBatchSpec:
    batch_size: int = 256
    real_ratio: float = 0.05

    def n_real(self) -> int:
        return int(np.clip(round(self.real_ratio * self.batch_size), 0, self.batch_size))


def sample_mixed_batch(d_env: TransitionBuffer, d_model: TransitionBuffer | None,
                       spec: MixedBatchSpec, rng: SeededRng) -> dict:
    """round(beta*B) real + remainder imaginary, uniform with replacement.

    Falls back to all-real (with a logged event) when imaginary data is not
    available yet; errors only when both buffers are empty.
    """
    if len(d_env) == 0 and (d_model is None or len(d_model) == 0):
        raise ValueError("both replay buffers are empty")
    n_real = spec.n_real()
    if n_real < spec.batch_size and (d_model is None or len(d_model) == 0):
        logger.info("model buffer empty; degrading to an all-real batch")
        n_real = spec.batch_size
    if len(d_env) == 0:
        raise ValueError("D_env is empty")
    parts = [d_env.gather(d_env.sample_indices(n_real, rng))] if n_real else []
    n_imag = spec.batch_size - n_real
    if n_imag:
        parts.append(d_model.gather(d_model.sample_indices(n_imag, rng)))
    batch = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    batch["n_real"] = n_real
    return batch


@dataclass
class SacAgent:
    actor: GaussianPolicy
    critic1: DenseNet
    critic2: DenseNet
    target1: DenseNet
    target2: DenseNet
    actor_adam: AdamState
    critic1_adam: AdamState
    critic2_adam: AdamState
    alpha: float = 0.2
    polyak: float = 0.995


def init_agent(rng: SeededRng, state_dim: int, action_dim: int,
               action_low, action_high, hidden: tuple = (64, 64),
               lr: float = 3e-4, alpha: float = 0.2, polyak: float = 0.995) -> SacAgent:
    r_actor, r_c1, r_c2 = rng.split(3)
    actor_net = nets.init_dense(r_actor, [state_dim, *hidden, 2 * action_dim])
    critic1 = nets.init_dense(r_c1, [state_dim + action_dim, *hidden, 1])
    critic2 = nets.init_dense(r_c2, [state_dim + action_dim, *hidden, 1])
    actor = GaussianPolicy(actor_net, np.asarray(action_low, dtype=np.float64),
                           np.asarray(action_high, dtype=np.float64))
    return SacAgent(
        actor=actor, critic1=critic1, critic2=critic2,
        target1=critic1.copy(), target2=critic2.copy(),
        actor_adam=AdamState.for_theta(actor_net.theta, lr),
        critic1_adam=AdamState.for_theta(critic1.theta, lr),
        critic2_adam=AdamState.for_theta(critic2.theta, lr),
        alpha=alpha, polyak=polyak,
    )


def act(agent: SacAgent, s: np.ndarray, deterministic: bool, rng: SeededRng) -> np.ndarray:
    a, _, _ = agent.actor.sample(np.atleast_2d(s), rng, deterministic=deterministic)
    return a[0] if np.asarray(s).ndim == 1 else a


def _q_values(net: DenseNet, s: np.ndarray, a: np.ndarray):
    x = np.concatenate([s, a], axis=1)
    q, cache = nets.forward_cache(net, x)
    return q[:, 0], cache


def critic_targets(agent: SacAgent, batch: dict, gamma: float, rng: SeededRng):
    """Bellman targets with a fresh actor sample at s'; no bootstrap on done."""
    a2, logp2, _ = agent.actor.sample(batch["s2"], rng)
    q1t, _ = _q_values(agent.target1, batch["s2"], a2)
    q2t, _ = _q_values(agent.target2, batch["s2"], a2)
    qt = np.minimum(q1t, q2t)
    not_done = 1.0 - batch["done"].astype(np.float64)
    return batch["r"] + gamma * not_done * (qt - agent.alpha * logp2)


def critic_loss_and_grads(agent: SacAgent, batch: dict, gamma: float, rng: SeededRng):
    y = critic_targets(agent, batch, gamma, rng)
    b = len(y)
    q1, cache1 = _q_values(agent.critic1, batch["s"], batch["a"])
    loss = 0.5 * float(((q1 - y) ** 2).mean())
    g1, _ = nets.backward_from_cache(agent.critic1, cache1, ((q1 - y) / b)[:, None])
    q2, cache2 = _q_values(agent.critic2, batch["s"], batch["a"])
    loss += 0.5 * float(((q2 - y) ** 2).mean())
    g2, _ = nets.backward_from_cache(agent.critic2, cache2, ((q2 - y) / b)[:, None])
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite critic loss")
    return loss, g1, g2


def critic_loss(agent: SacAgent, batch: dict, gamma: float, rng: SeededRng) -> float:
    return critic_loss_and_grads(agent, batch, gamma, rng)[0]


def actor_loss_and_grads(agent: SacAgent, batch: dict, rng: SeededRng):
    """mean(alpha*logp - min twin Q) at reparameterized actions; gradients
    flow only into the actor."""
    s = batch["s"]
    b = s.shape[0]
    a, logp, cache = agent.actor.sample(s, rng)
    q1, c1 = _q_values(agent.critic1, s, a)
    q2, c2 = _q_values(agent.critic2, s, a)
    q = np.minimum(q1, q2)
    take1 = (q1 <= q2)[:, None]
    loss = float((agent.alpha * logp - q).mean())
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite actor loss")
    # dq/da through whichever critic realizes the min, critic params frozen
    up = -np.ones((b, 1)) / b
    _, dx1 = nets.backward_from_cache(agent.critic1, c1, up * take1)
    _, dx2 = nets.backward_from_cache(agent.critic2, c2, up * (~take1))
    d_action = dx1[:, s.shape[1]:] + dx2[:, s.shape[1]:]
    d_logp = np.full(b, agent.alpha / b)
    grads = agent.actor.backward(cache, d_logp, d_action)
    return loss, grads, logp


def actor_loss(agent: SacAgent, batch: dict, rng: SeededRng) -> float:
    return actor_loss_and_grads(agent, batch, rng)[0]


def polyak_update(target: DenseNet, online: DenseNet, rho: float) -> None:
    target.theta *= rho
    target.theta += (1.0 - rho) * online.theta


def sac_update(agent: SacAgent, batch: dict, gamma: float, rng: SeededRng) -> tuple:
    """One Adam step per net plus the polyak target update; returns (critic
    loss, actor loss). All or nothing: on a FloatingPointError the stepped
    critics and their Adam states are restored before it propagates."""
    c_loss, g1, g2 = critic_loss_and_grads(agent, batch, gamma, rng)
    critics = ((agent.critic1, agent.critic1_adam, g1), (agent.critic2, agent.critic2_adam, g2))
    saved = [(net.theta.copy(), adam.m.copy(), adam.v.copy(), adam.t)
             for net, adam, _ in critics]
    try:
        for net, adam, grad in critics:
            adam_step(adam, net.theta, grad)
        a_loss, a_grad, _ = actor_loss_and_grads(agent, batch, rng)
        adam_step(agent.actor_adam, agent.actor.net.theta, a_grad)
    except FloatingPointError:
        for (net, adam, _), (theta, m, v, t) in zip(critics, saved):
            net.theta[:], adam.m[:], adam.v[:], adam.t = theta, m, v, t
        raise
    polyak_update(agent.target1, agent.critic1, agent.polyak)
    polyak_update(agent.target2, agent.critic2, agent.polyak)
    return c_loss, a_loss
