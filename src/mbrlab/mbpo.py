"""The inner training loop: real interaction, scheduled model training,
branched rollouts, and G policy updates per real step.

An "episode" here is a block of exactly H real steps (the environment resets
internally on termination), so sample accounting is exact: after m episodes
the run has consumed H*m real transitions and produced H*m/tau hyper-MDP
indices regardless of early terminations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import sac, world_model
from .buffers import TransitionBuffer
from .envs import evaluate_policy, make_env
from .hyper_mdp import HyperMdpConfig, HyperParams, extract_state, hyper_reward
from .world_model import EnsembleModel, ModelTrainConfig

logger = logging.getLogger(__name__)

CRITIC_EMA = 0.99


@dataclass
class MbpoConfig:
    rollout_branches: int = 20      # F
    warmup_steps: int = 500
    d_env_capacity: int = 100_000
    eval_episodes: int = 5
    batch_size: int = 128
    updates_start: int = 128        # min |D_env| before SAC updates begin
    agent_hidden: tuple = (32, 32)
    model_hidden: tuple = (32, 32)
    n_members: int = 5
    lr: float = 3e-4
    alpha: float = 0.2
    polyak: float = 0.995
    model_buffer_retain: int = 4
    model: ModelTrainConfig = field(default_factory=ModelTrainConfig)

    def validate(self):
        self.model.validate()
        for name in ("rollout_branches", "batch_size", "eval_episodes", "n_members",
                     "model_buffer_retain"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # the model trains on D_env from warmup_steps on, which then holds
        # min(n_real, d_env_capacity) transitions
        for name in ("warmup_steps", "d_env_capacity"):
            if getattr(self, name) < 2.0 / self.model.holdout_fraction:
                raise ValueError(f"{name} below the model hold-out minimum")


@dataclass
class MbpoLog:
    run_id: str
    eval_rows: list = field(default_factory=list)
    hyper_rewards: list = field(default_factory=list)
    schedule_rows: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass
class MbpoRunState:
    config: MbpoConfig
    env: object
    agent: sac.SacAgent
    model: EnsembleModel
    d_env: TransitionBuffer
    d_model: TransitionBuffer
    rng_env: np.random.Generator
    rng_explore: np.random.Generator
    rng_act: np.random.Generator
    rng_model: np.random.Generator
    rng_rollout: np.random.Generator
    rng_update: np.random.Generator
    rng_eval: np.random.Generator
    cur_state: np.ndarray
    log: MbpoLog
    current_params: HyperParams     # the last boundary's choice, or the initial ones
    episode: int = 0
    n_real: int = 0
    env_steps_since_reset: int = 0
    critic_loss_avg: float | None = None
    last_eval_return: float | None = None


def init_run(env_name: str, config: MbpoConfig, hyper_config: HyperMdpConfig,
             seed: int) -> MbpoRunState:
    config.validate()
    env = make_env(env_name)
    hyper_config.validate(env.spec.horizon)
    root = np.random.default_rng(seed)
    (r_env, r_explore, r_act, r_model, r_roll, r_upd, r_eval, r_init) = root.spawn(8)
    sd, ad = env.spec.state_dim, env.spec.action_dim
    agent = sac.init_agent(r_init, sd, ad, env.spec.action_low, env.spec.action_high,
                           hidden=config.agent_hidden, lr=config.lr,
                           alpha=config.alpha, polyak=config.polyak)
    model = world_model.init_ensemble(r_init, sd, ad, hidden=config.model_hidden,
                                      n_members=config.n_members)
    d_env = TransitionBuffer(config.d_env_capacity, sd, ad)
    cap = (config.rollout_branches * hyper_config.k_max * hyper_config.tau
           * config.model_buffer_retain)
    d_model = TransitionBuffer(cap, sd, ad)
    return MbpoRunState(
        config=config, env=env, agent=agent,
        model=model, d_env=d_env, d_model=d_model,
        rng_env=r_env, rng_explore=r_explore, rng_act=r_act, rng_model=r_model,
        rng_rollout=r_roll, rng_update=r_upd, rng_eval=r_eval,
        cur_state=env.reset(r_env), log=MbpoLog(run_id=f"{env_name}-seed{seed}"),
        current_params=hyper_config.initial_params(),
    )


def _uniform_density(env) -> float:
    vol = float(np.prod(env.spec.action_high - env.spec.action_low))
    return 1.0 / vol


def mbpo_step(run: MbpoRunState, hyper: HyperParams, train_model_now: bool) -> dict:
    """One iteration of the inner loop: exactly one real environment step,
    optional model retraining, F branched rollouts, and G SAC updates."""
    cfg = run.config
    env = run.env
    warmup = run.n_real < cfg.warmup_steps

    # one real transition
    if warmup:
        a = run.rng_explore.uniform(env.spec.action_low, env.spec.action_high)
        density = _uniform_density(env)
    else:
        a_batch = run.agent.actor.action(run.cur_state[None, :], run.rng_act)
        a = a_batch[0]
        # record the behavior density through the same evaluator the
        # policy-change feature uses, so an unchanged policy gives a gap of 0
        logp = run.agent.actor.log_density(run.cur_state[None, :], a_batch)[0]
        density = float(np.exp(min(logp, 500.0)))
    a, r, s2, done = env.step(run.cur_state, a)
    run.d_env.push_batch(run.cur_state[None, :], a[None, :], np.array([r]), s2[None, :],
                         np.array([done]), behavior_density=density)
    run.n_real += 1
    run.env_steps_since_reset += 1
    if done or run.env_steps_since_reset >= env.spec.horizon:
        run.cur_state = env.reset(run.rng_env)
        run.env_steps_since_reset = 0
    else:
        run.cur_state = s2

    # model training on schedule
    model_trained = False
    if train_model_now and not warmup:
        try:
            world_model.train_ensemble(run.model, run.d_env, cfg.model, run.rng_model)
            model_trained = True
        finally:  # also when the training raised; a refused call counted nothing
            if any(run.model.last_steps_rejected):
                run.log.events.append({"step": run.n_real, "event": "model_steps_rejected",
                                       "per_member": list(run.model.last_steps_rejected)})

    # branched short rollouts from real states
    rollouts_added = 0
    if run.model.trained and not warmup:
        rollouts_added = world_model.generate_rollouts(
            run.model, run.agent.actor.action, run.d_env, k=hyper.k,
            branches=cfg.rollout_branches, rng=run.rng_rollout, buffer=run.d_model, env=env)

    # G gradient updates on the beta-mixed batch; beta forced to 1 until
    # imaginary data exists
    beta = hyper.beta
    if warmup or not run.model.trained or len(run.d_model) == 0:
        beta = 1.0
    updates = 0
    if len(run.d_env) >= cfg.updates_start:
        for _ in range(hyper.g):
            batch = sac.sample_mixed_batch(run.d_env, run.d_model, cfg.batch_size, beta,
                                           run.rng_update)
            try:
                c_loss, _ = sac.sac_update(run.agent, batch, env.spec.gamma, run.rng_update)
            except FloatingPointError as exc:
                run.log.events.append({"step": run.n_real, "event": "sac_step_rejected",
                                       "reason": str(exc)})
                logger.warning("SAC step rejected at step %d: %s", run.n_real, exc)
                continue
            updates += 1
            run.critic_loss_avg = (c_loss if run.critic_loss_avg is None
                                   else CRITIC_EMA * run.critic_loss_avg
                                   + (1 - CRITIC_EMA) * c_loss)
    return {"n_real": run.n_real, "model_trained": model_trained,
            "rollouts_added": rollouts_added, "updates": updates,
            "critic_loss_avg": run.critic_loss_avg}


def run_target_episode(run: MbpoRunState, schedule_source,
                       hyper_config: HyperMdpConfig) -> list:
    """One H-step block under the hyper_config that `init_run` got. Consults
    schedule_source(state, params) at every tau boundary, runs the per-step
    inner loop, and evaluates the policy at the block end. Returns one record
    per boundary with the hyper-MDP reward."""
    env = run.env
    h_total = env.spec.horizon
    params = run.current_params
    records = []
    for h in range(h_total):
        if h % hyper_config.tau == 0:
            state = extract_state(run, params, hyper_config)
            new_params, train_now = schedule_source(state, params)
            if new_params != params:
                run.log.events.append({
                    "step": run.n_real, "event": "schedule_change",
                    "beta": new_params.beta, "g": new_params.g, "k": new_params.k,
                })
            params = new_params
            records.append({"params": params, "trained": False, "reward": 0.0,
                            "eval_return": None, "real_step": run.n_real})
        else:
            train_now = False
        report = mbpo_step(run, params, train_model_now=train_now)
        if h % hyper_config.tau == 0 and report["model_trained"]:
            records[-1]["trained"] = True
    # end-of-block evaluation feeds both the metrics log and the last reward
    policy = lambda s, rng: sac.act(run.agent, s, True, rng)
    eval_ret = evaluate_policy(env, policy, run.config.eval_episodes, run.rng_eval)
    run.last_eval_return = eval_ret
    records[-1]["eval_return"] = eval_ret
    for rec in records:
        rec["reward"] = hyper_reward(rec["eval_return"], rec["trained"], hyper_config)
    run.episode += 1
    run.current_params = params
    # logs: one eval row per episode, one schedule row per tau-interval
    run.log.eval_rows.append({
        "run_id": run.log.run_id, "episode": run.episode, "n_real": run.n_real,
        "eval_return": eval_ret,
        "model_holdout_loss": (float(np.mean(run.model.holdout_losses))
                               if run.model.trained else float("nan")),
        "critic_loss_avg": (run.critic_loss_avg if run.critic_loss_avg is not None
                            else float("nan")),
        "beta": params.beta, "g": params.g, "k": params.k,
        "model_trained_flag": int(any(r["trained"] for r in records)),
    })
    for rec in records:
        run.log.schedule_rows.append({
            "run_id": run.log.run_id, "real_step": rec["real_step"],
            "beta": rec["params"].beta, "g": rec["params"].g, "k": rec["params"].k,
            "model_trained": int(rec["trained"]),
        })
        run.log.hyper_rewards.append(rec["reward"])
    return records


def default_schedule(state, params):
    """Original-configuration MBPO: constant hyperparameters, model retrained
    at every tau boundary."""
    return params, True


def run_default_mbpo(env_name: str, config: MbpoConfig, hyper_config: HyperMdpConfig,
                     m_episodes: int, seed: int) -> MbpoLog:
    """Train MBPO with fixed initial hyperparameters for m episodes; the
    baseline builder and the degeneracy checks replay this exact path."""
    run = init_run(env_name, config, hyper_config, seed)
    for _ in range(m_episodes):
        run_target_episode(run, default_schedule, hyper_config)
    return run.log


def make_file_schedule(rows, k_max: int):
    """Replay schedule rows (beta/g/k/model_trained, as `read_csv` or `MbpoLog` holds them),
    one per tau boundary; all are checked at the call, a ValueError naming the first bad one."""
    steps = []
    for i, row in enumerate(rows, 1):
        values = []
        for name, kind, lo, hi in (("beta", float, 0.0, 1.0), ("g", int, 1, np.inf),
                                   ("k", int, 1, k_max), ("model_trained", int, 0, 1)):
            try:  # through str: int("1.5") raises where int(1.5) would truncate
                values.append(kind(str(row.get(name))))
            except ValueError:
                values.append(np.nan)
            if not lo <= values[-1] <= hi:  # a NaN fails this too
                raise ValueError(f"schedule row {i}: {name} {row.get(name)!r} is not "
                                 f"{kind.__name__} in [{lo}, {hi}]")
        steps.append((HyperParams(*values[:3]), bool(values[3])))
    it = iter(steps)
    return lambda state, params: next(it)
