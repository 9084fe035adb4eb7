"""The benchmark's workloads, driven only through mbrlab's public entry points.

Each workload has a set-up (what a user pays before the first unit of work)
and a unit (one MBPO run, one FVI sweep, or one PPO round). `unit` returns an
`Outcome`: a sha256 fingerprint of the numbers it produced, the operations it
attempted and the ones that failed, and named correctness checks.

Sizes are scaled so that one unit takes a few seconds on one core and a run
of 30 s holds several units; see README.md for the full-size figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mbrlab import config as run_config
from mbrlab import controller, fvi, harness, mbpo
from mbrlab.envs import make_env
from mbrlab.hyper_mdp import HyperMdpConfig

ROOT = Path(__file__).resolve().parent.parent
ENV = "pointmass2d"


@dataclass
class Outcome:
    fingerprint: str
    attempted: int
    failed: int
    checks: dict
    outputs: dict = field(default_factory=dict)


def _sha(arrays, extra=None) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    if extra is not None:
        h.update(json.dumps(extra, sort_keys=True).encode())
    return h.hexdigest()


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class MbpoWorkload:
    """MBPO from `init_run` under a constant schedule (`default_schedule`:
    fixed beta, G and k, model retrained every tau); one unit is one run.

    Every unit needs a fresh run state, so each unit has its own timed
    `init_run`, and `extra_setups` more are timed up front because one
    `init_run` takes only milliseconds.
    """

    setup_per_unit = True
    extra_setups = 20

    def __init__(self, name, episodes, g, k):
        self.name, self.episodes = name, episodes
        self.hyper = dataclasses.replace(HyperMdpConfig(), g_init=g, k_init=k).for_env(ENV)

    def setup(self, seed):
        # warm-up shortened from 500 to 100 steps so one 200-step episode
        # already trains the model, rolls out and updates on mixed batches
        return mbpo.init_run(ENV, mbpo.MbpoConfig(warmup_steps=100), self.hyper, seed)

    def setup_fingerprint(self, run) -> str:
        return _fingerprint_run(run, [])

    def unit(self, run, seed) -> Outcome:
        records = []
        for _ in range(self.episodes):
            records += mbpo.run_target_episode(run, mbpo.default_schedule, self.hyper)
        cfg, tau = run.config, self.hyper.tau
        steps = self.episodes * run.env.spec.horizon
        events = [e["event"] for e in run.log.events]
        rejected = events.count("sac_step_rejected")
        skipped = events.count("model_train_skipped")
        sac_attempted = self.hyper.g_init * max(0, steps - cfg.updates_start + 1)
        train_attempted = sum(1 for n in range(0, steps, tau) if n >= cfg.warmup_steps)
        trained = sum(bool(r["trained"]) for r in records)
        returns = [row["eval_return"] for row in run.log.eval_rows]
        checks = {
            "d_env_equals_real_steps": len(run.d_env) == run.n_real == steps,
            "eval_returns_finite": len(returns) == self.episodes and _finite(returns),
            # the actor's Adam step is the last one in sac_update, so its
            # counter is the number of updates that were applied
            "sac_updates_accounted": run.agent.actor_adam.t + rejected == sac_attempted,
            "model_trainings_accounted": trained + skipped == train_attempted,
        }
        return Outcome(
            fingerprint=_fingerprint_run(run, run.log.eval_rows),
            attempted=sac_attempted + train_attempted,
            failed=rejected + skipped,
            checks=checks,
            outputs={"final_eval_return": returns[-1] if returns else None,
                     "d_model_size": len(run.d_model)})


def _fingerprint_run(run, eval_rows) -> str:
    agent = run.agent
    arrays = (agent.actor.net.params() + agent.critic1.params() + agent.critic2.params()
              + agent.target1.params() + agent.target2.params())
    for member in run.model.members:
        arrays += member.params()
    return _sha(arrays, eval_rows)


class FviSweepWorkload:
    """Criterion 1's LineWorld grid (6 beta x 3 N_real, sigma 0.05, 40
    iterations, knot grid 48, n_eval 512) on one seed; the exact-VI oracle
    is the set-up and is shared by every unit."""

    name = "fvi-sweep"
    setup_per_unit = False
    extra_setups = 5
    beta_grid = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
    n_real_grid = (256, 1024, 4096)

    def setup(self, seed):
        mdp = fvi.line_world()
        return mdp, fvi.exact_vi(mdp)

    def setup_fingerprint(self, prepared) -> str:
        _, oracle = prepared
        return _sha([oracle.value_fn.values, [oracle.greedy_return]])

    def unit(self, prepared, seed) -> Outcome:
        mdp, oracle = prepared
        out = fvi.beta_sweep(mdp, self.beta_grid, self.n_real_grid, sigma=0.05,
                             iterations=40, seeds=[seed],
                             base=fvi.FviConfig(grid_size=48, n_eval=512),
                             oracle=oracle, n_bootstrap=20, bootstrap_seed=0)
        disc = np.array([row["discrepancy"] for row in out["rows"]])
        bad = int(np.sum(~(np.isfinite(disc) & (disc >= 0.0) & (disc <= mdp.v_max))))
        cells = len(self.beta_grid) * len(self.n_real_grid)
        return Outcome(
            fingerprint=_sha([disc], out["argmin_beta"]),
            attempted=cells,
            failed=bad,
            checks={"all_cells_run": len(disc) == cells,
                    "discrepancies_finite_in_range": bad == 0},
            outputs={"argmin_beta": out["argmin_beta"],
                     "bootstrap_monotone_frac": out["bootstrap_monotone_frac"]})


class ControllerRoundWorkload:
    """One PPO round of `train_controller` on configs/smoke.json, after the
    default-MBPO baseline curve is built in set-up."""

    name = "controller-round"
    setup_per_unit = False
    extra_setups = 3

    def __init__(self):
        doc = json.loads((ROOT / "configs" / "smoke.json").read_text())
        self.config = run_config.from_dict(doc)
        # one inner episode per hyper-episode and one baseline seed keep the
        # round and its set-up at a few seconds each
        self.config.hyper.m_train = 1
        self.config.harness.n_baseline_seeds = 1
        self.hyper = self.config.resolved_hyper()
        self.episodes = self.config.harness.episodes_per_round

    def setup(self, seed):
        return harness.build_baseline(self.config)

    def setup_fingerprint(self, baseline) -> str:
        return _sha([baseline.values])

    def unit(self, baseline, seed) -> Outcome:
        c = self.config
        policy, history = controller.train_controller(
            c.env_name, c.mbpo, self.hyper, c.ppo, baseline, self.episodes, seed,
            episodes_per_round=self.episodes)
        params = policy.net.params()
        n_index = self.hyper.m_train * make_env(c.env_name).spec.horizon // self.hyper.tau
        invalid = history["invalid_count"]
        summary = {k: history[k] for k in ("episode_returns", "improvements", "rounds")}
        return Outcome(
            fingerprint=_sha(params, summary),
            attempted=self.episodes,
            failed=invalid,
            checks={
                "baseline_length": len(baseline) == n_index
                and _finite(baseline.values.tolist()),
                "trajectories_valid": invalid == 0
                and len(history["episode_returns"]) == self.episodes,
                "one_ppo_round": len(history["rounds"]) == 1,
                "controller_params_finite": all(np.isfinite(p).all() for p in params),
            },
            outputs={"episode_returns": history["episode_returns"]})


# name -> constructor; built on demand so importing this module reads no file
WORKLOADS = {
    "mbpo-default": lambda: MbpoWorkload("mbpo-default", episodes=1, g=10, k=1),
    "mbpo-model-heavy": lambda: MbpoWorkload("mbpo-model-heavy", episodes=2, g=1, k=10),
    "fvi-sweep": FviSweepWorkload,
    "controller-round": ControllerRoundWorkload,
}
