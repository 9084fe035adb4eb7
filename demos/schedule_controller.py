"""Training a hyper-controller and reading the schedule it found.

Builds a baseline curve from default-configuration runs, trains a small PPO
controller over the hyper-MDP (each hyper-episode is a full MBPO training run
from scratch), then rolls the greedy controller once and prints the schedule
it applies: real ratio, policy updates per step, rollout length, and when it
chose to retrain the model.

At the default --hyper-episodes 12 this takes several minutes; the schedule
is usually still rough. The nightly acceptance job runs the full 40-episode
protocol.

Run:  python3 demos/schedule_controller.py [--hyper-episodes 12] [--m 3]
"""

import os

# one BLAS thread per process unless the caller chose otherwise, set before
# numpy loads, as the `mbrlab` CLI does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402

import numpy as np  # noqa: E402

from mbrlab import controller as ctrl  # noqa: E402
from mbrlab import harness  # noqa: E402
from mbrlab.config import HarnessConfig, RunConfig  # noqa: E402
from mbrlab.hyper_mdp import HyperMdpConfig  # noqa: E402
from mbrlab.mbpo import MbpoConfig  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--hyper-episodes", type=int, default=12)
    ap.add_argument("--m", type=int, default=3, help="inner episodes per hyper-episode")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = RunConfig(env_name="pointmass2d",
                    mbpo=MbpoConfig(warmup_steps=200),
                    hyper=HyperMdpConfig(m_train=args.m, m_eval=args.m),
                    harness=HarnessConfig(n_baseline_seeds=3))
    hc = cfg.resolved_hyper()

    print(f"building the baseline curve ({cfg.harness.n_baseline_seeds} default runs)...")
    baseline = harness.build_baseline(cfg)

    print(f"training the controller for {args.hyper_episodes} hyper-episodes...")
    policy, history = ctrl.train_controller(
        cfg.env_name, cfg.mbpo, hc, ctrl.PpoConfig(), baseline,
        n_hyper_episodes=args.hyper_episodes, seed=args.seed)
    rounds = history["rounds"]
    print(f"PPO rounds: {len(rounds)}, mean clip fraction "
          f"{np.mean([r['clip_fraction'] for r in rounds]):.2f}")
    print(f"hyper-episode returns: {np.round(history['episode_returns'], 2)}")

    _, log = ctrl.run_hyper_episode(policy, cfg.env_name, cfg.mbpo, hc,
                                    seed=123, greedy=True)
    print("\ngreedy controller schedule (one fresh MBPO run):")
    print(f"{'step':>6} {'beta':>7} {'G':>3} {'k':>3} {'trained':>8}")
    for row in log.schedule_rows:
        print(f"{row['real_step']:>6} {row['beta']:>7.3f} {row['g']:>3} "
              f"{row['k']:>3} {row['model_trained']:>8}")
    finals = [r["eval_return"] for r in log.eval_rows]
    print(f"eval returns per episode: {np.round(finals, 1)}")


if __name__ == "__main__":
    main()
