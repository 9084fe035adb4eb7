"""Dyna-style training against its model-free endpoints.

Runs three configurations on the 2-D point-mass task with the same seed:
default MBPO (5% real data, 10 updates per step, model retrained every 50
steps), SAC(1) (all-real batches, one update per step), and SAC(20)
(all-real, twenty updates per step). Prints the evaluation return after each
200-step episode. MBPO's imaginary data usually buys a faster climb per real
step at this scale; SAC(20) shows what raw update count alone does.

Run:  python3 demos/mbpo_vs_sac.py [--episodes 8] [--seed 0]
"""

import os

# one BLAS thread per process unless the caller chose otherwise, set before
# numpy loads, as the `mbrlab` CLI does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402

from mbrlab.config import RunConfig  # noqa: E402
from mbrlab.harness import run_mbpo_mode  # noqa: E402
from mbrlab.hyper_mdp import HyperMdpConfig  # noqa: E402
from mbrlab.mbpo import MbpoConfig  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = RunConfig(env_name="pointmass2d", mbpo=MbpoConfig(warmup_steps=200),
                    hyper=HyperMdpConfig(m_train=args.episodes))
    curves = {}
    for mode in ("default", "sac1", "sac20"):
        log = run_mbpo_mode(cfg, mode, args.seed)
        curves[mode] = [row["eval_return"] for row in log.eval_rows]
        print(f"{mode}: done")

    print(f"\neval return per episode (seed {args.seed}):")
    print("episode  " + "".join(f"{m:>10}" for m in curves))
    for ep in range(args.episodes):
        row = "".join(f"{curves[m][ep]:>10.1f}" for m in curves)
        print(f"{ep + 1:<9}{row}")


if __name__ == "__main__":
    main()
