"""How the best real-data ratio moves with the real-sample budget.

Fitted value iteration on a 1-D world where every Bellman backup draws its
next state from the true dynamics with probability beta, or from a corrupted
model (half-normal displacement of scale sigma) otherwise. At a fixed budget
of real samples per iteration, small beta buys many cheap-but-noisy states
while large beta buys few exact ones.

The sweep below prints, for each real-sample budget, the return discrepancy
against an exact value-iteration oracle across the beta grid. At the mild
corruption used by the acceptance suite (sigma=0.05) the small-budget rows
pin the best beta low - starving the fit is far worse than model noise -
while generous budgets flatten the row. Crank sigma up (try --sigma 0.2) and
the left side of each row lifts as corrupted targets start to bite, moving
the best beta toward 1.

Run:  python3 demos/fvi_tradeoff.py [--sigma 0.05] [--seeds 5] [--fast]
"""

import os

# one BLAS thread per process unless the caller chose otherwise, set before
# numpy loads, as the `mbrlab` CLI does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402

import numpy as np  # noqa: E402

from mbrlab import fvi  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma", type=float, default=0.05)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--fast", action="store_true", help="tiny grids, ~10s")
    args = ap.parse_args()

    mdp = fvi.line_world()
    oracle = fvi.exact_vi(mdp)
    print(f"LineWorld: V_max = {mdp.v_max:.0f}, oracle greedy return from "
          f"uniform starts = {oracle.greedy_return:.2f}")

    betas = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0]
    budgets = [256, 1024] if args.fast else [256, 1024, 4096]
    iters = 20 if args.fast else 40
    out = fvi.beta_sweep(mdp, betas, budgets, sigma=args.sigma, iterations=iters,
                         seeds=range(args.seeds),
                         base=fvi.FviConfig(grid_size=48, n_eval=256),
                         oracle=oracle, n_bootstrap=100)

    header = "N_real   " + "".join(f"b={b:<7}" for b in betas) + "argmin"
    print("\nmean return discrepancy (lower is better), sigma =", args.sigma)
    print(header)
    for i, nr in enumerate(out["n_real_grid"]):
        cells = "".join(f"{out['mean'][i][j]:<9.3f}" for j in range(len(betas)))
        print(f"{nr:<9}{cells}{out['argmin_beta'][i]}")
    print(f"\nbest-beta curve: {out['argmin_beta']}  "
          f"(bootstrap fraction non-decreasing: {out['bootstrap_monotone_frac']:.2f})")


if __name__ == "__main__":
    main()
