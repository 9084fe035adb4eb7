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

The demo runs the `fvi-sweep` command on these settings, so it writes a run
directory under runs/ (or $MBRLAB_OUTDIR) as `mbrlab fvi-sweep` does, and
prints its table from that directory's fvi_rows.csv and fvi_summary.csv.

Run:  python3 demos/fvi_tradeoff.py [--sigma 0.05] [--seeds 5] [--fast]
"""

import os

# one BLAS thread per process unless the caller chose otherwise, set before
# numpy loads, as the `mbrlab` CLI does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from mbrlab import fvi  # noqa: E402
from mbrlab.config import FviSweepConfig, RunConfig, apply_env_overrides  # noqa: E402
from mbrlab.harness import cmd_fvi_sweep, read_csv  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma", type=float, default=0.05)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--fast", action="store_true", help="tiny grids, ~10s")
    args = ap.parse_args()

    betas = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
    config = apply_env_overrides(RunConfig(fvi=FviSweepConfig(
        mdp="lineworld", beta_grid=betas,
        n_real_grid=(256, 1024) if args.fast else (256, 1024, 4096),
        sigma=args.sigma, iterations=20 if args.fast else 40, n_seeds=args.seeds,
        grid_size=48, n_eval=256, n_bootstrap=100)))
    run = Path(cmd_fvi_sweep(config)["directory"])
    print(f"LineWorld: V_max = {fvi.line_world().v_max:.0f}; the run's files are in {run}")

    discs = defaultdict(list)  # (n_real, beta) -> discrepancy per seed
    for row in read_csv(run / "fvi_rows.csv"):
        discs[int(row["n_real"]), float(row["beta"])].append(float(row["discrepancy"]))
    summary = read_csv(run / "fvi_summary.csv")
    header = "N_real   " + "".join(f"b={b:<7}" for b in betas) + "argmin"
    print("\nmean return discrepancy (lower is better), sigma =", args.sigma)
    print(header)
    for row in summary:
        nr = int(row["n_real"])
        cells = "".join(f"{np.mean(discs[nr, b]):<9.3f}" for b in betas)
        print(f"{nr:<9}{cells}{float(row['argmin_beta'])}")
    print(f"\nbest-beta curve: {[float(row['argmin_beta']) for row in summary]}  "
          f"(bootstrap fraction non-decreasing: "
          f"{float(summary[0]['bootstrap_monotone_frac']):.2f})")


if __name__ == "__main__":
    main()
