"""Command-line experiment driver.

Every subcommand reads one JSON config (defaults apply when omitted), writes
its outputs under a fresh manifest directory, and prints a JSON summary.
Failures exit nonzero with a machine-readable error record on stderr.
"""

from __future__ import annotations

import os

# one BLAS thread per process unless the caller chose otherwise, set before
# numpy loads: subcommands fork workers, which is unsafe with BLAS threads
# alive, and a multi-threaded BLAS makes results depend on the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402

from . import config as config_mod  # noqa: E402
from . import harness  # noqa: E402


def _load_config(path):
    if path is None:
        return config_mod.apply_env_overrides(config_mod.RunConfig())
    return config_mod.load(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbrlab",
        description="Desk-scale experiments: mixture-sampled FVI sweeps, MBPO "
                    "baselines, and hyper-controller training/evaluation.")
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fvi-sweep", help="beta x N_real discrepancy sweep")

    p = sub.add_parser("train-mbpo", help="train an MBPO/SAC instance")
    p.add_argument("--mode", default="default",
                   choices=["default", "sac1", "sac20", "fixed-schedule-file"])
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--schedule-file", default=None,
                   help="schedule CSV to replay (fixed-schedule-file mode)")

    p = sub.add_parser("build-baseline", help="average default runs into a baseline curve")
    p.add_argument("--n-seeds", type=int, default=None)

    p = sub.add_parser("train-controller", help="PPO over the hyper-MDP")
    p.add_argument("--baseline", default=None, help="baseline curve JSON")
    p.add_argument("--episodes", type=int, default=None, help="hyper-episodes")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("eval-controller", help="controller vs default comparison")
    p.add_argument("controller", help="controller checkpoint path")
    p.add_argument("--episodes", type=int, default=None)

    p = sub.add_parser("ablate", help="single-hyperparameter scheduling / state ablation")
    p.add_argument("--mode", required=True, choices=["R", "M", "P", "L", "SA"])
    p.add_argument("--controller", default=None)
    p.add_argument("--baseline", default=None)

    p = sub.add_parser("transfer", help="evaluate a controller on another environment")
    p.add_argument("controller")
    p.add_argument("target_env")

    p = sub.add_parser("pbt", help="population based training baseline")
    p.add_argument("--population", type=int, default=None)
    p.add_argument("--replace-frac", type=float, default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("plot-data", help="tidy CSVs for figures from an experiment dir")
    p.add_argument("experiment_dir")
    return parser


def run_command(args) -> dict:
    cfg = _load_config(args.config)
    if args.command == "fvi-sweep":
        return harness.cmd_fvi_sweep(cfg)
    if args.command == "train-mbpo":
        return harness.cmd_train_mbpo(cfg, args.mode, args.episodes,
                                      args.schedule_file)
    if args.command == "build-baseline":
        return harness.cmd_build_baseline(cfg, args.n_seeds)
    if args.command == "train-controller":
        return harness.cmd_train_controller(cfg, args.baseline, args.episodes,
                                            args.seed)
    if args.command == "eval-controller":
        return harness.cmd_eval_controller(cfg, args.controller,
                                           n_episodes=args.episodes)
    if args.command == "ablate":
        return harness.cmd_ablate(cfg, args.mode, args.controller, args.baseline)
    if args.command == "transfer":
        return harness.cmd_transfer(cfg, args.controller, args.target_env)
    if args.command == "pbt":
        return harness.cmd_pbt(cfg, args.population, args.replace_frac,
                               args.episodes, args.seed)
    if args.command == "plot-data":
        return harness.cmd_plot_data(cfg, args.experiment_dir)
    raise ValueError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        info = run_command(args)
    except Exception as exc:  # noqa: BLE001 - error record contract
        record = {"status": "error", "command": args.command,
                  "error_type": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    print(json.dumps(info, indent=2, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
