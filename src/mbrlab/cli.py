"""Command-line experiment driver.

Every subcommand reads one JSON config (defaults apply when omitted), the
only source of its settings: episode, seed and population counts are config
keys, not flags. Arguments only select the experiment (mode, checkpoint,
paths). A command writes its outputs under a fresh run directory whose
manifest records the config and the run's status, and prints a JSON summary.
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
                   choices=list(harness.TRAIN_MBPO_MODES))
    p.add_argument("--schedule-file", default=None,
                   help="schedule CSV to replay (fixed-schedule-file mode)")

    sub.add_parser("build-baseline", help="average default runs into a baseline curve")

    p = sub.add_parser("train-controller", help="PPO over the hyper-MDP")
    p.add_argument("--baseline", default=None, help="baseline curve JSON")

    p = sub.add_parser("eval-controller", help="controller vs default comparison")
    p.add_argument("controller", help="controller checkpoint path")

    p = sub.add_parser("ablate", help="single-hyperparameter scheduling / state ablation")
    p.add_argument("--mode", required=True, choices=["R", "M", "P", "L", "SA"])
    p.add_argument("--controller", default=None)
    p.add_argument("--baseline", default=None)

    sub.add_parser("pbt", help="population based training baseline")

    p = sub.add_parser("plot-data", help="tidy CSVs for figures from an experiment dir")
    p.add_argument("experiment_dir")
    return parser


def run_command(args) -> dict:
    cfg = _load_config(args.config)
    if args.command == "fvi-sweep":
        return harness.cmd_fvi_sweep(cfg)
    if args.command == "train-mbpo":
        return harness.cmd_train_mbpo(cfg, args.mode, args.schedule_file)
    if args.command == "build-baseline":
        return harness.cmd_build_baseline(cfg)
    if args.command == "train-controller":
        return harness.cmd_train_controller(cfg, args.baseline)
    if args.command == "eval-controller":
        return harness.cmd_eval_controller(cfg, args.controller)
    if args.command == "ablate":
        return harness.cmd_ablate(cfg, args.mode, args.controller, args.baseline)
    if args.command == "pbt":
        return harness.cmd_pbt(cfg)
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
