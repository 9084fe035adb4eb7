"""mbrlab benchmark: one workload per run, or all of them with `--workload all`.

    python3 perfbench/run.py --workload mbpo-default --seed 0 --seconds 30 --trace 0

With `--trace 0` the run times its set-up several times, then repeats its
unit of work for `--seconds` seconds, cycling through three sub-seeds derived
from `--seed`, and reports the end-to-end metrics. With `--trace 1` it runs an
untraced unit, the same set-up and unit under the tracer, and one more
untraced unit, checks that all give the same fingerprint, and reports the
per-layer metrics of the traced unit. Every run checks its outputs; the last
line of standard output is one JSON object, and a failed check exits with 1.
Full records and traces go to `.bench_out/` at the root of the checkout.
"""

import os

# pin BLAS to one thread before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("mbpo-default", "mbpo-model-heavy", "fvi-sweep", "controller-round")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
SUB_SEEDS = 3                 # distinct unit seeds per run
MIN_UNITS = SUB_SEEDS + 1     # so at least one sub-seed is repeated


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def tail_percentile(samples):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def timed(fn, *args):
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - t0, time.process_time() - c0


class Run:
    """Collects timings, outcomes and checks of one benchmark run.

    A run cycles its units through SUB_SEEDS seeds derived from `--seed`, so
    its mean averages over several inputs, and every sub-seed that comes
    round again must reproduce its first fingerprint.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.seeds = [seed * SUB_SEEDS + j for j in range(SUB_SEEDS)]
        self.setup_s, self.unit_s, self.outcomes = [], [], []
        self.setup_fps = defaultdict(set)
        self.checks = {}

    def setup(self, seed):
        prepared, wall, _ = timed(self.workload.setup, seed)
        self.setup_s.append(wall)
        self.setup_fps[seed].add(self.workload.setup_fingerprint(prepared))
        return prepared

    def unit(self, prepared, seed):
        outcome, wall, cpu = timed(self.workload.unit, prepared, seed)
        self.outcomes.append((seed, outcome))
        self.unit_s.append(wall)
        return outcome, wall, cpu

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def finish_checks(self):
        for _, o in self.outcomes:
            for name, ok in o.checks.items():
                self.check(name, ok)
        unit_fps = defaultdict(list)
        for seed, o in self.outcomes:
            unit_fps[seed].append(o.fingerprint)
        self.check("setup_reproducible", all(len(f) == 1 for f in self.setup_fps.values()))
        self.check("unit_reproducible",
                   any(len(f) > 1 for f in unit_fps.values())
                   and all(len(set(f)) == 1 for f in unit_fps.values()))

    def counts(self):
        attempted = sum(o.attempted for _, o in self.outcomes) + len(self.checks)
        failed = (sum(o.failed for _, o in self.outcomes)
                  + sum(not ok for ok in self.checks.values()))
        return attempted, failed

    def per_seed(self) -> dict:
        """Fingerprint and outputs of the last unit at each sub-seed."""
        return {str(seed): {"fingerprint": o.fingerprint, "outputs": o.outputs}
                for seed, o in self.outcomes}


def measure(run, seconds):
    """Untraced: set-ups, then units cycling the sub-seeds for `seconds`."""
    w = run.workload
    prepared = None
    for i in range(w.extra_setups):
        prepared = run.setup(run.seeds[i % SUB_SEEDS])
    t_end = time.perf_counter() + seconds
    i = 0
    while len(run.unit_s) < MIN_UNITS or (
            time.perf_counter() + statistics.median(run.unit_s) <= t_end):
        seed = run.seeds[i % SUB_SEEDS]
        i += 1
        if w.setup_per_unit:
            prepared = run.setup(seed)
        run.unit(prepared, seed)
    run.finish_checks()
    # run_s is the mean, not the median: the host alternates between a fast
    # and a ~1.6x slower state for seconds to minutes at a time, and the mean
    # over a run varies less across runs than the median, which jumps
    # between the two states
    metrics = {"setup_s": statistics.median(run.setup_s),
               "run_s": statistics.mean(run.unit_s),
               "peak_rss_mb": peak_rss_mb()}
    extra = {"setup_samples": run.setup_s, "run_samples": run.unit_s,
             "run_s_median": statistics.median(run.unit_s),
             "run_s_tail": tail_percentile(run.unit_s)}
    return metrics, extra


def measure_traced(run, trace_path):
    """At the first sub-seed: an untraced warm-up unit, the same set-up and
    unit under the tracer, then a second untraced unit as the reference for
    the tracing overhead."""
    import tracing
    seed = run.seeds[0]
    prepared = run.setup(seed)
    run.unit(prepared, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        traced = run.setup(seed)
        tracer.phase = "unit"
        _, traced_s, _ = run.unit(traced, seed)
    finally:
        run.check("wrappers_restored", tracer.restore())
    if run.workload.setup_per_unit:
        prepared = run.setup(seed)
    _, plain_s, plain_cpu = run.unit(prepared, seed)
    run.finish_checks()
    tracer.write(trace_path)
    metrics = tracer.metrics()
    metrics["process.cpu_s"] = plain_cpu
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    units = dict(tracing.PER_LAYER)
    return metrics, units, {"untraced_s": plain_s, "traced_s": traced_s,
                            "spans": len(tracer.names), "trace_file": str(trace_path)}


def run_one(args) -> int:
    if not (SRC / "mbrlab" / "__init__.py").is_file():
        print(f"perfbench: no mbrlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mbrlab
    if Path(mbrlab.__file__).resolve().parent != (SRC / "mbrlab").resolve():
        print(f"perfbench: mbrlab imported from {mbrlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    load_start = os.getloadavg()
    meta = metadata()
    run = Run(workloads.WORKLOADS[args.workload](), args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics, units, extra, error = {}, {}, {}, None
    try:
        if args.trace:
            metrics, units, extra = measure_traced(run, OUT / f"{stem}.trace.json.gz")
        else:
            metrics, extra = measure(run, args.seconds)
            units = END_TO_END
    except Exception:  # noqa: BLE001 - reported as a failed run, not re-raised
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        run.check("workload_completed", False)
    attempted, failed = run.counts()
    correct = all(run.checks.values())
    out = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "units": len(run.unit_s),
        "metadata": meta, "load_avg_start": load_start, "load_avg_end": os.getloadavg(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "checks": run.checks, "per_seed": run.per_seed(),
        "setup_fingerprints": {str(k): sorted(v) for k, v in run.setup_fps.items()},
        "metrics": out,
        "extra": extra, "error": error,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(run.unit_s)} sha={meta['git_sha'][:12]} "
          f"load={load_start[0]:.2f}->{record['load_avg_end'][0]:.2f}")
    for name, m in out.items():
        print(f"  {name:50s} {m['value']:14.6g} {m['unit']}")
    if not args.trace and "run_s" in metrics:
        tail = extra["run_s_tail"]
        print(f"  run_s is the mean of {len(run.unit_s)} units; median "
              f"{extra['run_s_median']:.4g} s; "
              + (f"p{tail[0]} {tail[1]:.4g} s" if tail else
                 "too few units for a percentile with ten samples beyond it"))
    for seed, r in record["per_seed"].items():
        print(f"  seed {seed}: {r['fingerprint'][:16]} {json.dumps(r['outputs'])}")
    for name, ok in run.checks.items():
        if not ok:
            print(f"  FAILED CHECK {name}")
            print(f"perfbench: failed check {name}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, order rotated by the seed."""
    k = args.seed % len(NAMES)
    order = NAMES[k:] + NAMES[:k]
    results, status = {}, 0
    for name in order:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
