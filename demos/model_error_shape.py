"""What the dynamics-model error distribution looks like.

Trains the bootstrapped probabilistic ensemble on pendulum transitions from a
random policy, then histograms the one-step prediction error on fresh data.
The mass should pile up near zero and thin out monotonically - the shape that
motivates modeling the error magnitude as half-normal. For reference, the
script also draws from an actual half-normal and reports the
Kolmogorov-Smirnov distance to its analytic CDF.

Run:  python3 demos/model_error_shape.py
"""

import os

# one BLAS thread per process unless the caller chose otherwise, set before
# numpy loads, as the `mbrlab` CLI does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from mbrlab import fvi, world_model as wm  # noqa: E402
from mbrlab.buffers import TransitionBuffer  # noqa: E402
from mbrlab.envs import make_env  # noqa: E402


def bar(frac, width=50):
    return "#" * int(round(frac * width))


def main():
    env = make_env("pendulum")
    rng = np.random.default_rng(0)
    buf = TransitionBuffer(20_000, 3, 1)
    rows = []
    s = env.reset(rng)
    for _ in range(6000):
        a, r, s2, done = env.step(s, rng.uniform(-2, 2, size=1))
        rows.append((s, a, r, s2, done))
        s = env.reset(rng) if done else s2
    buf.push_batch(*(np.array(column) for column in zip(*rows)))
    print("collected 6000 random-policy pendulum transitions")

    model = wm.init_ensemble(rng, 3, 1, hidden=(64, 64), n_members=3)
    holdout = wm.train_ensemble(model, buf, wm.ModelTrainConfig(max_epochs=40), rng)
    print(f"per-member hold-out NLL: {np.round(holdout, 3)}, elites: {model.elites}")

    test = buf.recent(2000)
    edges, freqs = wm.model_error_histogram(model, test, 20)
    print("\none-step error ||s2_hat - s2||, frequency per bin:")
    for lo, hi, f in zip(edges[:-1], edges[1:], freqs):
        print(f"  [{lo:6.3f}, {hi:6.3f})  {f:5.3f} {bar(f)}")

    out = fvi.error_histogram_check(sigma=0.1, n_samples=1_000_000, bins=30,
                                    rng=np.random.default_rng(1))
    print(f"\nreference half-normal(sigma=0.1): sample mean {out['mean']:.4f} "
          f"(analytic {0.1 * np.sqrt(2 / np.pi):.4f}), "
          f"KS distance to analytic CDF {out['ks_distance']:.4f}")


if __name__ == "__main__":
    main()
