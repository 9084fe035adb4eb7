"""Small statistics helpers for experiment reports."""

from __future__ import annotations

import numpy as np


class DegenerateSamples(ValueError):
    pass


def welch_t(xs, ys) -> tuple:
    """Welch's unequal-variance t statistic and two-sided p value.

    Degrees of freedom via Welch-Satterthwaite; the p value comes from the
    Student-t CDF. Requires >= 2 samples per side and nonzero variance.
    """
    from scipy.special import stdtr  # deferred, so importing mbrlab loads no scipy
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 2 or len(ys) < 2:
        raise DegenerateSamples("welch_t needs at least two samples per group")
    vx, vy = xs.var(ddof=1), ys.var(ddof=1)
    if vx == 0.0 and vy == 0.0:
        raise DegenerateSamples("welch_t is undefined for two zero-variance groups")
    nx, ny = len(xs), len(ys)
    se2 = vx / nx + vy / ny
    t = (xs.mean() - ys.mean()) / np.sqrt(se2)
    df = se2 ** 2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return float(t), min(1.0, p)
