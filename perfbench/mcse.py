"""Batch-means Monte Carlo standard error and effective sample size.

For a chain x_1..x_n, split it into a = n // b batches of b = floor(sqrt(n))
consecutive values.  b times the sample variance of the batch means
estimates the asymptotic variance sigma^2 of the chain mean (Flegal &
Jones 2010, Ann. Statist.), so MCSE = sqrt(sigma^2 / n) and the effective
sample size is n * var(x) / sigma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BatchMeans:
    n: int
    mean: float
    mcse: float
    ess: float


def hits_from_p_sequence(p_sequence) -> np.ndarray:
    """Per-step hit indicators of a walk, recovered from its running
    p-value estimates p_i = hits_i / i as the differences of
    round(i * p_i).  Exact while i stays far below 2**52."""
    p = np.asarray(p_sequence, dtype=np.float64)
    i = np.arange(1, p.size + 1, dtype=np.float64)
    hits = np.rint(i * p).astype(np.int64)
    return np.diff(hits, prepend=0)


def batch_means(x) -> BatchMeans:
    """MCSE and ESS of the mean of ``x`` by non-overlapping batch means.

    A constant series has no variance to estimate; its MCSE is 0 and
    its ESS is taken as n.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError("batch means need at least 4 values")
    b = math.isqrt(n)
    a = n // b
    means = x[: a * b].reshape(a, b).mean(axis=1)
    sigma2 = b * float(means.var(ddof=1))
    var = float(x.var(ddof=1))
    mean = float(x.mean())
    if var == 0.0 or sigma2 == 0.0:
        return BatchMeans(n, mean, 0.0, float(n))
    return BatchMeans(n, mean, math.sqrt(sigma2 / n), n * var / sigma2)
