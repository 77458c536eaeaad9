"""Slow reference routes for the operator tests.

Each one is written for clarity, not speed, against the batched
`CertifiedOperator.apply`: the draws of a probe run are made one pair or one
input at a time, in the order a per-input loop would make them, and then
applied as one batch.
"""

import numpy as np

import orliczkit as ok


def _abs_apply(op, rows: np.ndarray) -> np.ndarray:
    return np.abs(op.apply(ok.SampleBatch(op.space, rows)).values)


def window_average_matrices(n: int) -> list[np.ndarray]:
    """The n(n+1)/2 averaging matrices whose pointwise max is the window maximal."""
    mats = []
    for lo in range(n):
        for hi in range(lo, n):
            a = np.zeros((n, n))
            a[lo : hi + 1, lo : hi + 1] = 1.0 / (hi - lo + 1)
            mats.append(a)
    return mats


def maximal_prefix_oracle(v: np.ndarray) -> np.ndarray:
    """Window maximal of one row from the full (start, end) table of window
    means, each taken from prefix sums as (P[b] - P[a]) / (b - a)."""
    n = v.size
    prefix = np.concatenate(([0.0], np.cumsum(np.abs(v))))
    lengths = np.arange(1, n + 1, dtype=float)
    # means[lo, hi] = average of |v| over atoms lo..hi (upper triangle)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = (prefix[None, 1:] - prefix[:-1, None]) / (lengths[None, :] - np.arange(n)[:, None])
    means = np.where(np.arange(n)[None, :] >= np.arange(n)[:, None], means, -np.inf)
    # best window ending at or after i, for each start lo <= i
    tail_best = np.maximum.accumulate(means[:, ::-1], axis=1)[:, ::-1]
    return np.maximum.accumulate(tail_best, axis=0).diagonal().copy()


def subadditivity_violation(op, pairs: int = 1000, seed: int = 7, scale: float = 1.0) -> float:
    """Worst atomwise violation of |T(x+y)| <= |Tx| + |Ty| over random pairs,
    relative to the largest |Tx| + |Ty| of the pair."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = op.space.n
    a, b = np.empty((pairs, n)), np.empty((pairs, n))
    for i in range(pairs):
        a[i] = rng.uniform(-scale, scale, n)
        b[i] = rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(0.0, 1.0, n)) * scale
    lhs = _abs_apply(op, a + b)
    rhs = _abs_apply(op, a) + _abs_apply(op, b)
    gap = (lhs - rhs).max(axis=1, initial=0.0)
    denom = np.maximum(rhs.max(axis=1, initial=0.0), 1e-300)
    return float(np.max(gap / denom, initial=0.0))


def homogeneity_violation(op, trials: int = 200, seed: int = 11) -> float:
    """Worst atomwise violation of |T(c x)| = |c| |Tx| over random scalings,
    relative to the largest |c| |Tx| of the input."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = op.space.n
    xs, cs = np.empty((trials, n)), np.empty(trials)
    for i in range(trials):
        xs[i] = rng.uniform(-1.0, 1.0, n)
        cs[i] = float(rng.choice([-1.0, 1.0]) * np.exp(rng.normal(0.0, 1.0)))
    lhs = _abs_apply(op, cs[:, None] * xs)
    rhs = np.abs(cs)[:, None] * _abs_apply(op, xs)
    scale = np.maximum(rhs.max(axis=1, initial=0.0), 1e-300)
    return float(np.max(np.abs(lhs - rhs).max(axis=1, initial=0.0) / scale, initial=0.0))
