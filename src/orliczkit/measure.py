"""Finite discrete measure spaces, sample functions, and rearrangements.

Everything downstream (modulars, K-functionals, operator verification) runs
on these types. Spaces are finite lists of weighted atoms; the decreasing
rearrangement of a sample function is a right-continuous step function on
[0, total measure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteMeasureSpace:
    """Ordered atoms with strictly positive weights."""

    weights: np.ndarray
    atoms: tuple = ()

    def __init__(self, weights: Sequence[float], atoms: Sequence[str] | None = None):
        w = _frozen_array(weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("every atom weight must be finite and > 0")
        if atoms is None:
            atoms = tuple(str(i) for i in range(w.size))
        else:
            atoms = tuple(atoms)
            if len(atoms) != w.size:
                raise ValueError("atoms and weights must have equal length")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total_measure(self) -> float:
        return float(self.weights.sum())


def uniform_space(n: int, atom_weight: float = 1.0) -> DiscreteMeasureSpace:
    """Space of n atoms with equal weight."""
    return DiscreteMeasureSpace(np.full(n, float(atom_weight)))


@dataclass(frozen=True, eq=False)
class SampleFunction:
    """Real values attached to the atoms of a space."""

    space: DiscreteMeasureSpace
    values: np.ndarray

    def __init__(self, space: DiscreteMeasureSpace, values: Sequence[float]):
        v = _frozen_array(values)
        if v.shape != (space.n,):
            raise ValueError("values length must equal the atom count")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", v)

    def abs_values(self) -> np.ndarray:
        return np.abs(self.values)

    def scaled(self, factor: float) -> "SampleFunction":
        return SampleFunction(self.space, self.values * factor)


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous nonincreasing step function on [0, total measure).

    breakpoints are cumulative measures (strictly increasing, ending at the
    total measure); levels[i] holds on [breakpoints[i-1], breakpoints[i]).
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __init__(self, breakpoints: Sequence[float], levels: Sequence[float]):
        b = _frozen_array(breakpoints)
        l = _frozen_array(levels)
        if b.shape != l.shape or b.ndim != 1 or b.size == 0:
            raise ValueError("breakpoints and levels must be matching 1-d sequences")
        if np.any(b <= 0.0) or np.any(np.diff(b) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing and positive")
        if np.any(l < 0.0) or np.any(np.diff(l) > 0.0):
            raise ValueError("levels must be nonnegative and nonincreasing")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "levels", l)

    @property
    def total_measure(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(np.concatenate(([0.0], self.breakpoints)))


def rearrangement(x: SampleFunction) -> StepFunction:
    """Decreasing rearrangement of |x| as a canonical step function.

    Sorts (|value|, weight) pairs by |value| descending, accumulates weights,
    and merges equal levels into a single step.
    """
    mags = x.abs_values()
    order = np.argsort(-mags, kind="stable")
    sorted_mags = mags[order]
    sorted_w = x.space.weights[order]
    # merge runs of equal magnitude into one step
    keep = np.concatenate((sorted_mags[:-1] != sorted_mags[1:], [True]))
    cum_w = np.cumsum(sorted_w)
    return StepFunction(cum_w[keep], sorted_mags[keep])


def step_to_sample(step: StepFunction) -> SampleFunction:
    """Sample function induced by a step function (one atom per step)."""
    return SampleFunction(DiscreteMeasureSpace(step.widths), step.levels)


def lp_integral(x: Union[SampleFunction, StepFunction], p: float) -> float:
    """Weighted p-th power sum, i.e. the p-norm raised to p.

    Accepts either a sample function or a step function; both give the same
    value for a function and its rearrangement.
    """
    if not (1.0 <= p < np.inf):
        raise ValueError("p must lie in [1, inf)")
    if isinstance(x, StepFunction):
        return float(np.sum(x.levels**p * x.widths))
    return float(np.sum(x.abs_values() ** p * x.space.weights))


def sup_norm(x: SampleFunction) -> float:
    """Essential supremum, here simply max |x_i|."""
    return float(np.max(x.abs_values()))


def cumulative_p_integral(step: StepFunction, p: float, t) -> np.ndarray:
    """Integral of the p-th power of the step function over [0, min(t, total)].

    Piecewise linear in t; vectorized over t.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    cum = np.concatenate(([0.0], np.cumsum(step.levels**p * step.widths)))
    breaks = np.concatenate(([0.0], step.breakpoints))
    tc = np.clip(t, 0.0, step.total_measure)
    idx = np.searchsorted(breaks, tc, side="right") - 1
    idx = np.minimum(idx, step.levels.size - 1)
    return cum[idx] + step.levels[idx] ** p * (tc - breaks[idx])


def golden_section(f, lo, hi, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search for each row's minimiser of a unimodal objective.

    Row i shrinks [lo[i], hi[i]] until it is at most tol wide, on its own;
    f(rows, points) evaluates the listed rows, all still open, at one point
    each, one new point per row and step. Returns the final (lo, hi).
    """
    r = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = np.empty(a.shape), np.empty(a.shape)
    live = np.flatnonzero(b - a > tol)
    fc[live], fd[live] = f(live, c[live]), f(live, d[live])
    while live.size:
        left = fc[live] <= fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - r * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + r * (b[rt] - a[rt])
        f_new = f(live, np.where(left, c[live], d[live]))
        fc[lt], fd[rt] = f_new[left], f_new[~left]
        live = live[b[live] - a[live] > tol]
    return a, b


class HardyCheck(NamedTuple):
    ok: bool
    margin: float


def hardy_majorizes(x: SampleFunction, y: SampleFunction, p: float) -> HardyCheck:
    """Whether the running integrals of |x*|^p stay below those of |y*|^p.

    Both cumulative integrals are piecewise linear in t with kinks only at
    rearrangement breakpoints, so checking the union of breakpoints is exact.
    Returns the most negative slack (min over t of the y-minus-x cumulative
    difference; >= 0 means the majorization holds).
    """
    sx, sy = rearrangement(x), rearrangement(y)
    if abs(sx.total_measure - sy.total_measure) > 1e-12 * max(sx.total_measure, 1.0):
        raise ValueError("total measures differ")
    ts = np.union1d(sx.breakpoints, sy.breakpoints)
    slack = cumulative_p_integral(sy, p, ts) - cumulative_p_integral(sx, p, ts)
    margin = float(slack.min())
    scale = max(float(cumulative_p_integral(sy, p, sy.total_measure)[-1]), 1.0)
    return HardyCheck(margin >= -1e-12 * scale, margin)
