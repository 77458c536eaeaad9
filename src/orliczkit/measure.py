"""Finite discrete measure spaces, sample functions, and rearrangements.

Everything downstream (modulars, K-functionals, operator verification) runs
on these types. Spaces are finite lists of weighted atoms; a sample batch
holds many functions on one space as one array; the decreasing
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
class SampleBatch:
    """Finite values on the atoms of one space, one row per member.

    The batched kernels take a batch where they take one `SampleFunction`
    and return one row per member.
    """

    space: DiscreteMeasureSpace
    values: np.ndarray

    def __init__(self, space: DiscreteMeasureSpace, values):
        v = _frozen_array(values)
        if v.ndim != 2 or v.shape[1] != space.n:
            raise ValueError("values must have one row per member and one column per atom")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", v)

    @classmethod
    def stack(cls, members: Sequence[SampleFunction]) -> "SampleBatch":
        """The batch of at least one member, all on one space."""
        members = list(members)
        if not members:
            raise ValueError("stack needs at least one member; build an empty batch from its space")
        space = members[0].space
        if any(m.space is not space and not np.array_equal(m.space.weights, space.weights)
               for m in members):
            raise ValueError("batch members live on different spaces")
        return cls(space, np.stack([m.values for m in members]))

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, rows) -> "SampleBatch":
        """The members at the given indices (an index array or a slice)."""
        return SampleBatch(self.space, self.values[rows])

    def abs_values(self) -> np.ndarray:
        return np.abs(self.values)


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


def golden_section(f, lo, hi, tol) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search for each row's minimiser of a unimodal objective.

    Row i shrinks [lo[i], hi[i]] until it is at most tol wide (tol is one
    scalar for all rows or one value per row), on its own; f(rows, points)
    evaluates the listed rows, all still open, at one point each, one new
    point per row and step. Returns the final (lo, hi).
    """
    r = (np.sqrt(5.0) - 1.0) / 2.0
    out_a, out_b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), out_a.shape)
    live = np.flatnonzero(out_b - out_a > tol)
    # the state of the open rows only, packed; a closed row leaves it
    a, b, tol = out_a[live], out_b[live], tol[live]
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(live, c), f(live, d)
    while live.size:
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        span = r * (b - a)
        c, d = np.where(left, b - span, d), np.where(left, c, a + span)
        f_new = f(live, np.where(left, c, d))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        still = b - a > tol
        if not still.all():
            out_a[live[~still]], out_b[live[~still]] = a[~still], b[~still]
            live, a, b, c, d, fc, fd, tol = (v[still] for v in (live, a, b, c, d, fc, fd, tol))
    return out_a, out_b


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
