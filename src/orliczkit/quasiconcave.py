"""Quasi-concave functions, concave majorants, and concave decompositions.

A quasi-concave generator is positive and nondecreasing on (0, inf) with
rho(t)/t nonincreasing. Each generator kind is one jet: rho(t) stacks
rho(t), t*rho'(t) and t^2*rho''(t) along a new first axis, with the slope
on the right at a kink, as `OrliczFunction.jet` does for phi; its first row
is the value. Both shape checks read the jet pointwise: quasi-concavity is
0 <= t*rho' <= rho, and concavity a nonincreasing rho' = (t*rho')/t. The
concave majorant of a jet is the least concave function above its value,
here computed exactly on a log grid as the lower envelope of the line family
rho(s) + t * rho(s)/s and returned as a certified piecewise linear concave
object. Concave piecewise linear functions decompose into (value at 0+,
asymptotic slope, slope-drop atoms), which the `majorant` command prints
next to the majorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

DEFAULT_GRID_LO = 1e-8
DEFAULT_GRID_HI = 1e8
DEFAULT_POINTS_PER_DECADE = 512


def log_grid(lo: float = DEFAULT_GRID_LO, hi: float = DEFAULT_GRID_HI,
             points_per_decade: int = DEFAULT_POINTS_PER_DECADE) -> np.ndarray:
    decades = math.log10(hi) - math.log10(lo)
    n = int(round(decades * points_per_decade)) + 1
    return np.logspace(math.log10(lo), math.log10(hi), n)


# the largest elasticity excess a quasi-concave rho may show on a grid: its
# jet gives E = t*rho'/rho to a few ulps
QUASICONCAVITY_TOL = 1e-10


def quasiconcavity_violation(rows: np.ndarray) -> float:
    """Worst excess of the elasticity E = t*rho'/rho outside [0, 1], read off
    rows 0 and 1 of rho's jet at each grid point (0 for a quasi-concave rho):
    rho is nondecreasing where t*rho' >= 0, and rho(t)/t nonincreasing where
    t*rho' <= rho."""
    if np.any(rows[0] <= 0.0) or not np.all(np.isfinite(rows[:2])):
        raise ValueError("rho must be finite and positive on the grid")
    elast = rows[1] / rows[0]
    return float(np.maximum(-elast, elast - 1.0).max(initial=0.0))


def concavity_violation(rows: np.ndarray, grid: np.ndarray) -> float:
    """Worst relative rise of rho' = (t*rho')/t, read off row 1 of rho's jet
    on the grid, from one grid point to the next (0 for a concave rho).
    Chords would carry a rounding error of a large value over a short step
    near t = 0; a table's slopes come out exact."""
    slopes = rows[1] / np.asarray(grid, dtype=float)
    scale = np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:]))
    scale = np.maximum(scale, 1e-300)
    rises = (slopes[1:] - slopes[:-1]) / scale
    return float(max(rises.max(initial=0.0), 0.0))


def power_log_rho(theta: float, a: float, b: float) -> Callable:
    """The jet of t^theta * ln(e+t)^a * ln(e+1/t)^b, 0 at t=0."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")

    def rho(t):
        t = np.asarray(t, dtype=float)
        pos = t > 0.0
        tp = np.where(pos, t, 1.0)   # rows at t <= 0 are zeroed below
        vals = tp**theta
        # the elasticity E = t*rho'/rho and t*E'. A factor ln(e + t^k)^c adds
        # c*f to E and c*f*(k - w - f) to t*E', with w = k*t^k / (e + t^k) and
        # f = w / ln(e + t^k); one with c = 0 is exactly 1.0, so it is skipped
        elast, slope = float(theta), 0.0
        for c, k in ((a, 1.0), (b, -1.0)):
            if c:
                power = tp**k   # bitwise t and 1/t
                log_x = np.log(np.e + power)
                vals *= log_x**c
                w = k * power / (np.e + power)
                f = w / log_x
                elast, slope = elast + c * f, slope + c * f * (k - w - f)
        return np.stack((vals, vals * elast, vals * (elast * (elast - 1.0) + slope))) * pos

    return rho


def power_rho(theta: float) -> Callable:
    """The jet of t^theta for theta in [0, 1]; theta=0 is the constant generator."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    orders = np.array([1.0, theta, theta * (theta - 1.0)])
    orders.flags.writeable = False
    return lambda t: np.multiply.outer(orders, np.asarray(t, dtype=float) ** theta)


def min_one_rho() -> Callable:
    """The jet of min(1, t), as the table with knot 1, slope 1 below it and 0 above."""
    return PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0).jet


def max_one_rho() -> Callable:
    """The jet of max(1, t): quasi-concave, not concave."""
    return lambda t: np.stack((np.maximum(1.0, t), np.where(np.greater_equal(t, 1.0), t, 0.0),
                               np.zeros(np.shape(t))))


@dataclass(frozen=True, eq=False)
class PiecewiseLinearConcave:
    """Concave piecewise linear function on (0, inf), nonnegative.

    Built from knots, values and the slopes slope0 on (0, knots[0]] and
    slope_inf beyond the last knot, it interpolates the knots. Slopes must be
    nonincreasing and the limit at 0+ nonnegative.

    `slopes` and `intercepts` (read-only) hold one line per piece: below
    knots[0], between each pair of knots, and beyond knots[-1]. Piece j
    covers knots[j-1] <= u < knots[j], and the function there is
    intercepts[j] + slopes[j] * u; both terms are nonnegative, since a
    tangent line of a concave h >= 0 meets the axis at or above h(0+)
    (a first intercept that rounds below 0 is stored as 0).
    """

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __init__(self, knots: Sequence[float], values: Sequence[float],
                 slope0: float, slope_inf: float):
        k = np.asarray(knots, dtype=float).copy()
        v = np.asarray(values, dtype=float).copy()
        if k.ndim != 1 or k.size == 0 or k.shape != v.shape:
            raise ValueError("knots and values must be matching non-empty 1-d sequences")
        if np.any(k <= 0.0) or np.any(np.diff(k) <= 0.0):
            raise ValueError("knots must be positive and strictly increasing")
        seg = np.diff(v) / np.diff(k)
        slopes = np.concatenate(([slope0], seg, [slope_inf]))
        intercepts = np.concatenate(([v[0] - slope0 * k[0]], v[:-1] - seg * k[:-1],
                                     [v[-1] - slope_inf * k[-1]]))
        tol = 1e-12 * max(np.abs(slopes).max(), 1.0)
        if np.any(np.diff(slopes) > tol):
            raise ValueError("slopes increase: not concave")
        if intercepts[0] < -1e-12 * max(abs(v[0]), 1.0) or np.any(v < 0.0) or slope_inf < 0.0:
            raise ValueError("function must be nonnegative on (0, inf)")
        intercepts[0] = max(intercepts[0], 0.0)
        self._store(k, v, slopes, intercepts)

    @classmethod
    def _from_lines(cls, knots, intercepts, slopes) -> "PiecewiseLinearConcave":
        """The table of a lower envelope's lines intercepts[j] + slopes[j] * u
        as given: intercepts >= 0, slopes nonincreasing, and piece j ending at
        knots[j], which increase from above 0. Each value is read off its
        line; slopes recomputed from values would carry their rounding over
        short pieces."""
        self = object.__new__(cls)
        self._store(knots, intercepts[:-1] + slopes[:-1] * knots, slopes, intercepts)
        return self

    def _store(self, knots, values, slopes, intercepts):
        for name, arr in (("knots", knots), ("values", values), ("slopes", slopes),
                          ("intercepts", intercepts)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __call__(self, u) -> np.ndarray:
        return self.jet(u)[0]

    def jet(self, u) -> np.ndarray:
        """(h, u*h', u^2*h'') at u, with the slope on the right at a knot."""
        u = np.asarray(u, dtype=float)
        j = np.searchsorted(self.knots, u, side="right")
        slope = self.slopes[j]
        return np.stack((self.intercepts[j] + slope * u, slope * u, np.zeros(u.shape)))


def _lower_line_envelope(intercepts: np.ndarray, slopes: np.ndarray):
    """Vertices of min_j (intercepts[j] + slopes[j] * t) over t > 0.

    Monotone-chain pass: insert lines by slope descending; a kept line owns
    the interval between its crossings with its hull neighbours, and lines
    whose interval collapses (crossing not to the right of the previous one,
    or left of 0) are popped, and a line that would cross the hull only
    beyond the float range is skipped. Returns (kept intercepts, kept
    slopes, crossings between consecutive kept lines).
    """
    order = np.lexsort((intercepts, -slopes))
    a_sorted, b_sorted = intercepts[order], slopes[order]
    fresh = np.ones(b_sorted.size, dtype=bool)
    fresh[1:] = b_sorted[1:] != b_sorted[:-1]   # equal slopes: keep lowest intercept
    a_sorted, b_sorted = a_sorted[fresh], b_sorted[fresh]
    hull_a: list[float] = []
    hull_b: list[float] = []
    cuts: list[float] = []
    with np.errstate(over="ignore"):   # a crossing beyond the float range is inf
        for aj, bj in zip(a_sorted, b_sorted):
            while hull_a:
                x = (aj - hull_a[-1]) / (hull_b[-1] - bj)
                if x <= (cuts[-1] if cuts else 0.0):
                    hull_a.pop()
                    hull_b.pop()
                    if cuts:
                        cuts.pop()
                else:
                    cuts.append(x)
                    break
            if cuts and cuts[-1] == np.inf:   # lowest only beyond the float range
                cuts.pop()
                continue
            hull_a.append(aj)
            hull_b.append(bj)
    return np.array(hull_a), np.array(hull_b), np.array(cuts)


def concave_majorant(rho: Callable, grid: np.ndarray | None = None,
                     extend_decades: float = 10.0) -> PiecewiseLinearConcave:
    """Concave transform inf over s of (1+t/s) rho(s), certified on the grid,
    for rho given as its jet.

    Each grid point s contributes the line rho(s) + t * rho(s)/s; their lower
    envelope in t is concave and piecewise linear, and evaluating it on the
    same grid gives the two-sided comparison rho <= majorant <= 2 rho (the
    upper bound is exact at shared points, where s = t is allowed). The line
    family extends extend_decades beyond the grid at the same log density so
    that near-boundary infima (attained as s -> 0 or s -> inf) are resolved;
    pass 0 when rho is only evaluable on the grid itself. One evaluation of
    the jet gives the lines and, on the grid, the quasi-concavity check.
    """
    if grid is None:
        grid = log_grid()
    grid = np.asarray(grid, dtype=float)
    s_grid, n_ext = grid, 0
    if extend_decades > 0.0:
        step = float(np.median(np.diff(np.log10(grid))))
        n_ext = max(int(round(extend_decades / step)), 1)
        below = grid[0] * 10.0 ** (-step * np.arange(n_ext, 0, -1))
        above = grid[-1] * 10.0 ** (step * np.arange(1, n_ext + 1))
        s_grid = np.concatenate((below, grid, above))
    # a rho beyond the float range is inf or nan here, which the checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        rows = rho(s_grid)
    worst = quasiconcavity_violation(rows[:, n_ext:n_ext + grid.size])
    if worst > QUASICONCAVITY_TOL:
        raise ValueError(f"rho fails the quasi-concavity check (violation {worst:.3e})")
    vals = rows[0]
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("rho must be finite and positive on the grid")
    a, b, cuts = _lower_line_envelope(vals, vals / s_grid)
    if cuts.size == 0:   # one line: an artificial knot keeps the type well-formed
        a, b, cuts = a[[0, 0]], b[[0, 0]], grid[[grid.size // 2]]
    return PiecewiseLinearConcave._from_lines(cuts, a, b)


class PeetreRepresentation(NamedTuple):
    """Concave decomposition h(u) = a + b*u + sum_i m_i * min(u, t_i)."""

    a: float
    b: float
    atom_locations: np.ndarray
    atom_masses: np.ndarray


def peetre_decompose(h: PiecewiseLinearConcave) -> PeetreRepresentation:
    """Read (a, b, slope-drop atoms) off a concave piecewise linear function.

    a is the limit at 0+, b the asymptotic slope, and each knot where the
    slope strictly drops contributes an atom of mass equal to the drop. The
    reconstruction is exact at the knots by construction.
    """
    drops = h.slopes[:-1] - h.slopes[1:]
    keep = drops > 0.0
    return PeetreRepresentation(float(h.intercepts[0]), float(h.slopes[-1]),
                                h.knots[keep], drops[keep])
