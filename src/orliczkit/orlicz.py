"""Orlicz functions, the modular, and the Luxemburg-Nakano / Amemiya norms.

An Orlicz function is a nondecreasing convex function with value 0 at 0.
Three representations are supported: pure powers, numerically inverted
generator builds (the inverse is u^{1/p} * rho(u^{1/q-1/p}), with 1/q = 0
when q is infinite), and closed-form builds u^q * h(u^{p-q}) from a concave
piecewise linear h. Generator builds tabulate the inverse on a dense log
grid and invert with monotone piecewise-cubic interpolation; convexity is
checked numerically rather than assumed.

The modular and both norms take one sample function or a batch on one space;
each search step of a batch is one array pass over the members still open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from .measure import SampleBatch, SampleFunction, golden_section
from .quasiconcave import (
    PiecewiseLinearConcave,
    QuasiConcaveFn,
    concavity_violation,
    is_quasiconcave,
    log_grid,
    rho_star,
)

INVERSION_U_LO = 1e-12
INVERSION_U_HI = 1e12
INVERSION_POINTS_PER_DECADE = 4096


class DomainOverflowError(ValueError):
    """An argument exceeded the evaluation domain of a tabulated function."""


class NonConvergenceError(RuntimeError):
    """An iterative norm computation failed to converge."""


@dataclass(frozen=True)
class ExponentCouple:
    """Exponent pair with 1 <= p < q <= inf."""

    p: float
    q: float

    def __post_init__(self):
        if not (1.0 <= self.p < self.q <= np.inf):
            raise ValueError("need 1 <= p < q <= inf")

    @property
    def q_is_inf(self) -> bool:
        return math.isinf(self.q)


@dataclass(frozen=True)
class OrliczFunction:
    """Evaluable Orlicz function with a documented domain [0, u_max]."""

    kind: str
    p: float | None
    q: float | None
    u_max: float
    evaluator: Callable[[np.ndarray], np.ndarray]
    meta: dict = field(default_factory=dict)

    def __call__(self, u, strict: bool = True) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0):
            raise ValueError("Orlicz functions take nonnegative arguments")
        if np.any(u > self.u_max * (1.0 + 1e-12)):
            if strict:
                raise DomainOverflowError(
                    f"argument {float(np.max(u)):.6g} exceeds u_max {self.u_max:.6g}"
                )
            out = np.full(np.shape(u), np.inf)
            ok = u <= self.u_max * (1.0 + 1e-12)
            out[ok] = self.evaluator(np.minimum(np.asarray(u)[ok], self.u_max))
            return out
        return np.asarray(self.evaluator(np.minimum(u, self.u_max)), dtype=float)


def _validate_shape(phi: OrliczFunction, probe_hi: float, require_convex: bool = True) -> float:
    """Cheap construction-time check: phi(0)=0, nondecreasing, near-convex.

    Returns the worst second difference on the probe grid. Convexity is only
    enforced when required: the concave-h route legitimately produces
    nondecreasing functions with concave kinks at min-branch crossovers,
    which serve the modular comparisons but are not Orlicz functions proper.
    """
    hi = min(probe_hi, phi.u_max)
    grid = np.linspace(0.0, hi, 513)
    vals = phi(grid)
    if abs(float(vals[0])) > 1e-12:
        raise ValueError("phi(0) must be 0")
    if np.any(np.diff(vals) < -1e-12 * max(float(vals[-1]), 1.0)):
        raise ValueError("phi must be nondecreasing")
    d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    worst = float(d2.min(initial=0.0))
    if require_convex and worst < -1e-9 * max(float(np.abs(vals).max()), 1e-300):
        raise ValueError("phi fails the convexity tolerance")
    return worst


def power_phi(p: float) -> OrliczFunction:
    """phi(u) = u^p."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    phi = OrliczFunction("power", p, None, np.inf, lambda u: np.asarray(u, dtype=float) ** p)
    _validate_shape(phi, 10.0)
    return phi


def _inverse_free_evaluator(x: np.ndarray, y: np.ndarray) -> Callable:
    interp = PchipInterpolator(x, y, extrapolate=False)
    x0, y0 = float(x[0]), float(y[0])
    # below the grid: power-law continuation matching the lowest segment
    x1, y1 = float(x[1]), float(y[1])
    alpha = (math.log(y1) - math.log(y0)) / (math.log(x1) - math.log(x0)) if y0 > 0 else 1.0

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        low = (u > 0.0) & (u < x0)
        mid = u >= x0
        if np.any(mid):
            out[mid] = interp(np.minimum(u[mid], x[-1]))
        if np.any(low):
            out[low] = y0 * (u[low] / x0) ** alpha if y0 > 0 else 0.0
        return out

    return evaluate


def build_from_generator(couple: ExponentCouple, rho: QuasiConcaveFn, *,
                         u_lo: float = INVERSION_U_LO, u_hi: float = INVERSION_U_HI,
                         points_per_decade: int = INVERSION_POINTS_PER_DECADE) -> OrliczFunction:
    """Orlicz function whose inverse is u^{1/p} * rho(u^{1/q - 1/p}).

    The inverse is tabulated on a log grid and inverted by monotone
    interpolation. Saturating generators (the inverse stops increasing, e.g.
    rho = min(1,t) with q infinite) keep only the strictly increasing prefix,
    which bounds the evaluation domain: u_max is the last tabulated ordinate
    and larger arguments overflow.
    """
    qc = is_quasiconcave(rho)
    if not qc.ok:
        raise ValueError(f"rho fails the quasi-concavity check ({qc.worst_violation:.3e})")
    conc = concavity_violation(rho, log_grid(points_per_decade=16))
    if conc > 1e-8:
        raise ValueError(f"rho fails the concavity check ({conc:.3e})")
    p, q = couple.p, couple.q
    e = (0.0 if couple.q_is_inf else 1.0 / q) - 1.0 / p
    u = log_grid(u_lo, u_hi, points_per_decade)
    v = u ** (1.0 / p) * np.asarray(rho(u**e), dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("generator produced non-finite or non-positive inverse values")
    # strictly increasing prefix (a flat tail signals saturation)
    running = np.maximum.accumulate(v)
    keep = np.concatenate(([True], v[1:] > running[:-1] * (1.0 + 1e-12)))
    if keep.sum() < 2 * points_per_decade:
        raise ValueError("inverse not strictly increasing on grid")
    vk, uk = v[keep], u[keep]
    phi = OrliczFunction(
        "generator", p, (np.inf if couple.q_is_inf else q), float(vk[-1]),
        _inverse_free_evaluator(vk, uk),
        {"rho_family": rho.family, "rho_params": tuple(rho.params),
         "saturated": bool(keep.size - keep.sum()), "tab_points": int(keep.sum())},
    )
    _validate_shape(phi, 100.0)
    return phi


def build_from_h(couple: ExponentCouple, h: PiecewiseLinearConcave) -> OrliczFunction:
    """Orlicz function u^q * h(u^{p-q}) for finite q and concave h > 0."""
    if couple.q_is_inf:
        raise ValueError("q must be finite for the h-form build")
    p, q = couple.p, couple.q
    if h.value_at_zero < 0.0 or np.any(h.values <= 0.0):
        raise ValueError("h must be positive on (0, inf)")
    knots, hvals = h.knots, h.values
    s_lo, s_hi = float(knots[0]), float(knots[-1])
    # beyond the first/last knot h is linear; expand those branches in powers
    # of u so no intermediate overflows when u^{p-q} leaves float range
    left_cq, left_cp = h.value_at_zero, h.slope0      # s below s_lo
    right_cq, right_cp = (float(hvals[-1]) - h.slope_inf * s_hi, h.slope_inf)

    def term(c, u, r):
        return np.where(c == 0.0, 0.0, c * u**r)

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        pos = u > 0.0
        if not np.any(pos):
            return out
        up = u[pos]
        with np.errstate(over="ignore", under="ignore"):
            s = up ** (p - q)
            inner = (s >= s_lo) & (s <= s_hi)
            vals = np.empty(up.shape)
            vals[inner] = up[inner] ** q * np.interp(s[inner], knots, hvals)
            lo_mask = s < s_lo
            hi_mask = s > s_hi
            vals[lo_mask] = term(left_cq, up[lo_mask], q) + term(left_cp, up[lo_mask], p)
            vals[hi_mask] = term(right_cq, up[hi_mask], q) + term(right_cp, up[hi_mask], p)
        out[pos] = vals
        return out

    phi = OrliczFunction("h", p, q, np.inf, evaluate, {"h_knots": int(knots.size)})
    worst = _validate_shape(phi, 50.0, require_convex=False)
    phi.meta["worst_second_difference"] = worst
    return phi


def _batch(x: SampleFunction | Sequence[SampleFunction]) -> tuple[np.ndarray, np.ndarray, bool]:
    """(|values| with one row per member, the weights, whether x was single)."""
    if isinstance(x, SampleFunction):
        return x.abs_values()[None, :], x.space.weights, True
    xs = list(x)
    if not xs:
        return np.zeros((0, 0)), np.zeros(0), False
    batch = SampleBatch.stack(xs)
    return batch.abs_values(), batch.space.weights, False


def modular(phi: OrliczFunction, x: SampleFunction | Sequence[SampleFunction]):
    """Weighted sum of phi(|x_i|); rearrangement invariant by construction.

    x is one `SampleFunction` (returns a float) or a sequence of them on one
    space (returns an array, one modular per member), as in both norms.
    Raises `DomainOverflowError` when any member leaves phi's domain.
    """
    mags, weights, single = _batch(x)
    out = np.sum(phi(mags) * weights, axis=1)
    return float(out[0]) if single else out


def modular_of_step(phi: OrliczFunction, step) -> float:
    """Integral of phi over a step function (cross-check path for modular)."""
    return float(np.sum(phi(step.levels) * step.widths))


def _scaled_modular(phi: OrliczFunction, mags: np.ndarray, weights: np.ndarray,
                    scale: np.ndarray) -> np.ndarray:
    """Modular of each row of mags times its scale; +inf for a row that
    leaves phi's domain instead of raising."""
    vals = mags * scale[:, None]
    out = np.sum(phi.evaluator(np.minimum(vals, phi.u_max)) * weights, axis=1)
    out[vals.max(axis=1, initial=0.0) > phi.u_max * (1.0 + 1e-12)] = np.inf
    return out


def luxemburg_norm(phi: OrliczFunction, x: SampleFunction | Sequence[SampleFunction], *,
                   rtol: float = 1e-10, max_iter: int = 400):
    """inf of lambda > 0 with modular(x / lambda) <= 1, by bisection.

    Per member: double an upper bracket from sup|x| until the modular fits,
    halve it to a lower one, then bisect to rtol (iteration limits count per
    member). Returns the upper bracket end, so the modular at the returned
    norm never exceeds 1 beyond roundoff.
    """
    mags, weights, single = _batch(x)
    m = mags.max(axis=1, initial=0.0)
    hi = np.maximum(m, m / phi.u_max)
    iters = np.zeros(m.size, dtype=int)

    def fits(rows, lam):
        return _scaled_modular(phi, mags[rows], weights, 1.0 / lam) <= 1.0

    rows = np.flatnonzero(m > 0.0)
    while rows.size:
        rows = rows[~fits(rows, hi[rows])]
        hi[rows] *= 2.0
        iters[rows] += 1
        if np.any(iters[rows] > max_iter):
            raise NonConvergenceError("no upper bracket for the Luxemburg norm")
    lo = 0.5 * hi
    rows = np.flatnonzero(m > 0.0)
    while rows.size:
        rows = rows[fits(rows, lo[rows])]
        hi[rows] = lo[rows]
        lo[rows] *= 0.5
        iters[rows] += 1
        if np.any(lo[rows] < 1e-300) or np.any(iters[rows] > max_iter):
            raise NonConvergenceError("no lower bracket for the Luxemburg norm")
    rows = np.flatnonzero(hi - lo > rtol * hi)
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        ok = fits(rows, mid)
        hi[rows[ok]], lo[rows[~ok]] = mid[ok], mid[~ok]
        iters[rows] += 1
        if np.any(iters[rows] > 10 * max_iter):
            raise NonConvergenceError("Luxemburg bisection failed to converge")
        rows = rows[hi[rows] - lo[rows] > rtol * hi[rows]]
    return float(hi[0]) if single else hi


def amemiya_norm(phi: OrliczFunction, x: SampleFunction | Sequence[SampleFunction], *,
                 rtol: float = 1e-9):
    """inf over k > 0 of (1 + modular(k*x)) / k.

    Golden section (`measure.golden_section`) over log k on [1e-8, 1e8], the
    upper end clipped to the evaluation domain (a range clipped empty shrinks
    to its upper end), to a bracket of rtol, each member stopped on its own;
    the bracket midpoint pins the value to roundoff, so no polish follows.
    Returns the least objective at the midpoint and both ends. Unimodality
    of the objective rests on convexity of the modular in k, so for the
    non-convex concave-h crossover functions the result is only an upper
    bound on the infimum.
    """
    mags, weights, single = _batch(x)
    m = mags.max(axis=1, initial=0.0)

    def objective(rows, k):
        return (1.0 + _scaled_modular(phi, mags[rows], weights, k)) / k

    out = np.zeros(m.size)
    rows = np.flatnonzero(m > 0.0)
    k_hi = np.minimum(1e8, phi.u_max / m[rows])
    k_lo = np.minimum(1e-8, k_hi)
    best = np.minimum(objective(rows, k_lo), objective(rows, k_hi))
    a, b = golden_section(lambda live, s: objective(rows[live], np.exp(s)),
                          np.log(k_lo), np.log(k_hi), rtol)
    out[rows] = np.minimum(best, objective(rows, np.exp(0.5 * (a + b))))
    return float(out[0]) if single else out


class ConvexityCheck(NamedTuple):
    ok: bool
    worst_second_difference: float


def check_convexity(f: Callable, grid) -> ConvexityCheck:
    """Centered second differences on a uniform grid, with a relative floor.

    Passes when every second difference is >= -1e-8 * max|f| on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 100:
        raise ValueError("grid must contain at least 100 points")
    steps = np.diff(grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")
    vals = np.asarray(f(grid), dtype=float)
    d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    worst = float(d2.min())
    tol = 1e-8 * max(float(np.abs(vals).max()), 1e-300)
    return ConvexityCheck(worst >= -tol, worst)


def check_delta2(phi: OrliczFunction, grid) -> float:
    """Grid supremum of phi(2u)/phi(u); finite certifies doubling growth."""
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("grid points must be positive")
    if 2.0 * grid.max() > phi.u_max * (1.0 + 1e-12):
        raise DomainOverflowError("2*u leaves the evaluation domain")
    base = phi(grid)
    if np.any(base == 0.0):
        raise ZeroDivisionError("phi vanishes at a positive grid point")
    return float(np.max(phi(2.0 * grid) / base))


class SurjectivityReport(NamedTuple):
    covers: bool
    low: float
    high: float


def surjectivity_report(rho: QuasiConcaveFn, *, span_lo: float = 1e-10,
                        span_hi: float = 1e10) -> SurjectivityReport:
    """Whether t * rho(1/t) ranges over [span_lo, span_hi] on a wide grid.

    Reported, never enforced: generator builds are not rejected on failure.
    The probe grid spans 200 decades so slowly varying transforms (t^theta
    with theta near 0 or 1) still reveal their range.
    """
    star = rho_star(rho)
    vals = star(log_grid(1e-100, 1e100, 4))
    low, high = float(vals.min()), float(vals.max())
    return SurjectivityReport(low <= span_lo and high >= span_hi, low, high)
