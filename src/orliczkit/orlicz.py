"""Orlicz functions, the modular, and the Luxemburg-Nakano / Amemiya norms.

An Orlicz function is a nondecreasing convex function with value 0 at 0.
Three representations are supported: pure powers, numerically inverted
generator builds (the inverse is u^{1/p} * rho(u^{1/q-1/p}), with 1/q = 0
when q is infinite), and closed-form builds u^q * h(u^{p-q}) from a concave
piecewise linear h. Generator builds tabulate the inverse on a dense log
grid and invert with the monotone piecewise cubic of Fritsch and Carlson
(1980); convexity is checked numerically rather than assumed.

The modular and both norms take one sample function or a batch on one space;
each search step of a batch is one array pass over the members still open.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .measure import SampleBatch, SampleFunction, abs_rows
from .quasiconcave import (
    PiecewiseLinearConcave,
    concavity_violation,
    is_quasiconcave,
    log_grid,
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


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class OrliczFunction:
    """Evaluable Orlicz function with a documented domain [0, u_max].

    `jet(u)` is the one formula of phi: it stacks phi(u), u*phi'(u) and
    u^2*phi''(u) along a new first axis, for u in [0, u_max], with one-sided
    derivatives at a knot. The factors u and u^2 keep every row finite at
    u = 0, where phi'' of u^p with p < 2 is not. Calling the function checks
    the domain and returns the jet's first row, so the modular and both norm
    searches read the same numbers.

    A built phi is immutable, because `specs.resolve_phi` shares one per spec
    across reports: the fields are frozen, `meta` is a read-only mapping, and
    the arrays a jet reads are read-only. It hashes and compares by identity.
    """

    kind: str
    p: float | None
    q: float | None
    u_max: float
    jet: Callable[[np.ndarray], np.ndarray]
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0):
            raise ValueError("Orlicz functions take nonnegative arguments")
        if np.any(u > self.u_max * (1.0 + 1e-12)):
            raise DomainOverflowError(
                f"argument {float(np.max(u)):.6g} exceeds u_max {self.u_max:.6g}"
            )
        return np.asarray(self.jet(np.minimum(u, self.u_max))[0])


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
    orders = np.array([1.0, p, p * (p - 1.0)])
    _read_only(orders)
    phi = OrliczFunction("power", p, None, np.inf,
                         lambda u: np.multiply.outer(orders, np.asarray(u, dtype=float) ** p))
    _validate_shape(phi, 10.0)
    return phi


@functools.cache
def _inversion_grid() -> np.ndarray:
    """The u-grid of every generator build, made once and read-only."""
    u = log_grid(INVERSION_U_LO, INVERSION_U_HI, INVERSION_POINTS_PER_DECADE)
    u.flags.writeable = False
    return u


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the Fritsch-Carlson monotone cubic through (x, y).

    The weighted harmonic mean of the two secant slopes at interior knots,
    Moler's one-sided three-point rule at the ends, in the float operations
    and order of SciPy's PCHIP interpolator. Here x and y are both strictly
    increasing, so every secant slope is positive: the harmonic mean needs no
    sign or zero branch, and the end rule only clips a nonpositive slope to 0.
    """
    # 1/d_k = (w1/m_{k-1} + w2/m_k) / (w1 + w2) with secant slopes m and
    # weights w1 = 2h_k + h_{k-1}, w2 = h_k + 2h_{k-1}
    h = np.diff(x)
    m = np.diff(y)
    m /= h
    w1 = 2.0 * h[1:]
    w1 += h[:-1]
    w2 = 2.0 * h[:-1]
    w2 += h[1:]
    d = np.empty(x.size)
    mean = d[1:-1]
    np.divide(w1, m[:-1], out=mean)
    w1 += w2
    w2 /= m[1:]
    mean += w2
    mean /= w1
    np.divide(1.0, mean, out=mean)
    for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2])):
        slope = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d[end] = slope if slope > 0.0 else 0.0
    return d


def _monotone_cubic_jet(x: np.ndarray, y: np.ndarray) -> Callable:
    """The jet of the monotone cubic through (x, y), a power law below x[0].

    Only the knot slopes are stored; each call forms the cubic pieces it needs
    from x, y and the slopes at the two ends of each point's interval, with
    the expressions of SciPy's cubic Hermite spline, so the values are those of
    SciPy's PCHIP interpolant bit for bit.
    """
    d = _pchip_slopes(x, y)
    # set before any view is taken: a view keeps the flag of its making
    _read_only(x, y, d)
    x0, y0 = float(x[0]), float(y[0])
    # below the grid: power-law continuation matching the lowest segment
    x1, y1 = float(x[1]), float(y[1])
    alpha = (math.log(y1) - math.log(y0)) / (math.log(x1) - math.log(x0))
    low_orders = np.array([1.0, alpha, alpha * (alpha - 1.0)])
    _read_only(low_orders)
    # k = searchsorted(x, u) clipped to [1, x.size - 1], so that the last
    # interval is closed and u < x[1] falls in the first
    inner = x[1:-1]

    def jet(u):
        u = np.minimum(np.asarray(u, dtype=float), x[-1])
        k = np.searchsorted(inner, u, side="right") + 1
        j = k - 1
        xj, dj, yj = x[j], d[j], y[j]
        h = x[k] - xj
        m = (y[k] - yj) / h
        t = (dj + d[k] - 2.0 * m) / h
        # power-form coefficients c0..c3 of the piece, highest power first
        s, c0, c1, c2, c3 = u - xj, t / h, (m - dj) / h - t, dj, yj
        z = s * s
        out = np.empty((3,) + u.shape)
        # phi in increasing powers, as SciPy's piecewise-polynomial evaluator
        # sums them; the derivatives in Horner form
        out[0] = c3 + c2 * s + c1 * z + c0 * (z * s)
        out[1] = u * ((3.0 * c0 * s + 2.0 * c1) * s + c2)
        out[2] = u * u * (6.0 * c0 * s + 2.0 * c1)
        low = u < x0
        if np.any(low):
            out[:, low] = np.multiply.outer(low_orders, y0 * (u[low] / x0) ** alpha)
        return out

    return jet


def build_from_generator(couple: ExponentCouple, rho: Callable) -> OrliczFunction:
    """Orlicz function whose inverse is u^{1/p} * rho(u^{1/q - 1/p}).

    The inverse is tabulated on a log grid (`INVERSION_POINTS_PER_DECADE`
    points per decade over [`INVERSION_U_LO`, `INVERSION_U_HI`]) and inverted by monotone
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
    u = _inversion_grid()
    v = u ** (1.0 / p)
    v *= np.asarray(rho(u**e), dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("generator produced non-finite or non-positive inverse values")
    # strictly increasing prefix (a flat tail signals saturation); while each
    # step clears the margin, v is its own running maximum and keeps every
    # point, so the mask is needed only when some step does not
    saturated = not np.all(v[1:] > v[:-1] * (1.0 + 1e-12))
    if saturated:
        running = np.maximum.accumulate(v)
        keep = np.concatenate(([True], v[1:] > running[:-1] * (1.0 + 1e-12)))
        if keep.sum() < 2 * INVERSION_POINTS_PER_DECADE:
            raise ValueError("inverse not strictly increasing on grid")
        v, u = v[keep], u[keep]
    phi = OrliczFunction(
        "generator", p, (np.inf if couple.q_is_inf else q), float(v[-1]),
        _monotone_cubic_jet(v, u),
        {"saturated": saturated, "tab_points": int(v.size)},
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

    def term(c, u, r):
        return np.where(c == 0.0, 0.0, c * u**r)

    # on each piece of h, h(s) = a + b*s, so phi = a*u^q + b*u^p with that
    # piece's intercept a and slope b: no intermediate overflows when u^{p-q}
    # leaves float range
    orders_q = np.array([1.0, q, q * (q - 1.0)])
    orders_p = np.array([1.0, p, p * (p - 1.0)])
    _read_only(orders_q, orders_p)

    def jet(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            piece = np.searchsorted(h.knots, u ** (p - q), side="right")
            a, b = h.intercepts[piece], h.slopes[piece]
            return (np.multiply.outer(orders_q, term(a, u, q))
                    + np.multiply.outer(orders_p, term(b, u, p)))

    # at a knot s_k of h, phi' jumps by (p - q) u^{p-1} (h'(s_k-) - h'(s_k+)),
    # which is negative at every slope drop: phi is convex exactly when h has
    # none, that is when h is affine
    convex = bool(np.all(h.slopes[1:] >= h.slopes[:-1]))
    meta = {"h_knots": int(h.knots.size), "convex": convex}
    # the shape check needs a phi to call; the one returned carries its result
    worst = _validate_shape(OrliczFunction("h", p, q, np.inf, jet, meta), 50.0,
                            require_convex=False)
    return OrliczFunction("h", p, q, np.inf, jet, dict(meta, worst_second_difference=worst))


def modular(phi: OrliczFunction, x: SampleFunction | SampleBatch):
    """Weighted sum of phi(|x_i|); rearrangement invariant by construction.

    x is one `SampleFunction` (returns a float) or a `SampleBatch` (returns
    an array, one modular per member), as in both norms.
    Raises `DomainOverflowError` when any member leaves phi's domain.
    """
    mags, single = abs_rows(x)
    out = np.sum(phi(mags) * x.space.weights, axis=1)
    return float(out[0]) if single else out


# Both norms reduce, per member, to a 1-D problem on the modular profile
# M(sigma) = sum_i w_i phi(sigma * y_i) with y = |x| / sup|x| and sigma = k sup|x|;
# the norm of x is sup|x| times the answer for y, so the iterates are the same
# at any scale of x.
LUXEMBURG_RTOL = 1e-10     # relative width of the final Luxemburg bracket
AMEMIYA_LOG_STEP = 1e-9    # Newton step in log k below which the Amemiya search stops
AMEMIYA_RANGE = (1e-8, 1e8)   # the k range, in units of 1 / sup|x|
MAX_PASSES = 100          # per norm call, before NonConvergenceError


def _profile(phi: OrliczFunction, y: np.ndarray, weights: np.ndarray,
             sigma: np.ndarray) -> np.ndarray:
    """M, sigma*M' and sigma^2*M'' (rows of the result) of each row of y at
    its own sigma, in one pass of phi's jet."""
    return np.sum(phi.jet(y * sigma[:, None]) * weights, axis=-1)


def _newton_or_bisect(sigma, log_step, lo, hi, slow):
    """sigma * exp(log_step) when it lies strictly inside (lo, hi) and the
    last step made progress; the geometric midpoint of a finite bracket
    otherwise."""
    bounded = (lo > 0.0) & np.isfinite(hi)
    with np.errstate(over="ignore", invalid="ignore"):
        new = sigma * np.exp(log_step)
        bisect = bounded & (slow | ~((new > lo) & (new < hi)))
        return np.where(bisect, np.sqrt(lo * hi), new)


def _unit_modular_bracket(phi: OrliczFunction, y: np.ndarray,
                          weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of y (sup 1), sigma_lo <= sigma_hi with M(sigma_lo) <= 1 <=
    M(sigma_hi) and sigma_hi - sigma_lo <= LUXEMBURG_RTOL * sigma_hi; both
    are u_max when M(u_max) <= 1.

    Newton steps on log M against log sigma (exact for a power phi), from
    sigma = min(1, u_max). Each evaluation certifies two points: phi(u)/u
    is nondecreasing (phi convex with phi(0) = 0, or an h-form with h
    concave), so M(sigma)/sigma is too, and sigma / M(sigma) lies on the
    other side of the root from sigma. That pair closes the bracket once
    |log M| is small; the evaluated points bound each step, and a step that
    leaves them or does not halve |log M| becomes a bisection.
    """
    count = y.shape[0]
    cap = phi.u_max
    lo, hi = np.zeros(count), np.full(count, np.inf)
    out_lo, out_hi = np.empty(count), np.empty(count)
    sigma = np.full(count, min(1.0, cap))
    last = np.full(count, np.inf)
    live = np.arange(count)
    for _ in range(MAX_PASSES):
        mod, slope, _ = _profile(phi, y[live], weights, sigma)
        log_mod = np.log(mod)
        over = mod >= 1.0
        hi, lo = np.where(over, sigma, hi), np.where(over, lo, sigma)
        partner = sigma / mod
        cand_lo = np.maximum(lo, np.where(over, partner, sigma))
        cand_hi = np.minimum(hi, np.where(over, sigma, partner))
        capped = ~over & (sigma >= cap)
        done = capped | (cand_hi - cand_lo <= LUXEMBURG_RTOL * cand_hi)
        if np.any(done):
            out_lo[live[done]] = np.where(capped, cap, cand_lo)[done]
            out_hi[live[done]] = np.where(capped, cap, cand_hi)[done]
        keep = ~done
        live = live[keep]
        if not live.size:
            return out_lo, out_hi
        # a step never passes the partner sigma / M: the elasticity
        # sigma*M'/M is at least 1 wherever phi(u)/u is nondecreasing
        step = -log_mod / np.maximum(slope / mod, 1.0)
        slow = np.abs(log_mod) > 0.5 * last
        sigma, lo, hi, last = sigma[keep], lo[keep], hi[keep], np.abs(log_mod)[keep]
        sigma = np.minimum(_newton_or_bisect(sigma, step[keep], lo, hi, slow[keep]), cap)
    raise NonConvergenceError("the Luxemburg search did not converge")


def _luxemburg_bracket(phi: OrliczFunction, x: SampleFunction | SampleBatch):
    """(lo, hi) per member: modular(x / lo) >= 1 >= modular(x / hi), within
    roundoff, and hi - lo <= 1e-10 * hi; both are sup|x| / u_max when the
    modular fits at that smallest admissible lambda, and 0 for a zero member."""
    mags, _ = abs_rows(x)
    m = mags.max(axis=1, initial=0.0)
    lo, hi = np.zeros(m.size), np.zeros(m.size)
    rows = np.flatnonzero(m > 0.0)
    s_lo, s_hi = _unit_modular_bracket(phi, mags[rows] / m[rows, None], x.space.weights)
    lo[rows], hi[rows] = m[rows] / s_hi, m[rows] / s_lo
    return lo, hi


def luxemburg_norm(phi: OrliczFunction, x: SampleFunction | SampleBatch):
    """inf of lambda > 0 with modular(x / lambda) <= 1.

    Solved per member by safeguarded Newton steps to a bracket of relative
    width 1e-10 (see `_unit_modular_bracket`). Returns the bracket's upper
    end, so the modular at the returned norm never exceeds 1 beyond roundoff.
    """
    hi = _luxemburg_bracket(phi, x)[1]
    return float(hi[0]) if isinstance(x, SampleFunction) else hi


def _amemiya_scaled(phi: OrliczFunction, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """min over sigma of (1 + M(sigma)) / sigma per row of y (sup 1).

    sigma ranges over AMEMIYA_RANGE with the top clipped to u_max (a range
    clipped empty shrinks to its top). The objective falls while g = sigma*M'
    - M < 1 and rises after, and g is nondecreasing when phi is convex, so
    the search solves g = 1: Newton steps on log g against log sigma (exact
    for a power phi) from sigma = 1, bracketed by the sign of g - 1 with a
    bisection fallback, until the step is below AMEMIYA_LOG_STEP. The first
    pass evaluates both ends too. Returns the least objective evaluated, an
    attained upper bound; for the non-convex concave-h crossover functions
    (`meta["convex"]` false) it may be a local minimum above the infimum.
    """
    count = y.shape[0]
    top = min(AMEMIYA_RANGE[1], phi.u_max)
    # bottom, start and top of the range, all in the first pass
    points = np.array([min(AMEMIYA_RANGE[0], top), min(1.0, top), top])
    mod, slope, curv = _profile(phi, np.repeat(y, 3, axis=0), weights, np.tile(points, count))
    mod, slope, curv = (v.reshape(count, 3) for v in (mod, slope, curv))
    best = np.min((1.0 + mod) / points, axis=1)
    g = slope - mod
    # a minimum lies where g - 1 turns from negative to positive: below the
    # start if g >= 1 there, above it if g > 1 only at the top
    live = np.flatnonzero((g[:, 0] < 1.0) & ((g[:, 1] >= 1.0) | (g[:, 2] > 1.0)))
    lo, hi = np.full(live.size, points[0]), np.full(live.size, points[2])
    sigma = np.full(live.size, points[1])
    curv, g = curv[live, 1], g[live, 1]
    last = np.full(live.size, np.inf)
    for _ in range(MAX_PASSES):
        above = g >= 1.0
        hi, lo = np.where(above, sigma, hi), np.where(above, lo, sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = np.where(g > 0.0, np.log(g), np.inf)
            step = -residual * g / curv
        done = ((np.abs(step) <= AMEMIYA_LOG_STEP)
                | (np.log(hi) - np.log(lo) <= AMEMIYA_LOG_STEP))
        keep = ~done
        live = live[keep]
        if not live.size:
            return best
        slow = np.abs(residual) > 0.5 * last
        sigma, lo, hi, last = sigma[keep], lo[keep], hi[keep], np.abs(residual)[keep]
        sigma = _newton_or_bisect(sigma, step[keep], lo, hi, slow[keep])
        mod, slope, curv = _profile(phi, y[live], weights, sigma)
        best[live] = np.minimum(best[live], (1.0 + mod) / sigma)
        g = slope - mod
    raise NonConvergenceError("the Amemiya search did not converge")


def amemiya_norm(phi: OrliczFunction, x: SampleFunction | SampleBatch):
    """inf over k > 0 of (1 + modular(k*x)) / k.

    Searched per member over k in [1e-8, min(1e8, u_max)] / sup|x| (see
    `_amemiya_scaled`); the result is the least objective the search
    evaluated, which includes both ends of the range.
    """
    mags, _ = abs_rows(x)
    m = mags.max(axis=1, initial=0.0)
    out = np.zeros(m.size)
    rows = np.flatnonzero(m > 0.0)
    out[rows] = m[rows] * _amemiya_scaled(phi, mags[rows] / m[rows, None], x.space.weights)
    return float(out[0]) if isinstance(x, SampleFunction) else out


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
