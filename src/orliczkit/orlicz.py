"""Orlicz functions, the modular, and the Luxemburg-Nakano / Amemiya norms.

An Orlicz function is a nondecreasing convex function with value 0 at 0.
Three representations are supported: pure powers, generator builds (the
inverse is u^{1/p} * rho(u^{1/q-1/p}), with 1/q = 0 when q is infinite), and
closed-form builds u^q * h(u^{p-q}) from a concave piecewise linear h. No
build probes the phi it made: a power phi is convex for p >= 1; an h-form is
nondecreasing with phi(0) = 0, since its table's slopes and intercepts are
>= 0, and its `convex` field says exactly when it is convex; and a generator
phi is convex once rho passes the pointwise checks on its jet. A concave
rho >= 0 is inf_j (a_j + b_j t) with a_j, b_j >= 0, so the inverse
inf_j (a_j u^{1/p} + b_j u^{1/q}) is concave (Maligranda, Orlicz Spaces and
Interpolation, 1989).

The modular and both norms take a batch on one space and return one value
per member. The generator inversion and both norm searches run on
`liveset.iterate`, and each row sum is its member's own, so a row of a batch
result is bitwise that member's value alone, and a caller may stack batches
(the norm verifier searches x and Tx as one) to share the passes of phi.
Both norm searches can also share their first pass (`norm_start`). A norm
pass splits a wide batch into balanced jet calls (`measure.row_chunks`) of
at most _PROFILE_ELEMS entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liveset import iterate
from .measure import SampleBatch, row_chunks, sup_scaled
from .quasiconcave import (
    QUASICONCAVITY_TOL,
    PiecewiseLinearConcave,
    concavity_violation,
    log_grid,
    quasiconcavity_violation,
)


class DomainOverflowError(ValueError):
    """An argument exceeded the evaluation domain [0, u_max] of a phi."""


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


@dataclass(frozen=True, eq=False)
class OrliczFunction:
    """Evaluable Orlicz function with a documented domain [0, u_max].

    `jet(u)` is the one formula of phi: it stacks phi(u), u*phi'(u) and
    u^2*phi''(u) along a new first axis, for u in [0, u_max], with one-sided
    derivatives at a knot. The factors u and u^2 keep every row finite at
    u = 0, where phi'' of u^p with p < 2 is not. Calling the function checks
    the domain and returns the jet's first row, so the modular and both norm
    searches read the same numbers. `convex` is false only for an h-form
    whose h has a slope drop; every other build is convex.

    A built phi is immutable, because `specs.resolve_phi` shares one per spec
    across reports: the fields are frozen and the arrays a jet reads are
    read-only. It hashes and compares by identity.
    """

    kind: str
    p: float | None
    q: float | None
    u_max: float
    jet: Callable[[np.ndarray], np.ndarray]
    convex: bool = True

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any(u < 0.0):
            raise ValueError("Orlicz functions take nonnegative arguments")
        if np.any(u > self.u_max * (1.0 + 1e-12)):
            raise DomainOverflowError(
                f"argument {float(np.max(u)):.6g} exceeds u_max {self.u_max:.6g}"
            )
        return np.asarray(self.jet(np.minimum(u, self.u_max))[0])


def power_phi(p: float) -> OrliczFunction:
    """phi(u) = u^p."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    orders = np.array([1.0, p, p * (p - 1.0)])
    orders.flags.writeable = False

    def jet(u):
        with np.errstate(over="ignore"):   # beyond the float range, phi is +inf
            return np.multiply.outer(orders, np.asarray(u, dtype=float) ** p)

    return OrliczFunction("power", p, None, np.inf, jet)


# A generator phi solves for s = log u in [-LOG_U_RANGE, LOG_U_RANGE], where u
# and t = u^e lie in 1e+-300 for |e| <= 1, so rho(t) <= rho(1) * t is finite;
# below that range phi is flushed to 0, and phi's domain ends at its top.
LOG_U_RANGE = 690.0
INVERSE_LOG_STEP = 1e-14   # Newton step in s, relative to 1 + |s|, at which the solve stops


def _solve_log_inverse(log_inverse: Callable, target: np.ndarray, s: np.ndarray,
                       top: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per entry, the root s of F(s) = target in [-LOG_U_RANGE, top], with
    F's slope g and g's slope: Newton steps from s, bracketed by the sign of
    F - target, bisecting where a step leaves the bracket or does not halve
    the residual, until a step or the bracket is below INVERSE_LOG_STEP;
    that last step is taken, so for a smooth F the error is about its square."""

    def step(target, s, lo, hi, last):
        f, g, dg = log_inverse(s)
        r = f - target
        hi, lo = np.where(r > 0.0, s, hi), np.where(r < 0.0, s, lo)
        with np.errstate(over="ignore"):   # g is 0 where phi^-1 is flat to rounding
            newton = -r / np.maximum(g, np.finfo(float).tiny)
        tol = INVERSE_LOG_STEP * (1.0 + np.abs(s))
        s = s + newton
        return ((np.abs(newton) <= tol) | (hi - lo <= tol), (np.clip(s, lo, hi), g, dg),
                (target, s, lo, hi, np.abs(r), last))

    def advance(target, s, lo, hi, res, last):
        bisect = (res > 0.5 * last) | ~((s > lo) & (s < hi))
        return target, np.where(bisect, 0.5 * (lo + hi), s), lo, hi, res

    return iterate("phi_inverse", step, (target, s, -LOG_U_RANGE, top, np.inf), advance)


def build_from_generator(couple: ExponentCouple, rho: Callable) -> OrliczFunction:
    """Orlicz function whose inverse is u^{1/p} * rho(u^{1/q - 1/p}), for
    rho given as its jet (see `quasiconcave`).

    With e = 1/q - 1/p and t = u^e, phi(v) = e^s for the root s of
    F(s) = s/p + log rho(t) = log v, solved per call from the power law
    through u = 1. F's slope g = 1/p + e*E, with E = t*rho'/rho in [0, 1],
    lies in [1/q, 1/p], and the jet is exact: v*phi'/phi = 1/g, and
    v^2*phi'' follows from g's slope e^2*t*E'. The domain ends where the
    solve does, at u_max = phi^-1(e^LOG_U_RANGE); at q = inf, where rho is
    linear near 0, it ends sooner, at u_max = lim rho(t)/t as t -> 0 (1 for
    min(1, t)), and phi(u_max) is where the inverse, flat (g = 0) beyond,
    first reaches it.
    """
    grid = log_grid(points_per_decade=16)
    # a rho beyond the float range is inf or nan here, which the checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        grid_rows = rho(grid)
    worst = quasiconcavity_violation(grid_rows)
    if worst > QUASICONCAVITY_TOL:
        raise ValueError(f"rho fails the quasi-concavity check ({worst:.3e})")
    conc = concavity_violation(grid_rows, grid)
    if conc > 1e-8:
        raise ValueError(f"rho fails the concavity check ({conc:.3e})")
    p, q = couple.p, couple.q
    e = (0.0 if couple.q_is_inf else 1.0 / q) - 1.0 / p

    def log_inverse(s):
        """F(s), its slope g, and g's slope e^2*t*E' (rows), at each s."""
        r0, r1, r2 = rho(np.exp(e * s))
        elast = r1 / r0
        return s / p + np.log(r0), 1.0 / p + e * elast, e * e * (r2 / r0 - elast * (elast - 1.0))

    def rows(s, g, dg):   # phi is 0 where phi^-1 is flat to rounding (g = 0) near 0
        out = np.empty((3, s.size))
        rising = g > 0.0
        u = np.exp(s, out=out[0])
        u *= rising
        eta = 1.0 / np.where(rising, g, 1.0)
        with np.errstate(over="ignore"):
            np.multiply(u, eta, out=out[1])
            np.multiply(out[1], eta - 1.0 - dg * eta * eta, out=out[2])
        return out

    u_max, top = None, LOG_U_RANGE
    r0, r1, _ = rho(np.array(2.0**-1000))
    if couple.q_is_inf and r1 == r0:
        # rho(t)/t is exact at a power of 2 t = 2^-k where rho(t) is a normal
        # float; for a small u_max, rho(2^-1000) is not, and it is read higher
        # up the line
        k = 1000
        while r0 < np.finfo(float).tiny and k > 0:
            k -= 25
            r0 = rho(np.array(2.0**-k))[0]
        # bisect for the start of the flat tail, where rho(t) = u_max * t with
        # slope u_max (near u = 0, rounding can flatten the inverse too, but
        # not onto that line)
        u_max, lo, hi = float(r0 * 2.0**k), -LOG_U_RANGE, LOG_U_RANGE
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            t = np.exp(e * np.array(mid))   # as log_inverse rounds it
            r0, r1, _ = rho(t)
            lo, hi = (lo, mid) if r0 == r1 == u_max * t else (mid, hi)
        top = lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (f_lo, f_one, f_top), g, dg = log_inverse(np.array([-LOG_U_RANGE, 0.0, top]))
        u_max = float(np.exp(f_top)) if u_max is None else u_max   # phi = e^LOG_U_RANGE
    if not np.all(np.isfinite([f_lo, f_one, f_top, g[1]])):
        raise ValueError("generator produced non-finite or non-positive inverse values")
    if not f_top > f_lo:   # rho linear on the whole range
        raise ValueError("inverse not strictly increasing")
    rows_top = rows(np.array([top]), g[2:], dg[2:])[:, 0]
    # the power law through u = 1, or 1/p where the inverse is flat there
    guess_slope = g[1] if g[1] > 0.0 else 1.0 / p

    def solve(target):
        guess = np.clip((target - f_one) / guess_slope, -LOG_U_RANGE, top)
        return rows(*_solve_log_inverse(log_inverse, target, guess, top))

    def jet(v):
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            target = np.log(v.ravel())
        inside = np.flatnonzero((target >= f_lo) & (target < f_top))
        if inside.size == target.size:
            return solve(target).reshape((3,) + v.shape)
        # phi is 0 below the range (and at 0), its top rows at or above it
        out = np.zeros((3, target.size))
        out[:, target >= f_top] = rows_top[:, None]
        out[:, inside] = solve(target[inside])
        return out.reshape((3,) + v.shape)

    return OrliczFunction("generator", p, (np.inf if couple.q_is_inf else q), u_max, jet)


def build_from_h(couple: ExponentCouple, h: PiecewiseLinearConcave) -> OrliczFunction:
    """Orlicz function u^q * h(u^{p-q}) for finite q and concave h > 0: on each
    piece a*u^q + b*u^p with a, b >= 0, so nondecreasing with phi(0) = 0."""
    if couple.q_is_inf:
        raise ValueError("q must be finite for the h-form build")
    p, q = couple.p, couple.q
    if np.any(h.values <= 0.0):
        raise ValueError("h must be positive on (0, inf)")

    def term(c, u, r):   # a 0 * inf where c = 0 is discarded
        return np.where(c == 0.0, 0.0, c * u**r)

    # on each piece of h, h(s) = a + b*s, so phi = a*u^q + b*u^p with that
    # piece's intercept a and slope b: no intermediate overflows when u^{p-q}
    # leaves float range
    orders_q = np.array([1.0, q, q * (q - 1.0)])
    orders_p = np.array([1.0, p, p * (p - 1.0)])
    orders_q.flags.writeable = orders_p.flags.writeable = False

    def jet(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            piece = np.searchsorted(h.knots, u ** (p - q), side="right")
            a, b = h.intercepts[piece], h.slopes[piece]
            return (np.multiply.outer(orders_q, term(a, u, q))
                    + np.multiply.outer(orders_p, term(b, u, p)))

    # at a knot s_k of h, phi' jumps by (p - q) u^{p-1} (h'(s_k-) - h'(s_k+)),
    # which is negative at every slope drop: phi is convex exactly when h has
    # none, that is when h is affine
    convex = bool(np.all(h.slopes[1:] >= h.slopes[:-1]))
    return OrliczFunction("h", p, q, np.inf, jet, convex)


def modular(phi: OrliczFunction, x: SampleBatch) -> np.ndarray:
    """Weighted sum of phi(|x_i|) for each member of x; rearrangement
    invariant by construction.

    Raises `DomainOverflowError` when any member leaves phi's domain.
    """
    with np.errstate(over="ignore"):   # a sum beyond the float range is +inf
        return np.sum(phi(np.abs(x.values)) * x.space.weights, axis=1)


# Both norms reduce, per member, to a 1-D problem on the modular profile
# M(sigma) = sum_i w_i phi(sigma * y_i) with y = |x| / sup|x| and sigma = k sup|x|;
# the norm of x is sup|x| times the answer for y, so the iterates are the same
# at any scale of x.
LUXEMBURG_RTOL = 1e-10     # relative width of the final Luxemburg bracket
AMEMIYA_LOG_STEP = 1e-9    # Newton step in log k below which the Amemiya search stops
AMEMIYA_RANGE = (1e-8, 1e8)   # the k range, in units of 1 / sup|x|
_PROFILE_ELEMS = 2**13    # rows x atoms per jet pass of `_profile`: a (3, E) jet is <= 192 KB


def _profile(phi: OrliczFunction, y: np.ndarray, weights: np.ndarray,
             sigma: np.ndarray) -> np.ndarray:
    """M, sigma*M' and sigma^2*M'' (rows of the result) of each row of y at
    its own sigma, one pass of phi's jet per `row_chunks` run of at most
    _PROFILE_ELEMS entries (and at least one row); each row's sum is the
    same in any run. A sum beyond the float range is +inf."""
    count, n = y.shape
    out = np.empty((3, count))
    with np.errstate(over="ignore"):
        for part in row_chunks(count, n, _PROFILE_ELEMS):
            out[:, part] = np.sum(phi.jet(y[part] * sigma[part, None]) * weights, axis=-1)
    return out


def _stationarity(mod: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """g = sigma*M' - M, and +inf where M is: the objective (1 + M) / sigma
    is +inf there, so the minimum lies below."""
    return np.subtract(slope, mod, out=np.full(mod.shape, np.inf), where=mod < np.inf)


def _next_sigma(y, sigma, log_step, lo, hi, slow, last, *rest):
    """Both norm searches' advance: sigma * exp(log_step) when it lies
    strictly inside (lo, hi) and the last step made progress; the geometric
    midpoint of a finite bracket otherwise."""
    bounded = (lo > 0.0) & np.isfinite(hi)
    with np.errstate(over="ignore", invalid="ignore"):
        new = sigma * np.exp(log_step)
        bisect = bounded & (slow | ~((new > lo) & (new < hi)))
        return (y, np.where(bisect, np.sqrt(lo * hi), new), lo, hi, last, *rest)


def _unit_modular_bracket(phi: OrliczFunction, y: np.ndarray, weights: np.ndarray,
                          start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per row of y (sup 1), sigma_lo <= sigma_hi with M(sigma_lo) <= 1 <=
    M(sigma_hi) and sigma_hi - sigma_lo <= LUXEMBURG_RTOL * sigma_hi; both
    are u_max when M(u_max) <= 1.

    Newton steps on log M against log sigma (exact for a power phi), from
    sigma = min(1, u_max), the start of `_amemiya_points`; given `start`,
    its column at that point is the first pass. Each evaluation certifies
    two points: phi(u)/u is nondecreasing (phi convex with phi(0) = 0, or
    an h-form with h concave), so M(sigma)/sigma is too, and sigma /
    M(sigma) lies on the other side of the root from sigma. That pair
    closes the bracket once |log M| is small; the evaluated points bound
    each step, and a step that leaves them or does not halve |log M|
    becomes a bisection.
    """
    cap = phi.u_max

    def step(y, sigma, lo, hi, last, start=None):
        sigma = np.minimum(sigma, cap)
        mod, slope, _ = _profile(phi, y, weights, sigma) if start is None else start
        over = mod >= 1.0
        hi, lo = np.where(over, sigma, hi), np.where(over, lo, sigma)
        # M = 0 where phi is 0 on [0, sigma] (a generator phi at q = inf whose
        # rho(t)/t tends to c > 0 is 0 up to c): no partner bounds the root
        # then, and the step doubles sigma. Where M or sigma*M' leaves the
        # float range, the step halves sigma, the mirror case
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mod = np.log(mod)
            partner = sigma / mod
            # a step never passes the partner sigma / M: the elasticity
            # sigma*M'/M is at least 1 wherever phi(u)/u is nondecreasing
            newton = np.where(np.isfinite(log_mod) & (slope < np.inf),
                              -log_mod / np.maximum(slope / mod, 1.0),
                              np.copysign(math.log(2.0), -log_mod))
        cand_lo = np.maximum(lo, np.where(over, partner, sigma))
        cand_hi = np.minimum(hi, np.where(over, sigma, partner))
        capped = ~over & (sigma >= cap)
        done = capped | (np.isfinite(cand_hi) & (cand_hi - cand_lo <= LUXEMBURG_RTOL * cand_hi))
        size = np.abs(log_mod)
        return (done, (np.where(capped, cap, cand_lo), np.where(capped, cap, cand_hi)),
                (y, sigma, newton, lo, hi, size > 0.5 * last, size))

    sigma = np.full(y.shape[0], min(1.0, cap))
    # the start's column as contiguous rows, the layout `_profile` returns
    first = () if start is None else (start[:, :, 1].copy(),)
    return iterate("luxemburg", step, (y, sigma, 0.0, np.inf, np.inf, *first), _next_sigma)


def _luxemburg_bracket(phi: OrliczFunction, mags: np.ndarray, weights: np.ndarray,
                       start: np.ndarray | None = None):
    """(lo, hi) per row x of magnitudes: modular(x / lo) >= 1 >=
    modular(x / hi), within roundoff, and hi - lo <= 1e-10 * hi; both are
    sup|x| / u_max when the modular fits at that smallest admissible lambda,
    0 for a zero member, and +inf beyond the float range."""
    rows, sup, y = sup_scaled(mags)
    lo, hi = np.zeros(mags.shape[0]), np.zeros(mags.shape[0])
    s_lo, s_hi = _unit_modular_bracket(phi, y, weights, _checked(start, rows.size))
    with np.errstate(over="ignore"):
        lo[rows], hi[rows] = sup / s_hi, sup / s_lo
    return lo, hi


def luxemburg_norm(phi: OrliczFunction, x: SampleBatch,
                   start: np.ndarray | None = None) -> np.ndarray:
    """inf of lambda > 0 with modular(x / lambda) <= 1.

    Solved per member by safeguarded Newton steps to a bracket of relative
    width 1e-10 (see `_unit_modular_bracket`). Returns the bracket's upper
    end, so the modular at the returned norm never exceeds 1 beyond roundoff.
    `start`, if given, is `norm_start(phi, x)`, and its middle column is the
    search's first pass; the result is bitwise the same.
    """
    return _luxemburg_bracket(phi, np.abs(x.values), x.space.weights, start)[1]


def _amemiya_points(phi: OrliczFunction) -> np.ndarray:
    """The bottom, start and top of the Amemiya range: AMEMIYA_RANGE with
    the top clipped to u_max (a range clipped empty shrinks to its top), and
    1 clipped to it. That start, min(1, u_max), is the Luxemburg start too."""
    top = min(AMEMIYA_RANGE[1], phi.u_max)
    return np.array([min(AMEMIYA_RANGE[0], top), min(1.0, top), top])


def _first_profile(phi: OrliczFunction, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """M, sigma*M' and sigma^2*M'' (first axis) of each row of y (sup 1,
    second axis) at each of the `_amemiya_points` (third axis), in one pass
    of phi's jet."""
    count = y.shape[0]
    sigma = np.tile(_amemiya_points(phi), count)
    return _profile(phi, np.repeat(y, 3, axis=0), weights, sigma).reshape(3, count, 3)


def norm_start(phi: OrliczFunction, x: SampleBatch) -> np.ndarray:
    """The first pass that both norm searches of x share, for the `start` of
    `luxemburg_norm` and `amemiya_norm`: the profile of each nonzero member
    at sup 1 at the three points of `_first_profile`, a (3, members, 3)
    array. Given it, the two norms make one pass of phi's jet fewer between
    them, and each is bitwise the same as without it."""
    return _first_profile(phi, sup_scaled(np.abs(x.values))[2], x.space.weights)


def _checked(start: np.ndarray | None, count: int) -> np.ndarray | None:
    """start, once its shape fits `count` nonzero members."""
    if start is not None and np.shape(start) != (3, count, 3):
        raise ValueError(f"a norm start of these members has the shape (3, {count}, 3), "
                         f"not {np.shape(start)}")
    return start


def _amemiya_scaled(phi: OrliczFunction, y: np.ndarray, weights: np.ndarray,
                    start: np.ndarray | None = None) -> np.ndarray:
    """min over sigma of (1 + M(sigma)) / sigma per row of y (sup 1).

    sigma ranges between the bottom and top of `_amemiya_points`. The
    objective falls while g = sigma*M' - M < 1 and rises after, and g is
    nondecreasing when phi is convex, so the search solves g = 1: Newton
    steps on log g against log sigma (exact for a power phi) from their
    start, bracketed by the sign of g - 1 with a bisection fallback, until
    the step is below AMEMIYA_LOG_STEP. The first pass, `_first_profile` or
    `start` when given, evaluates both ends too. Returns the least objective
    evaluated, an attained upper bound; for the non-convex concave-h
    crossover functions (`convex` false) it may be a local minimum above the
    infimum.
    """
    points = _amemiya_points(phi)
    mod, slope, curv = _first_profile(phi, y, weights) if start is None else start
    best = np.min((1.0 + mod) / points, axis=1)
    g = _stationarity(mod, slope)
    # a minimum lies where g - 1 turns from negative to positive: below the
    # start if g >= 1 there, above it if g > 1 only at the top
    live = np.flatnonzero((g[:, 0] < 1.0) & ((g[:, 1] >= 1.0) | (g[:, 2] > 1.0)))

    def step(y, sigma, lo, hi, last, best, start=None):
        mod, slope, curv = _profile(phi, y, weights, sigma) if start is None else start
        best = np.minimum(best, (1.0 + mod) / sigma)
        g = _stationarity(mod, slope)
        above = g >= 1.0
        hi, lo = np.where(above, sigma, hi), np.where(above, lo, sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = np.where(g > 0.0, np.log(g), np.inf)
            newton = -residual * g / curv
        done = ((np.abs(newton) <= AMEMIYA_LOG_STEP)
                | (np.log(hi) - np.log(lo) <= AMEMIYA_LOG_STEP))
        size = np.abs(residual)
        return done, (best,), (y, sigma, newton, lo, hi, size > 0.5 * last, size, best)

    # the first pass reads the start point off the profile above
    state = (y[live], points[1], points[0], points[2], np.inf, best[live],
             (mod[live, 1], slope[live, 1], curv[live, 1]))
    best[live] = iterate("amemiya", step, state, _next_sigma)[0]
    return best


def amemiya_norm(phi: OrliczFunction, x: SampleBatch,
                 start: np.ndarray | None = None) -> np.ndarray:
    """inf over k > 0 of (1 + modular(k*x)) / k.

    Searched per member over k in [1e-8, min(1e8, u_max)] / sup|x| (see
    `_amemiya_scaled`); the result is the least objective the search
    evaluated, which includes both ends of the range. `start`, if given, is
    `norm_start(phi, x)`, the search's first pass; the result is bitwise the
    same.
    """
    rows, sup, y = sup_scaled(np.abs(x.values))
    out = np.zeros(len(x))
    scaled = _amemiya_scaled(phi, y, x.space.weights, _checked(start, rows.size))
    with np.errstate(over="ignore"):   # a norm beyond the float range is +inf
        out[rows] = sup * scaled
    return out


def check_convexity(phi: OrliczFunction, p: float) -> bool:
    """Whether psi(w) = phi(w^{1/p}) is convex, read off how phi was built.

    A power u^r gives psi(w) = w^{r/p}, convex exactly when r >= p. A
    generator build of exponent p' >= p has psi^{-1}(u) = (phi^{-1}(u))^p =
    inf_j (a_j u^{1/p'} + b_j u^{1/q})^p, from the lines a_j + b_j t >= 0 of
    its concave rho. Each term is (a_j s^{1/p} + b_j t^{1/p})^p, concave and
    nondecreasing in (s, t) >= 0, at s = u^{p/p'} and t = u^{p/q}, both
    concave in u; so each term is concave, their infimum psi^{-1} is, and
    psi, its increasing inverse with psi(0) = 0, is convex (Maligranda,
    Orlicz Spaces and Interpolation, 1989). Any other phi is rejected: an
    h-form need not be convex at all.
    """
    return phi.kind in ("power", "generator") and phi.p >= p
