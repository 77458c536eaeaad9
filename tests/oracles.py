"""Slow reference routes that the tests compare the shipped kernels against.

Nothing in the package calls these; each is written for clarity, not speed.

- Rearrangement: `StepFunction`, `rearrangement`, `step_to_sample`,
  `lp_integral`, `sup_norm` and `cumulative_p_integral`, the route behind the
  Kree sandwich (`kree_bounds`) for the (L^p, L^inf) K-functional and the
  step-function modular (`modular_of_step`).
- Peetre decompositions: `peetre_value` evaluates one, `reconstruct` inverts
  `peetre_decompose`, and `phi_expansion` expands the h-form Orlicz function
  from the decomposition.
- Operators, written against the batched `CertifiedOperator.apply`: the draws
  of a probe run are made one pair or one input at a time, in the order a
  per-input loop would make them, and then applied as one batch.
  `boyd_lower_bound` is Boyd's power method for the L^r norm, run on each
  operator's linearization at the current iterate: its matrix
  (`operator_matrix`), or the selection that attains each (Tx)_i
  (`max_of_selection_adjoint`, `window_selection_adjoint`).
- The (L^p, L^inf) K-functional by search: `k_lp_linf_golden` is the
  golden-section kernel the exact `kfunc.k_lp_linf_grid` replaced, kept as
  it was (kink candidates per member plus one batched golden section), and
  `k_lp_linf_floor` is a tangent lower bound on the same infimum.
- The norms by search: `luxemburg_bisect` and `amemiya_golden` are the
  bisection and golden-section kernels that the Newton solves in
  `orlicz.luxemburg_norm` and `orlicz.amemiya_norm` replaced, kept as they
  were, with their helpers `_scaled_modular` and `golden_section`.
- Shape checks on values: `is_quasiconcave` is the chord check on rho's
  values (rho nondecreasing and rho(t)/t nonincreasing between grid points,
  on at least 200 points) and `_validate_shape` the second-difference probe
  of a built phi, both kept verbatim from before the package read
  quasi-concavity off the jet and stopped probing its builds.
  `second_difference_convexity` is `orlicz.check_convexity` as it was before
  it read thm31a's psi-convexity off phi's build: centered second
  differences on a uniform grid of at least 100 points, kept verbatim.
  `generator_rho_checks` is the generator build's rho checks with the chord
  check in them.
- Generator builds through SciPy: `generator_phi_pchip` is the tabulated
  build that the exact inversion in `orlicz.build_from_generator` replaced,
  kept as it was: its rho checks on values (chord slopes, or the slope table
  of a `PiecewiseLinearConcave`), the tabulation of the inverse at
  `INVERSION_POINTS_PER_DECADE` points per decade over [`INVERSION_U_LO`,
  `INVERSION_U_HI`], the running-maximum keep mask, and a jet on SciPy's
  `PchipInterpolator` whose first row is the interpolant's own value
  (`_pchip_jet`). It takes rho as a value function. `power_log_rho_full` is
  the power-log generator with both log factors always evaluated.
- The generator solve with its arrays made up front: `solve_log_inverse_stacked`
  is `orlicz._solve_log_inverse` as it was before its first pass ran on the
  whole arrays with a scalar bracket, returning one stacked (3, n) array, and
  `generator_rows` is the build's `rows` as it was, stacking phi's jet rows
  from the solve's; both kept verbatim.
- Input draws with one `SeedSequence` child and one `default_rng` per input:
  `generate_inputs_per_child` and `pair_batch_per_child` are
  `verify.generate_inputs` and `verify._pair_batch` as they were before the
  children's PCG64 states were computed for the whole batch at once, kept
  verbatim.
- The functionals' inner kernels as they were before their passes were cut:
  `kink_bracket_per_t` is `kfunc._kink_bracket` computing the descent rate
  once per (member, t) row, and `pointwise_min_split_newton` is
  `kfunc._pointwise_min_split` with Newton steps in u = logit(a/c) run until
  a step is below 1e-15 (1 + |u|), kept verbatim. `split_step_expressions`
  is `kfunc._split_step` as one expression per quantity, before each array
  was overwritten in place, and `every_kink_pair` is `kfunc._distinct_kinks`
  with no pair shared, so that K takes its sums once per (member, t) row, as
  it did before they were taken once per distinct (member, kink).
- The definitions that two kernels solve faster: `sparr_gamma_oracle` is
  gamma(p, q) by nested bisection on its defining condition, on the whole
  range [1, `GAMMA_MAX`] of `constants.sparr_gamma`, and `brute_force_k` is
  the (L^p, L^q) L-functional as a grid minimum over signed decompositions
  of at most 3 atoms, which assumes no pointwise or sign reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

import orliczkit as ok
from orliczkit import specs
from orliczkit.constants import GAMMA_MAX, _bisect
from orliczkit.kfunc import _check_exponent, _descent_rate, _expit
from orliczkit.liveset import MAX_PASSES, NonConvergenceError
from orliczkit.measure import DiscreteMeasureSpace, SampleBatch, SampleFunction, _frozen_array
from orliczkit.operators import _window_maximal
from orliczkit.orlicz import INVERSE_LOG_STEP, LOG_U_RANGE, ExponentCouple, OrliczFunction
from orliczkit.quasiconcave import (PeetreRepresentation, PiecewiseLinearConcave,
                                    concavity_violation, log_grid)
from orliczkit.verify import _draws


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



def operator_matrix(op) -> np.ndarray:
    """The matrix of a linear operator, read off `apply` on the unit rows."""
    return op.apply(SampleBatch(op.space, np.eye(op.space.n))).values.T


def _signs_at(x: np.ndarray) -> np.ndarray:
    """sign(x) with +1 at 0, where any sign is a subgradient of |x|."""
    return np.where(x < 0.0, -1.0, 1.0)


def max_of_selection_adjoint(members: Sequence) -> Callable:
    """(x, d) -> L^T d per row, where row i of L is row i of the linear
    member whose |(T_j x)_i| is largest, times that value's sign: the
    linearization of `max_of(members)` at x."""
    mats = np.stack([operator_matrix(m) for m in members])   # (member, i, k)

    def adjoint(x, d):
        outs = np.einsum("jik,rk->rji", mats, x)
        pick = np.argmax(np.abs(outs), axis=1)
        sign = _signs_at(np.take_along_axis(outs, pick[:, None, :], axis=1)[:, 0, :])
        return np.einsum("ri,rik->rk", d * sign, mats[pick, np.arange(x.shape[1])])

    return adjoint


def window_selection_adjoint(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """L^T d per row, where row i of L averages over the window that attains
    (Tx)_i for the window maximal T, times the signs of x.

    means[a, b] is the mean of |x| over atoms a..b. Per start a, the running
    maximum over ends from the right gives the best end b >= i, found at the
    first running record at or after i; the best start a <= i then picks the
    window of atom i. Each window adds d_i / length to its atoms through a
    difference array, so a pass costs a few n x n arrays per row."""
    rows, n = x.shape
    prefix = np.zeros((rows, n + 1))
    np.cumsum(np.abs(x), axis=1, out=prefix[:, 1:])
    atoms = np.arange(n)
    length = atoms[None, :] - atoms[:, None] + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(length > 0, (prefix[:, None, 1:] - prefix[:, :-1, None]) / length, -np.inf)
    best_end = np.maximum.accumulate(means[:, :, ::-1], axis=2)[:, :, ::-1]
    records = np.where(means == best_end, atoms, n)
    end = np.minimum.accumulate(records[:, :, ::-1], axis=2)[:, :, ::-1]
    start = np.argmax(np.where(length > 0, best_end, -np.inf), axis=1)
    stop = np.take_along_axis(end, start[:, None, :], axis=1)[:, 0, :]
    share = (d / (stop - start + 1)).ravel()
    offset = (np.arange(rows) * (n + 1))[:, None]
    size = rows * (n + 1)
    spread = (np.bincount((offset + start).ravel(), share, size)
              - np.bincount((offset + stop + 1).ravel(), share, size))
    return np.cumsum(spread.reshape(rows, n + 1)[:, :n], axis=1) * _signs_at(x)


def _lr_norm(v: np.ndarray, r: float, w: np.ndarray) -> np.ndarray:
    if math.isinf(r):
        return np.abs(v).max(axis=1, initial=0.0)
    return np.sum(np.abs(v) ** r * w, axis=1) ** (1.0 / r)


def _dual(v: np.ndarray, r: float, w: np.ndarray) -> np.ndarray:
    """Per row, d with sum w*d*v = |v|_r and |d|_r' = 1 in the dual of
    L^r(w) (d = 0 for a zero row)."""
    if math.isinf(r):
        top = np.argmax(np.abs(v), axis=1)
        out = np.zeros_like(v)
        picked = v[np.arange(len(v)), top]
        out[np.arange(len(v)), top] = np.sign(picked) / w[top]
        return out
    if r == 1.0:
        return np.sign(v)
    norm = _lr_norm(v, r, w)[:, None]
    scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
    return np.sign(v) * (np.abs(v) * scale) ** (r - 1.0)


def boyd_lower_bound(op, r: float, members: Sequence | None = None,
                     starts: np.ndarray | None = None, passes: int = 100) -> float:
    """Lower bound on the L^r operator norm of op by Boyd's power method
    (Boyd 1974; Higham, "Estimating the matrix p-norm", 1992).

    Each pass maps every start x to y = Tx by `op.apply`, and then to
    x = dual_r'(L* dual_r(y)), where L is op's linearization at x and L* its
    adjoint for the pairing sum w*f*g: the matrix of a linear op, the
    selection of `max_of(members)` (linear members), or that of the window
    maximal. For a fixed L the ratio |Lx|_r / |x|_r never falls, and
    |Tx| >= |Lx| atomwise, so it climbs to a fixed point. The starts default
    to the unit rows and one dual step from each atom, dual_r'(L* delta_i),
    which is the sign pattern of row i for a matrix at r = inf; so r = 1 and
    r = inf find the largest column and row sums on the first pass. The
    passes stop when no start's ratio rises by more than 1e-14 relative.
    Returns the best |Tx|_r / |x|_r seen, each Tx from `op.apply`, so the
    value stays a lower bound even if a linearization were wrong.
    """
    n, w = op.space.n, op.space.weights
    if members is not None:
        adjoint = max_of_selection_adjoint(members)
    elif op._apply is _window_maximal:
        adjoint = window_selection_adjoint
    else:
        if op.kind != "linear":
            raise ValueError("pass the members of a max_of operator")
        matrix = operator_matrix(op)
        adjoint = lambda x, d: d @ matrix
    dual_r = math.inf if r == 1.0 else 1.0 if math.isinf(r) else r / (r - 1.0)
    if starts is None:
        units = np.eye(n)
        starts = np.vstack((units, _dual(adjoint(units, units) / w, dual_r, w)))
    x = np.array(starts, dtype=float, ndmin=2)
    best, last = 0.0, np.zeros(len(x))
    for _ in range(passes):
        tx = op.apply(SampleBatch(op.space, x)).values
        size = _lr_norm(x, r, w)
        ratio = np.divide(_lr_norm(tx, r, w), size, out=np.zeros_like(size), where=size > 0.0)
        best = max(best, float(ratio.max(initial=0.0)))
        if not np.any(ratio > last * (1.0 + 1e-14)):
            break
        last = np.maximum(last, ratio)
        x = _dual(adjoint(x, _dual(tx, r, w) * w) / w, dual_r, w)
    return best


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
    and merges equal levels into one step.
    """
    mags = np.abs(x.values[0])
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
    return float(np.sum(np.abs(x.values) ** p * x.space.weights))


def sup_norm(x: SampleFunction) -> float:
    """Essential supremum, here simply max |x_i|."""
    return float(np.max(np.abs(x.values)))


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


def kree_bounds(t: float, x: SampleFunction, p: float) -> tuple[float, float]:
    """Two-sided comparison for K(t^{1/p}, x; L^p, L^inf).

    lower is the 1/p-th power of the running rearrangement integral up to t;
    upper multiplies it by 2^{1-1/p}, which is sharp. The sandwiched quantity
    is the K-functional at parameter t^{1/p}, not t.
    """
    _check_exponent(p)
    if t <= 0.0:
        raise ValueError("t must be positive")
    step = rearrangement(x)
    lower = float(cumulative_p_integral(step, p, t)[0]) ** (1.0 / p)
    return lower, 2.0 ** (1.0 - 1.0 / p) * lower


def modular_of_step(phi: OrliczFunction, step) -> float:
    """Integral of phi over a step function (cross-check path for modular)."""
    return float(np.sum(phi(step.levels) * step.widths))


def peetre_value(rep: PeetreRepresentation, u) -> np.ndarray:
    """a + b*u + sum_i m_i * min(u, t_i), the concave h of a decomposition."""
    u = np.asarray(u, dtype=float)
    out = rep.a + rep.b * u
    if rep.atom_locations.size:
        out = out + np.minimum(u[..., None], rep.atom_locations).dot(rep.atom_masses)
    return out


def reconstruct(rep: PeetreRepresentation) -> PiecewiseLinearConcave:
    """Piecewise linear concave function with the given decomposition."""
    if rep.atom_locations.size == 0:
        knots = np.array([1.0])
    else:
        knots = rep.atom_locations
    values = peetre_value(rep, knots)
    slope0 = rep.b + float(rep.atom_masses.sum())
    return PiecewiseLinearConcave(knots, values, slope0, rep.b)


def phi_expansion(rep: PeetreRepresentation, p: float, q: float, u) -> np.ndarray:
    """a*u^q + b*u^p + sum_i m_i * min(u^p, t_i * u^q).

    Expands the convex function u^q * h(u^{p-q}) directly from the
    decomposition of h; agrees with evaluating the h route.
    """
    if not (1.0 <= p < q < np.inf):
        raise ValueError("need 1 <= p < q < inf")
    u = np.asarray(u, dtype=float)
    up, uq = u**p, u**q
    out = rep.a * uq + rep.b * up
    if rep.atom_locations.size:
        out = out + np.minimum(up[..., None], rep.atom_locations * uq[..., None]).dot(rep.atom_masses)
    return out


def _truncation_objective(mags: np.ndarray, w: np.ndarray, p: float,
                          lams: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """||(mags_i - lam_i)_+||_p + t_i lam_i for each row i of mags."""
    rest = np.maximum(mags - lams[:, None], 0.0)
    rest **= p
    rest *= w
    return np.sum(rest, axis=1) ** (1.0 / p) + ts * lams


def k_lp_linf_golden(ts, x: SampleBatch, p: float) -> np.ndarray:
    """K(t, x; L^p, L^inf) for every member of x and every t in ts, via the
    truncation reduction.

    The objective is convex in the truncation height with kinks only at the
    data magnitudes, so the minimum over all heights is the minimum over the
    exact kink candidates (per member) and the midpoint of a golden-section
    bracket. All (member, t) rows share one `golden_section` call;
    each stops on its own at 1e-12 * max(lam_max, 1) of its member. A member
    whose ||x||_p^p overflows gets +inf, the one upper bound left to give.
    """
    _check_exponent(p)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    mags = np.abs(x.values)
    w = x.space.weights
    lam_max = mags.max(axis=1, initial=0.0)
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite(np.sum(mags**p * w, axis=1))
    out = np.zeros((mags.shape[0], ts.size))
    out[overflows] = np.inf
    members = np.flatnonzero((lam_max > 0.0) & ~overflows)   # a zero member has K = 0
    for i in members:
        cands = np.unique(np.concatenate(([0.0, lam_max[i]], mags[i])))
        rest_p = np.sum(np.clip(mags[i][None, :] - cands[:, None], 0.0, None) ** p * w,
                        axis=1) ** (1.0 / p)
        out[i] = np.min(rest_p[:, None] + cands[:, None] * ts[None, :], axis=0)
    row_member = np.repeat(members, ts.size)
    row_mags, row_t, hi = mags[row_member], np.tile(ts, members.size), lam_max[row_member]
    lo, hi = golden_section(
        lambda rows, lams: _truncation_objective(row_mags[rows], w, p, lams, row_t[rows]),
        np.zeros(hi.shape), hi, 1e-12 * np.maximum(hi, 1.0))
    mid = _truncation_objective(row_mags, w, p, 0.5 * (lo + hi), row_t)
    out[members] = np.minimum(out[members], mid.reshape(members.size, ts.size))
    return out


def k_lp_linf_floor(ts, x: SampleFunction, p: float) -> np.ndarray:
    """A lower bound on K(t, x; L^p, L^inf) for each t in ts, within roundoff
    of the infimum.

    The truncation objective F(lam) = ||(|x| - lam)_+||_p + t lam is convex,
    so each tangent lies below it. A 200-step bisection on the sign of the
    right slope F'(lam+) brackets the minimiser in [lo, hi]; the tangent at
    lo, whose slope is <= 0, takes its least value on [lo, hi] at hi, and
    the tangent at hi, whose slope is >= 0 (t past sup|x|), at lo. The
    larger of those two values is a lower bound on min F.
    """
    m, w = np.abs(x.values[0]), x.space.weights
    ts = np.atleast_1d(np.asarray(ts, dtype=float))

    def objective(lam):
        rest = np.maximum(m[None, :] - lam[:, None], 0.0)
        return np.sum(rest**p * w, axis=1) ** (1.0 / p) + ts * lam

    def slope(lam):
        rest = np.maximum(m[None, :] - lam[:, None], 0.0)
        if p == 1.0:
            rate = np.sum((rest > 0.0) * w, axis=1)
        else:
            s_p = np.sum(rest**p * w, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = np.where(s_p > 0.0, np.sum(rest ** (p - 1.0) * w, axis=1)
                                * s_p ** (1.0 / p - 1.0), 0.0)
        return ts - rate

    lo, hi = np.zeros(ts.size), np.full(ts.size, m.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        falls = slope(mid) < 0.0
        lo, hi = np.where(falls, mid, lo), np.where(falls, hi, mid)
    width = hi - lo
    return np.maximum(objective(lo) + np.minimum(slope(lo), 0.0) * width,
                      objective(hi) - np.maximum(slope(hi), 0.0) * width)


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


def _scaled_modular(phi: OrliczFunction, mags: np.ndarray, weights: np.ndarray,
                    scale: np.ndarray) -> np.ndarray:
    """Modular of each row of mags times its scale; +inf for a row that
    leaves phi's domain instead of raising."""
    vals = mags * scale[:, None]
    out = np.sum(phi(np.minimum(vals, phi.u_max)) * weights, axis=1)
    out[vals.max(axis=1, initial=0.0) > phi.u_max * (1.0 + 1e-12)] = np.inf
    return out


def luxemburg_bisect(phi: OrliczFunction, x: SampleBatch) -> np.ndarray:
    """inf of lambda > 0 with modular(x / lambda) <= 1, by bisection.

    Per member: double an upper bracket from sup|x| until the modular fits,
    halve it to a lower one, then bisect to a relative width of 1e-10 (at
    most 400 steps per bracket and 4000 bisection steps, counted per
    member). Returns the upper bracket end, so the modular at the returned
    norm never exceeds 1 beyond roundoff.
    """
    mags = np.abs(x.values)
    weights = x.space.weights
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
        if np.any(iters[rows] > 400):
            raise NonConvergenceError("no upper bracket for the Luxemburg norm")
    lo = 0.5 * hi
    rows = np.flatnonzero(m > 0.0)
    while rows.size:
        rows = rows[fits(rows, lo[rows])]
        hi[rows] = lo[rows]
        lo[rows] *= 0.5
        iters[rows] += 1
        if np.any(lo[rows] < 1e-300) or np.any(iters[rows] > 400):
            raise NonConvergenceError("no lower bracket for the Luxemburg norm")
    rows = np.flatnonzero(hi - lo > 1e-10 * hi)
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        ok = fits(rows, mid)
        hi[rows[ok]], lo[rows[~ok]] = mid[ok], mid[~ok]
        iters[rows] += 1
        if np.any(iters[rows] > 4000):
            raise NonConvergenceError("Luxemburg bisection failed to converge")
        rows = rows[hi[rows] - lo[rows] > 1e-10 * hi[rows]]
    return hi


def amemiya_golden(phi: OrliczFunction, x: SampleBatch) -> np.ndarray:
    """inf over k > 0 of (1 + modular(k*x)) / k.

    Golden section (`golden_section`) over log k on [1e-8, 1e8] / sup|x|,
    the upper end clipped to the evaluation domain u_max / sup|x| (a range
    clipped empty shrinks to its upper end), to a bracket of 1e-9, each
    member stopped on its own; scaling the bracket by sup|x| keeps the norm
    homogeneous, since k*x then ranges over the same values at any scale;
    the bracket midpoint pins the value to roundoff, so no polish follows.
    Returns the least objective at the midpoint and both ends. Unimodality
    of the objective rests on convexity of the modular in k, so for the
    non-convex concave-h crossover functions the result is only an upper
    bound on the infimum.
    """
    mags = np.abs(x.values)
    weights = x.space.weights
    m = mags.max(axis=1, initial=0.0)

    def objective(rows, k):
        return (1.0 + _scaled_modular(phi, mags[rows], weights, k)) / k

    out = np.zeros(m.size)
    rows = np.flatnonzero(m > 0.0)
    top = min(1e8, phi.u_max)
    k_hi, k_lo = top / m[rows], min(1e-8, top) / m[rows]
    best = np.minimum(objective(rows, k_lo), objective(rows, k_hi))
    a, b = golden_section(lambda live, s: objective(rows[live], np.exp(s)),
                          np.log(k_lo), np.log(k_hi), 1e-9)
    out[rows] = np.minimum(best, objective(rows, np.exp(0.5 * (a + b))))
    return out


def power_log_rho_full(theta: float, a: float, b: float) -> Callable:
    """`quasiconcave.power_log_rho`, each log factor raised even to the power 0."""

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        pos = t > 0.0
        tp = t[pos]
        out[pos] = tp**theta * np.log(np.e + tp) ** a * np.log(np.e + 1.0 / tp) ** b
        return out

    return evaluate


def _pchip_jet(x: np.ndarray, y: np.ndarray):
    """The jet of the monotone interpolant through (x, y): SciPy's value, and
    the derivative rows from the interpolant's cubic coefficients."""
    interp = PchipInterpolator(x, y, extrapolate=False)
    x0, y0 = float(x[0]), float(y[0])
    # below the grid: power-law continuation matching the lowest segment
    x1, y1 = float(x[1]), float(y[1])
    alpha = (math.log(y1) - math.log(y0)) / (math.log(x1) - math.log(x0)) if y0 > 0 else 1.0
    # the interpolant's own breakpoints and cubic coefficients (highest power
    # first), so the jet needs no second spline per phi
    knots, coef = interp.x, interp.c
    low_orders = np.array([1.0, alpha, alpha * (alpha - 1.0)])

    def jet(u):
        u = np.minimum(np.asarray(u, dtype=float), knots[-1])
        j = np.searchsorted(knots, u, side="right") - 1
        j = np.clip(j, 0, knots.size - 2)
        d = u - knots[j]
        c0, c1, c2, _ = coef[:, j]
        out = np.empty((3,) + u.shape)
        # NaN below x0, where the continuation overwrites it
        out[0] = interp(u)
        out[1] = u * ((3.0 * c0 * d + 2.0 * c1) * d + c2)
        out[2] = u * u * (6.0 * c0 * d + 2.0 * c1)
        low = u < x0
        if np.any(low):
            out[:, low] = np.multiply.outer(low_orders, y0 * (u[low] / x0) ** alpha)
        return out

    return jet


class QuasiConcavityCheck(NamedTuple):
    ok: bool
    worst_violation: float


def is_quasiconcave(rho: Callable, grid: np.ndarray | None = None,
                    rtol: float = 1e-10) -> QuasiConcavityCheck:
    """Grid check that rho is nondecreasing with rho(t)/t nonincreasing.

    Violations are measured relative to the local value; the worst one is
    returned (0 when clean).
    """
    if grid is None:
        grid = log_grid(points_per_decade=16)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 200:
        raise ValueError("grid must contain at least 200 points")
    vals = np.asarray(rho(grid), dtype=float)
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise ValueError("rho must be finite and positive on the grid")
    inc = (vals[:-1] - vals[1:]) / vals[:-1]          # >0 where decreasing
    ratio = vals / grid
    dec = (ratio[1:] - ratio[:-1]) / ratio[:-1]       # >0 where ratio increases
    worst = float(max(inc.max(initial=0.0), dec.max(initial=0.0), 0.0))
    return QuasiConcavityCheck(worst <= rtol, worst)


class ConvexityCheck(NamedTuple):
    ok: bool
    worst_second_difference: float


def second_difference_convexity(f: Callable, grid) -> ConvexityCheck:
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


def _validate_shape(phi: OrliczFunction, probe_hi: float, require_convex: bool = True) -> float:
    """Cheap construction-time check: phi(0)=0, nondecreasing, near-convex.

    Returns the worst second difference on the probe grid. Convexity is only
    enforced when required: the concave-h route legitimately produces
    nondecreasing functions with concave kinks at min-branch crossovers,
    which serve the modular comparisons but are not Orlicz functions proper.
    """
    hi = min(probe_hi, phi.u_max)
    vals = phi(np.linspace(0.0, hi, 513))
    if abs(float(vals[0])) > 1e-12:
        raise ValueError("phi(0) must be 0")
    if np.any(np.diff(vals) < -1e-12 * max(float(vals[-1]), 1.0)):
        raise ValueError("phi must be nondecreasing")
    d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    worst = float(d2.min(initial=0.0))
    if require_convex and worst < -1e-9 * max(float(np.abs(vals).max()), 1e-300):
        raise ValueError("phi fails the convexity tolerance")
    return worst


def generator_rho_checks(rho: Callable) -> None:
    """The rho checks of `orlicz.build_from_generator` as they were before
    quasi-concavity was read off the jet: `is_quasiconcave` on rho's values,
    then the jet's concavity check; each raises ValueError as the build did."""
    qc = is_quasiconcave(lambda t: rho(t)[0])
    if not qc.ok:
        raise ValueError(f"rho fails the quasi-concavity check ({qc.worst_violation:.3e})")
    grid = log_grid(points_per_decade=16)
    conc = concavity_violation(rho(grid), grid)
    if conc > 1e-8:
        raise ValueError(f"rho fails the concavity check ({conc:.3e})")


INVERSION_U_LO = 1e-12
INVERSION_U_HI = 1e12
INVERSION_POINTS_PER_DECADE = 4096


def chord_concavity_violation(rho: Callable, grid: np.ndarray) -> float:
    """Worst relative increase of chord slopes of a value function rho on
    the grid, or of the slope table of a `PiecewiseLinearConcave`."""
    if isinstance(rho, PiecewiseLinearConcave):
        slopes = rho.slopes
    else:
        grid = np.asarray(grid, dtype=float)
        vals = np.asarray(rho(grid), dtype=float)
        slopes = np.diff(vals) / np.diff(grid)
    scale = np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:]))
    scale = np.maximum(scale, 1e-300)
    rises = (slopes[1:] - slopes[:-1]) / scale
    return float(max(rises.max(initial=0.0), 0.0))


def generator_phi_pchip(couple: ExponentCouple,
                        rho: Callable) -> tuple[OrliczFunction, bool, np.ndarray]:
    """The tabulated generator build on SciPy's PCHIP interpolator, for rho
    as a value function, with whether the table saturated (its inverse
    stopped rising on the grid) and the tabulated knots."""
    qc = is_quasiconcave(rho)
    if not qc.ok:
        raise ValueError(f"rho fails the quasi-concavity check ({qc.worst_violation:.3e})")
    conc = chord_concavity_violation(rho, log_grid(points_per_decade=16))
    if conc > 1e-8:
        raise ValueError(f"rho fails the concavity check ({conc:.3e})")
    p, q = couple.p, couple.q
    e = (0.0 if couple.q_is_inf else 1.0 / q) - 1.0 / p
    u = log_grid(INVERSION_U_LO, INVERSION_U_HI, INVERSION_POINTS_PER_DECADE)
    v = u ** (1.0 / p) * np.asarray(rho(u**e), dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("generator produced non-finite or non-positive inverse values")
    # strictly increasing prefix (a flat tail signals saturation)
    running = np.maximum.accumulate(v)
    keep = np.concatenate(([True], v[1:] > running[:-1] * (1.0 + 1e-12)))
    if keep.sum() < 2 * INVERSION_POINTS_PER_DECADE:
        raise ValueError("inverse not strictly increasing on grid")
    vk, uk = v[keep], u[keep]
    phi = OrliczFunction("generator", p, (np.inf if couple.q_is_inf else q), float(vk[-1]),
                         _pchip_jet(vk, uk))
    _validate_shape(phi, 100.0)
    return phi, vk.size < v.size, vk


def solve_log_inverse_stacked(log_inverse: Callable, target: np.ndarray, s: np.ndarray,
                              top: float) -> np.ndarray:
    """Per entry, the root s of F(s) = target in [-LOG_U_RANGE, top], with
    F's slope g and g's slope (rows of the result): Newton steps from s,
    bracketed by the sign of F - target, bisecting where a step leaves the
    bracket or does not halve the residual, until a step or the bracket is
    below INVERSE_LOG_STEP; that last step is taken, so for a smooth F the
    error is about its square."""
    out = np.empty((3, target.size))
    lo, hi = np.full(target.size, -LOG_U_RANGE), np.full(target.size, top)
    last, live = np.full(target.size, np.inf), np.arange(target.size)
    for _ in range(MAX_PASSES):
        f, g, dg = log_inverse(s)
        r = f - target[live]
        hi, lo = np.where(r > 0.0, s, hi), np.where(r < 0.0, s, lo)
        with np.errstate(over="ignore"):   # g is 0 where phi^-1 is flat to rounding
            step = -r / np.maximum(g, np.finfo(float).tiny)
        tol = INVERSE_LOG_STEP * (1.0 + np.abs(s))
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        if done.all() and live.size == target.size:
            # the usual case, with no index arrays: one pass solves every entry
            return np.stack((np.clip(s + step, lo, hi), g, dg))
        if np.any(done):
            out[:, live[done]] = np.clip(s + step, lo, hi)[done], g[done], dg[done]
        keep = ~done
        live = live[keep]
        if not live.size:
            return out
        s, lo, hi, res = s[keep] + step[keep], lo[keep], hi[keep], np.abs(r[keep])
        bisect = (res > 0.5 * last[keep]) | ~((s > lo) & (s < hi))
        s, last = np.where(bisect, 0.5 * (lo + hi), s), res
    raise NonConvergenceError("the inversion of a generator phi did not converge")


def generator_rows(s, g, dg):   # phi is 0 where phi^-1 is flat to rounding (g = 0) near 0
    u, eta = np.exp(s) * (g > 0.0), 1.0 / np.where(g > 0.0, g, 1.0)
    with np.errstate(over="ignore"):
        return np.stack((u, u * eta, u * eta * (eta - 1.0 - dg * eta * eta)))


def generate_inputs_per_child(space, count: int, distribution: str = "mixed",
                              scale: float = 1.0, seed: int = 0) -> SampleBatch:
    """Seeded input batch; the seed splits per index, so batches are stable
    under any evaluation order."""
    children = np.random.SeedSequence(seed).spawn(count)
    mixes = {
        "mixed": ("uniform", "lognormal", "spikes", "constant"),
        "bounded": ("uniform", "spikes", "constant"),
    }
    n = space.n
    out = np.zeros((count, n))
    with _draws(scale, out):
        for i in range(count):
            rng = np.random.default_rng(children[i])
            kind = distribution
            if distribution in mixes:
                kind = mixes[distribution][i % len(mixes[distribution])]
            if kind == "uniform":
                out[i] = rng.uniform(-scale, scale, n)
            elif kind == "lognormal":
                out[i] = rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(0.0, 1.0, n)) * scale
            elif kind == "spikes":
                support = rng.choice(n, size=rng.integers(1, max(2, n // 3 + 1)), replace=False)
                out[i, support] = rng.choice([-1.0, 1.0], support.size) * rng.uniform(0.25, 1.0, support.size) * scale
            elif kind == "constant":
                out[i] = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.2, 1.0)) * scale
            else:
                raise specs.SpecError(f"unknown input distribution {kind!r}")
    return SampleBatch(space, out)


def pair_batch_per_child(space, count: int, scale: float, seed: int) -> tuple[SampleBatch, SampleBatch]:
    """Pairs (xs[i], ys[i]) biased toward satisfying the K-majorization hypothesis.

    Cycles: atomwise damping of a random y; damped permutation of y
    (equimeasurable on uniform weights); an independent pair, kept only if
    the grid hypothesis later holds; and x = y / (1 + |u|) scalings.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    n = space.n
    xs, ys = np.empty((count, n)), np.empty((count, n))
    with _draws(scale, xs, ys):
        for i in range(count):
            rng = np.random.default_rng(children[i])
            y_vals = rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(0.0, 0.8, n)) * scale
            mode = i % 4
            if mode == 0:
                x_vals = rng.uniform(0.0, 1.0, n) * y_vals
            elif mode == 1:
                x_vals = (rng.uniform(0.3, 1.0) * np.abs(y_vals))[rng.permutation(n)]
            elif mode == 2:
                x_vals = rng.uniform(-2.0 * scale, 2.0 * scale, n)
            else:
                x_vals = y_vals / float(1.0 + np.abs(rng.normal(0.0, 1.0)))
            xs[i], ys[i] = x_vals, y_vals
    return SampleBatch(space, xs), SampleBatch(space, ys)


def kink_bracket_per_t(m: np.ndarray, kinks: np.ndarray, w: np.ndarray, p: float,
                       row: np.ndarray, t: np.ndarray) -> np.ndarray:
    """For each (member row[i], t[i]), the least kink index J at which the
    truncation objective stops falling: F'(kinks[J]) >= 0, or kinks[J] is
    the sup 1. Members are scaled to sup 1 and kinks hold 0 and the sorted
    magnitudes. By convexity the minimiser lies in [kinks[J-1], kinks[J]],
    or at 0 when J = 0. A bisection on the sign of F' at the kinks: about
    log2(n + 1) passes, each over the open rows' atoms."""
    lo = np.zeros(row.size, dtype=np.intp)
    hi = (m.shape[1] + 1 - np.sum(m == 1.0, axis=1))[row]   # the first kink at the sup
    live = np.arange(row.size)
    while live.size:
        r, mid = row[live], (lo[live] + hi[live]) // 2
        a = kinks[r, mid]                                     # < 1, as mid < hi
        e = m[r] - a[:, None]
        np.maximum(e, 0.0, out=e)
        e *= (1.0 / (1.0 - a))[:, None]
        falls = t[live] < _descent_rate(e, w, p)
        lo[live] = np.where(falls, mid + 1, lo[live])
        hi[live] = np.where(falls, hi[live], mid)
        live = live[lo[live] < hi[live]]
    return lo


def split_step_expressions(u: np.ndarray, k: np.ndarray, p: float, q: float):
    """The Halley step for h(u) = (q-p) softplus(u) + (p-1) u - k = 0 and
    the size of the step after it, as `kfunc._split_step` computes them."""
    e = np.exp(-np.abs(u))
    sig = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
    h = (q - p) * (np.maximum(u, 0.0) + np.log1p(e)) + (p - 1.0) * u - k
    dh = (q - p) * sig + (p - 1.0)
    c2 = 0.5 * (q - p) * sig * (1.0 - sig) / dh
    newton = h / dh
    step = newton / np.maximum(1.0 - newton * c2, 0.5)
    c3 = c2 * (1.0 - 2.0 * sig) / 3.0
    return step, np.abs(c2 * c2 - c3) * np.abs(step) ** 3


def every_kink_pair(row: np.ndarray, k: np.ndarray, kinks: np.ndarray):
    """(row[i], k[i]) as pair i, each its own: `kfunc._distinct_kinks` with
    nothing shared."""
    return row, k, np.arange(row.size)


def pointwise_min_split_newton(c: np.ndarray, ts: np.ndarray, p: float, q: float) -> np.ndarray:
    """min over a in [0, c] of a^p + t*(c-a)^q, for each t and each atom of c.

    c holds atoms on its last axis, with any leading axes (one per member);
    the result has shape c.shape[:-1] + (t's, atoms).
    At p = 1 the minimizer is c - a = (tq)^{-1/(q-1)}, clipped to [0, c]. For
    p > 1, u = logit(a/c) solves h(u) = (q-p) softplus(u) + (p-1) u - K = 0,
    K = log(tq/p) + (q-p) log c: h is increasing, convex, above its asymptotes
    (p-1)u - K and (q-1)u - K, with h' in [p-1, q-1], so Newton from the larger
    asymptote root descends monotonically to the root. Each element stops on
    its own step, so its value depends on its own (c, t) alone. a = c
    sigmoid(u) and c - a = c sigmoid(-u) avoid cancellation at a ~ c. Keeping
    the candidates a = 0 and a = c makes every value an attained upper bound;
    atoms with c = 0 and t <= 0 get only those (no log(0) is taken).
    Underflow is benign.
    """
    c = np.asarray(c, dtype=float)[..., None, :]
    tb = ts[:, None]
    with np.errstate(under="ignore"):
        out = np.minimum(tb * c**q, c**p)
        inner = (tb > 0.0) & (c > 0.0)
        cc, tt = np.broadcast_to(c, out.shape)[inner], np.broadcast_to(tb, out.shape)[inner]
        if p == 1.0:
            with np.errstate(over="ignore"):  # an infinite (tq)^{-1/(q-1)} clips to c
                rest = np.minimum(cc, (q * tt) ** (-1.0 / (q - 1.0)))
            a = cc - rest
        else:
            k = np.log(q * tt / p) + (q - p) * np.log(cc)
            u = np.where(k > 0.0, k / (q - 1.0), k / (p - 1.0))
            live = np.arange(u.size)
            for _ in range(64):  # a safety cap: 1 to 9 steps, about 5, are taken
                ul = u[live]
                h = (q - p) * np.logaddexp(0.0, ul) + (p - 1.0) * ul - k[live]
                step = h / ((q - p) * _expit(ul) + (p - 1.0))
                ul = ul - step
                u[live] = ul
                live = live[step > 1e-15 * (1.0 + np.abs(ul))]
                if not live.size:
                    break
            a, rest = cc * _expit(u), cc * _expit(-u)
        out[inner] = np.minimum(out[inner], a**p + tt * rest**q)
    return out


def sparr_gamma_oracle(p: float, q: float) -> float:
    """Sharp constant straight from the definition, by nested bisection.

    The inner cost m(gamma) = min_{0<=y<=gamma} ((gamma-y)^p + y^q) is convex
    in y and strictly increasing in gamma, so bisecting m(gamma) = 1 on
    [1, 2] converges; the inner minimum uses ternary search to 1e-12.
    """
    if not (1.0 <= p <= GAMMA_MAX and 1.0 <= q <= GAMMA_MAX):
        raise ValueError(f"p and q must lie in [1, {GAMMA_MAX:g}]")

    def inner_min(gamma: float) -> float:
        lo, hi = 0.0, gamma
        while hi - lo > 1e-13 * gamma:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if (gamma - m1) ** p + m1**q <= (gamma - m2) ** p + m2**q:
                hi = m2
            else:
                lo = m1
        y = 0.5 * (lo + hi)
        return min((gamma - y) ** p + y**q, gamma**p, gamma**q)

    if inner_min(1.0) >= 1.0 - 1e-14:
        return 1.0
    value = _bisect(lambda g: inner_min(g) - 1.0, 1.0, 2.0, 1e-8 / 4.0)
    if not 1.0 - 1e-12 <= value < 2.0:
        raise ValueError(f"gamma out of [1, 2): {value}")
    return value


def brute_force_k(t: float, x: SampleFunction, p: float, q: float, n: int = 201) -> float:
    """Grid minimum of ||x0||_p^p + t ||x1||_q^q over signed decompositions.

    Each atom's component of x0 ranges over n points in [-2|x_i|, 2|x_i|]
    and x1 = x - x0. The full product grid is searched, so no pointwise or
    sign reduction is assumed; the result is an upper bound on the infimum
    that tightens as n grows.
    """
    _check_exponent(p)
    _check_exponent(q, "q")
    if t <= 0.0:
        raise ValueError("t must be positive")
    if x.space.n > 3:
        raise ValueError("brute force is limited to 3 atoms")
    if n > 201 or n < 3:
        raise ValueError("n must lie in [3, 201]")
    per_atom = []
    for ci_signed, wi in zip(x.values[0], x.space.weights):
        ci = abs(float(ci_signed))
        s = np.linspace(-2.0 * ci, 2.0 * ci, n) if ci > 0.0 else np.zeros(1)
        per_atom.append(wi * (np.abs(s) ** p + t * np.abs(ci_signed - s) ** q))
    total = per_atom[0]
    for arr in per_atom[1:]:
        total = total[..., None] + arr
    return float(total.min())
