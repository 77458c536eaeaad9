"""K- and L-functionals for couples of Lebesgue spaces on discrete measures.

For the couple (L^p, L^inf) the classical functional reduces to a truncation
search: the best split of |x| at height lam costs ||(|x|-lam)_+||_p + t*lam.
For (L^p, L^q) with both exponents finite, the lattice reduction to
nonnegative pointwise decompositions makes the infimum separate across
atoms, leaving one convex scalar problem per atom: a closed form at p = 1,
a logit Newton iteration for p > 1. A signed full-grid brute force is the
independent oracle; it never assumes the reduction it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .measure import SampleFunction, cumulative_p_integral, golden_section, rearrangement


@dataclass(frozen=True)
class KEvaluation:
    """One functional evaluation: parameter, value, and how it was computed."""

    t: float
    value: float
    method: str


def _check_exponent(p: float, name: str = "p") -> None:
    if not (1.0 <= p < np.inf):
        raise ValueError(f"{name} must lie in [1, inf)")


def _truncation_objective(mags: np.ndarray, w: np.ndarray, p: float,
                          lams: np.ndarray, ts: np.ndarray) -> np.ndarray:
    rest = np.clip(mags[None, :] - lams[:, None], 0.0, None)
    return np.sum(rest**p * w, axis=1) ** (1.0 / p) + ts * lams


def k_lp_linf_grid(ts, x: SampleFunction, p: float) -> np.ndarray:
    """K(t, x; L^p, L^inf) for every t in ts, via the truncation reduction.

    The objective is convex in the truncation height with kinks only at the
    data magnitudes, so the minimum over all heights is the minimum over the
    exact kink candidates and the midpoint of a golden-section bracket
    (`measure.golden_section`, one row per t, each stopped on its own).
    """
    _check_exponent(p)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    mags = x.abs_values()
    w = x.space.weights
    lam_max = float(mags.max(initial=0.0))
    if lam_max == 0.0:
        return np.zeros(ts.shape)
    cands = np.unique(np.concatenate(([0.0, lam_max], mags)))
    rest_p = np.sum(np.clip(mags[None, :] - cands[:, None], 0.0, None) ** p * w, axis=1) ** (1.0 / p)
    best = np.min(rest_p[:, None] + cands[:, None] * ts[None, :], axis=0)
    lo, hi = golden_section(lambda rows, lams: _truncation_objective(mags, w, p, lams, ts[rows]),
                            np.zeros(ts.shape), np.full(ts.shape, lam_max),
                            1e-12 * max(lam_max, 1.0))
    return np.minimum(best, _truncation_objective(mags, w, p, 0.5 * (lo + hi), ts))


def k_lp_linf(t: float, x: SampleFunction, p: float) -> KEvaluation:
    """Classical K-functional of the couple (L^p, L^inf) at one parameter."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    value = float(k_lp_linf_grid(np.array([t]), x, p)[0])
    return KEvaluation(float(t), value, "truncation")


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


def _pointwise_min_split(c: np.ndarray, ts: np.ndarray, p: float, q: float) -> np.ndarray:
    """min over a in [0, c] of a^p + t*(c-a)^q, for each (t, atom) pair.

    At p = 1 the minimizer is c - a = (tq)^{-1/(q-1)}, clipped to [0, c]. For
    p > 1, u = logit(a/c) solves h(u) = (q-p) softplus(u) + (p-1) u - K = 0,
    K = log(tq/p) + (q-p) log c: h is increasing, convex, above its asymptotes
    (p-1)u - K and (q-1)u - K, with h' in [p-1, q-1], so Newton from the larger
    asymptote root descends monotonically to the root. a = c sigmoid(u) and
    c - a = c sigmoid(-u) avoid cancellation at a ~ c. Keeping the candidates
    a = 0 and a = c makes every value an attained upper bound; atoms with
    c = 0 and t <= 0 get only those (no log(0) is taken). Underflow is benign.
    """
    with np.errstate(under="ignore"):
        out = np.minimum(ts[:, None] * c**q, c**p)
        rows, cols = ts > 0.0, c > 0.0
        cc, tt = c[cols], ts[rows, None]
        if p == 1.0:
            with np.errstate(over="ignore"):  # an infinite (tq)^{-1/(q-1)} clips to c
                rest = np.minimum(cc, (q * tt) ** (-1.0 / (q - 1.0)))
            a = cc - rest
        else:
            k = np.log(q * tt / p) + (q - p) * np.log(cc)
            u = np.where(k > 0.0, k / (q - 1.0), k / (p - 1.0))
            for _ in range(64):  # a safety cap: 1 to 9 steps, about 5, are taken
                h = (q - p) * np.logaddexp(0.0, u) + (p - 1.0) * u - k
                step = h / ((q - p) * expit(u) + (p - 1.0))
                u = u - step
                if step.max(initial=0.0) <= 1e-15 * (1.0 + np.abs(u).max(initial=0.0)):
                    break
            a, rest = cc * expit(u), cc * expit(-u)
        block = np.ix_(rows, cols)
        out[block] = np.minimum(out[block], a**p + tt * rest**q)
    return out


def l_functional_grid(ts, x: SampleFunction, p: float, q: float) -> np.ndarray:
    """K_{p,q}(t, x; L^p, L^q) for every t in ts, within ~1e-15 relative per atom."""
    _check_exponent(p)
    _check_exponent(q, "q")
    if not p < q:
        raise ValueError("need p < q")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    c = x.abs_values()
    per_atom = _pointwise_min_split(c, ts, p, q)
    return per_atom.dot(x.space.weights)


def l_functional(t: float, x: SampleFunction, p: float, q: float) -> KEvaluation:
    """L-functional of (L^p, L^q) at one parameter, by pointwise splits."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    value = float(l_functional_grid(np.array([t]), x, p, q)[0])
    return KEvaluation(float(t), value, "pointwise")


def l_star_grid(ts, x: SampleFunction, p: float, q: float) -> np.ndarray:
    """Modified L-functional: weighted sum of min(|x|^p, t |x|^q)."""
    _check_exponent(p)
    _check_exponent(q, "q")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    c = x.abs_values()
    vals = np.minimum(c[None, :] ** p, ts[:, None] * c[None, :] ** q)
    return vals.dot(x.space.weights)


def l_star_functional(t: float, x: SampleFunction, p: float, q: float) -> float:
    if t <= 0.0:
        raise ValueError("t must be positive")
    return float(l_star_grid(np.array([t]), x, p, q)[0])


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
    for ci_signed, wi in zip(x.values, x.space.weights):
        ci = abs(float(ci_signed))
        s = np.linspace(-2.0 * ci, 2.0 * ci, n) if ci > 0.0 else np.zeros(1)
        per_atom.append(wi * (np.abs(s) ** p + t * np.abs(ci_signed - s) ** q))
    total = per_atom[0]
    for arr in per_atom[1:]:
        total = total[..., None] + arr
    return float(total.min())
