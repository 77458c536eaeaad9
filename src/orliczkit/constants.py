"""Sparr constants and the interpolation-constant formulas built on them.

gamma(p, q) is the smallest gamma such that the two-piece cost
inf_{x+y=gamma, x,y>=0} (x^p + y^q) reaches 1, found by one bisection on
the stationarity constraint, which is strictly increasing in x. The
interpolation constants for subadditive, concave-h, and linear settings are
arithmetic on gamma with their proven envelope bounds asserted.
"""

from __future__ import annotations

import functools

import numpy as np

# sparr_gamma takes p and q in [1, GAMMA_MAX]
GAMMA_MAX = 64.0


def _bisect(fn, lo: float, hi: float, xtol: float) -> float:
    flo = fn(lo)
    if flo == 0.0:
        return lo
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gamma_closed_diagonal(q: float) -> float:
    return 2.0 ** (1.0 - 1.0 / q)


def _gamma_closed_one_q(q: float) -> float:
    return 1.0 + q ** (1.0 / (1.0 - q)) - q ** (q / (1.0 - q))


@functools.lru_cache(maxsize=64)
def sparr_gamma(p: float, q: float) -> float:
    """Sharp constant via the stationarity characterization, bisected once
    per couple: the last 64 (p, q) are cached.

    gamma is symmetric, so p > q returns gamma(q, p), from the cache once
    either order has run. For p <= q the optimum ties y to x by
    p*x^{p-1} = q*y^{q-1}, and gamma = x + y at the root of
    c(x) = x^p + ((p/q) x^{p-1})^{q/(q-1)} - 1. Both terms of c increase in x
    (the first strictly), c(0+) < 0 and c(1) = (p/q)^{q/(q-1)} > 0, so one
    bisection on [0, 1] finds its only root. Closed forms on the diagonal
    and at p = 1 are cross-checked.
    """
    if not (1.0 <= p <= GAMMA_MAX and 1.0 <= q <= GAMMA_MAX):
        raise ValueError(f"p and q must lie in [1, {GAMMA_MAX:g}]")
    if p > q:
        return sparr_gamma(q, p)
    if q == 1.0:
        return 1.0

    def constraint(x: float) -> float:
        return x**p + ((p / q) * x ** (p - 1.0)) ** (q / (q - 1.0)) - 1.0

    x = _bisect(constraint, 0.0, 1.0, 1e-13)
    value = x + ((p / q) * x ** (p - 1.0)) ** (1.0 / (q - 1.0))

    if abs(p - q) < 1e-12:
        closed = _gamma_closed_diagonal(q)
        if abs(value - closed) > 1e-9:
            raise RuntimeError(f"diagonal closed form mismatch: {value} vs {closed}")
        value = closed
    elif p == 1.0:
        closed = _gamma_closed_one_q(q)
        if abs(value - closed) > 1e-9:
            raise RuntimeError(f"p=1 closed form mismatch: {value} vs {closed}")
        value = closed
    if not 1.0 - 1e-12 <= value < 2.0:
        raise ValueError(f"gamma out of [1, 2): {value}")
    return float(value)


def interp_constant_subadditive(p: float, q: float) -> float:
    """(2 gamma)^{1/p}, the norm constant for subadditive interpolation."""
    if not (1.0 <= p < q < np.inf):
        raise ValueError("need 1 <= p < q < inf")
    c = (2.0 * sparr_gamma(p, q)) ** (1.0 / p)
    envelope = 2.0 ** ((2.0 - 1.0 / q) / p)
    if c > envelope * (1.0 + 1e-12) or not c < 4.0:
        raise RuntimeError(f"constant {c} escaped its envelope {envelope}")
    return c


def interp_constant_concave_h(p: float, q: float) -> float:
    """gamma^{1/p}, the improved constant when phi has the concave-h form."""
    if not (1.0 <= p < q < np.inf):
        raise ValueError("need 1 <= p < q < inf")
    c = sparr_gamma(p, q) ** (1.0 / p)
    q_conj = q / (q - 1.0)
    envelope = 2.0 ** (1.0 / (q_conj * p))
    if c > envelope * (1.0 + 1e-12) or not c < 2.0:
        raise RuntimeError(f"constant {c} escaped its envelope {envelope}")
    return c


def interp_constant_linear(p: float, q: float) -> float:
    """Duality-improved constant for linear operators, 1 < p < q < inf."""
    if not (1.0 < p < q < np.inf):
        raise ValueError("need 1 < p < q < inf")
    p_conj = conjugate_exponent(p)
    q_conj = conjugate_exponent(q)
    branch_direct = (2.0 * sparr_gamma(p, q)) ** (1.0 / p)
    branch_dual = (2.0 * sparr_gamma(q_conj, p_conj)) ** (1.0 / q_conj)
    c = min(branch_direct, branch_dual)
    envelope = 2.0 ** (1.0 / (p * q_conj) + min(1.0 / p, 1.0 / q_conj))
    if c > envelope * (1.0 + 1e-12) or not c < 4.0:
        raise RuntimeError(f"constant {c} escaped its envelope {envelope}")
    if (q <= 2.0 or p >= 2.0) and not c < 2.0:
        raise RuntimeError(f"constant {c} should be < 2 for this exponent range")
    return c


def bergh_constant(p: float) -> float:
    """Sharp upper factor 2^{1-1/p} in the truncation comparison."""
    if not 1.0 <= p < np.inf:
        raise ValueError("p must lie in [1, inf)")
    return 2.0 ** (1.0 - 1.0 / p)


def conjugate_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; an involution on (1, inf)."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    return p / (p - 1.0)


# source of a norm constant (`specs.THEOREMS` names one per norm tag) -> C(p, q)
# in ||T||_phi <= C * max(||T||_p, ||T||_q)
NORM_CONSTANTS = {
    "lp_linf": lambda p, q: bergh_constant(p),
    "subadditive": interp_constant_subadditive,
    "concave_h": interp_constant_concave_h,
    "linear": interp_constant_linear,
}
