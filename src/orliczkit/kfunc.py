"""K- and L-functionals for couples of Lebesgue spaces on discrete measures.

For (L^p, L^inf) the K-functional reduces to a convex truncation search with
kinks at the magnitudes: a bisection over the sorted kinks finds the interval
holding the minimiser, where it is solved exactly (`k_lp_linf_grid`). For
(L^p, L^q) with both exponents finite the infimum separates into one convex
scalar problem per atom (`_pointwise_min_split`). A signed full-grid brute
force is the independent oracle; it never assumes the reduction it checks.

The grid kernels take one `SampleFunction` (one value per t back) or a
`SampleBatch` on one space (one row per member): a single function is a
batch of one. The kink bisection, the interval Newton solve and the Halley
split run on `liveset.iterate`, so a value does not depend on which t's or
members share the call. The functionals are defined for t > 0 only;
`specs.resolve_scenario` rejects a scenario t-grid that reaches t <= 0.
"""

from __future__ import annotations

import numpy as np

from .liveset import iterate
from .measure import SampleBatch, SampleFunction, abs_rows


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), the formula SciPy's `expit`
    evaluates; exp(-x) overflows to inf below about x = -709, which gives the
    exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _check_exponent(p: float, name: str = "p") -> None:
    if not (1.0 <= p < np.inf):
        raise ValueError(f"{name} must lie in [1, inf)")


# A row stops once its value is certified within this fraction of itself.
_VALUE_RTOL = 2.0**-56


def _descent_rate(e: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """S_{p-1} S_p^{1/p-1} for each row of e >= 0, with S_r = sum w e^r over
    the atoms with e > 0: the rate -(d/dlam) ||(m - lam)_+||_p at a height lam
    where e = (m - lam)_+ up to a positive scale. The rate is scale-free, so a
    row scaled to max 1 keeps S_p >= min w away from underflow."""
    if p == 1.0:
        return np.sum(w * (e > 0.0), axis=1)
    power = e ** (p - 1.0)
    s_pm1 = np.sum(power * w, axis=1)
    power *= e
    return s_pm1 * np.sum(power * w, axis=1) ** (1.0 / p - 1.0)


def _kink_bracket(m: np.ndarray, kinks: np.ndarray, w: np.ndarray, p: float,
                  row: np.ndarray, t: np.ndarray) -> np.ndarray:
    """For each (member row[i], t[i]), the least kink index J at which the
    truncation objective stops falling: F'(kinks[J]) >= 0, or kinks[J] is
    the sup 1. Members are scaled to sup 1 and kinks hold 0 and the sorted
    magnitudes. By convexity the minimiser lies in [kinks[J-1], kinks[J]],
    or at 0 when J = 0. A bisection on the sign of F' at the kinks: about
    log2(n + 1) passes. A rate depends on its member and kink alone, so each
    pass computes it once per distinct (member, kink) among the open rows
    and reads it back to every t that asks for it."""
    width = m.shape[1] + 1

    def step(row, t, lo, hi):
        mid = (lo + hi) // 2
        key = row * width + mid
        seen = np.zeros(m.shape[0] * width, dtype=bool)
        seen[key] = True
        r, k = np.divmod(np.flatnonzero(seen), width)
        a = kinks[r, k]                                       # < 1, as mid < hi
        e = m[r] - a[:, None]
        np.maximum(e, 0.0, out=e)
        e *= (1.0 / (1.0 - a))[:, None]
        falls = t < _descent_rate(e, w, p)[np.cumsum(seen)[key] - 1]
        lo, hi = np.where(falls, mid + 1, lo), np.where(falls, hi, mid)
        return lo >= hi, (lo,), (row, t, lo, hi)

    hi = (width - np.sum(m == 1.0, axis=1))[row]   # the first kink at the sup
    return iterate("k_kinks", step, (row, t, np.zeros(row.size, dtype=np.intp), hi))[0]


def _power_sum(d: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    return np.sum(np.maximum(d, 0.0) ** p * w, axis=1)


def _quadratic_interval(d, w, t, a, b, inner):
    """Least of F(a), F(b) and the stationary point at p = 2 (rows with
    `inner` set have a descent at a, so t^2 < W). With s = b - lam and the
    sums shifted to b (W = sum w, S1 = sum w d, D2 = sum w d^2 over the
    atoms with d >= 0), rem(s) = D2 + 2 s S1 + s^2 W has no cancelling
    terms, and F'(s) = 0 at s* = (t^2 D2 - S1^2) / ((W - t^2)(u + S1)),
    u = t sqrt((W D2 - S1^2) / (W - t^2))."""
    active = d >= 0.0
    dp = np.where(active, d, 0.0)
    big_w = np.sum(active * w, axis=1)
    s1 = np.sum(dp * w, axis=1)
    d2 = np.sum(dp * dp * w, axis=1)
    span = b - a
    value = np.minimum(np.sqrt(d2) + t * b, np.sqrt(d2 + span * (2.0 * s1 + span * big_w)) + t * a)
    big_w, s1, d2, span, ti = big_w[inner], s1[inner], d2[inner], span[inner], t[inner]
    room = big_w - ti * ti
    u = ti * np.sqrt(np.divide(np.maximum(big_w * d2 - s1 * s1, 0.0), room,
                               out=np.zeros_like(room), where=room > 0.0))
    den = room * (u + s1)
    s = np.divide(ti * ti * d2 - s1 * s1, den, out=np.zeros_like(den), where=den > 0.0)
    s = np.clip(s, 0.0, span)
    value[inner] = np.minimum(value[inner],
                              np.sqrt(d2 + s * (2.0 * s1 + s * big_w)) + ti * (b[inner] - s))
    return value


def _interval_state(d: np.ndarray, w: np.ndarray, p: float, t: np.ndarray,
                    b: np.ndarray, s: np.ndarray):
    """F, F' and F'' in s = b - lam at one point per row, for p > 1 and rows
    whose atoms above b are not all at b (so d + s has a positive max).
    The sums run on d + s scaled to max 1, so no power under- or overflows
    into the rate; the d + s = 0 atoms drop out of S_{p-2}, which is only
    read at s > 0."""
    e = np.where(d >= 0.0, d + s[:, None], 0.0)
    top = e.max(axis=1)
    e /= top[:, None]
    power = e ** (p - 1.0)
    s_pm1 = np.sum(power * w, axis=1)
    s_pm2 = np.sum(np.divide(power, e, out=np.zeros_like(e), where=e > 0.0) * w, axis=1)
    power *= e
    s_p = np.sum(power * w, axis=1)
    f = top * s_p ** (1.0 / p) + t * (b - s)
    g = s_pm1 * s_p ** (1.0 / p - 1.0) - t
    dg = (p - 1.0) / top * s_p ** (1.0 / p - 2.0) * (s_pm2 * s_p - s_pm1 * s_pm1)
    return f, g, dg


def _tangent_cut(lo, flo, glo, hi, fhi, ghi):
    """Where the tangents of convex F at lo (slope glo < 0) and hi (slope
    ghi > 0) meet, clipped to [lo, hi], and their common value there, a
    lower bound on min F over [lo, hi]."""
    s = np.clip((flo - fhi - glo * lo + ghi * hi) / (ghi - glo), lo, hi)
    return s, flo + glo * (s - lo)


def _newton_interval(d: np.ndarray, w: np.ndarray, p: float, t: np.ndarray,
                     b: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Least F attained on s in [0, span] for each row.

    A bracketed Newton solve of F'(s) = 0 per row. A step that leaves the
    bracket is replaced by the meeting point of the end tangents. A row
    stops when the tangents certify its value to within `_VALUE_RTOL`, or
    when its Newton decrement F'^2 / F'' is that small.
    """
    lo, hi = np.zeros(t.size), span.copy()
    flo, glo, _ = _interval_state(d, w, p, t, b, lo)
    fhi, ghi, _ = _interval_state(d, w, p, t, b, hi)
    best = np.minimum(flo, fhi)
    # a row whose ends do not straddle F' = 0 has its minimum at an end
    live = np.flatnonzero((glo < 0.0) & (ghi > 0.0))
    d, t, b, lo, hi, flo, glo, fhi, ghi = (v[live] for v in (d, t, b, lo, hi, flo, glo, fhi, ghi))

    def step(d, t, b, s, lo, hi, flo, glo, fhi, ghi, best):
        f, g, dg = _interval_state(d, w, p, t, b, s)
        best = np.minimum(best, f)
        left = g < 0.0
        lo, flo, glo = np.where(left, s, lo), np.where(left, f, flo), np.where(left, g, glo)
        hi, fhi, ghi = np.where(left, hi, s), np.where(left, fhi, f), np.where(left, ghi, g)
        newton = s - np.divide(g, dg, out=np.zeros_like(g), where=dg > 0.0)
        inside = (dg > 0.0) & (lo < newton) & (newton < hi)
        cut, floor = _tangent_cut(lo, flo, glo, hi, fhi, ghi)
        tol = _VALUE_RTOL * best
        done = (g == 0.0) | (np.minimum(flo, fhi) - floor <= tol) | (inside & (g * g <= tol * dg))
        s = np.where(inside, newton, cut)
        return done, (best,), (d, t, b, s, lo, hi, flo, glo, fhi, ghi, best)

    s, _ = _tangent_cut(lo, flo, glo, hi, fhi, ghi)
    best[live] = iterate("k_newton", step, (d, t, b, s, lo, hi, flo, glo, fhi, ghi, best[live]))[0]
    return best


def k_lp_linf_grid(ts, x: SampleFunction | SampleBatch, p: float) -> np.ndarray:
    """K(t, x; L^p, L^inf) for every t in ts (and every member of a batch),
    via the truncation reduction, exactly.

    K(t, x) = min over 0 <= lam <= sup|x| of F(lam) = ||(|x| - lam)_+||_p +
    t lam. F is convex with kinks only at the magnitudes, so `_kink_bracket`
    finds, for every (member, t) row at once, the one kink interval [a, b]
    where F' changes sign. Inside it the atoms above the truncation are
    fixed: at p = 1 F is linear there, at p = 2 its minimum has a closed
    form (`_quadratic_interval`), and any other p takes a bracketed Newton
    solve (`_newton_interval`). The value is min(F(a), F(b), F(lam*)), so
    it is attained: an upper bound on the infimum within roundoff of it.
    Each member is scaled to sup 1 before any power sum and its values are
    scaled back after, so K is positively homogeneous at any finite scale.
    """
    _check_exponent(p)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    mags, single = abs_rows(x)
    w = x.space.weights
    sup = mags.max(axis=1, initial=0.0)
    out = np.zeros((mags.shape[0], ts.size))
    members = np.flatnonzero(sup > 0.0)   # a zero member has K = 0
    m = mags[members] / sup[members, None]
    kinks = np.hstack((np.zeros((members.size, 1)), np.sort(m, axis=1)))
    row, t = np.repeat(np.arange(members.size), ts.size), np.tile(ts, members.size)
    with np.errstate(under="ignore"):   # powers of tiny scaled magnitudes
        j = _kink_bracket(m, kinks, w, p, row, t)
        a, b = kinks[row, np.maximum(j - 1, 0)], kinks[row, j]
        d = m[row] - b[:, None]           # the atoms above the interval have d >= 0
        if p == 1.0:
            above = d >= 0.0
            rest = np.sum(np.where(above, d, 0.0) * w, axis=1)
            value = rest + np.minimum(t * b, (b - a) * np.sum(above * w, axis=1) + t * a)
        elif p == 2.0:
            value = _quadratic_interval(d, w, t, a, b, j > 0)
        else:
            value = np.minimum(_power_sum(d, w, p) ** (1.0 / p) + t * b,
                               _power_sum(d + (b - a)[:, None], w, p) ** (1.0 / p) + t * a)
            solve = np.flatnonzero((j > 0) & (b < 1.0))   # not all atoms above at b
            inner = _newton_interval(d[solve], w, p, t[solve], b[solve], (b - a)[solve])
            value[solve] = np.minimum(value[solve], inner)
    out[members] = sup[members, None] * value.reshape(members.size, ts.size)
    return out[0] if single else out


# A split element stops once its predicted next step is below this fraction
# of 1 + |u|; `_pointwise_min_split` says why that certifies its value.
_SPLIT_STEP = 1e-9


def _split_step(u: np.ndarray, k: np.ndarray, p: float, q: float):
    """The Halley step for h(u) = (q-p) softplus(u) + (p-1) u - k = 0, at
    most twice the Newton step, and the size of the step after it that
    Halley's cubic rate predicts: |c2^2 - c3| |step|^3, with c2 = h''/(2h')
    and c3 = h'''/(6h'). softplus(u) and s = sigmoid(u) are both read off
    exp(-|u|); h'' = (q-p) s(1-s) and h''' = h''(1-2s) cost a few products."""
    e = np.exp(-np.abs(u))
    sig = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
    h = (q - p) * (np.maximum(u, 0.0) + np.log1p(e)) + (p - 1.0) * u - k
    dh = (q - p) * sig + (p - 1.0)
    c2 = 0.5 * (q - p) * sig * (1.0 - sig) / dh
    newton = h / dh
    step = newton / np.maximum(1.0 - newton * c2, 0.5)
    c3 = c2 * (1.0 - 2.0 * sig) / 3.0
    return step, np.abs(c2 * c2 - c3) * np.abs(step) ** 3


def _pointwise_min_split(c: np.ndarray, ts: np.ndarray, p: float, q: float) -> np.ndarray:
    """min over a in [0, c] of a^p + t*(c-a)^q, for each t and each atom of c.

    c holds atoms on its last axis, with any leading axes (one per member);
    the result has shape c.shape[:-1] + (t's, atoms).
    At p = 1 the minimizer is c - a = (tq)^{-1/(q-1)}, clipped to [0, c].
    For p > 1, u = logit(a/c) solves h(u) = 0, with h(u) = (q-p) softplus(u)
    + (p-1) u - K and K = log(tq/p) + (q-p) log c: h is increasing and
    convex, with h' in [p-1, q-1], and Halley steps (`_split_step`) start
    from the larger root of its asymptotes (p-1)u - K and (q-1)u - K. An
    element stops once the step after the one it has taken is predicted
    below `_SPLIT_STEP` (1 + |u|), that is, once u is about that close to
    the root: 1 to 3 passes at the shipped couples. That u is close enough
    for the value: V(u) = a^p + t (c-a)^q is stationary at the root, with
    V''/V <= q(q-1) s(1-s), s = sigmoid(u), and (1 + |u|)^2 s(1-s) < 0.96,
    so an error of 1e-9 (1 + |u|) in u moves V by at most 0.48 q(q-1) 1e-18
    relative: 3e-18 at (1.5, 3), 1.8e-16 at (1.2, 20). a = c sigmoid(u) and
    c - a = c sigmoid(-u) avoid cancellation at a ~ c. Keeping the
    candidates a = 0 and a = c makes every value an attained upper bound;
    atoms with c = 0 and t <= 0 get only those (no log(0) is taken).
    Underflow is benign, and so is overflow: an infinite candidate loses to
    a finite one, and where all are infinite the minimum itself is beyond
    the float range.
    """
    c = np.asarray(c, dtype=float)[..., None, :]
    tb = ts[:, None]
    with np.errstate(under="ignore", over="ignore"):
        out = np.minimum(tb * c**q, c**p)
        # every element is solved, those with c = 0 or t <= 0 at c = t = 1,
        # and only the others take the solve's value
        inner = (tb > 0.0) & (c > 0.0)
        c, tb = np.where(c > 0.0, c, 1.0), np.where(tb > 0.0, tb, 1.0)
        if p == 1.0:
            # an infinite (tq)^{-1/(q-1)} clips to c
            rest = np.minimum(c, (q * tb) ** (-1.0 / (q - 1.0)))
            a = c - rest
        else:
            k = (np.log(q * tb / p) + (q - p) * np.log(c)).ravel()
            u = np.where(k > 0.0, k / (q - 1.0), k / (p - 1.0))

            def step(u, k):
                du, after = _split_step(u, k, p, q)
                u = u - du
                return ~(after > _SPLIT_STEP * (1.0 + np.abs(u))), (u,), (u, k)

            u = iterate("l_split", step, (u, k))[0]
            u = u.reshape(out.shape)
            a, rest = c * _expit(u), c * _expit(-u)
        np.minimum(out, a**p + tb * rest**q, out=out, where=inner)
    return out


def l_functional_grid(ts, x: SampleFunction | SampleBatch, p: float, q: float) -> np.ndarray:
    """K_{p,q}(t, x; L^p, L^q) for every t in ts (and every member of a
    batch), within ~1e-15 relative per atom; see `_pointwise_min_split`."""
    _check_exponent(p)
    _check_exponent(q, "q")
    if not p < q:
        raise ValueError("need p < q")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    c, single = abs_rows(x)
    split = _pointwise_min_split(c, ts, p, q)
    with np.errstate(over="ignore"):   # a sum beyond the float range is inf
        out = np.sum(split * x.space.weights, axis=-1)
    return out[0] if single else out


def l_star_grid(ts, x: SampleFunction | SampleBatch, p: float, q: float) -> np.ndarray:
    """Modified L-functional: weighted sum of min(|x|^p, t |x|^q), for every
    t in ts (and every member of a batch)."""
    _check_exponent(p)
    _check_exponent(q, "q")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    c, single = abs_rows(x)
    c = c[:, None, :]
    with np.errstate(over="ignore"):   # an infinite t c^q loses to c^p, as in the L split
        out = np.sum(np.minimum(c**p, ts[:, None] * c**q) * x.space.weights, axis=-1)
    return out[0] if single else out


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
