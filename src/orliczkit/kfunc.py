"""K- and L-functionals for couples of Lebesgue spaces on discrete measures.

For (L^p, L^inf) the K-functional reduces to a convex truncation search with
kinks at the magnitudes: a bisection over the sorted kinks finds the interval
holding the minimiser, where it is solved exactly (`k_lp_linf_grid`). For
(L^p, L^q) with both exponents finite the infimum separates into one convex
scalar problem per atom (`_pointwise_min_split`).

The grid kernels take a `SampleBatch` on one space and return one row per
member, one value per t. The kink bisection, the interval Newton solve and
the Halley split run on `liveset.iterate`, so a value does not depend on
which t's or members share the call.

Each kernel works through its (member, t) rows in blocks (`_grid_blocks`)
of a bounded number of rows x atoms, all three in one block loop
(`_in_blocks`), so a caller can stack the two sides of a check into one
call (`verify._stack`) and pay the call's fixed cost once without
enlarging any temporary. A block's temporaries are a few float arrays of
its size. Its time per element rises once they outgrow the caches, and a
float array of 64 KiB or more lets glibc's free trim the heap, so that the
next call faults the pages back in. So K takes its sums once per distinct
(member, kink) and the L split overwrites its arrays in place, to keep few
such arrays alive at once.

Each kernel takes t >= 0 and finite, and raises `ValueError` for any other
t: a negative t would give negative values, and an infinite one nan. At
t = 0 each functional is 0. The t-grids of `verify` are fixed and positive,
and `specs.parse_range` rejects a `kfunc --t-grid` sweep that reaches
t <= 0.
"""

from __future__ import annotations

import numpy as np

from .liveset import iterate
from .measure import SampleBatch, row_chunks, sup_scaled


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), the formula SciPy's `expit`
    evaluates; exp(-x) overflows to inf below about x = -709, which gives the
    exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


# The largest exponents at which the kernels' values are certified to within
# verify.VIOLATION_REL = 1e-9 relative; specs rejects a prop22 couple beyond
# them. K (q = inf): its rates and interval states raise atoms scaled to max 1
# to the power p, the top one 1 to within the rounding of (1 - a) * 1/(1 - a),
# and (1 - 2^-52)^p stays a normal float up to p = 1022 ln 2 * 2^52 ~ 3.2e18;
# beyond about twice that it is 0, and the rate divides by zero. L (finite
# q): a split element's stop moves its value by at most 0.48 q(q-1) 1e-18
# relative (`_pointwise_min_split`), which reaches 1e-9 near q = 4.56e4.
K_P_MAX = 1e18
L_Q_MAX = 4.5e4


def _check_exponent(p: float, name: str = "p") -> None:
    if not (1.0 <= p < np.inf):
        raise ValueError(f"{name} must lie in [1, inf)")


def _t_grid(ts) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all((ts >= 0.0) & (ts < np.inf)):   # nan fails both
        raise ValueError("every t must be finite and >= 0")
    return ts


# Elements (rows x atoms) per block, from interleaved per-element cost curves
# (ROADMAP aim 1). K takes runs of whole members up to 2^17 elements: its
# time per element is flat from 2^16 to 2^18, and at n = 512 a run of one
# member (10,240 elements) costs 3x. L and L* take runs of whole members up
# to 6 x 2^10 elements, so that each float temporary (48 KiB) stays under
# the 64 KiB at which glibc's free may trim the heap: a sparr report at
# n = 8 then faults in no pages, where runs of 2^14 or 2^15 elements fault
# in 40-220 per report. A member whose t-grid alone is larger is one block
# up to 2^15 elements (its 64 t's at n = 512): L's time per element there is
# least at 2^14-2^15, and a split member pays a block's fixed cost per piece.
_K_ELEMS = 2**17
_L_RUN_ELEMS = 6 * 2**10
_L_SPLIT_ELEMS = 2**15


def _grid_blocks(members: int, t_count: int, n: int, runs: int,
                 split: int) -> list[tuple[slice, slice]]:
    """(member, t) blocks that cover a kernel's members x t_count rows of n
    atoms each (`row_chunks`): balanced runs of whole members within `runs`
    elements (a run holds at least one member) while one member's t-grid is
    within `split`, and each member's t-grid cut into balanced runs within
    `split` once it is not. Every value is computed as in one call on all
    rows, since no two rows interact."""
    if t_count * n <= split:
        return [(rows, slice(None)) for rows in row_chunks(members, t_count * n, runs)]
    return [(slice(i, i + 1), cols) for i in range(members) for cols in row_chunks(t_count, n, split)]


def _in_blocks(ts, x: SampleBatch, runs: int, split: int, block, *args):
    """The grid kernels' one block loop: `block(ts, c, weights, *args)`, the
    values at each t of ts for each row c of magnitudes, on every block of
    `_grid_blocks` within `runs` and `split`, as one row per member."""
    ts = _t_grid(ts)
    c = np.abs(x.values)
    out = np.empty((c.shape[0], ts.size))
    for rows, cols in _grid_blocks(c.shape[0], ts.size, c.shape[1], runs, split):
        out[rows, cols] = block(ts[cols], c[rows], x.space.weights, *args)
    return out


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


def _distinct_kinks(row: np.ndarray, k: np.ndarray, kinks: np.ndarray):
    """The distinct (member, kink index) pairs among (row[i], k[i]), in
    order, as arrays r and k, and the index of each i's pair among them."""
    width = kinks.shape[1]
    key = row * width + k
    seen = np.zeros(kinks.size, dtype=bool)
    seen[key] = True
    r, k = np.divmod(np.flatnonzero(seen), width)
    return r, k, np.cumsum(seen)[key] - 1


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

    def step(row, t, lo, hi):
        mid = (lo + hi) // 2
        r, k, back = _distinct_kinks(row, mid, kinks)
        a = kinks[r, k]                                       # < 1, as mid < hi
        e = m[r] - a[:, None]
        np.maximum(e, 0.0, out=e)
        e *= (1.0 / (1.0 - a))[:, None]
        falls = t < _descent_rate(e, w, p)[back]
        lo, hi = np.where(falls, mid + 1, lo), np.where(falls, hi, mid)
        return lo >= hi, (lo,), (row, t, lo, hi)

    hi = (kinks.shape[1] - np.sum(m == 1.0, axis=1))[row]   # the first kink at the sup
    return iterate("k_kinks", step, (row, t, np.zeros(row.size, dtype=np.intp), hi))[0]


def _norm_above(d: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """||d_+||_p of each row. The sum runs on d_+ scaled to max 1, so its
    top term is w at any p and a term that underflows is below 2^-1074 of
    it; unscaled, the atoms below 2^(-1074/p) (0.23 at p = 500) would all
    sum to 0."""
    top = np.max(d, axis=1, initial=0.0)
    e = np.maximum(d, 0.0) / np.where(top > 0.0, top, 1.0)[:, None]
    return top * np.sum(e**p * w, axis=1) ** (1.0 / p)


def _quadratic_interval(d, w, back, t, a, b, inner):
    """Least of F(a), F(b) and the stationary point at p = 2 (rows with
    `inner` set have a descent at a, so t^2 < W), where row i's atoms are
    row back[i] of d. With s = b - lam and the sums shifted to b (W = sum w,
    S1 = sum w d, D2 = sum w d^2 over the atoms with d >= 0), rem(s) = D2 +
    2 s S1 + s^2 W has no cancelling terms, and F'(s) = 0 at s* = (t^2 D2 -
    S1^2) / ((W - t^2)(u + S1)), u = t sqrt((W D2 - S1^2) / (W - t^2))."""
    active = d >= 0.0
    dp = np.where(active, d, 0.0)
    big_w = np.sum(active * w, axis=1)[back]
    s1 = np.sum(dp * w, axis=1)[back]
    d2 = np.sum(dp * dp * w, axis=1)[back]
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


def _k_block(ts: np.ndarray, mags: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """K at every t of ts for each row of magnitudes; see `k_lp_linf_grid`."""
    members, sup, m = sup_scaled(mags)
    out = np.zeros((mags.shape[0], ts.size))   # a zero member has K = 0
    kinks = np.hstack((np.zeros((members.size, 1)), np.sort(m, axis=1)))
    row, t = np.repeat(np.arange(members.size), ts.size), np.tile(ts, members.size)
    with np.errstate(under="ignore"):   # powers of tiny scaled magnitudes
        j = _kink_bracket(m, kinks, w, p, row, t)
        a, b = kinks[row, np.maximum(j - 1, 0)], kinks[row, j]
        # the atoms above a row's interval depend on its member and j alone,
        # so their sums are taken once per distinct pair and read back to
        # each row (back), as the bracket reads back its rates
        r, k, back = _distinct_kinks(row, j, kinks)
        d = m[r] - kinks[r, k][:, None]   # the atoms above the interval have d >= 0
        if p == 1.0:
            above = d >= 0.0
            rest = np.sum(np.where(above, d, 0.0) * w, axis=1)[back]
            value = rest + np.minimum(t * b, (b - a) * np.sum(above * w, axis=1)[back] + t * a)
        elif p == 2.0:
            value = _quadratic_interval(d, w, back, t, a, b, j > 0)
        else:
            span = kinks[r, k] - kinks[r, np.maximum(k - 1, 0)]
            value = np.minimum(_norm_above(d, w, p)[back] + t * b,
                               _norm_above(d + span[:, None], w, p)[back] + t * a)
            solve = np.flatnonzero((j > 0) & (b < 1.0))   # not all atoms above at b
            inner = _newton_interval(d[back[solve]], w, p, t[solve], b[solve], (b - a)[solve])
            value[solve] = np.minimum(value[solve], inner)
    out[members] = sup[:, None] * value.reshape(members.size, ts.size)
    return out


def k_lp_linf_grid(ts, x: SampleBatch, p: float) -> np.ndarray:
    """K(t, x; L^p, L^inf) for every member of x and every t in ts, via the
    truncation reduction, exactly.

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
    The rows run in `_grid_blocks` within `_K_ELEMS` elements.
    """
    _check_exponent(p)
    return _in_blocks(ts, x, _K_ELEMS, _K_ELEMS, _k_block, p)


# A split element stops once its predicted next step is below this fraction
# of 1 + |u|; `_pointwise_min_split` says why that certifies its value.
_SPLIT_STEP = 1e-9


def _split_step(u: np.ndarray, k: np.ndarray, p: float, q: float):
    """The Halley step for h(u) = (q-p) softplus(u) + (p-1) u - k = 0, at
    most twice the Newton step, and the size of the step after it that
    Halley's cubic rate predicts: |c2^2 - c3| |step|^3, with c2 = h''/(2h')
    and c3 = h'''/(6h'). softplus(u) and s = sigmoid(u) are both read off
    exp(-|u|); h'' = (q-p) s(1-s) and h''' = h''(1-2s) cost a few products."""
    # each array is overwritten in place once its value is used, so a pass
    # holds five arrays of the entries' size, not a dozen; every operation
    # and its operands are those of the expression form
    # (`oracles.split_step_expressions`), so the values are bitwise the same
    e = np.abs(u)
    np.exp(np.negative(e, out=e), out=e)
    sig = np.where(u >= 0.0, 1.0, e)
    sig /= 1.0 + e
    h = np.log1p(e, out=e)
    h += np.maximum(u, 0.0)
    h *= q - p
    h += (p - 1.0) * u
    h -= k
    dh = np.multiply(sig, q - p)
    dh += p - 1.0
    c2 = np.multiply(sig, 0.5 * (q - p))
    tmp = np.subtract(1.0, sig)
    c2 *= tmp
    c2 /= dh
    step = np.divide(h, dh, out=h)                      # the Newton step
    np.subtract(1.0, np.multiply(step, c2, out=tmp), out=tmp)
    step /= np.maximum(tmp, 0.5, out=tmp)
    c3 = np.subtract(1.0, np.multiply(sig, 2.0, out=sig), out=sig)
    c3 *= c2
    c3 /= 3.0
    after = np.multiply(c2, c2, out=c2)
    after -= c3
    np.abs(after, out=after)
    after *= np.power(np.abs(step, out=tmp), 3, out=tmp)
    return step, after


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
        # every element is solved, those with c = 0 or t <= 0 at c = t = 1,
        # and only the others take the solve's value. Each array of the
        # elements' size is released once used, and the candidates are
        # formed last, so that few such arrays are alive at once
        c_solve, t_solve = np.where(c > 0.0, c, 1.0), np.where(tb > 0.0, tb, 1.0)
        if p == 1.0:
            # an infinite (tq)^{-1/(q-1)} clips to c
            rest = np.minimum(c_solve, (q * t_solve) ** (-1.0 / (q - 1.0)))
            a = c_solve - rest
        else:
            k = np.log(q * t_solve / p) + (q - p) * np.log(c_solve)
            shape, k = k.shape, k.ravel()
            u = np.where(k > 0.0, k / (q - 1.0), k / (p - 1.0))

            def step(u, k):
                du, after = _split_step(u, k, p, q)
                u = u - du
                return ~(after > _SPLIT_STEP * (1.0 + np.abs(u))), (u,), (u, k)

            u = iterate("l_split", step, (u, k))[0]
            del k
            u = u.reshape(shape)
            a, rest = c_solve * _expit(u), c_solve * _expit(-u)
            del u
        solved = a**p + t_solve * rest**q
        del a, rest
        out = np.minimum(tb * c**q, c**p)
        np.minimum(out, solved, out=out, where=(tb > 0.0) & (c > 0.0))
    return out


def _l_block(ts: np.ndarray, c: np.ndarray, w: np.ndarray, p: float, q: float) -> np.ndarray:
    split = _pointwise_min_split(c, ts, p, q)
    with np.errstate(over="ignore"):   # a sum beyond the float range is inf
        return np.sum(split * w, axis=-1)


def l_functional_grid(ts, x: SampleBatch, p: float, q: float) -> np.ndarray:
    """K_{p,q}(t, x; L^p, L^q) for every member of x and every t in ts,
    within ~1e-15 relative per atom; see `_pointwise_min_split`. The
    rows run in `_grid_blocks` within `_L_RUN_ELEMS` and `_L_SPLIT_ELEMS`."""
    _check_exponent(p)
    _check_exponent(q, "q")
    if not p < q:
        raise ValueError("need p < q")
    return _in_blocks(ts, x, _L_RUN_ELEMS, _L_SPLIT_ELEMS, _l_block, p, q)


def _l_star_block(ts: np.ndarray, c: np.ndarray, w: np.ndarray, p: float, q: float) -> np.ndarray:
    with np.errstate(over="ignore"):   # an infinite t c^q loses to c^p, as in the L split
        cp, cq = c[:, None, :] ** p, c[:, None, :] ** q
        return np.sum(np.minimum(cp, ts[:, None] * cq) * w, axis=-1)


def l_star_grid(ts, x: SampleBatch, p: float, q: float) -> np.ndarray:
    """Modified L-functional: weighted sum of min(|x|^p, t |x|^q), for every
    member of x and every t in ts, in the blocks of `l_functional_grid`."""
    _check_exponent(p)
    _check_exponent(q, "q")
    return _in_blocks(ts, x, _L_RUN_ELEMS, _L_SPLIT_ELEMS, _l_star_block, p, q)
