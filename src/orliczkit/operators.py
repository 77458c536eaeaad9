"""Test operators with analytically certified norm bounds.

Every operator carries certified upper bounds on its L^p -> L^p and
L^q -> L^q norms for a declared exponent couple. Certificates come only
from composition rules that are provable at desk scale: multipliers are
exact, doubly substochastic matrices interpolate between their row and
column sums, and a pointwise max of operators sums certificates in the
r-th power. The sliding-window maximal operator therefore ships with a
deliberately conservative certificate.

`CertifiedOperator.apply` takes one `SampleFunction` or a whole
`SampleBatch`; either way the operator's kernel maps a (rows x n) array to a
(rows x n) array in one call. The window maximal kernel is a divide and
conquer over window midpoints: a window of two or more atoms crosses the
midpoint of exactly one dyadic block, so each block level takes the means
of all its crossing windows in one array, whose row and column maxima,
accumulated from the midpoint outwards, feed the atoms on either side. The
rows go through in chunks that keep that array within `_CHUNK_ELEMS`
elements. When the rows need more than one chunk at the top block level,
they are cut into contiguous groups, one per usable CPU but no more than
that chunk's rows, each run on its own thread with its share of that budget
in buffers the caller allocates; every row takes the same arithmetic either
way, so the result is bitwise the same.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measure import DiscreteMeasureSpace, SampleBatch, SampleFunction
from .orlicz import ExponentCouple

KIND_LINEAR = "linear"
KIND_SUBLINEAR = "sublinear"
KIND_SUBADDITIVE = "subadditive"


@dataclass(frozen=True)
class CertifiedOperator:
    """Operator on sample functions with certified couple norm bounds."""

    space: DiscreteMeasureSpace
    kind: str
    couple: ExponentCouple
    bound_p: float
    bound_q: float
    # the kernel: one row of values per member in, one row of Tx per member out
    _apply: Callable[[np.ndarray], np.ndarray]

    @property
    def max_bound(self) -> float:
        return max(self.bound_p, self.bound_q)

    def apply(self, x: SampleFunction | SampleBatch) -> SampleFunction | SampleBatch:
        """Tx of one sample function, or the batch of Tx over a batch's members."""
        if x.space is not self.space and not np.array_equal(x.space.weights, self.space.weights):
            raise ValueError("operator and input live on different spaces")
        if isinstance(x, SampleBatch):
            return SampleBatch(x.space, self._apply(x.values))
        return SampleFunction(x.space, self._apply(x.values[None, :])[0])


def _interp_bound(max_row: float, max_col: float, r: float) -> float:
    if math.isinf(r):
        return max_row
    return max_col ** (1.0 / r) * max_row ** (1.0 - 1.0 / r)


def _require_uniform(space: DiscreteMeasureSpace) -> None:
    if not np.allclose(space.weights, space.weights[0], rtol=1e-12, atol=0.0):
        raise ValueError("matrix certificates require uniform atom weights")


def contractive_matrix(space: DiscreteMeasureSpace, matrix, couple: ExponentCouple) -> CertifiedOperator:
    """Linear operator from a matrix with row and column l1 sums at most 1.

    On uniform weights those sums bound the L^1 and L^inf norms, and the
    interpolated bound max_col^{1/r} * max_row^{1-1/r} certifies every
    intermediate exponent.
    """
    _require_uniform(space)
    a = np.asarray(matrix, dtype=float)
    if a.shape != (space.n, space.n):
        raise ValueError("matrix shape must match the atom count")
    max_row = float(np.abs(a).sum(axis=1).max())
    max_col = float(np.abs(a).sum(axis=0).max())
    if max_row > 1.0 + 1e-12 or max_col > 1.0 + 1e-12:
        raise ValueError(f"row or column l1 sum exceeds 1 (row {max_row:.6g}, col {max_col:.6g})")
    a = a.copy()
    a.flags.writeable = False
    return CertifiedOperator(
        space, KIND_LINEAR, couple,
        _interp_bound(max_row, max_col, couple.p),
        _interp_bound(max_row, max_col, couple.q),
        # one stacked matrix-vector product per row gives a.dot(row) bitwise; v @ a.T does not
        lambda v: np.matmul(a, v[:, :, None])[:, :, 0],
    )


def multiplier(space: DiscreteMeasureSpace, m, couple: ExponentCouple) -> CertifiedOperator:
    """Atomwise multiplication by m with |m_i| <= 1; exact bound max |m_i|."""
    mv = np.asarray(m, dtype=float).copy()
    if mv.shape != (space.n,):
        raise ValueError("multiplier length must match the atom count")
    peak = float(np.abs(mv).max())
    if peak > 1.0 + 1e-12:
        raise ValueError("multiplier entries must satisfy |m_i| <= 1")
    mv.flags.writeable = False
    return CertifiedOperator(
        space, KIND_LINEAR, couple, peak, peak,
        lambda v: mv * v,
    )


def identity_operator(space: DiscreteMeasureSpace, couple: ExponentCouple) -> CertifiedOperator:
    return multiplier(space, np.ones(space.n), couple)


def averaging_operator(space: DiscreteMeasureSpace, couple: ExponentCouple) -> CertifiedOperator:
    """Full average: all matrix entries 1/n (doubly stochastic)."""
    n = space.n
    return contractive_matrix(space, np.full((n, n), 1.0 / n), couple)


def max_of(ops: Sequence[CertifiedOperator]) -> CertifiedOperator:
    """Pointwise maximum of |T_j x|: subadditive, sublinear if all linear.

    Certified bound for finite r is the l^r sum of member certificates;
    for r = inf it is their maximum.
    """
    if not ops:
        raise ValueError("need at least one operator")
    first = ops[0]
    for op in ops[1:]:
        if op.space is not first.space and not np.array_equal(op.space.weights, first.space.weights):
            raise ValueError("operators live on different spaces")
        if op.couple != first.couple:
            raise ValueError("operators certify different couples")
    applies = [op._apply for op in ops]

    def combine(bounds: list[float], r: float) -> float:
        if math.isinf(r):
            return max(bounds)
        return float(sum(b**r for b in bounds)) ** (1.0 / r)

    kind = KIND_SUBLINEAR if all(op.kind in (KIND_LINEAR, KIND_SUBLINEAR) for op in ops) else KIND_SUBADDITIVE
    return CertifiedOperator(
        first.space, kind, first.couple,
        combine([op.bound_p for op in ops], first.couple.p),
        combine([op.bound_q for op in ops], first.couple.q),
        lambda v: np.max(np.abs(np.stack([ap(v) for ap in applies])), axis=0),
    )


# elements of the window maximal's crossing means at once, shared among its
# threads (2 MB)
_CHUNK_ELEMS = 1 << 18


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _group_plan(size: int, budget: int, rows: int) -> tuple[list[tuple[int, int]], tuple]:
    """(block size s, rows per chunk) for s = 2, 4, ..., N, and the work
    arrays that every chunk of every level shares: the crossing means, and
    their row and column maxima. Block size s holds (N / s) (s / 2)^2 = N s / 4
    crossing means per row, taken `step` rows at a time within the budget
    (one row at least, which may exceed it)."""
    levels = [(s, max(1, min(rows, budget // (size * s // 4))))
              for s in (1 << k for k in range(1, size.bit_length()))]
    means = max((step * size * s // 4 for s, step in levels), default=0)
    maxima = max((step * size // 2 for _, step in levels), default=0)
    return levels, (np.empty(means), np.empty(maxima), np.empty(maxima))


def _level_loop(prefix: np.ndarray, out: np.ndarray, lengths: np.ndarray,
                levels: list[tuple[int, int]], work: tuple) -> None:
    """Fold every block level's crossing means of these rows into out, in
    place, writing nothing but out and the work arrays."""
    size = out.shape[1]
    buffer, row_buffer, col_buffer = work
    for s, step in levels:
        half, blocks = s // 2, size // s
        # b - a for start a in the left half and end b - 1 in the right half
        level_lengths = lengths[len(lengths) - half :, :half]
        for lo in range(0, len(out), step):
            chunk = prefix[lo : lo + step]
            count = len(chunk)
            starts = chunk[:, :-1].reshape(count, blocks, s)[:, :, :half]
            ends = chunk[:, 1:].reshape(count, blocks, s)[:, :, half:]
            means = buffer[: count * size * s // 4].reshape(count, blocks, half, half)
            means[...] = ends[:, :, None, :]
            means -= starts[:, :, :, None]
            means /= level_lengths
            # the row maxima accumulated from the left, the column maxima
            # from the right
            left = row_buffer[: count * size // 2].reshape(count, blocks, half)
            right = col_buffer[: count * size // 2].reshape(count, blocks, half)
            np.maximum.reduce(means, axis=3, out=left)
            np.maximum.reduce(means, axis=2, out=right)
            np.maximum.accumulate(left, axis=2, out=left)
            np.maximum.accumulate(right[:, :, ::-1], axis=2, out=right[:, :, ::-1])
            best = out[lo : lo + step].reshape(count, blocks, s)
            np.maximum(best[:, :, :half], left, out=best[:, :, :half])
            np.maximum(best[:, :, half:], right, out=best[:, :, half:])


def _window_maximal(v: np.ndarray) -> np.ndarray:
    """Each row's largest mean of |v| over a window holding each atom.

    P is the prefix sum of |v| along the row, padded by repeating P[n] to a
    power-of-two length N, so a window [a, b) has the mean
    (P[b] - P[a]) / (b - a), the same float as from the unpadded sums. A
    window that reaches into the padding covers the real atoms of [a, n)
    and has a mean no larger than that window's, so it changes no real
    atom's maximum. Single atoms seed the result. Then for each block size
    s = 2, 4, ..., N, the windows that start in a block's left half and end
    in its right half give the atom a in the left half the running maximum
    over starts up to a of the row maxima, and the atom b - 1 in the right
    half the running maximum over ends from b of the column maxima.

    Rows that need more than one chunk at the top level are cut into
    contiguous groups, one per usable CPU but at most one per row of a
    top-level chunk, and each group's level loop runs on its own thread with
    an equal share of the budget, which still holds a top-level row. So a
    split never takes more memory than one thread would, and rows whose
    top-level chunk holds just one (n > 512) never split. Every row's
    arithmetic is the same either way, so the result is bitwise the same.
    """
    rows, n = v.shape
    size = 1 << (n - 1).bit_length()
    top_step = max(1, _CHUNK_ELEMS // max(1, size * size // 4))
    # at most top_step groups, so that each group's share of the budget still
    # holds a whole top-level row and their buffers together stay within it
    groups = min(_usable_cpus(), top_step) if rows > top_step else 1
    # a prefix sum beyond the float range is inf, and inf - inf a nan that
    # carries through to Tx, which a sample batch refuses
    with np.errstate(over="ignore", invalid="ignore"):
        prefix = np.empty((rows, size + 1))
        prefix[:, 0] = 0.0
        np.cumsum(np.abs(v), axis=1, out=prefix[:, 1 : n + 1])
        prefix[:, n + 1 :] = prefix[:, n : n + 1]
        out = prefix[:, 1:] - prefix[:, :-1]
        # half + 1 + j - i at (i, j) for half = N / 2; block size s divides by
        # its bottom-left (s / 2) x (s / 2) corner, which holds s / 2 + 1 + j - i
        half = size // 2
        lengths = np.arange(half + 1, size + 1, dtype=float)[None, :] - np.arange(half)[:, None]
        bounds = [rows * g // groups for g in range(groups + 1)]
        tasks = [(prefix[lo:hi], out[lo:hi], lengths, *_group_plan(size, _CHUNK_ELEMS // groups, hi - lo))
                 for lo, hi in zip(bounds, bounds[1:])]
        if groups == 1:
            # straight to the loop: the error state and thread bookkeeping of
            # _run_threads add 5.5 us to a 62 us call at n = 8 (2-core x86)
            _level_loop(*tasks[0])
        else:
            _run_threads(tasks, np.geterr())
    return out[:, :n]


def _run_threads(tasks: list[tuple], errors: dict) -> None:
    """Run _level_loop on each task under the error state `errors`, the first
    on this thread and each other on a thread of its own started here; the
    first exception raised in any of them is raised here once all have ended.

    Plain threads, not concurrent.futures: that package imports logging,
    which adds 3 ms and 0.7 MB to every import of orliczkit (2-core x86
    machine), whether or not a call ever splits."""
    raised: list[BaseException] = []

    def run(task: tuple) -> None:
        try:
            with np.errstate(**errors):
                _level_loop(*task)
        except BaseException as exc:  # handed to the calling thread
            raised.append(exc)

    threads = [threading.Thread(target=run, args=(task,)) for task in tasks[1:]]
    for thread in threads:
        thread.start()
    run(tasks[0])
    for thread in threads:
        thread.join()
    if raised:
        raise raised[0]


def discrete_maximal(space: DiscreteMeasureSpace, couple: ExponentCouple) -> CertifiedOperator:
    """Sliding-window maximal operator over all contiguous atom intervals.

    (Tx)_i is the largest average of |x| over a window containing i. This is
    the pointwise max of the window averaging matrices applied to |x|, so it
    inherits the max_of certificate: each window matrix is a contraction on
    every exponent, leaving W^{1/r} with W = n(n+1)/2 windows for finite r
    and exactly 1 for r = inf. The apply path (`_window_maximal`) never
    builds the W matrices: it takes every window mean from prefix sums, by
    a divide and conquer over window midpoints, in about n^2 / 2 array
    operations per row and in row chunks of at most `_CHUNK_ELEMS` elements.
    Rows beyond one chunk of the top block level are split into one group
    per usable CPU, up to that chunk's row count (4 at n = 512, 1 above),
    each on its own thread within the same budget; the output is bitwise the
    output on one CPU.
    """
    _require_uniform(space)
    n = space.n
    windows = n * (n + 1) // 2

    def bound(r: float) -> float:
        return 1.0 if math.isinf(r) else windows ** (1.0 / r)

    return CertifiedOperator(
        space, KIND_SUBLINEAR, couple, bound(couple.p), bound(couple.q),
        _window_maximal,
    )

