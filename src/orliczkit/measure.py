"""Finite discrete measure spaces, sample functions, and sample batches.

Everything downstream (modulars, K-functionals, operator verification) runs
on these types. Spaces are finite lists of weighted atoms; a sample batch
holds many functions on one space as one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class NonFiniteError(ValueError):
    """A sample function or batch was given a value that is not finite."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteMeasureSpace:
    """Ordered atoms with strictly positive weights."""

    weights: np.ndarray

    def __init__(self, weights: Sequence[float]):
        w = _frozen_array(weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("every atom weight must be finite and > 0")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size


def uniform_space(n: int) -> DiscreteMeasureSpace:
    """Space of n atoms of weight 1."""
    return DiscreteMeasureSpace(np.ones(n))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Finite values on the atoms of one space, one row per member.

    Every kernel takes a batch and returns one row per member; one function
    is a batch of one (`SampleFunction`).
    """

    space: DiscreteMeasureSpace
    values: np.ndarray

    def __init__(self, space: DiscreteMeasureSpace, values):
        v = _frozen_array(values)
        if v.ndim != 2 or v.shape[1] != space.n:
            raise ValueError("values must have one row per member and one column per atom")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("values must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, rows) -> "SampleBatch":
        """The batch of the members at an index array or slice."""
        return SampleBatch(self.space, self.values[rows])

    def scaled(self, factor: float) -> "SampleBatch":
        """The batch times factor; a value that overflows to inf raises
        `NonFiniteError`, as any value that is not finite does."""
        with np.errstate(over="ignore"):
            return SampleBatch(self.space, self.values * factor)


class SampleFunction(SampleBatch):
    """One function on a space: the batch of one member, whose values are
    one `(1, n)` row."""

    def __init__(self, space: DiscreteMeasureSpace, values: Sequence[float]):
        if np.shape(values) != (space.n,):
            raise ValueError("values length must equal the atom count")
        super().__init__(space, np.reshape(values, (1, -1)))


def sup_scaled(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices of the rows of magnitudes with a positive sup, those
    rows' sups, and those rows divided by their sups. A positively
    homogeneous kernel (K, both norms) computes on the rows at sup 1 and
    multiplies its values back by the sup, so its iterates are the same at
    any scale, and so are the verdicts of the checks that read it; a zero
    row has the value 0 and takes no part."""
    sup = mags.max(axis=1, initial=0.0)
    rows = np.flatnonzero(sup > 0.0)
    return rows, sup[rows], mags[rows] / sup[rows, None]


def row_chunks(rows: int, width: int, budget: int) -> list[slice]:
    """The fewest runs of consecutive rows, of `width` elements each, that
    keep each run within `budget` elements (a run holds at least one row),
    balanced so that their lengths differ by at most one; no runs for no
    rows. A kernel whose rows do not interact computes each row the same in
    any run, so it can bound its temporaries by a budget this way."""
    per = max(1, budget // max(width, 1))
    count = -(-rows // per)
    bounds = [i * rows // count for i in range(count + 1)] if count else []
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
