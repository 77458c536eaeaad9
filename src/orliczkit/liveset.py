"""The one live-set loop of the vectorized solvers in `orlicz` and `kfunc`.

Each solver there iterates many independent entries at once (a phi inversion
per argument, a norm search per member, a K interval per member and t, an L
split per atom and t) by array passes of `iterate` over the open entries.
The first pass runs on the caller's whole arrays, and its outputs are the
result: returned as they are when it finishes every entry; otherwise the
open entries' indices are taken once, and each later pass, on those entries
alone, writes their outputs. A step is elementwise per entry (or per row of
atoms), so an entry's iterates are bitwise the same whichever entries share
the call. An entry open after MAX_PASSES passes raises `NonConvergenceError`.
Each finished call adds its pass count to `PASSES[solver]`, a Counter of
calls per pass count (a call on no entries counts one pass).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable

import numpy as np

MAX_PASSES = 100   # per call, before NonConvergenceError
PASSES: defaultdict[str, Counter] = defaultdict(Counter)


class NonConvergenceError(RuntimeError):
    """An iterative solve left an entry open after MAX_PASSES passes."""


def iterate(solver: str, step: Callable, state: tuple, advance: Callable | None = None) -> tuple:
    """The outputs of `step(*state) -> (done, outputs, carry)` for every
    entry, which indexes the first axis of each output and carry array (a
    scalar carry is shared). The first pass's outputs, arrays the step owns,
    become the result. The open entries' carry is the next state, or
    `advance` maps it there: an update the finished entries skip."""
    done, out, carry = step(*state)
    if done.all():
        PASSES[solver][1] += 1
        return out
    live = keep = np.flatnonzero(~done)
    for passes in range(2, MAX_PASSES + 1):
        state = tuple(v[keep] if isinstance(v, np.ndarray) else v for v in carry)
        if advance is not None:
            state = advance(*state)
        done, got, carry = step(*state)
        for whole, part in zip(out, got):   # an entry keeps its last pass's outputs
            whole[live] = part
        keep = ~done
        live = live[keep]
        if not live.size:
            PASSES[solver][passes] += 1
            return out
    raise NonConvergenceError(f"the {solver} solve did not converge in {MAX_PASSES} passes")
