"""Outside-in layer trace: spans around the public functions of each module.

The program itself is not edited. `Tracer.install` replaces each traced
function in every orliczkit module namespace that holds it (so names bound
by `from .x import y` are covered too) with a timing wrapper, and
`uninstall` puts the originals back, so untraced calls run the unmodified
code. A layer's self time is its span's duration minus the time of the
traced spans it caused. The private sparr pair batch is wrapped too, as part
of input generation.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _grid_elems(ts, x, *args, **kwargs) -> int:
    return int(np.size(ts)) * int(x.space.n)


# (layer name, module, attribute, elems counter or None, record value sums)
FUNCTION_SPANS = (
    ("kfunc.l_functional_grid", "orliczkit.kfunc", "l_functional_grid", _grid_elems, True),
    ("kfunc.l_star_grid", "orliczkit.kfunc", "l_star_grid", None, False),
    ("kfunc.k_lp_linf_grid", "orliczkit.kfunc", "k_lp_linf_grid", _grid_elems, True),
    ("orlicz.luxemburg_norm", "orliczkit.orlicz", "luxemburg_norm", None, True),
    ("orlicz.amemiya_norm", "orliczkit.orlicz", "amemiya_norm", None, True),
    ("orlicz.modular", "orliczkit.orlicz", "modular", None, True),
    ("orlicz.check_convexity", "orliczkit.orlicz", "check_convexity", None, False),
    ("orlicz.phi_build", "orliczkit.orlicz", "build_from_generator", None, False),
    ("orlicz.phi_build", "orliczkit.orlicz", "build_from_h", None, False),
    ("orlicz.phi_build", "orliczkit.orlicz", "power_phi", None, False),
    ("specs.normalize_scenario", "orliczkit.specs", "normalize_scenario", None, False),
    ("quasiconcave.concave_majorant", "orliczkit.quasiconcave", "concave_majorant", None, False),
    ("constants.sparr_gamma", "orliczkit.constants", "sparr_gamma", None, False),
    ("verify.inputs", "orliczkit.verify", "generate_inputs", None, False),
    ("verify.inputs", "orliczkit.verify", "_pair_batch", None, False),
    ("verify.run_scenario", "orliczkit.verify", "run_scenario", None, False),
)

# The per-layer quantities the benchmark reports, per round of the workload.
QUANTITIES = {
    "kfunc.l_functional_grid": ("calls", "elems", "self_s"),
    "kfunc.l_star_grid": ("self_s",),
    "kfunc.k_lp_linf_grid": ("calls", "elems", "self_s"),
    "orlicz.luxemburg_norm": ("calls", "self_s"),
    "orlicz.amemiya_norm": ("calls", "self_s"),
    "orlicz.modular": ("calls", "self_s"),
    "orlicz.check_convexity": ("self_s",),
    "orlicz.phi_build": ("calls", "self_s"),
    "specs.normalize_scenario": ("self_s",),
    "quasiconcave.concave_majorant": ("self_s",),
    "constants.sparr_gamma": ("calls", "self_s"),
    "operators.apply": ("calls", "self_s"),
    "verify.inputs": ("self_s",),
    "verify.run_scenario": ("self_s",),
}
CHECKSUMMED = tuple(name for name, _, _, _, summed in FUNCTION_SPANS if summed)


class LayerStats:
    __slots__ = ("calls", "self_s", "elems")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.elems = 0


class Tracer:
    """Collects per-layer calls, self time and element counts, per-template
    self time, output sums of the checksummed kernels, and the number of
    `SampleFunction` constructions."""

    def __init__(self):
        self.template = ""
        self._child_s: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.reset()

    def reset(self) -> None:
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.by_template: dict[str, Counter] = defaultdict(Counter)
        self.value_sums: dict[str, list[float]] = defaultdict(list)
        self.sample_functions = 0

    def _wrap(self, name, fn, elems, summed):
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                own = duration - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += duration
                stats = self.layers[name]
                stats.calls += 1
                stats.self_s += own
                self.by_template[self.template][name] += own
            if elems is not None:
                stats.elems += elems(*args, **kwargs)
            if summed:
                self.value_sums[name].append(float(np.sum(out)))
            return out

        return traced

    def _count_samples(self, init):
        def counted(obj, *args, **kwargs):
            self.sample_functions += 1
            init(obj, *args, **kwargs)

        return counted

    def prepare(self) -> None:
        """Find every binding of each traced function; call once after import."""
        from orliczkit.measure import SampleFunction
        from orliczkit.operators import CertifiedOperator

        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "orliczkit" or key.startswith("orliczkit.")]
        for name, module, attr, elems, summed in FUNCTION_SPANS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, original, elems, summed)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original, wrapped))
        apply = CertifiedOperator.apply
        self._patches.append((CertifiedOperator, "apply", apply,
                              self._wrap("operators.apply", apply, None, False)))
        init = SampleFunction.__init__
        self._patches.append((SampleFunction, "__init__", init, self._count_samples(init)))

    def install(self) -> None:
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def value_sum(self, name: str) -> float:
        return math.fsum(self.value_sums.get(name, ()))
