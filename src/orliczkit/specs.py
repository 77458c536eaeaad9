"""Tagged-record config parsing: spaces, generators, phi builds, operators.

All resolvers validate keys strictly (unknown keys are rejected) so config
mistakes surface before any computation. Scenario dictionaries normalize to
a canonical form with defaults filled in; serializing a normalized scenario
is byte-stable, which the shipped scenario files rely on.
"""

from __future__ import annotations

import json
import math
from typing import Any, NamedTuple

import numpy as np

from . import operators as ops
from . import quasiconcave as qc
from .measure import DiscreteMeasureSpace, uniform_space
from .orlicz import ExponentCouple, OrliczFunction, build_from_generator, build_from_h, power_phi


class SpecError(ValueError):
    """A config record failed validation."""


def _require_keys(record: dict, required: set[str], optional: set[str] = frozenset(),
                  what: str = "record") -> None:
    keys = set(record)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SpecError(f"{what} missing keys: {sorted(missing)}")
    if unknown:
        raise SpecError(f"{what} has unknown keys: {sorted(unknown)}")


def parse_exponent(value: Any, what: str = "exponent") -> float:
    if value in ("inf", "Infinity"):
        return math.inf
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecError(f"{what} must be a number or 'inf', got {value!r}") from None


def resolve_couple(record: dict) -> ExponentCouple:
    _require_keys(record, {"p", "q"}, what="couple")
    try:
        return ExponentCouple(parse_exponent(record["p"]), parse_exponent(record["q"]))
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def resolve_space(record: dict) -> DiscreteMeasureSpace:
    _require_keys(record, {"weights"}, {"n"}, what="space")
    weights = record["weights"]
    if weights == "uniform":
        n = record.get("n")
        if not isinstance(n, int) or n < 1:
            raise SpecError("uniform space needs a positive integer 'n'")
        return uniform_space(n)
    try:
        return DiscreteMeasureSpace([float(w) for w in weights])
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad space weights: {exc}") from None


def resolve_rho(record: dict) -> qc.QuasiConcaveFn:
    if "kind" not in record:
        raise SpecError("rho spec needs a 'kind'")
    kind = record["kind"]
    if kind == "powerlog":
        _require_keys(record, {"kind", "theta", "a", "b"}, what="powerlog rho")
        return qc.power_log_rho(float(record["theta"]), float(record["a"]), float(record["b"]))
    if kind == "power":
        _require_keys(record, {"kind", "theta"}, what="power rho")
        return qc.power_rho(float(record["theta"]))
    if kind == "min_one":
        _require_keys(record, {"kind"}, what="min_one rho")
        return qc.min_one_rho()
    if kind == "max_one":
        _require_keys(record, {"kind"}, what="max_one rho")
        return qc.max_one_rho()
    if kind == "pwl":
        plc = resolve_plc({k: v for k, v in record.items() if k != "kind"})
        return qc.QuasiConcaveFn(plc, "piecewise_linear")
    raise SpecError(f"unknown rho kind {kind!r}")


def resolve_plc(record: dict) -> qc.PiecewiseLinearConcave:
    _require_keys(record, {"knots", "values", "slope0", "slope_inf"}, what="piecewise linear spec")
    try:
        return qc.PiecewiseLinearConcave(
            [float(v) for v in record["knots"]],
            [float(v) for v in record["values"]],
            float(record["slope0"]),
            float(record["slope_inf"]),
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def resolve_phi(record: dict) -> OrliczFunction:
    if "kind" not in record:
        raise SpecError("phi spec needs a 'kind'")
    kind = record["kind"]
    try:
        if kind == "power":
            _require_keys(record, {"kind", "p"}, what="power phi")
            return power_phi(float(record["p"]))
        if kind == "generator":
            _require_keys(record, {"kind", "p", "q", "rho"}, what="generator phi")
            couple = ExponentCouple(parse_exponent(record["p"]), parse_exponent(record["q"]))
            return build_from_generator(couple, resolve_rho(record["rho"]))
        if kind == "h":
            _require_keys(record, {"kind", "p", "q", "h"}, what="h phi")
            couple = ExponentCouple(parse_exponent(record["p"]), parse_exponent(record["q"]))
            return build_from_h(couple, resolve_plc(record["h"]))
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    raise SpecError(f"unknown phi kind {kind!r}")


def resolve_operator(record: dict, space: DiscreteMeasureSpace,
                     couple: ExponentCouple) -> ops.CertifiedOperator:
    if "kind" not in record:
        raise SpecError("operator spec needs a 'kind'")
    kind = record["kind"]
    try:
        if kind == "identity":
            _require_keys(record, {"kind"}, what="identity operator")
            return ops.identity_operator(space, couple)
        if kind == "multiplier":
            _require_keys(record, {"kind", "m"}, what="multiplier operator")
            return ops.multiplier(space, [float(v) for v in record["m"]], couple)
        if kind == "truncation":
            _require_keys(record, {"kind", "keep_first"}, what="truncation operator")
            k = int(record["keep_first"])
            m = np.zeros(space.n)
            m[:k] = 1.0
            return ops.multiplier(space, m, couple)
        if kind == "matrix":
            _require_keys(record, {"kind", "rows"}, what="matrix operator")
            return ops.contractive_matrix(space, record["rows"], couple)
        if kind == "averaging":
            _require_keys(record, {"kind"}, what="averaging operator")
            return ops.averaging_operator(space, couple)
        if kind == "maximal":
            _require_keys(record, {"kind"}, what="maximal operator")
            return ops.discrete_maximal(space, couple)
        if kind == "random_contractive":
            _require_keys(record, {"kind", "seed"}, what="random contractive operator")
            return random_contractive(space, couple, int(record["seed"]))
        if kind == "max_of":
            _require_keys(record, {"kind", "ops"}, what="max_of operator")
            members = [resolve_operator(sub, space, couple) for sub in record["ops"]]
            return ops.max_of(members)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    raise SpecError(f"unknown operator kind {kind!r}")


def random_contractive(space: DiscreteMeasureSpace, couple: ExponentCouple,
                       seed: int) -> ops.CertifiedOperator:
    """Deterministic signed matrix scaled to satisfy the row/column sums."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a = rng.uniform(-1.0, 1.0, (space.n, space.n))
    scale = max(np.abs(a).sum(axis=1).max(), np.abs(a).sum(axis=0).max())
    return ops.contractive_matrix(space, a / scale, couple)


INPUT_DISTRIBUTIONS = ("mixed", "uniform", "lognormal", "spikes", "constant", "bounded")


class Theorem(NamedTuple):
    """What a theorem tag takes from a scenario; any other section is rejected."""

    requires: tuple[str, ...]        # sections that must be given
    reads: tuple[str, ...] = ()      # optional sections it reads
    q_inf: bool | None = False       # q = inf (True), finite (False) or either (None)
    distributions: tuple[str, ...] = INPUT_DISTRIBUTIONS


# scenario sections that a tag requires, reads or rejects (every tag reads inputs and tolerances)
SECTIONS = ("phi", "operator", "t_grid", "fault", "diagnostics")

THEOREMS = {
    "prop22": Theorem(("operator", "t_grid"), ("fault",), q_inf=None),
    # draws its own (x, y) pairs, so the input distribution is fixed
    "sparr_lemma": Theorem(("t_grid",), distributions=("mixed",)),
    "thm31a": Theorem(("phi", "operator"), ("fault",), q_inf=True),
    "thm31b_norm": Theorem(("phi", "operator"), ("fault",), q_inf=True),
    "thm46a": Theorem(("phi", "operator"), ("fault",)),
    "thm46b_norm": Theorem(("phi", "operator"), ("fault", "diagnostics")),
    "remark_concave_h": Theorem(("phi", "operator"), ("fault",)),
    "thm51_linear": Theorem(("phi", "operator"), ("fault",)),
}

DEFAULT_TOLERANCES = {
    "violation_rel": 1e-9,
    "norm_rel": 1e-8,
    "hypothesis_slack": 1e-12,
    "abs_floor": 1e-12,
    "chain_rel": 1e-6,
    "chain_abs_floor": 1e-9,
}

_SCENARIO_REQUIRED = {"theorem", "seed", "space", "couple"}
_SCENARIO_OPTIONAL = {"inputs", "tolerances", *SECTIONS}


def resolve_scenario(raw: dict) -> tuple:
    """(canonical scenario, space, couple, phi or None, operator or None).

    Validates and fills in defaults as `normalize_scenario` does, keeping
    what it builds on the way; the operator lives on the returned space.
    """
    _require_keys(raw, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, what="scenario")
    theorem = raw["theorem"]
    if theorem not in THEOREMS:
        raise SpecError(f"unknown theorem tag {theorem!r}; expected one of {tuple(THEOREMS)}")
    if not isinstance(raw["seed"], int):
        raise SpecError("scenario seed must be an integer (and is mandatory)")

    out: dict[str, Any] = {"theorem": theorem, "seed": raw["seed"]}
    space = resolve_space(raw["space"])
    out["space"] = raw["space"]
    couple = resolve_couple(raw["couple"])
    out["couple"] = raw["couple"]
    record = THEOREMS[theorem]
    given = [key for key in SECTIONS if raw.get(key) not in (None, False)]
    missing = [key for key in record.requires if key not in given]
    unread = [key for key in given if key not in record.requires + record.reads]
    if missing:
        raise SpecError(f"{theorem} needs the sections {missing}")
    if unread:
        raise SpecError(f"{theorem} does not read the sections {unread}")
    if record.q_inf is not None and couple.q_is_inf != record.q_inf:
        raise SpecError(f"{theorem} needs {'q = inf' if record.q_inf else 'a finite q'}")

    inputs = {"count": 100, "distribution": "mixed", "scale": 1.0, **(raw.get("inputs") or {})}
    _require_keys(inputs, set(), {"count", "distribution", "scale"}, what="inputs spec")
    if inputs["distribution"] not in record.distributions:
        raise SpecError(f"{theorem} takes inputs.distribution in {record.distributions}, "
                        f"not {inputs['distribution']!r}")
    if not isinstance(inputs["count"], int) or inputs["count"] < 1:
        raise SpecError("inputs.count must be a positive integer")
    out["inputs"] = inputs

    out["t_grid"] = None
    if raw.get("t_grid") is not None:
        grid = {"spacing": "log", **raw["t_grid"]}
        _require_keys(grid, {"start", "stop", "points"}, {"spacing"}, what="t_grid")
        if grid["spacing"] not in ("log", "linear"):
            raise SpecError("t_grid spacing must be 'log' or 'linear'")
        if float(grid["start"]) <= 0.0 and grid["spacing"] == "log":
            raise SpecError("log t_grid needs a positive start")
        out["t_grid"] = {k: grid[k] for k in ("start", "stop", "points", "spacing")}

    tol = dict(DEFAULT_TOLERANCES)
    extra = dict(raw.get("tolerances") or {})
    _require_keys(extra, set(), set(DEFAULT_TOLERANCES), what="tolerances")
    tol.update({k: float(v) for k, v in extra.items()})
    out["tolerances"] = {k: tol[k] for k in sorted(tol)}

    out["phi"] = raw.get("phi")
    phi = resolve_phi(out["phi"]) if out["phi"] is not None else None
    out["operator"] = raw.get("operator")
    op = resolve_operator(out["operator"], space, couple) if out["operator"] is not None else None

    fault = raw.get("fault")
    if fault is not None:
        _require_keys(fault, set(), {"halve_certificate"}, what="fault")
        fault = {"halve_certificate": bool(fault.get("halve_certificate", False))}
    out["fault"] = fault
    out["diagnostics"] = bool(raw.get("diagnostics", False))
    return out, space, couple, phi, op


def normalize_scenario(raw: dict) -> dict:
    """Validated canonical scenario with all defaults made explicit."""
    return resolve_scenario(raw)[0]


def t_grid_points(grid: dict) -> np.ndarray:
    start, stop, points = float(grid["start"]), float(grid["stop"]), int(grid["points"])
    if grid.get("spacing", "log") == "log":
        return np.logspace(math.log10(start), math.log10(stop), points)
    return np.linspace(start, stop, points)


def dump_normalized(obj: dict) -> str:
    """Canonical JSON serialization (sorted keys, stable separators)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_range(text: str, what: str = "grid", log: bool = False) -> np.ndarray:
    """'start:stop:count' ranges for CLI grids, linear or log-spaced."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise SpecError(f"{what} must look like start:stop:count") from None
    if log and (start <= 0.0 or stop < start or (stop == start and count > 1)):
        raise SpecError(f"{what} needs 0 < start <= stop and a positive count")
    if count < 1:
        raise SpecError(f"{what} needs at least one point")
    if log:
        return np.logspace(math.log10(start), math.log10(stop), count)
    return np.linspace(start, stop, count)
