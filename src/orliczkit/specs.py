"""Tagged-record config parsing: spaces, generators, phi builds, operators.

All resolvers validate keys strictly (unknown keys are rejected) so config
mistakes surface before any computation. Every rho, phi and operator record
is parsed by `_by_kind` against its family's kind table. Scenario dictionaries normalize to
a canonical form with defaults filled in; serializing a normalized scenario
is byte-stable, which the shipped scenario files rely on.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any, Callable, NamedTuple

import numpy as np

from . import operators as ops
from . import quasiconcave as qc
from .constants import GAMMA_MAX, conjugate_exponent
from .kfunc import K_P_MAX, L_Q_MAX
from .measure import DiscreteMeasureSpace, uniform_space
from .orlicz import ExponentCouple, OrliczFunction, build_from_generator, build_from_h, power_phi


class SpecError(ValueError):
    """A config record failed validation."""


def _require_keys(record: dict, required: set[str], optional: set[str] = frozenset(),
                  what: str = "record") -> None:
    if not isinstance(record, dict):
        raise SpecError(f"{what} must be a JSON object, got {record!r}")
    keys = set(record)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SpecError(f"{what} missing keys: {sorted(missing)}")
    if unknown:
        raise SpecError(f"{what} has unknown keys: {sorted(unknown)}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    return (_is_int(value) or isinstance(value, float)) and -math.inf < value < math.inf


def _number(value: Any, what: str) -> float:
    if not _is_finite(value):
        raise SpecError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _numbers(values: Any, what: str) -> list[float]:
    if not isinstance(values, list):
        raise SpecError(f"{what} must be a list of numbers, got {values!r}")
    return [_number(v, what) for v in values]


def parse_exponent(value: Any, what: str = "exponent") -> float:
    """A number, a numeric string (as the CLI passes), or 'inf'."""
    if value in ("inf", "Infinity"):
        return math.inf
    if isinstance(value, bool):
        raise SpecError(f"{what} must be a number or 'inf', got {value!r}")
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
        if not _is_int(n) or n < 1:
            raise SpecError("uniform space needs a positive integer 'n'")
        return uniform_space(n)
    if "n" in record:
        raise SpecError("space.n goes with uniform weights only; explicit weights give n")
    try:
        return DiscreteMeasureSpace(_numbers(weights, "space weights"))
    except ValueError as exc:
        raise SpecError(f"bad space weights: {exc}") from None


def _by_kind(record: Any, family: str, kinds: dict, *args) -> Any:
    """What a tagged record of `family` builds: a JSON object whose `kind`
    names an entry of `kinds`, with that entry's keys besides `kind` and no
    others, built by the entry's build from the record and `args`. A
    `ValueError` of the build that is not a `SpecError` becomes one that
    names the record's kind and family."""
    if not isinstance(record, dict) or "kind" not in record:
        raise SpecError(f"{family} spec must be a JSON object with a 'kind', got {record!r}")
    kind = record["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecError(f"unknown {family} kind {kind!r}")
    keys, build = kinds[kind]
    _require_keys(record, {"kind", *keys}, what=f"{kind} {family}")
    try:
        return build(record, *args)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"{kind} {family}: {exc}") from None


def resolve_plc(record: dict) -> qc.PiecewiseLinearConcave:
    _require_keys(record, {"knots", "values", "slope0", "slope_inf"}, what="piecewise linear spec")
    try:
        return qc.PiecewiseLinearConcave(
            _numbers(record["knots"], "knots"),
            _numbers(record["values"], "values"),
            _number(record["slope0"], "slope0"),
            _number(record["slope_inf"], "slope_inf"),
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None


# Each kind of a tagged-record family: the keys it takes besides `kind`, and
# its build from the record (and, for an operator, the space and couple).
_RHO_KINDS = {
    "powerlog": (("theta", "a", "b"), lambda r: qc.power_log_rho(
        *(_number(r[k], f"rho.{k}") for k in ("theta", "a", "b")))),
    "power": (("theta",), lambda r: qc.power_rho(_number(r["theta"], "rho.theta"))),
    "min_one": ((), lambda r: qc.min_one_rho()),
    "max_one": ((), lambda r: qc.max_one_rho()),
    "pwl": (("knots", "values", "slope0", "slope_inf"),
            lambda r: resolve_plc({k: v for k, v in r.items() if k != "kind"}).jet),
}


def resolve_rho(record: dict) -> Callable:
    """The jet t -> (rho, t*rho', t^2*rho'') of a generator spec."""
    return _by_kind(record, "rho", _RHO_KINDS)


def _couple_of(record: dict) -> ExponentCouple:
    return ExponentCouple(parse_exponent(record["p"]), parse_exponent(record["q"]))


_PHI_KINDS = {
    "power": (("p",), lambda r: power_phi(_number(r["p"], "phi.p"))),
    "generator": (("p", "q", "rho"),
                  lambda r: build_from_generator(_couple_of(r), resolve_rho(r["rho"]))),
    "h": (("p", "q", "h"), lambda r: build_from_h(_couple_of(r), resolve_plc(r["h"]))),
}


# Built phi's kept per process, least recently used dropped first. A round of
# perfbench's `norms` workload cycles through 6 distinct specs, and an LRU
# smaller than a cyclic working set never hits.
PHI_CACHE_SIZE = 8


def resolve_phi(record: dict) -> OrliczFunction:
    """The phi of a spec, built once per process and shared: specs equal as
    JSON (in any key order) give the same immutable `OrliczFunction`, built
    from that JSON text. A record that is not JSON is built uncached; errors
    are never cached."""
    try:
        key = json.dumps(record, sort_keys=True)
    except (TypeError, ValueError):
        return _by_kind(record, "phi", _PHI_KINDS)
    return _cached_phi(key)


@functools.lru_cache(maxsize=PHI_CACHE_SIZE)
def _cached_phi(key: str) -> OrliczFunction:
    return _by_kind(json.loads(key), "phi", _PHI_KINDS)


def _truncation(record: dict, space: DiscreteMeasureSpace,
                couple: ExponentCouple) -> ops.CertifiedOperator:
    k = record["keep_first"]
    if not _is_int(k) or not 1 <= k <= space.n:
        raise SpecError(f"keep_first must be an integer in [1, {space.n}], got {k!r}")
    m = np.zeros(space.n)
    m[:k] = 1.0
    return ops.multiplier(space, m, couple)


def _matrix(record: dict, space: DiscreteMeasureSpace,
            couple: ExponentCouple) -> ops.CertifiedOperator:
    rows = record["rows"]
    if not isinstance(rows, list):
        raise SpecError(f"matrix rows must be a list of rows, got {rows!r}")
    return ops.contractive_matrix(space, [_numbers(r, "matrix row") for r in rows], couple)


def _max_of(record: dict, space: DiscreteMeasureSpace,
            couple: ExponentCouple) -> ops.CertifiedOperator:
    if not isinstance(record["ops"], list):
        raise SpecError(f"max_of ops must be a list of operator specs, got {record['ops']!r}")
    return ops.max_of([_by_kind(sub, "operator", _OPERATOR_KINDS, space, couple)
                       for sub in record["ops"]])


_OPERATOR_KINDS = {
    "identity": ((), lambda r, space, couple: ops.identity_operator(space, couple)),
    "multiplier": (("m",), lambda r, space, couple: ops.multiplier(
        space, _numbers(r["m"], "multiplier m"), couple)),
    "truncation": (("keep_first",), _truncation),
    "matrix": (("rows",), _matrix),
    "averaging": ((), lambda r, space, couple: ops.averaging_operator(space, couple)),
    "maximal": ((), lambda r, space, couple: ops.discrete_maximal(space, couple)),
    "random_contractive": (("seed",), lambda r, space, couple: random_contractive(
        space, couple, r["seed"])),
    "max_of": (("ops",), _max_of),
}


# Built operators kept per process, least recently used dropped first. A
# round of perfbench's `norms` workload cycles through 9 distinct operators
# (a `max_of` builds its members uncached), the 9 of the shipped scenarios.
OPERATOR_CACHE_SIZE = 9


def resolve_operator(record: dict, space: DiscreteMeasureSpace,
                     couple: ExponentCouple) -> ops.CertifiedOperator:
    """The operator of a spec on a space for a couple, built once per
    process and shared, as `resolve_phi` shares a phi: a spec equal as JSON
    (in any key order), on a space of the same weights and for the same
    couple, gives the same frozen `CertifiedOperator`, built from that JSON
    text on its own copy of the space. A planted fault halves the bounds of
    a copy (`dataclasses.replace`), not of the shared operator. A record
    that is not JSON is built uncached; errors are never cached."""
    try:
        key = json.dumps(record, sort_keys=True)
    except (TypeError, ValueError):
        return _by_kind(record, "operator", _OPERATOR_KINDS, space, couple)
    return _cached_operator(key, space.weights.tobytes(), couple)


@functools.lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _cached_operator(key: str, weights: bytes, couple: ExponentCouple) -> ops.CertifiedOperator:
    return _by_kind(json.loads(key), "operator", _OPERATOR_KINDS,
                    DiscreteMeasureSpace(np.frombuffer(weights)), couple)


def random_contractive(space: DiscreteMeasureSpace, couple: ExponentCouple,
                       seed: int) -> ops.CertifiedOperator:
    """Deterministic signed matrix scaled to satisfy the row/column sums."""
    if not _is_int(seed) or seed < 0:
        raise SpecError(f"random_contractive seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a = rng.uniform(-1.0, 1.0, (space.n, space.n))
    scale = max(np.abs(a).sum(axis=1).max(), np.abs(a).sum(axis=0).max())
    return ops.contractive_matrix(space, a / scale, couple)


INPUT_DISTRIBUTIONS = ("mixed", "uniform", "lognormal", "spikes", "constant", "bounded")


class Theorem(NamedTuple):
    """What a theorem tag takes from a scenario (any other section is
    rejected) and, for a norm tag, the source of its constant."""

    requires: tuple[str, ...]        # sections that must be given
    reads: tuple[str, ...] = ()      # optional sections it reads
    q_inf: bool | None = False       # q = inf (True), finite (False) or either (None)
    distributions: tuple[str, ...] = INPUT_DISTRIBUTIONS
    constant: str | None = None      # key of constants.NORM_CONSTANTS (norm tags only)
    gamma: bool = False              # whether it reads sparr_gamma(p, q), so needs q <= GAMMA_MAX
    # whether it compares K- or L-functionals of the couple at any exponents,
    # so needs p <= K_P_MAX (q = inf) or q <= L_Q_MAX, where kfunc certifies them
    functionals: bool = False


# scenario sections that a tag requires, reads or rejects (every tag reads inputs)
SECTIONS = ("phi", "operator", "fault", "diagnostics")

THEOREMS = {
    "prop22": Theorem(("operator",), ("fault",), q_inf=None, functionals=True),
    # draws its own (x, y) pairs, so the input distribution is fixed
    "sparr_lemma": Theorem((), distributions=("mixed",), gamma=True),
    "thm31a": Theorem(("phi", "operator"), ("fault",), q_inf=True),
    "thm31b_norm": Theorem(("phi", "operator"), ("fault",), q_inf=True, constant="lp_linf"),
    "thm46a": Theorem(("phi", "operator"), ("fault",), gamma=True),
    "thm46b_norm": Theorem(("phi", "operator"), ("fault", "diagnostics"), constant="subadditive",
                           gamma=True),
    "remark_concave_h": Theorem(("phi", "operator"), ("fault",), constant="concave_h", gamma=True),
    "thm51_linear": Theorem(("phi", "operator"), ("fault",), constant="linear", gamma=True),
}


def check_theorem(tag: Any, couple: ExponentCouple,
                  op: ops.CertifiedOperator | None = None) -> Theorem:
    """The record of `tag`, once the couple, and the operator if one is
    given, meet its preconditions."""
    if not isinstance(tag, str) or tag not in THEOREMS:
        raise SpecError(f"unknown theorem tag {tag!r}; expected one of {tuple(THEOREMS)}")
    record = THEOREMS[tag]
    if record.q_inf is not None and couple.q_is_inf != record.q_inf:
        raise SpecError(f"{tag} needs {'q = inf' if record.q_inf else 'a finite q'}")
    # the duality constant needs p > 1 for a conjugate exponent p' < inf, its
    # dual branch reads gamma(q', p'), so p' <= GAMMA_MAX too, and it holds
    # for a linear operator alone
    if record.constant == "linear":
        if not couple.p > 1.0:
            raise SpecError(f"{tag} needs p > 1")
        if conjugate_exponent(couple.p) > GAMMA_MAX:
            raise SpecError(f"{tag} needs p' = p/(p-1) <= {GAMMA_MAX:g}, the range of sparr_gamma")
        if op is not None and op.kind != ops.KIND_LINEAR:
            raise SpecError(f"{tag} needs a linear operator, not a {op.kind} one")
    if record.gamma and couple.q > GAMMA_MAX:
        raise SpecError(f"{tag} needs q <= {GAMMA_MAX:g}, the range of sparr_gamma")
    if record.functionals and couple.q_is_inf and couple.p > K_P_MAX:
        raise SpecError(f"{tag} needs p <= {K_P_MAX:g} at q = inf, the range K is certified on")
    if record.functionals and not couple.q_is_inf and couple.q > L_Q_MAX:
        raise SpecError(f"{tag} needs q <= {L_Q_MAX:g}, the range the L-functional is certified on")
    return record


_SCENARIO_REQUIRED = {"theorem", "seed", "space", "couple"}
_SCENARIO_OPTIONAL = {"inputs", *SECTIONS}


def _json_exponents(record: dict, what: str) -> None:
    """A scenario's p and q are JSON numbers or 'inf'; numeric strings are
    for the CLI alone, so two spellings of one scenario cannot hash apart."""
    for key in ("p", "q"):
        if key in record and record[key] != "inf" and not _is_finite(record[key]):
            raise SpecError(f"{what}.{key} must be a number or 'inf', got {record[key]!r}")


def _phi_fits_couple(record: dict, couple: ExponentCouple) -> None:
    """The phi's p and q are JSON numbers or 'inf', a generator or h phi has
    the couple's p and q, and a power u^r has p <= r <= q: a phi of another
    couple would be checked against this couple's constant and certificates."""
    _json_exponents(record, "phi")
    kind, p, q = record.get("kind"), record.get("p"), record.get("q")
    if kind == "power" and _is_finite(p) and not couple.p <= p <= couple.q:
        raise SpecError(f"a power phi needs the couple's p <= phi.p <= q, got {p!r}")
    if (kind in ("generator", "h") and None not in (p, q)
            and (parse_exponent(p), parse_exponent(q)) != (couple.p, couple.q)):
        raise SpecError(f"a {kind} phi is built for the couple's p and q, got ({p}, {q})")


def resolve_scenario(raw: dict) -> tuple:
    """(canonical scenario, space, couple, phi or None, operator or None).

    Validates and fills in defaults as `normalize_scenario` does, keeping
    what it builds on the way; the returned space is the operator's own.
    """
    _require_keys(raw, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, what="scenario")
    theorem = raw["theorem"]
    if not _is_int(raw["seed"]) or raw["seed"] < 0:
        raise SpecError("scenario seed must be an integer >= 0 (and is mandatory)")

    out: dict[str, Any] = {"theorem": theorem, "seed": raw["seed"]}
    space = resolve_space(raw["space"])
    out["space"] = raw["space"]
    couple = resolve_couple(raw["couple"])
    _json_exponents(raw["couple"], "couple")
    out["couple"] = raw["couple"]
    record = check_theorem(theorem, couple)
    # a section is given unless it is null or false
    section = {key: None if raw.get(key) is False else raw.get(key) for key in SECTIONS}
    given = [key for key in SECTIONS if section[key] is not None]
    missing = [key for key in record.requires if key not in given]
    unread = [key for key in given if key not in record.requires + record.reads]
    if missing:
        raise SpecError(f"{theorem} needs the sections {missing}")
    if unread:
        raise SpecError(f"{theorem} does not read the sections {unread}")

    inputs = {} if raw.get("inputs") is None else raw["inputs"]
    _require_keys(inputs, set(), {"count", "distribution", "scale"}, what="inputs spec")
    inputs = {"count": 100, "distribution": "mixed", "scale": 1.0, **inputs}
    if inputs["distribution"] not in record.distributions:
        raise SpecError(f"{theorem} takes inputs.distribution in {record.distributions}, "
                        f"not {inputs['distribution']!r}")
    if not _is_int(inputs["count"]) or inputs["count"] < 1:
        raise SpecError("inputs.count must be a positive integer")
    if not _is_finite(inputs["scale"]) or inputs["scale"] <= 0.0:
        raise SpecError(f"inputs.scale must be a finite number > 0, got {inputs['scale']!r}")
    out["inputs"] = inputs

    if isinstance(section["phi"], dict):   # before phi or the operator is built
        _phi_fits_couple(section["phi"], couple)
    out["operator"] = section["operator"]
    op = resolve_operator(out["operator"], space, couple) if out["operator"] is not None else None
    if op is not None and not op.max_bound > 0.0:
        raise SpecError("the operator is zero; its checks divide by its certified bound")
    check_theorem(theorem, couple, op)   # again, now that the operator's kind is known
    space = space if op is None else op.space   # a shared operator keeps its first space
    out["phi"] = section["phi"]
    phi = resolve_phi(out["phi"]) if out["phi"] is not None else None

    fault = section["fault"]
    if fault is not None:
        _require_keys(fault, set(), {"halve_certificate"}, what="fault")
        if not isinstance(fault.get("halve_certificate", False), bool):
            raise SpecError("fault.halve_certificate must be true or false")
        # a fault that plants nothing normalizes, and hashes, as no fault
        fault = {"halve_certificate": True} if fault.get("halve_certificate") else None
    out["fault"] = fault
    if section["diagnostics"] is not None and section["diagnostics"] is not True:
        raise SpecError("diagnostics must be true or false")
    out["diagnostics"] = section["diagnostics"] is True
    return out, space, couple, phi, op


def normalize_scenario(raw: dict) -> dict:
    """Validated canonical scenario with all defaults made explicit."""
    return resolve_scenario(raw)[0]


def dump_normalized(obj: Any) -> str:
    """Canonical JSON (sorted keys, indent 2): scenario files and all CLI JSON output."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_range(text: str, what: str = "grid", log: bool = False) -> np.ndarray:
    """'start:stop:count' ranges for CLI grids, linear or log-spaced."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise SpecError(f"{what} must look like start:stop:count") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SpecError(f"{what} needs a finite start and stop")
    if log and (start <= 0.0 or stop < start or (stop == start and count > 1)):
        raise SpecError(f"{what} needs 0 < start <= stop and a positive count")
    if count < 1:
        raise SpecError(f"{what} needs at least one point")
    if log:
        return np.logspace(math.log10(start), math.log10(stop), count)
    return np.linspace(start, stop, count)
