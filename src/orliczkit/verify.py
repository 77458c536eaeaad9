"""Scenario engine that checks the interpolation inequalities numerically.

Each scenario names a theorem tag, a couple, generator/operator specs, a
seeded input batch, and named tolerances; running it produces a structured
report with every violation (parameter, input index, both sides, relative
margin, witness values). Reports are deterministic given the seed; wall
time is the only field that varies between runs.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import specs
from .constants import bergh_constant, interp_constant_concave_h, interp_constant_linear, \
    interp_constant_subadditive, sparr_gamma
from .kfunc import k_lp_linf_grid, l_functional_grid, l_star_grid
from .measure import SampleFunction
from .operators import KIND_LINEAR, CertifiedOperator
from .orlicz import (
    ExponentCouple,
    OrliczFunction,
    amemiya_norm,
    build_from_h,
    check_convexity,
    luxemburg_norm,
    modular,
)
from .quasiconcave import QuasiConcaveFn, concave_majorant


class ScenarioRejected(RuntimeError):
    """A theorem precondition failed; the scenario is invalid, not falsified."""


@dataclass(frozen=True)
class Violation:
    t: float | None
    input_index: int
    lhs: float
    rhs: float
    margin: float
    check: str
    witness: tuple = ()

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "input_index": self.input_index,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "check": self.check,
            "witness": list(self.witness),
        }


@dataclass
class VerificationReport:
    scenario: dict
    status: str
    trials: int
    violations: list[Violation]
    wall_ms: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        ordered = sorted(self.violations, key=lambda v: (-v.margin, v.input_index, v.t or 0.0))
        return {
            "scenario": self.scenario,
            "status": self.status,
            "trials": self.trials,
            "violations": [v.to_dict() for v in ordered[:200]],
            "wall_ms": self.wall_ms,
            "details": dict(self.details, violation_count=len(self.violations)),
        }


class _Collector:
    """Relative violation test with an absolute fallback at rhs = 0."""

    def __init__(self, rel: float, abs_floor: float):
        self.rel = rel
        self.abs_floor = abs_floor
        self.violations: list[Violation] = []

    def check(self, lhs: float, rhs: float, t, idx: int, tag: str, witness=()) -> None:
        if lhs > rhs + self.rel * abs(rhs) + self.abs_floor:
            margin = (lhs - rhs) / max(abs(rhs), self.abs_floor)
            self.violations.append(Violation(
                None if t is None else float(t), idx, float(lhs), float(rhs),
                float(margin), tag, tuple(float(v) for v in witness)))

    def check_grid(self, lhs: np.ndarray, rhs: np.ndarray, ts: np.ndarray,
                   idx: int, tag: str, witness=()) -> None:
        bad = lhs > rhs + self.rel * np.abs(rhs) + self.abs_floor
        for j in np.nonzero(bad)[0]:
            self.check(float(lhs[j]), float(rhs[j]), float(ts[j]), idx, tag, witness)


def _report(tag: str, trials: int, collector: _Collector, started: float,
            details: dict | None = None, scenario: dict | None = None) -> VerificationReport:
    return VerificationReport(
        scenario=scenario if scenario is not None else {"theorem": tag, "inline": True},
        status="pass" if not collector.violations else "fail",
        trials=trials,
        violations=collector.violations,
        wall_ms=(time.perf_counter() - started) * 1000.0,
        details=details or {},
    )


def generate_inputs(space, count: int, distribution: str = "mixed",
                    scale: float = 1.0, seed: int = 0) -> list[SampleFunction]:
    """Seeded input batch; the seed splits per index, so batches are stable
    under any evaluation order or parallelism."""
    children = np.random.SeedSequence(seed).spawn(count)
    mixes = {
        "mixed": ("uniform", "lognormal", "spikes", "constant"),
        "bounded": ("uniform", "spikes", "constant"),
    }
    out = []
    for i in range(count):
        rng = np.random.default_rng(children[i])
        kind = distribution
        if distribution in mixes:
            kind = mixes[distribution][i % len(mixes[distribution])]
        n = space.n
        if kind == "uniform":
            vals = rng.uniform(-scale, scale, n)
        elif kind == "lognormal":
            vals = rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(0.0, 1.0, n)) * scale
        elif kind == "spikes":
            vals = np.zeros(n)
            support = rng.choice(n, size=rng.integers(1, max(2, n // 3 + 1)), replace=False)
            vals[support] = rng.choice([-1.0, 1.0], support.size) * rng.uniform(0.25, 1.0, support.size) * scale
        elif kind == "constant":
            vals = np.full(n, float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.2, 1.0)) * scale)
        else:
            raise specs.SpecError(f"unknown input distribution {kind!r}")
        out.append(SampleFunction(space, vals))
    return out


def _couple_k_grid(ts: np.ndarray, x: SampleFunction, couple: ExponentCouple) -> np.ndarray:
    if couple.q_is_inf:
        return k_lp_linf_grid(ts, x, couple.p)
    return l_functional_grid(ts, x, couple.p, couple.q)


def verify_k_contraction(op: CertifiedOperator, inputs: list[SampleFunction],
                         t_grid, tolerances: dict | None = None,
                         scenario: dict | None = None, jobs: int = 1) -> VerificationReport:
    """K_{p,q}(t, Tx/M) <= K_{p,q}(t, x) on every input and grid parameter."""
    started = time.perf_counter()
    tol = dict(specs.DEFAULT_TOLERANCES, **(tolerances or {}))
    collector = _Collector(tol["violation_rel"], tol["abs_floor"])
    ts = np.asarray(t_grid, dtype=float)
    m = op.max_bound

    def one(pair):
        idx, x = pair
        tx = op.apply(x).scaled(1.0 / m)
        return idx, _couple_k_grid(ts, tx, op.couple), _couple_k_grid(ts, x, op.couple), x

    for idx, lhs, rhs, x in _map(one, enumerate(inputs), jobs):
        collector.check_grid(lhs, rhs, ts, idx, "k_contraction", x.values)
    return _report("prop22", len(inputs), collector, started,
                   {"certified_bound": m}, scenario)


def _sparr_pair(x: SampleFunction, y: SampleFunction, couple: ExponentCouple,
                ts: np.ndarray, gamma: float, tol: dict, collector: _Collector,
                idx: int) -> bool:
    kx = l_functional_grid(ts, x, couple.p, couple.q)
    ky = l_functional_grid(ts, y, couple.p, couple.q)
    hypothesis = np.all(kx <= ky + tol["hypothesis_slack"] * np.abs(ky) + tol["abs_floor"])
    if not hypothesis:
        return False
    lx = l_star_grid(ts, x, couple.p, couple.q)
    ly = l_star_grid(ts, y, couple.p, couple.q)
    collector.check_grid(lx, gamma * ly, ts, idx, "sparr_conclusion",
                         np.concatenate((x.values, y.values)))
    return True


def verify_sparr_implication(x: SampleFunction, y: SampleFunction,
                             couple: ExponentCouple, t_grid,
                             tolerances: dict | None = None,
                             scenario: dict | None = None) -> VerificationReport:
    """K-majorization of the pair implies the pointwise-minimum comparison
    with the sharp constant; neutral (pass, hypothesis_met=0) otherwise."""
    started = time.perf_counter()
    tol = dict(specs.DEFAULT_TOLERANCES, **(tolerances or {}))
    if couple.q_is_inf:
        raise ValueError("the implication needs a finite couple")
    gamma = sparr_gamma(couple.p, couple.q).value
    collector = _Collector(tol["violation_rel"], tol["abs_floor"])
    ts = np.asarray(t_grid, dtype=float)
    met = _sparr_pair(x, y, couple, ts, gamma, tol, collector, 0)
    return _report("sparr_lemma", 1, collector, started,
                   {"gamma": gamma, "hypothesis_met": int(met)}, scenario)


def _pair_batch(space, count: int, scale: float, seed: int) -> list[tuple[SampleFunction, SampleFunction]]:
    """Pairs biased toward satisfying the K-majorization hypothesis.

    Cycles: atomwise damping of a random y; damped permutation of y
    (equimeasurable on uniform weights); an independent pair, kept only if
    the grid hypothesis later holds; and x = y / (1 + |u|) scalings.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    pairs = []
    for i in range(count):
        rng = np.random.default_rng(children[i])
        n = space.n
        y_vals = rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(0.0, 0.8, n)) * scale
        mode = i % 4
        if mode == 0:
            x_vals = rng.uniform(0.0, 1.0, n) * y_vals
        elif mode == 1:
            x_vals = (rng.uniform(0.3, 1.0) * np.abs(y_vals))[rng.permutation(n)]
        elif mode == 2:
            x_vals = rng.uniform(-2.0 * scale, 2.0 * scale, n)
        else:
            x_vals = y_vals / float(1.0 + np.abs(rng.normal(0.0, 1.0)))
        pairs.append((SampleFunction(space, x_vals), SampleFunction(space, y_vals)))
    return pairs


def verify_sparr_batch(space, couple: ExponentCouple, count: int, t_grid,
                       scale: float = 1.0, seed: int = 0,
                       tolerances: dict | None = None,
                       scenario: dict | None = None) -> VerificationReport:
    """Run the implication over a seeded pair batch; neutral pairs are
    counted but never failed."""
    started = time.perf_counter()
    tol = dict(specs.DEFAULT_TOLERANCES, **(tolerances or {}))
    gamma = sparr_gamma(couple.p, couple.q).value
    collector = _Collector(tol["violation_rel"], tol["abs_floor"])
    ts = np.asarray(t_grid, dtype=float)
    met = 0
    for idx, (x, y) in enumerate(_pair_batch(space, count, scale, seed)):
        met += _sparr_pair(x, y, couple, ts, gamma, tol, collector, idx)
    return _report("sparr_lemma", count, collector, started,
                   {"gamma": gamma, "hypothesis_met": met}, scenario)


def verify_modular_lp_linf(phi: OrliczFunction, p: float, op: CertifiedOperator,
                           inputs: list[SampleFunction],
                           tolerances: dict | None = None,
                           scenario: dict | None = None) -> VerificationReport:
    """Modular contraction against the sharp truncation constant.

    Precondition (rejected, not failed): u -> phi(u^{1/p}) passes the
    convexity check.
    """
    started = time.perf_counter()
    tol = dict(specs.DEFAULT_TOLERANCES, **(tolerances or {}))
    cap = min(phi.u_max, 1e3) * 0.999
    psi_grid = np.linspace(0.0, cap**p, 2001)
    psi = check_convexity(lambda u: phi(u ** (1.0 / p)), psi_grid)
    if not psi.ok:
        raise ScenarioRejected(
            f"phi(u^(1/p)) fails convexity (worst second difference {psi.worst_second_difference:.3e})")
    constant = bergh_constant(p) * op.max_bound
    collector = _Collector(tol["violation_rel"], tol["abs_floor"])
    lhs = modular(phi, [op.apply(x).scaled(1.0 / constant) for x in inputs])
    rhs = modular(phi, inputs)
    for idx, x in enumerate(inputs):
        collector.check(lhs[idx], rhs[idx], None, idx, "modular_lp_linf", x.values)
    return _report("thm31a", len(inputs), collector, started,
                   {"constant": constant, "psi_convexity_margin": psi.worst_second_difference},
                   scenario)


def verify_modular_lp_lq(phi: OrliczFunction, couple: ExponentCouple,
                         op: CertifiedOperator, inputs: list[SampleFunction],
                         tolerances: dict | None = None,
                         scenario: dict | None = None) -> VerificationReport:
    """Modular comparison with the sharp two-piece-cost constant."""
    started = time.perf_counter()
    tol = dict(specs.DEFAULT_TOLERANCES, **(tolerances or {}))
    if phi.kind != "h":
        raise ScenarioRejected("the modular comparison needs the concave-h form of phi")
    gamma = sparr_gamma(couple.p, couple.q).value
    m = op.max_bound
    collector = _Collector(tol["violation_rel"], tol["abs_floor"])
    lhs = modular(phi, [op.apply(x).scaled(1.0 / m) for x in inputs])
    rhs = gamma * modular(phi, inputs)
    for idx, x in enumerate(inputs):
        collector.check(lhs[idx], rhs[idx], None, idx, "modular_lp_lq", x.values)
    return _report("thm46a", len(inputs), collector, started,
                   {"gamma": gamma, "certified_bound": m}, scenario)


# theorem tag of each norm scenario -> source of its interpolation constant
_NORM_SOURCES = {"thm31b_norm": "lp_linf", "thm46b_norm": "subadditive",
                 "remark_concave_h": "concave_h", "thm51_linear": "linear"}


def _norm_constant(source: str, couple: ExponentCouple, op: CertifiedOperator) -> float:
    if source not in _NORM_SOURCES.values():
        raise ValueError(f"unknown constant source {source!r}")
    if source == "lp_linf":
        if not couple.q_is_inf:
            raise ValueError("the truncation constant needs q = inf")
        return bergh_constant(couple.p)
    if couple.q_is_inf:
        raise ValueError(f"constant source {source!r} needs a finite couple")
    if source == "subadditive":
        return interp_constant_subadditive(couple.p, couple.q)
    if source == "concave_h":
        return interp_constant_concave_h(couple.p, couple.q)
    if op.kind != KIND_LINEAR:
        raise ValueError("the duality constant applies to linear operators only")
    return interp_constant_linear(couple.p, couple.q)


def verify_norm_interpolation(phi: OrliczFunction, couple: ExponentCouple,
                              op: CertifiedOperator, inputs: list[SampleFunction],
                              constant_source: str,
                              tolerances: dict | None = None,
                              scenario: dict | None = None) -> VerificationReport:
    """||Tx|| <= C * M * ||x|| in both the Luxemburg and Amemiya norms."""
    started = time.perf_counter()
    tol = dict(specs.DEFAULT_TOLERANCES, **(tolerances or {}))
    c = _norm_constant(constant_source, couple, op)
    cm = c * op.max_bound
    collector = _Collector(tol["norm_rel"], tol["abs_floor"])
    txs = [op.apply(x) for x in inputs]
    lux_t, lux_x = luxemburg_norm(phi, txs), luxemburg_norm(phi, inputs)
    am_t, am_x = amemiya_norm(phi, txs), amemiya_norm(phi, inputs)
    for idx, x in enumerate(inputs):
        collector.check(lux_t[idx], cm * lux_x[idx], None, idx, "luxemburg", x.values)
        collector.check(am_t[idx], cm * am_x[idx], None, idx, "amemiya", x.values)
    tag = next(t for t, source in _NORM_SOURCES.items() if source == constant_source)
    return _report(tag, len(inputs), collector, started,
                   {"constant": c, "certified_bound": op.max_bound,
                    "constant_source": constant_source}, scenario)


def _h_from_generator(phi: OrliczFunction, couple: ExponentCouple) -> tuple[QuasiConcaveFn, np.ndarray]:
    """Recover h with phi(u) = u^q h(u^{p-q}) from a generator-built phi.

    The s-grid is the image of a u-grid kept inside phi's tabulated domain.
    """
    p, q = couple.p, couple.q
    u_hi = min(phi.u_max * 0.99, 1e5)
    u_grid = np.exp(np.linspace(np.log(1e-5), np.log(u_hi), 4097))

    def h_eval(s):
        s = np.asarray(s, dtype=float)
        u = s ** (1.0 / (p - q))
        return phi(u) / u**q

    s_grid = np.sort(u_grid ** (p - q))
    return QuasiConcaveFn(h_eval, "from_generator"), s_grid


def chain_diagnostics(phi: OrliczFunction, couple: ExponentCouple,
                      op: CertifiedOperator, inputs: list[SampleFunction],
                      tolerances: dict | None = None,
                      scenario: dict | None = None) -> VerificationReport:
    """Link-by-link check of the majorant route behind the norm constant.

    With h recovered from phi, h~ its concave majorant, and psi the
    concave-h build on h~, the three links are
    modular_phi(Tx/M) <= modular_psi(Tx/M) <= gamma * modular_psi(x)
    <= 2 * gamma * modular_phi(x), each checked separately at the chain
    tolerance (the majorant is numerically derived, unlike the analytic
    constants of the main inequality).
    """
    started = time.perf_counter()
    tol = dict(specs.DEFAULT_TOLERANCES, **(tolerances or {}))
    if phi.kind != "generator" or couple.q_is_inf:
        raise ScenarioRejected("chain diagnostics need a generator-built phi with finite q")
    h_fn, s_grid = _h_from_generator(phi, couple)
    h_major = concave_majorant(h_fn, grid=s_grid, rtol=1e-6, extend_decades=0.0)
    psi = build_from_h(couple, h_major)
    gamma = sparr_gamma(couple.p, couple.q).value
    m = op.max_bound
    collector = _Collector(tol["chain_rel"], tol["chain_abs_floor"])
    txs = [op.apply(x).scaled(1.0 / m) for x in inputs]
    phi_tx, psi_tx = modular(phi, txs), modular(psi, txs)
    gamma_psi_x, two_gamma_phi_x = gamma * modular(psi, inputs), 2.0 * gamma * modular(phi, inputs)
    for idx, x in enumerate(inputs):
        collector.check(phi_tx[idx], psi_tx[idx], None, idx, "link1_phi_le_psi", x.values)
        collector.check(psi_tx[idx], gamma_psi_x[idx], None, idx, "link2_psi_contraction", x.values)
        collector.check(gamma_psi_x[idx], two_gamma_phi_x[idx], None, idx, "link3_psi_le_2phi", x.values)
    return _report("thm46b_norm", len(inputs), collector, started,
                   {"gamma": gamma, "mode": "chain_diagnostics",
                    "majorant_knots": int(h_major.knots.size)}, scenario)


def _map(fn, items, jobs: int):
    items = list(items)
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_scenario(raw_scenario: dict, jobs: int = 1) -> dict:
    """Normalize, dispatch, and run one scenario; returns the report dict."""
    scenario, space, couple, phi, op = specs.resolve_scenario(raw_scenario)
    tol = scenario["tolerances"]
    theorem = scenario["theorem"]
    if op is not None and scenario["fault"] and scenario["fault"].get("halve_certificate"):
        op = op.with_bounds(op.bound_p / 2.0, op.bound_q / 2.0, "fault: halved certificate")
    ts = specs.t_grid_points(scenario["t_grid"]) if scenario["t_grid"] is not None else None
    ins = scenario["inputs"]

    if theorem == "sparr_lemma":
        if ts is None:
            raise specs.SpecError("sparr_lemma needs a t_grid")
        report = verify_sparr_batch(space, couple, ins["count"], ts, ins["scale"],
                                    scenario["seed"], tol, scenario)
        return report.to_dict()

    inputs = generate_inputs(space, ins["count"], ins["distribution"], ins["scale"],
                             scenario["seed"])
    if theorem == "prop22":
        if op is None or ts is None:
            raise specs.SpecError("prop22 needs an operator and a t_grid")
        return verify_k_contraction(op, inputs, ts, tol, scenario, jobs).to_dict()
    if op is None or phi is None:
        raise specs.SpecError(f"{theorem} needs an operator and a phi")
    if theorem == "thm31a":
        report = verify_modular_lp_linf(phi, couple.p, op, inputs, tol, scenario)
    elif theorem == "thm46a":
        report = verify_modular_lp_lq(phi, couple, op, inputs, tol, scenario)
    elif theorem in _NORM_SOURCES:
        report = verify_norm_interpolation(phi, couple, op, inputs, _NORM_SOURCES[theorem],
                                           tol, scenario)
        if theorem == "thm46b_norm" and scenario["diagnostics"]:
            chain = chain_diagnostics(phi, couple, op, inputs, tol, scenario)
            report.violations.extend(chain.violations)
            report.details["chain"] = chain.details
            report.status = "pass" if not report.violations else "fail"
    else:
        raise specs.SpecError(f"no runner for theorem tag {theorem!r}")
    return report.to_dict()
