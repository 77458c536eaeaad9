"""Scenario engine that checks the interpolation inequalities numerically.

A scenario names a theorem tag, a couple, a seeded input batch, named
tolerances and the sections `specs.THEOREMS` says its tag takes (anything
else is rejected); `RUNNERS` maps the tag to its verifier. The report lists
every violation (parameter, input index, both sides, relative margin,
witness values); a failed precondition, such as inputs beyond phi's domain,
raises `ScenarioRejected` instead. Reports are deterministic given the
seed; wall time is the only field that varies between runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import specs
from .constants import bergh_constant, interp_constant_concave_h, interp_constant_linear, \
    interp_constant_subadditive, sparr_gamma
from .kfunc import k_lp_linf_grid, l_functional_grid, l_star_grid
from .measure import SampleBatch, SampleFunction
from .operators import KIND_LINEAR, CertifiedOperator
from .orlicz import (
    DomainOverflowError,
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
        return dict(vars(self), witness=list(self.witness))


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
    """One verifier run: merged tolerances, start time, and a relative
    violation test (named tolerances) with an absolute fallback at rhs = 0."""

    def __init__(self, tolerances: dict | None, rel: str = "violation_rel",
                 floor: str = "abs_floor"):
        self.started = time.perf_counter()
        self.tol = dict(specs.DEFAULT_TOLERANCES, **(tolerances or {}))
        self.rel = self.tol[rel]
        self.abs_floor = self.tol[floor]
        self.violations: list[Violation] = []

    def check(self, lhs, rhs, tag: str, witness, ts=None, index=None) -> None:
        """lhs <= rhs: one value or one row (a column per t in ts) per input,
        with each input's witness values and index (0, 1, ... by default).
        A side that is not finite cannot be checked, so it rejects the scenario."""
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
            raise ScenarioRejected(f"check {tag!r} has a side that is not finite; "
                                   "inputs.scale is too large for it")
        bad = lhs > rhs + self.rel * np.abs(rhs) + self.abs_floor
        for at in map(tuple, np.argwhere(bad)):
            row = at[0]
            margin = (lhs[at] - rhs[at]) / max(abs(rhs[at]), self.abs_floor)
            self.violations.append(Violation(
                None if ts is None else float(ts[at[1]]),
                int(row if index is None else index[row]), float(lhs[at]), float(rhs[at]),
                float(margin), tag, tuple(float(v) for v in witness[row])))

    def report(self, tag: str, trials: int, details: dict,
               scenario: dict | None = None) -> VerificationReport:
        return VerificationReport(
            scenario=scenario if scenario is not None else {"theorem": tag, "inline": True},
            status="pass" if not self.violations else "fail",
            trials=trials,
            violations=self.violations,
            wall_ms=(time.perf_counter() - self.started) * 1000.0,
            details=details,
        )


@contextmanager
def _draws(scale: float, *out: np.ndarray):
    """Fill the arrays `out` with input draws at `inputs.scale`; a draw that
    overflows or leaves a value that is not finite rejects the scenario."""
    problem = f"inputs.scale = {scale:g} is too large for the input draws"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except OverflowError as exc:
        raise ScenarioRejected(f"{problem}: {exc}") from None
    if not all(np.all(np.isfinite(a)) for a in out):
        raise ScenarioRejected(f"{problem}: a drawn value is not finite")


def generate_inputs(space, count: int, distribution: str = "mixed",
                    scale: float = 1.0, seed: int = 0) -> list[SampleFunction]:
    """Seeded input batch; the seed splits per index, so batches are stable
    under any evaluation order."""
    children = np.random.SeedSequence(seed).spawn(count)
    mixes = {
        "mixed": ("uniform", "lognormal", "spikes", "constant"),
        "bounded": ("uniform", "spikes", "constant"),
    }
    n = space.n
    out = np.zeros((count, n))
    with _draws(scale, out):
        for i in range(count):
            rng = np.random.default_rng(children[i])
            kind = distribution
            if distribution in mixes:
                kind = mixes[distribution][i % len(mixes[distribution])]
            if kind == "uniform":
                out[i] = rng.uniform(-scale, scale, n)
            elif kind == "lognormal":
                out[i] = rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(0.0, 1.0, n)) * scale
            elif kind == "spikes":
                support = rng.choice(n, size=rng.integers(1, max(2, n // 3 + 1)), replace=False)
                out[i, support] = rng.choice([-1.0, 1.0], support.size) * rng.uniform(0.25, 1.0, support.size) * scale
            elif kind == "constant":
                out[i] = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.2, 1.0)) * scale
            else:
                raise specs.SpecError(f"unknown input distribution {kind!r}")
    return [SampleFunction(space, v) for v in out]


def _couple_k_grid(ts: np.ndarray, x: SampleBatch, couple: ExponentCouple) -> np.ndarray:
    if couple.q_is_inf:
        return k_lp_linf_grid(ts, x, couple.p)
    return l_functional_grid(ts, x, couple.p, couple.q)


def verify_k_contraction(op: CertifiedOperator, inputs: list[SampleFunction],
                         t_grid, tolerances: dict | None = None,
                         scenario: dict | None = None) -> VerificationReport:
    """K_{p,q}(t, Tx/M) <= K_{p,q}(t, x) on every input and grid parameter."""
    collector = _Collector(tolerances)
    ts = np.asarray(t_grid, dtype=float)
    xs = SampleBatch.stack(inputs)
    scale = 1.0 / op.max_bound
    txs = SampleBatch(xs.space, [op.apply(x).values * scale for x in inputs])
    collector.check(_couple_k_grid(ts, txs, op.couple), _couple_k_grid(ts, xs, op.couple),
                    "k_contraction", xs.values, ts)
    return collector.report("prop22", len(inputs), {"certified_bound": op.max_bound}, scenario)


def _sparr_pairs(xs: SampleBatch, ys: SampleBatch, couple: ExponentCouple,
                 ts: np.ndarray, gamma: float, collector: _Collector) -> int:
    """Check the conclusion on the pairs (xs[i], ys[i]) that meet the
    K-majorization hypothesis; returns how many do."""
    p, q, tol = couple.p, couple.q, collector.tol
    kx, ky = l_functional_grid(ts, xs, p, q), l_functional_grid(ts, ys, p, q)
    met = np.flatnonzero(np.all(
        kx <= ky + tol["hypothesis_slack"] * np.abs(ky) + tol["abs_floor"], axis=1))
    xm, ym = xs[met], ys[met]
    collector.check(l_star_grid(ts, xm, p, q), gamma * l_star_grid(ts, ym, p, q),
                    "sparr_conclusion", np.hstack((xm.values, ym.values)), ts, met)
    return met.size


def verify_sparr_implication(x: SampleFunction, y: SampleFunction,
                             couple: ExponentCouple, t_grid,
                             tolerances: dict | None = None,
                             scenario: dict | None = None) -> VerificationReport:
    """K-majorization of the pair implies the pointwise-minimum comparison
    with the sharp constant; neutral (pass, hypothesis_met=0) otherwise."""
    collector = _Collector(tolerances)
    if couple.q_is_inf:
        raise ValueError("the implication needs a finite couple")
    gamma = sparr_gamma(couple.p, couple.q).value
    met = _sparr_pairs(SampleBatch.stack([x]), SampleBatch.stack([y]), couple, np.asarray(t_grid, dtype=float), gamma, collector)
    return collector.report("sparr_lemma", 1, {"gamma": gamma, "hypothesis_met": met},
                            scenario)


def _pair_batch(space, count: int, scale: float, seed: int) -> tuple[SampleBatch, SampleBatch]:
    """Pairs (xs[i], ys[i]) biased toward satisfying the K-majorization hypothesis.

    Cycles: atomwise damping of a random y; damped permutation of y
    (equimeasurable on uniform weights); an independent pair, kept only if
    the grid hypothesis later holds; and x = y / (1 + |u|) scalings.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    n = space.n
    xs, ys = np.empty((count, n)), np.empty((count, n))
    with _draws(scale, xs, ys):
        for i in range(count):
            rng = np.random.default_rng(children[i])
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
            xs[i], ys[i] = x_vals, y_vals
    return SampleBatch(space, xs), SampleBatch(space, ys)


def verify_sparr_batch(space, couple: ExponentCouple, count: int, t_grid,
                       scale: float = 1.0, seed: int = 0,
                       tolerances: dict | None = None,
                       scenario: dict | None = None) -> VerificationReport:
    """Run the implication over a seeded pair batch; neutral pairs are
    counted but never failed."""
    collector = _Collector(tolerances)
    gamma = sparr_gamma(couple.p, couple.q).value
    xs, ys = _pair_batch(space, count, scale, seed)
    met = _sparr_pairs(xs, ys, couple, np.asarray(t_grid, dtype=float), gamma, collector)
    return collector.report("sparr_lemma", count, {"gamma": gamma, "hypothesis_met": met},
                            scenario)


def verify_modular_lp_linf(phi: OrliczFunction, p: float, op: CertifiedOperator,
                           inputs: list[SampleFunction],
                           tolerances: dict | None = None,
                           scenario: dict | None = None) -> VerificationReport:
    """Modular contraction against the sharp truncation constant.

    Precondition (rejected, not failed): u -> phi(u^{1/p}) passes the
    convexity check.
    """
    collector = _Collector(tolerances)
    cap = min(phi.u_max, 1e3) * 0.999
    psi_grid = np.linspace(0.0, cap**p, 2001)
    psi = check_convexity(lambda u: phi(u ** (1.0 / p)), psi_grid)
    if not psi.ok:
        raise ScenarioRejected(
            f"phi(u^(1/p)) fails convexity (worst second difference {psi.worst_second_difference:.3e})")
    constant = bergh_constant(p) * op.max_bound
    lhs = modular(phi, [op.apply(x).scaled(1.0 / constant) for x in inputs])
    collector.check(lhs, modular(phi, inputs), "modular_lp_linf", [x.values for x in inputs])
    return collector.report("thm31a", len(inputs), {
        "constant": constant, "psi_convexity_margin": psi.worst_second_difference}, scenario)


def verify_modular_lp_lq(phi: OrliczFunction, couple: ExponentCouple,
                         op: CertifiedOperator, inputs: list[SampleFunction],
                         tolerances: dict | None = None,
                         scenario: dict | None = None) -> VerificationReport:
    """Modular comparison with the sharp two-piece-cost constant."""
    collector = _Collector(tolerances)
    if phi.kind != "h":
        raise ScenarioRejected("the modular comparison needs the concave-h form of phi")
    gamma = sparr_gamma(couple.p, couple.q).value
    m = op.max_bound
    lhs = modular(phi, [op.apply(x).scaled(1.0 / m) for x in inputs])
    collector.check(lhs, gamma * modular(phi, inputs), "modular_lp_lq",
                    [x.values for x in inputs])
    return collector.report("thm46a", len(inputs), {"gamma": gamma, "certified_bound": m},
                            scenario)


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
    collector = _Collector(tolerances, "norm_rel")
    c = _norm_constant(constant_source, couple, op)
    cm = c * op.max_bound
    txs = [op.apply(x) for x in inputs]
    lux_t, lux_x = luxemburg_norm(phi, txs), luxemburg_norm(phi, inputs)
    am_t, am_x = amemiya_norm(phi, txs), amemiya_norm(phi, inputs)
    witness = [x.values for x in inputs]
    collector.check(lux_t, cm * lux_x, "luxemburg", witness)
    collector.check(am_t, cm * am_x, "amemiya", witness)
    tag = next(t for t, source in _NORM_SOURCES.items() if source == constant_source)
    return collector.report(tag, len(inputs), {"constant": c, "certified_bound": op.max_bound,
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
    collector = _Collector(tolerances, "chain_rel", "chain_abs_floor")
    if phi.kind != "generator" or couple.q_is_inf:
        raise ScenarioRejected("chain diagnostics need a generator-built phi with finite q")
    h_fn, s_grid = _h_from_generator(phi, couple)
    h_major = concave_majorant(h_fn, grid=s_grid, rtol=1e-6, extend_decades=0.0)
    psi = build_from_h(couple, h_major)
    gamma = sparr_gamma(couple.p, couple.q).value
    m = op.max_bound
    txs = [op.apply(x).scaled(1.0 / m) for x in inputs]
    phi_tx, psi_tx = modular(phi, txs), modular(psi, txs)
    gamma_psi_x, two_gamma_phi_x = gamma * modular(psi, inputs), 2.0 * gamma * modular(phi, inputs)
    witness = [x.values for x in inputs]
    collector.check(phi_tx, psi_tx, "link1_phi_le_psi", witness)
    collector.check(psi_tx, gamma_psi_x, "link2_psi_contraction", witness)
    collector.check(gamma_psi_x, two_gamma_phi_x, "link3_psi_le_2phi", witness)
    return collector.report("thm46b_norm", len(inputs), {
        "gamma": gamma, "mode": "chain_diagnostics", "majorant_knots": int(h_major.knots.size)},
        scenario)


def _inputs(s: dict, space) -> list[SampleFunction]:
    ins = s["inputs"]
    return generate_inputs(space, ins["count"], ins["distribution"], ins["scale"], s["seed"])


def _run_prop22(s, space, couple, phi, op) -> VerificationReport:
    return verify_k_contraction(op, _inputs(s, space), specs.t_grid_points(s["t_grid"]),
                                s["tolerances"], s)


def _run_sparr(s, space, couple, phi, op) -> VerificationReport:
    ins = s["inputs"]
    return verify_sparr_batch(space, couple, ins["count"], specs.t_grid_points(s["t_grid"]),
                              ins["scale"], s["seed"], s["tolerances"], s)


def _run_thm31a(s, space, couple, phi, op) -> VerificationReport:
    return verify_modular_lp_linf(phi, couple.p, op, _inputs(s, space), s["tolerances"], s)


def _run_thm46a(s, space, couple, phi, op) -> VerificationReport:
    return verify_modular_lp_lq(phi, couple, op, _inputs(s, space), s["tolerances"], s)


def _norm_runner(source: str):
    def run(s, space, couple, phi, op) -> VerificationReport:
        inputs = _inputs(s, space)
        report = verify_norm_interpolation(phi, couple, op, inputs, source, s["tolerances"], s)
        if s["diagnostics"]:
            chain = chain_diagnostics(phi, couple, op, inputs, s["tolerances"], s)
            report.violations.extend(chain.violations)
            report.details["chain"] = chain.details
            report.status = "pass" if not report.violations else "fail"
        return report
    return run


# theorem tag -> runner; specs.THEOREMS has checked the sections each runner reads
RUNNERS = {
    "prop22": _run_prop22,
    "sparr_lemma": _run_sparr,
    "thm31a": _run_thm31a,
    "thm46a": _run_thm46a,
    **{tag: _norm_runner(source) for tag, source in _NORM_SOURCES.items()},
}
if RUNNERS.keys() != specs.THEOREMS.keys():
    raise RuntimeError("verify.RUNNERS and specs.THEOREMS name different theorem tags")


def run_scenario(raw_scenario: dict, jobs: int = 1) -> dict:
    """Validate one scenario, run its theorem's verifier, return the report dict.

    `jobs` is ignored; it stays only because perfbench/worker.py passes jobs=1.
    """
    scenario, space, couple, phi, op = specs.resolve_scenario(raw_scenario)
    if scenario["fault"] and scenario["fault"]["halve_certificate"]:
        op = op.with_bounds(op.bound_p / 2.0, op.bound_q / 2.0, "fault: halved certificate")
    try:
        report = RUNNERS[scenario["theorem"]](scenario, space, couple, phi, op)
    except DomainOverflowError as exc:
        raise ScenarioRejected(
            f"generated inputs leave phi's domain, u_max = {phi.u_max:g}: {exc}") from None
    return report.to_dict()
