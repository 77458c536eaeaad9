"""Scenario engine that checks the interpolation inequalities numerically.

A scenario names a theorem tag, a couple, a seeded input batch and the
sections `specs.THEOREMS` says its tag takes (anything else is rejected);
`RUNNERS` maps the tag to its verifier, and every check passes or fails by
the fixed thresholds and t-grids below, which no scenario sets. Each
verifier returns the report as a dict: its status, its 200 widest
violations (parameter, input index, both sides, relative margin, witness
values) and a count of all of them; a failed precondition, such as inputs
beyond phi's domain, raises `ScenarioRejected` instead. Reports are
deterministic given the seed; wall time is the only field that varies
between runs.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import draws, specs
from .constants import NORM_CONSTANTS, bergh_constant, sparr_gamma
from .kfunc import k_lp_linf_grid, l_functional_grid, l_star_grid
from .measure import NonFiniteError, SampleBatch
from .operators import CertifiedOperator
from .orlicz import (
    DomainOverflowError,
    ExponentCouple,
    OrliczFunction,
    amemiya_norm,
    build_from_h,
    check_convexity,
    luxemburg_norm,
    modular,
    norm_start,
)
from .quasiconcave import concave_majorant


class ScenarioRejected(RuntimeError):
    """A theorem precondition failed; the scenario is invalid, not falsified."""


# Pass thresholds. A check lhs <= rhs fails where lhs > rhs + rel * |rhs| +
# floor. They are constants, not scenario settings, so that no scenario can
# loosen its own check into a pass or tighten a true one into a fail.
# The main inequalities: each side is a K-, L- or L*-functional or a modular,
# computed to a few ulps per atom, far below 1e-9 relative; a true break,
# such as a halved certificate, exceeds it by orders of magnitude.
VIOLATION_REL = 1e-9
# The norms are the ends of 1-D searches: the Luxemburg bracket stops at
# 1e-10 relative width and the Amemiya search at a 1e-9 step in log k.
NORM_REL = 1e-8
# The chain's psi is built on a concave majorant of h sampled on a 4,097-point
# grid, so its links carry the majorant's interpolation error as well.
CHAIN_REL = 1e-6
# Where rhs is 0 (a zero input, or Tx = 0) only the floor is left; it also
# bounds the margin's denominator. The chain's is wider, as CHAIN_REL is.
ABS_FLOOR = 1e-12
CHAIN_ABS_FLOOR = 1e-9
# A sparr pair meets the K-majorization hypothesis when L(t, x) <= L(t, y)
# within this slack (and ABS_FLOOR) at every t: it admits only pairs whose
# L-functionals tie to rounding, not pairs that break the hypothesis.
HYPOTHESIS_SLACK = 1e-12
# The t's at which prop22 compares K-functionals and sparr_lemma decides its
# hypothesis and checks its conclusion. They are constants too: the lemma's
# hypothesis is L(t, x) <= L(t, y) for all t > 0, which a grid only samples,
# so a scenario that picked its own t's could flip its own verdict.
K_T_GRID = np.logspace(-3, 3, 20)
SPARR_T_GRID = np.logspace(-6, 6, 64)
K_T_GRID.flags.writeable = SPARR_T_GRID.flags.writeable = False


class _Collector:
    """One verifier run: start time, and the violations of its checks, each a
    relative test with an absolute fallback at rhs = 0."""

    def __init__(self):
        self.started = time.perf_counter()
        self.violations: list[dict] = []

    def check(self, lhs, rhs, tag: str, witness, ts=None, index=None,
              rel: float | None = None, abs_floor: float | None = None) -> None:
        """lhs <= rhs to the thresholds rel and abs_floor (by default
        VIOLATION_REL and ABS_FLOOR as they are at the call): one value or one
        row (a column per t in ts) per input, with each input's witness values
        and index (0, 1, ... by default). A side that is not finite cannot be
        checked, so it rejects the scenario. Each violation is kept as the
        dict the report lists, with Python floats and ints."""
        rel = VIOLATION_REL if rel is None else rel
        abs_floor = ABS_FLOOR if abs_floor is None else abs_floor
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
            raise ScenarioRejected(f"check {tag!r} has a side that is not finite; "
                                   "inputs.scale is too large for it")
        bad = lhs > rhs + rel * np.abs(rhs) + abs_floor
        if not bad.any():
            return
        # the violations in row-major order, each field read out as one column
        at = np.nonzero(bad)
        rows = at[0]
        left, right = lhs[bad], rhs[bad]
        margins = (left - right) / np.maximum(np.abs(right), abs_floor)
        t_col = [None] * rows.size if ts is None else np.asarray(ts, dtype=float)[at[1]].tolist()
        index_col = (rows if index is None else np.asarray(index)[rows]).tolist()
        witness_col = np.asarray(witness, dtype=float)[rows].tolist()
        self.violations += [
            {"t": t, "input_index": i, "lhs": lv, "rhs": rv, "margin": mv, "check": tag,
             "witness": wv}
            for t, i, lv, rv, mv, wv in zip(t_col, index_col, left.tolist(), right.tolist(),
                                            margins.tolist(), witness_col)]

    def report(self, tag: str, trials: int, details: dict) -> dict:
        """The report: the 200 widest violations, widest first (ties by input
        index, then t), and `details.violation_count` counting all of them.
        Its scenario is `{"theorem": tag, "inline": True}`, which
        `run_scenario` replaces with the scenario it ran."""
        ordered = sorted(self.violations,
                         key=lambda v: (-v["margin"], v["input_index"], v["t"] or 0.0))
        return {
            "scenario": {"theorem": tag, "inline": True},
            "status": "pass" if not self.violations else "fail",
            "trials": trials,
            "violations": ordered[:200],
            "wall_ms": (time.perf_counter() - self.started) * 1000.0,
            "details": dict(details, violation_count=len(self.violations)),
        }


@contextmanager
def _draws(scale: float):
    """Draw inputs at `inputs.scale` and make their batches in this block: a
    draw that overflows, or a batch that `SampleBatch` finds holding a value
    that is not finite, rejects the scenario."""
    problem = f"inputs.scale = {scale:g} is too large for the input draws"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except OverflowError as exc:
        raise ScenarioRejected(f"{problem}: {exc}") from None
    except NonFiniteError:
        raise ScenarioRejected(f"{problem}: a drawn value is not finite") from None


_SIGNS = np.array([-1.0, 1.0])

# the kinds a mix cycles through, input i taking kind i % len(mix)
_MIXES = {
    "mixed": ("uniform", "lognormal", "spikes", "constant"),
    "bounded": ("uniform", "spikes", "constant"),
}


def generate_inputs(space, count: int, distribution: str = "mixed",
                    scale: float = 1.0, seed: int = 0) -> SampleBatch:
    """Seeded input batch: input i is exactly what NumPy's
    `default_rng(SeedSequence(seed).spawn(count)[i])` draws, so it depends
    only on (seed, i, n, distribution, scale) and batches are stable under
    any count and evaluation order.

    Each row is read off its generator's raw PCG64 words by NumPy's own
    readings of them: uniform(lo, hi, m) is lo + (hi - lo) * (w >> 11) *
    2^-53 per word w (`draws.uniform`); integers(0, 2, m) is bit 31 of
    successive 32-bit halves, the low half of each word first
    (`draws.halves`); and normal(0, 1, m) is 0.0 + standard_normal(m), which
    a lognormal row draws after its signs. `draws.child_seeds` gives every
    child's PCG64 seed at once. A batch of at least `draws.JUMP_ROWS` inputs
    on at most `draws.JUMP_ATOMS` atoms reads the words of its uniform,
    constant and spikes rows by one jump-ahead per kind over the whole batch
    (`draws.jumped_words`), and takes a spikes row's size, support and
    shuffle as Lemire draws on those words' halves (`draws.spikes`). The
    other rows go through NumPy's calls, on one Generator set to each row's
    seeded state in turn: every lognormal row (`random_raw` for its signs,
    then `standard_normal`); a spikes row whose Lemire draws meet a
    rejection (`integers` and `choice`, which keep their rejections and
    shuffle NumPy's, then `random_raw`); and in a smaller batch or on more
    atoms, every row. The arithmetic on the words runs once per kind for the
    whole batch. A sign s = -1 or 1 times a magnitude m times the scale is
    m * (s * scale), bit for bit, as the product of m and -scale is minus
    that of m and scale.
    """
    kinds = _MIXES.get(distribution, (distribution,))
    if count and not set(kinds) <= set(_MIXES["mixed"]):   # which has every kind
        raise specs.SpecError(f"unknown input distribution {distribution!r}")
    n, period = space.n, len(kinds)
    seeds = draws.child_seeds(seed, count)
    jumped = count >= draws.JUMP_ROWS and n <= draws.JUMP_ATOMS
    rng = np.random.Generator(np.random.PCG64(0))   # set to each row's state in turn
    out = np.zeros((count, n))
    signed = np.array([-scale, scale])   # the scale with each sign, by a sign bit
    with _draws(scale):
        for start, kind in enumerate(kinds[:count]):
            rows, at = out[start::period], seeds[:, start::period]
            if kind == "uniform":
                rows[:] = draws.uniform(-scale, scale, draws.words_of(rng, at, n, jumped))
            elif kind == "lognormal":
                signs, normals = [], []
                for g in draws.in_states(rng, at):
                    signs.append(g.bit_generator.random_raw((n + 1) // 2))
                    normals.append(g.standard_normal(n))
                # exp(0.0 + z) is exp(z): they differ only at z = -0.0
                bits = draws.halves(np.array(signs))[:, :n] >> 31
                rows[:] = np.exp(np.array(normals)) * signed[bits]
            elif kind == "spikes":
                draws.spikes(rows, rng, at, signed, jumped)
            else:
                pair = draws.words_of(rng, at, 2, jumped)
                signs = signed[draws.halves(pair)[:, 0] >> 31]
                rows[:] = (draws.uniform(0.2, 1.0, pair[:, 1]) * signs)[:, None]
        return SampleBatch(space, out)


def _stack(top: SampleBatch, bottom: SampleBatch) -> SampleBatch:
    """The members of top, then those of bottom, as one batch: the K-, L-
    and L*-functionals, the norms and the modular treat each member on its
    own, so each row of a result is bitwise the row of a call on its own
    batch, at one call's fixed cost and, for the norms, half the passes of
    phi."""
    return SampleBatch(bottom.space, np.vstack((top.values, bottom.values)))


def _couple_k_grid(ts: np.ndarray, x: SampleBatch, couple: ExponentCouple) -> np.ndarray:
    if couple.q_is_inf:
        return k_lp_linf_grid(ts, x, couple.p)
    return l_functional_grid(ts, x, couple.p, couple.q)


def verify_k_contraction(op: CertifiedOperator, inputs: SampleBatch) -> dict:
    """K_{p,q}(t, Tx/M) <= K_{p,q}(t, x) on every input and every t of K_T_GRID."""
    collector = _Collector()
    ts, count = K_T_GRID, len(inputs)
    both = _couple_k_grid(ts, _stack(op.apply(inputs).scaled(1.0 / op.max_bound), inputs),
                          op.couple)
    collector.check(both[:count], both[count:], "k_contraction", inputs.values, ts)
    return collector.report("prop22", count, {"certified_bound": op.max_bound})


def _sparr_pairs(xs: SampleBatch, ys: SampleBatch, couple: ExponentCouple,
                 ts: np.ndarray, gamma: float, collector: _Collector) -> int:
    """Check the conclusion on the pairs (xs[i], ys[i]) that meet the
    K-majorization hypothesis; returns how many do."""
    p, q, count = couple.p, couple.q, len(xs)
    both = _stack(xs, ys)
    l_both = l_functional_grid(ts, both, p, q)
    kx, ky = l_both[:count], l_both[count:]
    met = np.flatnonzero(np.all(kx <= ky + HYPOTHESIS_SLACK * np.abs(ky) + ABS_FLOOR, axis=1))
    star = l_star_grid(ts, both[np.concatenate((met, count + met))], p, q)
    with np.errstate(over="ignore"):   # a side beyond the float range is inf, which rejects
        collector.check(star[:met.size], gamma * star[met.size:], "sparr_conclusion",
                        np.hstack((xs.values[met], ys.values[met])), ts, met)
    return met.size


def _pair_batch(space, count: int, scale: float, seed: int) -> tuple[SampleBatch, SampleBatch]:
    """Pairs (xs[i], ys[i]) biased toward satisfying the K-majorization hypothesis.

    Cycles: atomwise damping of a random y; damped permutation of y
    (equimeasurable on uniform weights); an independent pair, kept only if
    the grid hypothesis later holds; and x = y / (1 + |u|) scalings. Pair i
    is drawn from NumPy's PCG64 seeded by child i of
    `np.random.SeedSequence(seed)`, so it depends only on (seed, i, n,
    scale) and the first rows do not change with the count.
    """
    n = space.n
    xs, ys = np.empty((count, n)), np.empty((count, n))
    generators = draws.in_states(np.random.Generator(np.random.PCG64(0)),
                                 draws.child_seeds(seed, count))
    with _draws(scale):
        for i, rng in enumerate(generators):
            y_vals = _SIGNS[rng.integers(0, 2, n)] * np.exp(rng.normal(0.0, 0.8, n)) * scale
            mode = i % 4
            if mode == 0:
                x_vals = rng.random(n) * y_vals
            elif mode == 1:
                x_vals = (rng.uniform(0.3, 1.0) * np.abs(y_vals))[rng.permutation(n)]
            elif mode == 2:
                x_vals = rng.uniform(-2.0 * scale, 2.0 * scale, n)
            else:
                x_vals = y_vals / float(1.0 + np.abs(rng.normal(0.0, 1.0)))
            xs[i], ys[i] = x_vals, y_vals
        return SampleBatch(space, xs), SampleBatch(space, ys)


def verify_sparr_batch(space, couple: ExponentCouple, count: int, scale: float = 1.0,
                       seed: int = 0) -> dict:
    """Run the implication over a seeded pair batch on SPARR_T_GRID; neutral
    pairs are counted but never failed."""
    collector = _Collector()
    gamma = sparr_gamma(couple.p, couple.q)
    xs, ys = _pair_batch(space, count, scale, seed)
    met = _sparr_pairs(xs, ys, couple, SPARR_T_GRID, gamma, collector)
    return collector.report("sparr_lemma", count, {"gamma": gamma, "hypothesis_met": met})


def verify_modular_lp_linf(phi: OrliczFunction, p: float, op: CertifiedOperator,
                           inputs: SampleBatch) -> dict:
    """Modular contraction against the sharp truncation constant.

    Precondition (rejected, not failed): u -> phi(u^{1/p}) is convex, which
    `check_convexity` reads off phi's build: a power u^r with r >= p, or a
    generator build of exponent at least p.
    """
    if not check_convexity(phi, p):
        raise ScenarioRejected(f"phi(u^(1/p)) is not convex by construction: a {phi.kind} "
                               f"phi of exponent {phi.p} at p = {p:g}")
    collector = _Collector()
    constant = bergh_constant(p) * op.max_bound
    lhs = modular(phi, op.apply(inputs).scaled(1.0 / constant))
    collector.check(lhs, modular(phi, inputs), "modular_lp_linf", inputs.values)
    return collector.report("thm31a", len(inputs), {"constant": constant})


def _require_h_form(phi: OrliczFunction, tag: str) -> None:
    # gamma and gamma^{1/p} hold only for phi(u) = u^q h(u^{p-q}) with h concave
    if phi.kind != "h":
        raise ScenarioRejected(f"{tag} needs the concave-h form of phi")


def verify_modular_lp_lq(phi: OrliczFunction, couple: ExponentCouple,
                         op: CertifiedOperator, inputs: SampleBatch) -> dict:
    """Modular comparison with the sharp two-piece-cost constant."""
    collector = _Collector()
    _require_h_form(phi, "thm46a")
    gamma = sparr_gamma(couple.p, couple.q)
    m = op.max_bound
    lhs = modular(phi, op.apply(inputs).scaled(1.0 / m))
    collector.check(lhs, gamma * modular(phi, inputs), "modular_lp_lq", inputs.values)
    return collector.report("thm46a", len(inputs), {"gamma": gamma, "certified_bound": m})


_CHAIN_LOG_SPAN = 700.0   # |log| of the largest u^q and s = u^(p-q) on the chain's grid


def _h_from_generator(phi: OrliczFunction, couple: ExponentCouple) -> tuple[np.ndarray, np.ndarray]:
    """Rows 0 and 1 of the jet of h with phi(u) = u^q h(u^{p-q}), (h, s*h'),
    read off the jet of a generator-built phi with finite q on an s-grid, and
    that grid: the image of u in [1e-5, 1e5] inside phi's domain and inside
    |log u| <= _CHAIN_LOG_SPAN / q, so that u^q and s stay finite and normal
    for every q <= 64 (the span binds only above q = 60.8). Where the build
    makes phi 0 (below e^-LOG_U_RANGE), h is 0 and s*h' is nan.

    With s = u^{p-q}, k = 1/(p-q) and eta = u*phi'/phi, s*h'/h = k*(eta - q),
    which lies in [0, 1] since eta lies in [p, q]."""
    p, q = couple.p, couple.q
    k = 1.0 / (p - q)
    span = _CHAIN_LOG_SPAN / q
    u_grid = np.exp(np.linspace(max(np.log(1e-5), -span),
                                min(np.log(min(0.99 * phi.u_max, 1e5)), span), 4097))
    s_grid = np.sort(u_grid ** (p - q))
    u = s_grid ** k
    f0, f1, _ = phi.jet(u)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 where phi is 0
        h, eta = f0 / u**q, f1 / f0
    return np.stack((h, h * (k * (eta - q)))), s_grid


@functools.lru_cache(maxsize=specs.PHI_CACHE_SIZE)
def _majorant_psi(phi: OrliczFunction, couple: ExponentCouple) -> tuple[OrliczFunction, int]:
    """The concave-h build on the concave majorant of phi's h, and the
    majorant's knot count, made once per (phi, couple); a shared phi hashes
    by identity. The majorant is taken where phi > 0, on the one evaluation
    of h's jet that also gives its lines."""
    rows, s_grid = _h_from_generator(phi, couple)
    keep = rows[0] > 0.0
    majorant = concave_majorant(lambda s: rows[:, keep], grid=s_grid[keep], extend_decades=0.0)
    return build_from_h(couple, majorant), int(majorant.knots.size)


def _check_chain(phi: OrliczFunction, couple: ExponentCouple, inputs: SampleBatch,
                 txs: SampleBatch, collector: _Collector) -> dict:
    """Link-by-link check of the majorant route behind the subadditive constant.

    With h recovered from phi, h~ its concave majorant, and psi the
    concave-h build on h~, the three links are
    modular_phi(Tx/M) <= modular_psi(Tx/M) <= gamma * modular_psi(x)
    <= 2 * gamma * modular_phi(x), each checked separately at the chain
    thresholds (the majorant is numerically derived, unlike the analytic
    constants of the main inequality); txs is Tx/M.
    """
    psi, knots = _majorant_psi(phi, couple)
    gamma = sparr_gamma(couple.p, couple.q)
    both, count = _stack(txs, inputs), len(inputs)
    phi_both, psi_both = modular(phi, both), modular(psi, both)
    phi_tx, psi_tx = phi_both[:count], psi_both[:count]
    gamma_psi_x, two_gamma_phi_x = gamma * psi_both[count:], 2.0 * gamma * phi_both[count:]
    for lhs, rhs, tag in ((phi_tx, psi_tx, "link1_phi_le_psi"),
                          (psi_tx, gamma_psi_x, "link2_psi_contraction"),
                          (gamma_psi_x, two_gamma_phi_x, "link3_psi_le_2phi")):
        collector.check(lhs, rhs, tag, inputs.values, rel=CHAIN_REL, abs_floor=CHAIN_ABS_FLOOR)
    return {"gamma": gamma, "mode": "chain_diagnostics", "majorant_knots": knots}


def verify_norm_interpolation(phi: OrliczFunction, couple: ExponentCouple,
                              op: CertifiedOperator, inputs: SampleBatch, theorem: str,
                              diagnostics: bool = False) -> dict:
    """||Tx|| <= C * M * ||x|| in both the Luxemburg and Amemiya norms, with
    the constant C that `specs.THEOREMS` names for the norm tag `theorem`.
    The Amemiya check runs only on a convex phi; on an h-form whose h has a
    slope drop, `details["amemiya"]` says it was skipped.

    With diagnostics set, the majorant chain behind the subadditive constant
    is checked link by link too (a generator-built phi with finite q only).
    """
    collector = _Collector()
    source = specs.check_theorem(theorem, couple, op).constant
    if source is None:
        raise specs.SpecError(f"{theorem} is not a norm theorem")
    if source == "concave_h":
        _require_h_form(phi, theorem)
    if diagnostics and (phi.kind != "generator" or couple.q_is_inf):
        raise ScenarioRejected("chain diagnostics need a generator-built phi with finite q")
    c = NORM_CONSTANTS[source](couple.p, couple.q)
    cm = c * op.max_bound
    tx, count = op.apply(inputs), len(inputs)
    both = _stack(tx, inputs)
    # the Amemiya search may stop at a local minimum of a non-convex phi, and
    # a value above the infimum is no rhs; power and generator builds are
    # convex by construction (see `orlicz`), an h-form records it. A convex
    # phi's two searches share their first pass
    start = norm_start(phi, both) if phi.convex else None
    lux = luxemburg_norm(phi, both, start=start)
    with np.errstate(over="ignore"):   # as in _sparr_pairs
        collector.check(lux[:count], cm * lux[count:], "luxemburg", inputs.values, rel=NORM_REL)
    details = {"constant": c, "certified_bound": op.max_bound, "constant_source": source}
    if phi.convex:
        am = amemiya_norm(phi, both, start=start)
        with np.errstate(over="ignore"):
            collector.check(am[:count], cm * am[count:], "amemiya", inputs.values, rel=NORM_REL)
    else:
        details["amemiya"] = "skipped: phi is not convex"
    if diagnostics:
        details["chain"] = _check_chain(phi, couple, inputs, tx.scaled(1.0 / op.max_bound),
                                        collector)
    return collector.report(theorem, len(inputs), details)


def _inputs(s: dict, space) -> SampleBatch:
    ins = s["inputs"]
    return generate_inputs(space, ins["count"], ins["distribution"], ins["scale"], s["seed"])


def _run_prop22(s, space, couple, phi, op) -> dict:
    return verify_k_contraction(op, _inputs(s, space))


def _run_sparr(s, space, couple, phi, op) -> dict:
    ins = s["inputs"]
    return verify_sparr_batch(space, couple, ins["count"], ins["scale"], s["seed"])


def _run_thm31a(s, space, couple, phi, op) -> dict:
    return verify_modular_lp_linf(phi, couple.p, op, _inputs(s, space))


def _run_thm46a(s, space, couple, phi, op) -> dict:
    return verify_modular_lp_lq(phi, couple, op, _inputs(s, space))


def _run_norm(s, space, couple, phi, op) -> dict:
    return verify_norm_interpolation(phi, couple, op, _inputs(s, space), s["theorem"],
                                     s["diagnostics"])


# theorem tag -> runner; specs.THEOREMS has checked the sections each runner reads
RUNNERS = {
    "prop22": _run_prop22,
    "sparr_lemma": _run_sparr,
    "thm31a": _run_thm31a,
    "thm46a": _run_thm46a,
    **{tag: _run_norm for tag, record in specs.THEOREMS.items() if record.constant},
}
if RUNNERS.keys() != specs.THEOREMS.keys():
    raise RuntimeError("verify.RUNNERS and specs.THEOREMS name different theorem tags")


def run_scenario(raw_scenario: dict, jobs: int = 1) -> dict:
    """Validate one scenario, run its theorem's verifier, return the report dict.

    `jobs` is ignored; it stays only because perfbench/worker.py passes jobs=1.
    """
    scenario, space, couple, phi, op = specs.resolve_scenario(raw_scenario)
    if scenario["fault"]:   # normalized: a fault that plants nothing is None
        op = replace(op, bound_p=op.bound_p / 2.0, bound_q=op.bound_q / 2.0)
    scale = scenario["inputs"]["scale"]
    try:
        report = RUNNERS[scenario["theorem"]](scenario, space, couple, phi, op)
    except DomainOverflowError as exc:
        raise ScenarioRejected(f"inputs.scale = {scale:g} puts generated inputs beyond phi's "
                               f"domain, u_max = {phi.u_max:g}: {exc}") from None
    except NonFiniteError:   # Tx, or Tx scaled, overflowed: the inputs are finite
        raise ScenarioRejected(f"Tx is not finite: inputs.scale = {scale:g} "
                               "is too large for the operator") from None
    report["scenario"] = scenario
    return report
