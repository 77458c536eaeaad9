"""A seeded fuzzer over whole scenarios, drawn from the space the spec rules allow.

Hypothesis draws, with `derandomize=True` so that every run sees the same
scenarios: every theorem tag, with a couple inside the tag's rule; phi as a
power of exponent in [p, min(q, 64)], a generator of each of the five rho
kinds, or an h-form whose h is affine half the time (the only convex
h-forms, the ones whose Amemiya norm is checked) and has a slope drop
otherwise; every operator kind, with `max_of` over the others; every input
distribution the tag takes; n in 1..16 uniform atoms; `inputs.scale` in
1e-6..1e6; a halved certificate on some of the scenarios that read `fault`;
and `diagnostics` on `thm46b_norm`. The arrays of a scenario (multipliers,
matrices, line tables) come from a NumPy generator seeded by one drawn
integer.

Explicit weights are not drawn yet. The second property below cannot hold
on them: the sparr hypothesis is decided on the scenario's t-grid alone, so
a pair that meets it there but not for every t > 0 can fail a true lemma,
and weighted atoms show this more often than uniform ones. Two uniform
cases are pinned by the strict xfail
`TestSparrImplication::test_grid_hypothesis_gives_no_false_alarm` in
`tests/test_verify.py` (ROADMAP item 4).

Two properties hold on every draw, under the suite's warnings-as-errors:
- the outcome is a report, a `SpecError` or a `ScenarioRejected`;
- a scenario with no fault reports no violation outside the chain
  diagnostics (`link*`), whose false alarm at extreme scales is pinned by
  the strict xfail
  `TestChainDiagnostics::test_chain_gives_no_false_alarm_at_large_scale`
  (ROADMAP item 4).
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from orliczkit import specs
from orliczkit.verify import ScenarioRejected, run_scenario

RHO_KINDS = ("powerlog", "power", "min_one", "max_one", "pwl")
OPERATOR_KINDS = ("identity", "multiplier", "truncation", "matrix", "averaging", "maximal",
                  "random_contractive", "max_of")


def exponent(value: float):
    return "inf" if math.isinf(value) else value


def affine_table(rng) -> dict:
    """An affine record: one slope in e^[-5, 3] through one knot at 1, and a
    value >= 0 at 0."""
    slope = float(np.exp(rng.uniform(-5.0, 3.0)))
    at_zero = 0.0 if rng.random() < 0.5 else float(np.exp(rng.uniform(-5.0, 3.0)))
    return {"knots": [1.0], "values": [at_zero + slope], "slope0": slope, "slope_inf": slope}


def line_table(rng) -> dict:
    """A concave piecewise linear record: 1-3 knots in e^+-5, falling
    positive slopes (the last one 0 at times), and a value >= 0 at 0."""
    knots = np.unique(np.exp(rng.uniform(-5.0, 5.0, int(rng.integers(1, 4)))))
    slopes = np.sort(np.exp(rng.uniform(-5.0, 3.0, knots.size + 1)))[::-1]
    if rng.random() < 0.3:
        slopes[-1] = 0.0
    at_zero = 0.0 if rng.random() < 0.5 else float(np.exp(rng.uniform(-5.0, 3.0)))
    values = at_zero + slopes[0] * knots[0] + np.concatenate(
        ([0.0], np.cumsum(slopes[1:-1] * np.diff(knots))))
    return {"knots": knots.tolist(), "values": values.tolist(),
            "slope0": float(slopes[0]), "slope_inf": float(slopes[-1])}


def rho_record(kind: str, rng) -> dict:
    if kind == "powerlog":
        return {"kind": kind, "theta": float(rng.uniform(0.02, 0.98)),
                "a": float(rng.uniform(-2.0, 2.0)), "b": float(rng.uniform(-2.0, 2.0))}
    if kind == "power":
        return {"kind": kind, "theta": float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))}
    if kind == "pwl":
        return {"kind": kind, **line_table(rng)}
    return {"kind": kind}


def operator_record(kind: str, n: int, rng) -> dict:
    if kind == "multiplier":
        return {"kind": kind, "m": rng.uniform(-1.0, 1.0, n).tolist()}
    if kind == "truncation":
        return {"kind": kind, "keep_first": int(rng.integers(1, n + 1))}
    if kind == "matrix":
        a = rng.uniform(-1.0, 1.0, (n, n))
        a /= max(np.abs(a).sum(axis=1).max(), np.abs(a).sum(axis=0).max())
        return {"kind": kind, "rows": a.tolist()}
    if kind == "random_contractive":
        return {"kind": kind, "seed": int(rng.integers(0, 1000))}
    if kind == "max_of":
        members = rng.choice(OPERATOR_KINDS[:-1], size=int(rng.integers(1, 4)))
        return {"kind": kind, "ops": [operator_record(str(m), n, rng) for m in members]}
    return {"kind": kind}


@st.composite
def scenarios(draw) -> dict:
    tag = draw(st.sampled_from(sorted(specs.THEOREMS)))
    record = specs.THEOREMS[tag]
    p = draw(st.floats(1.01, 4.0) if record.constant == "linear"
             else st.one_of(st.just(1.0), st.floats(1.0, 4.0)))
    q_inf = draw(st.booleans()) if record.q_inf is None else record.q_inf
    q = math.inf if q_inf else p + draw(st.one_of(st.floats(0.05, 4.0), st.floats(4.0, 80.0)))
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenario = {
        "theorem": tag,
        "seed": draw(st.integers(0, 2**31)),
        "space": {"weights": "uniform", "n": n},
        "couple": {"p": p, "q": exponent(q)},
        "inputs": {"count": draw(st.integers(1, 12)),
                   "distribution": draw(st.sampled_from(record.distributions)),
                   "scale": 10.0 ** draw(st.floats(-6.0, 6.0))},
    }
    sections = record.requires + record.reads
    if "phi" in sections:
        kind = draw(st.sampled_from(("power", "generator", "h")))
        if kind == "power":
            top = min(q, 64.0)
            scenario["phi"] = {"kind": kind, "p": p + draw(st.floats(0.0, 1.0)) * (top - p)}
        elif kind == "generator":
            rho = rho_record(draw(st.sampled_from(RHO_KINDS)), rng)
            scenario["phi"] = {"kind": kind, "p": p, "q": exponent(q), "rho": rho}
        else:
            h = affine_table(rng) if draw(st.booleans()) else line_table(rng)
            scenario["phi"] = {"kind": kind, "p": p, "q": exponent(q), "h": h}
    if "operator" in sections:
        scenario["operator"] = operator_record(draw(st.sampled_from(OPERATOR_KINDS)), n, rng)
    if "t_grid" in sections:
        scenario["t_grid"] = {"start": 10.0 ** draw(st.floats(-4.0, 0.0)),
                              "stop": 10.0 ** draw(st.floats(0.0, 4.0)),
                              "points": draw(st.integers(1, 16))}
    if "fault" in sections and draw(st.integers(0, 3)) == 0:
        scenario["fault"] = {"halve_certificate": True}
    if "diagnostics" in sections:
        scenario["diagnostics"] = draw(st.booleans())
    return scenario


@settings(max_examples=1000, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_a_drawn_scenario_gives_a_report_or_a_clean_error(scenario):
    try:
        report = run_scenario(scenario)
    except (specs.SpecError, ScenarioRejected):
        return
    assert report["status"] in ("pass", "fail")
    # at most 12 inputs x 16 t or 4 checks: every violation is listed
    assert len(report["violations"]) == report["details"]["violation_count"]
    if report["scenario"]["fault"] is None:
        checks = {v["check"] for v in report["violations"]}
        assert all(check.startswith("link") for check in checks), checks
