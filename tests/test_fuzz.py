"""A seeded fuzzer over whole scenarios, drawn from the space the spec rules allow.

Scenario i, for i in range(1000), is drawn from
`np.random.default_rng((FUZZ_SEED, i))`, so every run sees the same 1,000
scenarios, whatever the code around them: every theorem tag, with a couple
inside the tag's rule (p = 1 a quarter of the time, else p in [1, 4], or
[1.01, 4] on `thm51_linear`; q = inf where the tag takes it, else q - p in
[0.05, 4] or [4, 80]); phi as a power of exponent in [p, min(q, 64)], a
generator of each of the five rho kinds, or an h-form whose h is affine
half the time (the only convex h-forms, the ones whose Amemiya norm is
checked) and has a slope drop otherwise; every operator kind, with `max_of`
over the others; every input distribution the tag takes; 1..12 inputs;
n in 1..16 uniform atoms; `inputs.scale` in 1e-6..1e6; a halved
certificate on a quarter of the scenarios that read `fault`; and
`diagnostics` on half of the `thm46b_norm` ones. A failing index prints its
scenario as JSON.

Explicit weights are not drawn yet. The second property below cannot hold
on them: the sparr hypothesis is decided on `verify.SPARR_T_GRID` alone, so
a pair that meets it there but not for every t > 0 can fail a true lemma,
and weighted atoms show this more often than uniform ones. Uniform cases
are pinned by the strict xfails
`TestSparrImplication::test_grid_hypothesis_gives_no_false_alarm` and
`::test_shipped_grid_hypothesis_gives_no_false_alarm` in
`tests/test_verify.py` (ROADMAP items 16 and 4).

Two properties hold on every draw, under the suite's warnings-as-errors:
- the outcome is a report, a `SpecError` or a `ScenarioRejected`;
- a scenario with no fault reports no violation outside the chain
  diagnostics (`link*`), whose false alarm at extreme scales is pinned by
  the strict xfail
  `TestChainDiagnostics::test_chain_gives_no_false_alarm_at_large_scale`
  (ROADMAP item 4).
None of the 1,000 breaks either property. An index that comes to break one on
a known defect is to be marked a strict xfail whose reason names its
ROADMAP item, never skipped or re-seeded.
"""

import json
import math

import numpy as np
import pytest

from orliczkit import specs
from orliczkit.verify import ScenarioRejected, run_scenario

FUZZ_SEED = 27
SCENARIOS = 1000

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


def pick(rng, options):
    return options[int(rng.integers(len(options)))]


def draw_scenario(index: int) -> dict:
    """Scenario `index`, drawn from its own generator."""
    rng = np.random.default_rng((FUZZ_SEED, index))
    tag = pick(rng, sorted(specs.THEOREMS))
    record = specs.THEOREMS[tag]
    if record.constant == "linear":
        p = float(rng.uniform(1.01, 4.0))
    else:
        p = 1.0 if rng.random() < 0.25 else float(rng.uniform(1.0, 4.0))
    q_inf = bool(rng.random() < 0.5) if record.q_inf is None else record.q_inf
    q = math.inf if q_inf else p + float(rng.uniform(*pick(rng, ((0.05, 4.0), (4.0, 80.0)))))
    n = int(rng.integers(1, 17))
    scenario = {
        "theorem": tag,
        "seed": int(rng.integers(0, 2**31 + 1)),
        "space": {"weights": "uniform", "n": n},
        "couple": {"p": p, "q": exponent(q)},
        "inputs": {"count": int(rng.integers(1, 13)),
                   "distribution": pick(rng, record.distributions),
                   "scale": 10.0 ** float(rng.uniform(-6.0, 6.0))},
    }
    sections = record.requires + record.reads
    if "phi" in sections:
        kind = pick(rng, ("power", "generator", "h"))
        if kind == "power":
            top = min(q, 64.0)
            scenario["phi"] = {"kind": kind, "p": p + float(rng.random()) * (top - p)}
        elif kind == "generator":
            rho = rho_record(pick(rng, RHO_KINDS), rng)
            scenario["phi"] = {"kind": kind, "p": p, "q": exponent(q), "rho": rho}
        else:
            h = affine_table(rng) if rng.random() < 0.5 else line_table(rng)
            scenario["phi"] = {"kind": kind, "p": p, "q": exponent(q), "h": h}
    if "operator" in sections:
        scenario["operator"] = operator_record(pick(rng, OPERATOR_KINDS), n, rng)
    if "fault" in sections and rng.random() < 0.25:
        scenario["fault"] = {"halve_certificate": True}
    if "diagnostics" in sections:
        scenario["diagnostics"] = bool(rng.random() < 0.5)
    return scenario


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_a_drawn_scenario_gives_a_report_or_a_clean_error(index):
    scenario = draw_scenario(index)
    print(json.dumps(scenario))   # pytest shows it when the test fails
    try:
        report = run_scenario(scenario)
    except (specs.SpecError, ScenarioRejected):
        return
    assert report["status"] in ("pass", "fail")
    count = report["details"]["violation_count"]
    assert len(report["violations"]) == min(count, 200)
    if report["scenario"]["fault"] is None:
        checks = {v["check"] for v in report["violations"]}
        assert all(check.startswith("link") for check in checks), checks
