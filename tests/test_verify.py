import copy
import json
from pathlib import Path

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import specs
from orliczkit.orlicz import ExponentCouple
from orliczkit import verify
from orliczkit.verify import run_scenario

from conftest import cached_generator_phi

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "orliczkit" / "scenarios"
COUPLE = ExponentCouple(1, 2)


def load_scenario(name):
    return json.loads((SCENARIO_DIR / name).read_text())


def strip_wall(report):
    out = copy.deepcopy(report)
    out.pop("wall_ms", None)
    return out


@pytest.fixture(scope="module")
def space8():
    return ok.uniform_space(8)


@pytest.fixture(scope="module")
def phi_affine_h():
    h = ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0)
    return ok.build_from_h(COUPLE, h)


class TestKContraction:
    def test_identity_is_equality(self, space8):
        op = ok.identity_operator(space8, COUPLE)
        inputs = ok.generate_inputs(space8, 10, "mixed", 1.0, 1)
        rep = ok.verify_k_contraction(op, inputs, np.logspace(-2, 2, 8))
        assert rep.status == "pass" and not rep.violations

    def test_half_multiplier_cancels_exactly(self, space8):
        op = ok.multiplier(space8, np.full(8, 0.5), COUPLE)
        inputs = ok.generate_inputs(space8, 10, "mixed", 1.0, 2)
        rep = ok.verify_k_contraction(op, inputs, np.logspace(-2, 2, 8))
        assert rep.status == "pass"

    def test_maximal_on_p_inf_couple(self, space8):
        couple = ExponentCouple(2, np.inf)
        op = ok.discrete_maximal(space8, couple)
        inputs = ok.generate_inputs(space8, 30, "mixed", 1.0, 3)
        rep = ok.verify_k_contraction(op, inputs, np.logspace(-3, 3, 12))
        assert rep.status == "pass" and not rep.violations


class TestSparrImplication:
    def test_equal_pair(self, space8):
        x = ok.SampleFunction(space8, np.linspace(-1, 2, 8))
        rep = ok.verify_sparr_implication(x, x, COUPLE, np.logspace(-4, 4, 32))
        assert rep.status == "pass"
        assert rep.details["hypothesis_met"] == 1

    def test_doubled_pair(self, space8):
        x = ok.SampleFunction(space8, np.linspace(-1, 2, 8))
        rep = ok.verify_sparr_implication(x, x.scaled(2.0), COUPLE, np.logspace(-4, 4, 32))
        assert rep.status == "pass" and rep.details["hypothesis_met"] == 1

    def test_neutral_pair_never_fails(self, space8):
        x = ok.SampleFunction(space8, np.full(8, 3.0))
        y = ok.SampleFunction(space8, np.full(8, 0.1))
        rep = ok.verify_sparr_implication(x, y, COUPLE, np.logspace(-4, 4, 32))
        assert rep.status == "pass"
        assert rep.details["hypothesis_met"] == 0
        assert not rep.violations

    def test_batch_counts_neutral_pairs(self, space8):
        rep = ok.verify_sparr_batch(space8, COUPLE, 80, np.logspace(-4, 4, 32), seed=5)
        assert rep.status == "pass"
        assert 0 < rep.details["hypothesis_met"] < 80


class TestModularLpLinf:
    def test_identity_passes(self, space8):
        couple = ExponentCouple(2, np.inf)
        phi = cached_generator_phi(2, np.inf, "powerlog", (0.5, 0, 0))
        op = ok.identity_operator(space8, couple)
        rep = ok.verify_modular_lp_linf(phi, 2.0, op, ok.generate_inputs(space8, 20, "mixed", 1.0, 6))
        assert rep.status == "pass"

    def test_nonconvex_composition_rejected(self, space8):
        op = ok.identity_operator(space8, ExponentCouple(3, np.inf))
        phi = ok.power_phi(1)   # phi(u^{1/3}) = u^{1/3} is concave
        with pytest.raises(ok.ScenarioRejected):
            ok.verify_modular_lp_linf(phi, 3.0, op, ok.generate_inputs(space8, 5, "mixed", 1.0, 7))


class TestModularLpLq:
    def test_identity_passes(self, space8, phi_affine_h):
        op = ok.identity_operator(space8, COUPLE)
        rep = ok.verify_modular_lp_lq(phi_affine_h, COUPLE, op,
                                      ok.generate_inputs(space8, 20, "mixed", 1.0, 8))
        assert rep.status == "pass"

    def test_requires_h_form(self, space8):
        op = ok.identity_operator(space8, COUPLE)
        with pytest.raises(ok.ScenarioRejected):
            ok.verify_modular_lp_lq(ok.power_phi(2), COUPLE, op,
                                    ok.generate_inputs(space8, 5, "mixed", 1.0, 9))


class TestNormInterpolation:
    def test_identity_passes_each_source(self, space8, phi_affine_h):
        inputs = ok.generate_inputs(space8, 8, "mixed", 1.0, 10)
        cases = [
            (cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0)), COUPLE, "subadditive"),
            (phi_affine_h, COUPLE, "concave_h"),
            (cached_generator_phi(1.5, 2, "powerlog", (0.5, 0, 0)), ExponentCouple(1.5, 2), "linear"),
            (cached_generator_phi(2, np.inf, "powerlog", (0.5, 0, 0)), ExponentCouple(2, np.inf), "lp_linf"),
        ]
        for phi, couple, source in cases:
            op = ok.identity_operator(space8, couple)
            rep = ok.verify_norm_interpolation(phi, couple, op, inputs, source)
            assert rep.status == "pass", source

    def test_linear_source_needs_linear_operator(self, space8):
        couple = ExponentCouple(1.5, 2)
        phi = cached_generator_phi(1.5, 2, "powerlog", (0.5, 0, 0))
        op = ok.discrete_maximal(space8, couple)
        with pytest.raises(ValueError):
            ok.verify_norm_interpolation(phi, couple, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 11), "linear")

    def test_lp_linf_source_needs_infinite_q(self, space8):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        op = ok.identity_operator(space8, COUPLE)
        with pytest.raises(ValueError):
            ok.verify_norm_interpolation(phi, COUPLE, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 12), "lp_linf")


class TestChainDiagnostics:
    def test_links_pass_for_generator_phi(self, space8):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        op = ok.averaging_operator(space8, COUPLE)
        rep = ok.chain_diagnostics(phi, COUPLE, op, ok.generate_inputs(space8, 15, "mixed", 1.0, 13))
        assert rep.status == "pass"
        assert rep.details["mode"] == "chain_diagnostics"

    def test_needs_generator_phi(self, space8, phi_affine_h):
        op = ok.averaging_operator(space8, COUPLE)
        with pytest.raises(ok.ScenarioRejected):
            ok.chain_diagnostics(phi_affine_h, COUPLE, op,
                                 ok.generate_inputs(space8, 3, "mixed", 1.0, 14))


class TestRunScenario:
    def test_smoke_scenario_passes_fast(self):
        import time
        start = time.perf_counter()
        report = run_scenario(load_scenario("thm46a.json"))
        assert report["status"] == "pass"
        assert time.perf_counter() - start < 1.0

    def test_determinism_modulo_wall_time(self):
        scenario = load_scenario("thm46a.json")
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert strip_wall(a) == strip_wall(b)

    def test_phi_and_operator_built_once_per_report(self, monkeypatch):
        calls = {"phi": 0, "operator": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(specs, "resolve_phi", counting("phi", specs.resolve_phi))
        monkeypatch.setattr(specs, "resolve_operator", counting("operator", specs.resolve_operator))
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario["inputs"]["count"] = 4
        assert run_scenario(scenario)["status"] == "pass"
        assert calls == {"phi": 1, "operator": 1}

    def test_inputs_beyond_phi_domain_are_a_rejection(self):
        # generator phi is tabulated up to u_max = 1e6; inputs at scale 1e6
        # leave it, which makes the scenario invalid, not falsified
        scenario = load_scenario("thm31a_p1_orlicz.json")
        scenario["inputs"].update(count=4, scale=1e6)
        with pytest.raises(ok.ScenarioRejected, match=r"u_max = 1e\+06"):
            run_scenario(scenario)

    def test_negative_control_detects_planted_fault(self):
        report = run_scenario(load_scenario("thm46a_negative_control.json"))
        assert report["status"] == "fail"
        assert report["details"]["violation_count"] >= 1
        worst = report["violations"][0]
        assert worst["lhs"] > worst["rhs"]
        assert len(worst["witness"]) == 8

    def test_seed_is_mandatory(self):
        scenario = load_scenario("thm46a.json")
        del scenario["seed"]
        with pytest.raises(specs.SpecError):
            run_scenario(scenario)

    def test_unknown_keys_rejected(self):
        scenario = load_scenario("thm46a.json")
        scenario["frobnicate"] = 1
        with pytest.raises(specs.SpecError):
            run_scenario(scenario)

    def test_every_shipped_scenario_is_normalized(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            raw = json.loads(path.read_text())
            assert specs.dump_normalized(specs.normalize_scenario(raw)) == path.read_text(), path.name

    def test_every_shipped_scenario_parses_runs_and_reserializes(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            raw = json.loads(path.read_text())
            report = run_scenario(raw)
            expected = "fail" if "negative_control" in path.name else "pass"
            assert report["status"] == expected, path.name
            echoed = specs.dump_normalized(report["scenario"])
            assert echoed == path.read_text(), path.name

    def test_faulted_norm_report_counts_and_witnesses_each_input(self):
        scenario = load_scenario("thm31b_norm_p2.json")
        scenario["fault"] = {"halve_certificate": True}
        report = run_scenario(scenario)
        resolved, space, couple, phi, op = specs.resolve_scenario(scenario)
        inputs = ok.generate_inputs(space, resolved["inputs"]["count"], "mixed",
                                    resolved["inputs"]["scale"], resolved["seed"])
        op = op.with_bounds(op.bound_p / 2.0, op.bound_q / 2.0, "halved")
        cm = ok.bergh_constant(couple.p) * op.max_bound
        txs = [op.apply(x) for x in inputs]
        rel, floor = resolved["tolerances"]["norm_rel"], resolved["tolerances"]["abs_floor"]
        beyond = 0
        for norm in (ok.luxemburg_norm, ok.amemiya_norm):
            lhs, rhs = norm(phi, txs), cm * norm(phi, inputs)
            beyond += int(np.sum(lhs > rhs + rel * np.abs(rhs) + floor))
        assert report["status"] == "fail"
        assert {v["check"] for v in report["violations"]} == {"luxemburg", "amemiya"}
        assert report["details"]["violation_count"] == beyond
        for v in report["violations"]:
            assert v["witness"] == inputs[v["input_index"]].values.tolist()

    @pytest.mark.parametrize("name,scale", [("prop22_maximal_2inf.json", 1e200),
                                            ("thm46a.json", 1e308),
                                            ("sparr_lemma_1_2.json", 1e308)])
    def test_huge_input_scale_is_a_rejection(self, name, scale):
        # 1e200 overflows ||x||_2^2 inside K; 1e308 overflows the draws themselves
        scenario = load_scenario(name)
        scenario["inputs"].update(count=8, scale=scale)
        with pytest.raises(ok.ScenarioRejected, match="inputs.scale"):
            run_scenario(scenario)

    def test_failing_k_report_points_at_each_input(self):
        # a certificate ten times too small breaks the K contraction on some
        # (input, t); each violation must match a per-input recomputation
        scenario = load_scenario("prop22_maximal_2inf.json")
        scenario["inputs"]["count"] = 40
        resolved, space, couple, phi, op = specs.resolve_scenario(scenario)
        op = op.with_bounds(op.bound_p / 10.0, op.bound_q / 10.0, "shrunk")
        inputs = ok.generate_inputs(space, 40, "mixed", 1.0, resolved["seed"])
        ts = specs.t_grid_points(resolved["t_grid"])
        report = ok.verify_k_contraction(op, inputs, ts, resolved["tolerances"])
        rel, floor = resolved["tolerances"]["violation_rel"], resolved["tolerances"]["abs_floor"]
        expected = set()
        for i, x in enumerate(inputs):
            lhs = ok.k_lp_linf_grid(ts, op.apply(x).scaled(1.0 / op.max_bound), couple.p)
            rhs = ok.k_lp_linf_grid(ts, x, couple.p)
            for j in np.flatnonzero(lhs > rhs + rel * np.abs(rhs) + floor):
                expected.add((i, float(ts[j]), float(lhs[j]), float(rhs[j]), tuple(x.values)))
        got = {(v.input_index, v.t, v.lhs, v.rhs, v.witness) for v in report.violations}
        assert report.status == "fail" and len(report.violations) == len(expected) > 0
        assert got == expected

    def test_failing_sparr_report_points_at_each_pair(self):
        # half of gamma breaks the conclusion on some pairs that meet the hypothesis
        couple, ts = ExponentCouple(1, 2), np.logspace(-4, 4, 16)
        xs, ys = verify._pair_batch(ok.uniform_space(8), 60, 1.0, 12)
        gamma = 0.5 * ok.sparr_gamma(1, 2).value
        collector = verify._Collector(None)
        met = verify._sparr_pairs(xs, ys, couple, ts, gamma, collector)
        tol = collector.tol
        expected, met_alone = set(), 0
        for i, (xv, yv) in enumerate(zip(xs.values, ys.values)):
            x, y = ok.SampleFunction(xs.space, xv), ok.SampleFunction(ys.space, yv)
            kx, ky = ok.l_functional_grid(ts, x, 1, 2), ok.l_functional_grid(ts, y, 1, 2)
            if not np.all(kx <= ky + tol["hypothesis_slack"] * np.abs(ky) + tol["abs_floor"]):
                continue
            met_alone += 1
            lhs, rhs = ok.l_star_grid(ts, x, 1, 2), gamma * ok.l_star_grid(ts, y, 1, 2)
            for j in np.flatnonzero(lhs > rhs + tol["violation_rel"] * np.abs(rhs) + tol["abs_floor"]):
                expected.add((i, float(ts[j]), float(lhs[j]), float(rhs[j]),
                              tuple(xv) + tuple(yv)))
        got = {(v.input_index, v.t, v.lhs, v.rhs, v.witness) for v in collector.violations}
        assert met == met_alone
        assert len(collector.violations) == len(expected) > 0
        assert got == expected

    def test_violation_threshold_is_named_tolerance(self):
        scenario = load_scenario("thm46a.json")
        # a absurdly tight relative tolerance flags fp-level noise, proving
        # the threshold comes from the scenario, not a hard-coded constant
        scenario["tolerances"] = {"violation_rel": -1.0, "abs_floor": 0.0}
        report = run_scenario(scenario)
        assert report["status"] == "fail"
