import copy
import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import specs
from orliczkit.orlicz import ExponentCouple
from orliczkit import verify
from orliczkit.verify import run_scenario

from conftest import cached_generator_phi
from oracles import generate_inputs_per_child, pair_batch_per_child

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


DRAW_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]


class TestGenerateInputs:
    def test_batch_rows_are_stable_per_index(self, space8):
        small = ok.generate_inputs(space8, 5, "mixed", 1.0, 16)
        large = ok.generate_inputs(space8, 9, "mixed", 1.0, 16)
        assert isinstance(small, ok.SampleBatch) and small.values.shape == (5, 8)
        assert small.values.tobytes() == large.values[:5].tobytes()

    def test_pair_rows_are_stable_per_index(self, space8):
        small = verify._pair_batch(space8, 5, 1.0, 16)
        large = verify._pair_batch(space8, 9, 1.0, 16)
        for few, many in zip(small, large):
            assert few.values.shape == (5, 8)
            assert few.values.tobytes() == many.values[:5].tobytes()

    # a seed of five or more 32-bit words mixes its words past the fourth
    # into the pool after the first four
    @pytest.mark.parametrize("seed", DRAW_SEEDS + [2**128 + 5, 2**200 + 17])
    def test_child_states_are_numpy_spawned_pcg64(self, seed):
        # child i of spawn(count) is child i of spawn(300) for count <= 300
        want = [np.random.PCG64(child).state for child in np.random.SeedSequence(seed).spawn(300)]
        for count in range(301):
            got = [rng.bit_generator.state for rng in verify._child_rngs(seed, count)]
            assert got == want[:count], count
        for count in (0, 1, 5, 13):
            got = [rng.bit_generator.state for rng in verify._child_rngs(seed, count)]
            assert got == [np.random.PCG64(c).state for c in np.random.SeedSequence(seed).spawn(count)]

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_child_states_refuse_what_seed_sequence_refuses(self, seed):
        with pytest.raises((TypeError, ValueError)):
            np.random.SeedSequence(seed)
        with pytest.raises((TypeError, ValueError)):
            next(verify._child_rngs(seed, 1))

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    def test_inputs_equal_per_child_draws_bitwise(self, seed, n):
        space = ok.uniform_space(n)
        for distribution in specs.INPUT_DISTRIBUTIONS:
            for count in (0, 1, 5, 13):
                for scale in (1e-8, 1.0, 1e6):
                    got = ok.generate_inputs(space, count, distribution, scale, seed)
                    want = generate_inputs_per_child(space, count, distribution, scale, seed)
                    assert got.values.tobytes() == want.values.tobytes(), (distribution, count, scale)

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    def test_pairs_equal_per_child_draws_bitwise(self, seed, n):
        space = ok.uniform_space(n)
        for count in (0, 1, 5, 13):
            for scale in (1e-8, 1.0, 1e6):
                got = verify._pair_batch(space, count, scale, seed)
                want = pair_batch_per_child(space, count, scale, seed)
                for a, b in zip(got, want):
                    assert a.values.tobytes() == b.values.tobytes(), (count, scale)

    def test_huge_scale_is_a_rejection_naming_the_scale(self, space8):
        for draw in (lambda: ok.generate_inputs(space8, 8, "mixed", 1e308, 3),
                     lambda: verify._pair_batch(space8, 8, 1e308, 3)):
            with pytest.raises(ok.ScenarioRejected, match="inputs.scale"):
                draw()


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


class TestCollector:
    def test_violations_in_row_major_order_with_python_fields(self):
        collector = verify._Collector(None)
        lhs = np.array([[1.0, 3.0, 0.5], [2.0, 1.0, 5.0]])
        rhs = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        collector.check(lhs, rhs, "tag", np.array([[1, 2], [3, 4]]), ts=[0.5, 1.0, 2.0],
                        index=np.array([7, 9]))
        got = [v.to_dict() for v in collector.violations]
        assert got == [
            {"t": 1.0, "input_index": 7, "lhs": 3.0, "rhs": 1.0, "margin": 2.0, "check": "tag",
             "witness": [1.0, 2.0]},
            {"t": 0.5, "input_index": 9, "lhs": 2.0, "rhs": 1.0, "margin": 1.0, "check": "tag",
             "witness": [3.0, 4.0]},
            {"t": 2.0, "input_index": 9, "lhs": 5.0, "rhs": 0.0, "margin": 5.0 / 1e-12,
             "check": "tag", "witness": [3.0, 4.0]},
        ]
        for v in collector.violations:
            assert type(v.t) is float and type(v.input_index) is int and type(v.margin) is float
            assert all(type(w) is float for w in v.witness)

    def test_one_value_per_input_has_no_t(self):
        collector = verify._Collector(None)
        collector.check([0.0, 2.0], [1.0, 1.0], "tag", np.eye(2))
        assert [v.to_dict() for v in collector.violations] == [
            {"t": None, "input_index": 1, "lhs": 2.0, "rhs": 1.0, "margin": 1.0, "check": "tag",
             "witness": [0.0, 1.0]}]


class TestSparrImplication:
    @staticmethod
    def implication(x, y):
        """The conclusion checked on the one pair (x, y) when it meets the
        hypothesis: (violations, how many pairs met it)."""
        collector = verify._Collector(None)
        gamma = ok.sparr_gamma(COUPLE.p, COUPLE.q)
        met = verify._sparr_pairs(ok.SampleBatch(x.space, [x.values]),
                                  ok.SampleBatch(y.space, [y.values]), COUPLE,
                                  np.logspace(-4, 4, 32), gamma, collector)
        return collector.violations, met

    def test_equal_pair(self, space8):
        x = ok.SampleFunction(space8, np.linspace(-1, 2, 8))
        assert self.implication(x, x) == ([], 1)

    def test_doubled_pair(self, space8):
        x = ok.SampleFunction(space8, np.linspace(-1, 2, 8))
        assert self.implication(x, ok.SampleFunction(space8, 2.0 * x.values)) == ([], 1)

    def test_neutral_pair_never_fails(self, space8):
        x = ok.SampleFunction(space8, np.full(8, 3.0))
        y = ok.SampleFunction(space8, np.full(8, 0.1))
        assert self.implication(x, y) == ([], 0)

    def test_batch_counts_neutral_pairs(self, space8):
        rep = ok.verify_sparr_batch(space8, COUPLE, 80, np.logspace(-4, 4, 32), seed=5)
        assert rep.status == "pass"
        assert 0 < rep.details["hypothesis_met"] < 80

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_inputs_at_q64_give_a_report_without_overflow(self):
        # l_star_grid forms t c^q before its minimum with c^p; at c ~ 1e6 and
        # q = 64 that product overflows to inf, which loses the minimum
        scenario = load_scenario("sparr_lemma_2_4.json")
        scenario["couple"] = {"p": 2, "q": 64}
        scenario["inputs"] = dict(scenario["inputs"], count=20, scale=1e6)
        assert verdict(run_scenario(scenario)) == ("pass", 0, 19)


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
            (cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0)), COUPLE, "thm46b_norm"),
            (phi_affine_h, COUPLE, "remark_concave_h"),
            (cached_generator_phi(1.5, 2, "powerlog", (0.5, 0, 0)), ExponentCouple(1.5, 2), "thm51_linear"),
            (cached_generator_phi(2, np.inf, "powerlog", (0.5, 0, 0)), ExponentCouple(2, np.inf), "thm31b_norm"),
        ]
        for phi, couple, theorem in cases:
            op = ok.identity_operator(space8, couple)
            rep = ok.verify_norm_interpolation(phi, couple, op, inputs, theorem)
            assert rep.status == "pass", theorem
            assert rep.details["constant_source"] == specs.THEOREMS[theorem].constant

    def test_linear_source_needs_linear_operator(self, space8):
        couple = ExponentCouple(1.5, 2)
        phi = cached_generator_phi(1.5, 2, "powerlog", (0.5, 0, 0))
        op = ok.discrete_maximal(space8, couple)
        with pytest.raises(specs.SpecError, match="needs a linear operator"):
            ok.verify_norm_interpolation(phi, couple, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 11),
                                         "thm51_linear")

    def test_lp_linf_source_needs_infinite_q(self, space8):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        op = ok.identity_operator(space8, COUPLE)
        with pytest.raises(specs.SpecError, match="needs q = inf"):
            ok.verify_norm_interpolation(phi, COUPLE, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 12),
                                         "thm31b_norm")

    def test_amemiya_skipped_on_a_non_convex_h_form(self, space8, phi_affine_h):
        # h = min(1, s) at (1, 3) gives phi = min(u, u^3); the Amemiya search
        # may stop at a local minimum there, above the infimum, so its value
        # is no rhs
        couple = ExponentCouple(1, 3)
        kinked = ok.build_from_h(couple, ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0))
        op = ok.identity_operator(space8, couple)
        inputs = ok.generate_inputs(space8, 20, "mixed", 1.0, 17)
        rep = ok.verify_norm_interpolation(kinked, couple, op, inputs, "remark_concave_h")
        assert rep.status == "pass"
        assert rep.details["amemiya"] == "skipped: phi is not convex"
        # a halved M breaks the Luxemburg check, which still runs
        halved = op.with_bounds(op.bound_p / 2.0, op.bound_q / 2.0, "halved")
        broken = ok.verify_norm_interpolation(kinked, couple, halved, inputs, "remark_concave_h")
        assert {v.check for v in broken.violations} == {"luxemburg"}
        affine = ok.verify_norm_interpolation(phi_affine_h, COUPLE, ok.identity_operator(space8, COUPLE),
                                              inputs, "remark_concave_h")
        assert "amemiya" not in affine.details

    def test_needs_a_norm_tag(self, space8):
        op = ok.identity_operator(space8, COUPLE)
        with pytest.raises(specs.SpecError, match="not a norm theorem"):
            ok.verify_norm_interpolation(ok.power_phi(2), COUPLE, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 12), "thm46a")


class TestChainDiagnostics:
    def test_links_pass_for_generator_phi(self, space8):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        op = ok.averaging_operator(space8, COUPLE)
        rep = ok.verify_norm_interpolation(phi, COUPLE, op,
                                           ok.generate_inputs(space8, 15, "mixed", 1.0, 13),
                                           "thm46b_norm", diagnostics=True)
        assert rep.status == "pass"
        assert rep.details["chain"]["mode"] == "chain_diagnostics"

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: link3_psi_le_2phi is applied beyond [1e-5, 1e5], where "
        "the chain's majorant is certified, and fails on 20 of 20 inputs at scale 1e6"))
    def test_chain_gives_no_false_alarm_at_large_scale(self):
        scenario = dict(load_scenario("thm46b_norm_1_2.json"), diagnostics=True)
        scenario["inputs"] = dict(scenario["inputs"], count=20, scale=1e6)
        assert verdict(run_scenario(scenario)) == ("pass", 0)

    def test_links_report_into_the_norm_report(self, space8):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        op = ok.discrete_maximal(space8, COUPLE)
        inputs = ok.generate_inputs(space8, 12, "mixed", 1.0, 15)
        plain = ok.verify_norm_interpolation(phi, COUPLE, op, inputs, "thm46b_norm",
                                             {"chain_rel": -1.0})
        chained = ok.verify_norm_interpolation(phi, COUPLE, op, inputs, "thm46b_norm",
                                               {"chain_rel": -1.0}, diagnostics=True)
        # a negative chain tolerance fails the links and nothing else
        assert plain.status == "pass" and chained.status == "fail"
        assert {v.check for v in chained.violations} <= {
            "link1_phi_le_psi", "link2_psi_contraction", "link3_psi_le_2phi"}
        assert chained.details == dict(plain.details, chain=chained.details["chain"])

    # valid scenarios whose majorant table broke with a bare ValueError
    # ("slopes increase: not concave"). For rho = min(1, t), h = max(s, 1), and
    # the grid lines 1 + t/s_j for s_j < 1 all meet at t = 0, where their
    # rounded intercepts put the crossings in any order. The majorant now
    # keeps the envelope's own lines instead of recomputing their slopes
    # from values at those bunched knots
    CHAIN_CASES = {
        "min_one-2-2.5": ({"kind": "min_one"}, 2, 2.5),
        "min_one-1.2-2.2": ({"kind": "min_one"}, 1.2, 2.2),
        "min_one-1.2-3.2": ({"kind": "min_one"}, 1.2, 3.2),
        "min_one-1.5-2.5": ({"kind": "min_one"}, 1.5, 2.5),
        "pwl-1-5": ({"kind": "pwl", "knots": [1, 4], "values": [2, 2.75],
                     "slope0": 0.5, "slope_inf": 0.1}, 1, 5),
    }

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_majorant_of_a_partly_flat_h_builds(self, case):
        rho, p, q = self.CHAIN_CASES[case]
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario.update(couple={"p": p, "q": q}, diagnostics=True,
                        phi={"kind": "generator", "p": p, "q": q, "rho": rho})
        scenario["inputs"]["count"] = 20
        report = run_scenario(scenario)
        assert report["status"] == "pass"
        assert report["details"]["chain"]["mode"] == "chain_diagnostics"

    # q > 61.6: u^q on u in [1e-5, 1e5] overflowed, and the chain ended in a
    # bare ValueError ("rho must be finite and positive on the grid"); for
    # rho = min(1, t) the envelope then met near-parallel lines whose
    # crossing overflows
    @pytest.mark.parametrize("rho", [{"kind": "powerlog", "theta": 0.5, "a": 0, "b": 0},
                                     {"kind": "min_one"}], ids=["sqrt", "min_one"])
    @pytest.mark.parametrize("p, q", [(1, 62), (1, 64), (1.5, 64)])
    def test_far_couples_give_a_report(self, p, q, rho):
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario.update(couple={"p": p, "q": q}, phi={"kind": "generator", "p": p, "q": q, "rho": rho})
        scenario["inputs"]["count"] = 20
        report = run_scenario(scenario)
        assert report["status"] == "pass"
        assert report["details"]["chain"]["mode"] == "chain_diagnostics"

    def test_far_couple_grid_keeps_u_to_the_q_and_s_normal(self):
        p, q = 1, 64
        phi = cached_generator_phi(p, q, "powerlog", (0.5, 0, 0))
        h, s = verify._h_from_generator(phi, ExponentCouple(p, q))
        u = s ** (1.0 / (p - q))
        for values in (s, u**q, h(s)[0]):
            assert np.all(np.isfinite(values)) and values.min() >= np.finfo(float).tiny
        # the grid spans |log u| <= 700 / q, inside [1e-5, 1e5]
        np.testing.assert_allclose(np.log(u[[0, -1]]), [700.0 / q, -700.0 / q], rtol=1e-12)

    def test_min_one_majorant_is_one_plus_s(self):
        # h = max(s, 1) has the concave majorant 1 + s on the whole grid
        couple = ExponentCouple(2, 2.5)
        h, s = verify._h_from_generator(cached_generator_phi(2, 2.5, "min_one"), couple)
        maj = ok.concave_majorant(h, grid=s, extend_decades=0.0)
        np.testing.assert_allclose(maj(s), 1.0 + s, rtol=1e-15, atol=0.0)
        # each piece is a grid line h(s_j) + t * h(s_j) / s_j, and h >= 1 up
        # to rounding
        assert np.all(maj.intercepts >= 1.0 - 1e-12) and np.all(np.diff(maj.slopes) < 0.0)

    @pytest.mark.parametrize("family, params", [("powerlog", (0.3, 1, -1)), ("power", (0.5,)),
                                                ("min_one", ())])
    def test_h_jet_is_read_off_phi(self, family, params):
        p, q = 1.5, 3
        phi = cached_generator_phi(p, q, family, params)
        h, s = verify._h_from_generator(phi, ExponentCouple(p, q))
        s = s[::64]
        jet = h(s)
        # row 0 is phi(u) / u^q, bit for bit as the values give it
        u = s ** (1.0 / (p - q))
        assert np.array_equal(jet[0], phi(u) / u**q)
        # the elasticity s*h'/h = (q - eta) / (q - p) lies in [0, 1] to rounding
        elast = jet[1] / jet[0]
        assert elast.min() >= -1e-14 and elast.max() <= 1.0 + 1e-14
        # rows 1 and 2 against central differences in log s, away from the
        # kink of h = max(s, 1) for min_one
        s = s[np.abs(np.log(s)) > 1e-3]
        step = 1e-5
        up, down, mid = h(s * np.exp(step)), h(s * np.exp(-step)), h(s)
        assert np.all(np.abs(mid[1] - (up[0] - down[0]) / (2 * step)) <= 1e-8 * mid[0])
        assert np.all(np.abs(mid[2] - ((up[1] - down[1]) / (2 * step) - mid[1])) <= 1e-6 * mid[0])

    def test_needs_generator_phi(self, space8, phi_affine_h):
        op = ok.averaging_operator(space8, COUPLE)
        with pytest.raises(ok.ScenarioRejected, match="generator-built phi"):
            ok.verify_norm_interpolation(phi_affine_h, COUPLE, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 14),
                                         "thm46b_norm", diagnostics=True)


def clear_builds():
    """Empty the per-process caches of built phi's and chain majorants."""
    specs._PHI_CACHE.clear()
    verify._majorant_psi.cache_clear()


class TestSharedBuilds:
    """Each phi spec is built once per process, and each chain majorant once
    per (phi, couple); reports do not depend on what was built before."""

    def test_chain_majorant_is_computed_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return ok.concave_majorant(*args, **kwargs)

        clear_builds()
        monkeypatch.setattr(verify, "concave_majorant", counting)
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario["inputs"]["count"] = 4
        first = run_scenario(scenario)
        second = run_scenario(dict(scenario, seed=scenario["seed"] + 1))
        assert first["details"]["chain"]["mode"] == "chain_diagnostics"
        assert second["status"] == "pass" and len(calls) == 1

    def test_shipped_reports_are_the_same_cold_and_warm(self):
        # cold builds every phi for its own report, as a fresh process does
        scenarios = [load_scenario(path.name) for path in sorted(SCENARIO_DIR.glob("*.json"))]
        scenarios += [dict(s, fault={"halve_certificate": True}) for s in scenarios
                      if s.get("operator")]
        assert len(scenarios) == 23
        cold = []
        for scenario in scenarios:
            clear_builds()
            cold.append(strip_wall(run_scenario(scenario)))
        warm = [strip_wall(run_scenario(scenario)) for scenario in reversed(scenarios)]
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm[::-1], sort_keys=True)


def counting_norms(monkeypatch):
    """Count the verifier's calls of each norm and the modular, and the
    passes of phi's jet each makes."""
    calls, passes = Counter(), Counter()

    def counted(fn):
        def run(phi, x):
            calls[fn.__name__] += 1

            def jet(u):
                passes[fn.__name__] += 1
                return phi.jet(u)

            return fn(dataclasses.replace(phi, jet=jet), x)
        return run

    for name in ("luxemburg_norm", "amemiya_norm", "modular"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    return calls, passes


class TestStackedNormReport:
    """A norm report searches Tx and x as one batch in each norm, and the
    chain takes one modular of [Tx/M; x] per phi, through the public
    `orlicz.luxemburg_norm`, `amemiya_norm` and `modular`."""

    def test_thm51_report_takes_four_passes_for_its_two_norms(self, monkeypatch):
        # one call per side made 8, two passes per search and side
        scenario = load_scenario("thm51_linear_15_2.json")
        scenario["inputs"]["count"] = 20
        plain = strip_wall(run_scenario(scenario))
        calls, passes = counting_norms(monkeypatch)
        assert strip_wall(run_scenario(scenario)) == plain
        assert calls == {"luxemburg_norm": 1, "amemiya_norm": 1}
        assert sum(passes.values()) <= 4, passes

    def test_chain_takes_one_modular_per_phi(self, monkeypatch):
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario["inputs"]["count"] = 20
        plain = strip_wall(run_scenario(scenario))
        calls, _ = counting_norms(monkeypatch)
        assert strip_wall(run_scenario(scenario)) == plain
        assert calls == {"luxemburg_norm": 1, "amemiya_norm": 1, "modular": 2}


# status and violation_count of each shipped report (and hypothesis_met for
# sparr), as shipped and under fault {"halve_certificate": true}; sparr has
# no operator to fault. Five operator scenarios still pass with the
# certificate halved (ROADMAP item 2): prop22_maximal_2inf, thm31a_p2_maximal,
# thm46b_norm_1_2 and both thm51_linear.
SHIPPED_VERDICTS = {
    "prop22_maximal_2inf": (("pass", 0), ("pass", 0)),
    "remark_concave_h_1_2": (("pass", 0), ("fail", 2)),
    "sparr_lemma_15_3": (("pass", 0, 943), None),
    "sparr_lemma_1_2": (("pass", 0, 941), None),
    "sparr_lemma_2_4": (("pass", 0, 950), None),
    "thm31a_p1_orlicz": (("pass", 0), ("fail", 405)),
    "thm31a_p2_maximal": (("pass", 0), ("pass", 0)),
    "thm31b_norm_p2": (("pass", 0), ("fail", 52)),
    "thm46a": (("pass", 0), ("fail", 4)),
    "thm46a_negative_control": (("fail", 500), ("fail", 500)),
    "thm46b_norm_1_2": (("pass", 0), ("pass", 0)),
    "thm51_linear_15_2": (("pass", 0), ("pass", 0)),
    "thm51_linear_2_3": (("pass", 0), ("pass", 0)),
}


def verdict(report):
    details = report["details"]
    met = (details["hypothesis_met"],) if "hypothesis_met" in details else ()
    return (report["status"], details["violation_count"]) + met


class TestShippedVerdicts:
    def test_table_names_every_shipped_scenario(self):
        assert sorted(SHIPPED_VERDICTS) == sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))
        assert sum(halved is not None for _, halved in SHIPPED_VERDICTS.values()) == 10

    @pytest.mark.parametrize("name", sorted(SHIPPED_VERDICTS))
    def test_verdicts_as_shipped_and_halved(self, name):
        scenario = load_scenario(f"{name}.json")
        shipped, halved = SHIPPED_VERDICTS[name]
        assert verdict(run_scenario(scenario)) == shipped
        if halved is not None:
            assert verdict(run_scenario(dict(scenario, fault={"halve_certificate": True}))) == halved


class TestRunScenario:
    @pytest.mark.parametrize("name", ["thm46a.json", "remark_concave_h_1_2.json"])
    def test_concave_h_tags_reject_a_phi_without_the_h_form(self, name):
        # their constants hold for phi(u) = u^q h(u^{p-q}) with h concave; with
        # rho = min(1, t) this phi's h is max(s, 1), which is convex
        scenario = load_scenario(name)
        scenario["phi"] = {"kind": "generator", "p": 1, "q": 2, "rho": {"kind": "min_one"}}
        with pytest.raises(ok.ScenarioRejected, match="concave-h form"):
            run_scenario(scenario)

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

    @pytest.mark.parametrize("operator", [
        {"kind": "maximal"},
        {"kind": "max_of", "ops": [{"kind": "identity"}, {"kind": "averaging"}]},
    ], ids=["maximal", "max_of"])
    def test_thm51_linear_rejects_a_nonlinear_operator_before_phi(self, monkeypatch, operator):
        calls = {"phi": 0, "inputs": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(specs, "resolve_phi", counting("phi", specs.resolve_phi))
        monkeypatch.setattr(verify, "generate_inputs", counting("inputs", verify.generate_inputs))
        scenario = dict(load_scenario("thm51_linear_15_2.json"), operator=operator)
        with pytest.raises(specs.SpecError, match="thm51_linear needs a linear operator"):
            run_scenario(scenario)
        assert calls == {"phi": 0, "inputs": 0}

    def test_one_apply_per_report(self, monkeypatch):
        # every report that takes an operator applies it once, to all its
        # inputs; thm46b_norm_1_2 shares that batch with its chain links
        calls = []
        apply = ok.CertifiedOperator.apply

        def counting(op, x):
            calls.append(type(x))
            return apply(op, x)

        monkeypatch.setattr(ok.CertifiedOperator, "apply", counting)
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            scenario = json.loads(path.read_text())
            scenario["inputs"]["count"] = min(scenario["inputs"]["count"], 6)
            calls.clear()
            run_scenario(scenario)
            expected = [] if scenario["theorem"] == "sparr_lemma" else [ok.SampleBatch]
            assert calls == expected, path.name

    def test_inputs_beyond_phi_domain_are_a_rejection(self):
        # with rho = min(1, t) at q = inf, phi^-1 = min(u, 1) stops at
        # u_max = 1; inputs at scale 1e6 leave phi's domain, which makes the
        # scenario invalid, not falsified
        scenario = load_scenario("thm31a_p1_orlicz.json")
        scenario["phi"]["rho"] = {"kind": "min_one"}
        scenario["inputs"].update(count=4, scale=1e6)
        with pytest.raises(ok.ScenarioRejected, match=r"u_max = 1:"):
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
        txs = ok.SampleBatch(space, [op.apply(ok.SampleFunction(space, v)).values
                                     for v in inputs.values])
        rel, floor = resolved["tolerances"]["norm_rel"], resolved["tolerances"]["abs_floor"]
        beyond = 0
        for norm in (ok.luxemburg_norm, ok.amemiya_norm):
            lhs, rhs = norm(phi, txs), cm * norm(phi, inputs)
            beyond += int(np.sum(lhs > rhs + rel * np.abs(rhs) + floor))
        assert report["status"] == "fail"
        assert {v["check"] for v in report["violations"]} == {"luxemburg", "amemiya"}
        assert report["details"]["violation_count"] == beyond
        for v in report["violations"]:
            assert v["witness"] == inputs.values[v["input_index"]].tolist()

    @pytest.mark.parametrize("name,scale", [("prop22_maximal_2inf.json", 1e308),
                                            ("thm46a.json", 1e308),
                                            ("sparr_lemma_1_2.json", 1e308)])
    def test_huge_input_scale_is_a_rejection(self, name, scale):
        # 1e308 overflows the draws themselves
        scenario = load_scenario(name)
        scenario["inputs"].update(count=8, scale=scale)
        with pytest.raises(ok.ScenarioRejected, match="inputs.scale"):
            run_scenario(scenario)

    @pytest.mark.parametrize("scale", [1e-160, 1e160, 1e200])
    def test_k_contraction_gives_its_verdict_at_extreme_scales(self, scale):
        # ||x||_2^2 under- or overflows at these scales, but K is scaled per member
        scenario = load_scenario("prop22_maximal_2inf.json")
        scenario["inputs"].update(count=8, scale=scale)
        report = run_scenario(scenario)
        scenario["inputs"]["scale"] = 1.0
        assert report["status"] == run_scenario(scenario)["status"] == "pass"

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
        for i, v in enumerate(inputs.values):
            x = ok.SampleFunction(space, v)
            tx = ok.SampleFunction(space, op.apply(x).values * (1.0 / op.max_bound))
            lhs = ok.k_lp_linf_grid(ts, tx, couple.p)
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
        gamma = 0.5 * ok.sparr_gamma(1, 2)
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
        # the planted fault breaks the bound by relative margins of 0.98 to
        # 1.61; a violation_rel above them passes every input, proving the
        # threshold comes from the scenario, not a hard-coded constant
        scenario = load_scenario("thm46a_negative_control.json")
        assert run_scenario(scenario)["status"] == "fail"
        scenario["tolerances"] = {"violation_rel": 2.0}
        assert run_scenario(scenario)["status"] == "pass"
