import numpy as np
import pytest

import orliczkit as ok
from orliczkit import specs


class TestResolvers:
    def test_space_uniform(self):
        sp = specs.resolve_space({"weights": "uniform", "n": 4})
        assert sp.n == 4 and sp.total_measure == 4.0

    def test_space_explicit(self):
        sp = specs.resolve_space({"weights": [0.5, 2.0]})
        assert sp.total_measure == 2.5

    def test_space_unknown_key(self):
        with pytest.raises(specs.SpecError):
            specs.resolve_space({"weights": "uniform", "n": 4, "wat": 1})

    def test_couple_inf(self):
        c = specs.resolve_couple({"p": 2, "q": "inf"})
        assert c.q_is_inf

    def test_rho_kinds(self):
        assert float(specs.resolve_rho({"kind": "min_one"})(0.5)) == 0.5
        assert float(specs.resolve_rho({"kind": "max_one"})(0.5)) == 1.0
        assert float(specs.resolve_rho({"kind": "power", "theta": 0.5})(4.0)) == 2.0
        powerlog = specs.resolve_rho({"kind": "powerlog", "theta": 0.5, "a": 1, "b": 0})
        assert float(powerlog(1.0)) == pytest.approx(np.log(np.e + 1))
        pwl = specs.resolve_rho({"kind": "pwl", "knots": [1.0], "values": [1.0],
                                 "slope0": 1.0, "slope_inf": 0.0})
        assert float(pwl(0.25)) == 0.25

    def test_rho_unknown_kind(self):
        with pytest.raises(specs.SpecError):
            specs.resolve_rho({"kind": "mystery"})

    def test_phi_kinds(self):
        power = specs.resolve_phi({"kind": "power", "p": 2})
        assert float(power(3.0)) == 9.0
        hspec = {"kind": "h", "p": 1, "q": 2,
                 "h": {"knots": [1.0], "values": [2.0], "slope0": 1.0, "slope_inf": 1.0}}
        assert float(specs.resolve_phi(hspec)(3.0)) == pytest.approx(12.0)
        gen = specs.resolve_phi({"kind": "generator", "p": 1, "q": 2,
                                 "rho": {"kind": "power", "theta": 0.5}})
        assert float(gen(2.0)) == pytest.approx(2 ** (4 / 3), abs=1e-6)

    def test_operator_kinds(self):
        sp = ok.uniform_space(4)
        couple = ok.ExponentCouple(1, 2)
        ident = specs.resolve_operator({"kind": "identity"}, sp, couple)
        assert ident.bound_p == 1.0
        trunc = specs.resolve_operator({"kind": "truncation", "keep_first": 2}, sp, couple)
        x = ok.SampleFunction(sp, [1, 2, 3, 4])
        assert trunc.apply(x).values.tolist() == [1, 2, 0, 0]
        mo = specs.resolve_operator({"kind": "max_of", "ops": [
            {"kind": "identity"}, {"kind": "multiplier", "m": [0.5, 0.5, 0.5, 0.5]}]},
            sp, couple)
        assert mo.bound_p == pytest.approx(1.5)
        rc = specs.resolve_operator({"kind": "random_contractive", "seed": 3}, sp, couple)
        assert rc.kind == "linear" and rc.bound_p <= 1.0 + 1e-12

    def test_operator_unknown_kind(self):
        with pytest.raises(specs.SpecError):
            specs.resolve_operator({"kind": "teleport"}, ok.uniform_space(2), ok.ExponentCouple(1, 2))


class TestScenarioNormalization:
    BASE = {
        "theorem": "thm46a",
        "seed": 7,
        "space": {"weights": "uniform", "n": 4},
        "couple": {"p": 1, "q": 2},
        "phi": {"kind": "h", "p": 1, "q": 2,
                "h": {"knots": [1.0], "values": [2.0], "slope0": 1.0, "slope_inf": 1.0}},
        "operator": {"kind": "identity"},
    }

    def test_defaults_filled(self):
        norm = specs.normalize_scenario(self.BASE)
        assert norm["inputs"] == {"count": 100, "distribution": "mixed", "scale": 1.0}
        assert norm["tolerances"]["violation_rel"] == 1e-9
        assert norm["t_grid"] is None
        assert norm["fault"] is None and norm["diagnostics"] is False

    def test_idempotent(self):
        once = specs.normalize_scenario(self.BASE)
        assert specs.normalize_scenario(once) == once

    def test_bad_theorem_tag(self):
        bad = dict(self.BASE, theorem="thm99")
        with pytest.raises(specs.SpecError):
            specs.normalize_scenario(bad)

    def test_bad_distribution(self):
        bad = dict(self.BASE, inputs={"distribution": "cauchy"})
        with pytest.raises(specs.SpecError):
            specs.normalize_scenario(bad)

    def test_unknown_tolerance_rejected(self):
        bad = dict(self.BASE, tolerances={"wishful": 1.0})
        with pytest.raises(specs.SpecError):
            specs.normalize_scenario(bad)

    def test_resolve_builds_on_one_space(self):
        scenario, space, couple, phi, op = specs.resolve_scenario(self.BASE)
        assert scenario == specs.normalize_scenario(self.BASE)
        assert op.space is space and op.couple == couple
        assert phi.kind == "h" and couple.p == 1 and couple.q == 2

    def test_resolve_without_phi_or_operator(self):
        bare = {k: v for k, v in self.BASE.items() if k not in ("phi", "operator")}
        _, _, _, phi, op = specs.resolve_scenario(bare)
        assert phi is None and op is None

    def test_pair_inputs_rejected_like_any_unknown_key(self):
        # no part of the runner reads it, so accepting it would drop it silently
        bad = dict(self.BASE, pair_inputs={"count": 3})
        with pytest.raises(specs.SpecError, match="pair_inputs"):
            specs.normalize_scenario(bad)


class TestGridParsing:
    def test_linear_range(self):
        pts = specs.parse_range("1:4:7")
        assert pts.tolist() == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]

    def test_log_range(self):
        pts = specs.parse_log_range("0.01:100:5")
        assert np.allclose(pts, [0.01, 0.1, 1.0, 10.0, 100.0])

    def test_bad_shapes(self):
        with pytest.raises(specs.SpecError):
            specs.parse_range("1:2")
        with pytest.raises(specs.SpecError):
            specs.parse_log_range("-1:2:5")
