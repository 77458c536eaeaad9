import json
from pathlib import Path

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import specs

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "orliczkit" / "scenarios"


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
        sparr = json.loads((SCENARIO_DIR / "sparr_lemma_1_2.json").read_text())
        _, _, _, phi, op = specs.resolve_scenario(sparr)
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
        pts = specs.parse_range("0.01:100:5", log=True)
        assert np.allclose(pts, [0.01, 0.1, 1.0, 10.0, 100.0])

    def test_bad_shapes(self):
        with pytest.raises(specs.SpecError):
            specs.parse_range("1:2")
        with pytest.raises(specs.SpecError):
            specs.parse_range("-1:2:5", log=True)


# one value per optional section, each valid on its own
SECTION_VALUES = {
    "phi": {"kind": "power", "p": 2},
    "operator": {"kind": "identity"},
    "t_grid": {"start": 0.1, "stop": 10, "points": 4},
    "fault": {"halve_certificate": True},
    "diagnostics": True,
}


def minimal_scenario(tag: str) -> dict:
    """The required sections of the tag and nothing else, on a couple it takes."""
    record = specs.THEOREMS[tag]
    scenario = {"theorem": tag, "seed": 1, "space": {"weights": "uniform", "n": 4},
                "couple": {"p": 1, "q": "inf" if record.q_inf else 2}}
    scenario.update({key: SECTION_VALUES[key] for key in record.requires})
    return scenario


@pytest.fixture
def build_calls(monkeypatch):
    calls = {"phi": 0, "operator": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(specs, "resolve_phi", counting("phi", specs.resolve_phi))
    monkeypatch.setattr(specs, "resolve_operator", counting("operator", specs.resolve_operator))
    return calls


class TestTheoremTable:
    @pytest.mark.parametrize("tag", sorted(specs.THEOREMS))
    def test_takes_what_it_requires_and_reads(self, tag, build_calls):
        record = specs.THEOREMS[tag]
        scenario = minimal_scenario(tag)
        scenario.update({key: SECTION_VALUES[key] for key in record.reads})
        specs.normalize_scenario(scenario)
        assert build_calls == {key: int(key in record.requires) for key in build_calls}

    @pytest.mark.parametrize("tag", sorted(specs.THEOREMS))
    def test_rejects_before_building_phi_or_operator(self, tag, build_calls):
        record = specs.THEOREMS[tag]
        base = minimal_scenario(tag)
        bad = [{k: v for k, v in base.items() if k != key} for key in record.requires]
        bad += [dict(base, **{key: SECTION_VALUES[key]}) for key in specs.SECTIONS
                if key not in record.requires + record.reads]
        if record.q_inf is not None:
            bad.append(dict(base, couple={"p": 1, "q": 2 if record.q_inf else "inf"}))
        for scenario in bad:
            with pytest.raises(specs.SpecError):
                specs.normalize_scenario(scenario)
        assert build_calls == {"phi": 0, "operator": 0}

    @pytest.mark.parametrize("name, change", [
        ("sparr_lemma_1_2", {"couple": {"p": 1, "q": "inf"}}),
        ("thm46b_norm_1_2", {"couple": {"p": 1, "q": "inf"}}),
        ("remark_concave_h_1_2", {"couple": {"p": 1, "q": "inf"}}),
        ("thm31a_p1_orlicz", {"couple": {"p": 1, "q": 2}}),
        ("thm31b_norm_p2", {"couple": {"p": 2, "q": 4}}),
        ("thm46a", {"diagnostics": True}),
        ("thm46a", {"t_grid": SECTION_VALUES["t_grid"]}),
        ("thm46a", {"phi": None}),
        ("sparr_lemma_1_2", {"phi": SECTION_VALUES["phi"]}),
        ("sparr_lemma_1_2", {"fault": SECTION_VALUES["fault"]}),
        ("sparr_lemma_1_2", {"fault": {}}),
        ("sparr_lemma_1_2", {"t_grid": None}),
    ])
    def test_shipped_scenario_outside_its_theorem(self, name, change):
        raw = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        specs.normalize_scenario(raw)
        with pytest.raises(specs.SpecError):
            specs.normalize_scenario(dict(raw, **change))

    def test_sparr_keeps_its_own_pair_distribution(self):
        # the pairs come from verify._pair_batch, which has no distribution
        raw = json.loads((SCENARIO_DIR / "sparr_lemma_1_2.json").read_text())
        assert raw["inputs"]["distribution"] == "mixed"
        for distribution in ("uniform", "spikes", "bounded"):
            bad = dict(raw, inputs=dict(raw["inputs"], distribution=distribution))
            with pytest.raises(specs.SpecError, match="distribution"):
                specs.normalize_scenario(bad)
