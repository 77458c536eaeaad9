import copy
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import kfunc, specs
from orliczkit.verify import run_scenario

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "orliczkit" / "scenarios"
SHIPPED = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


def shipped(name: str) -> dict:
    """A shipped scenario cut down to 2 inputs."""
    scenario = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    scenario["inputs"]["count"] = 2
    return scenario


def with_leaf(scenario: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(scenario)
    node = out
    for key in path[:-1]:   # a section the scenario lacks is added
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return out


class TestResolvers:
    def test_space_uniform(self):
        sp = specs.resolve_space({"weights": "uniform", "n": 4})
        assert sp.weights.tolist() == [1.0] * 4

    def test_space_explicit(self):
        sp = specs.resolve_space({"weights": [0.5, 2.0]})
        assert sp.weights.tolist() == [0.5, 2.0]

    def test_space_unknown_key(self):
        with pytest.raises(specs.SpecError):
            specs.resolve_space({"weights": "uniform", "n": 4, "wat": 1})

    def test_couple_inf(self):
        c = specs.resolve_couple({"p": 2, "q": "inf"})
        assert c.q_is_inf

    def test_couple_takes_the_numeric_strings_the_cli_passes(self):
        c = specs.resolve_couple({"p": "1.5", "q": "3"})
        assert (c.p, c.q) == (1.5, 3.0)

    def test_explicit_weights_take_no_n(self):
        # n would be echoed unread, so two equal spaces would hash differently
        with pytest.raises(specs.SpecError, match="space.n"):
            specs.resolve_space({"weights": [1.0, 2.0], "n": 2})

    def test_rho_kinds(self):
        # each kind is a jet (rho, t*rho', t^2*rho'')
        assert specs.resolve_rho({"kind": "min_one"})(0.5).tolist() == [0.5, 0.5, 0.0]
        assert specs.resolve_rho({"kind": "max_one"})(0.5).tolist() == [1.0, 0.0, 0.0]
        assert specs.resolve_rho({"kind": "power", "theta": 0.5})(4.0).tolist() == [2.0, 1.0, -0.5]
        powerlog = specs.resolve_rho({"kind": "powerlog", "theta": 0.5, "a": 1, "b": 0})
        assert float(powerlog(1.0)[0]) == pytest.approx(np.log(np.e + 1))
        pwl = specs.resolve_rho({"kind": "pwl", "knots": [1.0], "values": [1.0],
                                 "slope0": 1.0, "slope_inf": 0.0})
        assert pwl(0.25).tolist() == [0.25, 0.25, 0.0]

    def test_rho_unknown_kind(self):
        with pytest.raises(specs.SpecError):
            specs.resolve_rho({"kind": "mystery"})

    @pytest.mark.parametrize("record, message", [
        ({"kind": "powerlog", "theta": 1.5, "a": 0, "b": 0}, "powerlog rho: theta must lie in"),
        ({"kind": "power", "theta": 2}, "power rho: theta must lie in"),
    ])
    def test_rho_build_errors_are_spec_errors(self, record, message):
        # the builds raise a plain ValueError, which resolve_rho must not pass on
        with pytest.raises(specs.SpecError, match=message):
            specs.resolve_rho(record)

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
        assert trunc.apply(x).values.tolist() == [[1, 2, 0, 0]]
        mo = specs.resolve_operator({"kind": "max_of", "ops": [
            {"kind": "identity"}, {"kind": "multiplier", "m": [0.5, 0.5, 0.5, 0.5]}]},
            sp, couple)
        assert mo.bound_p == pytest.approx(1.5)
        rc = specs.resolve_operator({"kind": "random_contractive", "seed": 3}, sp, couple)
        assert rc.kind == "linear" and rc.bound_p <= 1.0 + 1e-12

    def test_operator_unknown_kind(self):
        with pytest.raises(specs.SpecError):
            specs.resolve_operator({"kind": "teleport"}, ok.uniform_space(2), ok.ExponentCouple(1, 2))


class TestPhiCache:
    """`resolve_phi` shares one phi per spec, in a bounded LRU keyed on the
    spec's sorted JSON text."""

    GENERATOR = {"kind": "generator", "p": 1.5, "q": 3, "rho": {"kind": "power", "theta": 0.5}}

    def test_key_order_does_not_matter(self):
        specs._cached_phi.cache_clear()
        reordered = {"rho": {"theta": 0.5, "kind": "power"}, "q": 3, "p": 1.5,
                     "kind": "generator"}
        assert specs.resolve_phi(self.GENERATOR) is specs.resolve_phi(reordered)
        info = specs._cached_phi.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_bound_holds_a_norms_round_and_drops_the_least_recent(self):
        # one norms benchmark round cycles through 6 distinct specs
        assert specs.PHI_CACHE_SIZE >= 6
        assert specs._cached_phi.cache_info().maxsize == specs.PHI_CACHE_SIZE
        specs._cached_phi.cache_clear()
        powers = [{"kind": "power", "p": 2 + k} for k in range(specs.PHI_CACHE_SIZE + 1)]
        first = [specs.resolve_phi(r) for r in powers[:-1]]
        assert [specs.resolve_phi(r) for r in powers[:-1]] == first   # identity: eq=False
        specs.resolve_phi(powers[-1])
        assert specs._cached_phi.cache_info().currsize == specs.PHI_CACHE_SIZE
        assert specs.resolve_phi(powers[0]) is not first[0]
        assert specs.resolve_phi(powers[-2]) is first[-1]

    def test_errors_are_not_cached(self):
        before = specs._cached_phi.cache_info().currsize
        for _ in range(2):
            with pytest.raises(specs.SpecError, match="finite number"):
                specs.resolve_phi({"kind": "power", "p": "two"})
            # a set is not JSON: resolved uncached, with the same error
            with pytest.raises(specs.SpecError, match="finite number"):
                specs.resolve_phi({"kind": "power", "p": {2}})
        assert specs._cached_phi.cache_info().currsize == before

    def test_a_record_resolves_as_its_json_text(self):
        # a tuple where the format has a list is built from its JSON twin,
        # whether or not the twin was resolved first
        h = {"knots": (1.0,), "values": (2.0,), "slope0": 1.0, "slope_inf": 1.0}
        record = {"kind": "h", "p": 1, "q": 2, "h": h}
        twin = {"kind": "h", "p": 1, "q": 2, "h": dict(h, knots=[1.0], values=[2.0])}
        specs._cached_phi.cache_clear()
        built = specs.resolve_phi(record)
        assert specs.resolve_phi(twin) is built
        direct = ok.build_from_h(ok.ExponentCouple(1, 2),
                                 ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0))
        u = np.array([0.5, 3.0])
        assert built.jet(u).tolist() == direct.jet(u).tolist()


class TestOperatorCache:
    """`resolve_operator` shares one operator per (spec, weights, couple), in
    a bounded LRU keyed on the spec's sorted JSON text."""

    SPACE, COUPLE = ok.uniform_space(4), ok.ExponentCouple(1, 2)
    MAX_OF = {"kind": "max_of", "ops": [{"kind": "identity"},
                                         {"kind": "multiplier", "m": [0.5, 0.5, 1.0, 0.1]}]}

    def test_key_order_does_not_matter(self):
        specs._cached_operator.cache_clear()
        reordered = {"ops": [{"kind": "identity"}, {"m": [0.5, 0.5, 1.0, 0.1], "kind": "multiplier"}],
                     "kind": "max_of"}
        op = specs.resolve_operator(self.MAX_OF, self.SPACE, self.COUPLE)
        assert specs.resolve_operator(reordered, ok.uniform_space(4), self.COUPLE) is op
        info = specs._cached_operator.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_another_couple_space_or_spec_is_another_operator(self):
        op = specs.resolve_operator({"kind": "averaging"}, self.SPACE, self.COUPLE)
        others = [specs.resolve_operator({"kind": "averaging"}, self.SPACE, ok.ExponentCouple(1, 3)),
                  specs.resolve_operator({"kind": "averaging"}, ok.uniform_space(5), self.COUPLE),
                  specs.resolve_operator({"kind": "averaging"},
                                         ok.DiscreteMeasureSpace([2.0] * 4), self.COUPLE),
                  specs.resolve_operator({"kind": "identity"}, self.SPACE, self.COUPLE)]
        assert all(other is not op for other in others)
        assert others[0].bound_q == op.bound_q and others[0].couple.q == 3
        assert others[1].space.n == 5 and others[2].space.weights.tolist() == [2.0] * 4

    def test_a_halved_fault_leaves_the_shared_bounds(self):
        scenario = dict(shipped("thm31b_norm_p2"), inputs={"count": 20})
        op = specs.resolve_scenario(scenario)[4]
        bounds = (op.bound_p, op.bound_q)
        faulted = dict(scenario, fault={"halve_certificate": True})
        assert run_scenario(faulted)["status"] == "fail"
        again = specs.resolve_scenario(scenario)[4]
        assert again is op and (again.bound_p, again.bound_q) == bounds
        assert run_scenario(scenario)["status"] == "pass"

    def test_the_scenario_space_is_the_operator_space(self):
        scenario = shipped("thm31b_norm_p2")
        first, again = specs.resolve_scenario(scenario), specs.resolve_scenario(scenario)
        assert first[4] is again[4] and first[1] is again[1] is first[4].space

    def test_errors_are_not_cached(self):
        before = specs._cached_operator.cache_info().currsize
        for _ in range(2):
            with pytest.raises(specs.SpecError, match="keep_first"):
                specs.resolve_operator({"kind": "truncation", "keep_first": 9},
                                       self.SPACE, self.COUPLE)
            # a set is not JSON: resolved uncached, with the same error
            with pytest.raises(specs.SpecError, match="multiplier m"):
                specs.resolve_operator({"kind": "multiplier", "m": {2}}, self.SPACE, self.COUPLE)
        assert specs._cached_operator.cache_info().currsize == before

    def test_bound_holds_the_shipped_operators(self):
        # the 9 phi-bearing shipped scenarios are one round of the norms
        # benchmark workload; their operators are the 9 distinct operators of
        # all 13 (prop22 shares thm31a_p2's maximal at (2, inf)), and a max_of
        # builds its members uncached
        assert specs.OPERATOR_CACHE_SIZE == 9
        assert specs._cached_operator.cache_info().maxsize == specs.OPERATOR_CACHE_SIZE
        scenarios = [json.loads((SCENARIO_DIR / f"{name}.json").read_text()) for name in SHIPPED]

        def key(s):
            return tuple(json.dumps(s[k], sort_keys=True) for k in ("operator", "space", "couple"))

        keys = {key(s) for s in scenarios if s.get("operator")}
        assert {key(s) for s in scenarios if s.get("phi")} == keys
        assert len(keys) == specs.OPERATOR_CACHE_SIZE
        specs._cached_operator.cache_clear()
        ops = [[specs.resolve_scenario(s)[4] for s in scenarios] for _ in range(2)]
        assert [a is b for a, b in zip(*ops)] == [True] * len(scenarios)
        assert specs._cached_operator.cache_info().misses == specs.OPERATOR_CACHE_SIZE


# each tagged-record family: its kind table and its resolver
FAMILIES = {
    "rho": (specs._RHO_KINDS, specs.resolve_rho),
    "phi": (specs._PHI_KINDS, specs.resolve_phi),
    "operator": (specs._OPERATOR_KINDS, lambda record: specs.resolve_operator(
        record, ok.uniform_space(4), ok.ExponentCouple(1, 2))),
}
KINDS = [(family, kind) for family, (kinds, _) in FAMILIES.items() for kind in kinds]


class TestKindTables:
    """Every rho, phi and operator record is parsed by `specs._by_kind`
    against its family's kind table."""

    def test_the_tables_hold_every_kind(self):
        assert {family: sorted(kinds) for family, (kinds, _) in FAMILIES.items()} == {
            "rho": ["max_one", "min_one", "power", "powerlog", "pwl"],
            "phi": ["generator", "h", "power"],
            "operator": ["averaging", "identity", "matrix", "max_of", "maximal", "multiplier",
                         "random_contractive", "truncation"]}

    @pytest.mark.parametrize("family, kind", KINDS)
    def test_missing_and_unknown_keys(self, family, kind):
        kinds, resolve = FAMILIES[family]
        keys = kinds[kind][0]
        full = {"kind": kind, **{key: None for key in keys}}
        bad = [({k: v for k, v in full.items() if k != key}, f"{kind} {family} missing keys: "
                 + re.escape(str([key]))) for key in keys]
        bad.append((dict(full, extra=1), f"{kind} {family} has unknown keys: " + re.escape("['extra']")))
        for record, message in bad:
            with pytest.raises(specs.SpecError, match=f"^{message}$"):
                resolve(record)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_unknown_kind_and_records_that_are_not_objects(self, family):
        resolve = FAMILIES[family][1]
        for kind in ("mystery", None, 2, ["power"], "Power"):
            with pytest.raises(specs.SpecError, match=f"^unknown {family} kind "):
                resolve({"kind": kind})
        for record in ([{"kind": "power"}], "power", None, 3, {"p": 2}):
            with pytest.raises(specs.SpecError, match=f"^{family} spec must be a JSON object "
                                                       "with a 'kind', got "):
                resolve(record)

    def test_build_errors_name_the_kind_and_family(self):
        space, couple = ok.uniform_space(4), ok.ExponentCouple(1, 2)
        with pytest.raises(specs.SpecError, match="^h phi: q must be finite"):
            specs.resolve_phi({"kind": "h", "p": 1, "q": "inf", "h": {
                "knots": [1.0], "values": [1.0], "slope0": 1.0, "slope_inf": 1.0}})
        with pytest.raises(specs.SpecError, match="^multiplier operator: "):
            specs.resolve_operator({"kind": "multiplier", "m": [2.0] * 4}, space, couple)
        # a nested record's error is its own, not wrapped again by the
        # generator phi or the max_of that holds it
        with pytest.raises(specs.SpecError, match="^power rho: theta must lie in"):
            specs.resolve_phi({"kind": "generator", "p": 1, "q": 2,
                               "rho": {"kind": "power", "theta": 2}})
        with pytest.raises(specs.SpecError, match="^multiplier operator: "):
            specs.resolve_operator({"kind": "max_of", "ops": [
                {"kind": "identity"}, {"kind": "multiplier", "m": [2.0] * 4}]}, space, couple)

    def test_readme_config_records_match(self):
        # the README's config-record table is a copy of the kind tables
        lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| family | kind | keys besides `kind` | notes |") + 2
        rows = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            family, kind, keys, _ = (cell.strip() for cell in line.strip("|").split("|"))
            rows[family.strip("`"), kind.strip("`")] = tuple(re.findall(r"`(\w+)`", keys))
        assert rows == {(family, kind): FAMILIES[family][0][kind][0] for family, kind in KINDS}


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
        assert "tolerances" not in norm and "t_grid" not in norm
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

    @pytest.mark.parametrize("inputs", [
        {"scale": 0}, {"scale": -1}, {"scale": float("nan")}, {"scale": float("inf")},
        {"scale": "x"}, {"scale": True}, {"count": True},
    ])
    def test_input_values_validated(self, inputs):
        with pytest.raises(specs.SpecError, match="inputs"):
            specs.normalize_scenario(dict(self.BASE, inputs=inputs))

    def test_bool_seed_rejected(self):
        with pytest.raises(specs.SpecError, match="seed"):
            specs.normalize_scenario(dict(self.BASE, seed=True))

    @pytest.mark.parametrize("couple", [
        {"p": "1", "q": 2}, {"p": 1, "q": "2"}, {"p": 1, "q": "Infinity"}, {"p": 1, "q": math.inf},
    ])
    def test_couple_is_numbers_or_inf(self, couple):
        # a scenario that runs the same check as {"p": 1, "q": 2} must normalize alike
        with pytest.raises(specs.SpecError, match="couple"):
            specs.normalize_scenario(dict(self.BASE, couple=couple))

    @pytest.mark.parametrize("name, change", [
        ("thm46a", {"p": "1"}), ("thm46a", {"q": "2"}),
        ("thm31b_norm_p2", {"p": "2"}), ("thm31b_norm_p2", {"q": "Infinity"}),
        ("thm31b_norm_p2", {"q": math.inf}),
    ])
    def test_phi_exponents_are_numbers_or_inf(self, name, change, build_calls):
        # as for the couple: {"p": "1"} and {"p": 1} would hash apart
        raw = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        raw["phi"].update(change)
        with pytest.raises(specs.SpecError, match=r"phi\.[pq] must be a number or 'inf'"):
            specs.normalize_scenario(raw)
        assert build_calls["phi"] == 0

    def test_integer_scale_accepted(self):
        assert specs.normalize_scenario(dict(self.BASE, inputs={"scale": 2}))["inputs"]["scale"] == 2


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
    "fault": {"halve_certificate": True},
    "diagnostics": True,
}


def minimal_scenario(tag: str) -> dict:
    """The required sections of the tag and nothing else, on a couple it takes."""
    record = specs.THEOREMS[tag]
    scenario = {"theorem": tag, "seed": 1, "space": {"weights": "uniform", "n": 4},
                "couple": {"p": 1.5 if record.constant == "linear" else 1,
                           "q": "inf" if record.q_inf else 2}}
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
        if record.constant == "linear":
            bad.append(dict(base, couple={"p": 1, "q": 2}))
        for scenario in bad:
            with pytest.raises(specs.SpecError):
                specs.normalize_scenario(scenario)
        assert build_calls == {"phi": 0, "operator": 0}

    def test_prop22_takes_the_exponents_its_kernels_certify(self, build_calls):
        base = minimal_scenario("prop22")
        for couple in ({"p": kfunc.K_P_MAX, "q": "inf"}, {"p": 1, "q": kfunc.L_Q_MAX}):
            specs.normalize_scenario(dict(base, couple=couple))
        beyond = [({"p": math.nextafter(kfunc.K_P_MAX, math.inf), "q": "inf"}, "p <= 1e+18"),
                  ({"p": 1, "q": math.nextafter(kfunc.L_Q_MAX, math.inf)}, "q <= 45000")]
        for couple, bound in beyond:
            with pytest.raises(specs.SpecError, match=re.escape(bound)):
                specs.normalize_scenario(dict(base, couple=couple))
        assert build_calls == {"phi": 0, "operator": 2}

    @pytest.mark.parametrize("tag", sorted(tag for tag, record in specs.THEOREMS.items()
                                           if not record.q_inf))
    def test_a_couple_beyond_the_range_of_gamma(self, tag, build_calls):
        # sparr_gamma takes p and q in [1, 64]; a tag whose constant reads it
        # raised a bare ValueError there, from inside its verifier
        record = specs.THEOREMS[tag]
        far = dict(minimal_scenario(tag), couple={"p": 1.5, "q": 64.5})
        near_one = dict(minimal_scenario(tag), couple={"p": 1.01, "q": 2})
        if record.gamma:
            with pytest.raises(specs.SpecError, match="q <= 64"):
                specs.normalize_scenario(far)
        else:
            specs.normalize_scenario(far)
        if record.constant == "linear":   # its dual branch reads gamma(q', p')
            with pytest.raises(specs.SpecError, match="p' = p/.p-1. <= 64"):
                specs.normalize_scenario(near_one)
            assert build_calls == {"phi": 0, "operator": 0}
        else:
            specs.normalize_scenario(near_one)

    @pytest.mark.parametrize("name, change", [
        ("sparr_lemma_1_2", {"couple": {"p": 1, "q": "inf"}}),
        ("thm46b_norm_1_2", {"couple": {"p": 1, "q": "inf"}}),
        ("remark_concave_h_1_2", {"couple": {"p": 1, "q": "inf"}}),
        ("thm31a_p1_orlicz", {"couple": {"p": 1, "q": 2}}),
        ("thm31b_norm_p2", {"couple": {"p": 2, "q": 4}}),
        ("thm46a", {"diagnostics": True}),
        # the t-grids are constants of verify: a t_grid, even null, is an unknown key
        ("thm46a", {"t_grid": {"start": 0.1, "stop": 10, "points": 4}}),
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

    def test_readme_table_matches(self):
        # the README's scenario table is a copy of THEOREMS; keep the two alike
        lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| tag | requires | also reads | q | operator |") + 2
        rows = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            tag, requires, reads, q, operator = (cell.strip() for cell in line.strip("|").split("|"))
            rows[tag.strip("`")] = (tuple(re.findall(r"`(\w+)`", requires)),
                                    tuple(re.findall(r"`(\w+)`", reads)), q, operator)
        q_side = {True: "`inf`", False: "finite", None: "finite or `inf`"}
        assert rows == {
            tag: (record.requires, record.reads, q_side[record.q_inf],
                  "linear" if record.constant == "linear"
                  else "any" if "operator" in record.requires else "")
            for tag, record in specs.THEOREMS.items()}

    def test_sparr_keeps_its_own_pair_distribution(self):
        # the pairs come from verify._pair_batch, which has no distribution
        raw = json.loads((SCENARIO_DIR / "sparr_lemma_1_2.json").read_text())
        assert raw["inputs"]["distribution"] == "mixed"
        for distribution in ("uniform", "spikes", "bounded"):
            bad = dict(raw, inputs=dict(raw["inputs"], distribution=distribution))
            with pytest.raises(specs.SpecError, match="distribution"):
                specs.normalize_scenario(bad)


class TestMalformedLeaves:
    @pytest.mark.parametrize("name, path, value", [
        ("thm46a", ("space", "n"), True),
        ("thm31a_p1_orlicz", ("operator", "keep_first"), -1),
        ("thm31a_p1_orlicz", ("operator", "keep_first"), 2.7),
        ("thm31a_p1_orlicz", ("operator", "keep_first"), "3"),
        ("thm31a_p1_orlicz", ("operator", "keep_first"), 0),
        ("thm31a_p1_orlicz", ("operator", "keep_first"), None),
        ("thm31a_p1_orlicz", ("operator", "keep_first"), 9),
        ("remark_concave_h_1_2", ("operator", "seed"), 2.5),
        ("remark_concave_h_1_2", ("operator", "seed"), "7"),
        ("remark_concave_h_1_2", ("operator", "seed"), True),
        ("remark_concave_h_1_2", ("operator", "seed"), -1),
        ("thm46a", ("seed",), -1),
        ("thm46a", ("fault",), []),
        ("thm46a_negative_control", ("fault", "halve_certificate"), "x"),
        ("thm46b_norm_1_2", ("diagnostics",), "x"),
        ("thm46a", ("phi", "h", "slope0"), "x"),
        ("thm46a", ("phi", "h", "slope0"), math.nan),
        ("thm46a", ("phi", "h", "knots", 0), None),
        ("thm46a", ("phi", "h", "values"), 2.0),
        ("thm31a_p1_orlicz", ("phi", "rho", "theta"), "x"),
        ("thm31a_p1_orlicz", ("phi", "rho", "a"), None),
        ("thm46a", ("tolerances", "violation_rel"), -1),
        ("thm46a", ("tolerances", "abs_floor"), math.inf),
        ("thm46a", ("couple", "p"), True),
        ("thm46a", ("operator",), {"kind": "multiplier", "m": [0] * 8}),
        ("thm46a_negative_control", ("operator", "ops"), {}),
        ("thm46a", ("theorem",), []),
        # the t-grids are constants of verify, so t_grid is an unknown key
        ("sparr_lemma_1_2", ("t_grid", "spacing"), "log"),
    ])
    def test_is_a_spec_error(self, name, path, value):
        with pytest.raises(specs.SpecError):
            specs.normalize_scenario(with_leaf(shipped(name), path, value))

    def test_thm51_linear_needs_p_above_one(self, build_calls):
        scenario = shipped("thm51_linear_15_2")
        scenario["couple"]["p"] = scenario["phi"]["p"] = 1
        with pytest.raises(specs.SpecError, match="p > 1"):
            specs.normalize_scenario(scenario)
        assert build_calls == {"phi": 0, "operator": 0}

    @pytest.mark.parametrize("name, phi", [
        ("thm51_linear_2_3", {"p": 1, "q": "inf"}),
        ("thm51_linear_2_3", {"p": 1, "q": 2}),
        ("thm51_linear_2_3", {"p": 3, "q": 6}),
        ("thm46a", {"q": 3}),
        ("thm31b_norm_p2", {"kind": "power", "p": 1.2}),
        ("thm46b_norm_1_2", {"kind": "power", "p": 2.5}),
    ])
    def test_phi_of_another_couple_is_rejected_before_building(self, name, phi, build_calls):
        # it would be checked against this couple's constant and certificates;
        # L^1.2 does not lie between L^2 and L^inf
        scenario = shipped(name)
        scenario["phi"] = phi if phi.get("kind") == "power" else dict(scenario["phi"], **phi)
        with pytest.raises(specs.SpecError, match="couple"):
            specs.normalize_scenario(scenario)
        assert build_calls == {"phi": 0, "operator": 0}

    @pytest.mark.parametrize("name, r", [("thm31b_norm_p2", 2), ("thm31b_norm_p2", 7.5),
                                         ("thm46b_norm_1_2", 1), ("thm46b_norm_1_2", 2)])
    def test_power_phi_between_p_and_q_is_taken(self, name, r, build_calls):
        specs.normalize_scenario(dict(shipped(name), phi={"kind": "power", "p": r}))
        assert build_calls == {"phi": 1, "operator": 1}

    @pytest.mark.parametrize("fault", [None, False, {}, {"halve_certificate": False}])
    def test_a_fault_that_plants_nothing_normalizes_to_null(self, fault):
        # two scenarios that run the same check normalize, and hash, the same
        assert specs.normalize_scenario(dict(shipped("thm46a"), fault=fault))["fault"] is None

    def test_false_section_reads_as_absent(self):
        scenario = dict(shipped("sparr_lemma_1_2"), phi=False, operator=False, fault=False)
        assert specs.normalize_scenario(scenario) == specs.normalize_scenario(shipped("sparr_lemma_1_2"))


def leaf_paths(node, path=()):
    """Paths to every value of a scenario that is not a dict or a non-empty list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for index, value in enumerate(node):
            yield from leaf_paths(value, path + (index,))
    else:
        yield path


SWEEP_VALUES = (None, True, "x", -1, 0, 2.5, [], {}, math.nan)
EXTREME_VALUES = (1e308, -1e308, 1e300, 5e-324)


def run_cleanly(scenario, what):
    """A report, or a SpecError or ScenarioRejected; anything else fails the test."""
    try:
        report = run_scenario(scenario)
    except (specs.SpecError, ok.ScenarioRejected):
        return
    except Exception as exc:
        pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
    assert report["status"] in ("pass", "fail")


class TestLeafSweep:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_leaf_gives_a_report_or_a_clean_error(self, name):
        # leaf i takes the values SWEEP_VALUES[i % 3::3]: every value meets a
        # third of the leaves, which keeps the sweep to a few seconds
        base = shipped(name)
        for i, path in enumerate(leaf_paths(base)):
            for value in SWEEP_VALUES[i % 3::3]:
                run_cleanly(with_leaf(base, path, value), f"{name} with {path} = {value!r}")

    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_numeric_leaf_at_the_ends_of_the_float_range(self, name):
        # every number, and every exponent given as 'inf', under the suite's
        # warnings-as-errors: a RuntimeWarning is a traceback
        base = shipped(name)
        for path in leaf_paths(base):
            leaf = functools.reduce(lambda node, key: node[key], path, base)
            if leaf != "inf" and (isinstance(leaf, bool) or not isinstance(leaf, (int, float))):
                continue
            for value in EXTREME_VALUES:
                run_cleanly(with_leaf(base, path, value), f"{name} with {path} = {value!r}")

    # K divides by zero from p = 1e19 (q = inf), and L gives an invalid value
    # at q = 1e308, far beyond the q its stop certifies
    @pytest.mark.parametrize("path, value, bound", [
        pytest.param(("couple", "p"), 1e308, "p <= 1e+18 at q = inf", id="p=1e+308"),
        pytest.param(("couple", "p"), 1e300, "p <= 1e+18 at q = inf", id="p=1e+300"),
        pytest.param(("couple", "q"), 1e308, "q <= 45000", id="q=1e+308"),
    ])
    def test_prop22_at_an_extreme_exponent(self, path, value, bound):
        with pytest.raises(specs.SpecError, match=re.escape(bound)):
            run_scenario(with_leaf(shipped("prop22_maximal_2inf"), path, value))
