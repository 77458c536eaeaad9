import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orliczkit import specs
from orliczkit.cli import main
from orliczkit.verify import run_scenario

SRC_DIR = Path(__file__).parent.parent / "src"
SCENARIO_DIR = SRC_DIR / "orliczkit" / "scenarios"


@pytest.fixture()
def function_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("weight,value\n1,3\n1,1\n1,2\n", encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestGammaCommand:
    def test_diagonal_cell_value(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--p-grid", "1:4:7", "--q-grid", "1:4:7")
        assert code == 0
        rows = parse_csv(out)
        cell = next(r for r in rows if r["p"] == "2" and r["q"] == "2")
        assert float(cell["gamma"]) == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert float(cell["lower_bound"]) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_constants_only_where_defined(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--p-grid", "1:2:2", "--q-grid", "1:2:2")
        rows = parse_csv(out)
        diag = next(r for r in rows if r["p"] == "1" and r["q"] == "1")
        assert diag["c_subadditive"] == ""
        off = next(r for r in rows if r["p"] == "1" and r["q"] == "2")
        assert float(off["c_subadditive"]) == pytest.approx(2.5)
        assert off["c_linear"] == ""

    def test_linear_constant_is_empty_where_p_conjugate_exceeds_64(self, capsys):
        # at p = 1.01, p' = 101 is beyond sparr_gamma's range, so the dual
        # branch of c_linear is undefined; the other cells still print
        code, out, _ = run_cli(capsys, "gamma", "--p-grid", "1:1.02:3", "--q-grid", "2:2:1")
        assert code == 0
        rows = {r["p"]: r for r in parse_csv(out)}
        assert rows["1.01"]["c_linear"] == ""
        assert float(rows["1.01"]["c_subadditive"]) == pytest.approx(
            (2 * float(rows["1.01"]["gamma"])) ** (1 / 1.01))
        assert float(rows["1.02"]["c_linear"]) > 0.0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--p-grid", "2:2:1", "--q-grid", "2:2:1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["gamma"] == "1.41421356237"

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "gamma", "--p-grid", "2:2:1", "--q-grid", "2:2:1")
        row = parse_csv(out)[0]
        assert row["gamma"] == f"{math.sqrt(2.0):.12g}"

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--p-grid", "nope", "--q-grid", "1:2:2")
        assert code == 2
        assert "error" in err


class TestKfuncCommand:
    def test_fast_rows(self, capsys, function_csv):
        code, out, _ = run_cli(capsys, "kfunc", "--input", function_csv,
                               "--couple", "1,inf", "--t-grid", "0.5:2:3")
        assert code == 0
        rows = parse_csv(out)
        assert [r["method"] for r in rows] == ["truncation"] * 3
        # running integral of the rearrangement (3,2,1) at t = 0.5, 1, 2
        assert [float(r["value"]) for r in rows] == pytest.approx([1.5, 3.0, 5.0])

    def test_bad_couple(self, capsys, function_csv):
        code, _, _ = run_cli(capsys, "kfunc", "--input", function_csv,
                             "--couple", "2,1", "--t-grid", "1:2:2")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "kfunc", "--input", "/does/not/exist.csv",
                             "--couple", "1,2", "--t-grid", "1:2:2")
        assert code == 2


class TestMajorantCommand:
    def test_json_round_trips_into_plc_spec(self, capsys):
        code, out, _ = run_cli(capsys, "majorant", "--rho", '{"kind":"max_one"}')
        assert code == 0
        payload = json.loads(out)
        plc = specs.resolve_plc(payload["plc"])
        assert float(plc(4.0)) == pytest.approx(5.0, rel=1e-6)
        assert payload["peetre"]["a"] == pytest.approx(1.0, abs=1e-9)
        assert payload["peetre"]["b"] == pytest.approx(1.0, abs=1e-9)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "majorant", "--rho",
                               '{"kind":"powerlog","theta":0.5,"a":0,"b":0}',
                               "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) > 100

    def test_invalid_json(self, capsys):
        code, _, _ = run_cli(capsys, "majorant", "--rho", "{nope")
        assert code == 2


class TestNormsCommand:
    def test_power_case_matches_weighted_norm(self, capsys, function_csv):
        code, out, _ = run_cli(capsys, "norms", "--input", function_csv,
                               "--phi", '{"kind":"power","p":2}')
        assert code == 0
        payload = json.loads(out)
        assert payload["luxemburg"] == pytest.approx(math.sqrt(14.0), rel=1e-9)
        assert payload["amemiya"] == pytest.approx(2 * math.sqrt(14.0), rel=1e-7)

    def test_csv_format(self, capsys, function_csv):
        code, out, _ = run_cli(capsys, "norms", "--input", function_csv,
                               "--phi", '{"kind":"power","p":1}', "--format", "csv")
        rows = parse_csv(out)
        assert float(rows[0]["luxemburg"]) == pytest.approx(6.0, rel=1e-9)

    def test_weighted_input(self, capsys, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("weight,value\n0.5,-2\n2,4\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "norms", "--input", str(path),
                               "--phi", '{"kind":"power","p":2}')
        assert code == 0
        # weighted square sum: 0.5*4 + 2*16 = 34
        assert json.loads(out)["luxemburg"] == pytest.approx(34.0**0.5, rel=1e-9)

    @pytest.mark.parametrize("fmt_name", ["json", "csv"])
    def test_non_convex_phi_prints_no_amemiya_norm(self, capsys, function_csv, fmt_name):
        # h = min(1, s) at (1, 3), so phi = min(u, u^3): the Amemiya search
        # may stop at a local minimum there, which is no norm value
        phi = ('{"kind":"h","p":1,"q":3,'
               '"h":{"knots":[1],"values":[1],"slope0":1,"slope_inf":0}}')
        code, out, err = run_cli(capsys, "norms", "--input", function_csv, "--phi", phi,
                                 "--format", fmt_name)
        assert code == 0
        assert "not convex" in err
        row = json.loads(out) if fmt_name == "json" else parse_csv(out)[0]
        assert row["amemiya"] == (None if fmt_name == "json" else "")
        assert float(row["luxemburg"]) > 0.0

    def test_convex_h_form_prints_both_norms(self, capsys, function_csv):
        phi = ('{"kind":"h","p":1,"q":2,'
               '"h":{"knots":[1],"values":[2],"slope0":1,"slope_inf":1}}')
        code, out, err = run_cli(capsys, "norms", "--input", function_csv, "--phi", phi)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["amemiya"] >= payload["luxemburg"] > 0.0

    def test_header_validation(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("w,v\n1,1\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "norms", "--input", str(bad),
                             "--phi", '{"kind":"power","p":2}')
        assert code == 2


class TestVerifyCommand:
    def test_shipped_reference_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "verify", "--scenario",
                               str(SCENARIO_DIR / "thm46a.json"), "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["status"] == "pass"
        assert "status=pass" in err

    def test_bare_name_resolves_to_packaged_scenario(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify", "--scenario", "thm46a.json",
                             "--out", str(tmp_path / "r.json"))
        assert code == 0

    def test_negative_control_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--scenario",
                               str(SCENARIO_DIR / "thm46a_negative_control.json"),
                               "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert "status=fail" in err

    def test_byte_identical_reports(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "--scenario", str(SCENARIO_DIR / "thm46a.json"), "--out", str(a))
        run_cli(capsys, "verify", "--scenario", str(SCENARIO_DIR / "thm46a.json"), "--out", str(b))
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra.pop("wall_ms"), rb.pop("wall_ms")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_seed_override_changes_inputs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "--scenario", str(SCENARIO_DIR / "thm46a.json"),
                "--out", str(a), "--seed", "123")
        run_cli(capsys, "verify", "--scenario", str(SCENARIO_DIR / "thm46a.json"),
                "--out", str(b))
        assert json.loads(a.read_text())["scenario"]["seed"] == 123
        assert json.loads(b.read_text())["scenario"]["seed"] == 46001

    def test_bad_input_scale_is_config_error(self, capsys, tmp_path):
        scenario = json.loads((SCENARIO_DIR / "thm46a.json").read_text())
        scenario["inputs"]["scale"] = "x"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2
        assert "inputs.scale" in err

    @pytest.mark.parametrize("name,scale", [("prop22_maximal_2inf.json", 1e308),
                                            ("thm46a.json", 1e308),
                                            ("sparr_lemma_1_2.json", 1e308)])
    def test_huge_input_scale_exits_two(self, capsys, tmp_path, name, scale):
        scenario = json.loads((SCENARIO_DIR / name).read_text())
        scenario["inputs"].update(count=8, scale=scale)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2 and out == ""
        assert "inputs.scale" in err and "Traceback" not in err

    @pytest.mark.parametrize("name, start, stop", [("prop22_maximal_2inf.json", -1, 1),
                                                   ("prop22_maximal_2inf.json", 0, 1),
                                                   ("sparr_lemma_1_2.json", -1, 1)])
    def test_t_grid_reaching_t_le_0_exits_two(self, capsys, tmp_path, name, start, stop):
        # K(t, .) and L(t, .) are defined for t > 0 only; read, such a grid would
        # give a false fail (prop22) or a vacuous pass (sparr_lemma). The t-grids
        # are constants of verify, so any scenario t_grid is an unknown key
        scenario = json.loads((SCENARIO_DIR / name).read_text())
        scenario["inputs"]["count"] = 20
        scenario["t_grid"] = {"start": start, "stop": stop, "points": 5}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2 and out == ""
        assert "unknown keys: ['t_grid']" in err and "Traceback" not in err

    @pytest.mark.parametrize("name, section, key, value", [
        ("thm46a_negative_control.json", "tolerances", "violation_rel", 2.0),
        ("sparr_lemma_1_2.json", "tolerances", "hypothesis_slack", 1e6),
        ("sparr_lemma_1_2.json", "t_grid", "spacing", "log"),
    ], ids=["violation_rel", "hypothesis_slack", "spacing"])
    def test_a_fixed_rule_set_by_the_scenario_exits_two(self, capsys, tmp_path, name, section,
                                                         key, value):
        # the pass thresholds and the t-grids are not scenario settings
        scenario = json.loads((SCENARIO_DIR / name).read_text())
        unknown = key if section in scenario else section
        scenario[section] = dict(scenario.get(section) or {}, **{key: value})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2 and out == ""
        assert f"unknown keys: ['{unknown}']" in err and "Traceback" not in err

    @pytest.mark.parametrize("operator", [
        {"kind": "maximal"},
        {"kind": "max_of", "ops": [{"kind": "identity"}, {"kind": "averaging"}]},
    ], ids=["maximal", "max_of"])
    def test_thm51_linear_with_a_nonlinear_operator_exits_two(self, capsys, tmp_path, operator):
        scenario = json.loads((SCENARIO_DIR / "thm51_linear_15_2.json").read_text())
        scenario["operator"] = operator
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2 and out == ""
        assert "needs a linear operator" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"])
    def test_scenario_file_that_is_not_an_object_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path), "--seed", "3")
        assert code == 2 and out == "" and "scenario file" in err

    def test_missing_scenario_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--scenario", "nope.json")
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--scenario", "{dir}"],
        ["norms", "--input", "{dir}", "--phi", '{"kind": "power", "p": 2}'],
        ["kfunc", "--input", "{dir}", "--couple", "1,2", "--t-grid", "1:2:3"],
        # a passing scenario, so only writing its report fails
        ["verify", "--scenario", "thm46a.json", "--out", "{dir}"],
    ], ids=["verify-scenario", "norms-input", "kfunc-input", "verify-out"])
    def test_a_directory_for_a_file_exits_two(self, capsys, tmp_path, argv):
        # exit 1 is kept for a verification that reports violations
        code, out, err = run_cli(capsys, *(arg.replace("{dir}", str(tmp_path)) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["kfunc", "--input", "{csv}", "--couple", "1.5,3", "--t-grid", "0.1:nan:2"],
        ["kfunc", "--input", "{csv}", "--couple", "1.5,3", "--t-grid", "nan:1:3"],
        ["kfunc", "--input", "{csv}", "--couple", "1.5,3", "--t-grid", "1:inf:3"],
        ["gamma", "--p-grid", "1:2:2", "--q-grid", "2:inf:2"],
    ], ids=["kfunc-nan-stop", "kfunc-nan-start", "kfunc-inf-stop", "gamma-inf-stop"])
    def test_a_non_finite_grid_bound_exits_two(self, capsys, function_csv, argv):
        # a nan bound printed nan rows, and an inf one overflowed the grid
        code, out, err = run_cli(capsys, *(arg.replace("{csv}", function_csv) for arg in argv))
        assert code == 2 and out == ""
        assert "needs a finite start and stop" in err

    @pytest.mark.parametrize("argv", [
        ["gamma", "--p-grid", "1:2:2", "--q-grid", "2:3:2", "--method", "both"],
        ["gamma", "--p-grid", "1:2:2", "--q-grid", "2:3:2", "--method", "fast"],
        ["kfunc", "--input", "{csv}", "--couple", "1,2", "--t-grid", "1:1:1", "--method", "oracle"],
        ["kfunc", "--input", "{csv}", "--couple", "1,2", "--t-grid", "1:1:1", "--method", "fast"],
    ], ids=["gamma-both", "gamma-fast", "kfunc-oracle", "kfunc-fast"])
    def test_method_is_no_option(self, capsys, function_csv, argv):
        # the slow reference routes live in the tests, not behind a CLI option
        code, out, err = run_cli(capsys, *(arg.replace("{csv}", function_csv) for arg in argv))
        assert code == 2 and out == ""
        assert "unrecognized arguments: --method" in err

    def test_refine_is_no_option(self, capsys):
        # the t-grids are fixed, and a larger inputs.count is an edit to the scenario
        code, out, err = run_cli(capsys, "verify", "--scenario", "thm46a.json", "--refine")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --refine" in err


# stdout of `orliczkit majorant` (SHA-256) and of `orliczkit norms` on the
# function_csv atoms, and the details of the shipped thm46b_norm_1_2 report
# with the chain's majorant knot count, each recorded before the records
# behind them (the Peetre tuple, phi's convex flag, the table's slopes) were
# made plain: a change to how they are stored moves no byte of them
PWL_RHO = '{"kind":"pwl","knots":[1,4],"values":[1,2.5],"slope0":1,"slope_inf":0.25}'
PINNED_MAJORANTS = {
    ('{"kind":"max_one"}', "json"):
        "faaeaab8bc8c238ca88c6bbbeb056d1cc74f845f5f6fa482bc2f4eab18f57b2a",
    ('{"kind":"max_one"}', "csv"):
        "41bb185a4cf9ead0f6eeecb4e497d146a8a4f2e75a152e6ede71fcddcec662bc",
    ('{"kind":"powerlog","theta":0.5,"a":1,"b":0}', "json"):
        "836273bd06716ba5e44da52362d6f63747648b8c9a333550093b883ff356af95",
    ('{"kind":"powerlog","theta":0.5,"a":1,"b":0}', "csv"):
        "0485dac94b405b094a17b89e61160a28480803bfcee15e9ff0f9e3b463c770c9",
    (PWL_RHO, "json"): "d56009abf7516850657f0103aa6a1d0b12adde2f2c0b07328da20fc793b522d4",
    (PWL_RHO, "csv"): "b5d06ffa1b72905baca8439d5002f7963e9dd1ee93a7375c2e972ad493dd7991",
}
CONVEX_H = '{"knots":[1],"values":[2],"slope0":1,"slope_inf":1}'
KINKED_H = '{"knots":[1],"values":[1],"slope0":1,"slope_inf":0}'
PINNED_NORMS = {
    (CONVEX_H, "json"): '{\n  "amemiya": 12.2402514692,\n  "luxemburg": 6.78255643744\n}\n',
    (CONVEX_H, "csv"): "luxemburg,amemiya\n6.78255643744,12.2402514692\n",
    (KINKED_H, "json"): '{\n  "amemiya": null,\n  "luxemburg": 3.30192724889\n}\n',
    (KINKED_H, "csv"): "luxemburg,amemiya\n3.30192724889,\n",
}
# stdout of `orliczkit kfunc` (SHA-256) on the function_csv atoms over a
# 41-point t-grid, recorded while one function still took its own path
# through each kernel: reading row 0 of a one-member batch moves no byte
PINNED_KFUNC = {
    "1.5,3": "1e5b92ed510f3c96bbfc5fdc59eca7afe20f67d98761e2b003b9c6762e542b5a",
    "1.5,inf": "0e4820ea7660ecc45d459df83c54ab68cbe8eed55b0849b410ab39d7f7025363",
    "1,2": "da42e7138d4e86875badf1d2286dbd5764d5dc9e5a9c928dbcfa51cf37e60efb",
    "1,inf": "58c443c4bcb138e9ee3c261ab534c1347b7f5e371126f5c6576923cda82943eb",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("rho, fmt_name", sorted(PINNED_MAJORANTS))
    def test_majorant(self, capsys, rho, fmt_name):
        code, out, _ = run_cli(capsys, "majorant", "--rho", rho, "--format", fmt_name)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MAJORANTS[rho, fmt_name]

    @pytest.mark.parametrize("h, fmt_name", sorted(PINNED_NORMS))
    def test_norms(self, capsys, function_csv, h, fmt_name):
        code, out, _ = run_cli(capsys, "norms", "--input", function_csv, "--phi",
                               '{"kind":"h","p":1,"q":3,"h":%s}' % h, "--format", fmt_name)
        assert code == 0 and out == PINNED_NORMS[h, fmt_name]

    @pytest.mark.parametrize("couple", sorted(PINNED_KFUNC))
    def test_kfunc(self, capsys, function_csv, couple):
        code, out, _ = run_cli(capsys, "kfunc", "--input", function_csv, "--couple", couple,
                               "--t-grid", "0.01:100:41")
        assert code == 0 and len(out.splitlines()) == 42
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_KFUNC[couple]

    def test_thm46b_report_details(self):
        scenario = json.loads((SCENARIO_DIR / "thm46b_norm_1_2.json").read_text())
        assert run_scenario(scenario)["details"] == {
            "constant": 2.5, "certified_bound": 36.0, "constant_source": "subadditive",
            "chain": {"gamma": 1.25, "mode": "chain_diagnostics", "majorant_knots": 4096},
            "violation_count": 0}


class TestAsProcess:
    """The command run as its own process, `python -m orliczkit.cli`."""

    @staticmethod
    def run(*argv):
        path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "orliczkit.cli", *argv],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=path))

    @pytest.mark.parametrize("name, code", [("thm46a.json", 0),
                                            ("thm46a_negative_control.json", 1)])
    def test_verify_exit_code(self, tmp_path, name, code):
        done = self.run("verify", "--scenario", name, "--out", str(tmp_path / "r.json"))
        assert done.returncode == code, done.stderr
        status = "pass" if code == 0 else "fail"
        assert json.loads((tmp_path / "r.json").read_text())["status"] == status
        assert f"status={status}" in done.stderr

    def test_bad_p_grid_exits_two_without_traceback(self):
        done = self.run("gamma", "--p-grid", "2:1", "--q-grid", "2:3:2")
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
