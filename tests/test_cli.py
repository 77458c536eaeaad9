import csv
import io
import json
import math
from pathlib import Path

import pytest

from orliczkit import specs
from orliczkit.cli import main

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "orliczkit" / "scenarios"


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
        code, out, _ = run_cli(capsys, "gamma", "--p-grid", "1:4:7", "--q-grid", "1:4:7",
                               "--method", "both")
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

    def test_oracle_method(self, capsys, function_csv):
        code, out, _ = run_cli(capsys, "kfunc", "--input", function_csv,
                               "--couple", "1,2", "--t-grid", "1:1:1", "--method", "oracle")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["method"] == "brute_force"

    def test_oracle_rejects_infinite_q(self, capsys, function_csv):
        code, _, err = run_cli(capsys, "kfunc", "--input", function_csv,
                               "--couple", "1,inf", "--t-grid", "1:1:1", "--method", "oracle")
        assert code == 2

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

    def test_refine_doubles_counts(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "verify", "--scenario",
                             str(SCENARIO_DIR / "thm46a.json"), "--out", str(out_path),
                             "--refine")
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["trials"] == 20

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

    @pytest.mark.parametrize("name,scale", [("prop22_maximal_2inf.json", 1e200),
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

    def test_missing_scenario_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--scenario", "nope.json")
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2
