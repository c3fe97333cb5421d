"""Subcommand routing, output formats and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import equibox
from equibox.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "invalid choice" in err


def test_missing_argument_is_usage_error(capsys):
    code, _, _ = run(capsys, "certify", "--m", "3")
    assert code == 1


def test_dickson_text_and_json(capsys):
    code, out, _ = run(capsys, "dickson", "--m", "2", "--form", "moore")
    assert code == 0
    assert out.strip() == "x1^2*x2+x1*x2^2"
    code, out, _ = run(capsys, "dickson", "--m", "3", "--json")
    obj = json.loads(out)
    assert obj["schema"] == "equibox/1"
    assert obj["terms"] == 6 and obj["degree"] == 7


def test_certify_exit_codes(capsys):
    code, out, _ = run(capsys, "certify", "--m", "3", "--l", "6", "--d", "8")
    assert code == 0 and "CERTIFIED" in out and "witness" in out
    code, out, _ = run(capsys, "certify", "--m", "2", "--l", "6", "--d", "3")
    assert code == 2 and "INCONCLUSIVE" in out


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "--m", "3", "--l", "2", "--d", "4",
                       "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "CERTIFIED"
    assert obj["boxes"] == 12
    assert obj["witness"]


def test_min_d(capsys):
    code, out, _ = run(capsys, "min-d", "--m", "3", "--l", "14")
    assert code == 0 and out.strip() == "16"


def test_table_markdown(capsys):
    code, out, _ = run(capsys, "table", "--m", "3", "--l-max", "6")
    lines = [ln for ln in out.splitlines() if ln.startswith("|")]
    assert code == 0
    assert lines[2:] == ["| 2 | 4 |", "| 3 | 7 |", "| 4 | 7 |",
                         "| 5 | 8 |", "| 6 | 8 |"]


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--m", "2", "--l-max", "4",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["l,d", "2,2", "3,3", "4,3"]
    code, out, _ = run(capsys, "table", "--m", "2", "--l-max", "4",
                       "--format", "json")
    obj = json.loads(out)
    assert obj["rows"] == [{"l": 2, "d": 2}, {"l": 3, "d": 3}, {"l": 4, "d": 3}]
    assert obj["footnote"]


def test_table_guard_is_error(capsys):
    code, _, err = run(capsys, "table", "--m", "3", "--l-max", "100")
    assert code == 1 and "l_max" in err


def test_decompose_match(capsys):
    code, out, _ = run(capsys, "decompose", "--m", "3", "--l", "2")
    assert code == 0
    assert "MATCH" in out and "x2+x3" in out
    code, out, _ = run(capsys, "decompose", "--m", "2", "--l", "3", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["against_criterion"] == "MATCH"
    assert obj["total_dim"] == 3


def test_gen_solve_verify_roundtrip(tmp_path, capsys):
    measure = tmp_path / "m.csv"
    code, _, _ = run(capsys, "gen-measure", "--kind", "gaussian-mixture",
                     "--d", "2", "--components", "2", "--n", "2000",
                     "--seed", "5", "--out", str(measure))
    assert code == 0 and measure.exists()

    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--input", str(measure),
                       "--l", "1", "--m", "2", "--tol", "5e-3",
                       "--seed", "3", "--restarts", "40",
                       "--coarse-grid", "6", "--out", str(report_path))
    report = json.loads(out)
    assert report["schema"] == "equibox/1"
    assert code == 0 and report["status"] == "CONVERGED"
    assert json.loads(report_path.read_text()) == report

    code, out, err = run(capsys, "verify", "--input", str(measure),
                         "--config", str(report_path), "--tol", "5e-3")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "PASS" in err


def test_gen_measure_grid(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen-measure", "--d", "2", "--components", "3",
                     "--seed", "7", "--grid-cells", "32",
                     "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["shape"] == [32, 32]
    assert obj["dim"] == 2
    assert len(obj["data"]) == 1024
    assert sum(obj["data"]) == pytest.approx(1.0)


def test_solve_missing_input_is_error(capsys):
    code, _, err = run(capsys, "solve", "--input", "/does/not/exist.csv",
                       "--l", "1", "--m", "2")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv", [
    ("min-d", "--m", "2", "--l", "100000"),
    ("certify", "--m", "2", "--l", "100000", "--d", "3"),
])
def test_oversized_l_is_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "largest l is 65533" in err


@pytest.mark.parametrize("config", ["{}", '{"u": [1, 0]}', "[]"])
def test_verify_incomplete_config_is_error(tmp_path, capsys, config):
    measure = tmp_path / "m.csv"
    measure.write_text("x1,x2,w\n0,0,1\n1,1,1\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(config)
    code, out, err = run(capsys, "verify", "--input", str(measure),
                         "--config", str(config_path), "--tol", "1e-3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: configuration")


def test_cli_import_leaves_numerical_stack_unloaded():
    # the child imports equibox from where this process found it
    root = os.path.dirname(os.path.dirname(equibox.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    probe = ("import sys, equibox.cli; print(sorted(m for m in "
             "('numpy', 'scipy', 'equibox.measures', 'equibox.solver') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
