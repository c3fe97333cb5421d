"""Subcommand routing, output formats and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import equibox
from equibox import certifier, repdecomp
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
    code, out, _ = run(capsys, "dickson", "--m", "2")
    assert code == 0
    assert out.strip() == "x1^2*x2+x1*x2^2"
    code, out, _ = run(capsys, "dickson", "--m", "3", "--json")
    obj = json.loads(out)
    assert obj["schema"] == "equibox/1"
    assert obj["terms"] == 6 and obj["degree"] == 7
    assert obj["polynomial"] == ("x1^4*x2^2*x3+x1^4*x2*x3^2+x1^2*x2^4*x3"
                                 "+x1^2*x2*x3^4+x1*x2^4*x3^2+x1*x2^2*x3^4")
    assert sorted(obj) == ["degree", "m", "polynomial", "schema", "terms"]


def test_certify_exit_codes(capsys):
    code, out, _ = run(capsys, "certify", "--m", "3", "--l", "6", "--d", "8")
    assert code == 0 and "CERTIFIED" in out and "witness" in out
    code, out, _ = run(capsys, "certify", "--m", "2", "--l", "6", "--d", "3")
    assert code == 2 and "INCONCLUSIVE" in out


def test_certify_d_past_the_exponent_range(capsys):
    code, out, _ = run(capsys, "certify", "--m", "2", "--l", "3", "--d", "70000")
    assert code == 0
    assert out == "CERTIFIED  (m=2, l=3, d=70000: 8 boxes)\nwitness term: x2^3\n"


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


def test_min_d_json(capsys):
    code, out, _ = run(capsys, "min-d", "--m", "3", "--l", "14", "--json")
    assert code == 0
    assert out == '{"d": 16, "l": 14, "m": 3, "schema": "equibox/1"}\n'


def test_min_d_m6_past_the_expansion_wall(capsys):
    # the full criterion for (6, 10) has 16M terms; the search never builds it
    code, out, _ = run(capsys, "min-d", "--m", "6", "--l", "10")
    assert code == 0 and out.strip() == "125"


def test_table_markdown(capsys):
    code, out, _ = run(capsys, "table", "--m", "3", "--l-max", "6")
    lines = [ln for ln in out.splitlines() if ln.startswith("|")]
    assert code == 0
    assert lines[2:] == ["| 2 | 4 |", "| 3 | 7 |", "| 4 | 7 |",
                         "| 5 | 8 |", "| 6 | 8 |"]


def test_table_markdown_ends_with_the_m2_note(capsys):
    code, out, _ = run(capsys, "table", "--m", "2", "--l-max", "3")
    assert code == 0
    assert out.splitlines()[-4:] == [
        "| 2 | 2 |", "| 3 | 3 |", "",
        "note: even counts 2k reach the same minimal dimension as 2k-1, "
        "so the even case gives more boxes in the same space"]


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


@pytest.mark.parametrize("m,l_max_values", [
    (2, range(2, 129)), (3, (2, 3)), (4, (2, 3)), (5, (2, 3)), (6, (2, 3)),
])
def test_table_footnote_only_for_m2(capsys, m, l_max_values):
    for l_max in l_max_values:
        code, out, _ = run(capsys, "table", "--m", str(m), "--l-max",
                           str(l_max), "--format", "json")
        assert code == 0
        footnote = json.loads(out)["footnote"]
        assert footnote.startswith("even counts 2k") if m == 2 else footnote == ""


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


def test_decompose_prints_the_factored_index_polynomial(capsys):
    code, out, _ = run(capsys, "decompose", "--m", "2", "--l", "3", "--json")
    assert code == 0
    assert json.loads(out)["index_polynomial"] == "x2*(x1+x2)^2"
    code, out, _ = run(capsys, "decompose", "--m", "3", "--l", "1")
    assert code == 0
    assert "index polynomial: (x2+x3)*(x1+x3)*(x1+x2)*(x1+x2+x3)\n" in out


def test_decompose_text_lists_characters_x1_bit_first(capsys):
    # the forms' bit strings read from x1 on, in ascending order
    code, out, _ = run(capsys, "decompose", "--m", "3", "--l", "2")
    assert code == 0
    assert out == (
        "character multiplicities (dim 7):\n"
        "  x3               1\n"
        "  x2               1\n"
        "  x2+x3            2\n"
        "  x1+x3            1\n"
        "  x1+x2            1\n"
        "  x1+x2+x3         1\n"
        "index polynomial: x3*x2*(x2+x3)^2*(x1+x3)*(x1+x2)*(x1+x2+x3)\n"
        "MATCH against the closed-form criterion\n")


def test_decompose_builds_no_polynomial(capsys, monkeypatch):
    # the expanded (6, 6) index polynomial has 7.2M terms; decompose
    # compares exponents instead
    def refuse(*args):
        raise AssertionError("decompose built a polynomial")

    monkeypatch.setattr(repdecomp, "index_polynomial", refuse)
    monkeypatch.setattr(certifier, "criterion_polynomial", refuse)
    code, out, _ = run(capsys, "decompose", "--m", "6", "--l", "6", "--json")
    assert code == 0
    assert json.loads(out)["against_criterion"] == "MATCH"


@pytest.mark.parametrize("as_json", [True, False])
def test_decompose_mismatch(capsys, monkeypatch, as_json):
    # a criterion table missing one factor
    factors = certifier.criterion_factors

    def missing_one(m, l):
        table = factors(m, l)
        del table[max(table)]
        return table

    monkeypatch.setattr(certifier, "criterion_factors", missing_one)
    argv = ["decompose", "--m", "3", "--l", "4"] + ["--json"] * as_json
    code, out, _ = run(capsys, *argv)
    assert code == 2
    if as_json:
        assert json.loads(out)["against_criterion"] == "MISMATCH"
    else:
        assert out.endswith("\nMISMATCH against the closed-form criterion\n")


@pytest.mark.parametrize("m,l", [(2, 1), (3, 2), (6, 1)])
def test_decompose_json_keys(capsys, m, l):
    code, out, _ = run(capsys, "decompose", "--m", str(m), "--l", str(l),
                       "--json")
    assert code == 0
    assert sorted(json.loads(out)) == [
        "against_criterion", "index_polynomial", "l", "m", "multiplicities",
        "schema", "total_dim"]


def test_gen_solve_verify_roundtrip(tmp_path, capsys):
    measure = tmp_path / "m.csv"
    code, _, _ = run(capsys, "gen-measure", "--d", "2", "--components", "2",
                     "--n", "2000", "--seed", "5", "--out", str(measure))
    assert code == 0 and measure.exists()

    report_path = tmp_path / "report.json"
    report_path.write_text("an older report")
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


@pytest.mark.parametrize("flag", ["--n", "--d", "--components", "--grid-cells"])
def test_gen_measure_bad_size_is_error(tmp_path, capsys, flag):
    out_path = tmp_path / "m.csv"
    sizes = {"--d": "2", "--components": "2", "--n": "100",
             flag: "-3" if flag == "--grid-cells" else "0"}
    argv = [arg for pair in sizes.items() for arg in pair]
    code, out, err = run(capsys, "gen-measure", *argv, "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and flag[2:].replace("-", " ") in err
    assert not out_path.exists()


@pytest.mark.parametrize("cells", ["0", "1", "-3"])
def test_gen_measure_too_few_grid_cells_is_error(tmp_path, capsys, cells):
    # 0 is a grid request like any other, not the point-cloud default
    out_path = tmp_path / "g.json"
    code, out, err = run(capsys, "gen-measure", "--d", "2", "--grid-cells",
                         cells, "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: grid cells per axis must be at least 2, got %s\n" % cells
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    # the coordinates alone would take 16 TB
    ("--n", "1000000000000"),
    # the component means alone would take 16 TB
    ("--components", "1000000000000", "--n", "10"),
    # 5,000 passes over 64^2 cells: 2e7 density terms
    ("--components", "5000", "--grid-cells", "64"),
], ids=["points", "cloud-components", "grid-components"])
def test_gen_measure_oversized_cloud_is_error(tmp_path, capsys, argv):
    # refused before any draw
    out_path = tmp_path / "m.csv"
    code, out, err = run(capsys, "gen-measure", "--d", "2", *argv,
                         "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "size guard" in err
    assert not out_path.exists()


def test_solve_missing_input_is_error(capsys):
    code, _, err = run(capsys, "solve", "--input", "/does/not/exist.csv",
                       "--l", "1", "--m", "2")
    assert code == 1 and "error" in err


def _small_grid(tmp_path):
    # a grid, so that no point-cloud tolerance floor intervenes
    measure = tmp_path / "g.json"
    measure.write_text(json.dumps({"dim": 2, "origin": [0, 0],
                                   "spacing": [0.5, 0.5], "shape": [2, 2],
                                   "data": [1, 2, 3, 4]}))
    return measure


# a tol above the box target 1/4 is refused by the solve itself; this input
# passes --out a path that holds no file yet, the others an existing file
_FRESH_OUT = ("solve", "--tol", "0.5")


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--tol", "-1"),
    ("solve", "--tol", "nan"),
    ("solve", "--maxfev", "0"),
    ("solve", "--maxfev", "-3"),
    ("solve", "--coarse-grid", "-2"),
    ("solve", "--seed", "-1"),
    ("verify", "--tol", "nan"),
    _FRESH_OUT,
])
def test_unusable_numerical_option_is_error(tmp_path, capsys, command, flag,
                                            value):
    argv = [command, "--input", str(_small_grid(tmp_path)), flag, value]
    old_report = tmp_path / "r.json"
    old_report.write_text("kept")
    new_report = tmp_path / "new.json"
    if command == "solve":
        fresh = (command, flag, value) == _FRESH_OUT
        out_path = new_report if fresh else old_report
        argv += ["--l", "1", "--m", "2", "--restarts", "2", "--out", str(out_path)]
        argv += ["--tol", "0.1"] if flag != "--tol" else []
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"u": [1, 0], "extra_dirs": [[0, 1]],
                                      "parallel_offsets": [0.5],
                                      "extra_offsets": [0.5]}))
        argv += ["--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and flag[2:].replace("-", "_") in err
    assert old_report.read_text() == "kept"
    assert not new_report.exists()


@pytest.mark.parametrize("argv", [
    ("--n", "100"),
    ("--grid-cells", "8"),
], ids=["cloud", "grid"])
def test_gen_measure_negative_seed_is_error(tmp_path, capsys, argv):
    out_path = tmp_path / "m.out"
    code, out, err = run(capsys, "gen-measure", "--d", "2", *argv,
                         "--seed", "-1", "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: seed must be >= 0, got -1\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv, name, message", [
    (("--n", "100"), "m.json", "point-cloud CSV must end in .csv"),
    (("--grid-cells", "8"), "g.csv", "grid JSON must not end in .csv"),
], ids=["cloud-named-json", "grid-named-csv"])
def test_gen_measure_out_of_the_wrong_kind_is_error(tmp_path, capsys, argv,
                                                    name, message):
    # solve reads a .csv name as a point cloud and any other as a grid
    out_path = tmp_path / name
    code, out, err = run(capsys, "gen-measure", "--d", "2", *argv,
                         "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and message in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, name", [
    (("--n", "1000000"), "big.json"),
    (("--grid-cells", "8"), "g.csv"),
], ids=["cloud-named-json", "grid-named-csv"])
def test_gen_measure_refuses_the_wrong_kind_before_any_draw(
        tmp_path, capsys, monkeypatch, argv, name):
    from equibox import measures

    def no_draw(seed):
        raise AssertionError("drew a measure before the --out name check")

    monkeypatch.setattr(measures.np.random, "default_rng", no_draw)
    out_path = tmp_path / name
    code, out, err = run(capsys, "gen-measure", "--d", "2", *argv,
                         "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "in .csv" in err
    assert not out_path.exists()


def test_solve_unwritable_out_is_error_before_the_solve(tmp_path, capsys):
    code, out, err = run(capsys, "solve", "--input", str(_small_grid(tmp_path)),
                         "--l", "1", "--m", "2", "--tol", "0.1",
                         "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "r.json" in err


@pytest.mark.parametrize("shape,options,message", [
    ([2, 2], ("--m", "6", "--coarse-grid", "30"), "largest coarse_grid is 4"),
    ([2, 2], ("--m", "2", "--coarse-grid", "65"), "largest coarse_grid is 64"),
    ([2, 2, 2], ("--m", "2", "--coarse-grid", "8"), "got d=3"),
], ids=["m6-n30", "m2-n65", "3d"])
def test_unusable_coarse_grid_is_error(tmp_path, capsys, shape, options,
                                       message):
    # refused before any angle combination is built or evaluated
    measure = tmp_path / "g.json"
    measure.write_text(json.dumps({"dim": len(shape), "origin": [0] * len(shape),
                                   "spacing": [0.5] * len(shape), "shape": shape,
                                   "data": list(range(1, 2 ** len(shape) + 1))}))
    code, out, err = run(capsys, "solve", "--input", str(measure), "--l", "1",
                         "--tol", "0.1", "--restarts", "2", *options)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "coarse_grid" in err and message in err


def test_solve_zero_dimensional_grid_is_error(tmp_path, capsys):
    measure = tmp_path / "g.json"
    measure.write_text(json.dumps({"dim": 0, "origin": [], "spacing": [],
                                   "shape": [], "data": [1.0]}))
    code, out, err = run(capsys, "solve", "--input", str(measure), "--l", "1",
                         "--m", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "at least one axis" in err


@pytest.mark.parametrize("name,content", [
    ("g.json", json.dumps({"dim": 1, "origin": [0], "spacing": [0.5],
                           "shape": [4], "data": [1, 2, 3, 4]})),
    ("c.csv", "x1,w\n" + "".join("%d,1\n" % i for i in range(10))),
], ids=["grid", "cloud"])
def test_solve_one_dimensional_measure_is_error(tmp_path, capsys, name,
                                                content):
    # every two directions in R^1 are collinear: refused before any restart
    measure = tmp_path / name
    measure.write_text(content)
    code, out, err = run(capsys, "solve", "--input", str(measure), "--l", "1",
                         "--m", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "got d=1" in err


@pytest.mark.parametrize("argv", [
    ("min-d", "--m", "2", "--l", "100000"),
    ("certify", "--m", "2", "--l", "100000", "--d", "3"),
])
def test_oversized_l_is_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "largest l is 65533" in err


@pytest.mark.parametrize("origin, spacing", [
    ([float("nan"), 0.0], [0.5, 0.5]),
    ([0.0, float("inf")], [0.5, 0.5]),
    ([0.0, 0.0], [float("nan"), 0.5]),
    ([0.0, 0.0], [0.5, float("inf")]),
    ([0.0, 0.0], [1e308, 0.5]),  # the far corner overflows
], ids=["nan-origin", "inf-origin", "nan-spacing", "inf-spacing",
        "overflow"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_grid_with_non_finite_geometry_is_error(tmp_path, capsys, origin,
                                                 spacing, command):
    # json reads NaN and Infinity; a RuntimeWarning would fail the test
    measure = tmp_path / "g.json"
    measure.write_text(json.dumps({"dim": 2, "origin": origin,
                                   "spacing": spacing, "shape": [4, 4],
                                   "data": [1.0] * 16}))
    out_path = tmp_path / "r.json"
    if command == "solve":
        argv = ("--l", "1", "--m", "2", "--out", str(out_path))
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"u": [1, 0], "extra_dirs": [[0, 1]],
                                      "parallel_offsets": [0.5],
                                      "extra_offsets": [0.5]}))
        argv = ("--config", str(config), "--tol", "0.1")
    code, out, err = run(capsys, command, "--input", str(measure), *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "must be finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["cloud", "grid"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_measure_whose_projections_overflow_is_error(tmp_path, capsys,
                                                     overflowing_measure,
                                                     kind, command):
    # every value is finite; a RuntimeWarning would fail the test
    measure = overflowing_measure(kind)
    out_path = tmp_path / "r.json"
    if command == "solve":
        argv = ("--l", "1", "--m", "2", "--tol", "1e-2", "--out",
                str(out_path))
    else:
        d = 3 if kind == "cloud" else 2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "u": [1] + [0] * (d - 1), "extra_dirs": [[0, 1] + [0] * (d - 2)],
            "parallel_offsets": [0.5], "extra_offsets": [0.5]}))
        argv = ("--config", str(config), "--tol", "0.1")
    code, out, err = run(capsys, command, "--input", str(measure), *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "must be finite" in err
    assert not out_path.exists()


def _ones_grid(tmp_path, n):
    measure = tmp_path / "g.json"
    measure.write_text(json.dumps({"dim": 2, "origin": [0, 0],
                                   "spacing": [0.5, 0.5], "shape": [n, n],
                                   "data": [1.0] * (n * n)}))
    return measure


def test_solve_oversized_grid_cut_is_error(tmp_path, capsys):
    # 1024 offsets on 64 x 64 cells: the memo's m + d = 4 parallel cuts,
    # 1025 slab fractions per cell each, would hold 16,793,600 values,
    # refused before the regime check and before any cut is made
    code, out, err = run(capsys, "solve", "--input", str(_ones_grid(tmp_path, 64)),
                         "--l", "1024", "--m", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "largest l is 1023" in err


def test_verify_oversized_grid_cut_is_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"u": [1, 0], "extra_dirs": [[0, 1]],
                                  "parallel_offsets": [0.5] * 4096,
                                  "extra_offsets": [0.5]}))
    code, out, err = run(capsys, "verify", "--input", str(_ones_grid(tmp_path, 64)),
                         "--config", str(config), "--tol", "0.1")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "largest l is 4095" in err


@pytest.mark.parametrize("kind", ["cloud", "grid"])
def test_verify_m_past_the_range_is_error(tmp_path, capsys, kind):
    # m = 7: six extra hyperplanes. A config's box columns number 2^(m-1),
    # so verify refuses the m that solve refuses (39 would take 8 TiB)
    if kind == "cloud":
        measure = tmp_path / "m.csv"
        measure.write_text("x1,x2,w\n0,0,1\n1,1,1\n")
    else:
        measure = _small_grid(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"u": [1, 0], "extra_dirs": [[0, 1]] * 6,
                                  "parallel_offsets": [0.5],
                                  "extra_offsets": [0.5] * 6}))
    code, out, err = run(capsys, "verify", "--input", str(measure),
                         "--config", str(config), "--tol", "1e-3")
    assert code == 1 and out == ""
    assert err == "error: m must be in [2, 6], got 7\n"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_tol_not_below_the_box_target_is_error(tmp_path, capsys, command):
    # l=1, m=2: the box target is 1/4, and tol 0.25 would pass an empty box
    argv = [command, "--input", str(_small_grid(tmp_path)), "--tol", "0.25"]
    if command == "solve":
        argv += ["--l", "1", "--m", "2", "--restarts", "2"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"u": [1, 0], "extra_dirs": [[0, 1]],
                                      "parallel_offsets": [0.5],
                                      "extra_offsets": [0.5]}))
        argv += ["--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "not below the box target 0.25" in err


def test_decompose_oversized_l_is_error(capsys):
    code, out, err = run(capsys, "decompose", "--m", "2", "--l", "723")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "largest l is 722" in err


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


@pytest.mark.parametrize("key,value", [
    ("u", "5"),
    ("parallel_offsets", "[[0.5]]"),
    ("parallel_offsets", "[]"),
    ("parallel_offsets", "0.5"),
    ("extra_offsets", "0.5"),
    ("u", "{}"),
    ("parallel_offsets", '{"a": 1}'),
], ids=["scalar-u", "nested-offsets", "no-offsets", "scalar-offsets",
        "scalar-extra-offset", "object-u", "object-offsets"])
def test_verify_malformed_config_shape_is_error(tmp_path, capsys, key, value):
    measure = tmp_path / "m.csv"
    measure.write_text("x1,x2,w\n0,0,1\n1,1,1\n")
    fields = {"u": "[1, 0]", "extra_dirs": "[[0, 1]]",
              "parallel_offsets": "[0.5]", "extra_offsets": "[0.5]", key: value}
    config_path = tmp_path / "config.json"
    config_path.write_text("{%s}" % ", ".join('"%s": %s' % kv
                                              for kv in fields.items()))
    code, out, err = run(capsys, "verify", "--input", str(measure),
                         "--config", str(config_path), "--tol", "1e-3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: %s must" % key)


@pytest.mark.parametrize("u,offset", [
    ("[NaN, 0]", "0.5"), ("[1, 0]", "NaN"), ("[1, 0]", "null"),
    ("[Infinity, 0]", "0.5"),
], ids=["nan-u", "nan-offset", "null-offset", "inf-u"])
def test_verify_nonfinite_config_is_error(tmp_path, capsys, u, offset):
    measure = tmp_path / "m.csv"
    measure.write_text("x1,x2,w\n0,0,1\n1,1,1\n")
    config_path = tmp_path / "config.json"
    config_path.write_text('{"u": %s, "extra_dirs": [[0, 1]], '
                           '"parallel_offsets": [0.5, 0.6], '
                           '"extra_offsets": [%s]}' % (u, offset))
    code, out, err = run(capsys, "verify", "--input", str(measure),
                         "--config", str(config_path), "--tol", "1e-3")
    assert code == 1 and out == ""
    assert err == "error: configuration values must be finite\n"


_GRID = {"dim": 2, "origin": [0, 0], "spacing": [0.5, 0.5], "shape": [2, 2],
         "data": [1, 2, 3, 4]}  # _small_grid's, varied one field at a time
_CONFIG = {"u": [1, 0], "extra_dirs": [[0, 1]], "parallel_offsets": [0.5],
           "extra_offsets": [0.5]}


@pytest.mark.parametrize("command,content,message", [
    ("solve", "{dim: 2", "invalid JSON"),
    ("solve", dict(_GRID, shape=[2, 2, 1]), "shape rank disagrees with dim"),
    ("solve", dict(_GRID, origin=[0]), "origin/spacing must match"),
    ("solve", dict(_GRID, spacing=[0.5, 0]), "spacing must be positive"),
    ("solve", dict(_GRID, data=[1, -2, 3, 4]), "densities must be finite"),
    ("solve", dict(_GRID, data=[0, 0, 0, 0]), "total mass must be positive"),
    ("solve", dict(_GRID, data=[1, 2, 3]), "cannot reshape"),
    ("solve", dict(_GRID, dim="two"), "bad grid JSON"),
    ("gen-measure", None, "cell-count guard"),
    ("verify", dict(_CONFIG, u=[1, 0, 0], extra_dirs=[[0, 1, 0]]),
     "configuration dimension does not match measure"),
    ("verify", dict(_CONFIG, extra_dirs=[0, 1]), "extra_dirs must be"),
    ("verify", dict(_CONFIG, u=[1, 1]), "unit length"),
], ids=["not-json", "shape-rank", "origin-length", "zero-spacing",
        "negative-density", "zero-mass", "data-length", "dim-not-a-number",
        "gen-grid-too-large", "verify-wrong-dimension",
        "verify-extra-dirs-shape", "verify-non-unit"])
def test_outside_input_refusal_is_one_line(tmp_path, capsys, command, content,
                                           message):
    out_path = tmp_path / "r.out"
    text = content if isinstance(content, str) else json.dumps(content)
    if command == "solve":
        measure = tmp_path / "g.json"
        measure.write_text(text)
        argv = ("--input", str(measure), "--l", "1", "--m", "2",
                "--out", str(out_path))
    elif command == "verify":
        config = tmp_path / "config.json"
        config.write_text(text)
        argv = ("--input", str(_small_grid(tmp_path)), "--config",
                str(config), "--tol", "0.1")
    else:
        argv = ("--d", "3", "--grid-cells", "300", "--out", str(out_path))
    code, out, err = run(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err
    assert not out_path.exists()


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


def test_only_decompose_loads_repdecomp():
    # the child imports equibox from where this process found it; the last
    # command, decompose, shows that the probe sees the import
    root = os.path.dirname(os.path.dirname(equibox.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    probe = "\n".join([
        "import contextlib, io, sys",
        "from equibox.cli import dispatch",
        "for argv in ('min-d --m 3 --l 4', 'certify --m 3 --l 4 --d 7',",
        "             'table --m 3 --l-max 4', 'dickson --m 3 --json',",
        "             'decompose --m 3 --l 4'):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = dispatch(argv.split())",
        "    print(argv.split()[0], code, *(m for m in",
        "          ('equibox.repdecomp', 'fractions') if m in sys.modules))",
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == [
        "min-d 0", "certify 0", "table 0", "dickson 0",
        "decompose 0 equibox.repdecomp"]


def test_closed_stdout_is_not_an_error():
    # the reader is gone before the first write, which raises EPIPE
    root = os.path.dirname(os.path.dirname(equibox.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    for argv in (["decompose", "--m", "6", "--l", "2", "--json"],
                 ["dickson", "--m", "3"],
                 ["table", "--m", "3", "--l-max", "6"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "equibox.cli", *argv], env=env,
                stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, argv
        assert proc.stderr == b"", argv


def test_solve_writes_out_when_stdout_is_closed(tmp_path, capsys):
    # unbuffered, a print to a pipe without a reader raises at once; --out
    # must still hold the whole report, as a normal run writes it
    grid = str(tmp_path / "g.json")
    run(capsys, "gen-measure", "--d", "2", "--grid-cells", "24", "--seed",
        "3", "--out", grid)
    argv = ["solve", "--input", grid, "--l", "1", "--m", "2", "--tol", "1e-3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    root = os.path.dirname(os.path.dirname(equibox.__file__))
    env = dict(os.environ, PYTHONPATH=root, PYTHONUNBUFFERED="1")
    report = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "equibox.cli", *argv, "--out", str(report)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == b""
    assert report.read_text() + "\n" == out
