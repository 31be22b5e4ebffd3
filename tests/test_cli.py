import json
import warnings

import pytest

from epscontact.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_oracle_passes(capsys):
    code, out = run(capsys, "oracle", "--samples", "70")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["command"] == "oracle"
    assert report["max_ricci_dev"] <= 1e-9


def test_verify_tables_single(capsys):
    code, out = run(capsys, "verify-tables", "--theorem", "thm-1.2", "--tol", "1e-9")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["items"][0]["theorem"] == "thm-1.2"
    assert len(report["items"][0]["rows"]) == 5  # five verified rows in the time-like table
    assert all(r["pass"] for r in report["items"][0]["rows"])


def test_verify_tables_alias(capsys):
    code, out = run(capsys, "verify-tables", "--theorem", "thm-1.4")
    assert code == 0
    assert json.loads(out)["items"][0]["theorem"] == "thm-4.25"


def test_scan_g5_empty(capsys):
    code, out = run(capsys, "scan", "--family", "g5", "--epsilon", "1", "--grid", "21")
    assert code == 0
    assert json.loads(out)["hit_count"] == 0


def test_scan_csv_export_with_hits(capsys):
    code, out = run(capsys, "scan", "--family", "g3", "--epsilon", "0",
                    "--grid", "3", "--lo", "-1", "--hi", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,params.a,params.b,params.c,orientation")
    assert len(lines) > 1  # the all-equal samples produce hits


def test_solution_preset(capsys):
    code, out = run(capsys, "solution", "--preset", "ads3xs3")
    assert code == 0
    item = json.loads(out)["items"][0]
    assert max(item["ricci_h"], item["d_h"], item["d_star_h"], abs(item["norm_h"])) < 1e-12


def test_solution_config_file(tmp_path, capsys):
    config = {
        "n": {"family": "g4", "params": {"a": 1.0, "b": 0.0, "mu": -1.0},
              "orientation": 1, "alpha": [1.0, 0.0, -1.0]},
        "x": {"family": "riemannian_unimodular",
              "params": {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0},
              "orientation": -1, "alpha": [1.0, 0.0, 0.0]},
        "lambda": 1.0,
        "l": 1.0,
    }
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, "solution", "--config", str(path))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_catalog(capsys):
    code, out = run(capsys, "catalog", "--epsilon-n", "-1", "--l-samples", "0,0.5")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["items"]


def test_catalog_failures_carry_reason_and_stay_strict_json(capsys):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    # the null rows build their g4 factor at a0 = 1/|l|, which over- or
    # underflows at these l
    for eps_n in ("1", "0"):
        code, out = run(capsys, "catalog", "--epsilon-n", eps_n, "--l-samples", "1e200,1e-200")
        assert code == 1
        items = json.loads(out, parse_constant=reject)["items"]
        failed = [item for item in items if not item["pass"]]
        assert failed
        for item in failed:
            assert item["reason"]
            for key in ("lambda", "ricci_h", "d_h", "d_star_h", "norm_h"):
                assert item[key] is None
        for item in items:
            assert item["pass"] == ("reason" not in item)


def test_catalog_csv_format(capsys):
    code, out = run(capsys, "catalog", "--epsilon-n", "1", "--l-samples", "0",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "row"
    assert len(lines) > 1


def test_cauchy_examples(capsys):
    code, out = run(capsys, "cauchy", "--example", "null-isothermal", "--nx", "16", "--ny", "16")
    assert code == 0
    report = json.loads(out)
    assert report["items"][-1]["curl_ratio"] >= 3.5
    code, out = run(capsys, "cauchy", "--example", "flat-para", "--nx", "8", "--ny", "8",
                    "--dt", "0.05", "--steps", "9")
    assert code == 0
    assert json.loads(out)["items"][-1]["alpha_flow_ratio"] >= 3.5


def test_cauchy_non_finite_fields_exit_2(capsys):
    # f0 = 1e3 makes F = e^{f0 x}/f0 infinite on the grid: bad input, no report
    line = assert_usage_error(capsys, ["cauchy", "--example", "null-isothermal",
                                       "--f0", "1e3", "--nx", "8", "--ny", "8"])
    assert "finite" in line


def test_cauchy_non_finite_residuals_are_null_with_reason(capsys):
    # f0 = 700 keeps every field finite, but |alpha|^2 and F^2 overflow
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out = run(capsys, "cauchy", "--example", "null-isothermal",
                    "--f0", "700", "--nx", "8", "--ny", "8")
    assert code == 1
    report = json.loads(out, parse_constant=reject)
    assert report["pass"] is False
    for item in report["items"][:2]:  # both refinements
        assert item["constraint_norm"] is None
        assert "constraint_norm" in item["reason"]


@pytest.mark.parametrize("argv, err_lines", [
    (["cauchy", "--example", "null-isothermal", "--f0", "1e3", "--nx", "8", "--ny", "8"], 1),
    (["cauchy", "--example", "null-isothermal", "--f0", "700", "--nx", "8", "--ny", "8"], 0),
    (["catalog", "--epsilon-n", "1", "--l-samples", "1e200"], 0),
    (["catalog", "--epsilon-n", "0", "--l-samples", "1e-200"], 0),
])
def test_overflowing_input_issues_no_numpy_warnings(capsys, argv, err_lines):
    # stderr holds the one "error:" line of bad input, or nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(argv)
    assert [str(w.message) for w in caught] == []
    assert len(capsys.readouterr().err.splitlines()) == err_lines

def test_unknown_flag_exit_2(capsys):
    assert main(["oracle", "--bogus"]) == 2
    assert main(["--bogus", "oracle"]) == 2


def test_unknown_preset_exit_2(capsys):
    assert main(["solution", "--preset", "nope"]) == 2


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["solution", "--config", str(tmp_path / "missing.json")]) == 2


def test_failing_check_exit_1(capsys):
    # a clean run whose checks fail exits 1: demand a tolerance below the
    # machine-precision residuals of an l != 0 catalog row
    code = main(["catalog", "--epsilon-n", "1", "--l-samples", "0.5", "--tol", "1e-18"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_determinism_byte_identical(tmp_path, capsys):
    outputs = []
    for k in range(2):
        path = tmp_path / f"report{k}.json"
        code = main(["oracle", "--samples", "35", "--seed", "3", "--output", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_env_var_sets_default_tol():
    import os
    import subprocess
    import sys

    env = dict(os.environ, EPSCONTACT_TOL="1e-07")
    proc = subprocess.run(
        [sys.executable, "-m", "epscontact.cli", "oracle", "--samples", "7"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tol"] == 1e-07


def test_output_file_and_parallelism(tmp_path, capsys):
    p1 = tmp_path / "seq.json"
    p2 = tmp_path / "par.json"
    assert main(["verify-tables", "--theorem", "thm-4.14", "--output", str(p1)]) == 0
    assert main(["verify-tables", "--theorem", "thm-4.14", "--parallelism", "4",
                 "--output", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def assert_usage_error(capsys, argv):
    """Exit 2, nothing on stdout, and one line on stderr naming the problem."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_negative_tol_exit_2(capsys):
    assert "tolerance" in assert_usage_error(capsys, ["--tol", "-1", "oracle", "--samples", "3"])
    assert "tolerance" in assert_usage_error(capsys, ["oracle", "--samples", "3", "--tol", "nan"])


def test_bad_env_tol_exit_2():
    import os
    import subprocess
    import sys

    env = dict(os.environ, EPSCONTACT_TOL="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "epscontact.cli", "oracle", "--samples", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: EPSCONTACT_TOL must be a number, got 'abc'"]


def test_scan_empty_grid_exit_2(capsys, monkeypatch):
    import epscontact.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("scan ran on a rejected grid")

    monkeypatch.setattr(cli, "scan_family", no_work)
    for points in ("0", "-2"):
        line = assert_usage_error(capsys, ["scan", "--family", "g3", "--grid", points])
        assert "--grid" in line


def test_oracle_without_samples_exit_2(capsys, monkeypatch):
    import epscontact.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("oracle ran without samples")

    monkeypatch.setattr(cli, "run_oracle", no_work)
    for samples in ("0", "-3"):
        assert "--samples" in assert_usage_error(capsys, ["oracle", "--samples", samples])


def test_scan_nonfinite_range_exit_2(capsys, monkeypatch):
    import epscontact.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("scan ran on a non-finite range")

    monkeypatch.setattr(cli, "scan_family", no_work)
    for flag, value in (("--lo", "nan"), ("--hi", "inf"), ("--lo", "-inf")):
        argv = ["scan", "--family", "g3", "--grid", "3", f"{flag}={value}"]
        assert flag in assert_usage_error(capsys, argv)


def test_scan_degenerate_range_exit_2(capsys, monkeypatch):
    # --lo == --hi would repeat one sample --grid^k times
    import epscontact.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("scan ran on a degenerate range")

    monkeypatch.setattr(cli, "scan_family", no_work)
    for points in ("2", "3"):
        argv = ["scan", "--family", "g3", "--epsilon", "1", "--lo", "1", "--hi", "1",
                "--grid", points]
        line = assert_usage_error(capsys, argv)
        assert "--lo" in line and "--hi" in line


def test_scan_single_point_range_runs(capsys):
    code, out = run(capsys, "scan", "--family", "g3", "--epsilon", "1", "--lo", "1", "--hi", "1",
                    "--grid", "1")
    assert code == 0
    report = json.loads(out)
    assert report["grid_points"] == 1
    assert len({json.dumps(h, sort_keys=True) for h in report["items"]}) == report["hit_count"] > 0


def test_other_bad_numeric_flags_exit_2(capsys):
    for argv, flag in (
        (["catalog", "--epsilon-n", "1", "--l-samples", "0,nan"], "--l-samples"),
        (["cauchy", "--example", "flat-para", "--nx", "0"], "--nx"),
        (["cauchy", "--example", "flat-para", "--dt", "nan"], "--dt"),
        (["cauchy", "--example", "null-isothermal", "--f0", "inf"], "--f0"),
    ):
        assert flag in assert_usage_error(capsys, argv)


def test_riemannian_scan_without_structures_exit_2(capsys, monkeypatch):
    # a Riemannian family has epsilon = +1 structures only: nothing to sample
    import epscontact.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("scan ran although no structure of that epsilon exists")

    monkeypatch.setattr(cli, "scan_family", no_work)
    for family in ("riemannian_unimodular", "riemannian_nonunimodular"):
        for epsilon in ("0", "-1"):
            line = assert_usage_error(capsys, ["scan", "--family", family, "--epsilon", epsilon])
            assert "--epsilon" in line


@pytest.mark.parametrize("key, path", [
    ("lambda", ()), ("l", ()), ("mu1", ("x", "params")), ("b", ("n", "params")),
])
def test_solution_config_nan_exit_2(tmp_path, capsys, key, path):
    # NaN compares false with everything, so every check must fail on it
    config = {
        "n": {"family": "g4", "params": {"a": 1.0, "b": 0.0, "mu": -1.0},
              "orientation": 1, "alpha": [1.0, 0.0, -1.0]},
        "x": {"family": "riemannian_unimodular",
              "params": {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0},
              "orientation": -1, "alpha": [1.0, 0.0, 0.0]},
        "lambda": 1.0,
        "l": 1.0,
    }
    target = config
    for step in path:
        target = target[step]
    target[key] = float("nan")
    config_file = tmp_path / "nan.json"
    config_file.write_text(json.dumps(config))  # json writes the literal NaN
    assert_usage_error(capsys, ["solution", "--config", str(config_file)])


@pytest.mark.parametrize("orientation", [1.5, -1.5])
def test_solution_config_non_sign_orientation_exit_2(tmp_path, capsys, orientation):
    # an orientation is +1 or -1 exactly; 1.5 is not taken as +1
    config = {
        "n": {"family": "g4", "params": {"a": 1.0, "b": 0.0, "mu": -1.0},
              "orientation": orientation, "alpha": [1.0, 0.0, -1.0]},
        "x": {"family": "riemannian_unimodular",
              "params": {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0},
              "orientation": -1, "alpha": [1.0, 0.0, 0.0]},
        "lambda": 1.0,
        "l": 1.0,
    }
    config_file = tmp_path / "orientation.json"
    config_file.write_text(json.dumps(config))
    assert "orientation" in assert_usage_error(capsys, ["solution", "--config", str(config_file)])


@pytest.mark.parametrize("case", ["factor-not-object", "top-level-list", "params-list",
                                  "lambda-null"])
def test_solution_config_wrong_shape_exit_2(tmp_path, capsys, case):
    # well-formed JSON whose fields have the wrong type is a config error
    config = {
        "n": {"family": "g4", "params": {"a": 1.0, "b": 0.0, "mu": -1.0},
              "orientation": 1, "alpha": [1.0, 0.0, -1.0]},
        "x": {"family": "riemannian_unimodular",
              "params": {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0},
              "orientation": -1, "alpha": [1.0, 0.0, 0.0]},
        "lambda": 1.0,
        "l": 1.0,
    }
    if case == "factor-not-object":
        config["n"] = 5
    elif case == "top-level-list":
        config = [1, 2]
    elif case == "params-list":
        config["x"]["params"] = [1, 2]
    else:
        config["lambda"] = None
    config_file = tmp_path / "shape.json"
    config_file.write_text(json.dumps(config))
    assert "solution config" in assert_usage_error(
        capsys, ["solution", "--config", str(config_file)])


@pytest.mark.parametrize("alpha", [[], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
def test_solution_config_alpha_length_exit_2(tmp_path, capsys, alpha):
    # an alpha of the wrong length is a config error naming alpha, not a crash
    config = {
        "n": {"family": "g4", "params": {"a": 1.0, "b": 0.0, "mu": -1.0},
              "orientation": 1, "alpha": alpha},
        "x": {"family": "riemannian_unimodular",
              "params": {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0},
              "orientation": -1, "alpha": [1.0, 0.0, 0.0]},
        "lambda": 1.0,
        "l": 1.0,
    }
    config_file = tmp_path / "alpha.json"
    config_file.write_text(json.dumps(config))
    assert "alpha" in assert_usage_error(capsys, ["solution", "--config", str(config_file)])
