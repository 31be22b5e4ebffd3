import json
import os
import subprocess
import sys
import warnings

import pytest

from epscontact import einstein, oracle
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

    # finite factors that fail: at l = 1e154 the fits overflow (eps_N = 1) or
    # alpha = (1/l)(e^0 - e^2) vanishes to tol (eps_N = 0)
    for eps_n in ("1", "0"):
        code, out = run(capsys, "catalog", "--epsilon-n", eps_n, "--l-samples", "1e154")
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


@pytest.mark.parametrize("example, header", [
    ("flat-para", "refinement,nx,ny,dt,constraint_curl,constraint_norm,constraint_hamiltonian,"
                  "constraint_momentum,alpha_flow,ricci_flow,alpha_flow_ratio"),
    ("null-isothermal", "refinement,nx,ny,constraint_curl,constraint_norm,"
                        "constraint_hamiltonian,constraint_momentum,curl_ratio"),
])
def test_cauchy_csv_header(capsys, example, header):
    code, out = run(capsys, "cauchy", "--example", example, "--nx", "8", "--ny", "8",
                    "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "ratio"]


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
    (["catalog", "--epsilon-n", "1", "--l-samples", "1e200"], 1),
    (["catalog", "--epsilon-n", "0", "--l-samples", "1e-200"], 1),
    (["catalog", "--epsilon-n", "1", "--l-samples", "1e154"], 0),
])
def test_overflowing_input_issues_no_numpy_warnings(capsys, argv, err_lines):
    # stderr holds the one "error:" line of bad input, or nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(argv)
    assert [str(w.message) for w in caught] == []
    assert len(capsys.readouterr().err.splitlines()) == err_lines

# l values the factor checks cannot tell from 0 (l^2 within 1e2 tol), and
# those a row cannot hold in floating point: 1 + l^2 overflows (eps_N = 1)
L_SAMPLES_BAD = {"": (-1, 0, 1), " , ": (-1, 0, 1), "inf": (-1, 0, 1), "nan": (-1, 0, 1),
                 "1e-200": (-1, 0, 1), "5e-324": (-1, 0, 1), "1e200": (1,), "1e308": (1,)}


@pytest.mark.parametrize("eps_n", ("-1", "0", "1"))
@pytest.mark.parametrize("value", ("", " , ", "0", "-1", "1e-200", "5e-324", "1e200", "1e308",
                                   "inf", "nan"))
def test_catalog_l_samples_edge_values(capsys, eps_n, value):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["catalog", "--epsilon-n", eps_n, "--l-samples", value])
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in captured.err
    if int(eps_n) in L_SAMPLES_BAD.get(value, ()):
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--l-samples" in lines[0]
    else:
        assert code in (0, 1) and captured.err == ""
        report = json.loads(captured.out, parse_constant=reject)
        assert report["pass"] is (code == 0) and report["items"]


def test_unknown_flag_exit_2(capsys):
    assert main(["oracle", "--bogus"]) == 2
    assert main(["--bogus", "oracle"]) == 2


def test_unknown_preset_exit_2(capsys):
    assert main(["solution", "--preset", "nope"]) == 2


def test_unknown_theorem_exit_2_with_one_clean_line(capsys):
    line = assert_usage_error(capsys, ["verify-tables", "--theorem", "thm-9.9"])
    assert line.startswith("error: unknown table 'thm-9.9'; known: ['prop-3.16', ")


def test_theorem_id_any_case(capsys):
    code, out = run(capsys, "verify-tables", "--theorem", "THM-1.2")
    assert code == 0 and json.loads(out)["items"][0]["theorem"] == "thm-1.2"


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


def test_env_var_does_not_set_tol():
    # the tolerance comes from --tol or the default, never from the environment
    env = dict(os.environ, EPSCONTACT_TOL="0")
    proc = subprocess.run(
        [sys.executable, "-m", "epscontact.cli", "oracle", "--samples", "10"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tol"] == 1e-09


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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_parallelism_below_1_exits_2(capsys, value):
    message = assert_usage_error(capsys, ["verify-tables", "--parallelism", value])
    assert "--parallelism" in message


@pytest.mark.parametrize("target", ["missing-dir/report.json", "."])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    # a report path in a missing directory, or a directory: the work has run,
    # the report cannot be written, and that is bad input, not a failed check
    line = assert_usage_error(capsys, ["oracle", "--samples", "7", "--output",
                                       str(tmp_path / target)])
    assert str(tmp_path) in line


def test_negative_tol_exit_2(capsys):
    assert "tolerance" in assert_usage_error(capsys, ["--tol", "-1", "oracle", "--samples", "3"])
    assert "tolerance" in assert_usage_error(capsys, ["oracle", "--samples", "3", "--tol", "nan"])


def test_scan_empty_grid_exit_2(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("scan ran on a rejected grid")

    monkeypatch.setattr(einstein, "scan_family", no_work)
    for points in ("0", "-2"):
        line = assert_usage_error(capsys, ["scan", "--family", "g3", "--grid", points])
        assert "--grid" in line


def test_oracle_without_samples_exit_2(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("oracle ran without samples")

    monkeypatch.setattr(oracle, "run_oracle", no_work)
    for samples in ("0", "-3"):
        assert "--samples" in assert_usage_error(capsys, ["oracle", "--samples", samples])


def test_scan_nonfinite_range_exit_2(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("scan ran on a non-finite range")

    monkeypatch.setattr(einstein, "scan_family", no_work)
    for flag, value in (("--lo", "nan"), ("--hi", "inf"), ("--lo", "-inf")):
        argv = ["scan", "--family", "g3", "--grid", "3", f"{flag}={value}"]
        assert flag in assert_usage_error(capsys, argv)


def test_scan_degenerate_range_exit_2(capsys, monkeypatch):
    # --lo == --hi would repeat one sample --grid^k times
    def no_work(*args, **kwargs):
        raise AssertionError("scan ran on a degenerate range")

    monkeypatch.setattr(einstein, "scan_family", no_work)
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
    def no_work(*args, **kwargs):
        raise AssertionError("scan ran although no structure of that epsilon exists")

    monkeypatch.setattr(einstein, "scan_family", no_work)
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


@pytest.mark.parametrize("l", [3e-5, -3e-5, 1e-200])
def test_solution_config_l_below_resolution_exit_2(tmp_path, capsys, l):
    # N = g3 at a = b = c = 1 has kappa_N = 0, and the theorem needs
    # kappa_N = l^2; the factor check, to 1e2 tol, cannot tell l^2 = 9e-10
    # from 0, and at l = 3e-5 the report passed with ricci_h = 4.5e-10
    config = {
        "n": {"family": "g3", "params": {"a": 1.0, "b": 1.0, "c": 1.0},
              "orientation": 1, "alpha": [1.0, 0.0, 0.0]},
        "x": {"family": "riemannian_unimodular",
              "params": {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0},
              "orientation": -1, "alpha": [1.0, 0.0, 0.0]},
        "lambda": 1.0,
        "l": l,
    }
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(config))
    line = assert_usage_error(capsys, ["solution", "--config", str(path)])
    assert line.startswith('error: "l" = ') and "below resolution" in line
    # beyond the bound the factor check resolves l, and rejects the mismatch
    config["l"] = 1e-3
    path.write_text(json.dumps(config))
    line = assert_usage_error(capsys, ["solution", "--config", str(path)])
    assert "!= l^2=1e-06" in line and line.startswith("error: kappa_N=")


def test_solution_config_checks_factors_at_tol(tmp_path, capsys):
    # the config above at l = 1e-4: below resolution at the default tol, and
    # at tol 1e-12 (bound 1e-10) resolved, so the factor check rejects it
    config = {
        "n": {"family": "g3", "params": {"a": 1.0, "b": 1.0, "c": 1.0},
              "orientation": 1, "alpha": [1.0, 0.0, 0.0]},
        "x": {"family": "riemannian_unimodular",
              "params": {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0},
              "orientation": -1, "alpha": [1.0, 0.0, 0.0]},
        "lambda": 1.0,
        "l": 1e-4,
    }
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(config))
    line = assert_usage_error(capsys, ["solution", "--config", str(path)])
    assert "below resolution" in line and "within 1e-07 of 0" in line
    line = assert_usage_error(capsys, ["solution", "--config", str(path), "--tol", "1e-12"])
    assert line.startswith("error: kappa_N=") and line.endswith("!= l^2=1e-08")


@pytest.mark.parametrize("eps_n", ["-1", "0", "1"])
def test_catalog_l_below_resolution_exit_2(capsys, eps_n):
    # l^2 = 1e-16 is within 1e2 tol = 1e-7 of 0; at tol 1e-20 it is not
    line = assert_usage_error(capsys, ["catalog", "--epsilon-n", eps_n,
                                       "--l-samples", "0,1e-8,0.5"])
    assert line.startswith("error: --l-samples: l = 1e-08 is below resolution")
    code, out = run(capsys, "catalog", "--epsilon-n", eps_n, "--l-samples", "1e-8",
                    "--tol", "1e-20")
    assert code in (0, 1) and json.loads(out)["items"]


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
                                  "lambda-null", "param-null", "param-list", "family-list",
                                  "alpha-entry-object"])
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
    elif case == "param-null":
        config["n"]["params"]["a"] = None
    elif case == "param-list":
        config["n"]["params"]["a"] = [1]
    elif case == "family-list":
        config["n"]["family"] = ["g3"]
    elif case == "alpha-entry-object":
        config["x"]["alpha"][0] = {}
    else:
        config["lambda"] = None
    config_file = tmp_path / "shape.json"
    config_file.write_text(json.dumps(config))
    message = assert_usage_error(capsys, ["solution", "--config", str(config_file)])
    assert "solution config" in message
    field = {"param-null": "n.params.a", "param-list": "n.params.a",
             "family-list": "n.family", "alpha-entry-object": "x.alpha"}.get(case)
    assert field is None or field in message


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


# --- the edge-value matrix: every numeric flag of every subcommand ---------------

# each subcommand with the arguments it needs, at sizes that keep a run short
BASE_ARGV = {
    "oracle": ["oracle", "--samples", "7"],
    "verify-tables": ["verify-tables", "--theorem", "thm-1.2"],
    "scan": ["scan", "--family", "g3", "--epsilon", "1", "--grid", "3"],
    "solution": ["solution", "--preset", "ads3xs3"],
    "catalog": ["catalog", "--epsilon-n", "-1", "--l-samples", "0.5"],
    "cauchy": ["cauchy", "--example", "flat-para", "--nx", "8", "--ny", "8"],
}
EDGE_VALUES = ("0", "-1", "1e-200", "5e-324", "1e308", "inf", "nan", "", " , ")
# flags whose rejected values are named by what they break, not by the flag:
# the tolerance
UNNAMED = {"--tol"}


def numeric_flags() -> list:
    """(subcommand, flag) for every int or float option of every subcommand,
    and catalog's comma-separated --l-samples. The int flags reject 1e308,
    inf and nan when parsed, so no edge value asks for a huge --grid, --nx,
    --ny, --samples or --parallelism."""
    import argparse

    from epscontact.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, action.option_strings[0])
            for name, parser in sub.choices.items() for action in parser._actions
            if action.option_strings
            and (action.type in (int, float) or action.dest == "l_samples")]


def test_numeric_flags_cover_every_subcommand():
    flags = numeric_flags()
    assert {name for name, _ in flags} == set(BASE_ARGV)
    assert ("cauchy", "--dt") in flags and ("scan", "--hi") in flags and len(flags) == 32


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
@pytest.mark.parametrize("command, flag", numeric_flags())
def test_numeric_flag_edge_values(capsys, command, flag, value):
    """Exit 0 or 1 with strict JSON on stdout, or exit 2 with empty stdout
    and an error line (after argparse's usage line where argparse rejects
    the value), which names the flag; never a traceback or a warning."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*BASE_ARGV[command], flag, value])
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == ""
        lines = captured.err.splitlines()
        if lines[0].startswith("usage: "):  # argparse's own rejection
            assert f"{command}: error: " in lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert flag in lines[0] or flag in UNNAMED, lines[0]
    else:
        assert code in (0, 1) and captured.err == ""
        report = json.loads(captured.out, parse_constant=reject)
        assert report["pass"] is (code == 0)


# --- what each command loads, in a fresh interpreter -------------------------------

# the library modules each command runs, with what they import
CALLED = {
    "oracle": {"oracle", "curvature", "liealg", "exterior"},
    "verify-tables": {"tables", "contact", "curvature", "liealg", "exterior"},
    "scan": {"einstein", "contact", "curvature", "liealg", "exterior"},
    "solution": {"product6d", "tables", "contact", "curvature", "liealg", "exterior"},
    "catalog": {"product6d", "tables", "contact", "curvature", "liealg", "exterior"},
    "cauchy": {"cauchy"},
}
CLI_MODULES = {"epscontact", "epscontact.cli", "epscontact.config", "epscontact.errors"}
LOADED = """
import json, os, sys
import epscontact.cli
before = sorted(m for m in sys.modules if m.split(".")[0] == "epscontact")
code = epscontact.cli.main(sys.argv[1:] + ["--output", os.devnull])
after = sorted(m for m in sys.modules if m.split(".")[0] == "epscontact")
print(json.dumps([before, code, after]))
"""


def loaded_modules(argv: list) -> tuple:
    """(modules after import epscontact.cli, exit code, modules after the
    command) of one fresh interpreter running the command."""
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, code, after = json.loads(proc.stdout)
    return set(before), code, set(after)


@pytest.mark.parametrize("command", sorted(BASE_ARGV))
def test_command_loads_only_the_modules_it_runs(command):
    before, code, after = loaded_modules(BASE_ARGV[command])
    assert before == CLI_MODULES  # import epscontact.cli
    assert code == 0
    assert after == CLI_MODULES | {f"epscontact.{m}" for m in CALLED[command]}
