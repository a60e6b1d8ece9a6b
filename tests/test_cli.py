"""Tests for the command-line surface: exit codes, file outputs, determinism."""

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import uplab
from test_grid import read_grid_csv
from test_harness import read_sweep_csv
from uplab import cli, harness
from uplab import counterexamples as cx
from uplab.cli import main
from uplab.grid import default_spec, gaussian_grid_function
from uplab.params import cp_params
from uplab.radial import gaussian_log_product
from uplab.specialfn import LOG_MAX, LOG_MIN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGaussianCommand:
    def test_prints_sharp_value(self, capsys):
        code, out, _ = run(capsys, "gaussian", "--d", "3", "--p", "2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(9.0 / (16.0 * math.pi**2), rel=1e-12)

    def test_large_dimension(self, capsys):
        # ln Gamma(d/2 + 1) - ln Gamma(d/2) = ln(d/2) is no difference of two 1e17-sized logs
        d = 10**16
        code, out, _ = run(capsys, "gaussian", "--d", str(d), "--p", "2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(d * d / (16.0 * math.pi**2), rel=1e-12)


class TestHeisenbergCommand:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "heisenberg", "--d-max", "200", "--out", str(out_path)
        )
        assert code == 0
        rows = read_sweep_csv(out_path)
        assert len(rows) == 200
        assert "pass=True" in out

    def test_json_summary(self, capsys, tmp_path):
        out_path = tmp_path / "summary.json"
        code, _, _ = run(
            capsys,
            "heisenberg", "--d-max", "100",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        summary = json.loads(out_path.read_text())
        assert summary["pass"] is True
        assert summary["d0"] <= 10

    @pytest.mark.parametrize("argv, expected", [
        (["heisenberg", "--d-max", "60"], {"d0": 1, "pass": True, "slope": 2.085421913704878}),
        (["lp", "--p", "1.5", "--d-max", "60"],
         {"p": 1.5, "pass": True, "slope_gaussian": 1.5068069103923762,
          "slope_method": 1.5910263278611732}),
    ])
    def test_json_summary_bytes(self, capsys, tmp_path, argv, expected):
        # the summaries' bytes, pinned: --format json writes no CSV but the same sweep
        out_path = tmp_path / "summary.json"
        code, _, _ = run(capsys, *argv, "--out", str(out_path), "--format", "json")
        assert code == 0
        assert out_path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestLpCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "lp", "--p", "1.5", "--d-max", "120")
        assert code == 0
        assert "pass=True" in out

    def test_short_sweep_has_no_slope(self, capsys):
        # d-max below the fit window: no slope, but still a verdict
        code, out, _ = run(capsys, "lp", "--p", "1.5", "--d-max", "10")
        assert code == 0
        assert "slope_method=None slope_gaussian=None pass=True" in out

    def test_csv_output(self, capsys, tmp_path):
        # the sweep's CSV; the floor flag is tested from d = 51 on, past the calibration
        out_path, expected = tmp_path / "x.csv", tmp_path / "expected.csv"
        code, _, _ = run(capsys, "lp", "--p", "1.5", "--d-max", "60", "--out", str(out_path))
        assert code == 0
        harness.write_sweep_csv(harness.lp_sweep(1.5, 60), expected)
        assert out_path.read_bytes() == expected.read_bytes()
        lines = out_path.read_text().splitlines()
        assert len(lines) == 61 and lines[0].endswith(",below_sharp,floor")
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [""] * 50 + ["True"] * 10

    def test_usage_error_beyond_range(self, capsys):
        code, _, err = run(capsys, "lp", "--p", "3", "--d-max", "100")
        assert code == 2
        assert "p must satisfy" in err


class TestSharpnessCommand:
    def test_supercritical_collapse(self, capsys):
        code, out, _ = run(
            capsys, "sharpness", "--d", "2", "--p", "5", "--c-list", "1,2,4,8"
        )
        assert code == 0
        assert "decreasing=True" in out

    def test_subcritical_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sharpness", "--d", "2", "--p", "3")
        assert code == 2
        assert "2d/(d-1)" in err

    @pytest.mark.parametrize("c_list, message", [
        ("1,1", "c_values must be strictly increasing and >= 1, got [1.0, 1.0]"),
        ("1,2,2,4", "c_values must be strictly increasing and >= 1, got [1.0, 2.0, 2.0, 4.0]"),
        ("2", "the sharpness sweep compares at least two c values, got [2.0]"),
    ])
    def test_schedule_without_a_verdict_is_usage_error(self, capsys, c_list, message):
        # a repeated c cannot decrease and one c cannot collapse: false by definition,
        # so no verdict is printed
        code, out, err = run(capsys, "sharpness", "--d", "2", "--p", "5", "--c-list", c_list)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_json_summary_holds_log_products(self, capsys, tmp_path):
        # the products' logs, finite floats in standard JSON, also where the products
        # themselves (e^-1411.6, e^-1965.5) are beyond the floats
        target = tmp_path / "sharpness.json"
        code, _, _ = run(capsys, "sharpness", "--d", "2", "--p", "500", "--c-list", "1,2",
                         "--out", str(target))
        assert code == 0

        def refuse(constant):
            raise AssertionError(f"{constant} is not standard JSON")

        summary = json.loads(target.read_text(), parse_constant=refuse)
        assert "products" not in summary
        assert summary["log_products"] == cx.gc_infimum_sweep(2, 500.0, [1.0, 2.0])
        assert summary["decreasing"] and summary["collapsed"] and summary["pass"]


class TestRudinShapiroCommand:
    def test_slope_report(self, capsys):
        code, out, _ = run(capsys, "rudin-shapiro", "--d", "2", "--k-max", "3")
        assert code == 0
        assert "measured=0.64" in out or "measured=0.65" in out

    def test_export_dir_round_trips(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "rudin-shapiro", "--d", "1", "--k-max", "3", "--export-dir", str(tmp_path)
        )
        assert code == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "member_1_level_3.csv", "member_2_level_3.csv"
        ]
        family = cx.rs_level(1, 3)
        for i, member in enumerate(map(family.member, range(2)), start=1):
            exported = read_grid_csv(tmp_path / f"member_{i}_level_3.csv")
            assert exported.spec == member.spec
            assert exported.values.dtype == member.values.dtype
            assert np.array_equal(exported.values, member.values)

    @pytest.mark.parametrize("argv, measured", [
        (["rudin-shapiro", "--d", "2", "--k-max", "3", "--p", "586", "--theta", "0.5"],
         "measured=0.4195 pass=False"),
        (["cowling-price", "--d", "2", "--p", "586", "--q", "586", "--theta", "0.5",
          "--phi", "0.5"], "(measured 0.41951797626953324)"),
        (["rudin-shapiro", "--d", "2", "--k-max", "2", "--p", "820", "--theta", "0.5"],
         "measured=0.3888 pass=False"),
    ])
    def test_weight_beyond_the_floats_outside_the_box(self, capsys, argv, measured):
        # |x|^(p w) overflows at the support grid's far corner, outside the members'
        # support box, but not inside it: the norms are finite, and at p = 586 the
        # slope is the one --p inf prints
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert measured in out

    def test_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, _, _ = run(capsys, "rudin-shapiro", "--d", "2", "--k-max", "3", "--out",
                         str(out_path))
        assert code == 0
        summary = json.loads(out_path.read_text())
        assert sorted(summary) == ["checks", "d", "k_max", "measured_slope", "p", "pass",
                                   "predicted_slope", "theta"]
        assert summary["pass"] is True
        expected = harness.rs_check(2, 3, 8.0, 0.1)
        assert summary == {**expected, "checks": [dataclasses.asdict(expected["checks"][0])]}
        assert sorted(summary["checks"][0]) == ["log_lhs", "log_rhs", "name", "passed",
                                                "relation", "tol"]

    def test_bad_level_is_usage_error(self, capsys):
        # k-max 1 leaves the slope fit, which takes levels 1..2, too few levels
        for k_max in ("9", "1"):
            code, _, err = run(capsys, "rudin-shapiro", "--d", "2", "--k-max", k_max)
            assert code == 2
            assert err.count("\n") == 1 and "k-max" in err


class TestCowlingPriceCommand:
    def test_feasible_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "cowling-price", "--d", "1", "--p", "2", "--q", "2",
            "--theta", "1", "--phi", "1",
        )
        assert code == 0
        assert "feasible" in out

    def test_tiny_weights_are_feasible(self, capsys):
        # p = 2 puts the endpoint at theta = 0, so any theta > 0 is feasible
        code, out, _ = run(
            capsys,
            "cowling-price", "--d", "1", "--p", "2", "--q", "2",
            "--theta", "1e-13", "--phi", "1e-13",
        )
        assert code == 0
        assert "classification: feasible" in out

    @pytest.mark.parametrize("d, weight", [("4", "3"), ("40", "30")])
    def test_beyond_grids_and_float_range(self, capsys, d, weight):
        # d = 4 has no grid for the random bump; at d = 40 the radial
        # integrand's r^{k-1} exceeds the float range
        code, out, err = run(
            capsys,
            "cowling-price", "--d", d, "--p", "2", "--q", "2",
            "--theta", weight, "--phi", weight,
        )
        assert (code, err) == (0, "")
        assert "classification: feasible" in out
        assert out.count("pass=True") == 3
        assert "random_bump" not in out

    def test_violated_exit_one(self, capsys):
        code, out, _ = run(
            capsys,
            "cowling-price", "--d", "2", "--p", "8", "--q", "8",
            "--theta", "0.1", "--phi", "0.1",
        )
        assert code == 1
        assert "violated" in out

    def test_endpoint_exit_one_with_measured_verdict(self, capsys):
        code, out, err = run(
            capsys,
            "cowling-price", "--d", "2", "--p", "4", "--q", "4",
            "--theta", "0.5", "--phi", "0.5",
        )
        assert (code, err) == (1, "")
        assert "classification: endpoint" in out
        assert out.count("pass=True") == 2

    @pytest.mark.parametrize("argv, classification, exit_code", [
        (["--d", "1", "--p", "2", "--q", "2", "--theta", "1", "--phi", "1"], "feasible", 0),
        (["--d", "2", "--p", "8", "--q", "8", "--theta", "0.1", "--phi", "0.1"], "violated", 1),
        (["--d", "2", "--p", "4", "--q", "4", "--theta", "0.5", "--phi", "0.5"], "endpoint", 1),
    ])
    def test_json_output(self, capsys, tmp_path, argv, classification, exit_code):
        # each class with its verdict and its checks; only a feasible tuple's inequality
        # holds; a violated report adds its slopes, an endpoint report its tail masses
        out_path = tmp_path / "x.json"
        code, _, err = run(capsys, "cowling-price", *argv, "--out", str(out_path))
        assert (code, err) == (exit_code, "")
        d, p, q, theta, phi = (float(x) for x in argv[1::2])
        report = harness.cp_check(int(d), p, q, theta, phi, seed=0)
        # strict JSON: the endpoint's bound of infinity is the string "inf"
        checks = [{key: str(value) if value == math.inf else value
                   for key, value in dataclasses.asdict(check).items()}
                  for check in report.functions]
        expected = {"d": int(d), "p": p, "q": q, "theta": theta, "phi": phi, "seed": 0,
                    "classification": classification, "pass": True,
                    "holds": classification == "feasible", "checks": checks}
        if classification == "violated":
            expected.update(predicted_slope=report.predicted_slope,
                            measured_slope=report.measured_slope)
        elif classification == "endpoint":
            expected["log_tail_masses"] = list(report.log_tail_masses)
        assert out_path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        summary = json.loads(out_path.read_text())
        assert summary["pass"] == all(check["passed"] for check in summary["checks"])

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_nonpositive_dimension_usage_error(self, capsys, d):
        code, _, err = run(
            capsys,
            "cowling-price", "--d", d, "--p", "2", "--q", "2", "--theta", "1", "--phi", "1",
        )
        assert code == 2
        assert err.count("\n") == 1
        assert "dimension must be >= 1" in err

    def test_homogeneity_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "cowling-price", "--d", "1", "--p", "2", "--q", "2",
            "--theta", "1", "--phi", "0.5",
        )
        assert code == 2
        assert "homogeneity" in err


def _refuse(constant):
    raise AssertionError(f"{constant} is not strict JSON")


class TestStrictJsonReports:
    """Every --out JSON report parses as strict JSON (no NaN or Infinity); a non-finite
    number is the string "inf", "-inf" or "nan", which float() reads back."""

    @pytest.mark.parametrize("argv", [
        ["heisenberg", "--d-max", "60", "--format", "json"],
        ["lp", "--p", "1.5", "--d-max", "60", "--format", "json"],
        ["lp", "--p", "1.5", "--d-max", "10", "--format", "json"],  # slopes are null
        ["sharpness", "--d", "2", "--p", "5", "--c-list", "1,2,4"],
        ["rudin-shapiro", "--d", "1", "--k-max", "3"],
        ["chain", "--d", "1", "--p", "2"],
        ["cowling-price", "--d", "1", "--p", "2", "--q", "2", "--theta", "1", "--phi", "1"],
        ["cowling-price", "--d", "3", "--p", "8", "--q", "8", "--theta", "0.1", "--phi", "0.1"],
        ["cowling-price", "--d", "2", "--p", "4", "--q", "4", "--theta", "0.5", "--phi", "0.5"],
    ])
    def test_report_is_strict_json(self, capsys, tmp_path, argv):
        out_path = tmp_path / "report.json"
        code, _, err = run(capsys, *argv, "--out", str(out_path))
        assert code in (0, 1) and err == ""
        json.loads(out_path.read_text(), parse_constant=_refuse)

    @pytest.mark.parametrize("argv, log_rhs", [
        (["--d", "3", "--p", "8", "--q", "8", "--theta", "0.1", "--phi", "0.1"], "-inf"),
        (["--d", "2", "--p", "4", "--q", "4", "--theta", "0.5", "--phi", "0.5"], "inf"),
    ])
    def test_bound_on_no_measurement_is_a_string(self, capsys, tmp_path, argv, log_rhs):
        # the violated check at d = 3 and the endpoint's weighted mass have infinite bounds
        out_path = tmp_path / "report.json"
        run(capsys, "cowling-price", *argv, "--out", str(out_path))
        checks = json.loads(out_path.read_text(), parse_constant=_refuse)["checks"]
        assert checks[-1]["log_rhs"] == log_rhs
        assert float(log_rhs) == (math.inf if log_rhs == "inf" else -math.inf)

    def test_non_finite_floats_become_strings(self, tmp_path):
        path = tmp_path / "summary.json"
        harness.write_summary_json({"values": (math.inf, -math.inf, math.nan, 1.5, None),
                                    "nested": [{"x": np.float64(math.inf)}]}, path)
        loaded = json.loads(path.read_text(), parse_constant=_refuse)
        assert loaded == {"values": ["inf", "-inf", "nan", 1.5, None], "nested": [{"x": "inf"}]}
        assert [float(v) for v in loaded["values"][:2]] == [math.inf, -math.inf]
        assert math.isnan(float(loaded["values"][2]))


class TestChainCommand:
    def test_gaussian_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "--d", "1", "--p", "2")
        assert code == 0
        assert "pass=True" in out

    def test_seed_determinism(self, capsys):
        args = ["chain", "--d", "1", "--p", "2", "--function", "bump", "--seed", "5"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "chain.json"
        code, _, _ = run(
            capsys, "chain", "--d", "1", "--p", "2", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["pass"] is True
        assert len(payload["links"]) == 5

    @pytest.mark.parametrize("flag", ["--n", "--L"])
    def test_zero_grid_size_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "chain", "--d", "1", flag, "0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1


class TestNoFftn:
    def test_commands_transform_from_factors(self, capsys, monkeypatch):
        # every chain function and the feasible check's bump carry their 1-D factors
        def fftn(*args, **kwargs):
            raise AssertionError("np.fft.fftn called")

        monkeypatch.setattr(np.fft, "fftn", fftn)
        for d in ("1", "2", "3"):
            for function in ("gaussian", "gc", "bump"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # g_2's faces at d = 3: 1.1e-9 of its peak
                    code, _, err = run(capsys, "chain", "--d", d, "--function", function)
                assert (code, err) == (0, ""), (d, function)
        code, _, err = run(capsys, "cowling-price", "--d", "3", "--p", "2", "--q", "2",
                           "--theta", "1", "--phi", "1")
        assert (code, err) == (0, "")


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv", [
        ["cowling-price", "--d", "1", "--p", "inf", "--q", "inf", "--theta", "1", "--phi", "1"],
        ["cowling-price", "--d", "1", "--p", "2", "--q", "2", "--theta", "inf", "--phi", "inf"],
        ["rudin-shapiro", "--d", "1", "--theta", "inf"],
        ["sharpness", "--d", "3", "--p", "inf"],
        ["sharpness", "--d", "2", "--p", "5", "--c-list", "1,1e300"],
        ["gaussian", "--d", "1", "--p", "inf"],
    ])
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "inf" in err or "finite" in err

    def test_weighted_sup_norm_slope(self, capsys):
        # p = inf weighs the sup norm by |x|^theta; measured 0.5 when it did not
        code, out, _ = run(capsys, "rudin-shapiro", "--d", "1", "--p", "inf", "--theta", "0.1")
        assert code == 0
        assert "predicted slope=0.4000 measured=0.3839 pass=True" in out


class TestOutOfRangeInputs:
    @pytest.mark.parametrize("argv, named", [
        # c^2 = 1e400 overflows, so g_c has no rates
        (["sharpness", "--d", "50", "--p", "3", "--c-list", "1,1e200"], "finite, nonzero square"),
        (["chain", "--d", "1", "--L", "inf"], "L=inf"),
        # finite, but the spacing 2L/n is not
        (["chain", "--d", "1", "--L", "1e308"], "L=1e+308"),
        # the spacing is finite, but the squared coordinates are not
        (["chain", "--d", "1", "--L", "1e200"], "L=1e+200"),
        # the spacing is finite, but the cell volume spacing^3 is not
        (["chain", "--d", "3", "--L", "1e150"], "L=1e+150"),
        # only the origin sample is nonzero, so V_p(f) = 0
        (["chain", "--d", "1", "--L", "1e5"], "does not resolve f"),
        # pi |x|^2 overflows to inf in the samplers: exact zeros, without warnings
        (["chain", "--d", "1", "--L", "1e154"], "does not resolve f"),
        (["chain", "--d", "1", "--function", "gc", "--L", "1e154"], "does not resolve f"),
        (["chain", "--d", "1", "--function", "bump", "--L", "1e154"], "zero function"),
        # the trapezoid rule's node budget: non-integer p spans g_2's two peaks, ln(c^2)
        # apart, in steps of 1/sqrt(2d); or p >> d, r^p F^p peaks 1/sqrt(2p) wide
        (["sharpness", "--d", "1" + "0" * 100, "--p", "3.5", "--c-list", "1,2"],
         "r^1e+100 F(r)^3.5 peaks too narrowly"),
        (["sharpness", "--d", "3", "--p", "1e10", "--c-list", "1,2"],
         "r^1e+10 F(r)^1e+10 peaks too narrowly"),
        # p t_ref = (p/2) ln(17 / (2 pi p)) and ln product are beyond the floats
        (["sharpness", "--d", "17", "--p", "1e308", "--c-list", "1,2"], "ln product = -inf"),
        # the radial checks pass; the bump's |f|^p overflows in its grid sum, which
        # raises naming (p, w) rather than measure a NaN norm
        (["cowling-price", "--d", "3", "--p", "1e6", "--q", "1e6",
          "--theta", "1.6", "--phi", "1.6"], "p=1e+06, w=1.6"),
        # |x|^(p w) is inf beyond |x| = 1 and |f|^p is 0 there: their product is NaN
        (["rudin-shapiro", "--d", "1", "--p", "1e308", "--theta", "0.1"], "p=1e+308, w=0.1"),
        (["rudin-shapiro", "--d", "2", "--theta", "1e308"], "p=8, w=1e+308"),
        (["sharpness", "--d", "2", "--p", "1e307", "--c-list", "1,2"],
         "c=2 has no finite log: ln product = -inf"),
        # ln Gamma((p + 1)/2) and p ln(pi p) leave the floats; so does ln product, -2.8e308
        (["gaussian", "--d", "1", "--p", "1e308"], "ln product = -inf"),
        (["gaussian", "--d", "100", "--p", "1e308"], "d=100, p=1e+308 has no finite log"),
        # the chain's moment V_p(f) weighs |f|^p = 0 by |x|^p = inf
        (["chain", "--d", "1", "--p", "1e300"], "p=1e+300, w=1"),
        # a = p / (1 + p theta/(d + epsilon)) rounds to p: r = 2/a, then r1 = p/a, is 1
        (["cowling-price", "--d", "1", "--p", "2", "--q", "2",
          "--theta", "1e-300", "--phi", "1e-300"], "r = 2/a rounds to 1"),
        (["cowling-price", "--d", "1" + "0" * 307, "--p", "3", "--q", "3",
          "--theta", "1" + "0" * 307, "--phi", "1" + "0" * 307], "r1 = p/a rounds to 1"),
        # d/(phi q) overflows, so delta is inf and epsilon NaN
        (["cowling-price", "--d", "1", "--p", "2", "--q", "2",
          "--theta", "1e-310", "--phi", "1e-310"], "theta=1e-310, phi=1e-310"),
        (["cowling-price", "--d", "1", "--p", "2", "--q", "2",
          "--theta", "5e-324", "--phi", "5e-324"], "theta=5e-324, phi=5e-324"),
        # feasible, but 1 + d/(phi q) rounds to 1 and the delta window with it
        (["cowling-price", "--d", "4", "--p", "3", "--q", "3",
          "--theta", "1e17", "--phi", "1e17"], "lost to rounding: theta and phi are too large"),
        (["chain", "--d", "1", "--function", "bump", "--seed", "-1"], "seed must be nonnegative"),
        (["cowling-price", "--d", "1", "--p", "2", "--q", "2", "--theta", "1", "--phi", "1",
          "--seed", "-1"], "seed must be nonnegative"),
        (["sharpness", "--d", "2", "--p", "5", "--c-list", ","], "--c-list"),
        # the translate members vanish outside a box of samples; inside it the weight
        # |x|^(p w) is inf beyond |x| = 1, where the members have zeros: inf * 0 = NaN
        (["rudin-shapiro", "--d", "2", "--p", "1e308", "--theta", "0.1"], "p=1e+308, w=0.1"),
        (["cowling-price", "--d", "2", "--p", "1e308", "--q", "1e308",
          "--theta", "0.1", "--phi", "0.1"], "p=1e+308, w=0.1"),
        # at the edge of ln Gamma(d/2), which the ratio never forms: still the node budget
        (["sharpness", "--d", "1" + "0" * 306, "--p", "3.5", "--c-list", "1,2"],
         "r^1e+306 F(r)^3.5 peaks too narrowly"),
        # k = p theta + d = 2e306: ln Gamma(k/2), and with it the norm's log mass, is beyond
        # the floats (an OverflowError traceback once)
        (["cowling-price", "--d", "3", "--p", "1e306", "--q", "1e306", "--theta", "2",
          "--phi", "2"], "r^2e+306 F(r)^1e+306 has no finite log"),
        # |x|^(p w) = 7.9^400 overflows inside the level-3 box [0, 8), at zeros of the member
        (["rudin-shapiro", "--d", "1", "--k-max", "3", "--p", "1000", "--theta", "0.4"],
         "p=1000, w=0.4"),
        # the dimension sweeps' one d_max check
        (["lp", "--p", "1.5", "--d-max", "0"], "d_max must be 1..1000"),
        (["lp", "--p", "1.5", "--d-max", "1001"], "d_max must be 1..1000"),
        # a predicted slope of 0, or 0 within its rounding, which every measured slope met
        (["rudin-shapiro", "--d", "2", "--p", "4", "--theta", "0.5"], "0 within rounding"),
        (["rudin-shapiro", "--d", "2", "--p", "3", "--theta", "0.3333333333333333"],
         "0 within rounding"),
    ])
    def test_usage_error(self, capsys, argv, named):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.count("\n") == 1
        assert named in err

    # d / 2 of a dimension beyond the floats raised OverflowError: a traceback
    @pytest.mark.parametrize("argv", [
        ["gaussian", "--p", "2"],
        ["cowling-price", "--p", "3", "--q", "3", "--theta", "1", "--phi", "1"],
        ["sharpness", "--p", "3"],
    ])
    def test_dimension_beyond_the_floats(self, capsys, argv):
        argv = [argv[0], "--d", "1" + "0" * 400, *argv[1:]]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.count("\n") == 1
        assert "dimension must be >= 1" in err

    def test_critical_exponent_where_2d_overflows(self, capsys):
        # 2d/(d-1) is 2 at d = 1e308, not inf: p = 3 is supercritical, and the sweep
        # stops at g_4, the first c whose cube's Gaussians have masses beyond the floats
        code, out, err = run(capsys, "sharpness", "--d", "1" + "0" * 308, "--p", "3")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "2d/(d-1)" not in err and "at c=4 has no finite log" in err

    @pytest.mark.parametrize("argv", [
        # the products lie beyond the floats: e^-2829.8, e^875.5, e^-2.8e100, e^-1411.6
        # (c = 1) and e^-2.8e6 (c = 1), once refused as outside the normal float range
        ["gaussian", "--d", "2", "--p", "1000"],
        ["gaussian", "--d", "100000", "--p", "200"],
        ["gaussian", "--d", "1", "--p", "1e100"],
        ["sharpness", "--d", "2", "--p", "500", "--c-list", "1,2"],
        ["sharpness", "--d", "3", "--p", "1e6", "--c-list", "1,2"],
        # k = p + d is never formed, so the weight of V_p(g_c) is not lost to rounding;
        # at d = 1e15 the difference of two norms' logs printed 1.55e38, not 1.49e41
        ["sharpness", "--d", "1" + "0" * 15, "--p", "3", "--c-list", "1,2"],
        ["sharpness", "--d", "1" + "0" * 17, "--p", "3", "--c-list", "1,2"],
        ["sharpness", "--d", "1" + "0" * 100, "--p", "3", "--c-list", "1,2"],
    ])
    def test_product_gets_a_verdict(self, capsys, argv):
        # gaussian prints its product, sharpness g_1 = 2 exp(-pi r^2) first, whose product
        # is the Gaussian's: as a number while it is a normal float, else as e^<ln>
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and err == ""
        log_product = gaussian_log_product(int(argv[2]), float(argv[4]))
        first = out.split()[0] if argv[0] == "gaussian" else out.split("product=")[1].split()[0]
        if LOG_MIN <= log_product < LOG_MAX:
            assert float(first) == pytest.approx(math.exp(log_product), rel=1e-12)
        else:
            assert first.startswith("e^")
            assert float(first[2:]) == pytest.approx(log_product, rel=1e-8)


class TestLogDomainVerdicts:
    """Norms and bounds beyond the floats are compared as logs: these valid tuples get
    a verdict, where they once ended in a usage error."""

    @pytest.mark.parametrize("argv", [
        # the bound e^1222 and the norms' product are beyond the floats
        ["cowling-price", "--d", "1000", "--p", "2", "--q", "2", "--theta", "300", "--phi", "300"],
        # so are the bound e^2444 and ||x|^600 g||_2 itself
        ["cowling-price", "--d", "1000", "--p", "2", "--q", "2", "--theta", "600", "--phi", "600"],
        ["cowling-price", "--d", "500", "--p", "4", "--q", "4", "--theta", "250", "--phi", "250"],
        # the threshold radius T underflows to 0, and the tail bound passes the floats
        ["chain", "--d", "1", "--p", "1.000001"],
        ["chain", "--d", "3", "--p", "1.0001", "--function", "bump"],
    ])
    def test_verdict(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and err == ""
        assert out.count("pass=") == (3 if argv[0] == "cowling-price" else 6)

    @pytest.mark.parametrize("argv", [
        # g_2's coefficients 2^{-+d/2} are beyond the floats from d = 2048 on, g_4's from 1024
        ["--d", "3000", "--p", "2", "--q", "2", "--theta", "1", "--phi", "1"],
        ["--d", "100000", "--p", "2", "--q", "2", "--theta", "1", "--phi", "1"],
        ["--d", "1024", "--p", "4", "--q", "4", "--theta", "512", "--phi", "512"],
    ])
    def test_gc_coefficients_beyond_the_floats(self, capsys, argv):
        code, out, err = run(capsys, "cowling-price", *argv)
        assert (code, err) == (0, "")
        assert [line.split()[0] for line in out.splitlines()[1:]] == ["gaussian", "g_2", "g_4"]
        assert out.count("pass=True") == 3

    def test_slack_beyond_the_floats_prints_as_a_power_of_e(self, capsys):
        # g_4's lhs / rhs is e^821.5; the finite slacks keep their digits
        argv = ["--d", "1000", "--p", "4", "--q", "4", "--theta", "500", "--phi", "500"]
        code, out, err = run(capsys, "cowling-price", *argv)
        assert (code, err) == (0, "")
        report = harness.cp_check(1000, 4.0, 4.0, 500.0, 500.0)
        for fr, line in zip(report.functions, out.splitlines()[1:], strict=True):
            slack = line.split("slack=")[1].split()[0]
            if fr.name == "g_4":
                assert slack == f"e^{fr.log_lhs - fr.log_rhs:.9g}" and fr.slack == math.inf
            else:
                assert slack == f"{fr.slack:.6e}"
        assert "inf" not in out

    def test_sharpness_where_c_to_the_d_leaves_the_floats(self, capsys):
        # 1e20^{25} = 1e500: g_c's coefficients are carried as logs
        code, out, err = run(capsys, "sharpness", "--d", "50", "--p", "3", "--c-list", "1,1e20")
        assert (code, err) == (0, "")
        products = [float(line.split("product=")[1]) for line in out.splitlines()[:2]]
        assert products[0] > products[1] > 0
        assert "collapsed=True" in out

    def test_sides_outside_the_floats_print_as_powers_of_e(self, capsys):
        code, out, _ = run(capsys, "chain", "--d", "1", "--p", "1.000001")
        assert code == 0
        tail = next(line for line in out.splitlines() if "tail_hoelder" in line)
        assert "lhs=9.375000e-01 rhs=e^693146.9" in tail
        assert "inf" not in tail and "e^" not in tail.split("rhs=")[0]

    @pytest.mark.parametrize("argv", [
        # omega_444 = e^{-723}: every mass lies below the floats
        ["--d", "445", "--p", "4", "--q", "4", "--theta", "111.25", "--phi", "111.25"],
        ["--d", "100000", "--p", "4", "--q", "4", "--theta", "25000", "--phi", "25000"],
        ["--d", "1000", "--p", "4000", "--q", "4000", "--theta", "499.75", "--phi", "499.75"],
        # the weighted mass (ln 2)^{-1999} / 1999 * 2 = e^726 is beyond the floats
        ["--d", "1", "--p", "4000", "--q", "4000", "--theta", "0.49975", "--phi", "0.49975"],
        # its integrand peaks at e^{1.8e5} within 1e-6 of u = ln 2
        ["--d", "1", "--p", "1e6", "--q", "1e6", "--theta", "0.499999", "--phi", "0.499999"],
    ])
    def test_endpoint_masses_beyond_the_floats(self, capsys, argv):
        code, out, err = run(capsys, "cowling-price", *argv)
        assert (code, err) == (1, "")
        assert out.count("pass=True") == 2 and "e^" in out

    def test_endpoint_masses_near_the_float_floor_keep_their_digits(self, capsys):
        # omega_443 = e^{-720}: the masses are subnormal, once printed as 0.000000
        argv = ["--d", "444", "--p", "4", "--q", "4", "--theta", "111", "--phi", "111"]
        code, out, err = run(capsys, "cowling-price", *argv)
        assert (code, err) == (1, "")
        assert "0.000000" not in out and out.count("pass=True") == 2
        report = harness.cp_check(444, 4.0, 4.0, 111.0, 111.0)
        masses = ", ".join(f"e^{m:.9g}" for m in report.log_tail_masses)
        assert f"tail masses [{masses}] pass=True" in out

    def test_endpoint_weighted_mass_at_p_1e300(self, capsys):
        # beta = -p/2 = -5e299: the mass omega_2 (ln 2)^{1-p/2} / (p/2 - 1) = e^{1.8e299}
        argv = ["--d", "3", "--p", "1e300", "--q", "1e300", "--theta", "1.5", "--phi", "1.5"]
        code, out, err = run(capsys, "cowling-price", *argv)
        assert (code, err) == (1, "")
        assert "classification: endpoint" in out
        assert "] pass=True\n" in out
        assert "endpoint weighted mass e^1.8325646e+299 pass=True\n" in out

    def test_endpoint_masses_over_the_sphere_area_show_their_growth(self, capsys):
        # at d = 1e18, ln omega_{d-1} = -1.9e19 rounds the masses' steps away, so they
        # print alike; over omega_{d-1} they grow by ln 2 each, as the verdict judges them
        d = 10**18
        theta = repr(d * (0.5 - 1.0 / 7.3))
        argv = ["--d", str(d), "--p", "7.3", "--q", "7.3", "--theta", theta, "--phi", theta]
        code, out, err = run(capsys, "cowling-price", *argv)
        assert (code, err) == (1, "")
        report = harness.cp_check(d, 7.3, 7.3, float(theta), float(theta))
        masses = ", ".join(f"e^{m:.9g}" for m in report.log_tail_masses)
        assert len(set(report.log_tail_masses)) == 1
        assert f"tail masses [{masses}] pass=True" in out
        line = next(line for line in out.splitlines() if "over omega_{d-1}" in line)
        printed = [float(x) for x in line.split("[")[1].rstrip("]").split(", ")]
        assert printed == sorted(set(printed)) and len(printed) == 4
        assert printed == [pytest.approx(math.exp(x), rel=1e-6) for x in report.log_tail_integrals]

    def test_ratio_at_the_edge_of_ln_gamma(self, capsys):
        # ln Gamma(d/2) leaves the floats from d ~ 5.1e305 on; the ratio never forms it
        code, out, err = run(capsys, "sharpness", "--d", "1" + "0" * 306, "--p", "3",
                             "--c-list", "1,2")
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["c=1        product=e^2104.96365",
                                        "c=2        product=e^2100.80476"]

    @pytest.mark.parametrize("d, p", [("1" + "0" * 300, "2.5"), ("1" + "0" * 100, "1000000")],
                             ids=["d1e300-p2.5", "d1e100-p1e6"])
    def test_g_1_prints_the_gaussian_product(self, capsys, d, p):
        # g_1's equal-rate terms are one Gaussian: at c = 1 the sweep gives the gaussian
        # command's product, which sharpness would print; one c cannot collapse, so
        # sharpness refuses it, and c = 2 still meets the trapezoid rule's node budget
        gaussian = run(capsys, "gaussian", "--d", d, "--p", p)[1].strip()
        assert gaussian in ("e^1720.0534", "e^214605122")
        (log_product,) = cx.gc_infimum_sweep(int(d), float(p), [1.0])
        assert cli._side_text(log_product, ".17g") == gaussian
        code, out, err = run(capsys, "sharpness", "--d", d, "--p", p, "--c-list", "1")
        assert (code, out) == (2, "") and "at least two c values" in err
        code, out, err = run(capsys, "sharpness", "--d", d, "--p", p, "--c-list", "1,2")
        assert (code, out) == (2, "") and "peaks too narrowly" in err

    @pytest.mark.parametrize("d", ["3000", "100000", "1000000000", "1" + "0" * 15, "1" + "0" * 17])
    def test_weight_kept_at_large_d(self, capsys, d):
        # the ratio is a mean of r^p, not a difference of two norms' logs of size
        # (d/2) ln d, so the weight of V_p(g_c) survives and the products collapse
        code, out, err = run(capsys, "sharpness", "--d", d, "--p", "3", "--c-list", "1,2")
        assert (code, err) == (0, "")
        assert "decreasing=True collapsed=True" in out

    def test_chain_slack_beyond_the_floats_prints_as_a_power_of_e(self, capsys):
        code, out, err = run(capsys, "chain", "--d", "1", "--p", "1.00001")
        assert (code, err) == (0, "")
        report = harness.function_chain_check(
            gaussian_grid_function(default_spec(1)), 1, 1.00001)
        for link, line in zip(report.links, out.splitlines()[:-1], strict=True):
            slack = line.split("slack=")[1].split()[0]
            if link.name in ("per_function", "certified_product"):
                assert slack == f"e^{link.log_lhs - link.log_rhs:.9g}" and link.slack == math.inf
            else:
                assert slack == f"{link.slack:+.3e}"
        assert "inf" not in out

    @pytest.mark.parametrize("d, theta", [(1, 1.0), (3, 0.5), (456, 1.0), (1000, 300.0),
                                          (1000, 600.0)])
    def test_gaussian_log_gap(self, d, theta):
        # ||x|^theta g||_2^2 / ||g||_2^2 = Gamma(d/2 + theta) / Gamma(d/2) (2 pi)^-theta; at
        # theta = 1 that is d / (4 pi)
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        report = harness.cp_check(d, 2.0, 2.0, theta, theta)
        gaussian = next(fr for fr in report.functions if fr.name == "gaussian")
        half = mp.mpf(d) / 2
        exact = (mp.loggamma(half + theta) - mp.loggamma(half) - theta * mp.log(2 * mp.pi)
                 - mp.mpf(report.log_bound))
        assert gaussian.log_lhs - gaussian.log_rhs == pytest.approx(float(exact), rel=1e-12)
        assert gaussian.passed


class TestPastTheSphereAreaUnderflow:
    """omega_{d-1} is 0 in double precision from d = 456 on.  The radial norms carry it
    as a log, so these checks and products are measured: before, d = 456 passed every
    check on 0 >= 0 (slack=inf), and the others raised OverflowError or ZeroDivisionError."""

    @pytest.mark.parametrize("d", [456, 1000])
    def test_cowling_price(self, capsys, d):
        code, out, err = run(
            capsys,
            "cowling-price", "--d", str(d), "--p", "2", "--q", "2", "--theta", "1", "--phi", "1",
        )
        assert (code, err) == (0, "")
        assert out.count("pass=True") == 3 and "inf" not in out
        # the Gaussian's ||x g||_2^2 / ||g||_2^2 is d / (4 pi)
        slack = float(out.split("gaussian     slack=")[1].split()[0])
        exact = math.exp(math.log(d / (4.0 * math.pi)) - cp_params(d, 2, 2, 1, 1).log_bound) - 1
        assert slack == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("d, p", [(456, 3.0), (1000, 2.01)])
    def test_sharpness(self, capsys, d, p):
        code, out, err = run(capsys, "sharpness", "--d", str(d), "--p", str(p), "--c-list", "1,2")
        assert (code, err) == (0, "")
        assert "decreasing=True" in out
        # g_1 = 2 exp(-pi r^2) has the Gaussian's uncertainty product
        first = float(out.split("product=")[1].split()[0])
        assert math.log(first) == pytest.approx(gaussian_log_product(d, p), abs=1e-10)


class TestUnwritableOutput:
    def test_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "heisenberg", "--d-max", "5", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert str(target) in err


class TestParserContract:
    def test_unknown_command_exits_two(self, capsys):
        code, out, err = run(capsys, "no-such-command")
        assert (code, out) == (2, "")
        assert err.startswith("error: uplab: argument command: invalid choice: 'no-such-command'")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_missing_required_flag_exits_two(self, capsys):
        assert run(capsys, "sharpness", "--p", "5") == (
            2, "", "error: uplab sharpness: the following arguments are required: --d\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gaussian", "-h"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: uplab gaussian [-h] --d D [--p P]\n") and err == ""

    def test_console_exit_code_is_two(self):
        child = _child(["-m", "uplab", "lp"])
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == "error: uplab lp: the following arguments are required: --p\n"


class TestParserPerCommand:
    def test_readme_commands_build_their_own_subparser_only(self, capsys, tmp_path,
                                                            monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        for argv in commands:
            assert run(capsys, *argv)[0] == 0, argv
        # each command: the root parser and its own subparser, not the other six
        assert progs == [prog for argv in commands for prog in ("uplab", f"uplab {argv[0]}")]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser("lp") is not cli.build_parser("lp")

    def test_full_parser_knows_every_subcommand(self, capsys):
        assert set(cli._SUBCOMMANDS) == set(_COMMANDS)
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: uplab [-h]") and "{" + ",".join(cli._SUBCOMMANDS) + "}" in out

    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
    def test_subcommand_help_is_the_full_parsers(self, capsys, command):
        helps = []
        for parser in (cli.build_parser(), cli.build_parser(command)):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "-h"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and helps[0].startswith(f"usage: uplab {command} [-h]")

    def test_output_format_does_not_carry_over(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        sweep = ["heisenberg", "--d-max", "20"]
        assert run(capsys, *sweep, "--format", "json", "--out", str(a))[0] == 0
        assert run(capsys, *sweep, "--out", str(b))[0] == 0
        assert json.loads(a.read_text())["pass"] is True
        assert len(read_sweep_csv(b)) == 20

    def test_seed_does_not_carry_over(self, capsys):
        default = ["chain", "--d", "1", "--function", "bump"]
        first = run(capsys, *default)
        seeded = run(capsys, *default, "--seed", "5")
        assert seeded[0] == 0 and seeded[1] != first[1]
        assert run(capsys, *default) == first

    def test_usage_error_leaves_no_state(self, capsys):
        golden = (Path(__file__).resolve().parent / "golden" / "readme_stdout.txt").read_text()
        assert run(capsys, "gaussian", "--d", "x")[0] == 2
        code, out, err = run(capsys, "gaussian", "--d", "3", "--p", "2")
        assert (code, err) == (0, "") and f"$ uplab gaussian --d 3 --p 2\n{out}$" in golden


def bash_commands(markdown: str) -> list[list[str]]:
    """The arguments of each line that starts with `uplab ` inside a fenced bash block."""
    commands, in_bash = [], False
    for line in markdown.splitlines():
        if line.startswith("```"):
            in_bash = line == "```bash"
        elif in_bash and line.startswith("uplab "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return bash_commands(readme.read_text())


GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_transcript(workdir: Path) -> str:
    """Each README command as `$ uplab ...` and its stdout, run in workdir, where the
    heisenberg command writes sweep.csv; every command must exit 0 with an empty stderr."""
    transcript, cwd = [], os.getcwd()
    os.chdir(workdir)
    try:
        for argv in readme_commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, err.getvalue()) == (0, ""), argv
            transcript.append(f"$ uplab {shlex.join(argv)}\n{out.getvalue()}")
    finally:
        os.chdir(cwd)
    return "".join(transcript)


class TestReadmeCommands:
    """The README commands' stdout and the heisenberg CSV match tests/golden/.  A change
    that moves printed digits on purpose re-records both files:

        PYTHONPATH=src:tests python -c "import test_cli; test_cli.TestReadmeCommands.record()"

    A failure lists every moved line."""

    @staticmethod
    def record() -> None:
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / "readme_stdout.txt").write_text(readme_transcript(Path(workdir)))
            shutil.copyfile(Path(workdir) / "sweep.csv", GOLDEN / "sweep.csv")

    def test_only_lines_in_bash_blocks_are_commands(self):
        markdown = ("uplab needs numpy alone.\n\n```bash\nuplab gaussian --d 3  # reference\n"
                    "```\nuplab lp --p 2\n\n```\nuplab heisenberg\n```\n")
        assert bash_commands(markdown) == [["gaussian", "--d", "3"]]

    def test_every_readme_command_exits_zero(self, capsys, tmp_path, monkeypatch):
        commands = readme_commands()
        assert len(commands) == 7
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)

    def test_outputs_match_golden_files(self, tmp_path):
        # stdout of every README command and the heisenberg CSV, byte for byte
        expected = (GOLDEN / "readme_stdout.txt").read_text()
        actual = readme_transcript(tmp_path)
        moved = [f"line {number}: {old!r} -> {new!r}" for number, (old, new) in enumerate(
            itertools.zip_longest(expected.splitlines(), actual.splitlines()), 1) if old != new]
        assert not moved, f"{len(moved)} lines moved:\n" + "\n".join(moved)
        assert actual == expected
        assert (tmp_path / "sweep.csv").read_bytes() == (GOLDEN / "sweep.csv").read_bytes()


def _child(argv, **kwargs):
    """A fresh interpreter that imports uplab from the tree under test."""
    env = dict(os.environ)
    paths = [str(Path(uplab.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=300, **kwargs)


def test_python_dash_m_runs_the_cli():
    golden = (Path(__file__).resolve().parent / "golden" / "readme_stdout.txt").read_text()
    expected = golden.split("$ uplab gaussian --d 3 --p 2\n", 1)[1].split("$", 1)[0]
    child = _child(["-m", "uplab", "gaussian", "--d", "3", "--p", "2"])
    assert (child.returncode, child.stdout, child.stderr) == (0, expected, "")


def test_huge_p_is_one_line_without_warnings():
    # 2 pi p a overflowed: a divide-by-zero warning, then a NaN node count
    child = _child(["-W", "error", "-m", "uplab", "sharpness", "--d", "17", "--p", "1e308",
                    "--c-list", "1,2"])
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == ("error: the g_c uncertainty product at c=1 has no finite log: "
                            "ln product = -inf\n")


def test_warning_is_one_line():
    # g_2's wide term sits at e^{-19.6} on the default d = 3 grid's faces
    child = _child(["-m", "uplab", "chain", "--d", "3", "--function", "gc"])
    assert child.returncode == 0 and "pass=True" in child.stdout
    assert child.stderr == ("warning: boundary samples at 1.104e-09 of the peak; "
                            "transform accuracy degrades\n")


def test_no_scipy_import(tmp_path):
    # every README command, the three Cowling-Price classes and the radial quadrature, in
    # one fresh interpreter where any scipy import fails
    code = (
        "import contextlib, io, json, sys, warnings\n"
        "sys.modules['scipy'] = None\n"
        "from uplab import cli, harness, counterexamples as cx\n"
        "from uplab.radial import radial_integral\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    classes = [harness.cp_check(*t).classification for t in\n"
        "               [(1, 2.0, 2.0, 1.0, 1.0), (1, 4.0, 4.0, 0.1, 0.1), (1, 4.0, 4.0, 0.25, 0.25)]]\n"
        "log_masses = [cx.endpoint_tail_mass(1e-3, 2), cx.endpoint_weighted_mass(2, 4.0),\n"
        "              radial_integral(-2.0, 1, 0.0, 0.5)]\n"
        "print(json.dumps([codes, classes, log_masses]))\n"
    )
    child = _child(["-c", code, json.dumps(readme_commands())], cwd=tmp_path, check=True)
    codes, classes, log_masses = json.loads(child.stdout)
    assert codes == [0] * 7
    assert classes == ["feasible", "violated", "endpoint"]
    assert log_masses[:2] == [cx.endpoint_tail_mass(1e-3, 2), cx.endpoint_weighted_mass(2, 4.0)]
    # ln of omega_0 * int_0^{1/2} r^-1 ln^-2(1/r) dr = 2 / ln 2
    assert log_masses[2] == pytest.approx(math.log(2.0 / math.log(2.0)), abs=1e-13)


# Values from every edge of the floats for the float flags, integers out to 10^100 for the
# integer flags, every grid with n^d <= 2^21 (and sizes that are no grid) for --n
_EDGE_FLOATS = (0.0, -0.0, -1.0, 5e-324, 1e-310, 1e-13, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0,
                8.0, 1e6, 1e300, 1e308, -1e308, math.inf, -math.inf, math.nan)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-10.0, 10.0), st.floats())
_INTS = st.one_of(st.integers(-2, 1100), st.sampled_from((10**9, 10**17, 10**100)),
                  st.integers(-10**100, 10**100))


# each subcommand's required and optional flags, and the kind of value each takes
_COMMANDS = {
    "heisenberg": ({}, {"d-max": int}),
    "lp": ({"p": float}, {"d-max": int}),
    "sharpness": ({"d": int, "p": float}, {"c-list": "c_list"}),
    "rudin-shapiro": ({}, {"d": (1, 2), "k-max": int, "p": float, "theta": float}),
    "cowling-price": ({"d": int, "p": float, "q": float, "theta": float, "phi": float},
                      {"seed": int}),
    "gaussian": ({"d": int}, {"p": float}),
    "chain": ({"d": (1, 2, 3)}, {"p": float, "function": ("gaussian", "gc", "bump"),
                                 "c": float, "seed": int, "n": "grid_n", "L": float}),
}


@st.composite
def _cli_argv(draw):
    """A subcommand with every required flag and a random subset of the optional ones."""
    def value(kind, d=None):
        if kind == "grid_n":
            sizes = [n for n in (-16, 0, 15, 16, 17, 32, 64, 128, 256, 1024) if n**d <= 2**21]
            return draw(st.sampled_from(sizes))
        if kind == "c_list":
            return ",".join(map(repr, draw(st.lists(_FLOATS, min_size=1, max_size=3))))
        if isinstance(kind, tuple):
            return draw(st.sampled_from(kind))
        return draw(_FLOATS if kind is float else _INTS)

    command = draw(st.sampled_from(list(_COMMANDS)))
    required, optional = _COMMANDS[command]
    flags = dict(required)
    flags.update({name: kind for name, kind in optional.items() if draw(st.booleans())})
    values = {name: value(kind) for name, kind in flags.items() if kind != "grid_n"}
    if "n" in flags:
        values["n"] = value("grid_n", values["d"])
    if command == "cowling-price":
        # homogeneity holds for (q, phi) = (p, theta); theta = d(1/2 - 1/p) is the endpoint
        tuple_kind = draw(st.sampled_from(("any", "symmetric", "endpoint")))
        if tuple_kind == "endpoint":
            with contextlib.suppress(ArithmeticError):
                values["theta"] = values["d"] * (0.5 - 1.0 / values["p"])
        if tuple_kind != "any":
            values["q"], values["phi"] = values["p"], values["theta"]
    return [command, *(f"--{name}={val!r}" if isinstance(val, float) else f"--{name}={val}"
                       for name, val in values.items())]


@st.composite
def _refused_argv(draw):
    """An argv of _cli_argv broken one way that argparse refuses: a required flag
    dropped, a value that is no integer for an integer flag, an unknown flag or an
    unknown subcommand."""
    argv = draw(_cli_argv())
    required, optional = _COMMANDS[argv[0]]
    int_flags = [name for name, kind in {**required, **optional}.items()
                 if kind in (int, "grid_n") or kind in ((1, 2), (1, 2, 3))]
    how = draw(st.sampled_from(["int", "flag", "command"] + ["drop"] * bool(required)))
    if how == "drop":
        name = draw(st.sampled_from(sorted(required)))
        return [arg for arg in argv if not arg.startswith(f"--{name}=")]
    if how == "int":
        bad = draw(st.sampled_from(("1.5", "2.0", "1e3", "x", "", "0x10", "inf", "nan")))
        return [*argv, f"--{draw(st.sampled_from(int_flags))}={bad}"]
    if how == "flag":
        # no prefix of a known flag, which argparse would take for it
        flag = draw(st.sampled_from(("--no-such-flag", "--x=1", "--verbose", "-v", "extra")))
        at = draw(st.integers(1, len(argv)))
        return [*argv[:at], flag, *argv[at:]]
    command = draw(st.sampled_from(("no-such-command", "Gaussian", "cowling_price", "", "-")))
    return [command, *argv[1:]]


class TestCliFuzz:
    @given(st.one_of(_cli_argv(), _refused_argv()))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_one_subcommand_parser_parses_as_the_full_one(self, argv):
        def outcome(parser):  # repr, so that a nan value compares equal to itself
            try:
                return repr(parser.parse_args(argv))
            except ValueError as exc:
                return str(exc)

        if argv[0] in _COMMANDS:
            assert outcome(cli.build_parser(argv[0])) == outcome(cli.build_parser()), argv

    @given(st.integers(1, 10**100),
           st.floats(math.log10(2.0), 300.0, exclude_min=True).map(lambda x: 10.0**x))
    @settings(derandomize=True, deadline=None)
    def test_every_endpoint_tuple_gets_both_verdicts(self, d, p):
        # q = p and theta = phi = d (1/2 - 1/p), for d out to 10^100 and p log-uniform on
        # (2, 1e300]: the weighted mass is finite for every p > 2, and the tail masses over
        # omega_{d-1} grow by ln 2 each at any d
        assume(p > 2.0)
        theta = repr(d * (0.5 - 1.0 / p))
        argv = ["cowling-price", f"--d={d}", f"--p={p!r}", f"--q={p!r}", f"--theta={theta}",
                f"--phi={theta}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = out.getvalue().splitlines()
        assert (code, err.getvalue()) == (1, ""), argv
        assert lines[0] == "classification: endpoint", argv
        # the masses over omega_{d-1} (lines[2]) carry no verdict of their own
        assert len(lines) == 4 and lines[2].startswith("  tail masses over omega_{d-1} ["), argv
        assert [lines[1].rsplit(" ", 1)[1], lines[3].rsplit(" ", 1)[1]] == ["pass=True"] * 2, argv

    @given(st.one_of(_cli_argv(), _refused_argv()))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_every_argv_gets_a_verdict_or_one_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # the CLI prints each warning as one line
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        assert err.count("\n") <= 1 and (err == "" or err.endswith("\n")), (argv, err)
        assert (code == 2) == err.startswith("error: "), (argv, code, err)
        assert "nan" not in out, (argv, out)
