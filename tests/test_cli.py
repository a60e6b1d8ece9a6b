"""Tests for the command-line surface: exit codes, file outputs, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import uplab
from test_grid import read_grid_csv
from test_harness import read_sweep_csv
from uplab import counterexamples as cx
from uplab import harness
from uplab.cli import main
from uplab.params import cp_params
from uplab.radial import gaussian_uncertainty_product


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
        family = cx.rs_level(cx.rs_base(1), 1, 3)
        for i, member in enumerate(map(family.member, range(2)), start=1):
            exported = read_grid_csv(tmp_path / f"member_{i}_level_3.csv")
            assert exported.spec == member.spec
            assert exported.values.dtype == member.values.dtype
            assert np.array_equal(exported.values, member.values)

    def test_bad_level_is_usage_error(self, capsys):
        code, _, err = run(capsys, "rudin-shapiro", "--d", "2", "--k-max", "9")
        assert code == 2
        assert "k-max" in err


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
        # c^{d/2} = 1e500 overflows although c^2 is finite
        (["sharpness", "--d", "50", "--p", "3", "--c-list", "1,1e20"], "c=1e+20"),
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
        # the endpoint weighted mass (ln 2)^{-1999} / 1999 * 2 is beyond the float range
        (["cowling-price", "--d", "1", "--p", "4000", "--q", "4000",
          "--theta", "0.49975", "--phi", "0.49975"], "exceeds the float range"),
        # so narrow a peak that quadrature would warn; its tangent bound already overflows
        (["cowling-price", "--d", "1", "--p", "1e6", "--q", "1e6",
          "--theta", "0.499999", "--phi", "0.499999"], "exceeds the float range"),
        # omega_999 = e^{-2032}: every endpoint mass lies below the floats
        (["cowling-price", "--d", "1000", "--p", "4000", "--q", "4000",
          "--theta", "499.75", "--phi", "499.75"], "lies below the floats"),
        # the radial checks pass; the bump's |f|^p overflows in its grid sum, which
        # raises naming (p, w) rather than measure a NaN norm
        (["cowling-price", "--d", "3", "--p", "1e6", "--q", "1e6",
          "--theta", "1.6", "--phi", "1.6"], "p=1e+06, w=1.6"),
        # |x|^(p w) is inf beyond |x| = 1 and |f|^p is 0 there: their product is NaN
        (["rudin-shapiro", "--d", "1", "--p", "1e308", "--theta", "0.1"], "p=1e+308, w=0.1"),
        (["rudin-shapiro", "--d", "2", "--theta", "1e308"], "p=8, w=1e+308"),
        # m^p and n^p underflow, and so does their ratio: exp(-1.4e6)
        (["sharpness", "--d", "3", "--p", "1e6", "--c-list", "1,2"],
         "outside the normal float range"),
        # ln Gamma((p + 1)/2) and p ln(pi p) leave the floats; so does ln product, -2.8e308
        (["gaussian", "--d", "1", "--p", "1e308"], "ln product = -inf"),
        # the product exp(-2.8e100) underflows to 0
        (["gaussian", "--d", "1", "--p", "1e100"], "ln product = -2.83788e+100"),
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
        # stops at the sphere constants, whose ln Gamma(d/2) is beyond the floats
        code, out, err = run(capsys, "sharpness", "--d", "1" + "0" * 308, "--p", "3")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "2d/(d-1)" not in err and "ln Gamma(d/2)" in err


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

    def test_sides_outside_the_floats_print_as_powers_of_e(self, capsys):
        code, out, _ = run(capsys, "chain", "--d", "1", "--p", "1.000001")
        assert code == 0
        tail = next(line for line in out.splitlines() if "tail_hoelder" in line)
        assert "lhs=9.375000e-01 rhs=e^693146.9" in tail
        assert "inf" not in tail and "e^" not in tail.split("rhs=")[0]

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
        assert first == pytest.approx(gaussian_uncertainty_product(d, p), rel=1e-10)


class TestUnwritableOutput:
    def test_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "heisenberg", "--d-max", "5", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert str(target) in err


class TestParserContract:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sharpness", "--p", "5"])
        assert exc.value.code == 2


def readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [
        shlex.split(line, comments=True)[1:]
        for line in readme.read_text().splitlines()
        if line.startswith("uplab ")
    ]


class TestReadmeCommands:
    def test_every_readme_command_exits_zero(self, capsys, tmp_path, monkeypatch):
        commands = readme_commands()
        assert len(commands) == 7
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)

    def test_outputs_match_golden_files(self, capsys, tmp_path, monkeypatch):
        # stdout of every README command and the heisenberg CSV, byte for byte
        golden = Path(__file__).resolve().parent / "golden"
        monkeypatch.chdir(tmp_path)
        transcript = []
        for argv in readme_commands():
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            transcript.append(f"$ uplab {shlex.join(argv)}\n{out}")
        assert "".join(transcript) == (golden / "readme_stdout.txt").read_text()
        assert (tmp_path / "sweep.csv").read_bytes() == (golden / "sweep.csv").read_bytes()


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


def test_no_scipy_import(tmp_path):
    # every README command, the three Cowling-Price classes and the radial quadrature, in
    # one fresh interpreter where any scipy import fails
    code = (
        "import contextlib, io, json, math, sys, warnings\n"
        "sys.modules['scipy'] = None\n"
        "from uplab import cli, harness, counterexamples as cx\n"
        "from uplab.radial import RadialProfile, gaussian_profile, radial_integral\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    classes = [harness.cp_check(*t).classification for t in\n"
        "               [(1, 2.0, 2.0, 1.0, 1.0), (1, 4.0, 4.0, 0.1, 0.1), (1, 4.0, 4.0, 0.25, 0.25)]]\n"
        "masses = [cx.endpoint_tail_mass(1e-3, 2), cx.endpoint_weighted_mass(2, 4.0),\n"
        "          radial_integral(RadialProfile(power_log=(-0.5, 0.0)), 1, 0.0, 1.0)]\n"
        "try:\n"
        "    radial_integral(gaussian_profile(), 1, 0.0, math.inf)\n"
        "except ValueError as exc:\n"
        "    gaussian = str(exc)\n"
        "print(json.dumps([codes, classes, masses, gaussian]))\n"
    )
    child = _child(["-c", code, json.dumps(readme_commands())], cwd=tmp_path, check=True)
    codes, classes, masses, gaussian = json.loads(child.stdout)
    assert codes == [0] * 7
    assert classes == ["feasible", "violated", "endpoint"]
    assert masses[:2] == [cx.endpoint_tail_mass(1e-3, 2), cx.endpoint_weighted_mass(2, 4.0)]
    assert masses[2] == pytest.approx(4.0, rel=1e-13)  # omega_0 * int_0^1 r^-1/2 dr
    assert "radial_weighted_norm" in gaussian and "\n" not in gaussian
