"""Tests for the sweep/chain/trichotomy harness.

Determinism, flag logic, and the cross-sweep consistency of the Gaussian
column are checked here; the full-scale sweeps live in the acceptance suite.
"""

import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from uplab import harness
from uplab.grid import _radius, default_spec, gaussian_grid_function, random_bump
from uplab.params import cp_feasible
from uplab.specialfn import dimension_constants


def read_sweep_csv(path) -> list[dict]:
    """The rows of a write_sweep_csv file, one dict of strings each."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _fake_row(d, ok):
    return harness.SweepRow(
        d=d,
        p=2.0,
        method_log_bound=0.0,
        gaussian_log_product=0.0,
        claimed_floor_log=0.0,
        flags={"floor": ok},
    )


class TestSweeps:
    def test_heisenberg_row_fields(self):
        rows = harness.heisenberg_sweep(5)
        assert [r.d for r in rows] == [1, 2, 3, 4, 5]
        for row in rows:
            assert row.gaussian_log_product == pytest.approx(
                math.log(row.d**2 / (16.0 * math.pi**2)), rel=1e-12
            )
            assert row.claimed_floor_log == pytest.approx(
                math.log(row.d**2 * 1e-10), rel=1e-12
            )

    def test_stable_onset(self):
        rows = [_fake_row(d, ok) for d, ok in [(1, False), (2, True), (3, True)]]
        assert harness.stable_onset(rows) == 2
        rows = [_fake_row(d, True) for d in (1, 2, 3)]
        assert harness.stable_onset(rows) == 1
        rows = [_fake_row(d, ok) for d, ok in [(1, True), (2, False)]]
        assert harness.stable_onset(rows) is None

    def test_fit_log_slope_recovers_powers(self):
        ds = np.arange(1, 201)
        logs = 3.0 * np.log(ds) + 1.0
        assert harness.fit_log_slope(ds, logs) == pytest.approx(3.0, abs=1e-10)
        with pytest.raises(ValueError):
            harness.fit_log_slope([1, 2, 3], [0.0, 0.0, 0.0])

    def test_lp_gaussian_column_matches_heisenberg_at_p2(self):
        h_rows = harness.heisenberg_sweep(60)
        lp_rows = harness.lp_sweep(2.0, 60)
        for hr, lr in zip(h_rows, lp_rows):
            assert abs(hr.gaussian_log_product - lr.gaussian_log_product) <= 1e-12

    def test_lp_sweep_validation(self):
        with pytest.raises(ValueError):
            harness.lp_sweep(3.0, 100)
        with pytest.raises(ValueError):
            harness.heisenberg_sweep(0)
        with pytest.raises(ValueError):
            harness.heisenberg_sweep(1001)

    def test_sweep_csv_deterministic(self, tmp_path):
        rows = harness.heisenberg_sweep(20)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_sweep_csv(rows, p1)
        harness.write_sweep_csv(harness.heisenberg_sweep(20), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_csv_round_trip(self, tmp_path):
        rows = harness.heisenberg_sweep(10)
        path = tmp_path / "sweep.csv"
        harness.write_sweep_csv(rows, path)
        parsed = read_sweep_csv(path)
        assert len(parsed) == 10
        for row, rec in zip(rows, parsed):
            assert int(rec["d"]) == row.d
            assert float(rec["method_log_bound"]) == row.method_log_bound

    def test_summary_json(self, tmp_path):
        path = tmp_path / "summary.json"
        harness.write_summary_json({"d0": 1, "slope": 2.0, "pass": True}, path)
        loaded = json.loads(path.read_text())
        assert loaded == {"d0": 1, "slope": 2.0, "pass": True}


class TestFunctionChain:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_gaussian_chain_passes(self, d, p):
        f = gaussian_grid_function(default_spec(d))
        report = harness.function_chain_check(f, d, p)
        assert report.passed
        names = [link.name for link in report.links]
        assert names == [
            "half_mass",
            "tail_hoelder",
            "per_function",
            "primary_up",
            "certified_product",
        ]

    def test_bump_chain_passes(self):
        f = random_bump(default_spec(2), seed=4)
        report = harness.function_chain_check(f, 2, 1.5)
        assert report.passed

    def test_half_mass_is_tight(self):
        # the threshold radius is defined so the tail holds at least half the
        # ||f||_a^a mass with the certified normalization; for the Gaussian the
        # two half_mass sides sit within a factor ~2 of each other
        f = gaussian_grid_function(default_spec(1))
        report = harness.function_chain_check(f, 1, 2.0)
        half = next(l for l in report.links if l.name == "half_mass")
        assert half.log_lhs >= half.log_rhs
        assert half.log_lhs <= half.log_rhs + math.log(2.0)

    def test_dimension_mismatch(self):
        f = gaussian_grid_function(default_spec(1))
        with pytest.raises(ValueError):
            harness.function_chain_check(f, 2, 2.0)

    def test_unresolved_grid_rejected(self):
        # at spacing 781 only the origin sample of the Gaussian is nonzero, so V_p(f) = 0
        f = gaussian_grid_function(default_spec(1, half_width=1e5))
        with pytest.raises(ValueError, match="does not resolve f"):
            harness.function_chain_check(f, 1, 2.0)

    def test_zero_function_rejected(self):
        spec = default_spec(1)
        zero = gaussian_grid_function(spec)
        from uplab.grid import GridFunction

        zero = GridFunction(spec=spec, values=np.zeros_like(zero.values))
        with pytest.raises(ValueError):
            harness.function_chain_check(zero, 1, 2.0)


def _logs(*sides):
    """The rules take the logs of the sides: ln 0 = -inf, ln inf = inf, ln nan = nan."""
    with np.errstate(divide="ignore"):
        return [float(x) for x in np.log(sides)]


class TestCheckRules:
    @pytest.mark.parametrize("lhs, rhs", [
        (math.nan, 1.0), (1.0, math.nan), (1.0, 0.0), (0.0, 0.0), (1.0, math.inf),
    ])
    @pytest.mark.parametrize("rule", [harness._at_least, harness._at_most])
    def test_no_verdict_without_a_measurement(self, rule, lhs, rhs):
        # a NaN side, or a bound that every lhs meets or misses, is an error, not a verdict
        with pytest.raises(ValueError, match="check probe has no measured value"):
            rule("probe", *_logs(lhs, rhs))

    def test_measured_sides_give_a_verdict(self):
        assert harness._at_least("probe", *_logs(0.0, 1.0)).passed is False
        assert harness._at_most("probe", *_logs(0.0, 1.0)).passed is True
        assert harness._at_least("probe", *_logs(math.inf, 1.0)).passed is True

    def test_tolerance_and_slack(self):
        # lhs = rhs (1 -+ SLACK_TOL / 2) passes both rules, lhs = rhs (1 -+ 2 SLACK_TOL)
        # fails one; the slack is lhs / rhs - 1, inf where that leaves the floats
        tol = harness.SLACK_TOL
        for gap, rule in [(-0.5 * tol, harness._at_least), (0.5 * tol, harness._at_most)]:
            assert rule("probe", 3.0 + math.log1p(gap), 3.0).passed is True
        assert harness._at_least("probe", 3.0 + math.log1p(-2 * tol), 3.0).passed is False
        assert harness._at_most("probe", 3.0 + math.log1p(2 * tol), 3.0).passed is False
        assert harness._at_least("probe", 1e3 + math.log(1.5), 1e3).slack == pytest.approx(0.5)
        assert harness._at_least("probe", 2000.0, -2000.0).slack == math.inf


def _traced_peak(run, cold: bool = False) -> int:
    """tracemalloc peak of run() after a warm-up call; cold empties the radius cache
    after the warm-up, so that run() builds the radii it reads."""
    run()
    if cold:
        _radius.cache_clear()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_chain_on_d3_bump(self):
        # the 4 MiB transform plus block temporaries of 2^15 samples; 14.3 MiB
        # with grid-sized temporaries for |f|, |f|^p, the radius and the FFT
        f = random_bump(default_spec(3), seed=0)
        assert _traced_peak(lambda: harness.function_chain_check(f, 3, 2.0)) <= 7 * 2**20

    def test_feasible_check_at_d3(self):
        # the bump's 4 MiB samples and its 4 MiB transform plus block temporaries;
        # 16.0 MiB with grid-sized temporaries for |f|, |f|^p, the radius and the FFT
        assert _traced_peak(lambda: harness.cp_check(3, 2.0, 2.0, 1.0, 1.0)) <= 11 * 2**20

    def test_cold_chain_on_d3_bump(self):
        # 5.5 MiB warm, plus the 2 MiB radii of the 64^3 grid and its dual: 9.5 MiB
        f = random_bump(default_spec(3), seed=0)
        peak = _traced_peak(lambda: harness.function_chain_check(f, 3, 2.0), cold=True)
        assert peak <= 10 * 2**20

    def test_cold_feasible_check_at_d3(self):
        # 5.3 MiB warm, plus the 2 MiB radii of the 64^3 grid and its dual: 9.3 MiB
        peak = _traced_peak(lambda: harness.cp_check(3, 2.0, 2.0, 1.0, 1.0), cold=True)
        assert peak <= 10 * 2**20


class TestTrichotomy:
    def test_classification(self):
        assert harness.cp_classify(1, 2.0, 2.0, 1.0, 1.0) == "feasible"
        assert harness.cp_classify(2, 8.0, 8.0, 0.1, 0.1) == "violated"
        assert harness.cp_classify(2, 4.0, 4.0, 0.5, 0.5) == "endpoint"

    def test_homogeneity_error(self):
        with pytest.raises(ValueError):
            harness.cp_classify(1, 2.0, 2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            harness.cp_classify(1, 2.0, 2.0, -1.0, -1.0)

    @pytest.mark.parametrize("p, q, theta, phi", [
        (math.inf, math.inf, 1.0, 1.0),
        (2.0, 2.0, math.inf, math.inf),
        (math.nan, 2.0, 1.0, 1.0),
        (2.0, 2.0, math.nan, math.nan),
    ])
    def test_rejects_nonfinite_parameters(self, p, q, theta, phi):
        with pytest.raises(ValueError, match="< inf"):
            harness.cp_classify(1, p, q, theta, phi)
        assert not cp_feasible(1, p, q, theta, phi)

    def test_feasible_report(self):
        report = harness.cp_check(1, 2.0, 2.0, 1.0, 1.0)
        assert report.classification == "feasible"
        assert {fr.name for fr in report.functions} == {
            "gaussian",
            "g_2",
            "g_4",
            "random_bump",
        }
        assert all(fr.slack >= -1e-6 for fr in report.functions)
        assert report.passed

    def test_violated_report(self):
        report = harness.cp_check(2, 8.0, 8.0, 0.1, 0.1)
        assert report.classification == "violated"
        assert report.predicted_slope == pytest.approx(0.65, rel=1e-12)
        assert report.measured_slope == pytest.approx(0.65, rel=0.10)
        assert report.passed

    def test_violated_high_dimension_skips_measurement(self):
        report = harness.cp_check(3, 4.0, 4.0, 0.5, 0.5)
        assert report.classification == "violated"
        assert report.measured_slope is None
        assert report.predicted_slope > 0

    def test_endpoint_report(self):
        report = harness.cp_check(2, 4.0, 4.0, 0.5, 0.5)
        assert report.classification == "endpoint"
        masses = report.tail_masses
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert math.isfinite(report.weighted_mass)
        assert report.passed

    def test_seed_controls_bump(self):
        r1 = harness.cp_check(1, 2.0, 2.0, 1.0, 1.0, seed=1)
        r2 = harness.cp_check(1, 2.0, 2.0, 1.0, 1.0, seed=1)
        r3 = harness.cp_check(1, 2.0, 2.0, 1.0, 1.0, seed=2)
        bump1 = next(fr for fr in r1.functions if fr.name == "random_bump")
        bump2 = next(fr for fr in r2.functions if fr.name == "random_bump")
        bump3 = next(fr for fr in r3.functions if fr.name == "random_bump")
        assert bump1.log_lhs == bump2.log_lhs
        assert bump1.log_lhs != bump3.log_lhs

    def test_violated_verdict_rests_on_measurement(self):
        # the prediction alone is positive for every violated tuple; a
        # measurement far from it must fail the verdict
        report = harness.CPReport(
            d=2, p=8.0, q=8.0, theta=0.1, phi=0.1,
            classification="violated",
            predicted_slope=0.65,
            measured_slope=0.2,
        )
        assert not report.passed
        assert dataclasses.replace(report, measured_slope=0.62).passed

    def test_endpoint_verdict_rests_on_measurement(self):
        # tail masses at successive squares of delta must grow by equal steps
        # (omega ln 2 each) and the weighted mass must be finite and positive
        step = dimension_constants(2).sphere_area * math.log(2.0)
        report = harness.CPReport(
            d=2, p=4.0, q=4.0, theta=0.5, phi=0.5,
            classification="endpoint",
            tail_masses=tuple(step * (2.0 + k) for k in range(4)),
            weighted_mass=9.0,
        )
        assert report.passed is True  # a plain bool, as --out writes it to JSON
        # what omega_{d-1} = 0 measures from d = 449 on
        assert dataclasses.replace(report, tail_masses=(0.0,) * 4).passed is False
        # converging masses: the steps halve
        assert dataclasses.replace(report, tail_masses=(1.0, 2.0, 2.5, 2.75)).passed is False
        assert dataclasses.replace(report, tail_masses=()).passed is False
        for weighted in (None, 0.0, math.inf, math.nan):
            assert dataclasses.replace(report, weighted_mass=weighted).passed is False
