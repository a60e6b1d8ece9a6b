"""Tests for the sweep/chain/trichotomy harness.

Determinism, flag logic, and the cross-sweep consistency of the Gaussian
column are checked here; the full-scale sweeps live in the acceptance suite.
"""

import csv
import dataclasses
import importlib
import inspect
import json
import math
import re
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import uplab
from test_acceptance import _golden_table
from uplab import counterexamples as cx
from uplab import grid, harness
from uplab.grid import (
    GridFunction,
    GridSpec,
    _radius_levels,
    default_spec,
    gaussian_grid_function,
    gaussian_mixture_grid_function,
    random_bump,
)
from uplab.params import cp_feasible, l2_params, lp_params
from uplab.radial import gaussian_log_product
from uplab.specialfn import dimension_constants


def read_sweep_csv(path) -> list[dict]:
    """The rows of a write_sweep_csv file, one dict of strings each."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SWEEP_BITS = Path(__file__).resolve().parent / "golden" / "sweep_bits.txt"
# about 60 log-spaced d up to 10^6, and the _BALL_VOLUMES (400) and _STIRLING_MIN (512) edges
BITS_DS = sorted({round(10 ** (k / 10)) for k in range(61)} | {399, 400, 401, 511, 512, 513})


def _sweep_bits_text() -> str:
    """The repr of every column of the heisenberg sweep and of the lp sweeps at p = 1.2,
    1.5, 2 over BITS_DS, then of dimension_constants at each d, one line each."""
    sweeps = [("heisenberg", harness._heisenberg_sweep(BITS_DS))]
    sweeps += [(f"lp p={p!r}", harness._lp_sweep(p, BITS_DS)) for p in (1.2, 1.5, 2.0)]
    lines = []
    for name, sweep in sweeps:
        for column in ("d", "method_log_bound", "gaussian_log_product", "claimed_floor_log"):
            lines.append(f"{name} {column} {getattr(sweep, column)!r}")
        lines += [f"{name} {flag} {column!r}" for flag, column in sorted(sweep.flags.items())]
    lines += [repr(dimension_constants(d)) for d in BITS_DS]
    return "\n".join(lines) + "\n"


def _fake_sweep(oks):
    ds = tuple(range(1, len(oks) + 1))
    zeros = (0.0,) * len(ds)
    return harness.Sweep(p=2.0, d=ds, method_log_bound=zeros, gaussian_log_product=zeros,
                         claimed_floor_log=zeros, flags={"floor": tuple(oks)})


class TestSweeps:
    def test_heisenberg_row_fields(self):
        sweep = harness.heisenberg_sweep(5)
        assert sweep.d == (1, 2, 3, 4, 5)
        for d, gauss, floor in zip(sweep.d, sweep.gaussian_log_product, sweep.claimed_floor_log):
            assert gauss == pytest.approx(math.log(d**2 / (16.0 * math.pi**2)), rel=1e-12)
            assert floor == pytest.approx(math.log(d**2 * 1e-10), rel=1e-12)

    def test_stable_onset(self):
        assert harness.stable_onset(_fake_sweep([False, True, True])) == 2
        assert harness.stable_onset(_fake_sweep([True, True, True])) == 1
        assert harness.stable_onset(_fake_sweep([True, False])) is None
        # an untested flag (None) holds; the onset is read from the d column
        sweep = dataclasses.replace(_fake_sweep([False, None, True]), d=(5, 50, 51))
        assert sweep.satisfied == (False, True, True)
        assert harness.stable_onset(sweep) == 50

    def test_fit_log_slope_recovers_powers(self):
        ds = np.arange(1, 201)
        logs = 3.0 * np.log(ds) + 1.0
        assert harness.fit_log_slope(ds, logs) == pytest.approx(3.0, abs=1e-10)
        # fewer than two dimensions in the fit window d >= 50: no slope
        assert harness.fit_log_slope([1, 2, 3], [0.0, 0.0, 0.0]) is None
        assert harness.fit_log_slope([10, 50], [0.0, 1.0]) is None

    def test_lp_gaussian_column_matches_heisenberg_at_p2(self):
        h_gauss = harness.heisenberg_sweep(60).gaussian_log_product
        lp_gauss = harness.lp_sweep(2.0, 60).gaussian_log_product
        assert len(h_gauss) == len(lp_gauss) == 60
        for h, lp in zip(h_gauss, lp_gauss):
            assert abs(h - lp) <= 1e-12

    def test_lp_sweep_validation(self):
        with pytest.raises(ValueError):
            harness.lp_sweep(3.0, 100)
        with pytest.raises(ValueError):
            harness.heisenberg_sweep(0)
        with pytest.raises(ValueError):
            harness.heisenberg_sweep(1001)

    @pytest.mark.parametrize("d_max", [10.5, 5.0, "5", True, False, None, [5]])
    def test_non_integer_d_max_is_one_line(self, d_max):
        for sweep in (harness.heisenberg_sweep, lambda d_max: harness.lp_sweep(1.5, d_max)):
            with pytest.raises(ValueError, match=r"^d_max must be an integer 1\.\.1000, got "):
                sweep(d_max)

    def test_sweep_csv_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_sweep_csv(harness.heisenberg_sweep(20), p1)
        harness.write_sweep_csv(harness.heisenberg_sweep(20), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("sweep, args", [
        (harness.heisenberg_sweep, (1,)),
        (harness.heisenberg_sweep, (60,)),
        (harness.heisenberg_sweep, (1000,)),
        # d-max 30: floor -inf and no floor flag; 500: empty floor cells up to d = 50
        *[(harness.lp_sweep, (p, n)) for p in (1.2, 1.5, 2.0) for n in (30, 500)],
    ])
    def test_sweep_csv_same_bytes_as_csv_writer(self, tmp_path, sweep, args):
        # the %-format line against csv.writer and f-strings, one row a d
        sweep = sweep(*args)
        flag_names = sorted(sweep.flags)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d", "p", "method_log_bound", "gaussian_log_product",
                             "claimed_floor_log"] + flag_names)
            for i, d in enumerate(sweep.d):
                flags = [sweep.flags[name][i] for name in flag_names]
                writer.writerow(
                    [d, f"{sweep.p:.17g}", f"{sweep.method_log_bound[i]:.17g}",
                     f"{sweep.gaussian_log_product[i]:.17g}",
                     f"{sweep.claimed_floor_log[i]:.17g}"]
                    + ["" if flag is None else str(flag) for flag in flags]
                )
        harness.write_sweep_csv(sweep, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_sweep_csv_round_trip(self, tmp_path):
        sweep = harness.heisenberg_sweep(10)
        path = tmp_path / "sweep.csv"
        harness.write_sweep_csv(sweep, path)
        parsed = read_sweep_csv(path)
        assert len(parsed) == 10
        for d, log_bound, rec in zip(sweep.d, sweep.method_log_bound, parsed):
            assert int(rec["d"]) == d
            assert float(rec["method_log_bound"]) == log_bound

    @pytest.mark.parametrize("p", [None, 1.2, 1.5, 2.0])
    def test_sweep_over_listed_dimensions(self, p):
        # a sweep over a list of d has, at each of them, the bits of the full sweep
        ds = [1, 2, 5, 50, 51, 100, 500]
        if p is None:
            full, part = harness.heisenberg_sweep(500), harness._heisenberg_sweep(ds)
        else:
            full, part = harness.lp_sweep(p, 500), harness._lp_sweep(p, ds)
        at = [d - 1 for d in ds]
        assert part.d == tuple(ds) and part.p == full.p
        for name in ("method_log_bound", "gaussian_log_product", "claimed_floor_log"):
            assert getattr(part, name) == tuple(getattr(full, name)[i] for i in at), name
        assert part.flags == {name: tuple(column[i] for i in at)
                              for name, column in full.flags.items()}
        # the onset and the slopes read the d column
        assert harness.stable_onset(part) == 1
        assert harness.fit_log_slope(part.d, part.method_log_bound) == harness.fit_log_slope(
            ds, [full.method_log_bound[i] for i in at])

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_columns_have_the_bundles_bits(self, p):
        # each quantity in one place: every column is the bundle's, the flags the rules
        # recomputed from the bundles, d = 1..1000
        ds = range(1, 1001)
        h, lp = harness.heisenberg_sweep(1000), harness.lp_sweep(p, 1000)
        l2, lpb = [l2_params(d) for d in ds], [lp_params(d, p) for d in ds]
        assert h.d == lp.d == tuple(ds)
        assert h.method_log_bound == tuple(b.log_bound for b in l2)
        assert lp.method_log_bound == tuple(b.log_bound for b in lpb)
        assert h.gaussian_log_product == tuple(gaussian_log_product(d, 2.0) for d in ds)
        assert lp.gaussian_log_product == tuple(gaussian_log_product(d, p) for d in ds)
        h_floor = tuple(2.0 * math.log(d) - 10.0 * math.log(10.0) for d in ds)
        assert h.claimed_floor_log == h_floor
        assert h.flags == {
            "floor": tuple(b.log_bound >= f for b, f in zip(l2, h_floor)),
            "below_sharp": tuple(b.log_bound <= g for b, g in zip(l2, h.gaussian_log_product)),
            "quotient": tuple((2.0 / (d + 1)) * (b.log_c_d - b.log_sphere_area)
                              >= math.log(d) - 5.0 * math.log(10.0) for d, b in zip(ds, l2)),
        }
        c1_log = lp_params(50, p).log_bound - p * math.log(50.0)
        lp_floor = tuple(c1_log + p * math.log(d) for d in ds)
        assert lp.claimed_floor_log == lp_floor
        assert lp.flags == {
            "below_sharp": tuple(b.log_bound <= g for b, g in zip(lpb, lp.gaussian_log_product)),
            "floor": tuple(b.log_bound >= f - harness.SLACK_TOL if d > 50 else None
                           for d, b, f in zip(ds, lpb, lp_floor)),
        }

    def test_columns_match_golden_bits(self):
        # the repr of every column at log-spaced d up to 10^6 and at the edges of the linear
        # ball volumes (d <= 400) and of Stirling's series (d / 2 >= 256), and of the
        # sphere/ball constants there, byte for byte as tests/golden/sweep_bits.txt holds them
        assert _sweep_bits_text() == SWEEP_BITS.read_text()

    @pytest.mark.parametrize("sweep", [harness._heisenberg_sweep,
                                       lambda ds: harness._lp_sweep(1.5, ds)])
    @pytest.mark.parametrize("ds, bad", [([1, 2.5], "2.5"), ([1, 2.0], "2.0"),
                                         ([True, 2], "True"), ([1, np.float64(3.0)], "3.0")])
    def test_refuses_non_integer_dimensions(self, sweep, ds, bad):
        with pytest.raises(ValueError, match=rf"^dimensions must be integers, got .*{bad}"):
            sweep(ds)

    @pytest.mark.parametrize("p", [None, 1.5])
    def test_takes_numpy_integers_as_ints(self, p):
        ds = [1, 2, 50, 60]
        sweep = (harness._heisenberg_sweep if p is None else
                 lambda ds: harness._lp_sweep(p, ds))
        as_numpy, as_ints = sweep(list(np.array(ds, dtype=np.int64))), sweep(ds)
        assert as_numpy == as_ints and all(type(d) is int for d in as_numpy.d)
        assert repr(as_numpy) == repr(as_ints)

    @pytest.mark.parametrize("sweep", [harness._heisenberg_sweep,
                                       lambda ds: harness._lp_sweep(1.5, ds)])
    def test_dimension_beyond_ln_gamma(self, sweep):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"^ln Gamma\(d/2\) at d=1e\+306 exceeds the float range$"):
                sweep([1, 10**306])

    def test_summary_json(self, tmp_path):
        path = tmp_path / "summary.json"
        harness.write_summary_json({"d0": 1, "slope": 2.0, "pass": True}, path)
        loaded = json.loads(path.read_text())
        assert loaded == {"d0": 1, "slope": 2.0, "pass": True}


class TestSharpness:
    def test_summary_reads_its_checks(self):
        summary = harness.sharpness_summary(2, 5.0, [1.0, 2.0, 4.0])
        logs = summary["log_products"]
        assert [(c.name, c.log_lhs, c.log_rhs, c.relation, c.tol) for c in summary["checks"]] == [
            ("decreasing_c=2", logs[1], logs[0], "<", 0.0),
            ("decreasing_c=4", logs[2], logs[1], "<", 0.0),
            ("collapsed", logs[2], logs[0], "<", -math.log(10.0))]
        assert summary["decreasing"] and summary["collapsed"] and summary["pass"]

    @pytest.mark.parametrize("c_values, message", [
        ([2.0], "at least two c values"), ([], "at least two c values"),
        ([1.0, 1.0], "strictly increasing"), ([1.0, 4.0, 4.0], "strictly increasing")])
    def test_schedule_that_fails_by_definition_is_refused(self, c_values, message):
        # one c cannot collapse and a repeated c cannot decrease
        with pytest.raises(ValueError, match=message):
            harness.sharpness_summary(2, 5.0, c_values)


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_factored_chain_agrees_with_fftn_chain(self, d, p):
        # the norms of f^ from the 1-D factors against fourier_transform on the same
        # samples with the factors dropped; the moved logs moved by at most 4.4e-16
        spec = default_spec(d)
        functions = [gaussian_grid_function(spec),
                     gaussian_mixture_grid_function(spec, cx.gc_profile(2.0, d).terms)]
        functions += [random_bump(spec, seed) for seed in (0, 1, 7)]
        for f in functions:
            assert f._terms is not None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # g_2's faces at d = 3: 1.1e-9 of its peak
                factored = harness.function_chain_check(f, d, p)
                bare = harness.function_chain_check(GridFunction(spec, f.values), d, p)
            assert factored.log_threshold == bare.log_threshold
            for link, reference in zip(factored.links, bare.links, strict=True):
                assert (link.name, link.passed) == (reference.name, reference.passed)
                assert abs(link.log_lhs - reference.log_lhs) <= 1e-13
                assert abs(link.log_rhs - reference.log_rhs) <= 1e-13

    def test_zero_function_rejected(self):
        spec = default_spec(1)
        zero = gaussian_grid_function(spec)
        from uplab.grid import GridFunction

        zero = GridFunction(spec=spec, values=np.zeros_like(zero.values))
        with pytest.raises(ValueError):
            harness.function_chain_check(zero, 1, 2.0)


class TestChainTail:
    """The chain reads the tail |x| > T as the a-mass less the ball |x| <= T."""

    @staticmethod
    def dense_log_tail(f, d, p, log_t):
        """Reference: ln of math.fsum of |f_k|^a over the dense |x_k| > T, times the cell."""
        a = (l2_params(d) if p == 2.0 else lp_params(d, p)).a
        mesh = np.meshgrid(*[f.spec.axis_coordinates()] * d, indexing="ij")
        radius = np.sqrt(sum(m * m for m in mesh))
        tail = math.fsum((np.abs(f.values[radius > math.exp(log_t)]) ** a).tolist())
        return math.log(tail) + d * math.log(f.spec.spacing)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_tail_matches_dense_direct_tail(self, d, p):
        # the Gaussian, g_2 and a bump: the two sides of the subtraction moved the logs
        # by at most 7.2e-16 against the direct tail sum of the golden reports
        spec = default_spec(d)
        for f in (gaussian_grid_function(spec),
                  gaussian_mixture_grid_function(spec, cx.gc_profile(2.0, d).terms),
                  random_bump(spec, seed=d)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # g_2's faces at d = 3: 1.1e-9 of its peak
                report = harness.function_chain_check(f, d, p)
            expected = self.dense_log_tail(f, d, p, report.log_threshold)
            for link in report.links[:2]:
                assert abs(link.log_lhs - expected) <= 1e-13, link.name

    @pytest.mark.parametrize("d, half_width, failed", [
        (1, 100.0, ["half_mass"]),
        (3, 40.0, ["half_mass", "per_function", "certified_product"]),
    ])
    def test_coarse_chains_keep_their_verdicts(self, d, half_width, failed):
        # `uplab chain --d 1 --L 100` and `--d 3 --L 40`: the grid is too coarse for the
        # Gaussian, and the same links fail as with the direct tail sum
        f = gaussian_grid_function(default_spec(d, half_width=half_width))
        report = harness.function_chain_check(f, d, 2.0)
        assert [link.name for link in report.links if not link.passed] == failed
        expected = self.dense_log_tail(f, d, 2.0, report.log_threshold)
        assert abs(report.links[0].log_lhs - expected) <= 1e-13

    def test_ball_holding_every_sample_is_an_empty_tail(self, monkeypatch):
        # a ball share of the a-mass that rounds to 1 or above leaves an empty tail: -inf,
        # not log1p's math domain error
        whole = harness._ball_sum
        monkeypatch.setattr(harness, "_ball_sum", lambda spec, samples, p, radius: (
            whole(spec, samples, p, math.inf) * (1.0 + 1e-15)))
        report = harness.function_chain_check(gaussian_grid_function(default_spec(2)), 2, 2.0)
        half, hoelder = report.links[:2]
        assert half.log_lhs == hoelder.log_lhs == -math.inf
        assert (half.passed, hoelder.passed) == (False, True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_share_rounded_to_one_is_an_empty_tail(self, d):
        # a spike whose neighbours sit at 1e-100: the tail's a-mass is below the rounding
        # of the a-mass, so the share rounds to 1 and the tail reads -inf
        spec = GridSpec(d, 16, 1.0)
        f = gaussian_grid_function(spec, rate=230.0 / (math.pi * spec.spacing**2))
        half, hoelder = harness.function_chain_check(f, d, 2.0).links[:2]
        assert half.log_lhs == hoelder.log_lhs == -math.inf
        assert (half.passed, hoelder.passed) == (False, True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_threshold_stays_inside_the_grid(self, d):
        # by Hoelder ||f||_a <= ||f||_p (2L)^{d (1/a - 1/p)}, and (1/a - 1/p)(d + eps) = 1,
        # so T <= 2 c_d L; a flat box, the extreme case, keeps T below sqrt(d) L / 2
        spec = GridSpec(d, 16, 1.0)
        flat = np.zeros((16,) * d)
        flat[(slice(1, -1),) * d] = 1.0
        top = 2.0 * d / (d - 1) - 1e-6 if d > 1 else 50.0
        for p in (1.01, 1.5, 2.0, top):
            report = harness.function_chain_check(GridFunction(spec, flat), d, p)
            assert math.exp(report.log_threshold) < 0.5 * math.sqrt(d) * spec.half_width


def _logs(*sides):
    """The rules take the logs of the sides: ln 0 = -inf, ln inf = inf, ln nan = nan."""
    with np.errstate(divide="ignore"):
        return [float(x) for x in np.log(sides)]


def _endpoint_verdict(log_tail_integrals, log_weighted_mass):
    """Whether every endpoint check passes, or None for the one-line error of a check
    with no measured value."""
    try:
        checks = harness._endpoint_checks(log_tail_integrals, log_weighted_mass)
    except ValueError as exc:
        assert re.fullmatch(r"check \w+ has no measured value: [^\n]*", str(exc)), exc
        return None
    return all(check.passed for check in checks)


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

    def test_verdict_is_derived_from_the_record(self):
        # passed is relation(log_lhs, log_rhs + tol); no caller sets it, and a copy
        # with other sides judges them afresh
        check = harness._at_least("probe", 1.0, 2.0)
        assert dataclasses.asdict(check) == {
            "name": "probe", "log_lhs": 1.0, "log_rhs": 2.0, "relation": ">=",
            "tol": math.log1p(-harness.SLACK_TOL), "passed": False}
        assert harness._at_most("probe", 1.0, 2.0).tol == math.log1p(harness.SLACK_TOL)
        with pytest.raises(TypeError):
            harness.Check("probe", 1.0, 2.0, ">=", 0.0, passed=True)
        assert dataclasses.replace(check, log_lhs=3.0).passed is True
        with pytest.raises(ValueError):
            dataclasses.replace(check, passed=True)
        assert [harness.Check("probe", 1.0, 1.0, relation).passed
                for relation in ("<", "<=", ">=", ">")] == [False, True, True, False]

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(predicted=st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6),
           offset=st.floats(-0.3, 0.3) | st.sampled_from([-0.1, 0.1]),
           measured=st.none() | st.floats(-1e6, 1e6))
    def test_slope_rule_in_logs_is_the_linear_rule(self, predicted, offset, measured):
        # ln|measured - predicted| <= ln(SLOPE_RTOL |predicted|) decides as
        # |measured - predicted| <= SLOPE_RTOL |predicted| did, away from a few ulps of
        # the boundary, where two logs may round alike
        if measured is None:
            measured = predicted + offset * predicted
        gap, bound = abs(measured - predicted), harness.SLOPE_RTOL * abs(predicted)
        assume(abs(gap - bound) > 16 * math.ulp(bound) * max(1.0, abs(math.log(bound))))
        assert harness._slope_check(measured, predicted).passed is (gap <= bound)


def _traced_peak(run, cold: bool = False) -> int:
    """tracemalloc peak of run() after a warm-up call; cold empties the radius cache
    after the warm-up, so that run() builds the radius indexes it reads."""
    run()
    if cold:
        _radius_levels.cache_clear()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_chain_on_d3_bump(self):
        # f^ read block by block from the bump's factors: 2.8 MiB of block temporaries
        # of 2^15 samples; 5.5 MiB with the 4 MiB transform, 14.3 MiB with grid-sized
        # temporaries for |f|, |f|^p, the radius and the FFT
        f = random_bump(default_spec(3), seed=0)
        assert _traced_peak(lambda: harness.function_chain_check(f, 3, 2.0)) <= 7 * 2**20

    def test_chain_on_d3_bump_built_inside(self):
        # the bump's 4 MiB samples and then f^'s blocks: 6.8 MiB; 9.5 MiB when the
        # chain transformed the samples into a second 4 MiB grid
        spec = default_spec(3)
        peak = _traced_peak(lambda: harness.function_chain_check(random_bump(spec, 0), 3, 2.0))
        assert peak <= 7.5 * 2**20

    def test_feasible_check_at_d3(self):
        # one 4 MiB grid at a time, the bump's samples and then its transform, plus block
        # temporaries: 5.25 MiB; two live grids would break the bound.  16.0 MiB with
        # grid-sized temporaries for |f|, |f|^p, the radius and the FFT
        assert _traced_peak(lambda: harness.cp_check(3, 2.0, 2.0, 1.0, 1.0)) <= 5.5 * 2**20

    def test_cold_chain_on_d3_bump(self):
        # 2.8 MiB warm, plus the 0.5 MiB radius indexes of the 64^3 grid and its dual
        # and their builds' temporaries: 3.9 MiB (6.8 MiB with 2 MiB float64 radii)
        f = random_bump(default_spec(3), seed=0)
        peak = _traced_peak(lambda: harness.function_chain_check(f, 3, 2.0), cold=True)
        assert peak <= 10 * 2**20

    def test_cold_feasible_check_at_d3(self):
        # 5.3 MiB warm, plus the 0.5 MiB radius index of the 64^3 grid: 5.8 MiB (7.3 MiB
        # with a 2 MiB float64 radius); the dual's index is built while the samples are freed
        peak = _traced_peak(lambda: harness.cp_check(3, 2.0, 2.0, 1.0, 1.0), cold=True)
        assert peak <= 10 * 2**20


# the feasible golden tuples at d = 3, whose random bump is checked on the 8-block 64^3 grid
D3_FEASIBLE = [row[:5] for row in _golden_table() if row[0] == 3 and row[5] == "feasible"]
MODULES = ("specialfn", "params", "radial", "grid", "counterexamples", "harness", "cli")


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the checks see n usable CPUs."""
    return lambda n: monkeypatch.setattr(grid, "_usable_cpus", lambda: n)


@pytest.fixture
def starts(monkeypatch):
    """The threads started while the test runs."""
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def d3_chain_functions():
    """The d = 3 functions whose chains run their two sides at once: the Gaussian, g_2
    as the CLI builds it, and the bumps of seeds 1 and 7."""
    spec = default_spec(3)
    return {"gaussian": gaussian_grid_function(spec),
            "g_2": gaussian_mixture_grid_function(spec, cx.gc_profile(2.0, 3).terms),
            "bump 1": random_bump(spec, 1), "bump 7": random_bump(spec, 7)}


def chain_reprs(functions, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # g_2's faces at d = 3: 1.1e-9 of its peak
        return {name: repr(harness.function_chain_check(f, 3, p)) for name, f in functions.items()}


class TestTwoSidesAtOnce:
    """On a grid of several blocks with two usable CPUs, the norms of f^ run on a thread
    while the calling thread runs the x side; one CPU, one-block grids and bare samples
    run the two sides one after the other.  Every report keeps its bits either way."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_feasible_checks_keep_their_bits(self, cpus, starts, seed):
        assert len(D3_FEASIBLE) == 5
        cpus(1)
        serial = [repr(harness.cp_check(*row, seed=seed)) for row in D3_FEASIBLE]
        assert starts == []
        cpus(2)
        concurrent = [repr(harness.cp_check(*row, seed=seed)) for row in D3_FEASIBLE]
        assert len(starts) == len(D3_FEASIBLE)
        assert concurrent == serial

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_chains_keep_their_bits(self, cpus, starts, p):
        functions = d3_chain_functions()
        cpus(1)
        serial = chain_reprs(functions, p)
        assert starts == []
        cpus(2)
        assert chain_reprs(functions, p) == serial
        assert len(starts) == len(functions)

    def test_one_block_grids_and_bare_samples_start_no_thread(self, cpus, starts):
        cpus(2)
        for d in (1, 2):
            harness.cp_check(d, 2.0, 2.0, 1.0, 1.0, seed=1)
            harness.function_chain_check(random_bump(default_spec(d), 1), d, 2.0)
        bump = random_bump(default_spec(3), 1)
        harness.function_chain_check(GridFunction(bump.spec, bump.values), 3, 2.0)
        assert starts == []

    def test_boundary_warnings_on_the_calling_thread(self, cpus, starts, monkeypatch):
        cpus(2)
        threads, warn = [], warnings.warn

        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            warn(*args, **kwargs)

        monkeypatch.setattr(warnings, "warn", recorded)
        with pytest.warns(UserWarning, match="boundary samples at 1.1"):
            harness.function_chain_check(d3_chain_functions()["g_2"], 3, 2.0)
        # the feasible check's guard, read from the streamed |f|: every ratio warns, with
        # the text of the guard on the bump's samples
        monkeypatch.setattr(grid, "BOUNDARY_WARN", 0.0)
        spec = default_spec(3)
        ratio = grid._boundary_ratio(spec, random_bump(spec, 1).values)
        with pytest.warns(UserWarning, match=re.escape(f"boundary samples at {ratio:.3e} of")):
            harness.cp_check(3, 2.0, 2.0, 1.0, 1.0, seed=1)
        assert threads == [threading.current_thread()] * 2
        assert len(starts) == 2

    def test_errors_surface_in_the_serial_order(self, cpus, starts):
        # samples carrying factors whose transform leaves the floats: the norms of f^ raise,
        # but the x side's error and then the guard's win; the thread is joined either way
        cpus(2)
        spec = default_spec(3)
        pair = (np.array([1e300]), np.ones((1, 3, spec.n)))
        with pytest.raises(ValueError, match="leaves the float range"):
            grid._fourier_pass(spec, pair, [(2.0, 0.0)])()
        shape = (spec.n,) * 3
        before = threading.active_count()
        for values, message in [(np.zeros(shape), "undefined for the zero function"),
                                (np.ones(shape), "does not decay at the domain boundary")]:
            with pytest.raises(ValueError, match=message):
                harness.function_chain_check(GridFunction(spec, values, _terms=pair), 3, 2.0)
            assert threading.active_count() == before
        assert len(starts) == 2
        assert all(not thread.is_alive() for thread in starts)

    def test_threads_are_joined(self, cpus, starts):
        cpus(2)
        before = threading.active_count()
        harness.cp_check(3, 2.0, 2.0, 1.0, 1.0, seed=1)
        assert threading.active_count() == before
        harness.function_chain_check(random_bump(default_spec(3), 1), 3, 1.5)
        assert threading.active_count() == before
        assert len(starts) == 2

    def test_public_functions_run_on_the_calling_thread(self, cpus, starts, monkeypatch):
        # every public uplab function is wrapped in every namespace that holds it, as the
        # benchmark's tracer wraps them; the thread runs private calls only
        cpus(2)
        calls = []
        modules = [importlib.import_module(f"uplab.{name}") for name in MODULES]
        namespaces = [vars(uplab)] + [vars(module) for module in modules]
        for module in modules:
            for name, fn in list(vars(module).items()):
                inner = inspect.unwrap(fn) if callable(fn) else None
                if (name.startswith("_") or not inspect.isfunction(inner)
                        or inner.__module__ != module.__name__):
                    continue

                def recorded(*args, _fn=fn, _name=name, **kwargs):
                    calls.append((_name, threading.current_thread()))
                    return _fn(*args, **kwargs)

                for namespace in namespaces:
                    for key, value in list(namespace.items()):
                        if value is fn:
                            monkeypatch.setitem(namespace, key, recorded)
        sums = grid._weighted_sums

        def private(*args, **kwargs):
            calls.append(("_weighted_sums", threading.current_thread()))
            return sums(*args, **kwargs)

        monkeypatch.setattr(grid, "_weighted_sums", private)
        here = threading.current_thread()
        harness.cp_check(3, 2.5, 2.5, 0.5, 0.5, seed=7)
        for f in d3_chain_functions().values():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                harness.function_chain_check(f, 3, 2.0)
        assert len(starts) == 5
        public = {name for name, thread in calls if not name.startswith("_")}
        assert {"cp_check", "function_chain_check", "grid_weighted_norm"} <= public
        assert all(thread is here for name, thread in calls if not name.startswith("_"))
        assert sum(thread is not here for _, thread in calls) == 5  # the norms of f^


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
        assert masses == tuple(map(math.exp, report.log_tail_masses))
        assert math.isfinite(report.log_weighted_mass)
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
        # the prediction alone is positive for every violated tuple; a measurement far
        # from it fails the slope check, and with it the report
        far, near = harness._slope_check(0.2, 0.65), harness._slope_check(0.62, 0.65)
        assert (far.passed, near.passed) == (False, True)
        report = harness.cp_check(2, 8.0, 8.0, 0.1, 0.1)
        assert report.passed and not dataclasses.replace(report, functions=(far,)).passed
        assert not dataclasses.replace(report, functions=()).passed  # no check, no verdict
        with pytest.raises(ValueError, match="^check slope has no measured value"):
            harness._slope_check(math.nan, 0.65)

    def test_violated_verdict_without_measurement_has_an_infinite_bound(self):
        # no translate family is measured at d >= 3: ln predicted > -inf, marked by its bound
        (check,) = harness.cp_check(3, 4.0, 4.0, 0.5, 0.5).functions
        assert (check.name, check.log_rhs, check.relation, check.passed) == (
            "predicted_slope", -math.inf, ">", True)
        assert check.log_lhs == math.log(harness.rs_predicted_slope(3, 4.0, 0.5))

    def test_endpoint_verdict_rests_on_measurement(self):
        # tail masses over omega_{d-1} at successive squares of delta must grow by equal
        # steps (ln 2 each) and the weighted mass must be finite and positive
        step = math.log(2.0)
        logs = tuple(math.log(step * (2.0 + k)) for k in range(4))
        checks = harness._endpoint_checks(logs, math.log(9.0))
        assert [check.name for check in checks] == ["tails_rise", "tail_steps", "weighted_mass"]
        assert [check.passed for check in checks] == [True] * 3  # plain bools, as JSON takes
        halving = tuple(map(math.log, (1.0, 2.0, 2.5, 2.75)))  # converging masses
        for tail_logs, verdict in [
            ((-math.inf,) * 4, None),  # masses of 0
            (halving, False),
            ((0.0,) * 4, None),  # equal masses: steps of 0, whose logs are -inf
            ((3.0, 2.0, 1.0, 0.0), None),  # shrinking masses: no step has a log
            ((0.0, 1.0, math.nan, 2.0), None),
            ((), None),  # too few
        ]:
            assert _endpoint_verdict(tail_logs, math.log(9.0)) is verdict, tail_logs
        for log_weighted in (-math.inf, math.inf, math.nan):
            assert _endpoint_verdict(logs, log_weighted) is False

    def test_endpoint_steps_beyond_the_floats(self):
        # steps of e^{-800} ln 2 or e^{800} ln 2, and one step 1e-5 short
        for log_scale in (-800.0, 800.0):
            logs = [log_scale + math.log(math.log(2.0) * (2.0 + k)) for k in range(4)]
            assert _endpoint_verdict(logs, log_scale) is True
            logs[3] = log_scale + math.log(math.log(2.0) * (5.0 - 1e-5))
            rise, steps, _ = harness._endpoint_checks(logs, log_scale)
            assert (rise.passed, steps.passed) == (True, False)

    @pytest.mark.parametrize("d", [2 * 10**9, 10**18, 10**100])
    def test_endpoint_steps_judged_without_omega(self, d):
        # ln omega_{d-1} ~ -(d/2) ln d rounds the masses' steps of about 0.2 in their logs
        # away; over omega_{d-1} the masses still grow by ln 2 each
        report = harness.cp_check(d, 4.0, 4.0, d / 4, d / 4)
        assert [check.passed for check in report.functions] == [True] * 3 and report.passed
        assert _endpoint_verdict(report.log_tail_masses, report.log_weighted_mass) is not True
