"""Acceptance suite: the ten headline checks, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so the
run log shows the scoreboard, and asserts both the numerical claim and its
runtime budget.
"""

import math
import random
import time
import warnings

import numpy as np
import pytest

from test_grid import plancherel_defect, primary_up_defect
from uplab import counterexamples as cx
from uplab import harness
from uplab.grid import (
    GridSpec,
    default_spec,
    fourier_transform,
    gaussian_grid_function,
    grid_weighted_norm,
    random_bump,
)
from uplab.params import cp_feasible, cp_params, l2_params
from uplab.radial import gaussian_log_product
from uplab.specialfn import dimension_constants


def _report(capsys, number, label, ok, elapsed):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance {number:>2}] {label}: {status} ({elapsed:.3f}s)")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_one_dimensional_constant(capsys):
    l2_params(1)  # warm-up excludes import/JIT effects from the budget
    t0 = time.perf_counter()
    params = l2_params(1)
    elapsed = time.perf_counter() - t0
    ok = (
        params.c_d == 0.125
        and params.bound == 1.0 / 4096.0
        and elapsed < 1e-3
    )
    _report(capsys, 1, "1-D constant c=1/8, bound=1/64^2 exact", ok, elapsed)


def test_criterion_02_sharp_gaussian_constant(capsys):
    gaussian_log_product(1, 2.0)
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 201):
        val = math.exp(gaussian_log_product(d, 2.0))
        exact = d * d / (16.0 * math.pi**2)
        worst = max(worst, abs(val - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10e-3
    _report(
        capsys, 2, f"Gaussian product d^2/(16 pi^2), worst rel err {worst:.2e}", ok, elapsed
    )


def test_criterion_03_quadratic_floor_sweep(capsys):
    t0 = time.perf_counter()
    sweep = harness.heisenberg_sweep(500)
    summary = harness.heisenberg_summary(sweep)
    elapsed = time.perf_counter() - t0
    ok = (
        summary["d0"] is not None
        and summary["d0"] <= 10
        and abs(summary["slope"] - 2.0) <= 0.05
        and elapsed < 5.0
    )
    _report(
        capsys,
        3,
        f"quadratic floor sweep d<=500, d0={summary['d0']}, slope={summary['slope']:.4f}",
        ok,
        elapsed,
    )


def test_criterion_04_lp_growth_sweep(capsys):
    t0 = time.perf_counter()
    sweep = harness.lp_sweep(1.5, 500)
    summary = harness.lp_summary(sweep, 1.5)
    elapsed = time.perf_counter() - t0
    ok = (
        1.425 <= summary["slope_method"] <= 1.575
        and 1.425 <= summary["slope_gaussian"] <= 1.575
        and all(sweep.satisfied)
        and elapsed < 10.0
    )
    _report(
        capsys,
        4,
        f"p=1.5 growth sweep, slopes {summary['slope_method']:.4f}/{summary['slope_gaussian']:.4f}",
        ok,
        elapsed,
    )


def test_criterion_05_supercritical_collapse(capsys):
    t0 = time.perf_counter()
    log_products = cx.gc_infimum_sweep(2, 5.0, [1, 2, 4, 8, 16, 32])
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(log_products, log_products[1:]))
    collapsed = log_products[-1] < log_products[0] + math.log(0.1)
    ok = decreasing and collapsed and elapsed < 5.0
    _report(
        capsys,
        5,
        f"two-scale collapse, final/first={math.exp(log_products[-1] - log_products[0]):.2e}",
        ok,
        elapsed,
    )


def test_criterion_06_grid_transform_fidelity(capsys):
    t0 = time.perf_counter()
    spec = GridSpec(d=1, n=256, half_width=8.0)
    gh = fourier_transform(gaussian_grid_function(spec))
    xi = spec.dual().meshgrid()[0]
    sup_err = float(np.max(np.abs(gh.values - np.exp(-math.pi * xi * xi))))

    worst_pl = 0.0
    worst_hy = math.inf
    worst_up = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(20):
            f = random_bump(spec, seed=seed)
            worst_pl = max(worst_pl, plancherel_defect(f))
            fhat = fourier_transform(f)
            # Hausdorff-Young: ||fhat||_{p'} <= ||f||_p at (p, p') = (1.5, 3)
            hy = grid_weighted_norm(f, [(1.5, 0.0)])[0] / grid_weighted_norm(fhat, [(3.0, 0.0)])[0]
            worst_hy = min(worst_hy, hy)
            worst_up = min(worst_up, primary_up_defect(f, 1.5, 2.0))
    elapsed = time.perf_counter() - t0
    ok = (
        sup_err <= 1e-6
        and worst_pl <= 1e-8
        and worst_hy >= 1.0 - 1e-6
        and worst_up >= 1.0 - 1e-6
        and elapsed < 30.0
    )
    _report(
        capsys,
        6,
        f"transform fidelity: selfdual {sup_err:.1e}, plancherel {worst_pl:.1e}",
        ok,
        elapsed,
    )


def test_criterion_07_translate_family_invariants(capsys):
    t0 = time.perf_counter()
    families = [cx.rs_level(2, k) for k in range(4)]
    base_sq = families[0].base_l2_sq

    mass_ok = True
    for fam in families:
        lead_sq = grid_weighted_norm(fam.member(0), [(2.0, 0.0)])[0] ** 2
        if abs(lead_sq - 4.0**fam.k * base_sq) > 1e-6 * 4.0**fam.k * base_sq:
            mass_ok = False

    spectral_ok = True
    base_hat_sq = np.abs(fourier_transform(families[0].member(0)).values) ** 2
    for k in (1, 2, 3):
        total = sum(
            np.abs(fourier_transform(families[k].member(i)).values) ** 2 for i in range(4)
        )
        expected = 4.0 ** (k + 1) * base_hat_sq
        if np.max(np.abs(total - expected)) > 1e-6 * expected.max():
            spectral_ok = False

    slope = cx.rs_slope(families[-1], 8.0, 0.1)
    slope_ok = abs(slope - 0.65) <= 0.1 * 0.65
    elapsed = time.perf_counter() - t0
    ok = mass_ok and spectral_ok and slope_ok and elapsed < 60.0
    _report(
        capsys,
        7,
        f"translate-family invariants d=2 k<=3, slope {slope:.4f}",
        ok,
        elapsed,
    )


def test_criterion_08_parallelogram_law(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for d in range(1, 9):
        m = cx.sign_matrix(d).astype(float)
        n = 2**d
        vecs = rng.normal(size=(n, 1000)) + 1j * rng.normal(size=(n, 1000))
        lhs = np.sum(np.abs(m @ vecs) ** 2, axis=0)
        rhs = n * np.sum(np.abs(vecs) ** 2, axis=0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        capsys, 8, f"parallelogram law d<=8 x1000, worst defect {worst:.2e}", ok, elapsed
    )


# golden classification table: (d, p, q, theta, phi, expected class)
def _golden_table():
    def phi_for(d, p, q, theta):
        return theta + d * (1.0 / p - 1.0 / q)

    table = []
    for d, p, th in [
        (1, 2.0, 1.0), (1, 2.0, 0.5), (1, 3.0, 0.5), (1, 4.0, 0.3), (1, 1.5, 0.25),
        (2, 2.0, 1.5), (2, 2.0, 0.75), (2, 3.0, 0.5), (2, 1.25, 0.2), (3, 2.0, 2.0),
        (3, 2.0, 1.0), (3, 2.5, 0.5),
    ]:
        table.append((d, p, p, th, th, "feasible"))
    for d, p, q, th in [
        (1, 4.0, 2.0, 0.5), (1, 2.0, 3.0, 0.4), (2, 3.0, 1.5, 1.0), (2, 2.0, 4.0, 0.8),
        (3, 2.0, 2.5, 1.2), (1, 1.5, 2.5, 0.6), (2, 4.0, 2.0, 0.8), (3, 3.0, 2.0, 1.0),
    ]:
        table.append((d, p, q, th, phi_for(d, p, q, th), "feasible"))
    for d, p in [
        (1, 4.0), (1, 3.0), (1, 8.0), (1, 2.5), (1, 6.0),
        (2, 4.0), (2, 3.0), (2, 8.0), (2, 2.5), (3, 4.0),
        (3, 3.0), (3, 6.0), (2, 6.0), (1, 5.0), (3, 8.0),
    ]:
        th = d * (0.5 - 1.0 / p)
        table.append((d, p, p, th, th, "endpoint"))
    for d, p, th in [
        (1, 4.0, 0.1), (1, 8.0, 0.2), (1, 3.0, 0.05), (1, 6.0, 0.25), (1, 5.0, 0.15),
        (2, 8.0, 0.1), (2, 4.0, 0.3), (2, 6.0, 0.5), (2, 3.0, 0.2), (2, 8.0, 0.5),
        (2, 5.0, 0.4), (3, 4.0, 0.5), (3, 8.0, 1.0), (3, 6.0, 0.8), (3, 3.0, 0.3),
    ]:
        table.append((d, p, p, th, th, "violated"))
    return table


def test_criterion_09_trichotomy_golden_table(capsys):
    table = _golden_table()
    assert len(table) == 50
    t0 = time.perf_counter()
    mismatches = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for d, p, q, theta, phi, expected in table:
            report = harness.cp_check(d, p, q, theta, phi)
            if report.classification != expected or not report.passed:
                mismatches.append((d, p, q, theta, phi, report.classification))
                continue
            if expected == "feasible":
                if min(fr.slack for fr in report.functions) < -1e-6:
                    mismatches.append((d, p, q, theta, phi, "slack"))
            elif expected == "endpoint":
                omega = dimension_constants(d).sphere_area
                for delta, mass in zip((1e-3, 1e-6, 1e-12, 1e-24), report.tail_masses):
                    closed = omega * (
                        math.log(math.log(1.0 / delta)) - math.log(math.log(2.0))
                    )
                    if abs(mass - closed) > 1e-8:
                        mismatches.append((d, p, q, theta, phi, "tail"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    _report(
        capsys,
        9,
        f"trichotomy golden table (50 tuples), mismatches {len(mismatches)}",
        ok,
        elapsed,
    )


def test_criterion_10_parameter_identity_suite(capsys):
    rng = random.Random(7)
    tuples = []
    while len(tuples) < 100:
        d = rng.randint(1, 6)
        p = rng.uniform(1.05, 6.0)
        theta = rng.uniform(0.05, 3.0)
        q = rng.uniform(1.05, 6.0)
        phi = theta + d * (1.0 / p - 1.0 / q)
        if phi <= 0 or not cp_feasible(d, p, q, theta, phi):
            continue
        tuples.append((d, p, q, theta, phi))

    t0 = time.perf_counter()
    worst = 0.0
    for d, p, q, theta, phi in tuples:
        b = cp_params(d, p, q, theta, phi)
        a_tilde = q / (1.0 + q * phi / (d + b.epsilon_tilde))
        worst = max(worst, abs(b.a - a_tilde))
        worst = max(worst, abs(b.b * b.s1 - (d + b.epsilon)) / (d + b.epsilon))
        worst = max(
            worst,
            abs(
                b.epsilon * theta / (d + b.epsilon)
                - b.epsilon_tilde * phi / (d + b.epsilon_tilde)
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        capsys,
        10,
        f"parameter identities on 100 feasible tuples, worst defect {worst:.2e}",
        ok,
        elapsed,
    )
