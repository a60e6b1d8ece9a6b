"""Tests for radial-reduction integrals.

Closed-form Gaussian moments and power-law tails give exact oracles; the
mixture norms and the adaptive-quadrature paths are cross-checked against
direct scipy.integrate calls and a 40-digit mpmath quadrature written
independently here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from uplab import radial
from uplab.counterexamples import gc_infimum_sweep, gc_profile
from uplab.harness import cp_check
from uplab.radial import (
    RadialProfile,
    gaussian_profile,
    gaussian_uncertainty_product,
    radial_integral,
    radial_weighted_norm,
)
from uplab.specialfn import dimension_constants


class TestRadialProfile:
    def test_requires_exactly_one_kind(self):
        with pytest.raises(ValueError):
            RadialProfile()
        with pytest.raises(ValueError):
            RadialProfile(terms=((1.0, 1.0),), power_log=(-1.0, 0.0))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RadialProfile(terms=((1.0, -2.0),))

    @pytest.mark.parametrize("coef", [0.0, -0.5, math.nan, math.inf])
    def test_mixture_rejects_nonpositive_coefficient(self, coef):
        # a sign change of F would break the trapezoid rule's geometric convergence
        with pytest.raises(ValueError, match="positive coefficients"):
            RadialProfile(terms=((1.0, 1.0), (coef, 2.0)))

    @pytest.mark.parametrize("coef", [0.0, math.nan, math.inf])
    def test_single_term_rejects_zero_or_nonfinite_coefficient(self, coef):
        with pytest.raises(ValueError, match="finite nonzero coefficient"):
            gaussian_profile(coefficient=coef)

    def test_single_term_keeps_any_sign(self):
        # its norm uses ln |c| in closed form
        assert radial_weighted_norm(gaussian_profile(coefficient=-2.0), 2, 2.0, 0.0) == (
            pytest.approx(radial_weighted_norm(gaussian_profile(coefficient=2.0), 2, 2.0, 0.0))
        )

    def test_evaluation(self):
        prof = RadialProfile(terms=((2.0, 1.0), (1.0, 4.0)))
        r = 0.5
        expected = 2.0 * math.exp(-math.pi * 0.25) + math.exp(-math.pi)
        assert prof(r) == pytest.approx(expected, rel=1e-14)

    def test_power_log_evaluation(self):
        prof = RadialProfile(power_log=(-0.5, -0.5))
        r = 0.25
        assert float(prof(r)) == pytest.approx(
            0.25**-0.5 * math.log(4.0) ** -0.5, rel=1e-14
        )


class TestRadialIntegral:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_gaussian_total_mass(self, d):
        # int of exp(-pi |x|^2) over R^d is exactly 1
        assert radial_integral(gaussian_profile(), d, 0.0, math.inf) == pytest.approx(
            1.0, rel=1e-12
        )

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_power_tail_closed_forms(self, d):
        omega = dimension_constants(d).sphere_area
        # int_{|x|>1} |x|^{-(d+1)} dx = omega_{d-1}
        tail = radial_integral(RadialProfile(power_log=(-(d + 1.0), 0.0)), d, 1.0, math.inf)
        assert tail == pytest.approx(omega, rel=1e-13)
        # int_{|x|>1} |x|^{-(d+eps)} dx = omega_{d-1} / eps
        for eps in (0.5, 1.0, 3.0):
            tail = radial_integral(
                RadialProfile(power_log=(-(d + eps), 0.0)), d, 1.0, math.inf
            )
            assert tail == pytest.approx(omega / eps, rel=1e-13)

    @given(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.1, max_value=2.0),
    )
    def test_gaussian_range_against_quadrature(self, d, rate, hi):
        omega = dimension_constants(d).sphere_area
        val = radial_integral(gaussian_profile(rate), d, 0.0, hi)
        oracle, _ = integrate.quad(
            lambda r: math.exp(-math.pi * rate * r * r) * r ** (d - 1), 0.0, hi
        )
        assert val == pytest.approx(omega * oracle, rel=1e-9)

    def test_log_power_against_quadrature(self):
        d = 2
        omega = dimension_constants(d).sphere_area
        prof = RadialProfile(power_log=(-1.0, -0.5))
        val = radial_integral(prof, d, 0.0, 0.5)
        oracle, _ = integrate.quad(
            lambda r: r ** (d - 2.0) * math.log(1.0 / r) ** -0.5, 0.0, 0.5
        )
        assert val == pytest.approx(omega * oracle, rel=1e-8)

    def test_rejects_nonintegrable(self):
        with pytest.raises(ValueError):
            # r^{-d} at the origin against r^{d-1} dr diverges
            radial_integral(RadialProfile(power_log=(-2.0, 0.0)), 2, 0.0, 0.5)
        with pytest.raises(ValueError):
            # too slow a decay at infinity
            radial_integral(RadialProfile(power_log=(-1.0, 0.0)), 2, 1.0, math.inf)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            radial_integral(gaussian_profile(), 1, 1.0, 0.5)


class TestRadialWeightedNorm:
    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_gaussian_p_norm_closed_form(self, d, p):
        # ||g||_p^p = p^{-d/2} for g = exp(-pi |x|^2)
        norm = radial_weighted_norm(gaussian_profile(), d, p, 0.0)
        assert norm**p == pytest.approx(p ** (-0.5 * d), rel=1e-11)

    @pytest.mark.parametrize("d", [1, 3])
    def test_gaussian_moment_closed_form(self, d):
        # V_p(g) = omega_{d-1} Gamma((p+d)/2) / (2 (pi p)^{(p+d)/2})
        p = 2.0
        geom = dimension_constants(d)
        moment = radial_weighted_norm(gaussian_profile(), d, p, 1.0) ** p
        expected = (
            geom.sphere_area
            * math.gamma(0.5 * (p + d))
            / (2.0 * (math.pi * p) ** (0.5 * (p + d)))
        )
        assert moment == pytest.approx(expected, rel=1e-11)

    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.3, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixture_against_quadrature(self, d, p, rate1, rate2):
        profile = RadialProfile(terms=((1.0, rate1), (0.5, rate2)))
        norm = radial_weighted_norm(profile, d, p, 0.0)
        omega = dimension_constants(d).sphere_area

        def integrand(r):
            return abs(float(profile(r))) ** p * r ** (d - 1)

        oracle, _ = integrate.quad(integrand, 0.0, math.inf, limit=200)
        assert norm == pytest.approx((omega * oracle) ** (1.0 / p), rel=1e-8)

    @pytest.mark.parametrize("d, weight", [(1, 0.0), (3, 1.0), (40, 30.0)])
    def test_equal_rate_mixture_matches_single_term(self, d, weight):
        # the two-term path expands F^2 binomially, the one-term path is one
        # Gaussian moment; at d = 40 the integrand's r^{k-1} alone exceeds the float range
        mixture = RadialProfile(terms=((0.25, 1.0), (0.75, 1.0)))
        norm = radial_weighted_norm(mixture, d, 2.0, weight)
        assert norm == pytest.approx(
            radial_weighted_norm(gaussian_profile(), d, 2.0, weight), rel=1e-10
        )

    def test_power_log_norm_matches_closed_form(self):
        # |f|^p = r^{-1} ln^{-2}(1/r); substituting u = ln(1/r) gives
        # int_{ln 2}^inf u^{-2} du = 1 / ln 2 exactly
        d, p = 1, 4.0
        prof = RadialProfile(power_log=(-0.25, -0.5))
        norm = radial_weighted_norm(prof, d, p, 0.0)
        omega = dimension_constants(d).sphere_area
        assert norm == pytest.approx((omega / math.log(2.0)) ** (1.0 / p), rel=1e-10)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            radial_weighted_norm(gaussian_profile(), 1, 0.5, 0.0)
        with pytest.raises(ValueError):
            radial_weighted_norm(gaussian_profile(), 1, math.inf, 0.0)
        with pytest.raises(ValueError):
            radial_weighted_norm(gaussian_profile(), 1, 2.0, -1.0)

    @pytest.mark.parametrize("d", [456, 1000, 100000])
    def test_gaussian_norm_past_the_sphere_area_underflow(self, d):
        # omega_{d-1} is 0 in double precision from d = 456 on; ||g||_2 = 2^{-d/4} is
        # itself below the floats at d = 100000, where Gamma(k/2) is beyond them
        norm = radial_weighted_norm(gaussian_profile(), d, 2.0, 0.0)
        assert norm == pytest.approx(2.0 ** (-0.25 * d), rel=1e-12, abs=0.0)


def _mpmath_mixture_norm(mp, profile, d, p, w):
    """(omega_{d-1} * integral of r^{pw} F(r)^p r^{d-1} dr)^{1/p} at mp's precision.

    In t = ln r the integrand is exp(k t + p ln F(e^t)), k = p w + d.  The quadrature
    is split at each local peak of that exponent (found by a float scan, refined by
    mp.findroot) and at 8 peak widths 1/sqrt(2k) on either side of it.  Every stationary
    point lies between the single-term peaks ln(k / (2 pi p a_i)) / 2, and beyond them
    the exponent falls by more than 300 within the outer edges used here.
    """
    log_c = np.log([c for c, _ in profile.terms])
    rates = np.array([a for _, a in profile.terms])
    k = p * w + d
    peaks = 0.5 * np.log(k / (2 * math.pi * p * rates))
    t = np.linspace(peaks.min() - 1, peaks.max() + 1, 4001)
    x = log_c[:, None] - math.pi * rates[:, None] * np.exp(2 * t)
    top = x.max(axis=0)
    scan = k * t + p * (top + np.log(np.exp(x - top).sum(axis=0)))
    local = (scan[1:-1] >= scan[:-2]) & (scan[1:-1] >= scan[2:]) & (scan[1:-1] > scan.max() - 100)
    cs = [mp.mpf(c) for c, _ in profile.terms]
    rs = [mp.mpf(a) for _, a in profile.terms]
    p = mp.mpf(p)
    k = p * mp.mpf(w) + d

    def gaussians(s):
        r2 = mp.exp(2 * s)
        return r2, [c * mp.exp(-mp.pi * a * r2) for c, a in zip(cs, rs)]

    def exponent(s):
        return k * s + p * mp.log(mp.fsum(gaussians(s)[1]))

    def slope(s):
        r2, g = gaussians(s)
        return k - 2 * mp.pi * p * r2 * mp.fdot(rs, g) / mp.fsum(g)

    tops = [mp.findroot(slope, mp.mpf(float(s))) for s in t[1:-1][local]]
    shift = max(exponent(s) for s in tops)
    width = 1 / mp.sqrt(2 * k)
    edges = {s + m * width for s in tops for m in (-8, 0, 8)}
    edges |= {peaks.min() - 300 / k - 1, peaks.max() + mp.sqrt(300 / k) + 1}
    integral = mp.quad(lambda s: mp.exp(exponent(s) - shift), sorted(edges))
    omega = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
    return mp.exp((mp.log(omega) + mp.log(integral) + shift) / p)


# A cyclic walk through d x p x w x c that takes every value of each at least once,
# plus p = 1e6 (the full 336-case grid, and p = 1e6 at every w and c, agrees to
# 6.4e-13 but takes over a minute).
_DS = (1, 2, 3, 10, 100, 1000)
_PS = (1.0, 1.25, 1.5, 2.0, 2.5, 5.0, 8.0)
_WS = (0.0, 0.5, 1.0, 3.0)
_MIXTURE_CASES = [
    (_DS[i % 6], _PS[i % 7], _WS[i % 4], (2.0, 4.0)[i // 3 % 2]) for i in range(8)
] + [(3, 1e6, 1.6, 2.0)]


class TestMixtureNorm:
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        for d, p, w, c in _MIXTURE_CASES:
            profile = gc_profile(c, d)
            exact = _mpmath_mixture_norm(mp, profile, d, p, w)
            norm = radial_weighted_norm(profile, d, p, w)
            assert norm == pytest.approx(float(exact), rel=radial.QUAD_RTOL), (d, p, w, c)

    @pytest.mark.parametrize("p", [2.0, 3.0, 2.5])
    def test_three_terms_against_quadrature(self, p):
        # integer p expands multinomially over three terms, 2.5 takes the trapezoid rule
        d, w = 3, 1.0
        profile = RadialProfile(terms=((1.0, 0.5), (2.0, 1.0), (0.5, 3.0)))
        oracle, _ = integrate.quad(
            lambda r: float(profile(r)) ** p * r ** (p * w + d - 1), 0.0, math.inf,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        omega = dimension_constants(d).sphere_area
        assert radial_weighted_norm(profile, d, p, w) == pytest.approx(
            (omega * oracle) ** (1.0 / p), rel=1e-11
        )

    def test_no_adaptive_quadrature(self, monkeypatch):
        # every Gaussian-mixture norm is a closed form or the trapezoid rule in t = ln r
        def refuse(*args, **kwargs):
            raise AssertionError("scipy quad called on a Gaussian profile")

        monkeypatch.setattr(radial.integrate, "quad", refuse)
        for p, theta in [(2.0, 1.0), (2.5, 1.0)]:  # integer and non-integer p
            report = cp_check(2, p, p, theta, theta)
            assert report.classification == "feasible" and report.passed
        for p in (5.0, 4.5):
            assert all(0 < x < math.inf for x in gc_infimum_sweep(2, p, [1.0, 2.0, 4.0]))


class TestGaussianUncertaintyProduct:
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 100, 200])
    def test_sharp_heisenberg_value(self, d):
        # the p = 2 product is exactly d^2 / (16 pi^2)
        assert gaussian_uncertainty_product(d, 2.0) == pytest.approx(
            d * d / (16.0 * math.pi**2), rel=1e-12
        )

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_matches_radial_quadrature(self, d, p):
        # independent path: assemble the product from radial norms
        g = gaussian_profile()
        ratio = (
            radial_weighted_norm(g, d, p, 1.0) ** p
            / radial_weighted_norm(g, d, p, 0.0) ** p
        )
        assert gaussian_uncertainty_product(d, p) == pytest.approx(ratio**2, rel=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_uncertainty_product(0, 2.0)
        with pytest.raises(ValueError):
            gaussian_uncertainty_product(1, 1.0)

    def test_large_dimension_finite(self):
        val = gaussian_uncertainty_product(500, 2.0)
        assert math.isfinite(val) and val > 0
