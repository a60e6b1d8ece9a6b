"""Tests for radial-reduction integrals.

Closed-form Gaussian moments and power-law integrals give exact oracles; the
mixture norms and the endpoint's closed-form masses are cross-checked against
direct scipy.integrate calls and 40-digit mpmath quadratures written
independently here.
"""

import ast
import collections
import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from uplab import radial
from uplab.counterexamples import gc_profile
from uplab.grid import default_spec
from uplab.radial import (
    RadialProfile,
    gaussian_log_product,
    gaussian_profile,
    log_moment_ratio,
    radial_integral,
    radial_weighted_norm,
)
from uplab.specialfn import dimension_constants


def _log(coef):
    """ln of a coefficient as numpy takes it: -inf at 0, NaN below."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.log(coef))


class TestRadialProfile:
    def test_requires_terms(self):
        with pytest.raises(TypeError):
            RadialProfile()
        with pytest.raises(ValueError, match="at least one term"):
            RadialProfile(terms=())
        assert gaussian_profile().is_gaussian and gc_profile(2.0, 3).is_gaussian

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RadialProfile(terms=((1.0, -2.0),))

    @pytest.mark.parametrize("coef", [0.0, -0.5, math.nan, math.inf])
    def test_mixture_rejects_nonpositive_coefficient(self, coef):
        # a term holds ln c, which such a c does not have as a finite float; a sign
        # change of F would break the trapezoid rule's geometric convergence
        with pytest.raises(ValueError, match="finite ln c"):
            RadialProfile(terms=((1.0, 1.0), (_log(coef), 2.0)))

    @pytest.mark.parametrize("coef", [0.0, math.nan, math.inf])
    def test_single_term_rejects_zero_or_nonfinite_coefficient(self, coef):
        with pytest.raises(ValueError, match="finite ln c"):
            RadialProfile(terms=((_log(coef), 1.0),))

    def test_evaluation(self):
        prof = RadialProfile(terms=((math.log(2.0), 1.0), (0.0, 4.0)))
        r = 0.5
        expected = 2.0 * math.exp(-math.pi * 0.25) + math.exp(-math.pi)
        assert prof(r) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_array_evaluation_same_bytes_as_term_sum(self, d):
        # reference: each term as a fresh array, added to a zeroed sum in term order
        def term_sum(profile, r):
            out = np.zeros_like(r)
            with np.errstate(over="ignore"):
                for log_c, rate in profile.terms:
                    out = out + np.exp(log_c - math.pi * rate * r * r)
            return out

        spec = default_spec(d)
        mesh = np.meshgrid(*([spec.axis_coordinates()] * d), indexing="ij")
        r = np.sqrt(sum(m * m for m in mesh))
        # the last profile has samples that underflow to exact zeros
        underflowing = gaussian_profile(rate=50.0)
        three = RadialProfile(terms=((math.log(2.0), 1.0), (0.0, 4.0), (math.log(0.5), 0.25)))
        for profile in (gaussian_profile(), gc_profile(2.0, d), gc_profile(4.0, d), three,
                        underflowing):
            values = profile(r)
            expected = term_sum(profile, r)
            assert values.dtype == expected.dtype and values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()
            assert profile(0.75) == term_sum(profile, np.asarray(0.75))
        zeros = underflowing(r)[r > 3.0]  # exp(-pi 50 r^2) < 1e-600
        assert not zeros.any() and not np.signbit(zeros).any()


class TestRadialIntegral:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_gaussian_total_mass(self, d):
        # int of exp(-pi |x|^2) over R^d is exactly 1: its L^1 norm, whose log is 0
        assert radial_weighted_norm(gaussian_profile(), d, 1.0, 0.0) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_power_tail_closed_forms(self, d):
        # in u = ln(1/r) the masses of |x|^{-d} ln^beta(1/|x|) are powers of u, as logs:
        # int_{|x|<1/2} |x|^{-d} ln^{-2}(1/|x|) dx = omega_{d-1} / ln 2, and over
        # delta < |x| < 1/2 with ln^{-1}, omega_{d-1} (ln ln(1/delta) - ln ln 2)
        log_omega = dimension_constants(d).log_sphere_area
        mass = radial_integral(-2.0, d, 0.0, 0.5)
        assert mass == pytest.approx(log_omega - math.log(math.log(2.0)), abs=1e-13)
        for delta in (1e-3, 1e-24):
            ln_ln = math.log(math.log(1.0 / delta)) - math.log(math.log(2.0))
            mass = radial_integral(-1.0, d, delta, 0.5)
            assert mass == pytest.approx(log_omega + math.log(ln_ln), abs=1e-13)

    @pytest.mark.parametrize("lo, hi", [(5e-324, 0.5), (1e-310, 0.5), (1e-300, 0.5),
                                        (5e-324, 1e-310)])
    def test_subnormal_ends(self, lo, hi):
        # 1/r is inf for a subnormal r; ln(1/r) = -ln r is finite, so the range is finite
        # and the r = 0 rule does not apply.  omega_0 = 2
        ln_ln = math.log(-math.log(lo)) - math.log(-math.log(hi))
        mass = radial_integral(-1.0, 1, lo, hi)
        assert mass == pytest.approx(math.log(2.0 * ln_ln), abs=1e-10)

    def test_log_power_against_quadrature(self):
        d = 2
        omega = dimension_constants(d).sphere_area
        log_val = radial_integral(-0.5, d, 1e-3, 0.5)
        oracle, _ = integrate.quad(
            lambda r: r ** -1.0 * math.log(1.0 / r) ** -0.5, 1e-3, 0.5, epsabs=0.0, limit=200
        )
        assert log_val == pytest.approx(math.log(omega * oracle), abs=1e-8)

    def test_rejects_nonintegrable(self):
        with pytest.raises(ValueError, match="at r=0"):
            # r^{-d} at the origin against r^{d-1} dr diverges
            radial_integral(0.0, 2, 0.0, 0.5)
        with pytest.raises(ValueError, match="at r=0"):
            # so does r^{-d} ln^{-1}(1/r): ln ln(1/r) grows without bound
            radial_integral(-1.0, 2, 0.0, 0.5)

    def test_rejects_bad_range(self):
        # the range lies inside [0, 1), where ln(1/r) is real and positive
        for lo, hi in [(1.0, 0.5), (-0.5, 0.5), (0.5, 2.0), (1.0, math.inf), (math.nan, 0.5),
                       (0.5, 1.0)]:
            with pytest.raises(ValueError, match="invalid radial range"):
                radial_integral(-2.0, 1, lo, hi)


class TestRadialWeightedNorm:
    """The norms are logs: a relative tolerance on a norm is an absolute one on its log."""

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_gaussian_p_norm_closed_form(self, d, p):
        # ||g||_p^p = p^{-d/2} for g = exp(-pi |x|^2)
        log_norm = radial_weighted_norm(gaussian_profile(), d, p, 0.0)
        assert p * log_norm == pytest.approx(-0.5 * d * math.log(p), abs=1e-11)

    @pytest.mark.parametrize("d", [1, 3])
    def test_gaussian_moment_closed_form(self, d):
        # V_p(g) = omega_{d-1} Gamma((p+d)/2) / (2 (pi p)^{(p+d)/2})
        p = 2.0
        geom = dimension_constants(d)
        log_moment = p * radial_weighted_norm(gaussian_profile(), d, p, 1.0)
        expected = (
            geom.sphere_area
            * math.gamma(0.5 * (p + d))
            / (2.0 * (math.pi * p) ** (0.5 * (p + d)))
        )
        assert log_moment == pytest.approx(math.log(expected), abs=1e-11)

    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.3, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixture_against_quadrature(self, d, p, rate1, rate2):
        profile = RadialProfile(terms=((0.0, rate1), (math.log(0.5), rate2)))
        log_norm = radial_weighted_norm(profile, d, p, 0.0)
        omega = dimension_constants(d).sphere_area

        def integrand(r):
            return abs(float(profile(r))) ** p * r ** (d - 1)

        oracle, _ = integrate.quad(integrand, 0.0, math.inf, limit=200)
        assert log_norm == pytest.approx(math.log(omega * oracle) / p, abs=1e-8)

    @pytest.mark.parametrize("d, weight", [(1, 0.0), (3, 1.0), (40, 30.0)])
    def test_equal_rate_mixture_matches_single_term(self, d, weight):
        # the two-term path expands F^2 binomially, the one-term path is one
        # Gaussian moment; at d = 40 the integrand's r^{k-1} alone exceeds the float range
        mixture = RadialProfile(terms=((math.log(0.25), 1.0), (math.log(0.75), 1.0)))
        log_norm = radial_weighted_norm(mixture, d, 2.0, weight)
        assert log_norm == pytest.approx(
            radial_weighted_norm(gaussian_profile(), d, 2.0, weight), abs=1e-10
        )

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            radial_weighted_norm(gaussian_profile(), 1, 0.5, 0.0)
        with pytest.raises(ValueError):
            radial_weighted_norm(gaussian_profile(), 1, math.inf, 0.0)
        with pytest.raises(ValueError):
            radial_weighted_norm(gaussian_profile(), 1, 2.0, -1.0)

    def test_rejects_weight_lost_to_rounding(self):
        # p*w + d = 2 + 1e17 rounds to 1e17: the weight would not enter the norm
        with pytest.raises(ValueError, match=r"the weight p\*w=2 is lost to rounding"):
            radial_weighted_norm(gaussian_profile(), 1e17, 2.0, 1.0)

    @pytest.mark.parametrize("d", [456, 1000, 100000])
    def test_gaussian_norm_past_the_sphere_area_underflow(self, d):
        # omega_{d-1} is 0 in double precision from d = 456 on; ||g||_2 = 2^{-d/4} is
        # itself below the floats at d = 100000, where Gamma(k/2) is beyond them
        log_norm = radial_weighted_norm(gaussian_profile(), d, 2.0, 0.0)
        assert log_norm == pytest.approx(-0.25 * d * math.log(2.0), rel=1e-15, abs=1e-12)

    @pytest.mark.parametrize("profile", [gaussian_profile(), gc_profile(2.0, 1000)])
    def test_norm_beyond_the_floats_is_a_log(self, profile):
        # ln ||x|^600 g||_2 = 1273 at d = 1000, where the norm itself is beyond the floats
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        exact = mp.log(_mpmath_mixture_norm(mp, profile, 1000, 2.0, 600.0))
        assert exact > 1000
        assert radial_weighted_norm(profile, 1000, 2.0, 600.0) == pytest.approx(
            float(exact), abs=1e-10
        )


def _mpmath_mixture_norm(mp, profile, d, p, w):
    """(omega_{d-1} * integral of r^{pw} F(r)^p r^{d-1} dr)^{1/p} at mp's precision.

    In t = ln r the integrand is exp(k t + p ln F(e^t)), k = p w + d.  The quadrature
    is split at each local peak of that exponent (found by a float scan, refined by
    mp.findroot) and at 8 peak widths 1/sqrt(2k) on either side of it.  Every stationary
    point lies between the single-term peaks ln(k / (2 pi p a_i)) / 2, and beyond them
    the exponent falls by more than 300 within the outer edges used here.
    """
    log_c = np.array([lc for lc, _ in profile.terms])
    rates = np.array([a for _, a in profile.terms])
    k = p * w + d
    peaks = 0.5 * np.log(k / (2 * math.pi * p * rates))
    t = np.linspace(peaks.min() - 1, peaks.max() + 1, 4001)
    x = log_c[:, None] - math.pi * rates[:, None] * np.exp(2 * t)
    top = x.max(axis=0)
    scan = k * t + p * (top + np.log(np.exp(x - top).sum(axis=0)))
    local = (scan[1:-1] >= scan[:-2]) & (scan[1:-1] >= scan[2:]) & (scan[1:-1] > scan.max() - 100)
    cs = [mp.exp(lc) for lc, _ in profile.terms]
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
            exact = mp.log(_mpmath_mixture_norm(mp, profile, d, p, w))
            log_norm = radial_weighted_norm(profile, d, p, w)
            assert log_norm == pytest.approx(float(exact), abs=1e-10), (d, p, w, c)

    @pytest.mark.parametrize("d", [3000, 100000])
    def test_coefficients_beyond_the_floats_against_mpmath(self, d):
        # c^{-+d/2} is beyond the floats for both c (4^1500 = e^2079): the terms carry
        # ln c.  p = 2 expands the square, 2.5 takes the trapezoid rule.  The logs reach
        # 1.7e4, and their parts, such as ln Gamma(k/2) = 4.9e5 at d = 1e5, each round
        # to a few units of 1e-16 relative; the largest error seen is 2.9e-15 of the log
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        for c in (2.0, 4.0):
            profile = gc_profile(c, d)
            for p in (2.0, 2.5):
                exact = mp.log(_mpmath_mixture_norm(mp, profile, d, p, 1.0))
                log_norm = radial_weighted_norm(profile, d, p, 1.0)
                assert log_norm == pytest.approx(float(exact), rel=1e-14), (c, p)

    @pytest.mark.parametrize("p", [2.0, 3.0, 2.5])
    def test_three_terms_against_quadrature(self, p):
        # integer p expands multinomially over three terms, 2.5 takes the trapezoid rule
        d, w = 3, 1.0
        profile = RadialProfile(terms=((0.0, 0.5), (math.log(2.0), 1.0), (math.log(0.5), 3.0)))
        oracle, _ = integrate.quad(
            lambda r: float(profile(r)) ** p * r ** (p * w + d - 1), 0.0, math.inf,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        omega = dimension_constants(d).sphere_area
        assert radial_weighted_norm(profile, d, p, w) == pytest.approx(
            math.log(omega * oracle) / p, abs=1e-11
        )


@functools.cache
def _mpmath_power_log_integral(beta, lo, hi):
    """mp and the integral over (lo, hi) of r^{-1} ln^beta(1/r) dr at 40 digits, without
    omega_{d-1}.  A finite range is integrated in r itself, split at every decade of
    (lo, hi); one down to r = 0 in s = ln ln(1/r), where the integrand is e^{(beta+1) s}
    on (ln ln(1/hi), inf).  From beta = -5e5 on mp.quad no longer resolves that
    exponential, and the oracle is the antiderivative u_lo^{beta+1} / (-beta-1) of u^beta
    in u = ln(1/r)."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    b1 = mp.mpf(beta) + 1
    s_lo = mp.log(mp.log(1 / mp.mpf(hi)))
    if lo == 0 and beta <= -5e5:
        return mp, mp.exp(b1 * s_lo) / -b1
    if lo == 0:
        return mp, mp.quad(lambda s: mp.exp(b1 * s), [s_lo, mp.inf])
    edges = [mp.mpf(lo) * 10**j for j in range(max(1, round(math.log10(hi / lo))))]
    return mp, mp.quad(lambda r: mp.log(1 / r) ** beta / r, edges + [mp.mpf(hi)])


class TestTanhSinh:
    """radial_integral's closed form against mpmath's tanh-sinh quadrature at 40 digits."""

    @pytest.mark.parametrize("d", [1, 445, 10**5])
    @pytest.mark.parametrize("beta, lo, hi", [
        # finite u in (ln 2, ln(1/delta)), out to the ln^-3 and ln^2 ends of long ranges
        (-0.5, 1e-3, 0.5),
        (-1.0, 1e-6, 0.5),
        (-3.0, 1e-12, 0.5),
        (2.0, 1e-24, 0.5),
        # ranges of one rounding unit and of 1e-7 relative: ln(u_hi / u_lo) from hi - lo
        (3.0, 0.5, 0.5000000000000001),
        (-1.0, 1e-300, 1.0000001e-300),
        # u in (ln 2, inf): the mass far out in u
        (-1.01, 0.0, 0.5),
        (-2.5, 0.0, 0.5),
        # (ln 2)^beta = e^183000, e^1.8e9 and e^1.8e299: masses far beyond the floats
        (-5e5, 0.0, 0.5),
        (-5e9, 0.0, 0.5),
        (-5e299, 0.0, 0.5),
    ])
    def test_against_mpmath(self, beta, lo, hi, d):
        mp, integral = _mpmath_power_log_integral(beta, lo, hi)
        half = mp.mpf(d) / 2
        exact = float(mp.log(2) + half * mp.log(mp.pi) - mp.loggamma(half) + mp.log(integral))
        # a log below 1e6 to 1e-10, a relative 1e-10 of the mass; a larger one to 1e-15
        # of itself, whose own rounding is 1e-16 of it
        tolerance = {"abs": 1e-10} if abs(exact) < 1e6 else {"rel": 1e-15}
        assert radial_integral(beta, d, lo, hi) == pytest.approx(exact, **tolerance)


class TestGaussianUncertaintyProduct:
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 100, 200])
    def test_sharp_heisenberg_value(self, d):
        # the p = 2 product is exactly d^2 / (16 pi^2)
        assert math.exp(gaussian_log_product(d, 2.0)) == pytest.approx(
            d * d / (16.0 * math.pi**2), rel=1e-12
        )

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_matches_radial_quadrature(self, d, p):
        # independent path: assemble the product from the radial norms' logs
        g = gaussian_profile()
        log_ratio = p * (radial_weighted_norm(g, d, p, 1.0) - radial_weighted_norm(g, d, p, 0.0))
        assert gaussian_log_product(d, p) == pytest.approx(2.0 * log_ratio, abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_log_product(0, 2.0)
        with pytest.raises(ValueError):
            gaussian_log_product(1, 1.0)

    def test_large_dimension_finite(self):
        val = math.exp(gaussian_log_product(500, 2.0))
        assert math.isfinite(val) and val > 0

    @pytest.mark.parametrize("d", [1, 3, 100, 500, 512, 1000, 10**4, 10**6, 10**10,
                                   10**14, 10**16, 10**18])
    def test_against_mpmath(self, d):
        # an absolute 1e-12 on the log is a relative 1e-12 on the product
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        x = mp.mpf(d) / 2
        for p in (1.5, 2.0, 3.0, 7.5):
            exact = -p * mp.log(mp.pi * p) + 2 * (mp.loggamma(x + mp.mpf(p) / 2) - mp.loggamma(x))
            assert gaussian_log_product(d, p) == pytest.approx(float(exact), abs=1e-12)

    @pytest.mark.parametrize("p, log_product", [(300.0, "-850.671"), (1e100, "-2.83788e+100"),
                                                (1e306, "-2.83788e+306")])
    def test_log_product_beyond_the_product_floats(self, p, log_product):
        # ln product is -p (1 + ln 2 pi) to leading order; past p ~ 5e305 the ratio is
        # summed per unit p/2
        assert f"{gaussian_log_product(1, p):.6g}" == log_product

    @pytest.mark.parametrize("p, log_product", [(1e308, "-inf")])
    def test_product_outside_the_floats_is_a_usage_error(self, p, log_product):
        # from p ~ 6.3e307 on ln product is itself beyond the floats
        with pytest.raises(ValueError, match=f"no finite log: ln product = {log_product}$"):
            gaussian_log_product(1, p)


class TestLogMomentRatio:
    """ln V_p(F) / ||F||_p^p as the log mean of r^p under r^{d-1} F(r)^p."""

    @pytest.mark.parametrize("d", [1, 10, 10**3, 10**6, 10**9, 10**12, 10**15, 10**18, 3,
                                   pytest.param(10**300, id="1e300")])
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 7.5, 1e6])
    def test_g_1_is_the_gaussian(self, d, p):
        # g_1 = 2 exp(-pi r^2) has two equal-rate terms, which the kernel merges into one,
        # so its ratio is the one-term closed form bit for bit.  The expansion and the
        # trapezoid rule on the two terms missed it by up to 1.9e-9 at (1e9, 1e6) and
        # overflowed to NaN at d = 1e300; the difference of two norms' logs read 87.94
        # against 94.81 at d = 1e15, p = 3
        assert 2.0 * log_moment_ratio(gc_profile(1.0, d), d, p) == gaussian_log_product(d, p)

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("c", [2.0, 4.0])
    def test_g_c_against_mpmath(self, d, c):
        # p ln(||x| g_c||_p / ||g_c||_p) from the 40-digit norms of _mpmath_mixture_norm
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        profile = gc_profile(c, d)
        for p in (1.5, 2.5, 3.0, 7.5):
            exact = p * (mp.log(_mpmath_mixture_norm(mp, profile, d, p, 1.0))
                         - mp.log(_mpmath_mixture_norm(mp, profile, d, p, 0.0)))
            assert log_moment_ratio(profile, d, p) == pytest.approx(float(exact), rel=1e-12), p

    def test_scale_free(self):
        # the ratio does not see F's scale, only its shape
        for p in (2.0, 2.5):
            profile = gc_profile(2.0, 3)
            scaled = RadialProfile(terms=tuple((lc + 5.0, rate) for lc, rate in profile.terms))
            assert log_moment_ratio(scaled, 3, p) == pytest.approx(
                log_moment_ratio(profile, 3, p), abs=1e-14)

    def test_moment_apart_from_the_density(self):
        # p = 1e6 + 0.5 >> d: r^p F^p peaks at ln r ~ ln(p/d)/2 from the density's peak, so
        # the two sums take a node set each
        log_ratio = log_moment_ratio(gc_profile(1.0, 3), 3, 1e6 + 0.5)
        assert 2.0 * log_ratio == pytest.approx(gaussian_log_product(3, 1e6 + 0.5), rel=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="p must be finite"):
            log_moment_ratio(gaussian_profile(), 2, math.inf)
        with pytest.raises(ValueError, match="dimension"):
            log_moment_ratio(gaussian_profile(), 0, 2.0)

    def test_at_the_edge_of_ln_gamma(self):
        # ln Gamma(d/2) leaves the floats from d ~ 5.1e305 on; the mean never forms it
        assert log_moment_ratio(gc_profile(2.0, 10**306), 10**306, 3.0) == 1050.4023821099709


_THREE_TERMS = ((0.0, 1.0), (1.0, 2.0), (-3.0, 0.5))


def _inline_expansion(terms, n):
    """Reference: F^n's multinomial Gaussians, (ln coefficient, rate) arrays, with every
    exponent row and its log-multinomial coefficient built in place."""
    m = len(terms)
    log_c, rates = np.array(terms).T
    head = np.indices((n + 1,) * (m - 1)).reshape(m - 1, -1).T
    head = head[head.sum(axis=1) <= n]
    powers = np.column_stack([head, n - head.sum(axis=1)])
    with np.errstate(over="ignore"):
        log_coef = (radial._LOG_FACTORIAL[n] - radial._LOG_FACTORIAL[powers].sum(axis=1)
                    + powers @ log_c)
    return log_coef, powers @ rates


class TestMomentKernel:
    """_log_moments, the one three-case dispatch under the norms and the ratio."""

    @pytest.mark.parametrize("terms", [gaussian_profile().terms, gc_profile(2.0, 3).terms,
                                       _THREE_TERMS])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    def test_mean_is_a_quotient_of_masses(self, terms, p):
        # the mean of r^m under r^{k-1} F^p is the mass at k + m over the mass at k, for
        # any m, not only the ratio's m = p
        for k, m in ((3.0, 1.0), (5.0, 2.5), (7.0, 4.0)):
            log_mass, log_mean = radial._log_moments(terms, k, p, m)
            assert log_mass == pytest.approx(radial._log_moments(terms, k, p)[0], rel=1e-13)
            assert log_mean == pytest.approx(
                radial._log_moments(terms, k + m, p)[0] - log_mass, rel=1e-12, abs=1e-13)

    def test_norm_does_no_work_for_the_mean(self, monkeypatch):
        calls = collections.Counter()
        for name in ("_log_gamma_ratios", "_logsumexp"):
            def counted(*args, _name=name, _inner=getattr(radial, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(radial, name, counted)
        moments = []
        trapezoid = radial._log_trapezoid
        monkeypatch.setattr(radial, "_log_trapezoid",
                            lambda *args: moments.append(args[-1]) or trapezoid(*args))
        for profile in (gaussian_profile(), gc_profile(2.0, 3)):
            calls.clear()
            radial_weighted_norm(profile, 3, 2.0, 1.0)
            assert calls["_log_gamma_ratios"] == 0 and calls["_logsumexp"] <= 1
            log_moment_ratio(profile, 3, 2.0)  # the counters see the mean's work
            assert calls["_log_gamma_ratios"] == 1
        radial_weighted_norm(gc_profile(2.0, 3), 3, 2.5, 1.0)
        assert moments == [(0.0,)]

    def test_one_dispatch(self):
        # _expansion and _log_trapezoid are called from the kernel alone, so no second
        # three-case dispatch grows back
        tree = ast.parse(Path(radial.__file__).read_text())
        names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert "_log_moments" in names and "_reference" not in names
        for helper in ("_expansion", "_log_trapezoid"):
            callers = [node.name for node in tree.body if hasattr(node, "name")
                       for call in ast.walk(node) if isinstance(call, ast.Call)
                       and isinstance(call.func, ast.Name) and call.func.id == helper]
            assert callers == ["_log_moments"], helper

    @pytest.mark.parametrize("terms, n", [(gc_profile(2.0, 3).terms, n)
                                          for n in [*range(1, 13), 100, 1023]]
                             + [(_THREE_TERMS, n) for n in [*range(1, 9), 31]])
    def test_expansion_keeps_its_bytes(self, terms, n):
        for _ in range(2):  # the first call builds the table, the second reads it
            got = radial._expansion(terms, float(n))
            for array, expected in zip(got, _inline_expansion(terms, n), strict=True):
                assert array.dtype == expected.dtype and array.tobytes() == expected.tobytes()

    def test_multinomial_tables_are_read_only_and_bounded(self):
        radial._multinomial.cache_clear()
        try:
            for n in range(1, radial._MULTINOMIAL_CACHE_SIZE + 4):
                tables = radial._multinomial(n, 2)
                assert radial._multinomial(n, 2) is tables
                for array in tables:
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[0] = 0
            info = radial._multinomial.cache_info()
            assert info.currsize == info.maxsize == radial._MULTINOMIAL_CACHE_SIZE
        finally:
            radial._multinomial.cache_clear()

    @pytest.mark.parametrize("profile", [gaussian_profile(), gc_profile(2.0, 1)])
    def test_norm_with_a_mass_beyond_the_floats_raises(self, profile):
        # k = 1e306: ln Gamma(k/2) is beyond the floats (an OverflowError once)
        with pytest.raises(ValueError, match="r\\^1e\\+306 F\\(r\\)\\^1 has no finite log"):
            radial_weighted_norm(profile, 1, 1.0, 1e306)
