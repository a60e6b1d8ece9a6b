"""Tests for radial-reduction integrals.

Closed-form Gaussian moments and power-law tails give exact oracles; the
mixture norms and the tanh-sinh paths are cross-checked against direct
scipy.integrate calls, a 40-digit mpmath quadrature written independently
here, and mpmath's incomplete Gamma function.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from uplab import radial
from uplab.counterexamples import gc_infimum_sweep, gc_profile
from uplab.grid import default_spec
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
            radial_weighted_norm(gaussian_profile(coefficient=2.0), 2, 2.0, 0.0)
        )

    def test_evaluation(self):
        prof = RadialProfile(terms=((2.0, 1.0), (1.0, 4.0)))
        r = 0.5
        expected = 2.0 * math.exp(-math.pi * 0.25) + math.exp(-math.pi)
        assert prof(r) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_array_evaluation_same_bytes_as_term_sum(self, d):
        # reference: each term as a fresh array, added to a zeroed sum in term order
        def term_sum(profile, r):
            out = np.zeros_like(r)
            with np.errstate(over="ignore"):
                for coef, rate in profile.terms:
                    out = out + coef * np.exp(-math.pi * rate * r * r)
            return out

        spec = default_spec(d)
        mesh = np.meshgrid(*([spec.axis_coordinates()] * d), indexing="ij")
        r = np.sqrt(sum(m * m for m in mesh))
        # the last profile is negative with samples that underflow: c * 0.0 = -0.0
        # there, and only a sum started from +0.0 turns them into +0.0
        underflowing = gaussian_profile(rate=50.0, coefficient=-1.5)
        assert np.signbit(-1.5 * np.exp(-math.pi * 50.0 * r * r)).any()
        for profile in (gaussian_profile(), gc_profile(2.0, d), gc_profile(4.0, d),
                        RadialProfile(terms=((2.0, 1.0), (1.0, 4.0), (0.5, 0.25))),
                        underflowing):
            values = profile(r)
            expected = term_sum(profile, r)
            assert values.dtype == expected.dtype and values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()
            assert profile(0.75) == term_sum(profile, np.asarray(0.75))
        zeros = underflowing(r)[r > 3.0]  # exp(-pi 50 r^2) < 1e-600
        assert not zeros.any() and not np.signbit(zeros).any()

    def test_power_log_evaluation(self):
        prof = RadialProfile(power_log=(-0.5, -0.5))
        r = 0.25
        assert float(prof(r)) == pytest.approx(
            0.25**-0.5 * math.log(4.0) ** -0.5, rel=1e-14
        )


class TestRadialIntegral:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_gaussian_total_mass(self, d):
        # int of exp(-pi |x|^2) over R^d is exactly 1: its L^1 norm, whose log is 0
        assert radial_weighted_norm(gaussian_profile(), d, 1.0, 0.0) == pytest.approx(
            0.0, abs=1e-12
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
        with pytest.raises(ValueError, match="invalid radial range"):
            radial_integral(RadialProfile(power_log=(-0.5, 0.0)), 1, 1.0, 0.5)


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
        profile = RadialProfile(terms=((1.0, rate1), (0.5, rate2)))
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
        mixture = RadialProfile(terms=((0.25, 1.0), (0.75, 1.0)))
        log_norm = radial_weighted_norm(mixture, d, 2.0, weight)
        assert log_norm == pytest.approx(
            radial_weighted_norm(gaussian_profile(), d, 2.0, weight), abs=1e-10
        )

    def test_power_log_norm_matches_closed_form(self):
        # |f|^p = r^{-1} ln^{-2}(1/r); substituting u = ln(1/r) gives
        # int_{ln 2}^inf u^{-2} du = 1 / ln 2 exactly
        d, p = 1, 4.0
        prof = RadialProfile(power_log=(-0.25, -0.5))
        log_norm = radial_weighted_norm(prof, d, p, 0.0)
        omega = dimension_constants(d).sphere_area
        assert log_norm == pytest.approx(math.log(omega / math.log(2.0)) / p, abs=1e-10)

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
            float(exact), abs=radial.QUAD_RTOL
        )


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
            exact = mp.log(_mpmath_mixture_norm(mp, profile, d, p, w))
            log_norm = radial_weighted_norm(profile, d, p, w)
            assert log_norm == pytest.approx(float(exact), abs=radial.QUAD_RTOL), (d, p, w, c)

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
            math.log(omega * oracle) / p, abs=1e-11
        )

    def test_no_adaptive_quadrature(self, monkeypatch):
        # every Gaussian-mixture norm is a closed form or the trapezoid rule in t = ln r
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called on a Gaussian profile")

        monkeypatch.setattr(radial, "_quad", refuse)
        for p, theta in [(2.0, 1.0), (2.5, 1.0)]:  # integer and non-integer p
            report = cp_check(2, p, p, theta, theta)
            assert report.classification == "feasible" and report.passed
        for p in (5.0, 4.5):
            assert all(0 < x < math.inf for x in gc_infimum_sweep(2, p, [1.0, 2.0, 4.0]))


def _mpmath_power_log_integral(mp, rate, beta, lo, hi, d):
    """omega_{d-1} * integral over (lo, hi) of r^{rate-1} ln^beta(1/r) dr at mp's precision:
    in u = ln(1/r) it is the lower incomplete Gamma function, or a power at rate 0."""
    u_lo = mp.log(1 / mp.mpf(hi))
    u_hi = mp.inf if lo == 0 else mp.log(1 / mp.mpf(lo))
    b1 = mp.mpf(beta) + 1
    if rate == 0:
        integral = (u_hi**b1 - u_lo**b1) / b1
    else:
        integral = mp.gammainc(b1, rate * u_lo, rate * u_hi) / mp.mpf(rate) ** b1
    return 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2) * integral


class TestTanhSinh:
    @pytest.mark.parametrize("alpha, beta, d, lo, hi", [
        # u^beta singular at u = 0 (r = 1): rate 1 over u in (0, inf), with the t = ln u tail
        (0.0, -0.5, 1, 0.0, 1.0),
        (0.0, -0.9, 1, 0.0, 1.0),
        # rate 0 over the finite u in (0, ln 10)
        (-1.0, -0.5, 1, 0.1, 1.0),
        (-2.0, -0.9, 2, 0.1, 1.0),
        # rate > 0, u in (ln 2, inf): the peak at the lower end, then the tail
        (-1.0, -0.5, 2, 0.0, 0.5),
        # rate 0.1, beta = 3: the peak at u = 30 lies in the t = ln u tail
        (-0.9, 3.0, 1, 0.0, 0.5),
        # rate 0, u in (ln 2, inf): the mass far out in t = ln u
        (-1.0, -1.01, 1, 0.0, 0.5),
        (-1.0, -2.5, 1, 0.0, 0.5),
        # rate < 0: e^{2u} rising over the finite u in (ln 2, ln 10)
        (-3.0, 1.0, 1, 0.1, 0.5),
    ])
    def test_against_mpmath(self, alpha, beta, d, lo, hi):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        exact = _mpmath_power_log_integral(mp, alpha + d, beta, lo, hi, d)
        val = radial_integral(RadialProfile(power_log=(alpha, beta)), d, lo, hi)
        assert val == pytest.approx(float(exact), rel=radial.QUAD_RTOL)

    def test_singular_end_too_close_to_the_log_singularity(self):
        # ln^-0.965(1/r) near r = 1: the mass within _TS_END of u = 0 exceeds QUAD_RTOL
        with pytest.raises(ValueError, match="too close to the non-integrable"):
            radial_integral(RadialProfile(power_log=(-1.0, -0.965)), 1, 0.1, 1.0)
        with pytest.raises(ValueError, match="non-integrable singularity at r=1"):
            radial_integral(RadialProfile(power_log=(-1.0, -1.0)), 1, 0.1, 1.0)

    def test_rule_on_its_own(self):
        # exact for u^-1/2 at the singular end and for a polynomial; no interval, no mass
        assert radial._quad(lambda u: u**-0.5, 0.0, 4.0) == pytest.approx(4.0, rel=1e-15)
        assert radial._quad(lambda u: 3 * u * u, -1.0, 2.0) == pytest.approx(9.0, rel=1e-15)
        assert radial._quad(lambda u: u, 1.0, 1.0) == 0.0
        # the nodes next to lo = 0 are distances, far below lo + length's rounding
        seen = []
        radial._quad(lambda u: seen.append(u.min()) or np.ones_like(u), 0.0, 1.0)
        assert 0.0 < min(seen) <= 2.0 * radial._TS_END

    def test_unresolved_integrand_raises(self):
        # a jump inside the interval: the rule converges only algebraically
        with pytest.raises(ValueError, match="did not converge"):
            radial._quad(lambda u: (u > 0.3).astype(float), 0.0, 1.0)


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
        # independent path: assemble the product from the radial norms' logs
        g = gaussian_profile()
        log_ratio = p * (radial_weighted_norm(g, d, p, 1.0) - radial_weighted_norm(g, d, p, 0.0))
        assert math.log(gaussian_uncertainty_product(d, p)) == pytest.approx(
            2.0 * log_ratio, abs=1e-10
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_uncertainty_product(0, 2.0)
        with pytest.raises(ValueError):
            gaussian_uncertainty_product(1, 1.0)

    def test_large_dimension_finite(self):
        val = gaussian_uncertainty_product(500, 2.0)
        assert math.isfinite(val) and val > 0

    @pytest.mark.parametrize("d", [1, 3, 100, 500, 512, 1000, 10**4, 10**6, 10**10,
                                   10**14, 10**16, 10**18])
    def test_against_mpmath(self, d):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        x = mp.mpf(d) / 2
        for p in (1.5, 2.0, 3.0, 7.5):
            exact = mp.exp(-p * mp.log(mp.pi * p) + 2 * (mp.loggamma(x + mp.mpf(p) / 2)
                                                         - mp.loggamma(x)))
            assert gaussian_uncertainty_product(d, p) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("p, log_product", [(300.0, "-850.671"), (1e100, "-2.83788e+100"),
                                                (1e306, "-2.83788e+306"), (1e308, "-inf")])
    def test_product_outside_the_floats_is_a_usage_error(self, p, log_product):
        # ln product is -p (1 + ln 2 pi) to leading order; past p ~ 2.5e305 it is summed
        # per unit p, and from 6.3e307 on it is itself beyond the floats
        with pytest.raises(ValueError, match=f"ln product = {re.escape(log_product)}$"):
            gaussian_uncertainty_product(1, p)
