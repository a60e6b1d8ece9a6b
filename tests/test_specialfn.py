"""Tests for the log-Gamma machinery and sphere/ball constants.

The integer factorials and the half-integer values of Gamma give exact
oracles; the recurrences give structural properties for everything else.
"""

import math

import pytest
from hypothesis import given, strategies as st

from uplab.specialfn import (
    DimensionConstants,
    _log_gamma_ratio,
    dimension_constants,
    log_gamma,
)


class TestLogGamma:
    def test_matches_factorials(self):
        # Gamma(n) = (n-1)!
        for n in range(1, 25):
            assert log_gamma(n) == pytest.approx(
                math.log(math.factorial(n - 1)), rel=1e-14
            )

    def test_half_integer_values(self):
        # Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2, Gamma(5/2) = 3 sqrt(pi)/4
        assert math.exp(log_gamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert math.exp(log_gamma(1.5)) == pytest.approx(
            0.5 * math.sqrt(math.pi), rel=1e-14
        )
        assert math.exp(log_gamma(2.5)) == pytest.approx(
            0.75 * math.sqrt(math.pi), rel=1e-14
        )

    @given(st.floats(min_value=0.1, max_value=300.0))
    def test_recurrence(self, x):
        # ln Gamma(x + 1) = ln x + ln Gamma(x)
        assert log_gamma(x + 1.0) == pytest.approx(
            math.log(x) + log_gamma(x), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)


class TestLogGammaRatio:
    @pytest.mark.parametrize("x", [0.5, 1.5, 10.0, 255.5, 256.0, 1e3, 1e6, 5e9, 5e13, 5e17])
    def test_against_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        for a in (0.0, 0.5, 0.75, 1.0, 1.5, 50.0, 1e6):
            exact = mp.loggamma(mp.mpf(x) + mp.mpf(a)) - mp.loggamma(mp.mpf(x))
            assert _log_gamma_ratio(x, a) == pytest.approx(float(exact), rel=1e-13, abs=1e-12)

    def test_beyond_the_floats_is_infinite(self):
        assert _log_gamma_ratio(0.5, 1e306) == math.inf
        assert _log_gamma_ratio(1e3, 1e306) == math.inf


class TestDimensionConstants:
    def test_small_dimension_values(self):
        # omega_0 = 2, omega_1 = 2 pi, omega_2 = 4 pi; v_1 = 2, v_2 = pi, v_3 = 4 pi / 3
        expected = {
            1: (2.0, 2.0),
            2: (2.0 * math.pi, math.pi),
            3: (4.0 * math.pi, 4.0 * math.pi / 3.0),
        }
        for d, (area, vol) in expected.items():
            geom = dimension_constants(d)
            assert geom.sphere_area == pytest.approx(area, rel=1e-14)
            assert math.exp(geom.log_ball_volume) == pytest.approx(vol, rel=1e-14)

    @given(st.integers(min_value=1, max_value=500))
    def test_area_volume_relation(self, d):
        # omega_{d-1} = d * v_d, in log domain
        geom = dimension_constants(d)
        assert geom.log_sphere_area == pytest.approx(
            math.log(d) + geom.log_ball_volume, rel=1e-12, abs=1e-12
        )

    @given(st.integers(min_value=3, max_value=500))
    def test_volume_recurrence(self, d):
        # v_d = (2 pi / d) v_{d-2}
        lhs = dimension_constants(d).log_ball_volume
        rhs = math.log(2.0 * math.pi / d) + dimension_constants(d - 2).log_ball_volume
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_is_frozen(self):
        geom = dimension_constants(2)
        assert isinstance(geom, DimensionConstants)
        with pytest.raises(AttributeError):
            geom.d = 3

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            dimension_constants(0)
