"""Tests for parameter selection and the certified method bounds.

The half-mass normalization identity and the conjugate-exponent relations
serve as independent oracles for the derived quantities; the one-dimensional
case has exact rational values.
"""

import collections
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from uplab import harness
from uplab import params as params_module
from uplab import specialfn as specialfn_module
from uplab.params import (
    _BALL_VOLUMES,
    EQ_TOL,
    _critical_exponent,
    cp_classify,
    cp_delta,
    cp_feasible,
    cp_params,
    l2_params,
    log_threshold,
    lp_epsilon,
    lp_params,
    lp_regime,
    primary_up_admissible,
)
from uplab.specialfn import dimension_constants


def feasible_tuples():
    """Strategy producing random feasible (d, p, q, theta, phi) tuples."""

    @st.composite
    def build(draw):
        d = draw(st.integers(min_value=1, max_value=6))
        p = draw(st.floats(min_value=1.05, max_value=6.0))
        q = draw(st.floats(min_value=1.05, max_value=6.0))
        theta = draw(st.floats(min_value=0.05, max_value=3.0))
        phi = theta + d * (1.0 / p - 1.0 / q)
        assume(phi > 0.01)
        assume(theta / d > 0.5 - 1.0 / p + 1e-6)
        assume(cp_feasible(d, p, q, theta, phi))
        return d, p, q, theta, phi

    return build()


class TestL2Params:
    def test_one_dimensional_exact(self):
        params = l2_params(1)
        assert params.c_d == 0.125
        assert params.bound == 1.0 / 4096.0
        assert params.a == 1.0
        assert params.r == 2.0
        assert params.s == 2.0

    @given(st.integers(min_value=1, max_value=500))
    def test_half_mass_normalization(self, d):
        # the defining identity (c_d^d v_d)^{1/s} = 1/2, in log domain
        params = l2_params(d)
        geom = dimension_constants(d)
        lhs = (d * params.log_c_d + geom.log_ball_volume) / params.s
        assert lhs == pytest.approx(-math.log(2.0), rel=1e-12, abs=1e-12)

    @given(st.integers(min_value=1, max_value=500))
    def test_exponent_relations(self, d):
        params = l2_params(d)
        assert params.a == pytest.approx(2.0 * (d + 1) / (d + 3), rel=1e-15)
        assert params.r == pytest.approx((d + 3) / (d + 1), rel=1e-15)
        # r and s are Hoelder conjugates after dividing by a: 1/r + a/(2s)... the
        # structural relation actually used is r = 2/a and s = (d+3)/2
        assert params.r * params.a == pytest.approx(2.0, rel=1e-13)

    def test_linear_and_log_fields_agree(self):
        for d in (1, 2, 3, 10, 50, 200, 399, 401, 1000):
            params = l2_params(d)
            assert math.isfinite(params.log_bound)
            assert params.c_d == pytest.approx(math.exp(params.log_c_d), rel=1e-12)
            if params.bound > 0:
                assert params.bound == pytest.approx(
                    math.exp(params.log_bound), rel=1e-12
                )

    def test_ball_volume_table_matches_product_loop(self):
        # the table repeats the loop's multiplications in the loop's order
        for d in range(1, 401):
            v = 1.0 if d % 2 == 0 else 2.0
            for k in range(2 if d % 2 == 0 else 3, d + 1, 2):
                v *= 2.0 * math.pi / k
            assert _BALL_VOLUMES[d].hex() == v.hex()

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            l2_params(0)


class TestLpRegime:
    def test_dimension_one_always_subcritical(self):
        for p in (1.5, 2.0, 10.0, 1e6):
            assert lp_regime(1, p) == "subcritical"

    def test_critical_exponent(self):
        # 2d/(d-1) = 4 at d = 2
        assert lp_regime(2, 3.9) == "subcritical"
        assert lp_regime(2, 4.0) == "critical"
        assert lp_regime(2, 4.1) == "supercritical"
        assert lp_regime(3, 3.0) == "critical"

    def test_rejects_bad_p(self):
        for p in (1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                lp_regime(2, p)

    def test_critical_exponent_past_the_overflow_of_2d(self):
        # 2d is inf from d ~ 9e307 on, 2 (d/(d-1)) is 2; p = 3 is then supercritical
        assert lp_regime(10**308, 3.0) == "supercritical"
        assert _critical_exponent(10**308) == 2.0
        # scaling by 2 commutes with rounding: the bits of 2d/(d-1) below the overflow
        rng = random.Random(5)
        for d in list(range(2, 20001)) + [rng.randrange(2, 2**53) for _ in range(20000)]:
            assert _critical_exponent(d) == 2.0 * d / (d - 1)


class TestLpParams:
    def test_small_p_epsilon(self):
        # eps = p / (p - 1) for p <= 2
        assert lp_epsilon(1, 2.0) == 2.0
        assert lp_epsilon(3, 1.5) == 3.0
        assert lp_epsilon(2, 1.25) == 5.0

    def test_p2_d1_values(self):
        params = lp_params(1, 2.0)
        assert params.epsilon == 2.0
        assert params.a == pytest.approx(6.0 / 5.0, rel=1e-15)
        assert params.r == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert params.s == pytest.approx(5.0 / 2.0, rel=1e-15)

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=1.05, max_value=2.0),
    )
    def test_exponent_relations(self, d, p):
        params = lp_params(d, p)
        eps = params.epsilon
        # a is strictly between 1 and p, and (r, s) are the structural pair
        assert 1.0 < params.a < p
        assert params.r == pytest.approx(p / params.a, rel=1e-13)
        assert 1.0 / params.r + 1.0 / params.s == pytest.approx(1.0, rel=1e-13)
        assert params.a == pytest.approx(p * (d + eps) / (d + eps + p), rel=1e-13)
        assert primary_up_admissible(params.a, p) or p <= params.a  # a < p always
        assert 1.0 / params.a + 1.0 / p >= 1.0 - 1e-13

    @given(st.integers(min_value=2, max_value=50))
    def test_supercritical_epsilon_window(self, d):
        # midpoint of the admissible window for 2 < p < 2d/(d-1)
        crit = 2.0 * d / (d - 1)
        assume(crit > 2.05)
        p = 0.5 * (2.0 + crit)
        eps = lp_epsilon(d, p)
        lower = max(0.0, (d + p - d * p) / (p - 1.0))
        upper = (2.0 * d - p * (d - 1)) / (p - 2.0)
        assert lower < eps < upper

    def test_rejects_beyond_critical(self):
        with pytest.raises(ValueError):
            lp_params(2, 4.0)
        with pytest.raises(ValueError):
            lp_params(3, 5.0)


class TestPrimaryUpAdmissible:
    def test_truth_table(self):
        assert primary_up_admissible(1.5, 2.0)
        assert primary_up_admissible(1.2, 6.0)
        assert not primary_up_admissible(1.0, 2.0)  # a must exceed 1
        assert not primary_up_admissible(2.0, 2.0)  # a must be below p
        assert not primary_up_admissible(3.0, 4.0)  # 1/3 + 1/4 < 1


class TestCowlingPriceParams:
    def test_feasibility_truth_table(self):
        assert cp_feasible(1, 2.0, 2.0, 1.0, 1.0)
        assert cp_feasible(2, 2.0, 2.0, 1.5, 1.5)
        # homogeneity violated
        assert not cp_feasible(1, 2.0, 2.0, 1.0, 0.5)
        # theta margin violated: theta/d = 0.05 < 1/2 - 1/8
        assert not cp_feasible(2, 8.0, 8.0, 0.1, 0.1)
        # endpoint is not feasible (strict inequality required)
        assert not cp_feasible(1, 4.0, 4.0, 0.25, 0.25)
        assert not cp_feasible(1, 2.0, 2.0, -1.0, -1.0)

    def test_heisenberg_specialization_values(self):
        # d=1, p=q=2, theta=phi=1: delta window (0, 9/4) -> midpoint 9/8,
        # then eps = eps~ = 3 and a = 4/3
        assert cp_delta(1, 2.0, 2.0, 1.0, 1.0) == pytest.approx(9.0 / 8.0, rel=1e-14)
        bundle = cp_params(1, 2.0, 2.0, 1.0, 1.0)
        assert bundle.epsilon == pytest.approx(3.0, rel=1e-13)
        assert bundle.epsilon_tilde == pytest.approx(3.0, rel=1e-13)
        assert bundle.a == pytest.approx(4.0 / 3.0, rel=1e-13)

    @settings(max_examples=200)
    @given(feasible_tuples())
    def test_bundle_identities(self, tup):
        d, p, q, theta, phi = tup
        bundle = cp_params(d, p, q, theta, phi)
        eps, eps_t = bundle.epsilon, bundle.epsilon_tilde
        # the two marginal parameter choices agree on the shared exponent a
        a_tilde = q / (1.0 + q * phi / (d + eps_t))
        assert bundle.a == pytest.approx(a_tilde, rel=1e-11, abs=1e-11)
        # b s1 recovers d + eps
        assert bundle.b * bundle.s1 == pytest.approx(d + eps, rel=1e-11)
        assert bundle.b_tilde * bundle.s1_tilde == pytest.approx(d + eps_t, rel=1e-11)
        # weighted-epsilon balance across the two sides
        assert eps * theta / (d + eps) == pytest.approx(
            eps_t * phi / (d + eps_t), rel=1e-11, abs=1e-12
        )
        # exponent sanity
        assert 1.0 < bundle.a < min(p, q) + 1e-12
        assert bundle.r == pytest.approx(2.0 / bundle.a, rel=1e-13)
        assert math.isfinite(bundle.log_bound)

    @settings(max_examples=100)
    @given(feasible_tuples())
    def test_delta_in_window(self, tup):
        d, p, q, theta, phi = tup
        delta = cp_delta(d, p, q, theta, phi)
        base = 1.0 + d / (phi * q)
        assert 0.0 < delta < base
        assert delta < 1.0 + d / (theta * p)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError, match="is not feasible"):
            cp_params(2, 8.0, 8.0, 0.1, 0.1)

    def test_window_lost_to_rounding(self):
        # feasible, but d/(phi q) ~ 1e-17 leaves 1 + d/(phi q) and the window's ends at 1
        assert cp_feasible(4, 3.0, 3.0, 1e17, 1e17)
        with pytest.raises(ValueError, match="lost to rounding: theta and phi are too large"):
            cp_params(4, 3.0, 3.0, 1e17, 1e17)

    def test_homogeneity_forces_equal_margins(self):
        # under homogeneity, theta-margin == phi-margin, so one margin decides
        for d, p, q, theta in [(1, 4.0, 2.0, 0.5), (2, 3.0, 1.5, 1.0)]:
            phi = theta + d * (1.0 / p - 1.0 / q)
            m_theta = theta / d - (0.5 - 1.0 / p)
            m_phi = phi / d - (0.5 - 1.0 / q)
            assert m_theta == pytest.approx(m_phi, abs=EQ_TOL)

    @settings(max_examples=300)
    @given(
        d=st.integers(min_value=1, max_value=6),
        p=st.floats(min_value=1.01, max_value=10.0),
        q=st.floats(min_value=1.01, max_value=10.0),
        theta=st.one_of(
            st.floats(min_value=1e-15, max_value=1e-6),
            st.floats(min_value=1e-6, max_value=4.0),
        ),
        at_endpoint=st.booleans(),
    )
    def test_one_classifier(self, d, p, q, theta, at_endpoint):
        if at_endpoint:
            assume(p > 2)
            theta = d * (0.5 - 1.0 / p)
        phi = theta + d * (1.0 / p - 1.0 / q)
        assume(phi > 0)
        assume(abs(1.0 / q + phi / d - 1.0 / p - theta / d) <= EQ_TOL)
        cls = cp_classify(d, p, q, theta, phi)
        assert cp_feasible(d, p, q, theta, phi) == (cls == "feasible")
        if p <= 2:
            assert cls != "endpoint"
        if at_endpoint:
            assert cls == "endpoint"


class TestComputeThreshold:
    """log_threshold takes and returns logs: a relative tolerance on T is an absolute
    one on ln T."""

    def test_scaling_in_norm_ratio(self):
        params = l2_params(1)
        base = log_threshold(0.0, 0.0, params)
        assert base == pytest.approx(math.log(params.c_d), abs=1e-13)
        doubled = log_threshold(math.log(2.0), 0.0, params)
        expo = (params.d + params.epsilon) / params.d
        assert doubled == pytest.approx(base + expo * math.log(2.0), abs=1e-13)

    def test_rejects_zero_function(self):
        with pytest.raises(ValueError):
            log_threshold(-math.inf, 0.0, l2_params(1))


class TestDimensionConstantsOnce:
    """Each bundle builds its sphere/ball constants once and carries ln omega_{d-1}; a sweep
    reads them as columns and builds none."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(d):
            counted.append(d)
            return dimension_constants(d)

        monkeypatch.setattr(params_module, "dimension_constants", counting)
        return counted

    def test_one_call_per_bundle(self, calls):
        l2_params(7)
        lp_params(7, 1.5)
        cp_params(1, 2.0, 3.0, 0.4, 0.4 + 1.0 / 2.0 - 1.0 / 3.0)
        assert calls == [7, 7, 1]

    def test_one_call_per_sweep_column(self, monkeypatch):
        # a sweep builds no sphere/ball constants but lp's floor calibration at d = 50, and
        # each of its columns is one call over every d
        built, columns = [], collections.Counter()
        constants = specialfn_module.DimensionConstants
        monkeypatch.setattr(specialfn_module, "DimensionConstants",
                            lambda *args, **kwargs: built.append(kwargs["d"]) or
                            constants(*args, **kwargs))
        for name in ("dimension_logs", "l2_columns", "lp_columns", "gaussian_log_products"):
            def counted(ds, *args, _name=name, _inner=getattr(harness, name)):
                columns[_name] += 1
                assert ds == tuple(range(1, 501))
                return _inner(ds, *args)
            monkeypatch.setattr(harness, name, counted)
        harness.heisenberg_sweep(500)
        assert built == [] and columns == {"dimension_logs": 1, "l2_columns": 1,
                                           "gaussian_log_products": 1}
        columns.clear()
        harness.lp_sweep(1.5, 500)
        assert built == [50] and columns == {"dimension_logs": 1, "lp_columns": 1,
                                             "gaussian_log_products": 1}

    def test_sweeps_build_no_bundle_per_row(self, monkeypatch):
        # a sweep reads the closed forms as plain tuples: it builds no WigdersonParams but
        # lp's calibration at d = 50
        built, bundle = [], params_module.WigdersonParams

        def counting(*args, **kwargs):
            built.append(args[0])
            return bundle(*args, **kwargs)

        monkeypatch.setattr(params_module, "WigdersonParams", counting)
        l2_params(7)
        lp_params(7, 1.5)
        assert built == [7, 7]
        built.clear()
        harness.heisenberg_sweep(500)
        assert built == []
        harness.lp_sweep(1.5, 500)
        assert built == [50]

    @pytest.mark.parametrize("d", [1, 2, 399, 400, 10**6])
    def test_carries_sphere_area_bits(self, d):
        expected = dimension_constants(d).log_sphere_area
        assert l2_params(d).log_sphere_area == expected
        assert lp_params(d, 1.5).log_sphere_area == expected
