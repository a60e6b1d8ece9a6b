"""Tests for the sharpness and infeasibility function families.

Oracles: the two-scale family reduces to the plain Gaussian at c = 1 and is
self-dual on the grid; the sign matrices satisfy exact algebraic identities;
the translate families have integer-power norm growth; the measured endpoint
masses match their closed forms, scipy quadrature in r and u = ln(1/r), and
40-digit mpmath quadrature.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from uplab import counterexamples as cx
from uplab import harness
from uplab.grid import (
    GridSpec,
    default_spec,
    fourier_transform,
    gaussian_grid_function,
    grid_weighted_norm,
    random_bump,
    sample,
)
from uplab.radial import gaussian_log_product
from uplab.specialfn import dimension_constants


class TestGcFamily:
    """gc_uncertainty_ratio is a log: a relative tolerance on the ratio is an absolute
    one on its log."""

    def test_reduces_to_gaussian_at_c_one(self):
        # g_1 = 2 exp(-pi r^2); ratios are scale-invariant in the coefficient
        for d, p in [(1, 3.0), (2, 5.0)]:
            log_ratio = cx.gc_uncertainty_ratio(1.0, d, p)
            assert 2.0 * log_ratio == pytest.approx(gaussian_log_product(d, p), abs=1e-10)

    @pytest.mark.parametrize("d, p", [(456, 50.0), (456, 400.0), (1000, 200.0)])
    def test_ratio_beyond_normal_powers(self, d, p):
        # m^p and n^p are below the normal floats (e^-847 to e^-2524), their ratio is not
        log_ratio = cx.gc_uncertainty_ratio(1.0, d, p)
        assert 2.0 * log_ratio == pytest.approx(gaussian_log_product(d, p), abs=1e-10)

    def test_log_ratio_beyond_the_floats(self):
        # (m/n)^p = exp(-1.4e6) at c = 1, carried as its log
        log_ratio = cx.gc_uncertainty_ratio(1.0, 3, 1e6)
        assert 2.0 * log_ratio == pytest.approx(gaussian_log_product(3, 1e6), rel=1e-12)
        with pytest.raises(ValueError, match="outside the normal float range"):
            cx.gc_infimum_sweep(3, 1e6, [1.0])

    def test_grid_self_duality(self):
        # g_c equals its own Fourier transform
        from uplab.grid import default_spec

        spec = default_spec(1)
        profile = cx.gc_profile(2.0, 1)
        f = sample(lambda x: profile(np.abs(x)), spec)
        fhat = fourier_transform(f)
        assert np.max(np.abs(fhat.values - f.values)) < 1e-10

    def test_infimum_sweep_collapses(self):
        products = cx.gc_infimum_sweep(2, 5.0, [1, 2, 4, 8, 16, 32])
        assert all(b < a for a, b in zip(products, products[1:]))
        assert products[-1] < 0.1 * products[0]

    def test_sweep_rejects_subcritical(self):
        with pytest.raises(ValueError):
            cx.gc_infimum_sweep(2, 3.0, [1, 2, 4])
        with pytest.raises(ValueError):
            cx.gc_infimum_sweep(1, 10.0, [1, 2, 4])

    @pytest.mark.parametrize("c", [0.0, -1.0, 1e300, 1e-300, math.inf, math.nan])
    def test_profile_rejects_c_without_finite_square(self, c):
        with pytest.raises(ValueError, match="c must be positive"):
            cx.gc_profile(c, 2)

    def test_sweep_rejects_bad_schedule(self):
        with pytest.raises(ValueError):
            cx.gc_infimum_sweep(2, 5.0, [4, 2, 1])
        with pytest.raises(ValueError):
            cx.gc_infimum_sweep(2, 5.0, [0.5, 1.0])


class TestSignMatrix:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_orthogonality_and_first_column(self, d):
        m = cx.sign_matrix(d).astype(float)
        n = 2**d
        assert np.all(np.abs(m) == 1)
        assert np.all(m[:, 0] == 1)
        assert np.allclose(m @ m.T, n * np.eye(n))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_parallelogram_law(self, d, seed):
        m = cx.sign_matrix(d).astype(float)
        n = 2**d
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = np.sum(np.abs(m @ a) ** 2)
        rhs = n * np.sum(np.abs(a) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_leading_submatrix_recursion(self, d):
        m = cx.sign_matrix(d)
        half = 2 ** (d - 1)
        assert np.array_equal(m[:half, :half], cx.sign_matrix(d - 1))

    def test_read_only_int8(self):
        m = cx.sign_matrix(3)
        assert m.dtype == np.int8
        with pytest.raises(ValueError):
            m[0, 0] = -1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cx.sign_matrix(0)
        with pytest.raises(ValueError):
            cx.sign_matrix(cx.MAX_SIGN_DIM + 1)


class TestSignTensors:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", range(5))
    def test_shape_and_spectral_identity(self, d, k):
        # sum_i |P_i|^2 = 2^{d(k+1)} at every frequency, where P_i is the
        # trigonometric polynomial of member i's coefficients (acceptance 7's
        # identity with the bump factored out)
        signs = cx.rs_signs(d, k)
        assert signs.dtype == np.int8
        assert signs.shape == (2**d,) + (2**k,) * d
        assert np.all(np.abs(signs) == 1)
        spectra = np.abs(np.fft.fftn(signs, axes=tuple(range(1, d + 1)))) ** 2
        expected = 2.0 ** (d * (k + 1))
        assert np.max(np.abs(spectra.sum(axis=0) - expected)) <= 1e-12 * expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_leading_member_extends_previous_level(self, d, k):
        lead = cx.rs_signs(d, k)[0]
        half = 2 ** (k - 1)
        assert np.array_equal(lead[(slice(0, half),) * d], cx.rs_signs(d, k - 1)[0])


@pytest.fixture(scope="module")
def families_2d():
    base = cx.rs_base(2)
    return [cx.rs_level(base, 2, k) for k in range(4)]


class TestTranslateFamilies:

    def test_base_support_and_peak(self):
        base = cx.rs_base(1)
        vals = base.values.real
        x = base.spec.meshgrid()[0]
        assert np.all(vals[(x <= 0.1) | (x >= 0.9)] == 0.0)
        assert vals.max() == pytest.approx(1.0, rel=1e-12)

    def test_l2_mass_growth(self, families_2d):
        # ||f_{1,k}||_2^2 = 2^{dk} ||f||_2^2
        base_sq = families_2d[0].base_l2_sq
        for fam in families_2d:
            lead_sq = grid_weighted_norm(fam.member(0), [(2.0, 0.0)])[0] ** 2
            assert lead_sq == pytest.approx(4.0**fam.k * base_sq, rel=1e-6)

    def test_sup_norm_flat(self, families_2d):
        # translates have disjoint supports, so the sup norm never grows
        peak = np.abs(families_2d[0].member(0).values).max()
        for fam in families_2d:
            for member in map(fam.member, range(len(fam.signs))):
                assert np.abs(member.values).max() == pytest.approx(peak, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_fourier_square_sum_identity(self, families_2d, k):
        # sum_i |fhat_{i,k}|^2 = 4^{k+1} |fhat|^2 pointwise (d = 2)
        fam = families_2d[k]
        total = sum(np.abs(fourier_transform(fam.member(i)).values) ** 2 for i in range(4))
        base_sq = np.abs(fourier_transform(families_2d[0].member(0)).values) ** 2
        expected = 4.0 ** (k + 1) * base_sq
        scale = expected.max()
        assert np.max(np.abs(total - expected)) <= 1e-6 * scale

    def test_one_dimensional_identity(self):
        base = cx.rs_base(1)
        fams = [cx.rs_level(base, 1, k) for k in range(3)]
        base_sq = np.abs(fourier_transform(fams[0].member(0)).values) ** 2
        for k in (1, 2):
            total = sum(np.abs(fourier_transform(fams[k].member(i)).values) ** 2 for i in range(2))
            expected = 2.0 ** (k + 1) * base_sq
            assert np.max(np.abs(total - expected)) <= 1e-6 * expected.max()

    def test_growth_slope(self, families_2d):
        measured = cx.rs_slope(families_2d, 8.0, 0.1)
        assert measured == pytest.approx(0.65, rel=0.10)

    def test_growth_slope_other_exponents(self, families_2d):
        # slope = d/2 - d/p - theta
        p, theta = 6.0, 0.2
        predicted = 1.0 - 2.0 / p - theta
        assert cx.rs_slope(families_2d, p, theta) == pytest.approx(predicted, rel=0.10)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", range(5))
    def test_matches_dense_roll_recursion(self, d, k):
        # reference: translate member j by 2^level along the axes of j's
        # bits, then mix the translates with the sign matrix, k times
        base = cx.rs_base(d)
        s = cx.sign_matrix(d)
        cells = round(1.0 / base.spec.spacing)
        members = [base.values.real for _ in range(2**d)]
        for level in range(k):
            shifted = [
                np.roll(m, tuple(cells * 2**level * ((j >> b) & 1) for b in range(d)), axis=tuple(range(d)))
                for j, m in enumerate(members)
            ]
            members = [sum(int(s[i, j]) * shifted[j] for j in range(2**d)) for i in range(2**d)]
        family = cx.rs_level(base, d, k)
        built = [family.member(i) for i in range(len(family.signs))]
        for member, expected in zip(built, members, strict=True):
            assert np.array_equal(member.values, expected)

    @pytest.mark.parametrize("d", [1, 2])
    def test_same_bytes_as_dense_mesh(self, d):
        # reference: in each occupied cell c, signs[i][c] times the bump at x - c,
        # evaluated on the dense coordinate mesh and added onto +0.0
        base = cx.rs_base(d)
        ax = base.spec.axis_coordinates()
        mesh = np.meshgrid(*([ax] * d), indexing="ij")
        bump = functools.reduce(np.multiply, [cx.rs_base_bump_1d(m) for m in mesh])
        assert base.values.tobytes() == bump.tobytes()
        cell = [np.floor(m).astype(int) for m in mesh]
        local = functools.reduce(np.multiply, [cx.rs_base_bump_1d(m - c) for m, c in zip(mesh, cell)])
        for k in range(5):
            inside = functools.reduce(np.logical_and, [(c >= 0) & (c < 2**k) for c in cell])
            index = tuple(np.where(inside, c, 0) for c in cell)
            family = cx.rs_level(base, d, k)
            for i in range(2**d):
                expected = 0.0 + np.where(inside, family.signs[i][index] * local, 0.0)
                assert family.member(i).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_support_grid_norms_keep_bits(self, d):
        # reference: the same ratios from norms over the 512^d base grid; at
        # d = 2, rows shorter than 128 samples move the last bit of
        # (p, theta) = (4, 0.5), (5, 0.3), (8, 0.8) and (12, 0.05) at k = 0 or 1
        base = cx.rs_base(d)
        families = [cx.rs_level(base, d, k) for k in range(5)]
        base_l2_sq = grid_weighted_norm(base, [(2.0, 0.0)])[0] ** 2
        assert all(fam.base_l2_sq == base_l2_sq for fam in families)
        leading = [fam.member(0) for fam in families]
        for p in (3.0, 4.0, 5.0, 8.0, 12.0, math.inf):
            for theta in (0.05, 0.3, 0.5, 0.8):
                expected = [
                    2.0 ** (d * fam.k) * base_l2_sq
                    / (grid_weighted_norm(lead, [(p, theta)])[0]
                       * 2.0 ** (0.5 * d * fam.k + 0.5 * d))
                    for fam, lead in zip(families, leading)
                ]
                assert cx.rs_growth_ratio(families, p, theta) == expected

    @pytest.mark.parametrize("d", [1, 2])
    def test_member_on_smaller_grid(self, d):
        # a centered grid of the base spacing: the central samples of the base-grid member
        base = cx.rs_base(d)
        family = cx.rs_level(base, d, 2)
        spec = GridSpec(d=d, n=128, half_width=4.0)
        lo = (base.spec.n - spec.n) // 2
        for i in range(2**d):
            full = family.member(i).values
            window = family.member(i, spec).values
            assert window.tobytes() == full[(slice(lo, lo + spec.n),) * d].tobytes()
        for bad in (GridSpec(d=d, n=64, half_width=2.0), GridSpec(d=d, n=128, half_width=8.0)):
            with pytest.raises(ValueError, match="cannot hold"):
                family.member(0, bad)

    def test_level_validation(self):
        base = cx.rs_base(2)
        with pytest.raises(ValueError):
            cx.rs_level(base, 2, 5)
        with pytest.raises(ValueError):
            cx.rs_level(base, 1, 1)  # dimension mismatch
        with pytest.raises(ValueError):
            cx.rs_signs(2, -1)

    def test_slope_needs_three_levels(self):
        base = cx.rs_base(1)
        fams = [cx.rs_level(base, 1, k) for k in range(2)]
        with pytest.raises(ValueError):
            cx.rs_slope(fams, 8.0, 0.1)


class TestStorage:
    def test_dtypes_and_read_only(self):
        family = cx.rs_level(cx.rs_base(2), 2, 2)
        real = [gaussian_grid_function(default_spec(2)), cx.rs_base(2)]
        real += [family.member(i) for i in range(4)]
        cplx = [random_bump(default_spec(2), seed=0), fourier_transform(real[0])]
        for fs, dtype in [(real, np.float64), (cplx, np.complex128)]:
            for f in fs:
                assert f.values.dtype == dtype
                assert not f.values.flags.writeable

    def test_rs_check_peak_memory(self):
        # rs_check holds the base and one member at a time, each a 2 MiB
        # 512^2 float64 grid, plus the temporaries of one weighted norm
        harness.rs_check(2, 3, 8.0, 0.1)  # warm-up
        tracemalloc.start()
        try:
            harness.rs_check(2, 3, 8.0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_violated_check_peak_memory(self):
        # beside the 2 MiB base grid, the norms touch only the level-k support grids
        harness.cp_check(2, 8.0, 8.0, 0.1, 0.1)  # warm-up
        tracemalloc.start()
        try:
            harness.cp_check(2, 8.0, 8.0, 0.1, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


def _tail_closed_form(delta, d):
    """omega_{d-1} (ln ln(1/delta) - ln ln 2)."""
    omega = dimension_constants(d).sphere_area
    return omega * (math.log(math.log(1.0 / delta)) - math.log(math.log(2.0)))


def _weighted_closed_form(d, p):
    """omega_{d-1} ln^{1 - p/2}(2) / (p/2 - 1)."""
    omega = dimension_constants(d).sphere_area
    return omega * math.log(2.0) ** (1.0 - 0.5 * p) / (0.5 * p - 1.0)


ENDPOINT_DELTAS = harness.ENDPOINT_DELTAS
ENDPOINT_PS = (2.5, 4.0, 8.0)


@functools.cache
def _mpmath_endpoint_integrals():
    """The endpoint integrals without their omega_{d-1} factor, at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    tails = {}
    for delta in ENDPOINT_DELTAS:
        # the L^2 mass in r itself, split at every decade of (delta, 1/2)
        edges = [mp.mpf(delta) * 10**j for j in range(round(-math.log10(delta)))]
        tails[delta] = mp.quad(lambda r: 1 / (r * mp.log(1 / r)), edges + [mp.mpf(1) / 2])
    weighted = {}
    for p in ENDPOINT_PS:
        # |x|^{p theta} F^p r^{d-1} = 1 / (r ln^{p/2}(1/r)); in s = ln ln(1/r) it
        # is e^{(1 - p/2) s} on (ln ln 2, inf), a tail that tanh-sinh resolves
        a = 1 - mp.mpf(p) / 2
        weighted[p] = mp.quad(lambda s: mp.exp(a * s), [mp.log(mp.log(2)), mp.inf])
    return mp, tails, weighted


class TestEndpointMasses:
    @pytest.mark.parametrize("d", [1, 2, 3, 9, 50, 440])
    def test_against_closed_forms(self, d):
        for delta in ENDPOINT_DELTAS:
            assert cx.endpoint_tail_mass(delta, d) == pytest.approx(
                _tail_closed_form(delta, d), rel=1e-10
            )
        # p near 2 puts the mass far out in u = ln(1/r); at d = 9, p = 5 the
        # exponents of r sum to -1 only up to rounding
        for p in ENDPOINT_PS + (2.0000001, 3.0, 5.0, 1000.0):
            assert cx.endpoint_weighted_mass(d, p) == pytest.approx(
                _weighted_closed_form(d, p), rel=1e-10
            )

    @pytest.mark.parametrize("d", [1, 3, 50])
    def test_against_mpmath(self, d):
        mp, tails, weighted = _mpmath_endpoint_integrals()
        omega = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        for delta in ENDPOINT_DELTAS:
            assert cx.endpoint_tail_mass(delta, d) == pytest.approx(
                float(omega * tails[delta]), rel=1e-10
            )
        for p in ENDPOINT_PS:
            assert cx.endpoint_weighted_mass(d, p) == pytest.approx(
                float(omega * weighted[p]), rel=1e-10
            )

    def test_weighted_mass_near_float_range(self):
        # from p = 3874 on the integrand (ln 2)^{-p/2} at r = 1/2 overflows, but up to
        # p = 3912 the mass omega_0 ln^{1 - p/2}(2) / (p/2 - 1) is finite; from 3913 it
        # raises.  omega_459 underflows to 0 on its own; carried as its log it brings
        # the d = 460 mass back into the float range
        for d, p in ((1, 3880.0), (1, 3910.0), (460, 4000.0)):
            log_closed = (dimension_constants(d).log_sphere_area
                          + (1.0 - 0.5 * p) * math.log(math.log(2.0))
                          - math.log(0.5 * p - 1.0))
            assert cx.endpoint_weighted_mass(d, p) == pytest.approx(
                math.exp(log_closed), rel=1e-10
            )
        with pytest.raises(ValueError, match="exceeds the float range"):
            cx.endpoint_weighted_mass(1, 4000.0)
        # at d = 1000 the mass is e^{-1307}, below every float
        with pytest.raises(ValueError, match="lies below the floats"):
            cx.endpoint_weighted_mass(1000, 4000.0)

    def test_tail_mass_against_quadrature(self):
        # L^2 mass of r^{-d/2} ln^{-1/2}(1/r) over delta < r < 1/2
        for d, delta in [(1, 1e-3), (2, 1e-2)]:
            omega = dimension_constants(d).sphere_area
            oracle, _ = integrate.quad(
                lambda r: 1.0 / (r * math.log(1.0 / r)), delta, 0.5
            )
            assert cx.endpoint_tail_mass(delta, d) == pytest.approx(
                omega * oracle, rel=1e-9
            )

    def test_tail_mass_diverges(self):
        masses = [cx.endpoint_tail_mass(10.0**-k, 1) for k in (3, 6, 12, 24)]
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_weighted_mass_against_quadrature(self):
        # substitute u = ln(1/r): the mass becomes int_{ln 2}^inf u^{-p/2} du,
        # which quadrature handles without the r = 0 singularity
        d, p = 1, 4.0
        omega = dimension_constants(d).sphere_area
        oracle, _ = integrate.quad(
            lambda u: u ** (-0.5 * p), math.log(2.0), math.inf
        )
        assert cx.endpoint_weighted_mass(d, p) == pytest.approx(
            omega * oracle, rel=1e-10
        )

    def test_weighted_mass_validation(self):
        with pytest.raises(ValueError):
            cx.endpoint_weighted_mass(1, 2.0)  # diverges at p = 2

    def test_tail_mass_validation(self):
        with pytest.raises(ValueError):
            cx.endpoint_tail_mass(0.5, 1)
        with pytest.raises(ValueError):
            cx.endpoint_tail_mass(0.0, 1)
