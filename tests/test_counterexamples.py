"""Tests for the sharpness and infeasibility function families.

Oracles: the two-scale family reduces to the plain Gaussian at c = 1 and is
self-dual on the grid; the sign matrices satisfy exact algebraic identities;
the outer products of the 1-D Rudin-Shapiro pair match the d-dimensional corner
doubling over the sign matrix; the translate families have integer-power norm
growth; the measured endpoint masses match their closed forms, scipy quadrature
in r and u = ln(1/r), and 40-digit mpmath quadrature.
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
    fourier_weighted_norm,
    gaussian_grid_function,
    grid_weighted_norm,
    random_bump,
    sample,
)
from uplab.radial import gaussian_log_product, log_moment_ratio
from uplab.specialfn import dimension_constants


class TestGcFamily:
    """The sweep returns logs: a relative tolerance on a product is an absolute one on
    its log."""

    def test_reduces_to_gaussian_at_c_one(self):
        # g_1 = 2 exp(-pi r^2); ratios are scale-invariant in the coefficient
        for d, p in [(1, 3.0), (2, 5.0)]:
            log_ratio = log_moment_ratio(cx.gc_profile(1.0, d), d, p)
            assert 2.0 * log_ratio == pytest.approx(gaussian_log_product(d, p), abs=1e-10)

    @pytest.mark.parametrize("d, p", [(456, 50.0), (456, 400.0), (1000, 200.0)])
    def test_ratio_beyond_normal_powers(self, d, p):
        # m^p and n^p are below the normal floats (e^-847 to e^-2524), their ratio is not
        log_ratio = log_moment_ratio(cx.gc_profile(1.0, d), d, p)
        assert 2.0 * log_ratio == pytest.approx(gaussian_log_product(d, p), abs=1e-10)

    def test_log_ratio_beyond_the_floats(self):
        # the product exp(-2.8e6) at c = 1 is carried as its log, as is the sweep's
        (log_product,) = cx.gc_infimum_sweep(3, 1e6, [1.0])
        assert log_product == pytest.approx(gaussian_log_product(3, 1e6), rel=1e-12)

    def test_grid_self_duality(self):
        # g_c equals its own Fourier transform
        from uplab.grid import default_spec

        spec = default_spec(1)
        profile = cx.gc_profile(2.0, 1)
        f = sample(lambda x: profile(np.abs(x)), spec)
        fhat = fourier_transform(f)
        assert np.max(np.abs(fhat.values - f.values)) < 1e-10

    def test_infimum_sweep_collapses(self):
        log_products = cx.gc_infimum_sweep(2, 5.0, [1, 2, 4, 8, 16, 32])
        assert all(b < a for a, b in zip(log_products, log_products[1:]))
        assert log_products[-1] < log_products[0] + math.log(0.1)

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
        with pytest.raises(ValueError, match="strictly increasing"):  # no step can decrease
            cx.gc_infimum_sweep(2, 5.0, [1.0, 2.0, 2.0])


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


def corner_doubling_signs(d, k):
    """Reference: the +-1 coefficients of the 2^d level-k members on the cells
    {0..2^k-1}^d, shape (2^d,) + (2^k,)*d.  Member i of level k+1 holds s_ij times
    member j of level k in corner block j of the doubled cube, where s is
    sign_matrix(d) and bit b of j selects the upper half on axis b."""
    s = cx.sign_matrix(d)
    m = 2**d
    signs = np.ones((m,) + (1,) * d, dtype=np.int8)
    for level in range(k):
        side = 2**level
        doubled = np.empty((m,) + (2 * side,) * d, dtype=np.int8)
        for j in range(m):
            corner = tuple(slice(side, 2 * side) if (j >> b) & 1 else slice(0, side)
                           for b in range(d))
            doubled[(slice(None),) + corner] = s[:, j].reshape((m,) + (1,) * d) * signs[j]
        signs = doubled
    return signs


def outer_product_signs(d, k):
    """Member i's signs as the outer product over the axes b of rs_pair(k)[bit b of i]."""
    pair = cx.rs_pair(k)
    return np.array([functools.reduce(np.multiply.outer, [pair[(i >> b) & 1] for b in range(d)])
                     for i in range(2**d)])


class TestSignTensors:
    @pytest.mark.parametrize("k", range(6))
    def test_pair_shape_and_storage(self, k):
        pair = cx.rs_pair(k)
        assert pair.dtype == np.int8
        assert pair.shape == (2, 2**k)
        assert np.all(np.abs(pair) == 1)
        with pytest.raises(ValueError):
            pair[0, 0] = -1

    @pytest.mark.parametrize("d", [1, 2])
    def test_family_holds_pair_and_bump(self, d):
        family = cx.rs_level(d, 3)
        assert family.pair.tobytes() == cx.rs_pair(3).tobytes()
        assert family.bump.shape == (16,)
        for array in (family.pair, family.bump):
            assert not array.flags.writeable

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", range(5))
    def test_outer_products_match_corner_doubling(self, d, k):
        # sign_matrix(d) is a Kronecker power, so the d-dimensional doubling factors
        assert np.array_equal(outer_product_signs(d, k), corner_doubling_signs(d, k))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", range(5))
    def test_shape_and_spectral_identity(self, d, k):
        # sum_i |P_i|^2 = 2^{d(k+1)} at every frequency, where P_i is the
        # trigonometric polynomial of member i's coefficients (acceptance 7's
        # identity with the bump factored out)
        signs = outer_product_signs(d, k)
        assert signs.dtype == np.int8
        assert signs.shape == (2**d,) + (2**k,) * d
        assert np.all(np.abs(signs) == 1)
        spectra = np.abs(np.fft.fftn(signs, axes=tuple(range(1, d + 1)))) ** 2
        expected = 2.0 ** (d * (k + 1))
        assert np.max(np.abs(spectra.sum(axis=0) - expected)) <= 1e-12 * expected

    @pytest.mark.parametrize("k", range(8))
    def test_one_dimensional_spectral_identity(self, k):
        # |P_k^|^2 + |Q_k^|^2 = 2^{k+1} at every frequency, zero-padded to resolve it
        spectra = np.abs(np.fft.fft(cx.rs_pair(k), n=4 * 2**k, axis=-1)) ** 2
        expected = 2.0 ** (k + 1)
        assert np.max(np.abs(spectra.sum(axis=0) - expected)) <= 1e-12 * expected

    @pytest.mark.parametrize("k", range(1, 8))
    def test_prefix_is_previous_level(self, k):
        assert np.array_equal(cx.rs_pair(k)[0, :2 ** (k - 1)], cx.rs_pair(k - 1)[0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_leading_member_extends_previous_level(self, d, k):
        lead = outer_product_signs(d, k)[0]
        half = 2 ** (k - 1)
        assert np.array_equal(lead[(slice(0, half),) * d], outer_product_signs(d, k - 1)[0])


@pytest.fixture(scope="module")
def families_2d():
    return [cx.rs_level(2, k) for k in range(4)]


class TestTranslateFamilies:

    def test_base_support_and_peak(self):
        base = cx.rs_level(1, 0).member(0)
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
            for member in map(fam.member, range(2**fam.d)):
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
        fams = [cx.rs_level(1, k) for k in range(3)]
        base_sq = np.abs(fourier_transform(fams[0].member(0)).values) ** 2
        for k in (1, 2):
            total = sum(np.abs(fourier_transform(fams[k].member(i)).values) ** 2 for i in range(2))
            expected = 2.0 ** (k + 1) * base_sq
            assert np.max(np.abs(total - expected)) <= 1e-6 * expected.max()

    def test_growth_slope(self, families_2d):
        measured = cx.rs_slope(families_2d[-1], 8.0, 0.1)
        assert measured == pytest.approx(0.65, rel=0.10)

    def test_growth_slope_other_exponents(self, families_2d):
        # slope = d/2 - d/p - theta
        p, theta = 6.0, 0.2
        predicted = 1.0 - 2.0 / p - theta
        assert cx.rs_slope(families_2d[-1], p, theta) == pytest.approx(predicted, rel=0.10)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", range(5))
    def test_matches_dense_roll_recursion(self, d, k):
        # reference: translate member j by 2^level along the axes of j's
        # bits, then mix the translates with the sign matrix, k times
        base = cx.rs_level(d, 0).member(0)
        s = cx.sign_matrix(d)
        cells = round(1.0 / base.spec.spacing)
        members = [base.values.real for _ in range(2**d)]
        for level in range(k):
            shifted = [
                np.roll(m, tuple(cells * 2**level * ((j >> b) & 1) for b in range(d)), axis=tuple(range(d)))
                for j, m in enumerate(members)
            ]
            members = [sum(int(s[i, j]) * shifted[j] for j in range(2**d)) for i in range(2**d)]
        family = cx.rs_level(d, k)
        built = [family.member(i) for i in range(2**d)]
        for member, expected in zip(built, members, strict=True):
            assert np.array_equal(member.values, expected)

    @pytest.mark.parametrize("d", [1, 2])
    def test_same_bytes_as_dense_mesh(self, d):
        # reference: in each occupied cell c, the doubling's signs[i][c] times the bump
        # at x - c, evaluated on the dense coordinate mesh and added onto +0.0
        base = cx.rs_level(d, 0).member(0)
        ax = base.spec.axis_coordinates()
        mesh = np.meshgrid(*([ax] * d), indexing="ij")
        bump = functools.reduce(np.multiply, [cx.rs_base_bump_1d(m) for m in mesh])
        assert base.values.tobytes() == bump.tobytes()
        cell = [np.floor(m).astype(int) for m in mesh]
        local = functools.reduce(np.multiply, [cx.rs_base_bump_1d(m - c) for m, c in zip(mesh, cell)])
        for k in range(5):
            inside = functools.reduce(np.logical_and, [(c >= 0) & (c < 2**k) for c in cell])
            index = tuple(np.where(inside, c, 0) for c in cell)
            family, signs = cx.rs_level(d, k), corner_doubling_signs(d, k)
            for i in range(2**d):
                expected = 0.0 + np.where(inside, signs[i][index] * local, 0.0)
                assert family.member(i).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_same_bytes_as_kron(self, d):
        # reference: the Kronecker product of the doubling's sign tensor and the tile,
        # added onto +0.0 over the support box
        base = cx.rs_level(d, 0).member(0)
        n, cells = base.spec.n, round(1.0 / base.spec.spacing)
        tile = base.values[(slice(n // 2, n // 2 + cells),) * d]
        for k in range(5):
            family, signs = cx.rs_level(d, k), corner_doubling_signs(d, k)
            assert family.bump.shape == (cells,)
            outer = functools.reduce(np.multiply.outer, [family.bump] * d)
            assert outer.tobytes() == tile.tobytes()
            for i in range(2**d):
                expected = np.zeros((n,) * d)
                expected[(slice(n // 2, n // 2 + cells * 2**k),) * d] += np.kron(signs[i], tile)
                built = family.member(i).values
                assert built.dtype == expected.dtype and built.shape == expected.shape
                assert built.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_support_grid_norms_keep_bits(self, d):
        # reference: the same ratios from the leading member of each level 1..4 on the
        # default 512^d grid; at d = 2, rows of 64 samples move the last bit of
        # (p, theta) = (4, 0.5) and (8, 0.8) at k = 1
        base = cx.rs_level(d, 0).member(0)
        families = [cx.rs_level(d, k) for k in range(1, 5)]
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
                assert cx.rs_growth_ratio(families[-1], p, theta) == expected

    @pytest.mark.parametrize("d", [1, 2])
    def test_member_on_smaller_grid(self, d):
        # a centered grid of spacing 1/16: the central samples of the default-grid member
        base = cx.rs_level(d, 0).member(0)
        family = cx.rs_level(d, 2)
        spec = GridSpec(d=d, n=128, half_width=4.0)
        lo = (base.spec.n - spec.n) // 2
        for i in range(2**d):
            full = family.member(i).values
            window = family.member(i, spec).values
            assert window.tobytes() == full[(slice(lo, lo + spec.n),) * d].tobytes()
        for bad in (GridSpec(d=d, n=64, half_width=2.0), GridSpec(d=d, n=128, half_width=8.0)):
            with pytest.raises(ValueError, match="cannot hold"):
                family.member(0, bad)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k_max", [2, 3, 4])
    def test_check_norms_each_level_once(self, d, k_max, monkeypatch):
        # one L^2 norm of the unit cell, one weighted norm per level 1..k_max and one
        # doubling run of the 1-D pair
        calls = {"norm": 0, "signs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cx, "grid_weighted_norm", counted("norm", cx.grid_weighted_norm))
        monkeypatch.setattr(cx, "sign_matrix", counted("signs", cx.sign_matrix))
        harness.rs_check(d, k_max, 8.0, 0.1)
        assert calls == {"norm": k_max + 1, "signs": 1}

    @pytest.mark.parametrize("d", [1, 2])
    def test_member_index_out_of_range(self, d):
        # bit decoding alone would read member 5 of a d = 2 family as member 1
        family = cx.rs_level(d, 1)
        for i in (2**d, -1, 5):
            with pytest.raises(ValueError, match=rf"member index must be 0\.\.{2**d - 1}"):
                family.member(i)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_streamed_transform_norms_match_fft(self, d, k):
        # a member carries its axis factors, so fourier_weighted_norm streams f^ from
        # their 1-D transforms; the reference is the n^d FFT of its samples
        family = cx.rs_level(d, k)
        for i in range(2**d):
            member = family.member(i)
            hat = fourier_transform(member)
            for term in [(2.0, 0.0), (4.0, 0.5), (8.0, 0.1)]:
                (streamed,) = fourier_weighted_norm(member, [term])
                (expected,) = grid_weighted_norm(hat, [term])
                assert abs(streamed - expected) <= 1e-13 * expected

    def test_level_validation(self):
        with pytest.raises(ValueError):
            cx.rs_level(2, 5)
        with pytest.raises(ValueError):
            cx.rs_pair(-1)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match=r"rs_level supports d in \(1, 2\), got 3"):
            cx.rs_level(3, 1)

    def test_slope_needs_three_levels(self):
        with pytest.raises(ValueError):
            cx.rs_slope(cx.rs_level(1, 1), 8.0, 0.1)


class TestStorage:
    def test_dtypes_and_read_only(self):
        family = cx.rs_level(2, 2)
        real = [gaussian_grid_function(default_spec(2)), cx.rs_level(2, 0).member(0)]
        real += [family.member(i) for i in range(4)]
        cplx = [random_bump(default_spec(2), seed=0), fourier_transform(real[0])]
        for fs, dtype in [(real, np.float64), (cplx, np.complex128)]:
            for f in fs:
                assert f.values.dtype == dtype
                assert not f.values.flags.writeable

    def test_rs_check_peak_memory(self):
        # rs_check holds no base grid: the 1-D pair and bump, and one member at a time
        # (its samples and d axis factors) on its level's support grid (at most 256^2
        # float64), plus one weighted norm's temporaries
        harness.rs_check(2, 3, 8.0, 0.1)  # warm-up
        tracemalloc.start()
        try:
            harness.rs_check(2, 3, 8.0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    def test_violated_check_peak_memory(self):
        # no base grid is held: the norms touch only the level-k support grids
        harness.cp_check(2, 8.0, 8.0, 0.1, 0.1)  # warm-up
        tracemalloc.start()
        try:
            harness.cp_check(2, 8.0, 8.0, 0.1, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20


def _log_tail_closed_form(delta, d):
    """ln omega_{d-1} + ln(ln ln(1/delta) - ln ln 2)."""
    return (dimension_constants(d).log_sphere_area
            + math.log(math.log(math.log(1.0 / delta)) - math.log(math.log(2.0))))


def _log_weighted_closed_form(d, p):
    """ln omega_{d-1} + (1 - p/2) ln ln 2 - ln(p/2 - 1)."""
    return (dimension_constants(d).log_sphere_area
            + (1.0 - 0.5 * p) * math.log(math.log(2.0)) - math.log(0.5 * p - 1.0))


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
        # is e^{(1 - p/2) s} on (ln ln 2, inf), a tail that mp.quad resolves
        a = 1 - mp.mpf(p) / 2
        weighted[p] = mp.quad(lambda s: mp.exp(a * s), [mp.log(mp.log(2)), mp.inf])
    return mp, tails, weighted


class TestEndpointMasses:
    """The masses are logs: a relative tolerance on a mass is an absolute one on its log."""

    @pytest.mark.parametrize("d", [1, 2, 3, 9, 50, 440])
    def test_against_closed_forms(self, d):
        for delta in ENDPOINT_DELTAS:
            assert cx.endpoint_tail_mass(delta, d) == pytest.approx(
                _log_tail_closed_form(delta, d), abs=1e-10
            )
        # p near 2 puts the mass far out in u = ln(1/r)
        for p in ENDPOINT_PS + (2.0000001, 3.0, 5.0, 1000.0):
            assert cx.endpoint_weighted_mass(d, p) == pytest.approx(
                _log_weighted_closed_form(d, p), abs=1e-10
            )

    @pytest.mark.parametrize("d", [1, 3, 50])
    def test_against_mpmath(self, d):
        mp, tails, weighted = _mpmath_endpoint_integrals()
        omega = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        for delta in ENDPOINT_DELTAS:
            assert cx.endpoint_tail_mass(delta, d) == pytest.approx(
                float(mp.log(omega * tails[delta])), abs=1e-10
            )
        for p in ENDPOINT_PS:
            assert cx.endpoint_weighted_mass(d, p) == pytest.approx(
                float(mp.log(omega * weighted[p])), abs=1e-10
            )

    @pytest.mark.parametrize("d", [1, 445, 10**5])
    def test_logs_beyond_the_floats_against_mpmath(self, d):
        # from d = 445 on every mass lies below the floats (omega_444 = e^{-723}), and at
        # p = 4000 the weighted mass (ln 2)^{-1999} / 1999 * omega_{d-1} exceeds them at
        # d = 1: the closed forms at 40 digits, ln omega_{d-1} included
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        half = mp.mpf(d) / 2
        log_omega = mp.log(2) + half * mp.log(mp.pi) - mp.loggamma(half)
        log_ln2 = mp.log(mp.log(2))
        for delta in ENDPOINT_DELTAS:
            exact = log_omega + mp.log(mp.log(mp.log(1 / mp.mpf(delta))) - log_ln2)
            assert cx.endpoint_tail_mass(delta, d) == pytest.approx(float(exact), abs=1e-10)
        for p in (3, 4, 4000):
            exact = log_omega + (1 - mp.mpf(p) / 2) * log_ln2 - mp.log(mp.mpf(p) / 2 - 1)
            assert cx.endpoint_weighted_mass(d, float(p)) == pytest.approx(
                float(exact), abs=1e-10
            )

    def test_weighted_mass_near_float_range(self):
        # from p = 3874 on the integrand (ln 2)^{-p/2} at r = 1/2 overflows, and from
        # p = 3913 the mass omega_0 ln^{1 - p/2}(2) / (p/2 - 1) does; omega_459 underflows
        # to 0 on its own, and at d = 1000 the mass is e^{-1307}.  As logs they all are
        # floats, out to p = 1e8 (e^{1.8e7}), where the log carries 1e-16 relative
        for d, p in ((1, 3880.0), (1, 3910.0), (1, 4000.0), (460, 4000.0), (1000, 4000.0)):
            assert cx.endpoint_weighted_mass(d, p) == pytest.approx(
                _log_weighted_closed_form(d, p), abs=1e-10
            )
        assert cx.endpoint_weighted_mass(1, 1e8) == pytest.approx(
            _log_weighted_closed_form(1, 1e8), rel=1e-15
        )

    def test_tail_mass_against_quadrature(self):
        # L^2 mass of r^{-d/2} ln^{-1/2}(1/r) over delta < r < 1/2
        for d, delta in [(1, 1e-3), (2, 1e-2)]:
            omega = dimension_constants(d).sphere_area
            oracle, _ = integrate.quad(
                lambda r: 1.0 / (r * math.log(1.0 / r)), delta, 0.5
            )
            assert cx.endpoint_tail_mass(delta, d) == pytest.approx(
                math.log(omega * oracle), abs=1e-9
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
            math.log(omega * oracle), abs=1e-10
        )

    def test_weighted_mass_validation(self):
        with pytest.raises(ValueError):
            cx.endpoint_weighted_mass(1, 2.0)  # diverges at p = 2

    def test_tail_mass_validation(self):
        with pytest.raises(ValueError):
            cx.endpoint_tail_mass(0.5, 1)
        with pytest.raises(ValueError):
            cx.endpoint_tail_mass(0.0, 1)
