"""Tests for sampled grid functions and the discrete continuous-Fourier
transform.

The self-dual Gaussian, the shift/modulation law, and Plancherel give
machine-precision oracles for the transform; norms are checked against
analytic values.
"""

import ast
import functools
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uplab
from uplab import counterexamples as cx
from uplab.grid import (
    BOUNDARY_ERROR,
    BOUNDARY_WARN,
    BUMP_TERMS,
    GridFunction,
    GridSpec,
    _RADIUS_CACHE_SIZE,
    _Maxima,
    _ball_sum,
    _boundary_ratio,
    _bump_terms,
    _half_rows,
    _pairwise,
    _radius_levels,
    _row_blocks,
    _separable_norms,
    _transform_rows,
    _weighted_sums,
    default_spec,
    fourier_transform,
    fourier_weighted_norm,
    gaussian_grid_function,
    gaussian_mixture_grid_function,
    grid_weighted_norm,
    random_bump,
    sample,
    write_grid_csv,
)
from uplab.params import primary_up_admissible
from uplab.radial import gaussian_profile, radial_weighted_norm

# the 512^2 grid of the translate families, beside the default grids
SPECS = [default_spec(1), default_spec(2), default_spec(3), GridSpec(d=2, n=512, half_width=16.0)]
# the level-2 support grid of the d = 2 translate family: 256^2 at spacing 1/16
SUPPORT_SPEC = cx._support_grid(2, 2)
# grids whose radius the norms take from the cache: the default grids, their duals,
# a support grid and half-widths other than the default ones
RADIUS_SPECS = (
    [default_spec(d) for d in (1, 2, 3)] + [default_spec(d).dual() for d in (1, 2, 3)]
    + [SUPPORT_SPEC, GridSpec(d=1, n=256, half_width=3.0)]
)


def dense_meshgrid(spec):
    """Reference: d full-shape coordinate arrays, one per axis."""
    ax = spec.axis_coordinates()
    return list(np.meshgrid(*([ax] * spec.d), indexing="ij"))


def phase_factor_transform(f):
    """Reference: (-1)^k phase factors on both grids around an uncentered fftn."""
    n, d = f.spec.n, f.spec.d
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    vals = f.values
    for axis in range(d):
        vals = vals * alt.reshape([n if ax == axis else 1 for ax in range(d)])
    vals = np.fft.fftn(vals)
    for axis in range(d):
        vals = vals * alt.reshape([n if ax == axis else 1 for ax in range(d)])
    global_phase = (1.0 if (n // 2) % 2 == 0 else -1.0) ** d
    return vals * (f.spec.spacing**d * global_phase)


def rotation_transform(f):
    """Reference: fftn with x = 0 rotated to index 0 and back."""
    vals = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values)))
    return vals * f.spec.spacing**f.spec.d


def dense_radius(spec):
    """Reference: |x| over a dense mesh."""
    return np.sqrt(sum(m * m for m in dense_meshgrid(spec)))


def dense_summands(f, terms):
    """Reference: for each (p, w) the terms |x_k|^{p w} |f_k|^p (|x_k|^w |f_k| for
    p = inf) over the grid, from full-grid arrays over a dense mesh."""
    radius = dense_radius(f.spec)
    mags = np.abs(f.values)
    return [radius**w * mags if p == math.inf else radius ** (p * w) * mags**p
            for p, w in terms]


def dense_sums(f, terms):
    """Reference: each sum behind a norm over the whole grid, np.sum (np.max for
    p = inf) of its dense terms."""
    return [float(np.max(summands, initial=0.0)) if p == math.inf else float(np.sum(summands))
            for (p, _), summands in zip(terms, dense_summands(f, terms))]


def dense_norms(f, terms):
    """Reference: each norm from the dense sums."""
    cell = f.spec.spacing**f.spec.d
    return tuple(total if p == math.inf else (total * cell) ** (1.0 / p)
                 for (p, _), total in zip(terms, dense_sums(f, terms)))


def assert_ball_sum(f, p, radius):
    """_ball_sum against math.fsum of the same dense terms |f_k|^p over |x_k| <= radius,
    the correctly rounded sum.  Summing n nonnegative terms with at most h rounded
    additions on any term's path errs by at most h u / (1 - h u) of the sum, u = eps/2
    (Higham, SIAM J. Sci. Comput. 14 (1993)).  numpy's pairwise sum of m terms takes
    h <= ceil(log2 m) + 17: the halvings, then a leaf of up to 128 terms in 8
    accumulators, their 3 combining additions and up to 7 terms left over.  math.fsum of
    the block sums adds one rounding."""
    summands = np.abs(f.values[dense_radius(f.spec) <= radius]) ** p
    total = _ball_sum(f.spec, f.values, p, radius)
    u = np.finfo(float).eps / 2
    h = math.ceil(math.log2(max(summands.size, 1))) + 18
    exact = math.fsum(summands.tolist())
    assert abs(total - exact) <= h * u / (1 - h * u) * exact, (p, radius, summands.size)


def full_peak_ratio(f):
    """Reference: max |f| over the faces of the grid over max |f| over the whole grid."""
    mags = np.abs(f.values)
    edge = max(np.take(mags, i, axis=axis).max() for axis in range(f.spec.d) for i in (0, -1))
    peak = mags.max()
    return 0.0 if peak == 0.0 else float(edge / peak)


def translate_member(d):
    """Member 1 of a signed-translate family; at d = 3 on a 64^3 grid of spacing 1/8."""
    if d < 3:
        return cx.rs_level(d, 2).member(1)
    spec = GridSpec(d=3, n=64, half_width=4.0)
    bump = cx.rs_base_bump_1d(spec.axis_coordinates())
    base = GridFunction(spec=spec, values=functools.reduce(np.multiply.outer, [bump] * 3))
    (base_l2,) = grid_weighted_norm(base, [(2.0, 0.0)])
    unit_cell = bump[32:40]  # the 8 samples on the unit cell
    family = cx.RSFamily(d=3, k=1, pair=cx.rs_pair(1), bump=unit_cell, base_l2_sq=base_l2**2)
    return family.member(1, spec)


def plancherel_defect(f: GridFunction) -> float:
    """| ||f||_2 - ||f^||_2 | / ||f||_2 on the grid."""
    (norm_f,) = grid_weighted_norm(f, [(2.0, 0.0)])
    if norm_f == 0.0:
        raise ValueError("plancherel_defect is undefined for the zero function")
    (norm_hat,) = grid_weighted_norm(fourier_transform(f), [(2.0, 0.0)])
    return abs(norm_f - norm_hat) / norm_f


def primary_up_defect(f: GridFunction, a: float, p: float) -> float:
    """The quotient ||f||_a ||f^||_a / (||f||_p ||f^||_p); >= 1 - 1e-6 when resolved."""
    if not primary_up_admissible(a, p):
        raise ValueError(f"(a={a}, p={p}) violates 1 < a < p, 1/a + 1/p >= 1")
    fhat = fourier_transform(f)
    f_a, f_p = grid_weighted_norm(f, [(a, 0.0), (p, 0.0)])
    hat_a, hat_p = grid_weighted_norm(fhat, [(a, 0.0), (p, 0.0)])
    return (f_a * hat_a) / (f_p * hat_p)


def read_grid_csv(path) -> GridFunction:
    """The grid a write_grid_csv file holds: float64 when its im column is all zero."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing grid geometry header")
        fields = dict(part.split("=") for part in header[1:].split())
        spec = GridSpec(
            d=int(fields["d"]), n=int(fields["n"]), half_width=float(fields["half_width"])
        )
        fh.readline()  # column header
        data = np.loadtxt(fh, delimiter=",")
    if data.ndim == 1:
        data = data.reshape(1, -1)
    vals = data[:, 1] + 1j * data[:, 2] if data[:, 2].any() else data[:, 1].copy()
    return GridFunction(spec=spec, values=vals.reshape((spec.n,) * spec.d))


def dense_bump(spec, seed):
    """Reference: the bump sum_t c_t g_t, g_t = exp(-A_t), A_t = pi |x - x_t|^2 / w_t^2,
    from the same draws, each term one exp over a dense mesh; and the pointwise bound
    4 eps sum_t |c_t| g_t (1 + A_t) on a sampler's distance from it, plus
    (d + 1)(1 + |c_t|) 2^-1074 per term.  exp has condition number A_t, so every
    rounding of the exponent, relative to its size, moves g_t by up to A_t times it;
    the roundings of the exps, products and sums move it by a few eps.  The absolute
    part covers the roundings that land among the subnormals, where no relative bound
    holds."""
    rng = np.random.default_rng(seed)
    span = 0.25 * spec.half_width
    centers = rng.uniform(-span, span, size=(BUMP_TERMS, spec.d))
    widths = rng.uniform(0.7, 1.1, size=BUMP_TERMS)
    coefs = rng.normal(size=BUMP_TERMS) + 1j * rng.normal(size=BUMP_TERMS)
    mesh = dense_meshgrid(spec)
    total = np.zeros((spec.n,) * spec.d, dtype=complex)
    relative = np.zeros((spec.n,) * spec.d)
    absolute = 0.0
    for c, w, center in zip(coefs, widths, centers, strict=True):
        exponent = math.pi * sum((m - x) ** 2 for m, x in zip(mesh, center)) / (w * w)
        g = np.exp(-exponent)
        total += c * g
        relative += abs(c) * g * (1.0 + exponent)
        absolute += (spec.d + 1) * (1.0 + abs(c)) * 2.0**-1074
    return total, 4.0 * np.finfo(float).eps * relative + absolute


@pytest.fixture
def fresh_radius_cache():
    """An empty radius cache, emptied again afterwards: a test that swaps how coordinates
    are made must not read, or leave behind, radii made the other way."""
    _radius_levels.cache_clear()
    yield
    _radius_levels.cache_clear()


class TestGridSpec:
    def test_spacing_and_dual(self):
        spec = GridSpec(d=1, n=256, half_width=8.0)
        assert spec.spacing == pytest.approx(1.0 / 16.0)
        assert spec.dual().spacing == pytest.approx(1.0 / 16.0)
        assert spec.dual_half_width == pytest.approx(8.0)

    def test_dual_of_dual_is_identity(self):
        for d in (1, 2, 3):
            spec = default_spec(d)
            assert spec.dual().dual() == spec

    def test_axis_coordinates_centered(self):
        spec = GridSpec(d=1, n=64, half_width=4.0)
        ax = spec.axis_coordinates()
        assert ax[0] == -4.0
        assert ax[spec.n // 2] == 0.0
        assert ax[-1] == pytest.approx(4.0 - spec.spacing)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 4, "n": 64, "half_width": 4.0},
            {"d": 1, "n": 100, "half_width": 4.0},
            {"d": 1, "n": 8, "half_width": 4.0},
            {"d": 1, "n": 64, "half_width": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestBroadcastAxes:
    def test_meshgrid_axes_are_open(self):
        spec = default_spec(3)
        shapes = [m.shape for m in spec.meshgrid()]
        assert shapes == [(64, 1, 1), (1, 64, 1), (1, 1, 64)]
        assert np.broadcast_shapes(*shapes) == (64, 64, 64)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.d}n{s.n}")
    def test_same_bytes_as_dense_mesh(self, spec, monkeypatch, fresh_radius_cache):
        profile = cx.gc_profile(2.0, spec.d)

        def evaluate():
            return [
                gaussian_grid_function(spec).values,
                gaussian_grid_function(spec, rate=2.5).values,
                random_bump(spec, seed=3).values,
                sample(lambda *mesh: profile((sum(m * m for m in mesh)) ** 0.5), spec).values,
            ]

        built = evaluate()
        monkeypatch.setattr(GridSpec, "meshgrid", dense_meshgrid)
        for new, old in zip(built, evaluate(), strict=True):
            assert new.dtype == old.dtype
            assert new.tobytes() == old.tobytes()


class TestGridFunction:
    def test_shape_validation(self):
        spec = GridSpec(d=2, n=16, half_width=2.0)
        with pytest.raises(ValueError):
            GridFunction(spec=spec, values=np.zeros(16))

    def test_rejects_nonfinite(self):
        spec = GridSpec(d=1, n=16, half_width=2.0)
        vals = np.zeros(16, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            GridFunction(spec=spec, values=vals)

    def test_values_read_only(self):
        f = gaussian_grid_function(default_spec(1))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_keeps_real_and_complex_dtypes(self):
        spec = GridSpec(d=1, n=16, half_width=2.0)
        real = np.zeros(16)
        assert GridFunction(spec=spec, values=real).values is real
        assert GridFunction(spec=spec, values=np.zeros(16, dtype=int)).values.dtype == np.float64
        assert GridFunction(spec=spec, values=np.zeros(16, dtype=complex)).values.dtype == complex

    def test_sample_rejects_nonfinite(self):
        spec = GridSpec(d=1, n=16, half_width=2.0)
        with pytest.raises(ValueError):
            sample(lambda x: np.where(x > 0, np.nan, x), spec)

    def test_sample_rejects_another_shape(self):
        # the generator returns the grid's shape: one open axis of a 2-D grid is refused
        spec = GridSpec(d=2, n=16, half_width=2.0)
        with pytest.raises(ValueError, match=r"^values shape \(16, 1\) != grid shape \(16, 16\)$"):
            sample(lambda x, y: x, spec)


class TestFourierTransform:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_self_duality(self, d):
        spec = default_spec(d)
        gh = fourier_transform(gaussian_grid_function(spec))
        r2 = sum(m * m for m in spec.dual().meshgrid())
        exact = np.exp(-math.pi * r2)
        assert np.max(np.abs(gh.values - exact)) < 1e-10

    def test_dilated_gaussian(self):
        # exp(-pi c x^2) transforms to c^{-1/2} exp(-pi xi^2 / c)
        spec = default_spec(1)
        c = 2.5
        gh = fourier_transform(gaussian_grid_function(spec, rate=c))
        xi = spec.dual().meshgrid()[0]
        exact = c**-0.5 * np.exp(-math.pi * xi * xi / c)
        assert np.max(np.abs(gh.values - exact)) < 1e-10

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_plancherel(self, seed):
        f = random_bump(default_spec(1), seed=seed)
        assert plancherel_defect(f) < 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    def test_double_transform_is_reflection(self, d):
        f = random_bump(default_spec(d), seed=7)
        ff = fourier_transform(fourier_transform(f))
        refl = f.values
        for ax in range(d):
            # centered-grid reflection: sample k -> -x_k sits at n-k (mod n)
            refl = np.roll(np.flip(refl, axis=ax), 1, axis=ax)
        assert np.max(np.abs(ff.values - refl)) < 1e-10

    def test_shift_modulation_law(self):
        # shifting f by s multiplies the transform by exp(-2 pi i s xi)
        spec = default_spec(1)
        shift_cells = 8
        s = shift_cells * spec.spacing
        f = random_bump(spec, seed=3)
        shifted = GridFunction(spec=spec, values=np.roll(f.values, shift_cells))
        lhs = fourier_transform(shifted).values
        xi = spec.dual().meshgrid()[0]
        rhs = fourier_transform(f).values * np.exp(-2j * math.pi * s * xi)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_linearity(self):
        spec = default_spec(1)
        f = random_bump(spec, seed=1)
        g = random_bump(spec, seed=2)
        combo = GridFunction(spec=spec, values=2.0 * f.values - 1j * g.values)
        lhs = fourier_transform(combo).values
        rhs = 2.0 * fourier_transform(f).values - 1j * fourier_transform(g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_phase_factor_transform(self, d):
        spec = default_spec(d)
        for f in (gaussian_grid_function(spec), random_bump(spec, seed=d), translate_member(d)):
            assert np.array_equal(fourier_transform(f).values, phase_factor_transform(f))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_bytes_as_rotation(self, d):
        # the sign flips are exact; zeros keep the +0.0 the rotation leaves them
        spec = default_spec(d)
        for f in (gaussian_grid_function(spec), random_bump(spec, seed=d), translate_member(d)):
            assert fourier_transform(f).values.tobytes() == rotation_transform(f).tobytes()

    def test_rejects_nondecaying_function(self):
        spec = default_spec(1)
        ones = sample(lambda x: np.ones_like(x), spec)
        with pytest.raises(ValueError):
            fourier_transform(ones)

    def test_warns_on_marginal_boundary(self):
        # a wide Gaussian that has not fully decayed at |x| = 8
        spec = default_spec(1)
        f = gaussian_grid_function(spec, rate=0.1)
        with pytest.warns(UserWarning):
            fourier_transform(f)


class TestNorms:
    def test_gaussian_l2(self):
        # ||exp(-pi x^2)||_2 = 2^{-1/4} in one dimension
        f = gaussian_grid_function(default_spec(1))
        assert grid_weighted_norm(f, [(2.0, 0.0)])[0] == pytest.approx(2.0**-0.25, rel=1e-12)

    def test_gaussian_weighted(self):
        # int x^2 exp(-2 pi x^2) dx = 2^{-1/2} / (4 pi)
        f = gaussian_grid_function(default_spec(1))
        moment = grid_weighted_norm(f, [(2.0, 1.0)])[0] ** 2
        assert moment == pytest.approx(2.0**-0.5 / (4.0 * math.pi), rel=1e-10)

    def test_sup_norm(self):
        f = gaussian_grid_function(default_spec(1))
        assert grid_weighted_norm(f, [(math.inf, 0.0)])[0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weighted_sup_norm(self, d):
        # the p -> inf limit of the weighted p-norm: max |x|^w |f(x)|
        for f in (gaussian_grid_function(default_spec(d)), random_bump(default_spec(d), seed=d)):
            for w in (0.1, 1.0):
                expected = np.max(dense_radius(f.spec) ** w * np.abs(f.values))
                assert grid_weighted_norm(f, [(math.inf, w)])[0] == expected
            assert grid_weighted_norm(f, [(math.inf, 0.0)])[0] == np.max(np.abs(f.values))

    def test_weighted_sup_norm_of_gaussian(self):
        # max x exp(-pi x^2) = (2 pi e)^{-1/2}, at x = (2 pi)^{-1/2}; the
        # samples miss that point by at most half a spacing
        f = gaussian_grid_function(GridSpec(d=1, n=1024, half_width=8.0))
        assert grid_weighted_norm(f, [(math.inf, 1.0)])[0] == pytest.approx(
            (2.0 * math.pi * math.e) ** -0.5, rel=1e-3
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_terms_and_tails_match_full_array_reference(self, d):
        # blocks of 2^15 samples added pairwise are numpy's pairwise order over
        # the whole power-of-two grid, so every norm keeps its bits; a ball, whose
        # complement is the chain's tail, is within the pairwise bound of the exact sum.
        # The noise is as large at the block ends as anywhere else
        terms = [(2.0, 0.0), (1.5, 0.0), (2.0, 1.0), (1.5, 1.0), (3.0, 0.5),
                 (math.inf, 0.0), (math.inf, 0.3)]
        spec = default_spec(d)
        noise = GridFunction(spec, np.random.default_rng(d).normal(size=(spec.n,) * d))
        for f in (gaussian_grid_function(spec), random_bump(spec, seed=d), translate_member(d),
                  noise):
            assert grid_weighted_norm(f, terms) == dense_norms(f, terms)
            for radius in (0.0, 1.0, 2.5):
                for p in (2.0, 1.5, 3.0):
                    assert_ball_sum(f, p, radius)
            for p, w in terms:
                assert grid_weighted_norm(f, [(p, w)]) == dense_norms(f, [(p, w)])

    @pytest.mark.parametrize("spec", RADIUS_SPECS, ids=lambda s: f"d{s.d}n{s.n}L{s.half_width:g}")
    def test_cached_radius_matches_dense_reference(self, spec):
        # the weights read the spec's cached radius index (the first two terms have
        # none), as does a ball on its box
        terms = [(2.0, 0.0), (4.0 / 3.0, 0.0), (2.0, 1.0), (1.5, 1.0), (math.inf, 0.3)]
        rng = np.random.default_rng(spec.n)
        noise = rng.normal(size=(spec.n,) * spec.d) + 1j * rng.normal(size=(spec.n,) * spec.d)
        functions = [gaussian_grid_function(spec), GridFunction(spec, noise)]
        if spec == SUPPORT_SPEC:
            functions.append(cx.rs_level(2, 2).member(1, spec))
        for f in functions:
            assert grid_weighted_norm(f, terms) == dense_norms(f, terms)
            for sums_terms in (terms, terms[:2]):
                sums = _weighted_sums(f.spec, f.values, sums_terms)
                assert np.array(sums).tobytes() == np.array(dense_sums(f, sums_terms)).tobytes()
            for radius in (0.0, 1.0, 2.5):
                assert_ball_sum(f, 4.0 / 3.0, radius)

    def test_gaussian_against_radial_norm(self):
        # smooth weights |x|^{pw} (pw in {0, 2}) keep the 64^3 Riemann sum spectrally accurate
        terms = [(2.0, 0.0), (1.5, 0.0), (2.0, 1.0), (1.0, 2.0), (4.0, 0.5)]
        norms = grid_weighted_norm(gaussian_grid_function(default_spec(3)), terms)
        for (p, w), norm in zip(terms, norms, strict=True):
            log_exact = radial_weighted_norm(gaussian_profile(), 3, p, w)
            assert math.log(norm) == pytest.approx(log_exact, abs=1e-10)

    def test_ball_sum_peak_memory_at_d3(self):
        # the ball reads its box by blocks of at most 2^15 samples: 0.01 MiB at T = 0.45
        # (a 5^3 box), 1.03 MiB for the complex bump when the box is the whole grid
        for f in (gaussian_grid_function(default_spec(3)), random_bump(default_spec(3), 0)):
            for radius in (0.45, math.inf):
                _ball_sum(f.spec, f.values, 1.5, radius)  # warm-up
                tracemalloc.start()
                try:
                    _ball_sum(f.spec, f.values, 1.5, radius)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 1.5 * 2**20, (f.values.dtype, radius)

    def test_rejects_bad_exponents(self):
        f = gaussian_grid_function(default_spec(1))
        for p, w in [(0.5, 0.0), (2.0, -1.0), (math.inf, -1.0), (-math.inf, 0.0),
                     (math.nan, 0.0), (2.0, math.nan)]:
            with pytest.raises(ValueError):
                grid_weighted_norm(f, [(p, w)])
            with pytest.raises(ValueError):
                grid_weighted_norm(f, [(2.0, 0.0), (p, w)])


SUPPORT_TERMS = [(p, w) for p in (1.5, 2.0, 8.0, math.inf) for w in (0.0, 0.3, 1.0, 2.5)]


class TestBallSum:
    """_ball_sum reads the index box within its radius on each axis and sums the samples
    whose |x_k|, read through the cached radius index, is at most the radius."""

    @staticmethod
    def radii(spec):
        """0, one sample's |x| and the float just below it, a radius between two samples'
        |x|, the far corner sqrt(d) L, the grid's largest |x|, one beyond it, and inf."""
        distinct = np.unique(dense_radius(spec))
        sample = distinct[len(distinct) // 3]
        return [0.0, sample, np.nextafter(sample, 0.0), 0.5 * (distinct[7] + distinct[8]),
                math.sqrt(spec.d) * spec.half_width, distinct[-1], 2.0 * distinct[-1], math.inf]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_the_samples_of_the_dense_ball(self, d):
        # |f|^p = 1 sums exactly: the number of samples with |x_k| <= radius, a sample
        # at the radius counted and one a float beyond it not
        spec = default_spec(d)
        ones = np.ones((spec.n,) * d)
        radius = dense_radius(spec)
        distinct = np.unique(radius)
        boundaries = distinct if d == 1 else distinct[::len(distinct) // 50]
        for r in [*self.radii(spec), *boundaries, *np.nextafter(boundaries, 0.0)]:
            assert _ball_sum(spec, ones, 1.5, r) == np.count_nonzero(radius <= r), r

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_dense_fsum(self, d):
        # the balls are nested, so a count names one; the whole grid is summed once
        spec = default_spec(d)
        radius = dense_radius(spec)
        balls = {np.count_nonzero(radius <= r): r for r in self.radii(spec)}
        rng = np.random.default_rng(d)
        noise = rng.normal(size=(spec.n,) * d) + 1j * rng.normal(size=(spec.n,) * d)
        for f in (gaussian_grid_function(spec), random_bump(spec, seed=d),
                  GridFunction(spec, noise)):
            for r in balls.values():
                assert_ball_sum(f, 1.2, r)


class TestSupportBox:
    """A GridFunction with a _support box computes its terms on the box only; every
    norm keeps the bits of the dense whole-grid reference."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", range(5))
    def test_members_keep_bits(self, d, k):
        family = cx.rs_level(d, k)
        last = 2**d - 1  # mixed signs from level 1 on
        for spec in (cx._support_grid(d, k), family.member(0).spec):
            member = family.member(last, spec)
            assert member._support is not None
            expected = dense_norms(member, SUPPORT_TERMS)
            # |i x| = hypot(+-0, x) = |x| exactly, so the complex member has the same reference
            rotated = GridFunction(spec, 1j * member.values, _support=member._support)
            assert np.abs(rotated.values).tobytes() == np.abs(member.values).tobytes()
            for f in (member, rotated):
                assert grid_weighted_norm(f, SUPPORT_TERMS) == expected

    def test_blocks_that_miss_the_box(self):
        # the level-3 support grid at d = 2 is 256^2 in two blocks, and the box fills
        # the upper one; single terms take the same path as several
        family = cx.rs_level(2, 3)
        spec = cx._support_grid(2, 3)
        f = family.member(3, spec)
        assert any(rows.stop <= f._support[0].start for rows in _row_blocks(spec))
        for term in SUPPORT_TERMS:
            assert grid_weighted_norm(f, [term]) == dense_norms(f, [term])

    @pytest.mark.parametrize("spec, box", [
        (GridSpec(d=1, n=256, half_width=8.0), (slice(3, 200),)),
        (GridSpec(d=2, n=256, half_width=8.0), (slice(100, 201), slice(30, 77))),
        (default_spec(3), (slice(5, 30), slice(0, 64), slice(17, 18))),
    ], ids=["d1", "d2", "d3"])
    def test_noise_in_boxes_across_blocks(self, spec, box):
        # nonzero samples on every face of the box, which starts and ends inside blocks
        rng = np.random.default_rng(spec.d)
        values = np.zeros((spec.n,) * spec.d, dtype=complex)
        shape = values[box].shape
        values[box] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        f = GridFunction(spec, values, _support=box)
        assert grid_weighted_norm(f, SUPPORT_TERMS) == dense_norms(f, SUPPORT_TERMS)

    @pytest.mark.parametrize("d", [1, 2])
    def test_base_and_window_keep_bits(self, d):
        base = cx.rs_level(d, 0).member(0)
        bare = GridFunction(base.spec, base.values)
        assert grid_weighted_norm(base, SUPPORT_TERMS) == grid_weighted_norm(bare, SUPPORT_TERMS)
        assert cx.rs_level(d, 0).base_l2_sq == grid_weighted_norm(bare, [(2.0, 0.0)])[0] ** 2

    @pytest.mark.parametrize("case", [1, 2, "512^2", "64^3"])
    def test_weight_beyond_the_floats_still_raises(self, case):
        # |x|^(p w) is inf beyond |x| = 1.  At d = 2 the level-0 box reaches past it, where
        # the member is 0: inf * 0 = NaN inside the box, and the sum raises naming (p, w).
        # At d = 1 the box lies inside |x| < 1, so the sums are the dense sums of the
        # terms on the box, in a zero grid, and the NaN beyond the box is never formed.
        # On the 8-block 512^2 grid and the 8-block 64^3 grid the box starts past the first
        # block, whose max is 0: a max over the blocks that drops a NaN read 0 at p = inf
        if case == "512^2":
            member = cx.rs_level(2, 0).member(0)
        elif case == "64^3":
            member = translate_member(3)
        else:
            member = cx.rs_level(case, 0).member(0, cx._support_grid(case, 0))
        spec = member.spec
        blocks = _row_blocks(spec)
        if case in ("512^2", "64^3"):
            assert len(blocks) == 8 and member._support[0].start >= blocks[0].stop
        cell = spec.spacing**spec.d
        for p, w in [(1e308, 0.1), (8.0, 1e308), (math.inf, 1e308)]:
            terms = [(2.0, 0.0), (p, w)]
            with np.errstate(over="ignore", invalid="ignore"):
                summands = dense_summands(member, terms)
            if case != 1:
                if p == math.inf:  # the NaN lies in the box
                    assert np.isnan(summands[1][member._support]).any()
                with pytest.raises(ValueError, match=re.escape(f"p={p:g}, w={w:g}")):
                    grid_weighted_norm(member, terms)
                continue
            expected = []
            for (q, _), dense in zip(terms, summands):
                on_box = np.zeros(dense.shape)
                on_box[member._support] = dense[member._support]
                expected.append(on_box.max() if q == math.inf else (on_box.sum() * cell) ** (1.0 / q))
            assert np.isnan(summands[1]).any()
            assert grid_weighted_norm(member, terms) == tuple(expected)

    def test_refuses_a_box_that_misses_a_sample(self):
        member = cx.rs_level(2, 1).member(1)
        rows, cols = member._support
        GridFunction(member.spec, member.values, _support=member._support)
        half = (rows.stop - rows.start) // 2
        for box in [(slice(rows.start, rows.stop - half), cols),
                    (rows, slice(cols.start + half, cols.stop))]:
            with pytest.raises(ValueError, match="vanish outside their support box"):
                GridFunction(member.spec, member.values, _support=box)

    def test_box_stays_out_of_repr_and_eq(self):
        member = cx.rs_level(1, 2).member(1)
        bare = GridFunction(member.spec, member.values)
        assert member._support is not None and bare._support is None
        assert repr(member) == repr(bare)
        assert member == bare


# grids of the radius index: the default grids and their duals, the translate families'
# support grids, half-widths off the lattice of the default ones, and 82 799 levels; each
# grid once
LEVEL_SPECS = tuple(dict.fromkeys(
    [default_spec(d) for d in (1, 2, 3)] + [default_spec(d).dual() for d in (1, 2, 3)]
    + [cx._support_grid(d, k) for d in (1, 2) for k in range(5)]
    + [GridSpec(3, 64, 7.3), GridSpec(2, 128, 16 / 3)]
    + [GridSpec(1, 16, 1.0 + i) for i in range(4)] + [GridSpec(2, 1024, 8.0)]
))
# weights |x|^{pw}: numpy's power takes its copy (1) and square (2) fast paths on some
WEIGHT_EXPONENTS = (0.1, 0.25, 1.0, 1.25, 2.0, 2.4, 3.75, 4.0, 8.0)


class TestRadiusCache:
    @pytest.mark.parametrize("spec", LEVEL_SPECS, ids=lambda s: f"d{s.d}n{s.n}L{s.half_width:g}")
    def test_levels_and_index_are_exact(self, spec):
        levels, index = _radius_levels(spec)
        radius = dense_radius(spec)
        assert np.all(np.diff(levels) > 0)
        assert levels[index].tobytes() == radius.tobytes()
        for pw in WEIGHT_EXPONENTS:
            assert (levels**pw)[index].tobytes() == (radius**pw).tobytes(), pw
        smallest = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                        if np.iinfo(t).max >= len(levels) - 1)
        assert index.dtype == smallest

    def test_read_only_exact_and_shared(self):
        for spec in RADIUS_SPECS:
            levels, index = _radius_levels(spec)
            for array in (levels, index):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 1
            assert levels.dtype == np.float64 and index.shape == (spec.n,) * spec.d
            assert levels[index].tobytes() == dense_radius(spec).tobytes()
            assert _radius_levels(GridSpec(spec.d, spec.n, spec.half_width))[1] is index

    def test_64_cubed_entry_size(self):
        # 1 914 levels and a uint16 index: 0.51 MiB, where a float64 radius took 2 MiB
        levels, index = _radius_levels(default_spec(3))
        assert levels.nbytes + index.nbytes <= 0.6 * 2**20

    def test_bounded(self, fresh_radius_cache):
        for i in range(_RADIUS_CACHE_SIZE + 3):
            _radius_levels(GridSpec(d=1, n=16, half_width=1.0 + i))
        info = _radius_levels.cache_info()
        assert info.currsize == info.maxsize == _RADIUS_CACHE_SIZE
        assert info.misses == _RADIUS_CACHE_SIZE + 3

    def test_one_radius_source(self):
        # the weights and the ball read radii from _radius_levels alone, so no second
        # construction of |x| grows back beside the cached one
        tree = ast.parse(Path(uplab.grid.__file__).read_text())
        bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in ("_weighted_sums", "_ball_sum"):
            called = {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                      for call in ast.walk(bodies[name]) if isinstance(call, ast.Call)
                      and isinstance(call.func, (ast.Name, ast.Attribute))}
            assert "_radius_levels" in called, name
            assert not called & {"_squared_distance", "meshgrid", "axis_coordinates"}, name


def guard_outcome(f):
    """'raise', 'warn' or 'silent': what the transform's boundary guard does with f,
    and the message it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fourier_transform(f)
        except ValueError as exc:
            return "raise", str(exc)
    if caught:
        (warning,) = caught
        return "warn", str(warning.message)
    return "silent", ""


def with_face_sample(f, ratio):
    """f with one sample on the last face of axis 0 set to ratio times its peak."""
    values = np.array(f.values)
    values[(-1,) + (f.spec.n // 3,) * (f.spec.d - 1)] = ratio * np.abs(values).max()
    return GridFunction(f.spec, values)


def shifted_gaussian(spec, shift):
    """exp(-pi |x - (shift, 0, ..)|^2)."""
    return sample(lambda *mesh: np.exp(-math.pi * ((mesh[0] - shift) ** 2
                                                   + sum(m * m for m in mesh[1:]))), spec)


class TestBoundaryGuard:
    """The guard reads the faces, bounds the peak from below by the central slice of axis
    0, and reads the whole grid only when that bound does not settle the case: it must
    raise, warn and stay silent exactly where the full-peak ratio says."""

    @staticmethod
    def cases():
        members = [translate_member(d) for d in (1, 2, 3)]
        cases = {f"member d={m.spec.d}": m for m in members}
        for m in members:  # the central slice is zero, the faces are not
            for ratio in (1e-13, 1e-9, 1e-6, 1e-3):
                cases[f"member d={m.spec.d} face {ratio:g}"] = with_face_sample(m, ratio)
        for d in (1, 2, 3):
            spec = default_spec(d)
            cases[f"gaussian d={d}"] = gaussian_grid_function(spec)
            cases[f"bump d={d}"] = random_bump(spec, seed=d)
            # faces at 1.9e-9 (d = 1), 1.0e-5 and 1.5e-7 (d = 3) of the peak ...
            cases[f"wide gaussian d={d}"] = gaussian_grid_function(spec, rate=[0.1, 0.1, 0.2][d - 1])
            # ... and at 4.5e-5, 4.5e-5 and 3.9e-4
            cases[f"wider gaussian d={d}"] = gaussian_grid_function(spec, rate=[0.05, 0.1, 0.1][d - 1])
        for d, shift in ((2, 2.5), (3, 1.7)):
            # faces far below the peak, but not below 1e-12 of the central slice
            shifted = shifted_gaussian(default_spec(d), shift)
            cases[f"shifted gaussian d={d}"] = shifted
            cases[f"shifted face d={d}"] = with_face_sample(shifted, 1e-9)
        return cases

    def test_decisions_follow_full_peak_ratio(self):
        seen = set()
        for name, f in self.cases().items():
            ratio = full_peak_ratio(f)
            expected = ("raise" if ratio > BOUNDARY_ERROR
                        else "warn" if ratio > BOUNDARY_WARN else "silent")
            outcome, message = guard_outcome(f)
            assert outcome == expected, (name, ratio)
            if outcome != "silent":
                assert f"{ratio:.3e}" in message, name
            seen.add(expected)
        assert seen == {"raise", "warn", "silent"}

    def test_streamed_maxima_give_the_same_ratio(self):
        # a norm pass that reads the guard's maxima from each block's |f| (the streamed x
        # side of the feasible check at d = 3) gives _boundary_ratio's ratio to the bit; a
        # separable function streamed from its factors gives it with the same norms
        for name, f in self.cases().items():
            maxima = _Maxima(f.spec)
            _weighted_sums(f.spec, f.values, [(2.0, 0.0)], faces=maxima)
            assert maxima.ratio() == _boundary_ratio(f.spec, f.values), name
            if f._terms is not None:
                norms, ratio = _separable_norms(f.spec, *f._terms, SUPPORT_TERMS)
                assert ratio == _boundary_ratio(f.spec, f.values), name
                assert norms == grid_weighted_norm(f, SUPPORT_TERMS), name

    def test_cases_need_the_full_grid(self):
        # the cases above take the full pass: the central slice is zero, or the faces
        # exceed 1e-12 of it while lying below 1e-12 of the peak
        cases = self.cases()
        for name in ("member d=2 face 1e-13", "shifted gaussian d=2", "shifted gaussian d=3"):
            f = cases[name]
            mags = np.abs(f.values)
            central = mags[f.spec.n // 2].max()
            edge = full_peak_ratio(f) * mags.max()
            assert central == 0.0 or edge / central > BOUNDARY_WARN, name
            assert full_peak_ratio(f) <= BOUNDARY_WARN, name


class TestPrimaryUpDefect:
    def test_gaussian_exact_value(self):
        # for the self-dual Gaussian the quotient is (p^{1/p} / a^{1/a})^{d}
        # in each factor: ||g||_a / ||g||_p = a^{-1/(2a)} p^{1/(2p)} ... squared
        f = gaussian_grid_function(default_spec(1))
        a, p = 1.5, 2.0
        expected = (a ** (-0.5 / a) * p ** (0.5 / p)) ** 2
        assert primary_up_defect(f, a, p) == pytest.approx(expected, rel=1e-10)

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_at_least_one_on_bumps(self, seed):
        f = random_bump(default_spec(1), seed=seed)
        assert primary_up_defect(f, 1.5, 2.0) >= 1.0 - 1e-6

    def test_rejects_inadmissible_pair(self):
        f = gaussian_grid_function(default_spec(1))
        with pytest.raises(ValueError):
            primary_up_defect(f, 3.0, 4.0)


class TestCsvRoundTrip:
    @pytest.mark.parametrize("d", [1, 2])
    def test_exact_round_trip(self, tmp_path, d):
        # complex grids come back complex128, real ones float64
        spec = default_spec(d, n=32 if d == 2 else 64, half_width=4.0)
        for f in (random_bump(spec, seed=11), gaussian_grid_function(spec)):
            path = tmp_path / "grid.csv"
            write_grid_csv(f, path)
            g = read_grid_csv(path)
            assert g.spec == f.spec
            assert g.values.dtype == f.values.dtype
            assert g.values.tobytes() == f.values.tobytes()

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,re,im\n0,1,0\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)


class TestRandomBump:
    def test_seed_determinism(self):
        spec = default_spec(1)
        a = random_bump(spec, seed=5)
        b = random_bump(spec, seed=5)
        assert np.array_equal(a.values, b.values)
        c = random_bump(spec, seed=6)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_decays_at_boundary(self, d):
        f = random_bump(default_spec(d), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fourier_transform(f)
            except UserWarning:
                pytest.fail("default bump should decay below the warning threshold")

    @pytest.mark.parametrize("spec", [
        default_spec(1), default_spec(2), default_spec(3), GridSpec(d=1, n=64, half_width=3.0),
        GridSpec(d=1, n=1024, half_width=30.0), GridSpec(d=2, n=32, half_width=3.0),
        GridSpec(d=2, n=256, half_width=12.0), GridSpec(d=3, n=32, half_width=3.0),
        GridSpec(d=3, n=16, half_width=12.0),
    ], ids=lambda s: f"d{s.d}n{s.n}L{s.half_width:g}")
    def test_matches_dense_sum_of_gaussians(self, spec):
        # the off-default grids reach exponents beyond the underflow of exp; the
        # samples sit at up to half of the bound on these grids
        for seed in (0, 1, 7, 12345):
            samples = random_bump(spec, seed).values
            assert samples.dtype == complex and samples.shape == (spec.n,) * spec.d
            assert samples.flags.c_contiguous
            reference, bound = dense_bump(spec, seed)
            assert np.all(np.abs(samples - reference) <= bound), seed

    def test_peak_memory_at_d3(self):
        # the 4 MiB samples plus the (4, 64^2) complex array of coefficients times the
        # factors of the last two axes; 4.64 MiB when each term's exponent was computed
        # over blocks of the grid
        spec = default_spec(3)
        random_bump(spec, seed=0)  # warm-up
        tracemalloc.start()
        try:
            random_bump(spec, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    @pytest.mark.parametrize("spec", [
        default_spec(1), default_spec(2), default_spec(3), GridSpec(d=3, n=32, half_width=3.0),
        GridSpec(d=2, n=512, half_width=16.0),
    ], ids=lambda s: f"d{s.d}n{s.n}L{s.half_width:g}")
    def test_factored_transform_matches_fftn(self, spec):
        # the rotation has fourier_transform's bytes (test_same_bytes_as_rotation) and
        # no boundary guard, which some seeds trip on the 32^3 grid
        eps = np.finfo(float).eps
        for seed in range(8):
            reference = rotation_transform(random_bump(spec, seed))
            hat = np.concatenate(list(_transform_rows(spec, *_bump_terms(spec, seed))))
            assert hat.shape == reference.shape
            peak = np.abs(reference).max()
            assert np.abs(hat - reference).max() <= 8 * eps * peak, seed

    def test_factored_path_guards_the_boundary(self):
        # the norms of f^ guard the samples before they transform the factors
        bump = random_bump(GridSpec(d=2, n=16, half_width=1.0), seed=0)
        with pytest.raises(ValueError, match="does not decay") as direct:
            fourier_transform(bump)
        with pytest.raises(ValueError) as factored:
            fourier_weighted_norm(bump, [(2.0, 0.0)])
        assert str(factored.value) == str(direct.value)

    def test_same_bytes_for_any_blas_thread_count(self):
        # the benchmark pins BLAS to one thread and the tests need not: a seed must name
        # the same samples, and the same factored transform (a real product of inner
        # dimension 8), either way.  A child process runs pinned to one thread when
        # this one is unpinned, and unpinned when this one is pinned.
        specs = [default_spec(d) for d in (1, 2, 3)] + [GridSpec(d=3, n=128, half_width=6.0)]
        code = (
            "import hashlib\n"
            "from uplab.grid import GridSpec, _bump_terms, _transform_rows, random_bump\n"
            f"for spec in {specs!r}:\n"
            "    for seed in (0, 1, 2):\n"
            "        print(hashlib.sha256(random_bump(spec, seed).values.tobytes()).hexdigest())\n"
            "        hat = b''.join(r.tobytes() for r in _transform_rows(spec, *_bump_terms(spec, seed)))\n"
            "        print(hashlib.sha256(hat).hexdigest())\n"
        )
        pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in pins}
        if not any(pin in os.environ for pin in pins):
            env["OPENBLAS_NUM_THREADS"] = "1"
        paths = [str(Path(uplab.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=120).stdout
        in_process = "".join(
            hashlib.sha256(values).hexdigest() + "\n"
            for spec in specs for seed in (0, 1, 2)
            for values in (random_bump(spec, seed).values.tobytes(),
                           b"".join(block.tobytes()
                                    for block in _transform_rows(spec, *_bump_terms(spec, seed))))
        )
        assert child == in_process


def sampled_gc(c, spec):
    """g_c sampled from its radial profile, with no factors, as the benchmark samples g_2."""
    profile = cx.gc_profile(c, spec.d)
    return sample(lambda *mesh: profile(np.sqrt(sum(m * m for m in mesh))), spec)


def real_functions(d):
    """The real functions whose f^ norms read half of the dual grid: the Gaussian, g_2 and
    g_4 (on a grid wide enough for its e^{-pi r^2 / 16}) factored and sampled, and at
    d <= 2 a translate-family member."""
    functions = {"gaussian": gaussian_grid_function(default_spec(d))}
    for c, spec in [(2.0, default_spec(d)), (4.0, default_spec(d, half_width=12.0))]:
        functions[f"g_{c:g}"] = gaussian_mixture_grid_function(spec, cx.gc_profile(c, d).terms)
        functions[f"sampled g_{c:g}"] = sampled_gc(c, spec)
    if d < 3:
        functions["member"] = cx.rs_level(d, 2).member(1)
    return functions


class TestHalfRead:
    """A real f has f^(-xi) = conj f^(xi), so its norms of f^ read the dual rows 0..n/2 of
    the first axis, rows 0 and n/2 once and every other row twice; complex functions read
    the whole dual grid."""

    TERMS = [(p, w) for p in (1.5, 2.0, 3.0, math.inf) for w in (0.0, 0.5, 1.0)]

    def test_pairwise_carries_an_odd_sum(self):
        def halves(sums):  # the order before odd lengths were carried
            while len(sums) > 1:
                sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
            return sums[0]

        assert _pairwise([1.0, 2.0, 4.0]) == 7.0
        assert _pairwise([1.0, 2.0, 4.0, 8.0, 16.0]) == 31.0
        rng = np.random.default_rng(0)
        for size in (1, 2, 4, 8, 64):
            sums = list(rng.random(size) * 10.0 ** rng.integers(-8, 8, size))
            assert _pairwise(sums).tobytes() == halves(sums).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_of_the_half(self, d):
        # the half is cut like _row_blocks: one block at d <= 2, and 33 rows in blocks of
        # 8 at d = 3, the last of one row
        spec = default_spec(d)
        blocks, counts = _half_rows(spec)
        half = spec.n // 2
        expected = [slice(0, half + 1)] if d < 3 else [
            slice(lo, min(lo + 8, half + 1)) for lo in range(0, half + 1, 8)]
        assert blocks == expected
        assert len(blocks) == (1 if d < 3 else 5)
        assert counts.tolist() == [1.0] + [2.0] * (half - 1) + [1.0]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_half_matches_the_full_read(self, d):
        # measured at most 3.0 eps relative over these functions and terms (factored g_4
        # at d = 2, p = inf); the bound is the 8 eps of the peak within which the factored
        # transform meets the FFT (test_factored_transform_matches_fftn)
        eps = np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # g_2's faces at d = 3: 1.1e-9 of its peak
            for name, f in real_functions(d).items():
                half = fourier_weighted_norm(f, self.TERMS)
                full = grid_weighted_norm(fourier_transform(f), self.TERMS)
                for term, a, b in zip(self.TERMS, half, full):
                    assert abs(a - b) <= 8 * eps * b, (name, term)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_complex_functions_keep_their_bytes(self, d):
        # the bump's norms of f^ from its whole streamed transform, and bare complex
        # samples from fourier_transform, as before the half read
        spec = default_spec(d)
        for seed in (1, 7):
            bump = random_bump(spec, seed)
            full = GridFunction(spec.dual(), np.concatenate(list(
                _transform_rows(spec, *_bump_terms(spec, seed)))))
            assert fourier_weighted_norm(bump, self.TERMS) == grid_weighted_norm(full, self.TERMS)
            bare = GridFunction(spec, bump.values)
            assert (fourier_weighted_norm(bare, self.TERMS)
                    == grid_weighted_norm(fourier_transform(bare), self.TERMS))

    def test_one_complex_coefficient_takes_the_full_read(self, monkeypatch):
        reads = []
        monkeypatch.setattr(uplab.grid, "_half_rows",
                            lambda spec: reads.append(spec) or _half_rows(spec))
        spec = default_spec(2)
        real = gaussian_mixture_grid_function(spec, [(0.0, 1.0), (-1.0, 2.0)])
        coefs, factors = real._terms
        mixed = uplab.grid._separable_function(spec, coefs * [1.0, 1j], factors)
        full = GridFunction(spec.dual(), np.concatenate(list(_transform_rows(spec, *mixed._terms))))
        assert fourier_weighted_norm(mixed, self.TERMS) == grid_weighted_norm(full, self.TERMS)
        assert reads == []
        fourier_weighted_norm(real, self.TERMS)
        assert len(reads) == 2  # the transform's rows and the sums' multiplicities
