"""Sampled real or complex functions on centered cubes in R^d (d <= 3) and a
discrete approximation of the Fourier transform f^(xi) = int f e^{-2 pi i x.xi} dx.

The sampling is centered (sample k -> -L + k*spacing per axis) and the
transform returns samples on the dual grid (spacing 1/(2L), half-width
n/(4L)).  Both grids put sample k at (k - n/2)*spacing with n/2 even, so the
transform is the DFT between two (-1)^{k_1+...+k_d} sign flips; for
well-resolved inputs it matches the continuous transform to near machine
precision.  That DFT is the tensor product of 1-D ones, so fourier_weighted_norm
takes the norms of f^ of a sum of separable terms that carries its 1-D factors
(the Gaussians, g_c, the random bump) from the transformed factors, block by
block; fourier_transform, an n^d FFT in place in its output, serves bare samples.

Weighted norms read the grid in blocks of _BLOCK samples along the first
axis, several norms per pass, and add the block sums pairwise, which is the
order of numpy's pairwise summation over the whole power-of-two grid.  A norm
over the tail beyond a radius follows the same rule: each block's tail samples
are gathered and summed at once, and no gathered piece outlives its block.  No
grid-sized array is built by a norm, a transform or a sampler beyond the array
it returns, with one exception: |x_k| over the whole grid is built once per
GridSpec and kept, read-only, in a small cache (_radius), from which the
weighted and tail norms take their blocks.  A separable sum, on either grid, is
one real matrix product per block of the first axis' factors against an
(n_terms, n^{d-1}) array of the coefficients times the last d - 1 axes' factors.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .specialfn import LOG_MAX

BOUNDARY_WARN = 1e-12
BOUNDARY_ERROR = 1e-6

DEFAULT_SPECS = {1: (256, 8.0), 2: (128, 6.0), 3: (64, 5.0)}

# samples per block of a norm pass: 256 KiB of float64, so that the block
# temporaries stay in the allocator's reused heap instead of fresh mappings
_BLOCK = 1 << 15
# GridSpecs whose radius arrays are kept (2 MiB for a 64^3 grid): the default grids,
# their duals and the translate families' support grids, 4.9 MiB in all
_RADIUS_CACHE_SIZE = 8


@dataclass(frozen=True)
class GridSpec:
    """Uniform centered grid on [-L, L)^d with n samples per axis."""

    d: int
    n: int
    half_width: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"grid dimension must be 1..3, got {self.d}")
        if self.n < 16 or self.n & (self.n - 1) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        spacing = 2.0 * self.half_width / self.n
        if not (0 < self.half_width < math.inf and 0 < spacing < math.inf
                and abs(self.d * math.log(spacing)) < LOG_MAX
                and self.d * self.half_width * self.half_width < math.inf):
            raise ValueError(
                f"half_width L={self.half_width} must give a finite spacing 2L/n > 0, a cell "
                "volume spacing^d inside the float range and a finite squared radius d*L^2"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def dual_half_width(self) -> float:
        return self.n / (4.0 * self.half_width)

    def axis_coordinates(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n)

    def meshgrid(self) -> list[np.ndarray]:
        """One open coordinate axis per dimension, shaped to broadcast to the grid shape."""
        ax = self.axis_coordinates()
        return list(np.meshgrid(*([ax] * self.d), indexing="ij", sparse=True))

    def dual(self) -> "GridSpec":
        return GridSpec(d=self.d, n=self.n, half_width=self.dual_half_width)


def default_spec(d: int, n: int | None = None, half_width: float | None = None) -> GridSpec:
    base_n, base_l = DEFAULT_SPECS[d]
    return GridSpec(d, base_n if n is None else n, base_l if half_width is None else half_width)


@dataclass(frozen=True)
class GridFunction:
    """Real (float64) or complex (complex128) samples over a GridSpec, row-major;
    sample k sits at -L + k*spacing.  Stored read-only, uncopied if of that dtype.
    A separable sum sampled here also carries, read-only, the coefficients and the
    (n_terms, d, n) 1-D factors that its samples were built from.
    """

    spec: GridSpec
    values: np.ndarray
    _terms: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        expected = (self.spec.n,) * self.spec.d
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != grid shape {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", vals)
        for array in (vals, *(self._terms or ())):
            array.setflags(write=False)


def _squared_distance(mesh) -> np.ndarray:
    """sum_i x_i^2 in axis order over open axes: the partial sums stay small, and only
    the last axis is added into the full shape."""
    return functools.reduce(np.add, [m * m for m in mesh])


@functools.lru_cache(maxsize=_RADIUS_CACHE_SIZE)
def _radius(spec: GridSpec) -> np.ndarray:
    """|x_k| over the whole grid as a read-only float64 array, built once per spec.
    Each element is the square root of _squared_distance over the open axes, the
    same operations in the same order as over any block of them."""
    radius = _squared_distance(spec.meshgrid())
    np.sqrt(radius, out=radius)
    radius.setflags(write=False)
    return radius


def _row_blocks(spec: GridSpec):
    """Index ranges along the first axis of _BLOCK samples each (one range when smaller)."""
    rows = max(1, _BLOCK // spec.n ** (spec.d - 1))
    return [slice(lo, lo + rows) for lo in range(0, spec.n, rows)]


def _pairwise(sums):
    """Add the block sums of a power-of-two grid pairwise.  For whole blocks, of equal
    size, it is the order in which numpy's pairwise summation adds the grid's halves."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


def sample(generator, spec: GridSpec) -> GridFunction:
    """Sample a pointwise function of d coordinate arrays onto the grid."""
    shape = (spec.n,) * spec.d
    vals = generator(*spec.meshgrid())
    if np.shape(vals) != shape:
        vals = np.broadcast_to(vals, shape).copy()
    return GridFunction(spec=spec, values=vals)


def _boundary_ratio(spec: GridSpec, vals: np.ndarray) -> float:
    """max |f| over the faces of the grid over max |f| over the grid, or, when that is
    surely at most BOUNDARY_WARN, a bound between the two.  The faces are read first.
    The peak over the central slice of axis 0 bounds the grid's peak from below, and
    correctly rounded division is monotone, so faces at most BOUNDARY_WARN of that
    slice's peak need no pass over the whole grid: every decision is the same."""
    edge = 0.0
    for axis in range(spec.d):
        edge = max(edge, np.abs(np.take(vals, 0, axis=axis)).max(),
                   np.abs(np.take(vals, -1, axis=axis)).max())
    if edge == 0.0:
        return 0.0
    central = np.abs(vals[spec.n // 2]).max()
    if central > 0.0 and edge / central <= BOUNDARY_WARN:
        return float(edge / central)
    peak = max(np.abs(vals[rows]).max() for rows in _row_blocks(spec))
    return float(edge / peak)


def _checkerboard(n: int, d: int) -> np.ndarray:
    """(-1)^{k_1+...+k_d} over the indices of an n^d grid, as int8."""
    alt = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8)
    return functools.reduce(np.multiply.outer, [alt] * d)


def _require_decay(spec: GridSpec, values: np.ndarray) -> None:
    """The transform's boundary guard: raise above BOUNDARY_ERROR, warn above BOUNDARY_WARN."""
    ratio = _boundary_ratio(spec, values)
    if ratio > BOUNDARY_ERROR:
        raise ValueError(
            f"function does not decay at the domain boundary (ratio {ratio:.3e}); "
            "enlarge the grid"
        )
    if ratio > BOUNDARY_WARN:
        warnings.warn(
            f"boundary samples at {ratio:.3e} of the peak; transform accuracy degrades",
            stacklevel=3,
        )


def fourier_transform(f: GridFunction) -> GridFunction:
    """Samples of the continuous Fourier transform on the dual grid."""
    spec = f.spec
    _require_decay(spec, f.values)
    # sample k sits at (k - n/2)*spacing on both grids and n/2 is even, so rotating
    # x = 0 to index 0 and back is a (-1)^{k_1+...+k_d} modulation on each side:
    # exact sign flips around one DFT computed in the output array
    signs = _checkerboard(spec.n, spec.d)
    out = np.multiply(f.values, signs, dtype=complex)
    np.fft.fftn(out, out=out)
    out *= signs
    out *= spec.spacing**spec.d
    out += 0.0  # a flipped exact zero is -0.0; the rotation left it +0.0
    return GridFunction(spec=spec.dual(), values=out)


def fourier_weighted_norm(f: GridFunction, terms) -> tuple[float, ...]:
    """grid_weighted_norm(fourier_transform(f), terms), without building f^ when f carries
    its factors: the samples get the boundary guard, and f^ is read from the factors."""
    if f._terms is None:
        return grid_weighted_norm(fourier_transform(f), terms)
    _require_decay(f.spec, f.values)
    return _weighted_norms(f.spec.dual(), _transform_rows(f.spec, *f._terms), terms)


def grid_weighted_norm(f: GridFunction, terms: Iterable[tuple[float, float]]) -> tuple[float, ...]:
    """Riemann-sum norms (sum |x_k|^{p w} |f_k|^p spacing^d)^{1/p}, one per (p, w) in
    terms; p = inf gives max |x_k|^w |f_k|.
    """
    return _weighted_norms(f.spec, f.values, terms)


def _weighted_norms(spec: GridSpec, samples, terms):
    """grid_weighted_norm of samples, as in _weighted_sums."""
    terms = list(terms)
    for p, w in terms:
        if not w >= 0:
            raise ValueError("weight_exponent must be nonnegative")
        if not p >= 1:
            raise ValueError(f"p must be >= 1 or inf, got {p}")
    cell = spec.spacing**spec.d
    return tuple(
        total if p == math.inf else (total * cell) ** (1.0 / p)
        for (p, _), total in zip(terms, _weighted_sums(spec, samples, terms))
    )


def _weighted_sums(spec: GridSpec, samples, terms, radius_floor: float | None = None):
    """The sums sum |x_k|^{p w} |f_k|^p (max |x_k|^w |f_k| for p = inf) behind
    grid_weighted_norm, without the cell volume, over samples on spec or its _row_blocks.
    One blocked pass computes |f|, each distinct |f|^p and each distinct weight once per
    block, the weights from the spec's cached radius; with radius_floor it gathers each
    block's samples beyond the floor, and the radius only for weighted terms.  Every
    block's values are summed at once and the block sums added pairwise, so a tail holds
    no gathered piece beyond its block.  A sum that is not finite raises, naming its
    (p, w), without a floating-point warning.
    """
    if isinstance(samples, np.ndarray):  # views of its blocks
        samples = [samples[rows] for rows in _row_blocks(spec)]
    weighted = any(w > 0 for _, w in terms)
    radii = _radius(spec) if weighted or radius_floor is not None else None
    parts = [[] for _ in terms]
    # a power or weight beyond the floats shows as a sum of inf or NaN, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block in zip(_row_blocks(spec), samples, strict=True):
            radius = None if radii is None else radii[rows]
            if radius_floor is not None:
                tail = radius > radius_floor
                block = block[tail]
                radius = radius[tail] if weighted else None
            mags = np.abs(block)
            powers, weights = {}, {}
            for (p, w), part in zip(terms, parts):
                if p == math.inf:
                    part.append((radius**w * mags if w > 0 else mags).max(initial=0.0))
                    continue
                if p not in powers:
                    powers[p] = mags**p
                if w == 0:
                    values = powers[p]
                else:
                    if p * w not in weights:
                        weights[p * w] = radius ** (p * w)
                    values = weights[p * w] * powers[p]
                part.append(values.sum())
        sums = [float(max(part)) if p == math.inf else float(_pairwise(part))
                for (p, _), part in zip(terms, parts)]
    for (p, w), total in zip(terms, sums):
        if not math.isfinite(total):
            raise ValueError(f"the grid sum of |x|^(p w) |f|^p at p={p:g}, w={w:g} is {total}: "
                             "a power of |f| or |x| leaves the float range")
    return sums


def write_grid_csv(f: GridFunction, path) -> None:
    """CSV of (index, re, im) with a header line carrying the grid geometry."""
    spec = f.spec
    flat = f.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(f"# d={spec.d} n={spec.n} half_width={spec.half_width:.17g}\n")
        fh.write("index,re,im\n")
        for i, v in enumerate(flat):
            fh.write(f"{i},{v.real:.17g},{v.imag:.17g}\n")


def gaussian_grid_function(spec: GridSpec, rate: float = 1.0) -> GridFunction:
    """Samples of exp(-pi * rate * |x|^2); rate 1 is the self-dual Gaussian."""
    return gaussian_mixture_grid_function(spec, [(1.0, rate)])


def gaussian_mixture_grid_function(spec: GridSpec, terms) -> GridFunction:
    """Real samples of sum_t c_t exp(-pi rate_t |x|^2) over the (c_t, rate_t) in terms, such
    as a Gaussian-mixture RadialProfile's: each term the product of d 1-D Gaussians."""
    coefs, rates = np.array(terms, dtype=float).T
    with np.errstate(over="ignore"):  # an exponent of -inf samples an exact 0
        table = np.multiply.outer(-math.pi * rates, np.square(spec.axis_coordinates()))
        np.exp(table, out=table)
    factors = np.broadcast_to(table[:, None, :], (len(coefs), spec.d, spec.n))
    return _separable_function(spec, coefs, factors)


def random_bump(spec: GridSpec, seed: int, n_terms: int = 4) -> GridFunction:
    """A reproducible smooth bump: a random complex mixture of shifted Gaussians
    sum_t c_t exp(-pi |x - x_t|^2 / w_t^2).

    Widths in [0.7, 1.1] and centers within 1/4 of the half-width keep the
    function resolved and decayed at the boundary for the default grids.  Each
    term is sampled as the product of its d one-dimensional Gaussians, so the
    samples differ from exp of the full exponent by a few units in the last place
    of each term (more where the exponent is large).
    """
    return _separable_function(spec, *_bump_terms(spec, seed, n_terms))


def _bump_terms(spec: GridSpec, seed: int, n_terms: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients c_t of random_bump(spec, seed, n_terms) and its terms' 1-D
    factors tabulated on the axis coordinates, as (n_terms, d, n) real factors."""
    rng = np.random.default_rng(seed)
    span = 0.25 * spec.half_width
    centers = rng.uniform(-span, span, size=(n_terms, spec.d))
    widths = rng.uniform(0.7, 1.1, size=n_terms)
    coefs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    # factors[t, i, k] = exp(-pi (x_k - x_{t,i})^2 / w_t^2)
    with np.errstate(over="ignore"):  # an exponent of -inf samples an exact 0
        factors = spec.axis_coordinates() - centers[:, :, None]
        factors *= factors
        factors *= -math.pi
        factors /= (widths * widths)[:, None, None]
        np.exp(factors, out=factors)
    return coefs, factors


def _separable_function(spec: GridSpec, coefs: np.ndarray, factors: np.ndarray) -> GridFunction:
    """The samples of sum_t c_t prod_i factors[t, i, k_i] in one block, carrying the terms."""
    (values,) = _separable_rows(spec, coefs, factors, [slice(None)])
    return GridFunction(spec=spec, values=values, _terms=(coefs, factors))


def _separable_rows(spec: GridSpec, coefs: np.ndarray, factors: np.ndarray, blocks):
    """sum_t c_t prod_i factors[t, i, k_i] over each slice of first-axis rows in blocks: new
    C-contiguous arrays, real for real terms.  The coefficients times the last d - 1 axes'
    factors, an (n_terms, n^{d-1}) array R read as interleaved reals, are summed against F,
    the block's first-axis factors, by one real matrix product; complex F enters as
    [Re F; Im F] against [R; iR].  (A complex product with a small inner dimension ran 100
    times slower in some processes.)"""
    right = coefs[:, None]
    for axis in range(1, spec.d):
        right = (right[:, :, None] * factors[:, axis, None, :]).reshape(len(coefs), -1)
    left = factors[:, 0]
    if np.iscomplexobj(left):
        left = np.concatenate([left.real, left.imag])
        right = np.concatenate([right, 1j * right])
    dtype, right = right.dtype, right.view(np.float64)
    for rows in blocks:
        yield (left[:, rows].T @ right).view(dtype).reshape((-1,) + (spec.n,) * (spec.d - 1))


def _transform_rows(spec: GridSpec, coefs: np.ndarray, factors: np.ndarray):
    """fourier_transform's values on the separable sum of (coefs, factors), to a few ulps of
    the peak, by _row_blocks of the dual grid and without the boundary guard: _separable_rows
    of the 1-D factors' transforms, each taken between (-1)^k sign flips."""
    alt = _checkerboard(spec.n, 1)
    hats = np.fft.fft(factors * alt, axis=-1)
    hats *= alt * spec.spacing
    return _separable_rows(spec.dual(), coefs, hats, _row_blocks(spec))
