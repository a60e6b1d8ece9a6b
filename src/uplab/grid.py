"""Sampled real or complex functions on centered cubes in R^d (d <= 3) and a
discrete approximation of the Fourier transform f^(xi) = int f e^{-2 pi i x.xi} dx.

The sampling is centered (sample k -> -L + k*spacing per axis) and the
transform returns samples on the dual grid (spacing 1/(2L), half-width
n/(4L)).  Both grids put sample k at (k - n/2)*spacing with n/2 even, so the
transform is the DFT between two (-1)^{k_1+...+k_d} sign flips, computed in
place in its output array; for well-resolved inputs the output matches the
continuous transform to near machine precision.

Weighted norms read the grid in blocks of _BLOCK samples along the first
axis, several norms per pass, and add the block sums pairwise, which is the
order of numpy's pairwise summation over the whole power-of-two grid.  A norm
over the tail beyond a radius follows the same rule: each block's tail samples
are gathered and summed at once, and no gathered piece outlives its block.  No
grid-sized array is built by a norm, a transform or a sampler beyond the array
it returns, with one exception: |x_k| over the whole grid is built once per
GridSpec and kept, read-only, in a small cache (_radius), from which the
weighted and tail norms take their blocks.  The random bump, a mixture of
shifted Gaussians, is sampled from each term's one-dimensional factors on the
axis coordinates: one real matrix product sums the terms over the grid, beside
an (n_terms, n^{d-1}) complex array of the coefficients times the factors of
the last d - 1 axes.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

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
    def dual_spacing(self) -> float:
        return 1.0 / (2.0 * self.half_width)

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
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        expected = (self.spec.n,) * self.spec.d
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != grid shape {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)


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


def _checkerboard(spec: GridSpec) -> np.ndarray:
    """(-1)^{k_1+...+k_d} over the grid indices, as int8."""
    alt = np.where(np.arange(spec.n) % 2 == 0, 1, -1).astype(np.int8)
    return functools.reduce(np.multiply.outer, [alt] * spec.d)


def fourier_transform(f: GridFunction) -> GridFunction:
    """Samples of the continuous Fourier transform on the dual grid."""
    return _transform(f.spec, f.values, np.empty(f.values.shape, dtype=complex))


def _transform(spec: GridSpec, values: np.ndarray, out: np.ndarray) -> GridFunction:
    """The transform of the samples values, computed in the complex array out.  out may
    be values itself: a caller that owns its samples and reads them for the last time
    transforms them without a second grid-sized array."""
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
    # sample k sits at (k - n/2)*spacing on both grids and n/2 is even, so rotating
    # x = 0 to index 0 and back is a (-1)^{k_1+...+k_d} modulation on each side:
    # exact sign flips around one DFT computed in the output array
    signs = _checkerboard(spec)
    np.multiply(values, signs, out=out, dtype=complex)
    np.fft.fftn(out, out=out)
    out *= signs
    out *= spec.spacing**spec.d
    out += 0.0  # a flipped exact zero is -0.0; the rotation left it +0.0
    return GridFunction(spec=spec.dual(), values=out)


def grid_weighted_norm(
    f: GridFunction, terms: Iterable[tuple[float, float]], radius_floor: float | None = None
) -> tuple[float, ...]:
    """Riemann-sum norms (sum |x_k|^{p w} |f_k|^p spacing^d)^{1/p}, one per (p, w) in
    terms; p = inf gives max |x_k|^w |f_k|.  With radius_floor, only the samples with
    |x_k| > radius_floor count.
    """
    terms = list(terms)
    for p, w in terms:
        if not w >= 0:
            raise ValueError("weight_exponent must be nonnegative")
        if not p >= 1:
            raise ValueError(f"p must be >= 1 or inf, got {p}")
    cell = f.spec.spacing**f.spec.d
    return tuple(
        total if p == math.inf else (total * cell) ** (1.0 / p)
        for (p, _), total in zip(terms, _weighted_sums(f, terms, radius_floor))
    )


def _weighted_sums(f: GridFunction, terms, radius_floor: float | None = None) -> list[float]:
    """The sums sum |x_k|^{p w} |f_k|^p (max |x_k|^w |f_k| for p = inf) behind
    grid_weighted_norm, without the cell volume.  One blocked pass computes |f|,
    each distinct |f|^p and each distinct weight once per block, the weights from
    the spec's cached radius; with radius_floor it gathers each block's samples
    beyond the floor, and the radius only for weighted terms.  Every block's values
    are summed at once and the block sums added pairwise, with or without a floor,
    so a tail holds no gathered piece beyond its block.  A sum that is not finite
    raises, naming its (p, w), without a floating-point warning.
    """
    spec = f.spec
    weighted = any(w > 0 for _, w in terms)
    radii = _radius(spec) if weighted or radius_floor is not None else None
    parts = [[] for _ in terms]
    # a power or weight beyond the floats shows as a sum of inf or NaN, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(spec):
            samples = f.values[rows]
            radius = None if radii is None else radii[rows]
            if radius_floor is not None:
                tail = radius > radius_floor
                samples = samples[tail]
                radius = radius[tail] if weighted else None
            mags = np.abs(samples)
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

    def gen(*mesh):
        vals = _squared_distance(mesh)
        vals *= -math.pi * rate
        return np.exp(vals, out=vals)

    with np.errstate(over="ignore"):  # an exponent of -inf samples an exact 0
        return sample(gen, spec)


def random_bump(spec: GridSpec, seed: int, n_terms: int = 4) -> GridFunction:
    """A reproducible smooth bump: a random complex mixture of shifted Gaussians
    sum_t c_t exp(-pi |x - x_t|^2 / w_t^2).

    Widths in [0.7, 1.1] and centers within 1/4 of the half-width keep the
    function resolved and decayed at the boundary for the default grids.  Each
    term is sampled as the product of its d one-dimensional Gaussians, so the
    samples differ from exp of the full exponent by a few units in the last place
    of each term (more where the exponent is large).
    """
    return GridFunction(spec=spec, values=_bump_samples(spec, seed, n_terms))


def _bump_samples(spec: GridSpec, seed: int, n_terms: int = 4) -> np.ndarray:
    """The samples of random_bump(spec, seed, n_terms), as a new writable C-contiguous
    array.  The terms' 1-D factors are tabulated on the axis coordinates, and the
    coefficients and the last d - 1 axes are multiplied out into a complex
    (n_terms, n^{d-1}) array.  Read as real numbers, its real and imaginary parts
    interleaved, it is summed against the first axis' factors by one real matrix
    product, whose (n, 2 n^{d-1}) result is the complex grid.  (A complex product
    with a small inner dimension ran 100 times slower in some processes.)"""
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
    right = coefs[:, None]
    for axis in range(1, spec.d):
        right = (right[:, :, None] * factors[:, axis, None, :]).reshape(n_terms, -1)
    product = factors[:, 0].T @ right.view(np.float64)
    return product.view(complex).reshape((spec.n,) * spec.d)
