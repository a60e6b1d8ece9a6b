"""Sampled real or complex functions on centered cubes in R^d (d <= 3) and a
discrete approximation of the Fourier transform f^(xi) = int f e^{-2 pi i x.xi} dx.

The sampling is centered (sample k -> -L + k*spacing per axis) and the
transform returns samples on the dual grid (spacing 1/(2L), half-width
n/(4L)).  Both grids put sample k at (k - n/2)*spacing with n/2 even, so the
transform is the DFT between two (-1)^{k_1+...+k_d} sign flips; for
well-resolved inputs it matches the continuous transform to near machine
precision.  That DFT is the tensor product of 1-D ones, so fourier_weighted_norm
takes the norms of f^ of a sum of separable terms that carries its 1-D factors
(the Gaussians, g_c, the random bump, a translate-family member) from the transformed
factors, block by block; fourier_transform, an n^d FFT in place, serves bare samples.

Weighted norms read the grid in blocks of _BLOCK samples along the first axis, several
norms per pass, and add the block sums pairwise, which is the order of numpy's pairwise
summation over the whole power-of-two grid; a sum over a ball |x| <= T reads only its
index box, by blocks.  No grid-sized array is built by a norm, a transform or a sampler
beyond the array it returns, with one exception: the grid's distinct |x_k| and each
sample's position among them (uint16 at 64^3) are kept per GridSpec, read-only, in a small
cache (_radius_levels); a weight |x|^e is raised once per distinct |x_k| and read by the
index, which a ball reads too.  A function 0 outside a box of samples (a translate-family
member) gets its terms on the box only, zero-padded to the same block sums.  A separable
sum, on either grid, is one real matrix product per block of the first axis' factors
against an (n_terms, n^{d-1}) array of the coefficients times the last d - 1 axes' factors.

A check's two sides meet in one place, _beside: it runs the streamed pass of f^ on a thread
where the grid has more than one block and two CPUs are usable (_two_at_once), and yields
norms(ratio), called after the x side: the boundary guard on the calling thread, then f^'s
norms.  Each pass keeps its blocks and pairwise order, so every sum keeps its bits either
way.  Bare samples, with no pass to stream, get fourier_weighted_norm's fourier_transform.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .specialfn import LOG_MAX

BOUNDARY_WARN = 1e-12
BOUNDARY_ERROR = 1e-6

DEFAULT_SPECS = {1: (256, 8.0), 2: (128, 6.0), 3: (64, 5.0)}
BUMP_TERMS = 4

# samples per block of a norm pass: 256 KiB of float64.  That is above glibc's initial
# 128 KiB mmap threshold, so in a fresh interpreter, until a larger array has been freed,
# each block temporary is a fresh mapping with its page faults; after that the threshold
# has risen and the temporaries come from the allocator's reused heap
_BLOCK = 1 << 15
# GridSpecs whose radius levels and index are kept (0.5 MiB for a 64^3 grid): the default
# grids, their duals and the translate families' support grids, 1.4 MiB in all
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
    """Real (float64) or complex (complex128) samples over a GridSpec, row-major; sample k
    sits at -L + k*spacing, stored read-only, uncopied if of that dtype.  A separable sum
    sampled here also carries, read-only, the coefficients and (n_terms, d, n) 1-D factors
    of its samples; _support, if set, is a box of start:stop slices, 0 outside.
    """

    spec: GridSpec
    values: np.ndarray
    _terms: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    _support: tuple[slice, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        expected = (self.spec.n,) * self.spec.d
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != grid shape {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        box = self._support  # counting a comparison's nonzeros is faster than counting floats
        if box is not None and np.count_nonzero(vals[box] != 0) != np.count_nonzero(vals != 0):
            raise ValueError("grid values must vanish outside their support box")
        object.__setattr__(self, "values", vals)
        for array in (vals, *(self._terms or ())):
            array.setflags(write=False)


@functools.lru_cache(maxsize=_RADIUS_CACHE_SIZE)
def _radius_levels(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid's distinct |x_k| in ascending order, and for each sample the position of
    its |x_k| among them, in the smallest unsigned dtype that holds it: read-only, built
    once per spec.  The squares are added in axis order, (x_0^2 + x_1^2) + x_2^2, one axis
    at a time onto the distinct sums so far, so levels[index] has the bits of |x_k| over a
    dense mesh.  Each axis' positions are cast before they are gathered: no int64 array
    of n^d samples is formed."""
    coordinates = spec.axis_coordinates()
    squares, on_axis = np.unique(coordinates * coordinates, return_inverse=True)
    levels, index = np.zeros(1), 0  # 0 + x_0^2 is x_0^2
    for axis in range(spec.d):
        levels, inner = np.unique(np.add.outer(levels, squares), return_inverse=True)
        if axis == spec.d - 1:  # adjacent squares can share a square root
            levels, merged = np.unique(np.sqrt(levels), return_inverse=True)
            inner = merged[inner]
        inner = inner.astype(np.min_scalar_type(len(levels) - 1)).reshape(-1, squares.size)
        index = inner[:, on_axis][index]
    for array in (levels, index):
        array.setflags(write=False)
    return levels, index


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
    """Sample a pointwise function of d coordinate arrays onto the grid.  The arrays are
    spec.meshgrid()'s open axes; the generator returns an array of the grid's shape."""
    return GridFunction(spec=spec, values=generator(*spec.meshgrid()))


def _boundary_ratio(spec: GridSpec, vals: np.ndarray) -> float:
    """max |f| over the faces of the grid over max |f| over the grid, or, when that is
    surely at most BOUNDARY_WARN, a bound between the two.  The faces are read first,
    then the central slice of axis 0, and the whole grid only where _decay_ratio needs it."""
    edge = 0.0
    for axis in range(spec.d):
        edge = max(edge, np.abs(np.take(vals, 0, axis=axis)).max(),
                   np.abs(np.take(vals, -1, axis=axis)).max())
    return _decay_ratio(edge, np.abs(vals[spec.n // 2]).max(),
                        lambda: max(np.abs(vals[rows]).max() for rows in _row_blocks(spec)))


def _decay_ratio(edge, central, peak) -> float:
    """edge / peak(), from the maxima of |f| over the faces, the central slice of axis 0 and
    (called only when needed) the grid.  The central peak bounds the grid's from below, and
    correctly rounded division is monotone, so faces at most BOUNDARY_WARN of it need no
    grid peak: every decision is the same."""
    if edge == 0.0:
        return 0.0
    if central > 0.0 and edge / central <= BOUNDARY_WARN:
        return float(edge / central)
    return float(edge / peak())


class _Maxima:
    """The maxima of |f| behind _boundary_ratio (the faces, the central slice of axis 0 and
    the grid), read from the |f| of each _row_blocks block of a norm pass in turn."""

    def __init__(self, spec: GridSpec):
        self.spec, self.edge, self.central, self.peak = spec, 0.0, 0.0, 0.0

    def read(self, rows: slice, mags: np.ndarray) -> None:
        n = self.spec.n
        faces = [np.take(mags, i, axis=axis) for axis in range(1, self.spec.d) for i in (0, -1)]
        faces += [mags[0]] * (rows.start == 0) + [mags[-1]] * (rows.stop >= n)
        self.edge = max(self.edge, *(face.max() for face in faces))
        if rows.start <= n // 2 < rows.stop:
            self.central = mags[n // 2 - rows.start].max()
        self.peak = max(self.peak, mags.max())

    def ratio(self) -> float:
        return _decay_ratio(self.edge, self.central, lambda: self.peak)


def _checkerboard(n: int, d: int) -> np.ndarray:
    """(-1)^{k_1+...+k_d} over the indices of an n^d grid, as int8."""
    alt = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8)
    return functools.reduce(np.multiply.outer, [alt] * d)


def _require_decay(ratio: float) -> None:
    """The transform's boundary guard on a _boundary_ratio: raise above BOUNDARY_ERROR, warn
    above BOUNDARY_WARN."""
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
    _require_decay(_boundary_ratio(spec, f.values))
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
    with _fourier_beside(f, terms) as norms:
        return norms()


@contextlib.contextmanager
def _fourier_beside(f: GridFunction, terms):
    """fourier_weighted_norm(f, terms) as a call: _beside's norms of the samples'
    _boundary_ratio where f carries its factors, else fourier_weighted_norm itself."""
    if f._terms is None:
        yield functools.partial(fourier_weighted_norm, f, terms)
        return
    with _beside(f.spec, f._terms, terms) as norms:
        yield lambda: norms(_boundary_ratio(f.spec, f.values))


def _fourier_pass(spec: GridSpec, pair, terms):
    """The norms of f^ for the separable sum of pair = (coefs, factors) on spec, without the
    boundary guard, as a call that streams them from _transform_rows: its operands are
    built here, its blocks when it is called."""
    return functools.partial(_weighted_norms, spec.dual(), _transform_rows(spec, *pair), terms)


def _separable_norms(spec: GridSpec, coefs, factors, terms) -> tuple[tuple[float, ...], float]:
    """grid_weighted_norm of the separable sum of (coefs, factors) on spec, streamed by
    _row_blocks so that no grid is built, and _boundary_ratio of its samples, taken from
    the same |f|."""
    maxima = _Maxima(spec)
    blocks = _separable_rows(spec, coefs, factors, _row_blocks(spec))
    return _weighted_norms(spec, blocks, terms, faces=maxima), maxima.ratio()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the CPU count where the
    platform has none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _two_at_once(spec: GridSpec) -> bool:
    """Whether the two sides of a check on spec run at once: spec has more than one
    _row_blocks block and two CPUs are usable."""
    return len(_row_blocks(spec)) > 1 and _usable_cpus() > 1


@contextlib.contextmanager
def _beside(spec: GridSpec, pair, terms):
    """Yield norms(ratio): the boundary guard on ratio, on the calling thread, then the norms
    in terms of f^ for the separable sum of pair = (coefs, factors) on spec (_fourier_pass).
    Where _two_at_once(spec) the pass runs beside the block on a thread of private calls only
    (the benchmark's tracer keeps one span stack), joined by norms and before the block is
    left: an error raised in the block, or by the guard, wins over the pass's."""
    outcome, thread = {}, None

    def run(xi_side):
        try:
            outcome["value"] = xi_side()
        except BaseException as error:  # raised on the calling thread by norms
            outcome["error"] = error

    def norms(ratio):
        _require_decay(ratio)
        if thread is None:  # the pass and its operands after the guard, as in series
            return _fourier_pass(spec, pair, terms)()
        thread.join()
        if "error" in outcome:
            raise outcome.pop("error")
        return outcome["value"]

    if _two_at_once(spec):
        thread = threading.Thread(target=run, args=(_fourier_pass(spec, pair, terms),),
                                  name="uplab-xi-side")
        thread.start()
    try:
        yield norms
    finally:
        if thread is not None:
            thread.join()


def _bump_norms(spec: GridSpec, seed: int, terms, xi_terms):
    """The norms in terms of random_bump(spec, seed) and in xi_terms of its transform.  The x
    side of a grid of several _row_blocks blocks is streamed from the factors beside f^'s
    pass; one block is sampled for grid_weighted_norm, and freed before f^'s pass."""
    if len(_row_blocks(spec)) > 1:
        pair = _bump_terms(spec, seed)
        with _beside(spec, pair, xi_terms) as hat_norms:
            norms, ratio = _separable_norms(spec, *pair, terms)
            return norms, hat_norms(ratio)
    bump = random_bump(spec, seed)
    norms, ratio = grid_weighted_norm(bump, terms), _boundary_ratio(spec, bump.values)
    pair, bump = bump._terms, None
    with _beside(spec, pair, xi_terms) as hat_norms:
        return norms, hat_norms(ratio)


def grid_weighted_norm(f: GridFunction, terms: Iterable[tuple[float, float]]) -> tuple[float, ...]:
    """Riemann-sum norms (sum |x_k|^{p w} |f_k|^p spacing^d)^{1/p}, one per (p, w) in
    terms; p = inf gives max |x_k|^w |f_k|.
    """
    return _weighted_norms(f.spec, f.values, terms, f._support)


def _weighted_norms(spec: GridSpec, samples, terms, support=None, faces=None):
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
        for (p, _), total in zip(terms, _weighted_sums(spec, samples, terms, support, faces))
    )


def _weighted_sums(spec: GridSpec, samples, terms, support=None, faces=None):
    """The sums sum |x_k|^{p w} |f_k|^p (max |x_k|^w |f_k| for p = inf) behind
    grid_weighted_norm, without the cell volume, over samples on spec or its _row_blocks.
    One blocked pass computes |f| and each distinct |f|^p once per block, gathers each
    weighted term's weights from its table over the spec's _radius_levels into a buffer of
    their own and multiplies |f|^p into it, and adds the block sums pairwise (p = inf takes
    their maximum, NaN kept).  A streamed block is freed once its |f| is taken, and each
    |f|^p after its terms; faces, a _Maxima, reads each block's |f| too (for samples
    without a support box).  Samples 0 outside the box support get their terms on the box
    only, zero-padded to the same block sums.  A non-finite sum raises, naming its (p, w),
    without a floating-point warning."""
    if isinstance(samples, np.ndarray):  # views of its blocks
        samples = [samples[rows] for rows in _row_blocks(spec)]
    blocks = iter(samples)  # read one at a time, so that a streamed block can be freed
    exponents = [w if p == math.inf else p * w for p, w in terms]  # |x|^e in each term
    levels, index = _radius_levels(spec) if any(w > 0 for _, w in terms) else (None, None)
    readers = {}  # each distinct p and the terms that read |f|^p
    for i, (p, _) in enumerate(terms):
        readers.setdefault(p, []).append(i)
    parts = [[] for _ in terms]
    # a power or weight beyond the floats shows as a sum of inf or NaN, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        tables = {e: levels**e for (_, w), e in zip(terms, exponents) if w > 0}
        for rows in _row_blocks(spec):
            block = next(blocks)
            box = ...  # the whole block, or its part in the support box
            if support is not None:
                box = (slice(max(support[0].start - rows.start, 0),
                             max(support[0].stop - rows.start, 0)),) + support[1:]
                padded, block = np.zeros(block.shape), block[box]
            mags = np.abs(block)
            block = None
            if faces is not None:
                faces.read(rows, mags)
            gathered = [np.take(tables[e], index[rows][box]) if w > 0 else None
                        for (_, w), e in zip(terms, exponents)]
            for p, reading in readers.items():  # each distinct |f|^p, freed after its terms
                power = mags if p == math.inf else mags**p
                for i in reading:
                    values, weights, gathered[i] = power, gathered[i], None
                    if weights is not None:
                        weights *= power
                        values = weights
                    if p == math.inf:
                        parts[i].append(values.max(initial=0.0))
                        continue
                    if support is not None:  # the box's terms in a zero block
                        padded[box], values = values, padded
                    parts[i].append(values.sum())
                power = values = weights = None
            mags = None  # before the next block is made
        sums = [float(np.max(part)) if p == math.inf else float(_pairwise(part))
                for (p, _), part in zip(terms, parts)]
    for (p, w), total in zip(terms, sums):
        if not math.isfinite(total):
            raise ValueError(f"the grid sum of |x|^(p w) |f|^p at p={p:g}, w={w:g} is {total}: "
                             "a power of |f| or |x| leaves the float range")
    return sums


def _ball_sum(spec: GridSpec, samples: np.ndarray, p: float, radius: float) -> float:
    """sum |f_k|^p over |x_k| <= radius, from blocks of _BLOCK samples of the box within radius
    on each axis (|x_k| >= |x_i|, |x| at x = 0 on the other axes), by _radius_levels' index."""
    levels, index = _radius_levels(spec)
    inside = np.count_nonzero(levels <= radius)
    near = np.flatnonzero(index[(slice(None),) + (spec.n // 2,) * (spec.d - 1)] < inside)
    rows, sums = max(1, _BLOCK // max(near.size, 1) ** (spec.d - 1)), []
    for lo in range(0, near.size, rows):
        box = np.ix_(near[lo:lo + rows], *[near] * (spec.d - 1))
        sums.append(np.sum(np.abs(samples[box][index[box] < inside]) ** p))
    return math.fsum(sums)


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
    return gaussian_mixture_grid_function(spec, [(0.0, rate)])


def gaussian_mixture_grid_function(spec: GridSpec, terms) -> GridFunction:
    """Real samples of sum_t c_t exp(-pi rate_t |x|^2) over the (ln c_t, rate_t) in terms,
    such as a Gaussian-mixture RadialProfile's: each term the product of d 1-D Gaussians."""
    log_coefs, rates = np.array(terms, dtype=float).T
    coefs = np.exp(log_coefs)
    with np.errstate(over="ignore"):  # an exponent of -inf samples an exact 0
        table = np.multiply.outer(-math.pi * rates, np.square(spec.axis_coordinates()))
        np.exp(table, out=table)
    factors = np.broadcast_to(table[:, None, :], (len(coefs), spec.d, spec.n))
    return _separable_function(spec, coefs, factors)


def random_bump(spec: GridSpec, seed: int) -> GridFunction:
    """A reproducible smooth bump: a random complex mixture of shifted Gaussians
    sum_t c_t exp(-pi |x - x_t|^2 / w_t^2).

    Widths in [0.7, 1.1] and centers within 1/4 of the half-width keep the
    function resolved and decayed at the boundary for the default grids.  Each
    term is sampled as the product of its d one-dimensional Gaussians, so the
    samples differ from exp of the full exponent by a few units in the last place
    of each term (more where the exponent is large).
    """
    return _separable_function(spec, *_bump_terms(spec, seed))


def _bump_terms(spec: GridSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients c_t of random_bump(spec, seed) and its terms' 1-D factors
    tabulated on the axis coordinates, as (BUMP_TERMS, d, n) real factors."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    span = 0.25 * spec.half_width
    centers = rng.uniform(-span, span, size=(BUMP_TERMS, spec.d))
    widths = rng.uniform(0.7, 1.1, size=BUMP_TERMS)
    coefs = rng.normal(size=BUMP_TERMS) + 1j * rng.normal(size=BUMP_TERMS)
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
    """sum_t c_t prod_i factors[t, i, k_i] over each slice of first-axis rows in blocks: an
    iterator of new C-contiguous arrays, real for real terms, whose operands are built
    here and whose blocks are made as it is read.  The coefficients times the last d - 1 axes'
    factors, an (n_terms, n^{d-1}) array R read as interleaved reals, are summed against F,
    the block's first-axis factors, by one real matrix product; complex F enters as
    [Re F; Im F] against [R; iR].  (A complex product with a small inner dimension ran 100
    times slower in some processes.)"""
    right = coefs[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples or sums raise
        for axis in range(1, spec.d):
            right = (right[:, :, None] * factors[:, axis, None, :]).reshape(len(coefs), -1)
        left = factors[:, 0]
        if np.iscomplexobj(left):
            left = np.concatenate([left.real, left.imag])
            right = np.concatenate([right, right], dtype=complex)  # [R; iR], no 1j * R temporary
            right[len(coefs):] *= 1j
    dtype, right = right.dtype, right.view(np.float64)
    shape = (-1,) + (spec.n,) * (spec.d - 1)
    return ((left[:, rows].T @ right).view(dtype).reshape(shape) for rows in blocks)


def _transform_rows(spec: GridSpec, coefs: np.ndarray, factors: np.ndarray):
    """fourier_transform's values on the separable sum of (coefs, factors), to a few ulps of
    the peak, by _row_blocks of the dual grid and without the boundary guard: _separable_rows
    of the 1-D factors' transforms, each taken between (-1)^k sign flips."""
    alt = _checkerboard(spec.n, 1)
    hats = np.fft.fft(factors * alt, axis=-1)
    hats *= alt * spec.spacing
    return _separable_rows(spec.dual(), coefs, hats, _row_blocks(spec))
