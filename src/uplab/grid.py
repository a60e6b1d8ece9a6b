"""Sampled real or complex functions on centered cubes in R^d (d <= 3) and a
discrete approximation of the Fourier transform f^(xi) = int f e^{-2 pi i x.xi} dx.

The sampling is centered (sample k -> -L + k*spacing per axis) and the
transform returns samples on the dual grid (spacing 1/(2L), half-width
n/(4L)).  Both grids put sample k at (k - n/2)*spacing, so the transform is
the DFT with the origin rotated to index 0 and back, which is exact; for
well-resolved inputs the output matches the continuous transform to near
machine precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

BOUNDARY_WARN = 1e-12
BOUNDARY_ERROR = 1e-6

DEFAULT_SPECS = {1: (256, 8.0), 2: (128, 6.0), 3: (64, 5.0)}


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
        if not (0 < self.half_width < math.inf and 0 < 2.0 * self.half_width / self.n < math.inf):
            raise ValueError(f"half_width L={self.half_width} must give a finite spacing 2L/n > 0")

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

    def radius(self) -> np.ndarray:
        mesh = self.meshgrid()
        return np.sqrt(sum(m * m for m in mesh))

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


def sample(generator, spec: GridSpec) -> GridFunction:
    """Sample a pointwise function of d coordinate arrays onto the grid."""
    shape = (spec.n,) * spec.d
    vals = generator(*spec.meshgrid())
    if np.shape(vals) != shape:
        vals = np.broadcast_to(vals, shape).copy()
    return GridFunction(spec=spec, values=vals)


def _boundary_ratio(f: GridFunction) -> float:
    vals = np.abs(f.values)
    peak = vals.max()
    if peak == 0.0:
        return 0.0
    edge = 0.0
    for axis in range(f.spec.d):
        edge = max(edge, np.take(vals, 0, axis=axis).max(), np.take(vals, -1, axis=axis).max())
    return float(edge / peak)


def fourier_transform(f: GridFunction) -> GridFunction:
    """Samples of the continuous Fourier transform on the dual grid."""
    ratio = _boundary_ratio(f)
    if ratio > BOUNDARY_ERROR:
        raise ValueError(
            f"function does not decay at the domain boundary (ratio {ratio:.3e}); "
            "enlarge the grid"
        )
    if ratio > BOUNDARY_WARN:
        warnings.warn(
            f"boundary samples at {ratio:.3e} of the peak; transform accuracy degrades",
            stacklevel=2,
        )
    spec = f.spec
    # sample k sits at (k - n/2)*spacing on both grids: rotate x = 0 to index 0 and back
    vals = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values))) * spec.spacing**spec.d
    return GridFunction(spec=spec.dual(), values=vals)


def grid_weighted_norm(f: GridFunction, p: float, weight_exponent: float = 0.0) -> float:
    """Riemann-sum norm (sum |x_k|^{p w} |f_k|^p spacing^d)^{1/p}; p=inf -> max |x_k|^w |f_k|."""
    if not weight_exponent >= 0:
        raise ValueError("weight_exponent must be nonnegative")
    mags = np.abs(f.values)
    if p == math.inf:
        if weight_exponent > 0:
            mags = f.spec.radius() ** weight_exponent * mags
        return float(mags.max())
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if weight_exponent > 0:
        weights = f.spec.radius() ** (p * weight_exponent)
        total = float(np.sum(weights * mags**p))
    else:
        total = float(np.sum(mags**p))
    return (total * f.spec.spacing ** f.spec.d) ** (1.0 / p)


def plancherel_defect(f: GridFunction) -> float:
    """| ||f||_2 - ||f^||_2 | / ||f||_2 on the grid."""
    norm_f = grid_weighted_norm(f, 2.0)
    if norm_f == 0.0:
        raise ValueError("plancherel_defect is undefined for the zero function")
    norm_hat = grid_weighted_norm(fourier_transform(f), 2.0)
    return abs(norm_f - norm_hat) / norm_f


def primary_up_defect(f: GridFunction, a: float, p: float) -> float:
    """The quotient ||f||_a ||f^||_a / (||f||_p ||f^||_p); >= 1 - 1e-6 when resolved."""
    from .params import primary_up_admissible

    if not primary_up_admissible(a, p):
        raise ValueError(f"(a={a}, p={p}) violates 1 < a < p, 1/a + 1/p >= 1")
    fhat = fourier_transform(f)
    num = grid_weighted_norm(f, a) * grid_weighted_norm(fhat, a)
    den = grid_weighted_norm(f, p) * grid_weighted_norm(fhat, p)
    return num / den


def write_grid_csv(f: GridFunction, path) -> None:
    """CSV of (index, re, im) with a header line carrying the grid geometry."""
    spec = f.spec
    flat = f.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(f"# d={spec.d} n={spec.n} half_width={spec.half_width:.17g}\n")
        fh.write("index,re,im\n")
        for i, v in enumerate(flat):
            fh.write(f"{i},{v.real:.17g},{v.imag:.17g}\n")


def read_grid_csv(path) -> GridFunction:
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


def gaussian_grid_function(spec: GridSpec, rate: float = 1.0) -> GridFunction:
    """Samples of exp(-pi * rate * |x|^2); rate 1 is the self-dual Gaussian."""
    return sample(lambda *mesh: np.exp(-math.pi * rate * sum(m * m for m in mesh)), spec)


def random_bump(spec: GridSpec, seed: int, n_terms: int = 4) -> GridFunction:
    """A reproducible smooth bump: a random complex mixture of shifted Gaussians.

    Widths in [0.7, 1.1] and centers within 1/4 of the half-width keep the
    function resolved and decayed at the boundary for the default grids.
    """
    rng = np.random.default_rng(seed)
    span = 0.25 * spec.half_width
    centers = rng.uniform(-span, span, size=(n_terms, spec.d))
    widths = rng.uniform(0.7, 1.1, size=n_terms)
    coefs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)

    def gen(*mesh):
        out = np.zeros(mesh[0].shape, dtype=complex)
        for c, w, center in zip(coefs, widths, centers):
            r2 = sum((m - center[i]) ** 2 for i, m in enumerate(mesh))
            out = out + c * np.exp(-math.pi * r2 / (w * w))
        return out

    return sample(gen, spec)
