"""Explicit function families that probe the sharpness of the bounds.

Three constructions live here:

* the two-scale Gaussian family g_c = c^{-d/2} e^{-pi |x|^2/c^2}
  + c^{d/2} e^{-pi c^2 |x|^2}, self-dual and responsible for the collapse of
  the uncertainty product in the supercritical range,
* the recursively signed translate families (Rudin-Shapiro style) with their
  2^d x 2^d parallelogram-law sign matrix, which defeat the strict-violation
  side of the Cowling-Price conditions,
* the endpoint singularity |x|^{-d/2} log^{-1/2}(1/|x|), whose L^2 tail masses
  (divergent) and weighted mass (finite) are measured by radial quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec, grid_weighted_norm
from .params import _critical_exponent, lp_regime
from .radial import RadialProfile, _exp_in_range, radial_integral, radial_weighted_norm
from .specialfn import LOG_MAX, LOG_MIN

MAX_SIGN_DIM = 12
RS_SPACING = 1.0 / 16.0
RS_HALF_WIDTH = 16.0


# ---------------------------------------------------------------------------
# g_c sharpness family


def gc_profile(c: float, d: int) -> RadialProfile:
    """The two-scale mixture c^{-d/2} e^{-pi r^2/c^2} + c^{d/2} e^{-pi c^2 r^2}."""
    if not (c > 0 and 0 < c * c < math.inf):
        raise ValueError(f"c must be positive with a finite, nonzero square, got {c}")
    try:
        coefs = (c ** (-0.5 * d), c ** (0.5 * d))
    except OverflowError:
        coefs = (math.inf,)
    if not all(0 < coef < math.inf for coef in coefs):
        raise ValueError(f"c={c} gives g_c coefficients c^(-+d/2) outside the float range at d={d}")
    return RadialProfile(terms=((coefs[0], 1.0 / (c * c)), (coefs[1], c * c)))


def gc_uncertainty_ratio(c: float, d: int, p: float) -> float:
    """ln of V_p(g_c) / ||g_c||_p^p by exact radial quadrature (cross terms included).

    g_c is its own Fourier transform, so the full uncertainty product is the
    square of this ratio.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    profile = gc_profile(c, d)
    return p * (radial_weighted_norm(profile, d, p, 1.0) - radial_weighted_norm(profile, d, p, 0.0))


def gc_infimum_sweep(d: int, p: float, c_values) -> list[float]:
    """Squared g_c uncertainty ratios along increasing c; supercritical only."""
    if lp_regime(d, p) != "supercritical":
        crit = _critical_exponent(d) if d > 1 else math.inf
        raise ValueError(
            f"p must satisfy p > 2d/(d-1) = {crit:g} for d={d}, got p={p}"
        )
    c_values = list(c_values)
    if any(c < 1 for c in c_values) or sorted(c_values) != c_values:
        raise ValueError("c_values must be increasing and >= 1")
    products = []
    for c in c_values:
        log_product = 2.0 * gc_uncertainty_ratio(c, d, p)
        if not LOG_MIN <= log_product < LOG_MAX:
            raise ValueError(f"the g_c uncertainty product at c={c:g} is outside the normal "
                             f"float range: ln product = {log_product:.6g}")
        products.append(math.exp(log_product))
    return products


# ---------------------------------------------------------------------------
# Sign matrices (parallelogram law for 2^d numbers)


def sign_matrix(d: int) -> np.ndarray:
    """Read-only 2^d x 2^d int8 matrix of +-1, by recursive doubling [[M, M], [M, -M]].

    Its rows are pairwise orthogonal and its first column is +1, so for any
    complex vector a:  sum_i |sum_j e_ij a_j|^2 = 2^d sum_j |a_j|^2.
    """
    if not 1 <= d <= MAX_SIGN_DIM:
        raise ValueError(f"sign_matrix supports 1 <= d <= {MAX_SIGN_DIM}, got {d}")
    m = np.array([[1]], dtype=np.int8)
    for _ in range(d):
        m = np.block([[m, m], [m, -m]]).astype(np.int8)
    m.setflags(write=False)
    return m


# ---------------------------------------------------------------------------
# Rudin-Shapiro translate families: +-1 sign tensors times one bump


@dataclass(frozen=True)
class RSFamily:
    """The 2^d level-k signed translates of the base bump, which lies inside [0, 1)^d,
    so the translates have disjoint supports; signs is rs_signs(d, k).
    """

    d: int
    k: int
    signs: np.ndarray
    base: GridFunction
    base_l2_sq: float

    def member(self, i: int, spec: GridSpec | None = None) -> GridFunction:
        """Member i, signs[i] times the tile (the base bump on the unit cell [0, 1)^d),
        sampled on spec: a centered grid of the base's spacing that holds the
        support [0, 2^k)^d (default: the base grid).
        """
        base = self.base.spec
        spec = base if spec is None else spec
        cells = round(1.0 / base.spacing)
        if spec.d != self.d or spec.spacing != base.spacing or spec.n < 2 * cells * 2**self.k:
            raise ValueError(f"grid {spec} cannot hold the level-{self.k} support at the base spacing")
        tile = self.base.values[(slice(base.n // 2, base.n // 2 + cells),) * self.d]
        values = np.zeros((spec.n,) * self.d)
        origin = spec.n // 2  # sample index of x = 0
        support = (slice(origin, origin + cells * 2**self.k),) * self.d
        # adding onto +0.0 turns the -1 * 0.0 products outside the bump into +0.0
        values[support] += np.kron(self.signs[i], tile)
        return GridFunction(spec=spec, values=values)


def _support_grid(spec: GridSpec, k: int) -> GridSpec:
    """The smallest centered grid of spec's spacing that holds [0, 2^k)^d.

    Its rows keep at least 128 samples, numpy's pairwise-summation block, so
    each block lies inside one row as it does on spec: a norm over it then
    adds the same nonzero samples in the same order and drops only exact
    zeros, which keeps its bits.
    """
    support = round(1.0 / spec.spacing) * 2**k
    n = min(spec.n, max(128, 1 << (2 * support - 1).bit_length()))
    return GridSpec(spec.d, n, 0.5 * n * spec.spacing)


def rs_base_bump_1d(t: np.ndarray) -> np.ndarray:
    """Polynomial bump (1 - (2u - 1)^2)^4 rescaled to [1/10, 9/10], peak 1."""
    u = (np.asarray(t, dtype=float) - 0.1) / 0.8
    inside = (u > 0) & (u < 1)
    core = np.where(inside, 1.0 - (2.0 * u - 1.0) ** 2, 0.0)
    return core**4


def rs_base(d: int) -> GridFunction:
    """The level-0 bump on the lattice-exact grid (spacing 1/16)."""
    if d not in (1, 2):
        raise ValueError(f"translate families are built on grids only for d <= 2, got {d}")
    n = int(round(2.0 * RS_HALF_WIDTH / RS_SPACING))
    spec = GridSpec(d=d, n=n, half_width=RS_HALF_WIDTH)
    bump = rs_base_bump_1d(spec.axis_coordinates())
    return GridFunction(spec=spec, values=functools.reduce(np.multiply.outer, [bump] * d))


def rs_signs(d: int, k: int) -> np.ndarray:
    """The +-1 coefficients of the 2^d level-k members on the cells {0..2^k-1}^d.

    Read-only int8 of shape (2^d,) + (2^k,)*d.  Member i of level k+1 holds
    s_ij times member j of level k in corner block j of the doubled cube, where
    s is sign_matrix(d) and bit b of j selects the upper half on axis b.
    """
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")
    s = sign_matrix(d)
    m = 2**d
    signs = np.ones((m,) + (1,) * d, dtype=np.int8)
    for level in range(k):
        side = 2**level
        doubled = np.empty((m,) + (2 * side,) * d, dtype=np.int8)
        for j in range(m):
            block = tuple(slice(side, 2 * side) if (j >> b) & 1 else slice(0, side) for b in range(d))
            doubled[(slice(None),) + block] = s[:, j].reshape((m,) + (1,) * d) * signs[j]
        signs = doubled
    signs.setflags(write=False)
    return signs


def rs_level(base: GridFunction, d: int, k: int) -> RSFamily:
    """The level-k family on the grid of base; RSFamily.member builds each function.

    base_l2_sq is the L^2 mass of base over the support grid of the unit cell,
    where base lives.
    """
    if d not in (1, 2):
        raise ValueError(f"rs_level supports d in (1, 2), got {d}")
    if base.spec.d != d:
        raise ValueError("base grid dimension does not match d")
    if k < 0 or k > 4:
        raise ValueError(f"level must be 0..4, got {k}")
    spacing = base.spec.spacing
    inv = 1.0 / spacing
    if abs(inv - round(inv)) > 1e-12:
        raise ValueError(f"grid spacing {spacing} does not divide 1; translates not lattice-exact")
    if 2**k > base.spec.half_width:
        raise ValueError(f"grid cannot hold the level-{k} support [0, {2**k}]^{d}")
    window = _support_grid(base.spec, 0)
    lo = (base.spec.n - window.n) // 2
    cell = GridFunction(spec=window, values=base.values[(slice(lo, lo + window.n),) * d])
    base_l2_sq = grid_weighted_norm(cell, [(2.0, 0.0)])[0] ** 2
    return RSFamily(d=d, k=k, signs=rs_signs(d, k), base=base, base_l2_sq=base_l2_sq)


def rs_growth_ratio(families: list[RSFamily], p: float, theta: float) -> list[float]:
    """Per-level violation ratios; their base-2 slope is d/2 - d/p - theta.

    ratio_k = ||f_{1,k}||_2^2 / (|| |x|^theta f_{1,k} ||_p * 2^{dk/2 + d/2}),
    with the k-independent Fourier-side norm factor dropped (it does not
    affect the slope).  The weighted norm sums over the level-k support grid,
    not the base grid; the samples it leaves out are exact zeros.
    """
    if len(families) < 3:
        raise ValueError("need at least 3 levels for a slope fit")
    if not (p > 1 and 0 <= theta < math.inf):
        raise ValueError("require p > 1 and 0 <= theta < inf")
    d = families[0].d
    if any(fam.d != d for fam in families):
        raise ValueError("families must share the dimension")
    out = []
    for fam in families:
        # the 2^{dk} translates of the base are disjoint and carry signs +-1
        l2_sq = 2.0 ** (d * fam.k) * fam.base_l2_sq
        lead = fam.member(0, _support_grid(fam.base.spec, fam.k))
        (weighted,) = grid_weighted_norm(lead, [(p, theta)])
        fourier_side = 2.0 ** (0.5 * d * fam.k + 0.5 * d)
        out.append(l2_sq / (weighted * fourier_side))
    return out


def rs_slope(families: list[RSFamily], p: float, theta: float) -> float:
    """Least-squares base-2 slope of the growth ratios over levels k >= 1."""
    ratios = rs_growth_ratio(families, p, theta)
    ks = np.array([fam.k for fam in families], dtype=float)
    logs = np.log2(np.array(ratios))
    mask = ks >= 1
    coeffs = np.polyfit(ks[mask], logs[mask], 1)
    return float(coeffs[0])


# ---------------------------------------------------------------------------
# Endpoint case: masses of the |x|^{-d/2} ln^{-1/2}(1/|x|) singularity, measured


def endpoint_tail_mass(delta: float, d: int) -> float:
    """The L^2 mass of |x|^{-d/2} ln^{-1/2}(1/|x|) over delta < |x| < 1/2, by radial
    quadrature; it grows like omega_{d-1} ln ln(1/delta), so the profile is not L^2."""
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    return radial_integral(RadialProfile(power_log=(-d, -1.0)), d, delta, 0.5)


def endpoint_weighted_mass(d: int, p: float) -> float:
    """|| |x|^theta F ||_p^p for F = |x|^{-d/2} ln^{-1/2}(1/|x|) on |x| < 1/2 at the
    endpoint theta = d(1/2 - 1/p), by radial quadrature; finite exactly for p > 2."""
    if p <= 2:
        raise ValueError(f"the endpoint mass diverges for p <= 2, got p={p}")
    profile = RadialProfile(power_log=(-0.5 * d, -0.5))
    log_mass = p * radial_weighted_norm(profile, d, p, d * (0.5 - 1.0 / p))
    return _exp_in_range(log_mass, f"the endpoint weighted mass at d={d}, p={p:g}")
