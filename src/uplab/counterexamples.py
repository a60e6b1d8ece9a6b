"""Explicit function families that probe the sharpness of the bounds.

Three constructions live here:

* the two-scale Gaussian family g_c = c^{-d/2} e^{-pi |x|^2/c^2}
  + c^{d/2} e^{-pi c^2 |x|^2}, self-dual and responsible for the collapse of
  the uncertainty product in the supercritical range,
* the recursively signed translate families (Rudin-Shapiro style), which defeat
  the strict-violation side of Cowling-Price: each member is rank one, the outer
  product over the axes of a 1-D Rudin-Shapiro sequence times a 1-D bump,
  since the 2^d x 2^d parallelogram-law sign matrix is a Kronecker power,
* the endpoint singularity |x|^{-d/2} log^{-1/2}(1/|x|), whose L^2 tail masses
  (divergent) and weighted mass (finite) are exact integrals in closed form,
  returned as their logs, so they get a verdict at any d and p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, GridSpec, grid_weighted_norm
from .params import _critical_exponent, lp_regime
from .radial import RadialProfile, log_moment_ratio, radial_integral

MAX_SIGN_DIM = 12
RS_SPACING = 1.0 / 16.0
RS_HALF_WIDTH = 16.0


# ---------------------------------------------------------------------------
# g_c sharpness family


def gc_profile(c: float, d: int) -> RadialProfile:
    """The two-scale mixture c^{-d/2} e^{-pi r^2/c^2} + c^{d/2} e^{-pi c^2 r^2}, its
    coefficients held as their logs -+(d/2) ln c."""
    if not (c > 0 and 0 < c * c < math.inf):
        raise ValueError(f"c must be positive with a finite, nonzero square, got {c}")
    log_c = 0.5 * d * math.log(c)
    return RadialProfile(terms=((-log_c, 1.0 / (c * c)), (log_c, c * c)))


def gc_infimum_sweep(d: int, p: float, c_values) -> list[float]:
    """ln of the g_c uncertainty products along increasing c; supercritical only.  g_c is
    its own Fourier transform, so each product is the square of log_moment_ratio's ratio
    (cross terms included)."""
    if lp_regime(d, p) != "supercritical":
        crit = _critical_exponent(d) if d > 1 else math.inf
        raise ValueError(
            f"p must satisfy p > 2d/(d-1) = {crit:g} for d={d}, got p={p}"
        )
    c_values = list(c_values)
    if any(c < 1 for c in c_values) or any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ValueError(f"c_values must be strictly increasing and >= 1, got {c_values}")
    log_products = []
    for c in c_values:
        log_product = 2.0 * log_moment_ratio(gc_profile(c, d), d, p)
        if not math.isfinite(log_product):
            raise ValueError(f"the g_c uncertainty product at c={c:g} has no finite log: "
                             f"ln product = {log_product:.6g}")
        log_products.append(log_product)
    return log_products


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
# Rudin-Shapiro translate families: outer products of the 1-D pair times one bump


def rs_pair(k: int) -> np.ndarray:
    """The level-k Rudin-Shapiro pair (P_k, Q_k), a read-only (2, 2^k) int8 array of +-1:
    P_0 = Q_0 = (1), and row i of level k+1 is s_i0 P_k followed by s_i1 Q_k, where s is
    sign_matrix(1).  So P_k's first 2^{k-1} entries are P_{k-1}, and
    |P_k^|^2 + |Q_k^|^2 = 2^{k+1} at every frequency.
    """
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")
    s = sign_matrix(1)
    pair = np.ones((2, 1), dtype=np.int8)
    for _ in range(k):
        pair = np.hstack([s[:, :1] * pair[0], s[:, 1:] * pair[1]])
    pair.setflags(write=False)
    return pair


@dataclass(frozen=True)
class RSFamily:
    """The 2^d level-k signed translates of the base bump, which lies inside [0, 1)^d,
    so the translates have disjoint supports.  Member i is the outer product over the
    axes b of pair[bit b of i] times the bump: pair is rs_pair(k), and bump holds the 1-D
    bump's samples on the unit cell, the same read-only array at every level.  leads holds
    the leading members f_{1,j} of levels j = 1..k, each on _support_grid(d, j), as
    rs_level places them for rs_growth_ratio.
    """

    d: int
    k: int
    pair: np.ndarray
    bump: np.ndarray
    base_l2_sq: float
    leads: tuple[GridFunction, ...] = field(default=(), repr=False, compare=False)

    def member(self, i: int, spec: GridSpec | None = None) -> GridFunction:
        """Member i, sampled on spec (default: the 512^d grid of spacing 1/16 and
        half-width 16)."""
        if not 0 <= i < 2**self.d:
            raise ValueError(f"member index must be 0..{2**self.d - 1}, got {i}")
        if spec is None:
            spec = GridSpec(self.d, round(2.0 * RS_HALF_WIDTH / RS_SPACING), RS_HALF_WIDTH)
        return _place([self.pair[(i >> b) & 1] for b in range(self.d)], self.bump, spec)


def _place(signs, bump: np.ndarray, spec: GridSpec) -> GridFunction:
    """The outer product over the axes of signs[b] (+-1 per unit cell of [0, 2^k)) times
    the bump, on spec: a centered grid whose spacing puts the bump's samples on the unit
    cell and that holds [0, 2^k)^d, which is the result's _support box.  It carries its d
    axis factors as one separable term."""
    d, side, cells = len(signs), len(signs[0]), len(bump)
    if spec.d != d or spec.spacing * cells != 1.0 or spec.n < 2 * cells * side:
        raise ValueError(f"grid {spec} cannot hold [0, {side})^{d} at spacing 1/{cells}")
    origin = spec.n // 2  # sample index of x = 0
    box = slice(origin, origin + cells * side)
    # adding onto +0.0 turns the -1 * 0.0 products outside the bump into +0.0
    factors = np.zeros((1, d, spec.n))
    for axis, axis_signs in enumerate(signs):
        factors[0, axis, box] += np.multiply.outer(axis_signs, bump).reshape(-1)
    values = np.zeros((spec.n,) * d)
    values[(box,) * d] += functools.reduce(np.multiply.outer, factors[0, :, box])
    return GridFunction(spec=spec, values=values, _terms=(np.ones(1), factors),
                        _support=(box,) * d)


def _support_grid(d: int, k: int) -> GridSpec:
    """The smallest centered grid of spacing 1/16 that holds [0, 2^k)^d.

    Its rows keep at least 128 samples, numpy's pairwise-summation block, so
    each block lies inside one row as it does on the 512^d grid: a norm over it
    then adds the same nonzero samples in the same order and drops only exact
    zeros, which keeps its bits.
    """
    cells = round(1.0 / RS_SPACING)
    n = max(128, 1 << (2 * cells * 2**k - 1).bit_length())
    return GridSpec(d, n, 0.5 * n / cells)


def rs_base_bump_1d(t: np.ndarray) -> np.ndarray:
    """Polynomial bump (1 - (2u - 1)^2)^4 rescaled to [1/10, 9/10], peak 1."""
    u = (np.asarray(t, dtype=float) - 0.1) / 0.8
    inside = (u > 0) & (u < 1)
    core = np.where(inside, 1.0 - (2.0 * u - 1.0) ** 2, 0.0)
    return core**4


def rs_level(d: int, k: int) -> RSFamily:
    """The level-k family; RSFamily.member builds each function.  It is built once per
    (d, k) and then shared, every array in it read-only.

    The bump is sampled at spacing 1/16 on the unit cell, and base_l2_sq is the L^2
    mass of its d-fold product over the support grid of the unit cell.
    """
    if d not in (1, 2):
        raise ValueError(f"rs_level supports d in (1, 2), got {d}")
    if k < 0 or k > 4:
        raise ValueError(f"level must be 0..4, got {k}")
    return _rs_family(d, k)


@functools.lru_cache(maxsize=10)  # every (d, k) that rs_level accepts
def _rs_family(d: int, k: int) -> RSFamily:
    bump = rs_base_bump_1d(RS_SPACING * np.arange(round(1.0 / RS_SPACING)))
    bump.setflags(write=False)
    cell = _place([np.ones(1, dtype=np.int8)] * d, bump, _support_grid(d, 0))
    base_l2_sq = grid_weighted_norm(cell, [(2.0, 0.0)])[0] ** 2
    pair = rs_pair(k)
    # P_k starts with each lower level's P_j, so f_{1,j} is member 0 cut to [0, 2^j)^d
    leads = tuple(_place([pair[0, :2**j]] * d, bump, _support_grid(d, j)) for j in range(1, k + 1))
    return RSFamily(d=d, k=k, pair=pair, bump=bump, base_l2_sq=base_l2_sq, leads=leads)


def rs_growth_ratio(family: RSFamily, p: float, theta: float) -> list[float]:
    """Violation ratios of levels 1..family.k; their base-2 slope is d/2 - d/p - theta.

    ratio_k = ||f_{1,k}||_2^2 / (|| |x|^theta f_{1,k} ||_p * 2^{dk/2 + d/2}),
    with the k-independent Fourier-side norm factor dropped (it does not affect the
    slope).  f_{1,k} is the family's lead of level k, member 0 cut to [0, 2^k)^d on the
    level-k support grid: the 512^d samples it leaves out are exact zeros.
    """
    if family.k < 2:
        raise ValueError("need levels 1..k with k >= 2 for a slope fit")
    if not (p > 1 and 0 <= theta < math.inf):
        raise ValueError("require p > 1 and 0 <= theta < inf")
    d = family.d
    out = []
    for k in range(1, family.k + 1):
        # the 2^{dk} translates of the base are disjoint and carry signs +-1
        l2_sq = 2.0 ** (d * k) * family.base_l2_sq
        (weighted,) = grid_weighted_norm(family.leads[k - 1], [(p, theta)])
        fourier_side = 2.0 ** (0.5 * d * k + 0.5 * d)
        out.append(l2_sq / (weighted * fourier_side))
    return out


def rs_slope(family: RSFamily, p: float, theta: float) -> float:
    """Least-squares base-2 slope of the growth ratios of levels 1..family.k."""
    logs = np.log2(np.array(rs_growth_ratio(family, p, theta)))
    coeffs = np.polyfit(np.arange(1.0, family.k + 1), logs, 1)
    return float(coeffs[0])


# ---------------------------------------------------------------------------
# Endpoint case: masses of the |x|^{-d/2} ln^{-1/2}(1/|x|) singularity, in closed form


def endpoint_tail_mass(delta: float, d: int) -> float:
    """ln of the L^2 mass of |x|^{-d/2} ln^{-1/2}(1/|x|) over delta < |x| < 1/2 by
    radial_integral, omega_{d-1} (ln ln(1/delta) - ln ln 2): it grows without bound, so
    the profile is not L^2."""
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    return radial_integral(-1.0, d, delta, 0.5)


def endpoint_weighted_mass(d: int, p: float) -> float:
    """ln || |x|^theta F ||_p^p for F = |x|^{-d/2} ln^{-1/2}(1/|x|) on |x| < 1/2 at the
    endpoint theta = d(1/2 - 1/p), the mass of |x|^{p theta} F^p = |x|^{-d} ln^{-p/2}(1/|x|)
    by radial_integral, omega_{d-1} ln^{1-p/2}(2) / (p/2 - 1): finite exactly for p > 2."""
    if p <= 2:
        raise ValueError(f"the endpoint mass diverges for p <= 2, got p={p}")
    return radial_integral(-0.5 * p, d, 0.0, 0.5)
