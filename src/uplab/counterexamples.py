"""Explicit function families that probe the sharpness of the bounds.

Three constructions live here:

* the two-scale Gaussian family g_c = c^{-d/2} e^{-pi |x|^2/c^2}
  + c^{d/2} e^{-pi c^2 |x|^2}, self-dual and responsible for the collapse of
  the uncertainty product in the supercritical range,
* the recursively signed translate families (Rudin-Shapiro style) with their
  2^d x 2^d parallelogram-law sign matrix, which defeat the strict-violation
  side of the Cowling-Price conditions,
* closed-form radial mass integrals for the endpoint case, where the
  obstruction is a |x|^{-d/2} log^{-1/2}(1/|x|) local singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec, grid_weighted_norm, sample
from .params import lp_regime
from .radial import RadialProfile, radial_weighted_norm
from .specialfn import dimension_constants

MAX_SIGN_DIM = 12
RS_SPACING = 1.0 / 16.0


# ---------------------------------------------------------------------------
# g_c sharpness family


def gc_profile(c: float, d: int) -> RadialProfile:
    """The two-scale mixture c^{-d/2} e^{-pi r^2/c^2} + c^{d/2} e^{-pi c^2 r^2}."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    return RadialProfile(
        terms=((c ** (-0.5 * d), 1.0 / (c * c)), (c ** (0.5 * d), c * c))
    )


def gc_uncertainty_ratio(c: float, d: int, p: float) -> float:
    """V_p(g_c) / ||g_c||_p^p by exact radial quadrature (cross terms included).

    g_c is its own Fourier transform, so the full uncertainty product is the
    square of this ratio.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    profile = gc_profile(c, d)
    moment = radial_weighted_norm(profile, d, p, 1.0) ** p
    norm_p = radial_weighted_norm(profile, d, p, 0.0) ** p
    return moment / norm_p


def h_bound(c: float, d: int, p: float) -> float:
    """(c^{d+p-dp/2} + c^{-(d+p)+dp/2}) / (c^{d-dp/2} + c^{dp/2-d}), log domain."""
    if p <= 2:
        raise ValueError(f"h_bound degenerates at p <= 2, got p={p}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    lc = math.log(c)
    top = d + p - 0.5 * d * p
    bot = d - 0.5 * d * p
    num = np.logaddexp(top * lc, -top * lc)
    den = np.logaddexp(bot * lc, -bot * lc)
    return float(math.exp(num - den))


def alpha_exponent(d: int, p: float) -> float:
    """|2 (d + p - dp/2) / ((p-2) d)|, the decay exponent of h after t = c^{dp/2-d}."""
    if p <= 2:
        raise ValueError(f"alpha_exponent degenerates at p <= 2, got p={p}")
    return abs(2.0 * (d + p - 0.5 * d * p) / ((p - 2.0) * d))


def gc_infimum_sweep(d: int, p: float, c_values) -> list[float]:
    """Squared g_c uncertainty ratios along increasing c; supercritical only."""
    if lp_regime(d, p) != "supercritical":
        crit = 2.0 * d / (d - 1) if d > 1 else math.inf
        raise ValueError(
            f"p must satisfy p > 2d/(d-1) = {crit:g} for d={d}, got p={p}"
        )
    c_values = list(c_values)
    if any(c < 1 for c in c_values) or sorted(c_values) != c_values:
        raise ValueError("c_values must be increasing and >= 1")
    return [gc_uncertainty_ratio(c, d, p) ** 2 for c in c_values]


# ---------------------------------------------------------------------------
# Sign matrices (parallelogram law for 2^d numbers)


@dataclass(frozen=True)
class SignMatrix:
    """2^d x 2^d matrix of +-1 with pairwise-orthogonal rows and first column +1.

    For any complex vector a:  sum_i |sum_j e_ij a_j|^2 = 2^d sum_j |a_j|^2.
    """

    d: int
    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.int8)
        m = 2**self.d
        if ent.shape != (m, m):
            raise ValueError(f"expected {m}x{m} entries for d={self.d}")
        object.__setattr__(self, "entries", ent)
        ent.setflags(write=False)


def sign_matrix(d: int) -> SignMatrix:
    """Build the sign matrix by recursive doubling: [[M, M], [M, -M]]."""
    if not 1 <= d <= MAX_SIGN_DIM:
        raise ValueError(f"sign_matrix supports 1 <= d <= {MAX_SIGN_DIM}, got {d}")
    m = np.array([[1]], dtype=np.int8)
    for _ in range(d):
        m = np.block([[m, m], [m, -m]]).astype(np.int8)
    return SignMatrix(d=d, entries=m)


# ---------------------------------------------------------------------------
# Rudin-Shapiro translate families


@dataclass(frozen=True)
class RSFamily:
    """The 2^d signed-translate functions at level k, on a shared grid."""

    d: int
    k: int
    members: tuple[GridFunction, ...]
    base_l2_sq: float


def rs_base_bump_1d(t: np.ndarray) -> np.ndarray:
    """Polynomial bump (1 - (2u - 1)^2)^4 rescaled to [1/10, 9/10], peak 1."""
    u = (np.asarray(t, dtype=float) - 0.1) / 0.8
    inside = (u > 0) & (u < 1)
    core = np.where(inside, 1.0 - (2.0 * u - 1.0) ** 2, 0.0)
    return core**4


def rs_base(d: int, half_width: float = 16.0) -> GridFunction:
    """The level-0 bump on the lattice-exact grid (spacing 1/16)."""
    if d not in (1, 2):
        raise ValueError(f"translate families are built on grids only for d <= 2, got {d}")
    n = int(round(2.0 * half_width / RS_SPACING))
    spec = GridSpec(d=d, n=n, half_width=half_width)

    def gen(*mesh):
        out = np.ones(mesh[0].shape)
        for m in mesh:
            out = out * rs_base_bump_1d(m)
        return out

    return sample(gen, spec)


def _corner_offsets(d: int, k: int) -> list[tuple[int, ...]]:
    # all corners with coordinates 0 or 2^k, at least one nonzero
    out = []
    for j in range(1, 2**d):
        out.append(tuple(2**k if (j >> b) & 1 else 0 for b in range(d)))
    return out


def _shift_cells(arr: np.ndarray, cells: tuple[int, ...]) -> np.ndarray:
    # integer-cell translate; supports stay interior so the roll never wraps mass
    return np.roll(arr, cells, axis=tuple(range(arr.ndim)))


def rs_level(base: GridFunction, d: int, k: int) -> RSFamily:
    """Apply the signed-translate recursion k times to the base bump."""
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
    cells_per_unit = int(round(inv))
    signs = sign_matrix(d).entries
    members = [base.values.real.astype(float) for _ in range(2**d)]
    for level in range(k):
        offsets = _corner_offsets(d, level)
        shifted = [members[0]] + [
            _shift_cells(members[j + 1], tuple(cells_per_unit * o for o in offsets[j]))
            for j in range(2**d - 1)
        ]
        members = [
            sum(int(signs[i, j]) * shifted[j] for j in range(2**d))
            for i in range(2**d)
        ]
    grid_members = tuple(
        GridFunction(spec=base.spec, values=m.astype(complex)) for m in members
    )
    base_l2_sq = grid_weighted_norm(base, 2.0) ** 2
    return RSFamily(d=d, k=k, members=grid_members, base_l2_sq=base_l2_sq)


def rs_growth_ratio(families: list[RSFamily], p: float, theta: float) -> list[float]:
    """Per-level violation ratios; their base-2 slope is d/2 - d/p - theta.

    ratio_k = ||f_{1,k}||_2^2 / (|| |x|^theta f_{1,k} ||_p * 2^{dk/2 + d/2}),
    with the k-independent Fourier-side norm factor dropped (it does not
    affect the slope).
    """
    if len(families) < 3:
        raise ValueError("need at least 3 levels for a slope fit")
    if not p > 1 or theta < 0:
        raise ValueError("require p > 1 and theta >= 0")
    d = families[0].d
    if any(fam.d != d for fam in families):
        raise ValueError("families must share the dimension")
    out = []
    for fam in families:
        lead = fam.members[0]
        l2_sq = grid_weighted_norm(lead, 2.0) ** 2
        weighted = grid_weighted_norm(lead, p, theta)
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
# Endpoint-case closed-form mass integrals


def endpoint_tail_mass(delta: float, d: int) -> float:
    """omega_{d-1} (ln ln(1/delta) - ln ln 2): the L^2 mass of
    |x|^{-d/2} log^{-1/2}(1/|x|) over the shell delta < |x| < 1/2.

    Unbounded as delta -> 0, certifying that the endpoint profile is not L^2.
    """
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    omega = dimension_constants(d).sphere_area
    return omega * (math.log(math.log(1.0 / delta)) - math.log(math.log(2.0)))


def endpoint_weighted_mass(d: int, p: float, theta: float) -> float:
    """The finite weighted p-mass at the endpoint relation theta/d = 1/2 - 1/p.

    Closed form of int_{|x|<1/2} dx / (|x|^d log^{p/2}(1/|x|)):
    omega_{d-1} ln^{1 - p/2}(2) / (p/2 - 1); diverges for p <= 2.
    """
    if p <= 2:
        raise ValueError(f"the endpoint mass diverges for p <= 2, got p={p}")
    expected_theta = d * (0.5 - 1.0 / p)
    if abs(theta - expected_theta) > 1e-12:
        raise ValueError(
            f"theta must equal d(1/2 - 1/p) = {expected_theta:.17g}, got {theta}"
        )
    omega = dimension_constants(d).sphere_area
    return omega * math.log(2.0) ** (1.0 - 0.5 * p) / (0.5 * p - 1.0)
