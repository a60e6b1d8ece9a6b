"""Numerical laboratory for Heisenberg-type uncertainty principles in R^d.

Subsystems:

* ``specialfn``       - log-domain Gamma machinery and sphere/ball constants
* ``params``          - parameter selection and certified method lower bounds
* ``radial``          - radial-reduction integrals and Gaussian closed forms
* ``grid``            - sampled functions and the discrete continuous-Fourier
                        transform on centered cubes (d <= 3)
* ``counterexamples`` - two-scale Gaussian family, signed-translate families,
                        measured endpoint masses
* ``harness``         - dimension sweeps, chain checks, the trichotomy pipeline
* ``cli``             - reproducible command-line experiments
"""

from .params import (
    CowlingPriceParams,
    WigdersonParams,
    cp_delta,
    cp_feasible,
    cp_params,
    l2_params,
    log_threshold,
    lp_epsilon,
    lp_params,
    lp_regime,
    primary_up_admissible,
)
from .radial import RadialProfile, gaussian_uncertainty_product, radial_integral, radial_weighted_norm
from .specialfn import DimensionConstants, dimension_constants, log_gamma

__all__ = [
    "CowlingPriceParams",
    "DimensionConstants",
    "RadialProfile",
    "WigdersonParams",
    "cp_delta",
    "cp_feasible",
    "cp_params",
    "dimension_constants",
    "gaussian_uncertainty_product",
    "l2_params",
    "log_gamma",
    "log_threshold",
    "lp_epsilon",
    "lp_params",
    "lp_regime",
    "primary_up_admissible",
    "radial_integral",
    "radial_weighted_norm",
]
