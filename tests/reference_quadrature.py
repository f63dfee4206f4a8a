"""The adaptive-quadrature jump exponent of a continuous law, kept as the slow oracle.

``_law_exponent_adaptive`` is the function ``symbolkit.levy`` used for a
continuous jump law before the law carried its characteristic function: two
compensated ``quad`` integrals of the density over the clipped support, with
the law's breakpoints.  It is kept unchanged.  The tests require the closed
form to agree with it to 1e-12 wherever it passes its own tolerance, and
check the closed form against mpmath everywhere else (it raises
``QuadratureFailure`` at large |xi|).
"""

import numpy as np

from symbolkit.levy import ContinuousLaw
from symbolkit.quadrature import integrate_checked

_LAW_TOL = 1e-9           # the per-integral tolerance of the continuous-law oracle


def _law_exponent_adaptive(law: ContinuousLaw, rate: float, x1: float) -> complex:
    """Jump exponent of rate * law at one frequency by adaptive quadrature.

    The oracle for the fixed nodes and their fallback.
    """
    lo, hi = law.clipped_support
    points = law.breakpoints
    re = integrate_checked(
        lambda y: (np.cos(x1 * y) - 1.0) * law.density(y), lo, hi,
        tol=_LAW_TOL, points=points, label="jump integral (re)")
    im = integrate_checked(
        lambda y: (np.sin(x1 * y) - x1 * y * (abs(y) < 1.0)) * law.density(y), lo, hi,
        tol=_LAW_TOL, points=points, label="jump integral (im)")
    return -rate * complex(re, im)
