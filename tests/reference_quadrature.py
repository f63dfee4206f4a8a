"""The adaptive-quadrature jump exponents of a continuous law and of a density, kept as
slow oracles.

``_law_exponent_adaptive`` is the function ``symbolkit.levy`` used for a
continuous jump law before the law carried its characteristic function: two
compensated ``quad`` integrals of the density over the clipped support, with
the law's breakpoints.  It is kept unchanged.  The tests require the closed
form to agree with it to 1e-12 wherever it passes its own tolerance, and
check the closed form against mpmath everywhere else (it raises
``QuadratureFailure`` at large |xi|).

``_density_exponent_adaptive`` is the adaptive exponent ``symbolkit.levy``
used for a density measure before the density became a closed-form family
(and the fallback of the fixed-node table before that), moved here
unchanged; the tests check the closed form against it wherever it passes.
"""

import numpy as np

from symbolkit.levy import ContinuousLaw, DensityForm
from symbolkit.quadrature import check_error, integrate_checked

_LAW_TOL = 1e-9           # the per-integral tolerance of the continuous-law oracle
_NEAR_SPLIT = 1e-8        # the density oracle integrates below this in y, above in log y


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


def _density_exponent_adaptive(measure: DensityForm, x1: float) -> complex:
    """int (e^{i x1 y} - 1 - i x1 y 1_{|y|<1}) nu(y) dy by adaptive quadrature, split at |y| = 1.

    The oracle for the fixed nodes and their fallback.  The inner piece uses
    the compensated integrand (O(y^2) kills the density singularity) in two
    separate integrals: over [0, 1e-8], and above 1e-8 in u = log y, where a
    density singular like |y|^{-1-alpha} is smooth.  (One adaptive integral
    over [1e-8, 1] in y is off by 1.8e-5 for alpha = 1.5 at x1 = 0.3, with an
    error estimate of 6e-12.)  The tail uses cos/sin-weighted quadrature so
    wide windows with oscillatory integrands stay cheap and accurate.
    """
    if x1 == 0.0:
        return 0.0 + 0.0j
    from scipy.integrate import quad

    w = measure.window
    near_top = min(1.0, w)

    def near(g, label):
        pieces = [(g, 0.0, min(_NEAR_SPLIT, near_top))]
        if near_top > _NEAR_SPLIT:
            pieces.append((lambda u: g(np.exp(u)) * np.exp(u),
                           np.log(_NEAR_SPLIT), np.log(near_top)))
        total = 0.0
        for h, lo, hi in pieces:
            val, err = quad(h, lo, hi, limit=400, epsabs=1e-11, epsrel=1e-11,
                            full_output=1)[:2]
            check_error(err, label)
            total += val
        return total

    re = im = 0.0
    for sgn in (1.0, -1.0):
        f = (lambda y, s=sgn: measure.density(s * y))
        # cos(u) - 1 written cancellation-free as -2 sin^2(u/2)
        re += near(lambda y: -2.0 * np.sin(0.5 * x1 * y) ** 2 * f(y),
                   "density jump integral (near, re)")
        im += sgn * near(lambda y: (np.sin(x1 * y) - x1 * y) * f(y),
                         "density jump integral (near, im)")
        if w > 1.0:
            cos_part, err = quad(f, 1.0, w, weight="cos", wvar=x1, limit=400,
                                 epsabs=1e-11, epsrel=1e-11, full_output=1)[:2]
            check_error(err, "density jump integral (tail, cos)")
            mass, err = quad(f, 1.0, w, limit=400, epsabs=1e-11, epsrel=1e-11,
                             full_output=1)[:2]
            check_error(err, "density jump integral (tail mass)")
            re += cos_part - mass
            sin_part, err = quad(f, 1.0, w, weight="sin", wvar=x1, limit=400,
                                 epsabs=1e-11, epsrel=1e-11, full_output=1)[:2]
            check_error(err, "density jump integral (tail, sin)")
            im += sgn * sin_part
    return complex(re, im)
