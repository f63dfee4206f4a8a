"""The adaptive-quadrature forms of ``symbolkit``'s jump integrals, kept as slow oracles.

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

The rest are the adaptive ``integrate_checked`` forms the fixed GK21 panel
tables replaced, moved here unchanged as free functions (``self`` is the
law or the measure): a continuous law's small-jump mean, truncation
integral, generator integral and mass; the stable and the density generator
term; the density mass; and ``indices.g_identity_check``.  The tests require
the panel tables to agree with them to 1e-9 wherever they pass their own
tolerance; the independent references (closed forms, 30-digit mpmath, the
Fourier generator) carry the tighter checks.  ``_compensated`` is the scalar
integrand they called, unchanged.

``integrate_checked`` is the adaptive ``quad`` wrapper all of these call, and
``eval_g_quadrature`` the lambda-quadrature kernel g_d that ``indices.eval_g``
used for d >= 4 before the Bessel closed form; both moved here from
``symbolkit`` unchanged.
"""

import numpy as np

from symbolkit.levy import ContinuousLaw, DensityForm, StableSymmetric, stable_density_coefficient
from symbolkit.quadrature import check_error

_LAMBDA_CUT = 60.0   # e^{-lam/2} tail beyond this is < 1e-13


def integrate_checked(f, a, b, *, tol=1e-9, points=None, limit=200, label="integral"):
    """Adaptive quadrature of ``f`` over (a, b); raise if the error estimate exceeds ``tol``."""
    from scipy.integrate import quad

    kwargs = {"limit": limit, "epsabs": min(tol * 1e-2, 1e-10), "epsrel": 1e-11}
    if points is not None and np.isfinite(a) and np.isfinite(b):
        kwargs["points"] = points
    value, err = quad(f, a, b, full_output=1, **kwargs)[:2]
    check_error(err, label, tol)
    return value


def eval_g_quadrature(d: int, rho: float) -> float:
    """Oracle evaluation of g_d by adaptive lambda quadrature.

    Substituting lam = u^2 removes the lam^{-d/2} endpoint singularity, so the
    adaptive rule sees a smooth integrand (the Gaussian factor kills u = 0
    whenever rho > 0).
    """
    r = float(abs(rho))
    if r == 0.0 and d >= 2:
        raise ValueError(f"g_{d}(0) diverges for d >= 2")
    u_cut = np.sqrt(_LAMBDA_CUT) + 4.0

    def integrand(u):
        if u == 0.0:
            return 0.0 if (r > 0 or d > 1) else 2.0 * (2 * np.pi) ** -0.5
        lam = u * u
        return 2.0 * u * (2 * np.pi * lam) ** (-d / 2) * np.exp(-r * r / (2 * lam) - lam / 2)

    hint = min(max(np.sqrt(r), 1e-3), u_cut / 2)
    return 0.5 * integrate_checked(integrand, 0.0, u_cut, tol=1e-10,
                                   points=[hint, min(r + 1e-6, u_cut / 2)],
                                   label=f"g_{d}({r})")

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


def _compensated(u, x: float):
    """y -> u(x + y) - u(x) - y u'(x) 1_{|y|<1}, the generator's jump integrand."""
    gx = u.u(x)
    gpx = float(u.grad(x)[0])
    return lambda y: u.u(x + y) - gx - y * gpx * (abs(y) < 1.0)


def _law_small_mean_adaptive(self: ContinuousLaw) -> float:
    """E[Y 1_{|Y|<1}], computed once for the exponent and the sampler's compensator."""
    lo = max(self.support[0], -1.0)
    hi = min(self.support[1], 1.0)
    if hi <= lo:
        return 0.0
    return integrate_checked(lambda y: y * self.density(y), lo, hi, tol=1e-9,
                             points=[p for p in self.points if lo < p < hi] or None,
                             label=f"{self.name} small-jump mean")


def _law_truncation_integral_adaptive(self: ContinuousLaw, a: float) -> float:
    """int y (1_{|y| < 1/a} - 1_{|y| < 1}) against the law, a not 0 or 1.

    Each side stops at its end of the support (quad missed the uniform(-0.7,
    1.9) density's drop to 0 just inside [1, 1.9016] by 1.2e-3), and takes
    the law's points inside it as breakpoints.
    """
    lo, hi = sorted((1.0, 1.0 / a))
    val = 0.0
    for sgn, end in ((1.0, self.support[1]), (-1.0, -self.support[0])):
        top = min(hi, end)
        if top > lo:
            val += sgn * integrate_checked(
                lambda y: y * self.density(sgn * y), lo, top, tol=1e-10,
                label="indicator correction",
                points=sorted(sgn * p for p in self.points if lo < sgn * p < top) or None)
    return (1.0 if 1.0 / a > 1.0 else -1.0) * val


def _law_generator_integral_adaptive(self: ContinuousLaw, g) -> float:
    lo, hi = self.clipped_support
    points = sorted({p for p in (*self.points, -1.0, 1.0) if lo < p < hi})
    return integrate_checked(lambda y: g(y) * self.density(y), lo, hi, tol=1e-9,
                             points=points, label="jump generator")


def _law_mass_ratio_adaptive(self: ContinuousLaw) -> float:
    lo, hi = self.clipped_support
    return integrate_checked(lambda y: y * y / (1 + y * y) * self.density(y), lo, hi,
                             tol=1e-9, points=self.breakpoints, label="jump mass")


def _stable_generator_term_adaptive(self: StableSymmetric, u, x: float) -> float:
    k = stable_density_coefficient(self.alpha, self.scale)
    gx = u.u(x)
    w = max(50.0, abs(x) + u.spatial_scale)

    def sym(y):
        return (u.u(x + y) + u.u(x - y) - 2.0 * gx) * y ** (-1.0 - self.alpha)

    body = integrate_checked(sym, 0.0, w, tol=1e-9, points=[1e-8, 1.0],
                             label="stable generator")
    # beyond w the test function is numerically zero; -2 u(x) tail remains
    tail = -2.0 * gx * w ** (-self.alpha) / self.alpha
    return k * (body + tail)


def _density_generator_term_adaptive(self: DensityForm, u, x: float) -> float:
    g = _compensated(u, x)
    total = 0.0
    for sgn in (1.0, -1.0):
        total += integrate_checked(
            lambda y: g(sgn * y) * self.density(sgn * y),
            0.0, self.window, tol=1e-9, points=[1e-8, min(1.0, self.window)],
            label="density generator")
    return total


def _density_mass_ratio_adaptive(self: DensityForm) -> float:
    # the negative side's integral repeats the positive side's bit for bit
    return 2.0 * integrate_checked(lambda y: y * y / (1 + y * y) * self.density(y),
                                   0.0, self.window, tol=1e-9, points=[1e-8],
                                   label="density mass")


def _g_identity_check_adaptive(d: int, y_grid) -> float:
    """Max residual of int (1 - cos(y.rho)) g_d drho = |y|^2/(1+|y|^2) over the grid;
    a y of NaN or infinite norm is a ValueError, not a residual that ``max`` drops."""
    from scipy.special import j0, k0

    worst = 0.0
    for y in y_grid:
        s = float(np.linalg.norm(np.atleast_1d(y)))
        if not np.isfinite(s):
            raise ValueError(f"|y| is not finite at y = {y!r}")
        target = s * s / (1.0 + s * s)
        if s == 0.0:
            value = 0.0
        elif d == 1:
            value = integrate_checked(
                lambda r: (1.0 - np.cos(s * r)) * np.exp(-r), 0.0, np.inf,
                tol=1e-8, limit=400, label="identity d=1")
        elif d == 2:
            value = integrate_checked(
                lambda r: r * k0(r) * (1.0 - j0(s * r)), 0.0, 60.0,
                tol=1e-8, limit=400, points=[1e-8, 1.0], label="identity d=2")
        else:
            raise ValueError("identity check implemented for d in {1, 2}")
        worst = max(worst, abs(value - target))
    return worst
