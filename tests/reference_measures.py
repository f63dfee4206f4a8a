"""The per-variant formulas as free functions that dispatch on the measure type.

``_image_measure``, ``_drift_indicator_correction`` and ``_jump_generator_term``
(from ``symbolkit.symbols``) and ``_jump_mass_ratio`` (from
``symbolkit.indices``) are the functions the measure methods ``image``,
``truncation_shift``, ``generator_term`` and ``mass_ratio`` replaced, kept
unchanged as oracles.  The tests require the methods to reproduce them bit for
bit, except ``mass_ratio`` of a continuous jump law (here ``quad`` misses the
peak of a normal law) and of a stable measure (here the inner ``quad`` counts
[0, 1e-10] twice), which are checked against mpmath instead.
"""

import numpy as np

from symbolkit.levy import (AtomLaw, ContinuousLaw, DensityForm, FiniteActivity,
                            StableSymmetric, ZeroMeasure, stable_density_coefficient)
from symbolkit.quadrature import integrate_checked


def _image_measure(measure, phi: float):
    """Image of the jump measure under y -> phi*y (one-dimensional)."""
    a = abs(phi)
    if isinstance(measure, ZeroMeasure) or a == 0.0:
        return ZeroMeasure()
    if isinstance(measure, StableSymmetric):
        return StableSymmetric(alpha=measure.alpha, scale=measure.scale * a ** measure.alpha)
    if isinstance(measure, FiniteActivity):
        law = measure.law
        if isinstance(law, AtomLaw):
            atoms = [(phi * y[0], p) for y, p in zip(law.positions, law.probabilities)]
            return FiniteActivity(rate=measure.rate, law=AtomLaw.of(atoms))
        base_sampler = law.sampler
        base_density = law.density
        lo, hi = law.support
        supp = tuple(sorted((phi * lo, phi * hi)))
        img = ContinuousLaw(
            name=f"{law.name}*{phi}",
            sampler=lambda rng, size: phi * np.asarray(base_sampler(rng, size)),
            density=lambda z: base_density(z / phi) / a,
            support=supp)
        return FiniteActivity(rate=measure.rate, law=img)
    if isinstance(measure, DensityForm):
        base = measure.density
        return DensityForm(lambda z: base(z / phi) / a,
                           window=measure.window * a,
                           cutoff=measure.cutoff * a,
                           name=f"{measure.name}*{phi}")
    raise TypeError(f"unknown measure variant {type(measure).__name__}")


def _drift_indicator_correction(measure, phi: float) -> float:
    """phi * int y (1_{|y| < 1/|phi|} - 1_{|y| < 1}) N(dy), the truncation shift."""
    a = abs(phi)
    if a == 0.0 or a == 1.0 or isinstance(measure, (ZeroMeasure, StableSymmetric)):
        return 0.0
    lo, hi = sorted((1.0, 1.0 / a))
    sign = 1.0 if 1.0 / a > 1.0 else -1.0

    if isinstance(measure, FiniteActivity):
        law = measure.law
        if isinstance(law, AtomLaw):
            total = 0.0
            for y, p in zip(law.positions, law.probabilities):
                yv = float(y[0])
                total += p * yv * (float(abs(yv) < 1.0 / a) - float(abs(yv) < 1.0))
            return phi * measure.rate * total
        val = 0.0
        for sgn in (1.0, -1.0):
            val += sgn * integrate_checked(lambda y: y * law.density(sgn * y), lo, hi,
                                           tol=1e-10, label="indicator correction")
        return phi * measure.rate * sign * val
    if isinstance(measure, DensityForm):
        val = 0.0
        top = min(hi, measure.window)
        if top > lo:
            for sgn in (1.0, -1.0):
                val += sgn * integrate_checked(lambda y: y * measure.density(sgn * y),
                                               lo, top, tol=1e-10,
                                               label="indicator correction")
        return phi * sign * val
    raise TypeError(f"unknown measure variant {type(measure).__name__}")


def _jump_generator_term(measure, u, x: float) -> float:
    if isinstance(measure, ZeroMeasure):
        return 0.0
    gx = u.u(x)
    gpx = float(u.grad(x)[0])

    def compensated(y):
        return u.u(x + y) - gx - y * gpx * (abs(y) < 1.0)

    if isinstance(measure, FiniteActivity):
        law = measure.law
        if isinstance(law, AtomLaw):
            return measure.rate * sum(
                p * compensated(float(y[0])) for y, p in zip(law.positions, law.probabilities))
        lo, hi = law.clipped_support
        return measure.rate * integrate_checked(
            lambda y: compensated(y) * law.density(y), lo, hi, tol=1e-9,
            points=[p for p in (-1.0, 1.0) if lo < p < hi], label="jump generator")

    if isinstance(measure, StableSymmetric):
        k = stable_density_coefficient(measure.alpha, measure.scale)
        w = max(50.0, abs(x) + u.spatial_scale)

        def sym(y):
            return (u.u(x + y) + u.u(x - y) - 2.0 * gx) * y ** (-1.0 - measure.alpha)

        body = integrate_checked(sym, 0.0, w, tol=1e-9, points=[1e-8, 1.0],
                                 label="stable generator")
        # beyond w the test function is numerically zero; -2 u(x) tail remains
        tail = -2.0 * gx * w ** (-measure.alpha) / measure.alpha
        return k * (body + tail)

    if isinstance(measure, DensityForm):
        total = 0.0
        for sgn in (1.0, -1.0):
            total += integrate_checked(
                lambda y: compensated(sgn * y) * measure.density(sgn * y),
                0.0, measure.window, tol=1e-9, points=[1e-8, min(1.0, measure.window)],
                label="density generator")
        return total
    raise TypeError(f"unknown measure variant {type(measure).__name__}")


def _jump_mass_ratio(measure) -> float:
    """int y^2/(1+y^2) N(dy) for a one-dimensional measure."""
    if isinstance(measure, ZeroMeasure):
        return 0.0
    if isinstance(measure, FiniteActivity):
        law = measure.law
        if isinstance(law, AtomLaw):
            return measure.rate * sum(
                p * float(y[0]) ** 2 / (1.0 + float(y[0]) ** 2)
                for y, p in zip(law.positions, law.probabilities))
        lo, hi = law.support
        lo = max(lo, -1e3) if not np.isfinite(lo) else lo
        hi = min(hi, 1e3) if not np.isfinite(hi) else hi
        return measure.rate * integrate_checked(
            lambda y: y * y / (1 + y * y) * law.density(y), lo, hi,
            tol=1e-9, label="jump mass")
    if isinstance(measure, StableSymmetric):
        k = stable_density_coefficient(measure.alpha, measure.scale)
        inner = integrate_checked(
            lambda y: y ** (1.0 - measure.alpha) / (1.0 + y * y), 0.0, 1.0,
            tol=1e-9, points=[1e-10], label="stable mass (near)")
        outer = integrate_checked(
            lambda y: y ** (1.0 - measure.alpha) / (1.0 + y * y), 1.0, np.inf,
            tol=1e-9, label="stable mass (far)")
        return 2.0 * k * (inner + outer)
    if isinstance(measure, DensityForm):
        total = 0.0
        for sgn in (1.0, -1.0):
            total += integrate_checked(
                lambda y: y * y / (1 + y * y) * measure.density(sgn * y),
                0.0, measure.window, tol=1e-9, points=[1e-8], label="density mass")
        return total
    raise TypeError(f"unknown measure variant {type(measure).__name__}")
