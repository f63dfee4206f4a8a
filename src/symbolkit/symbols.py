"""The symbol of the solution process, two ways.

Analytically the solution of dX = Phi(X_-) dZ (+ Psi(X_-) dt) has symbol

    p(x, xi) = psi(Phi^T(x) xi) - i Psi(x).xi

with psi the exponent of the driver.  Probabilistically the same object is
the small-time limit

    p(x, xi) = - lim_{t -> 0}  E^x [ (e^{i (X^sigma_t - x).xi} - 1) / t ]

with sigma the first exit time from a ball around x.  The Monte Carlo
estimator realizes the limit as an affine least-squares extrapolation over a
decreasing t-ladder: the rung bias is O(t) for bounded coefficients and the
Euler step is kept proportional to t, so both bias sources sit in the slope
and drop out of the intercept.

The module also evaluates the generator in its two representations (the
integro-differential form against a frozen triplet, and the Fourier form
against the symbol) so they can be cross-checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import CoefficientField
from .errors import DimensionMismatch, NonConvergence, QuadratureFailure
from .levy import CHUNK_ROWS, CharacteristicExponent, LevyTriplet, expi
from .quadrature import integrate_checked
from .sde import SdeModel, simulate_ensemble
from .seeding import TAG_SYMBOL_MC


# --------------------------------------------------------------------------
# symbol fields


@dataclass
class SymbolField:
    """Evaluable p(x, xi) with a batch path for grid-heavy consumers.

    ``fn(x (d,), xi (d,)) -> complex``; ``batch_fn((m,d), (m,d)) -> (m,)``.
    ``hermitian`` records p(x,-xi) = conj p(x,xi), which holds for every
    negative definite symbol and lets integrators fold Re p to one half-line.
    """

    fn: Callable
    d: int
    kind: str = "analytic"
    name: str = "symbol"
    x_independent: bool = False
    hermitian: bool = True
    batch_fn: Optional[Callable] = None
    exponent: Optional[CharacteristicExponent] = None   # set for driver symbols

    def __call__(self, x, xi) -> complex:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return complex(self.fn(x, xi))

    def many(self, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).reshape(-1, self.d)
        xis = np.asarray(xis, dtype=float).reshape(-1, self.d)
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(xs, xis), dtype=complex).reshape(xs.shape[0])
        return np.array([self.fn(x, xi) for x, xi in zip(xs, xis)], dtype=complex)


def symbol_from_exponent(psi: CharacteristicExponent, name: str = "driver") -> SymbolField:
    """x-free symbol p(x, xi) = psi(xi)."""
    return SymbolField(
        fn=lambda x, xi: psi(xi),
        batch_fn=lambda xs, xis: psi.many(xis),
        d=psi.dim, x_independent=True, name=name, exponent=psi)


def solution_symbol(psi: CharacteristicExponent, coefficient: CoefficientField,
                    drift_coefficient: Optional[CoefficientField] = None,
                    name: str = "solution") -> SymbolField:
    """Symbol of the SDE solution: psi(Phi^T(x) xi) - i Psi(x).xi."""
    if coefficient.n != psi.dim:
        raise DimensionMismatch(
            f"coefficient has {coefficient.n} columns, driver dimension is {psi.dim}")

    def fn(x, xi):
        val = psi(coefficient(x).T @ xi)
        if drift_coefficient is not None:
            val = val - 1j * float(drift_coefficient(x)[:, 0] @ xi)
        return val

    def batch(xs, xis):
        phi = coefficient.many(xs)                       # (m, d, n)
        args = np.einsum("mdn,md->mn", phi, xis)
        vals = psi.many(args)
        if drift_coefficient is not None:
            psi_vals = drift_coefficient.many(xs)[:, :, 0]
            vals = vals - 1j * np.einsum("md,md->m", psi_vals, xis)
        return vals

    return SymbolField(fn=fn, batch_fn=batch, d=coefficient.d, name=name)


def symbol_of_model(model: SdeModel) -> SymbolField:
    return solution_symbol(model.driver.exponent, model.coefficient,
                           model.drift_coefficient, name=model.name)


def multi_driver_symbol(spec) -> SymbolField:
    """Symbol of the solution driven by independent one-dimensional drivers.

    Independence makes the exponents add: p(x, xi) = sum_j psi_j(Phi^j(x) xi).
    """
    parts = [solution_symbol(drv.exponent, fld) for fld, drv in spec.blocks()]
    d = parts[0].d

    def fn(x, xi):
        return sum(p.fn(x, xi) for p in parts)

    def batch(xs, xis):
        out = parts[0].many(xs, xis).copy()
        for p in parts[1:]:
            out += p.many(xs, xis)
        return out

    return SymbolField(fn=fn, batch_fn=batch, d=d, name="multi-driver")


def analytic_symbol(psi: CharacteristicExponent, coefficient: CoefficientField,
                    x, xi, drift_coefficient: Optional[CoefficientField] = None) -> complex:
    """Point evaluation of the solution symbol."""
    return solution_symbol(psi, coefficient, drift_coefficient)(x, xi)


def power_law_symbol(alpha: float, coeff: float = 1.0, d: int = 1) -> SymbolField:
    """p(x, xi) = coeff * |xi|^alpha."""
    return SymbolField(
        fn=lambda x, xi: coeff * np.linalg.norm(xi) ** alpha + 0j,
        batch_fn=lambda xs, xis: coeff * np.linalg.norm(xis, axis=1) ** alpha + 0j,
        d=d, x_independent=True, name=f"|xi|^{alpha}")


def mixed_power_symbol(terms: Sequence[tuple], d: int = 1) -> SymbolField:
    """p(x, xi) = sum_k c_k |xi|^{a_k} for terms [(c_k, a_k), ...]."""

    def fn(x, xi):
        r = np.linalg.norm(xi)
        return sum(c * r ** a for c, a in terms) + 0j

    def batch(xs, xis):
        r = np.linalg.norm(xis, axis=1)
        out = np.zeros(len(r), dtype=complex)
        for c, a in terms:
            out += c * r ** a
        return out

    label = "+".join(f"{c}|xi|^{a}" for c, a in terms)
    return SymbolField(fn=fn, batch_fn=batch, d=d, x_independent=True, name=label)


def stable_like_symbol(alpha_fn: Callable, name: str = "stable-like") -> SymbolField:
    """p(y, xi) = |xi|^{alpha(y)} with a state-dependent index, one-dimensional."""

    def fn(x, xi):
        r = float(np.linalg.norm(xi))
        return r ** float(alpha_fn(x[0])) + 0j

    def batch(xs, xis):
        r = np.linalg.norm(xis, axis=1)
        a = np.asarray(alpha_fn(xs[:, 0]), dtype=float)
        out = np.zeros(len(r), dtype=complex)
        pos = r > 0
        out[pos] = r[pos] ** a[pos]
        return out

    return SymbolField(fn=fn, batch_fn=batch, d=1, name=name)


# --------------------------------------------------------------------------
# Monte Carlo estimation


@dataclass
class RungStat:
    t: float
    value: complex
    se: float
    n_paths: int
    n_steps: int
    exited_fraction: float


@dataclass
class RSensitivity:
    radius: float
    estimate: complex
    se: float
    consistent: bool


@dataclass
class SymbolEstimate:
    x: np.ndarray
    xi: np.ndarray
    estimate: complex
    se: float
    rungs: list
    r_used: float
    ladder: tuple
    paths_per_rung: int
    r_check: Optional[RSensitivity] = None

    @property
    def diagnostics(self) -> dict:
        return {
            "rungs": [(r.t, r.value, r.se, r.exited_fraction) for r in self.rungs],
            "r_used": self.r_used,
            "r_check": None if self.r_check is None else (
                self.r_check.radius, self.r_check.estimate, self.r_check.se,
                self.r_check.consistent),
        }


def default_radius(x) -> float:
    return 10.0 * (1.0 + float(np.linalg.norm(x)))


DEFAULT_LADDER = (0.04, 0.02, 0.01, 0.005)


def _check_ladder(t_ladder, steps_per_rung, paths_per_rung):
    ladder = tuple(float(t) for t in t_ladder)
    if any(t <= 0 for t in ladder):
        raise ValueError("ladder times must be positive")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"t-ladder must be strictly decreasing, got {ladder}")
    if steps_per_rung < 2:
        raise ValueError("need at least 2 Euler steps per rung so that t >= 2 dt")
    if paths_per_rung < 1000:
        raise ValueError("paths_per_rung must be at least 1000")
    return ladder


def _extrapolate(ladder, values, ses):
    """Affine least squares v(t) ~ a + b t; returns (a, se_a, residual_flags)."""
    t = np.asarray(ladder)
    design = np.vstack([np.ones_like(t), t]).T
    gram_inv = np.linalg.inv(design.T @ design)
    hat = gram_inv @ design.T                 # rows: coefficient weights
    a = complex(hat[0] @ np.asarray(values))
    se_a = float(np.sqrt(np.sum(hat[0] ** 2 * np.asarray(ses) ** 2)))
    fitted = design @ (hat @ np.asarray(values))
    residuals = np.asarray(values) - fitted
    return a, se_a, residuals


def _rung_terminals(model: SdeModel, x, t, paths, seed, key, radius,
                    steps_per_rung, threads):
    res = simulate_ensemble(model.blocks(), model.drift_coefficient, x,
                            t, steps_per_rung, paths, seed, base_key=key,
                            stop_center=x, stop_radius=radius, threads=threads)
    return res.terminal, float(np.mean(res.exited))


def _values_for_xi(terminal, x, xi, t):
    """-(e^{i (X_t - x).xi} - 1) / t per path, formed in place, ``CHUNK_ROWS`` paths at a time."""
    out = np.empty(terminal.shape[0], dtype=complex)
    for c0 in range(0, out.shape[0], CHUNK_ROWS):
        e = out[c0:c0 + CHUNK_ROWS]
        expi((terminal[c0:c0 + CHUNK_ROWS] - x) @ xi, out=e)
        e -= 1.0
        np.negative(e, out=e)
        e /= t
    return out


def _rung_stat(values, t, n_steps, exited) -> RungStat:
    m = values.shape[0]
    mean = complex(values.mean())
    if m > 1:
        var = values.real.var(ddof=1) + values.imag.var(ddof=1)
    else:
        var = 0.0
    return RungStat(t=t, value=mean, se=float(np.sqrt(var / m)), n_paths=m,
                    n_steps=n_steps, exited_fraction=exited)


def _consistency_guard(ladder, rungs, residuals):
    for rung, res in zip(rungs, residuals):
        if rung.se > 0 and abs(res) > 6.0 * rung.se:
            raise NonConvergence(
                f"rung at t={rung.t} deviates {abs(res):.3e} from the affine fit "
                f"(6 SE = {6 * rung.se:.3e})",
                diagnostics=[(r.t, r.value, r.se) for r in rungs])


def _estimates_at_x(model: SdeModel, x_index: int, x, xis, ladder, paths_per_rung, seed,
                    radius, steps_per_rung, check_radius, threads) -> list:
    """Estimates at one x for each xi, sharing each rung ensemble across xi.

    Rung ensembles are addressed by (x_index, rung, variant): variant 0 at the
    radius, variant 1 at twice the radius with fresh seeds.
    """
    r_used = default_radius(x) if radius is None else float(radius)
    variants = [(0, r_used)] + ([(1, 2.0 * r_used)] if check_radius else [])
    terminals = {
        variant: [_rung_terminals(model, x, t, paths_per_rung, seed,
                                  (TAG_SYMBOL_MC, x_index, ri, variant), r,
                                  steps_per_rung, threads)
                  for ri, t in enumerate(ladder)]
        for variant, r in variants}
    out = []
    for xi in xis:
        results = {}
        for variant, _ in variants:
            rungs = [_rung_stat(_values_for_xi(terminal, x, xi, t), t, steps_per_rung, exited)
                     for (terminal, exited), t in zip(terminals[variant], ladder)]
            est, se, residuals = _extrapolate(ladder, [r.value for r in rungs],
                                              [r.se for r in rungs])
            _consistency_guard(ladder, rungs, residuals)
            results[variant] = (est, se, rungs)
        est, se, rungs = results[0]
        r_check = None
        if check_radius:
            est2, se2, _ = results[1]
            joint = np.hypot(se, se2)
            r_check = RSensitivity(radius=2.0 * r_used, estimate=est2, se=se2,
                                   consistent=bool(abs(est - est2) <= 3.0 * joint + 1e-12))
        out.append(SymbolEstimate(x=x, xi=xi, estimate=est, se=se, rungs=rungs,
                                  r_used=r_used, ladder=ladder,
                                  paths_per_rung=paths_per_rung, r_check=r_check))
    return out


def estimate_symbol_mc(model: SdeModel, x, xi, *, t_ladder=DEFAULT_LADDER,
                       paths_per_rung: int = 10_000, seed: int = 0,
                       radius: Optional[float] = None, steps_per_rung: int = 10,
                       check_radius: bool = True, threads: int = 1,
                       x_index: int = 0) -> SymbolEstimate:
    """Monte Carlo estimate of p(x, xi) with extrapolation to t = 0.

    Each rung simulates an independent ensemble stopped at the first exit
    from B_radius(x).  ``check_radius`` reruns the ladder at twice the radius
    with fresh seeds; the two extrapolations must agree within 3 joint SE.
    """
    ladder = _check_ladder(t_ladder, steps_per_rung, paths_per_rung)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (model.d,):
        raise DimensionMismatch(f"xi shape {xi.shape}, expected ({model.d},)")
    return _estimates_at_x(model, x_index, x, [xi], ladder, paths_per_rung, seed,
                           radius, steps_per_rung, check_radius, threads)[0]


def symbol_mc_table(model: SdeModel, xs, xis, *, t_ladder=DEFAULT_LADDER,
                    paths_per_rung: int = 10_000, seed: int = 0,
                    radius: Optional[float] = None, steps_per_rung: int = 10,
                    check_radius: bool = True, threads: int = 1) -> list:
    """Estimates on an (x, xi) grid, sharing each rung ensemble across xi.

    Returns a list of SymbolEstimate in x-major order.
    """
    ladder = _check_ladder(t_ladder, steps_per_rung, paths_per_rung)
    xis = [np.atleast_1d(np.asarray(v, dtype=float)) for v in xis]
    out = []
    for ix, x in enumerate(xs):
        out += _estimates_at_x(model, ix, np.atleast_1d(np.asarray(x, dtype=float)), xis,
                               ladder, paths_per_rung, seed, radius, steps_per_rung,
                               check_radius, threads)
    return out


def empirical_field(estimates: Sequence[SymbolEstimate], d: int = 1,
                    match_tol: float = 1e-9) -> SymbolField:
    """Wrap a grid of Monte Carlo estimates as an empirical SymbolField."""
    table = [(np.asarray(e.x), np.asarray(e.xi), e.estimate) for e in estimates]

    def fn(x, xi):
        for ex, exi, val in table:
            if (np.linalg.norm(ex - x) <= match_tol
                    and np.linalg.norm(exi - xi) <= match_tol):
                return val
        raise KeyError(f"no estimate at (x={x}, xi={xi})")

    fld = SymbolField(fn=fn, d=d, kind="empirical", name="empirical")
    fld.grid = list(estimates)
    return fld


# --------------------------------------------------------------------------
# test functions


@dataclass
class TestFunction:
    """Smooth rapidly-decaying test function with closed-form Fourier transform.

    Convention: hat(xi) = (2 pi)^(-d) * int e^{-i y.xi} u(y) dy.
    """

    name: str
    u: Callable
    grad: Callable
    hess: Callable
    hat: Callable
    hat_l1: float
    hat_halfwidth: Callable     # tol -> window where |hat| >= tol inside
    spatial_scale: float


def gaussian_bump(center: float = 0.0, width: float = 1.0) -> TestFunction:
    m, s = float(center), float(width)

    def u(x):
        x = np.asarray(x, dtype=float).reshape(-1)[0]
        return float(np.exp(-0.5 * ((x - m) / s) ** 2))

    def grad(x):
        x = np.asarray(x, dtype=float).reshape(-1)[0]
        return np.array([-(x - m) / s ** 2 * u(x)])

    def hess(x):
        x = np.asarray(x, dtype=float).reshape(-1)[0]
        return np.array([[((x - m) ** 2 / s ** 4 - 1.0 / s ** 2) * u(x)]])

    amp = s / np.sqrt(2 * np.pi)

    def hat(xi):
        return amp * np.exp(-0.5 * (s * xi) ** 2) * np.exp(-1j * m * xi)

    def halfwidth(tol):
        return np.sqrt(2.0 * np.log(amp / tol)) / s

    return TestFunction(name=f"gaussian({m},{s})", u=u, grad=grad, hess=hess,
                        hat=hat, hat_l1=1.0, hat_halfwidth=halfwidth,
                        spatial_scale=abs(m) + 10.0 * s)


# --------------------------------------------------------------------------
# frozen triplet of the solution at a point


def frozen_triplet(driver_triplet: LevyTriplet, coefficient: CoefficientField,
                   x) -> LevyTriplet:
    """The x-frozen triplet of the solution symbol, one-dimensional.

    Drift phi*l (plus the truncation shift when |phi| != 1 moves mass across
    the unit ball), covariance phi^2 Q, and the image of N under y -> phi*y.
    """
    if coefficient.d != 1 or coefficient.n != 1 or driver_triplet.dim != 1:
        raise DimensionMismatch("frozen triplets are implemented for d = n = 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = float(coefficient(x)[0, 0])
    measure = driver_triplet.levy_measure
    drift = phi * driver_triplet.drift[0] + measure.truncation_shift(phi)
    cov = phi ** 2 * driver_triplet.covariance[0, 0]
    return LevyTriplet([drift], [[cov]], measure.image(phi))


# --------------------------------------------------------------------------
# generator, two representations


def generator_apply_integro(triplet: LevyTriplet, u: TestFunction, x) -> float:
    """A u(x) through the integro-differential form against a frozen triplet."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if triplet.dim != 1:
        raise DimensionMismatch("integro form is implemented for one-dimensional triplets")
    x0 = float(x[0])
    val = float(triplet.drift @ u.grad(x0))
    val += 0.5 * float(np.sum(triplet.covariance * u.hess(x0)))
    val += triplet.levy_measure.generator_term(u, x0)
    return val


def generator_apply_fourier(p: SymbolField, u: TestFunction, x, *,
                            window_tol: float = 1e-14,
                            imag_tol: float = 1e-8) -> float:
    """A u(x) = - int e^{i x xi} p(x, xi) hat-u(xi) d xi, one-dimensional.

    Integrates over the window where |hat-u| >= window_tol and checks that the
    imaginary residual stays below imag_tol * scale.
    """
    if p.kind != "analytic":
        raise ValueError("Fourier form needs an analytic symbol")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if p.d != 1:
        raise DimensionMismatch("Fourier form is implemented in one dimension")
    x0 = float(x[0])
    try:
        half = float(u.hat_halfwidth(window_tol))
    except Exception as exc:
        raise QuadratureFailure(f"window detection failed: {exc}") from exc

    def integrand(xi):
        return np.exp(1j * x0 * xi) * p.fn(x, np.array([xi])) * u.hat(xi)

    re = integrate_checked(lambda s: integrand(s).real, -half, half,
                           tol=1e-9, points=[0.0], label="fourier generator (re)")
    im = integrate_checked(lambda s: integrand(s).imag, -half, half,
                           tol=1e-9, points=[0.0], label="fourier generator (im)")
    scale = max(1.0, abs(re))
    if abs(im) > imag_tol * scale:
        raise QuadratureFailure(
            f"imaginary residual {im:.3e} exceeds {imag_tol:.0e} * scale", achieved=abs(im))
    return -re
