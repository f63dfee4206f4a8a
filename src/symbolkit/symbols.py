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

import cmath
import math
import numbers
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import CoefficientField
from .errors import ConfigError, DimensionMismatch, NonConvergence, QuadratureFailure
from .levy import CHUNK_ROWS, LevyTriplet, expi, row_dot
from .quadrature import integrate_panels, radial_edges
from .sde import SdeModel, initial_state, ordered_map, simulate_ensemble
from .seeding import TAG_SYMBOL_MC


# --------------------------------------------------------------------------
# symbol fields


@dataclass
class SymbolField:
    """Evaluable p(x, xi), one evaluation function on state x frequency grids.

    ``batch_fn((m,d), (m,k,d)) -> (m,k)`` complex: state i carries the k
    frequencies ``xis[i]``, so per-state work (Phi(x), alpha(x)) is done once
    per state and broadcast over k; a solution symbol runs its frequency map
    and exponent once per distinct (Phi, Psi) state under a bitwise key (see
    ``solution_symbol``).  ``many`` takes paired rows,
    ``(m,d), (m,d) -> (m,)``, or a grid, ``(m,k,d), (m,k,d) -> (m,k)``, whose
    states repeat along k (a broadcast view of the m states) so that both
    arguments name every point; a point call ``p(x, xi)`` is the 1 x 1 grid.
    Every symbol here is negative definite, so
    p(x,-xi) = conj p(x,xi) and integrators may fold Re p to one half-line.
    The index searches in ``indices`` depend on this holding bit for bit for
    Re p and |p|: they evaluate p on nonnegative directions only.
    """

    batch_fn: Callable
    d: int
    name: str = "symbol"
    x_independent: bool = False

    def __call__(self, x, xi) -> complex:
        x = np.asarray(x, dtype=float).reshape(1, self.d)
        xi = np.asarray(xi, dtype=float).reshape(1, 1, self.d)
        return complex(self.batch_fn(x, xi)[0, 0])

    def many(self, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """p on paired rows, (m,d), (m,d) -> (m,), or on a grid, (m,k,d), (m,k,d) -> (m,k).

        On a grid every point of row i has the state ``xs[i, 0]``; pass the
        states as ``np.broadcast_to(ys[:, None], xis.shape)``, a view.
        """
        xs = np.asarray(xs, dtype=float)
        xis = np.asarray(xis, dtype=float)
        if xis.ndim == 3:
            states = xs[:, 0]
            if xs.shape != xis.shape or xis.shape[2] != self.d or (
                    xs.strides[1] != 0 and not np.array_equal(
                        xs, np.broadcast_to(states[:, None], xs.shape), equal_nan=True)):
                raise DimensionMismatch(
                    "a grid takes (m,k,d) states and frequencies, each state repeated along k")
            return np.asarray(self.batch_fn(states, xis), dtype=complex).reshape(xis.shape[:2])
        xs = xs.reshape(-1, self.d)
        m = xs.shape[0]
        return np.asarray(self.batch_fn(xs, xis.reshape(m, 1, self.d)), dtype=complex).reshape(m)


def symbol_from_exponent(driver: LevyTriplet, name: str = "driver") -> SymbolField:
    """x-free symbol p(x, xi) = psi(xi) of the driver's exponent."""

    def batch(xs, xis):
        return driver.many(xis.reshape(-1, driver.dim)).reshape(xis.shape[:2])

    return SymbolField(batch_fn=batch, d=driver.dim, x_independent=True, name=name)


def _distinct_rows(rows: np.ndarray):
    """(first, inverse) over the rows of a 2-d float array, rows compared by their bits.

    ``first`` holds the index of each distinct row's first occurrence and
    ``rows[first][inverse]`` is ``rows``.  Bits, not values, decide: +0.0 and
    -0.0 stay apart, and so do NaNs with different payloads.
    """
    keys = np.ascontiguousarray(rows)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def solution_symbol(driver: LevyTriplet, coefficient: CoefficientField,
                    drift_coefficient: Optional[CoefficientField] = None,
                    name: str = "solution") -> SymbolField:
    """Symbol of the SDE solution: psi(Phi^T(x) xi) - i Psi(x).xi, psi the driver's exponent.

    Phi and Psi are evaluated once per state.  The rest of the per-state work
    runs once per distinct state under a bitwise key: states whose Phi and
    Psi rows (and frequency rows, unless every state shares one stride-0
    frequency row, as grid calls pass them) have equal bits share one
    frequency map, exponent and drift term, gathered back to every state.
    The exponent is elementwise in its frequency rows, so every row keeps the
    bits of a call that evaluates each state.  The frequency map Phi^T(x) xi
    is one einsum over the grid, which in d = n = 1 adds the single product
    to +0.0 as the paired-row form did.
    """
    if coefficient.n != driver.dim:
        raise DimensionMismatch(
            f"coefficient has {coefficient.n} columns, driver dimension is {driver.dim}")

    def batch(xs, xis):
        phi = coefficient.many(xs)                       # (m, d, n)
        drift = None if drift_coefficient is None else drift_coefficient.many(xs)[:, :, 0]
        m, shared = phi.shape[0], xis.strides[0] == 0
        first, back = _distinct_rows(np.concatenate(
            [phi.reshape(m, -1)] + ([] if drift is None else [drift])
            + ([] if shared else [xis.reshape(m, -1)]), axis=1))
        if first.size < m:
            phi = phi[first]
            drift = None if drift is None else drift[first]
            xis = xis[:first.size] if shared else xis[first]
        args = np.einsum("mdn,mkd->mkn", phi, xis)
        vals = driver.many(args.reshape(-1, driver.dim)).reshape(xis.shape[:2])
        if drift is not None:
            vals = vals - 1j * np.einsum("md,mkd->mk", drift, xis)
        return vals[back] if first.size < m else vals

    return SymbolField(batch_fn=batch, d=coefficient.d, name=name)


def symbol_of_model(model: SdeModel) -> SymbolField:
    return solution_symbol(model.driver, model.coefficient,
                           model.drift_coefficient, name=model.name)


def multi_driver_symbol(spec) -> SymbolField:
    """Symbol of the solution driven by independent one-dimensional drivers.

    Independence makes the exponents add: p(x, xi) = sum_j psi_j(Phi^j(x) xi).
    """
    parts = [solution_symbol(drv, fld) for fld, drv in spec.blocks()]
    d = parts[0].d

    def batch(xs, xis):
        out = np.array(parts[0].batch_fn(xs, xis), dtype=complex)
        for p in parts[1:]:
            out += p.batch_fn(xs, xis)
        return out

    return SymbolField(batch_fn=batch, d=d, name="multi-driver")


def power_law_symbol(alpha: float, coeff: float = 1.0) -> SymbolField:
    """p(x, xi) = coeff * |xi|^alpha."""
    return SymbolField(
        batch_fn=lambda xs, xis: coeff * np.abs(xis[..., 0]) ** alpha + 0j,
        d=1, x_independent=True, name=f"|xi|^{alpha}")


def mixed_power_symbol(terms: Sequence[tuple]) -> SymbolField:
    """p(x, xi) = sum_k c_k |xi|^{a_k} for terms [(c_k, a_k), ...]."""

    def batch(xs, xis):
        r = np.abs(xis[..., 0])
        out = np.zeros(r.shape, dtype=complex)
        for c, a in terms:
            out += c * r ** a
        return out

    label = "+".join(f"{c}|xi|^{a}" for c, a in terms)
    return SymbolField(batch_fn=batch, d=1, x_independent=True, name=label)


def stable_like_symbol(alpha_fn: Callable, name: str = "stable-like") -> SymbolField:
    """p(y, xi) = |xi|^{alpha(y)} with a state-dependent index, one-dimensional.

    alpha is evaluated once per state and broadcast over its frequencies.
    """

    def batch(xs, xis):
        r = np.abs(xis[..., 0])
        a = np.asarray(alpha_fn(xs[:, 0]), dtype=float)
        out = np.zeros(r.shape, dtype=complex)
        np.power(r, a[:, None], out=out.real, where=r > 0)
        return out

    return SymbolField(batch_fn=batch, d=1, name=name)


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


def default_radius(x) -> float:
    return 10.0 * (1.0 + float(np.linalg.norm(x)))


DEFAULT_LADDER = (0.04, 0.02, 0.01, 0.005)


def _check_ladder(t_ladder, steps_per_rung, paths_per_rung):
    ladder = tuple(float(t) for t in t_ladder)
    if not all(0.0 < t < np.inf for t in ladder):
        raise ConfigError(f"ladder times must be positive and finite, got {ladder}",
                          field="t_ladder")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"t-ladder must be strictly decreasing, got {ladder}", field="t_ladder")
    if steps_per_rung < 2:
        raise ConfigError("need at least 2 Euler steps per rung so that t >= 2 dt",
                          field="steps_per_rung")
    if paths_per_rung < 1000:
        raise ConfigError("paths_per_rung must be at least 1000", field="paths_per_rung")
    return ladder


def _check_radius(radius):
    """A stopping radius is None (the default) or a positive finite real, not a bool."""
    if radius is not None and (isinstance(radius, bool) or not isinstance(radius, numbers.Real)
                               or not 0.0 < radius < np.inf):
        raise ConfigError(f"radius must be None or a positive finite number, got {radius!r}",
                          field="radius")


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


def _mirror_groups(xis) -> list:
    """The xi grid as groups (k, [j, ...]): xi_k, formed directly, and the later xi_j = -xi_k."""
    groups, taken = [], set()
    for k, xi in enumerate(xis):
        if k not in taken:
            mirrors = [j for j in range(k + 1, len(xis))
                       if j not in taken and np.array_equal(xis[j], -xi)]
            taken.update(mirrors)
            groups.append((k, mirrors))
    return groups


def _moved_rows(terminal, x):
    """Indices of the terminal states (m, d) that differ from x, NaN among them, when they
    are at most half of the m and d = 1; else None, and the values are formed densely.

    In d = 1 the phase is an elementwise product (``row_dot``), so a row's value
    does not depend on the rows formed with it; in d > 1 it is a matmul, whose
    rounding may depend on the row count.
    """
    if x.shape[0] != 1:
        return None
    changed = terminal[:, 0] != x[0]
    return np.flatnonzero(changed) if 2 * np.count_nonzero(changed) <= changed.size else None


def _values_for_pm_xi(terminal, x, xi, t, minus: bool, moved=None):
    """-(e^{i (X_t - x).xi} - 1) / t per path in row 0, and with ``minus`` the same at -xi in row 1.

    The phases are formed ``CHUNK_ROWS`` paths at a time, and the rest in
    place on both rows.  Row 1 takes e^{-i theta} as conj(e^{i theta}) with
    +0.0 added to its imaginary part: the phases of -xi are those of xi
    negated, and expi(-theta) is conj(expi(theta)) bit for bit except at
    theta = +-0, where expi gives +0.0 and the conjugate -0.0.  Every step
    is elementwise, so the rows are the values at xi and -xi formed alone.

    ``moved``, if not None, holds the paths that left x (``_moved_rows``).
    The values are then formed on x itself and those paths alone, and every
    other path takes the value at x: such a path's phase is a zero, and
    e^{i 0} is (1, +0) whatever the zero's sign, so each row keeps the bits of
    the dense formation.
    """
    rows = terminal if moved is None else np.concatenate([x[None], terminal[moved]])
    out = np.empty((2 if minus else 1, rows.shape[0]), dtype=complex)
    e = out[0]
    for c0 in range(0, e.shape[0], CHUNK_ROWS):
        expi(row_dot(rows[c0:c0 + CHUNK_ROWS] - x, xi), out=e[c0:c0 + CHUNK_ROWS])
    if minus:
        np.conjugate(e, out=out[1])
        out[1].imag += 0.0
    out -= 1.0
    np.negative(out, out=out)
    out /= t
    if moved is None:
        return out
    full = np.empty((out.shape[0], terminal.shape[0]), dtype=complex)
    full[...] = out[:, :1]
    full[:, moved] = out[:, 1:]
    return full


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


def _estimates_at_x(x, xis, ladder, variants, stats, paths_per_rung) -> list:
    """Estimates at one x for each xi, from its rung statistics.

    ``variants`` is [(0, r_used)], plus (1, 2 r_used) with the radius check;
    ``stats[variant][ri][k]`` is the ``RungStat`` of rung ri at ``xis[k]``.
    Loops over xi, then variant, so the first guard to fail is the one a
    serial run meets first.
    """
    r_used = variants[0][1]
    out = []
    for k, xi in enumerate(xis):
        results = {}
        for variant, _ in variants:
            rungs = [by_xi[k] for by_xi in stats[variant]]
            est, se, residuals = _extrapolate(ladder, [r.value for r in rungs],
                                              [r.se for r in rungs])
            _consistency_guard(ladder, rungs, residuals)
            results[variant] = (est, se, rungs)
        est, se, rungs = results[0]
        r_check = None
        if len(variants) > 1:
            est2, se2, _ = results[1]
            joint = np.hypot(se, se2)
            r_check = RSensitivity(radius=variants[1][1], estimate=est2, se=se2,
                                   consistent=bool(abs(est - est2) <= 3.0 * joint + 1e-12))
        out.append(SymbolEstimate(x=x, xi=xi, estimate=est, se=se, rungs=rungs,
                                  r_used=r_used, ladder=ladder,
                                  paths_per_rung=paths_per_rung, r_check=r_check))
    return out


def estimate_symbol_mc(model: SdeModel, x, xi, *, t_ladder=DEFAULT_LADDER,
                       paths_per_rung: int = 10_000, seed: int = 0,
                       radius: Optional[float] = None, steps_per_rung: int = 10,
                       check_radius: bool = True, threads: int = 1) -> SymbolEstimate:
    """Monte Carlo estimate of p(x, xi) with extrapolation to t = 0.

    Each rung simulates an independent ensemble stopped at the first exit
    from B_radius(x) (``radius``: None, the default radius, or a positive
    finite number).  ``check_radius`` reruns the ladder at twice the radius
    with fresh seeds; the two extrapolations must agree within 3 joint SE.
    """
    _check_ladder(t_ladder, steps_per_rung, paths_per_rung)
    x = initial_state(x, model.d, "x")
    return symbol_mc_table(model, [x], [xi], t_ladder=t_ladder, paths_per_rung=paths_per_rung,
                           seed=seed, radius=radius, steps_per_rung=steps_per_rung,
                           check_radius=check_radius, threads=threads)[0]


def symbol_mc_table(model: SdeModel, xs, xis, *, t_ladder=DEFAULT_LADDER,
                    paths_per_rung: int = 10_000, seed: int = 0,
                    radius: Optional[float] = None, steps_per_rung: int = 10,
                    check_radius: bool = True, threads: int = 1) -> list:
    """Estimates on an (x, xi) grid, sharing each rung ensemble across xi.

    Returns a list of SymbolEstimate in x-major order.  Rung ensembles are
    addressed by (x index, rung, variant): variant 0 at the radius, variant 1
    at twice the radius with fresh seeds.  Every (x, variant, rung) ensemble
    of the table is one task of one ``sde.ordered_map`` on ``threads``
    workers.  A task runs its ensemble (one ``simulate_ensemble`` call, which
    steps its ``DEFAULT_CHUNK``-path chunks in groups of ``GROUP_CHUNKS``, in
    order, inline on the task's worker), forms the per-path values one xi
    at a time (``_values_for_pm_xi``: a -xi in the grid takes its e^{-i theta}
    from xi's, and only the paths that moved are formed when they are at most
    half, ``_moved_rows``) and reduces them over the whole ensemble to one
    ``RungStat`` per xi; a rung whose mean or SE is not finite (a phase that
    overflows) raises NonConvergence naming x and xi.  The calling thread
    takes the rung statistics in task order and forms the extrapolation, the
    consistency guard and the radius check per x, xi and variant, in that
    order.  So every value is the serial run's bit for bit whatever
    ``threads`` is, and the first error a serial run meets is the one raised.  ``radius`` is None (``default_radius`` at each x) or a
    positive finite number; anything else is a ValueError.  A state of another
    dimension than the model's is a ConfigError naming ``x_grid``, the CLI's key; a
    frequency of any shape but (d,) is a DimensionMismatch.
    """
    ladder = _check_ladder(t_ladder, steps_per_rung, paths_per_rung)
    _check_radius(radius)
    xs = [initial_state(x, model.d, "x_grid") for x in xs]
    xis = [np.atleast_1d(np.asarray(v, dtype=float)) for v in xis]
    for xi in xis:
        if xi.shape != (model.d,):
            raise DimensionMismatch(f"xi shape {xi.shape}, expected ({model.d},)")
    groups = _mirror_groups(xis)
    grid = []                   # per x: [(variant, radius), ...]
    for x in xs:
        r_used = default_radius(x) if radius is None else float(radius)
        grid.append([(0, r_used)] + ([(1, 2.0 * r_used)] if check_radius else []))
    tasks = [(ix, x, variant, r, ri, t) for ix, (x, variants) in enumerate(zip(xs, grid))
             for variant, r in variants for ri, t in enumerate(ladder)]

    def rung(task):
        ix, x, variant, r, ri, t = task
        res = simulate_ensemble(model.blocks(), model.drift_coefficient, x, t, steps_per_rung,
                                paths_per_rung, seed, base_key=(TAG_SYMBOL_MC, ix, ri, variant),
                                stop_radius=r)
        exited = float(np.mean(res.exited))
        moved = _moved_rows(res.terminal, x)
        stats = [None] * len(xis)
        with np.errstate(over="ignore", invalid="ignore"):     # per thread: set in the task
            for k, mirrors in groups:
                values = _values_for_pm_xi(res.terminal, x, xis[k], t, bool(mirrors), moved)
                for j, v in zip([k] + mirrors, [values[0]] + [values[-1]] * len(mirrors)):
                    stats[j] = stat = _rung_stat(v, t, steps_per_rung, exited)
                    if not (cmath.isfinite(stat.value) and math.isfinite(stat.se)):
                        raise NonConvergence(
                            f"rung at t={t} has mean {stat.value} and SE {stat.se} at "
                            f"x = {x.tolist()}, xi = {xis[j].tolist()}: not finite")
        return stats

    out = []
    with closing(ordered_map(rung, tasks, threads)) as results:
        for x, variants in zip(xs, grid):
            stats = {variant: [next(results) for _ in ladder] for variant, _ in variants}
            out += _estimates_at_x(x, xis, ladder, variants, stats, paths_per_rung)
    return out


# --------------------------------------------------------------------------
# test functions


@dataclass
class TestFunction:
    """Smooth rapidly-decaying test function with closed-form Fourier transform.

    Convention: hat(xi) = (2 pi)^(-d) * int e^{-i y.xi} u(y) dy.  ``u``,
    ``grad`` and ``hess`` take a point or an array of points (``grad`` and
    ``hess`` append their (d,) and (d, d) axes), and ``second_difference(x,
    y)`` is u(x + y) + u(x - y) - 2 u(x) on an array y, free of the
    cancellation the three calls suffer at small y.  ``panel_width`` is the
    widest GK21 panel that resolves u in the jump generator's tables.
    """

    name: str
    u: Callable
    grad: Callable
    hess: Callable
    hat: Callable
    hat_halfwidth: Callable     # tol -> window where |hat| >= tol inside
    spatial_scale: float
    second_difference: Callable
    panel_width: float


def gaussian_bump(center: float = 0.0, width: float = 1.0) -> TestFunction:
    """u(x) = exp(-(x - center)^2 / (2 width^2)), for a finite center and width > 0.

    ``grad`` and ``hess`` divide by width^2 and width^4, so a width whose fourth
    power or its reciprocal leaves the normal float range is refused too.
    """
    m, s = float(center), float(width)
    if not (np.isfinite(m) and 0.0 < s < np.inf):
        raise ValueError(f"a gaussian bump needs a finite center and a finite width > 0, "
                         f"got center {center!r} and width {width!r}")
    if not 4.0 * abs(np.log(s)) < -np.log(np.finfo(float).tiny):
        raise ValueError(f"a gaussian bump's width^4 and width^-4 must be normal floats, "
                         f"got width {width!r}")

    def u(x):
        return np.exp(-0.5 * ((np.asarray(x, dtype=float) - m) / s) ** 2)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return (-(x - m) / s ** 2 * u(x))[..., None]

    def hess(x):
        x = np.asarray(x, dtype=float)
        return (((x - m) ** 2 / s ** 4 - 1.0 / s ** 2) * u(x))[..., None, None]

    def second_difference(x, y):
        # 2 u(x) (e^{-v^2/2} cosh(t v) - 1), t = (x - m)/s and v = y/s: where |t v| <= 1
        # as 2 u(x) (expm1(-v^2/2) cosh(t v) + 2 sinh^2(t v / 2)), elsewhere directly
        y = np.asarray(y, dtype=float)
        ux, t = u(x), (x - m) / s
        v = y / s
        near = np.abs(t * v) <= 1.0
        out = u(x + y) + u(x - y) - 2.0 * ux
        tv, vn = t * v[near], v[near]
        out[near] = 2.0 * ux * (np.expm1(-0.5 * vn * vn) * np.cosh(tv)
                                + 2.0 * np.sinh(0.5 * tv) ** 2)
        return out

    amp = s / np.sqrt(2 * np.pi)

    def hat(xi):
        return amp * np.exp(-0.5 * (s * xi) ** 2) * np.exp(-1j * m * xi)

    def halfwidth(tol):
        return np.sqrt(2.0 * np.log(amp / tol)) / s

    return TestFunction(name=f"gaussian({m},{s})", u=u, grad=grad, hess=hess,
                        hat=hat, hat_halfwidth=halfwidth,
                        spatial_scale=abs(m) + 10.0 * s,
                        second_difference=second_difference, panel_width=0.25 * s)


# --------------------------------------------------------------------------
# frozen triplet of the solution at a point


def frozen_triplet(driver_triplet: LevyTriplet, coefficient: CoefficientField,
                   x, drift_coefficient: Optional[CoefficientField] = None) -> LevyTriplet:
    """The x-frozen triplet of the solution symbol, one-dimensional.

    Drift phi*l (plus the truncation shift when |phi| != 1 moves mass across
    the unit ball, plus Psi(x) when there is a drift field), covariance
    phi^2 Q, and the image of N under y -> phi*y.
    """
    if coefficient.d != 1 or coefficient.n != 1 or driver_triplet.dim != 1:
        raise DimensionMismatch("frozen triplets are implemented for d = n = 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = float(coefficient(x)[0, 0])
    measure = driver_triplet.levy_measure
    drift = phi * driver_triplet.drift[0] + measure.truncation_shift(phi)
    if drift_coefficient is not None:
        drift = drift + float(drift_coefficient(x)[0, 0])
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


_FOURIER_WINDOW_TOL = 1e-14   # the window is where |hat-u| >= this
_FOURIER_IMAG_TOL = 1e-8      # largest imaginary residual, relative to max(1, |A u(x)|)


def generator_apply_fourier(p: SymbolField, u: TestFunction, x) -> float:
    """A u(x) = - int e^{i x xi} p(x, xi) hat-u(xi) d xi, one-dimensional.

    Integrates over the window where |hat-u| >= ``_FOURIER_WINDOW_TOL`` with
    one :func:`~symbolkit.quadrature.integrate_panels` call on a fixed table:
    ``radial_edges`` on [0, half], graded toward xi = 0 (where p may be like
    |xi|^alpha) with panels at most 0.5 wide beyond, mirrored about 0.  The
    symbol is called once per table at the state x over all nodes, and the
    real and imaginary parts are each checked against 1e-9.  A table that
    misses it is retried with panels a quarter as wide, as a symbol with
    jumps far from 0 oscillates in xi, until the table would exceed
    ``MAX_PANELS``; then the last miss is raised.  A NaN error estimate is
    raised at once, as no finer table mends it.  The imaginary residual
    must stay below ``_FOURIER_IMAG_TOL`` * scale.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if p.d != 1:
        raise DimensionMismatch("Fourier form is implemented in one dimension")
    x0 = float(x[0])
    try:
        half = float(u.hat_halfwidth(_FOURIER_WINDOW_TOL))
    except Exception as exc:
        raise QuadratureFailure(f"window detection failed: {exc}") from exc
    if not 0.0 < half < np.inf:
        raise QuadratureFailure(f"window half-width {half} is not a positive number")

    def integrand(nodes):
        grid = (1, nodes.size, 1)
        f = p.many(np.broadcast_to(x, grid), nodes.reshape(grid)).reshape(nodes.shape) * (
            expi(x0 * nodes) * u.hat(nodes))
        return np.stack([f.real, f.imag])

    width, missed = 0.5, None
    while True:
        try:
            right = radial_edges(half, width, "fourier generator")
            value = integrate_panels(integrand, np.concatenate([-right[::-1], [0.0], right]),
                                     tol=1e-9, label="fourier generator")
            break
        except QuadratureFailure as exc:
            if exc.achieved is None:
                raise missed or exc
            if np.isnan(exc.achieved):
                raise
            width, missed = 0.25 * width, exc
    re, im = float(value[0]), float(value[1])
    scale = max(1.0, abs(re))
    if abs(im) > _FOURIER_IMAG_TOL * scale:
        raise QuadratureFailure(f"imaginary residual {im:.3e} exceeds "
                                f"{_FOURIER_IMAG_TOL:.0e} * scale", achieved=abs(im))
    return -re
