"""The unfolded index searches, kept as oracles for ``symbolkit.indices``.

``h_values``, ``big_H``, ``small_h`` and ``beta_inf`` evaluate the symbol on
every direction e and its mirror -e, and ``h_values`` makes a second symbol
call for the edge term |p(y, e/R)|.  They are unchanged except for their names,
shorter docstrings and calling this module's ``eval_symbol_grid``.  The tests require the
folded searches, which evaluate p on |e| only, to reproduce them bit for bit.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from symbolkit.errors import DegenerateSymbol, DimensionMismatch
from symbolkit.indices import BetaInfResult, _ball_grid, _h_integral_weights, _window_grid
from symbolkit.levy import kappa_from_c0
from symbolkit.symbols import SymbolField


@dataclass(frozen=True)
class SearchConfig:
    """Sampling plan for the sup/inf over balls; the defaults are the searches' constants."""

    n_state: int = 65
    n_direction: int = 17
    refine_rounds: int = 2
    refine_points: int = 21


def eval_symbol_grid(p: SymbolField, ys: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """p on the product grid ys x xis -> complex (len(ys), len(xis))."""
    ny, nxi = len(ys), len(xis)
    xs = np.repeat(ys, nxi).reshape(-1, 1)
    xx = np.tile(xis, ny).reshape(-1, 1)
    return p.many(xs, xx).reshape(ny, nxi)


def h_values(p: SymbolField, ys: np.ndarray, es: np.ndarray, R: float,
             rho: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """H integrand value for every (y, e) pair -> (ny, ne)."""
    ny, ne, nq = len(ys), len(es), len(rho)
    xis = (es[:, None] * rho[None, :] / R).reshape(-1)      # (ne*nq,)
    vals = eval_symbol_grid(p, ys, xis)                     # (ny, ne*nq)
    integrals = vals.real.reshape(ny, ne, nq) @ weights
    edge = np.abs(eval_symbol_grid(p, ys, es / R))
    return integrals + edge


def big_H(p: SymbolField, x, R: float, cfg: SearchConfig = SearchConfig()) -> float:
    """Upper maximal-symbol functional H(x, R) by grid search with refinement."""
    if R <= 0:
        raise ValueError("R must be positive")
    if p.d != 1:
        raise DimensionMismatch("H search is implemented for one-dimensional state")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    rho, weights = _h_integral_weights()

    ys = np.array([x0]) if p.x_independent else _ball_grid(x0, 2.0 * R, cfg.n_state)
    es = np.linspace(-1.0, 1.0, cfg.n_direction)
    vals = h_values(p, ys, es, R, rho, weights)
    best = float(vals.max())
    iy, ie = np.unravel_index(int(vals.argmax()), vals.shape)
    y_star, e_star = ys[iy], es[ie]
    hw_y = 0.0 if p.x_independent else 2.0 * R * 2.0 / max(cfg.n_state - 1, 1)
    hw_e = 2.0 / max(cfg.n_direction - 1, 1)
    for _ in range(cfg.refine_rounds):
        ys2 = (np.array([x0]) if p.x_independent
               else _window_grid(y_star, hw_y, x0 - 2 * R, x0 + 2 * R, cfg.refine_points))
        es2 = _window_grid(e_star, hw_e, -1.0, 1.0, cfg.refine_points)
        vals2 = h_values(p, ys2, es2, R, rho, weights)
        if float(vals2.max()) > best:
            best = float(vals2.max())
            iy, ie = np.unravel_index(int(vals2.argmax()), vals2.shape)
            y_star, e_star = ys2[iy], es2[ie]
        hw_y /= max(cfg.refine_points - 1, 1) / 2.0
        hw_e /= max(cfg.refine_points - 1, 1) / 2.0
    return best


def small_h(p: SymbolField, x, R: float, c0: float,
            cfg: SearchConfig = SearchConfig()) -> float:
    """Lower functional h(x, R): inf over the ball of sup over directions of
    Re p(y, e / (4 kappa R)) with kappa from the sector constant."""
    if R <= 0:
        raise ValueError("R must be positive")
    if p.d != 1:
        raise DimensionMismatch("h search is implemented for one-dimensional state")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    kappa = kappa_from_c0(c0)
    scale = 1.0 / (4.0 * kappa * R)

    def sup_over_e(ys):
        es = np.linspace(-1.0, 1.0, cfg.n_direction)
        vals = eval_symbol_grid(p, ys, es * scale).real
        return vals.max(axis=1)

    ys = np.array([x0]) if p.x_independent else _ball_grid(x0, 2.0 * R, cfg.n_state)
    sups = sup_over_e(ys)
    best = float(sups.min())
    y_star = ys[int(sups.argmin())]
    hw_y = 0.0 if p.x_independent else 2.0 * R * 2.0 / max(cfg.n_state - 1, 1)
    for _ in range(cfg.refine_rounds):
        if p.x_independent:
            break
        ys2 = _window_grid(y_star, hw_y, x0 - 2 * R, x0 + 2 * R, cfg.refine_points)
        sups2 = sup_over_e(ys2)
        if float(sups2.min()) < best:
            best = float(sups2.min())
            y_star = ys2[int(sups2.argmin())]
        hw_y /= max(cfg.refine_points - 1, 1) / 2.0
    return best


def beta_inf(p: SymbolField, x, eta_max: float = 1e8,
             window: Optional[tuple] = None, *, eta_min: float = 10.0,
             points_per_decade: int = 8, n_state: int = 21) -> BetaInfResult:
    """Upper index at infinity via the log-log ratio over a shrinking ball."""
    if eta_max < 1e3:
        raise ValueError("eta_max must be at least 1e3")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    if window is None:
        window = (eta_max / 10.0, eta_max)
    n_pts = max(2, int(np.ceil(points_per_decade * np.log10(eta_max / eta_min))))
    etas = np.geomspace(eta_min, eta_max, n_pts)
    points = []
    s_vals = []
    for eta in etas:
        ys = (np.array([x0]) if p.x_independent
              else _ball_grid(x0, 2.0 / eta, n_state))
        sup_p = 0.0
        for direction in (1.0, -1.0):
            vals = np.abs(p.many(ys.reshape(-1, 1),
                                 np.full((len(ys), 1), direction * eta)))
            sup_p = max(sup_p, float(vals.max()))
        points.append((float(np.log(eta)), float(np.log(sup_p)) if sup_p > 0 else -np.inf))
        s_vals.append(np.log(sup_p) / np.log(eta) if sup_p > 0 else -np.inf)
    s_vals = np.asarray(s_vals)
    in_window = (etas >= window[0]) & (etas <= window[1])
    if not in_window.any():
        raise ValueError("limsup window contains no grid points")
    window_sup = np.array([np.exp(pt[1]) if np.isfinite(pt[1]) else 0.0
                           for pt in points])[in_window]
    if np.all(window_sup < 1e-14):
        raise DegenerateSymbol("|p| < 1e-14 on the whole limsup window")
    beta = float(np.max(s_vals[in_window]))
    clamped = not (0.0 <= beta <= 2.0)
    beta = float(np.clip(beta, 0.0, 2.0))
    return BetaInfResult(x=x0, beta=beta, clamped=clamped, window=window,
                         points=points, eta_max=eta_max)
