"""Generalized upper indices and the maximal-symbol functionals.

The kernel

    g_d(rho) = 1/2 int_0^inf (2 pi lam)^{-d/2} e^{-|rho|^2/(2 lam)} e^{-lam/2} dlam

satisfies |y|^2/(1+|y|^2) = int (1 - cos(y.rho)) g_d(rho) drho and has moments
of every order.  The lambda integral is a Bessel integral (Gradshteyn-Ryzhik
3.471.9, DLMF 10.32.10): g_d(rho) = (2 pi)^{-d/2} r^{1-d/2} K_{d/2-1}(r) with
r = |rho|, which is e^{-r}/2 for d = 1, K_0(r)/(2 pi) for d = 2 and
e^{-r}/(4 pi r) for d = 3; :func:`eval_g` takes it in closed form for every
d.  :func:`g_identity_check` checks the identity on a fixed GK21 panel table.
K_nu, K_0 and J_0 come from :mod:`symbolkit.special`, in numpy and the math
module.

The upper functional

    H(x, R) = sup_{|y-x|<=2R} sup_{|e|<=1}
              ( int Re p(y, rho e / R) g(rho) drho + |p(y, e/R)| )

uses the one-dimensional kernel in the line integral as displayed in the
source formula.  Suprema over continua are
realized as deterministic grids with refinement passes around the incumbent,
so every result is reproducible.  beta^x_inf is read off the log-log ratio
of the symbol over a shrinking-ball sup (limsup surrogate: maximum over the
top decade of the frequency grid); beta_0 is the fitted decay exponent of
sup_x H(x, R) for large R.

H, h and beta^x_inf read only Re p and |p|, which are even in xi bit for bit
(p(y, -xi) = conj p(y, xi), with numpy's cos even and sin odd; the tests pin
it for every measure variant).  So they evaluate p on the nonnegative
directions |e| only.  H gathers its values back to the full direction grid,
so every maximiser, tie and refinement centre is the unfolded search's; h
and beta^x_inf take maxima, which repeats do not change.  H's edge term
|p(y, e/R)| is the rho = 1 node of its quadrature grid (|e| * 1.0 / R is
|e| / R exactly).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (BijectivityViolation, ConfigError, DegenerateSymbol, DimensionMismatch,
                     QuadratureFailure)
from .levy import LevyTriplet, kappa_from_c0, sector_constant
from .quadrature import halfline_nodes, integrate_panels, radial_edges
from .special import bessel_k, j0, k0
from .symbols import SymbolField, solution_symbol, symbol_from_exponent

_G_REACH, _G_CYCLE = 40.0, 4.0   # identity check: r cut (e^{-r}, K_0(r) < 1e-17), width * max |y|
_G_BATCH = 1 << 20      # identity check: values per batch of |y|
_BETA_INF_ETA_MIN, _BETA_INF_PER_DECADE, _BETA_INF_STATES = 10.0, 8, 21   # eta grid, ball
_BETA0_R_MIN, _BETA0_PER_DECADE, _BETA0_FIT_DECADES = 1.0, 6, 1.0   # R grid, top decades fitted
_DET_TOL, _DET_BALL = 1e-8, 0.25        # index transfer: least |det Phi| near each base point
_BOUND_STATES, _BOUND_FREQS = 21, 81    # bound diagnostic: states in the box, xi per sign
_BOUND_XI_MIN = 1e-2                    # bound diagnostic: least |xi| of the large grid
# H and h: ball states, directions, refinement rounds and points per refinement window
_SEARCH_STATES, _SEARCH_DIRECTIONS, _REFINE_ROUNDS, _REFINE_POINTS = 65, 17, 2, 21


# --------------------------------------------------------------------------
# kernel


def eval_g(d: int, rho) -> float:
    """Kernel g_d at rho: (2 pi)^{-d/2} r^{1-d/2} K_{d/2-1}(r) with r = |rho|.

    Elementary for d = 1 and 3, :func:`~symbolkit.special.bessel_k` otherwise.
    Raises ValueError unless ``d`` is an integer of at least 1 (a bool is
    not), and at rho = 0 for d >= 2, where g_d diverges.
    """
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"d must be an integer of at least 1, got {d!r}")
    r = float(np.linalg.norm(np.atleast_1d(rho)))
    if r == 0.0:
        if d == 1:
            return 0.5
        raise ValueError(f"g_{d}(0) diverges for d >= 2")
    if d == 1:
        return 0.5 * np.exp(-r)
    if d == 3:
        return np.exp(-r) / (4 * np.pi * r)
    return (2 * math.pi) ** (-d / 2) * r ** (1 - d / 2) * bessel_k(d / 2 - 1, r)


def g_identity_check(d: int, y_grid) -> float:
    """Max residual of int (1 - cos(y.rho)) g_d drho = |y|^2/(1+|y|^2) over the grid.

    In polar form, with s = |y|, the left side is int_0^inf e^{-r} (1 - cos(s r))
    dr for d = 1 and int_0^inf r K_0(r) (1 - J_0(s r)) dr for d = 2, both cut at
    r = ``_G_REACH``.  Each distinct |y| is integrated once, all on one GK21
    table (:func:`~symbolkit.quadrature.integrate_panels`) graded toward 0,
    where r K_0(r) has a log kink, with panels at most min(1, ``_G_CYCLE`` /
    max |y|) wide.  |y| is taken with ``math.hypot``, which neither overflows
    nor warns; a |y| that is NaN or infinite, or too large for a table of
    ``MAX_PANELS`` panels, is a ConfigError naming ``y_grid``, not a residual
    that ``max`` drops; a ``d`` other than 1 or 2 is one naming ``d``.
    """
    if d not in (1, 2):
        raise ConfigError("g-identity: d must be 1 or 2", field="d")
    norms = []
    for y in y_grid:
        s = math.hypot(*np.atleast_1d(np.asarray(y, dtype=float)))
        if not math.isfinite(s):
            raise ConfigError(f"g-identity: |y| is not finite at y = {y!r}", field="y_grid")
        norms.append(s)
    s = np.unique(norms)
    s = s[s > 0.0]                          # |y| = 0: both sides are 0
    if not s.size:
        return 0.0
    label = f"identity d={d}"
    try:
        edges = np.concatenate([[0.0], radial_edges(_G_REACH, min(1.0, _G_CYCLE / s[-1]), label)])
    except QuadratureFailure as exc:
        raise ConfigError(f"g-identity: |y| = {s[-1]:.6g} is too large for the identity check: "
                          f"{exc}", field="y_grid") from None
    rows = max(1, _G_BATCH // (21 * (edges.size - 1)))
    worst = 0.0
    for c in range(0, s.size, rows):
        batch = s[c:c + rows]
        col = batch[:, None, None]
        if d == 1:
            g = lambda r: np.exp(-r) * (2.0 * np.sin(0.5 * col * r) ** 2)   # 1 - cos(s r)
        else:
            g = lambda r: r * k0(r) * (1.0 - j0(col * r))
        value = integrate_panels(g, edges, tol=1e-8, label=label)
        worst = max(worst, float(np.max(np.abs(value - batch * batch / (1.0 + batch * batch)))))
    return worst


# --------------------------------------------------------------------------
# search grids


def _ball_grid(center: float, halfwidth: float, n: int) -> np.ndarray:
    return center + halfwidth * np.linspace(-1.0, 1.0, n)


def _window_grid(center: float, halfwidth: float, lo: float, hi: float, n: int) -> np.ndarray:
    a = max(lo, center - halfwidth)
    b = min(hi, center + halfwidth)
    return np.linspace(a, b, n)


# --------------------------------------------------------------------------
# H and h


def _h_integral_weights():
    """Nodes rho and weights for int_{-inf}^{inf} f(rho) g_1(|rho|) drho,
    folded to the half line for f even."""
    rho, w = halfline_nodes()
    return rho, w * np.exp(-rho)                # 2 * g_1


def _eval_symbol_grid(p: SymbolField, ys: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """p on the product grid ys x xis -> complex (len(ys), len(xis)).

    States and frequencies are broadcast views rather than copies, and p does
    its per-state work once per y.
    """
    grid = (len(ys), len(xis), 1)
    return p.many(np.broadcast_to(ys.reshape(-1, 1, 1), grid),
                  np.broadcast_to(xis.reshape(1, -1, 1), grid))


def _h_values(p: SymbolField, ys: np.ndarray, es: np.ndarray, R: float,
              rho: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """H integrand value for every (y, e) pair -> (ny, ne).

    p, the weighted sum and the edge term are formed once per distinct |e|,
    and only the (ny, n|e|) result is gathered back to every e.  A single |e|
    (a grid such as [-1, 1]) gathers the values before the sum: numpy sends a
    one-row product to a BLAS dot, which rounds unlike the unfolded grid's.
    """
    folded, back = np.unique(np.abs(es), return_inverse=True)
    before, after = (back, slice(None)) if folded.size == 1 else (slice(None), back)
    xis = (folded[:, None] * rho[None, :] / R).reshape(-1)
    vals = _eval_symbol_grid(p, ys, xis).reshape(len(ys), folded.size, len(rho))[:, before]
    return (vals.real @ weights + np.abs(vals[:, :, np.flatnonzero(rho == 1.0)[0]]))[:, after]


def big_H(p: SymbolField, x, R: float) -> float:
    """Upper maximal-symbol functional H(x, R) by grid search with refinement."""
    if R <= 0:
        raise ValueError("R must be positive")
    if p.d != 1:
        raise DimensionMismatch("H search is implemented for one-dimensional state")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    rho, weights = _h_integral_weights()

    ys = np.array([x0]) if p.x_independent else _ball_grid(x0, 2.0 * R, _SEARCH_STATES)
    es = np.linspace(-1.0, 1.0, _SEARCH_DIRECTIONS)
    vals = _h_values(p, ys, es, R, rho, weights)
    best = float(vals.max())
    iy, ie = np.unravel_index(int(vals.argmax()), vals.shape)
    y_star, e_star = ys[iy], es[ie]
    hw_y = 0.0 if p.x_independent else 2.0 * R * 2.0 / max(_SEARCH_STATES - 1, 1)
    hw_e = 2.0 / max(_SEARCH_DIRECTIONS - 1, 1)
    for _ in range(_REFINE_ROUNDS):
        ys2 = (np.array([x0]) if p.x_independent
               else _window_grid(y_star, hw_y, x0 - 2 * R, x0 + 2 * R, _REFINE_POINTS))
        es2 = _window_grid(e_star, hw_e, -1.0, 1.0, _REFINE_POINTS)
        vals2 = _h_values(p, ys2, es2, R, rho, weights)
        if float(vals2.max()) > best:
            best = float(vals2.max())
            iy, ie = np.unravel_index(int(vals2.argmax()), vals2.shape)
            y_star, e_star = ys2[iy], es2[ie]
        hw_y /= max(_REFINE_POINTS - 1, 1) / 2.0
        hw_e /= max(_REFINE_POINTS - 1, 1) / 2.0
    return best


def small_h(p: SymbolField, x, R: float, c0: float) -> float:
    """Lower functional h(x, R): inf over the ball of sup over directions of
    Re p(y, e / (4 kappa R)) with kappa from the sector constant."""
    if R <= 0:
        raise ValueError("R must be positive")
    if p.d != 1:
        raise DimensionMismatch("h search is implemented for one-dimensional state")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    kappa = kappa_from_c0(c0)
    scale = 1.0 / (4.0 * kappa * R)

    folded = np.unique(np.abs(np.linspace(-1.0, 1.0, _SEARCH_DIRECTIONS)))

    def sup_over_e(ys):
        return _eval_symbol_grid(p, ys, folded * scale).real.max(axis=1)

    ys = np.array([x0]) if p.x_independent else _ball_grid(x0, 2.0 * R, _SEARCH_STATES)
    sups = sup_over_e(ys)
    best = float(sups.min())
    y_star = ys[int(sups.argmin())]
    hw_y = 0.0 if p.x_independent else 2.0 * R * 2.0 / max(_SEARCH_STATES - 1, 1)
    for _ in range(_REFINE_ROUNDS):
        if p.x_independent:
            break
        ys2 = _window_grid(y_star, hw_y, x0 - 2 * R, x0 + 2 * R, _REFINE_POINTS)
        sups2 = sup_over_e(ys2)
        if float(sups2.min()) < best:
            best = float(sups2.min())
            y_star = ys2[int(sups2.argmin())]
        hw_y /= max(_REFINE_POINTS - 1, 1) / 2.0
    return best


# --------------------------------------------------------------------------
# indices


@dataclass
class BetaInfResult:
    x: float
    beta: float
    clamped: bool
    window: tuple
    points: list          # (log|eta|, log sup|p|) pairs over the whole grid
    eta_max: float


@dataclass
class Beta0Result:
    beta: float
    slope: float
    window: tuple
    points: list          # (log R, log sup_x H)
    non_decaying: bool
    x_box: Optional[tuple]


def beta_inf(p: SymbolField, x, eta_max: float = 1e8) -> BetaInfResult:
    """Upper index at infinity via the log-log ratio over a shrinking ball.

    s(eta) = sup_{|y-x|<=2/|eta|} log|p(y, eta)| / log|eta| on a geometric
    grid; the limsup surrogate is the maximum of s over the top decade.  The
    grid should extend far enough that constant factors in the symbol have
    decayed out of the ratio: the default 1e8 keeps the log(c)/log(eta)
    error below 0.05 for c in [1/2, 2].  The whole ladder is one paired-row
    ``p.many`` call; each eta's sup is the max over its own ball's rows.
    """
    if not eta_max >= 1e3:
        raise ConfigError(f"eta_max must be at least 1e3, got {eta_max!r}", field="eta_max")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    window = (eta_max / 10.0, eta_max)
    n_pts = max(2, int(np.ceil(_BETA_INF_PER_DECADE * np.log10(eta_max / _BETA_INF_ETA_MIN))))
    etas = np.geomspace(_BETA_INF_ETA_MIN, eta_max, n_pts)
    ys = (np.full((n_pts, 1), x0) if p.x_independent
          else np.array([_ball_grid(x0, 2.0 / eta, _BETA_INF_STATES) for eta in etas]))
    rows = p.many(ys.reshape(-1, 1), np.repeat(etas, ys.shape[1]).reshape(-1, 1))
    sups = np.fmax(np.abs(rows).reshape(ys.shape).max(axis=1), 0.0)    # a NaN row reads 0
    points = []
    s_vals = []
    for eta, sup_p in zip(etas, sups.tolist()):
        points.append((float(np.log(eta)), float(np.log(sup_p)) if sup_p > 0 else -np.inf))
        s_vals.append(np.log(sup_p) / np.log(eta) if sup_p > 0 else -np.inf)
    s_vals = np.asarray(s_vals)
    in_window = (etas >= window[0]) & (etas <= window[1])    # holds eta_max at least
    if np.all(sups[in_window] < 1e-14):
        raise DegenerateSymbol("|p| < 1e-14 on the whole limsup window")
    beta = float(np.max(s_vals[in_window]))
    clamped = not (0.0 <= beta <= 2.0)
    beta = float(np.clip(beta, 0.0, 2.0))
    return BetaInfResult(x=x0, beta=beta, clamped=clamped, window=window,
                         points=points, eta_max=eta_max)


def _check_radii(r_max: float, r_table: Sequence[float] = ()) -> None:
    """Refuse an r_max not above beta_0's first radius, 1, or an r_table radius not above 0."""
    if not r_max > _BETA0_R_MIN:
        raise ConfigError(f"r_max must be greater than {_BETA0_R_MIN:g}, got {r_max}",
                          field="r_max")
    if not all(R > 0.0 for R in r_table):
        raise ConfigError(f"r_table entries must be positive, got {r_table}", field="r_table")


def beta_zero(p: SymbolField, r_max: float = 1e4, *,
              x_box: Optional[tuple] = None) -> Beta0Result:
    """Upper index at zero: decay exponent of sup_x H(x, R) as R grows.

    For x-dependent symbols the outer sup runs over a declared compact box
    (lo, hi, count); it is recorded in the result.  ``r_max`` must exceed 1,
    the first radius of the R grid.
    """
    _check_radii(r_max)
    if p.x_independent:
        x_grid = np.array([0.0])
        box = None
    else:
        box = x_box if x_box is not None else (-5.0, 5.0, 5)
        x_grid = np.linspace(box[0], box[1], int(box[2]))
    n_pts = max(3, int(np.ceil(_BETA0_PER_DECADE * np.log10(r_max / _BETA0_R_MIN))))
    rs = np.geomspace(_BETA0_R_MIN, r_max, n_pts)
    hs = np.array([max(big_H(p, xv, R) for xv in x_grid) for R in rs])
    points = [(float(np.log(R)), float(np.log(h)) if h > 0 else -np.inf)
              for R, h in zip(rs, hs)]
    window = (r_max / 10.0 ** _BETA0_FIT_DECADES, r_max)
    sel = (rs >= window[0]) & (rs <= window[1]) & (hs > 0)
    if sel.sum() < 2:
        raise ValueError("beta_0 fit window contains fewer than 2 usable points")
    slope = float(np.polyfit(np.log(rs[sel]), np.log(hs[sel]), 1)[0])
    non_decaying = slope >= -1e-9
    beta = 0.0 if non_decaying else -slope
    return Beta0Result(beta=float(beta), slope=slope, window=window,
                       points=points, non_decaying=non_decaying, x_box=box)


@dataclass
class IndexTransferReport:
    beta_driver: float
    per_x: list                # (x, beta) pairs
    max_deviation: float


def index_transfer_check(driver: LevyTriplet, coefficient, x_set, *,
                         eta_max: float = 1e8) -> IndexTransferReport:
    """Compare beta^x_inf of the solution symbol with beta^psi_inf of the driver triplet.

    Requires d = n and a bijective frequency map: on 41 sampled states within
    ``_DET_BALL`` of every base point, |det Phi(y)| must stay above
    ``_DET_TOL`` and det Phi(y) must keep one sign (a sign change puts a zero
    between two samples).
    """
    if coefficient.d != coefficient.n:
        raise DimensionMismatch("index transfer requires d = n")
    for x in x_set:
        ys = _ball_grid(float(np.atleast_1d(x)[0]), _DET_BALL, 41)
        dets = np.linalg.det(coefficient.many(ys))
        low = np.abs(dets).min()
        bad = ys[int(np.abs(dets).argmin())]
        if low <= _DET_TOL:
            raise BijectivityViolation(f"|det Phi({bad:.4f})| = {low:.2e} <= {_DET_TOL:g}")
        if dets.min() < 0.0 < dets.max():
            raise BijectivityViolation(
                f"det Phi changes sign near {bad:.4f} (|det Phi| = {low:.2e} there)")
    beta_psi = beta_inf(symbol_from_exponent(driver), 0.0, eta_max=eta_max).beta
    sol = solution_symbol(driver, coefficient)
    per_x = []
    for x in x_set:
        res = beta_inf(sol, x, eta_max=eta_max)
        per_x.append((float(np.atleast_1d(x)[0]), res.beta))
    max_dev = max(abs(b - beta_psi) for _, b in per_x)
    return IndexTransferReport(beta_driver=beta_psi, per_x=per_x, max_deviation=max_dev)


# --------------------------------------------------------------------------
# boundedness diagnostic

# (b) <= C * (c) with C = 20 in one dimension: the subadditivity step gives
# c_p = 2 (c); the jump mass is bounded by c_p (m0 + m2) = 6 (c) with the
# kernel moments m0 = 1, m2 = 2; |Q| <= (c) directly at |xi| = 1; and the
# drift picks up |Im p| + 2 * jump mass <= (1 + 12) (c) via |sin u - u| bounds.
LEMMA_CONSTANT_1D = 20.0


@dataclass
class BoundDiagnostic:
    c_p: float
    triplet_norm: float       # (b)
    unit_sup: float           # (c)
    subadditivity_slack: float
    lemma_constant: float
    consistent: bool
    witnesses: dict


def symbol_bound_diagnostic(p: SymbolField, triplet_field: Callable, box: tuple,
                            *, xi_max: float = 100.0) -> BoundDiagnostic:
    """Numerical run of the boundedness equivalences over a compact state box.

    Computes (a) the quadratic-growth constant c_p, (b) the triplet norm
    |l| + |Q| + int y^2/(1+y^2) N, (c) the unit-ball sup of |p|; checks the
    subadditivity bound P(xi) <= 2 (1+|xi|^2) (c) on the grid and
    (b) <= LEMMA_CONSTANT_1D * (c).  The large-|xi| grid runs from ``_BOUND_XI_MIN``
    to ``xi_max``, so an ``xi_max`` not above it is a ConfigError.
    """
    if not xi_max > _BOUND_XI_MIN:
        raise ConfigError(f"xi_max must be greater than {_BOUND_XI_MIN:g}, got {xi_max!r}",
                          field="xi_max")
    lo, hi = float(box[0]), float(box[1])
    xs = np.linspace(lo, hi, _BOUND_STATES)
    xi_small = np.linspace(-1.0, 1.0, 41)
    xi_large = np.concatenate([
        -np.geomspace(_BOUND_XI_MIN, xi_max, _BOUND_FREQS)[::-1], [0.0],
        np.geomspace(_BOUND_XI_MIN, xi_max, _BOUND_FREQS)])

    def sup_over_x(xi_vals):
        grid = _eval_symbol_grid(p, xs, xi_vals)
        return np.abs(grid).max(axis=0)

    p_small = sup_over_x(xi_small)
    unit_sup = float(p_small.max())
    p_large = sup_over_x(xi_large)
    ratios = p_large / (1.0 + xi_large ** 2)
    c_p = float(ratios.max())
    i_cp = int(ratios.argmax())

    trip_norm = 0.0
    witness_x = xs[0]
    for xv in xs:
        trip = triplet_field(np.array([xv]))
        val = (abs(float(trip.drift[0])) + abs(float(trip.covariance[0, 0]))
               + trip.levy_measure.mass_ratio())
        if val > trip_norm:
            trip_norm, witness_x = val, xv
    slack = float(np.min(2.0 * (1.0 + xi_large ** 2) * unit_sup - p_large))
    consistent = (slack >= -1e-10 * max(1.0, unit_sup)
                  and trip_norm <= LEMMA_CONSTANT_1D * unit_sup + 1e-12)
    return BoundDiagnostic(
        c_p=c_p, triplet_norm=trip_norm, unit_sup=unit_sup,
        subadditivity_slack=slack, lemma_constant=LEMMA_CONSTANT_1D,
        consistent=bool(consistent),
        witnesses={"c_p_xi": float(xi_large[i_cp]), "triplet_x": float(witness_x)})


# --------------------------------------------------------------------------
# report bundle


@dataclass
class IndexReport:
    per_x: list                       # BetaInfResult per base point
    beta0: Optional[Beta0Result]
    c0: float
    kappa: float
    functional_table: list            # (R, H(x0, R), h(x0, R)) samples

    def to_dict(self) -> dict:
        return {
            "per_x": [{"x": r.x, "beta_inf": r.beta, "clamped": r.clamped,
                       "window": list(r.window),
                       "points": [list(pt) for pt in r.points]} for r in self.per_x],
            "beta0": None if self.beta0 is None else {
                "beta0": self.beta0.beta, "slope": self.beta0.slope,
                "window": list(self.beta0.window),
                "non_decaying": self.beta0.non_decaying,
                "x_box": None if self.beta0.x_box is None else list(self.beta0.x_box),
                "points": [list(pt) for pt in self.beta0.points]},
            "c0": self.c0, "kappa": self.kappa,
            "functional_table": [list(row) for row in self.functional_table],
        }


def symbol_sector_constant(p: SymbolField, xs, xi_grid) -> float:
    """Sector constant of a symbol over base points: max_x c0(p(x, .))."""
    c0 = 0.0
    for x in xs:
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        c0 = max(c0, sector_constant(lambda xi: p(xa, xi), xi_grid))
    return c0


def build_index_report(p: SymbolField, xs, *, eta_max: float = 1e8,
                       r_max: float = 1e4, x_box: Optional[tuple] = None,
                       r_table: Sequence[float] = (0.1, 1.0, 10.0, 100.0),
                       compute_beta0: bool = True) -> IndexReport:
    """Full index run for a symbol: per-x upper indices, beta_0, H/h samples.  ``r_max``
    and ``r_table`` are refused before any search, also when ``compute_beta0`` is false."""
    _check_radii(r_max, r_table)
    per_x = [beta_inf(p, x, eta_max=eta_max) for x in xs]
    xi_grid = [np.array([v]) for v in np.geomspace(0.1, 50.0, 25)]
    c0 = symbol_sector_constant(p, xs, xi_grid)
    kappa = kappa_from_c0(c0)
    x0 = xs[0]
    table = [(float(R), big_H(p, x0, R), small_h(p, x0, R, c0)) for R in r_table]
    b0 = beta_zero(p, r_max=r_max, x_box=x_box) if compute_beta0 else None
    return IndexReport(per_x=per_x, beta0=b0, c0=c0, kappa=kappa,
                       functional_table=table)
