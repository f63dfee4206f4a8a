"""Generalized upper indices and the maximal-symbol functionals.

The kernel

    g_d(rho) = 1/2 int_0^inf (2 pi lam)^{-d/2} e^{-|rho|^2/(2 lam)} e^{-lam/2} dlam

satisfies |y|^2/(1+|y|^2) = int (1 - cos(y.rho)) g_d(rho) drho and has moments
of every order.  In one dimension the lambda integral collapses to
g_1(rho) = e^{-|rho|}/2 (Gaussian-integral identity), in two to
K_0(|rho|)/(2 pi); the generic lambda quadrature is kept as the oracle the
closed forms are checked against.

The upper functional

    H(x, R) = sup_{|y-x|<=2R} sup_{|e|<=1}
              ( int Re p(y, rho e / R) g(rho) drho + |p(y, e/R)| )

uses the one-dimensional kernel in the line integral as displayed in the
source formula (``d_kernel`` overrides it).  Suprema over continua are
realized as deterministic grids with refinement passes around the incumbent,
so every result is reproducible.  beta^x_inf is read off the log-log ratio
of the symbol over a shrinking-ball sup (limsup surrogate: maximum over the
top decade of the frequency grid); beta_0 is the fitted decay exponent of
sup_x H(x, R) for large R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import j0, k0

from .errors import BijectivityViolation, DegenerateSymbol, DimensionMismatch
from .levy import kappa_from_c0, sector_constant
from .quadrature import halfline_nodes, integrate_checked
from .symbols import SymbolField

_LAMBDA_CUT = 60.0   # e^{-lam/2} tail beyond this is < 1e-13


# --------------------------------------------------------------------------
# kernel


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


def eval_g(d: int, rho) -> float:
    """Kernel g_d at rho; closed forms for d in {1, 2, 3}, quadrature otherwise."""
    r = float(np.linalg.norm(np.atleast_1d(rho)))
    if r == 0.0:
        if d == 1:
            return 0.5
        raise ValueError(f"g_{d}(0) diverges for d >= 2")
    if d == 1:
        return 0.5 * np.exp(-r)
    if d == 2:
        return float(k0(r)) / (2 * np.pi)
    if d == 3:
        return np.exp(-r) / (4 * np.pi * r)
    return eval_g_quadrature(d, r)


def _sphere_area(d: int) -> float:
    return 2 * np.pi ** (d / 2) / gamma_fn(d / 2)


class KernelG:
    """g_d with cached absolute moments m_k = int |rho|^k g_d(rho) drho, k <= 4."""

    def __init__(self, d: int):
        self.d = d
        self._moments = {}

    def __call__(self, rho) -> float:
        return eval_g(self.d, rho)

    def quadrature(self, rho) -> float:
        return eval_g_quadrature(self.d, rho)

    def moment(self, k: int) -> float:
        if k not in self._moments:
            area = _sphere_area(self.d)
            self._moments[k] = area * integrate_checked(
                lambda r: r ** (k + self.d - 1) * eval_g(self.d, r),
                0.0, 80.0, tol=1e-9, points=[1e-8, 1.0], label=f"moment {k}")
        return self._moments[k]

    @property
    def moments(self):
        return [self.moment(k) for k in range(5)]


def g_identity_check(d: int, y_grid) -> float:
    """Max residual of int (1 - cos(y.rho)) g_d drho = |y|^2/(1+|y|^2) over the grid."""
    worst = 0.0
    for y in y_grid:
        s = float(np.linalg.norm(np.atleast_1d(y)))
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


# --------------------------------------------------------------------------
# search grids


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic sampling plan for sup/inf over balls."""

    n_state: int = 65
    n_direction: int = 17
    refine_rounds: int = 2
    refine_points: int = 21


def _ball_grid(center: float, halfwidth: float, n: int) -> np.ndarray:
    return center + halfwidth * np.linspace(-1.0, 1.0, n)


def _window_grid(center: float, halfwidth: float, lo: float, hi: float, n: int) -> np.ndarray:
    a = max(lo, center - halfwidth)
    b = min(hi, center + halfwidth)
    return np.linspace(a, b, n)


# --------------------------------------------------------------------------
# H and h


def _h_integral_weights(d_kernel: int):
    """Nodes rho and weights for int_{-inf}^{inf} f(rho) g_{d_kernel}(|rho|) drho,
    folded to the half line for f even."""
    rho, w = halfline_nodes()
    if d_kernel == 1:
        gv = np.exp(-rho)                       # 2 * g_1
    else:
        gv = 2.0 * np.array([eval_g(d_kernel, r) for r in rho])
    return rho, w * gv


def _eval_symbol_grid(p: SymbolField, ys: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """p on the product grid ys x xis -> complex (len(ys), len(xis))."""
    ny, nxi = len(ys), len(xis)
    xs = np.repeat(ys, nxi).reshape(-1, 1)
    xx = np.tile(xis, ny).reshape(-1, 1)
    return p.many(xs, xx).reshape(ny, nxi)


def _h_values(p: SymbolField, ys: np.ndarray, es: np.ndarray, R: float,
              rho: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """H integrand value for every (y, e) pair -> (ny, ne)."""
    ny, ne, nq = len(ys), len(es), len(rho)
    xis = (es[:, None] * rho[None, :] / R).reshape(-1)      # (ne*nq,)
    vals = _eval_symbol_grid(p, ys, xis)                    # (ny, ne*nq)
    integrals = vals.real.reshape(ny, ne, nq) @ weights
    edge = np.abs(_eval_symbol_grid(p, ys, es / R))
    return integrals + edge


def big_H(p: SymbolField, x, R: float, cfg: SearchConfig = SearchConfig(), *,
          d_kernel: int = 1) -> float:
    """Upper maximal-symbol functional H(x, R) by grid search with refinement."""
    if R <= 0:
        raise ValueError("R must be positive")
    if p.d != 1:
        raise DimensionMismatch("H search is implemented for one-dimensional state")
    x0 = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    rho, weights = _h_integral_weights(d_kernel)
    if not p.hermitian:
        raise ValueError("H folding requires a hermitian symbol")

    ys = np.array([x0]) if p.x_independent else _ball_grid(x0, 2.0 * R, cfg.n_state)
    es = np.linspace(-1.0, 1.0, cfg.n_direction)
    vals = _h_values(p, ys, es, R, rho, weights)
    best = float(vals.max())
    iy, ie = np.unravel_index(int(vals.argmax()), vals.shape)
    y_star, e_star = ys[iy], es[ie]
    hw_y = 0.0 if p.x_independent else 2.0 * R * 2.0 / max(cfg.n_state - 1, 1)
    hw_e = 2.0 / max(cfg.n_direction - 1, 1)
    for _ in range(cfg.refine_rounds):
        ys2 = (np.array([x0]) if p.x_independent
               else _window_grid(y_star, hw_y, x0 - 2 * R, x0 + 2 * R, cfg.refine_points))
        es2 = _window_grid(e_star, hw_e, -1.0, 1.0, cfg.refine_points)
        vals2 = _h_values(p, ys2, es2, R, rho, weights)
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
        vals = _eval_symbol_grid(p, ys, es * scale).real
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


def beta_inf(p: SymbolField, x, eta_max: float = 1e8,
             window: Optional[tuple] = None, *, eta_min: float = 10.0,
             points_per_decade: int = 8, n_state: int = 21) -> BetaInfResult:
    """Upper index at infinity via the log-log ratio over a shrinking ball.

    s(eta) = sup_{|y-x|<=2/|eta|} log|p(y, eta)| / log|eta| on a geometric
    grid; the limsup surrogate is the maximum of s over ``window`` (default:
    the top decade).  The grid should extend far enough that constant factors
    in the symbol have decayed out of the ratio: the default 1e8 keeps the
    log(c)/log(eta) error below 0.05 for c in [1/2, 2].
    """
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


def beta_zero(p: SymbolField, r_max: float = 1e4, *, r_min: float = 1.0,
              points_per_decade: int = 6, window_decades: float = 1.0,
              x_box: Optional[tuple] = None, cfg: SearchConfig = SearchConfig(),
              d_kernel: int = 1) -> Beta0Result:
    """Upper index at zero: decay exponent of sup_x H(x, R) as R grows.

    For x-dependent symbols the outer sup runs over a declared compact box
    (lo, hi, count); it is recorded in the result.
    """
    if p.x_independent:
        x_grid = np.array([0.0])
        box = None
    else:
        box = x_box if x_box is not None else (-5.0, 5.0, 5)
        x_grid = np.linspace(box[0], box[1], int(box[2]))
    n_pts = max(3, int(np.ceil(points_per_decade * np.log10(r_max / r_min))))
    rs = np.geomspace(r_min, r_max, n_pts)
    hs = np.array([max(big_H(p, xv, R, cfg, d_kernel=d_kernel) for xv in x_grid)
                   for R in rs])
    points = [(float(np.log(R)), float(np.log(h)) if h > 0 else -np.inf)
              for R, h in zip(rs, hs)]
    window = (r_max / 10.0 ** window_decades, r_max)
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


def index_transfer_check(driver_symbol: SymbolField, coefficient, x_set,
                         *, eta_max: float = 1e8, det_tol: float = 1e-8,
                         ball: float = 0.25) -> IndexTransferReport:
    """Compare beta^x_inf of the solution symbol with beta^psi_inf of the driver.

    Requires d = n and a bijective frequency map: |det Phi(y)| must stay above
    ``det_tol`` on sampled neighborhoods of every base point.
    """
    from .symbols import solution_symbol  # deferred: symbols imports sde at load

    if coefficient.d != coefficient.n:
        raise DimensionMismatch("index transfer requires d = n")
    if driver_symbol.exponent is None:
        raise ValueError("driver_symbol must carry its exponent (use symbol_from_exponent)")
    for x in x_set:
        ys = _ball_grid(float(np.atleast_1d(x)[0]), ball, 41)
        dets = np.array([np.linalg.det(coefficient(np.array([y]))) for y in ys])
        if np.abs(dets).min() <= det_tol:
            bad = ys[int(np.abs(dets).argmin())]
            raise BijectivityViolation(
                f"|det Phi({bad:.4f})| = {np.abs(dets).min():.2e} <= {det_tol:g}")
    beta_psi = beta_inf(driver_symbol, 0.0, eta_max=eta_max).beta
    sol = solution_symbol(driver_symbol.exponent, coefficient)
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
                            *, xi_max: float = 100.0, n_x: int = 21,
                            n_xi: int = 81) -> BoundDiagnostic:
    """Numerical run of the boundedness equivalences over a compact state box.

    Computes (a) the quadratic-growth constant c_p, (b) the triplet norm
    |l| + |Q| + int y^2/(1+y^2) N, (c) the unit-ball sup of |p|; checks the
    subadditivity bound P(xi) <= 2 (1+|xi|^2) (c) on the grid and
    (b) <= LEMMA_CONSTANT_1D * (c).
    """
    lo, hi = float(box[0]), float(box[1])
    xs = np.linspace(lo, hi, n_x)
    xi_small = np.linspace(-1.0, 1.0, 41)
    xi_large = np.concatenate([
        -np.geomspace(1e-2, xi_max, n_xi)[::-1], [0.0],
        np.geomspace(1e-2, xi_max, n_xi)])

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
                       cfg: SearchConfig = SearchConfig(),
                       compute_beta0: bool = True) -> IndexReport:
    """Full index run for a symbol: per-x upper indices, beta_0, H/h samples."""
    per_x = [beta_inf(p, x, eta_max=eta_max) for x in xs]
    xi_grid = [np.array([v]) for v in np.geomspace(0.1, 50.0, 25)]
    c0 = symbol_sector_constant(p, xs, xi_grid)
    kappa = kappa_from_c0(c0)
    x0 = xs[0]
    table = [(float(R), big_H(p, x0, R, cfg), small_h(p, x0, R, c0, cfg))
             for R in r_table]
    b0 = beta_zero(p, r_max=r_max, x_box=x_box, cfg=cfg) if compute_beta0 else None
    return IndexReport(per_x=per_x, beta0=b0, c0=c0, kappa=kappa,
                       functional_table=table)
