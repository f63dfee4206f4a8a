"""Thin quadrature layer.

Every integral ``symbolkit`` takes over a jump measure, in the kernel identity
and in the Fourier form of the generator is one call to :func:`integrate_panels`:
the 21-point Gauss-Kronrod rule with its embedded 10-point Gauss rule
(QUADPACK's qk21, Piessens et al., 1983, :func:`gk21_rule`) laid on a fixed
table of panels (:func:`gk21_panels`), one batched evaluation of a vectorised
integrand over all nodes.  The Kronrod sum is the value, and the summed
per-panel |Kronrod - Gauss| is its error estimate: past the tolerance (or
NaN) it raises :class:`~symbolkit.errors.QuadratureFailure` with that
estimate as ``achieved``, and so does a table of more than ``MAX_PANELS``
panels, with ``achieved`` None.  The tables are graded geometrically: :func:`graded_edges` toward every knot of an
interval (a law's support ends and breakpoints), :func:`radial_edges` toward 0
(a measure singular there, whose caller takes [0, eps] in closed form; the
Fourier generator mirrors it about 0).  No integral is adaptive.

For the kernel-weighted integrals used by the H-functional we precompute a
fixed exp-sinh node set on (0, inf).  The substitution rho = exp(pi/2 sinh t)
is double-exponential, so algebraic endpoint behaviour (|rho|^alpha kinks) and
the e^{-rho} tail are both resolved to ~1e-12 with fewer than 100 nodes, and
the integral becomes a weighted dot product over a batched evaluation grid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure


def check_error(err: float, label: str, tol: float = 1e-8) -> None:
    """Raise QuadratureFailure unless the error estimate ``err`` is at most ``tol``
    (so a NaN estimate fails too)."""
    if not err <= tol:
        raise QuadratureFailure(
            f"{label}: error estimate {err:.3e} exceeds tolerance {tol:.1e}",
            achieved=err,
        )


# Nonnegative half of the 21-point Kronrod nodes on [-1, 1], descending to 0,
# and their weights; the 10-point Gauss nodes are the odd-indexed entries.
_GK21_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_GK21_KRONROD = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_GK21_GAUSS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
_HALFLINE_STEP, _HALFLINE_T_MAX = 0.08, 4.0     # exp-sinh nodes: step in t, over |t| <= t_max
MAX_PANELS = 1 << 14      # panels of one fixed table
RADIAL_FLOOR = 2.0 ** -60   # a radial table starts at or below this; its caller takes [0, eps]
GRADED_LEVELS = 8         # halvings toward each knot of a graded table


@lru_cache(maxsize=None)
def gk21_rule():
    """GK21 on [-1, 1], ascending: (nodes, Kronrod weights, Gauss weights).

    The Gauss weights are zero on the Kronrod-only nodes.
    """
    half = np.asarray(_GK21_NODES)
    nodes = np.concatenate([-half[:-1], half[::-1]])
    wk_half = np.asarray(_GK21_KRONROD)
    kronrod = np.concatenate([wk_half[:-1], wk_half[::-1]])
    wg_half = np.zeros(11)
    wg_half[1:10:2] = _GK21_GAUSS
    gauss = np.concatenate([wg_half[:-1], wg_half[::-1]])
    for arr in (nodes, kronrod, gauss):
        arr.setflags(write=False)
    return nodes, kronrod, gauss


def gk21_panels(edges: np.ndarray):
    """GK21 on each panel between consecutive ``edges``: (nodes, Kronrod weights,
    Gauss weights), each (panels, 21)."""
    x, wk, wg = gk21_rule()
    edges = np.asarray(edges, dtype=float)
    center = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return center + half * x, half * wk, half * wg


def _check_panels(count, label: str) -> None:
    if count > MAX_PANELS:
        raise QuadratureFailure(f"{label}: the panel table needs {count:.6g} panels, "
                                f"more than {MAX_PANELS}")


def graded_edges(knots) -> np.ndarray:
    """Panel edges on [knots[0], knots[-1]], graded geometrically toward every knot.

    ``knots`` ascend.  Each interval between consecutive knots is halved, and
    each half is cut at 2^-1, ..., 2^-``GRADED_LEVELS`` of its length from its
    knot, so a kink, a jump or a peak at a knot lies on a panel edge with
    short panels around it.  Each half is measured from its own knot, so
    knots symmetric about 0 give edges symmetric about 0 bit for bit.
    """
    knots = np.asarray(knots, dtype=float)
    a, b = knots[:-1, None], knots[1:, None]
    mid = 0.5 * (a + b)
    steps = 0.5 ** np.arange(GRADED_LEVELS, 0, -1)
    rows = np.concatenate([a, a + (mid - a) * steps, mid, b - (b - mid) * steps[::-1]], axis=1)
    return np.append(rows.ravel(), knots[-1])


def radial_edges(top: float, width: float, label: str) -> np.ndarray:
    """Panel edges on [eps, top], graded geometrically toward 0.

    Halvings from b0 = min(width, top) down to eps = b0 2^-k, the first at or
    below ``RADIAL_FLOOR`` (at least one), then panels at most ``width`` wide
    from b0 to top.  Raises QuadratureFailure, before building anything, when that takes
    more than ``MAX_PANELS`` panels.
    """
    top, width = float(top), float(width)
    b0 = min(width, top)
    levels = max(1, int(np.ceil(np.log2(b0 / RADIAL_FLOOR))))
    wide = np.ceil((top - b0) / width)          # a float: inf for a width too small to count
    _check_panels(levels + wide, label)
    return np.concatenate([b0 * 0.5 ** np.arange(levels, 0, -1),
                           np.linspace(b0, top, int(wide) + 1)])


def integrate_panels(g, edges, *, tol: float, label: str):
    """The Kronrod sum of ``g`` over the GK21 panels between consecutive ``edges``.

    ``g`` maps the (panels, 21) node array to values of shape (..., panels,
    21); a leading axis integrates several functions on one table, and the
    result has that leading shape (a float for none).  The sum adds each
    node's term to its mirror's (the table's nodes reversed), so an odd
    integrand on a table symmetric about 0 sums to exactly 0.  Raises
    QuadratureFailure when the table has more than ``MAX_PANELS`` panels, or
    when a function's summed per-panel |Kronrod - Gauss| exceeds ``tol`` or
    is NaN, with the largest such sum (NaN if any is) as ``achieved``.
    """
    edges = np.asarray(edges, dtype=float)
    _check_panels(edges.size - 1, label)
    nodes, kronrod, gauss = gk21_panels(edges)
    f = g(nodes)
    terms = (f * kronrod).reshape(*f.shape[:-2], -1)
    value = 0.5 * np.sum(terms + terms[..., ::-1], axis=-1)
    err = np.abs(np.sum(f * (kronrod - gauss), axis=-1)).sum(axis=-1)
    check_error(float(np.max(err)), label, tol)
    return value if value.ndim else float(value)


@lru_cache(maxsize=None)
def halfline_nodes():
    """Exp-sinh nodes and weights for integrals int_0^inf f(rho) drho.

    Intended for integrands with e^{-rho}-type decay; nodes above rho=745
    (where e^{-rho} underflows) are dropped.
    """
    n = int(_HALFLINE_T_MAX / _HALFLINE_STEP)
    t = np.arange(-n, n + 1) * _HALFLINE_STEP
    rho = np.exp(0.5 * np.pi * np.sinh(t))
    w = rho * 0.5 * np.pi * np.cosh(t) * _HALFLINE_STEP
    keep = (rho > 1e-300) & (rho < 745.0)
    rho, w = rho[keep], w[keep]
    rho.setflags(write=False)
    w.setflags(write=False)
    return rho, w
