"""The serial Monte Carlo symbol table, kept as the oracle for ``symbolkit.symbols``.

``symbol_mc_table`` here runs one ``simulate_ensemble`` per rung ensemble, one
x at a time, and forms each xi's per-path values on the whole ensemble with
``values_for_xi`` before the rung statistics, the extrapolation, the
consistency guard and the radius check.  It is the table as it was before its
chunk tasks went through one worker pool with the values formed in the
workers; it is unchanged except for its names.  The tests require the pooled
table to reproduce every field of every estimate bit for bit, and to raise
the error this oracle raises first.
"""

import numpy as np

from symbolkit.levy import CHUNK_ROWS, expi, row_dot
from symbolkit.sde import simulate_ensemble
from symbolkit.seeding import TAG_SYMBOL_MC
from symbolkit.symbols import (DEFAULT_LADDER, RSensitivity, SymbolEstimate, _check_ladder,
                               _consistency_guard, _extrapolate, _rung_stat, default_radius)


def values_for_xi(terminal, x, xi, t):
    """-(e^{i (X_t - x).xi} - 1) / t per path, formed in place, ``CHUNK_ROWS`` paths at a time."""
    out = np.empty(terminal.shape[0], dtype=complex)
    for c0 in range(0, out.shape[0], CHUNK_ROWS):
        e = out[c0:c0 + CHUNK_ROWS]
        expi(row_dot(terminal[c0:c0 + CHUNK_ROWS] - x, xi), out=e)
        e -= 1.0
        np.negative(e, out=e)
        e /= t
    return out


def rung_terminals(model, x, t, paths, seed, key, radius, steps_per_rung, threads):
    res = simulate_ensemble(model.blocks(), model.drift_coefficient, x,
                            t, steps_per_rung, paths, seed, base_key=key,
                            stop_radius=radius, threads=threads)
    return res.terminal, float(np.mean(res.exited))


def estimates_at_x(model, x_index, x, xis, ladder, paths_per_rung, seed,
                   radius, steps_per_rung, check_radius, threads):
    r_used = default_radius(x) if radius is None else float(radius)
    variants = [(0, r_used)] + ([(1, 2.0 * r_used)] if check_radius else [])
    terminals = {
        variant: [rung_terminals(model, x, t, paths_per_rung, seed,
                                 (TAG_SYMBOL_MC, x_index, ri, variant), r,
                                 steps_per_rung, threads)
                  for ri, t in enumerate(ladder)]
        for variant, r in variants}
    out = []
    for xi in xis:
        results = {}
        for variant, _ in variants:
            rungs = [_rung_stat(values_for_xi(terminal, x, xi, t), t, steps_per_rung, exited)
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


def symbol_mc_table(model, xs, xis, *, t_ladder=DEFAULT_LADDER, paths_per_rung=10_000,
                    seed=0, radius=None, steps_per_rung=10, check_radius=True, threads=1):
    """Estimates on an (x, xi) grid in x-major order, one ensemble at a time."""
    ladder = _check_ladder(t_ladder, steps_per_rung, paths_per_rung)
    xis = [np.atleast_1d(np.asarray(v, dtype=float)) for v in xis]
    out = []
    for ix, x in enumerate(xs):
        out += estimates_at_x(model, ix, np.atleast_1d(np.asarray(x, dtype=float)), xis,
                              ladder, paths_per_rung, seed, radius, steps_per_rung,
                              check_radius, threads)
    return out
