"""Sample-path diagnostics: gamma-variation and growth exponents.

``gamma_variation`` computes the exact supremum of sum |increments|^gamma over
all subpartitions of the sampled grid.  For gamma <= 1 the finest partition
is maximal (t -> t^gamma is subadditive), so the full-grid sum is returned.
For gamma > 1 the supremum is a dynamic program V[i] = max_j V[j] +
|x_i - x_j|^gamma; on scalar paths the candidate set is first reduced to
turning points, which is lossless: merging same-sign increments never
decreases a term ((a+b)^gamma >= a^gamma + b^gamma for a, b >= 0), and an
alternating partition point only improves by moving to the local extremum.

On scalar paths the program then looks only at the suffix maxima and suffix
minima of u[0..i-1] as predecessors of turning point i (Butkus and
Norvaisa, "Computation of p-variation", Lith. Math. J. 58, 2018).  This
loses nothing: if j is neither and u_i >= u_j, some m in (j, i) has
u_m < u_j, so V[m] >= V[j] + |u_m - u_j|^gamma >= V[j] and
|u_i - u_m| > |u_i - u_j|, and m's candidate is at least j's (u_i < u_j is
the mirror case).  Each step of a candidate (subtract, sqrt(d*d), numpy's
``**``, add) is a monotone rounded operation, so the inequality holds for the
floats too and the value is the full program's bit for bit; so is the
partition, unless a pruned j ties its dominating m exactly, which needs the
margin |u_j - u_m|^gamma to vanish in rounding.  A random walk has about
sqrt(k) suffix extrema, so k turning points cost O(k sqrt k) instead of
O(k^2).  A walk with drift keeps O(k) suffix minima (or maxima) and a
damped oscillation keeps every extremum; both stay O(k^2), as do paths with
d > 1, where every earlier point is a candidate.  Rows run in blocks of 32:
one matrix holds the powers from the block's rows to their candidates in
earlier blocks and to the block's own rows, and the short recurrence inside
the block runs in Python on those powers.  ``tests/reference_pathstats.py``
keeps the full O(k^2) program as the oracle.

``variation_experiment`` tracks the finest-grid sum across dyadic refinement
levels.  That is deliberately not the subpartition supremum: the refining
sums are the statistic with a known limit (for a Brownian path they settle at
the quadratic variation T at gamma = 2, diverge like n^{1-gamma/2} below and
vanish above), which is what the finiteness-threshold diagnostic reads off.
No level's dense path is held whole: the states reach the sums a window of
``sde.DENSE_WINDOW`` steps at a time, so memory is O(window x trials), plus
O(2^level) for a single trial, whose step norms numpy sums pairwise.  Both
experiments refuse an argument out of range before anything is simulated,
with a ``ConfigError`` (a ``ValueError``) naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .sde import (MAX_PATH_STEPS, SdeModel, check_ensemble_size, initial_state,
                  simulate_ensemble, simulate_paths_dense)
from .seeding import TAG_EXPERIMENT


@dataclass
class VariationResult:
    gamma: float
    value: float
    grid_size: int
    partition: np.ndarray     # maximizing subpartition, indices into the grid

    def reevaluate(self, values) -> float:
        """Sum |increments|^gamma along the stored partition (exactness check)."""
        v = np.asarray(values, dtype=float)
        v = v[:, None] if v.ndim == 1 else v
        pts = v[self.partition]
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        return float(np.sum(steps ** self.gamma))


_BLOCK = 32            # DP rows per block
_CELLS = 1 << 16       # most entries (rows x columns) in one block matrix


def _turning_points(v: np.ndarray) -> np.ndarray:
    """Endpoints plus the last index of each run of same-sign nonzero steps."""
    step = np.diff(v)
    moves = np.flatnonzero(step != 0.0)
    up = step[moves] > 0.0
    ends = np.concatenate((moves[:-1][up[:-1] != up[1:]], moves[-1:])) + 1
    keep = np.concatenate(([0], ends, [v.shape[0] - 1]))
    return keep[:-1] if keep[-2] == keep[-1] else keep


def _gap_powers(rows: np.ndarray, cols: np.ndarray, gamma: float) -> np.ndarray:
    """|rows[r] - cols[c]|^gamma, rounded as ``np.linalg.norm`` and numpy's ``**`` round it.

    ``norm`` sums fewer than eight squared coordinates left to right (numpy
    sums longer rows pairwise), so for d < 8 the sum runs one coordinate at a
    time on (rows, cols) arrays, which is several times faster than reducing
    a short last axis; longer rows call ``norm`` itself, one row at a time.
    """
    d = rows.shape[1]
    if d >= 8:
        return np.array([np.linalg.norm(row - cols, axis=1) for row in rows]) ** gamma
    sq = 0.0
    for c in range(d):
        gap = rows[:, c, None] - cols[None, :, c]
        sq = sq + gap * gap
    return np.sqrt(sq) ** gamma


def _best_chain(u: np.ndarray, gamma: float) -> tuple:
    """(V[k-1], maximising chain 0 -> k-1) of V[i] = max_j V[j] + |u_i - u_j|^gamma.

    Ties go to the earliest j among the kept candidates.  On d = 1 these
    are the suffix maxima and minima of u[0..i-1], kept in two monotone
    stacks; for d > 1 every earlier row is one, and ``upper`` holds only the
    rows of the current block.
    """
    k, d = u.shape
    x = u[:, 0].tolist()
    best = np.zeros(k)
    parent = [0] * k
    upper, lower = [], []      # suffix maxima and minima of u[:i]
    a = 0
    while a < k:
        if d == 1:             # a row on both stacks repeats a column: same maximum
            cols = np.sort(np.array(upper + lower, dtype=np.int64))
        else:
            cols, upper = np.arange(a), []
        n = cols.size
        b = min(k, a + max(1, min(_BLOCK, _CELLS // (n + _BLOCK))))
        powers = _gap_powers(u[a:b], u[np.concatenate((cols, np.arange(a, b)))], gamma)
        if n:
            cand = best[cols] + powers[:, :n]
            pick = cand.argmax(axis=1)
            top, arg = cand[np.arange(b - a), pick].tolist(), cols[pick].tolist()
        else:                  # the first block: row 0 is the start, at value 0
            top, arg = [0.0] + [-np.inf] * (b - 1), [0] * b
        inner = powers[:, n:].tolist()
        vals = []
        for i, v, p, row in zip(range(a, b), top, arg, inner):
            for stack in (upper, lower):
                for j in reversed(stack):
                    if j < a:
                        break
                    c = vals[j - a] + row[j - a]
                    if c > v or (c == v and j < p):
                        v, p = c, j
            vals.append(v)
            parent[i] = p
            if d == 1:
                while upper and x[upper[-1]] < x[i]:
                    upper.pop()
                while lower and x[lower[-1]] > x[i]:
                    lower.pop()
                lower.append(i)
            upper.append(i)
        best[a:b] = vals
        a = b
    chain = [k - 1]
    while chain[-1] != 0:
        chain.append(parent[chain[-1]])
    return best[-1], chain[::-1]


def gamma_variation(values, gamma: float) -> VariationResult:
    """Exact gamma-variation of a sampled path over all subpartitions."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    v = np.asarray(values, dtype=float)
    pts = v[:, None] if v.ndim == 1 else v
    scalar = pts.shape[1] == 1              # (m,) and (m, 1) both take the reduction
    m = pts.shape[0]
    if m < 2:
        raise ValueError("need at least two grid values")
    if not np.isfinite(pts).all():
        raise ValueError("path values must be finite (NaN or inf sample)")

    if gamma <= 1.0:
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        return VariationResult(gamma=gamma, value=float(np.sum(steps ** gamma)),
                               grid_size=m, partition=np.arange(m, dtype=np.int64))

    idx = _turning_points(pts[:, 0]) if scalar else np.arange(m, dtype=np.int64)
    value, chain = _best_chain(pts[idx], gamma)
    return VariationResult(gamma=gamma, value=float(value), grid_size=m,
                           partition=idx[np.asarray(chain, dtype=np.int64)])


# --------------------------------------------------------------------------
# experiments


@dataclass
class VariationRow:
    gamma: float
    level: int
    n_points: int
    median: float
    q25: float
    q75: float


MAX_LEVEL = 32                  # 2^32 steps per path


class _PowerSums:
    """Per-trial sums of |increment|^gamma of a dense run, fed one window of states at a time.

    The increments and their norms round as ``np.linalg.norm(np.diff(states,
    axis=0), axis=2)`` does (over a length-1 axis ``norm`` is sqrt(x*x)).
    With two or more trials each gamma's sum carries on across windows as one
    axis-0 ``np.add.reduce`` of the running sums stacked on the window's
    powers: numpy adds the rows of a C-contiguous (n, trials >= 2) array one
    after another, so this is the whole-path ``np.sum(steps ** gamma,
    axis=0)`` bit for bit.  numpy sums an (n, 1) column pairwise instead, so
    one trial keeps its n step norms and sums them once, in ``values``.
    """

    def __init__(self, gammas, n_steps, trials):
        self.gammas = gammas
        self.steps = np.empty((n_steps, 1)) if trials == 1 else None
        self.filled = 0
        self.sums = [None] * len(gammas)

    def __call__(self, states):
        inc = np.subtract(states[1:], states[:-1])
        if inc.shape[2] == 1:
            np.multiply(inc, inc, out=inc)
            steps = np.sqrt(inc, out=inc)[:, :, 0]
        else:
            steps = np.linalg.norm(inc, axis=2)
        if self.steps is not None:
            self.steps[self.filled:self.filled + len(steps)] = steps
            self.filled += len(steps)
            return
        for g, gamma in enumerate(self.gammas):
            power = steps ** gamma
            if self.sums[g] is not None:
                power = np.concatenate((self.sums[g][None], power))
            self.sums[g] = np.add.reduce(power, axis=0)

    def values(self) -> list:
        """Each gamma's (trials,) sums."""
        if self.steps is None:
            return self.sums
        return [np.sum(self.steps ** gamma, axis=0) for gamma in self.gammas]


def variation_experiment(model: SdeModel, gammas: Sequence[float],
                         levels: Sequence[int], trials: int, seed: int, *,
                         horizon: float = 1.0, x0=0.0) -> list:
    """Finest-grid sum of |increments|^gamma across dyadic refinement levels.

    Emits per (gamma, level) the median and quartiles over trial paths; the
    trend across levels separates the finite-variation regime from the
    divergent one.  The paths are never held whole: each level's states
    reach ``_PowerSums`` a window of ``sde.DENSE_WINDOW`` steps at a time, so
    memory is O(window x trials), plus O(2^level) for a single trial.
    Raises ConfigError unless every gamma and the horizon are positive and
    finite and x0 has the model's dimension, and when the run exceeds the
    work bound: a level above ``MAX_LEVEL``, or more than ``MAX_PATH_STEPS``
    path-steps, trials x the sum of 2^level, naming ``levels`` when the
    levels alone exceed it.
    """
    for gamma in gammas:
        if not 0.0 < float(gamma) < np.inf:
            raise ConfigError(f"variation: gamma must be positive and finite, got {gamma}",
                              field="gammas")
    if not 0.0 < horizon < np.inf:
        raise ConfigError(f"variation: horizon must be positive and finite, got {horizon}",
                          field="horizon")
    if max(levels, default=0) > MAX_LEVEL:        # no power of two is formed past it
        raise ConfigError(f"variation: a level is above {MAX_LEVEL}", field="levels")
    per_trial = sum(2 ** int(k) for k in levels)
    if trials * per_trial > MAX_PATH_STEPS:
        raise ConfigError(f"variation: the trials times {per_trial} steps per trial exceed "
                          f"{MAX_PATH_STEPS} path-steps",
                          field="levels" if per_trial > MAX_PATH_STEPS else "trials")
    gammas = [float(gamma) for gamma in gammas]
    x0 = initial_state(x0, model.d)
    rows = []
    for k in sorted(int(k) for k in levels):
        n = 2 ** k
        sums = _PowerSums(gammas, n, trials)
        simulate_paths_dense(model.blocks(), model.drift_coefficient, x0, horizon, n, trials,
                             seed, base_key=(TAG_EXPERIMENT, 0, k), sink=sums)
        for gamma, vals in zip(gammas, sums.values()):
            q25, med, q75 = np.percentile(vals, [25, 50, 75])
            rows.append(VariationRow(gamma=gamma, level=k, n_points=n + 1,
                                     median=float(med), q25=float(q25), q75=float(q75)))
    return rows


@dataclass
class GrowthRow:
    window: str               # "small" or "large"
    t: float
    lam: float
    median_max: float
    scaled: float             # t^{-1/lam} * median running max


@dataclass
class GrowthProfile:
    rows: list
    trends: dict              # (window, lam) -> {"slope": ..., "toward_zero": bool}


def growth_experiment(model: SdeModel, x, lambdas: Sequence[float],
                      t_small: Sequence[float], t_large: Sequence[float],
                      paths: int, seed: int, *, steps_per_run: int = 256,
                      threads: int = 1) -> GrowthProfile:
    """Median of t^{-1/lambda} (X - x)*_t on small- and large-time windows.

    The corollary-style statements are emitted as trends: for the small
    window ``toward_zero`` means the scaled median shrinks as t decreases
    (positive log-log slope); for the large window, as t grows (negative
    slope).  Nothing is asserted here; callers read the tendencies.  Raises
    ConfigError, before any simulation, naming ``t_small`` or ``t_large`` for a
    time that is not positive, ``lambdas`` for a lambda that is not positive or
    whose t^{-1/lambda} overflows at a configured t, ``paths`` x ``steps_per_run``, or
    ``x`` for a start of another dimension than the model's.
    """
    for key, times in (("t_small", t_small), ("t_large", t_large)):
        for t in times:
            if not t > 0:
                raise ConfigError(f"growth: {key} entry {t!r} is not positive", field=key)
    for lam in lambdas:
        if not lam > 0:
            raise ConfigError(f"growth: lambda {lam!r} is not positive", field="lambdas")
        for t in (float(t) for t in (*t_small, *t_large)):
            try:
                finite = math.isfinite(t ** (-1.0 / lam))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"growth: t^(-1/lambda) overflows at t = {t!r}, "
                                  f"lambda = {lam!r}", field="lambdas")
    check_ensemble_size(paths, steps_per_run, "paths", "steps_per_run")
    x = initial_state(x, model.d, "x")
    rows = []
    medians = {}
    for widx, (wname, ts) in enumerate((("small", t_small), ("large", t_large))):
        ts = sorted(float(t) for t in ts)
        if not ts:
            continue
        for i, t in enumerate(ts):
            res = simulate_ensemble(model.blocks(), model.drift_coefficient, x,
                                    t, steps_per_run, paths, seed,
                                    base_key=(TAG_EXPERIMENT, 1, widx, i),
                                    record_max=True, threads=threads)
            med = float(np.median(res.running_max))
            medians[(wname, t)] = med
            for lam in lambdas:
                rows.append(GrowthRow(window=wname, t=t, lam=float(lam),
                                      median_max=med,
                                      scaled=float(t ** (-1.0 / lam) * med)))
    trends = {}
    for wname, ts in (("small", t_small), ("large", t_large)):
        ts = sorted(float(t) for t in ts)
        if len(ts) < 2:
            continue
        logt = np.log(ts)
        for lam in lambdas:
            scaled = np.array([medians[(wname, t)] * t ** (-1.0 / lam) for t in ts])
            if np.any(scaled <= 0):
                trends[(wname, float(lam))] = {"slope": float("nan"), "toward_zero": True}
                continue
            slope = float(np.polyfit(logt, np.log(scaled), 1)[0])
            toward_zero = slope > 0 if wname == "small" else slope < 0
            trends[(wname, float(lam))] = {"slope": slope, "toward_zero": bool(toward_zero)}
    return GrowthProfile(rows=rows, trends=trends)
