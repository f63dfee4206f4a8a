"""Sample-path diagnostics: gamma-variation and growth exponents.

``gamma_variation`` computes the exact supremum of sum |increments|^gamma over
all subpartitions of the sampled grid.  For gamma <= 1 the finest partition
is maximal (t -> t^gamma is subadditive), so the full-grid sum is returned.
For gamma > 1 the supremum is a dynamic program V[i] = max_j V[j] +
|x_i - x_j|^gamma; on scalar paths the candidate set is first reduced to
turning points, which is lossless: merging same-sign increments never
decreases a term ((a+b)^gamma >= a^gamma + b^gamma for a, b >= 0), and an
alternating partition point only improves by moving to the local extremum.

``variation_experiment`` tracks the finest-grid sum across dyadic refinement
levels.  That is deliberately not the subpartition supremum: the refining
sums are the statistic with a known limit (for a Brownian path they settle at
the quadratic variation T at gamma = 2, diverge like n^{1-gamma/2} below and
vanish above), which is what the finiteness-threshold diagnostic reads off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sde import SdeModel, simulate_ensemble, simulate_paths_dense
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


def _turning_points(v: np.ndarray) -> np.ndarray:
    """Endpoints plus direction-reversal indices; monotone runs keep their end."""
    m = v.shape[0]
    keep = [0]
    last_sign = 0
    for i in range(1, m):
        diff = v[i] - v[keep[-1]]
        if diff == 0.0:
            continue
        s = 1 if diff > 0 else -1
        if s == last_sign:
            keep[-1] = i
        else:
            keep.append(i)
            last_sign = s
    if keep[-1] != m - 1:
        keep.append(m - 1)
    return np.asarray(keep, dtype=np.int64)


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

    if gamma <= 1.0:
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        return VariationResult(gamma=gamma, value=float(np.sum(steps ** gamma)),
                               grid_size=m, partition=np.arange(m, dtype=np.int64))

    idx = _turning_points(pts[:, 0]) if scalar else np.arange(m, dtype=np.int64)
    u = pts[idx]
    k = u.shape[0]
    best = np.zeros(k)
    parent = np.zeros(k, dtype=np.int64)
    for i in range(1, k):
        gaps = np.linalg.norm(u[i] - u[:i], axis=1)
        cand = best[:i] + gaps ** gamma
        j = int(np.argmax(cand))
        best[i] = cand[j]
        parent[i] = j
    chain = [k - 1]
    while chain[-1] != 0:
        chain.append(int(parent[chain[-1]]))
    chain.reverse()
    return VariationResult(gamma=gamma, value=float(best[-1]), grid_size=m,
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


def variation_experiment(model: SdeModel, gammas: Sequence[float],
                         levels: Sequence[int], trials: int, seed: int, *,
                         horizon: float = 1.0, x0=0.0) -> list:
    """Finest-grid sum of |increments|^gamma across dyadic refinement levels.

    Emits per (gamma, level) the median and quartiles over trial paths; the
    trend across levels separates the finite-variation regime from the
    divergent one.
    """
    rows = []
    for k in sorted(int(k) for k in levels):
        n = 2 ** k
        dense = simulate_paths_dense(model.blocks(), model.drift_coefficient,
                                     np.atleast_1d(np.asarray(x0, dtype=float)),
                                     horizon, n, trials, seed,
                                     base_key=(TAG_EXPERIMENT, 0, k))
        steps = np.linalg.norm(np.diff(dense, axis=0), axis=2)   # (n, trials)
        for gamma in gammas:
            vals = np.sum(steps ** float(gamma), axis=0)
            q25, med, q75 = np.percentile(vals, [25, 50, 75])
            rows.append(VariationRow(gamma=float(gamma), level=k, n_points=n + 1,
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
    slope).  Nothing is asserted here; callers read the tendencies.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
                                    record_max_steps=[steps_per_run],
                                    threads=threads)
            med = float(np.median(res.running_max[-1]))
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
