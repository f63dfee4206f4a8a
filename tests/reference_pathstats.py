"""The straightforward path-statistic routines, kept as oracles for ``symbolkit.pathstats``.

``turning_points`` is the one-index-at-a-time scan, and ``gamma_variation`` the
O(k^2) dynamic program that evaluates every earlier turning point as a
predecessor, one numpy row per point.  Both are unchanged except for their
names; ``gamma_variation`` calls this module's ``turning_points``.  The tests
require the pruned, blocked program to reproduce their values and partitions
bit for bit.  ``variation_experiment`` is the whole-path form: it simulates
each level's dense (2^level + 1, trials, d) states at once and sums the
powers of their increments in one ``np.sum``; the streamed one must give its
rows bit for bit.
"""

import numpy as np

from symbolkit.pathstats import VariationResult, VariationRow
from symbolkit.sde import simulate_paths_dense
from symbolkit.seeding import TAG_EXPERIMENT


def turning_points(v: np.ndarray) -> np.ndarray:
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

    idx = turning_points(pts[:, 0]) if scalar else np.arange(m, dtype=np.int64)
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


def variation_experiment(model, gammas, levels, trials, seed, *, horizon=1.0, x0=0.0):
    """Finest-grid sum of |increments|^gamma across dyadic levels, on whole dense paths."""
    for gamma in gammas:
        if not 0.0 < float(gamma) < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma}")
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
