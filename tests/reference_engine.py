"""The straightforward Euler engines, kept as oracles for the in-place engine.

``sample_step_ensemble``, ``sample_standard_stable``, ``_advance_chunk``,
``_run_chunk``, ``simulate_ensemble`` and ``simulate_paths_dense`` are the
straightforward versions of the ensemble engine in ``symbolkit.sde`` and
``symbolkit.levy``: a fresh state array and a zeroed update per step,
``einsum`` for every block, masks on every step and full ``np.linalg.norm``
distances.  The only edits are that ``_advance_chunk`` calls this module's
sampler instead of ``levy.sample_step_ensemble`` and that ``simulate_ensemble``
returns its own ``Ensemble``.  This ``simulate_ensemble`` still takes any stop
centre, any record steps and any chunk size; ``simulate_ensemble_at_x0`` fixes
them as the package does (centre x0, one record at the horizon, chunks of
``DEFAULT_CHUNK``).  The tests require the fast engine to reproduce these
functions bit for bit.

``_simulate_blocks_scalar``, ``_apply_jumps_scalar`` and ``sample_increment_parts``
are the separate single-path engine that
``simulate_path``/``simulate_multi`` ran on before they became one-path runs
of the ensemble step.  The only edit is that ``sample_increment_parts`` calls
this module's sampler.  The tests require the one-path runs to reproduce
their times, states and jump records bit for bit without a drift field, and
to 1e-12 with one (the ensemble step adds the drift to the update before the
state, the scalar engine after).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from symbolkit.errors import DimensionMismatch, SimulationOverflow
from symbolkit.levy import (DensityForm, FiniteActivity, StableSymmetric, StepSample,
                            ZeroMeasure)
from symbolkit import sde
from symbolkit.sde import DEFAULT_CHUNK, OVERFLOW_GUARD, EnsembleResult, SamplePath
from symbolkit.seeding import TAG_ENSEMBLE, TAG_PATH, rng_at


def sample_standard_stable(alpha, rng, size):
    v = (rng.uniform(size=size) - 0.5) * np.pi
    if abs(alpha - 1.0) < 1e-12:
        return np.tan(v)
    w = rng.exponential(size=size)
    return (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha))


def sample_step_ensemble(triplet, dt, m, rng):
    """Draw m independent one-step increments, keeping discrete jumps separate."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = triplet.dim
    smooth = np.broadcast_to(triplet.drift * dt, (m, n)).copy()
    if np.any(triplet.covariance):
        z = rng.normal(size=(m, n))
        smooth += np.sqrt(dt) * z @ triplet.sigma.T

    measure = triplet.levy_measure
    counts = np.zeros(m, dtype=np.int64)
    values = np.empty((0, n))
    positions = np.empty(0)

    if isinstance(measure, StableSymmetric):
        draw = sample_standard_stable(measure.alpha, rng, m * n).reshape(m, n)
        smooth += (measure.scale * dt) ** (1.0 / measure.alpha) * draw
    elif isinstance(measure, FiniteActivity):
        counts = rng.poisson(measure.rate * dt, size=m)
        total = int(counts.sum())
        if total:
            values = measure.law.sample(rng, total)
            positions = rng.uniform(0.0, dt, size=total)
        smooth -= dt * measure.rate * measure.law.mean_small()
    elif isinstance(measure, DensityForm):
        counts = rng.poisson(measure.activity * dt, size=m)
        total = int(counts.sum())
        if total:
            values = measure.sample_jumps(rng, total).reshape(total, 1)
            positions = rng.uniform(0.0, dt, size=total)
        smooth[:, 0] -= dt * measure.small_jump_drift
    elif not isinstance(measure, ZeroMeasure):
        raise TypeError(f"unknown measure variant {type(measure).__name__}")

    return StepSample(smooth=smooth, jump_counts=counts,
                      jump_values=values, jump_positions=positions)


def _advance_chunk(x, active, blocks, drift_field, dt, rngs):
    """One Euler step for a chunk; returns the updated state array."""
    m, d = x.shape
    steps = [sample_step_ensemble(drv, dt, m, rngs[j])
             for j, (fld, drv) in enumerate(blocks)]
    x_new = x.copy()
    upd = np.zeros((m, d))
    for j, (fld, drv) in enumerate(blocks):
        phi = fld.many(x)                       # (m, d, n_j)
        upd += np.einsum("mdn,mn->md", phi, steps[j].smooth)
    if drift_field is not None:
        upd += drift_field.many(x)[:, :, 0] * dt
    x_new[active] = x[active] + upd[active]

    counts = np.zeros(m, dtype=np.int64)
    for s in steps:
        counts += s.jump_counts
    jumpy = active & (counts > 0)
    if not jumpy.any():
        return x_new

    offsets = [np.concatenate([[0], np.cumsum(s.jump_counts)]) for s in steps]
    single = jumpy & (counts == 1)
    if single.any():
        for j, (fld, drv) in enumerate(blocks):
            ids = np.nonzero(single & (steps[j].jump_counts == 1))[0]
            if ids.size == 0:
                continue
            vals = steps[j].jump_values[offsets[j][ids]]        # (k, n_j)
            phi = fld.many(x_new[ids])                          # (k, d, n_j)
            x_new[ids] += np.einsum("kdn,kn->kd", phi, vals)
    multi = np.nonzero(jumpy & (counts > 1))[0]
    for i in multi:
        tagged = []
        for j, s in enumerate(steps):
            lo, hi = offsets[j][i], offsets[j][i + 1]
            tagged.extend((float(s.jump_positions[k]), j, s.jump_values[k])
                          for k in range(lo, hi))
        tagged.sort(key=lambda item: (item[0], item[1]))
        xi = x_new[i]
        for _, j, vec in tagged:
            xi = xi + blocks[j][0](xi) @ vec
        x_new[i] = xi
    return x_new


def _run_chunk(blocks, drift_field, x0, dt, n_steps, m, rngs,
               stop_center, stop_radius, record_steps):
    d = x0.shape[0]
    x = np.tile(x0, (m, 1))
    active = np.ones(m, dtype=bool)
    maxdist = np.zeros(m)
    records = np.zeros((len(record_steps), m)) if len(record_steps) else None
    rec_pos = {int(s): i for i, s in enumerate(record_steps)}
    for k in range(n_steps):
        x = _advance_chunk(x, active, blocks, drift_field, dt, rngs)
        norms = np.linalg.norm(x[active], axis=1) if active.any() else np.empty(0)
        if norms.size and norms.max() > OVERFLOW_GUARD:
            raise SimulationOverflow(
                f"state norm {norms.max():.3e} exceeded {OVERFLOW_GUARD:.0e} "
                f"at step {k + 1} of {n_steps}")
        dist = np.linalg.norm(x - x0, axis=1)
        maxdist = np.where(active, np.maximum(maxdist, dist), maxdist)
        if stop_radius is not None:
            dstop = np.linalg.norm(x - stop_center, axis=1)
            active &= ~(dstop > stop_radius)
        if records is not None and (k + 1) in rec_pos:
            records[rec_pos[k + 1]] = maxdist
    return x, ~active, records


@dataclass
class Ensemble:
    terminal: np.ndarray
    exited: np.ndarray
    running_max: Optional[np.ndarray]       # (len(record_steps), M)
    record_steps: np.ndarray


def simulate_ensemble(blocks, drift_field, x0, horizon, n_steps, n_paths, seed, *,
                      base_key=(TAG_ENSEMBLE,), stop_center=None, stop_radius=None,
                      record_max_steps=(), chunk_size=DEFAULT_CHUNK, threads=1):
    d = blocks[0][0].d
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dt = horizon / n_steps
    if stop_radius is not None and stop_center is None:
        stop_center = x0
    if stop_center is not None:
        stop_center = np.atleast_1d(np.asarray(stop_center, dtype=float))
    record_steps = np.asarray(sorted(int(s) for s in record_max_steps), dtype=int)

    bounds = list(range(0, n_paths, chunk_size)) + [n_paths]
    tasks = []
    for c in range(len(bounds) - 1):
        m = bounds[c + 1] - bounds[c]
        rngs = [rng_at(seed, *base_key, c, j) for j in range(len(blocks))]
        tasks.append((c, m, rngs))

    terminal = np.empty((n_paths, d))
    exited = np.zeros(n_paths, dtype=bool)
    records = np.zeros((len(record_steps), n_paths)) if len(record_steps) else None

    def work(task):
        c, m, rngs = task
        return c, _run_chunk(blocks, drift_field, x0, dt, n_steps, m, rngs,
                             stop_center, stop_radius, record_steps)

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, tasks))
    else:
        results = [work(t) for t in tasks]
    for c, (x, ex, rec) in results:
        lo, hi = bounds[c], bounds[c + 1]
        terminal[lo:hi] = x
        exited[lo:hi] = ex
        if records is not None:
            records[:, lo:hi] = rec
    return Ensemble(terminal=terminal, exited=exited,
                    running_max=records, record_steps=record_steps)


def simulate_ensemble_at_x0(blocks, drift_field, x0, horizon, n_steps, n_paths, seed, *,
                            base_key=(TAG_ENSEMBLE,), stop_radius=None, record_max=False,
                            threads=1):
    """``simulate_ensemble`` as ``sde.simulate_ensemble`` calls it: the stop ball
    around x0, the running maximum at the horizon only, chunks of
    ``sde.DEFAULT_CHUNK`` paths (looked up at the call, so a test may patch it)."""
    res = simulate_ensemble(blocks, drift_field, x0, horizon, n_steps, n_paths, seed,
                            base_key=base_key, stop_center=x0, stop_radius=stop_radius,
                            record_max_steps=[n_steps] if record_max else [],
                            chunk_size=sde.DEFAULT_CHUNK, threads=threads)
    return EnsembleResult(terminal=res.terminal, exited=res.exited,
                          running_max=None if res.running_max is None else res.running_max[0])


def simulate_paths_dense(blocks, drift_field, x0, horizon, n_steps, n_paths, seed, *,
                         base_key=(TAG_ENSEMBLE,)):
    d = blocks[0][0].d
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dt = horizon / n_steps
    rngs = [rng_at(seed, *base_key, 0, j) for j in range(len(blocks))]
    out = np.empty((n_steps + 1, n_paths, d))
    x = np.tile(x0, (n_paths, 1))
    out[0] = x
    active = np.ones(n_paths, dtype=bool)
    for k in range(n_steps):
        x = _advance_chunk(x, active, blocks, drift_field, dt, rngs)
        out[k + 1] = x
    return out


def sample_increment_parts(triplet, dt, rng):
    """Single-path step: (smooth part (n,), [(position, jump (n,)), ...] ordered by position)."""
    step = sample_step_ensemble(triplet, dt, 1, rng)
    jumps = [(float(step.jump_positions[k]), step.jump_values[k])
             for k in range(int(step.jump_counts[0]))]
    jumps.sort(key=lambda item: item[0])
    return step.smooth[0], jumps


def _apply_jumps_scalar(x, blocks, per_block_jumps, record, t_next):
    """Apply jumps sequentially in position order; mutate record if given."""
    tagged = []
    for j, jumps in enumerate(per_block_jumps):
        tagged.extend((pos, j, vec) for pos, vec in jumps)
    tagged.sort(key=lambda item: (item[0], item[1]))
    for _, j, vec in tagged:
        fld = blocks[j][0]
        effect = fld(x) @ vec
        x = x + effect
        if record is not None:
            record.append((t_next, effect))
    return x


def _simulate_blocks_scalar(blocks, drift_field, x0, horizon, step, seed):
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if horizon < step:
        raise ValueError(f"horizon {horizon} shorter than one step {step}")
    d = blocks[0][0].d
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise DimensionMismatch(f"x0 shape {x0.shape}, expected ({d},)")
    n_steps = int(np.ceil(horizon / step - 1e-12))
    times = step * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, d))
    states[0] = x0
    rngs = [rng_at(seed, TAG_PATH, j) for j in range(len(blocks))]
    jumps: list = []
    x = x0.copy()

    for k in range(n_steps):
        smooth_total = np.zeros(d)
        per_block_jumps = []
        for j, (fld, drv) in enumerate(blocks):
            smooth, jmp = sample_increment_parts(drv, step, rngs[j])
            smooth_total += fld(x) @ smooth
            per_block_jumps.append(jmp)
        x_new = x + smooth_total
        if drift_field is not None:
            x_new = x_new + drift_field(x)[:, 0] * step
        x_new = _apply_jumps_scalar(x_new, blocks, per_block_jumps, jumps, times[k + 1])
        norm = np.linalg.norm(x_new)
        if norm > OVERFLOW_GUARD:
            raise SimulationOverflow(
                f"state norm {norm:.3e} exceeded {OVERFLOW_GUARD:.0e} at t={times[k + 1]:.6g}")
        states[k + 1] = x_new
        x = x_new
    return SamplePath(times=times, states=states, jumps=jumps, seed=int(seed))
