"""Euler simulation of dX = Phi(X_-) dZ + Psi(X_-) dt.

Fixed-step scheme.  Within a step the smooth driver contribution (drift,
Gaussian, aggregate-stable, small-jump compensator) is applied with the
coefficient frozen at the step-start state; individually simulated
finite-activity jumps are then applied one at a time in the order of their
drawn positions, each with the coefficient evaluated at the running pre-jump
state.  That keeps the X_{t-} convention visible at jump times: for
dX = -X_- dN the first jump sends the path to zero and every later jump has
zero effect.  Jump times are snapped to the end of the step they fall in, so
every recorded jump sits on the grid.

There is one stepping rule, ``_advance_chunk``, which steps a chunk of paths
at once.  ``simulate_ensemble`` runs it on chunks of paths and keeps only the
terminal states; ``simulate_paths_dense`` keeps every state; ``simulate_path``
and ``simulate_multi`` are a one-path dense run that also records each jump
as (grid time, state-space effect).  The engine keeps these invariants:

- the chunk's state array is updated in place, with no per-step copy;
- a path that has left the stop ball is frozen: later steps still draw its
  variates but change neither its state nor its running maximum;
- each chunk owns seed-derived generators addressed by (master seed, caller
  key, chunk index, block index), and every step draws from them in a fixed
  order: block by block, all of a block's variates for the whole chunk in
  one call.  Output is therefore invariant under the worker count.  A single
  path uses the generators (master seed, ``TAG_PATH``, block index);
- the arithmetic rounds as the plain formulation does (a zeroed update
  summed block by block, then the drift; norms as ``np.linalg.norm``), so
  results are bit-identical to it.  ``tests/reference_engine.py`` keeps
  that formulation as the oracle, and the former single-path engine too;
- every step runs the overflow guard: a state norm above ``OVERFLOW_GUARD``
  raises ``SimulationOverflow``.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientField
from .errors import DimensionMismatch, SimulationOverflow
from .levy import LevyModel
from .seeding import TAG_ENSEMBLE, TAG_PATH, rng_at

OVERFLOW_GUARD = 1e12
DEFAULT_CHUNK = 16384


@dataclass
class SdeModel:
    """Coefficient field, optional drift field, and driving Levy model."""

    coefficient: CoefficientField
    driver: LevyModel
    drift_coefficient: Optional[CoefficientField] = None
    name: str = "sde"

    def __post_init__(self):
        if self.coefficient.n != self.driver.dim:
            raise DimensionMismatch(
                f"coefficient maps to {self.coefficient.d}x{self.coefficient.n} "
                f"but driver has dimension {self.driver.dim}")
        if self.drift_coefficient is not None and self.drift_coefficient.d != self.coefficient.d:
            raise DimensionMismatch("drift coefficient dimension mismatch")

    @property
    def d(self) -> int:
        return self.coefficient.d

    def blocks(self):
        return [(self.coefficient, self.driver)]


@dataclass
class MultiDriverSpec:
    """Independent one-dimensional drivers with their coefficient columns."""

    drivers: Sequence[tuple]  # (CoefficientField with n=1, LevyModel with dim 1)

    def __post_init__(self):
        if not self.drivers:
            raise ValueError("driver list must be nonempty")
        for fld, drv in self.drivers:
            if drv.dim != 1 or fld.n != 1:
                raise DimensionMismatch("multi-driver variant requires one-dimensional drivers")

    @property
    def d(self) -> int:
        return self.drivers[0][0].d

    def blocks(self):
        return list(self.drivers)


@dataclass
class SamplePath:
    """One realization: grid, states, recorded jump effects, and the seed used."""

    times: np.ndarray           # (k+1,)
    states: np.ndarray          # (k+1, d)
    jumps: list                 # [(grid time, state-space jump (d,)), ...]
    seed: int

    @property
    def d(self) -> int:
        return self.states.shape[1]


# --------------------------------------------------------------------------
# single paths


def _simulate_one(blocks, drift_field, x0, horizon, step, seed):
    """One path of the ensemble step, generators ``rng_at(seed, TAG_PATH, j)``."""
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
    rngs = [rng_at(seed, TAG_PATH, j) for j in range(len(blocks))]
    jumps: list = []
    states = _step_dense(blocks, drift_field, x0, step, n_steps, 1, rngs, jumps)
    return SamplePath(times=times, states=states[:, 0], jumps=jumps, seed=int(seed))


def simulate_path(model: SdeModel, x0, horizon: float, step: float, seed: int) -> SamplePath:
    """Euler path of the SDE from x0 up to the horizon."""
    return _simulate_one(model.blocks(), model.drift_coefficient, x0, horizon, step, seed)


def simulate_multi(spec: MultiDriverSpec, x0, horizon: float, step: float, seed: int) -> SamplePath:
    """Euler path driven by independent one-dimensional drivers."""
    return _simulate_one(spec.blocks(), None, x0, horizon, step, seed)


def first_exit_time(path: SamplePath, center, radius: float):
    """First grid time with |X - center| > radius, or None if never."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dist = np.linalg.norm(path.states - center, axis=1)
    hits = np.nonzero(dist > radius)[0]
    if hits.size == 0:
        return None
    return float(path.times[hits[0]])


def stopped_path(path: SamplePath, center, radius: float) -> SamplePath:
    """Freeze the path at its first exit from the ball; jumps after exit are dropped."""
    tau = first_exit_time(path, center, radius)
    if tau is None:
        return path
    idx = int(np.searchsorted(path.times, tau))
    states = path.states.copy()
    states[idx + 1:] = states[idx]
    jumps = [(t, v) for t, v in path.jumps if t <= tau]
    return SamplePath(times=path.times.copy(), states=states, jumps=jumps, seed=path.seed)


# --------------------------------------------------------------------------
# vectorized ensembles


@dataclass
class EnsembleResult:
    terminal: np.ndarray            # (M, d) states of X^sigma at the horizon
    exited: np.ndarray              # (M,) bool
    running_max: Optional[np.ndarray] = None     # (n_records, M) |X-x0| running maxima
    record_steps: Optional[np.ndarray] = None


def _times(phi, v, out=None):
    """Rows of phi (k, d, n) applied to v (k, n): a product when n = 1, else einsum."""
    if phi.shape[2] == 1:
        return np.multiply(phi[:, :, 0], v, out=out)
    return np.einsum("kdn,kn->kd", phi, v, out=out)


def _row_norms(v):
    """|v| per row of (m, d) v, rounded as ``np.linalg.norm(v, axis=1)``; overwrites v."""
    np.multiply(v, v, out=v)
    sq = v[:, 0] if v.shape[1] == 1 else v.sum(axis=1)
    return np.sqrt(sq, out=sq)


def _advance_chunk(x, active, blocks, drift_field, dt, rngs, inc, tmp, record=None, t=0.0):
    """One Euler step of a chunk, updating the states x (m, d) in place.

    ``active`` is None while every path is active, else a bool mask; paths
    outside it stay frozen.  ``inc`` and ``tmp`` are (m, d) scratch arrays.
    ``record``, if given, is a list that receives (t, state-space effect) for
    every jump.
    """
    m = x.shape[0]
    steps = [drv.sample_step_ensemble(dt, m, rng) for (_, drv), rng in zip(blocks, rngs)]
    for j, ((fld, _), s) in enumerate(zip(blocks, steps)):
        if j == 0:
            _times(fld.many(x), s.smooth, out=inc)
            inc += 0.0          # the sum starts from 0, which turns -0.0 into +0.0
        else:
            inc += _times(fld.many(x), s.smooth, out=tmp)
    if drift_field is not None:
        inc += np.multiply(drift_field.many(x)[:, :, 0], dt, out=tmp)
    if active is None:
        x += inc
    else:
        np.add(x, inc, out=x, where=active[:, None])
    if any(s.jump_values.shape[0] for s in steps):
        _apply_jumps(x, active, blocks, steps, record, t)


def _apply_jumps(x, active, blocks, steps, record, t):
    """Apply one step's jumps; a path's jumps go one at a time, in position order.

    Each jump is applied with the coefficient at the running pre-jump state.
    Paths with a single jump are updated together, block by block.
    """
    counts = steps[0].jump_counts if len(steps) == 1 else sum(s.jump_counts for s in steps)
    jumpers = []                    # per block: paths with jumps, index of their first
    for (fld, _), s in zip(blocks, steps):
        ids = (s.jump_counts > 0).nonzero()[0]
        c = s.jump_counts[ids]
        first = np.cumsum(c) - c
        jumpers.append((ids, first))
        single = counts[ids] == 1
        if active is not None:
            single &= active[ids]
        if single.any():
            k = ids[single]
            effect = _times(fld.many(x[k]), s.jump_values[first[single]])
            x[k] += effect
            if record is not None:
                effect += 0.0   # recorded as fld(x) @ y rounds: -0.0 becomes +0.0
                record.extend((t, e) for e in effect)
    multi = np.unique(np.concatenate([ids[counts[ids] > 1] for ids, _ in jumpers]))
    if active is not None:
        multi = multi[active[multi]]
    for i in multi:
        tagged = []
        for j, (s, (ids, first)) in enumerate(zip(steps, jumpers)):
            k = np.searchsorted(ids, i)
            if k < ids.size and ids[k] == i:
                lo = first[k]
                tagged.extend((float(s.jump_positions[q]), j, s.jump_values[q])
                              for q in range(lo, lo + s.jump_counts[i]))
        tagged.sort(key=lambda item: (item[0], item[1]))
        xi = x[i]
        for _, j, vec in tagged:
            effect = blocks[j][0](xi) @ vec
            xi = xi + effect
            if record is not None:
                record.append((t, effect))
        x[i] = xi


def _check_overflow(x, active, k, n_steps):
    """Raise SimulationOverflow when an active path's state norm exceeds the guard.

    All paths are scanned: a frozen path passed this check when it exited and
    never holds NaN (NaN never exits), so it cannot change the verdict.
    """
    if x.shape[1] == 1:
        big = x.max() > OVERFLOW_GUARD or x.min() < -OVERFLOW_GUARD
    else:
        big = np.linalg.norm(x, axis=1).max() > OVERFLOW_GUARD
    if big:
        # the reported norm squares nothing, so a state beyond 1e154 reads finite
        live = x if active is None else x[active]
        norm = np.abs(live).max() if x.shape[1] == 1 else np.hypot.reduce(live, axis=1).max()
        raise SimulationOverflow(
            f"state norm {norm:.3e} exceeded {OVERFLOW_GUARD:.0e} at step {k + 1} of {n_steps}")


def _run_chunk(blocks, drift_field, x0, dt, n_steps, m, rngs,
               stop_center, stop_radius, record_steps):
    d = x0.shape[0]
    x = np.tile(x0, (m, 1))
    inc, tmp = np.empty((m, d)), np.empty((m, d))
    active = None                   # None until the first path exits
    maxdist = np.zeros(m)
    records = np.zeros((len(record_steps), m)) if len(record_steps) else None
    rec_pos = {int(s): i for i, s in enumerate(record_steps)}
    stop_at_x0 = stop_radius is not None and np.array_equal(stop_center, x0)
    for k in range(n_steps):
        _advance_chunk(x, active, blocks, drift_field, dt, rngs, inc, tmp)
        _check_overflow(x, active, k, n_steps)
        # a frozen path keeps its distances, so it needs no mask here: its
        # maximum already holds its distance, and it stays outside the ball
        dist = _row_norms(np.subtract(x, x0, out=inc))
        np.maximum(maxdist, dist, out=maxdist)
        if stop_radius is not None:
            dstop = dist if stop_at_x0 else _row_norms(np.subtract(x, stop_center, out=tmp))
            gone = dstop > stop_radius
            if gone.any():
                active = ~gone
        if records is not None and (k + 1) in rec_pos:
            records[rec_pos[k + 1]] = maxdist
    return x, np.zeros(m, dtype=bool) if active is None else ~active, records


def _check_sizes(n_steps, n_paths, chunk_size=1):
    for name, value in (("n_steps", n_steps), ("n_paths", n_paths), ("chunk_size", chunk_size)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def simulate_ensemble(blocks, drift_field, x0, horizon: float, n_steps: int,
                      n_paths: int, seed: int, *, base_key=(TAG_ENSEMBLE,),
                      stop_center=None, stop_radius=None,
                      record_max_steps: Sequence[int] = (),
                      chunk_size: int = DEFAULT_CHUNK, threads: int = 1) -> EnsembleResult:
    """Simulate ``n_paths`` independent Euler paths; terminal states of X^sigma.

    Paths are split into fixed-size chunks with per-chunk generators, so the
    result depends only on (seed, base_key), not on ``threads``.  Raises
    ValueError unless ``n_steps``, ``n_paths`` and ``chunk_size`` are >= 1.
    """
    _check_sizes(n_steps, n_paths, chunk_size)
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
    return EnsembleResult(terminal=terminal, exited=exited,
                          running_max=records, record_steps=record_steps)


def _step_dense(blocks, drift_field, x0, dt, n_steps, m, rngs, record=None):
    """All states of m paths from x0: array (n_steps+1, m, d).

    The jumps of step k go into ``record``, if given, at grid time (k+1) dt.
    """
    out = np.empty((n_steps + 1, m, x0.shape[0]))
    x = np.tile(x0, (m, 1))
    out[0] = x
    inc, tmp = np.empty_like(x), np.empty_like(x)
    for k in range(n_steps):
        _advance_chunk(x, None, blocks, drift_field, dt, rngs, inc, tmp, record, dt * (k + 1))
        _check_overflow(x, None, k, n_steps)
        out[k + 1] = x
    return out


def simulate_paths_dense(blocks, drift_field, x0, horizon: float, n_steps: int,
                         n_paths: int, seed: int, *, base_key=(TAG_ENSEMBLE,)) -> np.ndarray:
    """All intermediate states for a modest ensemble: array (n_steps+1, M, d).

    Raises ValueError unless ``n_steps`` and ``n_paths`` are >= 1, and
    SimulationOverflow when a state norm exceeds ``OVERFLOW_GUARD``.
    """
    _check_sizes(n_steps, n_paths)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    rngs = [rng_at(seed, *base_key, 0, j) for j in range(len(blocks))]
    return _step_dense(blocks, drift_field, x0, horizon / n_steps, n_steps, n_paths, rngs)


# --------------------------------------------------------------------------
# path export

_MAGIC = b"SYMK"
_VERSION = 1


def path_to_csv(path: SamplePath, fh) -> None:
    """Write t, x_1..x_d rows; floats use shortest round-trip repr."""
    d = path.d
    fh.write("t," + ",".join(f"x_{j + 1}" for j in range(d)) + "\n")
    for t, row in zip(path.times, path.states):
        fh.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def path_to_binary(path: SamplePath, fh) -> None:
    """Compact record: magic, version u32, d u32, length u64, then little-endian
    float64 times followed by states in C order."""
    fh.write(_MAGIC)
    fh.write(struct.pack("<IIQ", _VERSION, path.d, path.times.shape[0]))
    fh.write(path.times.astype("<f8").tobytes())
    fh.write(np.ascontiguousarray(path.states, dtype="<f8").tobytes())


def path_from_binary(fh) -> SamplePath:
    magic = fh.read(4)
    if magic != _MAGIC:
        raise ValueError("not a symbolkit path record")
    version, d, length = struct.unpack("<IIQ", fh.read(16))
    if version != _VERSION:
        raise ValueError(f"unsupported record version {version}")
    times = np.frombuffer(fh.read(8 * length), dtype="<f8").copy()
    states = np.frombuffer(fh.read(8 * length * d), dtype="<f8").reshape(length, d).copy()
    return SamplePath(times=times, states=states, jumps=[], seed=-1)
