"""Euler simulation of dX = Phi(X_-) dZ + Psi(X_-) dt.

Fixed-step scheme.  Within a step the smooth driver contribution (drift,
Gaussian, aggregate-stable, small-jump compensator) is applied with the
coefficient frozen at the step-start state; individually simulated
finite-activity jumps are then applied one at a time in the order of their
drawn positions, each with the coefficient evaluated at the running pre-jump
state.  That keeps the X_{t-} convention visible at jump times: for
dX = -X_- dN the first jump sends the path to zero and every later jump has
zero effect.  Jump times are snapped to the end of the step they fall in, so
every recorded jump sits on the grid.  Across paths the jumps go in rounds:
paths with one jump are updated together, and paths with several take their
r-th jump in round r, with one coefficient call per block and round.  The
batched product rounds as the point product ``fld(x) @ y`` would, so the
result is the path-by-path one bit for bit.

There is one stepping rule, on arrays of paths: the step's smooth update
(``_smooth_increment``) is added to the states, then its jumps are applied
(``_advance_chunk`` does both).  ``simulate_ensemble`` splits its paths into
chunks of ``DEFAULT_CHUNK`` and steps them in groups of ``GROUP_CHUNKS``
consecutive chunks, through ``ordered_map``, the package's one worker pool,
and keeps only the terminal states of X^sigma, sigma the first exit from a
ball around x0, and on request each path's max |X - x0| up to the horizon;
``simulate_paths_dense`` keeps every state, or
hands them to a sink a window of ``DENSE_WINDOW`` steps at a time;
``simulate_path`` and ``simulate_multi`` are a one-path dense run that also
records each jump as (grid time, state-space effect).  The engine keeps
these invariants:

- the chunk is the unit of random addressing and the group the unit of
  stepping: each chunk draws from its own generators the variates it would
  draw alone, and a group steps its chunks' paths as one state array, updated
  in place with no per-step copy, so that each step makes one smooth update,
  one jump pass and one stop test for all of them.  Every operation on the
  states acts row by row, so a path's states are the ones its chunk would
  reach stepped alone, bit for bit;
- a path that has left the stop ball is frozen: later steps still draw its
  variates but change neither its state nor its running maximum.  After
  each step of a group, the largest and smallest state of each coordinate
  (``_extremes``) bound every path's state norm and its distance from x0
  (``_reach``), so the overflow guard runs only when the first bound
  exceeds it, and when no maximum is recorded the stop test decides per
  group: no path is outside the ball when the second bound is at most the
  radius (a path that exited stays outside it).  Otherwise one distance
  |X - x0| per path and step serves both the stop test and the maximum;
  when neither is asked for, no distance is formed.  The guard and the
  screen decide per path: a NaN state neither raises nor hides another
  path's state from them, so a group raises at the first step at which one
  of its chunks would.  Only an overflow or an arithmetic error, which
  depend on the states reached, is stepped again chunk by chunk, so that it
  is the one the lowest failing chunk raises alone; any other error
  propagates as the group raised it;
- each chunk owns seed-derived generators addressed by (master seed, caller
  key, chunk index, block index), one per block.  A block draws a step's
  variates for the whole chunk in one call, in a fixed order; a block whose
  driver draws from at most one distribution per step, with n = 1
  (``LevyTriplet.blockable``), draws K steps in one call of K*m rows from the
  same stream (K*m <= ``BLOCK_ROWS``), which yields the same variates bit for
  bit.  A pure compound-Poisson driver with n = 1 (``LevyTriplet.jump_activity``)
  draws only Poisson counts on a step where no path jumps: it draws the counts
  of its next K = min(BLOCK_ROWS // m, floor(1 / (activity dt m))) steps,
  about one expected jump, rewinds the generator to its saved state, and then
  draws the steps before the first jump in one call and that step alone;
  K < ``MIN_LOOK_AHEAD`` draws step by step, and so does every chunk of a
  group of several, a partial one too, the same variates bit for bit.
  Output is therefore invariant under the worker count.  A single path uses
  the generators (master seed, ``TAG_PATH``, block index);
- the draws are handed on in runs, never sliced into a sample per step:
  ``_driver_steps`` yields a block draw's jump-free steps as one (r, m, n)
  array, and ``_step_samples``, the one step-draw helper, merges the blocks
  and chunks into segments, either such a run of every block, cut where the
  shortest ends, or the ``StepSample`` tuple of one step with simulated
  jumps, its chunks' jumps concatenated in chunk order.  A group's smooth
  draws are one array per block, reused from step to step: each chunk draws
  each step into its own rows of it (``levy.sample_step_ensemble``'s ``out``);
- the arithmetic rounds as the plain formulation does (a zeroed update
  summed block by block, then the drift; norms as ``np.linalg.norm``), so
  results are bit-identical to it.  ``tests/reference_engine.py`` keeps
  that formulation as the oracle, and the former single-path engine too.
  One helper, ``_smooth_increment``, forms every step's smooth update
  (from +0.0, field x draws block by block, then drift x dt): ``_advance_chunk``
  adds it in place and applies the step's jumps; a jump-free row of a dense
  run is out[k+1] = out[k] + its increment; and ``_apply_run`` forms a whole
  run's increments in one pass and adds them up along time with
  ``np.add.accumulate``, in the order of the per-step update, bit for bit,
  when the run's fields take the same values on every step: in a dense run
  whose coefficient and drift fields all declare ``lipschitz == 0.0``, and in
  one without a drift field whose draws for the run are all exactly zero (a
  pure compound-Poisson driver between its jumps), where each step adds +0.0
  and the state stands still;
- a block whose driver is pure jump (``jump_activity``), whose field
  declares a finite ``bound``, and whose draws for a step are all exactly
  zero is left out of that step's smooth update without evaluating the
  field: its term fld(x) * 0 is a zero, and a sum started from +0.0 is never
  -0.0, so adding it changes nothing.  The declared bound is trusted as
  ``lipschitz == 0.0`` is above, and a state is never infinite at a step's
  start, since the overflow guard raises first;
- every step runs the overflow guard, or in an ensemble a bound on it: a
  state norm above ``OVERFLOW_GUARD`` raises ``SimulationOverflow``, at the
  same step in a summed run.

A step, horizon or size out of range is refused before anything is stepped,
with a ``ConfigError`` (a ``ValueError``) whose ``field`` names the argument;
one path holds at most ``MAX_PATH_STEPS`` steps, and its times and states at
most ``MAX_PATH_BYTES`` bytes.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .coefficients import CoefficientField
from .errors import ConfigError, DimensionMismatch, SimulationOverflow
from . import levy
from .levy import LevyTriplet, StepSample
from .seeding import TAG_ENSEMBLE, TAG_PATH, rng_at

OVERFLOW_GUARD = 1e12
DEFAULT_CHUNK = 16384       # paths per chunk, the unit of random addressing
GROUP_CHUNKS = 2            # consecutive chunks an ensemble steps as one state array
BLOCK_ROWS = 4096           # rows per block draw: K steps of m paths, K*m <= BLOCK_ROWS
MIN_LOOK_AHEAD = 3          # a count look-ahead over fewer steps costs more than it saves
DENSE_WINDOW = 1024         # steps of states a dense run with a sink holds at once
MAX_PATH_STEPS = 1 << 32    # steps of one path; paths x steps of one ensemble, of one variation run
MAX_PATH_BYTES = 1 << 32    # one path's times and states, 8 (n + 1)(d + 1) bytes for n steps
_ZERO = np.zeros(())         # the +0.0 a smooth sum starts from
_ZERO.flags.writeable = False


@dataclass
class SdeModel:
    """Coefficient field, optional drift field, and driving Levy triplet."""

    coefficient: CoefficientField
    driver: LevyTriplet
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

    drivers: Sequence[tuple]  # (CoefficientField with n=1, LevyTriplet with dim 1)

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
    if not step > 0:                # NaN too
        raise ConfigError(f"step must be positive, got {step}", field="step")
    if horizon < step:
        raise ConfigError(f"horizon {horizon} shorter than one step {step}", field="horizon")
    if not math.isfinite(float(horizon) / float(step)):
        raise ConfigError(f"horizon {horizon} over step {step} is not a finite number of steps",
                          field="horizon")
    x0 = initial_state(x0, blocks[0][0].d)
    n_steps = int(np.ceil(horizon / step - 1e-12))
    if n_steps > MAX_PATH_STEPS:
        raise ConfigError(f"horizon {horizon} over step {step} is more than {MAX_PATH_STEPS} "
                          f"steps in one path", field="horizon")
    size = 8 * (n_steps + 1) * (x0.size + 1)
    if size > MAX_PATH_BYTES:
        raise ConfigError(f"horizon {horizon} over step {step} is {n_steps} steps, whose times "
                          f"and states take {size} bytes, more than the {MAX_PATH_BYTES} of "
                          f"one path", field="horizon")
    times = step * np.arange(n_steps + 1)
    rngs = [rng_at(seed, TAG_PATH, j) for j in range(len(blocks))]
    jumps: list = []
    states = _step_dense(blocks, drift_field, x0, step, n_steps, 1, rngs, jumps)
    return SamplePath(times=times, states=states[:, 0], jumps=jumps, seed=int(seed))


def initial_state(x0, d: int, key: str = "x0") -> np.ndarray:
    """x0 as a (d,) float array; another shape is a ConfigError naming ``key``, the
    caller's name for the start."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise ConfigError(f"{key} shape {x0.shape}, expected ({d},)", field=key)
    return x0


def simulate_path(model: SdeModel, x0, horizon: float, step: float, seed: int) -> SamplePath:
    """Euler path of the SDE from x0 up to the horizon."""
    return _simulate_one(model.blocks(), model.drift_coefficient, x0, horizon, step, seed)


def simulate_multi(spec: MultiDriverSpec, x0, horizon: float, step: float, seed: int) -> SamplePath:
    """Euler path driven by independent one-dimensional drivers."""
    return _simulate_one(spec.blocks(), None, x0, horizon, step, seed)


# --------------------------------------------------------------------------
# vectorized ensembles


@dataclass
class EnsembleResult:
    terminal: np.ndarray            # (M, d) states of X^sigma at the horizon
    exited: np.ndarray              # (M,) bool: left the stop ball around x0
    running_max: Optional[np.ndarray] = None     # (M,) max |X - x0| up to the horizon


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


def _driver_steps(driver, dt, n_steps, m, rng, out=None):
    """Yield the driver's draws for ``n_steps`` steps of m paths, as runs.

    A run is either an (r, m, n) array, the smooth draws of r steps none of
    which draws a simulated jump, or the ``StepSample`` of one step, drawn
    alone, that does.  A blockable driver (``LevyTriplet.blockable``) draws
    K = BLOCK_ROWS // m steps in one call of K*m rows, the same values, bit
    for bit, as K calls of m rows, and yields them as one run.  A driver with
    a ``jump_activity`` (pure compound Poisson) looks ahead at the Poisson
    counts of its next K steps, K = min(BLOCK_ROWS // m,
    floor(1 / (activity dt m))) (``_steps_before_jump``): the steps before
    the first that jumps are one call and one run, and that step is drawn
    alone.  Any other driver, a blockable one when K <= 1 and a look-ahead one
    when K < ``MIN_LOOK_AHEAD``, draws once per step, and so does every driver
    given ``out``, an (m, n) array that each step's smooth draws are formed
    in.  A run of several steps is formed in one K*m-row buffer, drawn into
    again for the next run: the caller is done with a run before it asks for
    the next (see ``_step_samples``).  The sampler is looked up in ``levy``
    at each call, so a wrapper put there sees every draw, once per path-step.
    """
    rate = driver.jump_activity
    k_block = BLOCK_ROWS // m if out is None and (driver.blockable or rate is not None) else 1
    if rate is not None and rate * dt * m * k_block > 1.0:
        k_block = int(1.0 / (rate * dt * m))
    if rate is not None and k_block < MIN_LOOK_AHEAD:
        k_block = 1
    if k_block <= 1:
        for _ in range(n_steps):
            s = levy.sample_step_ensemble(driver, dt, m, rng, out)
            yield s if s.jump_values.shape[0] else s.smooth[None]
        return
    k0 = 0
    buf = np.empty((k_block * m, driver.dim))
    while k0 < n_steps:
        k = min(k_block, n_steps - k0)
        j = k if rate is None else _steps_before_jump(rng, rate, dt, k, m)
        if j:
            yield levy.sample_step_ensemble(driver, dt, j * m, rng,
                                            buf[:j * m]).smooth.reshape(j, m, -1)
        if j < k:
            yield levy.sample_step_ensemble(driver, dt, m, rng)
        k0 += min(j + 1, k)


def _steps_before_jump(rng, rate, dt, k, m):
    """How many of the next k steps of m paths draw no jump; leaves ``rng`` as it was.

    Draws the k steps' counts as their own draws would (``levy.poisson_counts``,
    the first draw of a step without a Gaussian part), then restores the
    generator's state.
    """
    bits = rng.bit_generator
    saved = bits.state
    hits = np.flatnonzero(levy.poisson_counts(rng, rate, dt, k * m))
    bits.state = saved
    return int(hits[0]) // m if hits.size else k


def _step_samples(blocks, dt, n_steps, chunks):
    """The one step-draw helper: the draws of ``n_steps`` steps as (smooth, steps) segments.

    ``chunks`` holds (m, rngs) for each chunk of the states, in row order,
    with one generator per block; each chunk and block draws alone
    (``_driver_steps``).  ``smooth`` holds each block's (r, M, n_j) smooth
    draws of r steps, M the paths of all chunks.  ``steps`` is None when none
    of these steps draws a simulated jump, and otherwise r = 1 and ``steps``
    holds each block's ``StepSample`` of the step.  With several blocks, a
    segment of jump-free steps ends where the shortest of their runs ends,
    and a jump-free row joins a step with jumps as a ``StepSample`` without
    jumps.  Several chunks draw each step alone into their rows of one (M,
    n_j) array per block, so r = 1; a group's sample holds that array and its
    chunks' jump counts, values and positions concatenated in chunk order, so
    each path's jumps stay grouped by path in order.  These arrays and the
    counts are reused from step to step: the caller is done with a segment
    before it asks for the next.
    """
    nb, group = len(blocks), len(chunks) > 1
    ends = list(accumulate(m for m, _ in chunks))
    # one array per block, drawn into step after step: in a fresh process a new array of
    # 2^15 rows costs 64 page faults
    bufs = [np.empty((ends[-1], drv.dim)) for _, drv in blocks] if group else [None] * nb
    counts = [np.empty(ends[-1], np.int64) for _ in blocks] if group else None
    runs = [_driver_steps(drv, dt, n_steps, m, rng, buf if buf is None else buf[hi - m:hi])
            for (m, rngs), hi in zip(chunks, ends)
            for (_, drv), rng, buf in zip(blocks, rngs, bufs)]   # run c * nb + j: chunk c, block j
    if len(runs) == 1:              # nothing to merge
        for run in runs[0]:
            yield ((run,), None) if type(run) is np.ndarray else ((run.smooth[None],), (run,))
        return
    heads = [None] * len(runs)      # per run, the draws not yet handed out
    k = 0
    while k < n_steps:
        heads = [next(run) if head is None else head for head, run in zip(heads, runs)]
        jumps = not all(type(head) is np.ndarray for head in heads)
        r = 1 if jumps else min(len(head) for head in heads)
        smooth = (tuple(buf[None] for buf in bufs) if group else
                  tuple(h[:r] if type(h) is np.ndarray else h.smooth[None] for h in heads))
        steps = None
        if jumps:
            parts = [head if type(head) is StepSample else StepSample(
                smooth=head[0], jump_counts=levy.no_jumps(head.shape[1]),
                jump_values=np.empty((0, head.shape[2])), jump_positions=np.empty(0))
                for head in heads]
            steps = (tuple(_joined(parts[j::nb], bufs[j], counts[j]) for j in range(nb))
                     if group else tuple(parts))
        yield smooth, steps
        heads = [head[r:] if type(head) is np.ndarray and len(head) > r else None
                 for head in heads]
        k += r


def _joined(parts, smooth, counts):
    """One block's ``StepSample``s of consecutive chunks as one, with the group's smooth
    draws ``smooth`` and the jump fields concatenated, the counts into ``counts``."""
    return StepSample(smooth=smooth,
                      jump_counts=np.concatenate([s.jump_counts for s in parts], out=counts),
                      jump_values=np.concatenate([s.jump_values for s in parts]),
                      jump_positions=np.concatenate([s.jump_positions for s in parts]))


def _smooth_increment(x, blocks, drift_field, dt, rows, inc, scratch):
    """The smooth part of one Euler step at the states x, in ``inc`` or ``scratch[1]``.

    ``rows`` holds each block's smooth draws, an array of one row per state.
    The sum starts from +0.0 and adds field x draws block by block, then
    drift x dt.
    A block is left out when its driver is pure jump (``jump_activity``), its
    field declares a finite ``bound`` and its draws are all exactly zero: its
    term fld(x) * 0 is then a zero, which leaves a sum that started from +0.0
    as it is, so the field is not evaluated.  ``scratch`` is a pair of arrays
    like ``inc``, or None to allocate them.  The partial sums go to ``inc``
    and ``scratch[1]`` in turn, so that no operation writes to one of its own
    inputs (on a few rows numpy's overlap handling costs more than the
    arithmetic), and the array that holds the last one is returned, or the
    0-d +0.0 when no term was added (it broadcasts as a zeroed update would,
    at one call less).
    """
    prod, spare = (np.empty_like(inc), np.empty_like(inc)) if scratch is None else scratch
    acc, total = inc, _ZERO
    for (fld, drv), v in zip(blocks, rows):
        if drv.jump_activity is not None and fld.bound < math.inf and not np.count_nonzero(v):
            continue
        phi = fld.many(x)
        # _times inline: a one-path step is a few microseconds, and a call more shows
        if phi.shape[2] == 1:
            np.multiply(phi[..., 0], v, out=prod)
        else:
            np.einsum("kdn,kn->kd", phi, v, out=prod)
        total = np.add(total, prod, out=acc)
        acc = spare if acc is inc else inc
    if drift_field is not None:
        total = np.add(total, np.multiply(drift_field.many(x)[..., 0], dt, out=prod), out=acc)
    return total


def _advance_chunk(x, active, blocks, drift_field, dt, rows, inc, scratch, steps,
                   record=None, t=0.0):
    """One Euler step of a chunk, updating the states x (m, d) in place.

    ``rows`` holds each block's smooth draws for this step (see
    ``_smooth_increment``), and ``steps`` each block's ``StepSample`` when
    the step draws simulated jumps, else None.  ``active`` is None while every path is active, else a
    bool mask; paths outside it stay frozen.  ``inc`` is an (m, d) array and
    ``scratch`` a pair of them.  ``record``, if given, is a list that
    receives (t, state-space effect) for every jump.
    """
    inc = _smooth_increment(x, blocks, drift_field, dt, rows, inc, scratch)
    if active is None:
        x += inc
    else:
        np.add(x, inc, out=x, where=active[:, None])
    if steps is not None:
        _apply_jumps(x, active, blocks, steps, record, t)


def _apply_jumps(x, active, blocks, steps, record, t):
    """Apply one step's jumps; a path's jumps go one at a time, in position order.

    Each jump is applied with the coefficient at the running pre-jump state.
    Paths with a single jump are updated together, block by block.  Paths
    with several jumps go in rounds: round r applies the r-th jump, in the
    order (position, block, draw), of every such path, with one ``many``
    call per block.  Its effect is the batched ``np.matmul`` of phi and the
    jump column, which rounds as the point product ``fld(x) @ y`` does: the
    sum starts from +0.0 when n = 1 and adds the n products in the same
    order when n > 1 (``einsum`` does not).
    """
    counts = None if len(steps) == 1 else sum(s.jump_counts for s in steps)
    path, pos, blk, row = [], [], [], []     # every jump of the multi-jump paths
    for j, ((fld, _), s) in enumerate(zip(blocks, steps)):
        ids = (s.jump_counts > 0).nonzero()[0]
        c = s.jump_counts[ids]
        first = np.cumsum(c) - c
        total = c if counts is None else counts[ids]    # the path's jumps in every block
        single, sel = total == 1, total > 1
        if active is not None:
            single &= active[ids]
            sel &= active[ids]
        if single.any():
            k = ids[single]
            effect = _times(fld.many(x[k]), s.jump_values[first[single]])
            x[k] += effect
            if record is not None:
                effect += 0.0   # recorded as fld(x) @ y rounds: -0.0 becomes +0.0
                record.extend((t, e) for e in effect)
        if sel.any():
            c = c[sel]
            q = np.arange(c.sum()) + np.repeat(first[sel] - (np.cumsum(c) - c), c)
            path.append(np.repeat(ids[sel], c))
            pos.append(s.jump_positions[q])
            blk.append(np.full(q.size, j))
            row.append(q)
    if not path:
        return
    path, pos, blk, row = map(np.concatenate, (path, pos, blk, row))
    order = np.lexsort((blk, pos, path))         # stable: a tie keeps the draw order
    path, blk, row = path[order], blk[order], row[order]
    starts = np.flatnonzero(np.diff(path, prepend=-1))
    rank = np.arange(path.size) - np.repeat(starts, np.diff(starts, append=path.size))
    for r in range(rank.max() + 1):
        now = rank == r
        for j, ((fld, _), s) in enumerate(zip(blocks, steps)):
            sel = now & (blk == j)
            if not sel.any():
                continue
            k = path[sel]
            effect = np.matmul(fld.many(x[k]), s.jump_values[row[sel], :, None])[:, :, 0]
            x[k] += effect
            if record is not None:
                record.extend((t, e) for e in effect)


def _check_overflow(x, active, k, n_steps):
    """Raise SimulationOverflow when an active path's state norm exceeds the guard.

    Each path decides alone: the reductions ignore NaN (``np.fmax``), so a
    NaN path neither raises nor hides another path's overflow.  All paths are
    scanned: a frozen path passed this check when it exited, so it cannot
    change the verdict.
    """
    if x.size == 1:
        v = x.item()                # a Python float decides as the array would, NaN too
        big = v > OVERFLOW_GUARD or v < -OVERFLOW_GUARD
    elif x.shape[1] == 1:
        # one reduction of |x|, as max > guard or min < -guard decides
        big = np.fmax.reduce(np.abs(x), axis=None) > OVERFLOW_GUARD
    else:
        # a square beyond the float range is inf, which exceeds the guard all the same
        with np.errstate(over="ignore"):
            big = np.fmax.reduce(np.linalg.norm(x, axis=1)) > OVERFLOW_GUARD
    if big:
        # the reported norm squares nothing, so a state beyond 1e154 reads finite
        live = x if active is None else x[active]
        norm = np.fmax.reduce(np.abs(live) if x.shape[1] == 1 else np.hypot.reduce(live, axis=1),
                              axis=None)
        raise SimulationOverflow(
            f"state norm {norm:.3e} exceeded {OVERFLOW_GUARD:.0e} at step {k + 1} of {n_steps}")


def _extremes(x):
    """[(max, min)] of each coordinate of the states x (m, d), as Python floats.

    NaN states are ignored, as by ``np.fmax``; a column of NaN only gives
    (NaN, NaN).  One reduction per column: numpy's axis-0 reduction of a
    C-ordered (m, d) array with d > 1 takes ten times as long as d strided
    ones.  The reductions are numpy's max and min, and only a column whose
    max is NaN is reduced again with ``np.fmax``/``np.fmin``, which take three
    times as long on a strided column.
    """
    out = []
    for v in x.T:
        hi, lo = float(v.max()), float(v.min())
        if hi != hi:                # a NaN state: the other states decide
            hi, lo = float(np.fmax.reduce(v)), float(np.fmin.reduce(v))
        out.append((hi, lo))
    return out


def _reach(extremes, x0):
    """A bound on every path's distance |X - x0| from each coordinate's (max, min).

    max(fl(hi - x0), fl(x0 - lo)) is the largest |fl(x - x0)| of a coordinate,
    as rounding is monotone.  The squares are summed in order and the root
    taken, as ``_row_norms`` rounds a row of d < 8 entries; a relative margin
    of d 2^-52 covers numpy's pairwise sum of 8 entries or more.  A NaN state
    is left out, as ``_extremes`` leaves it: its distance is NaN, which never
    exits the ball.  A column of NaN gives NaN.
    """
    total = 0.0
    for (hi, lo), a in zip(extremes, x0):
        e = max(hi - a, a - lo)
        total += e * e
    return math.sqrt(total) * (1.0 + len(x0) * 2.0 ** -52)


def _run_group(blocks, drift_field, x0, dt, n_steps, chunks, stop_radius, record_max,
               out=None):
    """Step consecutive chunks' paths as one state array; (terminal, exited, maxima).

    ``chunks`` holds (m, rngs) per chunk, in row order, with one generator
    per block (see ``_step_samples``).  The states are stepped in ``out``, an
    (M, d) array such as the group's rows of the ensemble's result, or in a
    new array.
    """
    d, m = x0.shape[0], sum(size for size, _ in chunks)
    x = np.empty((m, d)) if out is None else out
    x[...] = x0
    inc, scratch = np.empty((m, d)), (np.empty((m, d)), np.empty((m, d)))
    active = None                   # None until the first path exits
    maxdist = np.zeros(m) if record_max else None
    start, guard = x0.tolist(), OVERFLOW_GUARD / d
    segments = _step_samples(blocks, dt, n_steps, chunks)
    for k, (rows, steps) in enumerate((rows, steps) for smooth, steps in segments
                                      for rows in zip(*smooth)):
        _advance_chunk(x, active, blocks, drift_field, dt, rows, inc, scratch, steps)
        extremes = _extremes(x)
        # d max |x_c| is at least every row norm and decides as the guard does in d = 1
        if any(hi > guard or lo < -guard for hi, lo in extremes):
            _check_overflow(x, active, k, n_steps)
        if stop_radius is None and maxdist is None:
            continue
        # no path is outside the ball, so none left it at this step and none before
        if maxdist is None and _reach(extremes, start) <= stop_radius:
            continue
        # a frozen path keeps its distance, so it needs no mask here: its
        # maximum already holds it, and it stays outside the ball
        dist = _row_norms(np.subtract(x, x0, out=inc))
        if maxdist is not None:
            np.maximum(maxdist, dist, out=maxdist)
        if stop_radius is not None:
            gone = dist > stop_radius
            if gone.any():
                active = ~gone
    return x, np.zeros(m, dtype=bool) if active is None else ~active, maxdist


def _ensemble_start(blocks, x0, n_steps, n_paths) -> np.ndarray:
    """x0 as a (d,) float array, after the checks of both ensembles (see simulate_ensemble)."""
    for name, value in (("n_steps", n_steps), ("n_paths", n_paths)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}", field=name)
    check_ensemble_size(int(n_paths), int(n_steps), "n_paths", "n_steps")
    x0, d = np.atleast_1d(np.asarray(x0, dtype=float)), blocks[0][0].d
    if x0.shape != (d,):
        raise DimensionMismatch(f"x0 shape {x0.shape}, expected ({d},)")
    return x0


def check_ensemble_size(paths: int, steps: int, paths_key: str, steps_key: str) -> None:
    """Refuse one ensemble of ``paths`` x ``steps`` past ``MAX_PATH_STEPS`` path-steps, naming
    ``steps_key`` when the steps alone exceed it, else ``paths_key`` (the caller's names)."""
    if paths * steps > MAX_PATH_STEPS:
        raise ConfigError(f"{paths_key} x {steps_key} exceeds {MAX_PATH_STEPS} path-steps "
                          f"in one ensemble",
                          field=steps_key if steps > MAX_PATH_STEPS else paths_key)


def ordered_map(fn: Callable, tasks: Iterable, threads: int = 1):
    """Yield fn(task) for each task, in task order, on up to ``threads`` workers.

    At threads <= 1 each task runs inline when its result is asked for.
    Otherwise a pool of ``threads`` workers keeps 2 * threads tasks submitted
    ahead of the result being handed out: as each result is taken, the
    calling thread pulls the next task from ``tasks`` and submits it, so at
    most 2 * threads + 1 results are held at once.
    The first task to raise in task order raises at its turn.  Close the
    generator when done (``contextlib.closing``): on a raise, or when the
    consumer stops early, the pending tasks are cancelled and the pool is
    joined before the error propagates, so no worker outlives the call.
    """
    if threads <= 1:
        for task in tasks:
            yield fn(task)
        return
    from concurrent import futures      # a one-thread run never loads it

    tasks = iter(tasks)
    pool = futures.ThreadPoolExecutor(max_workers=threads)
    try:
        pending = deque(pool.submit(fn, task) for task in islice(tasks, 2 * threads))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, task) for task in islice(tasks, 1))
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def simulate_ensemble(blocks, drift_field, x0, horizon: float, n_steps: int,
                      n_paths: int, seed: int, *, base_key=(TAG_ENSEMBLE,),
                      stop_radius=None, record_max: bool = False,
                      threads: int = 1) -> EnsembleResult:
    """Simulate ``n_paths`` independent Euler paths; terminal states of X^sigma.

    sigma is the first exit from the ball of radius ``stop_radius`` around
    x0 (no stopping when it is None); ``record_max`` also returns each path's
    max |X - x0| up to the horizon.  Paths are split into chunks of
    ``DEFAULT_CHUNK``, chunk c with the generators ``rng_at(seed, *base_key,
    c, j)``, one per block j, and groups of ``GROUP_CHUNKS`` consecutive
    chunks are stepped through ``ordered_map``, each as one state array, so
    the result depends only on (seed, base_key), not on ``threads``, and is
    the chunk-by-chunk run's bit for bit.  A group that raises
    ``SimulationOverflow`` or an ``ArithmeticError`` is stepped again one
    chunk at a time, so the error raised is the chunk-by-chunk run's: that of
    its lowest chunk that raises alone.  Any other error propagates as the
    group raised it.
    Raises ConfigError unless ``n_steps`` and ``n_paths`` are >= 1 and
    ``n_paths`` x ``n_steps`` is at most ``MAX_PATH_STEPS``, and
    DimensionMismatch unless x0 has shape (d,), both before any step.
    """
    x0 = _ensemble_start(blocks, x0, n_steps, n_paths)
    dt = horizon / n_steps
    bounds = range(0, n_paths + DEFAULT_CHUNK, DEFAULT_CHUNK)
    chunks = [(c, lo, min(hi, n_paths)) for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]
    groups = [chunks[i:i + GROUP_CHUNKS] for i in range(0, len(chunks), GROUP_CHUNKS)]
    terminal = np.empty((n_paths, len(x0)))
    exited = np.empty(n_paths, dtype=bool)
    running_max = np.empty(n_paths) if record_max else None

    def run(group):             # each group writes its own rows of the result
        lo, hi = group[0][1], group[-1][2]
        _, ex, mx = _run_group(
            blocks, drift_field, x0, dt, n_steps,
            [(b - a, [rng_at(seed, *base_key, c, j) for j in range(len(blocks))])
             for c, a, b in group], stop_radius, record_max, out=terminal[lo:hi])
        exited[lo:hi] = ex
        if record_max:
            running_max[lo:hi] = mx

    def work(group):
        try:
            return run(group)
        except (SimulationOverflow, ArithmeticError):
            if len(group) == 1:
                raise
        # such an error depends on the states reached, and the chunk-by-chunk run meets
        # the first one of the lowest chunk that raises; any other error is the group's
        for chunk in group:
            run([chunk])

    with closing(ordered_map(work, groups, threads if len(groups) > 1 else 1)) as results:
        for _ in results:
            pass
    return EnsembleResult(terminal=terminal, exited=exited, running_max=running_max)


def _step_dense(blocks, drift_field, x0, dt, n_steps, m, rngs, record=None, sink=None):
    """All states of m paths from x0: array (n_steps+1, m, d), or windows of it to ``sink``.

    The jumps of step k go into ``record``, if given, at grid time (k+1) dt.
    A step with jumps goes through ``_advance_chunk``; a jump-free step is
    out[k+1] = out[k] + its smooth increment.  ``_apply_run`` applies a
    segment of several jump-free steps at once when every field is constant
    (declares ``lipschitz == 0.0``), or when there is no drift field and every
    block's draws for the segment are exactly zero, as a pure compound-Poisson
    driver's are between its jumps: each step then adds fld(x) * 0 + 0.0,
    which is +0.0 at a finite field value and NaN at any other, so the path
    stands still and each field sees the same state on every step.

    With a ``sink``, only a window of ``DENSE_WINDOW`` steps is held: when it
    is full, and once more after the last step, ``sink`` receives the
    (w+1, m, d) states of the window, whose first row is the last state of
    the window before (x0 for the first), and the last state is carried over
    as the next window's first row.  A segment that runs past the end of a
    window is applied in pieces, each piece as the whole segment would be.
    The windows are views of one buffer, valid only during the call, and
    ``_step_dense`` returns None.
    """
    held = n_steps if sink is None else min(n_steps, DENSE_WINDOW)
    out = np.empty((held + 1, m, x0.shape[0]))
    out[0] = x0
    inc, scratch = np.empty_like(out[0]), (np.empty_like(out[0]), np.empty_like(out[0]))
    fields = [fld for fld, _ in blocks] + ([] if drift_field is None else [drift_field])
    constant = all(fld.lipschitz == 0.0 for fld in fields)
    k = 0                           # the first step not yet applied
    i = 0                           # its row in out, less one
    for smooth, steps in _step_samples(blocks, dt, n_steps, [(m, rngs)]):
        run = len(smooth[0]) > 1 and (constant or drift_field is None
                                      and not any(v.any() for v in smooth))
        lo = 0                      # the first step of the segment not yet applied
        while lo < len(smooth[0]):
            if i == held:           # the window is full: hand it on, keep its last state
                sink(out)
                out[0] = out[held]
                i = 0
            r = min(len(smooth[0]) - lo, held - i)
            if steps is not None:
                x = out[i + 1]
                x[...] = out[i]
                _advance_chunk(x, None, blocks, drift_field, dt, [s.smooth for s in steps],
                               inc, scratch, steps, record, dt * (k + 1))
                _check_overflow(x, None, k, n_steps)
            elif run and r > 1:
                _apply_run(blocks, drift_field, dt, [v[lo:lo + r] for v in smooth],
                           out[i:i + r + 1], k, n_steps)
            else:
                states = out[i:i + r + 1]
                for x, x_next, rows, j in zip(states, states[1:],
                                              zip(*(v[lo:lo + r] for v in smooth)),
                                              range(k, k + r)):
                    np.add(x, _smooth_increment(x, blocks, drift_field, dt, rows, inc, scratch),
                           out=x_next)
                    _check_overflow(x_next, None, j, n_steps)
            lo, i, k = lo + r, i + r, k + r
    if sink is None:
        return out
    sink(out[:i + 1])
    return None


def _apply_run(blocks, drift_field, dt, smooth, seg, lo, n_steps):
    """Apply the jump-free steps lo, ..., lo+r-1 to the states ``seg`` at once.

    ``_step_dense`` calls it for constant fields, and for all-zero draws
    without a drift field, where the states stand still.  ``smooth`` holds
    each block's (r, m, n) draws of these steps, and ``seg`` is the (r+1, m, d)
    view of the dense states whose first row is the state before step lo.
    Each field is evaluated on one row per (step, path), all at the state
    seg[0], except that a -0.0 there is +0.0 from the second step on, as the
    per-step update leaves it (a field may be finite at one and not at the
    other); the increments are formed by ``_smooth_increment`` into seg[1:],
    and ``np.add.accumulate`` adds them up along time, in the order of the
    per-step ``x += inc``, so the states are the per-step ones bit for bit.
    The overflow guard then runs on the first state it could reject, so
    ``SimulationOverflow`` names the same step.
    """
    r, (m, d) = len(smooth[0]), seg.shape[1:]
    inc = seg[1:].reshape(r * m, d)             # a view: seg is C-contiguous
    rows = np.broadcast_to(seg[0], (r, m, d))
    if (np.signbit(seg[0]) & (seg[0] == 0.0)).any():
        rows = np.concatenate([seg[:1], np.broadcast_to(seg[0] + 0.0, (r - 1, m, d))])
    rows = rows.reshape(r * m, d)
    total = _smooth_increment(rows, blocks, drift_field, dt,
                              [v.reshape(r * m, v.shape[2]) for v in smooth], inc, None)
    if total is not inc:
        inc[...] = total
    with np.errstate(over="ignore", invalid="ignore"):
        # past an overflow the sum runs on; the check below raises at its first step
        np.add.accumulate(seg, axis=0, out=seg)
        peak = np.abs(seg[1:]).max(axis=(1, 2)) * d      # at least the largest row norm
    for k in np.flatnonzero(~(peak <= OVERFLOW_GUARD)):  # NaN rows too: the guard decides
        _check_overflow(seg[k + 1], None, lo + k, n_steps)


def simulate_paths_dense(blocks, drift_field, x0, horizon: float, n_steps: int,
                         n_paths: int, seed: int, *, base_key=(TAG_ENSEMBLE,),
                         sink=None) -> Optional[np.ndarray]:
    """All intermediate states for a modest ensemble: array (n_steps+1, M, d).

    With a ``sink``, the same states go to it instead, in overlapping windows
    of ``DENSE_WINDOW`` steps (see ``_step_dense``), and None is returned.
    Raises ConfigError and DimensionMismatch before any step as
    ``simulate_ensemble`` does, and SimulationOverflow when a state norm
    exceeds ``OVERFLOW_GUARD``.
    """
    x0 = _ensemble_start(blocks, x0, n_steps, n_paths)
    rngs = [rng_at(seed, *base_key, 0, j) for j in range(len(blocks))]
    return _step_dense(blocks, drift_field, x0, horizon / n_steps, n_steps, n_paths, rngs,
                       sink=sink)


# --------------------------------------------------------------------------
# path export

_MAGIC = b"SYMK"
_VERSION = 1


def path_to_binary(path: SamplePath, fh) -> None:
    """Compact record: magic, version u32, d u32, length u64, then little-endian
    float64 times followed by states in C order."""
    fh.write(_MAGIC)
    fh.write(struct.pack("<IIQ", _VERSION, path.d, path.times.shape[0]))
    fh.write(path.times.astype("<f8").tobytes())
    fh.write(np.ascontiguousarray(path.states, dtype="<f8").tobytes())


def path_from_binary(fh) -> SamplePath:
    """Read one ``path_to_binary`` record, which must fill the rest of ``fh``.

    Raises ValueError on a wrong magic or version, and on a header or body
    cut short or followed by further bytes, naming the expected and actual
    byte counts.
    """
    magic = fh.read(4)
    if magic != _MAGIC:
        raise ValueError("not a symbolkit path record")
    head = fh.read(16)
    if len(head) != 16:
        raise ValueError(f"path record header cut short: expected 20 bytes, got {4 + len(head)}")
    version, d, length = struct.unpack("<IIQ", head)
    if version != _VERSION:
        raise ValueError(f"unsupported record version {version}")
    body = fh.read()
    if len(body) != 8 * length * (d + 1):
        raise ValueError(f"path record of length {length} and d = {d}: expected "
                         f"{20 + 8 * length * (d + 1)} bytes, got {20 + len(body)}")
    values = np.frombuffer(body, dtype="<f8")
    times = values[:length].copy()
    states = values[length:].reshape(length, d).copy()
    return SamplePath(times=times, states=states, jumps=[], seed=-1)
