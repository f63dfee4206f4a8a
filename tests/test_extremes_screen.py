"""The ensemble step's stop test and overflow guard, decided from each coordinate's extremes.

``sde._run_group`` takes each coordinate's largest and smallest state after a
step and forms the per-path distances only when the bound they give exceeds the
stop radius (as it does once a path has exited) or maxima are recorded; it runs
the full overflow guard only when a coordinate reaches ``OVERFLOW_GUARD / d``.
Both ignore NaN states, so each path decides alone.  These tests hold it to the
per-path formulation: on scripted chunks whose states hypothesis picks (NaN,
+-0, states exactly at the radius, radii of 1e-200 and 1e200, states past the
guard, paths frozen by an earlier exit, d up to 3), to ``_per_path`` below, and
on real ensembles, the planar d = 2 model among them, to
``tests/reference_engine.py``.  The reference guards the active paths only; the
package guards every path, as a frozen path passed the guard when it exited.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as ref
import symbolkit as sk
from symbolkit import catalog, coefficients as co, sde
from symbolkit.sde import OVERFLOW_GUARD, simulate_ensemble
from test_engine_reference import CASES, _assert_same_ensemble, _blocks, _same_bits

RADII = [1e-200, 1e-161, 0.25, 1.0, 1.5, 1e200]
# states: the radii about a start of 0.0 or 0.5, exactly, signed zeros, NaN, subnormal
# squares, and states past the guard
STATES = [0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 1.0, -1.0, 1.5, -1.5, 0.75, 1.75,
          1e-200, -1e-200, 1e-161, 2e12, -2e12, 0.9e12, 1e200, np.inf, -np.inf, np.nan]


def _scripted(states):
    """``sde._advance_chunk`` setting the active paths to the next scripted states."""
    script = iter(states)

    def advance(x, active, *args, **kwargs):
        nxt = next(script)
        if active is None:
            x[...] = nxt
        else:
            x[active] = nxt[active]

    return advance


def _per_path(states, x0, radius, record_max):
    """The stop test and guard path by path: each step sets the active paths to the next
    scripted states, then every path's norm and distance from x0 are formed."""
    x = np.tile(x0, (states[0].shape[0], 1))
    active = np.ones(len(x), dtype=bool)
    maxdist = np.zeros(len(x))
    for k, nxt in enumerate(states):
        x[active] = nxt[active]
        norm = np.fmax.reduce(np.linalg.norm(x, axis=1))     # a NaN norm decides nothing
        if norm > OVERFLOW_GUARD:
            raise sk.SimulationOverflow(f"state norm {norm} at step {k + 1} of {len(states)}")
        dist = np.linalg.norm(x - x0, axis=1)
        maxdist = np.maximum(maxdist, dist)
        if radius is not None:
            active &= ~(dist > radius)
    return x, ~active, maxdist if record_max else None


def _outcome(run):
    """run()'s arrays, or the step at which it raised SimulationOverflow."""
    try:
        return run()
    except sk.SimulationOverflow as exc:
        return int(re.search(r"at step (\d+) of", str(exc)).group(1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.sampled_from([0.0, -0.0, 0.5]).map(lambda a: np.full(d, a)),
    st.integers(1, 4).flatmap(lambda k: st.integers(1, 9).flatmap(lambda m: st.lists(
        st.lists(st.lists(st.sampled_from(STATES), min_size=d, max_size=d),
                 min_size=m, max_size=m), min_size=k, max_size=k))),
    st.none() | st.sampled_from(RADII), st.booleans())))
def test_screen_decides_as_the_per_path_code(case):
    x0, script, radius, record_max = case
    states = [np.array(step, dtype=float) for step in script]
    n_steps, (m, d) = len(states), states[0].shape
    model = sk.SdeModel(coefficient=co.constant(1.0), driver=catalog.bm_driver())
    blocks = model.blocks() if d == 1 else [(sk.CoefficientField(
        batch_fn=lambda xs: np.ones((len(xs), d, 1)), d=d, n=1, bound=1.0, lipschitz=0.0),
        catalog.bm_driver())]
    rngs = [sk.seeding.rng_at(1, 0)]
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(sde, "_advance_chunk", _scripted(states))
        got = _outcome(lambda: sde._run_group(blocks, None, x0, 0.1, n_steps, [(m, rngs)],
                                              radius, record_max))
        want = _outcome(lambda: _per_path(states, x0, radius, record_max))
    assert type(got) is type(want)
    if isinstance(want, int):
        assert got == want
    else:
        assert all(_same_bits(g, w) for g, w in zip(got, want))


def test_scripted_chunks_reach_each_branch(monkeypatch):
    # one path at the radius stays, one beyond it exits and is frozen; a NaN stays
    x0, radius = np.zeros(1), 1.0
    states = [np.array([[1.0], [0.5], [np.nan]]), np.array([[1.0], [1.5], [np.nan]]),
              np.array([[0.25], [0.5], [np.nan]])]
    monkeypatch.setattr(sde, "_advance_chunk", _scripted(states))
    rngs = [sk.seeding.rng_at(1, 0)]
    x, exited, _ = sde._run_group(catalog.bm_unit().blocks(), None, x0, 0.1, 3, [(3, rngs)],
                                  radius, False)
    assert exited.tolist() == [False, True, False]
    assert x[:2, 0].tolist() == [0.25, 1.5] and np.isnan(x[2, 0])


def test_nan_path_does_not_hide_an_overflow_in_its_step(monkeypatch):
    # d = 2, rows [0, 2e12] and [0, NaN] at step 1: the first row raises at step 1.
    # A NaN-propagating guard let it pass and exit the tiny ball, frozen at 2e12,
    # and then raised on the frozen row at step 2
    x0 = np.zeros(2)
    states = [np.array([[0.0, 2e12], [0.0, np.nan]]), np.array([[0.0, 0.0], [0.0, np.nan]])]
    blocks = [(sk.CoefficientField(batch_fn=lambda xs: np.ones((len(xs), 2, 1)), d=2, n=1,
                                   bound=1.0, lipschitz=0.0), catalog.bm_driver())]
    monkeypatch.setattr(sde, "_advance_chunk", _scripted(states))
    with pytest.raises(sk.SimulationOverflow, match=r"state norm 2\.000e\+12 .* at step 1 of 2"):
        sde._run_group(blocks, None, x0, 0.1, 2, [(2, [sk.seeding.rng_at(1, 0)])],
                       1e-200, False)
    assert _outcome(lambda: _per_path(states, x0, 1e-200, False)) == 1


def test_bounds_hold_the_claims():
    x = np.array([[1.0, -3.0], [-2.0, 0.5], [0.25, 2.0]])
    assert sde._extremes(x) == [(1.0, -2.0), (2.0, -3.0)]
    # a NaN state is left out; only a column of NaN gives NaN
    assert sde._extremes(np.array([[np.nan, 2.0], [1.0, np.nan], [-1.0, 0.5]])) == \
        [(1.0, -1.0), (2.0, 0.5)]
    nan = sde._extremes(np.array([[np.nan], [np.nan]]))[0]
    assert all(np.isnan(v) for v in nan)
    # in d = 1 the bound is the largest distance to within its margin of 2^-52
    x = np.array([[0.1], [-0.7], [0.3]])
    reach, want = sde._reach(sde._extremes(x), [0.2]), np.abs(x - 0.2).max()
    assert want <= reach <= want * (1.0 + 2.0 ** -51)
    assert np.isnan(sde._reach([(np.nan, np.nan)], [0.0]))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["bm_bump", "cp_tanh", "planar", "tiny_coefficient",
                        "zero_coefficient", "drift_only"]),
       st.sampled_from(RADII + [0.3, 0.6]), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_ensembles_match_the_reference(case, radius, record_max, seed):
    model, x0 = CASES[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    kwargs = dict(base_key=(5, 1), stop_radius=radius, record_max=record_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "DEFAULT_CHUNK", 300)
        got = simulate_ensemble(blocks, drift, x0, 0.2, 8, 500, seed, **kwargs)
        want = ref.simulate_ensemble_at_x0(blocks, drift, x0, 0.2, 8, 500, seed, **kwargs)
    _assert_same_ensemble(got, want)

