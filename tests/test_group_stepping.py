"""Ensembles stepped in groups of chunks against the chunk-by-chunk oracle.

``sde.simulate_ensemble`` draws each ``DEFAULT_CHUNK``-path chunk from its own
generators but steps ``GROUP_CHUNKS`` consecutive chunks as one state array.
``reference_engine.simulate_ensemble_at_x0`` runs the same chunks one at a time;
these tests require the same terminal states, exits, maxima and errors bit for
bit.  ``DEFAULT_CHUNK`` is patched to C = 2100, above ``BLOCK_ROWS`` / 2, so a
full chunk draws step by step while a last chunk of a few paths draws K-step
runs when it is its group's only chunk and step by step beside another, and
the path counts 1, C - 1, C, C + 1, 2C, 2C + 1 and 3C + 1 give groups of one
and two chunks, full and partial.
"""

import re

import numpy as np
import pytest

import reference_engine as ref
import symbolkit as sk
from symbolkit import catalog, coefficients as co, sde
from symbolkit.coefficients import CoefficientField
from symbolkit.levy import LevyTriplet, StableSymmetric
from symbolkit.sde import BLOCK_ROWS, MultiDriverSpec, simulate_ensemble
from symbolkit.seeding import rng_at
from test_engine_reference import CASES, _assert_same_ensemble, _blocks

C = 2100
PATHS = [1, C - 1, C, C + 1, 2 * C, 2 * C + 1, 3 * C + 1]


def _cube_spec():
    """d = 3 states driven by a Gaussian, an atom and a Poisson block (n = 1 each)."""
    def column(j):
        return CoefficientField(batch_fn=lambda xs: np.stack([
            1.0 + 0.3 * np.sin(xs[:, (j + 1) % 3]), np.full(len(xs), 0.2 * j),
            np.cos(xs[:, j])], axis=1)[:, :, None], d=3, n=1, bound=2.0, lipschitz=1.0)
    return MultiDriverSpec([(column(0), catalog.bm_driver()),
                            (column(1), catalog.compound_poisson_pm1(rate=20.0)),
                            (column(2), catalog.poisson_unit(rate=10.0))])


def _model(driver, phi, drift=None):
    return sk.SdeModel(coefficient=phi, driver=driver, drift_coefficient=drift)


# every measure variant, d = 1 to 3, one and several blocks; "column" (rate 30) and
# "cube" draw several jumps on a path in one step, which go in rounds
MODELS = {
    "gauss": CASES["bm_bump"],
    "gauss_drift_field": CASES["bm_bump_drift"],
    "atoms": CASES["cp_tanh"],
    "law": CASES["normal_law"],
    "stable_1": lambda: (_model(LevyTriplet([0.0], [[0.0]], StableSymmetric(1.0, 0.5)),
                                co.tanh_field(1.0, 0.5)), 0.1),
    "stable_1.5": CASES["stable_1.5"],
    "density": CASES["tempered"],
    "planar": CASES["planar"],
    "column": CASES["column"],
    "cube": lambda: (_cube_spec(), np.array([0.1, -0.2, 0.3])),
    # increments of -0.0 from a start of -0.0 (the smooth sum starts from +0.0) and of +0.0
    "zero_field_at_minus_zero": CASES["zero_coefficient"],
    "zero_field_at_plus_zero": lambda: (CASES["zero_coefficient"]()[0], 0.0),
}


def _run_both(case, n_paths, threads, **kwargs):
    model, x0 = MODELS[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    args = (blocks, drift, x0, 0.3, 6, n_paths, 13)
    kwargs = dict(base_key=(4, 2), threads=threads, **kwargs)
    return simulate_ensemble(*args, **kwargs), ref.simulate_ensemble_at_x0(*args, **kwargs)


@pytest.mark.parametrize("n_paths, threads", [(n, 1) for n in PATHS] + [
    (n, 2) for n in PATHS if n > 2 * C])        # fewer paths make one group, run inline
@pytest.mark.parametrize("case", sorted(MODELS))
def test_groups_match_the_chunk_by_chunk_oracle(case, n_paths, threads, monkeypatch):
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", C)
    for options in ({"record_max": True}, {"stop_radius": 0.4, "record_max": True},
                    {"stop_radius": 0.4}):
        got, want = _run_both(case, n_paths, threads, **options)
        _assert_same_ensemble(got, want)


def test_a_partial_chunk_in_a_group_draws_step_by_step(monkeypatch):
    # C + 1 paths are one group: chunk 1's one path, which alone would draw all six
    # steps in one call, draws one step per call beside chunk 0, into its row of the
    # group's draw array
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", C)
    runs, rows = [], []
    driver_steps, increment = sde._driver_steps, sde._smooth_increment

    def spied_steps(driver, dt, n_steps, m, rng, out=None):
        for run in driver_steps(driver, dt, n_steps, m, rng, out):
            runs.append((m, len(run) if type(run) is np.ndarray else 1))
            yield run

    def spied_increment(x, *args):
        rows.append(len(x))
        return increment(x, *args)

    monkeypatch.setattr(sde, "_driver_steps", spied_steps)
    monkeypatch.setattr(sde, "_smooth_increment", spied_increment)
    got, want = _run_both("gauss", C + 1, 1, stop_radius=0.4, record_max=True)
    _assert_same_ensemble(got, want)
    assert BLOCK_ROWS // C == 1
    assert sorted(set(runs)) == [(1, 1), (C, 1)] and len(runs) == 12
    assert rows == [C + 1] * 6          # one smooth update per group step


def test_each_group_step_is_one_smooth_update(monkeypatch):
    # 3C + 1 paths: groups of 2C and C + 1 rows, six steps each
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", C)
    rows, increment = [], sde._smooth_increment

    def spied_increment(x, *args):
        rows.append(len(x))
        return increment(x, *args)

    monkeypatch.setattr(sde, "_smooth_increment", spied_increment)
    got, want = _run_both("planar", 3 * C + 1, 1, stop_radius=0.4)
    _assert_same_ensemble(got, want)
    assert rows == [2 * C] * 6 + [C + 1] * 6


def _field_failing_on_groups(error):
    """bm_bump's field, raising ``error`` on more rows than a chunk of 4 paths holds."""
    fld = catalog.bm_bump().coefficient

    def batch(xs):
        if len(xs) > 4:
            raise error
        return fld.many(xs)
    return CoefficientField(batch_fn=batch, d=1, n=1, bound=fld.bound, lipschitz=fld.lipschitz)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("error", [TypeError, KeyError, ZeroDivisionError, FloatingPointError])
def test_only_an_arithmetic_error_of_a_group_is_stepped_again(error, threads, monkeypatch):
    # 16 paths are four chunks of 4, stepped in two groups of 8 rows; stepped alone,
    # no chunk meets the error.  An arithmetic error, like an overflow, depends on the
    # states reached, so the group is stepped again chunk by chunk; any other error is
    # a fault of the group step and propagates
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", 4)
    model = _model(catalog.bm_driver(), _field_failing_on_groups(error("a group's rows")))
    args = (model.blocks(), None, np.zeros(1), 0.4, 4, 16, 5)
    if not issubclass(error, ArithmeticError):
        with pytest.raises(error, match="a group's rows"):
            simulate_ensemble(*args, threads=threads)
        return
    got = simulate_ensemble(*args, threads=threads, stop_radius=0.3, record_max=True)
    want = ref.simulate_ensemble_at_x0(*args, threads=threads, stop_radius=0.3,
                                       record_max=True)
    _assert_same_ensemble(got, want)


def _poisson_past_the_guard():
    """+1 jumps; a path's second jump multiplies 1e13 and passes the guard."""
    phi = CoefficientField(batch_fn=lambda xs: np.where(xs < 0.5, 1.0, 1e13)[:, :, None],
                           d=1, n=1, bound=1e13, lipschitz=np.inf)
    return _model(catalog.poisson_unit(rate=1.0), phi)


def _pm1_nan_or_past_the_guard():
    """+-1 jumps; at +1 the field is NaN, so the path turns NaN at the next step, and a
    second jump from -1 passes the guard."""
    phi = CoefficientField(
        batch_fn=lambda xs: np.where(xs < -0.5, 1e13, np.where(xs > 0.5, np.nan, 1.0))[:, :, None],
        d=1, n=1, bound=np.inf, lipschitz=np.inf)
    return _model(catalog.compound_poisson_pm1(rate=1.0), phi)


def _chunk_alone(model, c, seed, n_steps, dt=0.2, m=4):
    """Chunk c of 4 paths stepped alone: 'nan', 'ok' or the step its overflow names."""
    rngs = [rng_at(seed, 9, c, 0)]
    try:
        with np.errstate(invalid="ignore"):
            x, _, _ = sde._run_group(model.blocks(), None, np.zeros(1), dt, n_steps,
                                     [(m, rngs)], None, False)
    except sk.SimulationOverflow as err:
        return int(re.search(r"at step (\d+) of", str(err)).group(1))
    return "nan" if np.isnan(x).any() else "ok"


def _errors(model, seed, threads):
    """The messages the group stepper and the chunk-by-chunk oracle raise on 8 paths."""
    messages = []
    for engine in (simulate_ensemble, ref.simulate_ensemble_at_x0):
        with pytest.raises(sk.SimulationOverflow) as err, np.errstate(invalid="ignore"):
            engine(model.blocks(), None, np.zeros(1), 1.6, 8, 8, seed, base_key=(9,),
                   threads=threads)
        messages.append(str(err.value))
    return messages


@pytest.mark.parametrize("threads", [1, 2])
def test_the_lower_chunk_error_is_raised_though_the_higher_fails_first(threads, monkeypatch):
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", 4)
    model = _poisson_past_the_guard()
    assert [_chunk_alone(model, c, 5, 8) for c in (0, 1)] == [5, 2]
    got, want = _errors(model, 5, threads)
    assert got == want and "at step 5 of 8" in got


@pytest.mark.parametrize("threads", [1, 2])
def test_a_nan_in_one_chunk_does_not_hide_the_other_chunks_overflow(threads, monkeypatch):
    # chunk 0 holds a NaN path from step 2 on and never overflows; chunk 1 overflows
    # at step 2
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", 4)
    model = _pm1_nan_or_past_the_guard()
    assert [_chunk_alone(model, 0, 5, 2), _chunk_alone(model, 0, 5, 8),
            _chunk_alone(model, 1, 5, 8)] == ["nan", "nan", 2]
    got, want = _errors(model, 5, threads)
    assert got == want and "at step 2 of 8" in got
