"""Block-drawn steps: the step-draw helper against one sampler call per step.

A driver whose step draws from at most one distribution, with n = 1, draws K
steps in one ``sample_step_ensemble`` call of K*m rows (``sde.BLOCK_ROWS``
bounds K*m).  A pure compound-Poisson driver with n = 1 looks its Poisson
counts K steps ahead and draws the jump-free steps before the first jump in
one call, K = min(BLOCK_ROWS // m, floor(1 / (rate dt m))).  These tests pin
that the runs the helper hands out are, row by row and bit for bit, what
successive m-row calls on the same generator return, for every measure
variant, that the predicates pick exactly the drivers they may, that paths,
dense runs and ensembles still reproduce the reference engines across block
boundaries, and that one-step draws have the characteristic function
exp(-dt psi).
"""

import warnings

import numpy as np
import pytest

import reference_engine as ref
import symbolkit as sk
from symbolkit import catalog, coefficients as co, levy, sde
from symbolkit.coefficients import CoefficientField
from symbolkit.levy import (AtomLaw, FiniteActivity, LevyTriplet, StableSymmetric, StepSample,
                            ZeroMeasure, normal_law, sample_step_ensemble, uniform_law)
from symbolkit.sde import (BLOCK_ROWS, MIN_LOOK_AHEAD, _check_overflow, _driver_steps,
                           simulate_ensemble, simulate_paths_dense)
from symbolkit.seeding import TAG_PATH, rng_at

BLOCKED = {
    "gaussian": lambda: catalog.bm_driver(),
    "gaussian_drift": lambda: LevyTriplet([0.3], [[2.0]], ZeroMeasure()),
    "zero_triplet": lambda: LevyTriplet([0.0], [[0.0]], ZeroMeasure()),
    "drift_only": lambda: catalog.drift_driver(-1.5),
    "cauchy": lambda: catalog.stable_driver(1.0),
    "cauchy_drift": lambda: LevyTriplet([0.3], [[0.0]], StableSymmetric(1.0, 0.5)),
}
PER_STEP = {
    "gaussian_cauchy": lambda: LevyTriplet([0.1], [[0.5]], StableSymmetric(1.0)),
    "stable_0.7": lambda: catalog.stable_driver(0.7),
    "stable_1.5": lambda: catalog.stable_driver(1.5, 0.7),
    "compound_poisson": lambda: catalog.compound_poisson_pm1(rate=30.0),
    "gaussian_poisson": lambda: LevyTriplet([0.0], [[1.0]],
                                            FiniteActivity(20.0, normal_law(0.1, 0.6))),
    "density": lambda: catalog.tempered_density_driver(),
    "gaussian_n2": lambda: LevyTriplet([0.1, -0.2], [[1.0, 0.3], [0.3, 0.5]]),
    "zero_triplet_n2": lambda: LevyTriplet([0.5, 0.0], np.zeros((2, 2))),
    "cp_drift": lambda: LevyTriplet([0.3], [[0.0]],
                                    FiniteActivity(2.0, AtomLaw.of([(1.0, 0.5), (-0.5, 0.5)]))),
    "normal_law": lambda: LevyTriplet([0.0], [[0.0]], FiniteActivity(1.5, normal_law(0.1, 0.6))),
}
DRIVERS = {**BLOCKED, **PER_STEP}
# pure compound Poisson with n = 1: the jump-free steps after a count look-ahead
LOOKAHEAD = ("compound_poisson", "cp_drift", "density", "normal_law")


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _each_step(driver, dt, n_steps, m, rng):
    """The helper's draws one step at a time: each row of a run is a step without jumps."""
    for run in _driver_steps(driver, dt, n_steps, m, rng):
        if isinstance(run, StepSample):
            assert run.jump_values.shape[0], "a step drawn alone without jumps is a run"
            yield run
            continue
        for smooth in run:
            yield StepSample(smooth=smooth, jump_counts=np.zeros(m, dtype=np.int64),
                             jump_values=np.empty((0, run.shape[2])), jump_positions=np.empty(0))


def _steps_for(m):
    """Two full blocks and a ragged third, or three steps when K = 1."""
    k = BLOCK_ROWS // m
    return 2 * k + 5 if k > 1 else 3


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_predicate_blocks_one_distribution_drivers_with_n_1(name):
    assert DRIVERS[name]().blockable == (name in BLOCKED)


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_look_ahead_only_for_pure_compound_poisson_with_n_1(name):
    assert (DRIVERS[name]().jump_activity is not None) == (name in LOOKAHEAD)


@pytest.mark.parametrize("m", [1, 3, BLOCK_ROWS + 1])
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_helper_steps_are_successive_sampler_calls(name, m):
    # each step is checked as it is handed out: a run's rows are valid until the next draw
    driver = DRIVERS[name]()
    n_steps = _steps_for(m)
    rng = rng_at(4, 2)
    seen = 0
    for s in _each_step(driver, 0.01, n_steps, m, rng_at(4, 2)):
        want = sample_step_ensemble(driver, 0.01, m, rng)
        for field in ("smooth", "jump_counts", "jump_values", "jump_positions"):
            assert _same_bits(getattr(s, field), getattr(want, field)), field
        seen += 1
    assert seen == n_steps


# every measure variant with and without a Gaussian part, and the planar n = 2 driver
OUT_MEASURES = {
    "zero": lambda: ZeroMeasure(),
    "atoms": lambda: FiniteActivity(30.0, AtomLaw.of([(1.0, 0.5), (-0.5, 0.5)])),
    "law": lambda: FiniteActivity(30.0, normal_law(0.1, 0.6)),
    "stable_1": lambda: StableSymmetric(1.0, 0.5),
    "stable_1.5": lambda: StableSymmetric(1.5, 0.7),
    "density": lambda: catalog.tempered_density_driver().levy_measure,
}
OUT_DRIVERS = {
    **{f"{name}_{part}": lambda make=make, q=q: LevyTriplet([0.3], [[q]], make())
       for name, make in OUT_MEASURES.items() for part, q in (("pure", 0.0), ("gauss", 2.0))},
    **{f"planar_{part}": lambda q=q: LevyTriplet(
        [0.1, -0.2], q * np.array([[1.0, 0.3], [0.3, 0.5]]),
        FiniteActivity(40.0, AtomLaw.of([((0.5, -0.2), 0.5), ((-1.5, 0.3), 0.5)])))
       for part, q in (("pure", 0.0), ("gauss", 1.0))},
}


@pytest.mark.parametrize("name", sorted(OUT_DRIVERS))
def test_a_draw_into_out_is_the_fresh_draw(name):
    # three steps of 7 paths into rows 2..8 of a 12-row buffer, against fresh-array
    # draws from the same generator state
    driver, m = OUT_DRIVERS[name](), 7
    buf = np.full((m + 5, driver.dim), 7.5)
    into, fresh = rng_at(6, 4), rng_at(6, 4)
    jumped = 0
    for _ in range(3):
        out = buf[2:2 + m]
        got = sample_step_ensemble(driver, 0.01, m, into, out)
        want = sample_step_ensemble(driver, 0.01, m, fresh)
        assert got.smooth is out
        for field in ("smooth", "jump_counts", "jump_values", "jump_positions"):
            assert _same_bits(getattr(got, field), getattr(want, field)), field
        assert (buf[:2] == 7.5).all() and (buf[2 + m:] == 7.5).all()
        jumped += int(got.jump_counts.sum())
    assert into.random() == fresh.random()
    assert (jumped > 0) == (name.startswith(("atoms", "law", "density", "planar")))


@pytest.mark.parametrize("name", ["gaussian", "cauchy", "compound_poisson"])
def test_block_runs_are_drawn_into_one_buffer(name):
    # a run of several steps is formed where the run before it was
    driver = DRIVERS[name]()
    runs = [run for run in _driver_steps(driver, 1e-4, _steps_for(3), 3, rng_at(6, 1))
            if not isinstance(run, StepSample) and len(run) > 1]
    assert len(runs) >= 2
    assert all(np.shares_memory(runs[0], run) for run in runs[1:])


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_blocked_driver_leaves_the_stream_where_per_step_draws_do(name):
    driver, m = DRIVERS[name](), 3
    n_steps = _steps_for(m)
    blocked, plain = rng_at(6), rng_at(6)
    for _ in _driver_steps(driver, 0.02, n_steps, m, blocked):
        pass
    for _ in range(n_steps):
        sample_step_ensemble(driver, 0.02, m, plain)
    assert blocked.random() == plain.random()


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("name", LOOKAHEAD)
def test_look_ahead_steps_are_successive_sampler_calls(name, m):
    # 0.1 expected jumps per path-step: K = 10 steps at m = 1, 3 at m = 3; 200 steps
    # end in a ragged block either way
    driver = DRIVERS[name]()
    dt = 0.1 / driver.jump_activity
    helper, plain = rng_at(4, 3), rng_at(4, 3)
    seen = jumps = 0
    for s in _each_step(driver, dt, 200, m, helper):
        want = sample_step_ensemble(driver, dt, m, plain)
        for field in ("smooth", "jump_counts", "jump_values", "jump_positions"):
            assert _same_bits(getattr(s, field), getattr(want, field)), field
        seen, jumps = seen + 1, jumps + int(s.jump_counts.sum())
    assert seen == 200 and jumps >= 10
    assert helper.random() == plain.random()


DENSE_MODELS = {
    "bm_unit": catalog.bm_unit,
    "stable_sin": catalog.stable_sin,
    "drift_only": lambda: sk.SdeModel(coefficient=co.constant(-1.5),
                                      driver=catalog.drift_driver(2.0)),
}
DENSE_SIZES = [
    (BLOCK_ROWS + 9, 1),            # one path: a full block and a ragged one
    (3 * (BLOCK_ROWS // 16) + 17, 16),  # several blocks and a ragged last block
    (100, 16),                      # fewer steps than one block
    (4, BLOCK_ROWS + 3),            # more rows than the budget: K = 1
]


@pytest.mark.parametrize("n_steps, n_paths", DENSE_SIZES)
@pytest.mark.parametrize("name", sorted(DENSE_MODELS))
def test_dense_matches_reference_across_blocks(name, n_steps, n_paths):
    model = DENSE_MODELS[name]()
    args = (model.blocks(), model.drift_coefficient, np.array([0.2]), 1.0, n_steps, n_paths, 8)
    got = simulate_paths_dense(*args, base_key=(5, 1))
    want = ref.simulate_paths_dense(*args, base_key=(5, 1))
    assert _same_bits(got, want)


# --------------------------------------------------------------------------
# compound-Poisson look-ahead against the reference engines (the one-path cases
# are in test_engine_reference.PATH_CASES)


def _tanh_model(driver):
    return sk.SdeModel(coefficient=co.tanh_field(2.0, 1.0), driver=driver)


def _first_jump(seed, rate, step, k):
    """The first of a path's first k steps that jumps, drawn as the look-ahead draws it."""
    hits = np.flatnonzero(rng_at(seed, TAG_PATH, 0).poisson(rate * step, size=k))
    return hits[0] if hits.size else None


@pytest.mark.parametrize("rate", [30.0, 2.0])       # K = 3 and 50 at step 0.01
@pytest.mark.parametrize("where", ["first", "last"])
def test_jump_on_the_edge_of_a_look_ahead_block(where, rate):
    k = int(1.0 / (rate * 1e-2))
    pos = 0 if where == "first" else k - 1
    seed = next(s for s in range(10_000) if _first_jump(s, rate, 1e-2, k) == pos)
    model = _tanh_model(catalog.compound_poisson_pm1(rate=rate))
    got = sk.simulate_path(model, 0.0, 1.0, 1e-2, seed)
    want = ref._simulate_blocks_scalar(model.blocks(), None, 0.0, 1.0, 1e-2, seed)
    assert want.jumps[0][0] == want.times[pos + 1]
    assert _same_bits(got.states, want.states) and len(got.jumps) == len(want.jumps)
    for (t, effect), (t_ref, effect_ref) in zip(got.jumps, want.jumps):
        assert t == t_ref and _same_bits(effect, effect_ref)


@pytest.mark.parametrize("n_paths", [1, 4, 16])     # K = 200, 50 and 12
def test_look_ahead_dense_matches_reference(n_paths):
    model = _tanh_model(catalog.compound_poisson_pm1(rate=2.0))
    args = (model.blocks(), None, np.array([0.2]), 1.0, 400, n_paths, 8)
    got = simulate_paths_dense(*args, base_key=(5, 1))
    want = ref.simulate_paths_dense(*args, base_key=(5, 1))
    assert _same_bits(got, want)


def test_look_ahead_inside_an_ensemble_matches_reference(monkeypatch):
    # chunks of 3, 3, 3 and 1 paths: K = 66 and 200
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", 3)
    model = _tanh_model(catalog.compound_poisson_pm1(rate=2.0))
    kwargs = dict(stop_radius=1.5, record_max=True)
    got = simulate_ensemble(model.blocks(), None, np.zeros(1), 1.0, 400, 10, 6, **kwargs)
    want = ref.simulate_ensemble_at_x0(model.blocks(), None, np.zeros(1), 1.0, 400, 10, 6,
                                       **kwargs)
    for field in ("terminal", "exited", "running_max"):
        assert _same_bits(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("rate", [40.0, 30.0])          # K = 2 and 3 at step 0.01
def test_look_ahead_spans_at_least_min_look_ahead_steps(rate, monkeypatch):
    rows = []
    sampler = levy.sample_step_ensemble

    def counted(*args):
        rows.append(args[2])
        return sampler(*args)

    monkeypatch.setattr(levy, "sample_step_ensemble", counted)
    driver = catalog.compound_poisson_pm1(rate=rate)
    for _ in _driver_steps(driver, 0.01, 300, 1, rng_at(4, 5)):
        pass
    assert sum(rows) == 300
    assert (len(rows) == 300) == (int(1.0 / (rate * 0.01)) < MIN_LOOK_AHEAD)


def test_long_compound_poisson_path_makes_few_sampler_calls(monkeypatch):
    rows = []
    sampler = levy.sample_step_ensemble

    def counted(*args):
        rows.append(args[2])
        return sampler(*args)

    monkeypatch.setattr(levy, "sample_step_ensemble", counted)
    path = sk.simulate_path(catalog.cp_tanh(), 0.0, 10.0, 1e-3, 7)   # rate 1
    n_steps, k = len(path.times) - 1, min(BLOCK_ROWS, int(1.0 / 1e-3))
    assert n_steps == 10_000 and path.jumps
    assert len(rows) <= 2 * (len(path.jumps) + -(-n_steps // k)) + 1
    assert sum(rows) == n_steps         # each path-step drawn once


# --------------------------------------------------------------------------
# sampler against exponent: E exp(i xi Z_dt) = exp(-dt psi(xi)) for one-step draws

ECF_DRIVERS = {     # one driver per measure variant, drawn as the engine draws them
    "gaussian_drift": (BLOCKED["gaussian_drift"], 0.2),
    "atoms": (lambda: catalog.compound_poisson_pm1(rate=2.0), 0.1),      # look-ahead, K = 5
    "atoms_drift": (DRIVERS["cp_drift"], 0.2),                           # K = 2: step by step
    "normal_law": (DRIVERS["normal_law"], 0.2),                          # look-ahead, K = 3
    "narrow_normal_law": (lambda: LevyTriplet([0.0], [[0.0]], FiniteActivity(
        1.5, normal_law(-5.0, 0.05))), 0.2),                             # look-ahead, K = 3
    "uniform_law_image": (lambda: LevyTriplet([0.0], [[0.0]], FiniteActivity(
        1.5, uniform_law(-0.7, 1.9).image(-1.7))), 0.2),                 # look-ahead, K = 3
    "cauchy": (BLOCKED["cauchy_drift"], 0.2),                            # block-drawn
    "stable_1.5": (PER_STEP["stable_1.5"], 0.2),                         # step by step
    "density": (DRIVERS["density"], 0.004),                              # look-ahead, K = 5
}


@pytest.mark.parametrize("name", sorted(ECF_DRIVERS))
def test_step_draws_have_the_exponent_characteristic_function(name):
    make, dt = ECF_DRIVERS[name]
    driver, n = make(), 20_000
    z = np.empty(n)
    for i, s in enumerate(_each_step(driver, dt, n, 1, rng_at(31, 2))):
        z[i] = s.smooth[0, 0] + s.jump_values[:, 0].sum()
    for xi in (0.5, 1.5, 3.0):
        want = np.exp(-dt * driver(np.array([xi])))
        c, s = np.cos(xi * z), np.sin(xi * z)
        for part, got, target in ((c, c.mean(), want.real), (s, s.mean(), want.imag)):
            se = part.std() / np.sqrt(n)
            assert abs(got - target) <= 5 * se + 1e-12, (xi, got, target, se)


# --------------------------------------------------------------------------
# the one-row step: overflow guard and coefficient batches


def test_planar_overflow_beyond_square_range_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sk.SimulationOverflow, match=r"state norm 1\.000e\+200 .* step 1 of 5"):
            _check_overflow(np.array([[1e200, 1.0], [0.0, 0.0]]), None, 0, 5)


@pytest.mark.parametrize("v", [0.0, -0.0, 1e12, -1e12, np.nextafter(1e12, 2e12), -2e12,
                               np.inf, -np.inf, np.nan, 1e300])
def test_one_row_guard_decides_as_the_array_guard(v):
    def raises(x):
        try:
            _check_overflow(x, None, 2, 9)
        except sk.SimulationOverflow as err:
            return str(err)
        return None

    # the two-row array takes the reduction of |x|; its zero row cannot raise
    assert raises(np.array([[v]])) == raises(np.array([[v], [0.0]]))


@pytest.mark.parametrize("pair", [(np.nan, 2e12), (-2e12, np.nan), (np.nan, np.inf),
                                  (-np.inf, 1.0), (np.inf, -np.inf), (1e12, -1e12),
                                  (-0.0, np.nan), (3e12, -4e12)])
def test_column_guard_decides_as_max_and_min(pair):
    # each path decides alone: a NaN is left out of the max and the min, so the
    # other path raises or passes as it would alone
    x = np.array(pair)[:, None]
    want = bool(np.fmax.reduce(x, axis=None) > 1e12 or np.fmin.reduce(x, axis=None) < -1e12)
    try:
        _check_overflow(x, None, 0, 1)
        raised = False
    except sk.SimulationOverflow:
        raised = True
    assert raised == want


def test_many_passes_a_float64_batch_through_and_rewraps_others():
    kept = np.arange(3.0).reshape(3, 1, 1)
    fld = CoefficientField(batch_fn=lambda xs: kept, d=1, n=1,
                           bound=1.0, lipschitz=1.0)
    assert fld.many(np.zeros((3, 1))) is kept
    for other in ([0.0, 1.0, 2.0], np.arange(3), np.arange(3.0), np.arange(3.0, dtype=np.float32)):
        fld.batch_fn = lambda xs, other=other: other
        out = fld.many(np.zeros((3, 1)))
        assert out.dtype == np.float64 and out.shape == (3, 1, 1)
        assert out[:, 0, 0].tolist() == [0.0, 1.0, 2.0]
