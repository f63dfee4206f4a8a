"""The in-place ensemble engine against the straightforward engines kept in reference_engine."""

import numpy as np
import pytest

import reference_engine as ref
import symbolkit as sk
from symbolkit import catalog, coefficients as co, sde
from symbolkit.coefficients import CoefficientField
from symbolkit.levy import (AtomLaw, FiniteActivity, LevyTriplet, StableSymmetric, StepSample,
                            normal_law)
from symbolkit.sde import (BLOCK_ROWS, OVERFLOW_GUARD, MultiDriverSpec, simulate_ensemble,
                           simulate_multi, simulate_paths_dense)
from symbolkit.seeding import TAG_PATH, rng_at
from test_block_draws import OUT_DRIVERS, OUT_MEASURES


def _model(driver, phi, drift=None):
    return sk.SdeModel(coefficient=phi, driver=driver, drift_coefficient=drift)


def _planar_model():
    """d = 2 states driven by a two-dimensional jump-diffusion (einsum and matmul paths)."""
    law = AtomLaw.of([((0.5, -0.2), 0.5), ((-1.5, 0.3), 0.5)])
    driver = LevyTriplet([0.1, -0.2], [[1.0, 0.3], [0.3, 0.5]], FiniteActivity(40.0, law))
    phi = CoefficientField(
        batch_fn=lambda xs: np.stack([
            np.stack([1.0 + 0.5 * np.sin(xs[:, 1]), np.full(len(xs), 0.2)], axis=1),
            np.stack([np.full(len(xs), 0.1), 0.8 + 0.3 * np.cos(xs[:, 0])], axis=1)], axis=1),
        d=2, n=2, bound=2.0, lipschitz=1.0)
    drift = CoefficientField(batch_fn=lambda xs: -0.5 * xs[:, :, None],
                             d=2, n=1, bound=np.inf, lipschitz=0.5)
    return _model(driver, phi, drift)


def _column_model():
    """d = 2 states driven by one scalar compound-Poisson driver (an n = 1 block with d = 2)."""
    phi = CoefficientField(
        batch_fn=lambda xs: np.stack([np.tanh(xs[:, 0]), np.ones(len(xs))], axis=1)[:, :, None],
        d=2, n=1, bound=2.0, lipschitz=1.0)
    return _model(catalog.compound_poisson_pm1(rate=30.0), phi)


def _multi_spec():
    # high jump rates so that paths often jump several times, in both blocks, in one step
    return MultiDriverSpec([(co.bump(0.5, 1.0), catalog.compound_poisson_pm1(rate=60.0)),
                            (co.tanh_field(2.0, 1.0), catalog.poisson_unit(rate=40.0)),
                            (co.sine(0.5, 1.0), catalog.bm_driver())])


def _burst_spec():
    # rates of hundreds: a step of 0.025 often carries 8 or more jumps on one path
    return MultiDriverSpec([(co.bump(0.5, 1.0), catalog.compound_poisson_pm1(rate=300.0)),
                            (co.tanh_field(0.0, 0.2), catalog.poisson_unit(rate=150.0)),
                            (co.sine(0.5, 1.0), catalog.bm_driver())])


def _planar_burst_model():
    model = _planar_model()
    law = model.driver.levy_measure.law
    driver = LevyTriplet([0.1, -0.2], [[1.0, 0.3], [0.3, 0.5]], FiniteActivity(400.0, law))
    return _model(driver, model.coefficient, model.drift_coefficient)


def _constant_multi():
    return MultiDriverSpec([(co.constant(0.8), catalog.bm_driver()),
                            (co.constant(-1.2), catalog.compound_poisson_pm1(rate=3.0))])


def _constant_planar_model():
    """The planar driver under constant 2x2 and drift fields (the einsum path, n = 2)."""
    phi = np.array([[1.0, 0.2], [0.1, 0.8]])
    return _model(_planar_model().driver,
                  CoefficientField(batch_fn=lambda xs: np.broadcast_to(phi, (len(xs), 2, 2)),
                                   d=2, n=2, bound=2.0, lipschitz=0.0),
                  CoefficientField(batch_fn=lambda xs: np.full((len(xs), 2, 1), -0.25),
                                   d=2, n=1, bound=1.0, lipschitz=0.0))


CASES = {name: (lambda name=name: (catalog.MODEL_CATALOG[name](), 0.0))
         for name in catalog.MODEL_CATALOG}
CASES["feller_demo"] = lambda: (catalog.feller_demo_model(), 5.0)
CASES.update({
    "tempered": lambda: (_model(catalog.tempered_density_driver(), co.bump(0.5, 1.0)), 0.0),
    "normal_law": lambda: (_model(LevyTriplet(
        [0.3], [[0.0]], FiniteActivity(25.0, normal_law(0.1, 0.6))), co.bump(0.5, 1.0)), 0.2),
    "stable_1.5": lambda: (_model(catalog.stable_driver(1.5, 0.7), co.cosine(1.5, 1.0),
                                  co.sine(0.0, 0.5)), -0.4),
    "stable_0.7": lambda: (_model(catalog.stable_driver(0.7), co.tanh_field(1.0, 0.5)), 0.0),
    "drift_only": lambda: (_model(catalog.drift_driver(2.0), co.constant(-1.5)), -0.0),
    "zero_coefficient": lambda: (_model(catalog.bm_driver(), co.zero()), -0.0),
    # distances near 1e-161, whose squares are subnormal: sqrt(d^2) is not |d| there
    "tiny_coefficient": lambda: (_model(catalog.bm_driver(), co.constant(1e-160)), 0.0),
    "planar": lambda: (_planar_model(), np.array([0.3, -0.1])),
    "column": lambda: (_column_model(), np.array([0.0, 1.0])),
    "multi": lambda: (_multi_spec(), 0.0),
    # constant fields only: the dense runs apply their jump-free steps as one sum
    "constant_drift": lambda: (_model(catalog.bm_driver(), co.constant(0.7),
                                      co.constant(-0.3)), 0.2),
    "constant_multi": lambda: (_constant_multi(), 0.0),
    "constant_planar": lambda: (_constant_planar_model(), np.array([0.3, -0.1])),
    "look_ahead_constant": lambda: (_model(catalog.compound_poisson_pm1(rate=2.0),
                                           co.constant(1.3)), 0.1),
})
# name -> (model, x0, a stop radius that some but not all paths leave); multi-jump
# steps take the rounds of sde._apply_jumps
BURSTS = {
    "burst": lambda: (_model(catalog.compound_poisson_pm1(rate=400.0), co.bump(0.5, 1.0)),
                      0.0, 8.0),
    "burst_multi": lambda: (_burst_spec(), 0.0, 10.0),
    "burst_planar": lambda: (_planar_burst_model(), np.array([0.3, -0.1]), 80.0),
}


def _blocks(model):
    return model.blocks(), getattr(model, "drift_coefficient", None)


def _same_bits(a, b):
    return a is None and b is None or (a.dtype == b.dtype and a.shape == b.shape
                                       and a.tobytes() == b.tobytes())


def _assert_same_ensemble(got, want):
    assert _same_bits(got.terminal, want.terminal)
    assert _same_bits(got.exited, want.exited)
    assert _same_bits(got.running_max, want.running_max)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_ensemble_matches_reference(case, threads, monkeypatch):
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", 700)        # chunks of 700, 700 and 100
    model, x0 = CASES[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    # a tight radius, so paths exit mid-run
    for stop, record_max in (({}, True), ({"stop_radius": 0.4}, True),
                             ({"stop_radius": 0.4}, False)):
        kwargs = dict(base_key=(7, 3), record_max=record_max, threads=threads, **stop)
        got = simulate_ensemble(blocks, drift, x0, 0.3, 12, 1500, 11, **kwargs)
        want = ref.simulate_ensemble_at_x0(blocks, drift, x0, 0.3, 12, 1500, 11, **kwargs)
        _assert_same_ensemble(got, want)
        assert (want.running_max is None) == (not record_max)
        assert want.exited.any() == ("stop_radius" in stop
                                     and case not in ("zero_coefficient", "tiny_coefficient"))


def _first_step_counts(model, dt, m, key):
    """Jumps per path in the first step of chunk 0, drawn as the engines draw them."""
    return sum(ref.sample_step_ensemble(drv, dt, m, sk.seeding.rng_at(*key, j)).jump_counts
               for j, (_, drv) in enumerate(model.blocks()))


@pytest.mark.parametrize("case", sorted(BURSTS))
def test_burst_cases_reach_eight_jumps_in_a_step(case):
    # the first step of the ensemble and the dense runs below
    model, _, _ = BURSTS[case]()
    assert _first_step_counts(model, 0.25 / 10, 200, (2, 7, 3, 0)).max() >= 8
    assert _first_step_counts(model, 1.0 / 64, 16, (5, 3, 0, 6, 0)).max() >= 8


@pytest.mark.parametrize("stopped", [False, True])
@pytest.mark.parametrize("case", sorted(BURSTS))
def test_burst_ensemble_matches_reference(case, stopped, monkeypatch):
    monkeypatch.setattr(sde, "DEFAULT_CHUNK", 200)
    model, x0, radius = BURSTS[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    kwargs = dict(base_key=(7, 3), stop_radius=radius if stopped else None,
                  record_max=True, threads=2)
    got = simulate_ensemble(blocks, drift, x0, 0.25, 10, 400, 2, **kwargs)
    want = ref.simulate_ensemble_at_x0(blocks, drift, x0, 0.25, 10, 400, 2, **kwargs)
    _assert_same_ensemble(got, want)
    assert (0.0 < want.exited.mean() < 1.0) == stopped


@pytest.mark.parametrize("case", sorted(BURSTS))
def test_burst_dense_matches_reference(case):
    model, x0, _ = BURSTS[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    got = simulate_paths_dense(blocks, drift, x0, 1.0, 64, 16, 5, base_key=(3, 0, 6))
    want = ref.simulate_paths_dense(blocks, drift, x0, 1.0, 64, 16, 5, base_key=(3, 0, 6))
    assert _same_bits(got, want)


def test_multi_jump_step_takes_rounds_not_point_calls(monkeypatch):
    spec = _burst_spec()
    blocks = spec.blocks()
    steps = [sk.levy.sample_step_ensemble(drv, 0.01, 500, sk.seeding.rng_at(8, j))
             for j, (_, drv) in enumerate(blocks)]
    counts = sum(s.jump_counts for s in steps)
    assert counts.max() >= 8 and (counts == 1).any()
    calls = {"point": 0, "many": 0}
    point, many = CoefficientField.__call__, CoefficientField.many

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CoefficientField, "__call__", counted("point", point))
    monkeypatch.setattr(CoefficientField, "many", counted("many", many))
    x = np.linspace(-1.0, 1.0, 500)[:, None]
    record = []
    sk.sde._apply_jumps(x, None, blocks, steps, record, 0.01)
    assert calls["point"] == 0
    assert calls["many"] <= counts.max() * len(blocks) + len(blocks)
    assert len(record) == counts.sum()


def test_exits_happen_mid_run():
    model = catalog.bm_bump()
    kwargs = dict(stop_radius=0.3, record_max=True)
    got = simulate_ensemble(model.blocks(), None, np.zeros(1), 0.05, 20, 2000, 4, **kwargs)
    want = ref.simulate_ensemble_at_x0(model.blocks(), None, np.zeros(1), 0.05, 20, 2000, 4,
                                       **kwargs)
    assert 0.2 < want.exited.mean() < 0.95
    _assert_same_ensemble(got, want)


def test_default_chunk_matches_reference():
    # one full DEFAULT_CHUNK chunk plus a partial one, as in the symbol-compare rungs
    model = catalog.cp_tanh()
    x0 = np.array([1.0])
    kwargs = dict(stop_radius=20.0, threads=2)
    got = simulate_ensemble(model.blocks(), None, x0, 0.04, 10, 20000, 3, **kwargs)
    want = ref.simulate_ensemble_at_x0(model.blocks(), None, x0, 0.04, 10, 20000, 3, **kwargs)
    _assert_same_ensemble(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dense_matches_reference(case):
    model, x0 = CASES[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    got = simulate_paths_dense(blocks, drift, x0, 1.0, 64, 16, 5, base_key=(3, 0, 6))
    want = ref.simulate_paths_dense(blocks, drift, x0, 1.0, 64, 16, 5, base_key=(3, 0, 6))
    assert _same_bits(got, want)


@pytest.mark.parametrize("radius", [None, 1e30])
@pytest.mark.parametrize("rate", [1e13, -1e13])
def test_overflow_matches_reference(radius, rate):
    model = _model(catalog.drift_driver(rate=rate), co.bump(0.5, 1.0))
    runs = []
    for engine in (simulate_ensemble, ref.simulate_ensemble):
        with pytest.raises(sk.SimulationOverflow) as err:
            engine(model.blocks(), None, np.zeros(1), 1.0, 8, 300, 1, stop_radius=radius)
        runs.append(str(err.value))
    assert runs[0] == runs[1]


def test_sampler_matches_reference():
    # the oracle sums drift * dt first, then the Gaussian, stable and compensator parts;
    # every measure variant runs with drift 0.3 and -0.0, with and without a Gaussian
    # part, each drawn into a fresh array and into a given one
    triplets = [model.driver for model in (catalog.bm_bump(), catalog.cp_tanh(),
                                                    catalog.stable_sin())]
    triplets += [catalog.tempered_density_driver(), catalog.drift_driver(0.5),
                 _planar_model().driver,
                 LevyTriplet([0.2], [[0.4]], StableSymmetric(1.3, 0.5)),
                 LevyTriplet([0.0], [[2.0]], FiniteActivity(3.0, normal_law(0.2, 0.5)))]
    triplets += [make() for make in OUT_DRIVERS.values()]
    triplets += [LevyTriplet([-0.0], [[q]], make())
                 for make in OUT_MEASURES.values() for q in (0.0, 2.0)]
    for trip in triplets:
        for m in (1, 257):
            want = ref.sample_step_ensemble(trip, 0.05, m, sk.seeding.rng_at(9, m))
            for out in (None, np.empty((m, trip.dim))):
                got = sk.levy.sample_step_ensemble(trip, 0.05, m, sk.seeding.rng_at(9, m), out)
                for field in ("smooth", "jump_counts", "jump_values", "jump_positions"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.shape == b.shape, (trip, field)
                    assert np.ascontiguousarray(a).tobytes() == b.tobytes(), (trip, field)


# --------------------------------------------------------------------------
# single paths: one-path runs of the ensemble step against the scalar engine


def _path_multi():
    # a Brownian column plus a rate-60 +-1 column: most steps carry several jumps
    return MultiDriverSpec([(co.bump(0.5, 1.0), catalog.bm_driver()),
                            (co.tanh_field(2.0, 1.0), catalog.compound_poisson_pm1(rate=60.0))])


def _scalar_multi(cp_first=False):
    blocks = [(co.bump(0.5, 1.0), catalog.bm_driver()),
              (co.tanh_field(2.0, 1.0), catalog.compound_poisson_pm1())]
    return MultiDriverSpec(blocks[::-1] if cp_first else blocks)


_TANH = co.tanh_field(2.0, 1.0)
# name -> (model or MultiDriverSpec, x0, horizon, step)
PATH_CASES = {
    "cp_tanh": lambda: (catalog.cp_tanh(), 0.3, 5.0, 1e-3),
    "stable_sin": lambda: (catalog.stable_sin(), 0.0, 5.0, 1e-3),
    "feller_demo": lambda: (catalog.feller_demo_model(), 5.0, 8.0, 0.05),
    "poisson_rate5": lambda: (_model(catalog.poisson_unit(rate=5.0), co.constant(1.0)),
                              0.0, 2.0, 0.125),
    "multi": lambda: (_path_multi(), 0.0, 2.0, 0.05),
    "ragged_horizon": lambda: (catalog.cp_tanh(), 0.0, 1.0, 0.3),
    "cp_tanh_negative_zero": lambda: (catalog.cp_tanh(), -0.0, 2.0, 0.01),
    "feller_negative_zero": lambda: (catalog.feller_demo_model(), -0.0, 4.0, 0.05),
    "zero_coefficient_negative_zero": lambda: (_model(catalog.bm_driver(), co.zero()),
                                               -0.0, 1.0, 0.1),
    # pure compound Poisson looks K = min(BLOCK_ROWS, floor(1 / (rate step))) steps ahead
    "look_ahead_capped": lambda: (_model(catalog.compound_poisson_pm1(rate=2.0), _TANH),
                                  0.1, 0.8197, 1e-4),            # K = 4096, 8197 steps
    "look_ahead_k3": lambda: (_model(catalog.compound_poisson_pm1(rate=30.0), _TANH),
                              0.1, 10.0, 1e-2),
    "look_ahead_rate_400": lambda: (_model(catalog.compound_poisson_pm1(rate=400.0), _TANH),
                                    0.1, 3.0, 1e-2),                 # K = 0: step by step
    "look_ahead_normal_law": lambda: (_model(LevyTriplet(
        [0.0], [[0.0]], FiniteActivity(1.5, normal_law(0.1, 0.6))), _TANH), 0.1, 10.0, 1e-2),
    "look_ahead_tempered": lambda: (_model(catalog.tempered_density_driver(), _TANH),
                                    0.1, 1.0, 1e-3),                 # K = 20
    "look_ahead_drift": lambda: (_model(LevyTriplet([0.3], [[0.0]], FiniteActivity(
        2.0, AtomLaw.of([(1.0, 0.5), (-0.5, 0.5)]))), _TANH), 0.1, 10.0, 1e-2),
    "gaussian_poisson": lambda: (_model(LevyTriplet(
        [0.0], [[1.0]], FiniteActivity(20.0, normal_law(0.1, 0.6))), _TANH), 0.1, 10.0, 1e-2),
    # constant fields: jump-free runs of up to BLOCK_ROWS steps, cut by the jumps
    "constant_multi": lambda: (_constant_multi(), 0.0, 20.0, 2e-3),
    "look_ahead_constant": lambda: (CASES["look_ahead_constant"]()[0], 0.1, 10.0, 1e-3),
    # two full buffers and a ragged one: 2 * 4096 + 123 steps
    "bm_unit_ragged": lambda: (catalog.bm_unit(), 0.1, 0.125 * (2 * BLOCK_ROWS + 123), 0.125),
    # the benchmark's simulate_multi pair: a Brownian and a compound-Poisson column,
    # whose zero-draw steps leave the second out, in either order and from -0.0
    "path_scalar_multi": lambda: (_scalar_multi(), 0.0, 4.0, 2e-3),
    "path_scalar_multi_negative_zero": lambda: (_scalar_multi(), -0.0, 4.0, 2e-3),
    "path_scalar_multi_cp_first": lambda: (_scalar_multi(True), 0.3, 4.0, 2e-3),
    "path_scalar_multi_cp_first_negative_zero": lambda: (_scalar_multi(True), -0.0, 4.0, 2e-3),
    # not blockable: every step is drawn alone
    "stable_1.5_cosine": lambda: (_model(catalog.stable_driver(1.5), co.cosine(1.5, 1.0)),
                                  0.0, 5.0, 1e-3),
    # runs of 4096, 500 and 1 steps: the segments end where the shortest run ends
    "multi_three_runs": lambda: (MultiDriverSpec([
        (co.bump(0.5, 1.0), catalog.bm_driver()),
        (co.tanh_field(2.0, 1.0), catalog.compound_poisson_pm1(rate=2.0)),
        (co.cosine(0.0, 1.0), catalog.stable_driver(1.5))]), 0.0, 5.0, 1e-3),
    # a varying field overflows inside the first 4096-step block, near step 1600
    "overflow_bump_up": lambda: (_model(catalog.drift_driver(1e10), co.bump(0.5, 1.0)),
                                 0.0, 500.0, 0.125),
    "overflow_bump_down": lambda: (_model(catalog.drift_driver(-1e10), co.bump(0.5, 1.0)),
                                   0.0, 500.0, 0.125),
}
DRIFT_PATH_CASES = {
    "bm_bump_drift": lambda: (catalog.bm_bump_drift(), 0.0, 10.0, 1e-3),
    "constant_drift_ode": lambda: (_model(catalog.bm_driver(), co.zero(), co.constant(1.0)),
                                   0.5, 2.0, 0.25),
}


def _paths(case, seed):
    model, x0, horizon, step = case()
    if isinstance(model, MultiDriverSpec):
        got = simulate_multi(model, x0, horizon, step, seed)
    else:
        got = sk.simulate_path(model, x0, horizon, step, seed)
    want = ref._simulate_blocks_scalar(*_blocks(model), x0, horizon, step, seed)
    return got, want


def _assert_same_jumps(got, want):
    assert len(got.jumps) == len(want.jumps)
    for (t, effect), (t_ref, effect_ref) in zip(got.jumps, want.jumps):
        assert _same_bits(np.asarray(t, dtype=float), np.asarray(t_ref, dtype=float))
        assert _same_bits(effect, effect_ref)


def _reference_states(blocks, drift, x0, horizon, step, seed):
    """One path stepped by ``reference_engine._advance_chunk`` on the generators
    ``rng_at(seed, TAG_PATH, j)``, with the guard and message of its ``_run_chunk``."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))[None, :]
    n_steps = int(np.ceil(horizon / step - 1e-12))
    rngs = [rng_at(seed, TAG_PATH, j) for j in range(len(blocks))]
    states, active = [x[0]], np.ones(1, dtype=bool)
    for k in range(n_steps):
        x = ref._advance_chunk(x, active, blocks, drift, step, rngs)
        norm = np.linalg.norm(x[0])
        if norm > OVERFLOW_GUARD:
            raise sk.SimulationOverflow(
                f"state norm {norm:.3e} exceeded {OVERFLOW_GUARD:.0e} "
                f"at step {k + 1} of {n_steps}")
        states.append(x[0])
    return np.array(states)


@pytest.mark.parametrize("seed", [12345, 3])
@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_path_matches_scalar_reference(case, seed):
    if case.startswith("overflow"):
        model, x0, horizon, step = PATH_CASES[case]()
        with pytest.raises(sk.SimulationOverflow) as err:
            _paths(PATH_CASES[case], seed)
        with pytest.raises(sk.SimulationOverflow) as want:
            _reference_states(*_blocks(model), x0, horizon, step, seed)
        assert str(err.value) == str(want.value)
        assert 1000 < int(str(err.value).split()[-3]) < BLOCK_ROWS
        return
    got, want = _paths(PATH_CASES[case], seed)
    assert _same_bits(got.times, want.times)
    assert _same_bits(got.states, want.states)
    _assert_same_jumps(got, want)
    assert got.seed == want.seed


def test_path_cases_exercise_jumps():
    for case in ("cp_tanh", "feller_demo", "poisson_rate5", "multi", "path_scalar_multi",
                 "constant_multi", "multi_three_runs",
                 *(name for name in PATH_CASES if name.startswith("look_ahead"))):
        _, want = _paths(PATH_CASES[case], 12345)
        assert want.jumps, case
    _, want = _paths(PATH_CASES["multi"], 12345)
    jump_times = [t for t, _ in want.jumps]
    assert len(jump_times) - len(set(jump_times)) > 20      # many multi-jump steps
    _, want = _paths(PATH_CASES["feller_demo"], 12345)
    assert any(not effect.any() for _, effect in want.jumps)  # jumps after absorption


@pytest.mark.parametrize("case", sorted(DRIFT_PATH_CASES))
def test_drift_path_within_rounding_of_scalar_reference(case):
    # x + (phi*s + drift*dt) against (x + phi*s) + drift*dt: rounding-level drift
    got, want = _paths(DRIFT_PATH_CASES[case], 12345)
    assert _same_bits(got.times, want.times)
    assert got.states.shape == want.states.shape
    assert np.abs(got.states - want.states).max() <= 1e-12 * np.abs(want.states).max()
    _assert_same_jumps(got, want)


@pytest.mark.parametrize("case", sorted(DRIFT_PATH_CASES))
def test_drift_path_matches_reference_step_bit_for_bit(case):
    model, x0, horizon, step = DRIFT_PATH_CASES[case]()
    got = sk.simulate_path(model, x0, horizon, step, 12345)
    want = _reference_states(*_blocks(model), x0, horizon, step, 12345)
    assert _same_bits(got.states, want)


def test_path_input_checks_match_scalar_reference():
    model = catalog.cp_tanh()
    # an x0 of the wrong dimension is a ConfigError naming x0 (the scalar engine
    # raised DimensionMismatch)
    for args, error, ref_error in (((0.0, 1.0, 0.0), ValueError, ValueError),
                                   ((0.0, 1.0, -0.1), ValueError, ValueError),
                                   ((0.0, 0.05, 0.1), ValueError, ValueError),
                                   (([0.0, 1.0], 1.0, 0.1), sk.ConfigError,
                                    sk.DimensionMismatch)):
        with pytest.raises(error):
            sk.simulate_path(model, *args, seed=0)
        with pytest.raises(ref_error):
            ref._simulate_blocks_scalar(model.blocks(), None, *args, 0)


@pytest.mark.parametrize("rate", [1e13, -1e13])
def test_path_overflow_matches_scalar_reference(rate):
    model = _model(catalog.drift_driver(rate=rate), co.bump(0.5, 1.0))
    for run in (lambda: sk.simulate_path(model, 0.0, 1.0, 0.125, 1),
                lambda: ref._simulate_blocks_scalar(model.blocks(), None, 0.0, 1.0, 0.125, 1)):
        with pytest.raises(sk.SimulationOverflow):
            run()


# --------------------------------------------------------------------------
# constant fields: jump-free runs applied as one cumulative sum


CONSTANT_CASES = ("bm_unit", "constant_drift", "constant_multi", "constant_planar",
                  "look_ahead_constant")


@pytest.mark.parametrize("n_paths", [1, 16])
@pytest.mark.parametrize("case", CONSTANT_CASES)
def test_constant_dense_runs_match_reference(case, n_paths):
    # two full buffers of BLOCK_ROWS // n_paths steps and a ragged third, at a step
    # of 0.01: the look-ahead sees K = 50 steps at one path and 3 at sixteen
    model, x0 = CASES[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n_steps = 2 * (BLOCK_ROWS // n_paths) + 37
    got = simulate_paths_dense(blocks, drift, x0, 0.01 * n_steps, n_steps, n_paths, 4,
                               base_key=(3, 1))
    want = ref.simulate_paths_dense(blocks, drift, x0, 0.01 * n_steps, n_steps, n_paths, 4,
                                    base_key=(3, 1))
    assert _same_bits(got, want)


def _reference_overflow(blocks, n_steps, n_paths):
    with pytest.raises(sk.SimulationOverflow) as err:
        ref.simulate_ensemble(blocks, None, np.zeros(1), 0.125 * n_steps, n_steps, n_paths, 1)
    return str(err.value)


# drift 1e13 overflows on the first step; drift 1e10 on step 801 of 8000, inside a buffer
@pytest.mark.parametrize("rate, n_steps", [(1e13, 8), (-1e13, 8), (1e10, 8000), (-1e10, 8000)])
def test_constant_overflow_matches_reference(rate, n_steps):
    model = _model(catalog.drift_driver(rate=rate), co.constant(1.0))
    blocks = model.blocks()
    with pytest.raises(sk.SimulationOverflow) as err:
        sk.simulate_path(model, 0.0, 0.125 * n_steps, 0.125, 1)
    assert str(err.value) == _reference_overflow(blocks, n_steps, 1)
    with pytest.raises(sk.SimulationOverflow) as err:
        simulate_paths_dense(blocks, None, np.zeros(1), 0.125 * n_steps, n_steps, 16, 1)
    assert str(err.value) == _reference_overflow(blocks, n_steps, 16)
    assert f"at step {1 if abs(rate) > 1e12 else 801} of {n_steps}" in str(err.value)


def test_constant_fields_skip_the_per_step_rule_on_jump_free_steps(monkeypatch):
    # jump-free steps of any field make no _advance_chunk call; each jumping step makes one
    calls = []
    advance = sk.sde._advance_chunk

    def counted(*args, **kwargs):
        calls.append(args[-1])      # the step's grid time
        return advance(*args, **kwargs)

    monkeypatch.setattr(sk.sde, "_advance_chunk", counted)
    path = sk.simulate_path(catalog.bm_unit(), 0.0, 10.0, 1e-3, 1)
    assert len(path.times) == 10_001 and calls == []
    path = sk.simulate_path(_model(catalog.poisson_unit(rate=5.0), co.constant(1.0)),
                            0.0, 10.0, 1e-2, 3)
    jump_times = sorted({t for t, _ in path.jumps})
    assert len(jump_times) > 20 and calls == jump_times      # one call per jump step
    calls.clear()
    path = sk.simulate_path(_model(catalog.bm_driver(), co.bump(0.5, 1.0)), 0.0, 1.0, 1e-2, 1)
    assert len(path.times) - 1 == 100 and calls == []
    # steps drawn alone, one sampler call each
    path = sk.simulate_path(PATH_CASES["stable_1.5_cosine"]()[0], 0.0, 1.0, 1e-2, 1)
    assert len(path.times) - 1 == 100 and calls == []
    path = sk.simulate_path(catalog.cp_tanh(), 0.0, 40.0, 1e-2, 3)
    jump_times = sorted({t for t, _ in path.jumps})
    assert len(jump_times) > 20 and calls == jump_times


@pytest.mark.parametrize("name", ["stable_sin", "bm_bump_drift"])
def test_jump_free_paths_build_no_step_samples_beyond_the_draws(name, monkeypatch):
    built, drawn = [], []
    init, sampler = StepSample.__init__, sk.levy.sample_step_ensemble

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_sampler(*args):
        drawn.append(args[2])
        return sampler(*args)

    monkeypatch.setattr(StepSample, "__init__", counted_init)
    monkeypatch.setattr(sk.levy, "sample_step_ensemble", counted_sampler)
    path = sk.simulate_path(catalog.MODEL_CATALOG[name](), 0.0, 10.0, 1e-3, 7)
    assert len(path.times) == 10_001 and not path.jumps
    assert drawn == [BLOCK_ROWS, BLOCK_ROWS, 10_000 - 2 * BLOCK_ROWS]
    assert len(built) == len(drawn)


# --------------------------------------------------------------------------
# zero draws without a drift field: a pure compound-Poisson path stands still
# between its jumps, and its jump-free runs are applied as one sum


def _signed_zero_field():
    """1 at -0.0 and below, inf at +0.0 and above: finite at x0 = -0.0 but not
    at the +0.0 that the first step leaves there."""
    return CoefficientField(batch_fn=lambda xs: np.where(np.signbit(xs), 1.0, np.inf)[:, :, None],
                            d=1, n=1, bound=np.inf, lipschitz=np.inf)


_INF_AT_ZERO = CoefficientField(batch_fn=lambda xs: np.where(xs == 0.0, np.inf, 1.0)[:, :, None],
                                d=1, n=1, bound=np.inf, lipschitz=np.inf)
# name -> (model, x0); every jump-free run of these draws only zeros
ZERO_DRAW_CASES = {
    "cp_tanh": lambda: (catalog.cp_tanh(), 0.3),
    "cp_tanh_negative_zero": lambda: (catalog.cp_tanh(), -0.0),
    "feller": lambda: (_model(catalog.poisson_unit(), co.negative_identity()), 5.0),
    "feller_negative_zero": lambda: (_model(catalog.poisson_unit(), co.negative_identity()),
                                     -0.0),
    "tempered_bump": lambda: (_model(catalog.tempered_density_driver(), co.bump(0.5, 1.0)),
                              0.1),
    "tempered_bump_negative_zero": lambda: (_model(catalog.tempered_density_driver(),
                                                   co.bump(0.5, 1.0)), -0.0),
    # a field value of inf at x0: inf * 0 is NaN, and the path is NaN from step 1 on
    "inf_at_x0": lambda: (_model(catalog.compound_poisson_pm1(rate=2.0), _INF_AT_ZERO), 0.0),
    "inf_after_negative_zero": lambda: (_model(catalog.compound_poisson_pm1(rate=2.0),
                                               _signed_zero_field()), -0.0),
}
# draws that are not all zero, or a drift field: these runs still go one step at a time
STEPPED_CASES = {
    "normal_law_mean": lambda: (_model(LevyTriplet([0.0], [[0.0]], FiniteActivity(
        2.0, normal_law(0.2, 0.6))), _TANH), 0.1),
    "driver_drift": lambda: (_model(LevyTriplet([0.3], [[0.0]], FiniteActivity(
        2.0, AtomLaw.of([(1.0, 0.5), (-1.0, 0.5)]))), _TANH), 0.1),
    "drift_field": lambda: (_model(catalog.compound_poisson_pm1(rate=2.0), _TANH,
                                   co.sine(0.0, 0.5)), 0.1),
}


def _count_runs(monkeypatch):
    runs = []
    apply_run = sk.sde._apply_run

    def counted(*args):
        runs.append(len(args[3][0]))        # the run's length in steps
        return apply_run(*args)

    monkeypatch.setattr(sk.sde, "_apply_run", counted)
    return runs


@pytest.mark.parametrize("case", sorted(ZERO_DRAW_CASES))
def test_zero_draw_path_matches_reference_step(case, monkeypatch):
    model, x0 = ZERO_DRAW_CASES[case]()
    runs = _count_runs(monkeypatch)
    with np.errstate(invalid="ignore"):
        got = sk.simulate_path(model, x0, 2.0, 1e-3, 5)
        want = _reference_states(*_blocks(model), x0, 2.0, 1e-3, 5)
    assert _same_bits(got.states, want)
    assert sum(runs) > 1000 and min(runs) > 1
    if case.startswith("inf"):
        assert np.isnan(want[2:]).all()


@pytest.mark.parametrize("case", sorted(ZERO_DRAW_CASES))
def test_zero_draw_dense_matches_reference(case, monkeypatch):
    # 16 paths at a step of 1e-4: the look-ahead sees K = 256 steps of cp_tanh and 12
    # of the tempered driver, whose activity is about 50
    model, x0 = ZERO_DRAW_CASES[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    runs = _count_runs(monkeypatch)
    with np.errstate(invalid="ignore"):
        got = simulate_paths_dense(blocks, drift, x0, 0.05, 500, 16, 5, base_key=(3, 2))
        want = ref.simulate_paths_dense(blocks, drift, x0, 0.05, 500, 16, 5, base_key=(3, 2))
    assert _same_bits(got, want)
    assert runs and min(runs) > 1


@pytest.mark.parametrize("x0", [2e12, -2e12])
def test_zero_draw_overflow_matches_reference(x0):
    model = catalog.cp_tanh()
    with pytest.raises(sk.SimulationOverflow) as err:
        sk.simulate_path(model, x0, 1.0, 1e-3, 1)
    with pytest.raises(sk.SimulationOverflow) as want:
        _reference_states(model.blocks(), None, x0, 1.0, 1e-3, 1)
    assert str(err.value) == str(want.value)
    assert "at step 1 of 1000" in str(err.value)


@pytest.mark.parametrize("case", sorted(STEPPED_CASES))
def test_nonzero_draws_or_drift_field_step_one_at_a_time(case, monkeypatch):
    model, x0 = STEPPED_CASES[case]()
    runs = _count_runs(monkeypatch)
    got = sk.simulate_path(model, x0, 2.0, 1e-3, 5)
    want = _reference_states(*_blocks(model), x0, 2.0, 1e-3, 5)
    assert _same_bits(got.states, want)
    assert runs == []


def test_zero_draw_path_makes_one_increment_call_per_run(monkeypatch):
    segments, calls = [], []
    step_samples, increment = sk.sde._step_samples, sk.sde._smooth_increment

    def counted_segments(*args):
        for seg in step_samples(*args):
            segments.append(len(seg[0][0]))
            yield seg

    def counted_increment(*args):
        calls.append(len(args[0]))          # the number of state rows
        return increment(*args)

    monkeypatch.setattr(sk.sde, "_step_samples", counted_segments)
    monkeypatch.setattr(sk.sde, "_smooth_increment", counted_increment)
    path = sk.simulate_path(catalog.cp_tanh(), 0.0, 10.0, 1e-3, 11)
    assert len(path.times) == 10_001 and path.jumps
    assert sum(segments) == 10_000 and len(calls) == len(segments) < 100
    assert calls == segments                # one call per run, on a row per step


# --------------------------------------------------------------------------
# zero-draw blocks of bounded fields: a pure-jump block whose field declares a
# finite bound adds fld(x) * 0 on a step whose draws are all zero, and is left out


def _smooth_many_calls(monkeypatch):
    """The fields ``CoefficientField.many`` is called on inside ``sde._smooth_increment``."""
    fields, inside = [], []
    many, increment = CoefficientField.many, sde._smooth_increment

    def counted_many(self, xs):
        if inside:
            fields.append(self)
        return many(self, xs)

    def counted_increment(*args):
        inside.append(True)
        try:
            return increment(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(CoefficientField, "many", counted_many)
    monkeypatch.setattr(sde, "_smooth_increment", counted_increment)
    return fields


@pytest.mark.parametrize("case", sorted(ZERO_DRAW_CASES))
def test_zero_draw_paths_evaluate_only_unbounded_fields(case, monkeypatch):
    model, x0 = ZERO_DRAW_CASES[case]()
    fields = _smooth_many_calls(monkeypatch)
    with np.errstate(invalid="ignore"):
        sk.simulate_path(model, x0, 2.0, 1e-3, 5)
    if np.isfinite(model.coefficient.bound):
        assert fields == []
    else:
        assert fields and all(f is model.coefficient for f in fields)


def test_bounded_zero_draw_blocks_make_no_smooth_field_call(monkeypatch):
    fields = _smooth_many_calls(monkeypatch)
    ens = simulate_ensemble(*_blocks(catalog.cp_tanh()), np.zeros(1), 0.5, 50, 2000, 3)
    assert (ens.terminal != 0.0).any() and fields == []
    # the Gaussian column is still evaluated on every step, the compound-Poisson one never
    spec = PATH_CASES["path_scalar_multi"]()[0]
    simulate_multi(spec, 0.0, 1.0, 1e-2, 5)
    assert len(fields) == 100 and all(f is spec.drivers[0][0] for f in fields)
    # and so is a drift field
    fields.clear()
    model, x0 = STEPPED_CASES["drift_field"]()
    sk.simulate_path(model, x0, 1.0, 1e-2, 5)
    assert len(fields) == 100 and all(f is model.drift_coefficient for f in fields)
