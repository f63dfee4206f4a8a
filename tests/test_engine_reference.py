"""The in-place ensemble engine against the straightforward step kept in reference_engine."""

import numpy as np
import pytest

import reference_engine as ref
import symbolkit as sk
from symbolkit import catalog, coefficients as co
from symbolkit.coefficients import CoefficientField
from symbolkit.levy import (AtomLaw, FiniteActivity, LevyModel, LevyTriplet, StableSymmetric,
                            normal_law)
from symbolkit.sde import MultiDriverSpec, simulate_ensemble, simulate_paths_dense


def _model(driver, phi, drift=None):
    return sk.SdeModel(coefficient=phi, driver=driver, drift_coefficient=drift)


def _planar_model():
    """d = 2 states driven by a two-dimensional jump-diffusion (einsum and matmul paths)."""
    law = AtomLaw.of([((0.5, -0.2), 0.5), ((-1.5, 0.3), 0.5)])
    driver = LevyModel(LevyTriplet([0.1, -0.2], [[1.0, 0.3], [0.3, 0.5]],
                                   FiniteActivity(40.0, law)))
    phi = CoefficientField(
        fn=lambda x: np.array([[1.0 + 0.5 * np.sin(x[1]), 0.2], [0.1, 0.8 + 0.3 * np.cos(x[0])]]),
        batch_fn=lambda xs: np.stack([
            np.stack([1.0 + 0.5 * np.sin(xs[:, 1]), np.full(len(xs), 0.2)], axis=1),
            np.stack([np.full(len(xs), 0.1), 0.8 + 0.3 * np.cos(xs[:, 0])], axis=1)], axis=1),
        d=2, n=2, bound=2.0, lipschitz=1.0)
    drift = CoefficientField(fn=lambda x: -0.5 * x.reshape(2, 1),
                             batch_fn=lambda xs: -0.5 * xs[:, :, None],
                             d=2, n=1, bound=np.inf, lipschitz=0.5, bounded=False)
    return _model(driver, phi, drift)


def _column_model():
    """d = 2 states driven by one scalar compound-Poisson driver (an n = 1 block with d = 2)."""
    phi = CoefficientField(
        fn=lambda x: np.array([[np.tanh(x[0])], [1.0 + 0.0 * x[1]]]),
        batch_fn=lambda xs: np.stack([np.tanh(xs[:, 0]), np.ones(len(xs))], axis=1)[:, :, None],
        d=2, n=1, bound=2.0, lipschitz=1.0)
    return _model(catalog.compound_poisson_pm1(rate=30.0), phi)


def _multi_spec():
    # high jump rates so that paths often jump several times, in both blocks, in one step
    return MultiDriverSpec([(co.bump(0.5, 1.0), catalog.compound_poisson_pm1(rate=60.0)),
                            (co.tanh_field(2.0, 1.0), catalog.poisson_unit(rate=40.0)),
                            (co.sine(0.5, 1.0), catalog.bm_driver())])


CASES = {name: (lambda name=name: (catalog.MODEL_CATALOG[name](), 0.0))
         for name in catalog.MODEL_CATALOG}
CASES["feller_demo"] = lambda: (catalog.feller_demo_model(), 5.0)
CASES.update({
    "tempered": lambda: (_model(catalog.tempered_density_driver(), co.bump(0.5, 1.0)), 0.0),
    "normal_law": lambda: (_model(LevyModel(LevyTriplet(
        [0.3], [[0.0]], FiniteActivity(25.0, normal_law(0.1, 0.6)))), co.bump(0.5, 1.0)), 0.2),
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
})


def _blocks(model):
    return model.blocks(), getattr(model, "drift_coefficient", None)


def _same_bits(a, b):
    return a is None and b is None or (a.dtype == b.dtype and a.shape == b.shape
                                       and a.tobytes() == b.tobytes())


def _assert_same_ensemble(got, want):
    assert _same_bits(got.terminal, want.terminal)
    assert _same_bits(got.exited, want.exited)
    assert _same_bits(got.running_max, want.running_max)
    assert _same_bits(got.record_steps, want.record_steps)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_ensemble_matches_reference(case, threads):
    model, x0 = CASES[case]()
    blocks, drift = _blocks(model)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    # a tight radius, so paths exit mid-run, and a stop centre away from x0
    for stop in ({}, {"stop_radius": 0.4}, {"stop_center": x0 + 0.1, "stop_radius": 0.6}):
        kwargs = dict(base_key=(7, 3), record_max_steps=[12, 3, 7], chunk_size=700,
                      threads=threads, **stop)
        got = simulate_ensemble(blocks, drift, x0, 0.3, 12, 1500, 11, **kwargs)
        want = ref.simulate_ensemble(blocks, drift, x0, 0.3, 12, 1500, 11, **kwargs)
        _assert_same_ensemble(got, want)
        assert want.exited.any() == ("stop_radius" in stop
                                     and case not in ("zero_coefficient", "tiny_coefficient"))


def test_exits_happen_mid_run():
    model = catalog.bm_bump()
    kwargs = dict(stop_radius=0.3, record_max_steps=[20])
    got = simulate_ensemble(model.blocks(), None, np.zeros(1), 0.05, 20, 2000, 4, **kwargs)
    want = ref.simulate_ensemble(model.blocks(), None, np.zeros(1), 0.05, 20, 2000, 4, **kwargs)
    assert 0.2 < want.exited.mean() < 0.95
    _assert_same_ensemble(got, want)


def test_default_chunk_matches_reference():
    # one full DEFAULT_CHUNK chunk plus a partial one, as in the symbol-compare rungs
    model = catalog.cp_tanh()
    x0 = np.array([1.0])
    kwargs = dict(stop_center=x0, stop_radius=20.0, threads=2)
    got = simulate_ensemble(model.blocks(), None, x0, 0.04, 10, 20000, 3, **kwargs)
    want = ref.simulate_ensemble(model.blocks(), None, x0, 0.04, 10, 20000, 3, **kwargs)
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
    triplets = [model.driver.triplet for model in (catalog.bm_bump(), catalog.cp_tanh(),
                                                    catalog.stable_sin())]
    triplets += [catalog.tempered_density_driver().triplet, catalog.drift_driver(0.5).triplet,
                 _planar_model().driver.triplet,
                 LevyTriplet([0.2], [[0.4]], StableSymmetric(1.3, 0.5)),
                 LevyTriplet([0.0], [[2.0]], FiniteActivity(3.0, normal_law(0.2, 0.5)))]
    for trip in triplets:
        for m in (1, 257):
            got = sk.levy.sample_step_ensemble(trip, 0.05, m, sk.seeding.rng_at(9, m))
            want = ref.sample_step_ensemble(trip, 0.05, m, sk.seeding.rng_at(9, m))
            for field in ("smooth", "jump_counts", "jump_values", "jump_positions"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()
